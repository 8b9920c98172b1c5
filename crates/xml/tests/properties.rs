//! Property tests: serialize → parse roundtrips over random trees.

use gridsec_util::check::{check, Gen};
use gridsec_xml::{Element, Node};

const CASES: u64 = 128;

const NAME_FIRST: &str = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz";
const NAME_REST: &str = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789._-";

/// An XML name `[A-Za-z][A-Za-z0-9._-]{0,8}`, optionally `prefix:local`.
fn name(g: &mut Gen) -> String {
    let part = |g: &mut Gen| {
        let mut s = String::new();
        s.push(g.char_from(NAME_FIRST));
        s.push_str(&g.string(NAME_REST, 0..9));
        s
    };
    let mut out = part(g);
    if g.pick(4) == 0 {
        out.push(':');
        out.push_str(&part(g));
    }
    out
}

/// Printable text including characters that need escaping; avoid
/// whitespace-only strings (dropped as insignificant by the parser).
fn text(g: &mut Gen) -> String {
    let s = g.printable_string(0..24);
    if s.trim().is_empty() {
        "x".to_string()
    } else {
        s.trim().to_string()
    }
}

fn element(g: &mut Gen, depth: usize) -> Element {
    let mut el = Element::new(name(g));
    for _ in 0..g.usize_in(0..4) {
        el.set_attr(name(g), text(g)); // dedups names
    }
    if depth == 0 {
        if g.bool() {
            el.push_text(text(g));
        }
    } else {
        for _ in 0..g.usize_in(0..4) {
            el.push_child(element(g, depth - 1));
        }
    }
    el
}

fn random_element(g: &mut Gen) -> Element {
    let depth = g.usize_in(0..4);
    element(g, depth)
}

/// Merge adjacent text nodes the way a parser would see them.
fn normalize(el: &Element) -> Element {
    let mut out = Element::new(el.name.clone());
    out.attributes = el.attributes.clone();
    let mut pending_text = String::new();
    for c in &el.children {
        match c {
            Node::Text(t) => pending_text.push_str(t),
            Node::Element(e) => {
                if !pending_text.trim().is_empty() {
                    out.children.push(Node::Text(pending_text.clone()));
                }
                pending_text.clear();
                out.children.push(Node::Element(normalize(e)));
            }
        }
    }
    if !pending_text.trim().is_empty() {
        out.children.push(Node::Text(pending_text));
    }
    out
}

#[test]
fn serialize_parse_roundtrip() {
    check("serialize_parse_roundtrip", CASES, |g| {
        let el = random_element(g);
        let xml = el.to_xml();
        let parsed = Element::parse(&xml).unwrap();
        assert_eq!(normalize(&parsed), normalize(&el));
    });
}

#[test]
fn canonical_stable_under_reparse() {
    check("canonical_stable_under_reparse", CASES, |g| {
        let el = random_element(g);
        let c1 = el.canonical_xml();
        let parsed = Element::parse(&c1).unwrap();
        assert_eq!(parsed.canonical_xml(), c1);
    });
}

/// Tags, markup delimiters, entity and section openers, and 2-, 3-
/// and 4-byte UTF-8 characters, for gluing into near-valid documents.
#[rustfmt::skip]
const FRAGMENTS: &[&str] = &[
    "<a>", "</a>", "<a b=\"", "<a b='", "<", ">", "\"", "'", "=", "&", "]]>", "</", "/>",
    "<!--", "-->", "<![CDATA[", "<?xml", "?>", ";", "#", "#x", "amp;", "&#233;", "&#x20AC;",
    "a", "b:c", " ", "\n", "é", "€", "ü", "—", "😀",
    "<é", "é>", "\"é", "é\"", "=é", "é=", "&é", "é&", "]]>é", "é]]>", "&é;", "&#é;",
];

#[test]
fn parser_never_panics() {
    check("parser_never_panics", CASES, |g| {
        // Printable ASCII is already heavy in <, >, &, quotes.
        let s = g.printable_string(0..200);
        let _ = Element::parse(&s);
        // Markup fragments glued to multibyte UTF-8: the parser slices
        // its `&str` input, and a slice off a char boundary would panic.
        // Most start inside an open tag, so the body gets parsed too.
        let open = *g.choice(&["", "<a>", "<a>", "<a b='"]);
        let s = open.to_string() + &g.vec(0..60, |g| *g.choice(FRAGMENTS)).concat();
        let _ = Element::parse(&s);
    });
}
