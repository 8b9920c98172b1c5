//! # gridsec-xml
//!
//! A minimal XML infoset for the `gridsec` reproduction of *Security for
//! Grid Services* (Welch et al., HPDC 2003).
//!
//! GT3 moves all GSI exchanges onto SOAP with WS-Security headers,
//! XML-Signature, and XML-Encryption. The Rust ecosystem substitution
//! (`DESIGN.md` §2) is to implement the minimal XML machinery those
//! layers need, from scratch:
//!
//! * [`Element`]/[`Node`] — an element tree with attributes and text.
//! * [`Element::parse`] — a strict, entity-aware, non-validating parser
//!   (no DTDs, no processing instructions beyond the XML declaration).
//! * [`Element::to_xml`] — compact serialization with escaping.
//! * [`Element::canonical_xml`] — deterministic canonical form
//!   ("c14n-lite"): attributes sorted by name, fixed quoting, no
//!   insignificant whitespace. This plays the role Exclusive XML
//!   Canonicalization plays under real XML-Signature: both signer and
//!   verifier derive identical bytes from equivalent infosets.
//!
//! Namespace prefixes are kept as literal parts of names (`wsse:Security`)
//! — sufficient for a closed protocol suite where we control both ends,
//! and documented as a simplification in `DESIGN.md`.
//!
//! ## Example
//!
//! ```
//! use gridsec_xml::Element;
//!
//! let env = Element::new("soap:Envelope")
//!     .with_attr("xmlns:soap", "http://schemas.xmlsoap.org/soap/envelope/")
//!     .with_child(Element::new("soap:Body").with_text("hi & bye"));
//! let xml = env.to_xml();
//! let parsed = Element::parse(&xml).unwrap();
//! assert_eq!(parsed.find("soap:Body").unwrap().text_content(), "hi & bye");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod parser;

pub use parser::XmlError;

/// A node in an element's child list.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Node {
    /// A child element.
    Element(Element),
    /// A text run (unescaped form).
    Text(String),
}

/// An XML element: name, attributes, children.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Element {
    /// Qualified name as written, e.g. `wsse:Security`.
    pub name: String,
    /// Attributes in document order (qualified name, unescaped value).
    pub attributes: Vec<(String, String)>,
    /// Child nodes in document order.
    pub children: Vec<Node>,
}

impl Element {
    /// Create an empty element.
    pub fn new(name: impl Into<String>) -> Self {
        Element {
            name: name.into(),
            attributes: Vec::new(),
            children: Vec::new(),
        }
    }

    // ------------------------------------------------------------------
    // Builder API
    // ------------------------------------------------------------------

    /// Builder: add an attribute.
    pub fn with_attr(mut self, name: impl Into<String>, value: impl Into<String>) -> Self {
        self.set_attr(name, value);
        self
    }

    /// Builder: append a child element.
    pub fn with_child(mut self, child: Element) -> Self {
        self.children.push(Node::Element(child));
        self
    }

    /// Builder: append a text node.
    pub fn with_text(mut self, text: impl Into<String>) -> Self {
        self.children.push(Node::Text(text.into()));
        self
    }

    /// Set (or replace) an attribute in place.
    pub fn set_attr(&mut self, name: impl Into<String>, value: impl Into<String>) {
        let name = name.into();
        let value = value.into();
        if let Some(slot) = self.attributes.iter_mut().find(|(n, _)| *n == name) {
            slot.1 = value;
        } else {
            self.attributes.push((name, value));
        }
    }

    /// Append a child element in place.
    pub fn push_child(&mut self, child: Element) {
        self.children.push(Node::Element(child));
    }

    /// Append a text node in place.
    pub fn push_text(&mut self, text: impl Into<String>) {
        self.children.push(Node::Text(text.into()));
    }

    // ------------------------------------------------------------------
    // Queries
    // ------------------------------------------------------------------

    /// Attribute value by qualified name.
    pub fn attr(&self, name: &str) -> Option<&str> {
        self.attributes
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    /// The element's local name (after any `prefix:`).
    pub fn local_name(&self) -> &str {
        self.name.rsplit(':').next().unwrap_or(&self.name)
    }

    /// First direct child element with the given qualified name, or —
    /// when `name` has no prefix — matching by local name.
    pub fn find(&self, name: &str) -> Option<&Element> {
        self.child_elements().find(|e| Self::name_matches(e, name))
    }

    /// All direct child elements matching (same rule as [`Element::find`]).
    pub fn find_all<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Element> + 'a {
        self.child_elements()
            .filter(move |e| Self::name_matches(e, name))
    }

    fn name_matches(e: &Element, name: &str) -> bool {
        if name.contains(':') {
            e.name == name
        } else {
            e.local_name() == name
        }
    }

    /// Walk a path of child names from this element.
    pub fn path(&self, names: &[&str]) -> Option<&Element> {
        let mut cur = self;
        for n in names {
            cur = cur.find(n)?;
        }
        Some(cur)
    }

    /// Direct child elements.
    pub fn child_elements(&self) -> impl Iterator<Item = &Element> {
        self.children.iter().filter_map(|n| match n {
            Node::Element(e) => Some(e),
            Node::Text(_) => None,
        })
    }

    /// Concatenated text of direct text children.
    pub fn text_content(&self) -> String {
        let mut out = String::new();
        for n in &self.children {
            if let Node::Text(t) = n {
                out.push_str(t);
            }
        }
        out
    }

    /// Depth-first search for an element with attribute `attr` == `value`
    /// (how XML-Signature `Reference URI="#id"` resolution works).
    pub fn find_by_attr<'a>(&'a self, attr: &str, value: &str) -> Option<&'a Element> {
        if self.attr(attr) == Some(value) {
            return Some(self);
        }
        for c in self.child_elements() {
            if let Some(found) = c.find_by_attr(attr, value) {
                return Some(found);
            }
        }
        None
    }

    /// Depth-first search for the first descendant with the given name
    /// (self included).
    pub fn find_descendant(&self, name: &str) -> Option<&Element> {
        if Self::name_matches(self, name) {
            return Some(self);
        }
        for c in self.child_elements() {
            if let Some(found) = c.find_descendant(name) {
                return Some(found);
            }
        }
        None
    }

    // ------------------------------------------------------------------
    // Serialization
    // ------------------------------------------------------------------

    /// Compact serialization, attributes in document order.
    pub fn to_xml(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, false);
        out
    }

    /// Canonical serialization: attributes sorted by name, fixed quoting,
    /// explicit end tags. Equivalent infosets yield identical bytes, which
    /// is the property XML-Signature digesting requires.
    pub fn canonical_xml(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, true);
        out
    }

    fn write(&self, out: &mut String, canonical: bool) {
        out.push('<');
        out.push_str(&self.name);
        if canonical {
            let mut sorted: Vec<&(String, String)> = self.attributes.iter().collect();
            sorted.sort_unstable();
            sorted.into_iter().for_each(|a| write_attr(out, a));
        } else {
            self.attributes.iter().for_each(|a| write_attr(out, a));
        }
        if self.children.is_empty() && !canonical {
            out.push_str("/>");
            return;
        }
        out.push('>');
        for c in &self.children {
            match c {
                Node::Element(e) => e.write(out, canonical),
                Node::Text(t) => escape_into(out, t, false),
            }
        }
        out.push_str("</");
        out.push_str(&self.name);
        out.push('>');
    }

    /// Parse a document; returns the root element.
    pub fn parse(input: &str) -> Result<Element, XmlError> {
        parser::parse(input)
    }
}

fn write_attr(out: &mut String, (name, value): &(String, String)) {
    out.push(' ');
    out.push_str(name);
    out.push_str("=\"");
    escape_into(out, value, true);
    out.push('"');
}

/// Append `s` to `out`, escaping `&`, `<` and `>` — and, inside an
/// attribute value, both quote characters. Runs that need no escaping
/// are copied whole.
fn escape_into(out: &mut String, s: &str, attr: bool) {
    let mut run = 0;
    for (i, b) in s.bytes().enumerate() {
        let entity = match b {
            b'&' => "&amp;",
            b'<' => "&lt;",
            b'>' => "&gt;",
            b'"' if attr => "&quot;",
            b'\'' if attr => "&apos;",
            _ => continue,
        };
        out.push_str(&s[run..i]);
        out.push_str(entity);
        run = i + 1;
    }
    out.push_str(&s[run..]);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_and_queries() {
        let el = Element::new("a")
            .with_attr("id", "1")
            .with_child(Element::new("b").with_text("x"))
            .with_child(Element::new("ns:c"))
            .with_child(Element::new("b").with_text("y"));
        assert_eq!(el.attr("id"), Some("1"));
        assert_eq!(el.attr("missing"), None);
        assert_eq!(el.find("b").unwrap().text_content(), "x");
        assert_eq!(el.find_all("b").count(), 2);
        // Local-name matching for prefixed elements.
        assert_eq!(el.find("c").unwrap().name, "ns:c");
        assert_eq!(el.find("ns:c").unwrap().name, "ns:c");
        assert!(el.find("ns2:c").is_none());
    }

    #[test]
    fn path_navigation() {
        let el = Element::new("env")
            .with_child(Element::new("hdr").with_child(Element::new("sec").with_text("s")));
        assert_eq!(el.path(&["hdr", "sec"]).unwrap().text_content(), "s");
        assert!(el.path(&["hdr", "nope"]).is_none());
    }

    #[test]
    fn find_by_attr_recurses() {
        let el = Element::new("a")
            .with_child(Element::new("b").with_child(Element::new("c").with_attr("Id", "target")));
        assert_eq!(el.find_by_attr("Id", "target").unwrap().name, "c");
        assert!(el.find_by_attr("Id", "other").is_none());
    }

    #[test]
    fn find_descendant_works() {
        let el =
            Element::new("a").with_child(Element::new("b").with_child(Element::new("deep:target")));
        assert_eq!(el.find_descendant("target").unwrap().name, "deep:target");
    }

    #[test]
    fn escaping_roundtrip() {
        let el = Element::new("t")
            .with_attr("a", "x\"<>&'y")
            .with_text("a < b && c > \"d\"");
        let xml = el.to_xml();
        let parsed = Element::parse(&xml).unwrap();
        assert_eq!(parsed.attr("a"), Some("x\"<>&'y"));
        assert_eq!(parsed.text_content(), "a < b && c > \"d\"");
    }

    #[test]
    fn serialization_bytes_are_pinned() {
        // XML-Signature digests hash these bytes: escaping of `& < > " '`
        // in text and attribute values, and multibyte characters passed
        // through untouched, must never change.
        let el = Element::new("t")
            .with_attr("z", "a&b<c>d\"e'f é")
            .with_attr("a", "ü'\"")
            .with_child(Element::new("c").with_text("x & y < z > \"q\" 'p' — ü"))
            .with_text("tail&€")
            .with_child(Element::new("e"));
        assert_eq!(
            el.to_xml(),
            "<t z=\"a&amp;b&lt;c&gt;d&quot;e&apos;f é\" a=\"ü&apos;&quot;\">\
             <c>x &amp; y &lt; z &gt; \"q\" 'p' — ü</c>tail&amp;€<e/></t>"
        );
        assert_eq!(
            el.canonical_xml(),
            "<t a=\"ü&apos;&quot;\" z=\"a&amp;b&lt;c&gt;d&quot;e&apos;f é\">\
             <c>x &amp; y &lt; z &gt; \"q\" 'p' — ü</c>tail&amp;€<e></e></t>"
        );
    }

    #[test]
    fn canonical_sorts_attributes() {
        let a = Element::new("t").with_attr("z", "1").with_attr("a", "2");
        let b = Element::new("t").with_attr("a", "2").with_attr("z", "1");
        assert_ne!(a.to_xml(), b.to_xml());
        assert_eq!(a.canonical_xml(), b.canonical_xml());
    }

    #[test]
    fn canonical_never_self_closes() {
        let el = Element::new("empty");
        assert_eq!(el.to_xml(), "<empty/>");
        assert_eq!(el.canonical_xml(), "<empty></empty>");
        // Self-closing and explicit forms parse to the same infoset,
        // hence the same canonical bytes.
        let a = Element::parse("<empty/>").unwrap();
        let b = Element::parse("<empty></empty>").unwrap();
        assert_eq!(a.canonical_xml(), b.canonical_xml());
    }

    #[test]
    fn set_attr_replaces() {
        let mut el = Element::new("t");
        el.set_attr("k", "1");
        el.set_attr("k", "2");
        assert_eq!(el.attributes.len(), 1);
        assert_eq!(el.attr("k"), Some("2"));
    }

    #[test]
    fn doc_shape() {
        let env = Element::new("soap:Envelope")
            .with_attr("xmlns:soap", "http://schemas.xmlsoap.org/soap/envelope/")
            .with_child(Element::new("soap:Header"))
            .with_child(Element::new("soap:Body").with_text("payload"));
        let xml = env.to_xml();
        assert!(xml.starts_with("<soap:Envelope"));
        let parsed = Element::parse(&xml).unwrap();
        assert_eq!(parsed, env);
    }
}
