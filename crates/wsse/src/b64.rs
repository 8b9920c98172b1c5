//! Standard base64 (RFC 4648, with padding) for embedding binary tokens,
//! digests, and signatures in XML text content.

use gridsec_xml::{Element, Node};

const ALPHABET: &[u8; 64] = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/";

/// Encode bytes to base64.
pub fn encode(data: &[u8]) -> String {
    let mut out = Vec::with_capacity(data.len().div_ceil(3) * 4);
    let mut chunks = data.chunks_exact(3);
    for c in &mut chunks {
        let n = (c[0] as u32) << 16 | (c[1] as u32) << 8 | c[2] as u32;
        out.extend_from_slice(&[
            ALPHABET[(n >> 18) as usize & 63],
            ALPHABET[(n >> 12) as usize & 63],
            ALPHABET[(n >> 6) as usize & 63],
            ALPHABET[n as usize & 63],
        ]);
    }
    match *chunks.remainder() {
        [a] => out.extend_from_slice(&[
            ALPHABET[(a >> 2) as usize],
            ALPHABET[(a & 3) as usize * 16],
            b'=',
            b'=',
        ]),
        [a, b] => out.extend_from_slice(&[
            ALPHABET[(a >> 2) as usize],
            ALPHABET[((a & 3) << 4 | b >> 4) as usize],
            ALPHABET[(b & 15) as usize * 4],
            b'=',
        ]),
        _ => {}
    }
    String::from_utf8(out).expect("the base64 alphabet is ASCII")
}

/// Table entry for a byte outside the alphabet.
const INVALID: u8 = 0xFF;
/// Table entry for ASCII whitespace, which the decoder skips.
const SKIP: u8 = 0xFE;
/// Table entry for the pad character `=`.
const PAD: u8 = 0xFD;

/// Byte → sextet value (0..64), or one of the markers above.
const DECODE: [u8; 256] = {
    let mut t = [INVALID; 256];
    let mut i = 0;
    while i < 64 {
        t[ALPHABET[i] as usize] = i as u8;
        i += 1;
    }
    t[b'=' as usize] = PAD;
    t[b' ' as usize] = SKIP;
    t[b'\t' as usize] = SKIP;
    t[b'\n' as usize] = SKIP;
    t[b'\x0C' as usize] = SKIP;
    t[b'\r' as usize] = SKIP;
    t
};

/// Decode base64 (padding required; whitespace tolerated).
///
/// Strict per RFC 4648: `=` may appear only at the end of the final
/// quantum (§3.3), and the pad bits it leaves must be zero (§3.5), so
/// every accepted input is the one encoding of its bytes, up to
/// whitespace.
pub fn decode(s: &str) -> Option<Vec<u8>> {
    let mut out = Vec::with_capacity(s.len() / 4 * 3);
    // Sextets of the current quantum, and how many of them there are.
    let mut acc: u32 = 0;
    let mut n = 0;
    let mut pad = 0;
    for &c in s.as_bytes() {
        match DECODE[c as usize] {
            v if v < 64 => {
                if pad > 0 {
                    return None;
                }
                acc = acc << 6 | v as u32;
                n += 1;
                if n == 4 {
                    out.extend_from_slice(&[(acc >> 16) as u8, (acc >> 8) as u8, acc as u8]);
                    acc = 0;
                    n = 0;
                }
            }
            PAD => {
                pad += 1;
                if n < 2 || n + pad > 4 {
                    return None;
                }
            }
            SKIP => {}
            _ => return None,
        }
    }
    match (n, pad) {
        (0, 0) => {}
        (2, 2) if acc & 0xF == 0 => out.push((acc >> 4) as u8),
        (3, 1) if acc & 0x3 == 0 => out.extend_from_slice(&[(acc >> 10) as u8, (acc >> 2) as u8]),
        _ => return None,
    }
    Some(out)
}

/// Decode an element's base64 text content, borrowing it when it is
/// one text run (the shape every encoder here writes).
pub(crate) fn decode_text(el: &Element) -> Option<Vec<u8>> {
    match el.children.as_slice() {
        [Node::Text(t)] => decode(t),
        _ => decode(&el.text_content()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rfc4648_vectors() {
        let cases = [
            ("", ""),
            ("f", "Zg=="),
            ("fo", "Zm8="),
            ("foo", "Zm9v"),
            ("foob", "Zm9vYg=="),
            ("fooba", "Zm9vYmE="),
            ("foobar", "Zm9vYmFy"),
        ];
        for (plain, enc) in cases {
            assert_eq!(encode(plain.as_bytes()), enc);
            assert_eq!(decode(enc).unwrap(), plain.as_bytes());
        }
    }

    #[test]
    fn binary_roundtrip() {
        let data: Vec<u8> = (0..=255).collect();
        assert_eq!(decode(&encode(&data)).unwrap(), data);
    }

    #[test]
    fn whitespace_tolerated() {
        assert_eq!(decode("Zm9v\nYmFy").unwrap(), b"foobar");
        assert_eq!(decode("  Zm9v  ").unwrap(), b"foo");
    }

    #[test]
    fn malformed_rejected() {
        for bad in [
            "A", "AB", "ABC", "A===", "Zm9v!", "=AAA", "A=AA", "Zg==Zm9v", "Zh==", "Zm9=",
        ] {
            assert!(decode(bad).is_none(), "{bad:?}");
        }
    }
}
