//! Property tests over the WS-Security layers.

use gridsec_crypto::rng::ChaChaRng;
use gridsec_pki::ca::CertificateAuthority;
use gridsec_pki::credential::Credential;
use gridsec_pki::name::DistinguishedName;
use gridsec_pki::store::{CrlStore, TrustStore};
use gridsec_util::check::{check, Gen};
use gridsec_wsse::b64;
use gridsec_wsse::soap::Envelope;
use gridsec_wsse::xmlenc::{decrypt_body, encrypt_body};
use gridsec_wsse::xmlsig::{sign_envelope, verify_envelope};
use gridsec_xml::Element;
use std::sync::OnceLock;

const CASES: u64 = 32;

struct Fixture {
    trust: TrustStore,
    user: Credential,
    recipient: gridsec_crypto::rsa::RsaKeyPair,
}

fn fixture() -> &'static Fixture {
    static F: OnceLock<Fixture> = OnceLock::new();
    F.get_or_init(|| {
        let mut rng = ChaChaRng::from_seed_bytes(b"wsse proptest");
        let ca = CertificateAuthority::create_root(
            &mut rng,
            DistinguishedName::parse("/O=P/CN=CA").unwrap(),
            512,
            0,
            1_000_000,
        );
        let user = ca.issue_identity(
            &mut rng,
            DistinguishedName::parse("/O=P/CN=U").unwrap(),
            512,
            0,
            1_000_000,
        );
        let mut trust = TrustStore::new();
        trust.add_root(ca.certificate().clone());
        let recipient = gridsec_crypto::rsa::RsaKeyPair::generate(&mut rng, 512);
        Fixture {
            trust,
            user,
            recipient,
        }
    })
}

const NAME_FIRST: &str = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz";
const NAME_REST: &str = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789";

fn payload(g: &mut Gen) -> Element {
    let mut name = String::new();
    name.push(g.char_from(NAME_FIRST));
    name.push_str(&g.string(NAME_REST, 0..9));
    let text = g.printable_string(0..64);
    let mut el = Element::new(format!("app:{name}"));
    if !text.trim().is_empty() {
        el.push_text(text.trim().to_string());
    }
    el
}

#[test]
fn b64_roundtrip() {
    check("b64_roundtrip", CASES, |g| {
        let data = g.bytes(0..256);
        assert_eq!(b64::decode(&b64::encode(&data)).unwrap(), data);
    });
}

#[test]
fn b64_rejects_or_roundtrips_arbitrary_text() {
    check("b64_rejects_or_roundtrips_arbitrary_text", CASES, |g| {
        const ALPHABET: &str = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/";
        let s = if g.bool() {
            g.string(&format!("{ALPHABET}= \n"), 0..64)
        } else {
            // Quantum-shaped text, so padded quanta (with random pad bits,
            // anywhere in the string) are common rather than rare.
            g.vec(0..6, |g| match g.pick(4) {
                0 => g.string(ALPHABET, 4..5),
                1 => g.string(ALPHABET, 3..4) + "=",
                2 => g.string(ALPHABET, 2..3) + "==",
                _ => g.string(" \n=", 1..3),
            })
            .concat()
        };
        // decode never panics, and accepts only canonical base64: when it
        // succeeds, re-encoding the decoded bytes gives back the input
        // with its whitespace removed (no misplaced padding, no stray
        // pad bits).
        if let Some(bytes) = b64::decode(&s) {
            let stripped: String = s.chars().filter(|c| !c.is_ascii_whitespace()).collect();
            assert_eq!(b64::encode(&bytes), stripped, "{s:?}");
        }
    });
}

#[test]
fn any_signed_envelope_verifies_and_any_tamper_fails() {
    check(
        "any_signed_envelope_verifies_and_any_tamper_fails",
        CASES,
        |g| {
            let payload = payload(g);
            let action = g.string("abcdefghijklmnopqrstuvwxyz", 1..13);
            let flip = g.u16();
            let f = fixture();
            let env = Envelope::request(&action, payload);
            let signed = sign_envelope(&env, &f.user, 100, 300);
            let xml = signed.to_xml();
            let parsed = Envelope::parse(&xml).unwrap();
            assert!(verify_envelope(&parsed, &f.trust, &CrlStore::new(), 200).is_ok());

            // Flip one character of the serialized body text; verification
            // must not succeed with altered content.
            if let Some(start) = xml.find("<soap:Body") {
                let end = xml.find("</soap:Body>").unwrap_or(xml.len());
                if end > start + 20 {
                    let idx = start + 12 + (flip as usize % (end - start - 12));
                    let mut bytes = xml.clone().into_bytes();
                    let orig = bytes[idx];
                    // Substitute with a different alphanumeric to keep XML valid.
                    let repl = if orig == b'a' { b'b' } else { b'a' };
                    if orig != repl && orig.is_ascii_alphanumeric() {
                        bytes[idx] = repl;
                        if let Ok(s) = String::from_utf8(bytes) {
                            if let Ok(tampered) = Envelope::parse(&s) {
                                if tampered != parsed {
                                    assert!(verify_envelope(
                                        &tampered,
                                        &f.trust,
                                        &CrlStore::new(),
                                        200
                                    )
                                    .is_err());
                                }
                            }
                        }
                    }
                }
            }
        },
    );
}

#[test]
fn encrypt_decrypt_roundtrip_any_payload() {
    check("encrypt_decrypt_roundtrip_any_payload", CASES, |g| {
        let payload = payload(g);
        let seed = g.u64();
        let f = fixture();
        let mut rng = ChaChaRng::from_seed_bytes(&seed.to_le_bytes());
        let env = Envelope::request("op", payload);
        let enc = encrypt_body(&env, f.recipient.public(), &mut rng).unwrap();
        // The ciphertext hides the payload name.
        let dec = decrypt_body(&Envelope::parse(&enc.to_xml()).unwrap(), &f.recipient).unwrap();
        assert_eq!(dec.body, env.body);
    });
}

#[test]
fn sign_then_encrypt_composes() {
    check("sign_then_encrypt_composes", CASES, |g| {
        let payload = payload(g);
        let seed = g.u64();
        let f = fixture();
        let mut rng = ChaChaRng::from_seed_bytes(&seed.to_le_bytes());
        let env = Envelope::request("op", payload);
        let signed = sign_envelope(&env, &f.user, 100, 300);
        let enc = encrypt_body(&signed, f.recipient.public(), &mut rng).unwrap();
        let wire = Envelope::parse(&enc.to_xml()).unwrap();
        let dec = decrypt_body(&wire, &f.recipient).unwrap();
        assert!(verify_envelope(&dec, &f.trust, &CrlStore::new(), 200).is_ok());
    });
}
