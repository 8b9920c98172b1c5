//! XML-Signature over SOAP envelopes — GT3's *stateless* message security
//! (paper §5.1).
//!
//! "a message can be created and signed, allowing the recipient to verify
//! the message's origin and integrity, without establishing synchronous
//! communication with the recipient" — this module implements exactly
//! that: [`sign_envelope`] needs no prior contact with the target, and
//! [`verify_envelope`] authenticates the sender purely from the embedded
//! certificate chain. GRAM's job-initiation request (Figure 4 step 1) is
//! signed this way because the LMJFS that will consume it may not exist
//! yet.
//!
//! Structure follows XML-Signature (enveloped form, simplified): a
//! `ds:Signature` in the WS-Security header carries `ds:SignedInfo` with
//! one `ds:Reference` per covered part (`#Body` and `#Timestamp`), each
//! with a SHA-256 digest of the part's canonical XML; the RSA signature
//! is over the canonical `SignedInfo`; the sender's certificate chain
//! rides in a `wsse:BinarySecurityToken`.

use gridsec_crypto::sha256::sha256;
use gridsec_pki::cert::Certificate;
use gridsec_pki::credential::Credential;
use gridsec_pki::encoding::{Codec, Decoder, Encoder};
use gridsec_pki::store::{CrlStore, TrustStore};
use gridsec_pki::validate::{validate_chain_with_crls, ValidatedIdentity};
use gridsec_xml::Element;

use crate::b64;
use crate::soap::{Envelope, Timestamp};
use crate::WsseError;

/// Encode a certificate chain for a BinarySecurityToken.
pub fn encode_chain(chain: &[Certificate]) -> String {
    let mut enc = Encoder::new();
    enc.put_seq(chain, |e, c| c.encode(e));
    b64::encode(&enc.finish())
}

/// Decode a BinarySecurityToken chain.
pub fn decode_chain(text: &str) -> Result<Vec<Certificate>, WsseError> {
    let bytes = b64::decode(text).ok_or(WsseError::Base64)?;
    let mut dec = Decoder::new(&bytes);
    let chain = dec.get_seq(Certificate::decode).map_err(WsseError::Pki)?;
    dec.expect_exhausted().map_err(WsseError::Pki)?;
    Ok(chain)
}

fn digest_of(el: &Element) -> String {
    b64::encode(&sha256(el.canonical_xml().as_bytes()))
}

/// Sign an envelope with `credential`, covering the Body and a fresh
/// Timestamp (valid `[now, now + ttl]`). Returns the secured envelope.
pub fn sign_envelope(env: &Envelope, credential: &Credential, now: u64, ttl: u64) -> Envelope {
    let mut out = env.clone();

    // Timestamp element (referenced by the signature).
    let ts = Timestamp {
        created: now,
        expires: now + ttl,
    };
    let ts_el = ts.to_element().with_attr("wsu:Id", "Timestamp");

    // Body element as it will appear on the wire.
    let body_el = {
        let mut body = Element::new("soap:Body").with_attr("wsu:Id", "Body");
        for b in &out.body {
            body.push_child(b.clone());
        }
        body
    };

    // SignedInfo with one reference per part.
    let signed_info = Element::new("ds:SignedInfo")
        .with_child(
            Element::new("ds:CanonicalizationMethod")
                .with_attr("Algorithm", "urn:gridsec:c14n-lite"),
        )
        .with_child(
            Element::new("ds:SignatureMethod")
                .with_attr("Algorithm", "urn:gridsec:rsa-pkcs1-sha256"),
        )
        .with_child(reference("#Body", &digest_of(&body_el)))
        .with_child(reference("#Timestamp", &digest_of(&ts_el)));

    let signature_value = credential.sign(signed_info.canonical_xml().as_bytes());

    let signature = Element::new("ds:Signature")
        .with_child(signed_info)
        .with_child(Element::new("ds:SignatureValue").with_text(b64::encode(&signature_value)))
        .with_child(
            Element::new("ds:KeyInfo").with_child(
                Element::new("wsse:BinarySecurityToken")
                    .with_attr("ValueType", "urn:gridsec:x509-chain")
                    .with_text(encode_chain(credential.chain())),
            ),
        );

    let sec = out.security_header_mut();
    sec.push_child(ts_el);
    sec.push_child(signature);
    out
}

fn reference(uri: &str, digest: &str) -> Element {
    Element::new("ds:Reference")
        .with_attr("URI", uri)
        .with_child(Element::new("ds:DigestMethod").with_attr("Algorithm", "urn:gridsec:sha256"))
        .with_child(Element::new("ds:DigestValue").with_text(digest))
}

/// The result of verifying a signed envelope.
#[derive(Clone, Debug)]
pub struct VerifiedMessage {
    /// The authenticated sender.
    pub identity: ValidatedIdentity,
    /// The signed freshness window.
    pub timestamp: Timestamp,
}

/// Verify a stateless-signed envelope against `trust` at `now`.
pub fn verify_envelope(
    env: &Envelope,
    trust: &TrustStore,
    crls: &CrlStore,
    now: u64,
) -> Result<VerifiedMessage, WsseError> {
    let sec = env
        .security_header()
        .ok_or(WsseError::Missing("wsse:Security"))?;
    let signature = sec
        .find("ds:Signature")
        .ok_or(WsseError::Missing("ds:Signature"))?;
    let signed_info = signature
        .find("ds:SignedInfo")
        .ok_or(WsseError::Missing("ds:SignedInfo"))?;
    let sig_value = signature
        .find("ds:SignatureValue")
        .ok_or(WsseError::Missing("ds:SignatureValue"))?;
    let bst = signature
        .path(&["ds:KeyInfo", "wsse:BinarySecurityToken"])
        .ok_or(WsseError::Missing("wsse:BinarySecurityToken"))?;

    // Authenticate the chain first (we need the leaf key).
    let chain = decode_chain(&bst.text_content())?;
    let identity = validate_chain_with_crls(&chain, trust, crls, now)?;

    // Verify the signature over canonical SignedInfo.
    let sig_value = b64::decode_text(sig_value).ok_or(WsseError::Base64)?;
    if !identity
        .public_key
        .verify_pkcs1_sha256(signed_info.canonical_xml().as_bytes(), &sig_value)
    {
        return Err(WsseError::BadSignature);
    }

    // Recompute every reference digest against the envelope as received.
    let envelope_el = env.to_element();
    let mut saw_body = false;
    let mut saw_timestamp = false;
    for r in signed_info.find_all("ds:Reference") {
        let uri = r.attr("URI").ok_or(WsseError::Missing("Reference URI"))?;
        let id = uri.strip_prefix('#').ok_or(WsseError::Missing("#-URI"))?;
        let target = envelope_el
            .find_by_attr("wsu:Id", id)
            .ok_or(WsseError::Missing("referenced element"))?;
        let expect = r
            .find("ds:DigestValue")
            .ok_or(WsseError::Missing("ds:DigestValue"))?
            .text_content();
        if digest_of(target) != expect {
            return Err(WsseError::DigestMismatch);
        }
        match id {
            "Body" => saw_body = true,
            "Timestamp" => saw_timestamp = true,
            _ => {}
        }
    }
    if !saw_body || !saw_timestamp {
        return Err(WsseError::Missing(
            "signature must cover Body and Timestamp",
        ));
    }

    // Freshness.
    let ts_el = sec
        .find("wsu:Timestamp")
        .ok_or(WsseError::Missing("wsu:Timestamp"))?;
    let timestamp = Timestamp::from_element(ts_el)?;
    timestamp.check(now)?;

    Ok(VerifiedMessage {
        identity,
        timestamp,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use gridsec_crypto::rng::ChaChaRng;
    use gridsec_pki::ca::CertificateAuthority;
    use gridsec_pki::name::DistinguishedName;
    use gridsec_pki::proxy::{issue_proxy, ProxyType};

    fn dn(s: &str) -> DistinguishedName {
        DistinguishedName::parse(s).unwrap()
    }

    struct World {
        rng: ChaChaRng,
        ca: CertificateAuthority,
        trust: TrustStore,
        alice: Credential,
    }

    fn world() -> World {
        let mut rng = ChaChaRng::from_seed_bytes(b"xmlsig tests");
        let ca = CertificateAuthority::create_root(&mut rng, dn("/O=G/CN=CA"), 512, 0, 1_000_000);
        let alice = ca.issue_identity(&mut rng, dn("/O=G/CN=Alice"), 512, 0, 100_000);
        let mut trust = TrustStore::new();
        trust.add_root(ca.certificate().clone());
        World {
            rng,
            ca,
            trust,
            alice,
        }
    }

    fn job_envelope() -> Envelope {
        Envelope::request(
            "createService",
            Element::new("gram:JobRequest")
                .with_child(Element::new("gram:Executable").with_text("/bin/sim"))
                .with_child(Element::new("gram:Queue").with_text("batch")),
        )
    }

    #[test]
    fn sign_verify_roundtrip() {
        let w = world();
        let signed = sign_envelope(&job_envelope(), &w.alice, 100, 300);
        assert!(signed.is_secured());
        // Wire roundtrip: serialize, reparse, verify.
        let parsed = Envelope::parse(&signed.to_xml()).unwrap();
        let verified = verify_envelope(&parsed, &w.trust, &CrlStore::new(), 150).unwrap();
        assert_eq!(verified.identity.base_identity, dn("/O=G/CN=Alice"));
        assert_eq!(verified.timestamp.expires, 400);
        // Payload intact.
        assert_eq!(
            parsed
                .payload()
                .unwrap()
                .find("Executable")
                .unwrap()
                .text_content(),
            "/bin/sim"
        );
    }

    #[test]
    fn proxy_signed_message_verifies_to_base_identity() {
        let mut w = world();
        let proxy = issue_proxy(
            &mut w.rng,
            &w.alice,
            ProxyType::Impersonation,
            512,
            50,
            10_000,
        )
        .unwrap();
        let signed = sign_envelope(&job_envelope(), &proxy, 100, 300);
        let verified = verify_envelope(
            &Envelope::parse(&signed.to_xml()).unwrap(),
            &w.trust,
            &CrlStore::new(),
            150,
        )
        .unwrap();
        assert_eq!(verified.identity.base_identity, dn("/O=G/CN=Alice"));
        assert_eq!(verified.identity.proxy_depth, 1);
    }

    #[test]
    fn tampered_body_rejected() {
        let w = world();
        let signed = sign_envelope(&job_envelope(), &w.alice, 100, 300);
        let mut parsed = Envelope::parse(&signed.to_xml()).unwrap();
        // Attacker rewrites the executable.
        parsed.body[0] = Element::new("gram:JobRequest")
            .with_child(Element::new("gram:Executable").with_text("/bin/evil"));
        assert_eq!(
            verify_envelope(&parsed, &w.trust, &CrlStore::new(), 150).unwrap_err(),
            WsseError::DigestMismatch
        );
    }

    #[test]
    fn tampered_signed_info_rejected() {
        let w = world();
        let signed = sign_envelope(&job_envelope(), &w.alice, 100, 300);
        // Any edit inside SignedInfo (here: the digest algorithm URI)
        // changes its canonical bytes → the signature must fail.
        let xml = signed
            .to_xml()
            .replace("urn:gridsec:sha256", "urn:gridsec:sha256-weakened");
        let parsed = Envelope::parse(&xml).unwrap();
        let err = verify_envelope(&parsed, &w.trust, &CrlStore::new(), 150).unwrap_err();
        assert!(matches!(
            err,
            WsseError::BadSignature | WsseError::Missing(_)
        ));
    }

    #[test]
    fn expired_message_rejected() {
        let w = world();
        let signed = sign_envelope(&job_envelope(), &w.alice, 100, 50);
        let parsed = Envelope::parse(&signed.to_xml()).unwrap();
        assert!(matches!(
            verify_envelope(&parsed, &w.trust, &CrlStore::new(), 200).unwrap_err(),
            WsseError::Stale { .. }
        ));
    }

    #[test]
    fn untrusted_signer_rejected() {
        let mut w = world();
        let rogue =
            CertificateAuthority::create_root(&mut w.rng, dn("/O=Evil/CN=CA"), 512, 0, 1_000_000);
        let mallory = rogue.issue_identity(&mut w.rng, dn("/O=G/CN=Alice"), 512, 0, 100_000);
        let signed = sign_envelope(&job_envelope(), &mallory, 100, 300);
        let parsed = Envelope::parse(&signed.to_xml()).unwrap();
        assert!(matches!(
            verify_envelope(&parsed, &w.trust, &CrlStore::new(), 150).unwrap_err(),
            WsseError::Pki(_)
        ));
    }

    #[test]
    fn revoked_signer_rejected() {
        let w = world();
        let serial = w.alice.certificate().tbs.serial;
        let crl = w.ca.issue_crl(vec![serial], 100, 100_000);
        let mut crls = CrlStore::new();
        assert!(crls.add(crl, w.ca.certificate()));
        let signed = sign_envelope(&job_envelope(), &w.alice, 100, 300);
        let parsed = Envelope::parse(&signed.to_xml()).unwrap();
        assert!(matches!(
            verify_envelope(&parsed, &w.trust, &crls, 150).unwrap_err(),
            WsseError::Pki(gridsec_pki::PkiError::Revoked { .. })
        ));
    }

    #[test]
    fn unsigned_envelope_rejected() {
        let w = world();
        assert!(matches!(
            verify_envelope(&job_envelope(), &w.trust, &CrlStore::new(), 100).unwrap_err(),
            WsseError::Missing(_)
        ));
    }

    #[test]
    fn signature_swap_across_messages_rejected() {
        let w = world();
        let signed_a = sign_envelope(&job_envelope(), &w.alice, 100, 300);
        let other = Envelope::request("transfer", Element::new("ftp:Get").with_text("/data"));
        let signed_b = sign_envelope(&other, &w.alice, 100, 300);
        // Graft A's security header onto B's body.
        let mut franken = signed_b.clone();
        franken.headers = signed_a.headers.clone();
        assert_eq!(
            verify_envelope(&franken, &w.trust, &CrlStore::new(), 150).unwrap_err(),
            WsseError::DigestMismatch
        );
    }

    #[test]
    fn chain_codec_roundtrip() {
        let w = world();
        let text = encode_chain(w.alice.chain());
        let chain = decode_chain(&text).unwrap();
        assert_eq!(chain.len(), w.alice.chain().len());
        assert_eq!(&chain[0], w.alice.certificate());
        assert!(decode_chain("!!!").is_err());
    }
}
