//! XML-Encryption: confidential SOAP bodies (paper §5.1, "GSI3
//! implements message protection using ... XML-Encryption").
//!
//! Simplified XML-Encryption shape: the body payload is serialized,
//! sealed under a fresh ChaCha20-Poly1305 content key, and replaced by an
//! `xenc:EncryptedData` element; the content key travels RSA-wrapped in
//! an `xenc:EncryptedKey` addressed to the recipient's certificate.

use gridsec_bignum::prime::EntropySource;
use gridsec_crypto::aead;
use gridsec_crypto::rsa::{RsaKeyPair, RsaPublicKey};
use gridsec_xml::Element;

use crate::b64;
use crate::soap::{parse_body, Envelope};
use crate::WsseError;

/// Encrypt an envelope's body for `recipient`. Headers (including any
/// signature) are left intact — sign-then-encrypt composition works.
pub fn encrypt_body<E: EntropySource>(
    env: &Envelope,
    recipient: &RsaPublicKey,
    rng: &mut E,
) -> Result<Envelope, WsseError> {
    // Serialize the plaintext body children.
    let mut plain = String::new();
    for el in &env.body {
        plain.push_str(&el.to_xml());
    }

    // Fresh content key + nonce.
    let mut cek = [0u8; 32];
    rng.fill_bytes(&mut cek);
    let mut nonce = [0u8; 12];
    rng.fill_bytes(&mut nonce);
    let sealed = aead::seal(&cek, &nonce, b"xmlenc-body", plain.as_bytes());

    let wrapped_key = recipient
        .encrypt_pkcs1(rng, &cek)
        .map_err(|_| WsseError::Decrypt)?;

    let encrypted = Element::new("xenc:EncryptedData")
        .with_attr("Type", "urn:gridsec:content")
        .with_child(
            Element::new("xenc:EncryptionMethod")
                .with_attr("Algorithm", "urn:gridsec:chacha20-poly1305"),
        )
        .with_child(
            Element::new("ds:KeyInfo").with_child(
                Element::new("xenc:EncryptedKey")
                    .with_attr("Algorithm", "urn:gridsec:rsa-pkcs1")
                    .with_attr("RecipientKeyFingerprint", hex32(&recipient.fingerprint()))
                    .with_text(b64::encode(&wrapped_key)),
            ),
        )
        .with_child(Element::new("xenc:IV").with_text(b64::encode(&nonce)))
        .with_child(Element::new("xenc:CipherValue").with_text(b64::encode(&sealed)));

    let mut out = env.clone();
    out.body = vec![encrypted];
    Ok(out)
}

/// Decrypt an envelope body encrypted with [`encrypt_body`], restoring
/// the original payload elements.
pub fn decrypt_body(env: &Envelope, key: &RsaKeyPair) -> Result<Envelope, WsseError> {
    let ed = env
        .payload()
        .filter(|p| p.local_name() == "EncryptedData")
        .ok_or(WsseError::Missing("xenc:EncryptedData"))?;
    let wrapped = ed
        .path(&["ds:KeyInfo", "xenc:EncryptedKey"])
        .ok_or(WsseError::Missing("xenc:EncryptedKey"))?;
    let iv = ed.find("xenc:IV").ok_or(WsseError::Missing("xenc:IV"))?;
    let cipher = ed
        .find("xenc:CipherValue")
        .ok_or(WsseError::Missing("xenc:CipherValue"))?;

    let cek_bytes = key
        .decrypt_pkcs1(&b64::decode_text(wrapped).ok_or(WsseError::Base64)?)
        .map_err(|_| WsseError::Decrypt)?;
    let cek: [u8; 32] = cek_bytes.try_into().map_err(|_| WsseError::Decrypt)?;
    let nonce_bytes = b64::decode_text(iv).ok_or(WsseError::Base64)?;
    let nonce: [u8; 12] = nonce_bytes.try_into().map_err(|_| WsseError::Decrypt)?;
    let sealed = b64::decode_text(cipher).ok_or(WsseError::Base64)?;

    let plain =
        aead::open(&cek, &nonce, b"xmlenc-body", &sealed).map_err(|_| WsseError::Decrypt)?;
    let text = String::from_utf8(plain).map_err(|_| WsseError::Decrypt)?;

    let mut out = env.clone();
    out.body = parse_body(&text)?;
    Ok(out)
}

fn hex32(bytes: &[u8; 32]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::soap::Envelope;
    use gridsec_crypto::rng::ChaChaRng;

    fn keypair(seed: &[u8]) -> RsaKeyPair {
        let mut rng = ChaChaRng::from_seed_bytes(seed);
        RsaKeyPair::generate(&mut rng, 512)
    }

    fn payload_env() -> Envelope {
        Envelope::request(
            "submit",
            Element::new("job:Spec")
                .with_child(Element::new("job:Exe").with_text("/bin/x"))
                .with_child(Element::new("job:Args").with_text("a < b & c")),
        )
    }

    #[test]
    fn encrypt_decrypt_roundtrip() {
        let key = keypair(b"recipient");
        let mut rng = ChaChaRng::from_seed_bytes(b"enc rng");
        let env = payload_env();
        let enc = encrypt_body(&env, key.public(), &mut rng).unwrap();
        // Ciphertext hides the payload.
        let wire = enc.to_xml();
        assert!(!wire.contains("/bin/x"));
        assert!(wire.contains("EncryptedData"));
        // Wire roundtrip then decrypt.
        let parsed = Envelope::parse(&wire).unwrap();
        let dec = decrypt_body(&parsed, &key).unwrap();
        assert_eq!(dec.body, env.body);
        assert_eq!(
            dec.payload().unwrap().find("Args").unwrap().text_content(),
            "a < b & c"
        );
    }

    #[test]
    fn wrong_recipient_cannot_decrypt() {
        let key = keypair(b"recipient");
        let other = keypair(b"other");
        let mut rng = ChaChaRng::from_seed_bytes(b"enc rng");
        let enc = encrypt_body(&payload_env(), key.public(), &mut rng).unwrap();
        assert!(decrypt_body(&enc, &other).is_err());
    }

    #[test]
    fn tampered_ciphertext_rejected() {
        let key = keypair(b"recipient");
        let mut rng = ChaChaRng::from_seed_bytes(b"enc rng");
        let enc = encrypt_body(&payload_env(), key.public(), &mut rng).unwrap();
        let mut xml = enc.to_xml();
        // Flip a character inside the CipherValue text.
        let pos = xml.find("CipherValue>").unwrap() + 20;
        let replacement = if xml.as_bytes()[pos] == b'A' {
            "B"
        } else {
            "A"
        };
        xml.replace_range(pos..pos + 1, replacement);
        let parsed = Envelope::parse(&xml).unwrap();
        assert!(decrypt_body(&parsed, &key).is_err());
    }

    #[test]
    fn plaintext_envelope_rejected() {
        let key = keypair(b"recipient");
        assert!(matches!(
            decrypt_body(&payload_env(), &key).unwrap_err(),
            WsseError::Missing(_)
        ));
    }

    #[test]
    fn headers_survive_encryption() {
        let key = keypair(b"recipient");
        let mut rng = ChaChaRng::from_seed_bytes(b"enc rng");
        let mut env = payload_env();
        env.security_header_mut()
            .push_child(Element::new("marker").with_text("keepme"));
        let enc = encrypt_body(&env, key.public(), &mut rng).unwrap();
        assert!(enc.security_header().unwrap().find("marker").is_some());
        let dec = decrypt_body(&enc, &key).unwrap();
        assert!(dec.security_header().unwrap().find("marker").is_some());
    }

    #[test]
    fn fresh_cek_per_message() {
        let key = keypair(b"recipient");
        let mut rng = ChaChaRng::from_seed_bytes(b"enc rng");
        let a = encrypt_body(&payload_env(), key.public(), &mut rng).unwrap();
        let b = encrypt_body(&payload_env(), key.public(), &mut rng).unwrap();
        assert_ne!(a.to_xml(), b.to_xml());
    }
}
