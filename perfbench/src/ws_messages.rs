//! `ws_messages`: one closed-loop client sending protected messages.
//!
//! A seeded stream of 64 B, 1 KiB and 16 KiB payloads, each sent only
//! after the previous one was verified:
//!
//! * 90% go over a WS-SecureConversation context set up beforehand:
//!   `protect` → `to_xml` → wire → `Envelope::parse` → `unprotect`;
//! * 5% are stateless XML-Signature messages (`sign_envelope` →
//!   `verify_envelope`) checked against a CRL of 10⁴ serials; a third of
//!   them come from revoked signers and must be refused;
//! * 5% are GT2 records: `SecureChannel::seal` → wire → `open`.
//!
//! The wire is a pair of in-process `testbed::net` endpoints; there is
//! no scheduler. Chosen because xml and wsse do most of the work, crypto
//! is used symmetrically and pki with a real CRL — unlike the login
//! storm — and the traced run splits the paper's GT2-vs-GT3 message cost
//! (§5.1) and stateless-vs-stateful cost by layer.

use std::rc::Rc;

use gridsec_crypto::rng::ChaChaRng;
use gridsec_pki::ca::CertificateAuthority;
use gridsec_pki::credential::Credential;
use gridsec_pki::name::DistinguishedName;
use gridsec_pki::store::{CrlStore, TrustStore};
use gridsec_pki::PkiError;
use gridsec_testbed::net::{Endpoint, Network};
use gridsec_tls::channel::SecureChannel;
use gridsec_tls::handshake::{handshake_in_memory, TlsConfig};
use gridsec_util::rng::{DetRng, RngCore};
use gridsec_wsse::soap::Envelope;
use gridsec_wsse::wssc::{self, WsscResponder, WsscSession};
use gridsec_wsse::xmlsig::{sign_envelope, verify_envelope};
use gridsec_wsse::WsseError;
use gridsec_xml::Element;

use crate::prof::{span, Layer};
use crate::{Round, Workload};

const KEY_BITS: usize = 512;
const NOW: u64 = 1_000;
const TTL: u64 = 300;
const SIGNERS: usize = 8;
const REVOKED_SIGNERS: usize = 4;
const CONTEXTS: usize = 8;
const CHANNELS: usize = 4;
const CRL_SERIALS: usize = 10_000;
const PAYLOAD_SIZES: [usize; 3] = [64, 1024, 16 * 1024];
const PAYLOADS_PER_SIZE: usize = 16;
const MESSAGES_PER_ROUND: u64 = 2_000;

fn dn(s: &str) -> DistinguishedName {
    DistinguishedName::parse(s).expect("benchmark DN")
}

enum Kind {
    Wssc { context: usize },
    Xmlsig { signer: usize },
    Gt2 { channel: usize },
}

/// Layer counters summed over the traced rounds.
#[derive(Default)]
struct Traced {
    wssc_payload: u64,
    wssc_wire: u64,
    gt2_payload: u64,
    gt2_wire: u64,
    crl_refusals: u64,
    net_messages: u64,
    net_bytes: u64,
}

pub struct WsMessages {
    net: Network,
    client: Endpoint,
    server: Endpoint,
    trust: TrustStore,
    crls: CrlStore,
    /// `SIGNERS` valid signers followed by `REVOKED_SIGNERS` revoked ones.
    signers: Vec<Credential>,
    contexts: Vec<WsscSession>,
    responder: WsscResponder,
    channels: Vec<(SecureChannel, SecureChannel)>,
    /// `PAYLOADS_PER_SIZE` seeded payloads per size, XML-safe text.
    payloads: Vec<Vec<Rc<str>>>,
    stream: DetRng,
    /// Flip one wire byte of this message (tests the verdict check).
    tamper_at: Option<u64>,
    sent: u64,
    traced: Traced,
}

/// What the server side made of one message.
enum Verdict {
    Accepted(Vec<u8>),
    /// Refused because the signer's certificate is on the CRL.
    Revoked,
    Refused,
}

impl WsMessages {
    fn build(seed: u64, build: u32) -> Self {
        let mut rng =
            ChaChaRng::from_seed_bytes(format!("perfbench ws {seed:#x} {build}").as_bytes());
        let ca = CertificateAuthority::create_root(
            &mut rng,
            dn("/O=Bench/CN=CA"),
            KEY_BITS,
            0,
            u64::MAX / 2,
        );
        let issue = |rng: &mut ChaChaRng, cn: &str| {
            ca.issue_identity(
                rng,
                dn(&format!("/O=Bench/CN={cn}")),
                KEY_BITS,
                0,
                u64::MAX / 4,
            )
        };
        let signers: Vec<Credential> = (0..SIGNERS + REVOKED_SIGNERS)
            .map(|i| issue(&mut rng, &format!("S{i}")))
            .collect();
        let service = issue(&mut rng, "Service");
        let mut trust = TrustStore::new();
        trust.add_root(ca.certificate().clone());

        // 10⁴ revoked serials; the revoked signers sit at seeded places
        // among serials no live certificate carries.
        let mut draw = DetRng::seed_from_u64(seed ^ (u64::from(build) << 32) ^ 0xC41);
        let mut serials: Vec<u64> = (0..CRL_SERIALS)
            .map(|_| (1 << 40) + draw.next_u64() % (1 << 40))
            .collect();
        for s in &signers[SIGNERS..] {
            let at = draw.next_u64() as usize % CRL_SERIALS;
            serials[at] = s.certificate().tbs.serial;
        }
        let mut crls = CrlStore::new();
        assert!(crls.add(ca.issue_crl(serials, 0, u64::MAX / 2), ca.certificate()));

        let server_cfg = TlsConfig::new(service, trust.clone(), NOW);
        let mut responder = WsscResponder::new(server_cfg.clone());
        let contexts = (0..CONTEXTS)
            .map(|i| {
                let cfg = TlsConfig::new(signers[i % SIGNERS].clone(), trust.clone(), NOW);
                wssc::establish(cfg, &mut responder, &mut rng).expect("WS-SC establishment")
            })
            .collect();
        let channels = (0..CHANNELS)
            .map(|i| {
                let cfg = TlsConfig::new(signers[i % SIGNERS].clone(), trust.clone(), NOW);
                handshake_in_memory(cfg, server_cfg.clone(), &mut rng).expect("GT2 handshake")
            })
            .collect();

        const ALPHABET: &[u8] = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789";
        let payloads = PAYLOAD_SIZES
            .iter()
            .map(|&size| {
                (0..PAYLOADS_PER_SIZE)
                    .map(|_| {
                        (0..size)
                            .map(|_| ALPHABET[draw.next_u64() as usize % ALPHABET.len()] as char)
                            .collect::<String>()
                            .into()
                    })
                    .collect()
            })
            .collect();

        let net = Network::new();
        WsMessages {
            client: net.register("ws-client"),
            server: net.register("ws-server"),
            net,
            trust,
            crls,
            signers,
            contexts,
            responder,
            channels,
            payloads,
            stream: DetRng::seed_from_u64(seed ^ 0x0057_5EED),
            tamper_at: None,
            sent: 0,
            traced: Traced::default(),
        }
    }

    /// Carry `bytes` from client to server over the in-process wire.
    fn wire(&mut self, mut bytes: Vec<u8>) -> Vec<u8> {
        if self.tamper_at == Some(self.sent) {
            let mid = bytes.len() / 2;
            bytes[mid] ^= 1;
        }
        let sent = span(Layer::NetSend, || self.client.send("ws-server", bytes));
        sent.expect("ws-server is registered");
        span(Layer::NetTryRecv, || self.server.try_recv())
            .expect("unfaulted delivery is immediate")
            .payload
    }

    /// Send one GT3 envelope's XML text and parse it on the far side.
    fn wire_xml(&mut self, xml: String) -> Option<Envelope> {
        let text = String::from_utf8(self.wire(xml.into_bytes())).ok()?;
        span(Layer::SoapParse, || Envelope::parse(&text)).ok()
    }

    fn request(payload: &str) -> Envelope {
        span(Layer::SoapRequest, || {
            Envelope::request("bench.op", Element::new("data").with_text(payload))
        })
    }

    fn send_wssc(&mut self, context: usize, payload: &str) -> Verdict {
        let env = Self::request(payload);
        let protected = span(Layer::WsscProtect, || self.contexts[context].protect(&env));
        let xml = span(Layer::SoapToXml, || protected.to_xml());
        if crate::prof::enabled() {
            self.traced.wssc_payload += payload.len() as u64;
            self.traced.wssc_wire += xml.len() as u64;
        }
        let parsed = match self.wire_xml(xml) {
            Some(p) => p,
            None => return Verdict::Refused,
        };
        match span(Layer::WsscUnprotect, || self.responder.unprotect(&parsed)) {
            Ok((_, inner)) => Verdict::Accepted(
                inner
                    .payload()
                    .map(|p| p.text_content())
                    .unwrap_or_default()
                    .into_bytes(),
            ),
            Err(_) => Verdict::Refused,
        }
    }

    fn send_xmlsig(&mut self, signer: usize, payload: &str) -> Verdict {
        let env = Self::request(payload);
        let credential = &self.signers[signer];
        let signed = span(Layer::XmlsigSign, || {
            sign_envelope(&env, credential, NOW, TTL)
        });
        let xml = span(Layer::SoapToXml, || signed.to_xml());
        let parsed = match self.wire_xml(xml) {
            Some(p) => p,
            None => return Verdict::Refused,
        };
        let (trust, crls) = (&self.trust, &self.crls);
        match span(Layer::XmlsigVerify, || {
            verify_envelope(&parsed, trust, crls, NOW)
        }) {
            Ok(_) => Verdict::Accepted(
                parsed
                    .payload()
                    .map(|p| p.text_content())
                    .unwrap_or_default()
                    .into_bytes(),
            ),
            Err(WsseError::Pki(PkiError::Revoked { .. })) => Verdict::Revoked,
            Err(_) => Verdict::Refused,
        }
    }

    fn send_gt2(&mut self, channel: usize, payload: &[u8]) -> Verdict {
        let sealed = span(Layer::TlsSeal, || self.channels[channel].0.seal(payload));
        if crate::prof::enabled() {
            self.traced.gt2_wire += sealed.len() as u64;
            self.traced.gt2_payload += payload.len() as u64;
        }
        let received = self.wire(sealed);
        match span(Layer::TlsOpen, || self.channels[channel].1.open(&received)) {
            Ok(clear) => Verdict::Accepted(clear),
            Err(_) => Verdict::Refused,
        }
    }

    /// Send message number `self.sent`; returns whether its verdict is
    /// the expected one and the payload bytes delivered.
    fn send_next(&mut self) -> (bool, u64) {
        let pick = self.stream.next_u64();
        // 30% 64 B, 60% 1 KiB, 10% 16 KiB: the median message is well
        // inside the 1 KiB class, so `op_p50_ms` does not flip between
        // two classes as a round's mix varies.
        let size = match pick % 10 {
            0..=2 => 0,
            3..=8 => 1,
            _ => 2,
        };
        let payload = Rc::clone(&self.payloads[size][(pick >> 8) as usize % PAYLOADS_PER_SIZE]);
        let kind = match (pick >> 16) % 100 {
            0..=89 => Kind::Wssc {
                context: (pick >> 24) as usize % CONTEXTS,
            },
            90..=94 => Kind::Xmlsig {
                signer: (pick >> 24) as usize % (SIGNERS + REVOKED_SIGNERS),
            },
            _ => Kind::Gt2 {
                channel: (pick >> 24) as usize % CHANNELS,
            },
        };
        let (verdict, revoked) = match kind {
            Kind::Wssc { context } => (self.send_wssc(context, &payload), false),
            Kind::Xmlsig { signer } => (self.send_xmlsig(signer, &payload), signer >= SIGNERS),
            Kind::Gt2 { channel } => (self.send_gt2(channel, payload.as_bytes()), false),
        };
        self.sent += 1;
        match verdict {
            Verdict::Accepted(got) if !revoked && got == payload.as_bytes() => {
                (true, payload.len() as u64)
            }
            Verdict::Revoked if revoked => {
                if crate::prof::enabled() {
                    self.traced.crl_refusals += 1;
                }
                (true, 0)
            }
            _ => (false, 0),
        }
    }
}

impl Workload for WsMessages {
    fn setup(seed: u64, build: u32) -> Self {
        Self::build(seed, build)
    }

    fn round(&mut self, _index: u64) -> Round {
        let net_before = self.net.stats();
        let mut round = Round {
            attempted: MESSAGES_PER_ROUND,
            latencies_ms: Vec::with_capacity(MESSAGES_PER_ROUND as usize),
            ..Round::default()
        };
        span(Layer::Driver, || {
            for _ in 0..MESSAGES_PER_ROUND {
                let t = crate::clock::now();
                let (ok, bytes) = self.send_next();
                round.latencies_ms.push(t.elapsed().as_secs_f64() * 1e3);
                if ok {
                    round.ops += 1;
                    round.payload_bytes += bytes;
                } else {
                    round.failed += 1;
                }
            }
        });
        let net_after = self.net.stats();
        round.net_msgs = net_after.messages - net_before.messages;
        if crate::prof::enabled() {
            self.traced.net_messages += round.net_msgs;
            self.traced.net_bytes += net_after.bytes - net_before.bytes;
        }
        round
    }

    fn layer_metrics(&self, ops: u64) -> Vec<(&'static str, f64)> {
        let t = &self.traced;
        let per_op = |n: u64| n as f64 / ops.max(1) as f64;
        let ratio = |a: u64, b: u64| a as f64 / b.max(1) as f64;
        vec![
            (
                "wsse.wire_per_payload_byte",
                ratio(t.wssc_wire, t.wssc_payload),
            ),
            (
                "tls.wire_per_payload_byte",
                ratio(t.gt2_wire, t.gt2_payload),
            ),
            ("pki.crl_refusals_per_op", per_op(t.crl_refusals)),
            ("testbed.net.messages_per_op", per_op(t.net_messages)),
            ("testbed.net.bytes_per_op", per_op(t.net_bytes)),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_message_reaches_the_expected_verdict() {
        let mut w = WsMessages::build(11, 0);
        let r = w.round(0);
        assert_eq!(r.failed, 0);
        assert_eq!(r.ops, MESSAGES_PER_ROUND);
        assert_eq!(r.net_msgs, MESSAGES_PER_ROUND);
    }

    #[test]
    fn revoked_signers_are_refused_and_counted() {
        crate::prof::set_enabled(true);
        let mut w = WsMessages::build(11, 0);
        let r = w.round(0);
        crate::prof::set_enabled(false);
        assert_eq!(r.failed, 0);
        assert!(
            w.traced.crl_refusals > 0,
            "no revoked signer in 2000 messages"
        );
    }

    #[test]
    fn a_corrupted_wire_message_fails_the_round() {
        for at in [0, 1, 2, 3, 500] {
            let mut w = WsMessages::build(11, 0);
            w.tamper_at = Some(at);
            let r = w.round(0);
            // A refused record also desynchronizes that context's
            // sequence numbers, so later messages on it fail too.
            assert!(r.failed >= 1, "tampered message {at} must be counted");
        }
    }
}
