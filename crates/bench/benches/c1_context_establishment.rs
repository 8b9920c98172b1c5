//! Experiment C1 (paper §5.1): GT3 carries the *same* context
//! establishment tokens as GT2, but over SOAP instead of TCP. Measures
//! context establishment latency and bytes-on-wire for both transports,
//! and message-protection cost across payload sizes.
//!
//! Expected shape: GT3/SOAP establishment is slower and bulkier (XML +
//! base64 framing around identical tokens). Per message, GT3 runs the
//! same AEAD seal/open as a GT2 record plus the encoding around it:
//! serializing the body, base64 of the sealed bytes, writing and parsing
//! the envelope. No public-key operation is involved, and the trace of
//! the benchmark's `ws_messages` workload puts AEAD and encoding at
//! comparable shares of that cost (DESIGN.md §11.5).

use gridsec_bench::bench_world;
use gridsec_tls::handshake::{handshake_in_memory, TlsConfig};
use gridsec_tls::session::{resume_client, ClientSession, ServerSessionCache};
use gridsec_util::bench::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use gridsec_wsse::soap::Envelope;
use gridsec_wsse::wssc::{establish, WsscResponder};
use gridsec_xml::Element;

fn establishment(c: &mut Criterion) {
    let mut group = c.benchmark_group("c1_establishment");
    group.sample_size(10);
    let mut w = bench_world(b"c1 establish");

    // GT2: raw token loop (TCP framing adds 4 bytes/token, negligible).
    let client_cfg = TlsConfig::new(w.user.clone(), w.trust.clone(), 10);
    let server_cfg = TlsConfig::new(w.service.clone(), w.trust.clone(), 10);
    group.bench_function("gt2_tls_tokens", |b| {
        b.iter(|| handshake_in_memory(client_cfg.clone(), server_cfg.clone(), &mut w.rng).unwrap())
    });

    // GT3: the same tokens inside WS-Trust RST/RSTR SOAP envelopes,
    // parsed and re-serialized at each hop like a real SOAP stack.
    group.bench_function("gt3_ws_secureconversation", |b| {
        b.iter(|| {
            let mut responder = WsscResponder::new(server_cfg.clone());
            establish(client_cfg.clone(), &mut responder, &mut w.rng).unwrap()
        })
    });

    // Resumed: the abbreviated handshake from a banked session — no
    // certificate validation, RSA, or DH on either side, only symmetric
    // HKDF/HMAC work. The ratio against gt2_tls_tokens is the session
    // cache's amortization claim; perf_guard gates on it.
    let (chan, _server_chan) =
        handshake_in_memory(client_cfg.clone(), server_cfg.clone(), &mut w.rng).unwrap();
    let session = ClientSession::from_channel(&chan).expect("handshake mints resumption state");
    let mut sessions = ServerSessionCache::new(8, 1_000_000);
    sessions.store(&chan);
    group.bench_function("gt2_tls_resumed", |b| {
        b.iter(|| {
            let (resume, t1) = resume_client(session.clone(), 10, 1_000, &mut w.rng);
            let (t2, wait) = sessions.accept(&t1, 10, &mut w.rng).unwrap();
            let (t3, client_chan) = resume.step(&t2).unwrap();
            let server_chan = wait.step(&t3).unwrap();
            (client_chan, server_chan)
        })
    });
    group.finish();

    // Bytes-on-wire comparison (printed once; recorded in EXPERIMENTS.md).
    let (hs, t1) = gridsec_tls::handshake::ClientHandshake::new(client_cfg.clone(), &mut w.rng);
    let server = gridsec_tls::handshake::ServerHandshake::new(server_cfg.clone());
    let (t2, awaiting) = server.step(&mut w.rng, &t1).unwrap();
    let (t3, _chan) = hs.step(&t2).unwrap();
    let _ = awaiting.step(&t3).unwrap();
    let gt2_bytes = t1.len() + t2.len() + t3.len() + 3 * 4; // + frame headers

    let (initiator, rst1) =
        gridsec_wsse::wssc::WsscInitiator::begin(client_cfg.clone(), &mut w.rng);
    let mut responder = WsscResponder::new(server_cfg.clone());
    let rstr1 = responder.handle_rst(&rst1, &mut w.rng).unwrap();
    let (rst2, _session) = initiator.finish(&rstr1).unwrap();
    let ack = responder.handle_rst(&rst2, &mut w.rng).unwrap();
    let gt3_bytes =
        rst1.to_xml().len() + rstr1.to_xml().len() + rst2.to_xml().len() + ack.to_xml().len();
    println!(
        "\n[c1] bytes on wire: GT2-TLS = {gt2_bytes}, GT3-SOAP = {gt3_bytes} (x{:.2})",
        gt3_bytes as f64 / gt2_bytes as f64
    );
}

fn message_protection(c: &mut Criterion) {
    let mut group = c.benchmark_group("c1_message_protection");
    group.sample_size(10);
    let mut w = bench_world(b"c1 protect");
    let client_cfg = TlsConfig::new(w.user.clone(), w.trust.clone(), 10);
    let server_cfg = TlsConfig::new(w.service.clone(), w.trust.clone(), 10);

    let (mut gt2_client, mut gt2_server) =
        handshake_in_memory(client_cfg.clone(), server_cfg.clone(), &mut w.rng).unwrap();
    let mut responder = WsscResponder::new(server_cfg);
    let mut session = establish(client_cfg, &mut responder, &mut w.rng).unwrap();

    for size in [64usize, 1024, 16 * 1024, 64 * 1024] {
        let payload = vec![b'x'; size];
        group.throughput(Throughput::Bytes(size as u64));
        group.bench_with_input(BenchmarkId::new("gt2_record", size), &payload, |b, p| {
            b.iter(|| {
                let sealed = gt2_client.seal(p);
                gt2_server.open(&sealed).unwrap()
            })
        });
        let env = Envelope::request(
            "op",
            Element::new("data").with_text(String::from_utf8(payload.clone()).unwrap()),
        );
        group.bench_with_input(BenchmarkId::new("gt3_soap", size), &env, |b, env| {
            b.iter(|| {
                let protected = session.protect(env);
                // Wire roundtrip through XML like a real stack.
                let parsed = Envelope::parse(&protected.to_xml()).unwrap();
                responder.unprotect(&parsed).unwrap()
            })
        });
    }
    group.finish();
}

criterion_group!(benches, establishment, message_protection);
criterion_main!(benches);
