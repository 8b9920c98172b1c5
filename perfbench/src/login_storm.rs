//! `login_storm`: real GSS/TLS establishment against mill gateways.
//!
//! Shaped like `scenarios::crypto_storm`: a 128-credential pool, four
//! gateways that batch hellos across tasks at mail quiescence
//! ([`WaveAcceptor`]), cohort admission, one garbage hello in 97 that
//! must be refused, and a sealed proof per session that the principal
//! must unseal. One round is one cohort of principals spawned on the
//! long-lived scheduler and run to quiescence; principals start staggered
//! over a minute of sim time.
//!
//! Chosen because handshake crypto (bignum, crypto and pki under gssapi)
//! does almost all of the work while the scheduler and network do
//! little: the fixed-limb kernel and batching items move this workload.

use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;
use std::sync::{Arc, Mutex};

use gridsec_crypto::rng::ChaChaRng;
use gridsec_gssapi::context::EstablishedContext;
use gridsec_gssapi::poll::{PollInitiator, WaveAcceptor};
use gridsec_pki::ca::CertificateAuthority;
use gridsec_pki::credential::Credential;
use gridsec_pki::name::DistinguishedName;
use gridsec_pki::store::TrustStore;
use gridsec_testbed::net::{Endpoint, Network};
use gridsec_testbed::sched::{Scheduler, Step, Task, TaskCx};
use gridsec_tls::handshake::TlsConfig;
use gridsec_tls::pool::CryptoPool;
use gridsec_util::rng::{DetRng, RngCore};

use crate::clock::{self, CpuInstant};
use crate::prof::{span, Layer};
use crate::{Round, Workload};

const KEY_BITS: usize = 512;
const GATEWAYS: usize = 4;
const GATEWAY_NAMES: [&str; GATEWAYS] = ["gw-0", "gw-1", "gw-2", "gw-3"];
const START_SPREAD: u64 = 60;
const REJECT_EVERY: u64 = 97;

const TAG_REJECT: u8 = 0;
const TAG_HELLO: u8 = 1;
const TAG_FINISHED: u8 = 2;
const TAG_SERVER_HELLO: u8 = 1;
const TAG_PROOF: u8 = 2;

/// What every gateway seals over a fresh context; a principal counts as
/// established only after unsealing exactly this.
const PROOF: &[u8] = b"perfbench login proof of keys";

/// Population shape. The benchmark runs [`Shape::BENCH`]; tests shrink it.
#[derive(Clone, Copy)]
struct Shape {
    credentials: usize,
    cohort: usize,
    /// Corrupt the first proof a gateway seals (tests the verdict check).
    tamper: bool,
}

impl Shape {
    const BENCH: Shape = Shape {
        credentials: 128,
        cohort: 4096,
        tamper: false,
    };
}

fn dn(s: &str) -> DistinguishedName {
    DistinguishedName::parse(s).expect("benchmark DN")
}

fn send(ep: &Endpoint, to: &str, tag: u8, body: &[u8]) {
    let mut payload = Vec::with_capacity(1 + body.len());
    payload.push(tag);
    payload.extend_from_slice(body);
    // Every destination is registered for the whole round; a failed
    // send shows up as a principal that never reaches a verdict.
    let _ = span(Layer::NetSend, || ep.send(to, payload));
}

/// Verdicts and timings the tasks report back to the round.
#[derive(Default)]
struct Log {
    finished: u64,
    established: u64,
    failed: u64,
    latencies_ms: Vec<f64>,
    /// Wave sizes flushed during traced rounds.
    waves: Vec<u64>,
}

struct Gateway {
    ep: Endpoint,
    acceptor: WaveAcceptor,
    rng: ChaChaRng,
    /// Mill session id (the sender's interned name) to reply address,
    /// from hello until the wave is flushed.
    routes: HashMap<u64, String>,
    log: Rc<RefCell<Log>>,
    tamper: bool,
}

impl Gateway {
    fn step_body(&mut self) -> Step {
        while let Some(m) = span(Layer::NetTryRecv, || self.ep.try_recv()) {
            let Some((&tag, body)) = m.payload.split_first() else {
                continue;
            };
            let session =
                span(Layer::NetIntern, || self.ep.network().intern(&m.from)).index() as u64;
            match tag {
                TAG_HELLO => {
                    let hello = body.to_vec();
                    self.routes.insert(session, m.from);
                    span(Layer::GssSubmitHello, || {
                        self.acceptor.submit_hello(session, hello)
                    });
                }
                TAG_FINISHED => {
                    let finished = span(Layer::GssSubmitFinished, || {
                        self.acceptor.submit_finished(session, &mut self.rng, body)
                    });
                    match finished {
                        Ok(mut ctx) => {
                            let mut sealed = span(Layer::GssWrap, || ctx.wrap(PROOF));
                            if self.tamper {
                                self.tamper = false;
                                let mid = sealed.len() / 2;
                                sealed[mid] ^= 1;
                            }
                            send(&self.ep, &m.from, TAG_PROOF, &sealed);
                        }
                        Err(_) => send(&self.ep, &m.from, TAG_REJECT, &[]),
                    }
                }
                _ => send(&self.ep, &m.from, TAG_REJECT, &[]),
            }
        }
        // Mail quiescence: everything that arrived since the last step
        // is one wave.
        if self.acceptor.pending() > 0 {
            let wave = span(Layer::GssFlushWave, || {
                self.acceptor.flush_wave(&mut self.rng)
            });
            if crate::prof::enabled() {
                self.log.borrow_mut().waves.push(wave.len() as u64);
            }
            for (session, result) in wave {
                let to = self
                    .routes
                    .remove(&session)
                    .expect("wave session was routed");
                match result {
                    Ok(server_hello) => send(&self.ep, &to, TAG_SERVER_HELLO, &server_hello),
                    Err(_) => send(&self.ep, &to, TAG_REJECT, &[]),
                }
            }
        }
        Step::WaitMail { deadline: None }
    }
}

impl Task for Gateway {
    fn step(&mut self, _cx: &TaskCx) -> Step {
        span(Layer::Driver, || self.step_body())
    }
}

enum State {
    Boot,
    AwaitServerHello(PollInitiator),
    AwaitProof(Box<EstablishedContext>),
    /// Sent a garbage hello: the only correct reply is a refusal.
    AwaitReject,
}

struct Principal {
    ep: Endpoint,
    gateway: &'static str,
    config: Option<TlsConfig>,
    rng: ChaChaRng,
    state: State,
    start_at: u64,
    garbage: bool,
    hello_sent: Option<CpuInstant>,
    log: Rc<RefCell<Log>>,
}

impl Principal {
    fn finish(&self, ok: bool) -> Step {
        let mut log = self.log.borrow_mut();
        log.finished += 1;
        if !ok {
            log.failed += 1;
        } else if !self.garbage {
            log.established += 1;
            let sent = self.hello_sent.expect("hello sent before the proof");
            log.latencies_ms.push(sent.elapsed().as_secs_f64() * 1e3);
        }
        Step::Done
    }

    fn step_body(&mut self, now: u64) -> Step {
        if matches!(self.state, State::Boot) {
            if now < self.start_at {
                return Step::Sleep(self.start_at);
            }
            if self.garbage {
                send(&self.ep, self.gateway, TAG_HELLO, b"not a hello");
                self.state = State::AwaitReject;
            } else {
                let config = self.config.take().expect("config consumed once");
                let (init, hello) = span(Layer::GssInitiatorNew, || {
                    PollInitiator::new(config, &mut self.rng)
                });
                send(&self.ep, self.gateway, TAG_HELLO, &hello);
                self.hello_sent = Some(clock::now());
                self.state = State::AwaitServerHello(init);
            }
        }
        while let Some(m) = span(Layer::NetTryRecv, || self.ep.try_recv()) {
            let Some((&tag, body)) = m.payload.split_first() else {
                return self.finish(false);
            };
            match (std::mem::replace(&mut self.state, State::Boot), tag) {
                (State::AwaitReject, TAG_REJECT) => return self.finish(true),
                (State::AwaitServerHello(init), TAG_SERVER_HELLO) => {
                    match span(Layer::GssInitiatorFeed, || init.feed(body)) {
                        Ok((finished, ctx)) => {
                            send(&self.ep, self.gateway, TAG_FINISHED, &finished);
                            self.state = State::AwaitProof(Box::new(ctx));
                        }
                        Err(_) => return self.finish(false),
                    }
                }
                (State::AwaitProof(mut ctx), TAG_PROOF) => {
                    let opened = span(Layer::GssUnwrap, || ctx.unwrap(body));
                    return self.finish(matches!(opened, Ok(clear) if clear == PROOF));
                }
                _ => return self.finish(false),
            }
        }
        Step::WaitMail { deadline: None }
    }
}

impl Task for Principal {
    fn step(&mut self, cx: &TaskCx) -> Step {
        span(Layer::Driver, || self.step_body(cx.now()))
    }
}

/// Layer counters summed over the traced rounds.
#[derive(Default)]
struct Traced {
    validator_hits: u64,
    validator_misses: u64,
    binding_hits: u64,
    binding_misses: u64,
    net_messages: u64,
    net_bytes: u64,
    steps: u64,
    mail_wakes: u64,
    timer_wakes: u64,
}

pub struct LoginStorm {
    shape: Shape,
    seed: u64,
    net: Network,
    sched: Scheduler,
    users: Vec<Credential>,
    trust: TrustStore,
    client_pool: Arc<Mutex<CryptoPool>>,
    gateway_pools: Vec<Arc<Mutex<CryptoPool>>>,
    assign: DetRng,
    log: Rc<RefCell<Log>>,
    traced: Traced,
}

impl LoginStorm {
    fn build(seed: u64, build: u32, shape: Shape) -> Self {
        let mut rng =
            ChaChaRng::from_seed_bytes(format!("perfbench login {seed:#x} {build}").as_bytes());
        let ca = CertificateAuthority::create_root(
            &mut rng,
            dn("/O=Bench/CN=CA"),
            KEY_BITS,
            0,
            u64::MAX / 2,
        );
        let users: Vec<Credential> = (0..shape.credentials)
            .map(|i| {
                ca.issue_identity(
                    &mut rng,
                    dn(&format!("/O=Bench/CN=U{i}")),
                    KEY_BITS,
                    0,
                    u64::MAX / 4,
                )
            })
            .collect();
        let service = ca.issue_identity(
            &mut rng,
            dn("/O=Bench/CN=Gateway"),
            KEY_BITS,
            0,
            u64::MAX / 4,
        );
        let mut trust = TrustStore::new();
        trust.add_root(ca.certificate().clone());

        // Initiator-side amortization: the DH fixed-base table once and
        // a signing context per pooled credential.
        let client_pool = Arc::new(Mutex::new(CryptoPool::new()));
        {
            let probe = TlsConfig::new(users[0].clone(), trust.clone(), 100);
            let mut p = client_pool.lock().expect("client pool lock");
            p.register_group(&probe.group);
            for u in &users {
                p.register_signer(u);
            }
        }

        let net = Network::new();
        let mut sched = Scheduler::new(&net);
        let log = Rc::new(RefCell::new(Log::default()));
        let mut gateway_pools = Vec::new();
        for (g, name) in GATEWAY_NAMES.into_iter().enumerate() {
            let acceptor = WaveAcceptor::new(TlsConfig::new(service.clone(), trust.clone(), 100));
            gateway_pools.push(acceptor.mill().pool());
            let gateway = Gateway {
                ep: net.register(name),
                acceptor,
                rng: ChaChaRng::from_seed_bytes(format!("perfbench gw{g} {seed:#x}").as_bytes()),
                routes: HashMap::new(),
                log: Rc::clone(&log),
                tamper: shape.tamper,
            };
            sched.spawn_mailbox(name, gateway);
        }
        LoginStorm {
            shape,
            seed,
            net,
            sched,
            users,
            trust,
            client_pool,
            gateway_pools,
            assign: DetRng::seed_from_u64(seed ^ 0x10_6157),
            log,
            traced: Traced::default(),
        }
    }

    fn pool_counters(&self) -> [u64; 4] {
        let mut c = [0u64; 4];
        for pool in &self.gateway_pools {
            let p = pool.lock().expect("gateway pool lock");
            c[0] += p.validator().hits();
            c[1] += p.validator().misses();
            c[2] += p.binding_hits();
            c[3] += p.binding_misses();
        }
        c
    }

    fn spawn_cohort(&mut self, index: u64) {
        let base = self.sched.now();
        for i in 0..self.shape.cohort {
            let global = index * self.shape.cohort as u64 + i as u64;
            let user = self.assign.next_u64() as usize % self.users.len();
            let gateway = GATEWAY_NAMES[self.assign.next_u64() as usize % GATEWAYS];
            let start_at = base + self.assign.next_u64() % (START_SPREAD + 1);
            let garbage = (global + 1).is_multiple_of(REJECT_EVERY);
            let name = format!("c{i}");
            let ep = span(Layer::NetRegister, || self.net.register(&name));
            let config = (!garbage).then(|| {
                span(Layer::TlsConfigNew, || {
                    TlsConfig::new(self.users[user].clone(), self.trust.clone(), 100)
                        .with_pool(Arc::clone(&self.client_pool))
                })
            });
            let mut seed = [0u8; 16];
            seed[..8].copy_from_slice(&self.seed.to_be_bytes());
            seed[8..].copy_from_slice(&global.to_be_bytes());
            let id = ep.id();
            let principal = Principal {
                ep,
                gateway,
                config,
                rng: ChaChaRng::from_seed_bytes(&seed),
                state: State::Boot,
                start_at,
                garbage,
                hello_sent: None,
                log: Rc::clone(&self.log),
            };
            span(Layer::SchedSpawn, || {
                self.sched.spawn_mailbox_id(id, principal)
            });
        }
    }
}

impl Workload for LoginStorm {
    fn setup(seed: u64, build: u32) -> Self {
        Self::build(seed, build, Shape::BENCH)
    }

    fn round(&mut self, index: u64) -> Round {
        let traced = crate::prof::enabled();
        let pools_before = self.pool_counters();
        let net_before = self.net.stats();
        let sched_before = self.sched.stats();

        span(Layer::Driver, || self.spawn_cohort(index));
        let sched_after = span(Layer::SchedRun, || self.sched.run());

        let net_after = self.net.stats();
        if traced {
            let pools_after = self.pool_counters();
            let t = &mut self.traced;
            t.validator_hits += pools_after[0] - pools_before[0];
            t.validator_misses += pools_after[1] - pools_before[1];
            t.binding_hits += pools_after[2] - pools_before[2];
            t.binding_misses += pools_after[3] - pools_before[3];
            t.net_messages += net_after.messages - net_before.messages;
            t.net_bytes += net_after.bytes - net_before.bytes;
            t.steps += sched_after.steps - sched_before.steps;
            t.mail_wakes += sched_after.mail_wakes - sched_before.mail_wakes;
            t.timer_wakes += sched_after.timer_wakes - sched_before.timer_wakes;
        }

        let mut log = self.log.borrow_mut();
        let cohort = self.shape.cohort as u64;
        // A principal still waiting at quiescence never got its verdict.
        let unfinished = cohort - log.finished;
        let round = Round {
            attempted: cohort,
            failed: log.failed + unfinished,
            ops: log.established,
            latencies_ms: std::mem::take(&mut log.latencies_ms),
            payload_bytes: log.established * PROOF.len() as u64,
            net_msgs: net_after.messages - net_before.messages,
        };
        log.finished = 0;
        log.established = 0;
        log.failed = 0;
        round
    }

    fn layer_metrics(&self, ops: u64) -> Vec<(&'static str, f64)> {
        let t = &self.traced;
        let per_op = |n: u64| n as f64 / ops.max(1) as f64;
        let ratio = |hit: u64, miss: u64| hit as f64 / (hit + miss).max(1) as f64;
        let mut waves = self.log.borrow().waves.clone();
        waves.sort_unstable();
        let wave_p50 = waves
            .get(waves.len().saturating_sub(1) / 2)
            .copied()
            .unwrap_or(0);
        vec![
            ("gssapi.poll.wave_size.p50", wave_p50 as f64),
            (
                "gssapi.poll.wave_size.max",
                waves.last().copied().unwrap_or(0) as f64,
            ),
            (
                "tls.pool.validator_hit_ratio",
                ratio(t.validator_hits, t.validator_misses),
            ),
            (
                "tls.pool.binding_hit_ratio",
                ratio(t.binding_hits, t.binding_misses),
            ),
            ("testbed.net.messages_per_op", per_op(t.net_messages)),
            ("testbed.net.bytes_per_op", per_op(t.net_bytes)),
            ("testbed.sched.steps_per_op", per_op(t.steps)),
            ("testbed.sched.mail_wakes_per_op", per_op(t.mail_wakes)),
            ("testbed.sched.timer_wakes_per_op", per_op(t.timer_wakes)),
            (
                "testbed.sched.live_high_water",
                self.sched.stats().live_high_water as f64,
            ),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SMALL: Shape = Shape {
        credentials: 4,
        cohort: 200,
        tamper: false,
    };

    #[test]
    fn every_login_reaches_the_expected_verdict() {
        let mut w = LoginStorm::build(7, 0, SMALL);
        let r = w.round(0);
        assert_eq!(r.attempted, 200);
        assert_eq!(r.failed, 0);
        // 200 / 97: two garbage hellos, refused; everyone else logged in.
        assert_eq!(r.ops, 198);
        assert_eq!(r.latencies_ms.len(), 198);
    }

    #[test]
    fn a_corrupted_proof_fails_the_round() {
        let mut w = LoginStorm::build(
            7,
            0,
            Shape {
                tamper: true,
                ..SMALL
            },
        );
        let r = w.round(0);
        assert_eq!(r.failed, GATEWAYS as u64, "one corrupted proof per gateway");
        assert_eq!(r.ops, 198 - GATEWAYS as u64);
    }
}
