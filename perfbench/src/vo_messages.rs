//! `vo_messages`: a VO population running message-shaped flows.
//!
//! Shaped like `scenarios::vo_storm`: every principal is a scheduler task
//! running the legs of the paper's figure-1 (GSI context + secured
//! request) or figure-4 (GRAM submission with delegation) flow as
//! sequential [`PollingCall`]s against stateless gateways, over the
//! storm's lossy WAN (1% loss, 1% duplication, 1–3 s latency, 5%
//! reorder). Flows record their sim-time latency and counts through an
//! installed `util::trace` tracer. One round is the whole population
//! started over a two-minute stagger window and run to quiescence; the
//! same population (set up once) runs again every round under fresh
//! fault draws.
//!
//! Chosen because there is no crypto: the scheduler, the network, RPC
//! and the tracer do all the work, so deleting the blocking twins and
//! the one-registry item move this workload and not the login storm.

use std::cell::RefCell;
use std::rc::Rc;

use gridsec_testbed::clock::SimClock;
use gridsec_testbed::names::NameId;
use gridsec_testbed::net::{Endpoint, FaultProfile, Network};
use gridsec_testbed::rpc::{self, CallPoll, PollingCall};
use gridsec_testbed::sched::{Scheduler, Step, Task, TaskCx};
use gridsec_util::retry::RetryPolicy;
use gridsec_util::rng::{DetRng, RngCore};
use gridsec_util::trace::{self, InstallGuard, Tracer};

use crate::clock::{self, CpuInstant};
use crate::prof::{span, Layer};
use crate::{Round, Workload};

const PRINCIPALS: usize = 20_000;
const GATEWAYS: usize = 4;
const START_SPREAD: u64 = 120;
const FIG4_PERMILLE: u64 = 300;

/// Figure-1 legs (request, reply) in bytes: two GSS token rounds, then
/// the secured application exchange.
const FIG1_LEGS: &[(usize, usize)] = &[(620, 380), (240, 160), (410, 300)];
/// Figure-4 legs: submit, two GSS rounds, delegation request and chain,
/// job start, job state.
const FIG4_LEGS: &[(usize, usize)] = &[
    (300, 90),
    (620, 380),
    (240, 160),
    (150, 520),
    (680, 120),
    (200, 90),
    (120, 140),
];
const FIG1: u8 = 1;
const FIG4: u8 = 4;

/// The chaos suite's retry policy.
const POLICY: RetryPolicy = RetryPolicy {
    max_attempts: 8,
    base_timeout: 16,
    multiplier: 2,
    max_timeout: 64,
};

fn storm_wan() -> FaultProfile {
    FaultProfile {
        drop: 0.01,
        duplicate: 0.01,
        max_extra_copies: 1,
        min_latency: 1,
        max_latency: 3,
        reorder: 0.05,
        reorder_jitter: 2,
    }
}

fn legs(tag: u8) -> &'static [(usize, usize)] {
    if tag == FIG4 {
        FIG4_LEGS
    } else {
        FIG1_LEGS
    }
}

/// The byte a gateway fills leg `leg`'s reply with; principals check it.
fn reply_fill(tag: u8, leg: u8) -> u8 {
    tag.wrapping_mul(31) ^ leg.wrapping_mul(97) ^ 0x5a
}

/// Verdicts and timings the tasks report back to the round.
#[derive(Default)]
struct Log {
    finished: u64,
    completed: u64,
    failed: u64,
    payload_bytes: u64,
    calls: u64,
    retransmissions: u64,
    latencies_ms: Vec<f64>,
    /// Corrupt the next reply a gateway sends (tests the verdict check).
    tamper: bool,
}

/// Answers every leg of both flows, statelessly.
struct Gateway {
    ep: Endpoint,
    log: Rc<RefCell<Log>>,
}

impl Gateway {
    fn step_body(&mut self) -> Step {
        let mut answered = 0u64;
        while let Some(m) = span(Layer::NetTryRecv, || self.ep.try_recv()) {
            let Some((id, body)) = rpc::decode_request(&m.payload) else {
                continue;
            };
            // Malformed legs get an empty reply, which fails the flow.
            let reply = match (body.first(), body.get(1)) {
                (Some(&tag), Some(&leg)) => legs(tag)
                    .get(usize::from(leg))
                    .map(|&(_, len)| vec![reply_fill(tag, leg); len])
                    .unwrap_or_default(),
                _ => Vec::new(),
            };
            let mut frame = rpc::encode_reply(id, &reply);
            let mut log = self.log.borrow_mut();
            if log.tamper {
                log.tamper = false;
                let last = frame.len() - 1;
                frame[last] ^= 1;
            }
            drop(log);
            let _ = span(Layer::NetSend, || self.ep.send(&m.from, frame));
            answered += 1;
        }
        if answered > 0 {
            span(Layer::UtilTrace, || trace::add("vo.gw.answered", answered));
        }
        Step::WaitMail { deadline: None }
    }
}

impl Task for Gateway {
    fn step(&mut self, _cx: &TaskCx) -> Step {
        span(Layer::Driver, || self.step_body())
    }
}

/// One member's flow: sleep to the staggered start, then run the legs.
struct Principal {
    ep: Endpoint,
    gateway: &'static str,
    tag: u8,
    leg: usize,
    call: Option<PollingCall>,
    start_at: u64,
    began: Option<(u64, CpuInstant)>,
    retransmissions: u64,
    log: Rc<RefCell<Log>>,
}

impl Principal {
    fn finish(&self, ok: bool, now: u64) -> Step {
        let mut log = self.log.borrow_mut();
        log.finished += 1;
        log.calls += self.leg as u64 + u64::from(!ok);
        log.retransmissions += self.retransmissions;
        if !ok {
            log.failed += 1;
            return Step::Done;
        }
        let (sim_start, cpu_start) = self.began.expect("flow began");
        log.completed += 1;
        log.latencies_ms
            .push(cpu_start.elapsed().as_secs_f64() * 1e3);
        log.payload_bytes += legs(self.tag)
            .iter()
            .map(|(q, r)| (q + r) as u64)
            .sum::<u64>();
        drop(log);
        let latency = now - sim_start;
        span(Layer::UtilTrace, || {
            if self.tag == FIG4 {
                trace::record("vo.fig4.latency_s", latency);
            } else {
                trace::record("vo.fig1.latency_s", latency);
            }
            trace::add("vo.flows.completed", 1);
            if self.retransmissions > 0 {
                trace::add("vo.retransmissions", self.retransmissions);
            }
        });
        Step::Done
    }

    fn step_body(&mut self, now: u64) -> Step {
        if self.began.is_none() {
            if now < self.start_at {
                return Step::Sleep(self.start_at);
            }
            self.began = Some((now, clock::now()));
        }
        let legs = legs(self.tag);
        loop {
            let call = match &mut self.call {
                Some(call) => call,
                None => {
                    let (req_len, _) = legs[self.leg];
                    let mut payload = vec![0u8; req_len];
                    payload[0] = self.tag;
                    payload[1] = self.leg as u8;
                    let id = self.leg as u64 + 1;
                    let call = span(Layer::RpcNew, || {
                        PollingCall::new(self.gateway, id, &payload, POLICY)
                    });
                    self.call.insert(call)
                }
            };
            let ep = &self.ep;
            match span(Layer::RpcPoll, || call.poll(ep, now)) {
                CallPoll::Ready(reply) => {
                    self.retransmissions += call.retransmissions();
                    self.call = None;
                    let fill = reply_fill(self.tag, self.leg as u8);
                    let expected = legs[self.leg].1;
                    if reply.len() != expected || reply.iter().any(|&b| b != fill) {
                        return self.finish(false, now);
                    }
                    self.leg += 1;
                    if self.leg == legs.len() {
                        return self.finish(true, now);
                    }
                }
                CallPoll::Wait { deadline } => {
                    return Step::WaitMail {
                        deadline: Some(deadline),
                    }
                }
                CallPoll::Exhausted => return self.finish(false, now),
            }
        }
    }
}

impl Task for Principal {
    fn step(&mut self, cx: &TaskCx) -> Step {
        span(Layer::Driver, || self.step_body(cx.now()))
    }
}

/// One member of the VO: its interned mailbox and its flow.
struct Member {
    name: String,
    id: NameId,
    tag: u8,
    gateway: &'static str,
    start_offset: u64,
}

/// Layer counters summed over the traced rounds.
#[derive(Default)]
struct Traced {
    calls: u64,
    retransmissions: u64,
    drops: u64,
    duplicates: u64,
    net_messages: u64,
    net_bytes: u64,
    steps: u64,
    mail_wakes: u64,
    timer_wakes: u64,
}

pub struct VoMessages {
    net: Network,
    sched: Scheduler,
    tracer: Tracer,
    members: Vec<Member>,
    log: Rc<RefCell<Log>>,
    /// The tracer's deterministic render after round 0.
    first_render: String,
    traced: Traced,
    _installed: InstallGuard,
}

const GATEWAY_NAMES: [&str; GATEWAYS] = ["vo-gw-0", "vo-gw-1", "vo-gw-2", "vo-gw-3"];

impl VoMessages {
    fn build(seed: u64, principals: usize) -> Self {
        let net = Network::new();
        let clock = SimClock::new();
        net.enable_faults(clock.clone(), seed, storm_wan());
        // A formatted transcript line per send would dominate memory.
        net.set_transcript_recording(false);
        let tracer = Tracer::new();
        tracer.set_clock(move || clock.now());
        let installed = trace::install(&tracer);

        let mut sched = Scheduler::new(&net);
        let log = Rc::new(RefCell::new(Log::default()));
        for name in GATEWAY_NAMES {
            let gateway = Gateway {
                ep: net.register(name),
                log: Rc::clone(&log),
            };
            sched.spawn_mailbox(name, gateway);
        }

        let mut rng = DetRng::seed_from_u64(seed ^ 0x5702_4A11);
        let members = (0..principals)
            .map(|i| {
                let tag = if rng.next_u64() % 1000 < FIG4_PERMILLE {
                    FIG4
                } else {
                    FIG1
                };
                let gateway = GATEWAY_NAMES[rng.next_u64() as usize % GATEWAYS];
                let name = format!("p{i}");
                Member {
                    id: net.intern(&name),
                    name,
                    tag,
                    gateway,
                    start_offset: rng.next_u64() % (START_SPREAD + 1),
                }
            })
            .collect();
        VoMessages {
            net,
            sched,
            tracer,
            members,
            log,
            first_render: String::new(),
            traced: Traced::default(),
            _installed: installed,
        }
    }

    fn spawn_population(&mut self) {
        let base = self.sched.now();
        for m in &self.members {
            let ep = span(Layer::NetRegister, || self.net.register(&m.name));
            let principal = Principal {
                ep,
                gateway: m.gateway,
                tag: m.tag,
                leg: 0,
                call: None,
                start_at: base + m.start_offset,
                began: None,
                retransmissions: 0,
                log: Rc::clone(&self.log),
            };
            span(Layer::SchedSpawn, || {
                self.sched.spawn_mailbox_id(m.id, principal)
            });
        }
    }
}

impl Workload for VoMessages {
    fn setup(seed: u64, build: u32) -> Self {
        Self::build(seed ^ (u64::from(build) << 48), PRINCIPALS)
    }

    fn round(&mut self, index: u64) -> Round {
        let net_before = self.net.stats();
        let faults_before = self.net.fault_stats().expect("faults armed");
        let sched_before = self.sched.stats();

        span(Layer::Driver, || self.spawn_population());
        let sched_after = span(Layer::SchedRun, || self.sched.run());

        let net_after = self.net.stats();
        let mut log = self.log.borrow_mut();
        if crate::prof::enabled() {
            let faults_after = self.net.fault_stats().expect("faults armed");
            let t = &mut self.traced;
            t.calls += log.calls;
            t.retransmissions += log.retransmissions;
            t.drops += faults_after.dropped - faults_before.dropped;
            t.duplicates += faults_after.duplicated - faults_before.duplicated;
            t.net_messages += net_after.messages - net_before.messages;
            t.net_bytes += net_after.bytes - net_before.bytes;
            t.steps += sched_after.steps - sched_before.steps;
            t.mail_wakes += sched_after.mail_wakes - sched_before.mail_wakes;
            t.timer_wakes += sched_after.timer_wakes - sched_before.timer_wakes;
        }
        let population = self.members.len() as u64;
        // A flow still waiting at quiescence never completed.
        let unfinished = population - log.finished;
        let round = Round {
            attempted: population,
            failed: log.failed + unfinished,
            ops: log.completed,
            latencies_ms: std::mem::take(&mut log.latencies_ms),
            payload_bytes: log.payload_bytes,
            net_msgs: net_after.messages - net_before.messages,
        };
        *log = Log::default();
        drop(log);
        if index == 0 {
            self.first_render = self.tracer.metrics().render();
        }
        round
    }

    fn layer_metrics(&self, ops: u64) -> Vec<(&'static str, f64)> {
        let t = &self.traced;
        let per_op = |n: u64| n as f64 / ops.max(1) as f64;
        vec![
            (
                "testbed.rpc.retransmissions_per_op",
                per_op(t.retransmissions),
            ),
            (
                "testbed.rpc.retx_ratio",
                t.retransmissions as f64 / t.calls.max(1) as f64,
            ),
            ("testbed.net.drops_per_op", per_op(t.drops)),
            ("testbed.net.duplicates_per_op", per_op(t.duplicates)),
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

    fn render(&self) -> String {
        format!(
            "round 0 of {} flows:\n{}",
            self.members.len(),
            self.first_render
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_flow_completes_with_checked_replies() {
        let mut w = VoMessages::build(5, 1_000);
        for index in 0..2 {
            let r = w.round(index);
            assert_eq!(r.attempted, 1_000);
            assert_eq!(r.failed, 0);
            assert_eq!(r.ops, 1_000);
        }
        assert!(w.render().contains("vo.flows.completed"));
    }

    #[test]
    fn a_corrupted_reply_fails_the_round() {
        let mut w = VoMessages::build(5, 1_000);
        w.log.borrow_mut().tamper = true;
        let r = w.round(0);
        assert_eq!(r.failed, 1);
        assert_eq!(r.ops, 999);
    }
}
