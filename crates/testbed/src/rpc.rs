//! At-most-once request/reply over the simulated [`crate::net`] layer.
//!
//! The fault layer ([`crate::net::Network::enable_faults`]) drops,
//! duplicates, and reorders datagrams, so the bare
//! [`Endpoint::call`][crate::net::Endpoint::call] idiom (send, block for
//! the next message) is no longer safe. This module supplies what every
//! protocol crate's client path needs instead:
//!
//! * **Framing** — requests and replies carry a magic tag and a 64-bit
//!   call id, so duplicated or reordered datagrams can be matched to the
//!   call that sent them (and stale ones discarded).
//! * **[`RpcClient`]** — retransmits with exponential backoff per a
//!   [`RetryPolicy`], driving the shared `SimClock` forward through the
//!   network's pending-delivery queue while it waits. An optional *pump
//!   hook* lets single-threaded scenarios interleave server polling with
//!   the client's wait loop (no threads, fully deterministic).
//! * **[`RpcServer`]** — executes each distinct `(caller, id)` request
//!   exactly once and caches the reply, so retransmissions and network
//!   duplicates of non-idempotent operations (GSS token steps, job
//!   submission) are answered from the cache instead of re-executed.
//!   This is the classic at-most-once RPC discipline.

use crate::net::{Endpoint, Network};
use crate::TestbedError;
use gridsec_util::retry::RetryPolicy;
use gridsec_util::trace;
use std::collections::HashMap;

const REQ_MAGIC: &[u8; 4] = b"GRQ1";
const REP_MAGIC: &[u8; 4] = b"GRP1";

/// Frame a request payload with its call id.
pub fn encode_request(id: u64, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(12 + payload.len());
    out.extend_from_slice(REQ_MAGIC);
    out.extend_from_slice(&id.to_be_bytes());
    out.extend_from_slice(payload);
    out
}

/// Parse a request frame into `(id, payload)`; `None` if not a request.
pub fn decode_request(bytes: &[u8]) -> Option<(u64, &[u8])> {
    decode(REQ_MAGIC, bytes)
}

/// Frame a reply payload with the call id it answers.
pub fn encode_reply(id: u64, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(12 + payload.len());
    out.extend_from_slice(REP_MAGIC);
    out.extend_from_slice(&id.to_be_bytes());
    out.extend_from_slice(payload);
    out
}

/// Parse a reply frame into `(id, payload)`; `None` if not a reply.
pub fn decode_reply(bytes: &[u8]) -> Option<(u64, &[u8])> {
    decode(REP_MAGIC, bytes)
}

/// `true` iff `bytes` looks like an RPC request frame (used by servers
/// that speak both raw and RPC-framed traffic on one endpoint).
pub fn is_request(bytes: &[u8]) -> bool {
    bytes.len() >= 12 && &bytes[..4] == REQ_MAGIC
}

fn decode<'a>(magic: &[u8; 4], bytes: &'a [u8]) -> Option<(u64, &'a [u8])> {
    if bytes.len() < 12 || &bytes[..4] != magic {
        return None;
    }
    let mut id = [0u8; 8];
    id.copy_from_slice(&bytes[4..12]);
    Some((u64::from_be_bytes(id), &bytes[12..]))
}

/// Counters describing what a client's calls cost.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RpcCallStats {
    /// Completed `call` invocations (success or failure).
    pub calls: u64,
    /// Retransmissions beyond each call's first attempt.
    pub retransmissions: u64,
    /// Attempts that timed out waiting for a reply.
    pub timeouts: u64,
}

/// A retrying RPC client bound to one server endpoint name.
pub struct RpcClient {
    endpoint: Endpoint,
    server: String,
    policy: RetryPolicy,
    next_id: u64,
    pump: Option<Box<dyn FnMut() -> usize>>,
    stats: RpcCallStats,
}

impl RpcClient {
    /// Bind `endpoint` as a client of the server named `server`.
    pub fn new(endpoint: Endpoint, server: &str, policy: RetryPolicy) -> Self {
        RpcClient {
            endpoint,
            server: server.to_string(),
            policy,
            next_id: 1,
            pump: None,
            stats: RpcCallStats::default(),
        }
    }

    /// Install a pump hook: a closure invoked inside the wait loop that
    /// should perform any synchronous server-side work now possible
    /// (e.g. [`RpcServer::poll`] for every service in the scenario) and
    /// return how much work it did. The client pumps the network and
    /// this hook to a fixed point before advancing the clock, which is
    /// what makes single-threaded chaos scenarios deterministic.
    pub fn set_pump(&mut self, hook: impl FnMut() -> usize + 'static) {
        self.pump = Some(Box::new(hook));
    }

    /// The client's own endpoint.
    pub fn endpoint(&self) -> &Endpoint {
        &self.endpoint
    }

    /// The server endpoint name this client calls.
    pub fn server(&self) -> &str {
        &self.server
    }

    /// The retry policy in force.
    pub fn policy(&self) -> RetryPolicy {
        self.policy
    }

    /// Cumulative call statistics.
    pub fn stats(&self) -> RpcCallStats {
        self.stats
    }

    /// Issue `request` and return the server's reply, retransmitting
    /// with exponential backoff until the policy is exhausted
    /// ([`TestbedError::Timeout`]). Safe under message duplication: the
    /// call id matches replies to this call, and the server's reply
    /// cache keeps the handler at-most-once.
    pub fn call(&mut self, request: &[u8]) -> Result<Vec<u8>, TestbedError> {
        self.stats.calls += 1;
        let id = self.next_id;
        self.next_id += 1;
        let frame = encode_request(id, request);
        let mut sp = trace::span_with("rpc.call", &format!("server={} id={id}", self.server));
        trace::add("rpc.calls", 1);
        trace::add("rpc.bytes_sent", frame.len() as u64);
        let mut last_err = TestbedError::Timeout;
        let policy = self.policy;
        for (attempt, timeout) in policy.schedule() {
            if attempt > 0 {
                self.stats.retransmissions += 1;
                trace::add("rpc.retransmissions", 1);
                trace::add("rpc.bytes_sent", frame.len() as u64);
                trace::event(
                    "rpc.retransmit",
                    &format!("id={id} attempt={attempt} timeout={timeout}"),
                );
            }
            self.endpoint.send(&self.server, frame.clone())?;
            match self.wait_reply(id, timeout) {
                Ok(reply) => {
                    trace::add("rpc.bytes_received", 12 + reply.len() as u64);
                    return Ok(reply);
                }
                Err(TestbedError::Timeout) => {
                    self.stats.timeouts += 1;
                    trace::add("rpc.timeouts", 1);
                    last_err = TestbedError::Timeout;
                }
                Err(e) => {
                    sp.fail("send");
                    return Err(e);
                }
            }
        }
        // Retry budget exhausted: ship the recent trace ring so the
        // failure is diagnosable without rerunning the scenario.
        sp.fail("retry budget exhausted");
        trace::event("rpc.exhausted", &format!("id={id} server={}", self.server));
        trace::flight_dump(&format!(
            "rpc retry budget exhausted (server={} id={id})",
            self.server
        ));
        Err(last_err)
    }

    /// Pump the network and the service hook until neither makes
    /// progress.
    fn drain(&mut self) {
        loop {
            let mut n = self.endpoint.network().pump();
            if let Some(hook) = self.pump.as_mut() {
                n += hook();
            }
            if n == 0 {
                return;
            }
        }
    }

    fn wait_reply(&mut self, id: u64, timeout: u64) -> Result<Vec<u8>, TestbedError> {
        let network: Network = self.endpoint.network().clone();
        let clock = network.fault_clock();
        let deadline = clock.as_ref().map(|c| c.now().saturating_add(timeout));
        loop {
            self.drain();
            while let Some(m) = self.endpoint.try_recv() {
                if let Some((rid, body)) = decode_reply(&m.payload) {
                    if rid == id {
                        return Ok(body.to_vec());
                    }
                    // Stale reply from an earlier call (or a duplicate
                    // of one): discard.
                }
            }
            match (&clock, deadline) {
                (Some(c), Some(deadline)) => {
                    let now = c.now();
                    if now >= deadline {
                        return Err(TestbedError::Timeout);
                    }
                    let next = network
                        .next_event_at()
                        .map(|t| t.clamp(now + 1, deadline))
                        .unwrap_or(deadline);
                    c.set(next);
                }
                // No clock to advance and the hook (if any) is
                // quiescent: nothing can produce the reply anymore.
                _ => return Err(TestbedError::Timeout),
            }
        }
    }
}

/// Result of polling a [`PollingCall`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CallPoll {
    /// The matching reply arrived; the call is complete.
    Ready(Vec<u8>),
    /// Every attempt in the retry schedule timed out (or the server
    /// endpoint vanished). The call failed.
    Exhausted,
    /// Still waiting on the in-flight attempt. The caller should wake
    /// when its mailbox receives mail or at `deadline` (the attempt's
    /// timeout), whichever is first — i.e. return
    /// [`Step::WaitMail`](crate::sched::Step::WaitMail) with this
    /// deadline from a scheduled task.
    Wait {
        /// Absolute sim time at which the current attempt times out.
        deadline: u64,
    },
}

/// A non-blocking, resumable RPC call: [`RpcClient::call`]'s
/// retransmit-with-backoff loop re-expressed as a poll-style state
/// machine, so it can run *inside* a [`crate::sched::Scheduler`] task
/// instead of owning the clock. Semantics mirror `RpcClient` exactly —
/// same [`RetryPolicy`] schedule, same per-attempt deadlines, same
/// stale-reply discarding — the only difference is who advances time:
/// the blocking client drives the clock itself, a `PollingCall` asks
/// the scheduler to wake it.
///
/// The embedding task owns the [`Endpoint`] and passes it to each
/// [`PollingCall::poll`]; calls on one endpoint must be sequential
/// (matching `RpcClient`), with unique ids per `(caller, id)` pair.
pub struct PollingCall {
    server: String,
    id: u64,
    frame: Vec<u8>,
    policy: RetryPolicy,
    next_attempt: u32,
    attempt_deadline: Option<u64>,
    retransmissions: u64,
}

impl PollingCall {
    /// Prepare a call of `payload` to `server` under `policy`. Nothing
    /// is sent until the first [`PollingCall::poll`].
    pub fn new(server: &str, id: u64, payload: &[u8], policy: RetryPolicy) -> Self {
        PollingCall {
            server: server.to_string(),
            id,
            frame: encode_request(id, payload),
            policy,
            next_attempt: 0,
            attempt_deadline: None,
            retransmissions: 0,
        }
    }

    /// Retransmissions beyond the first attempt, so far.
    pub fn retransmissions(&self) -> u64 {
        self.retransmissions
    }

    /// Advance the call: drain `ep`'s mailbox for the matching reply,
    /// and (re)transmit when the current attempt's deadline has passed.
    /// Non-matching frames (stale or duplicate replies of earlier
    /// calls) are discarded, as in [`RpcClient`]. A deadline already in
    /// the past triggers the next attempt on this very poll — it never
    /// silently extends the wait.
    pub fn poll(&mut self, ep: &Endpoint, now: u64) -> CallPoll {
        while let Some(m) = ep.try_recv() {
            if let Some((rid, body)) = decode_reply(&m.payload) {
                if rid == self.id {
                    return CallPoll::Ready(body.to_vec());
                }
            }
        }
        loop {
            if let Some(d) = self.attempt_deadline {
                if now < d {
                    return CallPoll::Wait { deadline: d };
                }
            }
            // First transmission, or the in-flight attempt timed out.
            let attempt = self.next_attempt;
            if attempt == self.policy.attempts() {
                return CallPoll::Exhausted;
            }
            self.next_attempt += 1;
            let timeout = self.policy.timeout_for(attempt);
            if attempt > 0 {
                self.retransmissions += 1;
            }
            if ep.send(&self.server, self.frame.clone()).is_err() {
                return CallPoll::Exhausted;
            }
            self.attempt_deadline = Some(now.saturating_add(timeout));
        }
    }
}

/// An at-most-once RPC server: executes each distinct `(caller, id)`
/// once and replays the cached reply for retransmissions.
pub struct RpcServer {
    endpoint: Endpoint,
    seen: HashMap<(String, u64), Vec<u8>>,
}

impl RpcServer {
    /// Wrap a registered endpoint as an RPC server.
    pub fn new(endpoint: Endpoint) -> Self {
        RpcServer {
            endpoint,
            seen: HashMap::new(),
        }
    }

    /// The server's endpoint.
    pub fn endpoint(&self) -> &Endpoint {
        &self.endpoint
    }

    /// Drain the mailbox, answering every request frame: fresh
    /// `(caller, id)` pairs go through `handler`, repeats are answered
    /// from the reply cache. Non-RPC frames are ignored. Returns the
    /// number of frames answered (cache hits included, so callers can
    /// use the count as a progress signal).
    pub fn poll(&mut self, handler: &mut dyn FnMut(&str, &[u8]) -> Vec<u8>) -> usize {
        let mut handled = 0;
        while let Some(m) = self.endpoint.try_recv() {
            let Some((id, body)) = decode_request(&m.payload) else {
                continue;
            };
            let key = (m.from.clone(), id);
            let reply = match self.seen.get(&key) {
                Some(cached) => cached.clone(),
                None => {
                    let r = handler(&m.from, body);
                    self.seen.insert(key, r.clone());
                    r
                }
            };
            // The caller may have unregistered; a lost reply is the
            // retransmission layer's problem, not ours.
            let _ = self.endpoint.send(&m.from, encode_reply(id, &reply));
            handled += 1;
        }
        handled
    }

    /// Number of distinct requests executed (reply-cache size).
    pub fn executed(&self) -> usize {
        self.seen.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::SimClock;
    use crate::net::{FaultProfile, Network};
    use crate::sched::{Scheduler, Step};
    use std::cell::RefCell;
    use std::rc::Rc;

    fn echo_upper() -> impl FnMut(&str, &[u8]) -> Vec<u8> {
        |_from: &str, body: &[u8]| body.to_ascii_uppercase()
    }

    /// Build a client/server pair where the client's pump hook polls the
    /// server inline (single-threaded scenario shape).
    fn pumped_pair(net: &Network, policy: RetryPolicy) -> (RpcClient, Rc<RefCell<RpcServer>>) {
        let server = Rc::new(RefCell::new(RpcServer::new(net.register("server"))));
        let mut client = RpcClient::new(net.register("client"), "server", policy);
        let hook_server = server.clone();
        let mut handler = echo_upper();
        client.set_pump(move || hook_server.borrow_mut().poll(&mut handler));
        (client, server)
    }

    #[test]
    fn frame_roundtrip_and_rejection() {
        let f = encode_request(42, b"body");
        assert!(is_request(&f));
        assert_eq!(decode_request(&f), Some((42, &b"body"[..])));
        assert_eq!(decode_reply(&f), None);
        let r = encode_reply(42, b"resp");
        assert!(!is_request(&r));
        assert_eq!(decode_reply(&r), Some((42, &b"resp"[..])));
        assert_eq!(decode_request(b"short"), None);
        assert_eq!(decode_request(b"<xml>not rpc at all</xml>"), None);
    }

    #[test]
    fn call_over_perfect_network() {
        let net = Network::new();
        let (mut client, _server) = pumped_pair(&net, RetryPolicy::default());
        assert_eq!(client.call(b"hello").unwrap(), b"HELLO");
        assert_eq!(client.stats().retransmissions, 0);
    }

    #[test]
    fn retransmits_through_heavy_loss() {
        let net = Network::new();
        let clock = SimClock::new();
        net.enable_faults(
            clock.clone(),
            0xBEEF,
            FaultProfile {
                drop: 0.25,
                min_latency: 1,
                max_latency: 3,
                ..FaultProfile::lossy_wan()
            },
        );
        // Timeout windows larger than the worst-case round trip, so an
        // attempt only fails when a copy was actually lost.
        let policy = RetryPolicy {
            max_attempts: 8,
            base_timeout: 16,
            multiplier: 2,
            max_timeout: 64,
        };
        let (mut client, server) = pumped_pair(&net, policy);
        for i in 0..20u32 {
            let req = format!("msg-{i}");
            assert_eq!(
                client.call(req.as_bytes()).unwrap(),
                req.to_ascii_uppercase().as_bytes()
            );
        }
        // 25% drop over 20 calls forces at least one retransmission,
        // and at-most-once holds regardless.
        assert!(client.stats().retransmissions > 0);
        assert_eq!(server.borrow().executed(), 20);
    }

    #[test]
    fn duplicated_requests_execute_once() {
        let net = Network::new();
        let clock = SimClock::new();
        net.enable_faults(
            clock.clone(),
            7,
            FaultProfile {
                duplicate: 1.0,
                max_extra_copies: 2,
                ..FaultProfile::default()
            },
        );
        let server = Rc::new(RefCell::new(RpcServer::new(net.register("server"))));
        let mut client = RpcClient::new(net.register("client"), "server", RetryPolicy::default());
        let hook_server = server.clone();
        let executions = Rc::new(RefCell::new(0u32));
        let exec_count = executions.clone();
        let mut handler = move |_from: &str, body: &[u8]| {
            *exec_count.borrow_mut() += 1;
            body.to_vec()
        };
        client.set_pump(move || hook_server.borrow_mut().poll(&mut handler));
        assert_eq!(client.call(b"once").unwrap(), b"once");
        // Every duplicate reached the server, but the handler ran once.
        assert_eq!(*executions.borrow(), 1);
        assert_eq!(server.borrow().executed(), 1);
    }

    #[test]
    fn exhausted_policy_times_out_deterministically() {
        let net = Network::new();
        let clock = SimClock::new();
        net.enable_faults(clock.clone(), 1, FaultProfile::default());
        let (mut client, _server) = pumped_pair(&net, RetryPolicy::default());
        net.partition("client", "server");
        let t0 = clock.now();
        assert_eq!(client.call(b"void"), Err(TestbedError::Timeout));
        // The clock advanced by exactly the policy's worst case.
        assert_eq!(clock.now() - t0, RetryPolicy::default().worst_case_total());
        assert_eq!(
            client.stats().timeouts,
            u64::from(RetryPolicy::default().max_attempts)
        );
        // Healing lets the same client complete its next call.
        net.heal_all();
        assert_eq!(client.call(b"back").unwrap(), b"BACK");
    }

    #[test]
    fn scheduled_server_without_faults_still_works() {
        // Formerly a thread::spawn server racing yield_now: the server
        // now runs as a scheduler task, driven from the client's pump
        // hook — same observable behavior, zero threads, deterministic.
        let net = Network::new();
        let server_ep = net.register("server");
        let mut client = RpcClient::new(net.register("client"), "server", RetryPolicy::default());
        let sched = Rc::new(RefCell::new(Scheduler::new(&net)));
        let mut server = RpcServer::new(server_ep);
        let mut handler = |_from: &str, body: &[u8]| body.to_ascii_uppercase();
        sched.borrow_mut().spawn_mailbox("server", move |_cx: &_| {
            server.poll(&mut handler);
            Step::WaitMail { deadline: None }
        });
        let hook = sched.clone();
        client.set_pump(move || hook.borrow_mut().poll());
        for msg in ["a", "b", "c"] {
            assert_eq!(
                client.call(msg.as_bytes()).unwrap(),
                msg.to_ascii_uppercase().as_bytes()
            );
        }
        assert_eq!(client.stats().retransmissions, 0);
        assert_eq!(sched.borrow().live(), 1, "server task still waiting");
    }

    #[test]
    fn polling_call_matches_blocking_client_through_loss() {
        // The same lossy-WAN call sequence, once through the blocking
        // RpcClient (which owns the clock) and once as PollingCall state
        // machines inside scheduler tasks: both must complete all calls
        // with identical retransmission counts and identical fault
        // transcripts — the state machine is the loop, re-expressed.
        let policy = RetryPolicy {
            max_attempts: 8,
            base_timeout: 16,
            multiplier: 2,
            max_timeout: 64,
        };
        let profile = FaultProfile {
            drop: 0.25,
            min_latency: 1,
            max_latency: 3,
            ..FaultProfile::lossy_wan()
        };
        let calls = 12u64;

        let blocking = {
            let net = Network::new();
            let clock = SimClock::new();
            net.enable_faults(clock.clone(), 0xBEEF, profile);
            let (mut client, _server) = pumped_pair(&net, policy);
            for i in 0..calls {
                let req = format!("msg-{i}");
                assert_eq!(
                    client.call(req.as_bytes()).unwrap(),
                    req.to_ascii_uppercase().as_bytes()
                );
            }
            (client.stats().retransmissions, net.transcript())
        };

        let scheduled = {
            let net = Network::new();
            let clock = SimClock::new();
            net.enable_faults(clock.clone(), 0xBEEF, profile);
            let mut sched = Scheduler::new(&net);
            let mut server = RpcServer::new(net.register("server"));
            let mut handler = echo_upper();
            sched.spawn_mailbox("server", move |_cx: &_| {
                server.poll(&mut handler);
                Step::WaitMail { deadline: None }
            });
            let ep = net.register("client");
            let done = Rc::new(RefCell::new((0u64, 0u64))); // (completed, retransmissions)
            let done2 = done.clone();
            let mut call: Option<PollingCall> = None;
            let mut next = 0u64;
            sched.spawn_mailbox("client", move |cx: &crate::sched::TaskCx| loop {
                if call.is_none() {
                    if next == calls {
                        return Step::Done;
                    }
                    next += 1;
                    let req = format!("msg-{}", next - 1);
                    call = Some(PollingCall::new("server", next, req.as_bytes(), policy));
                }
                let c = call.as_mut().unwrap();
                match c.poll(&ep, cx.now()) {
                    CallPoll::Ready(reply) => {
                        assert_eq!(
                            reply,
                            format!("MSG-{}", next - 1).as_bytes(),
                            "reply matches the call"
                        );
                        let mut d = done2.borrow_mut();
                        d.0 += 1;
                        d.1 += c.retransmissions();
                        call = None;
                    }
                    CallPoll::Wait { deadline } => {
                        return Step::WaitMail {
                            deadline: Some(deadline),
                        };
                    }
                    CallPoll::Exhausted => panic!("retry budget exhausted"),
                }
            });
            sched.run();
            let (completed, retx) = *done.borrow();
            assert_eq!(completed, calls);
            (retx, net.transcript())
        };

        assert_eq!(
            blocking.0, scheduled.0,
            "same retransmission count either way"
        );
        assert_eq!(blocking.1, scheduled.1, "byte-identical fault transcript");
        assert!(blocking.0 > 0, "25% drop over 12 calls retransmits");
    }
}
