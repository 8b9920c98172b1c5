//! In-memory network simulation.
//!
//! Two abstractions:
//!
//! * [`Network`] / [`Endpoint`] — datagram-style message passing between
//!   named endpoints, with global byte/message accounting. GT3's
//!   SOAP-based exchanges run over this.
//! * [`StreamPair`] — a pair of connected, blocking byte streams
//!   implementing [`std::io::Read`]/[`std::io::Write`]. GT2's TLS channel
//!   runs over this.
//!
//! The accounting counters feed experiment C1 (bytes on the wire for
//! GT2-TLS vs. GT3-WS-SecureConversation context establishment).
//!
//! One mutex guards everything the datagram path touches (names,
//! routes, mailboxes, fault state, wake log): a send, a
//! [`Network::pump`] and an [`Endpoint::try_recv`] each take it once.
//! Mailboxes are slots in a slab, recycled once their [`Endpoint`] is
//! dropped and the name no longer routes to them.
//!
//! # Deterministic fault injection
//!
//! [`Network::enable_faults`] arms a seed-driven fault layer: every
//! message is subject to per-link latency, drop, duplication, and
//! reorder decisions drawn from one [`DetRng`], in send order, so a
//! given `(seed, profile, send sequence)` always produces the same
//! [`Network::transcript`]. Latencies are measured on the shared
//! [`SimClock`]; delayed messages sit in a pending queue until
//! [`Network::pump`] is called with the clock at or past their delivery
//! time. [`Endpoint::recv_timeout`] drives the clock forward itself
//! (pump → try_recv → advance-to-next-event), which is how client retry
//! loops experience timeouts without wall-clock sleeps.
//! [`Network::partition`] severs a host pair bidirectionally until
//! healed. None of this affects a network whose faults were never
//! enabled: the legacy zero-latency direct-delivery path is unchanged.

use crate::clock::SimClock;
use crate::names::{NameId, NameTable};
use crate::TestbedError;
use gridsec_util::channel::{unbounded, Receiver, Sender, TryRecvError};
use gridsec_util::rng::{DetRng, RngCore};
use gridsec_util::sync::Mutex;
use std::cell::RefCell;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, HashSet, VecDeque};
use std::io::{self, Read, Write};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A network-wide traffic accounting snapshot.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub struct TrafficStats {
    /// Total messages (or stream writes) delivered.
    pub messages: u64,
    /// Total payload bytes delivered.
    pub bytes: u64,
}

impl TrafficStats {
    fn record(&mut self, bytes: usize) {
        self.messages += 1;
        self.bytes += bytes as u64;
    }
}

#[derive(Default)]
struct Counters {
    messages: AtomicU64,
    bytes: AtomicU64,
    write_attempts: AtomicU64,
    torn_writes: AtomicU64,
    resets_seen: AtomicU64,
}

impl Counters {
    fn record(&self, bytes: usize) {
        self.messages.fetch_add(1, Ordering::Relaxed);
        self.bytes.fetch_add(bytes as u64, Ordering::Relaxed);
    }
    fn snapshot(&self) -> TrafficStats {
        TrafficStats {
            messages: self.messages.load(Ordering::Relaxed),
            bytes: self.bytes.load(Ordering::Relaxed),
        }
    }
    fn loss(&self) -> LossStats {
        LossStats {
            write_attempts: self.write_attempts.load(Ordering::Relaxed),
            torn_writes: self.torn_writes.load(Ordering::Relaxed),
            resets_seen: self.resets_seen.load(Ordering::Relaxed),
        }
    }
}

/// Per-pair loss accounting across both directions of a stream,
/// observable while the streams are live (the congestion controller in
/// `gridsec-gridftp` reads this per stripe to weigh its decisions).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub struct LossStats {
    /// Writes attempted on either side, including the ones the loss
    /// layer tore (a perfect pair counts these too, with zero tears).
    pub write_attempts: u64,
    /// Writes the seeded loss layer dropped, tearing the connection.
    pub torn_writes: u64,
    /// `Reset` markers observed by a reader (the peer-visible side of a
    /// torn write; at most one per direction per pair).
    pub resets_seen: u64,
}

impl LossStats {
    /// Observed loss rate in permille of attempted writes.
    pub fn loss_permille(&self) -> u64 {
        (self.torn_writes * 1000)
            .checked_div(self.write_attempts)
            .unwrap_or(0)
    }
}

/// A delivered message.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Message {
    /// Sending endpoint name.
    pub from: String,
    /// Payload bytes.
    pub payload: Vec<u8>,
}

/// Per-link fault knobs. The [`Default`] profile injects nothing, so an
/// armed fault layer with default profile behaves like a perfect
/// network that merely goes through the pending queue.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FaultProfile {
    /// Probability in `[0, 1]` that a message is silently dropped.
    pub drop: f64,
    /// Probability in `[0, 1]` that a message is duplicated.
    pub duplicate: f64,
    /// Upper bound on extra copies when duplication fires (≥ 1 copy).
    pub max_extra_copies: u32,
    /// Minimum per-message latency in SimClock seconds.
    pub min_latency: u64,
    /// Maximum per-message latency in SimClock seconds (inclusive).
    pub max_latency: u64,
    /// Probability in `[0, 1]` that a message gets extra reorder jitter
    /// on top of its drawn latency.
    pub reorder: f64,
    /// Maximum extra seconds of reorder jitter (inclusive).
    pub reorder_jitter: u64,
}

impl Default for FaultProfile {
    fn default() -> Self {
        FaultProfile {
            drop: 0.0,
            duplicate: 0.0,
            max_extra_copies: 1,
            min_latency: 0,
            max_latency: 0,
            reorder: 0.0,
            reorder_jitter: 0,
        }
    }
}

impl FaultProfile {
    /// The acceptance-criteria regime from ISSUE 2: 10% drop, 10%
    /// duplication with up to 2 extra copies, 1–4s latency, and a 25%
    /// chance of up to 3s reorder jitter.
    pub fn lossy_wan() -> Self {
        FaultProfile {
            drop: 0.10,
            duplicate: 0.10,
            max_extra_copies: 2,
            min_latency: 1,
            max_latency: 4,
            reorder: 0.25,
            reorder_jitter: 3,
        }
    }
}

/// Counters for what the fault layer did to traffic.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Messages offered to the fault layer.
    pub sent: u64,
    /// Copies actually delivered to a mailbox.
    pub delivered: u64,
    /// Messages dropped by the loss draw, plus copies whose destination
    /// was unregistered or its handle dropped by delivery time.
    pub dropped: u64,
    /// Extra copies created by the duplication draw.
    pub duplicated: u64,
    /// Messages blocked by an active partition.
    pub blocked: u64,
}

/// One scheduled delivery in the pending queue. Ordered by
/// `(deliver_at, seq)`; `seq` is unique per copy, so the heap order is
/// total and deterministic.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
struct PendingDelivery {
    deliver_at: u64,
    seq: u64,
    from: NameId,
    to: NameId,
    payload: Vec<u8>,
}

struct FaultState {
    clock: SimClock,
    rng: DetRng,
    profile: FaultProfile,
    link_profiles: HashMap<(NameId, NameId), FaultProfile>,
    partitions: HashSet<(NameId, NameId)>,
    pending: BinaryHeap<Reverse<PendingDelivery>>,
    seq: u64,
    transcript: Vec<String>,
    record_transcript: bool,
    stats: FaultStats,
}

impl FaultState {
    fn draw_unit(&mut self) -> f64 {
        (self.rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    fn draw_in(&mut self, lo: u64, hi: u64) -> u64 {
        if hi <= lo {
            return lo;
        }
        lo + self.rng.next_u64() % (hi - lo + 1)
    }

    fn profile_for(&self, from: NameId, to: NameId) -> FaultProfile {
        self.link_profiles
            .get(&(from, to))
            .copied()
            .unwrap_or(self.profile)
    }

    fn partitioned(&self, a: NameId, b: NameId) -> bool {
        self.partitions.contains(&normalize_pair(a, b))
    }

    /// One scheduled arrival time: latency draw plus optional reorder
    /// jitter. Draw order is fixed so transcripts replay exactly.
    fn draw_arrival(&mut self, now: u64, prof: &FaultProfile) -> u64 {
        let latency = self.draw_in(prof.min_latency, prof.max_latency);
        let jitter = if self.draw_unit() < prof.reorder {
            self.draw_in(0, prof.reorder_jitter)
        } else {
            0
        };
        now + latency + jitter
    }

    /// Decide the fate of one sent message and queue its copies. The
    /// caller supplies the endpoint names alongside their ids so
    /// transcript lines (when recording is on) need no table lookup.
    fn inject(&mut self, from: NameId, to: NameId, names: (&str, &str), payload: Vec<u8>) {
        self.stats.sent += 1;
        let now = self.clock.now();
        let id = self.stats.sent;
        let len = payload.len();
        let (from_name, to_name) = names;
        let prof = self.profile_for(from, to);

        if self.partitioned(from, to) {
            self.stats.blocked += 1;
            if self.record_transcript {
                self.transcript.push(format!(
                    "[t={now}] #{id} {from_name}->{to_name} {len}B partitioned"
                ));
            }
            return;
        }
        if self.draw_unit() < prof.drop {
            self.stats.dropped += 1;
            if self.record_transcript {
                self.transcript.push(format!(
                    "[t={now}] #{id} {from_name}->{to_name} {len}B drop"
                ));
            }
            return;
        }
        let mut arrivals = vec![self.draw_arrival(now, &prof)];
        if self.draw_unit() < prof.duplicate {
            let extra = self.draw_in(1, u64::from(prof.max_extra_copies.max(1))) as u32;
            self.stats.duplicated += u64::from(extra);
            for _ in 0..extra {
                let t = self.draw_arrival(now, &prof);
                arrivals.push(t);
            }
        }
        if self.record_transcript {
            let times: Vec<String> = arrivals.iter().map(|t| format!("@{t}")).collect();
            self.transcript.push(format!(
                "[t={now}] #{id} {from_name}->{to_name} {len}B deliver{}",
                times.join(",")
            ));
        }
        // Every copy but the last gets a clone; the last takes the payload.
        let (&last, extra) = arrivals.split_last().expect("one arrival at least");
        for &deliver_at in extra {
            self.queue(deliver_at, from, to, payload.clone());
        }
        self.queue(last, from, to, payload);
    }

    fn queue(&mut self, deliver_at: u64, from: NameId, to: NameId, payload: Vec<u8>) {
        self.seq += 1;
        self.pending.push(Reverse(PendingDelivery {
            deliver_at,
            seq: self.seq,
            from,
            to,
            payload,
        }));
    }
}

fn normalize_pair(a: NameId, b: NameId) -> (NameId, NameId) {
    if a <= b {
        (a, b)
    } else {
        (b, a)
    }
}

/// A named message network.
#[derive(Clone, Default)]
pub struct Network {
    inner: Arc<Mutex<NetState>>,
}

/// Everything the datagram path touches, under the network's one lock.
#[derive(Default)]
struct NetState {
    names: NameTable,
    mail: Mailboxes,
    faults: Option<FaultState>,
}

/// Where an interned name delivers.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
enum Route {
    /// Not registered (never, or unregistered since).
    #[default]
    Unrouted,
    /// Delivers into this mailbox slot.
    Slot(usize),
    /// Registered, but its handle was dropped: mail evaporates.
    Closed,
}

/// Routes, the mailbox slab, traffic accounting and the wake log.
#[derive(Default)]
struct Mailboxes {
    /// Indexed by [`NameId`]; names interned but never registered are
    /// past the end or [`Route::Unrouted`].
    routes: Vec<Route>,
    slots: Vec<VecDeque<Message>>,
    /// Slots whose handles were dropped, ready for reuse (LIFO).
    free: Vec<usize>,
    traffic: TrafficStats,
    /// Delivery notifications for the discrete-event scheduler
    /// ([`crate::sched`]): every successful delivery appends the
    /// recipient, in delivery order, so the scheduler wakes the task
    /// waiting on that mailbox without polling every endpoint. `None`
    /// until a scheduler enables it, so other networks accumulate nothing.
    wakes: Option<Vec<NameId>>,
}

impl Mailboxes {
    fn route(&self, id: NameId) -> Route {
        self.routes.get(id.index()).copied().unwrap_or_default()
    }

    fn set_route(&mut self, id: NameId, route: Route) {
        if id.index() >= self.routes.len() {
            self.routes.resize(id.index() + 1, Route::Unrouted);
        }
        self.routes[id.index()] = route;
    }

    /// Route `id` to a fresh mailbox slot. A handle the name routed to
    /// before keeps its slot (and its mail) until it is dropped.
    fn open(&mut self, id: NameId) -> usize {
        let slot = self.free.pop().unwrap_or_else(|| {
            self.slots.push(VecDeque::new());
            self.slots.len() - 1
        });
        self.set_route(id, Route::Slot(slot));
        slot
    }

    /// The handle owning `slot` was dropped: its unread mail goes, and
    /// a name still routed to it stays registered but delivers nowhere.
    fn close(&mut self, id: NameId, slot: usize) {
        if self.route(id) == Route::Slot(slot) {
            self.set_route(id, Route::Closed);
        }
        self.slots[slot].clear();
        self.free.push(slot);
    }

    fn deliver(&mut self, slot: usize, to: NameId, msg: Message) {
        self.slots[slot].push_back(msg);
        self.wake(to);
    }

    fn wake(&mut self, to: NameId) {
        if let Some(log) = &mut self.wakes {
            log.push(to);
        }
    }
}

impl NetState {
    /// Deliver every pending copy whose scheduled time is at or before
    /// the fault clock's now, in `(deliver_at, seq)` order.
    fn pump(&mut self) -> usize {
        let Some(fs) = self.faults.as_mut() else {
            return 0;
        };
        let now = fs.clock.now();
        let mut delivered = 0;
        while fs.pending.peek().is_some_and(|e| e.0.deliver_at <= now) {
            let Reverse(e) = fs.pending.pop().expect("peeked");
            let route = self.mail.route(e.to);
            if route != Route::Unrouted {
                self.mail.traffic.record(e.payload.len());
            }
            let Route::Slot(slot) = route else {
                // Destination vanished between send and delivery: the
                // copy evaporates, like packets to a dead host.
                fs.stats.dropped += 1;
                continue;
            };
            let from = self.names.resolve(e.from).to_string();
            let msg = Message {
                from,
                payload: e.payload,
            };
            self.mail.deliver(slot, e.to, msg);
            fs.stats.delivered += 1;
            delivered += 1;
        }
        delivered
    }
}

impl Network {
    /// Create an empty network.
    pub fn new() -> Self {
        Network::default()
    }

    /// Intern `name` in the network's name table, returning its dense
    /// [`NameId`]. Idempotent; the id is valid for the network's
    /// lifetime.
    pub fn intern(&self, name: &str) -> NameId {
        self.inner.lock().names.intern(name)
    }

    /// Look up an already-interned name without interning it.
    pub fn lookup(&self, name: &str) -> Option<NameId> {
        self.inner.lock().names.get(name)
    }

    /// Resolve an interned id back to its name (owned, since the table
    /// lives behind a lock).
    pub fn resolve(&self, id: NameId) -> String {
        self.inner.lock().names.resolve(id).to_string()
    }

    /// Register an endpoint name, returning its handle. Re-registering a
    /// name replaces the previous endpoint: the old handle keeps any mail
    /// already in its mailbox but receives nothing further (it reports
    /// `Disconnected` once drained). Use [`Network::try_register`] to
    /// refuse instead of replace.
    pub fn register(&self, name: &str) -> Endpoint {
        let mut st = self.inner.lock();
        let id = st.names.intern(name);
        let slot = st.mail.open(id);
        drop(st);
        self.endpoint(name, id, slot)
    }

    /// Register an endpoint name, erroring with
    /// [`TestbedError::EndpointInUse`] if the name is already taken
    /// (instead of silently replacing it as [`Network::register`] does).
    pub fn try_register(&self, name: &str) -> Result<Endpoint, TestbedError> {
        let mut st = self.inner.lock();
        let id = st.names.intern(name);
        if st.mail.route(id) != Route::Unrouted {
            return Err(TestbedError::EndpointInUse(name.to_string()));
        }
        let slot = st.mail.open(id);
        drop(st);
        Ok(self.endpoint(name, id, slot))
    }

    fn endpoint(&self, name: &str, id: NameId, slot: usize) -> Endpoint {
        Endpoint {
            name: name.to_string(),
            id,
            slot,
            network: self.clone(),
        }
    }

    /// Remove an endpoint (its handle reports `Disconnected` once
    /// drained).
    pub fn unregister(&self, name: &str) {
        let mut st = self.inner.lock();
        if let Some(id) = st.names.get(name) {
            st.mail.set_route(id, Route::Unrouted);
        }
    }

    /// `true` iff an endpoint with this name is registered.
    pub fn is_registered(&self, name: &str) -> bool {
        let st = self.inner.lock();
        st.names
            .get(name)
            .is_some_and(|id| st.mail.route(id) != Route::Unrouted)
    }

    /// Arm the deterministic fault layer. All subsequent sends draw
    /// their fate (drop/duplicate/latency/reorder) from a [`DetRng`]
    /// seeded with `seed`; latencies are scheduled on `clock` and
    /// delivered by [`Network::pump`]. Calling this again resets the
    /// fault state (fresh RNG, empty queue, empty transcript).
    pub fn enable_faults(&self, clock: SimClock, seed: u64, profile: FaultProfile) {
        self.inner.lock().faults = Some(FaultState {
            clock,
            rng: DetRng::seed_from_u64(seed),
            profile,
            link_profiles: HashMap::new(),
            partitions: HashSet::new(),
            pending: BinaryHeap::new(),
            seq: 0,
            transcript: Vec::new(),
            record_transcript: true,
            stats: FaultStats::default(),
        });
    }

    /// Turn fault-transcript recording on or off. Storm-scale runs
    /// (hundreds of thousands of endpoints, millions of sends) disable
    /// it: one formatted line per send would dominate memory, and those
    /// runs assert determinism on the metrics snapshot instead. Fault
    /// *decisions* (RNG draws, stats) are unaffected, so a run is
    /// byte-identical per seed whether or not the transcript is kept.
    pub fn set_transcript_recording(&self, on: bool) {
        if let Some(fs) = self.inner.lock().faults.as_mut() {
            fs.record_transcript = on;
        }
    }

    /// Start recording delivery notifications for the scheduler.
    pub(crate) fn enable_wake_log(&self) {
        self.inner.lock().mail.wakes.get_or_insert_with(Vec::new);
    }

    /// Deliver every due copy, then hand the delivery notification log
    /// (interned ids that received mail since the last call, in
    /// delivery order) to the scheduler by swapping it with `buf`, all
    /// under one acquisition of the lock. `buf` comes back cleared into
    /// the log, so the two buffers are reused call after call.
    pub(crate) fn pump_wakes(&self, buf: &mut Vec<NameId>) {
        let mut st = self.inner.lock();
        st.pump();
        buf.clear();
        if let Some(log) = &mut st.mail.wakes {
            std::mem::swap(log, buf);
        }
    }

    /// Append a synthetic delivery notification for `id`, exactly as if
    /// a message had just been delivered to that mailbox. This is how
    /// non-datagram wake sources (e.g. a [`SimStream`] becoming
    /// readable, see [`SimStream::wake_on_readable`]) reach a scheduler
    /// task parked in `WaitMail`.
    pub fn notify_wake(&self, id: NameId) {
        self.inner.lock().mail.wake(id);
    }

    /// `true` iff [`Network::enable_faults`] has armed the fault layer.
    pub fn faults_enabled(&self) -> bool {
        self.inner.lock().faults.is_some()
    }

    /// The clock the fault layer schedules on, if armed.
    pub fn fault_clock(&self) -> Option<SimClock> {
        self.inner.lock().faults.as_ref().map(|f| f.clock.clone())
    }

    /// Override the fault profile for one directed link `from -> to`.
    pub fn set_link_profile(&self, from: &str, to: &str, profile: FaultProfile) {
        let mut st = self.inner.lock();
        let key = (st.names.intern(from), st.names.intern(to));
        if let Some(fs) = st.faults.as_mut() {
            fs.link_profiles.insert(key, profile);
        }
    }

    /// Sever the pair `(a, b)` in both directions. Messages sent across
    /// an active partition are blocked (counted in
    /// [`FaultStats::blocked`]); copies already in flight still arrive.
    pub fn partition(&self, a: &str, b: &str) {
        let mut st = self.inner.lock();
        let key = normalize_pair(st.names.intern(a), st.names.intern(b));
        if let Some(fs) = st.faults.as_mut() {
            fs.partitions.insert(key);
        }
    }

    /// Heal the partition between `a` and `b`, if any.
    pub fn heal(&self, a: &str, b: &str) {
        let mut st = self.inner.lock();
        let key = normalize_pair(st.names.intern(a), st.names.intern(b));
        if let Some(fs) = st.faults.as_mut() {
            fs.partitions.remove(&key);
        }
    }

    /// Heal all partitions.
    pub fn heal_all(&self) {
        if let Some(fs) = self.inner.lock().faults.as_mut() {
            fs.partitions.clear();
        }
    }

    /// Deliver every pending copy whose scheduled time is at or before
    /// the fault clock's now. Returns the number of copies delivered.
    /// A no-op (returning 0) when faults are not armed.
    pub fn pump(&self) -> usize {
        self.inner.lock().pump()
    }

    /// Scheduled time of the earliest pending delivery, if any.
    pub fn next_event_at(&self) -> Option<u64> {
        self.inner
            .lock()
            .faults
            .as_ref()
            .and_then(|fs| fs.pending.peek().map(|Reverse(e)| e.deliver_at))
    }

    /// The fault event transcript so far: one line per send decision,
    /// in send order. Byte-identical across runs with the same seed,
    /// profile, and send sequence — the chaos suite's replay check.
    pub fn transcript(&self) -> Vec<String> {
        self.inner
            .lock()
            .faults
            .as_ref()
            .map(|fs| fs.transcript.clone())
            .unwrap_or_default()
    }

    /// Fault-layer counters, if armed.
    pub fn fault_stats(&self) -> Option<FaultStats> {
        self.inner.lock().faults.as_ref().map(|fs| fs.stats)
    }

    fn send(
        &self,
        from: NameId,
        from_name: &str,
        to: &str,
        payload: Vec<u8>,
    ) -> Result<(), TestbedError> {
        let mut guard = self.inner.lock();
        let st = &mut *guard;
        let (to_id, route) = match st.names.get(to).map(|id| (id, st.mail.route(id))) {
            Some((id, route)) if route != Route::Unrouted => (id, route),
            _ => return Err(TestbedError::NoSuchEndpoint(to.to_string())),
        };
        if let Some(fs) = st.faults.as_mut() {
            fs.inject(from, to_id, (from_name, to), payload);
            // Zero-latency copies may already be due.
            st.pump();
            return Ok(());
        }
        st.mail.traffic.record(payload.len());
        let Route::Slot(slot) = route else {
            return Err(TestbedError::Disconnected);
        };
        let msg = Message {
            from: from_name.to_string(),
            payload,
        };
        st.mail.deliver(slot, to_id, msg);
        Ok(())
    }

    /// Traffic accounting since creation.
    pub fn stats(&self) -> TrafficStats {
        self.inner.lock().mail.traffic
    }
}

/// A registered endpoint: can send to any name and receive its own mail.
/// Dropping it frees its mailbox; a name still routed to it stays
/// registered, but mail sent there evaporates.
pub struct Endpoint {
    name: String,
    id: NameId,
    slot: usize,
    network: Network,
}

impl Endpoint {
    /// This endpoint's registered name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// This endpoint's interned id in the network's name table.
    pub fn id(&self) -> NameId {
        self.id
    }

    /// The network this endpoint is registered on.
    pub fn network(&self) -> &Network {
        &self.network
    }

    /// Send `payload` to endpoint `to`.
    pub fn send(&self, to: &str, payload: Vec<u8>) -> Result<(), TestbedError> {
        self.network.send(self.id, &self.name, to, payload)
    }

    /// Take the next queued message. Never parks the thread — on a
    /// single-threaded scenario nothing could ever wake it: an empty
    /// mailbox is [`TestbedError::Timeout`] while the name still routes
    /// to this handle (exactly [`Endpoint::recv_timeout`] without
    /// faults) and [`TestbedError::Disconnected`] once the handle was
    /// replaced or unregistered.
    pub fn recv(&self) -> Result<Message, TestbedError> {
        let mut st = self.network.inner.lock();
        if let Some(m) = st.mail.slots[self.slot].pop_front() {
            return Ok(m);
        }
        if st.mail.route(self.id) == Route::Slot(self.slot) {
            Err(TestbedError::Timeout)
        } else {
            Err(TestbedError::Disconnected)
        }
    }

    /// Non-blocking receive.
    pub fn try_recv(&self) -> Option<Message> {
        self.network.inner.lock().mail.slots[self.slot].pop_front()
    }

    /// Receive with a timeout of `timeout` SimClock seconds.
    ///
    /// With the fault layer armed this is the single-threaded event
    /// loop: pump due deliveries, poll the mailbox, then advance the
    /// shared clock to the earlier of the next scheduled delivery and
    /// the deadline; at the deadline it returns
    /// [`TestbedError::Timeout`]. Without faults there is no simulated
    /// latency — anything sent is already in the mailbox — so this
    /// returns immediately (mail or `Timeout`).
    pub fn recv_timeout(&self, timeout: u64) -> Result<Message, TestbedError> {
        let clock = match self.network.fault_clock() {
            Some(c) => c,
            None => return self.try_recv().ok_or(TestbedError::Timeout),
        };
        let deadline = clock.now().saturating_add(timeout);
        loop {
            self.network.pump();
            if let Some(m) = self.try_recv() {
                return Ok(m);
            }
            let now = clock.now();
            if now >= deadline {
                return Err(TestbedError::Timeout);
            }
            let next = self
                .network
                .next_event_at()
                .map(|t| t.clamp(now + 1, deadline))
                .unwrap_or(deadline);
            clock.set(next);
        }
    }

    /// Send a request and take the reply already queued when the send
    /// returns, per [`Endpoint::recv`] (the simple RPC idiom for
    /// scenarios whose callee answers synchronously).
    pub fn call(&self, to: &str, payload: Vec<u8>) -> Result<Message, TestbedError> {
        self.send(to, payload)?;
        self.recv()
    }
}

impl Drop for Endpoint {
    fn drop(&mut self) {
        self.network.inner.lock().mail.close(self.id, self.slot);
    }
}

/// A chunk on one direction of a stream: payload bytes, or a simulated
/// connection reset injected by the loss layer.
enum Chunk {
    Data(Vec<u8>),
    Reset,
}

/// Seeded write-side loss for one stream direction.
struct StreamFault {
    rng: DetRng,
    drop: f64,
}

/// A readable-side wake registration, shared by both halves of one
/// stream direction: the reader installs `(network, mailbox id)` via
/// [`SimStream::wake_on_readable`]; the writer notifies it after every
/// chunk (and on drop) so a scheduler task parked in `WaitMail` wakes
/// when bytes — or EOF — become observable.
type WakeSlot = Arc<Mutex<Option<(Network, NameId)>>>;

/// One direction of a byte stream.
struct StreamHalf {
    tx: Sender<Chunk>,
    rx: Receiver<Chunk>,
    read_buf: Vec<u8>,
    read_pos: usize,
    counters: Arc<Counters>,
    fault: Option<StreamFault>,
    dead: bool,
    /// Wake slot for *this* half's read direction (we are the reader).
    read_wake: WakeSlot,
    /// Wake slot for the peer's read direction (we are the writer).
    write_wake: WakeSlot,
}

/// A connected, blocking, in-memory byte stream (one side of a pair).
///
/// Two read disciplines coexist:
///
/// * **Blocking** ([`Read::read`]) — parks on the channel until the
///   peer writes, as a real socket would. If a *stream pump* is
///   installed on the current thread ([`with_stream_pump`]), an empty
///   channel instead drives the pump (typically
///   [`Scheduler::pump`](crate::sched::Scheduler::pump)) until data
///   appears or the pump reports quiescence — which is how blocking
///   client code talks to a peer that is a scheduler task on the *same*
///   thread without deadlocking.
/// * **Non-blocking** ([`SimStream::try_read`]) — for scheduler tasks
///   themselves, which must never park; they return
///   [`Step::WaitMail`](crate::sched::Step::WaitMail) and rely on
///   [`SimStream::wake_on_readable`] notifications instead.
pub struct SimStream {
    half: StreamHalf,
}

std::thread_local! {
    /// Stack of installed stream pumps for this thread (innermost last).
    static STREAM_PUMPS: RefCell<Vec<Box<dyn FnMut() -> usize>>> = RefCell::new(Vec::new());
}

/// Install `pump` as the stream pump for the current thread while `f`
/// runs. A blocking [`SimStream`] read that finds its channel empty
/// calls the pump in a loop instead of parking; the pump returns the
/// number of task steps it executed, and a return of `0` with still no
/// data means the simulated world is quiescent — the read then fails
/// with `ConnectionReset` ("stalled") rather than deadlocking the
/// thread. Nests: the innermost pump wins.
pub fn with_stream_pump<R>(pump: impl FnMut() -> usize + 'static, f: impl FnOnce() -> R) -> R {
    STREAM_PUMPS.with(|s| s.borrow_mut().push(Box::new(pump)));
    struct PopGuard;
    impl Drop for PopGuard {
        fn drop(&mut self) {
            STREAM_PUMPS.with(|s| {
                s.borrow_mut().pop();
            });
        }
    }
    let _guard = PopGuard;
    f()
}

/// Run the innermost installed pump once, returning `Some(steps)` or
/// `None` if no pump is installed. The pump is removed from the stack
/// while it runs, so stream reads *inside* pumped tasks fall back to
/// channel blocking (tasks must use [`SimStream::try_read`] anyway).
fn run_stream_pump() -> Option<usize> {
    let mut pump = STREAM_PUMPS.with(|s| s.borrow_mut().pop())?;
    let steps = pump();
    STREAM_PUMPS.with(|s| s.borrow_mut().push(pump));
    Some(steps)
}

/// Create a connected stream pair with shared byte accounting.
pub struct StreamPair;

impl StreamPair {
    /// Create two connected [`SimStream`]s. Bytes written to one can be
    /// read from the other. The returned [`Arc`]d stats reflect all bytes
    /// written on either side.
    #[allow(clippy::new_ret_no_self)]
    pub fn new() -> (SimStream, SimStream, StreamStats) {
        StreamPair::build(None)
    }

    /// Like [`StreamPair::new`], but each write has probability
    /// `drop_rate` of being lost. A TCP stream cannot paper over a lost
    /// segment here (there is no transport-level retransmission in the
    /// sim), so a loss tears the connection down: the writer sees
    /// `ConnectionReset` and the reader sees `ConnectionReset` once it
    /// reaches the tear point. Deterministic per `seed` (each direction
    /// gets an independent stream derived from it). Retry-capable
    /// callers dial a fresh pair per attempt.
    pub fn lossy(seed: u64, drop_rate: f64) -> (SimStream, SimStream, StreamStats) {
        StreamPair::build(Some((seed, drop_rate)))
    }

    fn build(fault: Option<(u64, f64)>) -> (SimStream, SimStream, StreamStats) {
        let (a2b_tx, a2b_rx) = unbounded();
        let (b2a_tx, b2a_rx) = unbounded();
        let counters = Arc::new(Counters::default());
        // One wake slot per direction, shared by its writer and reader.
        let a_reads: WakeSlot = Arc::new(Mutex::new(None));
        let b_reads: WakeSlot = Arc::new(Mutex::new(None));
        let mk_fault = |dir: u64| {
            fault.map(|(seed, drop)| StreamFault {
                rng: DetRng::seed_from_u64(seed ^ dir),
                drop,
            })
        };
        let a = SimStream {
            half: StreamHalf {
                tx: a2b_tx,
                rx: b2a_rx,
                read_buf: Vec::new(),
                read_pos: 0,
                counters: counters.clone(),
                fault: mk_fault(0x05ee_da2b_u64),
                dead: false,
                read_wake: a_reads.clone(),
                write_wake: b_reads.clone(),
            },
        };
        let b = SimStream {
            half: StreamHalf {
                tx: b2a_tx,
                rx: a2b_rx,
                read_buf: Vec::new(),
                read_pos: 0,
                counters: counters.clone(),
                fault: mk_fault(0x05ee_db2a_u64),
                dead: false,
                read_wake: b_reads,
                write_wake: a_reads,
            },
        };
        (a, b, StreamStats { counters })
    }
}

/// Shared traffic statistics for a stream pair.
#[derive(Clone)]
pub struct StreamStats {
    counters: Arc<Counters>,
}

impl StreamStats {
    /// Snapshot of writes/bytes across both directions.
    pub fn snapshot(&self) -> TrafficStats {
        self.counters.snapshot()
    }

    /// Snapshot of loss accounting across both directions: attempted
    /// writes, seeded tears, and observed resets.
    pub fn loss(&self) -> LossStats {
        self.counters.loss()
    }
}

fn reset_err() -> io::Error {
    io::Error::new(
        io::ErrorKind::ConnectionReset,
        "connection torn by simulated loss",
    )
}

impl SimStream {
    /// Register a wake target for this stream's read direction: every
    /// chunk the peer writes (and the peer's eventual drop) appends a
    /// delivery notification for `mailbox` to `net`'s wake log, exactly
    /// like datagram mail. A scheduler task owning this stream parks
    /// with [`Step::WaitMail`](crate::sched::Step::WaitMail) and is
    /// woken when bytes are observable via [`SimStream::try_read`].
    pub fn wake_on_readable(&self, net: &Network, mailbox: &str) {
        let id = net.intern(mailbox);
        *self.half.read_wake.lock() = Some((net.clone(), id));
    }

    fn notify_peer(&self) {
        if let Some((net, id)) = self.half.write_wake.lock().as_ref() {
            net.notify_wake(*id);
        }
    }

    /// Pull one buffered chunk into the read buffer. `Ok(true)` means
    /// bytes are now available; `Ok(false)` means EOF (peer dropped).
    fn accept_chunk(&mut self, chunk: Result<Chunk, TryRecvError>) -> io::Result<bool> {
        match chunk {
            Ok(Chunk::Data(data)) => {
                self.half.read_buf = data;
                self.half.read_pos = 0;
                Ok(true)
            }
            Ok(Chunk::Reset) => {
                self.half.dead = true;
                self.half
                    .counters
                    .resets_seen
                    .fetch_add(1, Ordering::Relaxed);
                Err(reset_err())
            }
            Err(_) => Ok(false), // EOF: peer dropped
        }
    }

    fn copy_out(&mut self, buf: &mut [u8]) -> usize {
        let available = &self.half.read_buf[self.half.read_pos..];
        let n = available.len().min(buf.len());
        buf[..n].copy_from_slice(&available[..n]);
        self.half.read_pos += n;
        n
    }

    /// Non-blocking read for scheduler tasks. Returns:
    ///
    /// * `Ok(Some(n))` with `n > 0` — bytes copied out.
    /// * `Ok(Some(0))` — EOF: the peer dropped its stream.
    /// * `Ok(None)` — no data *yet*; park in `WaitMail` (with
    ///   [`SimStream::wake_on_readable`] registered) and try again.
    /// * `Err` — the connection was torn by the seeded loss layer.
    pub fn try_read(&mut self, buf: &mut [u8]) -> io::Result<Option<usize>> {
        if self.half.dead {
            return Err(reset_err());
        }
        if self.half.read_pos == self.half.read_buf.len() {
            match self.half.rx.try_recv() {
                Err(TryRecvError::Empty) => return Ok(None),
                other => {
                    if !self.accept_chunk(other)? {
                        return Ok(Some(0));
                    }
                }
            }
        }
        Ok(Some(self.copy_out(buf)))
    }
}

impl Drop for SimStream {
    fn drop(&mut self) {
        // The peer's next read sees EOF; wake it so a parked scheduler
        // task observes the close instead of waiting forever.
        self.notify_peer();
    }
}

impl Read for SimStream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        if self.half.dead {
            return Err(reset_err());
        }
        if self.half.read_pos == self.half.read_buf.len() {
            loop {
                match self.half.rx.try_recv() {
                    Err(TryRecvError::Empty) => match run_stream_pump() {
                        // Pump made progress: the peer task may have
                        // written; poll the channel again.
                        Some(steps) if steps > 0 => continue,
                        // Pump quiescent and still nothing: the peer
                        // will never write. Fail instead of parking a
                        // thread that is also the peer's executor.
                        Some(_) => {
                            return Err(io::Error::new(
                                io::ErrorKind::ConnectionReset,
                                "stream stalled: scheduler quiescent with no data",
                            ))
                        }
                        // No pump installed: true blocking semantics.
                        None => match self.half.rx.recv() {
                            Ok(chunk) => {
                                if !self.accept_chunk(Ok(chunk))? {
                                    return Ok(0);
                                }
                                break;
                            }
                            Err(_) => return Ok(0), // EOF: peer dropped
                        },
                    },
                    other => {
                        if !self.accept_chunk(other)? {
                            return Ok(0);
                        }
                        break;
                    }
                }
            }
        }
        Ok(self.copy_out(buf))
    }
}

impl Write for SimStream {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        if self.half.dead {
            return Err(reset_err());
        }
        self.half
            .counters
            .write_attempts
            .fetch_add(1, Ordering::Relaxed);
        if let Some(f) = &mut self.half.fault {
            let draw = (f.rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
            if draw < f.drop {
                self.half.dead = true;
                self.half
                    .counters
                    .torn_writes
                    .fetch_add(1, Ordering::Relaxed);
                let _ = self.half.tx.send(Chunk::Reset);
                self.notify_peer();
                return Err(io::Error::new(
                    io::ErrorKind::ConnectionReset,
                    "write lost; connection torn",
                ));
            }
        }
        self.half.counters.record(buf.len());
        self.half
            .tx
            .send(Chunk::Data(buf.to_vec()))
            .map_err(|_| io::Error::new(io::ErrorKind::BrokenPipe, "peer disconnected"))?;
        self.notify_peer();
        Ok(buf.len())
    }
    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};

    #[test]
    fn message_delivery() {
        let net = Network::new();
        let a = net.register("alice");
        let _b = net.register("bob");
        a.send("bob", b"hi".to_vec()).unwrap();
        let b = net.register("bob"); // re-register drops old mailbox
        a.send("bob", b"hi again".to_vec()).unwrap();
        let m = b.recv().unwrap();
        assert_eq!(m.from, "alice");
        assert_eq!(m.payload, b"hi again");
    }

    #[test]
    fn reregister_keeps_old_mail_but_disconnects_handle() {
        // The documented replace semantics: the old handle drains what it
        // already had, then reports Disconnected; new mail goes to the
        // replacement only.
        let net = Network::new();
        let a = net.register("alice");
        let old = net.register("bob");
        a.send("bob", b"before".to_vec()).unwrap();
        let new = net.register("bob");
        a.send("bob", b"after".to_vec()).unwrap();
        assert_eq!(old.recv().unwrap().payload, b"before");
        assert_eq!(old.recv(), Err(TestbedError::Disconnected));
        assert_eq!(new.recv().unwrap().payload, b"after");
        assert!(new.try_recv().is_none());
    }

    #[test]
    fn try_register_refuses_duplicates() {
        let net = Network::new();
        let a = net.try_register("alice").unwrap();
        assert_eq!(
            net.try_register("alice").err(),
            Some(TestbedError::EndpointInUse("alice".into()))
        );
        // The original endpoint is untouched by the failed attempt.
        let b = net.register("bob");
        b.send("alice", b"still here".to_vec()).unwrap();
        assert_eq!(a.recv().unwrap().payload, b"still here");
        // After unregister the name is free again.
        net.unregister("alice");
        assert!(net.try_register("alice").is_ok());
    }

    #[test]
    fn unknown_endpoint_errors() {
        let net = Network::new();
        let a = net.register("alice");
        assert!(matches!(
            a.send("nobody", vec![]),
            Err(TestbedError::NoSuchEndpoint(_))
        ));
    }

    #[test]
    fn unregister_disconnects() {
        let net = Network::new();
        let a = net.register("alice");
        net.register("bob");
        net.unregister("bob");
        assert!(!net.is_registered("bob"));
        assert!(a.send("bob", vec![]).is_err());
    }

    #[test]
    fn traffic_accounting() {
        let net = Network::new();
        let a = net.register("alice");
        let b = net.register("bob");
        a.send("bob", vec![0u8; 100]).unwrap();
        a.send("bob", vec![0u8; 50]).unwrap();
        let _ = b.try_recv();
        assert_eq!(
            net.stats(),
            TrafficStats {
                messages: 2,
                bytes: 150
            }
        );
    }

    #[test]
    fn try_recv_nonblocking() {
        let net = Network::new();
        let a = net.register("alice");
        assert!(a.try_recv().is_none());
        let b = net.register("bob");
        a.send("bob", b"x".to_vec()).unwrap();
        assert!(b.try_recv().is_some());
        assert!(b.try_recv().is_none());
    }

    #[test]
    fn recv_on_an_empty_mailbox_never_parks_the_thread() {
        let net = Network::new();
        let a = net.register("alice");
        let b = net.register("bob");
        // Nothing else runs on this thread, so nothing could ever wake a
        // parked receiver: an empty, still-routed mailbox is a timeout.
        assert_eq!(b.recv(), Err(TestbedError::Timeout));
        assert_eq!(a.call("bob", b"q".to_vec()), Err(TestbedError::Timeout));
        a.send("bob", b"last".to_vec()).unwrap();
        // Replaced: the old handle drains, then reads Disconnected.
        let b2 = net.register("bob");
        assert_eq!(b.recv().unwrap().payload, b"q");
        assert_eq!(b.recv().unwrap().payload, b"last");
        assert_eq!(b.recv(), Err(TestbedError::Disconnected));
        assert_eq!(b2.recv(), Err(TestbedError::Timeout));
        net.unregister("bob");
        assert_eq!(b2.recv(), Err(TestbedError::Disconnected));

        // Same verdicts with the fault layer armed.
        let net = Network::new();
        net.enable_faults(SimClock::new(), 1, FaultProfile::default());
        let c = net.register("carol");
        assert_eq!(c.recv(), Err(TestbedError::Timeout));
    }

    #[test]
    fn mail_to_a_dropped_endpoint_evaporates() {
        let net = Network::new();
        let a = net.register("alice");
        drop(net.register("bob"));
        assert!(net.is_registered("bob"), "the name still routes");
        assert_eq!(
            a.send("bob", b"x".to_vec()),
            Err(TestbedError::Disconnected)
        );
        // The freed mailbox is reused by the next registration, empty.
        let c = net.register("carol");
        assert!(c.try_recv().is_none());

        let net = Network::new();
        net.enable_faults(SimClock::new(), 1, FaultProfile::default());
        let a = net.register("alice");
        drop(net.register("bob"));
        a.send("bob", b"x".to_vec()).unwrap();
        assert_eq!(net.fault_stats().unwrap().dropped, 1);
        assert_eq!(net.fault_stats().unwrap().delivered, 0);
    }

    #[test]
    fn fault_layer_latency_and_pump() {
        let net = Network::new();
        let clock = SimClock::new();
        net.enable_faults(
            clock.clone(),
            1,
            FaultProfile {
                min_latency: 3,
                max_latency: 3,
                ..FaultProfile::default()
            },
        );
        let a = net.register("alice");
        let b = net.register("bob");
        a.send("bob", b"delayed".to_vec()).unwrap();
        assert!(b.try_recv().is_none(), "latency holds the message");
        assert_eq!(net.next_event_at(), Some(3));
        clock.set(3);
        assert_eq!(net.pump(), 1);
        assert_eq!(b.recv().unwrap().payload, b"delayed");
    }

    #[test]
    fn recv_timeout_advances_clock_to_delivery() {
        let net = Network::new();
        let clock = SimClock::new();
        net.enable_faults(
            clock.clone(),
            1,
            FaultProfile {
                min_latency: 2,
                max_latency: 2,
                ..FaultProfile::default()
            },
        );
        let a = net.register("alice");
        let b = net.register("bob");
        a.send("bob", b"m".to_vec()).unwrap();
        let m = b.recv_timeout(10).unwrap();
        assert_eq!(m.payload, b"m");
        assert_eq!(clock.now(), 2, "clock advanced exactly to delivery");
        // Nothing further: timeout fires and the clock lands on the deadline.
        assert_eq!(b.recv_timeout(5), Err(TestbedError::Timeout));
        assert_eq!(clock.now(), 7);
    }

    /// Receive outcome plus the clock value observed at return.
    type RecvOutcome = (Result<Vec<u8>, TestbedError>, u64);

    /// Run one receive under the legacy direct path (`recv_timeout`)
    /// and the identical scenario as a scheduler task, returning
    /// `(outcome payload, clock at return)` for each. The scheduler
    /// must be behaviorally indistinguishable from the loop it
    /// generalizes.
    fn legacy_vs_scheduled(
        profile: FaultProfile,
        send: bool,
        timeout: u64,
        pre_advance: u64,
    ) -> (RecvOutcome, RecvOutcome) {
        use crate::sched::{Scheduler, Step, TaskCx};
        use std::cell::RefCell;
        use std::rc::Rc;

        let run_legacy = || {
            let net = Network::new();
            let clock = SimClock::new();
            net.enable_faults(clock.clone(), 11, profile);
            let a = net.register("alice");
            let b = net.register("bob");
            if send {
                a.send("bob", b"m".to_vec()).unwrap();
            }
            clock.advance(pre_advance);
            let deadline = clock.now().saturating_add(timeout);
            let r = match b.recv_timeout(timeout.saturating_sub(pre_advance.min(timeout))) {
                Ok(m) => Ok(m.payload),
                Err(e) => Err(e),
            };
            // recv_timeout takes a relative window; the scenario fixes
            // the absolute deadline so both paths race the same instant.
            let _ = deadline;
            (r, clock.now())
        };
        let run_scheduled = || {
            let net = Network::new();
            let clock = SimClock::new();
            net.enable_faults(clock.clone(), 11, profile);
            let a = net.register("alice");
            let b = net.register("bob");
            if send {
                a.send("bob", b"m".to_vec()).unwrap();
            }
            clock.advance(pre_advance);
            let deadline = clock
                .now()
                .saturating_add(timeout.saturating_sub(pre_advance));
            let mut sched = Scheduler::new(&net);
            type Slot = Rc<RefCell<Option<Result<Vec<u8>, TestbedError>>>>;
            let out: Slot = Rc::new(RefCell::new(None));
            let out2 = out.clone();
            sched.spawn_mailbox("bob", move |cx: &TaskCx| {
                if let Some(m) = b.try_recv() {
                    *out2.borrow_mut() = Some(Ok(m.payload));
                    return Step::Done;
                }
                if cx.now() >= deadline {
                    *out2.borrow_mut() = Some(Err(TestbedError::Timeout));
                    return Step::Done;
                }
                Step::WaitMail {
                    deadline: Some(deadline),
                }
            });
            sched.run();
            let r = out.borrow_mut().take().expect("task reached a verdict");
            (r, clock.now())
        };
        (run_legacy(), run_scheduled())
    }

    #[test]
    fn zero_timeout_identical_under_scheduler_and_legacy_path() {
        // recv_timeout(0): due mail (zero-latency profile) is still
        // returned — the deadline gets one final pump-and-poll — and an
        // empty mailbox times out without moving the clock. Both paths,
        // same verdicts, same clocks.
        let due = FaultProfile::default();
        let (legacy, scheduled) = legacy_vs_scheduled(due, true, 0, 0);
        assert_eq!(legacy.0.as_deref().unwrap(), b"m");
        assert_eq!(legacy, scheduled);
        assert_eq!(legacy.1, 0, "no clock movement for due mail");

        let (legacy, scheduled) = legacy_vs_scheduled(due, false, 0, 0);
        assert_eq!(legacy.0, Err(TestbedError::Timeout));
        assert_eq!(legacy, scheduled);
        assert_eq!(legacy.1, 0, "timeout at t=0 does not advance time");
    }

    #[test]
    fn past_deadline_identical_under_scheduler_and_legacy_path() {
        // The clock has already moved past the whole timeout window
        // before the receiver gets to wait (pre_advance > timeout). The
        // wait must resolve immediately — delivering mail that is
        // already due, or timing out — never hang or move time.
        let latency2 = FaultProfile {
            min_latency: 2,
            max_latency: 2,
            ..FaultProfile::default()
        };
        // Message became due at t=2; receiver shows up at t=7 with an
        // expired window: the final pump still hands over the mail.
        let (legacy, scheduled) = legacy_vs_scheduled(latency2, true, 5, 7);
        assert_eq!(legacy.0.as_deref().unwrap(), b"m");
        assert_eq!(legacy, scheduled);
        assert_eq!(legacy.1, 7, "no further clock movement");
        // No mail at all: immediate timeout at the current time.
        let (legacy, scheduled) = legacy_vs_scheduled(latency2, false, 5, 7);
        assert_eq!(legacy.0, Err(TestbedError::Timeout));
        assert_eq!(legacy, scheduled);
        assert_eq!(legacy.1, 7);
    }

    #[test]
    fn two_tasks_racing_one_delivery_tick_is_deterministic() {
        use crate::sched::{Scheduler, Step, TaskCx};
        use std::cell::RefCell;
        use std::rc::Rc;
        // Two messages to two different waiters, both scheduled for the
        // same delivery tick. Wake order must follow delivery order
        // (pending-queue (deliver_at, seq)), identical across runs, and
        // identical to what the legacy path observes (both messages due
        // at t=3).
        let run = || {
            let net = Network::new();
            let clock = SimClock::new();
            net.enable_faults(
                clock.clone(),
                5,
                FaultProfile {
                    min_latency: 3,
                    max_latency: 3,
                    ..FaultProfile::default()
                },
            );
            let tx = net.register("tx");
            let order: Rc<RefCell<Vec<(String, u64)>>> = Rc::new(RefCell::new(Vec::new()));
            let mut sched = Scheduler::new(&net);
            for name in ["racer-b", "racer-a"] {
                let ep = net.register(name);
                let order = order.clone();
                sched.spawn_mailbox(name, move |cx: &TaskCx| {
                    if let Some(m) = ep.try_recv() {
                        order
                            .borrow_mut()
                            .push((String::from_utf8(m.payload).unwrap(), cx.now()));
                        return Step::Done;
                    }
                    Step::WaitMail { deadline: None }
                });
            }
            // Send b-then-a: delivery order is send order (same tick,
            // ascending seq), regardless of spawn order.
            tx.send("racer-b", b"first-sent".to_vec()).unwrap();
            tx.send("racer-a", b"second-sent".to_vec()).unwrap();
            sched.run();
            let observed = order.borrow().clone();
            observed
        };
        let o1 = run();
        let o2 = run();
        assert_eq!(o1, o2, "same seed, same wake order");
        assert_eq!(
            o1,
            vec![
                ("first-sent".to_string(), 3),
                ("second-sent".to_string(), 3)
            ],
            "both woke on the same tick, in delivery (seq) order"
        );
    }

    #[test]
    fn partition_blocks_until_healed() {
        let net = Network::new();
        let clock = SimClock::new();
        net.enable_faults(clock.clone(), 1, FaultProfile::default());
        let a = net.register("alice");
        let b = net.register("bob");
        net.partition("alice", "bob");
        a.send("bob", b"lost".to_vec()).unwrap();
        assert_eq!(b.recv_timeout(5), Err(TestbedError::Timeout));
        net.heal("alice", "bob");
        a.send("bob", b"through".to_vec()).unwrap();
        assert_eq!(b.recv_timeout(5).unwrap().payload, b"through");
        let stats = net.fault_stats().unwrap();
        assert_eq!(stats.blocked, 1);
        assert_eq!(stats.delivered, 1);
    }

    #[test]
    fn same_seed_same_transcript() {
        let run = |seed: u64| {
            let net = Network::new();
            let clock = SimClock::new();
            net.enable_faults(clock.clone(), seed, FaultProfile::lossy_wan());
            let a = net.register("alice");
            let b = net.register("bob");
            for i in 0..50u32 {
                a.send("bob", vec![0u8; i as usize % 7 + 1]).unwrap();
                let _ = b.recv_timeout(2);
            }
            (net.transcript(), net.fault_stats().unwrap())
        };
        let (t1, s1) = run(0xC11A05);
        let (t2, s2) = run(0xC11A05);
        assert_eq!(t1, t2);
        assert_eq!(s1, s2);
        assert!(s1.dropped > 0, "lossy_wan at 50 sends should drop some");
        let (t3, _) = run(0xC11A06);
        assert_ne!(t1, t3, "different seed, different transcript");
    }

    #[test]
    fn duplicates_are_delivered_as_extra_copies() {
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
        let a = net.register("alice");
        let b = net.register("bob");
        a.send("bob", b"dup".to_vec()).unwrap();
        net.pump();
        let mut copies = 0;
        while b.try_recv().is_some() {
            copies += 1;
        }
        assert!(copies >= 2, "duplication at p=1.0 yields extra copies");
        let stats = net.fault_stats().unwrap();
        assert_eq!(stats.delivered, copies);
        assert_eq!(stats.duplicated, copies - 1);
    }

    #[test]
    fn stream_roundtrip() {
        let (mut a, mut b, stats) = StreamPair::new();
        a.write_all(b"hello stream").unwrap();
        let mut buf = [0u8; 12];
        b.read_exact(&mut buf).unwrap();
        assert_eq!(&buf, b"hello stream");
        assert_eq!(stats.snapshot().bytes, 12);
    }

    #[test]
    fn stream_bidirectional() {
        let (mut a, mut b, _) = StreamPair::new();
        a.write_all(b"ping").unwrap();
        let mut buf = [0u8; 4];
        b.read_exact(&mut buf).unwrap();
        b.write_all(b"pong").unwrap();
        a.read_exact(&mut buf).unwrap();
        assert_eq!(&buf, b"pong");
    }

    #[test]
    fn stream_partial_reads() {
        let (mut a, mut b, _) = StreamPair::new();
        a.write_all(&[1, 2, 3, 4, 5]).unwrap();
        let mut buf = [0u8; 2];
        b.read_exact(&mut buf).unwrap();
        assert_eq!(buf, [1, 2]);
        let mut rest = [0u8; 3];
        b.read_exact(&mut rest).unwrap();
        assert_eq!(rest, [3, 4, 5]);
    }

    #[test]
    fn stream_eof_on_drop() {
        let (a, mut b, _) = StreamPair::new();
        drop(a);
        let mut buf = [0u8; 1];
        assert_eq!(b.read(&mut buf).unwrap(), 0);
    }

    #[test]
    fn stream_threads() {
        let (mut a, mut b, _) = StreamPair::new();
        let t = std::thread::spawn(move || {
            let mut buf = [0u8; 5];
            b.read_exact(&mut buf).unwrap();
            b.write_all(&buf).unwrap();
        });
        a.write_all(b"echo!").unwrap();
        let mut buf = [0u8; 5];
        a.read_exact(&mut buf).unwrap();
        assert_eq!(&buf, b"echo!");
        t.join().unwrap();
    }

    #[test]
    fn lossy_stream_eventually_tears_and_is_deterministic() {
        let run = |seed: u64| {
            let (mut a, mut b, _) = StreamPair::lossy(seed, 0.2);
            let mut survived = 0u32;
            for _ in 0..100 {
                match a.write_all(b"chunk") {
                    Ok(()) => survived += 1,
                    Err(e) => {
                        assert_eq!(e.kind(), io::ErrorKind::ConnectionReset);
                        break;
                    }
                }
            }
            // Reader drains what got through, then sees the reset.
            let mut drained = 0u32;
            let mut buf = [0u8; 5];
            loop {
                match b.read_exact(&mut buf) {
                    Ok(()) => drained += 1,
                    Err(e) => {
                        assert_eq!(e.kind(), io::ErrorKind::ConnectionReset);
                        break;
                    }
                }
            }
            assert_eq!(drained, survived);
            survived
        };
        let s1 = run(42);
        let s2 = run(42);
        assert_eq!(s1, s2, "same seed, same tear point");
        assert!(s1 < 100, "p=0.2 over 100 writes tears the stream");
    }

    #[test]
    fn lossy_stream_zero_rate_behaves_like_new() {
        let (mut a, mut b, stats) = StreamPair::lossy(9, 0.0);
        a.write_all(b"clean").unwrap();
        let mut buf = [0u8; 5];
        b.read_exact(&mut buf).unwrap();
        assert_eq!(&buf, b"clean");
        assert_eq!(stats.snapshot().bytes, 5);
    }

    #[test]
    fn loss_stats_count_attempts_tears_and_resets() {
        // Clean pair: attempts counted, no tears.
        let (mut a, mut b, stats) = StreamPair::new();
        a.write_all(b"x").unwrap();
        b.write_all(b"y").unwrap();
        let loss = stats.loss();
        assert_eq!(loss.write_attempts, 2);
        assert_eq!(loss.torn_writes, 0);
        assert_eq!(loss.loss_permille(), 0);

        // Lossy pair: drive writes until the seeded tear, then read to
        // the reset. The torn write is still an attempt.
        let (mut a, mut b, stats) = StreamPair::lossy(42, 0.2);
        let mut wrote = 0u64;
        loop {
            wrote += 1;
            if a.write_all(b"chunk").is_err() {
                break;
            }
        }
        let mut buf = [0u8; 5];
        while b.read_exact(&mut buf).is_ok() {}
        let loss = stats.loss();
        assert_eq!(loss.write_attempts, wrote);
        assert_eq!(loss.torn_writes, 1);
        assert_eq!(loss.resets_seen, 1);
        assert_eq!(loss.loss_permille(), 1000 / wrote);
    }
}
