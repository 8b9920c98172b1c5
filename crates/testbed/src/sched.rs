//! Deterministic discrete-event scheduler.
//!
//! Thread-per-endpoint capped the simulated world at a few hundred
//! principals: every GSS acceptor, GRAM service, and client retry loop
//! burned an OS thread, and cross-thread interleavings made transcripts
//! seed-dependent only by luck. This module replaces that model with a
//! single-threaded run queue of resumable tasks over the simulated
//! [`Network`] and [`SimClock`] — one process hosts 10⁵–10⁶ endpoints,
//! and every interleaving is a pure function of the seed.
//!
//! # Execution model
//!
//! A [`Task`] is a poll-style state machine: the scheduler calls
//! [`Task::step`], the task does whatever synchronous work it can
//! (drain its mailbox, send messages, advance its protocol state), and
//! returns a [`Step`] saying when it next wants to run:
//!
//! * [`Step::Yield`] — runnable again this same tick (after the other
//!   ready tasks).
//! * [`Step::Sleep`] — wake at an absolute sim time.
//! * [`Step::WaitMail`] — wake when the task's registered mailbox
//!   receives a delivery, or at an optional deadline, whichever is
//!   first. This is the scheduled generalization of
//!   [`Endpoint::recv_timeout`]'s pump → try_recv → advance loop: what
//!   that loop does for one blocking receiver, the scheduler does for
//!   all tasks at once.
//! * [`Step::Done`] — the task is finished and is dropped.
//!
//! The main loop ([`Scheduler::run`]) runs ready tasks in FIFO order,
//! pumps the network's pending-delivery queue, routes delivery
//! notifications (the [`Network`] wake log) to waiting tasks, and only
//! when nothing is runnable advances the shared clock to the earliest
//! of the next timer and the next scheduled network delivery. Time
//! never moves while any task is runnable, and each wake source is
//! totally ordered (FIFO ready queue, `(time, seq)` timer heap,
//! delivery-order wake log), so a run is deterministic per seed.
//!
//! Blocking client code (e.g. [`crate::rpc::RpcClient`]) can drive a
//! scheduler from its pump hook via [`Scheduler::poll`], which runs
//! ready tasks and releases due timers without advancing the clock.
//!
//! [`Endpoint::recv_timeout`]: crate::net::Endpoint::recv_timeout

use crate::clock::SimClock;
use crate::names::NameId;
use crate::net::Network;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

/// What a task wants next, returned from [`Task::step`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Step {
    /// The task is finished; the scheduler drops it.
    Done,
    /// Run again in this same tick, after the other ready tasks.
    Yield,
    /// Wake at the given absolute sim time. A time at or before *now*
    /// reschedules the task immediately (a deadline already in the past
    /// must fire, not hang).
    Sleep(u64),
    /// Wake when the task's registered mailbox receives a delivery, or
    /// at `deadline`, whichever comes first. A deadline at or before
    /// *now* reschedules immediately, mirroring
    /// [`recv_timeout(0)`](crate::net::Endpoint::recv_timeout): the
    /// task gets exactly one more chance to drain mail that is already
    /// due before it treats the wait as timed out. Tasks spawned
    /// without a mailbox may still use this as a pure timer.
    WaitMail {
        /// Absolute sim time at which to wake even without mail.
        deadline: Option<u64>,
    },
}

/// Identifies a spawned task within its scheduler.
pub type TaskId = usize;

/// Per-step context handed to [`Task::step`].
pub struct TaskCx {
    now: u64,
    id: TaskId,
}

impl TaskCx {
    /// Current sim time.
    pub fn now(&self) -> u64 {
        self.now
    }

    /// The stepped task's id.
    pub fn id(&self) -> TaskId {
        self.id
    }
}

/// A resumable unit of work driven by the [`Scheduler`].
pub trait Task {
    /// Perform available synchronous work and say when to run next.
    fn step(&mut self, cx: &TaskCx) -> Step;
}

impl<F: FnMut(&TaskCx) -> Step> Task for F {
    fn step(&mut self, cx: &TaskCx) -> Step {
        self(cx)
    }
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum State {
    Ready,
    Sleeping,
    WaitingMail,
}

struct Slot {
    task: Box<dyn Task>,
    state: State,
    mailbox: Option<NameId>,
}

/// Counters describing one scheduler run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SchedStats {
    /// Tasks spawned over the scheduler's lifetime.
    pub spawned: u64,
    /// Tasks that returned [`Step::Done`].
    pub completed: u64,
    /// Total [`Task::step`] invocations.
    pub steps: u64,
    /// Times the clock was advanced because nothing was runnable.
    pub clock_advances: u64,
    /// Wakes caused by a mailbox delivery.
    pub mail_wakes: u64,
    /// Wakes caused by a timer (sleep or wait deadline).
    pub timer_wakes: u64,
    /// Peak number of simultaneously live tasks — the storm benches'
    /// bounded-memory proxy: completed task slots are recycled, so this
    /// tracks arena size, not total tasks spawned.
    pub live_high_water: u64,
}

/// A deterministic run queue of [`Task`]s over one [`Network`].
///
/// Task slots form a free-list arena: a slot vacated by [`Step::Done`]
/// is reused by the next spawn (LIFO), so a storm that spawns 10⁶
/// short-lived tasks holds memory proportional to the *live*
/// high-water mark, not the spawn count. Per-slot wake epochs survive
/// reuse — they are bumped on every step *and* on every respawn — so a
/// stale timer registered by a slot's previous occupant can never wake
/// its current one.
pub struct Scheduler {
    net: Network,
    clock: SimClock,
    slots: Vec<Option<Slot>>,
    /// Vacated slot indexes available for reuse (LIFO).
    free: Vec<TaskId>,
    /// Per-slot wake epoch; lives outside [`Slot`] so it persists
    /// across vacancy and reuse.
    epochs: Vec<u64>,
    ready: VecDeque<TaskId>,
    /// Min-heap of `(wake_at, seq, task, epoch)`; `seq` makes the order
    /// total, `epoch` invalidates entries for waits that already ended.
    timers: BinaryHeap<Reverse<(u64, u64, TaskId, u64)>>,
    timer_seq: u64,
    /// Mailbox → waiting task, indexed by [`NameId`].
    mailboxes: Vec<Option<TaskId>>,
    /// The network's wake log, swapped out once per
    /// [`Scheduler::absorb_wakes`]; kept to reuse its allocation.
    wakes: Vec<NameId>,
    live: usize,
    stats: SchedStats,
}

impl Scheduler {
    /// Create a scheduler over `net`. Uses the network's fault clock if
    /// the fault layer is armed (so sends, timers, and traces share one
    /// timeline), a fresh [`SimClock`] otherwise. Enables the network's
    /// delivery wake log.
    pub fn new(net: &Network) -> Self {
        net.enable_wake_log();
        let clock = net.fault_clock().unwrap_or_default();
        Scheduler {
            net: net.clone(),
            clock,
            slots: Vec::new(),
            free: Vec::new(),
            epochs: Vec::new(),
            ready: VecDeque::new(),
            timers: BinaryHeap::new(),
            timer_seq: 0,
            mailboxes: Vec::new(),
            wakes: Vec::new(),
            live: 0,
            stats: SchedStats::default(),
        }
    }

    /// The scheduler's clock (shared with the fault layer when armed).
    pub fn clock(&self) -> SimClock {
        self.clock.clone()
    }

    /// Current sim time.
    pub fn now(&self) -> u64 {
        self.clock.now()
    }

    /// Number of live (not yet `Done`) tasks.
    pub fn live(&self) -> usize {
        self.live
    }

    /// Counters so far.
    pub fn stats(&self) -> SchedStats {
        self.stats
    }

    /// Spawn a task with no mailbox. It starts ready.
    pub fn spawn(&mut self, task: impl Task + 'static) -> TaskId {
        self.spawn_slot(None, Box::new(task))
    }

    /// Spawn a task that waits on deliveries to `mailbox` (the name of
    /// the [`Endpoint`](crate::net::Endpoint) the task receives on).
    /// One task per mailbox; spawning a second waiter for the same name
    /// replaces the first as the wake target (mirroring
    /// [`Network::register`]'s replace semantics). It starts ready.
    pub fn spawn_mailbox(&mut self, mailbox: &str, task: impl Task + 'static) -> TaskId {
        let id = self.net.intern(mailbox);
        self.spawn_slot(Some(id), Box::new(task))
    }

    /// Like [`Scheduler::spawn_mailbox`] but with the mailbox name
    /// already interned ([`Network::intern`]) — the storm generators'
    /// hot path, which avoids re-hashing the name string per spawn.
    pub fn spawn_mailbox_id(&mut self, mailbox: NameId, task: impl Task + 'static) -> TaskId {
        self.spawn_slot(Some(mailbox), Box::new(task))
    }

    fn spawn_slot(&mut self, mailbox: Option<NameId>, task: Box<dyn Task>) -> TaskId {
        let id = match self.free.pop() {
            Some(id) => id,
            None => {
                self.slots.push(None);
                self.epochs.push(0);
                self.slots.len() - 1
            }
        };
        // Invalidate any timer still in the heap from the slot's
        // previous occupant.
        self.epochs[id] += 1;
        if let Some(mb) = mailbox {
            if mb.index() >= self.mailboxes.len() {
                self.mailboxes.resize(mb.index() + 1, None);
            }
            self.mailboxes[mb.index()] = Some(id);
        }
        self.slots[id] = Some(Slot {
            task,
            state: State::Ready,
            mailbox,
        });
        self.live += 1;
        self.stats.spawned += 1;
        self.stats.live_high_water = self.stats.live_high_water.max(self.live as u64);
        self.ready.push_back(id);
        id
    }

    /// Route pending deliveries and due timers to their tasks: pump the
    /// network and take its wake log (one lock acquisition), wake
    /// mailbox waiters in delivery order, then release every timer at
    /// or before *now* in `(time, seq)` order.
    fn absorb_wakes(&mut self) {
        let mut wakes = std::mem::take(&mut self.wakes);
        self.net.pump_wakes(&mut wakes);
        for name in &wakes {
            if let Some(&Some(id)) = self.mailboxes.get(name.index()) {
                if let Some(slot) = self.slots[id].as_mut() {
                    if slot.state == State::WaitingMail {
                        slot.state = State::Ready;
                        self.stats.mail_wakes += 1;
                        self.ready.push_back(id);
                    }
                }
            }
        }
        self.wakes = wakes;
        let now = self.clock.now();
        while let Some(Reverse((at, _, id, epoch))) = self.timers.peek().copied() {
            if at > now {
                break;
            }
            self.timers.pop();
            if let Some(slot) = self.slots[id].as_mut() {
                if self.epochs[id] == epoch && slot.state != State::Ready {
                    slot.state = State::Ready;
                    self.stats.timer_wakes += 1;
                    self.ready.push_back(id);
                }
            }
        }
    }

    fn step_task(&mut self, id: TaskId) {
        let Some(mut slot) = self.slots[id].take() else {
            return;
        };
        let cx = TaskCx {
            now: self.clock.now(),
            id,
        };
        let step = slot.task.step(&cx);
        self.stats.steps += 1;
        self.epochs[id] += 1;
        match step {
            Step::Done => {
                self.live -= 1;
                self.stats.completed += 1;
                if let Some(mb) = slot.mailbox {
                    if self.mailboxes[mb.index()] == Some(id) {
                        self.mailboxes[mb.index()] = None;
                    }
                }
                // The slot stays vacated (the task is dropped here) and
                // its index goes back to the arena for reuse.
                self.free.push(id);
                return;
            }
            Step::Yield => {
                slot.state = State::Ready;
                self.ready.push_back(id);
            }
            Step::Sleep(at) => {
                if at <= cx.now {
                    slot.state = State::Ready;
                    self.ready.push_back(id);
                } else {
                    slot.state = State::Sleeping;
                    self.timer_seq += 1;
                    self.timers
                        .push(Reverse((at, self.timer_seq, id, self.epochs[id])));
                }
            }
            Step::WaitMail { deadline } => match deadline {
                Some(d) if d <= cx.now => {
                    slot.state = State::Ready;
                    self.ready.push_back(id);
                }
                other => {
                    slot.state = State::WaitingMail;
                    if let Some(d) = other {
                        self.timer_seq += 1;
                        self.timers
                            .push(Reverse((d, self.timer_seq, id, self.epochs[id])));
                    }
                }
            },
        }
        self.slots[id] = Some(slot);
    }

    /// Run every currently-runnable task to quiescence *without*
    /// advancing the clock. Due timers and pending deliveries at or
    /// before *now* are honored. Returns the number of task steps
    /// executed — a pump hook can use it as a progress signal (e.g.
    /// [`RpcClient::set_pump`](crate::rpc::RpcClient::set_pump)), which
    /// lets legacy blocking client code drive scheduled services while
    /// the blocking side owns the clock.
    pub fn poll(&mut self) -> usize {
        let mut steps = 0;
        loop {
            self.absorb_wakes();
            let Some(id) = self.ready.pop_front() else {
                return steps;
            };
            self.step_task(id);
            steps += 1;
        }
    }

    /// One pump round for blocking client code waiting on scheduled
    /// peers (the [`with_stream_pump`](crate::net::with_stream_pump)
    /// hook): poll ready tasks; if none ran, advance the clock to the
    /// next event and poll again. Returns the number of task steps
    /// executed — `0` means the world is quiescent and whatever the
    /// caller is waiting for will never happen.
    pub fn pump(&mut self) -> usize {
        loop {
            let steps = self.poll();
            if steps > 0 {
                return steps;
            }
            if !self.advance() {
                return 0;
            }
        }
    }

    /// Advance the clock to the next event (earliest timer or scheduled
    /// network delivery). Returns `false` if there is none — the world
    /// is quiescent.
    fn advance(&mut self) -> bool {
        // Discard stale timer heads so they cannot force a pointless
        // clock stop.
        while let Some(Reverse((_, _, id, epoch))) = self.timers.peek().copied() {
            let stale = match &self.slots[id] {
                Some(slot) => self.epochs[id] != epoch || slot.state == State::Ready,
                None => true,
            };
            if !stale {
                break;
            }
            self.timers.pop();
        }
        let next_timer = self.timers.peek().map(|Reverse((at, ..))| *at);
        let next_net = self.net.next_event_at();
        let target = match (next_timer, next_net) {
            (Some(a), Some(b)) => a.min(b),
            (Some(a), None) => a,
            (None, Some(b)) => b,
            (None, None) => return false,
        };
        let now = self.clock.now();
        if target > now {
            self.clock.set(target);
        }
        self.stats.clock_advances += 1;
        true
    }

    /// Run to quiescence: no task runnable, no timer pending, no
    /// delivery scheduled. Returns the final counters. Tasks that are
    /// still blocked at quiescence (e.g. a server in `WaitMail` with no
    /// deadline and no traffic left) remain live and simply never run
    /// again; [`Scheduler::live`] reports them.
    pub fn run(&mut self) -> SchedStats {
        loop {
            self.poll();
            if !self.advance() {
                return self.stats;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::net::{FaultProfile, Network};

    #[test]
    fn sleep_ordering_is_deterministic() {
        let net = Network::new();
        let mut sched = Scheduler::new(&net);
        let log = std::rc::Rc::new(std::cell::RefCell::new(Vec::new()));
        for (tag, at) in [
            ("late", 30u64),
            ("early", 10),
            ("mid", 20),
            ("also-early", 10),
        ] {
            let log = log.clone();
            let mut slept = false;
            sched.spawn(move |cx: &TaskCx| {
                if !slept {
                    slept = true;
                    return Step::Sleep(at);
                }
                log.borrow_mut().push(format!("{tag}@{}", cx.now()));
                Step::Done
            });
        }
        let stats = sched.run();
        assert_eq!(
            *log.borrow(),
            vec!["early@10", "also-early@10", "mid@20", "late@30"],
            "timer heap is (time, registration seq) ordered"
        );
        assert_eq!(stats.completed, 4);
        assert_eq!(sched.live(), 0);
        assert_eq!(sched.now(), 30);
    }

    #[test]
    fn sleep_in_the_past_fires_immediately() {
        let net = Network::new();
        let clock = SimClock::new();
        net.enable_faults(clock.clone(), 1, FaultProfile::default());
        clock.set(100);
        let mut sched = Scheduler::new(&net);
        let mut asked = false;
        sched.spawn(move |cx: &TaskCx| {
            if !asked {
                asked = true;
                Step::Sleep(5) // long past
            } else {
                assert_eq!(cx.now(), 100, "no time travel, no hang");
                Step::Done
            }
        });
        let stats = sched.run();
        assert_eq!(stats.completed, 1);
        assert_eq!(clock.now(), 100, "clock untouched by a past deadline");
    }

    #[test]
    fn mail_wakes_waiting_task() {
        let net = Network::new();
        let clock = SimClock::new();
        net.enable_faults(
            clock.clone(),
            1,
            FaultProfile {
                min_latency: 4,
                max_latency: 4,
                ..FaultProfile::default()
            },
        );
        let mut sched = Scheduler::new(&net);
        let rx = net.register("rx");
        let tx = net.register("tx");
        let got = std::rc::Rc::new(std::cell::RefCell::new(None));
        let got2 = got.clone();
        sched.spawn_mailbox("rx", move |cx: &TaskCx| {
            if let Some(m) = rx.try_recv() {
                *got2.borrow_mut() = Some((cx.now(), m.payload));
                return Step::Done;
            }
            Step::WaitMail { deadline: None }
        });
        let mut sent = false;
        sched.spawn(move |_cx: &TaskCx| {
            if !sent {
                sent = true;
                tx.send("rx", b"ping".to_vec()).unwrap();
            }
            Step::Done
        });
        sched.run();
        assert_eq!(*got.borrow(), Some((4, b"ping".to_vec())));
    }

    #[test]
    fn wait_deadline_fires_without_mail() {
        let net = Network::new();
        let clock = SimClock::new();
        net.enable_faults(clock.clone(), 1, FaultProfile::default());
        let mut sched = Scheduler::new(&net);
        let ep = net.register("lonely");
        let outcome = std::rc::Rc::new(std::cell::RefCell::new(None));
        let o2 = outcome.clone();
        sched.spawn_mailbox("lonely", move |cx: &TaskCx| {
            if ep.try_recv().is_some() {
                *o2.borrow_mut() = Some("mail");
                return Step::Done;
            }
            if cx.now() >= 25 {
                *o2.borrow_mut() = Some("timeout");
                return Step::Done;
            }
            Step::WaitMail { deadline: Some(25) }
        });
        let stats = sched.run();
        assert_eq!(*outcome.borrow(), Some("timeout"));
        assert_eq!(clock.now(), 25, "clock advanced exactly to the deadline");
        assert_eq!(stats.timer_wakes, 1);
    }

    #[test]
    fn yield_runs_again_same_tick() {
        let net = Network::new();
        let mut sched = Scheduler::new(&net);
        let mut spins = 0;
        sched.spawn(move |cx: &TaskCx| {
            assert_eq!(cx.now(), 0);
            spins += 1;
            if spins < 3 {
                Step::Yield
            } else {
                Step::Done
            }
        });
        let stats = sched.run();
        assert_eq!(stats.steps, 3);
        assert_eq!(stats.clock_advances, 0);
    }

    #[test]
    fn stale_timer_does_not_wake_later_wait() {
        // Task waits with a deadline, gets mail *before* it, then waits
        // again with a much later deadline. The first (now stale) timer
        // must not wake the second wait early.
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
        let mut sched = Scheduler::new(&net);
        let rx = net.register("rx");
        let tx = net.register("tx");
        let wakes = std::rc::Rc::new(std::cell::RefCell::new(Vec::new()));
        let w2 = wakes.clone();
        let mut got_mail = false;
        sched.spawn_mailbox("rx", move |cx: &TaskCx| {
            if !got_mail {
                if rx.try_recv().is_some() {
                    got_mail = true;
                    w2.borrow_mut().push(("mail", cx.now()));
                    return Step::WaitMail { deadline: Some(50) };
                }
                return Step::WaitMail { deadline: Some(10) };
            }
            w2.borrow_mut().push(("wake", cx.now()));
            Step::Done
        });
        let mut sent = false;
        sched.spawn(move |_cx: &TaskCx| {
            if !sent {
                sent = true;
                tx.send("rx", b"m".to_vec()).unwrap();
            }
            Step::Done
        });
        sched.run();
        assert_eq!(*wakes.borrow(), vec![("mail", 2), ("wake", 50)]);
    }
}
