//! Wall-clock span profiler for the traced run.
//!
//! Spans are opened only in this benchmark's own files, around each call
//! into a layer's public function, so the program under test is measured
//! as shipped. Every span name is a [`Layer`] variant; the profiler keeps,
//! per name, the number of calls and the *self* time — the span's
//! duration minus the part covered by spans opened inside it. Nothing is
//! recorded while the profiler is off, which is how the untraced rounds
//! (and every `--trace 0` run) time the program without it.
//!
//! The benchmark is single-threaded, so the state is thread-local and a
//! span costs two `Instant::now()` reads plus a push and a pop.

use std::cell::{Cell, RefCell};
use std::time::{Duration, Instant};

macro_rules! layers {
    ($($variant:ident => $name:literal,)*) => {
        /// A span name: one layer boundary the benchmark calls across.
        #[derive(Clone, Copy, Debug, PartialEq, Eq)]
        pub enum Layer { $($variant,)* }

        /// Every span name, in [`Layer`] order.
        pub const NAMES: &[&str] = &[$($name,)*];
    };
}

layers! {
    Driver => "bench.driver",
    SchedRun => "testbed.sched.run",
    SchedSpawn => "testbed.sched.spawn",
    NetRegister => "testbed.net.register",
    NetIntern => "testbed.net.intern",
    NetSend => "testbed.net.send",
    NetTryRecv => "testbed.net.try_recv",
    RpcNew => "testbed.rpc.new",
    RpcPoll => "testbed.rpc.poll",
    UtilTrace => "util.trace",
    TlsConfigNew => "tls.config.new",
    TlsSeal => "tls.channel.seal",
    TlsOpen => "tls.channel.open",
    GssInitiatorNew => "gssapi.poll.initiator_new",
    GssInitiatorFeed => "gssapi.poll.initiator_feed",
    GssSubmitHello => "gssapi.poll.submit_hello",
    GssFlushWave => "gssapi.poll.flush_wave",
    GssSubmitFinished => "gssapi.poll.submit_finished",
    GssWrap => "gssapi.context.wrap",
    GssUnwrap => "gssapi.context.unwrap",
    SoapRequest => "wsse.soap.request",
    SoapToXml => "wsse.soap.to_xml",
    SoapParse => "wsse.soap.parse",
    WsscProtect => "wsse.wssc.protect",
    WsscUnprotect => "wsse.wssc.unprotect",
    XmlsigSign => "wsse.xmlsig.sign_envelope",
    XmlsigVerify => "wsse.xmlsig.verify_envelope",
}

struct Frame {
    start: Instant,
    children: Duration,
}

/// Accumulated calls and self time per span name.
#[derive(Clone, Debug)]
pub struct Profile {
    pub calls: Vec<u64>,
    pub self_time: Vec<Duration>,
}

impl Profile {
    fn empty() -> Self {
        Profile {
            calls: vec![0; NAMES.len()],
            self_time: vec![Duration::ZERO; NAMES.len()],
        }
    }

    /// Sum of every span's self time: the wall time the spans explain.
    pub fn explained(&self) -> Duration {
        self.self_time.iter().sum()
    }
}

struct State {
    stack: Vec<Frame>,
    profile: Profile,
}

thread_local! {
    static ON: Cell<bool> = const { Cell::new(false) };
    static STATE: RefCell<State> = RefCell::new(State {
        stack: Vec::new(),
        profile: Profile::empty(),
    });
}

/// Turn recording on or off. Only toggled between rounds, never while a
/// span is open.
pub fn set_enabled(on: bool) {
    ON.with(|c| c.set(on));
}

/// Whether spans are being recorded (the current round is traced).
pub fn enabled() -> bool {
    ON.with(Cell::get)
}

/// Run `f` inside a span named `layer`.
#[inline]
pub fn span<R>(layer: Layer, f: impl FnOnce() -> R) -> R {
    if !enabled() {
        return f();
    }
    STATE.with(|s| {
        s.borrow_mut().stack.push(Frame {
            start: Instant::now(),
            children: Duration::ZERO,
        })
    });
    let out = f();
    let end = Instant::now();
    STATE.with(|s| {
        let mut s = s.borrow_mut();
        let frame = s.stack.pop().expect("span frame pushed above");
        let total = end - frame.start;
        let i = layer as usize;
        s.profile.calls[i] += 1;
        s.profile.self_time[i] += total.saturating_sub(frame.children);
        if let Some(parent) = s.stack.last_mut() {
            parent.children += total;
        }
    });
    out
}

/// Everything recorded so far.
pub fn snapshot() -> Profile {
    STATE.with(|s| s.borrow().profile.clone())
}
