//! Model-based property test for datagram mailbox semantics
//! (`testbed::net`).
//!
//! Random sequences of `register`, `try_register`, `unregister`,
//! dropping a handle, `send`, `pump` and `try_recv`/`recv` run over a
//! few names, with the fault layer off, armed with zero latency, or
//! armed with one second of latency (so copies are in flight while
//! names are re-registered and handles dropped). Every result is
//! checked against a plain reference model: a map from name to its
//! current handle plus one queue per handle.
//!
//! Mailbox slots are recycled once their handle is dropped, and this is
//! what the model pins: a stale handle never receives mail meant for
//! its successor, and a recycled slot never surfaces mail sent to the
//! handle that owned it before.

use std::collections::{HashMap, VecDeque};

use gridsec_testbed::clock::SimClock;
use gridsec_testbed::net::{Endpoint, FaultProfile, Network};
use gridsec_testbed::TestbedError;
use gridsec_util::check::{check, Gen};

const NAMES: [&str; 3] = ["a", "b", "c"];

/// What a name routes to in the model.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Route {
    /// The handle with this index in `Model::queues`.
    Handle(usize),
    /// Registered, but its handle was dropped.
    Closed,
}

#[derive(Default)]
struct Model {
    routes: HashMap<&'static str, Route>,
    /// Per handle ever created: its name and queue, `None` once dropped.
    queues: Vec<(&'static str, Option<VecDeque<Vec<u8>>>)>,
    /// Copies sent but not yet due: `(deliver_at, name, payload)`, in
    /// send order (one fixed latency keeps that the delivery order).
    in_flight: VecDeque<(u64, &'static str, Vec<u8>)>,
    delivered: u64,
    dropped: u64,
}

impl Model {
    fn open(&mut self, name: &'static str) {
        self.routes.insert(name, Route::Handle(self.queues.len()));
        self.queues.push((name, Some(VecDeque::new())));
    }

    fn arrive(&mut self, name: &'static str, payload: Vec<u8>) {
        match self.routes.get(name) {
            Some(&Route::Handle(h)) => {
                self.queues[h]
                    .1
                    .as_mut()
                    .expect("routed handle is live")
                    .push_back(payload);
                self.delivered += 1;
            }
            _ => self.dropped += 1,
        }
    }

    fn pump(&mut self, now: u64) {
        while self.in_flight.front().is_some_and(|&(at, ..)| at <= now) {
            let (_, name, payload) = self.in_flight.pop_front().expect("peeked");
            self.arrive(name, payload);
        }
    }

    /// Expected [`Endpoint::recv`] outcome for handle `h`.
    fn recv(&mut self, h: usize) -> Result<Vec<u8>, TestbedError> {
        let (name, queue) = &mut self.queues[h];
        if let Some(p) = queue.as_mut().expect("live handle").pop_front() {
            return Ok(p);
        }
        if self.routes.get(*name) == Some(&Route::Handle(h)) {
            Err(TestbedError::Timeout)
        } else {
            Err(TestbedError::Disconnected)
        }
    }
}

/// One fault setting per case: off, armed with zero latency, or armed
/// with a fixed one-second latency.
fn arm(g: &mut Gen, net: &Network) -> Option<(SimClock, u64)> {
    let latency = match g.pick(3) {
        0 => return None,
        1 => 0,
        _ => 1,
    };
    let clock = SimClock::new();
    let profile = FaultProfile {
        min_latency: latency,
        max_latency: latency,
        ..FaultProfile::default()
    };
    net.enable_faults(clock.clone(), g.u64(), profile);
    Some((clock, latency))
}

fn run_case(g: &mut Gen) {
    let net = Network::new();
    let faults = arm(g, &net);
    let tx = net.register("tx");
    let mut handles: Vec<Option<Endpoint>> = Vec::new();
    let mut model = Model::default();
    let mut sent = 0u64;
    for _ in 0..g.usize_in(0..80) {
        let name = *g.choice(&NAMES);
        match g.pick(8) {
            0 => {
                handles.push(Some(net.register(name)));
                model.open(name);
            }
            1 => match net.try_register(name) {
                Ok(ep) => {
                    assert!(!model.routes.contains_key(name), "try_register took {name}");
                    handles.push(Some(ep));
                    model.open(name);
                }
                Err(e) => {
                    assert!(
                        model.routes.contains_key(name),
                        "try_register refused {name}"
                    );
                    assert_eq!(e, TestbedError::EndpointInUse(name.to_string()));
                }
            },
            2 => {
                net.unregister(name);
                model.routes.remove(name);
            }
            3 if !handles.is_empty() => {
                let h = g.pick(handles.len());
                if handles[h].take().is_some() {
                    let name = model.queues[h].0;
                    if model.routes.get(name) == Some(&Route::Handle(h)) {
                        model.routes.insert(name, Route::Closed);
                    }
                    model.queues[h].1 = None;
                }
            }
            4 | 5 => {
                sent += 1;
                let payload = sent.to_be_bytes().to_vec();
                let got = tx.send(name, payload.clone());
                let want = match (model.routes.get(name), &faults) {
                    (None, _) => Err(TestbedError::NoSuchEndpoint(name.to_string())),
                    (Some(Route::Closed), None) => Err(TestbedError::Disconnected),
                    (Some(_), Some((clock, latency))) => {
                        let at = clock.now() + latency;
                        model.in_flight.push_back((at, name, payload));
                        model.pump(clock.now());
                        Ok(())
                    }
                    (Some(_), None) => {
                        model.arrive(name, payload);
                        Ok(())
                    }
                };
                assert_eq!(got, want, "send to {name}");
            }
            6 => {
                if let Some((clock, _)) = &faults {
                    clock.advance(g.u64_in(0..2));
                    net.pump();
                    model.pump(clock.now());
                }
            }
            _ if !handles.is_empty() => {
                let h = g.pick(handles.len());
                let Some(ep) = &handles[h] else { continue };
                let want = model.recv(h);
                if g.bool() {
                    let got = ep.recv().map(|m| {
                        assert_eq!(m.from, "tx");
                        m.payload
                    });
                    assert_eq!(got, want, "recv on handle {h} ({})", ep.name());
                } else {
                    let got = ep.try_recv().map(|m| m.payload);
                    assert_eq!(got, want.ok(), "try_recv on handle {h} ({})", ep.name());
                }
            }
            _ => {}
        }
        for name in NAMES {
            assert_eq!(net.is_registered(name), model.routes.contains_key(name));
        }
    }
    // Drain everything still in flight, then every live handle holds
    // exactly its model queue.
    if let Some((clock, _)) = &faults {
        clock.advance(1);
        net.pump();
        model.pump(clock.now());
        let stats = net.fault_stats().expect("armed");
        assert_eq!(stats.delivered, model.delivered);
        assert_eq!(stats.dropped, model.dropped);
    }
    for (h, ep) in handles.iter().enumerate() {
        let Some(ep) = ep else { continue };
        let want: Vec<Vec<u8>> = model.queues[h].1.take().expect("live").into();
        let got: Vec<Vec<u8>> = std::iter::from_fn(|| ep.try_recv().map(|m| m.payload)).collect();
        assert_eq!(got, want, "final mailbox of handle {h} ({})", ep.name());
    }
}

#[test]
fn mailboxes_match_the_reference_model() {
    check("net.mailbox_model", 300, run_case);
}
