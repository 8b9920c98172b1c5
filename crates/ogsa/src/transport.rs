//! Message transports connecting OGSA clients to hosting environments.
//!
//! * [`InProcessTransport`] — direct function call into a shared hosting
//!   environment (single-threaded benches and tests).
//! * [`NetworkTransport`] — request/response over the `gridsec-testbed`
//!   message network; pair with a [`ServeTask`] running the environment
//!   behind an endpoint (multi-host scenarios, GRAM). Assumes a perfect
//!   network: one send, one reply.
//! * [`RetryTransport`] / [`RpcService`] — the fault-tolerant pair:
//!   requests ride the at-most-once RPC layer
//!   ([`gridsec_testbed::rpc`]), so lost envelopes are retransmitted
//!   with exponential backoff and duplicated ones are answered from the
//!   server's reply cache instead of re-executing a (stateful) OGSA
//!   operation like `createService`.

use std::cell::RefCell;
use std::rc::Rc;

use gridsec_testbed::net::{Endpoint, Network};
use gridsec_testbed::rpc::{RpcCallStats, RpcClient, RpcServer};
use gridsec_testbed::sched::{Step, Task, TaskCx};
use gridsec_util::retry::RetryPolicy;
use gridsec_util::trace;

use crate::hosting::HostingEnvironment;
use crate::OgsaError;

/// Moves one serialized envelope to the service and returns the reply.
pub trait Transport {
    /// Perform one request/response exchange.
    fn call(&mut self, request_xml: String) -> Result<String, OgsaError>;
}

/// Direct dispatch into a locally-shared hosting environment.
#[derive(Clone)]
pub struct InProcessTransport {
    env: Rc<RefCell<HostingEnvironment>>,
}

impl InProcessTransport {
    /// Wrap a hosting environment for in-process calls.
    pub fn new(env: Rc<RefCell<HostingEnvironment>>) -> Self {
        InProcessTransport { env }
    }
}

impl Transport for InProcessTransport {
    fn call(&mut self, request_xml: String) -> Result<String, OgsaError> {
        Ok(self.env.borrow_mut().handle_message(&request_xml))
    }
}

/// Request/response over the simulated network. Each call sends to the
/// server endpoint and takes the reply: the one already queued (an
/// empty mailbox is a timeout, see
/// [`Endpoint::recv`][gridsec_testbed::net::Endpoint::recv]) or, with
/// [`NetworkTransport::set_pump`], the one that lands while the call
/// drives a scheduler.
pub struct NetworkTransport {
    endpoint: Endpoint,
    server: String,
    pump: Option<Box<dyn FnMut() -> usize>>,
}

impl NetworkTransport {
    /// Register `client_name` on the network and target `server`.
    pub fn connect(network: &Network, client_name: &str, server: &str) -> Self {
        NetworkTransport {
            endpoint: network.register(client_name),
            server: server.to_string(),
            pump: None,
        }
    }

    /// Install a pump hook (typically `|| scheduler.poll()`): each call
    /// drives the hook until the reply lands, so a [`ServeTask`] scheduled
    /// on the same thread answers inside the client's wait. A quiescent
    /// pump with no reply surfaces as a transport timeout, not a hang.
    pub fn set_pump(&mut self, hook: impl FnMut() -> usize + 'static) {
        self.pump = Some(Box::new(hook));
    }
}

impl Transport for NetworkTransport {
    fn call(&mut self, request_xml: String) -> Result<String, OgsaError> {
        self.endpoint
            .send(&self.server, request_xml.into_bytes())
            .map_err(|e| OgsaError::Transport(e.to_string()))?;
        let reply = match &mut self.pump {
            None => self.endpoint.recv(),
            Some(pump) => loop {
                if let Some(m) = self.endpoint.try_recv() {
                    break Ok(m);
                }
                if pump() == 0 {
                    break Err(gridsec_testbed::TestbedError::Timeout);
                }
            },
        }
        .map_err(|e| OgsaError::Transport(e.to_string()))?;
        String::from_utf8(reply.payload).map_err(|_| OgsaError::Transport("non-UTF8".into()))
    }
}

/// [`NetworkTransport`] hardened for a faulty network: each envelope is
/// an RPC call with retransmission, exponential backoff, and duplicate
/// suppression. Pair with [`RpcService`] on the server side.
pub struct RetryTransport {
    rpc: RpcClient,
}

impl RetryTransport {
    /// Register `client_name` on the network and target the RPC server
    /// at `server`, retrying per `policy`.
    pub fn connect(
        network: &Network,
        client_name: &str,
        server: &str,
        policy: RetryPolicy,
    ) -> Self {
        RetryTransport {
            rpc: RpcClient::new(network.register(client_name), server, policy),
        }
    }

    /// Install the wait-loop pump hook (see
    /// [`RpcClient::set_pump`]): single-threaded scenarios poll their
    /// [`RpcService`]s here so server work happens inside the client's
    /// retry loop, deterministically.
    pub fn set_pump(&mut self, hook: impl FnMut() -> usize + 'static) {
        self.rpc.set_pump(hook);
    }

    /// Retransmission/timeout counters for this transport.
    pub fn stats(&self) -> RpcCallStats {
        self.rpc.stats()
    }
}

impl Transport for RetryTransport {
    fn call(&mut self, request_xml: String) -> Result<String, OgsaError> {
        let mut sp = trace::span_with("ogsa.envelope", &format!("bytes={}", request_xml.len()));
        trace::add("ogsa.envelopes", 1);
        let result = self
            .rpc
            .call(request_xml.as_bytes())
            .map_err(|e| OgsaError::Transport(e.to_string()))
            .and_then(|reply| {
                String::from_utf8(reply).map_err(|_| OgsaError::Transport("non-UTF8".into()))
            });
        if let Err(e) = &result {
            sp.fail(&e.to_string());
        }
        result
    }
}

/// A hosting environment served behind an at-most-once RPC endpoint.
/// Poll it from the client's pump hook (single-threaded scenarios) or a
/// dedicated loop. The shared `Rc<RefCell<..>>` environment means test
/// scaffolding can still reach in (advance clocks, inspect state)
/// between polls.
pub struct RpcService {
    server: RpcServer,
    env: Rc<RefCell<HostingEnvironment>>,
}

impl RpcService {
    /// Serve `env` behind `endpoint_name` on `network`.
    pub fn new(
        network: &Network,
        endpoint_name: &str,
        env: Rc<RefCell<HostingEnvironment>>,
    ) -> Self {
        RpcService {
            server: RpcServer::new(network.register(endpoint_name)),
            env,
        }
    }

    /// Answer every queued request frame; returns how many were
    /// answered (cache hits included).
    pub fn poll(&mut self) -> usize {
        let env = &self.env;
        self.server.poll(&mut |from, body| {
            let _sp = trace::span_with("ogsa.dispatch", &format!("from={from}"));
            let request = String::from_utf8_lossy(body).into_owned();
            env.borrow_mut().handle_message(&request).into_bytes()
        })
    }
}

/// An [`RpcService`] is a natural discrete-event task: drain the
/// mailbox, then park until the next delivery. Spawn it with
/// [`Scheduler::spawn_mailbox`][gridsec_testbed::sched::Scheduler::spawn_mailbox]
/// under its endpoint name so deliveries wake it.
impl Task for RpcService {
    fn step(&mut self, _cx: &TaskCx) -> Step {
        self.poll();
        Step::WaitMail { deadline: None }
    }
}

/// A hosting environment behind a network endpoint, as a resumable
/// discrete-event task: answer each raw envelope from the mailbox, then
/// park until the next delivery. Spawn
/// with
/// [`Scheduler::spawn_mailbox`][gridsec_testbed::sched::Scheduler::spawn_mailbox]
/// under the endpoint name. Unlike [`RpcService`] this speaks bare
/// envelopes (no RPC framing), matching what [`NetworkTransport`] and
/// WS-Routing intermediaries send.
pub struct ServeTask {
    endpoint: Endpoint,
    env: HostingEnvironment,
}

impl ServeTask {
    /// Serve `env` behind `endpoint_name` on `network`.
    pub fn new(network: &Network, endpoint_name: &str, env: HostingEnvironment) -> Self {
        ServeTask {
            endpoint: network.register(endpoint_name),
            env,
        }
    }
}

impl Task for ServeTask {
    fn step(&mut self, _cx: &TaskCx) -> Step {
        while let Some(msg) = self.endpoint.try_recv() {
            let request = String::from_utf8_lossy(&msg.payload).into_owned();
            let reply = self.env.handle_message(&request);
            let _ = self.endpoint.send(&msg.from, reply.into_bytes());
        }
        Step::WaitMail { deadline: None }
    }
}
