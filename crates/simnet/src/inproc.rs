//! Threaded in-process transport.
//!
//! The simulator runs protocols deterministically; examples want the real
//! thing — actual threads, blocking handlers, thread policies (paper
//! §3.3.5). This module wires N endpoints all-to-all with unbounded
//! channels; each endpoint either polls with a timeout or spawns a
//! receiver thread that invokes a handler per message.

use std::collections::HashMap;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender};

use crate::node::NodeId;

/// A message as received from the transport.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Incoming {
    /// Sending endpoint.
    pub from: NodeId,
    /// Raw payload.
    pub payload: Vec<u8>,
}

/// One endpoint of a fully connected in-process network.
pub struct Endpoint {
    id: NodeId,
    peers: Arc<HashMap<NodeId, Sender<Incoming>>>,
    rx: Receiver<Incoming>,
}

/// Creates `n` endpoints wired all-to-all.
///
/// ```
/// use psc_simnet::inproc;
///
/// let mut eps = inproc::network(2);
/// let b = eps.pop().unwrap();
/// let a = eps.pop().unwrap();
/// a.send(b.id(), b"hi".to_vec()).unwrap();
/// let msg = b.recv_timeout(std::time::Duration::from_secs(1)).unwrap();
/// assert_eq!(msg.payload, b"hi");
/// assert_eq!(msg.from, a.id());
/// ```
pub fn network(n: usize) -> Vec<Endpoint> {
    let mut senders = HashMap::new();
    let mut receivers = Vec::new();
    for i in 0..n {
        let (tx, rx) = unbounded();
        senders.insert(NodeId(i as u64), tx);
        receivers.push(rx);
    }
    let senders = Arc::new(senders);
    receivers
        .into_iter()
        .enumerate()
        .map(|(i, rx)| Endpoint {
            id: NodeId(i as u64),
            peers: Arc::clone(&senders),
            rx,
        })
        .collect()
}

/// Error returned when sending to an unknown or disconnected endpoint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SendError {
    /// The endpoint the send targeted.
    pub to: NodeId,
}

impl std::fmt::Display for SendError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "endpoint {} is unknown or disconnected", self.to)
    }
}

impl std::error::Error for SendError {}

impl Endpoint {
    /// This endpoint's id.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// Sends `payload` to `to` (self-sends allowed).
    ///
    /// # Errors
    ///
    /// [`SendError`] when the peer does not exist or its receiver is gone.
    pub fn send(&self, to: NodeId, payload: Vec<u8>) -> Result<(), SendError> {
        let sender = self.peers.get(&to).ok_or(SendError { to })?;
        sender
            .send(Incoming {
                from: self.id,
                payload,
            })
            .map_err(|_| SendError { to })
    }

    /// Blocking receive with a timeout.
    ///
    /// # Errors
    ///
    /// Timeout or disconnection.
    pub fn recv_timeout(&self, timeout: Duration) -> Result<Incoming, RecvTimeoutError> {
        self.rx.recv_timeout(timeout)
    }

    /// Consumes the endpoint, spawning a receiver thread that calls
    /// `handler` for every incoming message until all senders disconnect or
    /// [`EndpointHandle::shutdown`] is called. Sending from inside the
    /// handler is possible through the returned handle's
    /// [`EndpointHandle::sender`].
    pub fn spawn_receiver(
        self,
        mut handler: impl FnMut(Incoming) + Send + 'static,
    ) -> EndpointHandle {
        let id = self.id;
        let peers = Arc::clone(&self.peers);
        let (stop_tx, stop_rx) = unbounded::<()>();
        let rx = self.rx;
        let thread = std::thread::Builder::new()
            .name(format!("inproc-{id}"))
            .spawn(move || loop {
                crossbeam::channel::select! {
                    recv(rx) -> msg => match msg {
                        Ok(incoming) => handler(incoming),
                        Err(_) => break,
                    },
                    recv(stop_rx) -> _ => break,
                }
            })
            .expect("spawn inproc receiver thread");
        EndpointHandle {
            id,
            peers,
            stop: stop_tx,
            thread: Some(thread),
        }
    }
}

impl std::fmt::Debug for Endpoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Endpoint")
            .field("id", &self.id)
            .field("peers", &self.peers.len())
            .finish()
    }
}

/// Sending half of an endpoint whose receiver runs on a thread.
#[derive(Clone)]
pub struct EndpointSender {
    id: NodeId,
    peers: Arc<HashMap<NodeId, Sender<Incoming>>>,
}

impl EndpointSender {
    /// This endpoint's id.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// Sends `payload` to `to`.
    ///
    /// # Errors
    ///
    /// [`SendError`] when the peer does not exist or its receiver is gone.
    pub fn send(&self, to: NodeId, payload: Vec<u8>) -> Result<(), SendError> {
        let sender = self.peers.get(&to).ok_or(SendError { to })?;
        sender
            .send(Incoming {
                from: self.id,
                payload,
            })
            .map_err(|_| SendError { to })
    }
}

impl std::fmt::Debug for EndpointSender {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EndpointSender").field("id", &self.id).finish()
    }
}

/// Handle to a spawned receiver thread.
#[derive(Debug)]
pub struct EndpointHandle {
    id: NodeId,
    peers: Arc<HashMap<NodeId, Sender<Incoming>>>,
    stop: Sender<()>,
    thread: Option<JoinHandle<()>>,
}

impl EndpointHandle {
    /// This endpoint's id.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// A cloneable sender usable from any thread (including the handler).
    pub fn sender(&self) -> EndpointSender {
        EndpointSender {
            id: self.id,
            peers: Arc::clone(&self.peers),
        }
    }

    /// Stops the receiver thread and joins it.
    pub fn shutdown(mut self) {
        let _ = self.stop.send(());
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

impl Drop for EndpointHandle {
    fn drop(&mut self) {
        let _ = self.stop.send(());
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}
