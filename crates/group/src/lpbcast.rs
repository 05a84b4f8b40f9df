//! Lightweight probabilistic broadcast (gossip), after [EGH+01].
//!
//! DACE's scalable substrate: "primitives with weaker guarantees but strong
//! focus on scalability … gossip-based protocols, e.g. [EGH+01]" (§4.2).
//! Each process buffers recently seen events and, every gossip period,
//! pushes its buffer to `fanout` randomly chosen members. Events carry a
//! hop-limited round counter; the buffer is bounded, evicting oldest events
//! first. Delivery is probabilistic: with fanout ≈ ln(n) + c the delivery
//! ratio approaches 1 — experiment E4 sweeps exactly that trade-off.

use std::collections::HashSet;

use rand::seq::SliceRandom;
use serde::{Deserialize, Serialize};

use psc_codec::WireBytes;
use psc_simnet::{Duration, NodeId};

use crate::io::{decode_msg, encode_msg, GroupIo, Multicast, TimerToken};
use crate::dedup::MsgId;

const GOSSIP: TimerToken = TimerToken(3);

/// Tuning parameters of [`Lpbcast`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LpbcastConfig {
    /// Number of members gossiped to per round.
    pub fanout: usize,
    /// Gossip period.
    pub interval: Duration,
    /// Rounds an event stays in the buffer (hop limit).
    pub rounds: u32,
    /// Maximum buffered events; oldest evicted beyond this.
    pub max_buffer: usize,
}

impl Default for LpbcastConfig {
    fn default() -> Self {
        LpbcastConfig {
            fanout: 4,
            interval: Duration::from_millis(10),
            rounds: 8,
            max_buffer: 256,
        }
    }
}

#[derive(Debug, Clone, Serialize, Deserialize)]
struct Event {
    id: MsgId,
    rounds_left: u32,
    payload: WireBytes,
}

#[derive(Debug, Serialize, Deserialize)]
struct Gossip {
    events: Vec<Event>,
}

/// Push-gossip probabilistic broadcast with a bounded event buffer.
#[derive(Debug)]
pub struct Lpbcast {
    config: LpbcastConfig,
    /// This incarnation's epoch (see [`MsgId`]).
    epoch: u64,
    next_seq: u64,
    seen: HashSet<MsgId>,
    buffer: Vec<Event>,
}

impl Lpbcast {
    /// Creates an instance with the given tuning.
    pub fn new(config: LpbcastConfig) -> Self {
        Lpbcast {
            config,
            epoch: 0,
            next_seq: 0,
            seen: HashSet::new(),
            buffer: Vec::new(),
        }
    }

    /// Current buffer occupancy (diagnostics).
    pub fn buffer_len(&self) -> usize {
        self.buffer.len()
    }

    fn buffer_event(&mut self, event: Event) {
        if event.rounds_left == 0 {
            return;
        }
        if self.buffer.len() >= self.config.max_buffer {
            // Evict the oldest (front) — [EGH+01]'s bounded buffers.
            self.buffer.remove(0);
        }
        self.buffer.push(event);
    }

    fn gossip_round(&mut self, io: &mut dyn GroupIo) {
        if !self.buffer.is_empty() {
            io.metric("lpbcast.gossip_rounds", 1);
            let me = io.self_id();
            let mut others: Vec<NodeId> =
                io.members().iter().copied().filter(|&m| m != me).collect();
            let fanout = self.config.fanout.min(others.len());
            // Partial-view selection: `fanout` random targets per round.
            others.shuffle(io.rng());
            let targets: Vec<NodeId> = others.into_iter().take(fanout).collect();
            let bytes = encode_msg(&Gossip {
                events: self.buffer.clone(),
            });
            for target in targets {
                io.send(target, bytes.clone());
            }
            // Age out events.
            for event in &mut self.buffer {
                event.rounds_left = event.rounds_left.saturating_sub(1);
            }
            self.buffer.retain(|e| e.rounds_left > 0);
        }
        io.set_timer(self.config.interval, GOSSIP);
    }
}

impl Multicast for Lpbcast {
    fn broadcast(&mut self, io: &mut dyn GroupIo, payload: WireBytes) {
        io.metric("lpbcast.broadcasts", 1);
        let me = io.self_id();
        self.next_seq += 1;
        let id = MsgId {
            origin: me,
            epoch: self.epoch,
            seq: self.next_seq,
        };
        self.seen.insert(id);
        self.buffer_event(Event {
            id,
            rounds_left: self.config.rounds,
            payload: payload.clone(),
        });
        if io.members().contains(&me) {
            io.deliver(me, payload);
        }
    }

    fn on_message(&mut self, io: &mut dyn GroupIo, _from: NodeId, bytes: &[u8]) {
        let Some(gossip) = decode_msg::<Gossip>(bytes) else {
            return;
        };
        for event in gossip.events {
            if !self.seen.insert(event.id) {
                io.metric("lpbcast.duplicates", 1);
                continue;
            }
            io.deliver(event.id.origin, event.payload.clone());
            self.buffer_event(Event {
                rounds_left: event.rounds_left.saturating_sub(1),
                ..event
            });
        }
    }

    fn on_timer(&mut self, io: &mut dyn GroupIo, token: TimerToken) {
        if token == GOSSIP {
            self.gossip_round(io);
        }
    }

    fn on_start(&mut self, io: &mut dyn GroupIo) {
        self.epoch = io.now().as_millis();
        io.set_timer(self.config.interval, GOSSIP);
    }

    fn on_recover(&mut self, io: &mut dyn GroupIo) {
        self.epoch = io.now().as_millis();
        io.set_timer(self.config.interval, GOSSIP);
    }

    fn proto_name(&self) -> &'static str {
        "lpbcast"
    }

    fn queue_depths(&self) -> Vec<(&'static str, u64)> {
        vec![("lpbcast.buffer", self.buffer_len() as u64)]
    }

    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}
