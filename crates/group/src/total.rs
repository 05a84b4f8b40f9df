//! Totally ordered broadcast: the paper's *Totally ordered* semantics.
//!
//! "Two notifiables n1 and n2 which deliver two obvents o1 and o2 both
//! deliver o1 and o2 in the same order (subscriber-side order)" (§3.1.2).
//! Implemented with a **fixed sequencer**: the lowest-id member orders all
//! broadcasts with a global sequence number; receivers deliver strictly in
//! sequence. Loss is repaired at three points:
//!
//! - *lost submissions*: publishers retransmit un-sequenced submissions
//!   until they see their own message come back ordered (the sequencer
//!   deduplicates by `(origin, origin_epoch, local_seq)`);
//! - *interior gaps*: a receiver holding back out-of-order messages NACKs
//!   the missing range after a timeout;
//! - *trailing gaps*: the sequencer heartbeats its highest sequence number,
//!   so a receiver that lost the last message discovers the gap.
//!
//! Because one process orders everything and submissions are retried in
//! order, total order here also preserves per-publisher FIFO submission
//! order.
//!
//! State is volatile, so crash–recovery is handled with *incarnation
//! epochs* (see [`MsgId`](crate::dedup::MsgId)):
//!
//! - every `Ordered` message carries the sequencer incarnation's
//!   `seq_epoch`; a receiver follows one sequencer stream at a time and
//!   switches (clearing its hold-back) when a strictly newer stream
//!   appears — a restarted sequencer renumbers from `gseq = 1`;
//! - a **recovered receiver adopts the stream horizon** instead of
//!   NACK-replaying history it already consumed in its previous life: the
//!   first `Ordered` or `Heartbeat` it sees fixes where delivery resumes;
//! - submissions carry the publisher's `origin_epoch`, so a restarted
//!   publisher's `local_seq = 1` cannot be deduplicated against its
//!   pre-crash submissions.
//!
//! A fresh instance (first `on_start`, e.g. a DACE channel created late)
//! does *not* adopt the horizon: it NACKs from the beginning of the stream
//! and catches up on the full history, which is the loss-repair path the
//! engine relies on for channels instantiated after traffic began.

use std::collections::{BTreeMap, HashSet};

use serde::{Deserialize, Serialize};

use psc_codec::WireBytes;
use psc_simnet::{Duration, NodeId};

use crate::io::{decode_msg, encode_msg, GroupIo, Multicast, TimerToken};

const GAP_CHECK: TimerToken = TimerToken(1);
const SUBMIT_RETRY: TimerToken = TimerToken(4);
const HEARTBEAT: TimerToken = TimerToken(5);

const GAP_TIMEOUT: Duration = Duration::from_millis(20);
const SUBMIT_TIMEOUT: Duration = Duration::from_millis(30);
const HEARTBEAT_PERIOD: Duration = Duration::from_millis(50);
/// Idle heartbeats sent after the last sequenced message before the beat
/// pauses (each repairs trailing loss; see `on_timer`).
const IDLE_HEARTBEAT_LIMIT: u32 = 5;

#[derive(Debug, Serialize, Deserialize)]
enum Msg {
    /// Publisher → sequencer: please order this payload.
    Submit {
        origin: NodeId,
        origin_epoch: u64,
        local_seq: u64,
        payload: WireBytes,
    },
    /// Sequencer → everyone: globally ordered message.
    Ordered {
        seq_epoch: u64,
        gseq: u64,
        origin: NodeId,
        origin_epoch: u64,
        local_seq: u64,
        payload: WireBytes,
    },
    /// Receiver → sequencer: retransmit `[from, to]` (inclusive) of stream
    /// `seq_epoch`.
    Nack { seq_epoch: u64, from: u64, to: u64 },
    /// Sequencer → everyone: highest assigned sequence number.
    Heartbeat { seq_epoch: u64, max_gseq: u64 },
}

/// Fixed-sequencer total-order broadcast with NACK-based gap repair.
#[derive(Debug, Default)]
pub struct Total {
    /// This incarnation's epoch; stamps submissions (as `origin_epoch`) and,
    /// when acting as sequencer, the `Ordered` stream (as `seq_epoch`).
    epoch: u64,
    /// True between `on_recover` and the first stream message seen: the
    /// receiver adopts the horizon instead of NACKing history.
    rejoining: bool,
    // -- publisher state --
    next_local: u64,
    /// Submitted but not yet seen ordered: local_seq → payload.
    pending_submits: BTreeMap<u64, WireBytes>,
    submit_timer_armed: bool,
    // -- sequencer state --
    next_gseq: u64,
    history: BTreeMap<u64, (NodeId, u64, u64, WireBytes)>,
    sequenced: HashSet<(NodeId, u64, u64)>,
    heartbeat_armed: bool,
    /// Consecutive heartbeats without new sequencing activity; the beat
    /// stops after [`IDLE_HEARTBEAT_LIMIT`] so an idle group quiesces, and
    /// re-arms on the next sequenced message.
    idle_heartbeats: u32,
    last_heartbeat_gseq: u64,
    // -- receiver state --
    /// Sequencer incarnation whose stream is currently followed.
    seq_epoch: u64,
    next_deliver: u64,
    holdback: BTreeMap<u64, (NodeId, u64, u64, WireBytes)>,
    /// Submissions already delivered, keyed by (origin, origin_epoch,
    /// local_seq) — suppresses re-delivery when a restarted sequencer
    /// re-orders submissions that were already ordered in its previous
    /// stream.
    delivered_keys: HashSet<(NodeId, u64, u64)>,
    gap_timer_armed: bool,
}

impl Total {
    /// Creates a total-order instance.
    pub fn new() -> Self {
        Total {
            next_gseq: 1,
            next_deliver: 1,
            next_local: 1,
            ..Total::default()
        }
    }

    /// The current sequencer: the lowest member id.
    pub fn sequencer(io: &dyn GroupIo) -> Option<NodeId> {
        io.members().iter().min().copied()
    }

    /// Number of messages currently held back (diagnostics).
    pub fn holdback_len(&self) -> usize {
        self.holdback.len()
    }

    /// Number of submissions awaiting sequencing (diagnostics).
    pub fn pending_submits(&self) -> usize {
        self.pending_submits.len()
    }

    fn sequence(
        &mut self,
        io: &mut dyn GroupIo,
        origin: NodeId,
        origin_epoch: u64,
        local_seq: u64,
        payload: WireBytes,
    ) {
        if !self.sequenced.insert((origin, origin_epoch, local_seq)) {
            io.metric("total.duplicate_submits", 1);
            return; // retried submission already ordered
        }
        io.metric("total.sequenced", 1);
        let gseq = self.next_gseq;
        self.next_gseq += 1;
        self.history
            .insert(gseq, (origin, origin_epoch, local_seq, payload.clone()));
        let me = io.self_id();
        let bytes = encode_msg(&Msg::Ordered {
            seq_epoch: self.epoch,
            gseq,
            origin,
            origin_epoch,
            local_seq,
            payload: payload.clone(),
        });
        for member in io.members().to_vec() {
            if member != me {
                io.send(member, bytes.clone());
            }
        }
        if !self.heartbeat_armed {
            self.heartbeat_armed = true;
            self.idle_heartbeats = 0;
            io.set_timer(HEARTBEAT_PERIOD, HEARTBEAT);
        }
        // The sequencer is typically a member too.
        if io.members().contains(&me) {
            self.accept(io, self.epoch, gseq, origin, origin_epoch, local_seq, payload);
        }
    }

    /// Re-synchronizes the receiver with stream `seq_epoch` before ordinary
    /// in-sequence processing; returns `false` when the message belongs to
    /// a stream older than the one being followed.
    fn sync_stream(&mut self, seq_epoch: u64, resume_at: u64) -> bool {
        if self.rejoining {
            // Horizon adoption: whatever this incarnation already consumed
            // died with it — resume at the first point the new life
            // observes instead of replaying the stream from its start.
            self.rejoining = false;
            self.seq_epoch = seq_epoch;
            self.next_deliver = resume_at;
            self.holdback.clear();
            return true;
        }
        if seq_epoch < self.seq_epoch {
            return false; // dead sequencer incarnation
        }
        if seq_epoch > self.seq_epoch {
            // The sequencer restarted and renumbered from 1: follow the new
            // stream; `delivered_keys` keeps re-ordered submissions from
            // being delivered twice.
            self.seq_epoch = seq_epoch;
            self.next_deliver = 1;
            self.holdback.clear();
        }
        true
    }

    #[allow(clippy::too_many_arguments)]
    fn accept(
        &mut self,
        io: &mut dyn GroupIo,
        seq_epoch: u64,
        gseq: u64,
        origin: NodeId,
        origin_epoch: u64,
        local_seq: u64,
        payload: WireBytes,
    ) {
        if origin == io.self_id() && origin_epoch == self.epoch {
            self.pending_submits.remove(&local_seq);
        }
        if !self.sync_stream(seq_epoch, gseq) {
            return;
        }
        if gseq < self.next_deliver {
            return; // duplicate / already delivered
        }
        self.holdback
            .insert(gseq, (origin, origin_epoch, local_seq, payload));
        while let Some((origin, origin_epoch, local_seq, payload)) =
            self.holdback.remove(&self.next_deliver)
        {
            self.next_deliver += 1;
            if self.delivered_keys.insert((origin, origin_epoch, local_seq)) {
                io.deliver(origin, payload);
            }
        }
        // A hole ahead of us: arm the gap check.
        if !self.holdback.is_empty() && !self.gap_timer_armed {
            self.gap_timer_armed = true;
            io.set_timer(GAP_TIMEOUT, GAP_CHECK);
        }
    }

    fn submit(&mut self, io: &mut dyn GroupIo, local_seq: u64, payload: WireBytes) {
        let me = io.self_id();
        match Total::sequencer(io) {
            Some(seq_node) if seq_node == me => {
                self.sequence(io, me, self.epoch, local_seq, payload)
            }
            Some(seq_node) => {
                io.send(
                    seq_node,
                    encode_msg(&Msg::Submit {
                        origin: me,
                        origin_epoch: self.epoch,
                        local_seq,
                        payload,
                    }),
                );
            }
            None => { /* no members: nothing to do */ }
        }
    }

    /// The submission identity inside `bytes`, if it is a payload-carrying
    /// frame (snapshot in-flight recording). Both the submit leg and the
    /// ordered leg carry the same `(origin, origin_epoch, local_seq)`
    /// identity; NACKs and heartbeats are control traffic.
    pub(crate) fn peek_id(bytes: &[u8]) -> Option<crate::dedup::MsgId> {
        match decode_msg::<Msg>(bytes)? {
            Msg::Submit {
                origin,
                origin_epoch,
                local_seq,
                ..
            }
            | Msg::Ordered {
                origin,
                origin_epoch,
                local_seq,
                ..
            } => Some(crate::dedup::MsgId {
                origin,
                epoch: origin_epoch,
                seq: local_seq,
            }),
            Msg::Nack { .. } | Msg::Heartbeat { .. } => None,
        }
    }

    fn nack(&self, io: &mut dyn GroupIo, from: u64, to: u64) {
        if let Some(seq_node) = Total::sequencer(io) {
            if seq_node != io.self_id() {
                io.metric("total.nacks", 1);
                io.send(
                    seq_node,
                    encode_msg(&Msg::Nack {
                        seq_epoch: self.seq_epoch,
                        from,
                        to,
                    }),
                );
            }
        }
    }
}

impl Multicast for Total {
    fn broadcast(&mut self, io: &mut dyn GroupIo, payload: WireBytes) {
        io.metric("total.broadcasts", 1);
        let local_seq = self.next_local;
        self.next_local += 1;
        let me = io.self_id();
        if Total::sequencer(io) != Some(me) {
            self.pending_submits.insert(local_seq, payload.clone());
            if !self.submit_timer_armed {
                self.submit_timer_armed = true;
                io.set_timer(SUBMIT_TIMEOUT, SUBMIT_RETRY);
            }
        }
        self.submit(io, local_seq, payload);
    }

    fn on_message(&mut self, io: &mut dyn GroupIo, from: NodeId, bytes: &[u8]) {
        let Some(msg) = decode_msg::<Msg>(bytes) else {
            return;
        };
        match msg {
            Msg::Submit {
                origin,
                origin_epoch,
                local_seq,
                payload,
            } => {
                let me = io.self_id();
                if Total::sequencer(io) == Some(me) {
                    self.sequence(io, origin, origin_epoch, local_seq, payload);
                } else if let Some(seq_node) = Total::sequencer(io) {
                    // Not the sequencer (e.g. after a membership change):
                    // forward.
                    io.send(
                        seq_node,
                        encode_msg(&Msg::Submit {
                            origin,
                            origin_epoch,
                            local_seq,
                            payload,
                        }),
                    );
                }
            }
            Msg::Ordered {
                seq_epoch,
                gseq,
                origin,
                origin_epoch,
                local_seq,
                payload,
            } => self.accept(io, seq_epoch, gseq, origin, origin_epoch, local_seq, payload),
            Msg::Nack {
                seq_epoch,
                from: lo,
                to: hi,
            } => {
                if seq_epoch != self.epoch {
                    return; // NACK for a stream this incarnation did not order
                }
                io.metric("total.nack_repairs", 1);
                for gseq in lo..=hi {
                    if let Some((origin, origin_epoch, local_seq, payload)) =
                        self.history.get(&gseq)
                    {
                        let bytes = encode_msg(&Msg::Ordered {
                            seq_epoch: self.epoch,
                            gseq,
                            origin: *origin,
                            origin_epoch: *origin_epoch,
                            local_seq: *local_seq,
                            payload: payload.clone(),
                        });
                        io.send(from, bytes);
                    }
                }
            }
            Msg::Heartbeat { seq_epoch, max_gseq } => {
                if !self.sync_stream(seq_epoch, max_gseq + 1) {
                    return;
                }
                // Trailing gap: we have not even seen max_gseq yet.
                if max_gseq >= self.next_deliver && !self.holdback.contains_key(&max_gseq) {
                    self.nack(io, self.next_deliver, max_gseq);
                }
            }
        }
    }

    fn on_timer(&mut self, io: &mut dyn GroupIo, token: TimerToken) {
        match token {
            GAP_CHECK => {
                self.gap_timer_armed = false;
                if self.holdback.is_empty() {
                    return;
                }
                let highest_held = *self.holdback.keys().next_back().expect("non-empty");
                self.nack(io, self.next_deliver, highest_held);
                self.gap_timer_armed = true;
                io.set_timer(GAP_TIMEOUT, GAP_CHECK);
            }
            SUBMIT_RETRY => {
                self.submit_timer_armed = false;
                if self.pending_submits.is_empty() {
                    return;
                }
                for (local_seq, payload) in self.pending_submits.clone() {
                    self.submit(io, local_seq, payload);
                }
                self.submit_timer_armed = true;
                io.set_timer(SUBMIT_TIMEOUT, SUBMIT_RETRY);
            }
            HEARTBEAT => {
                self.heartbeat_armed = false;
                if self.next_gseq <= 1 {
                    return;
                }
                let me = io.self_id();
                if Total::sequencer(io) != Some(me) {
                    return; // lost sequencer role
                }
                let max_gseq = self.next_gseq - 1;
                if max_gseq == self.last_heartbeat_gseq {
                    self.idle_heartbeats += 1;
                } else {
                    self.idle_heartbeats = 0;
                    self.last_heartbeat_gseq = max_gseq;
                }
                io.metric("total.heartbeats", 1);
                let bytes = encode_msg(&Msg::Heartbeat {
                    seq_epoch: self.epoch,
                    max_gseq,
                });
                for member in io.members().to_vec() {
                    if member != me {
                        io.send(member, bytes.clone());
                    }
                }
                // A few idle beats flush trailing gaps; then go quiet until
                // the next sequenced message (liveness for quiescence).
                if self.idle_heartbeats < IDLE_HEARTBEAT_LIMIT {
                    self.heartbeat_armed = true;
                    io.set_timer(HEARTBEAT_PERIOD, HEARTBEAT);
                }
            }
            _ => {}
        }
    }

    fn on_start(&mut self, io: &mut dyn GroupIo) {
        self.epoch = io.now().as_millis();
    }

    fn on_recover(&mut self, io: &mut dyn GroupIo) {
        self.epoch = io.now().as_millis();
        self.rejoining = true;
    }

    fn capture(&mut self, _io: &mut dyn GroupIo) -> psc_snapshot::ProtoCapture {
        let mut cap = psc_snapshot::ProtoCapture::new(self.proto_name());
        cap.epoch = self.epoch;
        cap.next_seq = self.next_local.saturating_sub(1);
        cap.pending = (self.holdback_len() + self.pending_submits()) as u64;
        cap.extra.push(("delivered".to_string(), self.delivered_keys.len() as u64));
        cap.extra.push(("next_deliver".to_string(), self.next_deliver));
        cap.extra.push(("next_gseq".to_string(), self.next_gseq));
        cap.extra.push(("seq_epoch".to_string(), self.seq_epoch));
        cap.normalize();
        cap
    }

    fn proto_name(&self) -> &'static str {
        "total"
    }

    fn queue_depths(&self) -> Vec<(&'static str, u64)> {
        vec![
            ("total.holdback", self.holdback_len() as u64),
            ("total.pending_submits", self.pending_submits() as u64),
        ]
    }

    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}
