//! Causally ordered broadcast: the paper's *Causally ordered* semantics.
//!
//! "This type of obvents are delivered in the order they are published, as
//! determined by the happens-before relationship [Lam78]" (§3.1.2). The
//! classic vector-clock construction: each broadcast carries the origin's
//! vector clock; a receiver holds a message from origin `j` back until it
//! has delivered (a) `j`'s previous broadcast and (b) every broadcast that
//! happened-before it at other processes. It is a hold-back policy over the
//! reliable delivery layer ([`Eager`](crate::reliable::Eager)), since causal
//! order subsumes reliability in the paper's lattice (`CausalOrder extends
//! FIFOOrder extends Reliable`); relay, retransmission and bounded
//! duplicate suppression are the layer's.
//!
//! Clock entries are tagged with the counted process's *incarnation epoch*
//! (see [`MsgId`]): a crashed process loses its counters, so its next
//! incarnation restarts at 1 under a strictly greater epoch. Receivers
//! treat a dependency on a dead incarnation as *severed* — messages of an
//! abandoned incarnation that never arrived are permanently lost in a
//! volatile protocol, and waiting for them would block the new incarnation
//! forever.
//!
//! Where a member's part of a stream starts is the layer's rule, as under
//! FIFO: a member the origin starts addressing mid-epoch learns its first
//! owed seq from the frame's start list ([`Receipt::start`]), and its
//! clock counts the earlier seqs as delivered. Two gaps remain:
//! a dependency on what a quiet *other* publisher sent before the member
//! joined is held until that publisher speaks again, and a receiver
//! restarted after a crash waits for seq 1 of every stream that began
//! before its recovery (FIFO adopts the first frame instead; a causal
//! receiver cannot, without delivering a message whose predecessors it
//! never had).

use std::collections::HashMap;

use serde::{Deserialize, Serialize};

use psc_codec::WireBytes;
use psc_simnet::NodeId;
use psc_snapshot::ProtoCapture;

use crate::dedup::{Delivered, MsgId};
use crate::io::GroupIo;
use crate::reliable::{Eager, HoldBack, Outbox, Receipt};

/// Vector-clock causal broadcast over the reliable delivery layer.
pub type Causal = Eager<CausalHoldBack>;

/// One component of an epoch-tagged vector clock: `count` broadcasts
/// delivered from `node`'s incarnation `epoch`.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
struct ClockEntry {
    node: NodeId,
    epoch: u64,
    count: u64,
}

/// What a causal broadcast carries besides its id.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct CausalHeader {
    /// Causal dependencies on processes other than the origin; the origin
    /// component is the id itself (`id.epoch`/`id.seq`).
    deps: Vec<ClockEntry>,
}

#[derive(Debug)]
struct Pending {
    id: MsgId,
    deps: Vec<ClockEntry>,
    payload: WireBytes,
}

/// Causal hold-back; see the module docs.
#[derive(Debug, Default)]
pub struct CausalHoldBack {
    /// Latest delivered broadcast per origin: (incarnation epoch, counter
    /// within that incarnation).
    delivered: HashMap<NodeId, (u64, u64)>,
    /// Messages awaiting their causal predecessors.
    pending: Vec<Pending>,
}

impl Causal {
    /// Number of messages currently held back (diagnostics).
    pub fn pending_len(&self) -> usize {
        self.order.pending.len()
    }
}

impl CausalHoldBack {
    /// True when `msg` is deliverable given the local delivered-clock.
    fn deliverable(&self, msg: &Pending) -> bool {
        // Origin component: the next message of the incarnation we are
        // tracking — or the first message of a newer incarnation, which
        // severs the (unrecoverable) tail of the old one.
        let (le, lc) = *self.delivered.get(&msg.id.origin).unwrap_or(&(0, 0));
        let origin_ok =
            (msg.id.epoch == le && msg.id.seq == lc + 1) || (msg.id.epoch > le && msg.id.seq == 1);
        if !origin_ok {
            return false;
        }
        // Other components: satisfied once we delivered at least as much of
        // that incarnation, or once that incarnation is already superseded
        // locally (its undelivered tail is lost for good).
        msg.deps.iter().all(|dep| {
            let (le, lc) = *self.delivered.get(&dep.node).unwrap_or(&(0, 0));
            dep.epoch < le || (dep.epoch == le && dep.count <= lc)
        })
    }
}

impl HoldBack for CausalHoldBack {
    type Header = CausalHeader;
    const NAME: &'static str = "causal";

    fn stamp(&mut self, id: MsgId, _targets: &[NodeId]) -> CausalHeader {
        // Dependencies: everything delivered here from other processes.
        let deps = self
            .delivered
            .iter()
            .filter(|&(&node, _)| node != id.origin)
            .map(|(&node, &(epoch, count))| ClockEntry { node, epoch, count })
            .collect();
        CausalHeader { deps }
    }

    fn accept(
        &mut self,
        io: &mut dyn GroupIo,
        _: &mut Outbox<CausalHeader>,
        receipt: Receipt<CausalHeader>,
        _: &mut Delivered,
    ) {
        let Receipt {
            id,
            start,
            header,
            payload,
        } = receipt;
        if let Some(first) = start {
            let (le, lc) = *self.delivered.get(&id.origin).unwrap_or(&(0, 0));
            if id.epoch > le || (id.epoch == le && lc + 1 < first) {
                // Seqs below the start were never sent here.
                self.delivered.insert(id.origin, (id.epoch, first - 1));
                self.pending.retain(|p| {
                    p.id.origin != id.origin || p.id.epoch != id.epoch || p.id.seq >= first
                });
            }
        }
        let msg = Pending {
            id,
            deps: header.deps,
            payload,
        };
        if !self.deliverable(&msg) {
            io.metric("causal.held_back", 1);
        }
        self.pending.push(msg);
        // Drain everything that became deliverable, to fixpoint.
        while let Some(pos) = self.pending.iter().position(|p| self.deliverable(p)) {
            let msg = self.pending.swap_remove(pos);
            self.delivered
                .insert(msg.id.origin, (msg.id.epoch, msg.id.seq));
            io.deliver(msg.id.origin, msg.payload);
        }
        // Drop stragglers of incarnations we have already moved past; they
        // can never become deliverable.
        let delivered = &self.delivered;
        self.pending.retain(|p| {
            delivered
                .get(&p.id.origin)
                .is_none_or(|&(le, _)| p.id.epoch >= le)
        });
    }

    fn capture(&self, cap: &mut ProtoCapture) {
        cap.watermarks = self
            .delivered
            .iter()
            .map(|(&node, &(epoch, count))| (node.0, epoch, count))
            .collect();
        cap.pending = self.pending.len() as u64;
    }

    fn queue_depths(&self, depths: &mut Vec<(&'static str, u64)>) {
        depths.push(("causal.pending", self.pending.len() as u64));
    }
}
