//! Totally ordered broadcast: the paper's *Totally ordered* semantics.
//!
//! "Two notifiables n1 and n2 which deliver two obvents o1 and o2 both
//! deliver o1 and o2 in the same order (subscriber-side order)" (§3.1.2).
//! Implemented with a **fixed sequencer**, the lowest-id member, as an
//! ordering policy over the reliable delivery layer
//! ([`Eager`](crate::reliable::Eager)), as Fig. 4's `TotalOrder extends
//! Reliable` has it:
//!
//! - a publisher's *submission* is a layer frame addressed to the
//!   sequencer alone;
//! - the sequencer takes each origin's submissions in that origin's order
//!   and *orders* each one as a frame of its own stream, addressed to every
//!   other member; the frame's seq is the global sequence number;
//! - receivers release the sequencer's stream in seq order.
//!
//! Both legs are frames of their origin's `(origin, epoch, seq)` stream,
//! and one per-origin FIFO release ([`Streams`]) serves both: submissions
//! at the sequencer, ordered frames everywhere. The layer's origin keeps
//! every frame until its targets acknowledged it, which repairs loss on
//! either leg, and frames are not relayed: one origin reaches each target.
//! Because the sequencer orders each origin's submissions in publish
//! order, total order here also preserves per-publisher FIFO order.
//!
//! Where a stream starts is the layer's rule and FIFO's (a frame's start
//! list names a late member's first owed seq; a receiver recovered from a
//! crash adopts the first ordered frame it sees of a stream that began
//! earlier, never replaying history its previous life consumed). A
//! submission's list, which [`address`](HoldBack::address) supplies, names
//! the sequencer's own start: the publisher's oldest frame still
//! unacknowledged, or the seq the sequencer is first owed. A restarted
//! sequencer therefore orders the submissions its previous incarnation did
//! not acknowledge, and renumbers from seq 1 under a new epoch; receivers
//! follow the new stream, and the ids of the submissions delivered here
//! keep one ordered twice from being delivered twice. Sequencer crashes
//! are nonetheless outside total order's volatile contract: two survivors
//! may see different prefixes of the old stream.
//!
//! A member that receives a submission orders it, sequencer or not: while
//! a membership change hands the role over, two streams interleave and
//! only each one's order is agreed on.

use serde::{Deserialize, Serialize};

use psc_codec::WireBytes;
use psc_simnet::NodeId;
use psc_snapshot::ProtoCapture;

use crate::dedup::{Dedup, Delivered, MsgId};
use crate::fifo::Streams;
use crate::io::GroupIo;
use crate::reliable::{others, Eager, HoldBack, Joins, Outbox, Outgoing, Receipt, Starts};

/// Fixed-sequencer total-order broadcast over the reliable delivery layer.
pub type Total = Eager<TotalHoldBack>;

/// What a total-order frame carries besides its id.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct TotalHeader {
    /// The submission an ordered frame orders; `None` on a submission.
    ordered: Option<MsgId>,
}

/// A released frame: the submission it carries, and whether it is the
/// sequencer's ordering of it.
type Released = (MsgId, bool, WireBytes);

/// Total-order policy; see the module docs.
#[derive(Debug, Default)]
pub struct TotalHoldBack {
    /// Every origin's frames to this member, in stream order.
    streams: Streams<Released>,
    /// The submissions delivered here.
    delivered: Dedup,
}

impl TotalHoldBack {
    /// Hands `submission` to the application unless it was delivered here
    /// already. An origin's submissions are ordered in its publish order,
    /// so everything before it is delivered or never will be.
    fn deliver(delivered: &mut Dedup, io: &mut dyn GroupIo, submission: MsgId, payload: WireBytes) {
        let seen: &mut Delivered = delivered.stream(submission);
        seen.skip_to(submission.seq.saturating_sub(1));
        if seen.insert(submission.seq) {
            io.deliver(submission.origin, payload);
        } else {
            io.metric("total.duplicates", 1);
        }
    }
}

impl HoldBack for TotalHoldBack {
    type Header = TotalHeader;
    const NAME: &'static str = "total";
    const RELAY: bool = false;

    fn address(
        &mut self,
        me: NodeId,
        members: &[NodeId],
        id: MsgId,
        out: &mut Outbox<TotalHeader>,
    ) -> (Vec<NodeId>, Starts, TotalHeader) {
        match members.iter().min() {
            Some(&sequencer) if sequencer != me => {
                let targets = vec![sequencer];
                let owed = Joins::start_of(&out.starts(id.seq, &targets), sequencer);
                let since = out
                    .oldest_unacked()
                    .unwrap_or(id.seq)
                    .max(owed.unwrap_or(0));
                (
                    targets,
                    vec![(sequencer, since)],
                    TotalHeader { ordered: None },
                )
            }
            _ => {
                // The sequencer's own publish is ordered as it is sent.
                let targets = others(me, members);
                let starts = out.starts(id.seq, &targets);
                (targets, starts, TotalHeader { ordered: Some(id) })
            }
        }
    }

    fn accept(
        &mut self,
        io: &mut dyn GroupIo,
        out: &mut Outbox<TotalHeader>,
        receipt: Receipt<TotalHeader>,
        seen: &mut Delivered,
    ) {
        let Receipt {
            id,
            start,
            header,
            payload,
        } = receipt;
        let me = io.self_id();
        if id.origin == me {
            // Own broadcast: the sequencer's is in order by construction;
            // a submission waits for its ordered copy.
            if let Some(submission) = header.ordered {
                Self::deliver(&mut self.delivered, io, submission, payload);
            }
            return;
        }
        let ordered = header.ordered.is_some();
        let item = (header.ordered.unwrap_or(id), ordered, payload);
        let Self { streams, delivered } = self;
        let release = |(submission, ordered, payload): Released| {
            if ordered {
                Self::deliver(delivered, io, submission, payload);
                return;
            }
            io.metric("total.sequenced", 1);
            let id = out.next_id(me);
            let targets = others(me, io.members());
            let starts = out.starts(id.seq, &targets);
            let header = TotalHeader {
                ordered: Some(submission),
            };
            out.send(
                io,
                id,
                Outgoing::new(starts, header, payload.clone(), targets),
                false,
            );
            if io.members().contains(&me) {
                Self::deliver(delivered, io, submission, payload);
            }
        };
        // Only the ordered stream adopts a horizon after a recovery; a
        // submission names its start.
        if streams.accept(id, start, ordered, item, seen, release) {
            io.metric("total.out_of_order", 1);
        }
    }

    fn data_id(id: MsgId, header: &TotalHeader) -> MsgId {
        header.ordered.unwrap_or(id)
    }

    fn on_recover(&mut self, epoch: u64) {
        self.streams.recovered_at = Some(epoch);
    }

    fn capture(&self, cap: &mut ProtoCapture) {
        cap.watermarks = self.streams.watermarks();
        cap.pending = self.streams.held() as u64;
    }

    fn queue_depths(&self, depths: &mut Vec<(&'static str, u64)>) {
        depths.push(("total.holdback", self.streams.held() as u64));
    }
}

#[cfg(test)]
mod tests {
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    use psc_simnet::{Duration, ScopedStorage, SimTime, Storage};

    use super::*;
    use crate::io::{Multicast, TimerToken};

    const MEMBERS: [NodeId; 3] = [NodeId(0), NodeId(1), NodeId(2)];

    /// One member of a 3-node group that records what it sends.
    struct Member {
        me: NodeId,
        sent: Vec<(NodeId, WireBytes)>,
        storage: Storage,
        rng: StdRng,
    }

    impl GroupIo for Member {
        fn self_id(&self) -> NodeId {
            self.me
        }
        fn members(&self) -> &[NodeId] {
            &MEMBERS
        }
        fn now(&self) -> SimTime {
            SimTime::ZERO
        }
        fn send(&mut self, to: NodeId, bytes: WireBytes) {
            self.sent.push((to, bytes));
        }
        fn deliver(&mut self, _origin: NodeId, _payload: WireBytes) {}
        fn set_timer(&mut self, _after: Duration, _token: TimerToken) {}
        fn storage(&mut self) -> ScopedStorage<'_> {
            self.storage.scoped("")
        }
        fn rng(&mut self) -> &mut dyn rand::RngCore {
            &mut self.rng
        }
    }

    fn member(me: u64) -> Member {
        Member {
            me: NodeId(me),
            sent: Vec::new(),
            storage: Storage::new(),
            rng: StdRng::seed_from_u64(0),
        }
    }

    /// The snapshot recorder names the publisher's message on both legs,
    /// not the sequencer's frame that orders it.
    #[test]
    fn both_legs_name_the_publishers_id() {
        let (mut publisher, mut sequencer) = (member(2), member(0));
        let (mut p, mut s) = (Total::new(), Total::new());
        s.broadcast(&mut sequencer, WireBytes::from(b"own".to_vec())); // its seq 1
        p.broadcast(&mut publisher, WireBytes::from(b"x".to_vec()));
        let publish = Some((2, 0, 1));
        let [(to, submission)] = &publisher.sent[..] else { panic!("one submission") };
        assert_eq!(*to, NodeId(0));
        assert_eq!(crate::peek_data_id("total", submission), publish);

        sequencer.sent.clear();
        s.on_message(&mut sequencer, NodeId(2), submission);
        let ordered: Vec<_> = sequencer.sent.iter().filter(|(to, _)| *to == NodeId(1)).collect();
        let [(_, ordered)] = &ordered[..] else { panic!("one ordered frame to n1") };
        assert_eq!(crate::peek_data_id("total", ordered), publish);
    }
}
