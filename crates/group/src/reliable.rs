//! Reliable broadcast: the paper's *Reliable* semantics, and the one
//! volatile delivery layer the ordered kinds stand on.
//!
//! "Once successfully published, a reliable obvent will be received by any
//! notifiable that is 'up for long enough'" (§3.1.2). Three mechanisms
//! combine in [`Eager`]:
//!
//! - **eager re-forwarding** [BJ87]: on first receipt every member relays
//!   the message to every other member (unless the policy opts out), so
//!   one successful link suffices for group-wide agreement (and a crashed
//!   origin cannot strand a partially delivered message);
//! - **origin-side retransmission**: the origin keeps the message until
//!   every target acknowledged it, retransmitting periodically — this is
//!   what makes delivery deterministic under message loss even for small
//!   groups, where relay redundancy alone is a single network path;
//! - **bounded duplicate suppression** ([`Dedup`]): a watermark plus the
//!   seqs past a gap per `(origin, epoch)`.
//!
//! What happens to a first receipt is the [`HoldBack`] policy's business:
//! [`Reliable`] delivers at once, [`Fifo`](crate::Fifo) and
//! [`Causal`](crate::Causal) hold back over the same `(origin, epoch, seq)`
//! stream — Fig. 4's `CausalOrder extends FIFOOrder extends Reliable`.
//! A policy also addresses its origin's frames and decides whether
//! receivers relay them: [`Total`](crate::Total) sends a submission to the
//! sequencer alone and has the sequencer order it in a frame of its own,
//! neither relayed (`TotalOrder extends Reliable`).
//!
//! Unlike [`Certified`](crate::Certified), all state is volatile: a crashed
//! subscriber loses the message (reliability only covers processes that
//! stay "up for long enough").

use std::collections::BTreeMap;
use std::fmt;
use std::marker::PhantomData;

use serde::de::{self, DeserializeOwned, VariantAccess};
use serde::ser;
use serde::{Deserialize, Serialize};

use psc_codec::WireBytes;
use psc_simnet::{Duration, NodeId};
use psc_snapshot::ProtoCapture;

use crate::dedup::{Dedup, Delivered, MsgId};
use crate::io::{decode_msg, encode_msg, GroupIo, Multicast, TimerToken};

const RETRANSMIT: TimerToken = TimerToken(6);
const RETRANSMIT_INTERVAL: Duration = Duration::from_millis(40);

/// A delivery-layer frame; the hold-back policy's header follows the id.
/// `()` encodes as zero bytes, so [`Reliable`]'s frames carry none.
#[derive(Debug)]
enum Frame<H> {
    /// `(id, header, payload, from_origin)`. `from_origin` is true when
    /// this copy comes straight from the origin (receivers acknowledge
    /// those; relayed copies are not re-acked).
    Data(MsgId, H, WireBytes, bool),
    Ack(MsgId),
}

// By hand, as the vendored derive takes no generics. The codec writes a
// variant as its index and then its fields in order, so a variant holding
// the fields as one tuple has the same bytes as the derived struct variant
// `Reliable`'s frames had.
impl<H: Serialize> Serialize for Frame<H> {
    fn serialize<S: ser::Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        match self {
            Frame::Data(id, header, payload, from_origin) => {
                let fields = (id, header, payload, from_origin);
                serializer.serialize_newtype_variant("Frame", 0, "Data", &fields)
            }
            Frame::Ack(id) => serializer.serialize_newtype_variant("Frame", 1, "Ack", id),
        }
    }
}

impl<'de, H: Deserialize<'de>> Deserialize<'de> for Frame<H> {
    fn deserialize<D: de::Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        deserializer.deserialize_enum("Frame", &["Data", "Ack"], FrameVisitor(PhantomData))
    }
}

struct FrameVisitor<H>(PhantomData<H>);

impl<'de, H: Deserialize<'de>> de::Visitor<'de> for FrameVisitor<H> {
    type Value = Frame<H>;

    fn expecting(&self, formatter: &mut fmt::Formatter<'_>) -> fmt::Result {
        formatter.write_str("a delivery-layer frame")
    }

    fn visit_enum<A: de::EnumAccess<'de>>(self, data: A) -> Result<Frame<H>, A::Error> {
        match data.variant::<u32>()? {
            (0, fields) => {
                let (id, header, payload, from_origin) = fields.newtype_variant()?;
                Ok(Frame::Data(id, header, payload, from_origin))
            }
            (1, fields) => fields.newtype_variant().map(Frame::Ack),
            (index, _) => Err(de::Error::invalid_variant(index, "Frame")),
        }
    }
}

/// What an ordered kind does with the delivery layer's stream of first
/// receipts.
pub trait HoldBack: Default + fmt::Debug + Send + 'static {
    /// What the origin stamps on each broadcast (`()` for none).
    type Header: Serialize + DeserializeOwned + Clone + Default + fmt::Debug + Send;

    /// [`Multicast::proto_name`] of the composed protocol.
    const NAME: &'static str;

    /// Whether a receiver relays a first receipt to the other members (the
    /// eager agreement step). A policy whose frames reach their targets
    /// from the origin alone opts out of its O(n²) cost.
    const RELAY: bool = true;

    /// The targets and header of own broadcast `id`; `oldest_unacked` is
    /// this incarnation's oldest frame some target has not acknowledged.
    /// By default every other member, stamped by [`stamp`](Self::stamp).
    fn address(
        &mut self,
        me: NodeId,
        members: &[NodeId],
        id: MsgId,
        oldest_unacked: Option<u64>,
    ) -> (Vec<NodeId>, Self::Header) {
        let _ = oldest_unacked;
        let targets = others(me, members);
        let header = self.stamp(id, &targets);
        (targets, header)
    }

    /// The header of own broadcast `id`, addressed to `targets`.
    fn stamp(&mut self, _id: MsgId, _targets: &[NodeId]) -> Self::Header {
        Self::Header::default()
    }

    /// Takes a first receipt of `id` (own broadcasts included) and delivers
    /// whatever it makes deliverable. `seen` is `id`'s stream record,
    /// which a policy may advance past seqs it will never deliver; `out`
    /// originates further frames.
    fn accept(
        &mut self,
        io: &mut dyn GroupIo,
        out: &mut Outbox<Self::Header>,
        id: MsgId,
        header: Self::Header,
        payload: WireBytes,
        seen: &mut Delivered,
    );

    /// The application message a frame carries, named in snapshot
    /// in-flight records: by default the frame itself.
    fn data_id(id: MsgId, _header: &Self::Header) -> MsgId {
        id
    }

    /// `from` acknowledged own broadcast `seq` of this incarnation.
    fn on_ack(&mut self, _from: NodeId, _seq: u64) {}

    /// This incarnation recovered from a crash at `epoch`.
    fn on_recover(&mut self, _epoch: u64) {}

    /// Adds the policy's state to a snapshot capture.
    fn capture(&self, _cap: &mut ProtoCapture) {}

    /// The policy's queue depths (see [`Multicast::queue_depths`]).
    fn queue_depths(&self, _depths: &mut Vec<(&'static str, u64)>) {}
}

/// Every member but `me`.
pub(crate) fn others(me: NodeId, members: &[NodeId]) -> Vec<NodeId> {
    members.iter().copied().filter(|&m| m != me).collect()
}

/// No hold-back: every first receipt is delivered at once.
impl HoldBack for () {
    type Header = ();
    const NAME: &'static str = "reliable";

    fn accept(
        &mut self,
        io: &mut dyn GroupIo,
        _: &mut Outbox<()>,
        id: MsgId,
        _: (),
        payload: WireBytes,
        _: &mut Delivered,
    ) {
        io.deliver(id.origin, payload);
    }
}

/// Eager-push reliable broadcast with origin retransmission: the delivery
/// layer with no hold-back.
pub type Reliable = Eager<()>;

#[derive(Debug)]
struct Outgoing<Hd> {
    header: Hd,
    payload: WireBytes,
    unacked: Vec<NodeId>,
}

/// Origin state: this incarnation's frames, each kept and retransmitted
/// until every target acknowledged it.
#[derive(Debug, Default)]
pub struct Outbox<Hd> {
    /// This incarnation's epoch (see [`MsgId`]).
    epoch: u64,
    next_seq: u64,
    outgoing: BTreeMap<u64, Outgoing<Hd>>,
    timer_armed: bool,
}

impl<Hd: Serialize> Outbox<Hd> {
    /// The id of the next frame this process originates.
    pub(crate) fn next_id(&mut self, me: NodeId) -> MsgId {
        self.next_seq += 1;
        MsgId {
            origin: me,
            epoch: self.epoch,
            seq: self.next_seq,
        }
    }

    fn oldest_unacked(&self) -> Option<u64> {
        self.outgoing.keys().next().copied()
    }

    /// Sends own frame `id` to `targets` and keeps it until they all
    /// acknowledge it.
    pub(crate) fn send(
        &mut self,
        io: &mut dyn GroupIo,
        id: MsgId,
        header: Hd,
        payload: WireBytes,
        targets: Vec<NodeId>,
    ) {
        send_data(io, id, &header, &payload, true, &targets);
        if !targets.is_empty() {
            self.outgoing.insert(
                id.seq,
                Outgoing {
                    header,
                    payload,
                    unacked: targets,
                },
            );
            self.arm_timer(io);
        }
    }

    fn arm_timer(&mut self, io: &mut dyn GroupIo) {
        if !self.timer_armed && !self.outgoing.is_empty() {
            self.timer_armed = true;
            io.set_timer(RETRANSMIT_INTERVAL, RETRANSMIT);
        }
    }
}

fn send_data<Hd: Serialize>(
    io: &mut dyn GroupIo,
    id: MsgId,
    header: &Hd,
    payload: &WireBytes,
    from_origin: bool,
    targets: &[NodeId],
) {
    let bytes = encode_msg(&Frame::Data(id, header, payload.clone(), from_origin));
    for &member in targets {
        io.send(member, bytes.clone());
    }
}

/// The delivery layer under hold-back policy `H`; see the module docs.
#[derive(Debug, Default)]
pub struct Eager<H: HoldBack> {
    out: Outbox<H::Header>,
    pub(crate) seen: Dedup,
    pub(crate) order: H,
}

impl<H: HoldBack> Eager<H> {
    /// Creates an instance.
    pub fn new() -> Self {
        Eager::default()
    }

    /// The application message identity inside `bytes`, if it is a `Data`
    /// frame (snapshot in-flight recording).
    pub(crate) fn peek_id(bytes: &[u8]) -> Option<MsgId> {
        match decode_msg::<Frame<H::Header>>(bytes)? {
            Frame::Data(id, header, ..) => Some(H::data_id(id, &header)),
            Frame::Ack(_) => None,
        }
    }
}

impl<H: HoldBack> Multicast for Eager<H> {
    fn broadcast(&mut self, io: &mut dyn GroupIo, payload: WireBytes) {
        io.metric("reliable.broadcasts", 1);
        let me = io.self_id();
        let id = self.out.next_id(me);
        let oldest_unacked = self.out.oldest_unacked();
        let (targets, header) = self.order.address(me, io.members(), id, oldest_unacked);
        self.out.send(io, id, header.clone(), payload.clone(), targets);
        let seen = self.seen.stream(id);
        if H::RELAY {
            seen.insert(id.seq); // a relay may bring it back
        }
        if io.members().contains(&me) {
            self.order.accept(io, &mut self.out, id, header, payload, seen);
        }
    }

    fn on_message(&mut self, io: &mut dyn GroupIo, from: NodeId, bytes: &[u8]) {
        let Some(frame) = decode_msg::<Frame<H::Header>>(bytes) else {
            return;
        };
        match frame {
            Frame::Data(id, header, payload, from_origin) => {
                // Acknowledge every copy arriving straight from the origin
                // (covers lost acks via the origin's retransmissions).
                if from_origin {
                    io.metric("reliable.acks_sent", 1);
                    io.send(from, encode_msg(&Frame::<()>::Ack(id)));
                }
                let seen = self.seen.stream(id);
                if !seen.insert(id.seq) {
                    io.metric("reliable.duplicates", 1);
                    return;
                }
                if H::RELAY {
                    // Re-forward before delivering: the agreement step.
                    io.metric("reliable.relays", 1);
                    let me = io.self_id();
                    let others: Vec<NodeId> = io
                        .members()
                        .iter()
                        .copied()
                        .filter(|&m| m != me && m != id.origin)
                        .collect();
                    send_data(io, id, &header, &payload, false, &others);
                }
                self.order.accept(io, &mut self.out, id, header, payload, seen);
            }
            Frame::Ack(id) => {
                if id.origin != io.self_id() || id.epoch != self.out.epoch {
                    return;
                }
                self.order.on_ack(from, id.seq);
                let outgoing = &mut self.out.outgoing;
                if let Some(frame) = outgoing.get_mut(&id.seq) {
                    frame.unacked.retain(|&m| m != from);
                    if frame.unacked.is_empty() {
                        outgoing.remove(&id.seq);
                    }
                }
            }
        }
    }

    fn on_timer(&mut self, io: &mut dyn GroupIo, token: TimerToken) {
        if token != RETRANSMIT {
            return;
        }
        let out = &mut self.out;
        out.timer_armed = false;
        io.metric("reliable.retransmits", out.outgoing.len() as u64);
        let me = io.self_id();
        for (&seq, frame) in &out.outgoing {
            let id = MsgId {
                origin: me,
                epoch: out.epoch,
                seq,
            };
            send_data(io, id, &frame.header, &frame.payload, true, &frame.unacked);
        }
        out.arm_timer(io);
    }

    fn on_start(&mut self, io: &mut dyn GroupIo) {
        self.out.epoch = io.now().as_millis();
    }

    fn on_recover(&mut self, io: &mut dyn GroupIo) {
        self.out.epoch = io.now().as_millis();
        self.order.on_recover(self.out.epoch);
    }

    fn capture(&mut self, io: &mut dyn GroupIo) -> ProtoCapture {
        let me = io.self_id();
        let mut cap = ProtoCapture::new(self.proto_name());
        cap.epoch = self.out.epoch;
        cap.next_seq = self.out.next_seq;
        cap.retransmit = self
            .out
            .outgoing
            .iter()
            .map(|(&seq, frame)| psc_snapshot::RetransmitEntry {
                id: psc_snapshot::MsgRef::new(me.0, self.out.epoch, seq),
                targets: frame.unacked.iter().map(|n| n.0).collect(),
                acked: Vec::new(),
            })
            .collect();
        cap.extra.push(("seen".to_string(), self.seen.len() as u64));
        self.order.capture(&mut cap);
        cap.normalize();
        cap
    }

    fn proto_name(&self) -> &'static str {
        H::NAME
    }

    fn queue_depths(&self) -> Vec<(&'static str, u64)> {
        let mut depths = vec![("reliable.unacked", self.out.outgoing.len() as u64)];
        self.order.queue_depths(&mut depths);
        depths
    }

    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `Reliable`'s frames as they were before the ordered kinds shared
    /// the layer; the generic frame with a `()` header must match them.
    #[derive(Serialize)]
    enum Plain {
        Data {
            id: MsgId,
            payload: WireBytes,
            from_origin: bool,
        },
        Ack {
            id: MsgId,
        },
    }

    #[test]
    fn reliable_frames_keep_their_bytes() {
        let id = MsgId {
            origin: NodeId(3),
            epoch: 1_234,
            seq: 300,
        };
        let payload = WireBytes::from(b"tick".to_vec());
        for from_origin in [true, false] {
            let plain = encode_msg(&Plain::Data {
                id,
                payload: payload.clone(),
                from_origin,
            });
            let frame = encode_msg(&Frame::Data(id, (), payload.clone(), from_origin));
            assert_eq!(plain[..], frame[..]);
            let back = decode_msg::<Frame<()>>(&frame);
            assert!(
                matches!(back, Some(Frame::Data(got, (), _, f)) if got == id && f == from_origin)
            );
        }
        let ack = encode_msg(&Frame::<()>::Ack(id));
        assert_eq!(ack[..], encode_msg(&Plain::Ack { id })[..]);
        assert!(matches!(decode_msg::<Frame<()>>(&ack), Some(Frame::Ack(got)) if got == id));
    }
}
