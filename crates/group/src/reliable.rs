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
//! Where a member's part of a stream starts is the layer's rule too: at
//! seq 1, or, for a member the origin starts addressing mid-epoch (a late
//! subscriber), at the seq its frames name for it ([`Joins`]) until it
//! acknowledges one. On a first receipt naming its start a member counts
//! every earlier seq as seen, so a late joiner's record is a watermark
//! like everyone's, and a copy of an earlier seq is a duplicate.
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
//! Where the layer's state lives is its [`Durability`] half. Under `()`
//! all of it is volatile: a crashed subscriber loses the message
//! (reliability only covers processes that stay "up for long enough").
//! Under [`Durable`] the origin's unacknowledged frames, the dedup records
//! and the incarnation's epoch are on stable storage too, which is the
//! paper's *Certified*: "even if a notifiable temporarily disconnects or
//! fails, it will eventually deliver the obvent" (§3.1.2) — Fig. 4's
//! `Certified extends Reliable`, as [`Certified`]. The durable half also
//! says which own frames depend on no record their callback wrote
//! ([`Durability::ahead`]), so a host with a real disk can send them before
//! its fsync.

use std::collections::BTreeMap;
use std::fmt;
use std::marker::PhantomData;

use serde::de::{self, DeserializeOwned, VariantAccess};
use serde::ser;
use serde::{Deserialize, Serialize};

use psc_codec::WireBytes;
use psc_simnet::{Duration, NodeId};
use psc_snapshot::{MsgRef, ProtoCapture};

use crate::dedup::{Dedup, Delivered, MsgId, OriginDelivered};
use crate::io::{decode_msg, encode_msg, GroupIo, Multicast, TimerToken};

const RETRANSMIT: TimerToken = TimerToken(6);
const RETRANSMIT_INTERVAL: Duration = Duration::from_millis(40);

// `Durable`'s keys, under the host's scope (see its docs).
const KEY_EPOCH: &str = "cert/epoch";
const KEY_OUT_PREFIX: &str = "cert/out/";
const KEY_DELIVERED_PREFIX: &str = "cert/delivered/";
/// Older forms, read on load and never written: the whole delivered set
/// as one `Vec<MsgId>`; a seq counter written on every broadcast; and
/// `cert/log/<seq:020>` holding `(id, payload, targets, acked)` per
/// unacknowledged frame of the constant epoch 0.
const KEY_LEGACY_DELIVERED: &str = "cert/delivered";
const KEY_LEGACY_COUNTER: &str = "cert/seq";
const KEY_LEGACY_LOG_PREFIX: &str = "cert/log/";

/// `(member, first owed seq)` for each target the origin started
/// addressing mid-epoch; see [`Joins`].
pub(crate) type Starts = Vec<(NodeId, u64)>;

/// A delivery-layer frame. The start list follows the id, then the
/// hold-back policy's header; `()` encodes as zero bytes and an empty list
/// as one, so [`Reliable`]'s frames carry one byte more than before the
/// layer had starts, and the ordered kinds' frames none.
#[derive(Debug)]
enum Frame<H, S = Starts> {
    /// `(id, starts, header, payload, from_origin)`. `from_origin` is true
    /// when this copy comes straight from the origin (receivers acknowledge
    /// those; relayed copies are not re-acked).
    Data(MsgId, S, H, WireBytes, bool),
    Ack(MsgId),
}

// By hand, as the vendored derive takes no generics. The codec writes a
// variant as its index and then its fields in order, so a variant holding
// the fields as one tuple has the same bytes as a derived struct variant.
impl<H: Serialize, S: Serialize> Serialize for Frame<H, S> {
    fn serialize<Sr: ser::Serializer>(&self, serializer: Sr) -> Result<Sr::Ok, Sr::Error> {
        match self {
            Frame::Data(id, starts, header, payload, from_origin) => {
                let fields = (id, starts, header, payload, from_origin);
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
                let (id, starts, header, payload, from_origin) = fields.newtype_variant()?;
                Ok(Frame::Data(id, starts, header, payload, from_origin))
            }
            (1, fields) => fields.newtype_variant().map(Frame::Ack),
            (index, _) => Err(de::Error::invalid_variant(index, "Frame")),
        }
    }
}

/// The members an origin started addressing after seq 1 of its epoch (a
/// late subscriber), with the first seq each is owed. Every frame carries
/// the list until the member acknowledges a seq at or past its start, so
/// it is usually empty and one encoded frame still serves every target. A
/// member that leaves and comes back starts again where it came back.
#[derive(Debug, Default)]
pub(crate) struct Joins {
    /// Targets of the previous frame.
    last_targets: Vec<NodeId>,
    /// `(member, first owed seq)`, unacknowledged.
    owed: Starts,
}

impl Joins {
    /// The start list of own frame `seq` to `targets`.
    fn stamp(&mut self, seq: u64, targets: &[NodeId]) -> Starts {
        if self.last_targets != targets {
            // A member that left is owed nothing more.
            self.owed.retain(|(m, _)| targets.contains(m));
            for &member in targets {
                if seq > 1 && !self.last_targets.contains(&member) {
                    self.owed.retain(|&(m, _)| m != member);
                    self.owed.push((member, seq));
                }
            }
            self.last_targets = targets.to_vec();
        }
        self.owed.clone()
    }

    /// `from` acknowledged `seq`: a frame naming its start reached it.
    fn on_ack(&mut self, from: NodeId, seq: u64) {
        self.owed.retain(|&(m, first)| m != from || seq < first);
    }

    /// The first seq `starts` says `member` is owed, if it names one.
    pub(crate) fn start_of(starts: &[(NodeId, u64)], member: NodeId) -> Option<u64> {
        starts
            .iter()
            .find(|&&(m, _)| m == member)
            .map(|&(_, first)| first)
    }
}

/// A first receipt, as the delivery layer hands it to its policy.
#[derive(Debug)]
pub struct Receipt<Hd> {
    /// The frame's id.
    pub(crate) id: MsgId,
    /// The first seq of `id`'s stream owed to this member, when the frame
    /// names one: every earlier seq is already counted as seen.
    pub(crate) start: Option<u64>,
    pub(crate) header: Hd,
    pub(crate) payload: WireBytes,
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

    /// The targets, start list and header of own broadcast `id`, which
    /// `out` is about to send. By default every other member, with the
    /// starts `out` owes them ([`Outbox::starts`]) and a header stamped by
    /// [`stamp`](Self::stamp).
    fn address(
        &mut self,
        me: NodeId,
        members: &[NodeId],
        id: MsgId,
        out: &mut Outbox<Self::Header>,
    ) -> (Vec<NodeId>, Starts, Self::Header) {
        let targets = others(me, members);
        let starts = out.starts(id.seq, &targets);
        let header = self.stamp(id, &targets);
        (targets, starts, header)
    }

    /// The header of own broadcast `id`, addressed to `targets`.
    fn stamp(&mut self, _id: MsgId, _targets: &[NodeId]) -> Self::Header {
        Self::Header::default()
    }

    /// Takes a first receipt (own broadcasts included) and delivers
    /// whatever it makes deliverable. `seen` is the receipt's stream
    /// record, which a policy may advance past seqs it will never deliver;
    /// `out` originates further frames.
    fn accept(
        &mut self,
        io: &mut dyn GroupIo,
        out: &mut Outbox<Self::Header>,
        receipt: Receipt<Self::Header>,
        seen: &mut Delivered,
    );

    /// The application message a frame carries, named in snapshot
    /// in-flight records: by default the frame itself.
    fn data_id(id: MsgId, _header: &Self::Header) -> MsgId {
        id
    }

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
        receipt: Receipt<()>,
        _: &mut Delivered,
    ) {
        io.deliver(receipt.id.origin, receipt.payload);
    }
}

/// Eager-push reliable broadcast with origin retransmission: the delivery
/// layer with no hold-back.
pub type Reliable = Eager<()>;

/// An own frame, kept until every target acknowledged it.
#[derive(Debug)]
pub(crate) struct Outgoing<Hd> {
    /// Sent again with every retransmission.
    starts: Starts,
    header: Hd,
    payload: WireBytes,
    unacked: Vec<NodeId>,
    /// The targets that acknowledged, kept by a
    /// [`DURABLE`](Durability::DURABLE) layer only.
    acked: Vec<NodeId>,
}

impl<Hd> Outgoing<Hd> {
    /// A frame to `targets`.
    pub(crate) fn new(
        starts: Starts,
        header: Hd,
        payload: WireBytes,
        targets: Vec<NodeId>,
    ) -> Self {
        Outgoing {
            starts,
            header,
            payload,
            unacked: targets,
            acked: Vec::new(),
        }
    }
}

/// Origin state: own frames, each kept and retransmitted until every
/// target acknowledged it, and where each late target's part of this
/// incarnation's stream starts.
#[derive(Debug, Default)]
pub struct Outbox<Hd> {
    /// This incarnation's epoch (see [`MsgId`]).
    epoch: u64,
    next_seq: u64,
    /// By `(epoch, seq)`: a durable origin also keeps its earlier
    /// incarnations' frames.
    outgoing: BTreeMap<(u64, u64), Outgoing<Hd>>,
    timer_armed: bool,
    joins: Joins,
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

    /// This incarnation's oldest frame some target has not acknowledged.
    pub(crate) fn oldest_unacked(&self) -> Option<u64> {
        self.outgoing
            .range((self.epoch, 0)..)
            .next()
            .map(|(&(_, seq), _)| seq)
    }

    /// The start list of own frame `seq` to `targets`: each target this
    /// incarnation started addressing after seq 1 and the first seq it is
    /// owed, until it acknowledges a frame at or past it.
    pub(crate) fn starts(&mut self, seq: u64, targets: &[NodeId]) -> Starts {
        self.joins.stamp(seq, targets)
    }

    /// Sends own frame `id` and keeps it until its targets all acknowledge
    /// it; `ahead` sends it with [`GroupIo::send_ahead`].
    pub(crate) fn send(
        &mut self,
        io: &mut dyn GroupIo,
        id: MsgId,
        frame: Outgoing<Hd>,
        ahead: bool,
    ) {
        let bytes = data_frame(id, &frame.starts, &frame.header, &frame.payload, true);
        send_data(io, &bytes, &frame.unacked, ahead);
        if !frame.unacked.is_empty() {
            self.outgoing.insert((id.epoch, id.seq), frame);
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

fn data_frame<Hd: Serialize>(
    id: MsgId,
    starts: &[(NodeId, u64)],
    header: &Hd,
    payload: &WireBytes,
    from_origin: bool,
) -> WireBytes {
    encode_msg(&Frame::Data(
        id,
        starts,
        header,
        payload.clone(),
        from_origin,
    ))
}

fn send_data(io: &mut dyn GroupIo, bytes: &WireBytes, targets: &[NodeId], ahead: bool) {
    for &member in targets {
        if ahead {
            io.send_ahead(member, bytes.clone());
        } else {
            io.send(member, bytes.clone());
        }
    }
}

/// Where the delivery layer keeps its state, for frames with headers of
/// type `Hd`: `()` in memory only, [`Durable`] on stable storage as well.
/// Every hook defaults to what `()` does, nothing, so the volatile kinds
/// run the code they ran before the layer had a durable half.
pub trait Durability<Hd>: Default + fmt::Debug + Send + 'static {
    /// Whether the state outlives a crash. A durable layer is named
    /// `"certified"`, relays nothing (its stored frames outlive the
    /// origin), and lists own deliveries and each frame's ackers.
    const DURABLE: bool = false;

    /// Brings `out` (its epoch too) and `seen` up from storage before use.
    fn load(&mut self, _io: &mut dyn GroupIo, _out: &mut Outbox<Hd>, _seen: &mut Dedup) {}

    /// Own frame `id` goes to `to`, kept until they all acknowledge it.
    fn sent(&mut self, _io: &mut dyn GroupIo, _id: MsgId, _payload: &WireBytes, _to: &[NodeId]) {}

    /// Every target acknowledged own frame `id`.
    fn acked(&mut self, _io: &mut dyn GroupIo, _id: MsgId) {}

    /// A first receipt from `origin` (or an own delivery) is in `seen`.
    fn received(&mut self, _io: &mut dyn GroupIo, _seen: &Dedup, _origin: NodeId) {}

    /// Whether the own frame [`sent`](Self::sent) just now depends on no
    /// record this callback wrote, so it may leave before they reach the
    /// disk ([`GroupIo::send_ahead`]).
    fn ahead(&self, _io: &mut dyn GroupIo) -> bool {
        false
    }
}

/// Volatile: nothing is stored.
impl<Hd> Durability<Hd> for () {}

/// The durable half, through [`GroupIo::storage`], loaded on first use:
///
/// - one `cert/epoch` record per incarnation, written with its first
///   frame: the epoch after the stored one, from 1. Seqs stay volatile;
/// - one `cert/out/<epoch>/<seq>` record per frame, removed when its last
///   target acknowledges. A partial ack writes nothing: after a crash the
///   frame goes to every target again and their dedup absorbs the copies;
/// - the origin's `cert/delivered/<origin>` record per first receipt, one
///   O(1 + gaps) record in order or not, and whenever the subscriber
///   joined: a late one starts at the seq the frames name for it; the
///   older forms are read on load and rewritten, the legacy frames as
///   epoch 0. A recovered `cert/out` frame carries no start list (the
///   on-disk form holds none).
///
/// It acknowledges a first receipt as delivered, so it composes with the
/// `()` policy alone: under a hold-back policy a first receipt is not yet
/// a delivery.
///
/// A frame may leave ahead of its callback's records once its epoch record
/// was committed by an *earlier* callback: a receiver dedups by
/// `(origin, epoch, seq)`, so a frame sent under an epoch a crash could
/// hand to the next incarnation would swallow that incarnation's frames.
/// Its `cert/out` record guards only this origin's own retransmission: if
/// the origin dies before the record is synced, the frame is delivered
/// once or never, as when it dies between the publish call returning and
/// the sync. Acks, retransmissions and the epoch's own frame stay plain.
#[derive(Debug, Default)]
pub struct Durable {
    loaded: bool,
    /// [`Storage::commits`](psc_simnet::Storage::commits) when this
    /// incarnation's `cert/epoch` record was written.
    epoch_written: Option<u64>,
}

fn out_key(id: MsgId) -> String {
    format!("{KEY_OUT_PREFIX}{}/{}", id.epoch, id.seq)
}

impl Durability<()> for Durable {
    const DURABLE: bool = true;

    fn load(&mut self, io: &mut dyn GroupIo, out: &mut Outbox<()>, seen: &mut Dedup) {
        if self.loaded {
            return;
        }
        self.loaded = true;
        let mut storage = io.storage();
        out.epoch = storage.get::<u64>(KEY_EPOCH).ok().flatten().unwrap_or(0) + 1;
        for key in storage.keys_with_prefix(KEY_DELIVERED_PREFIX) {
            let origin = key[KEY_DELIVERED_PREFIX.len()..].parse::<u64>();
            if let (Ok(origin), Ok(Some(state))) = (origin, storage.get::<OriginDelivered>(&key)) {
                seen.restore(NodeId(origin), state);
            }
        }
        if let Ok(Some(ids)) = storage.get::<Vec<MsgId>>(KEY_LEGACY_DELIVERED) {
            for id in ids {
                seen.stream(id).insert(id.seq);
            }
        }
        for key in storage.keys_with_prefix(KEY_OUT_PREFIX) {
            let at = key[KEY_OUT_PREFIX.len()..]
                .split_once('/')
                .and_then(|(epoch, seq)| Some((epoch.parse().ok()?, seq.parse().ok()?)));
            if let (Some(at), Ok(Some((targets, payload)))) = (at, storage.get(&key)) {
                out.outgoing
                    .insert(at, Outgoing::new(Vec::new(), (), payload, targets));
            }
        }
        for key in storage.keys_with_prefix(KEY_LEGACY_LOG_PREFIX) {
            let legacy = storage.get::<(MsgId, WireBytes, Vec<NodeId>, Vec<NodeId>)>(&key);
            if let Ok(Some((id, payload, targets, acked))) = legacy {
                storage
                    .put(&out_key(id), &(&targets, &payload))
                    .expect("frames serialize");
                let mut frame = Outgoing::new(Vec::new(), (), payload, targets);
                frame.unacked.retain(|t| !acked.contains(t));
                frame.acked = acked;
                out.outgoing.insert((id.epoch, id.seq), frame);
            }
            storage.remove(&key);
        }
        if storage.get_raw(KEY_LEGACY_COUNTER).is_some() {
            storage.remove(KEY_LEGACY_COUNTER);
        }
        out.arm_timer(io);
    }

    fn sent(&mut self, io: &mut dyn GroupIo, id: MsgId, payload: &WireBytes, to: &[NodeId]) {
        let mut storage = io.storage();
        if id.seq == 1 {
            storage.put(KEY_EPOCH, &id.epoch).expect("epochs serialize");
            self.epoch_written = Some(storage.commits());
        }
        if !to.is_empty() {
            storage
                .put(&out_key(id), &(to, payload))
                .expect("frames serialize");
        }
    }

    fn acked(&mut self, io: &mut dyn GroupIo, id: MsgId) {
        io.storage().remove(&out_key(id));
    }

    fn received(&mut self, io: &mut dyn GroupIo, seen: &Dedup, origin: NodeId) {
        let key = format!("{KEY_DELIVERED_PREFIX}{}", origin.0);
        io.storage()
            .put(&key, seen.origin(origin))
            .expect("delivered records serialize");
    }

    fn ahead(&self, io: &mut dyn GroupIo) -> bool {
        self.epoch_written
            .is_some_and(|written| io.storage().commits() > written)
    }
}

/// The delivery layer under hold-back policy `H`, its state kept as `D`
/// says; see the module docs.
#[derive(Debug, Default)]
pub struct Eager<H: HoldBack, D: Durability<H::Header> = ()> {
    out: Outbox<H::Header>,
    pub(crate) seen: Dedup,
    pub(crate) order: H,
    disk: D,
}

/// Certified broadcast: the delivery layer with no hold-back, on stable
/// storage (Fig. 4's `Certified extends Reliable`).
pub type Certified = Eager<(), Durable>;

impl<H: HoldBack, D: Durability<H::Header>> Eager<H, D> {
    /// Whether a receiver relays a first receipt to the other members.
    const RELAY: bool = H::RELAY && !D::DURABLE;

    /// Creates an instance.
    pub fn new() -> Self {
        Eager::default()
    }

    /// The application message identity inside `bytes`, if it is a `Data`
    /// frame (snapshot in-flight recording).
    pub(crate) fn peek_id(bytes: &[u8]) -> Option<MsgId> {
        match decode_msg::<Frame<H::Header>>(bytes)? {
            Frame::Data(id, _, header, ..) => Some(H::data_id(id, &header)),
            Frame::Ack(_) => None,
        }
    }
}

impl<H: HoldBack, D: Durability<H::Header>> Multicast for Eager<H, D> {
    fn broadcast(&mut self, io: &mut dyn GroupIo, payload: WireBytes) {
        self.disk.load(io, &mut self.out, &mut self.seen);
        io.metric("reliable.broadcasts", 1);
        let me = io.self_id();
        let id = self.out.next_id(me);
        let (targets, starts, header) = self.order.address(me, io.members(), id, &mut self.out);
        self.disk.sent(io, id, &payload, &targets);
        let ahead = self.disk.ahead(io);
        let frame = Outgoing::new(starts, header.clone(), payload.clone(), targets);
        self.out.send(io, id, frame, ahead);
        let member = io.members().contains(&me);
        let seen = self.seen.stream(id);
        if Self::RELAY || (D::DURABLE && member) {
            // A relay may bring it back; a durable record is also the
            // list of what was delivered here.
            seen.insert(id.seq);
        }
        if member {
            let receipt = Receipt {
                id,
                start: None,
                header,
                payload,
            };
            self.order.accept(io, &mut self.out, receipt, seen);
            self.disk.received(io, &self.seen, me);
        }
    }

    fn on_message(&mut self, io: &mut dyn GroupIo, from: NodeId, bytes: &[u8]) {
        self.disk.load(io, &mut self.out, &mut self.seen);
        let Some(frame) = decode_msg::<Frame<H::Header>>(bytes) else {
            return;
        };
        match frame {
            Frame::Data(id, starts, header, payload, from_origin) => {
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
                // A start past the frame's own seq is malformed.
                let me = io.self_id();
                let start =
                    Joins::start_of(&starts, me).filter(|first| (1..=id.seq).contains(first));
                if let Some(first) = start {
                    // Earlier seqs were never sent here: copies of them
                    // are duplicates.
                    seen.skip_to(first - 1);
                }
                if Self::RELAY {
                    // Re-forward before delivering: the agreement step.
                    let others: Vec<NodeId> = io
                        .members()
                        .iter()
                        .copied()
                        .filter(|&m| m != me && m != id.origin)
                        .collect();
                    if !others.is_empty() {
                        io.metric("reliable.relays", 1);
                        let bytes = data_frame(id, &starts, &header, &payload, false);
                        send_data(io, &bytes, &others, false);
                    }
                }
                let receipt = Receipt {
                    id,
                    start,
                    header,
                    payload,
                };
                self.order.accept(io, &mut self.out, receipt, seen);
                self.disk.received(io, &self.seen, id.origin);
            }
            Frame::Ack(id) => {
                if id.origin != io.self_id() {
                    return;
                }
                if id.epoch == self.out.epoch {
                    self.out.joins.on_ack(from, id.seq);
                }
                let at = (id.epoch, id.seq);
                let Some(frame) = self.out.outgoing.get_mut(&at) else {
                    return;
                };
                if let Some(i) = frame.unacked.iter().position(|&m| m == from) {
                    frame.unacked.remove(i);
                    if D::DURABLE {
                        frame.acked.push(from);
                    }
                }
                if frame.unacked.is_empty() {
                    self.out.outgoing.remove(&at);
                    self.disk.acked(io, id);
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
        for (&(epoch, seq), frame) in &out.outgoing {
            let id = MsgId {
                origin: me,
                epoch,
                seq,
            };
            let bytes = data_frame(id, &frame.starts, &frame.header, &frame.payload, true);
            send_data(io, &bytes, &frame.unacked, false);
        }
        out.arm_timer(io);
    }

    fn on_start(&mut self, io: &mut dyn GroupIo) {
        if !D::DURABLE {
            self.out.epoch = io.now().as_millis(); // see `MsgId`
        }
        self.disk.load(io, &mut self.out, &mut self.seen);
    }

    fn on_recover(&mut self, io: &mut dyn GroupIo) {
        self.on_start(io);
        self.order.on_recover(self.out.epoch);
    }

    fn capture(&mut self, io: &mut dyn GroupIo) -> ProtoCapture {
        self.disk.load(io, &mut self.out, &mut self.seen);
        let me = io.self_id();
        let mut cap = ProtoCapture::new(self.proto_name());
        cap.epoch = self.out.epoch;
        cap.next_seq = self.out.next_seq;
        cap.retransmit = self
            .out
            .outgoing
            .iter()
            .map(|(&(epoch, seq), frame)| psc_snapshot::RetransmitEntry {
                id: MsgRef::new(me.0, epoch, seq),
                targets: frame
                    .unacked
                    .iter()
                    .chain(&frame.acked)
                    .map(|n| n.0)
                    .collect(),
                acked: frame.acked.iter().map(|n| n.0).collect(),
            })
            .collect();
        if D::DURABLE {
            let ids = self.seen.ids();
            cap.delivered = ids
                .map(|id| MsgRef::new(id.origin.0, id.epoch, id.seq))
                .collect();
        } else {
            cap.extra.push(("seen".to_string(), self.seen.len() as u64));
        }
        self.order.capture(&mut cap);
        cap.normalize();
        cap
    }

    fn proto_name(&self) -> &'static str {
        if D::DURABLE {
            "certified"
        } else {
            H::NAME
        }
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
    use std::collections::BTreeSet;

    use rand::rngs::StdRng;
    use rand::SeedableRng;

    use psc_simnet::{DiskFault, ScopedStorage, SimTime, Storage};

    use super::*;

    /// `Reliable`'s frames as they were before the layer carried a start
    /// list.
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

    /// A `Reliable` data frame is its pre-start-list bytes with one zero
    /// byte, the empty list's length, after the id; its ack is unchanged.
    #[test]
    fn reliable_frames_keep_their_bytes() {
        let id = MsgId {
            origin: NodeId(3),
            epoch: 1_234,
            seq: 300,
        };
        let payload = WireBytes::from(b"tick".to_vec());
        let after_id = 1 + encode_msg(&id).len(); // the variant index, then the id
        for from_origin in [true, false] {
            let plain = encode_msg(&Plain::Data {
                id,
                payload: payload.clone(),
                from_origin,
            });
            let mut expected = plain.to_vec();
            expected.insert(after_id, 0);
            let frame = encode_msg(&Frame::Data(
                id,
                Starts::new(),
                (),
                payload.clone(),
                from_origin,
            ));
            assert_eq!(frame[..], expected[..]);
            let back = decode_msg::<Frame<()>>(&frame);
            let Some(Frame::Data(got, starts, (), _, f)) = back else {
                panic!("a data frame")
            };
            assert_eq!((got, starts, f), (id, Starts::new(), from_origin));
        }
        let ack = encode_msg(&Frame::<()>::Ack(id));
        assert_eq!(ack[..], encode_msg(&Plain::Ack { id })[..]);
        assert!(matches!(decode_msg::<Frame<()>>(&ack), Some(Frame::Ack(got)) if got == id));
    }

    /// The ordered kinds' headers before the layer took their start lists,
    /// which came first in each.
    #[derive(Serialize)]
    struct OldCausalHeader {
        joins: Starts,
        deps: Vec<(NodeId, u64, u64)>,
    }

    #[derive(Serialize)]
    struct OldTotalHeader {
        joins: Starts,
        ordered: Option<MsgId>,
    }

    /// Decodes `old` as a frame under header `H` and re-encodes it: the
    /// bytes must not move. Returns the start list read.
    fn reads_back<H: Serialize + DeserializeOwned + fmt::Debug>(old: &WireBytes) -> Starts {
        let frame = decode_msg::<Frame<H>>(old).expect("an old frame decodes");
        assert_eq!(encode_msg(&frame)[..], old[..], "{frame:?}");
        match frame {
            Frame::Data(_, starts, ..) => starts,
            Frame::Ack(_) => panic!("a data frame"),
        }
    }

    /// FIFO, causal and total frames are byte-identical to the frames they
    /// sent when each policy kept its own start list at the head of its
    /// header: the layer's list sits where theirs did.
    #[test]
    fn ordered_frames_keep_their_bytes() {
        let id = MsgId {
            origin: NodeId(3),
            epoch: 1_234,
            seq: 300,
        };
        let payload = WireBytes::from(b"tick".to_vec());
        for joins in [vec![], vec![(NodeId(5), 298), (NodeId(7), 300)]] {
            // An old frame is the layer's frame with a zero-byte list and
            // the old header.
            let fifo = encode_msg(&Frame::Data(id, (), &joins, payload.clone(), true));
            assert_eq!(reads_back::<()>(&fifo), joins);
            let causal = OldCausalHeader {
                joins: joins.clone(),
                deps: vec![(NodeId(1), 9, 4), (NodeId(2), 1, 17)],
            };
            let causal = encode_msg(&Frame::Data(id, (), &causal, payload.clone(), false));
            assert_eq!(reads_back::<crate::causal::CausalHeader>(&causal), joins);
            for ordered in [None, Some(MsgId { seq: 2, ..id })] {
                let total = OldTotalHeader {
                    joins: joins.clone(),
                    ordered,
                };
                let total = encode_msg(&Frame::Data(id, (), &total, payload.clone(), true));
                assert_eq!(reads_back::<crate::total::TotalHeader>(&total), joins);
            }
        }
    }

    // The durable half, driven callback by callback over one process's
    // disk: `cert/` keys are WAL-bound as under a certified channel, and
    // every callback is followed by its commit.

    const PUBLISHER: NodeId = NodeId(0);
    const ME: NodeId = NodeId(1);
    const OTHER: NodeId = NodeId(2);

    /// One process's disk, what it delivered and what it sent (with
    /// whether it was sent ahead of its callback's records).
    struct Disk {
        me: NodeId,
        members: Vec<NodeId>,
        storage: Storage,
        delivered: Vec<u64>,
        sent: Vec<(NodeId, WireBytes, bool)>,
        rng: StdRng,
    }

    impl Disk {
        fn new(me: NodeId, members: &[NodeId]) -> Self {
            let mut storage = Storage::new();
            storage.wal_bind("cert/", "ch");
            let rng = StdRng::seed_from_u64(0);
            let (delivered, sent) = (Vec::new(), Vec::new());
            Disk {
                me,
                members: members.to_vec(),
                storage,
                delivered,
                sent,
                rng,
            }
        }

        /// A subscriber of `PUBLISHER`'s group `{PUBLISHER, ME}`.
        fn subscriber() -> Self {
            Disk::new(ME, &[PUBLISHER, ME])
        }

        /// A started instance over this disk.
        fn start(&mut self) -> Certified {
            let mut proto = Certified::new();
            proto.on_start(self);
            self.storage.wal_commit();
            proto
        }

        /// Hands `PUBLISHER`'s frame `(epoch 0, seq)` to `proto` and
        /// commits: the appends it cost.
        fn data(&mut self, proto: &mut Certified, seq: u64) -> u64 {
            self.copy(proto, PUBLISHER, seq, Starts::new())
        }

        /// As [`data`](Self::data), for a copy of the frame naming
        /// `starts` that `from` sent (a relay unless it is `PUBLISHER`).
        fn copy(&mut self, proto: &mut Certified, from: NodeId, seq: u64, starts: Starts) -> u64 {
            let payload = WireBytes::from(seq.to_le_bytes().to_vec());
            let frame = Frame::Data(id(0, seq), starts, (), payload, from == PUBLISHER);
            self.receive(proto, from, encode_msg(&frame))
        }

        /// Hands `bytes` from `from` to `proto` and commits: the
        /// appends it cost.
        fn receive(&mut self, proto: &mut Certified, from: NodeId, bytes: WireBytes) -> u64 {
            proto.on_message(self, from, &bytes);
            self.storage.wal_commit().appends
        }

        /// Power loss and a fresh incarnation recovered from the log.
        fn crash(&mut self) -> Certified {
            self.storage.power_loss(&DiskFault::LoseUnsynced);
            self.storage.wal_recover();
            self.delivered.clear();
            self.sent.clear();
            let mut proto = Certified::new();
            proto.on_recover(self);
            self.storage.wal_commit();
            proto
        }

        fn delivered_keys(&self) -> Vec<&str> {
            self.storage.keys_with_prefix("cert/delivered").collect()
        }

        /// The ids of the data frames sent to `to`, in send order.
        fn data_to(&self, to: NodeId) -> Vec<MsgId> {
            let data = self.sent.iter().filter(|(dest, ..)| *dest == to);
            data.filter_map(|(_, bytes, _)| Reliable::peek_id(bytes))
                .collect()
        }

        /// Every send since the last call: the data frame's id (`None` for
        /// an ack) and whether it went ahead of its callback's records.
        fn take_sends(&mut self) -> Vec<(Option<MsgId>, bool)> {
            let sent = std::mem::take(&mut self.sent);
            sent.iter()
                .map(|(_, bytes, ahead)| (Reliable::peek_id(bytes), *ahead))
                .collect()
        }

        /// Moves every frame sent to `to` into `proto` at `to`'s disk.
        fn forward(&mut self, to: &mut Disk, proto: &mut Certified) {
            for (dest, bytes, _) in std::mem::take(&mut self.sent) {
                if dest == to.me {
                    to.receive(proto, self.me, bytes);
                }
            }
        }
    }

    impl GroupIo for Disk {
        fn self_id(&self) -> NodeId {
            self.me
        }
        fn members(&self) -> &[NodeId] {
            &self.members
        }
        fn now(&self) -> SimTime {
            SimTime::ZERO
        }
        fn send(&mut self, to: NodeId, bytes: WireBytes) {
            self.sent.push((to, bytes, false));
        }
        fn send_ahead(&mut self, to: NodeId, bytes: WireBytes) {
            self.sent.push((to, bytes, true));
        }
        fn deliver(&mut self, _origin: NodeId, payload: WireBytes) {
            self.delivered
                .push(u64::from_le_bytes(payload[..].try_into().expect("8 bytes")));
        }
        fn set_timer(&mut self, _after: Duration, _token: TimerToken) {}
        fn storage(&mut self) -> ScopedStorage<'_> {
            self.storage.scoped("")
        }
        fn rng(&mut self) -> &mut dyn rand::RngCore {
            &mut self.rng
        }
    }

    fn id(epoch: u64, seq: u64) -> MsgId {
        MsgId {
            origin: PUBLISHER,
            epoch,
            seq,
        }
    }

    /// Broadcasts `value` and commits: the appends it cost.
    fn broadcast(disk: &mut Disk, proto: &mut Certified, value: u64) -> u64 {
        proto.broadcast(disk, WireBytes::from(value.to_le_bytes().to_vec()));
        disk.storage.wal_commit().appends
    }

    fn ack(publisher: &mut Disk, proto: &mut Certified, from: NodeId, id: MsgId) -> u64 {
        publisher.receive(proto, from, encode_msg(&Frame::<()>::Ack(id)))
    }

    #[test]
    fn out_of_order_deliveries_cost_one_record_each_and_survive_a_crash() {
        let mut disk = Disk::subscriber();
        let mut proto = disk.start();
        let appends: Vec<u64> = [3, 1, 2, 2]
            .iter()
            .map(|&seq| disk.data(&mut proto, seq))
            .collect();
        assert_eq!(
            appends,
            [1, 1, 1, 0],
            "one record per first delivery, none for a duplicate"
        );
        assert_eq!(disk.delivered, [3, 1, 2]);

        let mut proto = disk.crash();
        assert_eq!(proto.seen.len(), 3);
        for seq in [1, 2, 3] {
            assert_eq!(disk.data(&mut proto, seq), 0);
        }
        assert!(
            disk.delivered.is_empty(),
            "a retransmission after recovery is not redelivered"
        );
        disk.data(&mut proto, 4);
        assert_eq!(disk.delivered, [4]);
    }

    #[test]
    fn a_legacy_delivered_set_is_folded_in_on_load() {
        let mut disk = Disk::subscriber();
        let legacy: Vec<MsgId> = [1, 2, 5].iter().map(|&seq| id(0, seq)).collect();
        disk.storage.put(KEY_LEGACY_DELIVERED, &legacy).unwrap();
        disk.storage.wal_commit();

        let mut proto = disk.crash();
        assert_eq!(proto.seen.len(), 3);
        for seq in [1, 2, 5] {
            disk.data(&mut proto, seq);
        }
        assert!(disk.delivered.is_empty(), "legacy ids are not redelivered");
        disk.data(&mut proto, 3);
        assert_eq!(disk.delivered, [3]);
    }

    #[test]
    fn in_order_deliveries_keep_one_small_key() {
        let mut disk = Disk::subscriber();
        let mut proto = disk.start();
        for seq in 1..=10_000 {
            disk.data(&mut proto, seq);
        }
        assert_eq!(disk.delivered.len(), 10_000);
        assert_eq!(disk.delivered_keys(), ["cert/delivered/0"]);
        assert_eq!(
            proto.seen.origin(PUBLISHER)[&0],
            Delivered {
                upto: 10_000,
                above: BTreeSet::new()
            }
        );
        let bytes = disk.storage.get_raw("cert/delivered/0").unwrap().len();
        assert!(
            bytes < 16,
            "the record does not grow with the deliveries: {bytes} B"
        );
    }

    /// A subscriber the publisher starts addressing after its first 200
    /// frames: the frames name its start until it acknowledges one, so its
    /// stream record stays a watermark and its delivered record does not
    /// grow. (200 keeps the watermark two varint bytes wide throughout.)
    #[test]
    fn a_late_subscriber_keeps_one_small_record() {
        const EARLY: u64 = 200;
        let mut publisher = Disk::new(PUBLISHER, &[PUBLISHER]);
        let mut subscriber = Disk::subscriber();
        let mut proto = publisher.start();
        let mut sub = subscriber.start();
        for value in 1..=EARLY {
            broadcast(&mut publisher, &mut proto, value);
        }
        assert!(publisher.sent.is_empty(), "no target yet");
        publisher.members = vec![PUBLISHER, ME];
        let mut record = Vec::new();
        for value in EARLY + 1..=EARLY + 1_000 {
            broadcast(&mut publisher, &mut proto, value);
            publisher.forward(&mut subscriber, &mut sub);
            subscriber.forward(&mut publisher, &mut proto);
            record.push(
                subscriber
                    .storage
                    .get_raw("cert/delivered/0")
                    .unwrap()
                    .len(),
            );
        }
        let late: Vec<u64> = (EARLY + 1..=EARLY + 1_000).collect();
        assert_eq!(subscriber.delivered, late);
        let stream = Delivered {
            upto: EARLY + 1_000,
            above: BTreeSet::new(),
        };
        assert_eq!(sub.seen.origin(PUBLISHER)[&1], stream);
        assert_eq!(
            record[9], record[999],
            "the record at delivery 10 and 1 000"
        );
        assert!(record[999] < 16, "{} B", record[999]);
        assert!(owed(&mut proto, &mut publisher).is_empty());
    }

    /// Once a frame named its start here, a copy of an earlier seq is a
    /// duplicate: a retransmission (or a late first copy) from the origin
    /// is acknowledged and not delivered, a relayed one is dropped, and the
    /// start itself is still delivered.
    #[test]
    fn copies_below_the_start_are_duplicates_and_still_acked() {
        let mut disk = Disk::new(ME, &[PUBLISHER, ME, OTHER]);
        let mut proto = disk.start();
        assert_eq!(disk.copy(&mut proto, PUBLISHER, 8, vec![(ME, 7)]), 1);
        assert_eq!(disk.take_sends(), [(None, false)], "the ack");
        assert_eq!(disk.data(&mut proto, 5), 0, "no record");
        assert_eq!(disk.take_sends(), [(None, false)], "acked");
        assert_eq!(disk.copy(&mut proto, OTHER, 3, Starts::new()), 0);
        assert!(disk.take_sends().is_empty(), "a relayed copy is not acked");
        assert_eq!(disk.data(&mut proto, 7), 1);
        assert_eq!(disk.delivered, [8, 7]);
        let stream = Delivered {
            upto: 8,
            above: BTreeSet::new(),
        };
        assert_eq!(proto.seen.origin(PUBLISHER)[&0], stream);
    }

    /// A frame some target has not acknowledged, as a capture lists it:
    /// `(seq, targets, acked)`.
    fn owed(proto: &mut Certified, disk: &mut Disk) -> Vec<(u64, Vec<u64>, Vec<u64>)> {
        let cap = proto.capture(disk);
        cap.retransmit
            .into_iter()
            .map(|e| (e.id.seq, e.targets, e.acked))
            .collect()
    }

    #[test]
    fn a_capture_after_a_partial_ack_lists_the_acker() {
        let mut disk = Disk::new(PUBLISHER, &[PUBLISHER, ME, OTHER]);
        let mut proto = disk.start();
        broadcast(&mut disk, &mut proto, 7);
        assert_eq!(
            ack(&mut disk, &mut proto, ME, id(1, 1)),
            0,
            "a partial ack writes nothing"
        );
        let cap = proto.capture(&mut disk);
        assert_eq!(
            (cap.proto.as_str(), cap.epoch, cap.next_seq),
            ("certified", 1, 1)
        );
        assert_eq!(owed(&mut proto, &mut disk), [(1, vec![1, 2], vec![1])]);
        let appends = ack(&mut disk, &mut proto, OTHER, id(1, 1));
        assert_eq!(appends, 1, "the last ack removes the frame");
        assert!(owed(&mut proto, &mut disk).is_empty());
    }

    #[test]
    fn a_publisher_crash_starts_one_epoch_and_resends_the_old_ones_frames() {
        let mut publisher = Disk::new(PUBLISHER, &[ME]); // not a member itself
        let mut subscriber = Disk::subscriber();
        let mut proto = publisher.start();
        let mut sub = subscriber.start();
        let appends = [1, 2].map(|value| broadcast(&mut publisher, &mut proto, value));
        assert_eq!(
            appends,
            [2, 1],
            "the epoch goes with the incarnation's first frame"
        );
        publisher.forward(&mut subscriber, &mut sub);
        assert_eq!(subscriber.delivered, [1, 2]);
        subscriber.sent.clear(); // the acks are lost

        let mut proto = publisher.crash();
        assert_eq!(
            owed(&mut proto, &mut publisher),
            [(1, vec![1], vec![]), (2, vec![1], vec![])]
        );
        proto.on_timer(&mut publisher, RETRANSMIT);
        let appends = [3, 4].map(|value| broadcast(&mut publisher, &mut proto, value));
        assert_eq!(appends, [2, 1], "one epoch record for the new incarnation");
        assert_eq!(publisher.storage.get::<u64>(KEY_EPOCH).unwrap(), Some(2));
        assert_eq!(
            publisher.data_to(ME),
            [id(1, 1), id(1, 2), id(2, 1), id(2, 2)]
        );

        publisher.forward(&mut subscriber, &mut sub);
        assert_eq!(
            subscriber.delivered,
            [1, 2, 3, 4],
            "no old-epoch frame is redelivered"
        );
        subscriber.forward(&mut publisher, &mut proto);
        assert!(
            owed(&mut proto, &mut publisher).is_empty(),
            "acks of both epochs are accepted"
        );
        assert_eq!(publisher.storage.keys_with_prefix("cert/out/").count(), 0);
    }

    /// `cert/log/<seq>`'s value before epochs were persisted.
    #[derive(Serialize)]
    struct ParentFrame {
        id: MsgId,
        payload: WireBytes,
        targets: Vec<NodeId>,
        acked: Vec<NodeId>,
    }

    #[test]
    fn recovery_reads_the_parent_on_disk_form() {
        let mut publisher = Disk::new(PUBLISHER, &[PUBLISHER, ME, OTHER]);
        for (seq, acked) in [(1, vec![OTHER]), (2, vec![])] {
            let frame = ParentFrame {
                id: id(0, seq),
                payload: WireBytes::from(seq.to_le_bytes().to_vec()),
                targets: vec![ME, OTHER],
                acked,
            };
            publisher
                .storage
                .put(format!("cert/log/{seq:020}"), &frame)
                .unwrap();
        }
        publisher.storage.put(KEY_LEGACY_COUNTER, &2u64).unwrap();
        publisher.storage.wal_commit();
        // ME delivered seq 2 at the parent; its ack was lost.
        let mut subscriber = Disk::new(ME, &[PUBLISHER, ME, OTHER]);
        let mut sub = subscriber.start();
        subscriber.data(&mut sub, 2);
        subscriber.delivered.clear();
        subscriber.sent.clear();

        let mut proto = publisher.crash();
        let expected = [(1, vec![1, 2], vec![2]), (2, vec![1, 2], vec![])];
        assert_eq!(owed(&mut proto, &mut publisher), expected);
        assert_eq!(publisher.storage.keys_with_prefix("cert/log/").count(), 0);
        assert_eq!(publisher.storage.get_raw(KEY_LEGACY_COUNTER), None);
        for _ in 0..2 {
            proto.on_timer(&mut publisher, RETRANSMIT);
        }
        assert_eq!(
            publisher.data_to(ME),
            [id(0, 1), id(0, 2), id(0, 1), id(0, 2)]
        );
        assert_eq!(publisher.data_to(OTHER), [id(0, 2), id(0, 2)]);
        broadcast(&mut publisher, &mut proto, 3);
        assert_eq!(publisher.data_to(ME)[4], id(1, 1), "new epochs start at 1");
        assert_eq!(publisher.storage.get::<u64>(KEY_EPOCH).unwrap(), Some(1));

        publisher.forward(&mut subscriber, &mut sub);
        assert_eq!(subscriber.delivered, [1, 3], "seq 1 once, seq 2 not again");
        subscriber.forward(&mut publisher, &mut proto);
        ack(&mut publisher, &mut proto, OTHER, id(0, 2));
        ack(&mut publisher, &mut proto, OTHER, id(1, 1));
        assert!(owed(&mut proto, &mut publisher).is_empty());
        assert_eq!(publisher.storage.keys_with_prefix("cert/out/").count(), 0);
    }

    // Which sends may leave before their callback's records reach the
    // disk (`GroupIo::send_ahead`): each step is one callback and its
    // commit, as a DACE host runs it.

    /// A frame whose epoch an earlier callback committed leaves ahead, and
    /// its callback's commit carries its own `cert/out` record. The
    /// incarnation's first frame, which writes the epoch, waits for it.
    #[test]
    fn a_frame_under_an_epoch_committed_earlier_leaves_ahead_of_its_record() {
        let mut publisher = Disk::new(PUBLISHER, &[ME]);
        let mut proto = publisher.start();
        assert_eq!(broadcast(&mut publisher, &mut proto, 1), 2);
        assert_eq!(publisher.take_sends(), [(Some(id(1, 1)), false)]);
        for seq in 2..=4 {
            assert_eq!(broadcast(&mut publisher, &mut proto, seq), 1, "its record");
            assert_eq!(publisher.take_sends(), [(Some(id(1, seq)), true)]);
            assert!(publisher.storage.get_raw(&format!("cert/out/1/{seq}")).is_some());
        }
    }

    /// One callback can broadcast more than once: a frame written after
    /// the epoch record in the same callback still depends on it. So does
    /// every frame of a recovered incarnation's first callback, and its
    /// retransmissions stay plain too.
    #[test]
    fn broadcasts_in_the_callback_that_writes_the_epoch_stay_plain() {
        let mut publisher = Disk::new(PUBLISHER, &[ME]);
        let twice = |disk: &mut Disk, proto: &mut Certified| {
            for value in [1u64, 2] {
                proto.broadcast(disk, WireBytes::from(value.to_le_bytes().to_vec()));
            }
            disk.storage.wal_commit();
            disk.take_sends()
        };
        let mut proto = publisher.start();
        let first = twice(&mut publisher, &mut proto);
        assert_eq!(first, [(Some(id(1, 1)), false), (Some(id(1, 2)), false)]);

        let mut proto = publisher.crash();
        let first = twice(&mut publisher, &mut proto);
        assert_eq!(first, [(Some(id(2, 1)), false), (Some(id(2, 2)), false)]);
        proto.on_timer(&mut publisher, RETRANSMIT);
        publisher.storage.wal_commit();
        let retransmitted = publisher.take_sends();
        assert_eq!(retransmitted.len(), 4, "both epochs' frames are owed");
        assert!(retransmitted.iter().all(|&(_, ahead)| !ahead));
        broadcast(&mut publisher, &mut proto, 3);
        assert_eq!(publisher.take_sends(), [(Some(id(2, 3)), true)]);
    }

    /// A subscriber's ack follows its delivered record: the callback that
    /// delivers a frame appends `cert/delivered/<origin>` and acks plain,
    /// and so does a duplicate's (with no record).
    #[test]
    fn acks_and_delivered_records_are_never_ahead() {
        let mut disk = Disk::subscriber();
        let mut proto = disk.start();
        for (seq, record) in [(1, 1), (2, 1), (1, 0)] {
            assert_eq!(disk.data(&mut proto, seq), record, "seq {seq}");
            assert_eq!(disk.take_sends(), [(None, false)], "seq {seq}: one plain ack");
        }
        assert_eq!(disk.delivered_keys(), ["cert/delivered/0"]);
    }
}
