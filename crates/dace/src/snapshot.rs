//! Node-side state of the Chandy–Lamport snapshot plane.
//!
//! `psc-snapshot` owns the cut *data model* (fragments, clocks, the
//! assembled [`ClusterCut`]); this module owns one node's *participation
//! state* in a wave: the wave id, its own captured fragment, the per-link
//! in-flight recordings, and (on the initiator) the cut under assembly.
//! The protocol driving it lives in `node.rs` — markers and fragments are
//! [`NodeMsg`](crate::node) variants, and every other transport message
//! carries a wave tag so the capture-before-processing rule works over
//! the non-FIFO simulated network (Lai–Yang-style colouring: a receiver
//! seeing a higher wave captures its state *before* processing the
//! message, so no post-cut send can land in a pre-cut state).
//!
//! Liveness under loss, partitions and crashes comes from two timers
//! folded into one retry tick ([`DaceTimer::SnapRetry`](crate::node)):
//! every node re-floods its marker while the wave is open, and after
//! [`FORCE_CLOSE_TICKS`] ticks a node force-closes recordings whose
//! marker never arrived (partitioned or crashed peer) so its fragment —
//! and therefore the cut — still completes.

use std::collections::BTreeMap;

use psc_codec::WireBytes;
use psc_snapshot::{ClusterCut, InFlightObvent, InFlightRec, MsgRef, NodeFrag, VClock};

/// Sentinel initiator id for waves joined via a tagged message before any
/// marker arrived: the tag carries only the wave id, so the participant
/// captures immediately and learns where to send its fragment from the
/// (retransmitted) marker.
pub(crate) const UNKNOWN_INITIATOR: u64 = u64::MAX;

/// Per-link cap on individually identified in-flight obvents; messages
/// recorded past it are counted in [`InFlightRec::others`] instead.
pub(crate) const INFLIGHT_CAP: usize = 64;

/// Retry period of the snapshot plane: the initiator retransmits markers
/// to nodes whose fragment is still missing, and participants use the same
/// tick to force-close in-flight recordings whose marker never arrives
/// (partitioned or crashed peers), keeping the wave live under loss.
pub(crate) const RETRY_PERIOD: psc_simnet::Duration = psc_simnet::Duration::from_millis(25);

/// Retry ticks before recordings without a marker are force-closed.
pub(crate) const FORCE_CLOSE_TICKS: u64 = 8;

/// One node's snapshot-plane state: the causal clock it stamps into every
/// publish, and its participation in (at most) one snapshot wave at a
/// time — a newer wave supersedes an unfinished older one.
#[derive(Default)]
pub(crate) struct SnapPlane {
    /// Highest wave this node has participated in (0 = never).
    pub(crate) wave: u64,
    /// Initiator of the current wave ([`UNKNOWN_INITIATOR`] until learned).
    pub(crate) initiator: u64,
    /// Whether this node initiated the current wave.
    pub(crate) initiating: bool,
    /// This node's vector clock: ticked on publish, merged from the wire
    /// stamp on delivery.
    pub(crate) clock: VClock,
    /// Whether this incarnation went through crash recovery (its fragment
    /// is exempt from clock-based cut checks: the in-memory clock
    /// restarted).
    pub(crate) recovered: bool,
    /// Own fragment, captured at wave start; taken when finalized.
    pub(crate) frag: Option<NodeFrag>,
    /// Whether the own fragment is finalized (inserted into the cut on
    /// the initiator, sent to the initiator otherwise).
    pub(crate) frag_done: bool,
    /// The encoded `SnapFrag` message, kept to re-send on a duplicate
    /// initiator marker (fragment-loss recovery).
    pub(crate) frag_msg: Option<WireBytes>,
    /// Per-incoming-link in-flight recording, keyed by peer.
    pub(crate) recording: BTreeMap<u64, InFlightRec>,
    /// Recordings were force-closed by the retry timer (the fragment may
    /// undercount in-flight traffic from dead peers).
    pub(crate) forced: bool,
    /// Initiator-side cut under assembly.
    pub(crate) cut: Option<ClusterCut>,
    /// The last completed cut (initiator only).
    pub(crate) completed: Option<ClusterCut>,
    /// Retry ticks elapsed in the current wave.
    pub(crate) retry_ticks: u64,
    /// Whether a `SnapRetry` timer is armed.
    pub(crate) retry_armed: bool,
}

impl SnapPlane {
    /// Enters wave `wave`: resets per-wave state and opens one in-flight
    /// recording per peer. The caller captures the fragment first (capture
    /// strictly precedes any processing of wave-tagged traffic).
    pub(crate) fn begin(
        &mut self,
        wave: u64,
        initiator: u64,
        initiating: bool,
        peers: &[u64],
        frag: NodeFrag,
    ) {
        self.wave = wave;
        self.initiator = initiator;
        self.initiating = initiating;
        self.frag = Some(frag);
        self.frag_done = false;
        self.frag_msg = None;
        self.forced = false;
        self.retry_ticks = 0;
        self.recording = peers
            .iter()
            .map(|&p| {
                (
                    p,
                    InFlightRec {
                        from: p,
                        ..InFlightRec::default()
                    },
                )
            })
            .collect();
        self.cut = None;
        // A new wave supersedes the previous cut regardless of role — an
        // initiator re-initiating must not let the stale cut satisfy the
        // completion check of the new wave.
        self.completed = None;
    }

    /// Closes the recording of the link from `peer` (its marker arrived).
    pub(crate) fn close_link(&mut self, peer: u64) {
        if let Some(rec) = self.recording.get_mut(&peer) {
            rec.closed = true;
        }
    }

    /// Records one pre-cut message from `peer` into the link's open
    /// recording. Returns `true` when an identified obvent was recorded
    /// (as opposed to counted or ignored).
    pub(crate) fn record(
        &mut self,
        peer: u64,
        channel: u64,
        id: Option<MsgRef>,
        len: u64,
    ) -> bool {
        if self.frag_done {
            return false; // recordings already folded into the fragment
        }
        let Some(rec) = self.recording.get_mut(&peer) else {
            return false;
        };
        if rec.closed {
            return false;
        }
        rec.bytes += len;
        match id {
            Some(id) if rec.obvents.len() < INFLIGHT_CAP => {
                rec.obvents.push(InFlightObvent { channel, id });
                true
            }
            _ => {
                rec.others += 1;
                false
            }
        }
    }

    /// Number of recordings still awaiting their link's marker.
    pub(crate) fn open_links(&self) -> usize {
        self.recording.values().filter(|r| !r.closed).count()
    }

    /// Whether the own fragment can be finalized: every link's marker has
    /// arrived (or the retry timer gave up on the stragglers), and — for
    /// participants — the initiator's identity is known.
    pub(crate) fn frag_ready(&self) -> bool {
        if self.wave == 0 || self.frag_done {
            return false;
        }
        if self.open_links() > 0 && !self.forced {
            return false;
        }
        self.initiating || self.initiator != UNKNOWN_INITIATOR
    }

    /// Whether this node still has work outstanding in the current wave
    /// (drives marker re-floods and force-close ticks).
    pub(crate) fn in_progress(&self) -> bool {
        if self.wave == 0 {
            return false;
        }
        if self.initiating {
            self.completed.is_none()
        } else {
            !self.frag_done
        }
    }
}
