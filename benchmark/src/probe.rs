//! Layer probes: each inner layer's public functions called directly, on
//! the workload's own inputs.
//!
//! A `NodeHost` callback is opaque from outside, so the traced replay
//! cannot put a span around the codec, filter, core or group calls made
//! inside it. What it can do is count them (the stack's own counters) and
//! ask here what one such call costs in isolation. All unit costs are mean
//! µs per call over the first [`SAMPLE`] paced publishes, repeated for
//! [`PASSES`] passes.

use std::hint::black_box;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

use psc_codec::WireBytes;
use psc_filter::{FilterIndex, RemoteFilter};
use psc_group::{Certified, GroupIo, Multicast, Reliable, TimerToken};
use psc_obvent::WireObvent;
use psc_simnet::{Duration, NodeId, ScopedStorage, SimTime, Storage};
use pubsub_core::Domain;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::stats::median;
use crate::workload::{self, Inputs, Workload};

/// Paced publishes each probe is run on.
pub const SAMPLE: usize = 500;
/// Passes over the sample.
const PASSES: usize = 4;
/// Calls behind each codec / filter / core unit cost.
pub const CALLS: usize = SAMPLE * PASSES;
/// Appends behind `wal.fsync_floor_us`.
pub const FSYNC_SAMPLES: usize = 40;

/// Unit costs (µs per call) and ratios measured by the probes. Fields that
/// do not apply to a workload (no filters, no group protocol, no data
/// directory) read 0.
#[derive(Debug, Default, Clone)]
pub struct Probes {
    pub encode_us: f64,
    pub decode_us: f64,
    pub view_us: f64,
    pub index_match_us: f64,
    pub candidates_per_event: f64,
    pub index_insert_us: f64,
    pub index_remove_us: f64,
    pub deliver_us: f64,
    /// Whether the population carries remote filters (then `deliver` builds
    /// one view per obvent).
    pub filtered: bool,
    /// Subscriptions an average sampled obvent matches in `deliver`.
    pub deliver_matched: f64,
    pub subscribe_us: f64,
    pub broadcast_us: f64,
    pub on_message_us: f64,
    /// Codec calls inside one `broadcast` / one `on_message`, so their cost
    /// is not charged twice.
    pub broadcast_codec_calls: (f64, f64),
    pub on_message_codec_calls: (f64, f64),
    pub fsync_floor_us: f64,
}

impl Probes {
    /// What a charged call into `layer` costs beyond the codec / view calls
    /// charged separately, in ns. `layer` is a span name of the replay.
    pub fn exclusive_ns(&self, layer: &str) -> f64 {
        let codec = |(enc, dec): (f64, f64)| enc * self.encode_us + dec * self.decode_us;
        let us = match layer {
            "codec.encode" => self.encode_us,
            "codec.decode" => self.decode_us,
            // `view()` decodes (charged as a decode) and then builds the
            // property record; only the second part is left to charge.
            "obvent.view" => self.view_us - self.decode_us,
            "filter.index_match" => self.index_match_us,
            "filter.index_insert" => self.index_insert_us,
            "filter.index_remove" => self.index_remove_us,
            // `deliver` = one view + the scan + one decode per match.
            "core.deliver" => {
                let view = if self.filtered { self.view_us } else { 0.0 };
                self.deliver_us - view - self.deliver_matched * self.decode_us
            }
            "group.broadcast" => self.broadcast_us - codec(self.broadcast_codec_calls),
            "group.on_message" => self.on_message_us - codec(self.on_message_codec_calls),
            _ => 0.0,
        };
        us.max(0.0) * 1e3
    }
}

/// Mean µs per call of `f` over `items`, [`PASSES`] times.
fn time_each<T>(items: &[T], mut f: impl FnMut(&T)) -> f64 {
    if items.is_empty() {
        return 0.0;
    }
    let started = Instant::now();
    for _ in 0..PASSES {
        for item in items {
            f(item);
        }
    }
    started.elapsed().as_secs_f64() * 1e6 / (PASSES * items.len()) as f64
}

/// A `GroupIo` host built from the public trait alone: collects sends and
/// deliveries, real `Storage` behind `storage()`.
struct ProbeIo {
    id: NodeId,
    members: Vec<NodeId>,
    storage: Storage,
    rng: StdRng,
    sent: Vec<(NodeId, WireBytes)>,
}

impl ProbeIo {
    fn new(id: u64, members: &[NodeId]) -> ProbeIo {
        ProbeIo {
            id: NodeId(id),
            members: members.to_vec(),
            storage: Storage::new(),
            rng: StdRng::seed_from_u64(id),
            sent: Vec::new(),
        }
    }
}

impl GroupIo for ProbeIo {
    fn self_id(&self) -> NodeId {
        self.id
    }
    fn members(&self) -> &[NodeId] {
        &self.members
    }
    fn now(&self) -> SimTime {
        SimTime::ZERO
    }
    fn send(&mut self, to: NodeId, bytes: WireBytes) {
        self.sent.push((to, bytes));
    }
    fn deliver(&mut self, _origin: NodeId, payload: WireBytes) {
        black_box(payload);
    }
    fn set_timer(&mut self, _after: Duration, _token: TimerToken) {}
    fn storage(&mut self) -> ScopedStorage<'_> {
        self.storage.scoped("ch/probe/")
    }
    fn rng(&mut self) -> &mut dyn rand::RngCore {
        &mut self.rng
    }
}

/// `broadcast` at the publisher, `on_message` at subscriber 1 (data) and
/// back at the publisher (ack), per sampled payload.
fn group_probe(probes: &mut Probes, inputs: &Inputs, payloads: &[WireBytes]) {
    let (mut origin, mut receiver): (Box<dyn Multicast>, Box<dyn Multicast>) = match inputs.workload
    {
        Workload::ReliableFanout => (Box::new(Reliable::new()), Box::new(Reliable::new())),
        Workload::CertifiedWal => (Box::new(Certified::new()), Box::new(Certified::new())),
        Workload::FilterMatch | Workload::SubChurn => return,
    };
    let members: Vec<NodeId> = (1..inputs.nodes as u64).map(NodeId).collect();
    let mut io0 = ProbeIo::new(0, &members);
    let mut io1 = ProbeIo::new(1, &members);
    let global = psc_telemetry::global();
    let (encodes, decodes) = (
        global.counter("codec.encodes"),
        global.counter("codec.decodes"),
    );
    let codec_now = || (encodes.get() as f64, decodes.get() as f64);
    let (mut bcast_ns, mut msg_ns, mut msgs) = (0u128, 0u128, 0u64);
    let (mut bcast_codec, mut msg_codec) = ((0.0, 0.0), (0.0, 0.0));
    for payload in payloads {
        let before = codec_now();
        let started = Instant::now();
        origin.broadcast(&mut io0, payload.clone());
        bcast_ns += started.elapsed().as_nanos();
        let after = codec_now();
        bcast_codec = (
            bcast_codec.0 + after.0 - before.0,
            bcast_codec.1 + after.1 - before.1,
        );

        let before = codec_now();
        for (to, bytes) in std::mem::take(&mut io0.sent) {
            if to == NodeId(1) {
                let started = Instant::now();
                receiver.on_message(&mut io1, NodeId(0), &bytes);
                msg_ns += started.elapsed().as_nanos();
                msgs += 1;
            }
        }
        for (to, bytes) in std::mem::take(&mut io1.sent) {
            if to == NodeId(0) {
                let started = Instant::now();
                origin.on_message(&mut io0, NodeId(1), &bytes);
                msg_ns += started.elapsed().as_nanos();
                msgs += 1;
            }
        }
        let after = codec_now();
        msg_codec = (
            msg_codec.0 + after.0 - before.0,
            msg_codec.1 + after.1 - before.1,
        );
    }
    let n = payloads.len().max(1) as f64;
    let m = msgs.max(1) as f64;
    probes.broadcast_us = bcast_ns as f64 / 1e3 / n;
    probes.on_message_us = msg_ns as f64 / 1e3 / m;
    probes.broadcast_codec_calls = (bcast_codec.0 / n, bcast_codec.1 / n);
    probes.on_message_codec_calls = (msg_codec.0 / m, msg_codec.1 / m);
}

/// One bare append + `sync_data` in the data directory: how real the disk
/// under the WAL is.
fn fsync_floor_us(dir: &Path) -> f64 {
    let _ = std::fs::create_dir_all(dir);
    let path = dir.join("fsync_floor.probe");
    let Ok(mut file) = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&path)
    else {
        return 0.0;
    };
    let record = [0x5au8; 320];
    let samples: Vec<f64> = (0..FSYNC_SAMPLES)
        .filter_map(|_| {
            let started = Instant::now();
            file.write_all(&record).ok()?;
            file.sync_data().ok()?;
            Some(started.elapsed().as_secs_f64() * 1e6)
        })
        .collect();
    let _ = std::fs::remove_file(&path);
    median(&samples)
}

/// Runs every probe that applies to `inputs`' workload.
pub fn run(inputs: &Inputs, data_dir: &Path) -> Probes {
    let mut probes = Probes::default();
    let workload = inputs.workload;
    let sample: Vec<&workload::Publish> = inputs
        .replay_phase()
        .publishes
        .iter()
        .take(SAMPLE)
        .collect();
    let wires: Vec<WireObvent> = sample
        .iter()
        .map(|p| workload::to_wire(workload, p, 0))
        .collect();

    // ---- codec, obvent ------------------------------------------------
    probes.encode_us = time_each(&wires, |w| drop(black_box(psc_codec::to_wire_bytes(w))));
    probes.decode_us = time_each(&wires, |w| workload::decode(workload, w));
    probes.view_us = time_each(&wires, |w| drop(black_box(w.view())));

    // ---- filter: the population's FilterIndex -------------------------
    let filters: Vec<RemoteFilter> = inputs
        .subs
        .iter()
        .filter_map(|s| s.kind.remote_filter())
        .collect();
    probes.filtered = !filters.is_empty();
    if probes.filtered {
        let views: Vec<_> = wires
            .iter()
            .map(|w| w.view().expect("registered kind"))
            .collect();
        let candidates = psc_telemetry::global().counter("filter.index.candidates");
        let mut index = FilterIndex::new();
        let started = Instant::now();
        let ids: Vec<_> = filters.iter().cloned().map(|f| index.insert(f)).collect();
        probes.index_insert_us = started.elapsed().as_secs_f64() * 1e6 / ids.len() as f64;
        let before = candidates.get();
        probes.index_match_us = time_each(&views, |v| drop(black_box(index.matching(v))));
        probes.candidates_per_event =
            (candidates.get() - before) as f64 / (PASSES * views.len()) as f64;
        let started = Instant::now();
        for id in &ids {
            black_box(index.remove(*id));
        }
        probes.index_remove_us = started.elapsed().as_secs_f64() * 1e6 / ids.len() as f64;
    }

    // ---- core: node 1's subscriptions, empty handlers -----------------
    let domain = Domain::in_process();
    let mine: Vec<_> = inputs.subs.iter().filter(|s| s.node == 1).collect();
    let started = Instant::now();
    for spec in &mine {
        // The loopback domain has no durable fabric; identity is irrelevant
        // to the scan being measured.
        let spec = workload::SubSpec {
            durable_id: None,
            ..(*spec).clone()
        };
        workload::subscribe_with(&domain, &spec, |_, _| {}).detach();
    }
    probes.subscribe_us = started.elapsed().as_secs_f64() * 1e6 / mine.len().max(1) as f64;
    let sink = domain.sink();
    let mut matched = 0usize;
    probes.deliver_us = time_each(&wires, |w| matched += sink.deliver(w));
    probes.deliver_matched = matched as f64 / (PASSES * wires.len().max(1)) as f64;

    // ---- group --------------------------------------------------------
    let payloads: Vec<WireBytes> = wires
        .iter()
        .map(|w| psc_codec::to_wire_bytes(w).expect("wire obvents encode"))
        .collect();
    group_probe(&mut probes, inputs, &payloads);

    // ---- WAL ----------------------------------------------------------
    if workload.durable() {
        probes.fsync_floor_us = fsync_floor_us(data_dir);
    }
    probes
}
