//! The `live` driver: end-to-end numbers from the real TCP path.
//!
//! An in-process full-mesh cluster of `psc_net::DaceEndpoint`s on
//! `127.0.0.1:0` with `DaceConfig::default()` and `NetConfig::new`
//! defaults. All traffic crosses the host's loopback interface, never a
//! real link. One generator thread publishes through `with_domain`; it
//! blocks on a condvar (closed phase) or sleeps to the next due time (paced
//! phase) and never spins. Tracing is off here; the per-layer numbers this
//! driver contributes are deltas of the public `DaceEndpoint::metrics()`
//! snapshot and of `/proc/self`.
//!
//! Every gated latency comes from the paced phases and is reported at the
//! reference host speed (`crate::hostref`): threads pinned to each CPU read
//! the host's speed every 50 ms while the main thread sleeps to the next
//! window boundary, and each window's figures are scaled by that window's
//! reading before the median over all windows is taken.

use std::path::PathBuf;
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

use psc_dace::DaceConfig;
use psc_net::{DaceEndpoint, NetConfig};
use psc_simnet::NodeId;
use psc_telemetry::Snapshot;
use pubsub_core::Subscription;

use crate::hostref::{at_reference_speed, HostSampler, NOMINAL_NS};
use crate::oracle::{self, Verdict};
use crate::procfs;
use crate::sink::{now_ns, Record, Sink};
use crate::stats::{median, percentile, window_median};
use crate::workload::{
    self, ChurnOp, Inputs, Phase, Round, SubKind, SubSpec, CLOSED_OUTSTANDING, CLOSED_SLICES,
    PACED_SHARE, ROUNDS, WARMUP_SHARE, WINDOWS,
};

/// How long a probe round waits before publishing the probes again.
const PROBE_ROUND: Duration = Duration::from_millis(1);
/// Longest the generator waits on deliveries before the run is abandoned.
const STALL_LIMIT: Duration = Duration::from_secs(30);
/// Drain allowance after the paced phase.
const DRAIN_LIMIT: Duration = Duration::from_secs(10);
/// Settle time after the drain so late duplicates are still caught.
const GRACE: Duration = Duration::from_millis(300);

/// Everything the live run measured. Times in the units the metric names
/// say; `*_samples` are the per-window / per-slice values behind a median.
/// `deliver_*` and `cpu_us_per_delivery` are at the reference host speed,
/// their `raw_*` twins are what the clock read.
#[derive(Debug, Default)]
pub struct LiveReport {
    pub setup_s: f64,
    pub setup_samples: Vec<f64>,
    pub raw_setup_s: f64,
    pub raw_setup_samples: Vec<f64>,
    pub deliver_p50_us: f64,
    pub p50_samples: Vec<f64>,
    pub deliver_p75_us: f64,
    pub p75_samples: Vec<f64>,
    /// Process CPU (every thread, user and kernel) per delivery. Reported
    /// per layer, not gated: see the README on what a busy host does to it.
    pub cpu_us_per_delivery: f64,
    pub cpu_samples: Vec<f64>,
    /// Settled resident set when each round's deliveries are all in.
    pub rss_mb: f64,
    pub rss_samples: Vec<f64>,
    pub verdict: Verdict,
    /// Deliveries still owed at the end of the paced phase, counted as
    /// failed when they exceed one second of offered load.
    pub backlog_failed: u64,
    pub queue_dropped: u64,
    pub paced_publishes: u64,
    pub paced_deliveries: u64,
    // ---- per-layer, live ------------------------------------------
    /// Host-speed readings, one per paced window (ns per sample).
    pub host_ref_samples: Vec<f64>,
    pub host_ref_ns: f64,
    /// Largest ÷ smallest window reading: how far the host moved in the run.
    pub host_ref_swing: f64,
    pub raw_p50_us: f64,
    pub raw_cpu_us: f64,
    pub peak_rss_mb: f64,
    /// Handler invocations per second in the timed closed-phase slices.
    pub closed_deliveries_per_s: f64,
    pub slice_samples: Vec<f64>,
    pub closed_publishes_per_s: f64,
    pub retransmits_per_publish: f64,
    pub control_msgs_per_s: f64,
    pub act_sync_us: f64,
    pub transit_us: f64,
    pub msgs_per_delivery: f64,
    pub bytes_per_delivery: f64,
    pub ctx_switches_per_delivery: f64,
    pub threads: f64,
    pub backpressure_waits: f64,
    pub offered_per_s: f64,
    pub lag_p99_us: f64,
    pub gen_cpu_share: f64,
    pub tail_p90_us: f64,
    pub tail_p99_us: f64,
    pub tail_max_us: f64,
}

impl LiveReport {
    pub fn failed(&self) -> u64 {
        self.verdict.failed() + self.backlog_failed + self.queue_dropped
    }
}

/// How long one set-up took, and how much of that the process spent on a
/// CPU (any thread) rather than waiting: `psc-net` polls for connections
/// in 5 ms sleeps, which no host speed shortens.
#[derive(Debug, Clone, Copy)]
struct SetUp {
    wall_s: f64,
    busy_s: f64,
}

impl SetUp {
    /// The set-up time with its computing part at the reference host speed.
    fn at_reference_speed(self, host_ref_ns: f64) -> f64 {
        self.wall_s - self.busy_s + at_reference_speed(self.busy_s, host_ref_ns)
    }
}

/// One cluster incarnation with its subscriptions installed and probed.
struct Cluster {
    endpoints: Vec<DaceEndpoint>,
    sink: Arc<Sink>,
    /// Handles of the churn slots' current occupants.
    churn_slots: Vec<Option<Subscription>>,
}

impl Cluster {
    /// Bind, mesh, install subscriptions, probe-publish until every
    /// subscribing node's last subscription has seen a probe. Returns the
    /// cluster and how long that took.
    fn start(inputs: &Inputs, data_dir: Option<PathBuf>) -> (Cluster, SetUp) {
        let capacities: Vec<usize> = inputs.expected.iter().map(|e| e.len() / ROUNDS).collect();
        let sink = Sink::new(&capacities, false);
        let cpu_before = procfs::process_cpu_ns();
        let started = Instant::now();

        let ids: Vec<NodeId> = (0..inputs.nodes as u64).map(NodeId).collect();
        let endpoints: Vec<DaceEndpoint> = ids
            .iter()
            .map(|&id| {
                let mut net = NetConfig::new(id, "127.0.0.1:0");
                net.seed = id.0;
                net.data_dir = data_dir.as_ref().map(|dir| dir.join(format!("n{}", id.0)));
                DaceEndpoint::start(net, ids.clone(), DaceConfig::default()).expect("bind endpoint")
            })
            .collect();
        let addrs: Vec<String> = endpoints
            .iter()
            .map(|e| e.local_addr().to_string())
            .collect();
        for endpoint in &endpoints {
            for (&id, addr) in ids.iter().zip(&addrs) {
                if id != endpoint.id() {
                    endpoint.transport().add_peer(id, addr);
                }
            }
        }

        for endpoint in &endpoints {
            assert!(
                endpoint.wait_connected(Duration::from_secs(10)),
                "cluster failed to mesh"
            );
        }

        // One injection per subscribing node installs that node's whole
        // population, in generation order.
        let stable = inputs.subs.len() - inputs.churn_slots;
        let mut churn_slots: Vec<Option<Subscription>> = Vec::new();
        for (node, endpoint) in endpoints.iter().enumerate() {
            let mine: Vec<(usize, SubSpec)> = inputs
                .subs
                .iter()
                .enumerate()
                .filter(|(_, s)| s.node == node)
                .map(|(i, s)| (i, s.clone()))
                .collect();
            if mine.is_empty() {
                continue;
            }
            let sink = Arc::clone(&sink);
            let kept = endpoint.with_domain(move |domain| {
                let mut kept = Vec::new();
                for (i, spec) in &mine {
                    let sub = workload::subscribe(domain, spec, &sink, *i);
                    if *i < stable {
                        sub.detach();
                    } else {
                        kept.push(Some(sub));
                    }
                }
                kept
            });
            churn_slots.extend(kept);
        }

        let targets: Vec<usize> = inputs.probes.iter().map(|(log, _)| *log).collect();
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            for (_, probe) in &inputs.probes {
                let probe = probe.clone();
                let workload = inputs.workload;
                endpoints[0].with_domain(move |d| workload::publish(d, workload, &probe, now_ns()));
            }
            if sink.wait_probed(&targets, PROBE_ROUND) {
                break;
            }
            assert!(
                Instant::now() < deadline,
                "probes never reached every subscriber"
            );
        }
        let wall_s = started.elapsed().as_secs_f64();
        // Threads of the previous incarnation may still be exiting and take
        // their CPU time out of the sum; the set-up cannot have computed for
        // less than nothing or for longer than it lasted.
        let cpu_s = procfs::process_cpu_ns().saturating_sub(cpu_before) as f64 / 1e9;
        let set_up = SetUp {
            wall_s,
            busy_s: cpu_s.min(wall_s),
        };
        (
            Cluster {
                endpoints,
                sink,
                churn_slots,
            },
            set_up,
        )
    }

    fn shutdown(mut self) {
        // Churn handles deactivate on drop; do that on the event loop, where
        // fabric operations are flushed.
        let slots = std::mem::take(&mut self.churn_slots);
        if !slots.is_empty() {
            self.endpoints[1].with_domain(move |_| drop(slots));
        }
        for endpoint in &self.endpoints {
            endpoint.shutdown();
        }
    }

    /// Publishes from node 0, the only publisher.
    fn publish(&self, inputs: &Inputs, publish: &workload::Publish, sent_ns: u64) {
        let publish = publish.clone();
        let workload = inputs.workload;
        self.endpoints[0].with_domain(move |d| workload::publish(d, workload, &publish, sent_ns));
    }

    /// One churn pair on node 1: the slot's occupant is deactivated and
    /// dropped, a fresh subscription takes the slot.
    fn churn(&mut self, op: &ChurnOp) {
        let old = self.churn_slots[op.slot].take();
        let spec = SubSpec {
            node: 1,
            kind: SubKind::Quote {
                symbol: op.symbol.clone(),
                lo: 0.0,
                hi: 100.0,
            },
            durable_id: None,
        };
        let sink = Arc::clone(&self.sink);
        let stray = sink.stray_log();
        let new = self.endpoints[1].with_domain(move |domain| {
            drop(old);
            workload::subscribe(domain, &spec, &sink, stray)
        });
        self.churn_slots[op.slot] = Some(new);
    }

    fn snapshots(&self) -> Vec<Snapshot> {
        self.endpoints.iter().map(DaceEndpoint::metrics).collect()
    }
}

fn counter_delta(before: &[Snapshot], after: &[Snapshot], name: &str) -> u64 {
    before
        .iter()
        .zip(after)
        .map(|(b, a)| a.counter(name) - b.counter(name))
        .sum()
}

/// Cumulative expected deliveries after each publish of `phase`.
fn cumulative_expected(phase: &Phase) -> Vec<u64> {
    phase
        .publishes
        .iter()
        .scan(0u64, |sum, p| {
            *sum += u64::from(p.expect);
            Some(*sum)
        })
        .collect()
}

/// Closed loop: publish `i` goes out once every delivery owed by publishes
/// up to `i - CLOSED_OUTSTANDING` has happened. Returns each publish's issue
/// time and the time the last delivery was in.
fn closed_phase(cluster: &mut Cluster, inputs: &Inputs, phase: &Phase) -> (Vec<u64>, u64) {
    let base = cluster.sink.delivered();
    let owed = cumulative_expected(phase);
    let mut issued = Vec::with_capacity(phase.publishes.len());
    let mut churn = phase.churn.iter().peekable();
    for (i, publish) in phase.publishes.iter().enumerate() {
        while let Some(op) = churn.next_if(|op| op.before <= i) {
            cluster.churn(op);
        }
        if i >= CLOSED_OUTSTANDING {
            let reached = cluster
                .sink
                .wait_delivered(base + owed[i - CLOSED_OUTSTANDING], STALL_LIMIT);
            assert!(reached, "closed phase stalled at publish {i}");
        }
        let now = now_ns();
        issued.push(now);
        cluster.publish(inputs, publish, now);
    }
    let all = base + owed.last().copied().unwrap_or(0);
    assert!(
        cluster.sink.wait_delivered(all, STALL_LIMIT),
        "closed phase never drained"
    );
    (issued, now_ns())
}

/// What the paced generator measured about itself.
struct PacedTrace {
    /// When each publish's `with_domain` call returned.
    returned: Vec<u64>,
    /// How late the generator itself ran: wake-up minus the later of the
    /// due time and the previous call's return. Time spent blocked inside
    /// `with_domain` is the system's, and is charged to the latency through
    /// the due-time stamp instead.
    lag_ns: Vec<f64>,
    /// Duration of the `with_domain` call.
    act_sync_ns: Vec<f64>,
    first_call: u64,
    last_call: u64,
    cpu_ns: u64,
}

/// Open loop at the workload's fixed rate: publish `i` is due at
/// `start + i / rate` and carries that due time, so a late generator or a
/// stalled broker is charged to the latency, not hidden.
fn paced_phase(cluster: &mut Cluster, inputs: &Inputs, phase: &Phase, start_ns: u64) -> PacedTrace {
    let gap_ns = 1e9 / inputs.paced_per_s as f64;
    let n = phase.publishes.len();
    let mut trace = PacedTrace {
        returned: Vec::with_capacity(n),
        lag_ns: Vec::with_capacity(n),
        act_sync_ns: Vec::with_capacity(n),
        first_call: 0,
        last_call: 0,
        cpu_ns: 0,
    };
    let cpu_before = procfs::thread_cpu_ns();
    let mut churn = phase.churn.iter().peekable();
    for (i, publish) in phase.publishes.iter().enumerate() {
        let due = start_ns + (i as f64 * gap_ns) as u64;
        let now = now_ns();
        if now < due {
            std::thread::sleep(Duration::from_nanos(due - now));
        }
        let free_at = trace.returned.last().map_or(due, |&prev| prev.max(due));
        trace.lag_ns.push(now_ns().saturating_sub(free_at) as f64);
        while let Some(op) = churn.next_if(|op| op.before <= i) {
            cluster.churn(op);
        }
        let call = now_ns();
        cluster.publish(inputs, publish, due);
        let back = now_ns();
        if i == 0 {
            trace.first_call = call;
        }
        trace.last_call = call;
        trace.act_sync_ns.push((back - call) as f64);
        trace.returned.push(back);
    }
    trace.cpu_ns = procfs::thread_cpu_ns() - cpu_before;
    trace
}

/// A reading at a paced-window boundary.
struct Sample {
    cpu_ns: u64,
    delivered: u64,
    /// Median host-speed reading over the window that ends here.
    host_ref_ns: f64,
}

/// Sums and sample lists the rounds add to; turned into the report's
/// figures when the last round is over.
#[derive(Default)]
struct Totals {
    logs: Vec<Vec<Record>>,
    /// Latencies (µs) per paced window, `ROUNDS × WINDOWS` of them.
    windows: Vec<Vec<f64>>,
    /// Raw process CPU µs per delivery, per paced window with deliveries.
    raw_cpu: Vec<f64>,
    transit_us: Vec<f64>,
    lag_ns: Vec<f64>,
    act_sync_ns: Vec<f64>,
    paced_publishes: u64,
    paced_wall_s: f64,
    offered_s: f64,
    gen_cpu_ns: u64,
    retransmits: u64,
    control_sent: u64,
    msgs_sent: u64,
    bytes_sent: u64,
    backpressure_waits: u64,
    context_switches: u64,
    closed_publishes: u64,
    closed_wall_s: f64,
}

/// One cluster incarnation: set-up, closed phase, paced phase, drain.
fn measure_round(
    inputs: &Inputs,
    round: &Round,
    seconds: u64,
    data_dir: Option<PathBuf>,
    report: &mut LiveReport,
    totals: &mut Totals,
) {
    let (mut cluster, set_up) = Cluster::start(inputs, data_dir);

    // ---- closed phase --------------------------------------------------
    let (issued, closed_end) = std::thread::scope(|scope| {
        let cluster = &mut cluster;
        scope
            .spawn(move || closed_phase(cluster, inputs, &round.closed))
            .join()
            .expect("generator panicked")
    });
    let count = issued.len();
    let warm = ((count as f64 * WARMUP_SHARE) as usize).min(count - 1);
    let owed = cumulative_expected(&round.closed);
    let timed = count - warm;
    for k in 0..CLOSED_SLICES {
        let lo = warm + timed * k / CLOSED_SLICES;
        let hi = warm + timed * (k + 1) / CLOSED_SLICES;
        if hi <= lo {
            continue;
        }
        let t1 = if hi < count { issued[hi] } else { closed_end };
        let deliveries = owed[hi - 1] - if lo > 0 { owed[lo - 1] } else { 0 };
        report
            .slice_samples
            .push(deliveries as f64 / ((t1 - issued[lo]) as f64 / 1e9));
    }
    totals.closed_publishes += timed as u64;
    totals.closed_wall_s += (closed_end - issued[warm]) as f64 / 1e9;

    // ---- paced phase ---------------------------------------------------
    let paced_secs = seconds as f64 * PACED_SHARE / ROUNDS as f64;
    let window_ns = (paced_secs * 1e9 / WINDOWS as f64) as u64;
    let before = cluster.snapshots();
    let switches_before = procfs::context_switches();
    let delivered_before = cluster.sink.delivered();
    let start_ns = now_ns() + 2_000_000;
    let (done_tx, done_rx) = mpsc::channel::<()>();
    let (release_tx, release_rx) = mpsc::channel::<()>();
    let host = HostSampler::start().expect("host sampler");
    let mut samples: Vec<Sample> = Vec::new();
    let sink = Arc::clone(&cluster.sink);
    let trace = std::thread::scope(|scope| {
        let cluster = &mut cluster;
        let generator = scope.spawn(move || {
            let trace = paced_phase(cluster, inputs, &round.paced, start_ns);
            let _ = done_tx.send(());
            // Stay alive until the last boundary was sampled: a finished
            // thread's CPU time vanishes from /proc/self/task.
            let _ = release_rx.recv();
            trace
        });
        for k in 0..=WINDOWS {
            let boundary = start_ns + k as u64 * window_ns;
            let now = now_ns();
            if now < boundary {
                std::thread::sleep(Duration::from_nanos(boundary - now));
            }
            if k == WINDOWS {
                // The generator may be a few publishes behind its schedule.
                let _ = done_rx.recv();
            }
            // The reading over the window that ends here (the one before
            // the first boundary is of the idle gap and is thrown away).
            let host_ref_ns = host
                .take()
                .or(samples.last().map(|previous| previous.host_ref_ns))
                .unwrap_or(NOMINAL_NS);
            // The host sampler's CPU is the benchmark's, not the system's.
            samples.push(Sample {
                cpu_ns: procfs::process_cpu_ns() - host.cpu_ns(),
                delivered: sink.delivered(),
                host_ref_ns,
            });
        }
        let _ = release_tx.send(());
        generator.join().expect("generator panicked")
    });
    let paced_end = now_ns();
    host.stop();
    report.threads = procfs::thread_count() as f64;
    report.peak_rss_mb = procfs::peak_rss_mb();
    totals.context_switches += procfs::context_switches() - switches_before;

    // Backlog rule: more than one second of offered deliveries still owed
    // when the schedule ends means the rate is not sustained.
    let paced_expected = round.paced.expected_deliveries();
    let owed_now = (delivered_before + paced_expected).saturating_sub(cluster.sink.delivered());
    if owed_now as f64 > paced_expected as f64 / paced_secs {
        report.backlog_failed += owed_now;
    }

    // ---- drain, settle, collect ---------------------------------------
    cluster
        .sink
        .wait_delivered(round.expected_deliveries(), DRAIN_LIMIT);
    let after = cluster.snapshots();
    report.rss_samples.push(procfs::settled_rss_mb());
    std::thread::sleep(GRACE);
    let logs = cluster.sink.take_logs();
    report.queue_dropped += cluster
        .snapshots()
        .iter()
        .map(|s| s.counter("net.queue.dropped"))
        .sum::<u64>();
    Cluster::shutdown(cluster);

    let first_paced_tag = round.paced.publishes.first().map_or(u64::MAX, |p| p.tag);
    let mut windows: Vec<Vec<f64>> = vec![Vec::new(); WINDOWS];
    for record in logs.iter().flatten().filter(|r| r.tag >= first_paced_tag) {
        let latency_us = record.recv_ns.saturating_sub(record.sent_ns) as f64 / 1e3;
        let window = (record.sent_ns.saturating_sub(start_ns) / window_ns.max(1)) as usize;
        windows[window.min(WINDOWS - 1)].push(latency_us);
        let returned = trace.returned[(record.tag - first_paced_tag) as usize];
        totals
            .transit_us
            .push(record.recv_ns.saturating_sub(returned) as f64 / 1e3);
    }
    totals.windows.extend(windows);
    // The set-up is over before the host sampler's first sample; it is
    // scaled by the mean reading of the four seconds that follow it.
    let readings = &samples[1..];
    let round_ref_ns =
        readings.iter().map(|s| s.host_ref_ns).sum::<f64>() / readings.len().max(1) as f64;
    report.raw_setup_samples.push(set_up.wall_s);
    report
        .setup_samples
        .push(set_up.at_reference_speed(round_ref_ns));
    for pair in samples.windows(2) {
        let host_ref_ns = pair[1].host_ref_ns;
        report.host_ref_samples.push(host_ref_ns);
        if pair[1].delivered > pair[0].delivered {
            let raw = (pair[1].cpu_ns - pair[0].cpu_ns) as f64
                / 1e3
                / (pair[1].delivered - pair[0].delivered) as f64;
            totals.raw_cpu.push(raw);
            report
                .cpu_samples
                .push(at_reference_speed(raw, host_ref_ns));
        }
    }
    if totals.logs.is_empty() {
        totals.logs = logs;
    } else {
        for (all, mut log) in totals.logs.iter_mut().zip(logs) {
            all.append(&mut log);
        }
    }

    totals.paced_publishes += round.paced.publishes.len() as u64;
    totals.paced_wall_s += (paced_end - start_ns) as f64 / 1e9;
    totals.offered_s += (trace.last_call - trace.first_call) as f64 / 1e9;
    totals.gen_cpu_ns += trace.cpu_ns;
    totals.lag_ns.extend(trace.lag_ns);
    totals.act_sync_ns.extend(trace.act_sync_ns);
    totals.retransmits += counter_delta(&before, &after, "group.reliable.retransmits")
        + counter_delta(&before, &after, "group.certified.retransmits");
    totals.control_sent += counter_delta(&before, &after, "dace.control_sent");
    totals.msgs_sent += counter_delta(&before, &after, "net.msgs_sent");
    totals.bytes_sent += counter_delta(&before, &after, "net.bytes_sent");
    totals.backpressure_waits += counter_delta(&before, &after, "net.backpressure_waits");
}

/// Runs the live driver on `inputs`; WAL data (certified workload) goes
/// under `data_root`.
pub fn run(inputs: &Inputs, seconds: u64, data_root: &std::path::Path) -> LiveReport {
    let mut report = LiveReport::default();
    let mut totals = Totals::default();
    // Every incarnation gets a directory of its own under the run's root,
    // which the caller removes when the run is over: on a disk mounted with
    // `discard`, deleting WAL files mid-run slows the next journal commits.
    let data_dir = |name: String| inputs.workload.durable().then(|| data_root.join(name));

    for (k, round) in inputs.rounds.iter().enumerate() {
        measure_round(
            inputs,
            round,
            seconds,
            data_dir(format!("round{k}")),
            &mut report,
            &mut totals,
        );
    }
    report.verdict = oracle::check(&inputs.expected, &totals.logs);

    report.setup_s = median(&report.setup_samples);
    report.raw_setup_s = median(&report.raw_setup_samples);
    report.closed_deliveries_per_s = median(&report.slice_samples);
    report.closed_publishes_per_s = totals.closed_publishes as f64 / totals.closed_wall_s;
    report.paced_publishes = totals.paced_publishes;
    report.paced_deliveries = totals.windows.iter().map(|w| w.len() as u64).sum();
    // Window `i` of `totals.windows` was measured under reading `i`.
    let scaled = |q: f64| -> Vec<f64> {
        totals
            .windows
            .iter()
            .zip(&report.host_ref_samples)
            .filter(|(window, _)| !window.is_empty())
            .map(|(window, &host_ref_ns)| at_reference_speed(percentile(window, q), host_ref_ns))
            .collect()
    };
    report.p50_samples = scaled(0.50);
    report.p75_samples = scaled(0.75);
    report.deliver_p75_us = median(&report.p75_samples);
    report.deliver_p50_us = median(&report.p50_samples);
    report.cpu_us_per_delivery = median(&report.cpu_samples);
    report.rss_mb = median(&report.rss_samples);
    report.raw_p50_us = window_median(&totals.windows, |w| percentile(w, 0.50));
    report.tail_p90_us = window_median(&totals.windows, |w| percentile(w, 0.90));
    report.raw_cpu_us = median(&totals.raw_cpu);
    report.host_ref_ns = median(&report.host_ref_samples);
    report.host_ref_swing = percentile(&report.host_ref_samples, 1.0)
        / percentile(&report.host_ref_samples, 0.0).max(1.0);
    let all_us: Vec<f64> = totals.windows.concat();
    report.tail_p99_us = percentile(&all_us, 0.99);
    report.tail_max_us = percentile(&all_us, 1.0);

    // ---- per-layer, live ----------------------------------------------
    let deliveries = report.paced_deliveries.max(1) as f64;
    let publishes = totals.paced_publishes.max(1) as f64;
    report.retransmits_per_publish = totals.retransmits as f64 / publishes;
    report.control_msgs_per_s = totals.control_sent as f64 / totals.paced_wall_s;
    report.act_sync_us = percentile(&totals.act_sync_ns, 0.50) / 1e3;
    report.transit_us = percentile(&totals.transit_us, 0.50);
    report.msgs_per_delivery = totals.msgs_sent as f64 / deliveries;
    report.bytes_per_delivery = totals.bytes_sent as f64 / deliveries;
    report.ctx_switches_per_delivery = totals.context_switches as f64 / deliveries;
    report.backpressure_waits = totals.backpressure_waits as f64;
    report.offered_per_s = (publishes - ROUNDS as f64) / totals.offered_s.max(1e-9);
    report.lag_p99_us = percentile(&totals.lag_ns, 0.99) / 1e3;
    report.gen_cpu_share = totals.gen_cpu_ns as f64 / (totals.paced_wall_s * 1e9);
    report
}
