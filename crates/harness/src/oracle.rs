//! Invariant oracles over delivered traces.
//!
//! Each check returns every violation it finds (not just the first), so a
//! report shows the full blast radius of a defect and the shrinker can keep
//! minimizing as long as *any* violation survives.

use std::collections::{HashMap, HashSet};
use std::fmt;

use crate::trace::Trace;

/// A single invariant violation found in a trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Violation {
    /// A node delivered a payload no scenario publish produced.
    Ghost {
        /// Delivering node.
        node: u64,
        /// The decoded (nonexistent) publish index.
        index: usize,
    },
    /// A delivery attributed to the wrong origin.
    MisattributedOrigin {
        /// Delivering node.
        node: u64,
        /// Publish index.
        index: usize,
        /// Origin claimed by the protocol.
        claimed: u64,
        /// Origin that actually published it.
        actual: u64,
    },
    /// The same publish delivered more than once at one node.
    Duplicate {
        /// Delivering node.
        node: u64,
        /// Publish index delivered repeatedly.
        index: usize,
    },
    /// Per-publisher order broken: a later publish delivered before an
    /// earlier one of the same origin (or over a gap).
    FifoOrder {
        /// Delivering node.
        node: u64,
        /// Publishing origin.
        origin: u64,
        /// Origin-sequence number expected next.
        expected_seq: u64,
        /// Origin-sequence number actually delivered.
        got_seq: u64,
    },
    /// Causal precedence broken: a publish was delivered although one of
    /// its happened-before predecessors was not delivered first.
    CausalOrder {
        /// Delivering node.
        node: u64,
        /// The delivered publish index.
        index: usize,
        /// The predecessor that should have come first (or at all).
        dep: usize,
    },
    /// Two nodes disagree on the relative order of two messages both
    /// delivered.
    TotalOrderDisagreement {
        /// First node.
        a: u64,
        /// Second node.
        b: u64,
        /// Publish index `a` delivered first.
        first: usize,
        /// Publish index `a` delivered second (and `b` first).
        second: usize,
    },
    /// A publish the scenario guarantees was never delivered at a node.
    MissingDelivery {
        /// The node that missed it.
        node: u64,
        /// The missing publish index.
        index: usize,
    },
    /// A node's telemetry `group.delivered` counter disagrees with the
    /// deliveries the trace observed at that node — the observability layer
    /// and the protocol disagree about what happened.
    TelemetryMismatch {
        /// The node whose counter diverged.
        node: u64,
        /// What the telemetry counter says.
        counted: u64,
        /// What the delivery log says.
        observed: u64,
    },
}

impl Violation {
    /// The node a violation implicates — where to look first in the
    /// per-node flight recorders when assembling a post-mortem. For
    /// [`Violation::TotalOrderDisagreement`] (two nodes) this is the first.
    pub fn node(&self) -> u64 {
        match *self {
            Violation::Ghost { node, .. }
            | Violation::MisattributedOrigin { node, .. }
            | Violation::Duplicate { node, .. }
            | Violation::FifoOrder { node, .. }
            | Violation::CausalOrder { node, .. }
            | Violation::MissingDelivery { node, .. }
            | Violation::TelemetryMismatch { node, .. } => node,
            Violation::TotalOrderDisagreement { a, .. } => a,
        }
    }
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Violation::Ghost { node, index } => {
                write!(f, "node {node} delivered ghost message #{index}")
            }
            Violation::MisattributedOrigin { node, index, claimed, actual } => write!(
                f,
                "node {node} delivered #{index} attributed to {claimed}, published by {actual}"
            ),
            Violation::Duplicate { node, index } => {
                write!(f, "node {node} delivered #{index} more than once")
            }
            Violation::FifoOrder { node, origin, expected_seq, got_seq } => write!(
                f,
                "node {node} broke FIFO for origin {origin}: expected seq {expected_seq}, delivered seq {got_seq}"
            ),
            Violation::CausalOrder { node, index, dep } => write!(
                f,
                "node {node} delivered #{index} before its causal predecessor #{dep}"
            ),
            Violation::TotalOrderDisagreement { a, b, first, second } => write!(
                f,
                "nodes {a} and {b} disagree on the order of #{first} and #{second}"
            ),
            Violation::MissingDelivery { node, index } => {
                write!(f, "node {node} never delivered #{index}")
            }
            Violation::TelemetryMismatch { node, counted, observed } => write!(
                f,
                "node {node} telemetry counted {counted} deliveries, trace observed {observed}"
            ),
        }
    }
}

/// A non-fatal finding of the stall watchdog ([`check_health`]): some
/// `health.*` counter fired during the run. Unlike a [`Violation`] this
/// does not fail a seed — a queue legitimately backs up while a peer is
/// crashed — but it is rendered into the report so a stalled obvent is
/// visible next to the invariant verdicts, and the post-mortem names the
/// stuck queue.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HealthFinding {
    /// The health counter that fired (`health.stall.<queue>` or
    /// `health.retransmit_storm`), summed over every node.
    pub name: String,
    /// How many sweeps flagged it.
    pub count: u64,
    /// Publish indices at least one node never delivered — the candidate
    /// unprogressed obvents a stall points at.
    pub undelivered: Vec<usize>,
}

impl fmt::Display for HealthFinding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} flagged {} sweep(s)", self.name, self.count)?;
        if self.undelivered.is_empty() {
            write!(f, "; every publish delivered everywhere")
        } else {
            write!(f, "; undelivered publishes: {:?}", self.undelivered)
        }
    }
}

/// The stall-watchdog oracle: scans the trace's folded wire counters for
/// `health.stall.*` and `health.retransmit_storm` hits and pairs them with
/// the publishes that never reached every node. Non-fatal — the findings
/// ride along in [`RunOutcome`](crate::RunOutcome) instead of the
/// violations list.
pub fn check_health(trace: &Trace) -> Vec<HealthFinding> {
    let mut undelivered: Vec<usize> = Vec::new();
    for publish in &trace.publishes {
        let everywhere = trace
            .deliveries
            .values()
            .all(|log| log.iter().any(|d| d.index == publish.index));
        if !everywhere {
            undelivered.push(publish.index);
        }
    }
    trace
        .wire
        .iter()
        .filter(|(name, &count)| {
            count > 0 && (name.starts_with("health.stall.") || *name == "health.retransmit_storm")
        })
        .map(|(name, &count)| HealthFinding {
            name: name.clone(),
            count,
            undelivered: undelivered.clone(),
        })
        .collect()
}

/// No ghosts, no duplicates, correct origin attribution — holds for every
/// protocol in the menu.
///
/// Duplicates are judged **per receiver incarnation**: a volatile protocol
/// cannot remember across its own crash what it already delivered, so a
/// straggling retransmission re-delivered by the next incarnation is within
/// contract. Cross-incarnation exactly-once is a *stronger* guarantee,
/// asserted separately by [`check_no_cross_incarnation_redelivery`] for the
/// protocols that promise it.
pub fn check_integrity(trace: &Trace) -> Vec<Violation> {
    let mut violations = Vec::new();
    for (&node, log) in &trace.deliveries {
        let mut seen = HashSet::new();
        for d in log {
            match trace.publishes.get(d.index) {
                None => violations.push(Violation::Ghost { node, index: d.index }),
                Some(p) => {
                    if p.origin != d.origin {
                        violations.push(Violation::MisattributedOrigin {
                            node,
                            index: d.index,
                            claimed: d.origin,
                            actual: p.origin,
                        });
                    }
                }
            }
            if !seen.insert((d.incarnation, d.index)) {
                violations.push(Violation::Duplicate { node, index: d.index });
            }
        }
    }
    violations
}

/// Exactly-once across the receiver's own crashes: no publish may be
/// delivered twice at a node even in *different* incarnations. `Certified`
/// promises this via its persistent delivered set; `Total` achieves it for
/// recovered receivers by adopting the stream horizon instead of replaying
/// sequencer history.
pub fn check_no_cross_incarnation_redelivery(trace: &Trace) -> Vec<Violation> {
    let mut violations = Vec::new();
    for (&node, log) in &trace.deliveries {
        // index → incarnation of the first delivery. Same-incarnation
        // repeats are already reported by `check_integrity`.
        let mut first: HashMap<usize, u64> = HashMap::new();
        for d in log {
            match first.get(&d.index) {
                None => {
                    first.insert(d.index, d.incarnation);
                }
                Some(&inc) if inc != d.incarnation => {
                    violations.push(Violation::Duplicate { node, index: d.index });
                }
                Some(_) => {}
            }
        }
    }
    violations
}

/// Per-publisher FIFO: at every node, each origin's deliveries must be its
/// publishes in order *without gaps* — the hold-back queue releases only
/// contiguous prefixes, so a gap means the protocol delivered over a
/// missing message instead of waiting for it.
///
/// Crash severance, both sides:
/// - a **publisher** crash may legitimately lose the tail of its previous
///   incarnation, so a gap is a violation only when some *skipped* publish
///   belongs to the **same** publisher incarnation as the delivered one
///   (a same-incarnation hole is a protocol bug; a hole that exactly spans
///   dead-incarnation publishes is the crash itself);
/// - a **receiver** crash wipes the receiver's sequencing state, so
///   expectations restart at each receiver incarnation: a restarted
///   receiver resumes each origin's stream at the first publish it
///   delivers from it (what it missed went to its previous incarnation).
///   Inversions and gaps after that point inside one receiver incarnation
///   are always violations.
pub fn check_fifo(trace: &Trace) -> Vec<Violation> {
    // origin → (origin_seq → publisher incarnation), to classify skipped
    // publishes inside a gap.
    let mut inc_of: HashMap<u64, HashMap<u64, u64>> = HashMap::new();
    for p in &trace.publishes {
        inc_of.entry(p.origin).or_default().insert(p.origin_seq, p.incarnation);
    }
    let mut violations = Vec::new();
    for (&node, log) in &trace.deliveries {
        let mut expected: HashMap<u64, u64> = HashMap::new();
        let mut receiver_inc = 0;
        for d in log {
            if d.incarnation != receiver_inc {
                receiver_inc = d.incarnation;
                expected.clear();
            }
            let Some(p) = trace.publishes.get(d.index) else {
                continue; // ghosts are reported by check_integrity
            };
            let start = if receiver_inc == 0 { 1 } else { p.origin_seq };
            let next = expected.entry(p.origin).or_insert(start);
            let violation = if p.origin_seq < *next {
                true // inversion: delivered after a later same-origin publish
            } else {
                // Gap: fine iff every skipped publish died with an older
                // publisher incarnation.
                (*next..p.origin_seq).any(|seq| {
                    inc_of
                        .get(&p.origin)
                        .and_then(|m| m.get(&seq))
                        .is_some_and(|&inc| inc == p.incarnation)
                })
            };
            if violation {
                violations.push(Violation::FifoOrder {
                    node,
                    origin: p.origin,
                    expected_seq: *next,
                    got_seq: p.origin_seq,
                });
            }
            *next = p.origin_seq + 1;
        }
    }
    violations
}

/// Causal precedence: a node delivering publish `m` must already have
/// delivered every publish `m`'s origin had delivered when it published
/// `m`. Delivering `m` while a predecessor is missing entirely is equally
/// a violation — causal protocols hold `m` back instead.
///
/// Judged **per receiver incarnation**, like duplicates and FIFO order: a
/// dependency counts only if the same incarnation delivered it before `m`.
/// A restarted receiver's causal state died with it, and it waits for
/// seq 1 of every stream that began before its recovery (DESIGN.md §13).
/// So a dependency only an earlier incarnation delivered is missing, and a
/// dependency redelivered after a restart is no inversion of the `m` an
/// earlier incarnation delivered.
///
/// Crash severance: a dependency is excused when the node delivered, before
/// `m`, a publish from the dependency's origin belonging to a **newer**
/// incarnation. Superseding an incarnation proves its undelivered tail is
/// permanently lost (volatile state died with the crash), and the protocol
/// deliberately stops waiting for it — the epoch-tagged clock carries only
/// the newest incarnation per origin.
pub fn check_causal(trace: &Trace) -> Vec<Violation> {
    let mut violations = Vec::new();
    for (&node, log) in &trace.deliveries {
        let position: HashMap<(u64, usize), usize> =
            log.iter().enumerate().map(|(pos, d)| ((d.incarnation, d.index), pos)).collect();
        for (pos, d) in log.iter().enumerate() {
            let Some(p) = trace.publishes.get(d.index) else {
                continue;
            };
            for &dep in &p.deps {
                match position.get(&(d.incarnation, dep)) {
                    Some(&dep_pos) if dep_pos < pos => continue,
                    _ => {}
                }
                let severed = trace.publishes.get(dep).is_some_and(|dep_p| {
                    log[..pos].iter().any(|earlier| {
                        trace.publishes.get(earlier.index).is_some_and(|q| {
                            q.origin == dep_p.origin && q.incarnation > dep_p.incarnation
                        })
                    })
                });
                if !severed {
                    violations.push(Violation::CausalOrder { node, index: d.index, dep });
                }
            }
        }
    }
    violations
}

/// Total-order agreement: for any two nodes and any two publishes both
/// delivered, the relative delivery order matches. Reports the first
/// disagreement per node pair (one witness is enough to shrink on).
pub fn check_total(trace: &Trace) -> Vec<Violation> {
    let mut violations = Vec::new();
    let nodes: Vec<u64> = trace.deliveries.keys().copied().collect();
    let orders: HashMap<u64, HashMap<usize, usize>> = trace
        .deliveries
        .iter()
        .map(|(&node, log)| {
            (node, log.iter().enumerate().map(|(pos, d)| (d.index, pos)).collect())
        })
        .collect();
    for (i, &a) in nodes.iter().enumerate() {
        for &b in &nodes[i + 1..] {
            let (oa, ob) = (&orders[&a], &orders[&b]);
            let mut common: Vec<usize> = oa.keys().filter(|k| ob.contains_key(k)).copied().collect();
            common.sort_unstable();
            'pair: for (x_i, &x) in common.iter().enumerate() {
                for &y in &common[x_i + 1..] {
                    let in_a = oa[&x] < oa[&y];
                    let in_b = ob[&x] < ob[&y];
                    if in_a != in_b {
                        let (first, second) = if in_a { (x, y) } else { (y, x) };
                        violations.push(Violation::TotalOrderDisagreement { a, b, first, second });
                        break 'pair;
                    }
                }
            }
        }
    }
    violations
}

/// Telemetry consistency: each node's wire-level `group.delivered` counter
/// (read from its `psc-telemetry` registry, which survives crash rebuilds)
/// must equal the number of deliveries the trace observed at that node.
/// Vacuous for hand-built traces with no wire stats.
pub fn check_telemetry(trace: &Trace) -> Vec<Violation> {
    let mut violations = Vec::new();
    for (&node, &counted) in &trace.wire_delivered {
        let observed = trace.deliveries.get(&node).map_or(0, |log| log.len()) as u64;
        if counted != observed {
            violations.push(Violation::TelemetryMismatch { node, counted, observed });
        }
    }
    violations
}

/// Completeness: every node delivered every publish. Only applied when the
/// scenario's fault load is within the protocol's delivery guarantee (see
/// [`Scenario::expects_completeness`](crate::Scenario::expects_completeness)).
pub fn check_complete(trace: &Trace) -> Vec<Violation> {
    let mut violations = Vec::new();
    for (&node, log) in &trace.deliveries {
        let delivered: HashSet<usize> = log.iter().map(|d| d.index).collect();
        for p in &trace.publishes {
            if !delivered.contains(&p.index) {
                violations.push(Violation::MissingDelivery { node, index: p.index });
            }
        }
    }
    violations
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{Delivery, PubRecord};

    fn publish(index: usize, origin: u64, origin_seq: u64, deps: Vec<usize>) -> PubRecord {
        PubRecord { index, origin, origin_seq, incarnation: 0, deps }
    }

    fn publish_inc(
        index: usize,
        origin: u64,
        origin_seq: u64,
        incarnation: u64,
        deps: Vec<usize>,
    ) -> PubRecord {
        PubRecord { index, origin, origin_seq, incarnation, deps }
    }

    fn trace(publishes: Vec<PubRecord>, logs: Vec<(u64, Vec<(u64, usize)>)>) -> Trace {
        Trace {
            publishes,
            deliveries: logs
                .into_iter()
                .map(|(node, log)| {
                    (
                        node,
                        log.into_iter()
                            .map(|(origin, index)| Delivery { origin, index, incarnation: 0 })
                            .collect(),
                    )
                })
                .collect(),
            ..Trace::default()
        }
    }

    #[test]
    fn clean_trace_passes_everything() {
        let t = trace(
            vec![publish(0, 0, 1, vec![]), publish(1, 0, 2, vec![0])],
            vec![(0, vec![(0, 0), (0, 1)]), (1, vec![(0, 0), (0, 1)])],
        );
        assert!(check_integrity(&t).is_empty());
        assert!(check_fifo(&t).is_empty());
        assert!(check_causal(&t).is_empty());
        assert!(check_total(&t).is_empty());
        assert!(check_complete(&t).is_empty());
    }

    #[test]
    fn ghost_duplicate_and_misattribution_are_flagged() {
        let t = trace(
            vec![publish(0, 0, 1, vec![])],
            vec![(1, vec![(0, 0), (0, 0), (0, 9), (2, 0)])],
        );
        let v = check_integrity(&t);
        assert!(v.contains(&Violation::Duplicate { node: 1, index: 0 }));
        assert!(v.contains(&Violation::Ghost { node: 1, index: 9 }));
        assert!(v
            .iter()
            .any(|x| matches!(x, Violation::MisattributedOrigin { claimed: 2, .. })));
    }

    #[test]
    fn fifo_catches_inversions_and_gaps() {
        let publishes = vec![
            publish(0, 0, 1, vec![]),
            publish(1, 0, 2, vec![]),
            publish(2, 0, 3, vec![]),
        ];
        let inverted = trace(publishes.clone(), vec![(1, vec![(0, 1), (0, 0)])]);
        assert!(!check_fifo(&inverted).is_empty());
        let gapped = trace(publishes, vec![(1, vec![(0, 0), (0, 2)])]);
        assert!(!check_fifo(&gapped).is_empty());
    }

    #[test]
    fn causal_requires_predecessors_first() {
        let publishes = vec![publish(0, 0, 1, vec![]), publish(1, 1, 1, vec![0])];
        let wrong_order = trace(publishes.clone(), vec![(2, vec![(1, 1), (0, 0)])]);
        assert_eq!(
            check_causal(&wrong_order),
            vec![Violation::CausalOrder { node: 2, index: 1, dep: 0 }]
        );
        let missing_dep = trace(publishes, vec![(2, vec![(1, 1)])]);
        assert_eq!(
            check_causal(&missing_dep),
            vec![Violation::CausalOrder { node: 2, index: 1, dep: 0 }]
        );
    }

    #[test]
    fn total_order_disagreement_is_flagged() {
        let publishes = vec![publish(0, 0, 1, vec![]), publish(1, 1, 1, vec![])];
        let t = trace(
            publishes,
            vec![(0, vec![(0, 0), (1, 1)]), (1, vec![(1, 1), (0, 0)])],
        );
        assert_eq!(check_total(&t).len(), 1);
    }

    #[test]
    fn fifo_gap_over_a_dead_incarnation_is_severed() {
        // Origin 0 published #0,#1 before a crash (incarnation 0) and #2
        // after recovery (incarnation 1). A node that lost #1 with the
        // crash may deliver #2 right after #0 — but a node skipping the
        // same-incarnation #1 → #2 jump within incarnation 1 is broken.
        let publishes = vec![
            publish_inc(0, 0, 1, 0, vec![]),
            publish_inc(1, 0, 2, 0, vec![]),
            publish_inc(2, 0, 3, 1, vec![]),
            publish_inc(3, 0, 4, 1, vec![]),
        ];
        let severed = trace(publishes.clone(), vec![(1, vec![(0, 0), (0, 2), (0, 3)])]);
        assert!(check_fifo(&severed).is_empty(), "cross-incarnation gap is legitimate");
        let same_inc_gap = trace(publishes, vec![(1, vec![(0, 0), (0, 1), (0, 3)])]);
        assert!(
            !check_fifo(&same_inc_gap).is_empty(),
            "skipping #2 inside incarnation 1 must be flagged"
        );
    }

    #[test]
    fn fifo_expectations_restart_at_receiver_recovery() {
        // Receiver crashes after #0,#1 and its next incarnation re-delivers
        // the stream from the start: per-incarnation at-most-once, not an
        // inversion.
        let publishes = vec![publish(0, 0, 1, vec![]), publish(1, 0, 2, vec![])];
        let t = Trace {
            publishes,
            deliveries: [(
                1u64,
                vec![
                    Delivery { origin: 0, index: 0, incarnation: 0 },
                    Delivery { origin: 0, index: 1, incarnation: 0 },
                    Delivery { origin: 0, index: 0, incarnation: 1 },
                    Delivery { origin: 0, index: 1, incarnation: 1 },
                ],
            )]
            .into_iter()
            .collect(),
            ..Trace::default()
        };
        assert!(check_fifo(&t).is_empty());
        assert!(check_integrity(&t).is_empty(), "per-incarnation dedup passes");
        assert_eq!(
            check_no_cross_incarnation_redelivery(&t).len(),
            2,
            "the stronger exactly-once contract still sees both re-deliveries"
        );
    }

    #[test]
    fn causal_dependency_on_a_superseded_incarnation_is_severed() {
        // #0 from origin 0's first incarnation is a dependency of #2, but
        // node 2 delivered #1 (origin 0's *second* incarnation) before #2:
        // the old incarnation's tail is provably lost, the dep is severed.
        let publishes = vec![
            publish_inc(0, 0, 1, 0, vec![]),
            publish_inc(1, 0, 2, 1, vec![]),
            publish_inc(2, 1, 1, 0, vec![0]),
        ];
        let severed = trace(publishes.clone(), vec![(2, vec![(0, 1), (1, 2)])]);
        assert!(check_causal(&severed).is_empty());
        // Without the superseding delivery the missing dep stays a
        // violation.
        let unsevered = trace(publishes, vec![(2, vec![(1, 2)])]);
        assert_eq!(
            check_causal(&unsevered),
            vec![Violation::CausalOrder { node: 2, index: 2, dep: 0 }]
        );
    }

    /// A receiver log whose deliveries carry incarnations:
    /// `(incarnation, origin, index)` each.
    fn incarnations(publishes: Vec<PubRecord>, node: u64, log: &[(u64, u64, usize)]) -> Trace {
        let log = log
            .iter()
            .map(|&(incarnation, origin, index)| Delivery { origin, index, incarnation })
            .collect();
        Trace { publishes, deliveries: [(node, log)].into_iter().collect(), ..Trace::default() }
    }

    /// Node 3 delivers #0, then #1 (which depends on #0), crashes, and its
    /// next incarnation delivers #0 again: each incarnation kept causal
    /// order. Keyed by index alone, #0's *last* position came after #1.
    #[test]
    fn causal_redelivery_after_a_receiver_restart_is_not_an_inversion() {
        let publishes = vec![publish(0, 0, 1, vec![]), publish(1, 3, 1, vec![0])];
        let t = incarnations(publishes, 3, &[(0, 0, 0), (0, 3, 1), (1, 0, 0)]);
        assert!(check_causal(&t).is_empty());
    }

    /// A restarted receiver delivering #1 with its dependency #0 delivered
    /// only by its previous incarnation has lost #0 with that incarnation:
    /// a violation, as is an inversion inside the new incarnation.
    #[test]
    fn causal_dependency_delivered_only_by_an_earlier_receiver_incarnation_is_missing() {
        let publishes = vec![publish(0, 0, 1, vec![]), publish(1, 1, 1, vec![0])];
        let earlier_only = incarnations(publishes.clone(), 2, &[(0, 0, 0), (1, 1, 1)]);
        assert_eq!(
            check_causal(&earlier_only),
            vec![Violation::CausalOrder { node: 2, index: 1, dep: 0 }]
        );
        let inverted_after_restart =
            incarnations(publishes.clone(), 2, &[(0, 0, 0), (1, 1, 1), (1, 0, 0)]);
        assert_eq!(
            check_causal(&inverted_after_restart),
            vec![Violation::CausalOrder { node: 2, index: 1, dep: 0 }]
        );
        let redelivered_first = incarnations(publishes, 2, &[(0, 0, 0), (1, 0, 0), (1, 1, 1)]);
        assert!(check_causal(&redelivered_first).is_empty());
    }

    #[test]
    fn telemetry_mismatch_is_flagged() {
        let mut t = trace(vec![publish(0, 0, 1, vec![])], vec![(1, vec![(0, 0)])]);
        assert!(check_telemetry(&t).is_empty(), "no wire stats: vacuously clean");
        t.wire_delivered.insert(1, 1);
        assert!(check_telemetry(&t).is_empty(), "counter agrees with the log");
        t.wire_delivered.insert(1, 2);
        assert_eq!(
            check_telemetry(&t),
            vec![Violation::TelemetryMismatch { node: 1, counted: 2, observed: 1 }]
        );
    }

    #[test]
    fn completeness_reports_missing_deliveries() {
        let t = trace(
            vec![publish(0, 0, 1, vec![]), publish(1, 0, 2, vec![])],
            vec![(0, vec![(0, 0), (0, 1)]), (1, vec![(0, 0)])],
        );
        assert_eq!(
            check_complete(&t),
            vec![Violation::MissingDelivery { node: 1, index: 1 }]
        );
    }
}
