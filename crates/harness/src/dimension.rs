//! The one harness driver: a [`Dimension`] seam and the check → shrink →
//! post-mortem loop written once over it.
//!
//! A dimension is a generator, a run and a reduction list; [`check`] is
//! everything else (see the crate docs for the workflow and the recipe for
//! adding a dimension). [`table`] lists the shipped dimensions with their
//! tier-1 seed counts and nightly budget shares; the smoke, golden and fuzz
//! tests all iterate it.

use crate::durable::Durable;
use crate::runner::Group;
use crate::snapshot::Snapshot;
use crate::stack::{Churn, Stack};

/// What one run of a scenario produced, in the form the driver compares.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Run {
    /// Canonical, byte-stable rendering of everything observed.
    pub rendered: String,
    /// Oracle findings, empty on a healthy run.
    pub findings: Vec<String>,
}

/// What a dimension adds to the driver's post-mortem (see
/// [`Dimension::post_mortem`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PostMortem {
    /// Failure context quoted in the seed's error report.
    pub context: String,
    /// Appended to the report in `<dimension>_postmortem_seed<seed>.txt`.
    pub text: String,
    /// Body of `<dimension>_postmortem_seed<seed>.json`.
    pub json: String,
}

/// One fuzzing dimension of the harness. `&self` carries the variant under
/// test — a broken control is the same dimension with a defective
/// protocol factory, disk or node constructor plugged in.
pub trait Dimension {
    /// The seed-derived scenario: plain data, so it can be shrunk.
    type Scenario: Clone;

    /// Name used in reports and post-mortem file names.
    const NAME: &'static str;

    /// Samples the scenario of `seed`.
    fn generate(&self, seed: u64) -> Self::Scenario;

    /// Deterministic description of `scenario` used in reports.
    fn describe(&self, scenario: &Self::Scenario) -> String;

    /// Executes `scenario` and applies the dimension's oracles.
    fn run(&self, scenario: &Self::Scenario) -> Run;

    /// Every one-step-smaller variant of `scenario`, in a fixed order.
    /// Each candidate must be strictly smaller than `scenario` (fewer
    /// operations or a weaker fault), which is what terminates [`shrink`].
    fn reductions(&self, scenario: &Self::Scenario) -> Vec<Self::Scenario>;

    /// Optional additions to the post-mortem of a failing `scenario` (the
    /// group dimension adds flight-recorder dumps and a JSON rendering).
    /// Runs are deterministic, so an implementation re-runs the scenario to
    /// get at its typed outcome.
    fn post_mortem(&self, _scenario: &Self::Scenario) -> Option<PostMortem> {
        None
    }
}

/// A copy of `scenario` with `edit` applied — the building block of
/// [`Dimension::reductions`].
pub(crate) fn edited<S: Clone>(scenario: &S, edit: impl FnOnce(&mut S)) -> S {
    let mut candidate = scenario.clone();
    edit(&mut candidate);
    candidate
}

/// Every copy of `scenario` with one element of `list` deleted, in order.
pub(crate) fn without_each<S: Clone, T>(
    scenario: &S,
    list: impl Fn(&mut S) -> &mut Vec<T>,
) -> Vec<S> {
    let len = list(&mut scenario.clone()).len();
    (0..len)
        .map(|i| {
            edited(scenario, |s| {
                list(s).remove(i);
            })
        })
        .collect()
}

/// The canonical report of one run: scenario description, rendering, then
/// one indented line per finding.
pub fn report<D: Dimension>(dim: &D, scenario: &D::Scenario, run: &Run) -> String {
    let findings: String = run.findings.iter().map(|v| format!("  {v}\n")).collect();
    dim.describe(scenario) + &run.rendered + &findings
}

/// Greedy shrinking against an arbitrary failure predicate: walk the
/// reduction list, take every candidate that still `violates`, and repeat
/// until a full pass takes none. The cursor stays put after a success, so
/// deleting element `i` is followed by trying what was element `i + 1`.
pub fn reduce_while<D: Dimension>(
    dim: &D,
    scenario: &D::Scenario,
    violates: impl Fn(&D::Scenario) -> bool,
) -> D::Scenario {
    let mut current = scenario.clone();
    loop {
        let mut progressed = false;
        let mut cursor = 0;
        while let Some(candidate) = dim.reductions(&current).into_iter().nth(cursor) {
            if violates(&candidate) {
                current = candidate;
                progressed = true;
            } else {
                cursor += 1;
            }
        }
        if !progressed {
            return current;
        }
    }
}

/// Shrinks `scenario` while its run keeps producing findings. The result
/// is the smallest schedule this pass structure can reach — enough to read
/// a counterexample at a glance.
pub fn shrink<D: Dimension>(dim: &D, scenario: &D::Scenario) -> D::Scenario {
    reduce_while(dim, scenario, |s| !dim.run(s).findings.is_empty())
}

/// Writes a post-mortem under `HARNESS_DUMP_DIR` (if set) as
/// `<name>_postmortem_seed<seed>.txt` (+ `.json`); returns the context
/// line for the report.
fn dump(name: &str, seed: u64, text: &str, json: Option<&str>) -> String {
    let Ok(dir) = std::env::var("HARNESS_DUMP_DIR") else {
        return String::new();
    };
    let base = std::path::PathBuf::from(dir);
    if std::fs::create_dir_all(&base).is_err() {
        return String::new();
    }
    let mut written = Vec::new();
    for (ext, body) in [("txt", Some(text)), ("json", json)] {
        let Some(body) = body else { continue };
        let path = base.join(format!("{name}_postmortem_seed{seed}.{ext}"));
        if std::fs::write(&path, body).is_err() {
            return String::new();
        }
        written.push(path.display().to_string());
    }
    format!("post-mortem dumped to: {}\n", written.join(" and "))
}

/// Runs one seed end to end: determinism check (two runs must compare
/// equal), then the oracles; on failure, shrinks, dumps and returns a
/// replayable report.
pub fn check<D: Dimension>(dim: &D, seed: u64) -> Result<(), String> {
    check_scenario(dim, seed, &dim.generate(seed))
}

/// [`check`] on an explicit scenario, so hand-written schedules and broken
/// controls go through the same failure workflow the fuzzer uses.
pub fn check_scenario<D: Dimension>(
    dim: &D,
    seed: u64,
    scenario: &D::Scenario,
) -> Result<(), String> {
    let name = D::NAME;
    let first = dim.run(scenario);
    let original = report(dim, scenario, &first);
    if first != dim.run(scenario) {
        return Err(format!(
            "{name} seed {seed}: NONDETERMINISM — two runs of the same scenario diverged\n\
             first run:\n{original}"
        ));
    }
    if first.findings.is_empty() {
        return Ok(());
    }
    let extra = dim.post_mortem(scenario);
    let (context, more, json) = match &extra {
        Some(pm) => (pm.context.as_str(), pm.text.as_str(), Some(pm.json.as_str())),
        None => ("", "", None),
    };
    let text = format!("=== {name} post-mortem seed={seed} ===\n{original}{more}");
    let dumped = dump(name, seed, &text, json);
    let shrunk = shrink(dim, scenario);
    Err(format!(
        "{name} seed {seed}: {} violation(s)\n\
         replay with: HARNESS_SEED={seed} cargo test --test harness_smoke\n\
         {context}{dumped}\
         === original run ===\n{original}\
         === shrunk counterexample ===\n{}",
        first.findings.len(),
        report(dim, &shrunk, &dim.run(&shrunk)),
    ))
}

/// One row of the dimension [`table`], type-erased so tests can iterate
/// dimensions with different scenario types.
#[derive(Debug, Clone, Copy)]
pub struct Entry {
    /// [`Dimension::NAME`].
    pub name: &'static str,
    /// Seeds in the tier-1 smoke sweep.
    pub smoke_seeds: u64,
    /// The nightly fuzz gives this dimension `budget / fuzz_divisor` seeds.
    pub fuzz_divisor: usize,
    /// [`check`] on the healthy variant.
    pub check: fn(u64) -> Result<(), String>,
    /// One run of the healthy variant: its canonical [`report`] and the
    /// [`Run`] (what the golden digests and the replay test compare).
    pub replay: fn(u64) -> (String, Run),
}

fn entry<D: Dimension + Default>(smoke_seeds: u64, fuzz_divisor: usize) -> Entry {
    Entry {
        name: D::NAME,
        smoke_seeds,
        fuzz_divisor,
        check: |seed| check(&D::default(), seed),
        replay: |seed| {
            let dim = D::default();
            let scenario = dim.generate(seed);
            let run = dim.run(&scenario);
            (report(&dim, &scenario, &run), run)
        },
    }
}

/// The shipped dimensions. Durable runs are cheap and their fault space
/// wide, so they get the whole nightly budget like the group layer; every
/// fuzzed cut is a fresh race, so snapshot gets half; the lossless routing
/// dimensions get a quarter each.
pub fn table() -> [Entry; 5] {
    [
        entry::<Group>(50, 1),
        entry::<Stack>(25, 4),
        entry::<Churn>(10, 4),
        entry::<Durable>(10, 1),
        entry::<Snapshot>(10, 2),
    ]
}

/// The table row named `name`.
pub fn named(name: &str) -> Option<Entry> {
    table().into_iter().find(|entry| entry.name == name)
}

fn env_u64(name: &str) -> Option<u64> {
    let value = std::env::var(name).ok()?;
    let parsed = value.trim().parse();
    Some(parsed.unwrap_or_else(|_| panic!("{name} must be a u64, got {value:?}")))
}

/// The seed list for the tier-1 smoke test: `HARNESS_SEED` (replay one
/// seed) overrides the default `0..count` sweep.
pub fn smoke_seeds(count: u64) -> Vec<u64> {
    match env_u64("HARNESS_SEED") {
        Some(seed) => vec![seed],
        None => (0..count).collect(),
    }
}

/// Seeds for the long fuzz mode: `HARNESS_FUZZ=N` enables a sweep of `N`
/// seeds from `HARNESS_FUZZ_BASE` (default 10 000, away from the smoke
/// range), so that a nightly can look at a fresh window every run; unset
/// means skip. Each seed still replays alone with `HARNESS_SEED`.
pub fn fuzz_seeds() -> Option<Vec<u64>> {
    let count = env_u64("HARNESS_FUZZ")?;
    let base = env_u64("HARNESS_FUZZ_BASE").unwrap_or(10_000);
    Some((base..base.saturating_add(count)).collect())
}

#[cfg(test)]
mod tests {
    use std::cell::Cell;

    use super::*;
    use crate::stack::{ChurnScenario, StackScenario};

    /// The generic shrinker under an injected predicate ("still contains
    /// publish tag 2"): every candidate is exactly one step smaller than
    /// the last accepted scenario, the result is that publish alone, and
    /// shrinking the result again changes nothing.
    #[test]
    fn shrinker_reduces_a_stack_scenario_to_the_publish_the_predicate_needs() {
        let scenario = StackScenario::generate(3);
        let target = scenario.pubs[2].clone();
        let size = |s: &StackScenario| s.subs.len() + s.pubs.len();
        let accepted = Cell::new(size(&scenario));
        let keeps_target = |s: &StackScenario| s.pubs.contains(&target);
        let shrunk = reduce_while(&Stack, &scenario, |s| {
            assert_eq!(size(s) + 1, accepted.get(), "a reduction is one step smaller");
            if keeps_target(s) {
                accepted.set(size(s));
            }
            keeps_target(s)
        });
        assert_eq!(shrunk.pubs, vec![target.clone()]);
        assert!(shrunk.subs.is_empty());
        assert_eq!(reduce_while(&Stack, &shrunk, keeps_target), shrunk, "a fixed point");
    }

    /// The same for the churn dimension, whose publish deletions renumber
    /// the activity windows: every candidate keeps its windows ordered and
    /// in range, and the survivor (one publish, still carrying tag 2) runs
    /// clean.
    #[test]
    fn churn_reductions_keep_activity_windows_in_range() {
        let scenario = Churn.generate(3);
        let well_formed_with_tag_2 = |s: &ChurnScenario| {
            for c in &s.churn {
                assert!(c.join_before <= c.leave_before, "{}", Churn.describe(s));
                assert!(c.leave_before <= s.stack.pubs.len(), "{}", Churn.describe(s));
            }
            s.stack.pubs.iter().any(|p| p.tag == 2)
        };
        let shrunk = reduce_while(&Churn, &scenario, |s| {
            well_formed_with_tag_2(s) && !s.churn.is_empty()
        });
        assert_eq!((shrunk.stack.pubs.len(), shrunk.churn.len()), (1, 1));
        assert_eq!(shrunk.stack.pubs[0].tag, 2);
        let run = Churn.run(&shrunk);
        assert!(run.findings.is_empty(), "{}", report(&Churn, &shrunk, &run));
    }
}
