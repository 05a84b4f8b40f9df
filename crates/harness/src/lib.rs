#![warn(missing_docs)]

//! # psc-harness — deterministic simulation harness
//!
//! A FoundationDB-style simulation-testing harness for the whole stack:
//! from one `u64` seed it derives a complete scenario — cluster size, loss
//! rate, latency distribution, partition windows, crash/recovery schedules
//! and a publish workload — executes it inside the deterministic
//! `psc-simnet` discrete-event simulator against a chosen `psc-group`
//! protocol (or the full DACE dissemination stack), and checks the
//! delivered traces against the paper's §3.1.2 delivery/ordering contracts:
//!
//! - **integrity** — no ghost deliveries, no duplicates, correct origin
//!   attribution (all protocols);
//! - **FIFO** — per-publisher delivery is a contiguous, in-order prefix of
//!   the publish order (`Fifo`, and `Causal` via the Fig. 4 lattice);
//! - **causal** — a delivered obvent is preceded by every publication its
//!   publisher had delivered when publishing (`Causal`);
//! - **total order** — any two processes agree on the relative order of
//!   every pair of messages they both deliver (`Total`);
//! - **completeness / certified durability** — everything published is
//!   delivered everywhere, exactly once, including across subscriber and
//!   publisher crash–recovery (`Certified` always; the others whenever the
//!   sampled fault load is within their tolerance).
//!
//! ## One driver, five dimensions
//!
//! A [`Dimension`] is a scenario type plus four functions: `generate(seed)`
//! samples a scenario (plain data, so failing schedules can be shrunk and
//! replayed), `describe` renders it, `run` executes it and returns the
//! canonical rendering plus the oracle findings, and `reductions` lists the
//! one-step-smaller scenarios. Everything else is written once in
//! [`dimension`]: [`dimension::check`] runs a seed **twice** and compares
//! the runs (the byte-identical rendering is itself the determinism
//! check), and on a finding shrinks greedily over `reductions`, writes
//! `<dimension>_postmortem_seed<seed>.txt` under `HARNESS_DUMP_DIR` and
//! returns a report carrying `replay with: HARNESS_SEED=<seed> cargo test
//! --test harness_smoke`.
//!
//! | dimension | module | scenario | oracles |
//! |---|---|---|---|
//! | `group` | [`runner`] + [`scenario`] + [`oracle`] + [`trace`] | loss, latency, crash and partition windows under one `psc-group` protocol | the §3.1.2 contracts above, stall-watchdog health |
//! | `stack` | [`stack`] | subtype subscriptions with remote filters against subtype publications through `psc-dace` | exact routing |
//! | `churn` | [`stack`] | the stack workload with transient subscriptions flapping between publishes | routing, churn integrity, indexed≡naive filter matching |
//! | `durable` | [`durable`] | a durable certified subscriber crash-restarted **with disk faults** (torn tails, lost un-fsynced suffixes, whole-segment loss) | exactly-once across restarts |
//! | `snapshot` | [`snapshot`] | a Chandy–Lamport cut taken mid-chaos | clock consistency, no ghosts, three-way publish coverage, end-state exactly-once |
//!
//! A dimension value carries the variant under test, so a broken control
//! is the same dimension with a defect plugged in: [`broken`] holds the
//! deliberately defective protocols and node constructors that prove the
//! oracles are sensitive, not vacuous.
//!
//! ## Adding a dimension
//!
//! 1. Write the scenario as plain data with a seeded `generate` and a
//!    deterministic `describe`.
//! 2. Implement [`Dimension`]: `run` builds the simulator (the DACE-level
//!    dimensions share recording subscriptions and the warm-up → loss →
//!    settle timeline), applies the oracles and returns a [`Run`];
//!    `reductions` returns strictly smaller scenarios in a fixed order.
//! 3. Add a row to [`dimension::table`] with its tier-1 seed count and its
//!    share of the nightly fuzz budget. The smoke, golden-digest,
//!    byte-identical-replay and nightly tests iterate that table.
//!
//! ```
//! use psc_harness::dimension::{self, Dimension};
//! use psc_harness::runner::Group;
//!
//! dimension::check(&Group::default(), 7).unwrap();
//! // The typed outcome is there when a test needs more than findings.
//! let scenario = Group::default().generate(7);
//! let outcome = psc_harness::run_scenario(&scenario);
//! assert!(outcome.violations.is_empty(), "{}", psc_harness::report(&scenario, &outcome));
//! ```

pub mod broken;
pub mod dimension;
pub mod durable;
mod fixture;
pub mod oracle;
pub mod runner;
pub mod scenario;
pub mod snapshot;
pub mod stack;
pub mod trace;

pub use dimension::{Dimension, Run};
pub use oracle::{HealthFinding, Violation};
pub use runner::{report, run_scenario, run_scenario_with, RunOutcome};
pub use scenario::{Op, ProtocolKind, Scenario};
pub use trace::{Delivery, PubRecord, Trace};
