#![warn(missing_docs)]

//! # psc-filter — deferred, migratable content filters (paper LM4)
//!
//! The paper's `subscribe` primitive pairs a type-based subscription with a
//! *filter closure whose evaluation is deferred* (§3.3.3): instead of running
//! the filter as opaque code at the subscriber, the `psc` precompiler lifts
//! conforming filters into two tree-shaped data structures —
//!
//! - the **invocation tree** (§4.4.3): the accessor invocations performed on
//!   the filtered obvent, rooted at the obvent itself, with leaves standing
//!   for the values the conditions are applied to; and
//! - the **evaluation tree**: the boolean combination of those conditions.
//!
//! A reified filter can be (1) migrated to remote filtering hosts to save
//! bandwidth and (2) *factored* with the filters of other subscribers so that
//! redundant conditions are evaluated once [ASS+99]. Filters whose code does
//! not conform to the mobility restrictions (§3.3.4) stay **local**: an
//! ordinary closure applied at the subscriber.
//!
//! This crate reproduces the whole pipeline:
//!
//! - [`Value`] / [`PropPath`] / [`PropertySource`] — the data model filters
//!   observe (obvent *properties* reached through accessor chains, preserving
//!   encapsulation, paper LP2);
//! - [`RemoteFilter`] with [`Predicate`] leaves and an [`EvalNode`] tree — the
//!   serializable filter representation, plus [`InvocationTree`] as the
//!   explicit paper-shaped view;
//! - the typed builder DSL in [`typed`] — statically type-checked filter
//!   construction (paper LP1); obvent schemas generated by `psc-obvent`'s
//!   `obvent!` macro produce these expressions;
//! - [`rfilter!`](crate::rfilter) — the "precompiler" macro for the common
//!   conjunctive filter shape, using dynamic property paths (the paper's
//!   §5.5.1 reflection-style filters); disjunctions compose via
//!   [`RemoteFilter::or`];
//! - [`FilterIndex`] — the compound-filter matching engine that factors out
//!   redundancies between subscriptions gathered on one host;
//! - [`restrict`] — the migratability validation mirroring §3.3.4.
//!
//! ```
//! use psc_filter::{rfilter, FilterIndex, Value};
//!
//! let telco = rfilter!(price < 100.0 && company contains "Telco");
//! let any_cheap = rfilter!(price < 50.0);
//!
//! let mut index = FilterIndex::new();
//! let telco_id = index.insert(telco);
//! let cheap_id = index.insert(any_cheap);
//!
//! let quote = Value::record([
//!     ("company", Value::from("Telco Mobiles")),
//!     ("price", Value::from(80.0)),
//! ]);
//! let matched = index.matching(&quote);
//! assert!(matched.contains(&telco_id));
//! assert!(!matched.contains(&cheap_id));
//! ```

mod expr;
mod index;
mod metrics;
mod path;
pub mod restrict;
pub mod typed;
mod value;
mod wire;

#[macro_use]
mod macros;

pub use expr::{
    CmpOp, EvalNode, InvalidFilter, InvocationTree, LocalFilter, Predicate, RemoteFilter,
    MAX_WIRE_NODES, MAX_WIRE_PREDICATES,
};
pub use index::{FilterId, FilterIndex, IndexStats};
pub use path::PropPath;
pub use value::{IntoValue, PropertySource, Value};
pub use wire::WireFilter;

#[cfg(test)]
mod tests;
