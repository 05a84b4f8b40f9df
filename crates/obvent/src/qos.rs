//! Composable obvent semantics (paper §3.1.2, Figs. 3 and 4).
//!
//! The paper attaches quality-of-service to obvents by **subtyping marker
//! interfaces** (LM2/LP4): `Reliable`, `Certified`, `TotalOrder`,
//! `FIFOOrder`, `CausalOrder` for delivery/ordering, `Timely` and
//! `Prioritary` for transmission. Semantics compose, subject to the Fig. 4
//! dependency lattice and two precedence rules:
//!
//! - reliability contradicts timeliness: "contradictions reside for instance
//!   between reliable and simultaneously timely limited obvents … the first
//!   type takes precedence";
//! - ordering contradicts priorities: "between total, fifo or causal order
//!   and priorities … the first type takes precedence".
//!
//! [`QosSpec::resolve`] computes the effective semantics from the set of
//! marker interfaces in a kind's ancestry, recording which requested
//! semantics were suppressed.

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::builtin;
use crate::KindId;

/// Delivery guarantee, strongest-last (paper §3.1.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default)]
pub enum Delivery {
    /// Best-effort: "there is only a best-effort attempt to deliver it.
    /// This is assumed by default."
    #[default]
    Unreliable,
    /// Received by every notifiable that is "up for long enough".
    Reliable,
    /// Survives subscriber disconnection and failure: delivered after
    /// recovery.
    Certified,
}

/// Ordering guarantee across deliveries (paper §3.1.2).
///
/// `Causal` implies FIFO (the paper declares `CausalOrder extends
/// FIFOOrder`); `Total` is the subscriber-side order and, in this
/// implementation, is provided by a fixed sequencer that orders each
/// publisher's obvents in publish order, so it also preserves
/// per-publisher order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default)]
pub enum Ordering {
    /// No ordering constraint.
    #[default]
    None,
    /// Publisher-side order: obvents from one publisher arrive in publish
    /// order.
    Fifo,
    /// Happens-before order across publishers [Lam78].
    Causal,
    /// Subscriber-side order: all notifiables deliver in one global order.
    Total,
}

/// Transmission semantics (paper §3.1.2: `Prioritary`, `Timely`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize, Default)]
pub struct Transmission {
    /// Whether instances carry a `priority` property that in-transit queues
    /// honour (higher first).
    pub prioritary: bool,
    /// Whether instances carry `ttl_ms`/`birth_ms` properties after which
    /// they expire in transit.
    pub timely: bool,
}

/// A warning emitted while resolving composed semantics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum QosConflict {
    /// `Timely` was requested together with `Reliable`/`Certified`;
    /// reliability takes precedence and expiry is ignored.
    TimelinessSuppressedByReliability,
    /// `Prioritary` was requested together with an ordering; ordering takes
    /// precedence and priorities are ignored.
    PrioritySuppressedByOrdering,
}

impl fmt::Display for QosConflict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QosConflict::TimelinessSuppressedByReliability => {
                write!(f, "timeliness suppressed: reliable delivery takes precedence")
            }
            QosConflict::PrioritySuppressedByOrdering => {
                write!(f, "priority suppressed: ordered delivery takes precedence")
            }
        }
    }
}

/// The effective, resolved semantics of an obvent kind.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize, Default)]
pub struct QosSpec {
    /// Effective delivery guarantee.
    pub delivery: Delivery,
    /// Effective ordering guarantee.
    pub ordering: Ordering,
    /// Effective transmission semantics (after precedence rules).
    pub transmission: Transmission,
    /// Precedence rules that fired during resolution.
    pub conflicts: Vec<QosConflict>,
}

impl QosSpec {
    /// Resolves the effective semantics from the marker interfaces present
    /// in `ancestry` (a kind's transitive supertype closure).
    ///
    /// The lattice of Fig. 4: `Certified ≻ Reliable ≻ Unreliable`;
    /// `CausalOrder ≻ FIFOOrder`; `TotalOrder` and the order markers imply
    /// `Reliable` (they extend it in Fig. 3, so that implication arrives
    /// through the ancestry itself); `Timely`/`Prioritary` are orthogonal
    /// until the precedence rules fire.
    pub fn resolve(ancestry: &[KindId]) -> QosSpec {
        let has = |id: KindId| ancestry.contains(&id);

        // Marker ids are computed from the (stable) names rather than by
        // touching the registry: `resolve` runs *during* the registration
        // of the builtin kinds themselves, and consulting the registry
        // there would re-enter its initialization.
        let delivery = if has(builtin::CERTIFIED_ID) {
            Delivery::Certified
        } else if has(builtin::RELIABLE_ID) {
            Delivery::Reliable
        } else {
            Delivery::Unreliable
        };

        let ordering = if has(builtin::TOTAL_ORDER_ID) {
            Ordering::Total
        } else if has(builtin::CAUSAL_ORDER_ID) {
            Ordering::Causal
        } else if has(builtin::FIFO_ORDER_ID) {
            Ordering::Fifo
        } else {
            Ordering::None
        };

        let wants_timely = has(builtin::TIMELY_ID);
        let wants_priority = has(builtin::PRIORITARY_ID);

        let mut conflicts = Vec::new();
        let timely = if wants_timely && delivery != Delivery::Unreliable {
            conflicts.push(QosConflict::TimelinessSuppressedByReliability);
            false
        } else {
            wants_timely
        };
        let prioritary = if wants_priority && ordering != Ordering::None {
            conflicts.push(QosConflict::PrioritySuppressedByOrdering);
            false
        } else {
            wants_priority
        };

        QosSpec {
            delivery,
            ordering,
            transmission: Transmission { prioritary, timely },
            conflicts,
        }
    }

    /// True when the spec demands more than best-effort unordered delivery.
    pub fn is_default(&self) -> bool {
        self.delivery == Delivery::Unreliable
            && self.ordering == Ordering::None
            && self.transmission == Transmission::default()
    }

    /// Comparison along the Fig. 4 "B is stronger than A" arrows: true when
    /// `self` guarantees at least everything `other` does, for delivery and
    /// ordering.
    pub fn is_at_least(&self, other: &QosSpec) -> bool {
        let ord_ok = match other.ordering {
            Ordering::None => true,
            Ordering::Fifo => matches!(self.ordering, Ordering::Fifo | Ordering::Causal | Ordering::Total),
            Ordering::Causal => self.ordering == Ordering::Causal,
            Ordering::Total => self.ordering == Ordering::Total,
        };
        self.delivery >= other.delivery && ord_ok
    }
}

impl fmt::Display for QosSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:?}/{:?}", self.delivery, self.ordering)?;
        if self.transmission.prioritary {
            write!(f, "+priority")?;
        }
        if self.transmission.timely {
            write!(f, "+timely")?;
        }
        Ok(())
    }
}
