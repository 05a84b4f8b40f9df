//! The compound-filter matching engine.
//!
//! "By gathering filters of several subscribers on a given host, a compound
//! filter can be generated which factors out redundancies between these
//! individual filters. By doing so, performance can be significantly
//! improved" (paper §2.3.2, citing [ASS+99]).
//!
//! [`FilterIndex`] implements that compound filter in the style of Aguilera
//! et al.'s counting algorithm, with per-event cost proportional to the
//! *event*, not the subscription population:
//!
//! 1. **predicate deduplication** — syntactically equal predicates from
//!    different subscriptions are stored once and evaluated once per obvent;
//! 2. **attribute-keyed buckets** — predicates are grouped by property path
//!    into `(attribute, op, value-bucket)` buckets: equality predicates in
//!    hash buckets keyed by canonicalized operand, ordered comparisons
//!    (`<`, `<=`, `>`, `>=`) in sorted threshold lists answered by one
//!    binary search, existence tests in a presence list, and everything
//!    else (`!=`, string ops, structured operands) in a small residual set
//!    evaluated individually — still sharing the property fetch;
//! 3. **O(attrs) probing** — when the event can enumerate its own
//!    properties ([`PropertySource::visit_properties`]), `matching` walks
//!    the *event's* attributes and hash-probes the buckets, so the phase-1
//!    cost is O(event attributes), independent of how many filters are
//!    stored; non-enumerable sources fall back to one fetch per indexed
//!    path;
//! 4. **counting with access-predicate gating** — each satisfied predicate
//!    bumps a per-filter counter of its posting-list subscribers, and a
//!    predicate occupies a probe bucket exactly while something posts to
//!    it: what is probed is what is counted. Conjunctions mixing selective
//!    equality predicates with wide-range ones post *only the equalities*:
//!    a wide threshold predicate is satisfied by half the population on
//!    every event, so counting it would cost O(filters) — instead the
//!    narrow hash buckets gate the counter, and a trigger checks the
//!    predicates the filter did not post. Every un-posted predicate gets
//!    its truth from one per-event memoized evaluator, so a range predicate
//!    shared by a thousand gated candidates is fetched and compared once.
//!    Other conjunctions post everything and match at their arity. General
//!    trees carry a *trigger threshold* (a lower bound on how many of their
//!    predicates any satisfying assignment needs) and are only
//!    DAG-evaluated when the counter reaches it; trees satisfiable with
//!    zero true predicates (negation-dominated shapes) sit in a residual
//!    set evaluated on every event through the same memoized evaluator,
//!    and provably false trees are never evaluated at all;
//! 5. **sub-expression hash-consing** — general evaluation trees are
//!    interned into a shared DAG at insert time (commutative operators
//!    normalized), so identical sub-expressions across subscriptions are
//!    stored once and, via per-obvent memoization, evaluated once. The
//!    evaluations avoided relative to the naive baseline are counted in the
//!    `filter.factored_evals_saved` telemetry counter.
//!
//! Each distinct predicate is interned once (its entry, plus the lookup
//! key that finds it); a stored filter is its evaluation tree over
//! interned ids. A filter that arrives as bytes
//! ([`FilterIndex::insert_wire`]) names the predicates the index already
//! holds by their encoding, so only new predicates are decoded.
//!
//! Selectivity is observable: `filter.index.probes` counts bucket probes
//! per call, `filter.index.candidates` counts DAG evaluations actually
//! performed, and `filter.index.shortcircuits` counts live filters the
//! engine never touched.
//!
//! [`FilterIndex::naive_matching`] provides the unfactored baseline (every
//! filter evaluated independently, repeating lookups and comparisons); the
//! benchmark suite measures the gap (experiments E1 and E11). Property
//! tests assert the two are extensionally equal, and
//! [`FilterIndex::check_consistency`] audits the posting lists, refcounts
//! and bucket placement against a from-first-principles reconstruction —
//! the churn-storm harness calls it mid-chaos.
//!
//! [`FilterIndex::matching`] takes `&self`: the generation-stamped scratch
//! state (predicate truths, conjunction counters, sub-expression memo) lives
//! in a [`RefCell`], so read-side callers — the publish hot path — do not
//! need a mutable index.

use std::borrow::Cow;
use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::Arc;

use psc_codec::hash::FastMap;
use psc_codec::CodecError;
use psc_telemetry::{Inspect, ReportBuilder};

use crate::metrics::metrics;
use crate::{
    CmpOp, EvalNode, Predicate, PropPath, PropertySource, RemoteFilter, Value, WireFilter,
};

/// Stable handle for a filter stored in a [`FilterIndex`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FilterId(u64);

impl FilterId {
    /// The raw numeric id (useful for logging).
    pub fn as_u64(self) -> u64 {
        self.0
    }
}

/// Aggregate statistics about sharing and bucket placement inside the index.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct IndexStats {
    /// Number of stored filters.
    pub filters: usize,
    /// Total predicate occurrences across all filters.
    pub total_predicates: usize,
    /// Distinct predicates after deduplication.
    pub unique_predicates: usize,
    /// Distinct property paths fetched per matched obvent.
    pub paths: usize,
    /// Live nodes in the hash-consed sub-expression DAG (general trees
    /// only; a value smaller than the summed tree sizes means cross-filter
    /// sharing).
    pub shared_nodes: usize,
    /// Filters matched purely by counting triggers (pure conjunctions plus
    /// threshold-triggered general trees).
    pub counting_filters: usize,
    /// Filters whose tree must be evaluated on every event (satisfiable
    /// with zero true predicates, e.g. negation-dominated shapes).
    pub residual_filters: usize,
    /// Distinct posted predicates answered by batched buckets (equality
    /// hash, threshold binary search, existence list). Predicates nothing
    /// posts to are never probed and do not count here.
    pub indexed_preds: usize,
    /// Distinct posted predicates in the residual per-path sets, evaluated
    /// individually when their path is present.
    pub residual_preds: usize,
}

/// How `matching` decides a stored filter's fate; fixed at insert time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum MatchPlan {
    /// Pass-all / zero-arity conjunction: matches every event.
    Unconditional,
    /// Pure conjunction, triggered when all of its posted predicates hold.
    /// Gated, only its selective equality predicates ("access predicates")
    /// post, and a trigger makes the filter a *verification candidate*
    /// whose un-posted wide-range predicates are then looked up from the
    /// per-event memoized truths instead of being counted through threshold
    /// buckets that half the population satisfies on every event. Ungated,
    /// every predicate posts and the trigger is the match.
    Conjunction,
    /// General tree, DAG-evaluated only when at least `threshold` of the
    /// filter's distinct predicates are satisfied (a sound lower bound on
    /// any satisfying assignment).
    CountedTree { threshold: u32, root: u32 },
    /// General tree satisfiable with zero true predicates: DAG-evaluated on
    /// every event.
    ResidualTree { root: u32 },
    /// Tree that is constant-false after interning: never evaluated.
    Never { root: u32 },
}

impl MatchPlan {
    fn root(self) -> Option<u32> {
        match self {
            MatchPlan::CountedTree { root, .. }
            | MatchPlan::ResidualTree { root }
            | MatchPlan::Never { root } => Some(root),
            MatchPlan::Unconditional | MatchPlan::Conjunction => None,
        }
    }

    /// True when the filter subscribes to posting lists (its counter can
    /// trigger a match or a DAG evaluation).
    fn counted(self) -> bool {
        matches!(self, MatchPlan::Conjunction | MatchPlan::CountedTree { .. })
    }

    /// The counter value that triggers the slot of a filter that posted to
    /// `posted` predicates; [`NO_TARGET`] when counting never triggers it.
    fn target(self, posted: usize) -> u32 {
        match self {
            MatchPlan::Conjunction => posted as u32,
            MatchPlan::CountedTree { threshold, .. } => threshold,
            _ => NO_TARGET,
        }
    }
}

/// A filter as the index holds it: its predicates live once, interned in
/// `preds`, so a filter is its tree and the ids of its leaves.
#[derive(Debug)]
struct StoredFilter {
    /// The filter's evaluation tree; `Pred(i)` names `globals[i]`.
    eval: EvalNode,
    /// Global predicate ids in the order of the filter's own predicate list.
    globals: Vec<usize>,
    /// The sorted distinct globals this filter posted to (its access
    /// predicates when gated; all counted predicates otherwise). The rest
    /// of a gated conjunction's predicates are in `slot_unposted`.
    posted: Vec<usize>,
    /// Dense counter slot.
    slot: usize,
    plan: MatchPlan,
}

/// Canonical key of one hash-consed sub-expression. `And`/`Or` children are
/// sorted and deduplicated (boolean conjunction/disjunction are commutative
/// and idempotent), so `a && b` and `b && a` intern to the same node.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum SharedKey {
    True,
    False,
    /// Global (deduplicated) predicate id.
    Pred(usize),
    And(Vec<u32>),
    Or(Vec<u32>),
    Not(u32),
}

/// `min_true` sentinel: the node is constant-false (no assignment makes it
/// true).
const UNSATISFIABLE: u32 = u32::MAX;

/// `slot_root` sentinel: the slot's filter has no evaluation DAG (pure
/// conjunction or unconditional).
const NO_ROOT: u32 = u32::MAX;

/// `slot_target` sentinel: the slot never triggers by counting (it is
/// unconditional, residual, or constant-false — or vacant).
const NO_TARGET: u32 = u32::MAX;

#[derive(Debug)]
struct SharedNode {
    key: SharedKey,
    refcount: usize,
    /// Lower bound on the number of *distinct satisfied predicates* any
    /// assignment making this node true must contain ([`UNSATISFIABLE`] if
    /// none exists). Sound but conservative: `And` takes the max of its
    /// children's bounds and its count of direct distinct predicate leaves
    /// (never the sum — children may share predicates), `Or` the min,
    /// `Not` claims nothing (0).
    min_true: u32,
}

/// Generation-stamped scratch reused across `matching` calls; kept behind a
/// `RefCell` so matching borrows the index immutably.
#[derive(Debug, Default)]
struct Scratch {
    gen: u64,
    /// Per global predicate: generation at which it was last satisfied.
    truth_gen: Vec<u64>,
    /// Per global predicate: generation at which an un-posted predicate was
    /// last evaluated against the event (see [`FilterIndex::truth`]).
    eval_gen: Vec<u64>,
    /// Per filter slot: generation stamp + count of satisfied conjuncts.
    counter_gen: Vec<u64>,
    counters: Vec<u32>,
    /// Per shared DAG node: memoized truth for the current generation.
    node_gen: Vec<u64>,
    node_truth: Vec<bool>,
    /// Reusable buffers (satisfied predicate ids; counting-triggered slots)
    /// so the hot path does not allocate per call.
    satisfied: Vec<usize>,
    candidates: Vec<usize>,
}

#[derive(Debug)]
struct PredEntry {
    /// Inline, not behind a pointer: the match path evaluates it.
    pred: Predicate,
    /// The predicate's encoding, once a filter brought it as bytes
    /// ([`FilterIndex::insert_wire`]); shared with its `wire_lookup` key.
    wire: Option<Arc<[u8]>>,
    refcount: usize,
}

#[derive(Debug, Default)]
struct PathGroup {
    /// `(threshold, pred)` sorted by threshold, per comparison op.
    lt: Vec<(f64, usize)>,
    le: Vec<(f64, usize)>,
    gt: Vec<(f64, usize)>,
    ge: Vec<(f64, usize)>,
    /// Equality predicates keyed by the canonicalized operand.
    eq: HashMap<Value, Vec<usize>>,
    /// Predicates satisfied whenever the property exists.
    exists: Vec<usize>,
    /// Everything else: evaluated individually (still sharing the fetch).
    general: Vec<usize>,
}

impl PathGroup {
    fn is_empty(&self) -> bool {
        self.lt.is_empty()
            && self.le.is_empty()
            && self.gt.is_empty()
            && self.ge.is_empty()
            && self.eq.is_empty()
            && self.exists.is_empty()
            && self.general.is_empty()
    }

    fn indexed_len(&self) -> usize {
        self.lt.len()
            + self.le.len()
            + self.gt.len()
            + self.ge.len()
            + self.eq.values().map(Vec::len).sum::<usize>()
            + self.exists.len()
    }

    fn thresholds_mut(&mut self, op: CmpOp) -> &mut Vec<(f64, usize)> {
        match op {
            CmpOp::Lt => &mut self.lt,
            CmpOp::Le => &mut self.le,
            CmpOp::Gt => &mut self.gt,
            CmpOp::Ge => &mut self.ge,
            _ => unreachable!("classify returned threshold for non-ordering op"),
        }
    }
}

/// The factoring matching index; see the module docs.
///
/// ```
/// use psc_filter::{rfilter, FilterIndex, Value};
///
/// let mut index = FilterIndex::new();
/// let id = index.insert(rfilter!(price >= 10 && price <= 20));
/// let quote = Value::record([("price", Value::from(15))]);
/// assert_eq!(index.matching(&quote), vec![id]);
/// index.remove(id);
/// assert!(index.matching(&quote).is_empty());
/// ```
#[derive(Debug, Default)]
pub struct FilterIndex {
    next_id: u64,
    filters: FastMap<FilterId, StoredFilter>,
    /// slot -> FilterId of the occupant (freed slots go on `free_slots`).
    slots: Vec<Option<FilterId>>,
    /// slot -> counter value that triggers the slot (arity or threshold);
    /// [`NO_TARGET`] when counting never triggers it. Dense so the counting
    /// loop never touches the filter hash map.
    slot_target: Vec<u32>,
    /// slot -> evaluation DAG root, [`NO_ROOT`] for conjunctions and for
    /// unconditional or vacant slots.
    slot_root: Vec<u32>,
    /// slot -> the distinct predicates a gated conjunction did not post,
    /// checked when its counter triggers; empty for every other slot.
    slot_unposted: Vec<Box<[usize]>>,
    free_slots: Vec<usize>,
    preds: Vec<PredEntry>,
    /// pred id -> filters (by slot) counting the predicate: gated
    /// conjunctions over their equality gates, ungated ones over their
    /// distinct leaves, counted trees over their distinct predicates — with
    /// multiplicity 1 either way. A predicate sits in its path group's
    /// bucket exactly while its list is non-empty. Kept apart from `preds`
    /// so the counting loop reads nothing else per satisfied predicate.
    postings: Vec<Vec<usize>>,
    /// The maps keyed by what a peer chose (predicates, their encodings,
    /// paths, operands) keep `std`'s keyed hasher: an unkeyed one would let
    /// a peer ship predicates that all collide. `FastMap` is for the ids
    /// the index assigns itself.
    pred_lookup: HashMap<Predicate, usize>,
    /// Encoded predicate → its id, for the predicates that arrived as
    /// bytes: a filter from a peer names what the index holds without
    /// decoding it. The codec's encoding is deterministic and tells unequal
    /// predicates apart, so equal bytes are an equal predicate.
    wire_lookup: HashMap<Arc<[u8]>, usize>,
    free_preds: Vec<usize>,
    groups: HashMap<PropPath, PathGroup>,
    /// Slots whose tree must be evaluated on every event (satisfiable with
    /// zero true predicates).
    residual_trees: Vec<usize>,
    /// Pass-all / zero-arity filters, by slot.
    unconditional: Vec<usize>,
    /// Hash-consed sub-expression DAG shared by all general-tree filters.
    shared_nodes: Vec<SharedNode>,
    shared_lookup: FastMap<SharedKey, u32>,
    free_nodes: Vec<u32>,
    /// Total predicate occurrences across stored filters (naive evaluation
    /// cost per obvent); `live_preds` is the deduplicated count.
    pred_occurrences: usize,
    live_preds: usize,
    scratch: RefCell<Scratch>,
}

impl FilterIndex {
    /// Creates an empty index with all optimizations enabled.
    pub fn new() -> Self {
        FilterIndex::default()
    }

    /// Number of stored filters.
    pub fn len(&self) -> usize {
        self.filters.len()
    }

    /// True when no filters are stored.
    pub fn is_empty(&self) -> bool {
        self.filters.is_empty()
    }

    /// Sharing statistics (how much factoring bought).
    pub fn stats(&self) -> IndexStats {
        IndexStats {
            filters: self.filters.len(),
            total_predicates: self.pred_occurrences,
            unique_predicates: self.preds.iter().filter(|p| p.refcount > 0).count(),
            paths: self.groups.len(),
            shared_nodes: self.shared_nodes.len() - self.free_nodes.len(),
            counting_filters: self
                .filters
                .values()
                .filter(|f| f.plan.counted())
                .count(),
            residual_filters: self.residual_trees.len(),
            indexed_preds: self.groups.values().map(PathGroup::indexed_len).sum(),
            residual_preds: self.groups.values().map(|g| g.general.len()).sum(),
        }
    }

    /// Inserts a filter and returns its handle. A predicate the index
    /// already holds is dropped; a new one is moved in and copied once,
    /// into its lookup key.
    pub fn insert(&mut self, filter: RemoteFilter) -> FilterId {
        let (predicates, eval) = filter.into_parts();
        let globals = predicates
            .into_iter()
            .map(|pred| self.intern_pred(pred))
            .collect();
        self.place(globals, eval)
    }

    /// Inserts a filter that arrived as bytes and was checked by
    /// [`WireFilter::parse`]: each predicate the index already holds is
    /// found by its encoding, and only new ones are decoded.
    ///
    /// # Errors
    ///
    /// A predicate that does not decode, which a parsed filter's never
    /// does; the index is then left as it was.
    pub fn insert_wire(&mut self, filter: WireFilter<'_>) -> Result<FilterId, CodecError> {
        let mut globals = Vec::with_capacity(filter.predicate_bytes().len());
        for span in filter.predicate_bytes() {
            match self.intern_wire(span) {
                Ok(g) => globals.push(g),
                Err(err) => {
                    for g in globals {
                        self.release_pred(g);
                    }
                    return Err(err);
                }
            }
        }
        Ok(self.place(globals, filter.into_eval()))
    }

    /// Stores a filter whose predicates are interned as `globals`.
    fn place(&mut self, globals: Vec<usize>, eval: EvalNode) -> FilterId {
        let id = FilterId(self.next_id);
        self.next_id += 1;

        let slot = match self.free_slots.pop() {
            Some(slot) => {
                self.slots[slot] = Some(id);
                slot
            }
            None => {
                self.slots.push(Some(id));
                self.slot_target.push(NO_TARGET);
                self.slot_root.push(NO_ROOT);
                self.slot_unposted.push(Box::default());
                let scratch = self.scratch.get_mut();
                scratch.counter_gen.push(0);
                scratch.counters.push(0);
                self.slots.len() - 1
            }
        };

        self.pred_occurrences += globals.len();
        let (plan, posted, unposted) = match conjunction_leaves(&eval) {
            Some(mut distinct) => {
                // Deduplicate leaves within the filter so the counter target
                // is the number of *distinct* conditions.
                for leaf in &mut distinct {
                    *leaf = globals[*leaf];
                }
                distinct.sort_unstable();
                distinct.dedup();
                if distinct.is_empty() {
                    (MatchPlan::Unconditional, Vec::new(), Box::default())
                } else {
                    let (posted, unposted) = self.gate(distinct);
                    (MatchPlan::Conjunction, posted, unposted)
                }
            }
            None => {
                let root = self.intern_node(&eval, &globals);
                match self.shared_nodes[root as usize].min_true {
                    0 => (MatchPlan::ResidualTree { root }, Vec::new(), Box::default()),
                    UNSATISFIABLE => (MatchPlan::Never { root }, Vec::new(), Box::default()),
                    // The tree triggers once `threshold` of the filter's
                    // distinct predicates hold, so every distinct predicate
                    // posts to this slot.
                    threshold => (
                        MatchPlan::CountedTree { threshold, root },
                        sorted_distinct(globals.iter().copied()),
                        Box::default(),
                    ),
                }
            }
        };

        for &g in &posted {
            self.post(g, slot);
        }
        self.slot_target[slot] = plan.target(posted.len());
        self.slot_root[slot] = plan.root().unwrap_or(NO_ROOT);
        self.slot_unposted[slot] = unposted;
        match plan {
            MatchPlan::Unconditional => self.unconditional.push(slot),
            MatchPlan::ResidualTree { .. } => self.residual_trees.push(slot),
            _ => {}
        }

        self.filters.insert(
            id,
            StoredFilter {
                eval,
                globals,
                posted,
                slot,
                plan,
            },
        );
        id
    }

    /// Access-predicate gating: splits a conjunction's sorted distinct
    /// predicates into the ones it posts and the ones its trigger checks.
    /// When the conjunction mixes selective equality predicates with
    /// others, only the equalities post — their narrow hash buckets gate
    /// the counter — rather than counting range predicates that half the
    /// population satisfies on every event. Otherwise everything posts.
    fn gate(&self, mut distinct: Vec<usize>) -> (Vec<usize>, Box<[usize]>) {
        let is_gate = |g: &usize| matches!(classify(&self.preds[*g].pred), Bucket::Equality(_));
        let gates = distinct.iter().filter(|g| is_gate(g)).count();
        if gates == 0 || gates == distinct.len() {
            return (distinct, Box::default());
        }
        let mut rest = Vec::with_capacity(distinct.len() - gates);
        rest.extend(distinct.iter().copied().filter(|g| !is_gate(g)));
        distinct.retain(is_gate);
        (distinct, rest.into_boxed_slice())
    }

    /// Removes a filter. Returns the filter if it was present, its
    /// predicates copied out of the index ([`FilterIndex::discard`] skips
    /// the copies).
    pub fn remove(&mut self, id: FilterId) -> Option<RemoteFilter> {
        let stored = self.filters.get(&id)?;
        let predicates = stored
            .globals
            .iter()
            .map(|&g| self.preds[g].pred.clone())
            .collect();
        let eval = self.unstore(id)?;
        Some(RemoteFilter::from_parts_unchecked(predicates, eval))
    }

    /// Removes a filter; true if it was present.
    pub fn discard(&mut self, id: FilterId) -> bool {
        self.unstore(id).is_some()
    }

    /// Takes filter `id` out of every table; returns its tree.
    fn unstore(&mut self, id: FilterId) -> Option<EvalNode> {
        let stored = self.filters.remove(&id)?;
        let slot = stored.slot;
        self.slots[slot] = None;
        self.slot_target[slot] = NO_TARGET;
        self.slot_root[slot] = NO_ROOT;
        self.slot_unposted[slot] = Box::default();
        self.free_slots.push(slot);
        match stored.plan {
            MatchPlan::Unconditional => self.unconditional.retain(|&s| s != slot),
            MatchPlan::ResidualTree { .. } => self.residual_trees.retain(|&s| s != slot),
            _ => {}
        }
        for &g in &stored.posted {
            self.unpost(g, slot);
        }
        if let Some(root) = stored.plan.root() {
            self.release_node(root);
        }
        self.pred_occurrences -= stored.globals.len();
        for &g in &stored.globals {
            self.release_pred(g);
        }
        Some(stored.eval)
    }

    /// Interns `node` into the shared DAG, returning a node id with one
    /// reference owned by the caller. Commutative operators are normalized
    /// (children sorted, duplicates dropped) and trivial shapes collapsed
    /// (single-child `And`/`Or` become the child; empty ones become the
    /// identity constant), maximizing sharing without changing semantics.
    fn intern_node(&mut self, node: &EvalNode, globals: &[usize]) -> u32 {
        let key = match node {
            EvalNode::True => SharedKey::True,
            EvalNode::False => SharedKey::False,
            EvalNode::Pred(i) => SharedKey::Pred(globals[*i]),
            EvalNode::And(children) | EvalNode::Or(children) => {
                let mut ids: Vec<u32> = children
                    .iter()
                    .map(|c| self.intern_node(c, globals))
                    .collect();
                ids.sort_unstable();
                // Idempotence: duplicate children fold into one reference.
                let mut deduped = Vec::with_capacity(ids.len());
                for id in ids {
                    if deduped.last() == Some(&id) {
                        self.release_node(id);
                    } else {
                        deduped.push(id);
                    }
                }
                let is_and = matches!(node, EvalNode::And(_));
                match deduped.len() {
                    0 => {
                        if is_and {
                            SharedKey::True
                        } else {
                            SharedKey::False
                        }
                    }
                    1 => return deduped.pop().expect("one child"),
                    _ => {
                        if is_and {
                            SharedKey::And(deduped)
                        } else {
                            SharedKey::Or(deduped)
                        }
                    }
                }
            }
            EvalNode::Not(child) => SharedKey::Not(self.intern_node(child, globals)),
        };
        self.intern_key(key)
    }

    /// The [`SharedNode::min_true`] lower bound for a node with `key`,
    /// computed from its (already interned) children.
    fn bound_of_key(&self, key: &SharedKey) -> u32 {
        match key {
            SharedKey::True => 0,
            SharedKey::False => UNSATISFIABLE,
            SharedKey::Pred(_) => 1,
            // A negation can hold with nothing satisfied at all.
            SharedKey::Not(_) => 0,
            SharedKey::And(children) => {
                let mut bound = 0u32;
                let mut pred_children = 0u32;
                for &c in children {
                    let child = &self.shared_nodes[c as usize];
                    if matches!(child.key, SharedKey::Pred(_)) {
                        pred_children += 1;
                    }
                    bound = bound.max(child.min_true);
                }
                // Direct predicate children are distinct globals (children
                // are deduplicated node ids) and must all hold, so their
                // count is a second sound lower bound.
                if bound == UNSATISFIABLE {
                    UNSATISFIABLE
                } else {
                    bound.max(pred_children)
                }
            }
            SharedKey::Or(children) => children
                .iter()
                .map(|&c| self.shared_nodes[c as usize].min_true)
                .min()
                .unwrap_or(UNSATISFIABLE),
        }
    }

    fn intern_key(&mut self, key: SharedKey) -> u32 {
        if let Some(&id) = self.shared_lookup.get(&key) {
            // The existing node already owns references to its children;
            // drop the temporary ones taken while building `key`.
            match &key {
                SharedKey::And(children) | SharedKey::Or(children) => {
                    for &c in children.clone().iter() {
                        self.release_node(c);
                    }
                }
                SharedKey::Not(c) => self.release_node(*c),
                _ => {}
            }
            self.shared_nodes[id as usize].refcount += 1;
            metrics().shared_subexprs.add(1);
            return id;
        }
        let min_true = self.bound_of_key(&key);
        let id = match self.free_nodes.pop() {
            Some(id) => {
                self.shared_nodes[id as usize] = SharedNode {
                    key: key.clone(),
                    refcount: 1,
                    min_true,
                };
                id
            }
            None => {
                self.shared_nodes.push(SharedNode {
                    key: key.clone(),
                    refcount: 1,
                    min_true,
                });
                (self.shared_nodes.len() - 1) as u32
            }
        };
        self.shared_lookup.insert(key, id);
        id
    }

    fn release_node(&mut self, id: u32) {
        let node = &mut self.shared_nodes[id as usize];
        node.refcount -= 1;
        if node.refcount > 0 {
            return;
        }
        let key = std::mem::replace(&mut node.key, SharedKey::False);
        self.shared_lookup.remove(&key);
        match key {
            SharedKey::And(children) | SharedKey::Or(children) => {
                for c in children {
                    self.release_node(c);
                }
            }
            SharedKey::Not(c) => self.release_node(c),
            _ => {}
        }
        self.free_nodes.push(id);
    }

    /// The truth of predicate `g` for the current event. A posted predicate
    /// sits in its path bucket, so phase 1 has already stamped it; any
    /// other is evaluated against `source` on first use and memoized for
    /// the rest of the event. Only valid once phase 2 is over.
    fn truth(&self, scratch: &mut Scratch, source: &dyn PropertySource, g: usize) -> bool {
        let gen = scratch.gen;
        if self.postings[g].is_empty() && scratch.eval_gen[g] != gen {
            scratch.eval_gen[g] = gen;
            if self.preds[g].pred.eval(source) {
                scratch.truth_gen[g] = gen;
            }
        }
        scratch.truth_gen[g] == gen
    }

    /// Evaluates shared node `id` with per-generation memoization. A memo
    /// hit is an evaluation another filter (or another branch) already paid
    /// for — counted into `saved`.
    fn eval_shared(
        &self,
        scratch: &mut Scratch,
        source: &dyn PropertySource,
        id: u32,
        saved: &mut u64,
    ) -> bool {
        let i = id as usize;
        if scratch.node_gen[i] == scratch.gen {
            *saved += 1;
            return scratch.node_truth[i];
        }
        let truth = match &self.shared_nodes[i].key {
            SharedKey::True => true,
            SharedKey::False => false,
            SharedKey::Pred(g) => self.truth(scratch, source, *g),
            SharedKey::And(children) => children
                .iter()
                .all(|&c| self.eval_shared(scratch, source, c, saved)),
            SharedKey::Or(children) => children
                .iter()
                .any(|&c| self.eval_shared(scratch, source, c, saved)),
            SharedKey::Not(c) => !self.eval_shared(scratch, source, *c, saved),
        };
        scratch.node_gen[i] = scratch.gen;
        scratch.node_truth[i] = truth;
        truth
    }

    /// Probes one path group with the value found at its path, appending
    /// the ids of satisfied predicates: hash lookup for equality, binary
    /// search over sorted thresholds for ordered comparisons, individual
    /// evaluation for the residual set.
    fn probe_group(&self, group: &PathGroup, value: &Value, satisfied: &mut Vec<usize>) {
        satisfied.extend_from_slice(&group.exists);
        if let Some(eq_hits) = group.eq.get(canonical(value).as_ref()) {
            satisfied.extend_from_slice(eq_hits);
        }
        match exact_f64(value) {
            Some(x) if !x.is_nan() => {
                // lt: x < t  ⇔ t > x
                let start = group.lt.partition_point(|(t, _)| *t <= x);
                satisfied.extend(group.lt[start..].iter().map(|&(_, p)| p));
                // le: x <= t ⇔ t >= x
                let start = group.le.partition_point(|(t, _)| *t < x);
                satisfied.extend(group.le[start..].iter().map(|&(_, p)| p));
                // gt: x > t ⇔ t < x
                let end = group.gt.partition_point(|(t, _)| *t < x);
                satisfied.extend(group.gt[..end].iter().map(|&(_, p)| p));
                // ge: x >= t ⇔ t <= x
                let end = group.ge.partition_point(|(t, _)| *t <= x);
                satisfied.extend(group.ge[..end].iter().map(|&(_, p)| p));
            }
            _ => {
                // Non-numeric, NaN, or not exactly representable as f64:
                // fall back to individual evaluation of the threshold
                // buckets to preserve exact semantics.
                for &(_, p) in group
                    .lt
                    .iter()
                    .chain(&group.le)
                    .chain(&group.gt)
                    .chain(&group.ge)
                {
                    let pred = &self.preds[p].pred;
                    if pred.op.apply(value, &pred.operand) {
                        satisfied.push(p);
                    }
                }
            }
        }
        for &p in &group.general {
            let pred = &self.preds[p].pred;
            if pred.op.apply(value, &pred.operand) {
                satisfied.push(p);
            }
        }
    }

    /// Returns the ids of all filters matching `source`, ascending.
    ///
    /// Takes `&self`: the per-call scratch state lives in a `RefCell`, so
    /// the publish hot path can match against a shared index. Not
    /// re-entrant — `PropertySource` implementations must not call
    /// back into the same index (they are plain data accessors).
    pub fn matching(&self, source: &dyn PropertySource) -> Vec<FilterId> {
        let m = metrics();
        m.matching_calls.add(1);
        let mut scratch = self.scratch.borrow_mut();
        let scratch = &mut *scratch;
        scratch.gen = scratch.gen.wrapping_add(1);
        let gen = scratch.gen;
        if scratch.truth_gen.len() < self.preds.len() {
            scratch.truth_gen.resize(self.preds.len(), 0);
            scratch.eval_gen.resize(self.preds.len(), 0);
        }
        if scratch.node_gen.len() < self.shared_nodes.len() {
            scratch.node_gen.resize(self.shared_nodes.len(), 0);
            scratch.node_truth.resize(self.shared_nodes.len(), false);
        }
        // Every deduplicated predicate occurrence is an evaluation the
        // naive baseline would have repeated.
        let mut saved = (self.pred_occurrences - self.live_preds) as u64;

        // Phase 1: enumerate satisfied predicates. Fast path: walk the
        // *event's* attributes and hash-probe the per-path buckets —
        // O(attrs) probes, independent of the subscription population.
        // Sources that cannot enumerate themselves fall back to one fetch
        // per indexed path.
        let mut satisfied = std::mem::take(&mut scratch.satisfied);
        satisfied.clear();
        let mut probes = 0u64;
        let enumerated = source.visit_properties(&mut |path, value| {
            if let Some(group) = self.groups.get(path) {
                probes += 1;
                self.probe_group(group, value, &mut satisfied);
            }
        });
        if !enumerated {
            for (path, group) in &self.groups {
                let Some(value) = source.property(path) else { continue };
                probes += 1;
                self.probe_group(group, &value, &mut satisfied);
            }
        }
        m.index_probes.add(probes);

        // Phase 2: counting. Each satisfied predicate bumps the counters of
        // its posting slots; an ungated conjunction reaching its target
        // matches outright, a gated one or a counted tree becomes a
        // candidate. Dense slot arrays: no hash lookups in the loop.
        let mut matched: Vec<FilterId> = Vec::new();
        let mut candidates = std::mem::take(&mut scratch.candidates);
        candidates.clear();
        let mut touched = 0u64;
        for &p in &satisfied {
            if scratch.truth_gen[p] == gen {
                // A source enumerating a path twice must not double-count.
                continue;
            }
            scratch.truth_gen[p] = gen;
            for &slot in &self.postings[p] {
                let count = &mut scratch.counters[slot];
                if scratch.counter_gen[slot] != gen {
                    scratch.counter_gen[slot] = gen;
                    *count = 0;
                    touched += 1;
                }
                *count += 1;
                if *count == self.slot_target[slot] {
                    if self.slot_root[slot] == NO_ROOT && self.slot_unposted[slot].is_empty() {
                        if let Some(id) = self.slots[slot] {
                            matched.push(id);
                        }
                    } else {
                        candidates.push(slot);
                    }
                }
            }
        }

        // Phase 3: unconditional filters always match.
        for &slot in &self.unconditional {
            if let Some(id) = self.slots[slot] {
                matched.push(id);
            }
        }

        // Phase 4: counting-triggered candidates plus the residual trees.
        // Gated conjunctions (all access predicates held) check their
        // un-posted predicates; everything else walks the hash-consed DAG
        // with per-generation memoization sharing sub-expression results.
        // Both read predicate truths through `truth`, so an un-posted
        // predicate is evaluated at most once per event.
        m.index_candidates
            .add((candidates.len() + self.residual_trees.len()) as u64);
        for &slot in candidates.iter().chain(&self.residual_trees) {
            let Some(id) = self.slots[slot] else { continue };
            let root = self.slot_root[slot];
            let hit = if root == NO_ROOT {
                self.slot_unposted[slot]
                    .iter()
                    .all(|&g| self.truth(scratch, source, g))
            } else {
                self.eval_shared(scratch, source, root, &mut saved)
            };
            if hit {
                matched.push(id);
            }
        }
        let evaluated =
            touched + (self.unconditional.len() + self.residual_trees.len()) as u64;
        m.index_shortcircuits
            .add((self.filters.len() as u64).saturating_sub(evaluated));
        m.factored_evals_saved.add(saved);

        scratch.satisfied = satisfied;
        scratch.candidates = candidates;

        matched.sort_unstable();
        matched.dedup();
        matched
    }

    /// The unfactored baseline: evaluates every stored filter independently.
    /// Extensionally equal to [`FilterIndex::matching`]; exists for
    /// benchmarking the indexing speedup (experiments E1, E11) and as the
    /// differential oracle of the property tests and the churn-storm
    /// harness.
    pub fn naive_matching(&self, source: &dyn PropertySource) -> Vec<FilterId> {
        let mut matched: Vec<FilterId> = self
            .filters
            .iter()
            .filter(|(_, stored)| {
                stored.eval.eval(&mut |i| {
                    stored
                        .globals
                        .get(i)
                        .is_some_and(|&g| self.preds[g].pred.eval(source))
                })
            })
            .map(|(&id, _)| id)
            .collect();
        matched.sort_unstable();
        matched
    }

    /// Audits the index's internal bookkeeping — posting lists, predicate
    /// refcounts, bucket placement, DAG refcounts and trigger metadata —
    /// against a reconstruction from the stored filters. Returns the first
    /// discrepancy found; `Ok(())` means a from-scratch rebuild would
    /// produce an equivalent structure.
    ///
    /// Cost is O(index); meant for tests and the harness's mid-chaos
    /// `FilterOracle`, not the hot path.
    pub fn check_consistency(&self) -> Result<(), String> {
        let tables = [
            self.slot_target.len(),
            self.slot_root.len(),
            self.slot_unposted.len(),
        ];
        if tables.iter().any(|&len| len != self.slots.len()) {
            return Err(format!(
                "slot tables disagree: slots={} targets/roots/unposted={tables:?}",
                self.slots.len()
            ));
        }

        // Slot occupancy: every stored filter sits in its slot, every
        // occupied slot is backed by a stored filter, vacancies are on the
        // free list exactly once.
        let occupied = self.slots.iter().filter(|s| s.is_some()).count();
        if occupied != self.filters.len() {
            return Err(format!(
                "{} occupied slots but {} stored filters",
                occupied,
                self.filters.len()
            ));
        }
        let mut free = self.free_slots.clone();
        free.sort_unstable();
        let dup_free = free.windows(2).any(|w| w[0] == w[1]);
        if dup_free || free.len() != self.slots.len() - occupied {
            return Err(format!(
                "free slot list inconsistent: {} entries (dup={}) for {} vacancies",
                free.len(),
                dup_free,
                self.slots.len() - occupied
            ));
        }
        if let Some(&s) = self.free_slots.iter().find(|&&s| self.slots[s].is_some()) {
            return Err(format!("slot {s} is both free and occupied"));
        }

        // Per-filter: slot back-pointer, plan metadata mirrored in the
        // dense arrays, globals resolving to live predicates with the
        // filter's own predicate content.
        let mut expected_postings: HashMap<usize, Vec<usize>> = HashMap::new();
        let mut expected_refs: HashMap<usize, usize> = HashMap::new();
        let mut expected_unconditional = Vec::new();
        let mut expected_residual = Vec::new();
        let mut expected_occurrences = 0usize;
        for (id, stored) in &self.filters {
            if self.slots.get(stored.slot).copied().flatten() != Some(*id) {
                return Err(format!(
                    "filter {} does not occupy its slot {}",
                    id.as_u64(),
                    stored.slot
                ));
            }
            expected_occurrences += stored.globals.len();
            for g in &stored.globals {
                let entry = self
                    .preds
                    .get(*g)
                    .ok_or_else(|| format!("filter {}: global {g} out of range", id.as_u64()))?;
                if entry.refcount == 0 {
                    return Err(format!(
                        "filter {}: global {g} points at a freed predicate",
                        id.as_u64()
                    ));
                }
                *expected_refs.entry(*g).or_default() += 1;
            }

            match stored.plan {
                MatchPlan::Unconditional => expected_unconditional.push(stored.slot),
                MatchPlan::ResidualTree { .. } => expected_residual.push(stored.slot),
                _ => {}
            }
            let want_target = stored.plan.target(stored.posted.len());
            let want_root = stored.plan.root().unwrap_or(NO_ROOT);
            if self.slot_target[stored.slot] != want_target {
                return Err(format!(
                    "filter {}: slot target {} != plan target {want_target}",
                    id.as_u64(),
                    self.slot_target[stored.slot]
                ));
            }
            if self.slot_root[stored.slot] != want_root {
                return Err(format!(
                    "filter {}: slot root {} != plan root {want_root}",
                    id.as_u64(),
                    self.slot_root[stored.slot]
                ));
            }
            let (want_posted, want_unposted) = match stored.plan {
                MatchPlan::Conjunction => {
                    // Conjunctions post their distinct *leaves*; with
                    // `from_parts` the tree may reference a subset of the
                    // predicate list.
                    let leaves = conjunction_leaves(&stored.eval).ok_or_else(|| {
                        format!(
                            "filter {}: Conjunction plan but tree is not a conjunction",
                            id.as_u64()
                        )
                    })?;
                    self.gate(sorted_distinct(leaves.iter().map(|&l| stored.globals[l])))
                }
                MatchPlan::CountedTree { .. } => (
                    sorted_distinct(stored.globals.iter().copied()),
                    Box::default(),
                ),
                _ => (Vec::new(), Box::default()),
            };
            if stored.posted != want_posted {
                return Err(format!(
                    "filter {}: posted {:?} but reconstruction says {want_posted:?}",
                    id.as_u64(),
                    stored.posted
                ));
            }
            if *self.slot_unposted[stored.slot] != *want_unposted {
                return Err(format!(
                    "filter {}: un-posted {:?} but reconstruction says {want_unposted:?}",
                    id.as_u64(),
                    self.slot_unposted[stored.slot]
                ));
            }
            for &g in &stored.posted {
                expected_postings.entry(g).or_default().push(stored.slot);
            }
        }
        if expected_occurrences != self.pred_occurrences {
            return Err(format!(
                "pred_occurrences={} but filters hold {expected_occurrences}",
                self.pred_occurrences
            ));
        }

        // Membership lists match the plans exactly.
        for (name, got, want) in [
            ("unconditional", &self.unconditional, &mut expected_unconditional),
            ("residual_trees", &self.residual_trees, &mut expected_residual),
        ] {
            let mut got = got.clone();
            got.sort_unstable();
            want.sort_unstable();
            if got != *want {
                return Err(format!("{name} list {got:?} != expected {want:?}"));
            }
        }

        // Predicate table: refcounts and posting lists reconstruct, freed
        // entries are exactly the free list.
        let live = self.preds.iter().filter(|p| p.refcount > 0).count();
        if live != self.live_preds {
            return Err(format!(
                "live_preds={} but {live} entries have refcount > 0",
                self.live_preds
            ));
        }
        let mut free_preds = self.free_preds.clone();
        free_preds.sort_unstable();
        let dup = free_preds.windows(2).any(|w| w[0] == w[1]);
        if dup || free_preds.len() != self.preds.len() - live {
            return Err(format!(
                "free pred list inconsistent: {} entries (dup={dup}) for {} freed",
                free_preds.len(),
                self.preds.len() - live
            ));
        }
        if let Some(&p) = self.free_preds.iter().find(|&&p| self.preds[p].refcount > 0) {
            return Err(format!("pred {p} is both free and live"));
        }
        if self.postings.len() != self.preds.len() {
            return Err(format!(
                "{} posting lists for {} predicate entries",
                self.postings.len(),
                self.preds.len()
            ));
        }
        for (idx, entry) in self.preds.iter().enumerate() {
            let want_refs = expected_refs.get(&idx).copied().unwrap_or(0);
            if entry.refcount != want_refs {
                return Err(format!(
                    "pred {idx} `{}`: refcount {} but {want_refs} filter occurrences",
                    entry.pred, entry.refcount
                ));
            }
            let mut got = self.postings[idx].clone();
            got.sort_unstable();
            let mut want = expected_postings.remove(&idx).unwrap_or_default();
            want.sort_unstable();
            if got != want {
                return Err(format!(
                    "pred {idx} `{}`: postings {got:?} != expected {want:?}",
                    entry.pred
                ));
            }
        }
        if self.pred_lookup.len() != live {
            return Err(format!(
                "pred_lookup has {} entries for {live} live predicates",
                self.pred_lookup.len()
            ));
        }
        for (pred, &idx) in &self.pred_lookup {
            if self.preds.get(idx).map(|e| &e.pred) != Some(pred) {
                return Err(format!("pred_lookup maps `{pred}` to mismatched entry {idx}"));
            }
        }
        // Encodings: each known one names a live entry that keeps it, and
        // decodes to that entry's predicate.
        let encoded = self.preds.iter().filter(|p| p.wire.is_some()).count();
        if self.wire_lookup.len() != encoded {
            return Err(format!(
                "wire_lookup has {} entries for {encoded} encoded predicates",
                self.wire_lookup.len()
            ));
        }
        for (wire, &idx) in &self.wire_lookup {
            let entry = self
                .preds
                .get(idx)
                .filter(|e| e.refcount > 0 && e.wire.as_ref() == Some(wire))
                .ok_or_else(|| format!("wire_lookup maps {wire:?} to mismatched entry {idx}"))?;
            if WireFilter::decode_predicate(wire).as_ref() != Ok(&entry.pred) {
                return Err(format!(
                    "pred {idx} `{}` is known by bytes that do not decode to it",
                    entry.pred
                ));
            }
        }

        // Bucket placement: every posted predicate sits in exactly one
        // bucket of its path's group; every other predicate sits in none.
        let mut placements: HashMap<usize, usize> = HashMap::new();
        for (path, group) in &self.groups {
            if group.is_empty() {
                return Err(format!("empty group retained for path `{path}`"));
            }
            let members = group
                .lt
                .iter()
                .chain(&group.le)
                .chain(&group.gt)
                .chain(&group.ge)
                .map(|&(_, p)| p)
                .chain(group.eq.values().flatten().copied())
                .chain(group.exists.iter().copied())
                .chain(group.general.iter().copied());
            for p in members {
                let entry = self
                    .preds
                    .get(p)
                    .ok_or_else(|| format!("group `{path}` lists out-of-range pred {p}"))?;
                if entry.refcount == 0 {
                    return Err(format!("group `{path}` lists freed pred {p}"));
                }
                if entry.pred.path != *path {
                    return Err(format!(
                        "pred {p} `{}` filed under wrong path `{path}`",
                        entry.pred
                    ));
                }
                *placements.entry(p).or_default() += 1;
            }
        }
        for (idx, entry) in self.preds.iter().enumerate() {
            let posted = !self.postings[idx].is_empty();
            let placed = placements.get(&idx).copied().unwrap_or(0);
            if placed != usize::from(posted) {
                return Err(format!(
                    "pred {idx} `{}` appears {placed} times across buckets (posted={posted})",
                    entry.pred
                ));
            }
        }

        // Shared DAG: refcounts reconstruct from plan roots + live parent
        // edges; lookup covers exactly the live nodes; `min_true` bounds
        // recompute.
        let mut node_refs = vec![0usize; self.shared_nodes.len()];
        for stored in self.filters.values() {
            if let Some(root) = stored.plan.root() {
                node_refs[root as usize] += 1;
            }
        }
        for node in &self.shared_nodes {
            if node.refcount == 0 {
                continue;
            }
            match &node.key {
                SharedKey::And(children) | SharedKey::Or(children) => {
                    for &c in children {
                        node_refs[c as usize] += 1;
                    }
                }
                SharedKey::Not(c) => node_refs[*c as usize] += 1,
                _ => {}
            }
        }
        for (i, node) in self.shared_nodes.iter().enumerate() {
            if node.refcount != node_refs[i] {
                return Err(format!(
                    "DAG node {i} {:?}: refcount {} but {} references",
                    node.key, node.refcount, node_refs[i]
                ));
            }
            if node.refcount > 0 {
                if self.shared_lookup.get(&node.key) != Some(&(i as u32)) {
                    return Err(format!("DAG node {i} {:?} missing from lookup", node.key));
                }
                let bound = self.bound_of_key(&node.key);
                if node.min_true != bound {
                    return Err(format!(
                        "DAG node {i} {:?}: min_true {} but bound recomputes to {bound}",
                        node.key, node.min_true
                    ));
                }
            }
        }
        let live_nodes = self.shared_nodes.iter().filter(|n| n.refcount > 0).count();
        if self.shared_lookup.len() != live_nodes {
            return Err(format!(
                "shared_lookup has {} entries for {live_nodes} live nodes",
                self.shared_lookup.len()
            ));
        }
        if self.free_nodes.len() != self.shared_nodes.len() - live_nodes {
            return Err(format!(
                "free node list has {} entries for {} freed nodes",
                self.free_nodes.len(),
                self.shared_nodes.len() - live_nodes
            ));
        }
        Ok(())
    }

    fn intern_pred(&mut self, pred: Predicate) -> usize {
        if let Some(&idx) = self.pred_lookup.get(&pred) {
            self.preds[idx].refcount += 1;
            return idx;
        }
        self.live_preds += 1;
        let key = pred.clone();
        let entry = PredEntry {
            pred,
            wire: None,
            refcount: 1,
        };
        let idx = match self.free_preds.pop() {
            Some(idx) => {
                self.preds[idx] = entry;
                idx
            }
            None => {
                self.preds.push(entry);
                self.postings.push(Vec::new());
                self.preds.len() - 1
            }
        };
        self.pred_lookup.insert(key, idx);
        idx
    }

    /// Interns the predicate `span` encodes: found by its bytes when a
    /// filter brought the same bytes before, else decoded and interned by
    /// value (and known by these bytes from then on).
    fn intern_wire(&mut self, span: &[u8]) -> Result<usize, CodecError> {
        if let Some(&idx) = self.wire_lookup.get(span) {
            self.preds[idx].refcount += 1;
            return Ok(idx);
        }
        let idx = self.intern_pred(WireFilter::decode_predicate(span)?);
        let entry = &mut self.preds[idx];
        if entry.wire.is_none() {
            let wire: Arc<[u8]> = span.into();
            entry.wire = Some(Arc::clone(&wire));
            self.wire_lookup.insert(wire, idx);
        }
        Ok(idx)
    }

    fn release_pred(&mut self, idx: usize) {
        let entry = &mut self.preds[idx];
        entry.refcount -= 1;
        if entry.refcount == 0 {
            self.live_preds -= 1;
            self.pred_lookup.remove(&entry.pred);
            if let Some(wire) = entry.wire.take() {
                self.wire_lookup.remove(&wire);
            }
            self.free_preds.push(idx);
        }
    }

    /// Adds `slot` to predicate `g`'s posting list. The first posting files
    /// the predicate into its path group's bucket, so phase 1 probes it
    /// from then on.
    fn post(&mut self, g: usize, slot: usize) {
        if self.postings[g].is_empty() {
            let pred = &self.preds[g].pred;
            // The path is cloned only for the first predicate on it.
            if !self.groups.contains_key(&pred.path) {
                self.groups.insert(pred.path.clone(), PathGroup::default());
            }
            let group = self.groups.get_mut(&pred.path).expect("just ensured");
            match classify(pred) {
                Bucket::Threshold(op, t) => {
                    let list = group.thresholds_mut(op);
                    let pos = list.partition_point(|(x, _)| *x < t);
                    list.insert(pos, (t, g));
                }
                Bucket::Equality(key) => match group.eq.get_mut(key.as_ref()) {
                    Some(list) => list.push(g),
                    None => {
                        group.eq.insert(key.into_owned(), vec![g]);
                    }
                },
                Bucket::Exists => group.exists.push(g),
                Bucket::General => group.general.push(g),
            }
        }
        self.postings[g].push(slot);
    }

    /// Removes `slot` from predicate `g`'s posting list. The last posting
    /// takes the predicate out of its bucket: it is no longer probed.
    fn unpost(&mut self, g: usize, slot: usize) {
        self.postings[g].retain(|&s| s != slot);
        if !self.postings[g].is_empty() {
            return;
        }
        let pred = &self.preds[g].pred;
        let Some(group) = self.groups.get_mut(&pred.path) else {
            return;
        };
        match classify(pred) {
            Bucket::Threshold(op, _) => group.thresholds_mut(op).retain(|&(_, p)| p != g),
            Bucket::Equality(key) => {
                if let Some(list) = group.eq.get_mut(key.as_ref()) {
                    list.retain(|&p| p != g);
                    if list.is_empty() {
                        group.eq.remove(key.as_ref());
                    }
                }
            }
            Bucket::Exists => group.exists.retain(|&p| p != g),
            Bucket::General => group.general.retain(|&p| p != g),
        }
        if group.is_empty() {
            self.groups.remove(&pred.path);
        }
    }
}

enum Bucket<'a> {
    Threshold(CmpOp, f64),
    /// Keyed by the canonical operand, borrowed unless canonicalizing
    /// changed it: classifying a string equality allocates nothing.
    Equality(Cow<'a, Value>),
    Exists,
    General,
}

fn classify(pred: &Predicate) -> Bucket<'_> {
    match pred.op {
        CmpOp::Exists => Bucket::Exists,
        CmpOp::Eq => match &pred.operand {
            Value::Float(f) if f.is_nan() => Bucket::General,
            Value::Int(_) | Value::UInt(_) | Value::Float(_) | Value::Str(_) | Value::Bool(_) => {
                Bucket::Equality(canonical(&pred.operand))
            }
            _ => Bucket::General,
        },
        CmpOp::Lt | CmpOp::Le | CmpOp::Gt | CmpOp::Ge => match exact_f64(&pred.operand) {
            Some(t) if !t.is_nan() => Bucket::Threshold(pred.op, t),
            _ => Bucket::General,
        },
        _ => Bucket::General,
    }
}

/// Canonicalizes numeric values so that `Int(1)`, `UInt(1)` and `Float(1.0)`
/// share one hash-map key, matching [`Value::loose_eq`]. Every other value
/// is its own key and is borrowed, so probing a string allocates nothing.
fn canonical(value: &Value) -> Cow<'_, Value> {
    match value {
        Value::UInt(u) if *u <= i64::MAX as u64 => Cow::Owned(Value::Int(*u as i64)),
        Value::Float(f)
            if f.fract() == 0.0
                && *f >= i64::MIN as f64
                && *f < i64::MAX as f64
                && (*f as i64) as f64 == *f =>
        {
            Cow::Owned(Value::Int(*f as i64))
        }
        other => Cow::Borrowed(other),
    }
}

/// The sorted, deduplicated global predicate ids.
fn sorted_distinct(ids: impl IntoIterator<Item = usize>) -> Vec<usize> {
    let mut ids: Vec<usize> = ids.into_iter().collect();
    ids.sort_unstable();
    ids.dedup();
    ids
}

/// Returns the value as `f64` only if the conversion is exact, so binary
/// search over thresholds never changes comparison outcomes.
fn exact_f64(value: &Value) -> Option<f64> {
    match value {
        Value::Int(i) => {
            let f = *i as f64;
            (f as i128 == *i as i128).then_some(f)
        }
        Value::UInt(u) => {
            let f = *u as f64;
            (f >= 0.0 && f as u128 == *u as u128).then_some(f)
        }
        Value::Float(f) => Some(*f),
        _ => None,
    }
}

/// Returns the leaf indices if `node` is a pure conjunction (possibly a bare
/// predicate or `True`), else `None`.
fn conjunction_leaves(node: &EvalNode) -> Option<Vec<usize>> {
    fn collect(node: &EvalNode, out: &mut Vec<usize>) -> bool {
        match node {
            EvalNode::True => true,
            EvalNode::Pred(i) => {
                out.push(*i);
                true
            }
            EvalNode::And(children) => children.iter().all(|c| collect(c, out)),
            _ => false,
        }
    }
    let mut leaves = Vec::new();
    collect(node, &mut leaves).then_some(leaves)
}

impl Inspect for FilterIndex {
    fn inspect(&self) -> String {
        let stats = self.stats();
        let mut report = ReportBuilder::new();
        report.section("filter-index");
        report.line(format!(
            "filters={} predicates={} unique={} paths={} shared_nodes={} counting={} residual={} indexed_preds={} residual_preds={}",
            stats.filters,
            stats.total_predicates,
            stats.unique_predicates,
            stats.paths,
            stats.shared_nodes,
            stats.counting_filters,
            stats.residual_filters,
            stats.indexed_preds,
            stats.residual_preds
        ));
        report.end();
        report.finish()
    }
}
