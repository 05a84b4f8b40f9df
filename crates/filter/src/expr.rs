//! Reified filters: predicates, evaluation trees and invocation trees.
//!
//! A [`RemoteFilter`] is the serializable output of the "precompiler" path
//! (paper §4.4.3): a flat list of [`Predicate`] leaves (the conditions at the
//! leaves of the invocation tree) plus an [`EvalNode`] tree (the evaluation
//! tree combining the leaves). A [`LocalFilter`] is the fallback for filters
//! that do not satisfy the mobility restrictions: an opaque closure applied
//! at the subscriber (paper §3.3.4).

use std::fmt;
use std::sync::Arc;

use serde::{Deserialize, Serialize};

use crate::{PropPath, PropertySource, Value};

/// Comparison / test operator of a predicate leaf.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum CmpOp {
    /// Property equals operand (numeric coercion, like Java `equals`).
    Eq,
    /// Property differs from operand.
    Ne,
    /// Property `<` operand.
    Lt,
    /// Property `<=` operand.
    Le,
    /// Property `>` operand.
    Gt,
    /// Property `>=` operand.
    Ge,
    /// String property contains the operand substring (the paper's
    /// `indexOf(..) != -1` idiom), or list property contains the operand.
    Contains,
    /// String property starts with the operand.
    StartsWith,
    /// String property ends with the operand.
    EndsWith,
    /// Property is present (operand ignored).
    Exists,
}

impl CmpOp {
    /// Applies the operator to a property value and operand.
    pub fn apply(self, property: &Value, operand: &Value) -> bool {
        use std::cmp::Ordering::*;
        match self {
            CmpOp::Eq => property.loose_eq(operand),
            CmpOp::Ne => !property.loose_eq(operand),
            CmpOp::Lt => property.compare(operand) == Some(Less),
            CmpOp::Le => matches!(property.compare(operand), Some(Less | Equal)),
            CmpOp::Gt => property.compare(operand) == Some(Greater),
            CmpOp::Ge => matches!(property.compare(operand), Some(Greater | Equal)),
            CmpOp::Contains => match (property, operand) {
                (Value::Str(haystack), Value::Str(needle)) => haystack.contains(needle.as_str()),
                (Value::List(items), needle) => items.iter().any(|v| v.loose_eq(needle)),
                _ => false,
            },
            CmpOp::StartsWith => match (property, operand) {
                (Value::Str(s), Value::Str(prefix)) => s.starts_with(prefix.as_str()),
                _ => false,
            },
            CmpOp::EndsWith => match (property, operand) {
                (Value::Str(s), Value::Str(suffix)) => s.ends_with(suffix.as_str()),
                _ => false,
            },
            CmpOp::Exists => true,
        }
    }

    /// Symbolic rendering used by `Display`.
    pub fn symbol(self) -> &'static str {
        match self {
            CmpOp::Eq => "==",
            CmpOp::Ne => "!=",
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
            CmpOp::Contains => "contains",
            CmpOp::StartsWith => "starts_with",
            CmpOp::EndsWith => "ends_with",
            CmpOp::Exists => "exists",
        }
    }
}

/// A leaf condition: `property(path) OP operand`.
///
/// A missing property makes every predicate false except `Exists`, which is
/// true exactly when the property is present.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Predicate {
    /// Accessor chain to the tested value.
    pub path: PropPath,
    /// Test operator.
    pub op: CmpOp,
    /// Constant operand (per §3.3.4 only constants and final outer variables
    /// of primitive/string type may appear — both are constants by the time
    /// the filter is reified).
    pub operand: Value,
}

impl Predicate {
    /// Creates a predicate leaf.
    pub fn new(path: impl Into<PropPath>, op: CmpOp, operand: impl Into<Value>) -> Self {
        Predicate {
            path: path.into(),
            op,
            operand: operand.into(),
        }
    }

    /// Evaluates the predicate against a property source.
    pub fn eval(&self, source: &dyn PropertySource) -> bool {
        match source.property(&self.path) {
            Some(value) => self.op.apply(&value, &self.operand),
            None => false,
        }
    }
}

impl fmt::Display for Predicate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.op == CmpOp::Exists {
            write!(f, "{} exists", self.path)
        } else {
            write!(f, "{} {} {}", self.path, self.op.symbol(), self.operand)
        }
    }
}

/// A node of the evaluation tree: logical combinations of predicate leaves.
///
/// Leaves are indices into the owning [`RemoteFilter`]'s predicate list —
/// mirroring the paper's "leaves are references to the leaves of the former
/// \[invocation\] tree".
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum EvalNode {
    /// Constant true (the paper's `return true;` subscribe-to-all filter).
    True,
    /// Constant false.
    False,
    /// Reference to predicate `i`.
    Pred(usize),
    /// Conjunction of sub-nodes.
    And(Vec<EvalNode>),
    /// Disjunction of sub-nodes.
    Or(Vec<EvalNode>),
    /// Negation.
    Not(Box<EvalNode>),
}

impl EvalNode {
    /// Evaluates the tree, asking `leaf` for a predicate's truth only when
    /// the short-circuiting walk reaches it.
    pub(crate) fn eval(&self, leaf: &mut impl FnMut(usize) -> bool) -> bool {
        match self {
            EvalNode::True => true,
            EvalNode::False => false,
            EvalNode::Pred(i) => leaf(*i),
            EvalNode::And(children) => children.iter().all(|c| c.eval(leaf)),
            EvalNode::Or(children) => children.iter().any(|c| c.eval(leaf)),
            EvalNode::Not(child) => !child.eval(leaf),
        }
    }

    fn visit_preds(&self, f: &mut impl FnMut(usize)) {
        match self {
            EvalNode::Pred(i) => f(*i),
            EvalNode::And(children) | EvalNode::Or(children) => {
                for c in children {
                    c.visit_preds(f);
                }
            }
            EvalNode::Not(child) => child.visit_preds(f),
            EvalNode::True | EvalNode::False => {}
        }
    }

    fn remap(&mut self, map: &[usize]) {
        match self {
            EvalNode::Pred(i) => *i = map[*i],
            EvalNode::And(children) | EvalNode::Or(children) => {
                for c in children {
                    c.remap(map);
                }
            }
            EvalNode::Not(child) => child.remap(map),
            EvalNode::True | EvalNode::False => {}
        }
    }
}

/// A reified, serializable, migratable filter (paper `RemoteFilter`).
///
/// Construct with [`RemoteFilter::pass_all`], the typed DSL in
/// [`typed`](crate::typed), or the [`rfilter!`](crate::rfilter) macro.
///
/// ```
/// use psc_filter::{CmpOp, Predicate, RemoteFilter, Value};
///
/// let f = RemoteFilter::conjunction(vec![
///     Predicate::new("price", CmpOp::Lt, 100.0),
///     Predicate::new("company", CmpOp::Contains, "Telco"),
/// ]);
/// let quote = Value::record([
///     ("company", Value::from("Telco Mobiles")),
///     ("price", Value::from(80.0)),
/// ]);
/// assert!(f.matches(&quote));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct RemoteFilter {
    predicates: Vec<Predicate>,
    eval: EvalNode,
}

/// Most predicate leaves a filter decoded by [`RemoteFilter::from_wire`] may
/// carry.
pub const MAX_WIRE_PREDICATES: usize = 256;

/// Most evaluation-tree nodes a filter decoded by
/// [`RemoteFilter::from_wire`] may carry.
pub const MAX_WIRE_NODES: usize = 1024;

/// Why [`RemoteFilter::from_wire`] refused a filter.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InvalidFilter {
    /// The bytes are not an encoded filter (this includes trees nested
    /// deeper than the decoder's `MAX_DEPTH`).
    Codec(psc_codec::CodecError),
    /// More predicates than [`MAX_WIRE_PREDICATES`] or more tree nodes than
    /// [`MAX_WIRE_NODES`].
    TooLarge,
    /// The evaluation tree references a predicate the filter does not have.
    PredOutOfRange {
        /// The referenced predicate index.
        index: usize,
        /// How many predicates the filter carries.
        predicates: usize,
    },
}

impl fmt::Display for InvalidFilter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InvalidFilter::Codec(err) => write!(f, "filter does not decode: {err}"),
            InvalidFilter::TooLarge => write!(
                f,
                "filter exceeds {MAX_WIRE_PREDICATES} predicates or {MAX_WIRE_NODES} tree nodes"
            ),
            InvalidFilter::PredOutOfRange { index, predicates } => write!(
                f,
                "evaluation tree references predicate {index} but only {predicates} exist"
            ),
        }
    }
}

impl std::error::Error for InvalidFilter {}

/// [`RemoteFilter::validate`]'s walk of a tree over `predicates` leaves:
/// every `Pred(i)` in range, at most [`MAX_WIRE_NODES`] nodes. An explicit
/// stack makes it safe on any nesting.
pub(crate) fn check_tree(eval: &EvalNode, predicates: usize) -> Result<(), InvalidFilter> {
    let mut nodes = 1usize;
    let mut pending = vec![eval];
    while let Some(node) = pending.pop() {
        let children: &[EvalNode] = match node {
            EvalNode::True | EvalNode::False => &[],
            EvalNode::Pred(index) => {
                if *index >= predicates {
                    return Err(InvalidFilter::PredOutOfRange {
                        index: *index,
                        predicates,
                    });
                }
                &[]
            }
            EvalNode::And(children) | EvalNode::Or(children) => children,
            EvalNode::Not(child) => std::slice::from_ref(&**child),
        };
        nodes += children.len();
        if nodes > MAX_WIRE_NODES {
            return Err(InvalidFilter::TooLarge);
        }
        pending.extend(children);
    }
    Ok(())
}

impl RemoteFilter {
    /// Decodes a filter that arrived from a peer or a disk. Derived
    /// `Deserialize` builds whatever the bytes describe, bypassing
    /// [`RemoteFilter::from_parts`]; this is the checked entrance: nesting
    /// is bounded by the decoder, size and predicate references by
    /// [`RemoteFilter::validate`]. [`WireFilter::parse`](crate::WireFilter)
    /// accepts the same bytes without decoding the predicates.
    ///
    /// # Errors
    ///
    /// [`InvalidFilter`] when the bytes do not decode or the filter fails
    /// validation.
    pub fn from_wire(bytes: &[u8]) -> Result<RemoteFilter, InvalidFilter> {
        let filter: RemoteFilter = psc_codec::from_bytes(bytes).map_err(InvalidFilter::Codec)?;
        filter.validate()?;
        Ok(filter)
    }

    /// Checks what every evaluator assumes: each `Pred(i)` names an
    /// existing predicate, and the filter stays within
    /// [`MAX_WIRE_PREDICATES`] / [`MAX_WIRE_NODES`]. Walks the tree with an
    /// explicit stack, so it is safe on any nesting.
    ///
    /// # Errors
    ///
    /// The first [`InvalidFilter`] found.
    pub fn validate(&self) -> Result<(), InvalidFilter> {
        if self.predicates.len() > MAX_WIRE_PREDICATES {
            return Err(InvalidFilter::TooLarge);
        }
        check_tree(&self.eval, self.predicates.len())
    }

    /// Filter that accepts every obvent of the subscribed type.
    pub fn pass_all() -> Self {
        RemoteFilter {
            predicates: Vec::new(),
            eval: EvalNode::True,
        }
    }

    /// Filter that is the conjunction of `predicates`.
    pub fn conjunction(predicates: Vec<Predicate>) -> Self {
        let eval = EvalNode::And((0..predicates.len()).map(EvalNode::Pred).collect());
        RemoteFilter { predicates, eval }
    }

    /// Filter with an explicit evaluation tree over `predicates`.
    ///
    /// # Panics
    ///
    /// Panics if the tree references a predicate index out of bounds —
    /// such a filter would be structurally corrupt.
    pub fn from_parts(predicates: Vec<Predicate>, eval: EvalNode) -> Self {
        let mut max = None::<usize>;
        eval.visit_preds(&mut |i| max = Some(max.map_or(i, |m| m.max(i))));
        if let Some(max) = max {
            assert!(
                max < predicates.len(),
                "evaluation tree references predicate {max} but only {} exist",
                predicates.len()
            );
        }
        RemoteFilter { predicates, eval }
    }

    /// A filter from parts already checked (or known to be whole).
    pub(crate) fn from_parts_unchecked(predicates: Vec<Predicate>, eval: EvalNode) -> Self {
        RemoteFilter { predicates, eval }
    }

    /// The predicate leaves and the evaluation tree, moved out.
    pub(crate) fn into_parts(self) -> (Vec<Predicate>, EvalNode) {
        (self.predicates, self.eval)
    }

    /// The predicate leaves (the invocation-tree leaves).
    pub fn predicates(&self) -> &[Predicate] {
        &self.predicates
    }

    /// The evaluation tree.
    pub fn eval_tree(&self) -> &EvalNode {
        &self.eval
    }

    /// True if the filter accepts everything regardless of content.
    pub fn is_pass_all(&self) -> bool {
        matches!(self.eval, EvalNode::True)
    }

    /// Evaluates the filter against a property source. The walk
    /// short-circuits, so a predicate whose truth cannot change the outcome
    /// is never evaluated and its property never fetched.
    pub fn matches(&self, source: &dyn PropertySource) -> bool {
        self.eval
            .eval(&mut |i| self.predicates.get(i).is_some_and(|p| p.eval(source)))
    }

    /// Combines two filters into their conjunction (both must pass).
    pub fn and(self, other: RemoteFilter) -> RemoteFilter {
        let RemoteFilter {
            mut predicates,
            eval,
        } = self;
        let offset = predicates.len();
        let mut other_eval = other.eval;
        let map: Vec<usize> = (0..other.predicates.len()).map(|i| i + offset).collect();
        other_eval.remap(&map);
        predicates.extend(other.predicates);
        RemoteFilter {
            predicates,
            eval: EvalNode::And(vec![eval, other_eval]),
        }
    }

    /// Combines two filters into their disjunction (either may pass).
    pub fn or(self, other: RemoteFilter) -> RemoteFilter {
        let RemoteFilter {
            mut predicates,
            eval,
        } = self;
        let offset = predicates.len();
        let mut other_eval = other.eval;
        let map: Vec<usize> = (0..other.predicates.len()).map(|i| i + offset).collect();
        other_eval.remap(&map);
        predicates.extend(other.predicates);
        RemoteFilter {
            predicates,
            eval: EvalNode::Or(vec![eval, other_eval]),
        }
    }

    /// Negates the filter.
    pub fn negate(self) -> RemoteFilter {
        RemoteFilter {
            predicates: self.predicates,
            eval: EvalNode::Not(Box::new(self.eval)),
        }
    }

    /// Builds the paper-shaped [`InvocationTree`] view of this filter.
    pub fn invocation_tree(&self) -> InvocationTree {
        InvocationTree::from_filter(self)
    }
}

impl fmt::Display for RemoteFilter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fn rec(
            node: &EvalNode,
            preds: &[Predicate],
            f: &mut fmt::Formatter<'_>,
        ) -> fmt::Result {
            match node {
                EvalNode::True => write!(f, "true"),
                EvalNode::False => write!(f, "false"),
                EvalNode::Pred(i) => match preds.get(*i) {
                    Some(p) => write!(f, "{p}"),
                    None => write!(f, "<pred {i}>"),
                },
                EvalNode::And(children) => {
                    write!(f, "(")?;
                    for (i, c) in children.iter().enumerate() {
                        if i > 0 {
                            write!(f, " && ")?;
                        }
                        rec(c, preds, f)?;
                    }
                    write!(f, ")")
                }
                EvalNode::Or(children) => {
                    write!(f, "(")?;
                    for (i, c) in children.iter().enumerate() {
                        if i > 0 {
                            write!(f, " || ")?;
                        }
                        rec(c, preds, f)?;
                    }
                    write!(f, ")")
                }
                EvalNode::Not(child) => {
                    write!(f, "!")?;
                    rec(child, preds, f)
                }
            }
        }
        rec(&self.eval, &self.predicates, f)
    }
}

/// The invocation tree of a filter (paper §4.4.3): "the root represents the
/// filtered obvent, and every node represents a method invocation. A leaf
/// node stands for the outcome of a condition on the value obtained by
/// applying the methods of the nodes on the path down to that leaf".
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InvocationTree {
    /// Root node: the filtered obvent itself.
    pub root: InvocationNode,
}

/// A node of the invocation tree: one accessor invocation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InvocationNode {
    /// Accessor (property) name; empty at the root.
    pub accessor: String,
    /// Nested invocations on the value this node produces.
    pub children: Vec<InvocationNode>,
    /// Conditions applied to this node's value: indices into the filter's
    /// predicate list.
    pub conditions: Vec<usize>,
}

impl InvocationTree {
    /// Builds the tree by merging the accessor chains of all predicates, so
    /// shared prefixes (e.g. `market.company` and `market.symbol`) become a
    /// shared node — the structural property factoring exploits.
    pub fn from_filter(filter: &RemoteFilter) -> Self {
        let mut root = InvocationNode {
            accessor: String::new(),
            children: Vec::new(),
            conditions: Vec::new(),
        };
        for (idx, pred) in filter.predicates().iter().enumerate() {
            let mut node = &mut root;
            for segment in pred.path.segments() {
                let pos = match node.children.iter().position(|c| &c.accessor == segment) {
                    Some(pos) => pos,
                    None => {
                        node.children.push(InvocationNode {
                            accessor: segment.clone(),
                            children: Vec::new(),
                            conditions: Vec::new(),
                        });
                        node.children.len() - 1
                    }
                };
                node = &mut node.children[pos];
            }
            node.conditions.push(idx);
        }
        InvocationTree { root }
    }

    /// Total number of invocation nodes (excluding the root) — i.e. how many
    /// accessor calls a single evaluation performs after prefix sharing.
    pub fn invocation_count(&self) -> usize {
        fn count(node: &InvocationNode) -> usize {
            node.children.len() + node.children.iter().map(count).sum::<usize>()
        }
        count(&self.root)
    }
}

/// An opaque subscriber-side filter: the fallback for closures that violate
/// the mobility restrictions of §3.3.4 ("the filter is applied locally").
pub struct LocalFilter<T: ?Sized> {
    func: Arc<dyn Fn(&T) -> bool + Send + Sync>,
}

impl<T: ?Sized> Clone for LocalFilter<T> {
    fn clone(&self) -> Self {
        LocalFilter {
            func: Arc::clone(&self.func),
        }
    }
}

impl<T: ?Sized> LocalFilter<T> {
    /// Wraps an arbitrary closure as a local filter.
    pub fn new(func: impl Fn(&T) -> bool + Send + Sync + 'static) -> Self {
        LocalFilter {
            func: Arc::new(func),
        }
    }

    /// Applies the filter.
    pub fn eval(&self, value: &T) -> bool {
        (self.func)(value)
    }
}

impl<T: ?Sized> fmt::Debug for LocalFilter<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("LocalFilter(<opaque closure>)")
    }
}
