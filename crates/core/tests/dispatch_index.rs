//! Subscriber-side dispatch goes through the domain's `FilterIndex`; these
//! tests hold it to the scan it replaced. The scan — every subscription,
//! `is_subtype`, `RemoteFilter::matches` — survives here as the reference.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

use proptest::prelude::*;
use psc_filter::{rfilter, CmpOp, Predicate, RemoteFilter, Value};
use psc_obvent::{declare_obvent_interface, KindId, Obvent, WireObvent};
use pubsub_core::{
    obvent, DeliverySink, Dissemination, Domain, ExecMode, FilterSpec, PublishError, SubId,
    SubscribeError, Subscription, SubscriptionRecord, UnsubscribeError,
};

declare_obvent_interface! {
    /// Implemented by one class of each branch, so an interface bucket
    /// collects obvents of unrelated classes.
    pub interface Audited;
}

obvent! {
    pub class Reading { value: i64, label: String }
}

obvent! {
    pub class Alarm extends Reading implements [Audited] { level: u32 }
}

obvent! {
    pub class Login implements [Audited] { value: i64 }
}

type Log = Arc<Mutex<Vec<SubId>>>;

/// The declared kind of a subscription.
#[derive(Debug, Clone, Copy)]
enum Declared {
    /// Superclass: reached by `Reading` and `Alarm`.
    Reading,
    /// Class: reached by `Alarm` only.
    Alarm,
    /// Interface: reached by `Alarm` and `Login`.
    Audited,
    /// Class of the other branch.
    Login,
}

impl Declared {
    fn kind(self) -> KindId {
        match self {
            Declared::Reading => Reading::kind_id(),
            Declared::Alarm => Alarm::kind_id(),
            Declared::Audited => Audited::kind().id(),
            Declared::Login => Login::kind_id(),
        }
    }
}

/// Creates an inactive subscription whose handler logs its own id.
fn subscribe(
    domain: &Domain,
    declared: Declared,
    filter: Option<RemoteFilter>,
    log: &Log,
) -> Subscription {
    fn spec<O>(filter: Option<RemoteFilter>) -> FilterSpec<O> {
        filter.map_or_else(FilterSpec::accept_all, FilterSpec::remote)
    }
    // The handler learns its id after `subscribe` returns it.
    let me: Arc<Mutex<Option<SubId>>> = Arc::new(Mutex::new(None));
    let record = {
        let (me, log) = (Arc::clone(&me), Arc::clone(log));
        move || {
            let id = me.lock().unwrap().expect("id set before activation");
            log.lock().unwrap().push(id);
        }
    };
    let sub = match declared {
        Declared::Reading => domain.subscribe(spec(filter), move |_: Reading| record()),
        Declared::Alarm => domain.subscribe(spec(filter), move |_: Alarm| record()),
        Declared::Login => domain.subscribe(spec(filter), move |_: Login| record()),
        Declared::Audited => {
            domain.subscribe_view(Audited::kind(), spec(filter), move |_| record())
        }
    };
    *me.lock().unwrap() = Some(sub.id());
    sub
}

/// A fabric that refuses activations on demand and otherwise does nothing;
/// obvents enter through the [`DeliverySink`].
struct Flaky {
    refuse: Arc<AtomicBool>,
}

impl Dissemination for Flaky {
    fn publish(&self, _wire: WireObvent) -> Result<(), PublishError> {
        Ok(())
    }

    fn subscribe(&self, _record: SubscriptionRecord) -> Result<(), SubscribeError> {
        if self.refuse.load(Ordering::SeqCst) {
            Err(SubscribeError::Backend("refused".into()))
        } else {
            Ok(())
        }
    }

    fn unsubscribe(&self, _id: SubId) -> Result<(), UnsubscribeError> {
        Ok(())
    }
}

fn flaky_domain() -> (Domain, DeliverySink, Arc<AtomicBool>) {
    let refuse = Arc::new(AtomicBool::new(false));
    let backend_refuse = Arc::clone(&refuse);
    let domain = Domain::with_backend(ExecMode::Inline, move |_sink| {
        Box::new(Flaky {
            refuse: backend_refuse,
        })
    });
    let sink = domain.sink();
    (domain, sink, refuse)
}

/// What the reference knows about one subscription.
struct ModelSub {
    id: SubId,
    kind: KindId,
    filter: Option<RemoteFilter>,
    active: bool,
    /// False once `close` forgot it.
    known: bool,
    /// `None` once dropped.
    handle: Option<Subscription>,
}

/// The parent commit's `DomainInner::deliver`, kept as the oracle: walk every
/// subscription, test kind conformance against the registry, evaluate each
/// remote filter on its own.
fn scan(model: &[ModelSub], wire: &WireObvent) -> Vec<SubId> {
    let mut view = None;
    let mut matched = Vec::new();
    for sub in model {
        if !sub.active || sub.handle.is_none() {
            continue;
        }
        if !psc_obvent::registry::is_subtype(wire.kind_id(), sub.kind) {
            continue;
        }
        if let Some(filter) = &sub.filter {
            match view.get_or_insert_with(|| wire.view().ok()) {
                Some(view) if filter.matches(view) => {}
                _ => continue,
            }
        }
        matched.push(sub.id);
    }
    matched.sort();
    matched
}

#[derive(Debug, Clone)]
enum Op {
    Subscribe(Declared, Option<RemoteFilter>),
    Activate(usize),
    /// Activation the fabric refuses: must roll back.
    RefusedActivate(usize),
    Deactivate(usize),
    Drop(usize),
    Close,
    Deliver(WireObvent),
}

fn pred(path: &str, op: CmpOp, operand: impl Into<Value>) -> Predicate {
    Predicate::new(path, op, operand)
}

fn single(path: &str, op: CmpOp, operand: impl Into<Value>) -> RemoteFilter {
    RemoteFilter::conjunction(vec![pred(path, op, operand)])
}

/// Every plan the index has: none, unconditional, counting conjunctions
/// (gated when an equality is present), counted and residual trees.
fn arb_filter() -> impl Strategy<Value = Option<RemoteFilter>> {
    let label = || prop_oneof![Just("a"), Just("b")];
    (0u32..14, label(), -2i64..6, 0i64..6, 0u32..3).prop_map(|(shape, l, lo, width, level)| {
        Some(match shape {
            0 | 1 => return None,
            2 => RemoteFilter::pass_all(),
            // Conjunctive.
            3..=5 => RemoteFilter::conjunction(vec![
                pred("value", CmpOp::Ge, lo),
                pred("value", CmpOp::Lt, lo + width),
            ]),
            6 | 7 => RemoteFilter::conjunction(vec![
                pred("label", CmpOp::Eq, l),
                pred("value", CmpOp::Lt, lo),
            ]),
            // General tree.
            8 | 9 => single("label", CmpOp::Eq, l).or(single("value", CmpOp::Gt, lo)),
            // Negation-dominated: satisfiable with no true predicate, so
            // evaluated on every event.
            10 | 11 => single("value", CmpOp::Lt, lo).negate(),
            12 => RemoteFilter::conjunction(vec![
                pred("label", CmpOp::Eq, l),
                pred("value", CmpOp::Lt, lo),
            ])
            .negate(),
            // Mentions a property only one class has.
            _ => single("level", CmpOp::Ge, level),
        })
    })
}

fn arb_wire() -> impl Strategy<Value = WireObvent> {
    let label = || prop_oneof![Just("a"), Just("b"), Just("c")].prop_map(String::from);
    prop_oneof![
        (-3i64..7, label()).prop_map(|(v, l)| WireObvent::encode(&Reading::new(v, l)).unwrap()),
        (-3i64..7, label(), 0u32..3).prop_map(|(v, l, level)| {
            WireObvent::encode(&Alarm::new(Reading::new(v, l), level)).unwrap()
        }),
        (-3i64..7).prop_map(|v| WireObvent::encode(&Login::new(v)).unwrap()),
    ]
}

fn arb_op() -> impl Strategy<Value = Op> {
    let declared = prop_oneof![
        Just(Declared::Reading),
        Just(Declared::Alarm),
        Just(Declared::Audited),
        Just(Declared::Login),
    ];
    (0u32..19, declared, arb_filter(), 0usize..64, arb_wire()).prop_map(
        |(op, declared, filter, i, wire)| match op {
            0..=3 => Op::Subscribe(declared, filter),
            4..=8 => Op::Activate(i),
            9 => Op::RefusedActivate(i),
            10 | 11 => Op::Deactivate(i),
            12 => Op::Drop(i),
            _ => Op::Deliver(wire),
        },
    )
}

/// Mostly open domains; three sequences in ten close theirs part-way.
fn arb_ops() -> impl Strategy<Value = Vec<Op>> {
    (proptest::collection::vec(arb_op(), 1..60), 0usize..200).prop_map(|(mut ops, close_at)| {
        if close_at < 60 {
            ops.insert(close_at.min(ops.len()), Op::Close);
        }
        ops
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Indexed ≡ scan: after any interleaving of subscription lifecycle
    /// operations, every obvent reaches exactly the subscriptions the
    /// reference scan names, in ascending id order, and the index audits
    /// clean.
    #[test]
    fn prop_indexed_dispatch_equals_the_scan(ops in arb_ops()) {
        // Register the kinds (a kind unknown here reaches nobody).
        let _ = (Reading::kind(), Alarm::kind(), Login::kind(), Audited::kind());
        let (domain, sink, refuse) = flaky_domain();
        let log: Log = Arc::default();
        let mut model: Vec<ModelSub> = Vec::new();
        let mut closed = false;
        for op in ops {
            match op {
                Op::Subscribe(declared, filter) => {
                    let handle = subscribe(&domain, declared, filter.clone(), &log);
                    model.push(ModelSub {
                        id: handle.id(),
                        kind: declared.kind(),
                        filter,
                        active: false,
                        known: true,
                        handle: Some(handle),
                    });
                }
                Op::Activate(i) | Op::RefusedActivate(i) if !model.is_empty() => {
                    let refused = matches!(op, Op::RefusedActivate(_));
                    let n = model.len();
                    let sub = &mut model[i % n];
                    let Some(handle) = &sub.handle else { continue };
                    refuse.store(refused, Ordering::SeqCst);
                    let result = handle.activate();
                    refuse.store(false, Ordering::SeqCst);
                    if closed {
                        prop_assert_eq!(result, Err(SubscribeError::DomainClosed));
                    } else if sub.active {
                        prop_assert_eq!(result, Err(SubscribeError::AlreadyActive));
                    } else if refused {
                        prop_assert_eq!(result, Err(SubscribeError::Backend("refused".into())));
                    } else {
                        prop_assert_eq!(result, Ok(()));
                        sub.active = true;
                    }
                    prop_assert_eq!(handle.is_active(), sub.active);
                }
                Op::Deactivate(i) if !model.is_empty() => {
                    let n = model.len();
                    let sub = &mut model[i % n];
                    let Some(handle) = &sub.handle else { continue };
                    let result = handle.deactivate();
                    if sub.active {
                        prop_assert_eq!(result, Ok(()));
                    } else if sub.known {
                        prop_assert_eq!(result, Err(UnsubscribeError::NotActive));
                    } else {
                        prop_assert_eq!(result, Err(UnsubscribeError::DomainClosed));
                    }
                    sub.active = false;
                }
                Op::Drop(i) if !model.is_empty() => {
                    let n = model.len();
                    model[i % n].handle = None;
                }
                Op::Close => {
                    domain.close();
                    closed = true;
                    // Closing forgets every subscription made so far; ones
                    // made afterwards exist but can never activate.
                    for sub in &mut model {
                        sub.active = false;
                        sub.known = false;
                    }
                }
                Op::Deliver(wire) => {
                    let expected = scan(&model, &wire);
                    prop_assert_eq!(sink.matching(&wire), expected.clone());
                    log.lock().unwrap().clear();
                    let delivered = sink.deliver(&wire);
                    prop_assert_eq!(delivered, expected.len());
                    prop_assert_eq!(std::mem::take(&mut *log.lock().unwrap()), expected);
                }
                _ => {}
            }
        }
        let active = model.iter().filter(|s| s.active && s.handle.is_some()).count();
        prop_assert_eq!(domain.active_subscriptions(), active);
        let probe = Value::record([("value", Value::Int(1)), ("label", Value::from("a"))]);
        prop_assert_eq!(domain.index_findings(&probe), Vec::<String>::new());
    }
}

#[test]
fn deactivate_after_close_reports_a_closed_domain() {
    let (domain, sink, _refuse) = flaky_domain();
    let log: Log = Arc::default();
    let sub = subscribe(&domain, Declared::Reading, None, &log);
    sub.activate().unwrap();
    domain.close();
    assert_eq!(sub.deactivate(), Err(UnsubscribeError::DomainClosed));
    // A subscription made after the close can never start delivering.
    let late = subscribe(&domain, Declared::Reading, None, &log);
    assert_eq!(late.activate(), Err(SubscribeError::DomainClosed));
    assert!(!late.is_active());
    let wire = WireObvent::encode(&Reading::new(1, "a".into())).unwrap();
    assert_eq!(sink.deliver(&wire), 0);
    assert_eq!(domain.active_subscriptions(), 0);
}

/// A kind this address space never registered conforms to nothing — not
/// even to a subscription on the root of every hierarchy.
#[test]
fn an_obvent_of_an_unknown_kind_reaches_nobody() {
    let domain = Domain::in_process();
    let seen = Arc::new(AtomicBool::new(false));
    let flag = Arc::clone(&seen);
    let root = domain.subscribe_view(
        psc_obvent::builtin::obvent_kind(),
        FilterSpec::accept_all(),
        move |_| flag.store(true, Ordering::SeqCst),
    );
    root.activate().unwrap();
    let known = WireObvent::encode(&Login::new(1)).unwrap();
    let mut bytes = psc_codec::to_bytes(&known).unwrap();
    // The envelope starts with the kind id; any other id is unregistered.
    let unknown: WireObvent = {
        let id = KindId::from_name("never.Registered").as_u64();
        let encoded_id = psc_codec::to_bytes(&id).unwrap();
        let old_id = psc_codec::to_bytes(&known.kind_id().as_u64()).unwrap();
        assert!(bytes.starts_with(&old_id), "envelope layout changed");
        bytes.splice(..old_id.len(), encoded_id);
        psc_codec::from_bytes(&bytes).unwrap()
    };
    assert!(psc_obvent::registry::lookup(unknown.kind_id()).is_none());
    assert_eq!(domain.sink().deliver(&unknown), 0);
    assert!(!seen.load(Ordering::SeqCst));
    assert_eq!(domain.sink().deliver(&known), 1);
    assert!(seen.load(Ordering::SeqCst));
}

/// Inline execution lets a handler change subscriptions while its own
/// delivery is in progress: no lock may be held around it, and the change
/// must affect only later obvents.
#[test]
fn a_handler_may_deactivate_itself_and_activate_another_mid_delivery() {
    let domain = Domain::in_process();
    let log: Log = Arc::default();
    let slots: Arc<Mutex<Vec<Subscription>>> = Arc::default();

    let first = {
        let (slots, log) = (Arc::clone(&slots), Arc::clone(&log));
        domain.subscribe(
            FilterSpec::remote(rfilter!(value > 0)),
            move |_: Reading| {
                let slots = slots.lock().unwrap();
                log.lock().unwrap().push(slots[0].id());
                slots[0].deactivate().unwrap();
                slots[1].activate().unwrap();
            },
        )
    };
    let second = subscribe(&domain, Declared::Reading, Some(rfilter!(value > 0)), &log);
    let third = subscribe(&domain, Declared::Reading, None, &log);
    let ids = [first.id(), second.id(), third.id()];
    first.activate().unwrap();
    third.activate().unwrap();
    *slots.lock().unwrap() = vec![first, second, third];

    // `second` becomes active while this obvent is being dispatched: too
    // late for it. `third` runs after the handler that swapped them.
    domain.publish(Reading::new(1, "x".into())).unwrap();
    assert_eq!(*log.lock().unwrap(), vec![ids[0], ids[2]]);
    log.lock().unwrap().clear();

    domain.publish(Reading::new(2, "x".into())).unwrap();
    assert_eq!(*log.lock().unwrap(), vec![ids[1], ids[2]]);
    assert!(domain
        .index_findings(&Value::record([("value", Value::Int(1))]))
        .is_empty());
}

/// Handlers of one obvent run in ascending `SubId` order, whatever order
/// the subscriptions were activated in and whichever bucket holds them —
/// in every process (the table is a `HashMap` under `RandomState`; fifty
/// fresh domains see fifty different seeds).
#[test]
fn handlers_run_in_ascending_id_order_in_every_domain() {
    for round in 0..50usize {
        let domain = Domain::in_process();
        let log: Log = Arc::default();
        let shapes = [
            (Declared::Audited, None),
            (Declared::Reading, Some(rfilter!(value > 0))),
            (Declared::Alarm, None),
            (Declared::Reading, None),
            (
                Declared::Alarm,
                Some(rfilter!(label == "hot" && value < 50)),
            ),
            (Declared::Audited, Some(rfilter!(value < 0).negate())),
            (Declared::Reading, Some(RemoteFilter::pass_all())),
            (
                Declared::Alarm,
                Some(rfilter!(level >= 1).or(rfilter!(value > 100))),
            ),
        ];
        let mut subs: Vec<Subscription> = shapes
            .iter()
            .cycle()
            .take(24)
            .map(|(declared, filter)| subscribe(&domain, *declared, filter.clone(), &log))
            .collect();
        let mut expected: Vec<SubId> = subs.iter().map(Subscription::id).collect();
        // Activate in a different rotation each round, back to front.
        subs.rotate_left(round % 24);
        for sub in subs.iter().rev() {
            sub.activate().unwrap();
        }
        domain
            .publish(Alarm::new(Reading::new(7, "hot".into()), 2))
            .unwrap();
        expected.sort();
        assert_eq!(*log.lock().unwrap(), expected, "round {round}");
    }
}
