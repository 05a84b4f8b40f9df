//! The [`Domain`]: one address space's publish/subscribe endpoint.

use std::collections::BTreeSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Weak};

use parking_lot::{Mutex, RwLock};

use psc_codec::hash::FastMap;
use psc_codec::WireBytes;
use psc_filter::{FilterId, FilterIndex, PropertySource, RemoteFilter};
use psc_obvent::{KindId, Obvent, ObventKind, ObventView, WireObvent};
use psc_telemetry::{Counter, Registry};

use crate::error::{PublishError, SubscribeError, UnsubscribeError};
use crate::executor::{ExecMode, Executor, ThreadPolicy};
use crate::spec::FilterSpec;
use crate::subscription::Subscription;

/// Identifier of a subscription within its domain.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SubId(pub u64);

/// What the dissemination fabric needs to know about an activated
/// subscription: its id, subscribed kind, the migratable filter part, and a
/// durable id for certified re-attachment (paper §3.4.1's
/// `activate(long id)`).
#[derive(Debug, Clone)]
pub struct SubscriptionRecord {
    /// Domain-local subscription id.
    pub id: SubId,
    /// Subscribed obvent kind (instances of subtypes match).
    pub kind: KindId,
    /// The migratable filter part, encoded once at activation (empty when
    /// the subscription has none): what a fabric ships to and factors at
    /// other hosts. The decoded filter itself stays in the domain's own
    /// index, so activation copies no filter; the local closure part
    /// always runs subscriber-side.
    pub filter: WireBytes,
    /// Durable identity for subscriptions outliving the process.
    pub durable_id: Option<u64>,
}

/// A pluggable distribution fabric behind a [`Domain`].
///
/// `pubsub-core` ships [`Loopback`]; `psc-dace` provides the networked
/// class-based dissemination. Implementations receive the domain's
/// [`DeliverySink`] at construction time and call
/// [`DeliverySink::deliver`] for every obvent that reaches this address
/// space.
pub trait Dissemination: Send + Sync {
    /// Disseminates a published obvent.
    ///
    /// # Errors
    ///
    /// Fabric-specific failures, surfaced as `CannotPublish`.
    fn publish(&self, wire: WireObvent) -> Result<(), PublishError>;

    /// Registers an activated subscription.
    ///
    /// # Errors
    ///
    /// Fabric-specific failures, surfaced as `CannotSubscribe`.
    fn subscribe(&self, record: SubscriptionRecord) -> Result<(), SubscribeError>;

    /// Withdraws a subscription.
    ///
    /// # Errors
    ///
    /// Fabric-specific failures, surfaced as `CannotUnsubscribe`.
    fn unsubscribe(&self, id: SubId) -> Result<(), UnsubscribeError>;
}

/// Erased decode + local-filter + handler pipeline.
type Dispatch = Arc<dyn Fn(&WireObvent) + Send + Sync>;

/// Whether a subscription delivers, and with that where its remote filter
/// lives: an active subscription's filter is owned by its kind's
/// [`FilterIndex`] and nowhere else, so delivery cannot evaluate it per
/// subscription.
enum SubState {
    /// Not delivering; holds the remote filter (if any) until activation
    /// moves it into the index.
    Inactive(Option<RemoteFilter>),
    /// Delivering; a filtered subscription is known to its kind's index
    /// under this id.
    Active(Option<FilterId>),
}

struct SubEntry {
    kind: KindId,
    state: SubState,
    dispatch: Dispatch,
    durable_id: Option<u64>,
}

impl SubEntry {
    fn is_active(&self) -> bool {
        matches!(self.state, SubState::Active(_))
    }
}

/// The active subscriptions declared on one kind.
#[derive(Default)]
struct KindBucket {
    /// Compound filter over the remote-filtered subscriptions.
    filters: FilterIndex,
    owners: FastMap<FilterId, SubId>,
    unfiltered: BTreeSet<SubId>,
}

/// Every subscription of a domain plus the index its delivery goes through.
/// One mutex guards both ([`FilterIndex`] keeps match scratch in a
/// `RefCell`); it is never held while a handler runs.
#[derive(Default)]
struct SubTable {
    entries: FastMap<SubId, SubEntry>,
    /// Declared kind → its active subscriptions. An obvent probes one
    /// bucket per kind of its ancestry.
    buckets: FastMap<KindId, KindBucket>,
}

impl SubTable {
    /// Starts delivering to `id`: moves its filter into its kind's bucket.
    fn index(&mut self, id: SubId) {
        let Some(entry) = self.entries.get_mut(&id) else {
            return;
        };
        let SubState::Inactive(filter) = &mut entry.state else {
            return;
        };
        let bucket = self.buckets.entry(entry.kind).or_default();
        let filter_id = match filter.take() {
            Some(filter) => {
                let filter_id = bucket.filters.insert(filter);
                bucket.owners.insert(filter_id, id);
                Some(filter_id)
            }
            None => {
                bucket.unfiltered.insert(id);
                None
            }
        };
        entry.state = SubState::Active(filter_id);
    }

    /// Stops delivering to `id`: takes its filter back out of the bucket.
    fn unindex(&mut self, id: SubId) {
        let Some(entry) = self.entries.get_mut(&id) else {
            return;
        };
        let SubState::Active(filter_id) = entry.state else {
            return;
        };
        let bucket = self
            .buckets
            .get_mut(&entry.kind)
            .expect("an active subscription has a bucket");
        let filter = match filter_id {
            Some(filter_id) => {
                bucket.owners.remove(&filter_id);
                bucket.filters.remove(filter_id)
            }
            None => {
                bucket.unfiltered.remove(&id);
                None
            }
        };
        entry.state = SubState::Inactive(filter);
    }

    fn remove(&mut self, id: SubId) -> bool {
        self.unindex(id);
        self.entries.remove(&id).is_some()
    }

    /// The active subscriptions `wire` reaches, ascending: kind conformance
    /// is one bucket probe per ancestor of the obvent's kind, content
    /// filters one [`FilterIndex::matching`] per non-empty bucket over a
    /// view built at most once.
    fn matching(&self, wire: &WireObvent) -> Vec<SubId> {
        let mut matched = Vec::new();
        if self.buckets.is_empty() {
            return matched;
        }
        // A kind unknown to this address space conforms to nothing.
        let Some(kind) = psc_obvent::registry::lookup(wire.kind_id()) else {
            return matched;
        };
        let mut view: Option<Option<ObventView>> = None;
        for ancestor in kind.ancestry() {
            let Some(bucket) = self.buckets.get(ancestor) else {
                continue;
            };
            matched.extend(&bucket.unfiltered);
            if bucket.owners.is_empty() {
                continue;
            }
            // No decoder for this kind here: content filters cannot be
            // evaluated, so the conservative choice is to deliver nothing
            // to filtered subscriptions.
            if let Some(view) = view.get_or_insert_with(|| wire.view().ok()) {
                let hits = bucket.filters.matching(view);
                matched.extend(hits.iter().map(|hit| bucket.owners[hit]));
            }
        }
        matched.sort_unstable();
        matched
    }
}

/// Telemetry handles of one domain; noop until
/// [`Domain::attach_telemetry`] swaps in live handles.
struct CoreMetrics {
    published: Counter,
    delivered: Counter,
    matched: Counter,
    subs_activated: Counter,
    subs_deactivated: Counter,
    subs_dropped: Counter,
}

impl Default for CoreMetrics {
    fn default() -> Self {
        CoreMetrics {
            published: Counter::noop(),
            delivered: Counter::noop(),
            matched: Counter::noop(),
            subs_activated: Counter::noop(),
            subs_deactivated: Counter::noop(),
            subs_dropped: Counter::noop(),
        }
    }
}

pub(crate) struct DomainInner {
    subs: Mutex<SubTable>,
    next_id: AtomicU64,
    backend: RwLock<Option<Box<dyn Dissemination>>>,
    executor: Executor,
    delivered_count: AtomicU64,
    metrics: RwLock<CoreMetrics>,
}

/// One address space's pub/sub endpoint: create with
/// [`Domain::in_process`] (loopback fabric) or [`Domain::with_backend`]
/// (custom fabric, e.g. DACE). Cloning is cheap and shares the endpoint.
#[derive(Clone)]
pub struct Domain {
    inner: Arc<DomainInner>,
}

/// Handle the fabric uses to deliver obvents into a domain; holds the
/// domain weakly so fabrics don't keep dead domains alive.
#[derive(Clone)]
pub struct DeliverySink {
    inner: Weak<DomainInner>,
}

impl DeliverySink {
    /// Delivers an obvent to every matching active subscription of the
    /// domain, in ascending [`SubId`] order. Returns the number of
    /// subscriptions that accepted it (0 when the domain is gone).
    pub fn deliver(&self, wire: &WireObvent) -> usize {
        self.dispatch(wire, &self.matching(wire))
    }

    /// The active subscriptions `wire` reaches (kind conformance and remote
    /// filter), ascending; empty when the domain is gone. A fabric that
    /// must know *whether* this address space is a destination before it
    /// delivers asks here and hands the answer to
    /// [`DeliverySink::dispatch`].
    pub fn matching(&self, wire: &WireObvent) -> Vec<SubId> {
        match self.inner.upgrade() {
            Some(inner) => inner.subs.lock().matching(wire),
            None => Vec::new(),
        }
    }

    /// Runs the handlers of `matched` (a [`DeliverySink::matching`] result
    /// for the same obvent) that are still active. Returns how many ran.
    pub fn dispatch(&self, wire: &WireObvent, matched: &[SubId]) -> usize {
        match self.inner.upgrade() {
            Some(inner) => inner.dispatch(wire, matched),
            None => 0,
        }
    }

    /// True while the domain behind this sink is alive.
    pub fn is_alive(&self) -> bool {
        self.inner.strong_count() > 0
    }
}

impl std::fmt::Debug for DeliverySink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DeliverySink")
            .field("alive", &self.is_alive())
            .finish()
    }
}

/// The in-process fabric: publishing delivers straight back into the same
/// domain. This is the degenerate single-address-space deployment the paper
/// uses to introduce the primitives before distribution enters the picture.
pub struct Loopback {
    sink: DeliverySink,
}

impl Dissemination for Loopback {
    fn publish(&self, wire: WireObvent) -> Result<(), PublishError> {
        self.sink.deliver(&wire);
        Ok(())
    }

    fn subscribe(&self, _record: SubscriptionRecord) -> Result<(), SubscribeError> {
        Ok(())
    }

    fn unsubscribe(&self, _id: SubId) -> Result<(), UnsubscribeError> {
        Ok(())
    }
}

impl Domain {
    /// Creates a domain over the in-process [`Loopback`] fabric with inline
    /// handler execution.
    pub fn in_process() -> Domain {
        Domain::with_backend(ExecMode::Inline, |sink| Box::new(Loopback { sink }))
    }

    /// Creates a domain over the in-process [`Loopback`] fabric with a
    /// worker pool of `threads` (for thread-policy semantics).
    pub fn in_process_pooled(threads: usize) -> Domain {
        Domain::with_backend(ExecMode::Pool { threads }, |sink| {
            Box::new(Loopback { sink })
        })
    }

    /// Creates a domain whose fabric is built by `make_backend`, which
    /// receives the domain's [`DeliverySink`].
    pub fn with_backend(
        mode: ExecMode,
        make_backend: impl FnOnce(DeliverySink) -> Box<dyn Dissemination>,
    ) -> Domain {
        let inner = Arc::new(DomainInner {
            subs: Mutex::new(SubTable::default()),
            next_id: AtomicU64::new(1),
            backend: RwLock::new(None),
            executor: Executor::new(mode),
            delivered_count: AtomicU64::new(0),
            metrics: RwLock::new(CoreMetrics::default()),
        });
        let sink = DeliverySink {
            inner: Arc::downgrade(&inner),
        };
        let backend = make_backend(sink);
        *inner.backend.write() = Some(backend);
        Domain { inner }
    }

    /// Connects the domain to a telemetry registry. Publish, delivery and
    /// subscription-lifecycle counters (`core.*`) plus the executor's
    /// thread-policy queue gauges (`core.exec.*`) record into `registry`
    /// from then on; without this call all instrumentation stays noop.
    pub fn attach_telemetry(&self, registry: &Registry) {
        *self.inner.metrics.write() = CoreMetrics {
            published: registry.counter("core.published"),
            delivered: registry.counter("core.delivered"),
            matched: registry.counter("core.matched"),
            subs_activated: registry.counter("core.subs.activated"),
            subs_deactivated: registry.counter("core.subs.deactivated"),
            subs_dropped: registry.counter("core.subs.dropped"),
        };
        self.inner.executor.attach_telemetry(registry);
    }

    /// A sink for delivering obvents into this domain (used by fabrics and
    /// tests).
    pub fn sink(&self) -> DeliverySink {
        DeliverySink {
            inner: Arc::downgrade(&self.inner),
        }
    }

    /// Publishes an obvent — the `publish o;` primitive (§3.2). The obvent
    /// is serialized once; every matching subscriber (local and, with a
    /// networked fabric, remote) receives a fresh clone.
    ///
    /// # Errors
    ///
    /// [`PublishError`] when encoding fails or the fabric rejects the
    /// obvent.
    pub fn publish<O: Obvent>(&self, obvent: O) -> Result<(), PublishError> {
        // Ensure the kind (and its decoder) is registered before the wire
        // obvent circulates.
        let _ = O::kind();
        let wire = WireObvent::encode(&obvent)?;
        self.publish_wire(wire)
    }

    /// Publishes an already-encoded obvent (relay paths).
    ///
    /// # Errors
    ///
    /// [`PublishError`] when the fabric rejects the obvent.
    pub fn publish_wire(&self, wire: WireObvent) -> Result<(), PublishError> {
        self.inner.metrics.read().published.inc();
        let backend = self.inner.backend.read();
        match backend.as_ref() {
            Some(backend) => backend.publish(wire),
            None => Err(PublishError::DomainClosed),
        }
    }

    /// Creates a subscription to obvent class `O` — the
    /// `subscribe (T t) {filter} {handler}` primitive (§3.3). The returned
    /// handle is **inactive**; call [`Subscription::activate`].
    ///
    /// The handler receives an owned, fresh clone per delivery (§2.1.2).
    pub fn subscribe<O: Obvent>(
        &self,
        filter: FilterSpec<O>,
        handler: impl Fn(O) + Send + Sync + 'static,
    ) -> Subscription {
        let kind = O::kind();
        let local = filter.local.clone();
        let dispatch: Dispatch = Arc::new(move |wire| {
            if let Ok(obvent) = wire.decode_as::<O>() {
                if local.as_ref().is_none_or(|f| f.eval(&obvent)) {
                    handler(obvent);
                }
            }
        });
        self.subscribe_erased(kind, filter.remote, dispatch)
    }

    /// Creates a subscription to an obvent **kind** (typically an
    /// interface, including the QoS markers), delivering dynamic
    /// [`ObventView`]s — the §5.5.1 reflection-style variant.
    pub fn subscribe_view(
        &self,
        kind: &'static ObventKind,
        filter: FilterSpec<ObventView>,
        handler: impl Fn(ObventView) + Send + Sync + 'static,
    ) -> Subscription {
        let local = filter.local.clone();
        let dispatch: Dispatch = Arc::new(move |wire| {
            if let Ok(view) = wire.view() {
                if local.as_ref().is_none_or(|f| f.eval(&view)) {
                    handler(view);
                }
            }
        });
        self.subscribe_erased(kind, filter.remote, dispatch)
    }

    fn subscribe_erased(
        &self,
        kind: &'static ObventKind,
        remote_filter: Option<RemoteFilter>,
        dispatch: Dispatch,
    ) -> Subscription {
        let id = SubId(self.inner.next_id.fetch_add(1, Ordering::SeqCst));
        let entry = SubEntry {
            kind: kind.id(),
            state: SubState::Inactive(remote_filter),
            dispatch,
            durable_id: None,
        };
        self.inner.subs.lock().entries.insert(id, entry);
        Subscription::new(Arc::downgrade(&self.inner), id)
    }

    /// Blocks until all in-flight handler executions finish (pool mode);
    /// immediate with inline execution. Deterministic tests call this after
    /// publishing.
    pub fn drain(&self) {
        self.inner.executor.drain();
    }

    /// Total obvents delivered to handlers of this domain.
    pub fn delivered_count(&self) -> u64 {
        self.inner.delivered_count.load(Ordering::SeqCst)
    }

    /// Number of currently active subscriptions.
    pub fn active_subscriptions(&self) -> usize {
        let table = self.inner.subs.lock();
        table.entries.values().filter(|e| e.is_active()).count()
    }

    /// Audits the subscription index that delivery goes through: every
    /// kind's [`FilterIndex`] passes its structural audit and agrees with
    /// the unfactored `naive_matching` on `probe`, and the index holds
    /// exactly the active subscriptions. Returns human-readable findings;
    /// empty means healthy. O(subscriptions) — for tests and the chaos
    /// harness's `FilterOracle`, not the hot path.
    pub fn index_findings(&self, probe: &dyn PropertySource) -> Vec<String> {
        let table = self.inner.subs.lock();
        let mut findings = Vec::new();
        let mut kinds: Vec<KindId> = table.buckets.keys().copied().collect();
        kinds.sort();
        let mut indexed = 0;
        for kind in kinds {
            let bucket = &table.buckets[&kind];
            indexed += bucket.owners.len() + bucket.unfiltered.len();
            if let Err(err) = bucket.filters.check_consistency() {
                findings.push(format!("kind {kind}: index audit failed: {err}"));
            }
            if bucket.filters.len() != bucket.owners.len() {
                findings.push(format!(
                    "kind {kind}: {} indexed filters but {} owners",
                    bucket.filters.len(),
                    bucket.owners.len()
                ));
            }
            let fast = bucket.filters.matching(probe);
            let naive = bucket.filters.naive_matching(probe);
            if fast != naive {
                findings.push(format!(
                    "kind {kind}: indexed matching diverged from naive: {fast:?} vs {naive:?}"
                ));
            }
        }
        let mut active = 0;
        for (id, entry) in &table.entries {
            let SubState::Active(filter_id) = entry.state else {
                continue;
            };
            active += 1;
            let placed = table
                .buckets
                .get(&entry.kind)
                .is_some_and(|b| match filter_id {
                    Some(filter_id) => b.owners.get(&filter_id) == Some(id),
                    None => b.unfiltered.contains(id),
                });
            if !placed {
                findings.push(format!("active subscription {} is not indexed", id.0));
            }
        }
        if active != indexed {
            findings.push(format!(
                "{indexed} subscriptions indexed but {active} active"
            ));
        }
        findings.sort();
        findings
    }

    /// Shuts the domain down: deactivates everything and detaches the
    /// fabric. Publishing afterwards fails with
    /// [`PublishError::DomainClosed`].
    pub fn close(&self) {
        *self.inner.subs.lock() = SubTable::default();
        *self.inner.backend.write() = None;
    }
}

impl std::fmt::Debug for Domain {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Domain")
            .field("subscriptions", &self.inner.subs.lock().entries.len())
            .field("delivered", &self.delivered_count())
            .finish()
    }
}

impl DomainInner {
    /// Hands `wire` to the handlers of the still-active subscriptions among
    /// `matched` (each applies its local filter after decoding), in the
    /// order given. No lock is held while a handler runs: inline execution
    /// lets it publish, activate or deactivate re-entrantly.
    fn dispatch(&self, wire: &WireObvent, matched: &[SubId]) -> usize {
        let jobs: Vec<(SubId, Dispatch)> = {
            let table = self.subs.lock();
            matched
                .iter()
                .filter_map(|id| {
                    let entry = table.entries.get(id).filter(|e| e.is_active())?;
                    Some((*id, Arc::clone(&entry.dispatch)))
                })
                .collect()
        };
        let delivered = jobs.len();
        {
            let metrics = self.metrics.read();
            metrics.matched.add(delivered as u64);
            metrics.delivered.add(delivered as u64);
        }
        for (id, dispatch) in jobs {
            self.delivered_count.fetch_add(1, Ordering::SeqCst);
            let wire = wire.clone();
            self.executor.submit(id, move || dispatch(&wire));
        }
        delivered
    }

    // ---- subscription handle operations ----

    pub(crate) fn activate(
        &self,
        id: SubId,
        durable_id: Option<u64>,
    ) -> Result<(), SubscribeError> {
        let record = {
            let mut table = self.subs.lock();
            if let Some(durable) = durable_id {
                let clash = table.entries.iter().any(|(&other, e)| {
                    other != id && e.is_active() && e.durable_id == Some(durable)
                });
                if clash {
                    return Err(SubscribeError::DurableIdInUse(durable));
                }
            }
            let entry = table
                .entries
                .get_mut(&id)
                .ok_or(SubscribeError::DomainClosed)?;
            let SubState::Inactive(remote_filter) = &entry.state else {
                return Err(SubscribeError::AlreadyActive);
            };
            let filter = remote_filter
                .as_ref()
                .map(|f| psc_codec::to_wire_bytes(f).expect("filters encode"))
                .unwrap_or_default();
            let record = SubscriptionRecord {
                id,
                kind: entry.kind,
                filter,
                durable_id,
            };
            entry.durable_id = durable_id;
            table.index(id);
            record
        };
        let subscribed = match self.backend.read().as_ref() {
            Some(backend) => backend.subscribe(record),
            None => Err(SubscribeError::DomainClosed),
        };
        match subscribed {
            Ok(()) => self.metrics.read().subs_activated.inc(),
            // Roll back the activation.
            Err(_) => self.subs.lock().unindex(id),
        }
        subscribed
    }

    pub(crate) fn deactivate(&self, id: SubId) -> Result<(), UnsubscribeError> {
        {
            let mut table = self.subs.lock();
            let entry = table
                .entries
                .get(&id)
                .ok_or(UnsubscribeError::DomainClosed)?;
            if !entry.is_active() {
                return Err(UnsubscribeError::NotActive);
            }
            table.unindex(id);
        }
        let backend = self.backend.read();
        let backend = backend.as_ref().ok_or(UnsubscribeError::DomainClosed)?;
        backend.unsubscribe(id)?;
        self.metrics.read().subs_deactivated.inc();
        Ok(())
    }

    pub(crate) fn is_active(&self, id: SubId) -> bool {
        self.subs
            .lock()
            .entries
            .get(&id)
            .is_some_and(SubEntry::is_active)
    }

    pub(crate) fn set_policy(&self, id: SubId, policy: ThreadPolicy) {
        self.executor.set_policy(id, policy);
    }

    pub(crate) fn drop_subscription(&self, id: SubId) {
        if self.subs.lock().remove(id) {
            self.metrics.read().subs_dropped.inc();
        }
        self.executor.remove_sub(id);
    }
}
