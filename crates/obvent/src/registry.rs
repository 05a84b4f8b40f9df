//! The process-wide kind registry.
//!
//! Every obvent class or interface registers its [`ObventKind`] descriptor
//! here on first use (the generated `T::kind()` methods do this lazily, with
//! supertypes registered first). The registry answers the two questions the
//! dissemination layer keeps asking:
//!
//! - *is kind `D` a subtype of kind `K`?* — deciding whether an instance
//!   reaches a subscription (paper §2.1.3);
//! - *which registered kinds are subtypes of `K`?* — deciding which
//!   multicast classes a subscription to `K` must join (paper §4.2's
//!   class-based dissemination).
//!
//! In the paper every address space maintains this knowledge and learns
//! about new classes through advertisement obvents; in this reproduction all
//! simulated address spaces live in one OS process, so a single registry is
//! shared — the *protocol-level* advertisement still happens in `psc-dace`,
//! and this registry plays the role of each JVM's loaded-classes table.

use std::collections::HashMap;
use std::sync::RwLock;

use std::sync::OnceLock;

use crate::kind::{KindId, ObventKind};
use crate::qos::QosSpec;
use crate::view::ObventView;
use crate::ObventError;

pub use crate::kind::KindRole;

/// [`KindRole::Class`] spelled as a constant for macro-generated code.
pub const KIND_ROLE_CLASS: KindRole = KindRole::Class;
/// [`KindRole::Interface`] spelled as a constant for macro-generated code.
pub const KIND_ROLE_INTERFACE: KindRole = KindRole::Interface;

/// A registered deserializer producing the dynamic view of a concrete
/// obvent class (used for interface subscriptions, §5.5.1-style filters and
/// diagnostics).
pub type ViewDecoder = fn(&[u8]) -> Result<ObventView, ObventError>;

#[derive(Default)]
struct Inner {
    kinds: HashMap<KindId, &'static ObventKind>,
    decoders: HashMap<KindId, ViewDecoder>,
}

fn registry() -> &'static RwLock<Inner> {
    static REGISTRY: OnceLock<RwLock<Inner>> = OnceLock::new();
    REGISTRY.get_or_init(|| RwLock::new(Inner::default()))
}

/// Registers (or finds) a kind. Invoked by generated `kind()` methods —
/// direct supertypes must already be registered, which the generated code
/// guarantees by touching them first.
///
/// # Panics
///
/// Panics on a kind-name hash collision with differing declarations, or if a
/// direct supertype has not been registered (both are programming errors in
/// hand-written registrations; generated code cannot trigger them).
pub fn register(name: &'static str, role: KindRole, supers: &[KindId]) -> &'static ObventKind {
    crate::builtin::ensure_registered();
    register_raw(name, role, supers)
}

pub(crate) fn register_raw(
    name: &'static str,
    role: KindRole,
    supers: &[KindId],
) -> &'static ObventKind {
    let id = KindId::from_name(name);

    // Fast path: already registered.
    if let Some(existing) = lookup(id) {
        assert_eq!(
            existing.name(),
            name,
            "kind id collision: {name} vs {}",
            existing.name()
        );
        assert_eq!(
            existing.supers(),
            supers,
            "kind {name} re-registered with different supertypes"
        );
        return existing;
    }

    // Compute the ancestry closure outside the lock.
    let mut ancestry = vec![id];
    {
        let inner = registry().read().expect("kind registry poisoned");
        for sup in supers {
            let sup_kind = inner
                .kinds
                .get(sup)
                .unwrap_or_else(|| panic!("supertype {sup} of {name} not registered"));
            for anc in sup_kind.ancestry() {
                if !ancestry.contains(anc) {
                    ancestry.push(*anc);
                }
            }
        }
    }
    let qos = QosSpec::resolve(&ancestry);
    let kind: &'static ObventKind = Box::leak(Box::new(ObventKind::new(
        name,
        role,
        supers.to_vec(),
        ancestry,
        qos,
    )));

    let mut inner = registry().write().expect("kind registry poisoned");
    // Another thread may have won the race; keep the first registration.
    inner.kinds.entry(id).or_insert(kind)
}

/// How many kinds this process has registered. Kinds are never
/// unregistered, so a cache of registry answers (such as which classes a
/// subscription to some kind joins) stays valid while this number does.
pub fn registered() -> usize {
    registry()
        .read()
        .expect("kind registry poisoned")
        .kinds
        .len()
}

/// Looks up a kind by id.
pub fn lookup(id: KindId) -> Option<&'static ObventKind> {
    registry()
        .read()
        .expect("kind registry poisoned")
        .kinds
        .get(&id)
        .copied()
}

/// True if `sub` is registered and is `sup` or one of its subtypes.
pub fn is_subtype(sub: KindId, sup: KindId) -> bool {
    lookup(sub).is_some_and(|k| k.is_subtype_of(sup))
}

/// All registered kinds that are subtypes of `id` (including `id` itself if
/// registered). Order is unspecified.
pub fn subtypes_of(id: KindId) -> Vec<&'static ObventKind> {
    registry()
        .read()
        .expect("kind registry poisoned")
        .kinds
        .values()
        .filter(|k| k.is_subtype_of(id))
        .copied()
        .collect()
}

/// All registered kinds. Order is unspecified.
pub fn all_kinds() -> Vec<&'static ObventKind> {
    registry()
        .read()
        .expect("kind registry poisoned")
        .kinds
        .values()
        .copied()
        .collect()
}

/// Registers the view decoder for a concrete class (generated code calls
/// this alongside kind registration).
pub fn register_decoder(id: KindId, decoder: ViewDecoder) {
    registry()
        .write()
        .expect("kind registry poisoned")
        .decoders
        .entry(id)
        .or_insert(decoder);
}

/// Decodes a serialized obvent of kind `id` into its dynamic view.
///
/// # Errors
///
/// [`ObventError::NoDecoder`] if no concrete class with that id registered a
/// decoder in this process; any decoding error from the payload.
pub fn decode_view(id: KindId, payload: &[u8]) -> Result<ObventView, ObventError> {
    let decoder = registry()
        .read()
        .expect("kind registry poisoned")
        .decoders
        .get(&id)
        .copied()
        .ok_or(ObventError::NoDecoder(id))?;
    decoder(payload)
}
