//! Per-class crossing-hint state for boundary serde.
//!
//! A crossing *hint* tells the receiving world which annotated class a
//! hash reference in the payload belongs to. This module keeps the
//! class name off the wire after its first crossing, per app:
//!
//! - [`ShapeCache`] maps `ClassId → u32`, the class name's interned
//!   id, filled on a class's first crossing from a side (a miss,
//!   counted by `serde.shape_cache_misses`).
//! - [`NameInterner`] maps class names to dense `u32` ids. A name
//!   crosses the wire in full exactly once per (class, side); every
//!   later crossing references it by id (see `docs/SERDE.md`).

use std::collections::HashMap;
use std::sync::{Arc, RwLock};

use runtime_sim::value::ClassId;

/// Map from [`ClassId`] to the interned id of the class's name.
#[derive(Debug, Default)]
pub struct ShapeCache {
    map: RwLock<HashMap<ClassId, u32>>,
}

impl ShapeCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// The cached name id; `None` means the caller should intern the
    /// name and [`ShapeCache::insert`] it (a *shape-cache miss*,
    /// counted by `serde.shape_cache_misses`).
    pub fn get(&self, class: ClassId) -> Option<u32> {
        self.map.read().expect("shape cache poisoned").get(&class).copied()
    }

    /// Caches `name_id` for `class`; inserting the same class twice
    /// keeps the latest id.
    pub fn insert(&self, class: ClassId, name_id: u32) {
        self.map.write().expect("shape cache poisoned").insert(class, name_id);
    }
}

/// How a class name rides a wire hint: the full string on the first
/// crossing of that class, the 4-byte intern id thereafter.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NameRef {
    /// First crossing — carries the name so the peer can populate its
    /// own table. Costs `4 + len` modelled wire bytes.
    Named(u32, Arc<str>),
    /// Subsequent crossings — the id alone. Costs 4 modelled bytes.
    Id(u32),
}

impl NameRef {
    /// Modelled wire bytes this hint-name encoding occupies.
    pub fn wire_len(&self) -> usize {
        match self {
            NameRef::Named(_, name) => 4 + name.len(),
            NameRef::Id(_) => 4,
        }
    }
}

#[derive(Debug, Default)]
struct InternInner {
    by_name: HashMap<Arc<str>, u32>,
    names: Vec<Arc<str>>,
}

/// Bidirectional `String ↔ u32` table of class names, shared by both
/// worlds of an app (modelling the per-peer table each side builds
/// from the `Named` hints it has seen).
#[derive(Debug, Default)]
pub struct NameInterner {
    inner: RwLock<InternInner>,
}

impl NameInterner {
    /// An empty interner.
    pub fn new() -> Self {
        Self::default()
    }

    /// Interns `name`, returning its id and whether this call created
    /// it (`true` exactly once per distinct name — the crossing that
    /// must carry [`NameRef::Named`]).
    pub fn intern(&self, name: &str) -> (u32, bool) {
        if let Some(&id) = self.inner.read().expect("interner poisoned").by_name.get(name) {
            return (id, false);
        }
        let mut inner = self.inner.write().expect("interner poisoned");
        if let Some(&id) = inner.by_name.get(name) {
            return (id, false);
        }
        let id = inner.names.len() as u32;
        let name: Arc<str> = Arc::from(name);
        inner.names.push(Arc::clone(&name));
        inner.by_name.insert(name, id);
        (id, true)
    }

    /// The name behind `id`, if interned.
    pub fn resolve(&self, id: u32) -> Option<Arc<str>> {
        self.inner.read().expect("interner poisoned").names.get(id as usize).cloned()
    }

    /// Number of interned names.
    pub fn len(&self) -> usize {
        self.inner.read().expect("interner poisoned").names.len()
    }

    /// Whether no names have been interned.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interner_is_stable_and_reports_first_use() {
        let interner = NameInterner::new();
        let (a, fresh_a) = interner.intern("KvStore");
        let (b, fresh_b) = interner.intern("Writer");
        let (a2, fresh_a2) = interner.intern("KvStore");
        assert!(fresh_a && fresh_b && !fresh_a2);
        assert_eq!(a, a2);
        assert_ne!(a, b);
        assert_eq!(interner.resolve(a).as_deref(), Some("KvStore"));
        assert_eq!(interner.resolve(b).as_deref(), Some("Writer"));
        assert_eq!(interner.resolve(99), None);
        assert_eq!(interner.len(), 2);
    }

    #[test]
    fn name_ref_wire_len_shrinks_after_first_crossing() {
        let first = NameRef::Named(0, Arc::from("SomeClassName"));
        let later = NameRef::Id(0);
        assert_eq!(first.wire_len(), 4 + "SomeClassName".len());
        assert_eq!(later.wire_len(), 4);
    }

    #[test]
    fn shape_cache_round_trips_and_overwrites() {
        let cache = ShapeCache::new();
        assert_eq!(cache.get(ClassId(3)), None);
        cache.insert(ClassId(3), 0);
        cache.insert(ClassId(4), 1);
        assert_eq!(cache.get(ClassId(3)), Some(0));
        assert_eq!(cache.get(ClassId(4)), Some(1));

        cache.insert(ClassId(3), 7);
        assert_eq!(cache.get(ClassId(3)), Some(7));
        assert_eq!(cache.get(ClassId(4)), Some(1), "other classes untouched");
    }
}
