//! Class-name interning for crossing hints.
//!
//! A crossing *hint* tells the receiving world which annotated class a
//! hash reference in the payload belongs to. [`NameInterner`] maps
//! class names to dense `u32` ids, so a hint carries a class's full
//! name ([`NameRef::Named`]) once per (class, side) and its id
//! ([`NameRef::Id`]) on every later crossing. The sender keeps each
//! class's id next to the class itself (see `docs/SERDE.md`).

use std::collections::HashMap;
use std::sync::{Arc, RwLock};

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

    /// Interns `name`, returning its id and the shared interned name
    /// (what a [`NameRef::Named`] hint carries).
    pub fn intern(&self, name: &str) -> (u32, Arc<str>) {
        if let Some((name, &id)) =
            self.inner.read().expect("interner poisoned").by_name.get_key_value(name)
        {
            return (id, Arc::clone(name));
        }
        let mut inner = self.inner.write().expect("interner poisoned");
        if let Some((name, &id)) = inner.by_name.get_key_value(name) {
            return (id, Arc::clone(name));
        }
        let id = inner.names.len() as u32;
        let name: Arc<str> = Arc::from(name);
        inner.names.push(Arc::clone(&name));
        inner.by_name.insert(Arc::clone(&name), id);
        (id, name)
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
    fn interner_is_stable_and_returns_the_interned_name() {
        let interner = NameInterner::new();
        let (a, name_a) = interner.intern("KvStore");
        let (b, name_b) = interner.intern("Writer");
        let (a2, name_a2) = interner.intern("KvStore");
        assert_eq!((&*name_a, &*name_b), ("KvStore", "Writer"));
        assert!(Arc::ptr_eq(&name_a, &name_a2), "a name is stored once");
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
}
