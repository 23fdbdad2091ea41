//! The mirror-proxy registry (§5.2).
//!
//! When a relay method materialises a *mirror* object for a proxy in the
//! opposite runtime, it stores a strong reference to the mirror, keyed by
//! the proxy's hash, in a global registry. The strong reference keeps the
//! mirror alive exactly as long as the proxy exists; the GC helper
//! removes the entry once the proxy has been collected, making the mirror
//! eligible for collection (§5.5). Both runtimes own one registry.
//!
//! The registry also records the reverse direction, mirror to hash, so
//! an object exported once re-crosses under the same hash.

use std::collections::HashMap;

use runtime_sim::heap::Heap;
use runtime_sim::value::ObjId;

use crate::hash::ProxyHash;

/// Strong-reference table from proxy hashes to mirror objects, and
/// back.
///
/// Entries *root* their mirror in the owning heap; [`MirrorProxyRegistry::remove`]
/// releases the root, making the mirror collectable.
#[derive(Debug, Default)]
pub struct MirrorProxyRegistry {
    map: HashMap<ProxyHash, ObjId>,
    hash_of: HashMap<ObjId, ProxyHash>,
    recorder: Option<std::sync::Arc<telemetry::Recorder>>,
}

impl MirrorProxyRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Installs the telemetry recorder this registry reports its peak
    /// size and mirror releases into.
    pub fn set_recorder(&mut self, recorder: std::sync::Arc<telemetry::Recorder>) {
        self.recorder = Some(recorder);
    }

    /// Registers `mirror` under `hash` in both directions, rooting it
    /// in `heap`.
    ///
    /// Returns the displaced mirror if `hash` was already registered
    /// (a peer reusing a hash); the displaced mirror's root and its
    /// reverse entry are released.
    pub fn register(&mut self, heap: &mut Heap, hash: ProxyHash, mirror: ObjId) -> Option<ObjId> {
        heap.add_root(mirror);
        let displaced = self.map.insert(hash, mirror);
        if let Some(old) = displaced {
            heap.remove_root(old);
            self.hash_of.remove(&old);
        }
        self.hash_of.insert(mirror, hash);
        if let Some(rec) = &self.recorder {
            rec.gauge_max(telemetry::Gauge::RegistrySizePeak, self.map.len() as u64);
        }
        displaced
    }

    /// Looks up the mirror registered under `hash`.
    pub fn get(&self, hash: ProxyHash) -> Option<ObjId> {
        self.map.get(&hash).copied()
    }

    /// Looks up the hash `mirror` is registered under.
    pub fn hash_of(&self, mirror: ObjId) -> Option<ProxyHash> {
        self.hash_of.get(&mirror).copied()
    }

    /// Removes the entry for `hash` in both directions, releasing the
    /// mirror's root.
    ///
    /// Returns the mirror that was registered, if any.
    pub fn remove(&mut self, heap: &mut Heap, hash: ProxyHash) -> Option<ObjId> {
        let mirror = self.map.remove(&hash)?;
        self.hash_of.remove(&mirror);
        heap.remove_root(mirror);
        if let Some(rec) = &self.recorder {
            rec.incr(telemetry::Counter::MirrorsReleased);
        }
        Some(mirror)
    }

    /// Number of registered mirrors.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the registry is empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use runtime_sim::heap::HeapConfig;
    use runtime_sim::value::{ClassId, Value};

    fn heap() -> Heap {
        Heap::new(HeapConfig { gc_threshold_bytes: u64::MAX, ..HeapConfig::default() })
    }

    #[test]
    fn registered_mirrors_survive_gc() {
        let mut h = heap();
        let mut reg = MirrorProxyRegistry::new();
        let mirror = h.alloc(ClassId(1), vec![Value::Int(1)]).unwrap();
        reg.register(&mut h, ProxyHash(10), mirror);
        h.collect();
        assert!(h.is_live(mirror));
        assert_eq!(reg.get(ProxyHash(10)), Some(mirror));
    }

    #[test]
    fn removal_releases_the_mirror() {
        let mut h = heap();
        let mut reg = MirrorProxyRegistry::new();
        let mirror = h.alloc(ClassId(1), vec![]).unwrap();
        reg.register(&mut h, ProxyHash(10), mirror);
        assert_eq!(reg.hash_of(mirror), Some(ProxyHash(10)));
        assert_eq!(reg.remove(&mut h, ProxyHash(10)), Some(mirror));
        assert_eq!(reg.hash_of(mirror), None);
        h.collect();
        assert!(!h.is_live(mirror), "mirror collectable after removal");
        assert!(reg.is_empty());
    }

    #[test]
    fn collision_displaces_and_unroots_old_mirror() {
        let mut h = heap();
        let mut reg = MirrorProxyRegistry::new();
        let first = h.alloc(ClassId(1), vec![]).unwrap();
        let second = h.alloc(ClassId(1), vec![]).unwrap();
        assert_eq!(reg.register(&mut h, ProxyHash(7), first), None);
        assert_eq!(reg.register(&mut h, ProxyHash(7), second), Some(first));
        assert_eq!(reg.hash_of(first), None, "displaced mirror forgets the hash");
        assert_eq!(reg.hash_of(second), Some(ProxyHash(7)));
        h.collect();
        assert!(!h.is_live(first), "displaced mirror released");
        assert!(h.is_live(second));
        assert_eq!(reg.len(), 1);
    }

    #[test]
    fn recorder_tracks_peak_size_and_releases() {
        use telemetry::{Counter, Gauge, Recorder};
        let rec = Recorder::new();
        let mut h = heap();
        let mut reg = MirrorProxyRegistry::new();
        reg.set_recorder(rec.clone());
        let a = h.alloc(ClassId(0), vec![]).unwrap();
        let b = h.alloc(ClassId(0), vec![]).unwrap();
        reg.register(&mut h, ProxyHash(1), a);
        reg.register(&mut h, ProxyHash(2), b);
        reg.remove(&mut h, ProxyHash(1));
        reg.remove(&mut h, ProxyHash(2));
        assert_eq!(rec.gauge(Gauge::RegistrySizePeak), 2);
        assert_eq!(rec.counter(Counter::MirrorsReleased), 2);
    }

    #[test]
    fn remove_missing_is_none() {
        let mut h = heap();
        let mut reg = MirrorProxyRegistry::new();
        assert_eq!(reg.remove(&mut h, ProxyHash(99)), None);
    }
}
