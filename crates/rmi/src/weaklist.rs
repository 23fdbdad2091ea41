//! The per-runtime proxy weak-reference list (§5.5).
//!
//! When a proxy object is created, Montsalvat stores a weak reference to
//! it, together with its hash, in a global list. The GC helper thread
//! periodically scans the list for weak references whose referent has
//! been collected; each cleared entry yields the hash of a mirror that
//! can now be dropped from the opposite runtime's registry.
//!
//! The list is also the runtime's one proxy table: at most one proxy per
//! hash. The weak reference is the proxy's generational [`ObjId`], which
//! never roots its object and reads dead ([`Heap::is_live`]) after the
//! collection that frees it.

use std::collections::HashMap;

use runtime_sim::heap::Heap;
use runtime_sim::value::ObjId;

use crate::hash::ProxyHash;

/// Weak tracking of live proxies in one runtime, by hash.
#[derive(Debug, Default)]
pub struct ProxyWeakList {
    proxies: HashMap<ProxyHash, ObjId>,
    recorder: Option<std::sync::Arc<telemetry::Recorder>>,
}

impl ProxyWeakList {
    /// Creates an empty list.
    pub fn new() -> Self {
        Self::default()
    }

    /// Installs the telemetry recorder this list reports its scans and
    /// dead-proxy discoveries into.
    pub fn set_recorder(&mut self, recorder: std::sync::Arc<telemetry::Recorder>) {
        self.recorder = Some(recorder);
    }

    /// Starts tracking `proxy` (which carries `hash`). A proxy tracked
    /// earlier under `hash` is forgotten: a proxy re-imported after its
    /// predecessor died takes over the hash, so the predecessor's death
    /// releases nothing.
    pub fn track(&mut self, proxy: ObjId, hash: ProxyHash) {
        self.proxies.insert(hash, proxy);
    }

    /// The proxy tracked under `hash`, if it is still live in `heap`.
    pub fn live(&self, heap: &Heap, hash: ProxyHash) -> Option<ObjId> {
        self.proxies.get(&hash).copied().filter(|&proxy| heap.is_live(proxy))
    }

    /// Scans for proxies that have been collected: removes their entries
    /// and returns their hashes (the mirrors to release remotely), in no
    /// particular order.
    pub fn scan_dead(&mut self, heap: &Heap) -> Vec<ProxyHash> {
        let mut dead = Vec::new();
        self.proxies.retain(|hash, proxy| {
            let live = heap.is_live(*proxy);
            if !live {
                dead.push(*hash);
            }
            live
        });
        if let Some(rec) = &self.recorder {
            rec.incr(telemetry::Counter::WeakListScans);
            rec.add(telemetry::Counter::WeakDeadFound, dead.len() as u64);
        }
        dead
    }

    /// Number of tracked proxies still live in `heap`.
    pub fn live_count(&self, heap: &Heap) -> usize {
        self.proxies.values().filter(|&&proxy| heap.is_live(proxy)).count()
    }

    /// Number of proxies still tracked (live or not yet scanned).
    pub fn len(&self) -> usize {
        self.proxies.len()
    }

    /// Whether no proxies are tracked.
    pub fn is_empty(&self) -> bool {
        self.proxies.is_empty()
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
    fn live_proxies_are_not_reported() {
        let mut h = heap();
        let mut list = ProxyWeakList::new();
        let proxy = h.alloc(ClassId(1), vec![Value::Int(1)]).unwrap();
        h.add_root(proxy);
        list.track(proxy, ProxyHash(11));
        h.collect();
        assert!(list.scan_dead(&h).is_empty());
        assert_eq!(list.len(), 1);
        assert_eq!(list.live(&h, ProxyHash(11)), Some(proxy));
    }

    #[test]
    fn dead_proxies_yield_their_hashes_once() {
        let mut h = heap();
        let mut list = ProxyWeakList::new();
        let live = h.alloc(ClassId(1), vec![]).unwrap();
        h.add_root(live);
        let dead = h.alloc(ClassId(1), vec![]).unwrap();
        list.track(live, ProxyHash(1));
        list.track(dead, ProxyHash(2));
        h.collect();
        assert_eq!(list.scan_dead(&h), vec![ProxyHash(2)]);
        assert!(list.scan_dead(&h).is_empty(), "entries are removed after reporting");
        assert_eq!(list.len(), 1);
    }

    #[test]
    fn tracking_does_not_keep_proxies_alive() {
        let mut h = heap();
        let mut list = ProxyWeakList::new();
        let proxy = h.alloc(ClassId(1), vec![]).unwrap();
        list.track(proxy, ProxyHash(5));
        h.collect();
        assert!(!h.is_live(proxy), "weak tracking is weak");
        assert_eq!(list.live(&h, ProxyHash(5)), None);
        assert_eq!(list.scan_dead(&h), vec![ProxyHash(5)]);
    }

    #[test]
    fn a_reimported_proxy_replaces_its_dead_predecessor() {
        let mut h = heap();
        let mut list = ProxyWeakList::new();
        let first = h.alloc(ClassId(1), vec![]).unwrap();
        list.track(first, ProxyHash(9));
        h.collect();
        let second = h.alloc(ClassId(1), vec![]).unwrap();
        h.add_root(second);
        list.track(second, ProxyHash(9));
        assert!(list.scan_dead(&h).is_empty(), "the dead predecessor releases nothing");
        assert_eq!(list.live(&h, ProxyHash(9)), Some(second));
        assert_eq!(list.live_count(&h), 1);
        h.remove_root(second);
        h.collect();
        assert_eq!(list.scan_dead(&h), vec![ProxyHash(9)]);
    }

    #[test]
    fn recorder_counts_scans_and_dead_hits() {
        use telemetry::{Counter, Recorder};
        let rec = Recorder::new();
        let mut h = heap();
        let mut list = ProxyWeakList::new();
        list.set_recorder(rec.clone());
        let proxy = h.alloc(ClassId(1), vec![]).unwrap();
        list.track(proxy, ProxyHash(5));
        h.collect();
        list.scan_dead(&h);
        list.scan_dead(&h);
        assert_eq!(rec.counter(Counter::WeakListScans), 2);
        assert_eq!(rec.counter(Counter::WeakDeadFound), 1);
    }

    #[test]
    fn many_proxies_scan_correctly() {
        let mut h = heap();
        let mut list = ProxyWeakList::new();
        let mut kept = Vec::new();
        for i in 0..100 {
            let p = h.alloc(ClassId(0), vec![]).unwrap();
            if i % 2 == 0 {
                h.add_root(p);
                kept.push(ProxyHash(i as u128));
            }
            list.track(p, ProxyHash(i as u128));
        }
        h.collect();
        let mut dead = list.scan_dead(&h);
        dead.sort();
        assert_eq!(dead.len(), 50);
        assert!(dead.iter().all(|h| h.0 % 2 == 1));
        assert_eq!(list.len(), 50);
        assert_eq!(list.live_count(&h), 50);
    }
}
