//! Isolates: independent VM instances with private heaps.
//!
//! GraalVM native images can create multiple *isolates* at runtime, each
//! operating on a separate heap so garbage collection in one does not
//! pause threads in another (§2.2). Montsalvat creates one isolate per
//! runtime — trusted and untrusted — and those isolates provide the
//! execution contexts for all entry-point methods.

use std::sync::Arc;

use parking_lot::{Mutex, MutexGuard};

use crate::heap::{Heap, HeapConfig};

/// An independently collected heap.
///
/// The heap is behind a mutex: `&mut Heap` operations (allocation, GC)
/// are stop-the-world *for this isolate only*, which is exactly the
/// isolation property the paper relies on.
///
/// # Examples
///
/// ```
/// use runtime_sim::isolate::Isolate;
/// use runtime_sim::heap::HeapConfig;
/// use runtime_sim::value::{ClassId, Value};
///
/// let trusted = Isolate::new(HeapConfig::default());
/// let id = trusted.with_heap(|h| h.alloc(ClassId(0), vec![Value::Int(1)])).unwrap();
/// assert!(trusted.with_heap(|h| h.is_live(id)));
/// ```
#[derive(Debug)]
pub struct Isolate {
    heap: Mutex<Heap>,
}

impl Isolate {
    /// Creates an isolate with a fresh heap.
    pub fn new(config: HeapConfig) -> Arc<Self> {
        Arc::new(Isolate { heap: Mutex::new(Heap::new(config)) })
    }

    /// Runs `f` with exclusive access to the heap.
    pub fn with_heap<R>(&self, f: impl FnOnce(&mut Heap) -> R) -> R {
        f(&mut self.heap.lock())
    }

    /// Locks and returns the heap guard directly (for multi-step
    /// sequences that must be atomic with respect to other threads).
    pub fn lock_heap(&self) -> MutexGuard<'_, Heap> {
        self.heap.lock()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::{ClassId, Value};

    #[test]
    fn heaps_are_independent() {
        let a = Isolate::new(HeapConfig::default());
        let b = Isolate::new(HeapConfig::default());
        let id = a.with_heap(|h| h.alloc(ClassId(0), vec![Value::Int(5)])).unwrap();
        a.with_heap(|h| h.add_root(id));
        // Collecting b never touches a's objects.
        b.with_heap(|h| {
            h.collect();
        });
        assert!(a.with_heap(|h| h.is_live(id)));
        assert_eq!(b.with_heap(|h| h.live_objects()), 0);
    }

    #[test]
    fn concurrent_access_is_serialised() {
        let iso = Isolate::new(HeapConfig::default());
        let mut handles = Vec::new();
        for _ in 0..4 {
            let iso = Arc::clone(&iso);
            handles.push(std::thread::spawn(move || {
                for _ in 0..250 {
                    let id = iso.with_heap(|h| h.alloc(ClassId(0), vec![])).unwrap();
                    iso.with_heap(|h| h.add_root(id));
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(iso.with_heap(|h| h.live_objects()), 1000);
    }
}
