//! Thread-local pools for boundary serde: encode buffers and decoded
//! primitive runs.
//!
//! Every RMI crossing needs a scratch buffer to encode its payload
//! into, and the switchless drain needs one per assembled batch frame.
//! Allocating those buffers fresh puts a malloc/free pair on the
//! hottest path in the system. This module keeps a small per-thread
//! free list of `Vec<u8>` buffers instead: [`acquire`] hands out a
//! cleared buffer (reusing a pooled one when available), and dropping
//! the returned [`PooledBuf`] gives the allocation back to the
//! dropping thread's pool. Steady-state crossings whose payloads fit
//! the retained capacity therefore perform **zero** heap allocation
//! for payload bytes.
//!
//! Beside the byte buffers sits a free list of `Vec<Value>` lists that
//! the decoder built from `TAG_INTS`/`TAG_FLOATS` runs. A relay gives
//! its run arguments back with [`recycle_run`] once it has returned,
//! and the decoder ([`crate::codec::decode_value`]) refills one in
//! place instead of allocating a fresh list and dropping it one
//! `Value` at a time after the relay. Lists go back uncleared: they
//! hold only `Int`s and `Float`s, and the refill overwrites them. A run
//! takes a list only if the list's capacity is at least the run's
//! length and at most [`FIT_FACTOR`] times it.
//!
//! Retention is bounded the same way for both free lists:
//!
//! - at most [`MAX_POOLED_BUFS`] entries are kept per thread, and none
//!   whose allocation exceeds [`CAP_BYTES`] is ever retained;
//! - a *high-water mark* of observed lengths is kept per thread, and
//!   once per [`TRIM_WINDOW`] releases any retained entry whose
//!   capacity exceeds twice the recent high-water mark is shrunk back
//!   to it — a burst of huge payloads cannot pin its peak footprint
//!   forever.
//!
//! See `docs/SERDE.md`.

use std::cell::RefCell;

use runtime_sim::value::Value;

/// Per-entry retention cap: buffers and lists whose allocation grew
/// beyond this many bytes are dropped rather than pooled (1 MiB).
pub const CAP_BYTES: usize = 1 << 20;

/// Maximum entries retained per thread, in each free list.
pub const MAX_POOLED_BUFS: usize = 8;

/// Releases between high-water-mark trim passes.
pub const TRIM_WINDOW: u32 = 64;

/// A run of `n` elements reuses a pooled list only if the list's
/// capacity is at most `FIT_FACTOR × n` (and at least `n`), so a short
/// run never takes, and truncates, a long run's list.
pub const FIT_FACTOR: usize = 2;

/// A per-thread free list plus its trimming state.
#[derive(Debug, Default)]
struct Pool<T> {
    free: Vec<Vec<T>>,
    /// Largest length released since the last trim pass.
    high_water: usize,
    releases: u32,
}

impl<T> Pool<T> {
    /// Takes the most recently released entry whose capacity `fits`.
    fn take(&mut self, fits: impl Fn(usize) -> bool) -> Option<Vec<T>> {
        let at = self.free.iter().rposition(|buf| fits(buf.capacity()))?;
        Some(self.free.swap_remove(at))
    }

    /// Keeps `buf`, as it is, if the bounds allow.
    fn release(&mut self, buf: Vec<T>) {
        self.high_water = self.high_water.max(buf.len());
        self.releases += 1;
        let bytes = buf.capacity().saturating_mul(std::mem::size_of::<T>());
        if buf.capacity() > 0 && bytes <= CAP_BYTES && self.free.len() < MAX_POOLED_BUFS {
            self.free.push(buf);
        }
        if self.releases >= TRIM_WINDOW {
            self.trim();
        }
    }

    /// Shrinks retained entries far above the recent high-water mark,
    /// then opens a fresh observation window.
    fn trim(&mut self) {
        let hwm = self.high_water;
        for buf in &mut self.free {
            if buf.capacity() > hwm.saturating_mul(2) {
                buf.truncate(hwm);
                buf.shrink_to(hwm);
            }
        }
        self.high_water = 0;
        self.releases = 0;
    }
}

thread_local! {
    static POOL: RefCell<Pool<u8>> = RefCell::new(Pool::default());
    static RUNS: RefCell<Pool<Value>> = RefCell::new(Pool::default());
}

/// A byte buffer borrowed from the thread-local pool.
///
/// Dereferences to `Vec<u8>` for use as an encode target; dropping it
/// returns the allocation to the dropping thread's pool (cross-thread
/// drops simply seed that thread's pool). [`PooledBuf::was_pooled`]
/// reports whether the capacity was reused — the signal behind the
/// `serde.pooled_bytes` counter.
#[derive(Debug, Default)]
pub struct PooledBuf {
    buf: Vec<u8>,
    pooled: bool,
}

impl PooledBuf {
    /// Whether this buffer's capacity came from the pool rather than
    /// a fresh allocation.
    pub fn was_pooled(&self) -> bool {
        self.pooled
    }
}

/// Hands out a cleared buffer, reusing pooled capacity when available.
pub fn acquire() -> PooledBuf {
    match POOL.with(|p| p.borrow_mut().take(|_| true)) {
        Some(mut buf) => {
            buf.clear();
            PooledBuf { buf, pooled: true }
        }
        None => PooledBuf { buf: Vec::new(), pooled: false },
    }
}

impl Drop for PooledBuf {
    fn drop(&mut self) {
        let buf = std::mem::take(&mut self.buf);
        // A panicking thread may drop after its TLS is torn down;
        // losing the buffer is fine then.
        let _ = POOL.try_with(|p| p.borrow_mut().release(buf));
    }
}

impl Clone for PooledBuf {
    fn clone(&self) -> Self {
        let mut out = acquire();
        out.extend_from_slice(&self.buf);
        out
    }
}

impl std::ops::Deref for PooledBuf {
    type Target = Vec<u8>;
    fn deref(&self) -> &Vec<u8> {
        &self.buf
    }
}

impl std::ops::DerefMut for PooledBuf {
    fn deref_mut(&mut self) -> &mut Vec<u8> {
        &mut self.buf
    }
}

impl PartialEq for PooledBuf {
    fn eq(&self, other: &Self) -> bool {
        self.buf == other.buf
    }
}

impl Eq for PooledBuf {}

/// Wraps an existing vector without touching the pool (its bytes
/// still return to the pool on drop).
impl From<Vec<u8>> for PooledBuf {
    fn from(buf: Vec<u8>) -> Self {
        PooledBuf { buf, pooled: false }
    }
}

impl AsRef<[u8]> for PooledBuf {
    fn as_ref(&self) -> &[u8] {
        &self.buf
    }
}

/// Takes a list to refill with a run of `len` elements: the most
/// recently recycled one whose capacity is between `len` and
/// [`FIT_FACTOR`]` × len`, or `None` when no pooled list fits. The list
/// comes back uncleared; the caller overwrites it.
pub(crate) fn take_run(len: usize) -> Option<Vec<Value>> {
    let fits = |cap: usize| len <= cap && cap <= len.saturating_mul(FIT_FACTOR);
    RUNS.with(|p| p.borrow_mut().take(fits))
}

/// Gives a list the decoder built from a run back to this thread's
/// pool, uncleared, for the decoder to refill. Give back only such
/// lists (see [`crate::codec::DecodedValue::runs`]), so the pool holds
/// nothing but `Int`s and `Float`s; any other list may simply be
/// dropped.
pub fn recycle_run(list: Vec<Value>) {
    // A panicking thread may give back after its TLS is torn down;
    // losing the list is fine then.
    let _ = RUNS.try_with(|p| p.borrow_mut().release(list));
}

/// Number of lists this thread's run pool holds.
#[cfg(test)]
pub(crate) fn pooled_runs() -> usize {
    RUNS.with(|p| p.borrow().free.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn second_acquire_reuses_released_capacity() {
        // Warm the pool on a dedicated thread so parallel tests cannot
        // interfere with the reuse observation.
        std::thread::spawn(|| {
            let mut a = acquire();
            a.extend_from_slice(&[7u8; 100]);
            let ptr = a.as_ptr();
            drop(a);
            let b = acquire();
            assert!(b.was_pooled(), "released capacity must be reused");
            assert!(b.is_empty(), "pooled buffers come back cleared");
            assert_eq!(b.as_ptr(), ptr, "same allocation round-trips");
        })
        .join()
        .unwrap();
    }

    #[test]
    fn oversized_buffers_are_not_retained() {
        let mut pool = Pool::<u8>::default();
        pool.release(Vec::with_capacity(CAP_BYTES + 1));
        assert!(pool.free.is_empty(), "beyond-cap buffer dropped");
        pool.release(Vec::with_capacity(CAP_BYTES));
        assert_eq!(pool.free.len(), 1);
    }

    #[test]
    fn retention_is_bounded() {
        let mut pool = Pool::<u8>::default();
        for _ in 0..(MAX_POOLED_BUFS + 4) {
            pool.release(Vec::with_capacity(8));
        }
        assert_eq!(pool.free.len(), MAX_POOLED_BUFS);
    }

    #[test]
    fn trim_shrinks_to_recent_high_water_mark() {
        let mut pool = Pool::default();
        // One burst-sized buffer gets retained...
        pool.release(Vec::with_capacity(4096));
        // ...then a window of small payloads establishes a low mark
        // (the burst release already opened the window).
        for _ in 0..(TRIM_WINDOW - 1) {
            let mut small = Vec::with_capacity(16);
            small.extend_from_slice(&[0u8; 10]);
            pool.release(small);
        }
        assert!(
            pool.free.iter().all(|b| b.capacity() <= 2 * 16),
            "burst capacity trimmed back toward the working size"
        );
        assert_eq!(pool.releases, 0, "trim opens a fresh window");
    }

    #[test]
    fn the_run_pool_honours_both_bounds() {
        let mut pool = Pool::<Value>::default();
        for _ in 0..(MAX_POOLED_BUFS + 4) {
            pool.release(vec![Value::Int(1); 8]);
        }
        assert_eq!(pool.free.len(), MAX_POOLED_BUFS);

        let mut pool = Pool::<Value>::default();
        let most = CAP_BYTES / std::mem::size_of::<Value>();
        pool.release(Vec::with_capacity(most + 1));
        assert!(pool.free.is_empty(), "a list above CAP_BYTES is dropped");
        pool.release(Vec::with_capacity(most));
        assert_eq!(pool.free.len(), 1);
    }

    #[test]
    fn a_run_takes_only_a_list_that_fits() {
        // A dedicated thread, so no other test's lists are in its pool.
        std::thread::spawn(|| {
            recycle_run(vec![Value::Int(3); 8192]);
            assert!(take_run(1).is_none(), "a one-element run leaves a long list alone");
            assert!(take_run(4095).is_none(), "more than FIT_FACTOR times the run");
            assert!(take_run(8193).is_none(), "too short for the run");
            let list = take_run(4096).expect("capacity 8192 fits a run of 4096");
            assert_eq!(list.len(), 8192, "handed out uncleared");
            assert!(take_run(4096).is_none(), "a list is handed out once");
            assert!(take_run(0).is_none(), "an empty run takes nothing");
        })
        .join()
        .unwrap();
    }

    #[test]
    fn clone_copies_bytes() {
        let mut a = acquire();
        a.extend_from_slice(b"payload");
        let b = a.clone();
        assert_eq!(a, b);
        assert_eq!(b.as_ref(), b"payload");
    }
}
