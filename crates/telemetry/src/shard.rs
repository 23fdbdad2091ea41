//! Per-thread shards of statistics that many threads update and few
//! read.
//!
//! A [`PerThread`] keeps one shard per thread that has updated it. A
//! thread takes a small slot number on its first update of any
//! `PerThread`, keeps it for its life and gives it back when it exits.
//! Shard `slot` of every `PerThread` is written by that thread alone, so
//! an update is a plain load and store ([`Add::Owned`]) instead of a
//! lock-prefixed read-modify-write on a cache line every thread shares.
//! Readers sum the shards below a high-water mark: one shard per slot
//! that has touched the value, not [`MAX_SHARDS`].
//!
//! Threads beyond [`MAX_SHARDS`] alive at once share one overflow
//! shard, updated with `fetch_add` ([`Add::Shared`]), so totals stay
//! exact for any number of threads.
//!
//! Counts and charges are statistics that publish no other data, so
//! every update and read of a shard's atomics is `Relaxed`; only the
//! high-water mark orders (a `Release` when a shard is created, an
//! `Acquire` when a reader loads it).
//!
//! # Example
//!
//! ```
//! use std::sync::atomic::{AtomicU64, Ordering};
//! use telemetry::shard::PerThread;
//!
//! let hits: PerThread<AtomicU64> = PerThread::new();
//! std::thread::scope(|s| {
//!     for _ in 0..4 {
//!         s.spawn(|| hits.update(|shard, add| add.to(shard, 1)));
//!     }
//! });
//! assert_eq!(hits.sum(|shard| shard.load(Ordering::Relaxed)), 4);
//! ```

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Slots handed to live threads; any further live thread writes the
/// overflow shard. Slots are bits of one `u64`.
pub const MAX_SHARDS: usize = 64;

/// A thread that has updated nothing yet.
const UNCLAIMED: usize = usize::MAX;
/// A thread that writes the overflow shard.
const OVERFLOW: usize = MAX_SHARDS;

/// Bit `i` set: slot `i` belongs to a live thread.
static TAKEN: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// This thread's slot, [`UNCLAIMED`] or [`OVERFLOW`].
    static SLOT: Cell<usize> = const { Cell::new(UNCLAIMED) };
    /// Gives the slot back when the thread exits.
    static RELEASE: Release = const { Release };
}

struct Release;

impl Drop for Release {
    fn drop(&mut self) {
        // Destructors that run after this one may still record: point
        // them at the overflow shard before another thread can take
        // the number.
        let slot = SLOT.with(|s| s.replace(OVERFLOW));
        if slot < MAX_SHARDS {
            TAKEN.fetch_and(!(1u64 << slot), Ordering::Release);
        }
    }
}

/// This thread's slot, claimed on its first call.
#[inline]
fn slot() -> usize {
    match SLOT.get() {
        UNCLAIMED => claim(),
        slot => slot,
    }
}

/// Takes the lowest free slot, or the overflow shard when every slot
/// is taken or the thread is already exiting (its slot could never be
/// given back).
#[cold]
fn claim() -> usize {
    let slot = if RELEASE.try_with(|_| ()).is_err() {
        OVERFLOW
    } else {
        // `t | (t + 1)` sets the lowest clear bit. The `Acquire` pairs
        // with a released slot's `Release`, so this thread's first
        // load of a shard sees the previous owner's last store.
        match TAKEN.fetch_update(Ordering::AcqRel, Ordering::Acquire, |t| {
            (t != u64::MAX).then_some(t | t.wrapping_add(1))
        }) {
            Ok(taken) => (!taken).trailing_zeros() as usize,
            Err(_) => OVERFLOW,
        }
    };
    SLOT.set(slot);
    slot
}

/// How an update writes a shard's atomics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Add {
    /// The calling thread is the shard's only writer: a plain load and
    /// store.
    Owned,
    /// Threads share the shard (the overflow shard): `fetch_add`.
    Shared,
}

impl Add {
    /// Adds `delta` to `cell`, wrapping at `u64::MAX` like `fetch_add`.
    #[inline]
    pub fn to(self, cell: &AtomicU64, delta: u64) {
        match self {
            Add::Owned => {
                cell.store(cell.load(Ordering::Relaxed).wrapping_add(delta), Ordering::Relaxed)
            }
            Add::Shared => {
                cell.fetch_add(delta, Ordering::Relaxed);
            }
        }
    }
}

/// One `T` per thread that has updated it, created on that thread's
/// first update (`T::default()`), plus an overflow `T` created on the
/// first update from a thread without a slot.
///
/// A `T` that holds a large block should allocate it on the heap in
/// `default` (see `Recorder`'s shard), so creating a shard copies
/// nothing through the stack.
pub struct PerThread<T> {
    shards: [OnceLock<T>; MAX_SHARDS],
    overflow: OnceLock<T>,
    /// One past the highest slot whose shard exists.
    high: AtomicUsize,
}

impl<T> std::fmt::Debug for PerThread<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PerThread")
            .field("high", &self.high.load(Ordering::Relaxed))
            .finish_non_exhaustive()
    }
}

impl<T: Default> Default for PerThread<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: Default> PerThread<T> {
    /// No shard yet; each is created on its thread's first update.
    pub fn new() -> Self {
        PerThread {
            shards: std::array::from_fn(|_| OnceLock::new()),
            overflow: OnceLock::new(),
            high: AtomicUsize::new(0),
        }
    }

    /// Runs `f` on the calling thread's shard, with the way `f` must
    /// write it.
    #[inline]
    pub fn update<R>(&self, f: impl FnOnce(&T, Add) -> R) -> R {
        let slot = slot();
        match self.shards.get(slot) {
            Some(cell) => f(cell.get().unwrap_or_else(|| self.create(slot)), Add::Owned),
            None => f(self.overflow.get_or_init(T::default), Add::Shared),
        }
    }

    /// Creates shard `slot` on its owner's first update.
    #[cold]
    fn create(&self, slot: usize) -> &T {
        let shard = self.shards[slot].get_or_init(T::default);
        self.high.fetch_max(slot + 1, Ordering::Release);
        shard
    }
}

impl<T> PerThread<T> {
    /// Calls `f` on every shard that exists, overflow last.
    pub(crate) fn for_each(&self, mut f: impl FnMut(&T)) {
        let high = self.high.load(Ordering::Acquire);
        self.shards[..high].iter().filter_map(OnceLock::get).for_each(&mut f);
        if let Some(shard) = self.overflow.get() {
            f(shard);
        }
    }

    /// Sums `read` over every shard, wrapping like the updates do.
    pub fn sum(&self, read: impl Fn(&T) -> u64) -> u64 {
        let mut total = 0u64;
        self.for_each(|shard| total = total.wrapping_add(read(shard)));
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Barrier, Mutex};

    /// Held by the tests that fill every slot or need one, so that
    /// neither runs while the other holds its threads.
    static SLOTS: Mutex<()> = Mutex::new(());

    fn total(counts: &PerThread<AtomicU64>) -> u64 {
        counts.sum(|shard| shard.load(Ordering::Relaxed))
    }

    #[test]
    fn a_thread_keeps_its_slot_and_writes_one_shard() {
        let _slots = SLOTS.lock().unwrap_or_else(|e| e.into_inner());
        std::thread::spawn(|| {
            let counts = PerThread::<AtomicU64>::new();
            let first = slot();
            for _ in 0..10 {
                counts.update(|shard, add| {
                    assert_eq!(add, Add::Owned);
                    add.to(shard, 3);
                });
            }
            assert_eq!(slot(), first);
            assert_eq!(counts.high.load(Ordering::Relaxed), first + 1);
            assert_eq!(total(&counts), 30);
        })
        .join()
        .unwrap();
    }

    #[test]
    fn threads_beyond_the_slots_share_the_overflow_shard() {
        let _slots = SLOTS.lock().unwrap_or_else(|e| e.into_inner());
        let counts = PerThread::<AtomicU64>::new();
        let threads = MAX_SHARDS + 4;
        let barrier = Barrier::new(threads);
        std::thread::scope(|s| {
            for _ in 0..threads {
                s.spawn(|| {
                    // Every thread holds its slot until all have one.
                    counts.update(|shard, add| add.to(shard, 1));
                    barrier.wait();
                    counts.update(|shard, add| add.to(shard, 1));
                });
            }
        });
        assert_eq!(total(&counts), 2 * threads as u64);
        assert!(counts.overflow.get().is_some(), "at least four threads found no slot");
    }

    #[test]
    fn shared_adds_wrap_like_owned_ones() {
        let cell = AtomicU64::new(u64::MAX);
        Add::Owned.to(&cell, 2);
        assert_eq!(cell.load(Ordering::Relaxed), 1);
        Add::Shared.to(&cell, u64::MAX);
        assert_eq!(cell.load(Ordering::Relaxed), 0);
    }
}
