//! Proves that a warm `CachedPrefixes::next_prefix` round allocates
//! nothing: with every prefix of the schedule cached, a round is a tree
//! hash, one shard lookup and an `Arc` clone.
//!
//! A counting wrapper around the system allocator tallies every allocated
//! byte; the file contains exactly one `#[test]` so no concurrent test can
//! pollute the counter while the measured window is open.

#![allow(
    unsafe_code,
    reason = "a counting `GlobalAlloc` wrapper is the only way to observe allocations"
)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use rand::rngs::StdRng;
use rand::SeedableRng;
use treecast_core::prefix::PrefixProvider;
use treecast_server::{CacheConfig, CachedPrefixes, PrefixCache};
use treecast_trees::{random, RootedTree};

struct CountingAllocator;

static BYTES: AtomicUsize = AtomicUsize::new(0);

// SAFETY: delegates everything to `System`, upholding its contract
// verbatim; the counter is a relaxed atomic with no further invariants.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        BYTES.fetch_add(layout.size(), Ordering::Relaxed);
        // SAFETY: same layout contract as `System::alloc`, to which it delegates.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        BYTES.fetch_add(layout.size(), Ordering::Relaxed);
        // SAFETY: same layout contract as `System::alloc_zeroed`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        BYTES.fetch_add(new_size, Ordering::Relaxed);
        // SAFETY: same pointer/layout contract as `System::realloc`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: same pointer/layout contract as `System::dealloc`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static COUNTER: CountingAllocator = CountingAllocator;

fn allocated_bytes() -> usize {
    BYTES.load(Ordering::Relaxed)
}

#[test]
fn warm_next_prefix_rounds_allocate_nothing() {
    let n = 130;
    let mut rng = StdRng::seed_from_u64(0xA110C);
    let trees: Vec<RootedTree> = (0..6).map(|_| random::uniform(n, &mut rng)).collect();
    // Past the schedule's end, so the repeat-last tail is measured too.
    let rounds = 2 * trees.len();
    let cache = PrefixCache::new(CacheConfig::default());
    let mut cold = CachedPrefixes::new(&trees, &cache);
    for _ in 0..rounds {
        let _ = cold.next_prefix();
    }
    let primed = cache.stats();

    // The harness's own threads may allocate concurrently, so measure
    // several windows and require a clean one: a genuine per-round
    // allocation would taint every window.
    let mut served = 0;
    let clean_window = (0..5)
        .map(|_| {
            let mut warm = CachedPrefixes::new(&trees, &cache);
            let before = allocated_bytes();
            for _ in 0..rounds {
                let prefix = warm.next_prefix().expect("schedules repeat forever");
                served += prefix.disseminated.len();
            }
            allocated_bytes() - before
        })
        .min()
        .expect("five windows measured");
    assert_eq!(
        clean_window, 0,
        "a warm next_prefix round must not allocate"
    );

    let stats = cache.stats();
    assert_eq!(stats.misses, primed.misses, "every measured round was warm");
    assert_eq!(stats.hits, primed.hits + 5 * rounds as u64);
    assert!(served > 0);
}
