//! Proves the allocation contract of seeded tree sampling: once the tree's
//! buffers have grown to `n`, `random::uniform_into` and the seeded
//! `FrontierSource::next_round` (which samples into its retained tree)
//! allocate zero bytes per call, a lazy children-index build after the
//! draw included — and so does a whole seeded frontier round,
//! `next_round` plus `FrontierState::apply_round` over 16 tokens.
//!
//! A counting wrapper around the system allocator tallies every
//! allocation and its size; the file contains exactly one `#[test]` so no
//! concurrent test can pollute the counters while a window is open.

#![allow(
    clippy::expect_used,
    reason = "test helper outside a #[test] fn: a failed setup aborts the test"
)]
#![allow(
    unsafe_code,
    reason = "a counting `GlobalAlloc` wrapper is the only way to observe allocations"
)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use rand::rngs::StdRng;
use rand::SeedableRng;
use treecast_core::{FrontierSource, FrontierState};
use treecast_trees::random;

struct CountingAllocator;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);
static BYTES: AtomicUsize = AtomicUsize::new(0);

fn count(size: usize) {
    ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    BYTES.fetch_add(size, Ordering::Relaxed);
}

// SAFETY: delegates everything to `System`, upholding its contract
// verbatim; the counters are relaxed atomics with no further invariants.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: same layout contract as `System::alloc`, to which it delegates.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: same layout contract as `System::alloc_zeroed`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
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

/// `(allocations, bytes)` in the cleanest of five windows of ten calls.
/// The harness's own threads may allocate concurrently, so one clean
/// window is the proof; a genuine per-call allocation taints every window.
fn cleanest_window(mut call: impl FnMut()) -> (usize, usize) {
    (0..5)
        .map(|_| {
            let (a, b) = (
                ALLOCATIONS.load(Ordering::Relaxed),
                BYTES.load(Ordering::Relaxed),
            );
            for _ in 0..10 {
                call();
            }
            (
                ALLOCATIONS.load(Ordering::Relaxed) - a,
                BYTES.load(Ordering::Relaxed) - b,
            )
        })
        .min()
        .expect("five windows measured")
}

#[test]
fn steady_state_sampling_does_not_allocate() {
    for n in [1usize, 2, 3, 257, 4096] {
        let mut rng = StdRng::seed_from_u64(n as u64);
        let mut tree = random::uniform(n, &mut rng); // warm-up: buffers grow here
        let mut roots = 0;
        let window = cleanest_window(|| {
            random::uniform_into(&mut tree, n, &mut rng);
            roots += tree.root();
        });
        assert_eq!(
            window,
            (0, 0),
            "uniform_into at n = {n} must reuse its buffers"
        );
        assert!(roots < 50 * n, "keep the draws observable");

        let mut source = FrontierSource::seeded(n, 7);
        source.next_round(n, None); // warm-up: the retained tree is built here
                                    // `leaf_count` builds each drawn tree's children index lazily,
                                    // into the buffers the previous tree's index left behind.
        let mut leaves = 0;
        let window = cleanest_window(|| {
            leaves += source.next_round(n, None).tree.leaf_count();
        });
        assert_eq!(
            window,
            (0, 0),
            "seeded next_round at n = {n} must sample into its retained tree"
        );
        assert!(leaves > 0);

        // Seeded rounds on the frontier engine with k = 16 tokens (fewer
        // below n = 16). One loss per round keeps the tokens stepping
        // instead of idling once disseminated. The warm-up grows every
        // buffer and promotes the holder rows.
        let k = n.min(16);
        let sources: Vec<usize> = (0..k).map(|i| i * n / k).collect();
        let mut state = FrontierState::new(n, &sources);
        let mut victim = 0;
        let mut round = |state: &mut FrontierState| {
            let r = source.next_round(n, None);
            state.apply_round(r.tree, r.delta, &[]);
            victim = (victim + 7919) % n;
            state.forget(victim);
        };
        for _ in 0..64 {
            round(&mut state);
        }
        let window = cleanest_window(|| round(&mut state));
        assert_eq!(
            window,
            (0, 0),
            "seeded frontier rounds at n = {n}, k = {k} must reuse their buffers"
        );
        assert!(state.round() > 64);
    }
}
