//! Proves the allocation contract of [`HybridRow`]: a row whose sparse
//! list was pre-reserved at construction performs **zero** heap
//! allocations for inserts, removes, membership tests, and iteration while
//! it stays sparse, and exactly the promotion's allocations (the dense
//! word vector) when it crosses the threshold. This is what keeps
//! steady-state frontier rounds allocation-free.
//!
//! A counting wrapper around the system allocator tallies every
//! allocation; the file contains exactly one `#[test]` so no concurrent
//! test can pollute the counter while the measured window is open.

#![allow(
    unsafe_code,
    reason = "a counting `GlobalAlloc` wrapper is the only way to observe allocations"
)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use treecast_bitmatrix::{hybrid_threshold, HybridRow};

struct CountingAllocator;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

// SAFETY: delegates everything to `System`, upholding its contract
// verbatim; the counter is a relaxed atomic with no further invariants.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: same layout contract as `System::alloc`, to which it delegates.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: same layout contract as `System::alloc_zeroed`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
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

fn allocations() -> usize {
    ALLOCATIONS.load(Ordering::Relaxed)
}

#[test]
fn sparse_rows_allocate_only_on_promotion() {
    let n = 100_000;
    let t = hybrid_threshold(n);

    // Steady-state sparse churn: fill to the threshold, then cycle
    // remove + reinsert. The capacity was reserved by `new`, so none of
    // this may touch the allocator. The harness's own threads may allocate
    // concurrently, so measure several windows and require a clean one: a
    // genuine per-op allocation would taint every window with hundreds of
    // counts.
    let mut row = HybridRow::new(n);
    let clean_sparse_window = (0..5)
        .map(|_| {
            let before = allocations();
            for e in 0..t {
                row.insert(e * 3);
            }
            assert!(row.is_sparse());
            for _ in 0..10 {
                for e in 0..t {
                    row.remove(e * 3);
                    row.insert(e * 3);
                    assert!(row.contains(e * 3));
                }
            }
            let sum: usize = row.iter().sum();
            assert!(sum > 0, "keep iteration observable");
            for e in 0..t {
                row.remove(e * 3);
            }
            assert!(row.is_empty());
            allocations() - before
        })
        .min()
        .expect("five windows measured");
    assert_eq!(
        clean_sparse_window, 0,
        "sparse inserts/removes/iteration must not allocate — capacity is \
         reserved at construction"
    );

    // Crossing the threshold allocates (the dense word vector), after
    // which dense churn over the same elements is allocation-free again.
    for e in 0..t {
        row.insert(e);
    }
    let before_promotion = allocations();
    row.insert(t);
    assert!(row.is_dense());
    assert!(
        allocations() > before_promotion,
        "promotion materializes dense words, which must allocate"
    );

    let clean_dense_window = (0..5)
        .map(|_| {
            let before = allocations();
            for _ in 0..10 {
                for e in 0..=t {
                    row.remove(e);
                    row.insert(e);
                }
            }
            allocations() - before
        })
        .min()
        .expect("five windows measured");
    assert_eq!(
        clean_dense_window, 0,
        "dense inserts/removes must not allocate"
    );
    assert_eq!(row.len(), t + 1);
}
