//! Proves the zero-allocation contract of the flat-bitmatrix hot paths:
//! steady-state `BoolMatrix::compose_into`, the `apply_matrix` and the
//! tree-native `apply_round` of `BroadcastState` and `TrackedTokens`
//! (rounds quiet and with dropouts), the per-round
//! `BroadcastState::disseminated_count`, and `ComposedPrefixes::next_prefix`
//! perform no heap allocation per call.
//!
//! A counting wrapper around the system allocator tallies every
//! allocation; the file contains exactly one `#[test]` so no concurrent
//! test can pollute the counter while the measured window is open.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use treecast_bitmatrix::BoolMatrix;
use treecast_core::prefix::{ComposedPrefixes, PrefixProvider};
use treecast_core::{BroadcastState, TrackedTokens};
use treecast_trees::generators;

struct CountingAllocator;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

// SAFETY: delegates everything to `System`, upholding its contract
// verbatim; the counter is a relaxed atomic with no further invariants.
unsafe impl GlobalAlloc for CountingAllocator {
    // SAFETY: same layout contract as `System::alloc`, to which it delegates.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    // SAFETY: same layout contract as `System::alloc_zeroed`.
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    // SAFETY: same pointer/layout contract as `System::realloc`.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    // SAFETY: same pointer/layout contract as `System::dealloc`.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static COUNTER: CountingAllocator = CountingAllocator;

fn allocations() -> usize {
    ALLOCATIONS.load(Ordering::Relaxed)
}

#[test]
fn steady_state_compose_and_apply_matrix_do_not_allocate() {
    let n = 257; // straddles a word boundary: stride 5, one bit in the last word
    let mut rng_state = 0x5EEDu64;
    let mut next = move || {
        rng_state ^= rng_state << 13;
        rng_state ^= rng_state >> 7;
        rng_state ^= rng_state << 17;
        rng_state
    };
    let mut a = BoolMatrix::identity(n);
    let mut b = BoolMatrix::identity(n);
    for x in 0..n {
        for y in 0..n {
            if next() % 10 == 0 {
                a.set(x, y, true);
            }
            if next() % 10 == 0 {
                b.set(x, y, true);
            }
        }
    }
    let mut out = BoolMatrix::zeros(n);
    let sparse = BoolMatrix::from_edges(n, (1..n).map(|y| (y - 1, y)));

    // compose_into with a caller-provided buffer: zero allocations, from
    // the very first call, on dense and path-shaped left operands. The
    // harness's own threads may allocate concurrently, so measure several
    // windows and require a clean one: a genuine per-call allocation
    // would taint every window with at least 20 counts.
    let clean_compose_window = (0..5)
        .map(|_| {
            let before = allocations();
            for _ in 0..10 {
                a.compose_into(&b, &mut out);
                sparse.compose_into(&b, &mut out);
            }
            allocations() - before
        })
        .min()
        .expect("five windows measured");
    assert_eq!(
        clean_compose_window, 0,
        "compose_into must not allocate — buffers are caller-provided"
    );

    // apply_matrix: the first call allocates the scratch double-buffer,
    // every later call reuses it. `b` is reflexive, so it is a legitimate
    // information-preserving round.
    let round = &b;
    let mut state = BroadcastState::new(n);
    let mut tracked_rows = TrackedTokens::new(n, &[0, 64, 128, 256]);
    state.apply_matrix(round); // warm-up: scratch buffer is created here
    tracked_rows.apply_matrix(round);
    let clean_apply_window = (0..5)
        .map(|_| {
            let before = allocations();
            for _ in 0..10 {
                state.apply_matrix(round);
                tracked_rows.apply_matrix(round);
            }
            allocations() - before
        })
        .min()
        .expect("five windows measured");
    assert_eq!(
        clean_apply_window, 0,
        "steady-state apply_matrix must reuse its scratch buffer"
    );

    // apply_round: the full state needs no buffer at all; the tracked
    // tokens grow their parent map and gather row on the first call and
    // reuse them after. Quiet and dropout rounds alternate, and the
    // dissemination count the dense engine queries every round is
    // measured with them.
    let tree = generators::caterpillar(n, 16);
    let offline = [0, 5, 64, 200];
    let mut tree_state = BroadcastState::new(n);
    let mut tracked = TrackedTokens::new(n, &[0, 64, 128, 256]);
    tracked.apply_round(&tree, &offline); // warm-up: buffers are grown here
    let mut disseminated = 0;
    let clean_round_window = (0..5)
        .map(|_| {
            let before = allocations();
            for _ in 0..10 {
                tree_state.apply(&tree);
                tree_state.apply_round(&tree, &offline);
                tracked.apply(&tree);
                tracked.apply_round(&tree, &offline);
                disseminated += tree_state.disseminated_count() + state.disseminated_count();
            }
            allocations() - before
        })
        .min()
        .expect("five windows measured");
    assert_eq!(
        clean_round_window, 0,
        "steady-state apply_round and disseminated_count must not allocate"
    );

    // next_prefix: one state round plus the mask into retained buffers,
    // first over the schedule, then on its repeat-last tail.
    let mut prefixes = ComposedPrefixes::new(vec![generators::star(n), tree.clone()]);
    let mut prefix_tokens = 0;
    let clean_prefix_window = (0..5)
        .map(|_| {
            let before = allocations();
            for _ in 0..10 {
                let prefix = prefixes.next_prefix().expect("schedules repeat forever");
                prefix_tokens += prefix.disseminated.len();
            }
            allocations() - before
        })
        .min()
        .expect("five windows measured");
    assert_eq!(
        clean_prefix_window, 0,
        "steady-state next_prefix must not allocate"
    );

    // Keep the results observable so the loops cannot be optimized away.
    assert!(out.edge_count() > 0);
    assert!(state.edge_count() > 0);
    assert!(disseminated > 0);
    assert!(prefix_tokens > 0);
    assert!(tracked.holders(0).len() > 1);
    assert!(tracked_rows.holders(0).len() > 1);
}
