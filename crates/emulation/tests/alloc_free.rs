//! Proves that steady-state gossip rounds allocate nothing: message
//! payloads live in the state's retained word arena and every staging
//! buffer is kept across rounds, so once the queues and the arena have
//! grown to the run's backlog a round reuses what earlier rounds left.
//!
//! A counting wrapper around the system allocator tallies allocation
//! calls; the file contains exactly one `#[test]` so no concurrent test
//! can pollute the counter while a measured window is open. The round
//! trees are drawn before any window opens.

#![allow(
    unsafe_code,
    reason = "a counting `GlobalAlloc` wrapper is the only way to observe allocations"
)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use treecast_core::{BroadcastState, FrontierSource, RoundFaults};
use treecast_emulation::{EmulationState, GossipKnobs};
use treecast_trees::RootedTree;

struct CountingAllocator;

static CALLS: AtomicUsize = AtomicUsize::new(0);

// SAFETY: delegates everything to `System`, upholding its contract
// verbatim; the counter is a relaxed atomic with no further invariants.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        CALLS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: same layout contract as `System::alloc`, to which it delegates.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        CALLS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: same layout contract as `System::alloc_zeroed`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        CALLS.fetch_add(1, Ordering::Relaxed);
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

/// Runs `trees.len()` rounds from a fresh state and returns the number
/// of allocation calls made from round `first` (1-based) on.
fn allocations_from(trees: &[RootedTree], knobs: &GossipKnobs, first: usize) -> usize {
    let quiet = RoundFaults::quiet();
    let mut emu = EmulationState::new(trees[0].n());
    let mut before = 0;
    for (round, tree) in (1..).zip(trees) {
        if round == first {
            before = CALLS.load(Ordering::Relaxed);
        }
        emu.gossip_round(tree, &quiet, knobs);
    }
    CALLS.load(Ordering::Relaxed) - before
}

#[test]
fn steady_state_gossip_rounds_do_not_allocate() {
    let n = 256;
    let rounds = 400;
    let mut source = FrontierSource::seeded(n, 0xA110C).dense_twin(rounds as u64);
    let frozen = BroadcastState::new(n);
    let trees: Vec<RootedTree> = (0..rounds).map(|_| source.next_tree(&frozen)).collect();

    // The harness's own threads may allocate concurrently, so measure
    // three runs and keep the cleanest: a genuine per-round allocation
    // would show in every run.
    let cleanest = |knobs: &GossipKnobs, first: usize| {
        (0..3)
            .map(|_| allocations_from(&trees, knobs, first))
            .min()
            .expect("three runs measured")
    };

    // Unconstrained: every advert is answered in its round, so the
    // queues never outgrow one round's traffic.
    assert_eq!(
        cleanest(&GossipKnobs::unconstrained(), 50),
        0,
        "unconstrained rounds 50..=400 must not allocate"
    );

    // Bandwidth 8: requests back up at the servers, so queue and arena
    // capacity may still grow now and then, but no round allocates per
    // message.
    let capped = cleanest(&GossipKnobs::unconstrained().with_bandwidth(8), 200);
    assert!(
        capped <= 100,
        "bandwidth-8 rounds 200..=400 made {capped} allocations"
    );
}
