//! The sharded prefix-product cache: `(fingerprint, round) → prefix
//! entry`, N shards, per-shard LRU with byte-budget eviction.
//!
//! * **Sharding** — the shard of a key is `splitmix64(fingerprint) %
//!   shards` (re-mixed so the chain's own structure cannot skew the
//!   distribution). One `Mutex` per shard keeps worker threads off each
//!   other's hot keys.
//! * **Entries** — an [`Arc`]`<`[`PrefixEntry`]`>` holding the heard-view
//!   product `R(t)` *and* its memoized disseminated mask, so a warm
//!   round costs a hash lookup plus one popcount instead of an
//!   `O(n²/64)` tree step and scan.
//! * **Eviction** — true LRU via an intrusive doubly-linked list over a
//!   slot arena; every insert charges
//!   `BoolMatrix::heap_bytes + BitSet::heap_bytes + ENTRY_OVERHEAD`
//!   against the shard's slice of the byte budget and evicts from the
//!   tail until back under it. A budget of 0 therefore caches nothing —
//!   the "uncached" baseline the bench gate compares against.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use treecast_bitmatrix::{BitSet, BoolMatrix};
use treecast_core::prefix::disseminated_mask;
use treecast_core::splitmix64;

/// Fixed per-entry bookkeeping charge (slot, map entry, Arc) added to the
/// heap bytes of the matrix and mask.
pub const ENTRY_OVERHEAD_BYTES: usize = 64;

/// A cached prefix product: the heard-view matrix and its memoized
/// disseminated-token mask.
#[derive(Debug)]
pub struct PrefixEntry {
    heard: BoolMatrix,
    disseminated: BitSet,
}

impl PrefixEntry {
    /// An entry for the product `heard`, computing the mask once.
    #[must_use]
    pub fn new(heard: BoolMatrix) -> Self {
        let mut disseminated = BitSet::new(heard.n());
        disseminated_mask(&heard, &mut disseminated);
        PrefixEntry {
            heard,
            disseminated,
        }
    }

    /// The heard-view prefix product `R(t)`.
    #[must_use]
    pub fn heard(&self) -> &BoolMatrix {
        &self.heard
    }

    /// The disseminated-token mask (AND of all `heard` rows).
    #[must_use]
    pub fn disseminated(&self) -> &BitSet {
        &self.disseminated
    }

    /// The bytes this entry charges against the budget.
    #[must_use]
    pub fn cost_bytes(&self) -> usize {
        self.heard.heap_bytes() + self.disseminated.heap_bytes() + ENTRY_OVERHEAD_BYTES
    }
}

/// Cache geometry: shard count and the *total* byte budget (split evenly
/// across shards).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Number of independently locked shards.
    pub shards: usize,
    /// Total byte budget across all shards; 0 disables caching.
    pub byte_budget: usize,
}

impl Default for CacheConfig {
    fn default() -> Self {
        CacheConfig {
            shards: 16,
            byte_budget: 256 << 20,
        }
    }
}

impl CacheConfig {
    /// A config caching nothing — the uncached baseline.
    #[must_use]
    pub fn disabled() -> Self {
        CacheConfig {
            shards: 1,
            byte_budget: 0,
        }
    }
}

/// Point-in-time cache counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct CacheStats {
    /// Lookups that found their key.
    pub hits: u64,
    /// Lookups that did not.
    pub misses: u64,
    /// Entries currently resident.
    pub entries: usize,
    /// Bytes currently charged.
    pub bytes: usize,
}

impl CacheStats {
    /// Hits as a fraction of all lookups (0 when none happened).
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

type Key = (u64, u64);

const NIL: usize = usize::MAX;

struct Slot {
    key: Key,
    entry: Arc<PrefixEntry>,
    bytes: usize,
    prev: usize,
    next: usize,
}

/// One shard: key map + slot arena + intrusive LRU list (head = MRU).
#[derive(Default)]
struct Shard {
    map: HashMap<Key, usize>,
    slots: Vec<Option<Slot>>,
    free: Vec<usize>,
    head: usize,
    tail: usize,
    bytes: usize,
}

impl Shard {
    fn new() -> Self {
        Shard {
            head: NIL,
            tail: NIL,
            ..Shard::default()
        }
    }

    #[expect(
        clippy::expect_used,
        reason = "an LRU link to a vacant slot is arena corruption; serving from a corrupt cache would be worse than dying."
    )]
    fn slot(&self, i: usize) -> &Slot {
        self.slots[i].as_ref().expect("linked slot must be live")
    }

    #[expect(clippy::expect_used, reason = "see `slot` — corrupt arena must abort.")]
    fn slot_mut(&mut self, i: usize) -> &mut Slot {
        self.slots[i].as_mut().expect("linked slot must be live")
    }

    fn unlink(&mut self, i: usize) {
        let (prev, next) = {
            let s = self.slot(i);
            (s.prev, s.next)
        };
        match prev {
            NIL => self.head = next,
            p => self.slot_mut(p).next = next,
        }
        match next {
            NIL => self.tail = prev,
            x => self.slot_mut(x).prev = prev,
        }
    }

    fn push_front(&mut self, i: usize) {
        let old_head = self.head;
        {
            let s = self.slot_mut(i);
            s.prev = NIL;
            s.next = old_head;
        }
        match old_head {
            NIL => self.tail = i,
            h => self.slot_mut(h).prev = i,
        }
        self.head = i;
    }

    fn touch(&mut self, i: usize) {
        if self.head != i {
            self.unlink(i);
            self.push_front(i);
        }
    }

    fn evict_tail(&mut self) {
        let i = self.tail;
        if i == NIL {
            return;
        }
        self.unlink(i);
        #[expect(clippy::expect_used, reason = "see `slot` — corrupt arena must abort.")]
        let slot = self.slots[i].take().expect("tail slot must be live");
        self.map.remove(&slot.key);
        self.bytes -= slot.bytes;
        self.free.push(i);
    }

    fn insert(&mut self, key: Key, entry: Arc<PrefixEntry>, budget: usize) {
        if let Some(&i) = self.map.get(&key) {
            // Concurrent workers can race to fill the same key; the first
            // wins and the duplicate is dropped as a touch.
            self.touch(i);
            return;
        }
        let bytes = entry.cost_bytes();
        let slot = Slot {
            key,
            entry,
            bytes,
            prev: NIL,
            next: NIL,
        };
        let i = match self.free.pop() {
            Some(i) => {
                self.slots[i] = Some(slot);
                i
            }
            None => {
                self.slots.push(Some(slot));
                self.slots.len() - 1
            }
        };
        self.map.insert(key, i);
        self.push_front(i);
        self.bytes += bytes;
        // Byte-budget eviction from the LRU tail; an entry alone above
        // the budget evicts straight back out (budget 0 caches nothing).
        while self.bytes > budget && self.tail != NIL {
            self.evict_tail();
        }
    }
}

/// The sharded `(fingerprint, round) → Arc<PrefixEntry>` cache.
pub struct PrefixCache {
    shards: Vec<Mutex<Shard>>,
    budget_per_shard: usize,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl PrefixCache {
    /// A cache with the given geometry.
    ///
    /// # Panics
    ///
    /// Panics if `config.shards == 0`.
    #[must_use]
    pub fn new(config: CacheConfig) -> Self {
        assert!(config.shards >= 1, "need at least one shard");
        PrefixCache {
            shards: (0..config.shards)
                .map(|_| Mutex::new(Shard::new()))
                .collect(),
            budget_per_shard: config.byte_budget / config.shards,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// The shard index of a fingerprint (re-mixed, then reduced).
    #[must_use]
    pub fn shard_of(&self, fingerprint: u64) -> usize {
        (splitmix64(fingerprint) % self.shards.len() as u64) as usize
    }

    /// Looks up the prefix product of `(fingerprint, round)`, counting a
    /// hit or miss and refreshing recency on hit.
    #[must_use]
    pub fn get(&self, fingerprint: u64, round: u64) -> Option<Arc<PrefixEntry>> {
        // A poisoned shard means a worker died inside the intrusive list;
        // its state cannot be trusted, so propagate the abort.
        #[expect(clippy::expect_used, reason = "poisoned shard propagates")]
        let mut shard = self.shards[self.shard_of(fingerprint)]
            .lock()
            .expect("cache shard poisoned");
        match shard.map.get(&(fingerprint, round)).copied() {
            Some(i) => {
                shard.touch(i);
                let entry = Arc::clone(&shard.slot(i).entry);
                drop(shard);
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(entry)
            }
            None => {
                drop(shard);
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Inserts a freshly stepped prefix product, evicting LRU entries
    /// past the shard's byte budget.
    pub fn insert(&self, fingerprint: u64, round: u64, entry: Arc<PrefixEntry>) {
        let budget = self.budget_per_shard;
        #[expect(
            clippy::expect_used,
            reason = "see `get` — a poisoned shard propagates."
        )]
        self.shards[self.shard_of(fingerprint)]
            .lock()
            .expect("cache shard poisoned")
            .insert((fingerprint, round), entry, budget);
    }

    /// Current counters, summed over shards.
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        let mut entries = 0;
        let mut bytes = 0;
        for shard in &self.shards {
            #[expect(
                clippy::expect_used,
                reason = "see `get` — a poisoned shard propagates."
            )]
            let s = shard.lock().expect("cache shard poisoned");
            entries += s.map.len();
            bytes += s.bytes;
        }
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            entries,
            bytes,
        }
    }

    /// Checks the structural invariants of every shard; a noop in
    /// release builds.
    ///
    /// Per shard: walking the intrusive LRU list head→tail visits each
    /// live slot exactly once with symmetric `prev`/`next` links, the
    /// list length equals both the map size and the live-slot count, the
    /// map points at live slots whose keys match, free-list slots are
    /// vacant, and the cached byte counter equals the sum of live slot
    /// charges.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if any invariant is violated, and in all
    /// builds if a shard mutex is poisoned.
    pub fn debug_validate(&self) {
        #[cfg(debug_assertions)]
        for (si, shard) in self.shards.iter().enumerate() {
            #[expect(
                clippy::expect_used,
                reason = "see `get` — a poisoned shard propagates."
            )]
            let s = shard.lock().expect("cache shard poisoned");
            let live: Vec<usize> = (0..s.slots.len())
                .filter(|&i| s.slots[i].is_some())
                .collect();
            let mut walked = std::collections::HashSet::new();
            let mut bytes = 0usize;
            let mut prev = NIL;
            let mut i = s.head;
            while i != NIL {
                assert!(
                    walked.insert(i),
                    "shard {si}: LRU list revisits slot {i} (cycle)"
                );
                #[expect(clippy::panic, reason = "this IS the invariant checker.")]
                let slot = s.slots[i]
                    .as_ref()
                    .unwrap_or_else(|| panic!("shard {si}: LRU list links vacant slot {i}"));
                assert_eq!(slot.prev, prev, "shard {si}: asymmetric prev link at {i}");
                assert_eq!(
                    s.map.get(&slot.key).copied(),
                    Some(i),
                    "shard {si}: map entry for slot {i} missing or misdirected"
                );
                bytes += slot.bytes;
                prev = i;
                i = slot.next;
            }
            assert_eq!(s.tail, prev, "shard {si}: tail does not end the list");
            assert_eq!(
                walked.len(),
                live.len(),
                "shard {si}: live slots unreachable from the LRU list"
            );
            assert_eq!(
                walked.len(),
                s.map.len(),
                "shard {si}: map size disagrees with the LRU list"
            );
            assert_eq!(
                bytes, s.bytes,
                "shard {si}: cached byte counter disagrees with the slot sum"
            );
            for &f in &s.free {
                assert!(
                    s.slots[f].is_none(),
                    "shard {si}: free-list slot {f} still live"
                );
            }
        }
    }
}

impl std::fmt::Debug for PrefixCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PrefixCache")
            .field("shards", &self.shards.len())
            .field("budget_per_shard", &self.budget_per_shard)
            .field("stats", &self.stats())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(n: usize) -> Arc<PrefixEntry> {
        Arc::new(PrefixEntry::new(BoolMatrix::identity(n)))
    }

    fn cache(shards: usize, byte_budget: usize) -> PrefixCache {
        PrefixCache::new(CacheConfig {
            shards,
            byte_budget,
        })
    }

    #[test]
    fn hit_and_miss_counters() {
        let c = cache(4, 1 << 20);
        assert!(c.get(1, 1).is_none());
        c.insert(1, 1, entry(8));
        assert!(c.get(1, 1).is_some());
        let stats = c.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (1, 1, 1));
        assert!(stats.bytes > 0);
        assert!((stats.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn lru_evicts_the_least_recent_at_the_byte_budget() {
        // One shard; budget fits exactly two n = 8 entries.
        let two = 2 * entry(8).cost_bytes();
        let c = cache(1, two);
        c.insert(1, 1, entry(8));
        c.insert(2, 1, entry(8));
        // Touch key 1 so key 2 is the LRU victim.
        assert!(c.get(1, 1).is_some());
        c.insert(3, 1, entry(8));
        assert!(c.get(1, 1).is_some(), "recently touched entry survives");
        assert!(c.get(2, 1).is_none(), "LRU entry evicted at the budget");
        assert!(c.get(3, 1).is_some());
        let stats = c.stats();
        assert_eq!(stats.entries, 2);
        assert!(stats.bytes <= two);
    }

    #[test]
    fn zero_budget_caches_nothing() {
        let c = cache(2, 0);
        c.insert(7, 3, entry(8));
        assert!(c.get(7, 3).is_none());
        assert_eq!(c.stats().entries, 0);
        assert_eq!(c.stats().bytes, 0);
    }

    #[test]
    fn round_is_part_of_the_key() {
        // Fingerprint collisions cannot cross rounds: the same fp at
        // different rounds stays two distinct entries.
        let c = cache(4, 1 << 20);
        let a = Arc::new(PrefixEntry::new(BoolMatrix::identity(8)));
        let b = Arc::new(PrefixEntry::new(BoolMatrix::ones(8)));
        c.insert(42, 1, Arc::clone(&a));
        c.insert(42, 2, Arc::clone(&b));
        assert!(Arc::ptr_eq(&c.get(42, 1).unwrap(), &a));
        assert!(Arc::ptr_eq(&c.get(42, 2).unwrap(), &b));
    }

    #[test]
    fn first_insert_wins_a_fill_race() {
        let c = cache(1, 1 << 20);
        let a = entry(8);
        let b = entry(8);
        c.insert(5, 1, Arc::clone(&a));
        c.insert(5, 1, b);
        assert!(Arc::ptr_eq(&c.get(5, 1).unwrap(), &a));
        assert_eq!(c.stats().entries, 1);
    }

    #[test]
    fn shards_spread_fingerprints() {
        // Chained fingerprints must not pile onto one shard: over 256
        // random-ish fingerprints and 8 shards, every shard sees some and
        // no shard sees more than half.
        let c = cache(8, 1 << 24);
        for i in 0..256u64 {
            c.insert(splitmix64(i), 1, entry(4));
        }
        let sizes: Vec<usize> = c
            .shards
            .iter()
            .map(|s| s.lock().unwrap().map.len())
            .collect();
        assert_eq!(sizes.len(), 8);
        assert_eq!(sizes.iter().sum::<usize>(), 256);
        assert!(sizes.iter().all(|&s| s > 0), "empty shard: {sizes:?}");
        assert!(sizes.iter().all(|&s| s < 128), "skewed shard: {sizes:?}");
    }

    #[test]
    fn entry_memoizes_the_disseminated_mask() {
        let mut m = BoolMatrix::ones(5);
        m.set(3, 2, false);
        let e = PrefixEntry::new(m);
        assert_eq!(
            e.disseminated().iter().collect::<Vec<_>>(),
            vec![0, 1, 3, 4]
        );
        assert_eq!(
            e.cost_bytes(),
            e.heard().heap_bytes() + e.disseminated().heap_bytes() + ENTRY_OVERHEAD_BYTES
        );
    }

    #[test]
    fn eviction_recycles_slots() {
        let one = entry(8).cost_bytes();
        let c = cache(1, one);
        for fp in 0..64u64 {
            c.insert(fp, 1, entry(8));
        }
        let stats = c.stats();
        assert_eq!(stats.entries, 1, "only the newest entry fits");
        assert!(c.get(63, 1).is_some());
    }
}
