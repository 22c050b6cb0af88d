//! The gossip protocol: per-peer FIFO message queues whose token
//! payloads live in one retained word arena, scenario knobs, and the
//! five-phase round step.
//!
//! One [`EmulationState`] holds `n` peers; peer `v` starts holding only
//! its own token `v`. Where the synchronous engines union whole
//! heard-from rows in one `state.apply(tree)` step, the emulation moves
//! tokens with explicit messages, in five phases per round:
//!
//! 1. **advert** — every online peer offers a snapshot of its holdings
//!    to its online children in the round tree, at most
//!    [`GossipKnobs::fanout`] children per round (the start child
//!    rotates with the round index, so no child starves under a cap);
//! 2. **request** — every online peer works through its advert queue
//!    (at most [`GossipKnobs::batch`] messages) and asks each
//!    advertiser for the offered tokens it misses (one parent per tree
//!    means at most one advert per round, so no two requests of one
//!    round ask for the same token);
//! 3. **serve** — every online peer answers its request queue (batch
//!    cap again; at most [`GossipKnobs::bandwidth`] token payloads per
//!    round; [`GossipKnobs::discipline`] picks the order), re-queueing
//!    the unsent remainder of a partially served grant at the front of
//!    its queue;
//! 4. **integrate** — every peer unions the tokens delivered to it this
//!    round into its holdings;
//! 5. **lose** — the round's loss victims forget every foreign token
//!    (their message queues survive: loss is a memory fault, not a
//!    network fault).
//!
//! With every knob unconstrained a round collapses to "each child gains
//! exactly its parent's start-of-round holdings" — the synchronous
//! [`treecast_core::BroadcastState::apply`] step — and every queue is
//! empty again at the round boundary. That collapse is the crate's
//! pinning differential (see `tests/differential.rs`). With caps on,
//! adverts and requests genuinely persist in the FIFO queues across
//! rounds and dissemination lags the synchronous model; the lag is what
//! experiment E15 measures.
//!
//! # Payload arena
//!
//! A message payload is a token set over `{0, …, n−1}`: one slot of
//! `⌈n/64⌉` words in a single retained arena, and the queues hold
//! `(sender, slot)` pairs. A slot is taken when an advert copies its
//! sender's holdings, and lives on as that advert's request (masked in
//! place) and then as the grant (intersected in place). Splitting a
//! grant at the bandwidth cap moves the sent prefix into a second slot.
//! A slot returns to the free list when its message is dropped
//! (offline advertiser or requester, empty want or grant) or delivered.
//! Once the queues and the arena have grown to a run's peak backlog, a
//! round allocates nothing (`tests/alloc_free.rs`).

use std::collections::VecDeque;

use treecast_core::scenario::RoundFaults;
use treecast_core::BitSet;
use treecast_trees::{NodeId, RootedTree};

/// How a serving peer orders its request queue.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum QueueDiscipline {
    /// Serve requests in arrival order.
    #[default]
    Fifo,
    /// Serve the smallest outstanding want first each round (a
    /// shortest-job-first variant; stable, so equal sizes keep arrival
    /// order).
    SmallestFirst,
}

/// The scenario knobs of the protocol — each one a first-class sweep
/// dimension through [`crate::EmuSweepDim`]. `None` means
/// unconstrained; with every knob unconstrained the emulation is
/// round-for-round the synchronous model.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GossipKnobs {
    /// Max token payloads a peer may deliver per round (partial grants
    /// are re-queued at the front of the request queue).
    pub bandwidth: Option<u32>,
    /// Max children a peer adverts to per round (the start child
    /// rotates with the round index).
    pub fanout: Option<u32>,
    /// Max messages a peer processes per queue per round (adverts in
    /// the request phase, requests in the serve phase).
    pub batch: Option<u32>,
    /// Request-queue service order.
    pub discipline: QueueDiscipline,
}

impl GossipKnobs {
    /// No caps, FIFO service — the configuration pinned to the
    /// synchronous engines.
    #[must_use]
    pub fn unconstrained() -> Self {
        GossipKnobs::default()
    }

    /// Caps deliveries at `tokens` payloads per peer per round.
    #[must_use]
    pub fn with_bandwidth(mut self, tokens: u32) -> Self {
        self.bandwidth = Some(tokens);
        self
    }

    /// Caps adverts at `children` per peer per round.
    #[must_use]
    pub fn with_fanout(mut self, children: u32) -> Self {
        self.fanout = Some(children);
        self
    }

    /// Caps queue processing at `messages` per queue per peer per round.
    #[must_use]
    pub fn with_batch(mut self, messages: u32) -> Self {
        self.batch = Some(messages);
        self
    }

    /// Sets the request-queue service order.
    #[must_use]
    pub fn with_discipline(mut self, discipline: QueueDiscipline) -> Self {
        self.discipline = discipline;
        self
    }

    /// `true` when no knob constrains the protocol.
    #[must_use]
    pub fn is_unconstrained(&self) -> bool {
        *self == GossipKnobs::default()
    }

    /// Compact label for tables (`unconstrained`, or the set knobs:
    /// `bw=4,fan=2,smallest-first`).
    #[must_use]
    pub fn label(&self) -> String {
        if self.is_unconstrained() {
            return "unconstrained".into();
        }
        let mut parts = Vec::new();
        if let Some(b) = self.bandwidth {
            parts.push(format!("bw={b}"));
        }
        if let Some(f) = self.fanout {
            parts.push(format!("fan={f}"));
        }
        if let Some(b) = self.batch {
            parts.push(format!("batch={b}"));
        }
        if self.discipline == QueueDiscipline::SmallestFirst {
            parts.push("smallest-first".into());
        }
        parts.join(",")
    }
}

/// A queued message — an advert (peer → child) or a request (child →
/// advertiser): who sent it, and the arena slot holding its token set.
#[derive(Debug, Clone, Copy)]
struct Msg {
    from: NodeId,
    slot: usize,
}

/// Message payload storage: fixed `stride`-word slots in one retained
/// word vector, recycled through a free list.
#[derive(Debug, Clone)]
struct Arena {
    stride: usize,
    words: Vec<u64>,
    free: Vec<usize>,
}

impl Arena {
    fn new(n: usize) -> Self {
        Arena {
            stride: n.div_ceil(64),
            words: Vec::new(),
            free: Vec::new(),
        }
    }

    /// A slot with unspecified contents; the caller overwrites it.
    fn take(&mut self) -> usize {
        self.free.pop().unwrap_or_else(|| {
            let slot = self.words.len() / self.stride;
            self.words.resize(self.words.len() + self.stride, 0);
            slot
        })
    }

    fn release(&mut self, slot: usize) {
        self.free.push(slot);
    }

    fn get(&self, slot: usize) -> &[u64] {
        &self.words[slot * self.stride..][..self.stride]
    }

    fn get_mut(&mut self, slot: usize) -> &mut [u64] {
        &mut self.words[slot * self.stride..][..self.stride]
    }

    /// Number of tokens in `slot`.
    fn len(&self, slot: usize) -> usize {
        self.get(slot).iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Moves the `cap` smallest tokens of `slot` (which holds more than
    /// `cap`) into a fresh slot and returns it.
    fn split_lowest(&mut self, slot: usize, mut cap: usize) -> usize {
        let sent = self.take();
        let (from, to) = (slot * self.stride, sent * self.stride);
        for i in 0..self.stride {
            let word = self.words[from + i];
            let mut low = word;
            if word.count_ones() as usize > cap {
                low = 0;
                for _ in 0..cap {
                    let rest = word & !low;
                    low |= rest & rest.wrapping_neg();
                }
            }
            cap -= low.count_ones() as usize;
            self.words[from + i] = word ^ low;
            self.words[to + i] = low;
        }
        sent
    }
}

/// One simulated peer: its token holdings plus one FIFO queue per
/// message class that can outlive a round.
#[derive(Debug, Clone)]
struct Peer {
    holdings: BitSet,
    adverts: VecDeque<Msg>,
    requests: VecDeque<Msg>,
}

/// The full network state of an emulation run: `n` peers, their queues,
/// and incrementally maintained per-token holder counts.
#[derive(Debug, Clone)]
pub struct EmulationState {
    peers: Vec<Peer>,
    /// `holders[t]` = number of peers currently holding token `t`.
    holders: Vec<u32>,
    /// Number of tokens with `holders == n`, maintained incrementally.
    disseminated: usize,
    round: u64,
    /// Every queued message's payload.
    arena: Arena,
    /// Advert-phase scratch: one peer's online children.
    online: Vec<NodeId>,
    /// Serve-phase output, integrated and emptied in the same round:
    /// `(recipient, slot)` per delivery.
    deliveries: Vec<(NodeId, usize)>,
}

impl EmulationState {
    /// A fresh `n`-peer network: peer `v` holds exactly token `v`, all
    /// queues empty.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    #[must_use]
    pub fn new(n: usize) -> Self {
        assert!(n >= 1, "emulation needs at least one peer");
        let arena = Arena::new(n);
        EmulationState {
            peers: (0..n)
                .map(|v| Peer {
                    holdings: BitSet::singleton(n, v),
                    adverts: VecDeque::new(),
                    requests: VecDeque::new(),
                })
                .collect(),
            holders: vec![1; n],
            disseminated: if n == 1 { 1 } else { 0 },
            round: 0,
            arena,
            online: Vec::new(),
            deliveries: Vec::new(),
        }
    }

    /// Number of peers (= number of tokens).
    #[must_use]
    pub fn n(&self) -> usize {
        self.peers.len()
    }

    /// Rounds executed so far.
    #[must_use]
    pub fn round(&self) -> u64 {
        self.round
    }

    /// Peer `v`'s current holdings.
    ///
    /// # Panics
    ///
    /// Panics if `v >= n`.
    #[must_use]
    pub fn holdings(&self, v: NodeId) -> &BitSet {
        &self.peers[v].holdings
    }

    /// Number of peers currently holding token `t`.
    ///
    /// # Panics
    ///
    /// Panics if `t >= n`.
    #[must_use]
    pub fn holders(&self, t: usize) -> usize {
        self.holders[t] as usize
    }

    /// Number of fully disseminated tokens (held by every peer) — the
    /// emulation's [`treecast_core::BroadcastState::disseminated_count`].
    #[must_use]
    pub fn disseminated_count(&self) -> usize {
        self.disseminated
    }

    /// Number of fully disseminated tokens among `sources` — the
    /// tracked-workload progress count. `sources` must be duplicate-free.
    #[must_use]
    pub fn disseminated_among(&self, sources: &[NodeId]) -> usize {
        let n = self.n();
        sources
            .iter()
            .filter(|&&s| self.holders[s] as usize == n)
            .count()
    }

    /// Total messages (adverts and requests) sitting in queues across
    /// all peers — zero at every round boundary when the knobs are
    /// unconstrained, and the direct reading of how far the asynchronous
    /// run lags.
    #[must_use]
    pub fn pending_messages(&self) -> usize {
        self.peers
            .iter()
            .map(|p| p.adverts.len() + p.requests.len())
            .sum()
    }

    /// Executes one protocol round over `tree` under the (normalized)
    /// round faults `rf` and the given knobs. `rf` carries loss and
    /// offline sets; re-rooting is the runner's job (the tree passed
    /// here is already re-rooted, exactly as in the synchronous
    /// runner).
    ///
    /// # Panics
    ///
    /// Panics if the tree's size differs from `n` or a fault names a
    /// node out of range. `rf` must have been normalized
    /// ([`RoundFaults::normalize`]) — the offline lookup binary-searches
    /// the sorted list.
    pub fn gossip_round(&mut self, tree: &RootedTree, rf: &RoundFaults, knobs: &GossipKnobs) {
        let n = self.peers.len();
        assert_eq!(tree.n(), n, "round tree size mismatch");
        let round_index = self.round + 1;
        let is_offline = |v: NodeId| rf.offline.binary_search(&v).is_ok();
        let fanout = knobs.fanout.map_or(usize::MAX, |f| f as usize);
        let batch = knobs.batch.map_or(usize::MAX, |b| b as usize);
        let bandwidth = knobs.bandwidth.map_or(usize::MAX, |b| b as usize);

        // Phase 1 — advert. Each advert copies its sender's holdings
        // into a fresh slot. Phases 1 and 2 read no queue they append
        // to, so appending in ascending sender order needs no staging.
        let mut online = std::mem::take(&mut self.online);
        for p in 0..n {
            if is_offline(p) {
                continue;
            }
            online.clear();
            online.extend(tree.children(p).iter().filter(|&&c| !is_offline(c)));
            // Capped: rotate the start child with the round index so
            // every child is served within ⌈children/fanout⌉ rounds.
            let (start, count) = if online.len() <= fanout {
                (0, online.len())
            } else {
                (((round_index - 1) as usize) % online.len(), fanout)
            };
            for j in 0..count {
                let c = online[(start + j) % online.len()];
                let slot = self.arena.take();
                self.arena
                    .get_mut(slot)
                    .copy_from_slice(self.peers[p].holdings.words());
                self.peers[c].adverts.push_back(Msg { from: p, slot });
            }
        }
        self.online = online;

        // Phase 2 — request. A peer masks each advert down to the
        // offered tokens it misses and sends the slot back as its
        // request. A peer has one parent per tree, so it gets at most one
        // advert per round and, with `batch ≥ 1`, answers it in that
        // round: no two requests of one round ask for the same token.
        // Adverts from a now-offline peer are dropped (the connection is
        // gone; the tokens will be re-advertised).
        for y in 0..n {
            if is_offline(y) {
                continue;
            }
            for _ in 0..batch {
                let Some(ad) = self.peers[y].adverts.pop_front() else {
                    break;
                };
                if is_offline(ad.from) {
                    self.arena.release(ad.slot);
                    continue;
                }
                let mut any = 0;
                let want = self.arena.get_mut(ad.slot);
                let held = self.peers[y].holdings.words();
                for (w, h) in want.iter_mut().zip(held) {
                    *w &= !h;
                    any |= *w;
                }
                if any == 0 {
                    self.arena.release(ad.slot);
                    continue;
                }
                self.peers[ad.from].requests.push_back(Msg {
                    from: y,
                    slot: ad.slot,
                });
            }
        }

        // Phase 3 — serve. Deliveries are staged: a later server must
        // still see this round's start-of-phase holdings. A grant the
        // bandwidth cap truncates is split, and its remainder re-queued
        // at the front so the transfer resumes next round. Wants the
        // server cannot supply are dropped — the requester re-requests
        // on a future advert.
        for p in 0..n {
            if is_offline(p) {
                continue;
            }
            let peer = &mut self.peers[p];
            if peer.requests.is_empty() {
                continue;
            }
            if knobs.discipline == QueueDiscipline::SmallestFirst {
                // Stable: equal-size wants keep their arrival order.
                let arena = &self.arena;
                peer.requests
                    .make_contiguous()
                    .sort_by_key(|rq| arena.len(rq.slot));
            }
            let mut bw_left = bandwidth;
            for _ in 0..batch {
                if bw_left == 0 {
                    break;
                }
                let Some(rq) = peer.requests.pop_front() else {
                    break;
                };
                if is_offline(rq.from) {
                    self.arena.release(rq.slot);
                    continue;
                }
                let mut size = 0;
                let grant = self.arena.get_mut(rq.slot);
                for (g, h) in grant.iter_mut().zip(peer.holdings.words()) {
                    *g &= h;
                    size += g.count_ones() as usize;
                }
                if size == 0 {
                    self.arena.release(rq.slot);
                } else if size <= bw_left {
                    bw_left -= size;
                    self.deliveries.push((rq.from, rq.slot));
                } else {
                    let sent = self.arena.split_lowest(rq.slot, bw_left);
                    bw_left = 0;
                    peer.requests.push_front(rq);
                    self.deliveries.push((rq.from, sent));
                }
            }
        }

        // Phase 4 — integrate. Deliveries only ever target peers online
        // in the round that staged them, so none outlives the round.
        for (v, slot) in self.deliveries.drain(..) {
            let holdings = &mut self.peers[v].holdings;
            for (i, &word) in self.arena.get(slot).iter().enumerate() {
                let mut fresh = word & !holdings.words()[i];
                while fresh != 0 {
                    let t = i * 64 + fresh.trailing_zeros() as usize;
                    fresh &= fresh - 1;
                    holdings.insert(t);
                    self.holders[t] += 1;
                    if self.holders[t] as usize == n {
                        self.disseminated += 1;
                    }
                }
            }
            self.arena.release(slot);
        }

        // Phase 5 — lose. The victim keeps its own token and its
        // queues; only the foreign-token memory is wiped (the exact
        // counterpart of the synchronous `forget`).
        for &v in &rf.losses {
            let holdings = &mut self.peers[v].holdings;
            for t in holdings.iter() {
                if t == v {
                    continue;
                }
                if self.holders[t] as usize == n {
                    self.disseminated -= 1;
                }
                self.holders[t] -= 1;
            }
            holdings.clear();
            holdings.insert(v);
        }

        self.round += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use treecast_trees::generators;

    fn quiet() -> RoundFaults {
        RoundFaults::quiet()
    }

    /// A fresh slot holding `tokens`.
    fn payload(emu: &mut EmulationState, tokens: &[usize]) -> usize {
        let set = BitSet::from_indices(emu.n(), tokens.iter().copied());
        let slot = emu.arena.take();
        emu.arena.get_mut(slot).copy_from_slice(set.words());
        slot
    }

    fn tokens(emu: &EmulationState, slot: usize) -> Vec<usize> {
        let words = emu.arena.get(slot).to_vec();
        BitSet::from_words(emu.n(), words).iter().collect()
    }

    #[test]
    fn knob_labels_read_back() {
        assert_eq!(GossipKnobs::unconstrained().label(), "unconstrained");
        assert!(GossipKnobs::unconstrained().is_unconstrained());
        let knobs = GossipKnobs::unconstrained()
            .with_bandwidth(4)
            .with_fanout(2)
            .with_discipline(QueueDiscipline::SmallestFirst);
        assert_eq!(knobs.label(), "bw=4,fan=2,smallest-first");
        assert!(!knobs.is_unconstrained());
    }

    #[test]
    fn unconstrained_round_equals_parent_union_and_drains_queues() {
        // On the path, one unconstrained round must advance the frontier
        // exactly one hop: child gains its parent's start-of-round
        // holdings, nothing else, queues empty at the boundary.
        let n = 6;
        let tree = generators::path(n);
        let mut emu = EmulationState::new(n);
        let knobs = GossipKnobs::unconstrained();
        emu.gossip_round(&tree, &quiet(), &knobs);
        for v in 0..n {
            let expect: Vec<usize> = if v == 0 { vec![0] } else { vec![v - 1, v] };
            assert_eq!(emu.holdings(v).iter().collect::<Vec<_>>(), expect, "v={v}");
        }
        assert_eq!(emu.pending_messages(), 0);
        assert_eq!(emu.round(), 1);
    }

    #[test]
    fn star_disseminates_the_center_token_in_one_unconstrained_round() {
        let n = 9;
        let tree = generators::star(n);
        let mut emu = EmulationState::new(n);
        emu.gossip_round(&tree, &quiet(), &GossipKnobs::unconstrained());
        assert_eq!(emu.holders(0), n);
        assert_eq!(
            emu.disseminated_count(),
            1,
            "only the center token is global"
        );
        assert_eq!(emu.disseminated_among(&[0]), 1);
        assert_eq!(
            emu.disseminated_among(&[1, 2]),
            0,
            "leaf tokens still local"
        );
    }

    #[test]
    fn fanout_cap_rotates_over_the_children() {
        // Star center with fanout 1: one child learns token 0 per round,
        // and the rotation reaches all n-1 children in n-1 rounds.
        let n = 5;
        let tree = generators::star(n);
        let mut emu = EmulationState::new(n);
        let knobs = GossipKnobs::unconstrained().with_fanout(1);
        for round in 1..n {
            emu.gossip_round(&tree, &quiet(), &knobs);
            assert_eq!(emu.holders(0), 1 + round, "after round {round}");
        }
        assert_eq!(emu.holders(0), n);
    }

    #[test]
    fn bandwidth_cap_defers_but_preserves_tokens() {
        // Star with bandwidth 1 at the center: every child requests
        // token 0 each round but only one payload leaves per round.
        let n = 6;
        let tree = generators::star(n);
        let mut emu = EmulationState::new(n);
        let knobs = GossipKnobs::unconstrained().with_bandwidth(1);
        for round in 1..n {
            emu.gossip_round(&tree, &quiet(), &knobs);
            assert_eq!(emu.holders(0), 1 + round, "after round {round}");
        }
        assert_eq!(emu.holders(0), n);
    }

    #[test]
    fn partial_grants_requeue_at_the_front() {
        // A grant over the bandwidth cap is split: the low tokens go
        // out, the remainder resumes next round. Fanout 0 keeps the
        // protocol otherwise silent so only the seeded request moves
        // tokens. The second case splits a grant spanning four words.
        fn check(n: usize, grant: &[usize], bandwidth: u32, first: &[usize], rest: &[usize]) {
            let tree = generators::path(n);
            let mut emu = EmulationState::new(n);
            for t in 1..n {
                emu.peers[0].holdings.insert(t);
                emu.holders[t] += 1;
            }
            let slot = payload(&mut emu, grant);
            emu.peers[0].requests.push_back(Msg { from: 3, slot });
            let knobs = GossipKnobs::unconstrained()
                .with_fanout(0)
                .with_bandwidth(bandwidth);
            emu.gossip_round(&tree, &quiet(), &knobs);
            for &t in first {
                assert!(emu.holdings(3).contains(t), "n={n}: low token {t} first");
            }
            for &t in rest {
                assert!(!emu.holdings(3).contains(t), "n={n}: {t} deferred");
            }
            assert_eq!(emu.peers[0].requests.len(), 1, "n={n}: remainder re-queued");
            assert_eq!(tokens(&emu, emu.peers[0].requests[0].slot), rest, "n={n}");
            emu.gossip_round(&tree, &quiet(), &knobs);
            for &t in rest {
                assert!(emu.holdings(3).contains(t), "n={n}: {t} resumed");
            }
            assert!(emu.peers[0].requests.is_empty(), "n={n}");
        }
        check(4, &[1, 2], 1, &[1], &[2]);
        check(200, &[5, 70, 140, 199], 3, &[5, 70, 140], &[199]);
        check(
            200,
            &[0, 1, 2, 3, 64, 65, 130],
            5,
            &[0, 1, 2, 3, 64],
            &[65, 130],
        );
    }

    #[test]
    fn every_queued_message_owns_exactly_one_slot() {
        // Under caps, dropouts and losses, the arena's slots in use are
        // exactly the queued messages' slots at every round boundary:
        // no dropped or delivered message leaks its slot, and no two
        // messages share one. With batch ≥ 1 no advert outlives its
        // round: each peer gets at most one per round (one parent per
        // tree) and answers it in the same round.
        let n = 70;
        for (discipline, batch) in [
            (QueueDiscipline::Fifo, 3),
            (QueueDiscipline::SmallestFirst, 3),
            (QueueDiscipline::Fifo, 1),
        ] {
            let knobs = GossipKnobs::unconstrained()
                .with_bandwidth(2)
                .with_fanout(3)
                .with_batch(batch)
                .with_discipline(discipline);
            let mut emu = EmulationState::new(n);
            for r in 0..150 {
                let tree = if r % 3 == 0 {
                    generators::path(n)
                } else {
                    generators::star_with_center(n, (7 * r) % n)
                };
                let mut rf = RoundFaults {
                    offline: vec![(11 * r) % n, (3 * r + 1) % n],
                    losses: vec![(5 * r + 2) % n],
                    ..RoundFaults::quiet()
                };
                rf.normalize(n);
                emu.gossip_round(&tree, &rf, &knobs);
                let mut slots: Vec<usize> = emu
                    .peers
                    .iter()
                    .flat_map(|p| p.adverts.iter().chain(&p.requests).map(|m| m.slot))
                    .collect();
                slots.sort_unstable();
                slots.dedup();
                let in_use = emu.arena.words.len() / emu.arena.stride - emu.arena.free.len();
                assert_eq!(
                    slots.len(),
                    emu.pending_messages(),
                    "round {r}: shared slot"
                );
                assert_eq!(in_use, slots.len(), "round {r}: leaked slot");
                assert!(emu.deliveries.is_empty());
                assert!(
                    emu.peers.iter().all(|p| p.adverts.is_empty()),
                    "round {r}: an advert outlived its round"
                );
            }
        }
    }

    #[test]
    fn offline_peers_neither_send_nor_receive() {
        let n = 4;
        let tree = generators::path(n);
        let mut emu = EmulationState::new(n);
        let mut rf = RoundFaults {
            offline: vec![1],
            ..RoundFaults::quiet()
        };
        rf.normalize(n);
        emu.gossip_round(&tree, &rf, &GossipKnobs::unconstrained());
        assert_eq!(emu.holdings(1).len(), 1, "offline: no token in");
        assert_eq!(emu.holdings(2).len(), 1, "offline parent: no token out");
        assert_eq!(emu.holdings(3).len(), 2, "2 → 3 unaffected");
        assert_eq!(
            emu.pending_messages(),
            0,
            "no advert addressed an offline peer"
        );
    }

    #[test]
    fn losses_forget_foreign_tokens_and_fix_the_counters() {
        let n = 3;
        let tree = generators::star(n);
        let mut emu = EmulationState::new(n);
        emu.gossip_round(&tree, &quiet(), &GossipKnobs::unconstrained());
        assert!(emu.holdings(1).contains(0));
        let mut rf = RoundFaults {
            losses: vec![1],
            ..RoundFaults::quiet()
        };
        rf.normalize(n);
        emu.gossip_round(&tree, &rf, &GossipKnobs::unconstrained());
        // Nothing new arrived (node 1 already held {0, 1}); the loss
        // then wiped the foreign token back out.
        assert_eq!(emu.holdings(1).iter().collect::<Vec<_>>(), vec![1]);
        assert_eq!(emu.holders(0), 2);
        // The incremental counters must agree with a recount.
        for t in 0..n {
            let recount = (0..n).filter(|&v| emu.holdings(v).contains(t)).count();
            assert_eq!(emu.holders(t), recount, "token {t}");
        }
    }

    #[test]
    fn n_equal_one_is_born_disseminated() {
        let emu = EmulationState::new(1);
        assert_eq!(emu.disseminated_count(), 1);
    }
}
