//! The arena protocol against the `BitSet`-payload protocol it
//! replaced, under every constrained knob.
//!
//! [`Reference`] is the emulation's gossip round as it stood before
//! message payloads moved into the word arena: every advert, request
//! and delivery an owned [`BitSet`], one dedup set per peer, a deliver
//! queue. Its `gossip_round` is kept verbatim. The tests step it side by
//! side with [`EmulationState`] on the same re-rooted trees and faults
//! (taken from the runner's per-round hook) and compare, after every
//! round, each peer's holdings, every token's holder count, the
//! disseminated count and the pending-message count.
//!
//! The unconstrained corner is already pinned to the synchronous model
//! (`tests/differential.rs`); this file is what pins the caps: FIFO
//! order, the within-round request dedup and the front re-queue of
//! truncated grants.

use std::collections::VecDeque;

use proptest::prelude::*;
use treecast_core::scenario::{FaultModel, NoFaults, SeededFaults};
use treecast_core::{
    BitSet, FrontierSource, Gossip, RoundFaults, SequenceSource, SimulationConfig, StaticSource,
    TreeSource,
};
use treecast_emulation::{run_emulation_traced, EmulationState, GossipKnobs};
use treecast_trees::{generators, NodeId, RootedTree};

/// Removes and returns the `cap` smallest elements of `set` (all of
/// them, if fewer are present): the reference's truncated grant.
fn take_first(set: &mut BitSet, cap: usize) -> BitSet {
    let mut taken = BitSet::new(set.universe_size());
    for v in set.iter().take(cap).collect::<Vec<_>>() {
        set.remove(v);
        taken.insert(v);
    }
    taken
}

#[test]
fn take_first_splits_low_tokens_out() {
    let mut s = BitSet::from_indices(200, [5, 70, 140, 199]);
    let taken = take_first(&mut s, 3);
    assert_eq!(taken.iter().collect::<Vec<_>>(), vec![5, 70, 140]);
    assert_eq!(taken.universe_size(), 200);
    assert_eq!(s.iter().collect::<Vec<_>>(), vec![199]);
    let rest = take_first(&mut s, 10);
    assert_eq!(rest.len(), 1);
    assert!(s.is_empty());
}

#[test]
fn take_first_with_cap_zero_takes_nothing() {
    let mut s = BitSet::from_indices(130, [0, 63, 64, 129]);
    let taken = take_first(&mut s, 0);
    assert!(taken.is_empty());
    assert_eq!(taken.universe_size(), 130);
    assert_eq!(s.len(), 4);
}

#[test]
fn take_first_with_cap_at_least_len_takes_everything() {
    for cap in [4, 5, usize::MAX] {
        let mut s = BitSet::from_indices(130, [0, 63, 64, 129]);
        let whole = s.clone();
        let taken = take_first(&mut s, cap);
        assert_eq!(taken, whole, "cap {cap}");
        assert!(s.is_empty(), "cap {cap}");
    }
}

/// "I hold these tokens" — sent parent → child along round-tree edges.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Advert {
    from: NodeId,
    have: BitSet,
}

/// "Send me these tokens" — the reply to an advert.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Request {
    from: NodeId,
    want: BitSet,
}

/// One simulated peer: its token holdings plus one FIFO queue per
/// message class.
#[derive(Debug, Clone)]
struct Peer {
    holdings: BitSet,
    adverts: VecDeque<Advert>,
    requests: VecDeque<Request>,
    delivers: VecDeque<BitSet>,
}

impl Peer {
    fn new(n: usize, id: NodeId) -> Self {
        Peer {
            holdings: BitSet::singleton(n, id),
            adverts: VecDeque::new(),
            requests: VecDeque::new(),
            delivers: VecDeque::new(),
        }
    }
}

/// The pre-arena protocol state, reduced to what its round reads.
struct Reference {
    peers: Vec<Peer>,
    holders: Vec<u32>,
    disseminated: usize,
    round: u64,
    requested: Vec<BitSet>,
    touched: Vec<NodeId>,
    online: Vec<NodeId>,
}

impl Reference {
    fn new(n: usize) -> Self {
        Reference {
            peers: (0..n).map(|v| Peer::new(n, v)).collect(),
            holders: vec![1; n],
            disseminated: if n == 1 { 1 } else { 0 },
            round: 0,
            requested: vec![BitSet::new(n); n],
            touched: Vec::new(),
            online: Vec::new(),
        }
    }

    fn pending_messages(&self) -> usize {
        self.peers
            .iter()
            .map(|p| p.adverts.len() + p.requests.len() + p.delivers.len())
            .sum()
    }

    fn gossip_round(&mut self, tree: &RootedTree, rf: &RoundFaults, knobs: &GossipKnobs) {
        let n = self.peers.len();
        assert_eq!(tree.n(), n, "round tree size mismatch");
        let round_index = self.round + 1;
        let is_offline = |v: NodeId| rf.offline.binary_search(&v).is_ok();
        let fanout = knobs.fanout.map_or(usize::MAX, |f| f as usize);
        let batch = knobs.batch.map_or(usize::MAX, |b| b as usize);
        let bandwidth = knobs.bandwidth.map_or(usize::MAX, |b| b as usize);

        // Phase 1 — advert. Staged in ascending peer order, then
        // appended to the destinations' queues: deterministic, and no
        // aliasing between the senders we read and the queues we fill.
        let mut outbox: Vec<(NodeId, Advert)> = Vec::new();
        let mut online = std::mem::take(&mut self.online);
        for p in 0..n {
            if is_offline(p) {
                continue;
            }
            online.clear();
            online.extend(tree.children(p).iter().filter(|&&c| !is_offline(c)));
            if online.is_empty() {
                continue;
            }
            let advert = |from: NodeId, have: &BitSet| Advert {
                from,
                have: have.clone(),
            };
            if online.len() <= fanout {
                for &c in &online {
                    outbox.push((c, advert(p, &self.peers[p].holdings)));
                }
            } else {
                // Capped: rotate the start child with the round index so
                // every child is served within ⌈children/fanout⌉ rounds.
                let start = ((round_index - 1) as usize) % online.len();
                for j in 0..fanout {
                    let c = online[(start + j) % online.len()];
                    outbox.push((c, advert(p, &self.peers[p].holdings)));
                }
            }
        }
        self.online = online;
        for (dest, ad) in outbox {
            self.peers[dest].adverts.push_back(ad);
        }

        // Phase 2 — request. A peer asks each advertiser for the offered
        // tokens it misses; `requested` dedups within the round so two
        // adverts never trigger two same-round requests for one token.
        // Adverts from a now-offline peer are dropped (the connection is
        // gone; the tokens will be re-advertised).
        let mut requests: Vec<(NodeId, Request)> = Vec::new();
        for y in 0..n {
            if is_offline(y) {
                continue;
            }
            let mut processed = 0;
            while processed < batch {
                let Some(ad) = self.peers[y].adverts.pop_front() else {
                    break;
                };
                processed += 1;
                if is_offline(ad.from) {
                    continue;
                }
                let mut want = ad.have;
                want.difference_with(&self.peers[y].holdings);
                want.difference_with(&self.requested[y]);
                if want.is_empty() {
                    continue;
                }
                self.requested[y].union_with(&want);
                self.touched.push(y);
                requests.push((ad.from, Request { from: y, want }));
            }
        }
        for (dest, rq) in requests {
            self.peers[dest].requests.push_back(rq);
        }
        for y in self.touched.drain(..) {
            self.requested[y].clear();
        }

        // Phase 3 — serve. Deliveries are staged (same reason as phase
        // 1); a grant the bandwidth cap truncates is re-queued at the
        // front so the transfer resumes next round. Wants the server
        // cannot supply are dropped — the requester re-requests on a
        // future advert.
        let mut deliveries: Vec<(NodeId, BitSet)> = Vec::new();
        for p in 0..n {
            if is_offline(p) {
                continue;
            }
            let peer = &mut self.peers[p];
            if peer.requests.is_empty() {
                continue;
            }
            let mut bw_left = bandwidth;
            let mut served = 0;
            while served < batch && bw_left > 0 {
                let Some(rq) = peer.requests.pop_front() else {
                    break;
                };
                served += 1;
                if is_offline(rq.from) {
                    continue;
                }
                let mut grant = rq.want;
                grant.intersect_with(&peer.holdings);
                if grant.is_empty() {
                    continue;
                }
                let sent = take_first(&mut grant, bw_left);
                bw_left -= sent.len();
                if !grant.is_empty() {
                    peer.requests.push_front(Request {
                        from: rq.from,
                        want: grant,
                    });
                }
                deliveries.push((rq.from, sent));
            }
        }
        for (dest, tokens) in deliveries {
            self.peers[dest].delivers.push_back(tokens);
        }

        // Phase 4 — integrate. Deliveries only ever target peers online
        // in the round that staged them, and the deliver queue drains
        // fully every round, so it never persists across rounds.
        for v in 0..n {
            while let Some(tokens) = self.peers[v].delivers.pop_front() {
                for t in tokens.iter() {
                    if self.peers[v].holdings.insert(t) {
                        self.holders[t] += 1;
                        if self.holders[t] as usize == n {
                            self.disseminated += 1;
                        }
                    }
                }
            }
        }

        // Phase 5 — lose. The victim keeps its own token and its
        // queues; only the foreign-token memory is wiped (the exact
        // counterpart of the synchronous `forget`).
        for &v in &rf.losses {
            let old = std::mem::replace(&mut self.peers[v].holdings, BitSet::singleton(n, v));
            for t in old.iter() {
                if t == v {
                    continue;
                }
                if self.holders[t] as usize == n {
                    self.disseminated -= 1;
                }
                self.holders[t] -= 1;
            }
        }

        self.round += 1;
    }
}

/// The first difference between the two states, if any.
fn divergence(emu: &EmulationState, reference: &Reference) -> Option<String> {
    let n = emu.n();
    for v in 0..n {
        if *emu.holdings(v) != reference.peers[v].holdings {
            return Some(format!(
                "peer {v} holds {} != reference {}",
                emu.holdings(v),
                reference.peers[v].holdings
            ));
        }
    }
    for t in 0..n {
        if emu.holders(t) != reference.holders[t] as usize {
            return Some(format!(
                "holders({t}) {} != {}",
                emu.holders(t),
                reference.holders[t]
            ));
        }
    }
    if emu.disseminated_count() != reference.disseminated {
        return Some("disseminated_count differs".into());
    }
    if emu.pending_messages() != reference.pending_messages() {
        return Some(format!(
            "pending {} != reference {}",
            emu.pending_messages(),
            reference.pending_messages()
        ));
    }
    None
}

/// The knob under test: bandwidth, fanout and batch caps indexed into
/// {None, 1, 2, 8}, {None, 0, 2} and {None, 3}.
fn knobs(bandwidth: usize, fanout: usize, batch: usize) -> GossipKnobs {
    GossipKnobs {
        bandwidth: [None, Some(1), Some(2), Some(8)][bandwidth],
        fanout: [None, Some(0), Some(2)][fanout],
        batch: [None, Some(3)][batch],
    }
}

/// Path, rotating-center stars, or the seeded uniform stream.
fn source(kind: usize, n: usize, seed: u64, budget: u64) -> Box<dyn TreeSource> {
    match kind {
        0 => Box::new(StaticSource::new(generators::path(n))),
        1 => Box::new(SequenceSource::new(
            (0..n).map(|c| generators::star_with_center(n, c)).collect(),
        )),
        _ => FrontierSource::seeded(n, seed).dense_twin(budget),
    }
}

/// Quiet, seeded loss alone, or loss + dropout + re-rooting.
fn faults(mix: usize, seed: u64) -> Box<dyn FaultModel> {
    match mix {
        0 => Box::new(NoFaults),
        1 => Box::new(SeededFaults::new(seed).with_token_loss(10)),
        _ => Box::new(
            SeededFaults::new(seed)
                .with_token_loss(8)
                .with_dropout(10, 2)
                .with_root_changes(15),
        ),
    }
}

/// Runs `budget` rounds of gossip through the runner, stepping the
/// reference on each round's re-rooted tree and normalized faults, and
/// returns the first round whose states differ.
fn first_divergence(
    n: usize,
    tree_kind: usize,
    fault_mix: usize,
    knobs: &GossipKnobs,
    seed: u64,
    budget: u64,
) -> Option<String> {
    let mut trees = source(tree_kind, n, seed, budget);
    let mut faults = faults(fault_mix, seed);
    let mut reference = Reference::new(n);
    let mut found = None;
    run_emulation_traced(
        n,
        &mut trees,
        &Gossip,
        knobs,
        faults.as_mut(),
        SimulationConfig::for_n(n).with_max_rounds(budget),
        |rf: &RoundFaults, tree: &RootedTree, emu: &EmulationState| {
            reference.gossip_round(tree, rf, knobs);
            if found.is_none() {
                found = divergence(emu, &reference).map(|d| format!("round {}: {d}", emu.round()));
            }
        },
    );
    found
}

#[test]
fn every_knob_combination_matches_the_reference() {
    // All 24 knob settings on the three tree sources under the fault
    // cocktail, at a size whose sets span two words.
    let n = 65;
    for bandwidth in 0..4 {
        for fanout in 0..3 {
            for batch in 0..2 {
                let knobs = knobs(bandwidth, fanout, batch);
                for tree_kind in 0..3 {
                    let seed = 0x5EED ^ (bandwidth * 16 + fanout * 4 + batch) as u64;
                    let diverged = first_divergence(n, tree_kind, 2, &knobs, seed, 60);
                    assert!(
                        diverged.is_none(),
                        "{} on tree source {tree_kind}: {}",
                        knobs.label(),
                        diverged.unwrap_or_default()
                    );
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Any size, tree source, fault mix and knob setting: the arena
    /// protocol is the reference protocol, round for round.
    #[test]
    fn arena_protocol_is_the_reference_protocol(
        size in 0usize..6,
        tree_kind in 0usize..3,
        fault_mix in 0usize..3,
        bandwidth in 0usize..4,
        fanout in 0usize..3,
        batch in 0usize..2,
        seed in proptest::num::u64::ANY,
    ) {
        let n = [1, 2, 63, 64, 65, 130][size];
        let knobs = knobs(bandwidth, fanout, batch);
        let diverged = first_divergence(n, tree_kind, fault_mix, &knobs, seed, 80);
        prop_assert!(diverged.is_none(), "{}: {}", knobs.label(), diverged.unwrap_or_default());
    }
}
