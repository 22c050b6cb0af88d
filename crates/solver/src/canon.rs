//! Isomorphism reduction: canonical forms of packed states under node
//! relabeling.
//!
//! `t*` is invariant under relabeling the processes (the adversary pool
//! `T_n` is symmetric), so the memo table can key on a canonical
//! representative of each state's isomorphism orbit. Exact canonicalization
//! is graph canonization — expensive in general — but product-graph states
//! quickly develop distinguishing structure, so a signature refinement
//! (degree profile plus one Weisfeiler–Leman round) shrinks the candidate
//! permutation set to the automorphism-ish classes, over which we take an
//! exact minimum.

use treecast_core::splitmix64;

use crate::state::state_rows;

/// Canonicalization policy for the solver's memo table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum CanonMode {
    /// Exact orbit representative: minimum over all signature-compatible
    /// permutations (signature classes make this exact — see module docs).
    #[default]
    Exact,
    /// No canonicalization: memo on raw states.
    None,
}

/// Computes the canonical representative of `state`'s isomorphism orbit.
///
/// With [`CanonMode::Exact`], two states have equal output **iff** they are
/// related by a node relabeling (the representative is the minimum over all
/// signature-class-respecting permutations, which is constant on orbits and
/// always a member of the orbit — though not necessarily the global
/// min-over-`n!` value). With [`CanonMode::None`] the state is returned
/// unchanged.
pub fn canonicalize(state: u64, n: usize, mode: CanonMode) -> u64 {
    match mode {
        CanonMode::None => state,
        CanonMode::Exact => {
            let sigs = signatures(state, n);
            let order = sig_order(&sigs, n);
            // Class boundaries over the sorted order: `class_end[i]` is
            // one past the last member of the class starting at i (only
            // meaningful at class starts).
            let mut asn = ClassAssign {
                state,
                n,
                order,
                class_end: [0; 8],
                perm: [0; 8],
                best: u64::MAX,
            };
            let mut start = 0;
            while start < n {
                let mut end = start + 1;
                while end < n && sigs[order[end] as usize] == sigs[order[start] as usize] {
                    end += 1;
                }
                asn.class_end[start] = end as u8;
                start = end;
            }
            asn.assign(0);
            asn.best
        }
    }
}

/// Scratch for the exact-mode minimum over class-respecting permutations —
/// everything lives in fixed arrays, the solver calls this hundreds of
/// millions of times.
struct ClassAssign {
    state: u64,
    n: usize,
    /// Nodes sorted by signature.
    order: [u8; 8],
    /// One-past-the-end of the class starting at each class start.
    class_end: [u8; 8],
    /// old node -> new position, filled class by class.
    perm: [u8; 8],
    best: u64,
}

impl ClassAssign {
    /// Assigns positions to the class starting at `start` in every order
    /// (Heap's algorithm), recursing into the next class.
    fn assign(&mut self, start: usize) {
        if start == self.n {
            let candidate = permute_packed(self.state, self.n, &self.perm);
            if candidate < self.best {
                self.best = candidate;
            }
            return;
        }
        let end = self.class_end[start] as usize;
        let k = end - start;
        let mut members = [0u8; 8];
        members[..k].copy_from_slice(&self.order[start..end]);
        let mut c = [0usize; 8];
        let emit = |m: &[u8], this: &mut Self| {
            for (offset, &v) in m[..k].iter().enumerate() {
                this.perm[v as usize] = (start + offset) as u8;
            }
            this.assign(end);
        };
        emit(&members, self);
        let mut i = 0;
        while i < k {
            if c[i] < i {
                if i % 2 == 0 {
                    members.swap(0, i);
                } else {
                    members.swap(c[i], i);
                }
                emit(&members, self);
                c[i] += 1;
                i = 0;
            } else {
                c[i] = 0;
                i += 1;
            }
        }
    }
}

/// Node indices `0..n` sorted by signature (insertion sort, `n ≤ 8`).
#[inline]
fn sig_order(sigs: &[u64; 8], n: usize) -> [u8; 8] {
    let mut order = [0u8; 8];
    for (v, slot) in order.iter_mut().enumerate().take(n) {
        *slot = v as u8;
    }
    for i in 1..n {
        let mut j = i;
        while j > 0 && sigs[order[j - 1] as usize] > sigs[order[j] as usize] {
            order.swap(j - 1, j);
            j -= 1;
        }
    }
    order
}

/// Applies the relabeling `perm` (old node `v` becomes `perm[v]`) to a
/// packed column-view state.
pub fn permute(state: u64, n: usize, perm: &[usize]) -> u64 {
    debug_assert_eq!(perm.len(), n);
    let mut packed = [0u8; 8];
    for (v, &p) in perm.iter().enumerate() {
        packed[v] = p as u8;
    }
    permute_packed(state, n, &packed)
}

/// Allocation-free core of [`permute`].
#[inline]
fn permute_packed(state: u64, n: usize, perm: &[u8; 8]) -> u64 {
    let mut out = 0u64;
    let mut bits = state;
    while bits != 0 {
        let idx = bits.trailing_zeros() as usize;
        bits &= bits - 1;
        let (y, x) = (idx / n, idx % n);
        out |= 1u64 << (perm[y] as usize * n + perm[x] as usize);
    }
    out
}

/// Per-node isomorphism-invariant signatures: heard-weight, reach-weight,
/// and a hash of the sorted heard-neighborhood weight profile (one
/// Weisfeiler–Leman refinement round).
fn signatures(state: u64, n: usize) -> [u64; 8] {
    let rows = state_rows(state, n);
    let mut heard_w = [0u64; 8];
    let mut reach_w = [0u64; 8];
    for &row in rows.iter().take(n) {
        let mut bits = row;
        while bits != 0 {
            let x = bits.trailing_zeros() as usize;
            bits &= bits - 1;
            reach_w[x] += 1;
        }
    }
    for y in 0..n {
        heard_w[y] = u64::from(rows[y].count_ones());
    }
    let mut sigs = [0u64; 8];
    for (y, sig) in sigs.iter_mut().enumerate().take(n) {
        // Multiset of (heard, reach) pairs of the nodes y has heard
        // from, order-independent via a commutative fold of per-element
        // hashes.
        let mut acc: u64 = 0;
        let mut bits = rows[y];
        while bits != 0 {
            let x = bits.trailing_zeros() as usize;
            bits &= bits - 1;
            let h = splitmix64(heard_w[x] << 32 | reach_w[x]);
            acc = acc.wrapping_add(h);
        }
        // Lexicographically dominant: own weights first.
        *sig = splitmix64(heard_w[y] << 48 | reach_w[y] << 32).wrapping_add(acc);
    }
    sigs
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::{apply_tree, identity_state, transition_edges};
    use treecast_trees::random;

    fn all_perms(n: usize) -> Vec<Vec<usize>> {
        fn rec(n: usize, cur: &mut Vec<usize>, used: &mut Vec<bool>, out: &mut Vec<Vec<usize>>) {
            if cur.len() == n {
                out.push(cur.clone());
                return;
            }
            for v in 0..n {
                if !used[v] {
                    used[v] = true;
                    cur.push(v);
                    rec(n, cur, used, out);
                    cur.pop();
                    used[v] = false;
                }
            }
        }
        let mut out = Vec::new();
        rec(n, &mut Vec::new(), &mut vec![false; n], &mut out);
        out
    }

    /// Brute-force canonical form: min over all n! permutations.
    fn canonical_brute(state: u64, n: usize) -> u64 {
        all_perms(n)
            .iter()
            .map(|p| permute(state, n, p))
            .min()
            .expect("at least one permutation")
    }

    /// A pseudo-random reachable state: identity advanced by a few random
    /// trees.
    fn random_state(n: usize, seed: u64, rounds: usize) -> u64 {
        use rand::{rngs::StdRng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let mut s = identity_state(n);
        for _ in 0..rounds {
            let t = random::uniform(n, &mut rng);
            s = apply_tree(s, n, &transition_edges(&t));
        }
        s
    }

    #[test]
    fn exact_is_complete_and_sound() {
        // The canonical form need not equal the global min over all n!
        // permutations (class ordering follows signature hashes), but it
        // must be (a) a member of the orbit and (b) constant on the orbit
        // and (c) distinct across different orbits. (a)+(b) are checked
        // directly; (c) follows from (a): equal representatives ⇒
        // isomorphic inputs.
        for n in 2..=5 {
            for seed in 0..30u64 {
                for rounds in 0..4 {
                    let s = random_state(n, seed * 7 + rounds as u64, rounds);
                    let canon = canonicalize(s, n, CanonMode::Exact);
                    // (a) member of the orbit:
                    assert_eq!(
                        canonical_brute(canon, n),
                        canonical_brute(s, n),
                        "representative left the orbit: n = {n}, state = {s:#x}"
                    );
                    // (b) constant on the orbit:
                    for perm in all_perms(n) {
                        let permuted = permute(s, n, &perm);
                        assert_eq!(
                            canonicalize(permuted, n, CanonMode::Exact),
                            canon,
                            "orbit invariance broken: n = {n}, state = {s:#x}, perm = {perm:?}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn exact_is_isomorphism_invariant() {
        let n = 6;
        for seed in 0..20u64 {
            let s = random_state(n, seed, 3);
            for perm in [
                vec![1, 0, 2, 3, 4, 5],
                vec![5, 4, 3, 2, 1, 0],
                vec![2, 3, 4, 5, 0, 1],
            ] {
                let t = permute(s, n, &perm);
                assert_eq!(
                    canonicalize(s, n, CanonMode::Exact),
                    canonicalize(t, n, CanonMode::Exact),
                    "seed = {seed}, perm = {perm:?}"
                );
            }
        }
    }

    #[test]
    fn permute_identity_is_identity() {
        let n = 4;
        let s = random_state(n, 3, 2);
        assert_eq!(permute(s, n, &[0, 1, 2, 3]), s);
    }

    #[test]
    fn identity_state_is_fixed_point() {
        for n in 1..=8 {
            let id = identity_state(n);
            assert_eq!(canonicalize(id, n, CanonMode::Exact), id);
        }
    }

    #[test]
    fn none_mode_is_noop() {
        let s = random_state(5, 11, 2);
        assert_eq!(canonicalize(s, 5, CanonMode::None), s);
    }
}
