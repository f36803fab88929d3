//! The `Update` subroutine (Algorithm 3) with the stateful tie-breaking rule.
//!
//! Given the current surviving numbers `b_u` of a node's neighbours and the
//! incident edge weights `w_u`, `Update` returns
//!
//! * the maximum real `b` such that `Σ_{u : b_u ≥ b} w_u ≥ b` (the node's new
//!   surviving number), and
//! * an auxiliary subset `N ⊆ {u : b_u ≥ b}` of neighbours whose edges are
//!   (tentatively) assigned to this node, satisfying `Σ_{u ∈ N} w_u ≤ b`
//!   (the first invariant of Definition III.7).
//!
//! The sort in Algorithm 3 breaks ties by the lexicographic order of the
//! neighbours' surviving numbers over **all past iterations** (most recent
//! first), falling back to node identity. Equivalently — and this is how it is
//! implemented here, following the paper's own remark — each node keeps a
//! persistent ordering of its neighbours and performs a **stable sort by the
//! current values** each round. This tie-breaking is what makes the second
//! invariant of Definition III.7 (every edge is covered by one of its
//! endpoints) survive across rounds (Lemma III.11).
//!
//! ## Storage and incrementality
//!
//! The ordering state is expressed over **externally-owned storage**
//! ([`UpdateOrder`], a sorted permutation plus its inverse), so the flat
//! state arena of [`crate::compact`] can pack every node's ordering into two
//! contiguous arc-indexed slabs. Because surviving numbers only ever
//! *decrease*, re-establishing the sorted order after `k` changed neighbour
//! values does not need a full `O(d log d)` re-sort: each changed entry is
//! bubbled left past strictly-greater entries
//! ([`UpdateOrder::resort_decreased`]), which is exactly equivalent to the
//! full stable sort (pinned by the `incremental_matches_full_stable_sort`
//! test) but touches only the displaced range.

use dkc_graph::NodeId;

/// A node's neighbour ordering over borrowed (slab) storage: the permutation
/// of adjacency positions sorted ascending by current value with
/// history-stable tie-breaking, plus its inverse.
///
/// Invariants: `order` is a permutation of `0..d`, `inv[order[i]] == i`, and
/// `values[order[i]]` is ascending after every `sort_full` /
/// `resort_decreased` call.
pub struct UpdateOrder<'a> {
    /// Sorted adjacency positions.
    pub order: &'a mut [u32],
    /// Inverse permutation: `inv[pos]` is the index of `pos` in `order`.
    pub inv: &'a mut [u32],
}

impl UpdateOrder<'_> {
    /// Initializes the ordering by neighbour identity (the paper's
    /// "consistent" final tie-break); parallel edges keep position order.
    pub fn init_by_id(&mut self, neighbor_ids: &[NodeId]) {
        debug_assert_eq!(self.order.len(), neighbor_ids.len());
        for (i, p) in self.order.iter_mut().enumerate() {
            *p = i as u32;
        }
        self.order.sort_by_key(|&pos| neighbor_ids[pos as usize]);
        self.rebuild_inverse();
    }

    /// Full stable sort by the current values (history-lexicographic
    /// tie-breaking: ties keep the order established by earlier rounds).
    pub fn sort_full(&mut self, values: &[f64]) {
        self.order.sort_by(|&a, &b| {
            values[a as usize]
                .partial_cmp(&values[b as usize])
                .expect("NaN surviving number")
        });
        self.rebuild_inverse();
    }

    /// Re-establishes the sorted order after the values at the `changed`
    /// adjacency positions **decreased** (the monotone direction of the
    /// elimination procedures). `changed` is reordered in place.
    ///
    /// Each changed entry is bubbled left past strictly-greater entries;
    /// processing the changed set in ascending previous order makes the
    /// result identical to a full stable sort. Falls back to
    /// [`UpdateOrder::sort_full`] when the changed set is a large fraction of
    /// the degree (bubbling is `O(k·d)` worst case).
    pub fn resort_decreased(&mut self, values: &[f64], changed: &mut [u32]) {
        let d = self.order.len();
        if changed.is_empty() {
            return;
        }
        if changed.len() * 4 >= d {
            self.sort_full(values);
            return;
        }
        // Ascending previous position = the stable-sort tie order for
        // entries that reach equal values this round.
        changed.sort_unstable_by_key(|&pos| self.inv[pos as usize]);
        for &pos in changed.iter() {
            let value = values[pos as usize];
            let mut i = self.inv[pos as usize] as usize;
            debug_assert_eq!(self.order[i], pos);
            while i > 0 && values[self.order[i - 1] as usize] > value {
                self.order[i] = self.order[i - 1];
                self.inv[self.order[i] as usize] = i as u32;
                i -= 1;
            }
            self.order[i] = pos;
            self.inv[pos as usize] = i as u32;
        }
        debug_assert!(self
            .order
            .windows(2)
            .all(|w| values[w[0] as usize] <= values[w[1] as usize]));
    }

    /// Recomputes `inv` from `order` — after `order` was seeded externally,
    /// e.g. copied from the CSR neighbour-rank map, which is exactly the
    /// [`UpdateOrder::init_by_id`] ordering.
    pub(crate) fn rebuild_inverse(&mut self) {
        for (i, &p) in self.order.iter().enumerate() {
            self.inv[p as usize] = i as u32;
        }
    }
}

/// The suffix scan of Algorithm 3 over an already-sorted ordering: returns
/// the new surviving number `b` and the first sorted index whose neighbour
/// belongs to the auxiliary subset `N` (i.e. `N = order[include_from..]`).
///
/// The scan walks positions from the largest value downwards, accumulating
/// the suffix weight `s = Σ_{j ≥ i} w_j` (+ self-loop), and stops at the
/// first `i` with `s > b_{i-1}` (with `b_0 = −∞` it always stops by `i = 1`).
pub fn suffix_scan(order: &[u32], values: &[f64], weights: &[f64], self_loop: f64) -> (f64, usize) {
    let d = order.len();
    if d == 0 {
        return (self_loop, 0);
    }
    // Bracket above every neighbour value: sustained by the self-loop alone
    // (no neighbour counts, N stays empty). Only relevant for quotient-graph
    // inputs; plain graphs have self_loop = 0.
    let max_value = values[order[d - 1] as usize];
    if self_loop > max_value {
        return (self_loop, d);
    }
    let mut s = self_loop;
    for i in (0..d).rev() {
        let pos = order[i] as usize;
        s += weights[pos];
        let b_i = values[pos];
        let b_prev = if i == 0 {
            f64::NEG_INFINITY
        } else {
            values[order[i - 1] as usize]
        };
        if s > b_prev {
            return if s <= b_i { (s, i) } else { (b_i, i + 1) };
        }
    }
    (self_loop, d)
}

/// Persistent per-node state for the `Update` subroutine with owned storage:
/// the history-encoding neighbour ordering. (The flat arena of
/// [`crate::compact`] uses [`UpdateOrder`] over slab storage instead; this
/// owned variant serves standalone uses and the unit tests.)
#[derive(Clone, Debug)]
pub struct UpdateState {
    /// Permutation of neighbour positions (indices into the node's adjacency
    /// list). Invariant: after `k` calls to [`UpdateState::update`], the
    /// permutation sorts neighbours by `(b^{k}, b^{k-1}, …, b^{1}, id)`
    /// lexicographically ascending.
    order: Vec<u32>,
    inv: Vec<u32>,
}

/// The result of one `Update` call.
#[derive(Clone, Debug, PartialEq)]
pub struct UpdateResult {
    /// The new surviving number `b`.
    pub b: f64,
    /// `in_neighbors[pos]` is `true` iff the neighbour at adjacency position
    /// `pos` belongs to the auxiliary subset `N`.
    pub in_neighbors: Vec<bool>,
}

impl UpdateState {
    /// Creates the initial state for a node whose adjacency list is
    /// `neighbor_ids`. The initial ordering is by node identity, which is the
    /// paper's "consistent" final tie-break.
    pub fn new(neighbor_ids: &[NodeId]) -> Self {
        let mut state = UpdateState {
            order: vec![0; neighbor_ids.len()],
            inv: vec![0; neighbor_ids.len()],
        };
        UpdateOrder {
            order: &mut state.order,
            inv: &mut state.inv,
        }
        .init_by_id(neighbor_ids);
        state
    }

    /// Number of neighbours this state was built for.
    pub fn len(&self) -> usize {
        self.order.len()
    }

    /// Whether the node has no neighbours.
    pub fn is_empty(&self) -> bool {
        self.order.is_empty()
    }

    /// Performs one `Update` step (Algorithm 3).
    ///
    /// * `values[pos]` — the current surviving number `b_u` of the neighbour at
    ///   adjacency position `pos`.
    /// * `weights[pos]` — the weight of the corresponding incident edge.
    /// * `self_loop` — the node's own self-loop weight; it always survives with
    ///   the node, so it is included in the threshold feasibility sum but never
    ///   in `N` (self-loops cannot be assigned to a neighbour). Zero for plain
    ///   graphs, matching the paper exactly.
    pub fn update(&mut self, values: &[f64], weights: &[f64], self_loop: f64) -> UpdateResult {
        let d = self.order.len();
        assert_eq!(values.len(), d, "one value per neighbour required");
        assert_eq!(weights.len(), d, "one weight per neighbour required");

        // Stable sort by the current values: history-lexicographic tie-breaking.
        UpdateOrder {
            order: &mut self.order,
            inv: &mut self.inv,
        }
        .sort_full(values);

        let (b, include_from) = suffix_scan(&self.order, values, weights, self_loop);
        let mut in_neighbors = vec![false; d];
        for &pos in &self.order[include_from..] {
            in_neighbors[pos as usize] = true;
        }
        UpdateResult { b, in_neighbors }
    }
}

/// Stateless variant of [`UpdateState::update`] that only computes the new
/// surviving number (used by the centralized reference computation and by the
/// Montresor-style protocols, where the auxiliary subset is not needed).
pub fn surviving_number_update(values: &[f64], weights: &[f64], self_loop: f64) -> f64 {
    debug_assert_eq!(values.len(), weights.len());
    let mut idx: Vec<usize> = (0..values.len()).collect();
    idx.sort_by(|&a, &b| values[a].partial_cmp(&values[b]).expect("NaN value"));
    if let Some(&last) = idx.last() {
        if self_loop > values[last] {
            return self_loop;
        }
    }
    let mut s = self_loop;
    for i in (0..idx.len()).rev() {
        s += weights[idx[i]];
        let b_i = values[idx[i]];
        let b_prev = if i == 0 {
            f64::NEG_INFINITY
        } else {
            values[idx[i - 1]]
        };
        if s > b_prev {
            return if s <= b_i { s } else { b_i };
        }
    }
    self_loop
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids(n: usize) -> Vec<NodeId> {
        (0..n).map(NodeId::new).collect()
    }

    /// Brute-force check of the defining property: b is feasible
    /// (Σ_{u: b_u ≥ b} w_u + self_loop ≥ b) and no larger feasible value exists
    /// among the candidate breakpoints.
    fn check_is_max_feasible(values: &[f64], weights: &[f64], self_loop: f64, b: f64) {
        let feasible = |t: f64| -> bool {
            let sum: f64 = values
                .iter()
                .zip(weights)
                .filter(|(&v, _)| v >= t)
                .map(|(_, &w)| w)
                .sum::<f64>()
                + self_loop;
            // Tolerance absorbs floating-point summation-order differences
            // between the algorithm and this checker.
            sum >= t - 1e-9
        };
        assert!(feasible(b), "returned b = {b} is not feasible");
        // Candidate maxima are the values themselves and all suffix sums.
        let mut candidates: Vec<f64> = values.to_vec();
        let mut sorted = values.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let mut s = self_loop;
        for i in (0..sorted.len()).rev() {
            s += weights
                .iter()
                .zip(values)
                .filter(|(_, &v)| v == sorted[i])
                .map(|(&w, _)| w)
                .sum::<f64>();
            candidates.push(s);
        }
        candidates.push(self_loop);
        for &c in &candidates {
            if c > b + 1e-9 {
                assert!(!feasible(c), "candidate {c} > b = {b} is also feasible");
            }
        }
    }

    #[test]
    fn first_round_gives_weighted_degree() {
        // All neighbours report +∞ (initial state): b = total incident weight.
        let mut st = UpdateState::new(&ids(3));
        let r = st.update(&[f64::INFINITY; 3], &[1.0, 2.0, 3.0], 0.0);
        assert_eq!(r.b, 6.0);
        assert_eq!(r.in_neighbors, vec![true, true, true]);
    }

    #[test]
    fn unit_weights_give_h_index_like_value() {
        // Neighbour values [5, 3, 1], unit weights: the largest feasible b is 2
        // (two neighbours have value ≥ 2).
        let mut st = UpdateState::new(&ids(3));
        let r = st.update(&[5.0, 3.0, 1.0], &[1.0, 1.0, 1.0], 0.0);
        assert_eq!(r.b, 2.0);
        check_is_max_feasible(&[5.0, 3.0, 1.0], &[1.0, 1.0, 1.0], 0.0, r.b);
        // N must contain only neighbours with value >= b and weigh at most b.
        let total: f64 = r
            .in_neighbors
            .iter()
            .zip(&[1.0, 1.0, 1.0])
            .filter(|(&m, _)| m)
            .map(|(_, &w)| w)
            .sum();
        assert!(total <= r.b + 1e-12);
    }

    #[test]
    fn weighted_case() {
        // values [4, 4, 1], weights [3, 2, 10]:
        // b = 4: neighbours with value >= 4 weigh 5 >= 4 ✓ so b = 4.
        let values = [4.0, 4.0, 1.0];
        let weights = [3.0, 2.0, 10.0];
        let mut st = UpdateState::new(&ids(3));
        let r = st.update(&values, &weights, 0.0);
        assert_eq!(r.b, 4.0);
        check_is_max_feasible(&values, &weights, 0.0, r.b);
    }

    #[test]
    fn suffix_sum_limited_case() {
        // values [10, 9], weights [2, 3]: total 5 <= 9, so b = 5 and both are in N.
        let mut st = UpdateState::new(&ids(2));
        let r = st.update(&[10.0, 9.0], &[2.0, 3.0], 0.0);
        assert_eq!(r.b, 5.0);
        assert_eq!(r.in_neighbors, vec![true, true]);
        check_is_max_feasible(&[10.0, 9.0], &[2.0, 3.0], 0.0, r.b);
    }

    #[test]
    fn isolated_node() {
        let mut st = UpdateState::new(&[]);
        let r = st.update(&[], &[], 0.0);
        assert_eq!(r.b, 0.0);
        assert!(r.in_neighbors.is_empty());
        let r2 = UpdateState::new(&[]).update(&[], &[], 2.5);
        assert_eq!(r2.b, 2.5);
    }

    #[test]
    fn self_loop_counts_toward_threshold_but_not_n() {
        // One neighbour with value 1 and weight 1, self-loop 3: the node can
        // sustain b = 3 on its own? For b = 3 the neighbour (value 1) does not
        // count, sum = 3 >= 3 ✓. For b = 4: sum = 3 < 4. So b = 3.
        let mut st = UpdateState::new(&ids(1));
        let r = st.update(&[1.0], &[1.0], 3.0);
        assert_eq!(r.b, 3.0);
        assert_eq!(r.in_neighbors, vec![false]);
    }

    #[test]
    fn invariant_n_weight_at_most_b() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(42);
        for _ in 0..200 {
            let d = rng.gen_range(1..12);
            let values: Vec<f64> = (0..d).map(|_| rng.gen_range(0.0..20.0)).collect();
            let weights: Vec<f64> = (0..d).map(|_| rng.gen_range(0.1..5.0)).collect();
            let mut st = UpdateState::new(&ids(d));
            let r = st.update(&values, &weights, 0.0);
            check_is_max_feasible(&values, &weights, 0.0, r.b);
            let n_weight: f64 = r
                .in_neighbors
                .iter()
                .zip(&weights)
                .filter(|(&m, _)| m)
                .map(|(_, &w)| w)
                .sum();
            assert!(
                n_weight <= r.b + 1e-9,
                "invariant violated: Σ_N w = {n_weight} > b = {}",
                r.b
            );
            // N only contains neighbours whose value is at least b.
            for (pos, &m) in r.in_neighbors.iter().enumerate() {
                if m {
                    assert!(values[pos] >= r.b - 1e-9);
                }
            }
        }
    }

    #[test]
    fn stateless_matches_stateful() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..100 {
            let d = rng.gen_range(0..10);
            let values: Vec<f64> = (0..d).map(|_| rng.gen_range(0.0..10.0)).collect();
            let weights: Vec<f64> = (0..d).map(|_| rng.gen_range(0.1..3.0)).collect();
            let sl = rng.gen_range(0.0..2.0);
            let mut st = UpdateState::new(&ids(d));
            let a = st.update(&values, &weights, sl).b;
            let b = surviving_number_update(&values, &weights, sl);
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn stable_order_is_preserved_across_rounds() {
        // Two neighbours with equal values: the ordering must follow node
        // identity initially, and must keep the order induced by an earlier
        // round where their values differed.
        let neighbor_ids = vec![NodeId(9), NodeId(4)];
        let mut st = UpdateState::new(&neighbor_ids);
        // Round 1: position 0 (id 9) has the *smaller* value.
        st.update(&[1.0, 5.0], &[1.0, 1.0], 0.0);
        assert_eq!(st.order, vec![0, 1]);
        // Round 2: equal values — the previous order (pos 0 before pos 1) must
        // be preserved by the stable sort, even though id 4 < id 9.
        st.update(&[3.0, 3.0], &[1.0, 1.0], 0.0);
        assert_eq!(st.order, vec![0, 1]);

        // Fresh state with equal values from the start: identity order (id 4
        // at position 1 comes first).
        let mut st2 = UpdateState::new(&neighbor_ids);
        st2.update(&[3.0, 3.0], &[1.0, 1.0], 0.0);
        assert_eq!(st2.order, vec![1, 0]);
    }

    #[test]
    fn update_is_monotone_in_neighbor_values() {
        // Lowering any neighbour's value can only lower (or keep) b.
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(11);
        for _ in 0..100 {
            let d = rng.gen_range(1usize..8);
            let values: Vec<f64> = (0..d).map(|_| rng.gen_range(0.0..10.0)).collect();
            let weights: Vec<f64> = (0..d).map(|_| rng.gen_range(0.1..3.0)).collect();
            let b1 = surviving_number_update(&values, &weights, 0.0);
            let mut lowered = values.clone();
            let k = rng.gen_range(0..d);
            lowered[k] *= rng.gen_range(0.0..1.0);
            let b2 = surviving_number_update(&lowered, &weights, 0.0);
            assert!(
                b2 <= b1 + 1e-9,
                "lowering a value increased b: {b1} -> {b2}"
            );
        }
    }

    /// The incremental re-sort after monotone decreases must be
    /// indistinguishable from the full stable sort — including the tie order
    /// among entries that reach equal values, which the covering invariant
    /// (Lemma III.11) depends on.
    #[test]
    fn incremental_matches_full_stable_sort() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0xD17A);
        for case in 0..300 {
            let d = rng.gen_range(1usize..24);
            // Quantize to provoke frequent ties.
            let mut values: Vec<f64> = (0..d).map(|_| rng.gen_range(0..12) as f64 / 2.0).collect();
            let mut inc_order: Vec<u32> = vec![0; d];
            let mut inc_inv: Vec<u32> = vec![0; d];
            let mut full_order: Vec<u32> = vec![0; d];
            let mut full_inv: Vec<u32> = vec![0; d];
            let ids: Vec<NodeId> = (0..d).map(NodeId::new).collect();
            UpdateOrder {
                order: &mut inc_order,
                inv: &mut inc_inv,
            }
            .init_by_id(&ids);
            UpdateOrder {
                order: &mut full_order,
                inv: &mut full_inv,
            }
            .init_by_id(&ids);
            // Establish the initial sorted order on both.
            UpdateOrder {
                order: &mut inc_order,
                inv: &mut inc_inv,
            }
            .sort_full(&values);
            UpdateOrder {
                order: &mut full_order,
                inv: &mut full_inv,
            }
            .sort_full(&values);
            for _round in 0..6 {
                // Decrease a random subset of the values.
                let k = rng.gen_range(0..=d);
                let mut changed: Vec<u32> = Vec::new();
                for _ in 0..k {
                    let pos = rng.gen_range(0..d);
                    if !changed.contains(&(pos as u32)) {
                        values[pos] -= rng.gen_range(0..4) as f64 / 2.0;
                        changed.push(pos as u32);
                    }
                }
                UpdateOrder {
                    order: &mut inc_order,
                    inv: &mut inc_inv,
                }
                .resort_decreased(&values, &mut changed);
                UpdateOrder {
                    order: &mut full_order,
                    inv: &mut full_inv,
                }
                .sort_full(&values);
                assert_eq!(
                    inc_order, full_order,
                    "case {case}: incremental and full stable sort diverged"
                );
                assert_eq!(inc_inv, full_inv, "case {case}: inverse diverged");
            }
        }
    }

    /// `suffix_scan` over an externally sorted order agrees with the owned
    /// `UpdateState` wrapper.
    #[test]
    fn suffix_scan_matches_update_state() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..100 {
            let d = rng.gen_range(0usize..10);
            let values: Vec<f64> = (0..d).map(|_| rng.gen_range(0.0..8.0)).collect();
            let weights: Vec<f64> = (0..d).map(|_| rng.gen_range(0.1..3.0)).collect();
            let sl = if rng.gen_range(0..2) == 0 {
                0.0
            } else {
                rng.gen_range(0.0..3.0)
            };
            let mut order: Vec<u32> = vec![0; d];
            let mut inv: Vec<u32> = vec![0; d];
            let ids: Vec<NodeId> = (0..d).map(NodeId::new).collect();
            let mut uo = UpdateOrder {
                order: &mut order,
                inv: &mut inv,
            };
            uo.init_by_id(&ids);
            uo.sort_full(&values);
            let (b, include_from) = suffix_scan(&order, &values, &weights, sl);
            let r = UpdateState::new(&ids).update(&values, &weights, sl);
            assert_eq!(b, r.b);
            let included: Vec<bool> = {
                let mut f = vec![false; d];
                for &p in &order[include_from..] {
                    f[p as usize] = true;
                }
                f
            };
            assert_eq!(included, r.in_neighbors);
        }
    }

    #[test]
    fn resort_handles_duplicate_equal_updates() {
        // Entries dropping to the same value must keep their previous
        // relative order (stability), regardless of which positions changed.
        // The degree is padded so the changed fraction stays below the
        // full-sort fallback threshold and the bubble path is exercised.
        let d = 12;
        let mut values = vec![3.0, 5.0, 3.0, 4.0];
        values.extend((4..d).map(|i| 10.0 + i as f64));
        let mut order: Vec<u32> = vec![0; d];
        let mut inv: Vec<u32> = vec![0; d];
        let ids: Vec<NodeId> = (0..d).map(NodeId::new).collect();
        let mut uo = UpdateOrder {
            order: &mut order,
            inv: &mut inv,
        };
        uo.init_by_id(&ids);
        uo.sort_full(&values);
        assert_eq!(&order[..4], &[0, 2, 3, 1]);
        // Positions 1 and 3 both drop to 3.0: previous order had 3 before 1.
        values[1] = 3.0;
        values[3] = 3.0;
        let mut changed = vec![1u32, 3u32];
        UpdateOrder {
            order: &mut order,
            inv: &mut inv,
        }
        .resort_decreased(&values, &mut changed);
        assert_eq!(&order[..4], &[0, 2, 3, 1]);
        for (i, &p) in order.iter().enumerate() {
            assert_eq!(inv[p as usize] as usize, i);
        }
    }
}
