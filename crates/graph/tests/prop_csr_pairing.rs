//! Property test: the CSR builder's merge pairing of reverse arcs equals the
//! per-arc binary-search pairing it replaced, on random multigraphs.
//!
//! The graphs are built with `WeightedGraph::add_edge` directly, so parallel
//! edges survive (in both insertion orientations), `u == v` draws become
//! self-loops, trailing nodes stay isolated and node 0 is a high-degree hub.
//! At `u32` and `u64` width the test pins:
//! * `neighbors`, `neighbor_weights` and `self_loop` against the input;
//! * every node's `rank_by_target` slice against an independent stable sort;
//! * every `reverse_arc(p)` against the binary-search oracle;
//! * `reverse_arc` as an involution whose image points back at the source.

use dkc_graph::{CsrGraph, Idx, NodeId, WeightedGraph};
use proptest::prelude::*;

/// The rank map and reverse-arc map as the builder computed them before the
/// merge: each node's positions stably sorted by target, then for every arc
/// `v → t` its occurrence index `k` among `v`'s arcs to `t` (one binary
/// search) and the k-th `t → v` arc (a second binary search).
fn oracle(g: &WeightedGraph) -> (Vec<Vec<usize>>, Vec<usize>) {
    let n = g.num_nodes();
    let nbrs: Vec<Vec<NodeId>> = g
        .nodes()
        .map(|v| g.neighbors(v).iter().map(|&(u, _)| u).collect())
        .collect();
    let mut offsets = vec![0usize];
    for list in &nbrs {
        offsets.push(offsets.last().unwrap() + list.len());
    }
    let rank: Vec<Vec<usize>> = nbrs
        .iter()
        .map(|list| {
            let mut perm: Vec<usize> = (0..list.len()).collect();
            perm.sort_by_key(|&i| list[i]);
            perm
        })
        .collect();
    let positions = |v: usize, u: NodeId| -> &[usize] {
        let perm = &rank[v];
        let lo = perm.partition_point(|&i| nbrs[v][i] < u);
        let hi = lo + perm[lo..].partition_point(|&i| nbrs[v][i] == u);
        &perm[lo..hi]
    };
    let mut reverse = vec![0usize; offsets[n]];
    for v in 0..n {
        for (q, &t) in nbrs[v].iter().enumerate() {
            let k = positions(v, t).iter().position(|&pos| pos == q).unwrap();
            let rq = positions(t.index(), NodeId::new(v))[k];
            reverse[offsets[v] + q] = offsets[t.index()] + rq;
        }
    }
    (rank, reverse)
}

fn check_against_oracle<I: Idx>(g: &WeightedGraph, rank: &[Vec<usize>], reverse: &[usize]) {
    let csr = CsrGraph::<I>::try_from_graph(g).unwrap();
    prop_assert_eq!(csr.num_nodes(), g.num_nodes());
    prop_assert_eq!(csr.num_arcs(), reverse.len());
    for v in g.nodes() {
        let expect_targets: Vec<NodeId> = g.neighbors(v).iter().map(|&(u, _)| u).collect();
        let expect_weights: Vec<f64> = g.neighbors(v).iter().map(|&(_, w)| w).collect();
        prop_assert_eq!(csr.neighbors(v), &expect_targets[..]);
        prop_assert_eq!(csr.neighbor_weights(v), &expect_weights[..]);
        prop_assert_eq!(csr.self_loop(v), g.self_loop(v));
        let got: Vec<usize> = csr.rank_by_target(v).iter().map(|r| r.to_usize()).collect();
        prop_assert_eq!(&got, &rank[v.index()], "rank map of {}", v);
        let base = csr.arc_offset(v);
        for (q, &t) in csr.neighbors(v).iter().enumerate() {
            let p = base + q;
            let rp = csr.reverse_arc(p);
            prop_assert_eq!(rp, reverse[p], "reverse of arc {}", p);
            prop_assert_eq!(csr.reverse_arc(rp), p, "involution at {}", p);
            prop_assert_eq!(csr.neighbors(t)[rp - csr.arc_offset(t)], v);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]
    #[test]
    fn merge_pairing_matches_binary_search_oracle(
        raw_edges in collection::vec((0usize..24, 0usize..24, 1u32..5), 0..160),
        hub_spokes in collection::vec((1usize..24, 1usize..4), 0..40),
        isolated in 0usize..4,
    ) {
        let n = 24 + isolated;
        let mut g = WeightedGraph::new(n);
        for &(u, v, w) in &raw_edges {
            g.add_edge(NodeId::new(u), NodeId::new(v), f64::from(w));
        }
        // The hub: `copies` parallel spokes to `t`, alternating orientation.
        for (i, &(t, copies)) in hub_spokes.iter().enumerate() {
            for c in 0..copies {
                let (a, b) = if (i + c) % 2 == 0 { (0, t) } else { (t, 0) };
                g.add_edge(NodeId::new(a), NodeId::new(b), 0.5);
            }
        }
        let (rank, reverse) = oracle(&g);
        check_against_oracle::<u32>(&g, &rank, &reverse);
        check_against_oracle::<u64>(&g, &rank, &reverse);
    }
}
