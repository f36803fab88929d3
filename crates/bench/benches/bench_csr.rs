//! Per-layer bench: CSR construction (`CsrGraph::from_graph`), i.e. the
//! adjacency copy, the per-node neighbour-rank sort and the reverse-arc
//! merge. Each input's parameter names its directed arc count, so a timing
//! divides into ns/arc directly.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dkc_graph::generators::barabasi_albert;
use dkc_graph::{CsrGraph, NodeId, WeightedGraph};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// `count` cliques of `size` nodes each, consecutive cliques joined by one
/// edge: every node has degree about `size`.
fn clique_chain(count: usize, size: usize) -> WeightedGraph {
    let mut g = WeightedGraph::new(count * size);
    for c in 0..count {
        let first = c * size;
        for u in first..first + size {
            for v in u + 1..first + size {
                g.add_unit_edge(NodeId::new(u), NodeId::new(v));
            }
        }
        if c + 1 < count {
            g.add_unit_edge(NodeId::new(first + size - 1), NodeId::new(first + size));
        }
    }
    g
}

fn bench_csr_build(c: &mut Criterion) {
    let mut group = c.benchmark_group("csr/build");
    group.sample_size(10);
    let mut inputs = Vec::new();
    for &n in &[20_000usize, 100_000] {
        let mut rng = StdRng::seed_from_u64(4);
        inputs.push(("ba_m4", format!("n{n}"), barabasi_albert(n, 4, &mut rng)));
    }
    for &(count, size) in &[(10usize, 300usize), (20, 300)] {
        let label = format!("{count}x{size}");
        inputs.push(("clique_chain", label, clique_chain(count, size)));
    }
    for (family, label, g) in &inputs {
        let arcs = 2 * g.num_plain_edges();
        let id = BenchmarkId::new(family, format!("{label}-arcs{arcs}"));
        group.bench_with_input(id, g, |b, g| b.iter(|| CsrGraph::from_graph(g)));
    }
    group.finish();
}

criterion_group!(benches, bench_csr_build);
criterion_main!(benches);
