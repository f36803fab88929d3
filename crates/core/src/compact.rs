//! Algorithm 2: the compact elimination procedure over a flat state arena.
//!
//! Instead of running Algorithm 1 for every threshold in parallel, each node
//! only remembers the largest threshold for which it still survives — its
//! *surviving number* `b_v` — and broadcasts it each round. After receiving its
//! neighbours' numbers, a node recomputes `b_v` with the `Update` subroutine
//! (Algorithm 3), optionally rounding down to the threshold set Λ, and (for
//! Λ = ℝ) maintains the auxiliary in-neighbour set `N_v` used by the min-max
//! orientation (Theorem I.2).
//!
//! ## Flat state arena
//!
//! Per-node state does **not** live in per-node heap allocations: the
//! [`CompactArena`] packs everything into structure-of-arrays slabs indexed by
//! the [`CsrGraph`] offsets — one contiguous `neighbor_values` slab for the
//! whole graph, one slab each for the `Update` ordering, its inverse, the
//! in-neighbour stamps and the scratch area, plus node-indexed slabs for the
//! surviving numbers. Each [`CompactNode`] program handed to the executor is a
//! set of disjoint `&mut` slices into those slabs (carved with
//! `split_at_mut`), so the executor's parallel phases stream through
//! contiguous memory instead of chasing per-node pointers.
//!
//! The receive path is **incremental**: deliveries carry the receiver-local
//! arc position ([`dkc_distsim::Delivery::pos`]), so merging the inbox writes
//! only the changed `neighbor_values` slots, and the `Update` re-sort bubbles
//! exactly those entries ([`UpdateOrder::resort_decreased`]) instead of
//! re-scanning the full adjacency list. Combined with the sparse frontier
//! executor (`ExecutionMode::Sparse*` — the program is
//! [`NodeProgram::DELTA_DRIVEN`]) the per-round cost becomes proportional to
//! the active frontier; the dense modes remain available for A/B comparison
//! and are result-identical.

use crate::checkpoint::{graph_fingerprint, CheckpointConfig, RunPreamble};
use crate::threshold::ThresholdSet;
use crate::update::{suffix_scan, UpdateOrder};
use dkc_distsim::message::QuantizedValue;
use dkc_distsim::wire::{WireError, WireReader, WireWriter};
use dkc_distsim::{
    CheckpointError, Delivery, ExecutionMode, FaultPlan, NetworkBuilder, NodeContext, NodeProgram,
    Outgoing, RunMetrics, SnapshotState,
};
use dkc_graph::{CsrGraph, NodeId, Partitioner};
use serde::ser::Serialize;

/// Structure-of-arrays storage for a set of nodes' elimination state, indexed
/// by arena-local arc offsets (arc slabs) and by arena-local slot (node
/// slabs). A whole-graph arena ([`CompactArena::new`]) covers every node in
/// id order; a shard arena ([`CompactArena::for_nodes`], via
/// [`ShardedCompactArena`]) covers only the nodes one shard owns, so each
/// shard's state lives in its own contiguous slabs.
#[derive(Clone, Debug)]
pub struct CompactArena {
    threshold_set: ThresholdSet,
    /// Global node id backing each local slot (identity for a whole-graph
    /// arena; the shard's owned nodes, ascending, for a shard arena).
    nodes: Vec<u32>,
    /// Arena-local arc offsets (`offsets[v]..offsets[v+1]` is slot v's
    /// slice).
    offsets: Vec<usize>,
    /// Arc slab: latest surviving number heard per neighbour (init +∞).
    values: Vec<f64>,
    /// Arc slab: the `Update` ordering (sorted adjacency positions).
    order: Vec<u32>,
    /// Arc slab: inverse of `order`.
    inv: Vec<u32>,
    /// Arc slab: round at which the position was last included in `N_v`;
    /// a position belongs to `N_v` iff its stamp equals the node's
    /// `last_update_round` (0/0 initially ⇒ all neighbours, matching the
    /// paper's initial state).
    in_stamp: Vec<u32>,
    /// Arc slab: scratch for the changed-position list of one update.
    scratch: Vec<u32>,
    /// Node slab: current surviving numbers (init +∞).
    b: Vec<f64>,
    /// Node slab: round of the last executed update (0 = never).
    last_update_round: Vec<u32>,
    /// Node slab: bits charged per transmitted surviving number.
    message_bits: Vec<u32>,
}

impl CompactArena {
    /// Builds the initial whole-graph arena for `graph` under threshold set Λ.
    pub fn new(graph: &CsrGraph, threshold_set: ThresholdSet) -> Self {
        let nodes: Vec<NodeId> = graph.nodes().collect();
        Self::for_nodes(graph, threshold_set, &nodes)
    }

    /// Builds an arena covering only `nodes` (an ascending subset of the
    /// graph's nodes — e.g. the nodes one shard owns). The slabs are sized by
    /// the subset's degrees and indexed by arena-local offsets, so a sharded
    /// run keeps each shard's node state in its own contiguous allocation.
    pub fn for_nodes(graph: &CsrGraph, threshold_set: ThresholdSet, nodes: &[NodeId]) -> Self {
        let mut offsets = Vec::with_capacity(nodes.len() + 1);
        offsets.push(0usize);
        for &v in nodes {
            offsets.push(offsets.last().expect("non-empty") + graph.neighbors(v).len());
        }
        let arcs = *offsets.last().expect("non-empty");
        let mut order = vec![0u32; arcs];
        let mut inv = vec![0u32; arcs];
        // The initial ordering is by neighbour id, ties by position: the CSR
        // neighbour-rank map, copied rather than re-sorted.
        for (i, &v) in nodes.iter().enumerate() {
            let (lo, hi) = (offsets[i], offsets[i + 1]);
            order[lo..hi].copy_from_slice(graph.rank_by_target(v));
            UpdateOrder {
                order: &mut order[lo..hi],
                inv: &mut inv[lo..hi],
            }
            .rebuild_inverse();
        }
        CompactArena {
            threshold_set,
            values: vec![f64::INFINITY; arcs],
            order,
            inv,
            in_stamp: vec![0; arcs],
            scratch: vec![0; arcs],
            b: vec![f64::INFINITY; nodes.len()],
            last_update_round: vec![0; nodes.len()],
            message_bits: nodes
                .iter()
                .map(|&v| threshold_set.message_bits(graph.degree(v).max(1.0)) as u32)
                .collect(),
            nodes: nodes.iter().map(|v| v.0).collect(),
            offsets,
        }
    }

    /// Carves the arena into one [`CompactNode`] program per node — disjoint
    /// mutable slices of the slabs, suitable for [`Network::from_parts`]. The
    /// arena is mutably borrowed for as long as the programs live; drop them
    /// (e.g. via [`Network::into_parts`]) before reading results.
    pub fn programs(&mut self) -> Vec<CompactNode<'_>> {
        let n = self.b.len();
        let mut out = Vec::with_capacity(n);
        let mut values = self.values.as_mut_slice();
        let mut order = self.order.as_mut_slice();
        let mut inv = self.inv.as_mut_slice();
        let mut in_stamp = self.in_stamp.as_mut_slice();
        let mut scratch = self.scratch.as_mut_slice();
        let mut b = self.b.iter_mut();
        let mut last = self.last_update_round.iter_mut();
        for v in 0..n {
            let deg = self.offsets[v + 1] - self.offsets[v];
            let (values_v, values_rest) = values.split_at_mut(deg);
            let (order_v, order_rest) = order.split_at_mut(deg);
            let (inv_v, inv_rest) = inv.split_at_mut(deg);
            let (in_stamp_v, in_stamp_rest) = in_stamp.split_at_mut(deg);
            let (scratch_v, scratch_rest) = scratch.split_at_mut(deg);
            values = values_rest;
            order = order_rest;
            inv = inv_rest;
            in_stamp = in_stamp_rest;
            scratch = scratch_rest;
            out.push(CompactNode {
                b: b.next().expect("node slab length"),
                last_update_round: last.next().expect("node slab length"),
                values: values_v,
                order: order_v,
                inv: inv_v,
                in_stamp: in_stamp_v,
                scratch: scratch_v,
                threshold_set: self.threshold_set,
                message_bits: self.message_bits[v],
            });
        }
        out
    }

    /// The surviving numbers `b_v` (by node index).
    pub fn surviving(&self) -> &[f64] {
        &self.b
    }

    /// Materializes the auxiliary in-neighbour sets `N_v` from the stamp slab
    /// (in arena-local slot order).
    pub fn in_neighbors(&self, graph: &CsrGraph) -> Vec<Vec<NodeId>> {
        (0..self.b.len())
            .map(|v| {
                let lo = self.offsets[v];
                let last = self.last_update_round[v];
                graph
                    .neighbors(NodeId(self.nodes[v]))
                    .iter()
                    .enumerate()
                    .filter(|&(pos, _)| self.in_stamp[lo + pos] == last)
                    .map(|(_, &u)| u)
                    .collect()
            })
            .collect()
    }
}

/// One [`CompactArena`] per shard, each covering exactly the nodes that shard
/// owns under the deterministic edge-cut [`Partitioner`] — the node-state
/// half of a sharded run ([`dkc_distsim::NetworkBuilder::shards`]). The
/// per-shard slabs are independent allocations (a real deployment would
/// build each on its own machine); [`ShardedCompactArena::programs`]
/// reassembles the executor's global node order by interleaving the shards'
/// programs through the owner table. With one shard it is the whole-graph
/// arena.
#[derive(Clone, Debug)]
pub struct ShardedCompactArena {
    owner: Vec<u32>,
    shards: Vec<CompactArena>,
}

impl ShardedCompactArena {
    /// Partitions `graph` into `num_shards` shards (seeded, deterministic —
    /// the same mapping [`dkc_distsim::NetworkBuilder::shards`] installs) and
    /// builds one arena per shard over its owned nodes.
    pub fn new(
        graph: &CsrGraph,
        threshold_set: ThresholdSet,
        num_shards: usize,
        seed: u64,
    ) -> Self {
        let part = Partitioner::new(num_shards, seed);
        let owner: Vec<u32> = graph.nodes().map(|v| part.shard_of(v) as u32).collect();
        let mut owned = vec![Vec::new(); num_shards];
        for v in graph.nodes() {
            owned[owner[v.index()] as usize].push(v);
        }
        let shards = owned
            .iter()
            .map(|nodes| CompactArena::for_nodes(graph, threshold_set, nodes))
            .collect();
        ShardedCompactArena { owner, shards }
    }

    /// Carves every shard's arena and interleaves the programs back into
    /// global node order (each shard's programs are in ascending owned-node
    /// order, so a per-shard cursor walk reconstructs it exactly) — the shape
    /// [`dkc_distsim::Network::from_parts`] requires.
    pub fn programs(&mut self) -> Vec<CompactNode<'_>> {
        let owner = &self.owner;
        let mut per_shard: Vec<_> = self
            .shards
            .iter_mut()
            .map(|a| a.programs().into_iter())
            .collect();
        owner
            .iter()
            .map(|&s| {
                per_shard[s as usize]
                    .next()
                    .expect("every node is owned by exactly one shard")
            })
            .collect()
    }

    /// The surviving numbers `b_v`, reassembled into global node order.
    pub fn surviving(&self) -> Vec<f64> {
        self.interleave(self.shards.iter().map(|a| a.surviving().iter().copied()))
    }

    /// The auxiliary in-neighbour sets `N_v`, reassembled into global node
    /// order.
    pub fn in_neighbors(&self, graph: &CsrGraph) -> Vec<Vec<NodeId>> {
        self.interleave(
            self.shards
                .iter()
                .map(|a| a.in_neighbors(graph).into_iter()),
        )
    }

    /// Merges per-shard sequences (each in ascending owned-node order) into
    /// global node order.
    fn interleave<T>(&self, per_shard: impl Iterator<Item = impl Iterator<Item = T>>) -> Vec<T> {
        let mut per_shard: Vec<_> = per_shard.collect();
        self.owner
            .iter()
            .map(|&s| {
                per_shard[s as usize]
                    .next()
                    .expect("every node is owned by exactly one shard")
            })
            .collect()
    }
}

/// Per-node program for the compact elimination procedure: disjoint slices of
/// a [`CompactArena`]. Delta-driven — valid under the sparse frontier
/// execution modes.
#[derive(Debug)]
pub struct CompactNode<'a> {
    /// Current surviving number (starts at +∞, as in Algorithm 2).
    b: &'a mut f64,
    /// Round of the last executed update (0 = never); doubles as the valid
    /// stamp value for `in_stamp`.
    last_update_round: &'a mut u32,
    /// Latest surviving numbers heard from each neighbour (by adjacency
    /// position), initialized to +∞.
    values: &'a mut [f64],
    /// Persistent `Update` ordering (history-encoding neighbour order).
    order: &'a mut [u32],
    /// Inverse of `order`.
    inv: &'a mut [u32],
    /// `N_v` membership stamps (by adjacency position).
    in_stamp: &'a mut [u32],
    /// Scratch for the changed-position list.
    scratch: &'a mut [u32],
    /// The threshold set Λ.
    threshold_set: ThresholdSet,
    /// Bits charged per transmitted surviving number (fixed per node; see
    /// [`ThresholdSet::message_bits`]).
    message_bits: u32,
}

impl CompactNode<'_> {
    /// The node's current surviving number.
    pub fn surviving_number(&self) -> f64 {
        *self.b
    }
}

impl NodeProgram for CompactNode<'_> {
    type Message = QuantizedValue;

    /// The broadcast is a pure function of `b`, the merge is an idempotent
    /// per-position cache write, and an empty inbox after the first step is a
    /// no-op — the contract the sparse frontier executor needs.
    const DELTA_DRIVEN: bool = true;

    fn broadcast(&mut self, _ctx: &NodeContext<'_>) -> Outgoing<QuantizedValue> {
        Outgoing::Broadcast(QuantizedValue {
            value: *self.b,
            bits: self.message_bits as usize,
        })
    }

    fn receive(&mut self, ctx: &NodeContext<'_>, inbox: &[Delivery<QuantizedValue>]) -> bool {
        // Merge the received numbers into the per-neighbour value slab,
        // collecting the positions that actually decreased. Surviving numbers
        // are monotone non-increasing, so an already-known (or stale) value
        // never exceeds the cache.
        let mut changed_count = 0usize;
        for d in inbox {
            let pos = d.pos as usize;
            let v = d.msg.value;
            if v < self.values[pos] {
                self.values[pos] = v;
                self.scratch[changed_count] = d.pos;
                changed_count += 1;
            }
        }
        if changed_count == 0 && *self.last_update_round != 0 {
            // Nothing new: `Update` would recompute the identical state.
            return false;
        }
        UpdateOrder {
            order: &mut *self.order,
            inv: &mut *self.inv,
        }
        .resort_decreased(&*self.values, &mut self.scratch[..changed_count]);
        let (raw, include_from) = suffix_scan(
            &*self.order,
            &*self.values,
            ctx.neighbor_weights(),
            ctx.self_loop(),
        );
        let rounded = self.threshold_set.round_down(raw);
        debug_assert!(
            rounded <= *self.b + 1e-9,
            "surviving number increased: {} -> {rounded}",
            self.b
        );
        let round = ctx.round() as u32;
        for &pos in &self.order[include_from..] {
            self.in_stamp[pos as usize] = round;
        }
        *self.last_update_round = round;
        let changed = (rounded - *self.b).abs() > 1e-12 || self.b.is_infinite();
        *self.b = rounded;
        changed
    }
}

/// Checkpoint payload of one node: the live elimination state. The scratch
/// slab is pure per-step workspace and the message-bit/threshold parameters
/// are rebuilt from the graph, so neither is persisted. The degree leads the
/// payload as a cross-check against the arena the state is restored into.
impl SnapshotState for CompactNode<'_> {
    fn save_state(&self, w: &mut WireWriter) -> Result<(), WireError> {
        let deg = self.values.len() as u32;
        deg.serialize(&mut *w)?;
        self.b.serialize(&mut *w)?;
        self.last_update_round.serialize(&mut *w)?;
        for &x in self.values.iter() {
            x.serialize(&mut *w)?;
        }
        for &x in self.order.iter() {
            x.serialize(&mut *w)?;
        }
        for &x in self.inv.iter() {
            x.serialize(&mut *w)?;
        }
        for &x in self.in_stamp.iter() {
            x.serialize(&mut *w)?;
        }
        Ok(())
    }

    fn load_state(&mut self, r: &mut WireReader<'_>) -> Result<(), CheckpointError> {
        let deg = self.values.len();
        let saved_deg = r.read_u32()? as usize;
        if saved_deg != deg {
            return Err(CheckpointError::Mismatch(format!(
                "node degree {saved_deg} in checkpoint, {deg} in this graph"
            )));
        }
        *self.b = r.read_f64()?;
        *self.last_update_round = r.read_u32()?;
        for x in self.values.iter_mut() {
            *x = r.read_f64()?;
        }
        for x in self.order.iter_mut() {
            *x = r.read_u32()?;
        }
        for x in self.inv.iter_mut() {
            *x = r.read_u32()?;
        }
        for x in self.in_stamp.iter_mut() {
            *x = r.read_u32()?;
        }
        // `order` must be a permutation of 0..deg with `inv` its inverse —
        // anything else would make the Update re-sort read out of bounds.
        let consistent = self.order.iter().enumerate().all(|(i, &p)| {
            (p as usize) < deg && self.inv.get(p as usize).is_some_and(|&q| q as usize == i)
        });
        if !consistent {
            return Err(CheckpointError::Mismatch(
                "checkpointed update order is not a valid permutation".to_string(),
            ));
        }
        Ok(())
    }
}

/// The output of the compact elimination procedure.
#[derive(Clone, Debug)]
pub struct CompactOutcome {
    /// `surviving[v]` = the surviving number `b_v` after the requested number
    /// of rounds (equal to `β^T(v)` for Λ = ℝ, Fact III.9).
    pub surviving: Vec<f64>,
    /// `in_neighbors[v]` = the auxiliary subset `N_v` (neighbours whose shared
    /// edge is assigned to `v`). Meaningful for Λ = ℝ (Definition III.7).
    pub in_neighbors: Vec<Vec<NodeId>>,
    /// Number of rounds executed.
    pub rounds: usize,
    /// Communication metrics of the run.
    pub metrics: RunMetrics,
}

impl CompactOutcome {
    /// The largest surviving number in the network (an upper bound on the
    /// maximum density / coreness; used e.g. to feed the Barenboim–Elkin
    /// baseline).
    pub fn max_surviving(&self) -> f64 {
        self.surviving.iter().fold(0.0, |a, &b| a.max(b))
    }
}

/// The parameters of one compact-elimination run (everything
/// [`run_compact_elimination`] needs besides the graph).
#[derive(Clone, Debug)]
pub struct RunConfig {
    /// Number of rounds `T`.
    pub rounds: usize,
    /// The threshold set Λ.
    pub threshold_set: ThresholdSet,
    /// The execution mode; a sharded run ignores it (see
    /// [`dkc_distsim::NetworkBuilder::shards`]).
    pub mode: ExecutionMode,
    /// The deterministic fault plan.
    pub faults: FaultPlan,
    /// `(shard count, partitioner seed)` of a sharded run.
    pub shards: Option<(usize, u64)>,
    /// Where and how often the run writes checkpoints.
    pub checkpoint: Option<CheckpointConfig>,
}

impl RunConfig {
    /// `rounds` rounds over Λ = ℝ in the default mode: fault-free,
    /// unsharded, without checkpoints.
    pub fn new(rounds: usize) -> Self {
        RunConfig {
            rounds,
            threshold_set: ThresholdSet::Reals,
            mode: ExecutionMode::default(),
            faults: FaultPlan::none(),
            shards: None,
            checkpoint: None,
        }
    }
}

/// Runs Algorithm 2 on `g` as `cfg` describes. Fails only when writing a
/// checkpoint fails.
///
/// Faults only slow convergence down: a dropped message leaves the
/// receiver's cached neighbour value at its previous (higher) level and a
/// crash-stopped node freezes at its last value, so the surviving numbers
/// remain valid upper bounds on the coreness (Lemma III.2 is unaffected).
/// Every mode, shard count and checkpoint schedule gives the same values and
/// the same deterministic counters; a sharded run adds the boundary counters
/// on top (pinned by `prop_sparse_dense`, `prop_sharded` and
/// `prop_checkpoint`).
pub fn run_compact_elimination(
    g: &CsrGraph,
    cfg: &RunConfig,
) -> Result<CompactOutcome, CheckpointError> {
    Ok(execute(g, cfg, None)?.0)
}

/// Builds the arena and network for `cfg`, restores `state` (a checkpointed
/// executor state) if given, and runs the rounds left to `cfg.rounds`.
/// Returns the outcome and the round the run started from.
pub(crate) fn execute(
    g: &CsrGraph,
    cfg: &RunConfig,
    state: Option<&[u8]>,
) -> Result<(CompactOutcome, usize), CheckpointError> {
    let (num_shards, seed) = cfg.shards.map_or((1, 0), |(z, seed)| (z.max(1), seed));
    let mut arena = ShardedCompactArena::new(g, cfg.threshold_set, num_shards, seed);
    let builder = match cfg.shards {
        Some(_) => NetworkBuilder::new().shards(num_shards).shard_seed(seed),
        None => NetworkBuilder::new().mode(cfg.mode),
    };
    let mut net = builder
        .faults(cfg.faults)
        .checkpoint_every(cfg.checkpoint.as_ref().map_or(0, |c| c.every.max(1)))
        .build_from_parts(g.clone(), arena.programs());
    if let Some(c) = &cfg.checkpoint {
        let preamble = RunPreamble {
            nodes: g.num_nodes() as u64,
            arcs: g.num_arcs() as u64,
            fingerprint: graph_fingerprint(g),
            rounds_target: cfg.rounds as u64,
            threshold_set: cfg.threshold_set,
            faults: cfg.faults,
            shards: cfg.shards.map_or(0, |_| num_shards as u64),
            shard_seed: seed,
        };
        net.checkpoint_to(&c.path, preamble.encode());
    }
    if let Some(state) = state {
        net.restore_state(state)?;
    }
    let start = net.round();
    if start > cfg.rounds {
        return Err(CheckpointError::Mismatch(format!(
            "checkpoint is at round {start}, past the run's target of {} rounds",
            cfg.rounds
        )));
    }
    net.run_with_checkpoints(cfg.rounds - start)?;
    let metrics = net.into_parts().1;
    let outcome = CompactOutcome {
        surviving: arena.surviving(),
        in_neighbors: arena.in_neighbors(g),
        rounds: cfg.rounds,
        metrics,
    };
    Ok((outcome, start))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::surviving::surviving_numbers;
    use dkc_baselines::weighted_coreness;
    use dkc_flow::dense_decomposition;
    use dkc_graph::generators::{
        barabasi_albert, complete_graph, erdos_renyi, path_graph, with_random_integer_weights,
    };
    use dkc_graph::WeightedGraph;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn arena_order_is_the_csr_rank_map_and_init_by_id() {
        // A multigraph: parallel edges in both insertion orders, a hub and
        // an isolated node.
        let mut g = WeightedGraph::new(6);
        for (u, v) in [(3, 0), (0, 4), (2, 1)] {
            g.add_unit_edge(NodeId(u), NodeId(v));
            g.add_unit_edge(NodeId(v), NodeId(u));
        }
        g.add_unit_edge(NodeId(1), NodeId(0));
        g.add_unit_edge(NodeId(0), NodeId(2));
        let csr = CsrGraph::from_graph(&g);
        let arena = CompactArena::new(&csr, ThresholdSet::Reals);
        for v in csr.nodes() {
            let (lo, hi) = (arena.offsets[v.index()], arena.offsets[v.index() + 1]);
            let mut order = vec![0u32; hi - lo];
            let mut inv = vec![0u32; hi - lo];
            UpdateOrder {
                order: &mut order,
                inv: &mut inv,
            }
            .init_by_id(csr.neighbors(v));
            assert_eq!(&arena.order[lo..hi], csr.rank_by_target(v), "node {v}");
            assert_eq!(arena.order[lo..hi], order, "node {v}");
            assert_eq!(arena.inv[lo..hi], inv, "node {v}");
        }
    }

    fn run(
        g: &WeightedGraph,
        rounds: usize,
        threshold_set: ThresholdSet,
        mode: ExecutionMode,
    ) -> CompactOutcome {
        run_faulty(g, rounds, threshold_set, mode, FaultPlan::none())
    }

    fn run_faulty(
        g: &WeightedGraph,
        rounds: usize,
        threshold_set: ThresholdSet,
        mode: ExecutionMode,
        faults: FaultPlan,
    ) -> CompactOutcome {
        let cfg = RunConfig {
            threshold_set,
            mode,
            faults,
            ..RunConfig::new(rounds)
        };
        crate::api::run_weighted(g, &cfg)
    }

    #[test]
    fn distributed_matches_centralized_reference() {
        let mut rng = StdRng::seed_from_u64(21);
        for _ in 0..3 {
            let g = erdos_renyi(50, 0.1, &mut rng);
            for rounds in [1usize, 2, 4, 7] {
                let outcome = run(&g, rounds, ThresholdSet::Reals, ExecutionMode::Sequential);
                let reference = surviving_numbers(&g, rounds);
                for v in 0..50 {
                    assert!(
                        (outcome.surviving[v] - reference[v]).abs() < 1e-9,
                        "rounds {rounds}, node {v}: {} vs {}",
                        outcome.surviving[v],
                        reference[v]
                    );
                }
            }
        }
    }

    #[test]
    fn all_execution_modes_match() {
        let mut rng = StdRng::seed_from_u64(22);
        let g = barabasi_albert(120, 3, &mut rng);
        let seq = run(&g, 5, ThresholdSet::Reals, ExecutionMode::Sequential);
        for mode in [
            ExecutionMode::Parallel,
            ExecutionMode::SparseSequential,
            ExecutionMode::SparseParallel,
        ] {
            let other = run(&g, 5, ThresholdSet::Reals, mode);
            assert_eq!(seq.surviving, other.surviving, "{mode:?}");
            assert_eq!(seq.in_neighbors, other.in_neighbors, "{mode:?}");
        }
    }

    #[test]
    fn sparse_execution_prunes_node_updates() {
        // A path has a long convergence tail with a narrow frontier.
        let g = path_graph(120);
        let rounds = 120;
        let dense = run(&g, rounds, ThresholdSet::Reals, ExecutionMode::Sequential);
        let sparse = run(
            &g,
            rounds,
            ThresholdSet::Reals,
            ExecutionMode::SparseSequential,
        );
        assert_eq!(dense.surviving, sparse.surviving);
        assert_eq!(dense.in_neighbors, sparse.in_neighbors);
        let d = dense.metrics.total_node_updates();
        let s = sparse.metrics.total_node_updates();
        assert_eq!(d, 120 * rounds, "dense runs every node every round");
        assert!(
            s * 4 < d,
            "sparse should cut node updates by >4x on the long tail ({s} vs {d})"
        );
        assert!(sparse.metrics.total_messages() < dense.metrics.total_messages());
    }

    /// Theorem III.5: r(v) <= c(v) <= β^T(v) <= γ·r(v) <= γ·c(v) with
    /// γ = 2 n^{1/T}.
    #[test]
    fn theorem_iii_5_sandwich() {
        let mut rng = StdRng::seed_from_u64(23);
        let base = erdos_renyi(40, 0.15, &mut rng);
        let g = with_random_integer_weights(&base, 3, &mut rng);
        let core = weighted_coreness(&g);
        let decomposition = dense_decomposition(&g);
        let n = 40f64;
        for rounds in [1usize, 2, 4, 6, 10] {
            let outcome = run(&g, rounds, ThresholdSet::Reals, ExecutionMode::Sequential);
            let gamma = 2.0 * n.powf(1.0 / rounds as f64);
            for v in 0..40 {
                let beta = outcome.surviving[v];
                let r = decomposition.maximal_density[v];
                let c = core[v];
                assert!(r <= c + 1e-6, "r > c at node {v}");
                assert!(c <= beta + 1e-6, "c > beta at node {v} (rounds {rounds})");
                assert!(
                    beta <= gamma * r + 1e-6,
                    "beta {beta} > gamma*r = {} at node {v} (rounds {rounds})",
                    gamma * r
                );
            }
        }
    }

    /// Definition III.7, second invariant: every edge is covered by at least
    /// one endpoint's auxiliary set.
    #[test]
    fn every_edge_is_covered() {
        let mut rng = StdRng::seed_from_u64(24);
        for trial in 0..4 {
            let base = barabasi_albert(80, 3, &mut rng);
            let g = if trial % 2 == 0 {
                base
            } else {
                with_random_integer_weights(&base, 10, &mut rng)
            };
            // Exercise the sparse executor on half the trials: the covering
            // invariant must survive frontier-driven (partial) updates too.
            let mode = if trial < 2 {
                ExecutionMode::Sequential
            } else {
                ExecutionMode::SparseSequential
            };
            for rounds in [1usize, 3, 6] {
                let outcome = run(&g, rounds, ThresholdSet::Reals, mode);
                for (u, v, _) in g.edges() {
                    if u == v {
                        continue;
                    }
                    let covered = outcome.in_neighbors[v.index()].contains(&u)
                        || outcome.in_neighbors[u.index()].contains(&v);
                    assert!(
                        covered,
                        "edge {{{u}, {v}}} uncovered after {rounds} rounds (trial {trial})"
                    );
                }
            }
        }
    }

    /// Definition III.7, first invariant: Σ_{u ∈ N_v} w_uv <= b_v.
    #[test]
    fn in_neighbor_weight_bounded_by_surviving_number() {
        let mut rng = StdRng::seed_from_u64(25);
        let base = barabasi_albert(100, 4, &mut rng);
        let g = with_random_integer_weights(&base, 7, &mut rng);
        let outcome = run(&g, 5, ThresholdSet::Reals, ExecutionMode::Sequential);
        for v in g.nodes() {
            let total: f64 = outcome.in_neighbors[v.index()]
                .iter()
                .map(|&u| {
                    g.neighbors(v)
                        .iter()
                        .find(|&&(x, _)| x == u)
                        .map(|&(_, w)| w)
                        .unwrap()
                })
                .sum();
            assert!(
                total <= outcome.surviving[v.index()] + 1e-9,
                "node {v}: N weight {total} > b {}",
                outcome.surviving[v.index()]
            );
        }
    }

    /// Corollary III.10: with Λ = powers of (1+λ), the output is within a
    /// (1+λ) factor below the exact surviving number.
    #[test]
    fn quantization_loses_at_most_one_grid_step() {
        let mut rng = StdRng::seed_from_u64(26);
        let g = erdos_renyi(60, 0.1, &mut rng);
        let rounds = 6;
        let exact = run(&g, rounds, ThresholdSet::Reals, ExecutionMode::Sequential);
        for &lambda in &[0.01, 0.1, 0.5] {
            let quantized = run(
                &g,
                rounds,
                ThresholdSet::power_grid(lambda),
                ExecutionMode::Sequential,
            );
            for v in 0..60 {
                let e = exact.surviving[v];
                let q = quantized.surviving[v];
                assert!(q <= e + 1e-9, "quantized above exact at node {v}");
                assert!(
                    q * (1.0 + lambda) * (1.0 + lambda) >= e - 1e-9,
                    "node {v}: quantized {q} more than (1+λ)^2 below exact {e} (λ={lambda})"
                );
            }
            // Quantized messages must be smaller than full words.
            assert!(quantized.metrics.max_message_bits() < exact.metrics.max_message_bits());
        }
    }

    #[test]
    fn clique_values_equal_degree() {
        let g = complete_graph(8);
        let outcome = run(&g, 3, ThresholdSet::Reals, ExecutionMode::Sequential);
        // K_8: coreness = density-ish = 7; β stays at 7 from round 1 on.
        for v in 0..8 {
            assert_eq!(outcome.surviving[v], 7.0);
        }
    }

    #[test]
    fn path_converges_to_coreness_one() {
        let g = path_graph(10);
        // After enough rounds, β = coreness = 1 everywhere.
        let outcome = run(&g, 20, ThresholdSet::Reals, ExecutionMode::Sequential);
        for v in 0..10 {
            assert_eq!(outcome.surviving[v], 1.0);
        }
        // After a single round, β = degree.
        let one = run(&g, 1, ThresholdSet::Reals, ExecutionMode::Sequential);
        assert_eq!(one.surviving[0], 1.0);
        assert_eq!(one.surviving[5], 2.0);
    }

    #[test]
    fn empty_graph_and_isolated_nodes() {
        let g = WeightedGraph::new(3);
        for mode in [ExecutionMode::Sequential, ExecutionMode::SparseSequential] {
            let outcome = run(&g, 2, ThresholdSet::Reals, mode);
            assert_eq!(outcome.surviving, vec![0.0; 3], "{mode:?}");
            assert!(outcome.in_neighbors.iter().all(Vec::is_empty));
        }
    }

    #[test]
    fn message_loss_degrades_gracefully() {
        use dkc_distsim::LossModel;
        let mut rng = StdRng::seed_from_u64(27);
        let g = barabasi_albert(100, 3, &mut rng);
        let rounds = 8;
        let clean = run(&g, rounds, ThresholdSet::Reals, ExecutionMode::Sequential);
        let core = weighted_coreness(&g);

        // Zero loss is exactly the clean run.
        let zero = run_faulty(
            &g,
            rounds,
            ThresholdSet::Reals,
            ExecutionMode::Sequential,
            FaultPlan::from_loss(LossModel::new(0.0, 1)),
        );
        assert_eq!(zero.surviving, clean.surviving);

        for &p in &[0.1, 0.3, 0.8] {
            let lossy = run_faulty(
                &g,
                rounds,
                ThresholdSet::Reals,
                ExecutionMode::Sequential,
                FaultPlan::from_loss(LossModel::new(p, 99)),
            );
            for v in 0..100 {
                // Still a valid upper bound on the coreness …
                assert!(lossy.surviving[v] >= core[v] - 1e-9, "p={p}, node {v}");
                // … and never better-informed than the fault-free run.
                assert!(
                    lossy.surviving[v] >= clean.surviving[v] - 1e-9,
                    "p={p}, node {v}: lossy {} below clean {}",
                    lossy.surviving[v],
                    clean.surviving[v]
                );
            }
            // Every execution mode agrees even under loss (deterministic
            // drops; sparse senders re-send after dropped copies).
            for mode in [
                ExecutionMode::Parallel,
                ExecutionMode::SparseSequential,
                ExecutionMode::SparseParallel,
            ] {
                let other = run_faulty(
                    &g,
                    rounds,
                    ThresholdSet::Reals,
                    mode,
                    FaultPlan::from_loss(LossModel::new(p, 99)),
                );
                assert_eq!(lossy.surviving, other.surviving, "p={p}, {mode:?}");
            }
        }
    }

    /// Crash-stop fault injection: frozen values stay valid upper bounds on
    /// the coreness, dense and sparse agree byte-for-byte, and the crash run
    /// does strictly fewer node updates than the fault-free run.
    #[test]
    fn crash_stop_degrades_gracefully() {
        use dkc_distsim::CrashModel;
        let mut rng = StdRng::seed_from_u64(31);
        let g = barabasi_albert(120, 3, &mut rng);
        let rounds = 12;
        let core = weighted_coreness(&g);
        let plan = FaultPlan::none().with_crash(CrashModel::new(0.25, 2, 8, 7));
        let clean = run(&g, rounds, ThresholdSet::Reals, ExecutionMode::Sequential);
        let crashed = run_faulty(
            &g,
            rounds,
            ThresholdSet::Reals,
            ExecutionMode::Sequential,
            plan,
        );
        assert!(crashed.metrics.crashed_nodes() > 0, "no node crashed");
        for v in 0..120 {
            assert!(
                crashed.surviving[v].is_finite(),
                "node {v}: crash window starts after round 1, every node ran once"
            );
            assert!(
                crashed.surviving[v] >= core[v] - 1e-9,
                "node {v}: frozen value below the coreness"
            );
            assert!(
                crashed.surviving[v] >= clean.surviving[v] - 1e-9,
                "node {v}: crashed run better-informed than the clean run"
            );
        }
        for mode in [
            ExecutionMode::Parallel,
            ExecutionMode::SparseSequential,
            ExecutionMode::SparseParallel,
        ] {
            let other = run_faulty(&g, rounds, ThresholdSet::Reals, mode, plan);
            assert_eq!(crashed.surviving, other.surviving, "{mode:?}");
            assert_eq!(crashed.in_neighbors, other.in_neighbors, "{mode:?}");
        }
        assert!(
            crashed.metrics.total_node_updates() < clean.metrics.total_node_updates(),
            "crashed nodes must stop executing steps"
        );
    }

    /// A sharded run — per-shard arenas plus the boundary tally — produces byte-identical counters and values to unsharded sparse
    /// lockstep for every shard count, clean and under faults.
    #[test]
    fn sharded_run_matches_unsharded() {
        use dkc_distsim::{CrashModel, LossModel};
        let mut rng = StdRng::seed_from_u64(33);
        let g = barabasi_albert(90, 3, &mut rng);
        let rounds = 8;
        for plan in [
            FaultPlan::none(),
            FaultPlan::from_loss(LossModel::new(0.3, 5)).with_crash(CrashModel::new(0.2, 2, 6, 9)),
        ] {
            let reference = run_faulty(
                &g,
                rounds,
                ThresholdSet::Reals,
                ExecutionMode::SparseSequential,
                plan,
            );
            for shards in [1usize, 2, 3, 8] {
                let cfg = RunConfig {
                    faults: plan,
                    shards: Some((shards, 7)),
                    ..RunConfig::new(rounds)
                };
                let sharded = crate::api::run_weighted(&g, &cfg);
                assert_eq!(reference.surviving, sharded.surviving, "shards={shards}");
                assert_eq!(
                    reference.in_neighbors, sharded.in_neighbors,
                    "shards={shards}"
                );
                assert_eq!(
                    reference.metrics.total_wire_bits(),
                    sharded.metrics.total_wire_bits(),
                    "shards={shards}"
                );
                assert_eq!(
                    reference.metrics.total_node_updates(),
                    sharded.metrics.total_node_updates(),
                    "shards={shards}"
                );
                if shards > 1 {
                    assert!(sharded.metrics.total_boundary_bits() > 0, "shards={shards}");
                }
            }
        }
    }

    /// The per-shard arenas jointly cover every node exactly once, and the
    /// reassembled global order matches the whole-graph arena's layout.
    #[test]
    fn sharded_arena_partitions_the_nodes() {
        let mut rng = StdRng::seed_from_u64(34);
        let g = erdos_renyi(64, 0.1, &mut rng);
        let csr = CsrGraph::from_graph(&g);
        let mut whole = CompactArena::new(&csr, ThresholdSet::Reals);
        let mut sharded = ShardedCompactArena::new(&csr, ThresholdSet::Reals, 4, 11);
        let builder = NetworkBuilder::new().mode(ExecutionMode::Sequential);
        builder
            .build_from_parts(csr.clone(), whole.programs())
            .run(3);
        builder
            .build_from_parts(csr.clone(), sharded.programs())
            .run(3);
        assert_eq!(whole.surviving(), sharded.surviving());
        assert_eq!(whole.in_neighbors(&csr), sharded.in_neighbors(&csr));
    }

    #[test]
    fn round_metrics_are_recorded() {
        let g = complete_graph(5);
        let outcome = run(&g, 4, ThresholdSet::Reals, ExecutionMode::Sequential);
        assert_eq!(outcome.metrics.num_rounds(), 4);
        assert_eq!(outcome.rounds, 4);
        // Every node broadcasts a number to 4 neighbours in every round.
        assert_eq!(outcome.metrics.rounds()[0].messages, 20);
        assert_eq!(outcome.metrics.rounds()[0].node_updates, 5);
    }
}
