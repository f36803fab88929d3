//! Round-by-round message and bit accounting.

use std::time::Duration;

/// Declares a struct of `usize` counters from one field list, with the
/// field names and values as arrays in declaration order: the checkpoint
/// codec (`crate::checkpoint`) encodes and decodes [`RoundStats`] through
/// them, so the struct's field list is the only one.
macro_rules! usize_fields {
    ($(#[$attr:meta])* pub struct $ty:ident {
        $($(#[doc = $doc:literal])* pub $name:ident: usize,)*
    }) => {
        $(#[$attr])*
        pub struct $ty {
            $($(#[doc = $doc])* pub $name: usize,)*
        }

        impl $ty {
            /// The field names, in declaration order.
            pub(crate) const FIELDS: [&'static str; [$(stringify!($name)),*].len()] =
                [$(stringify!($name)),*];

            /// The field values, in [`Self::FIELDS`] order.
            pub(crate) fn to_array(self) -> [usize; Self::FIELDS.len()] {
                [$(self.$name),*]
            }

            /// Inverse of [`Self::to_array`].
            pub(crate) fn from_array([$($name),*]: [usize; Self::FIELDS.len()]) -> Self {
                $ty { $($name),* }
            }
        }
    };
}

usize_fields! {
/// Statistics for one synchronous round.
///
/// All counters reflect **delivered** communication: under a
/// [`crate::faults::FaultPlan`], dropped copies are not counted in the
/// message/bit totals (the receiver never saw them, and the round/bit budgets
/// of the paper are statements about successful communication) — instead each
/// dropped copy increments the per-component drop counter of the fault that
/// claimed it. Copies addressed to a crashed (or program-halted) node still
/// count as delivered: the sender put them on the wire and cannot know the
/// receiver is dead.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct RoundStats {
    /// The round number (1-based).
    pub round: usize,
    /// Number of (point-to-point) messages delivered this round. A broadcast
    /// from a node of degree `d` counts as `d` messages, matching the way the
    /// LOCAL/CONGEST literature counts per-edge communication.
    pub messages: usize,
    /// Total payload bits delivered this round.
    pub payload_bits: usize,
    /// Total *measured* wire bits delivered this round: each delivered copy's
    /// length-prefixed encoded frame (see [`crate::wire`]), as opposed to the
    /// analytical `payload_bits` estimate from
    /// [`crate::message::MessageSize`]. Byte-identical across execution modes
    /// and thread counts.
    pub wire_bits: usize,
    /// Largest single delivered message payload (bits) this round — the
    /// quantity bounded by the CONGEST model.
    pub max_message_bits: usize,
    /// Number of nodes that had at least one message delivered.
    pub sending_nodes: usize,
    /// Number of nodes whose observable state changed in the receive phase.
    pub changed_nodes: usize,
    /// Number of nodes that executed their receive/update step this round.
    /// Dense execution runs every non-halted node; the sparse frontier
    /// executor runs only nodes that were delivered a message (plus every
    /// node once, in round 1). Deterministic across machines and execution
    /// modes of the same activation kind — this is the CI-gateable measure of
    /// the active-set work reduction.
    pub node_updates: usize,
    /// Message copies dropped this round by the i.i.d. loss component of the
    /// [`crate::faults::FaultPlan`]. Deterministic.
    pub dropped_loss: usize,
    /// Message copies dropped this round inside a burst-outage window.
    pub dropped_burst: usize,
    /// Message copies dropped this round by the active partition cut.
    pub dropped_partition: usize,
    /// Message copies dropped this round by byzantine senders selectively
    /// muting (see [`crate::faults::ByzantineModel`]). Deterministic.
    pub dropped_byzantine: usize,
    /// Number of nodes that have crash-stopped as of this round (cumulative,
    /// monotone non-decreasing across rounds). Deterministic.
    pub crashed_nodes: usize,
    /// Total byzantine accusation events through this round (cumulative
    /// across rounds and nodes). Accusations are a pure hash schedule of the
    /// plan — independent of delivered traffic — so the counter is identical
    /// across *all* execution modes, like [`RoundStats::crashed_nodes`].
    pub byzantine_accusations: usize,
    /// Number of nodes quarantined as of this round (cumulative, monotone
    /// non-decreasing; schedule-driven and identical across all modes).
    pub quarantined_nodes: usize,
    /// Wire bits of the cross-shard `BoundaryDelta` frames a sharded run
    /// ([`crate::NetworkBuilder::shards`]) would exchange this round (frame
    /// overhead and record encodings, sized from the frame layout; the
    /// per-copy bits of the deliveries themselves are already in
    /// [`RoundStats::wire_bits`], identically to unsharded execution). Zero
    /// without shards and with a single shard.
    pub boundary_bits: usize,
    /// Number of distinct boundary nodes whose updates crossed a shard cut
    /// this round (frontier ∩ boundary set, counted once per sender even when
    /// it ships to several peer shards). Zero outside sharded execution.
    pub boundary_nodes: usize,
}
}

/// Accumulated statistics for a full protocol run.
#[derive(Clone, Debug, Default)]
pub struct RunMetrics {
    rounds: Vec<RoundStats>,
    elapsed: Duration,
}

impl RunMetrics {
    /// Creates an empty metrics accumulator.
    pub fn new() -> Self {
        RunMetrics::default()
    }

    /// Rebuilds a metrics accumulator from previously recorded state — the
    /// restore half of checkpoint/resume (see [`crate::checkpoint`]). The
    /// counters in `rounds` are trusted as-is; the caller is responsible for
    /// validating them against the round counter.
    pub fn from_parts(rounds: Vec<RoundStats>, elapsed: Duration) -> Self {
        RunMetrics { rounds, elapsed }
    }

    /// Records one round.
    pub fn push(&mut self, stats: RoundStats) {
        self.rounds.push(stats);
    }

    /// Adds executor wall-clock time (accumulated by
    /// [`crate::Network::run_round`]).
    pub fn add_elapsed(&mut self, elapsed: Duration) {
        self.elapsed += elapsed;
    }

    /// Total executor wall-clock time across all recorded rounds. Timing is
    /// *not* part of the deterministic counters: two result-identical runs
    /// (e.g. sequential vs parallel mode) report different elapsed times.
    pub fn elapsed(&self) -> Duration {
        self.elapsed
    }

    /// Delivered messages per wall-clock second (0 when no time was recorded).
    pub fn messages_per_sec(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs > 0.0 {
            self.total_messages() as f64 / secs
        } else {
            0.0
        }
    }

    /// Per-round statistics, in execution order.
    pub fn rounds(&self) -> &[RoundStats] {
        &self.rounds
    }

    /// Number of rounds executed.
    pub fn num_rounds(&self) -> usize {
        self.rounds.len()
    }

    /// Total number of messages across all rounds.
    pub fn total_messages(&self) -> usize {
        self.rounds.iter().map(|r| r.messages).sum()
    }

    /// Total payload bits across all rounds.
    pub fn total_payload_bits(&self) -> usize {
        self.rounds.iter().map(|r| r.payload_bits).sum()
    }

    /// Total measured wire bits across all rounds (see
    /// [`RoundStats::wire_bits`]).
    pub fn total_wire_bits(&self) -> usize {
        self.rounds.iter().map(|r| r.wire_bits).sum()
    }

    /// Total number of executed node steps across all rounds (see
    /// [`RoundStats::node_updates`]).
    pub fn total_node_updates(&self) -> usize {
        self.rounds.iter().map(|r| r.node_updates).sum()
    }

    /// The largest single message payload observed in any round.
    pub fn max_message_bits(&self) -> usize {
        self.rounds
            .iter()
            .map(|r| r.max_message_bits)
            .max()
            .unwrap_or(0)
    }

    /// Total copies dropped by the i.i.d. loss component across all rounds.
    pub fn total_dropped_loss(&self) -> usize {
        self.rounds.iter().map(|r| r.dropped_loss).sum()
    }

    /// Total copies dropped inside burst-outage windows across all rounds.
    pub fn total_dropped_burst(&self) -> usize {
        self.rounds.iter().map(|r| r.dropped_burst).sum()
    }

    /// Total copies dropped by partition cuts across all rounds.
    pub fn total_dropped_partition(&self) -> usize {
        self.rounds.iter().map(|r| r.dropped_partition).sum()
    }

    /// Total copies dropped by byzantine muting across all rounds.
    pub fn total_dropped_byzantine(&self) -> usize {
        self.rounds.iter().map(|r| r.dropped_byzantine).sum()
    }

    /// Total copies dropped by any fault component across all rounds.
    pub fn total_dropped(&self) -> usize {
        self.total_dropped_loss()
            + self.total_dropped_burst()
            + self.total_dropped_partition()
            + self.total_dropped_byzantine()
    }

    /// Number of nodes that had crash-stopped by the end of the run (the
    /// cumulative counter of the last recorded round; 0 for empty metrics).
    pub fn crashed_nodes(&self) -> usize {
        self.rounds.last().map_or(0, |r| r.crashed_nodes)
    }

    /// Total byzantine accusation events over the run (the cumulative
    /// counter of the last recorded round; 0 for empty metrics).
    pub fn byzantine_accusations(&self) -> usize {
        self.rounds.last().map_or(0, |r| r.byzantine_accusations)
    }

    /// Number of nodes quarantined by the end of the run (the cumulative
    /// counter of the last recorded round; 0 for empty metrics).
    pub fn quarantined_nodes(&self) -> usize {
        self.rounds.last().map_or(0, |r| r.quarantined_nodes)
    }

    /// Total cross-shard `BoundaryDelta` wire bits across all rounds (see
    /// [`RoundStats::boundary_bits`]).
    pub fn total_boundary_bits(&self) -> usize {
        self.rounds.iter().map(|r| r.boundary_bits).sum()
    }

    /// Total boundary-node shipments across all rounds (see
    /// [`RoundStats::boundary_nodes`]).
    pub fn total_boundary_nodes(&self) -> usize {
        self.rounds.iter().map(|r| r.boundary_nodes).sum()
    }

    /// The last round in which any node's state changed (`None` if no round
    /// changed anything).
    pub fn last_active_round(&self) -> Option<usize> {
        self.rounds
            .iter()
            .rev()
            .find(|r| r.changed_nodes > 0)
            .map(|r| r.round)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accumulates_totals() {
        let mut m = RunMetrics::new();
        m.push(RoundStats {
            round: 1,
            messages: 10,
            payload_bits: 640,
            max_message_bits: 64,
            sending_nodes: 5,
            changed_nodes: 5,
            node_updates: 5,
            ..RoundStats::default()
        });
        m.push(RoundStats {
            round: 2,
            messages: 4,
            payload_bits: 256,
            max_message_bits: 128,
            sending_nodes: 2,
            changed_nodes: 0,
            node_updates: 2,
            ..RoundStats::default()
        });
        assert_eq!(m.num_rounds(), 2);
        assert_eq!(m.total_messages(), 14);
        assert_eq!(m.total_payload_bits(), 896);
        assert_eq!(m.max_message_bits(), 128);
        assert_eq!(m.last_active_round(), Some(1));
    }

    #[test]
    fn empty_metrics() {
        let m = RunMetrics::new();
        assert_eq!(m.num_rounds(), 0);
        assert_eq!(m.total_messages(), 0);
        assert_eq!(m.max_message_bits(), 0);
        assert_eq!(m.last_active_round(), None);
        assert_eq!(m.elapsed(), Duration::ZERO);
        assert_eq!(m.messages_per_sec(), 0.0);
    }

    #[test]
    fn elapsed_accumulates_and_derives_throughput() {
        let mut m = RunMetrics::new();
        m.push(RoundStats {
            round: 1,
            messages: 500,
            payload_bits: 16_000,
            max_message_bits: 32,
            sending_nodes: 10,
            changed_nodes: 10,
            node_updates: 10,
            ..RoundStats::default()
        });
        m.add_elapsed(Duration::from_millis(200));
        m.add_elapsed(Duration::from_millis(300));
        assert_eq!(m.elapsed(), Duration::from_millis(500));
        assert!((m.messages_per_sec() - 1000.0).abs() < 1e-9);
    }
}
