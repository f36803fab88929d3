//! Wall-clock isolation audit (the D02 contract, tested from the data side).
//!
//! The workspace reads `Instant::now` in exactly three places — the lockstep
//! executor (`crates/distsim/src/network.rs`), the mailbox executor
//! (`crates/distsim/src/mailbox.rs`), and the bench harness
//! (`crates/bench/src/experiments.rs`) — all on the dkc-lint D02 allowlist.
//! Those readings may only ever reach the two timing fields of an
//! [`ExperimentRecord`] (`wall_clock_ms`, `messages_per_sec`), never the
//! fifteen deterministic counters `dkc-bench check` gates on. These tests pin
//! both halves of that contract.

use dkc_bench::report::ExperimentRecord;
use dkc_distsim::{RoundStats, RunMetrics};
use std::time::Duration;

fn busy_round(round: usize) -> RoundStats {
    RoundStats {
        round,
        messages: 1_000,
        payload_bits: 64_000,
        wire_bits: 96_000,
        max_message_bits: 64,
        sending_nodes: 10,
        changed_nodes: 10,
        node_updates: 17,
        dropped_loss: 3,
        dropped_burst: 2,
        dropped_partition: 1,
        dropped_byzantine: 4,
        crashed_nodes: 1,
        byzantine_accusations: 6,
        quarantined_nodes: 2,
        boundary_bits: 544,
        boundary_nodes: 3,
    }
}

#[test]
fn elapsed_time_only_reaches_the_timing_fields() {
    let rounds: Vec<RoundStats> = (1..=4).map(busy_round).collect();
    let fast = RunMetrics::from_parts(rounds.clone(), Duration::from_millis(10));
    let slow = RunMetrics::from_parts(rounds, Duration::from_millis(999));

    let a = ExperimentRecord::from_metrics("E1", "w", "tiny", &fast);
    let b = ExperimentRecord::from_metrics("E1", "w", "tiny", &slow);

    // Every gated counter is identical across the two runs…
    assert_eq!(a.counters(), b.counters());

    // …and the wall clock moved only the two timing fields.
    assert!((a.wall_clock_ms - 10.0).abs() < 1e-9);
    assert!((b.wall_clock_ms - 999.0).abs() < 1e-9);
    assert!(a.messages_per_sec > b.messages_per_sec);

    // Field-count tripwire: if ExperimentRecord grows a field, this test must
    // be revisited to classify it as deterministic or timing.
    let ExperimentRecord {
        experiment: _,
        workload: _,
        scale: _,
        wall_clock_ms: _,
        rounds: _,
        total_messages: _,
        payload_bits: _,
        max_message_bits: _,
        wire_bits: _,
        node_updates: _,
        dropped_loss: _,
        dropped_burst: _,
        dropped_partition: _,
        dropped_byzantine: _,
        crashed_nodes: _,
        byzantine_accusations: _,
        quarantined_nodes: _,
        boundary_bits: _,
        boundary_nodes: _,
        messages_per_sec: _,
    } = a;
}

#[test]
fn check_bench_gates_exactly_the_deterministic_counters() {
    // The gate (`Report::check_against`) compares `counters()`, named by
    // `COUNTERS`: both come from the one counter table in report.rs.
    let deterministic = [
        "rounds",
        "total_messages",
        "payload_bits",
        "max_message_bits",
        "wire_bits",
        "node_updates",
        "dropped_loss",
        "dropped_burst",
        "dropped_partition",
        "dropped_byzantine",
        "crashed_nodes",
        "byzantine_accusations",
        "quarantined_nodes",
        "boundary_bits",
        "boundary_nodes",
    ];
    assert_eq!(
        ExperimentRecord::COUNTERS,
        deterministic,
        "the gate must compare exactly the deterministic counters"
    );
    assert!(
        !ExperimentRecord::COUNTERS.contains(&"wall_clock_ms")
            && !ExperimentRecord::COUNTERS.contains(&"messages_per_sec"),
        "timing fields must never be gated"
    );
    let record = ExperimentRecord::from_metrics(
        "E1",
        "w",
        "tiny",
        &RunMetrics::from_parts(vec![busy_round(1)], Duration::from_millis(5)),
    );
    assert_eq!(
        record.counters(),
        [
            record.rounds,
            record.total_messages,
            record.payload_bits,
            record.max_message_bits,
            record.wire_bits,
            record.node_updates,
            record.dropped_loss,
            record.dropped_burst,
            record.dropped_partition,
            record.dropped_byzantine,
            record.crashed_nodes,
            record.byzantine_accusations,
            record.quarantined_nodes,
            record.boundary_bits,
            record.boundary_nodes,
        ],
        "counters() must return the fields COUNTERS names, in that order"
    );
}
