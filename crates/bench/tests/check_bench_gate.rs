//! Tests of the `dkc-bench` baseline gate, run as the binary CI runs: a
//! doctored report — a missing counter key, a missing identity field, a
//! stripped `records` array, multi-counter drift, a missing or extra record,
//! an old or ill-typed schema — must fail `dkc-bench check` with exit 1 and
//! a clear, per-problem message instead of a panic or a first-failure exit;
//! bad usage and unreadable files exit 2; `dkc-bench update` installs a
//! report with its timings zeroed.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn dkc_bench(args: &[&Path]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_dkc-bench"))
        .args(args)
        .output()
        .expect("failed to spawn dkc-bench")
}

fn run_gate(report: &Path, baseline: &Path) -> Output {
    dkc_bench(&[Path::new("check"), report, baseline])
}

fn sample_report() -> dkc_bench::Report {
    use dkc_distsim::{RoundStats, RunMetrics};
    let mut metrics = RunMetrics::new();
    metrics.push(RoundStats {
        round: 1,
        messages: 120,
        payload_bits: 7680,
        wire_bits: 9000,
        max_message_bits: 64,
        sending_nodes: 10,
        changed_nodes: 10,
        node_updates: 10,
        dropped_loss: 3,
        ..RoundStats::default()
    });
    let mut report = dkc_bench::Report::with_scale_name("gate_test", "tiny");
    report.extend(vec![
        dkc_bench::ExperimentRecord::from_metrics("E1", "wl-a", "tiny", &metrics),
        dkc_bench::ExperimentRecord::from_metrics("E2", "wl-b", "tiny", &metrics),
    ]);
    report
}

/// A fresh scratch directory per test (tests run in parallel).
fn scratch(test: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dkc-gate-{}-{test}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn write(dir: &Path, name: &str, text: &str) -> PathBuf {
    let path = dir.join(name);
    std::fs::write(&path, text).unwrap();
    path
}

/// Runs the gate on a doctored copy of the sample report against the sample
/// baseline, asserts exit 1 without a panic, and returns stdout + stderr.
fn rejected(dir: &Path, name: &str, doctored: &str) -> String {
    let good_json = sample_report().to_json();
    assert_ne!(
        doctored, good_json,
        "{name}: doctoring must change the report"
    );
    let baseline = write(dir, "baseline.json", &good_json);
    let out = run_gate(&write(dir, name, doctored), &baseline);
    let combined = format!(
        "{}{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    assert_eq!(
        out.status.code(),
        Some(1),
        "{name}: gate must exit 1:\n{combined}"
    );
    assert!(
        !combined.contains("panicked"),
        "{name}: no panic:\n{combined}"
    );
    combined
}

#[test]
fn doctored_reports_fail_with_per_counter_messages() {
    let dir = scratch("doctored");
    let good_json = sample_report().to_json();
    let baseline = write(&dir, "baseline.json", &good_json);

    // Sanity: an identical report passes.
    let ok = run_gate(&write(&dir, "same.json", &good_json), &baseline);
    assert!(ok.status.success(), "identical report must pass the gate");

    // Doctored: strip TWO counter keys from the first record. The gate must
    // fail and name BOTH counters (not die after the first), without a panic.
    let doctored = good_json
        .replacen("\"node_updates\": 10,\n", "", 1)
        .replacen("\"dropped_partition\": 0,\n", "", 1);
    assert_ne!(doctored, good_json, "doctoring must change the report");
    let out = run_gate(&write(&dir, "missing_counters.json", &doctored), &baseline);
    assert_eq!(out.status.code(), Some(1), "gate must fail with exit 1");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stdout.contains("missing counter 'node_updates'"),
        "must name node_updates:\n{stdout}{stderr}"
    );
    assert!(
        stdout.contains("missing counter 'dropped_partition'"),
        "must name dropped_partition too (every problem reported):\n{stdout}{stderr}"
    );
    assert!(!stderr.contains("panicked"), "no panic:\n{stderr}");

    // Doctored: a record without its identity fields.
    let doctored = good_json.replacen("\"experiment\": \"E1\",\n", "", 1);
    let out = run_gate(&write(&dir, "missing_identity.json", &doctored), &baseline);
    assert_eq!(out.status.code(), Some(1));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("missing identity field"),
        "must report the missing identity field:\n{stdout}"
    );

    // Doctored: the records array renamed away entirely.
    let doctored = good_json.replacen("\"records\"", "\"wrecks\"", 1);
    let out = run_gate(&write(&dir, "no_records.json", &doctored), &baseline);
    assert!(!out.status.success());
    let combined = format!(
        "{}{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(
        combined.contains("records"),
        "must point at the missing records field:\n{combined}"
    );
    assert!(!combined.contains("panicked"), "{combined}");

    // Drifted counters are still caught, with every drifted counter named.
    let doctored = good_json
        .replacen("\"total_messages\": 120", "\"total_messages\": 121", 1)
        .replacen("\"wire_bits\": 9000", "\"wire_bits\": 9001", 1);
    let out = run_gate(&write(&dir, "drift.json", &doctored), &baseline);
    assert_eq!(out.status.code(), Some(1));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("counter drift"), "{stdout}");
    assert!(stdout.contains("total_messages: 120 -> 121"), "{stdout}");
    assert!(stdout.contains("wire_bits: 9000 -> 9001"), "{stdout}");

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn missing_extra_and_duplicate_records_fail_the_gate() {
    let dir = scratch("records");

    // A baseline record the report lacks.
    let mut report = sample_report();
    report.records.pop();
    let out = rejected(&dir, "missing.json", &report.to_json());
    assert!(
        out.contains("missing record (\"E2\", \"wl-b\", \"tiny\")"),
        "{out}"
    );

    // A record the baseline lacks.
    let mut report = sample_report();
    let mut extra = report.records[0].clone();
    extra.workload = "wl-c".into();
    report.records.push(extra);
    let out = rejected(&dir, "extra.json", &report.to_json());
    assert!(
        out.contains("unexpected new record (\"E1\", \"wl-c\", \"tiny\")"),
        "{out}"
    );

    // Two records under one key.
    let mut report = sample_report();
    report.records[1] = report.records[0].clone();
    let out = rejected(&dir, "duplicate.json", &report.to_json());
    assert!(
        out.contains("duplicate record key (E1, wl-a, tiny)"),
        "{out}"
    );

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn malformed_and_old_schema_reports_fail_the_gate() {
    let dir = scratch("schema");
    let good_json = sample_report().to_json();

    let out = rejected(&dir, "invalid.json", &good_json[..good_json.len() / 2]);
    assert!(out.contains("invalid JSON"), "{out}");

    let doctored = good_json.replacen("\"schema_version\": 6", "\"schema_version\": true", 1);
    let out = rejected(&dir, "bool_version.json", &doctored);
    assert!(out.contains("'schema_version'"), "{out}");

    let doctored = good_json.replacen("\"schema_version\": 6", "\"schema_version\": 5", 1);
    let out = rejected(&dir, "v5.json", &doctored);
    assert!(out.contains("unsupported schema_version 5"), "{out}");

    let doctored = good_json.replacen("\"dropped_loss\": 3", "\"dropped_loss\": \"3\"", 1);
    let out = rejected(&dir, "string_counter.json", &doctored);
    assert!(
        out.contains("counter 'dropped_loss' has the wrong type"),
        "{out}"
    );

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn bad_usage_and_unreadable_files_exit_2() {
    let dir = scratch("usage");
    let report = write(&dir, "report.json", &sample_report().to_json());
    let missing = dir.join("missing.json");
    for args in [
        vec![],
        vec![Path::new("check"), &report],
        vec![Path::new("compare"), &report, &report],
        vec![Path::new("check"), &report, &missing],
        vec![Path::new("check"), &missing, &report],
        vec![Path::new("update"), &missing, &report],
    ] {
        let out = dkc_bench(&args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(!out.stderr.is_empty(), "{args:?}: must say why");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn update_installs_the_report_with_zeroed_timings() {
    let dir = scratch("update");
    let mut report = sample_report();
    report.records[0].wall_clock_ms = 12.5;
    report.records[0].messages_per_sec = 9600.0;
    let produced = write(&dir, "produced.json", &report.to_json());
    let baseline = write(&dir, "baseline.json", "stale");

    let out = dkc_bench(&[Path::new("update"), &produced, &baseline]);
    assert!(out.status.success(), "{out:?}");
    for r in &mut report.records {
        r.wall_clock_ms = 0.0;
        r.messages_per_sec = 0.0;
    }
    assert_eq!(
        std::fs::read_to_string(&baseline).unwrap(),
        report.to_json()
    );
    assert!(
        !dir.join("baseline.json.tmp").exists(),
        "tmp file renamed away"
    );
    assert!(run_gate(&produced, &baseline).status.success());

    // A malformed report never replaces the baseline.
    let bad = write(&dir, "bad.json", "{");
    let out = dkc_bench(&[Path::new("update"), &bad, &baseline]);
    assert_eq!(out.status.code(), Some(1));
    assert_eq!(
        std::fs::read_to_string(&baseline).unwrap(),
        report.to_json()
    );

    std::fs::remove_dir_all(&dir).ok();
}
