//! Baseline gate for benchmark reports.
//!
//! ```text
//! dkc-bench check  <report.json> <baseline.json>
//! dkc-bench update <report.json> <baseline.json>
//! ```
//!
//! `check` compares the deterministic counters of every record (see
//! `dkc_bench::report`) and exits 0 when they all match, 1 on any failure
//! (every problem listed: a malformed report, a drifted counter, a missing or
//! an unexpected record), and 2 on bad usage or an unreadable file. The timing
//! fields are ignored.
//!
//! `update` validates a freshly produced report, zeroes its timing fields so
//! that regeneration diffs show only the counters that changed, and installs
//! it as the baseline through a temporary sibling and a rename, so a failed
//! write never leaves a truncated baseline. `scripts/update_baseline.sh`
//! regenerates every committed baseline through it.

#![deny(deprecated)]

use dkc_bench::Report;
use std::process::ExitCode;

const USAGE: &str = "usage: dkc-bench check|update <report.json> <baseline.json>";

/// A failed run: its exit code and what to print.
type Failure = (u8, String);

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.as_slice() {
        [cmd, report, baseline] if cmd == "check" => check(report, baseline),
        [cmd, report, baseline] if cmd == "update" => update(report, baseline),
        _ => Err((2, USAGE.into())),
    };
    let (code, message) = match outcome {
        Ok(message) => (0, message),
        Err(failure) => failure,
    };
    if code == 2 {
        eprintln!("dkc-bench: {message}");
    } else {
        println!("dkc-bench: {message}");
    }
    ExitCode::from(code)
}

fn load(path: &str) -> Result<Report, Failure> {
    let text =
        std::fs::read_to_string(path).map_err(|e| (2, format!("cannot read {path}: {e}")))?;
    Report::from_json(&text).map_err(|e| (1, format!("{path}: {e}")))
}

fn check(report_path: &str, baseline_path: &str) -> Result<String, Failure> {
    let (report, baseline) = (load(report_path)?, load(baseline_path)?);
    let failures = report.check_against(&baseline);
    if !failures.is_empty() {
        return Err((
            1,
            format!(
                "{} deterministic-counter failure(s) comparing {report_path} against \
                 {baseline_path}:\n  - {}\nIf this change is intentional, regenerate the \
                 baselines with scripts/update_baseline.sh and commit them.",
                failures.len(),
                failures.join("\n  - ")
            ),
        ));
    }
    Ok(format!(
        "OK — {} records match the baseline ({baseline_path})",
        report.records.len()
    ))
}

fn update(report_path: &str, baseline_path: &str) -> Result<String, Failure> {
    let mut report = load(report_path)?;
    if report.records.is_empty() {
        return Err((1, format!("{report_path}: no records to install")));
    }
    for record in &mut report.records {
        record.wall_clock_ms = 0.0;
        record.messages_per_sec = 0.0;
    }
    let tmp = format!("{baseline_path}.tmp");
    report
        .write_to(&tmp)
        .and_then(|()| std::fs::rename(&tmp, baseline_path))
        .map_err(|e| (2, format!("cannot write {baseline_path}: {e}")))?;
    Ok(format!(
        "installed {baseline_path} ({} records, timings zeroed)",
        report.records.len()
    ))
}
