//! Machine-readable experiment reports.
//!
//! Every `exp_*` binary accepts `--json <path>` and serializes its
//! measurements as a [`Report`]: one [`ExperimentRecord`] per protocol (or
//! reference) run, carrying the **deterministic counters** CI gates on
//! (rounds, delivered messages, payload bits, max message bits) plus the
//! non-deterministic timing columns (wall-clock, derived messages/sec) that
//! make regressions visible without failing builds.
//!
//! Schema (version 6):
//!
//! ```json
//! {
//!   "schema_version": 6,
//!   "suite": "exp_all",
//!   "scale": "tiny",
//!   "records": [
//!     {
//!       "experiment": "E9",
//!       "workload": "ba-2000-par",
//!       "scale": "tiny",
//!       "wall_clock_ms": 12.5,
//!       "rounds": 21,
//!       "total_messages": 399900,
//!       "payload_bits": 25593600,
//!       "max_message_bits": 64,
//!       "wire_bits": 26803200,
//!       "node_updates": 42000,
//!       "dropped_loss": 120,
//!       "dropped_burst": 0,
//!       "dropped_partition": 0,
//!       "dropped_byzantine": 0,
//!       "crashed_nodes": 0,
//!       "byzantine_accusations": 0,
//!       "quarantined_nodes": 0,
//!       "boundary_bits": 0,
//!       "boundary_nodes": 0,
//!       "messages_per_sec": 31992000.0
//!     }
//!   ]
//! }
//! ```
//!
//! ## One counter table
//!
//! The fifteen deterministic counters are named once, in the `counters!`
//! table below. It emits their [`ExperimentRecord`] fields,
//! [`ExperimentRecord::COUNTERS`] (the names, in JSON order) and
//! [`ExperimentRecord::counters`]; [`ExperimentRecord::from_metrics`],
//! serialization, parsing and the baseline gate ([`Report::check_against`],
//! run by the `dkc-bench` binary) all iterate over it. Adding a counter is
//! one table line, a [`SCHEMA_VERSION`] bump and a baseline regeneration.
//!
//! ## Schema version
//!
//! Only v6 is read: [`Report::from_json`] rejects every other
//! `schema_version` instead of guessing the counters an older report lacks.
//! Every baseline under `bench/baselines/` is committed in v6 form.
//!
//! Serialization goes through the vendored `serde` data model into
//! `serde_json`; parsing uses `serde_json::Value` accessors and reports every
//! missing or ill-typed field of a malformed report at once.

use crate::workloads::WorkloadScale;
use dkc_distsim::RunMetrics;
use serde::{Serialize, SerializeStruct, Serializer};
use serde_json::Value;
use std::collections::{BTreeMap, HashSet};
use std::path::Path;
use std::time::Duration;

/// Version stamp written into every report; bump when the schema changes.
pub const SCHEMA_VERSION: u64 = 6;

/// Declares the deterministic counters, one `name = RunMetrics accessor`
/// line each with the field's doc comment, in JSON order.
macro_rules! counters {
    ($($(#[doc = $doc:literal])* $name:ident = $metric:ident,)*) => {
        /// One measured run: the deterministic protocol counters plus timing.
        #[derive(Clone, Debug, PartialEq)]
        pub struct ExperimentRecord {
            /// Experiment id (`"E1"`–`"E15"`).
            pub experiment: String,
            /// Workload / instance label (e.g. `"ba"`, `"fig1-ring-64"`).
            pub workload: String,
            /// Scale the run executed at (`"tiny"` / `"small"` / `"medium"`,
            /// or `""` until stamped by [`Report::extend`] for scale-agnostic
            /// experiments).
            pub scale: String,
            /// Wall-clock of the run in milliseconds (non-deterministic).
            pub wall_clock_ms: f64,
            $($(#[doc = $doc])* pub $name: usize,)*
            /// Derived throughput: `total_messages / wall_clock`
            /// (non-deterministic, 0 when no messages or no measurable time).
            pub messages_per_sec: f64,
        }

        impl ExperimentRecord {
            /// The deterministic counters' names, in JSON order: exactly the
            /// fields the baseline gate compares.
            pub const COUNTERS: [&'static str; NUM_COUNTERS] = [$(stringify!($name)),*];

            /// The deterministic counters, in [`Self::COUNTERS`] order.
            pub fn counters(&self) -> [usize; NUM_COUNTERS] {
                [$(self.$name),*]
            }

            fn with_counters(
                experiment: String,
                workload: String,
                scale: String,
                wall_clock_ms: f64,
                [$($name),*]: [usize; NUM_COUNTERS],
                messages_per_sec: f64,
            ) -> Self {
                ExperimentRecord {
                    experiment,
                    workload,
                    scale,
                    wall_clock_ms,
                    $($name,)*
                    messages_per_sec,
                }
            }

            fn metric_counters(metrics: &RunMetrics) -> [usize; NUM_COUNTERS] {
                [$(metrics.$metric()),*]
            }
        }

        const NUM_COUNTERS: usize = [$(stringify!($name)),*].len();
    };
}

counters! {
    /// Rounds executed (deterministic).
    rounds = num_rounds,
    /// Total delivered messages (deterministic).
    total_messages = total_messages,
    /// Total delivered payload bits (deterministic).
    payload_bits = total_payload_bits,
    /// Largest delivered message, in bits (deterministic).
    max_message_bits = max_message_bits,
    /// Total **measured** wire size of the delivered messages: the bits their
    /// length-prefixed encoded frames occupy (deterministic; see
    /// `dkc_distsim::wire`). Unlike `payload_bits` — the `MessageSize`
    /// *estimate* — this is what the codec actually produces, identical
    /// across execution modes and thread counts. 0 for non-simulated records.
    wire_bits = total_wire_bits,
    /// Number of node steps the executor ran across all rounds
    /// (deterministic; see `dkc_distsim::RoundStats::node_updates`). Dense
    /// execution runs every non-halted node every round; the sparse frontier
    /// executor runs only the touched set — this counter is what the E12
    /// frontier experiment gates on. 0 for centralized/ingestion records.
    node_updates = total_node_updates,
    /// Copies dropped by the i.i.d. loss component of the run's
    /// `FaultPlan` (deterministic; 0 for fault-free runs).
    dropped_loss = total_dropped_loss,
    /// Copies dropped inside burst-outage windows (deterministic).
    dropped_burst = total_dropped_burst,
    /// Copies dropped by partition cuts (deterministic).
    dropped_partition = total_dropped_partition,
    /// Copies dropped by byzantine senders selectively muting (deterministic;
    /// 0 for byzantine-free runs).
    dropped_byzantine = total_dropped_byzantine,
    /// Nodes crash-stopped by the end of the run (deterministic).
    crashed_nodes = crashed_nodes,
    /// Byzantine accusation events accumulated over the run (deterministic;
    /// the pure hash schedule of `dkc_distsim::ByzantineModel`, identical
    /// across every execution mode).
    byzantine_accusations = byzantine_accusations,
    /// Nodes quarantined by the end of the run (deterministic).
    quarantined_nodes = quarantined_nodes,
    /// Total bits of the cross-shard `BoundaryDelta` frames a sharded run's
    /// cut-crossing copies fill (deterministic; 0 for unsharded, single-shard,
    /// and non-simulated runs). Frame overhead only — the delivered copies
    /// themselves are already in `wire_bits`, identically to unsharded
    /// execution.
    boundary_bits = total_boundary_bits,
    /// Distinct boundary nodes that sent cross-shard messages, summed over
    /// rounds (deterministic; 0 whenever `boundary_bits` is 0).
    boundary_nodes = total_boundary_nodes,
}

impl ExperimentRecord {
    /// Builds a record from a simulator run's metrics. The wall-clock and
    /// derived throughput come from the executor's own accumulated timing
    /// ([`RunMetrics::elapsed`]), so they measure the protocol rounds and
    /// exclude graph construction / centralized post-processing.
    pub fn from_metrics(
        experiment: impl Into<String>,
        workload: impl Into<String>,
        scale: impl Into<String>,
        metrics: &RunMetrics,
    ) -> Self {
        Self::with_counters(
            experiment.into(),
            workload.into(),
            scale.into(),
            metrics.elapsed().as_secs_f64() * 1e3,
            Self::metric_counters(metrics),
            metrics.messages_per_sec(),
        )
    }

    /// Builds a record from bare round/message totals (for protocols that
    /// expose counts but not full metrics, e.g. the four-phase weak-densest
    /// pipeline, and for centralized computations with `total_messages` 0);
    /// every other counter stays zero.
    pub fn from_counts(
        experiment: impl Into<String>,
        workload: impl Into<String>,
        scale: impl Into<String>,
        wall: Duration,
        rounds: usize,
        total_messages: usize,
    ) -> Self {
        ExperimentRecord {
            rounds,
            total_messages,
            ..Self::with_counters(
                experiment.into(),
                workload.into(),
                scale.into(),
                wall.as_secs_f64() * 1e3,
                [0; NUM_COUNTERS],
                derive_throughput(total_messages, wall),
            )
        }
    }

    /// Field-level validity check used by the smoke tests.
    pub fn validate(&self) -> Result<(), String> {
        if self.experiment.is_empty() {
            return Err("record has an empty experiment id".into());
        }
        if self.workload.is_empty() {
            return Err(format!("{}: empty workload label", self.experiment));
        }
        if !self.wall_clock_ms.is_finite() || self.wall_clock_ms < 0.0 {
            return Err(format!("{}: bad wall_clock_ms", self.experiment));
        }
        if !self.messages_per_sec.is_finite() || self.messages_per_sec < 0.0 {
            return Err(format!("{}: bad messages_per_sec", self.experiment));
        }
        Ok(())
    }

    /// The `(experiment, workload, scale)` triple that identifies a record
    /// within a report.
    fn key(&self) -> (&str, &str, &str) {
        (&self.experiment, &self.workload, &self.scale)
    }
}

fn derive_throughput(total_messages: usize, wall: Duration) -> f64 {
    let secs = wall.as_secs_f64();
    if secs > 0.0 && total_messages > 0 {
        total_messages as f64 / secs
    } else {
        0.0
    }
}

impl Serialize for ExperimentRecord {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        let mut s = serializer.serialize_struct("ExperimentRecord", NUM_COUNTERS + 5)?;
        s.serialize_field("experiment", &self.experiment)?;
        s.serialize_field("workload", &self.workload)?;
        s.serialize_field("scale", &self.scale)?;
        s.serialize_field("wall_clock_ms", &self.wall_clock_ms)?;
        for (name, value) in Self::COUNTERS.into_iter().zip(self.counters()) {
            s.serialize_field(name, &value)?;
        }
        s.serialize_field("messages_per_sec", &self.messages_per_sec)?;
        s.end()
    }
}

/// A full report: header plus the records of every experiment that ran.
#[derive(Clone, Debug, PartialEq)]
pub struct Report {
    /// [`SCHEMA_VERSION`] at write time.
    pub schema_version: u64,
    /// The producing binary (`"exp_all"`, `"exp_fig1"`, …).
    pub suite: String,
    /// The `--scale` the suite ran at.
    pub scale: String,
    /// Free-form provenance notes (e.g. `"resumed from checkpoint at round
    /// 12"`). Serialized only when non-empty, so reports without notes — and
    /// every committed baseline — carry no `notes` key; the reader treats an
    /// absent `notes` array as empty.
    pub notes: Vec<String>,
    /// All measured runs, in execution order.
    pub records: Vec<ExperimentRecord>,
}

impl Report {
    /// Creates an empty report for a suite at a scale.
    pub fn new(suite: impl Into<String>, scale: WorkloadScale) -> Self {
        Self::with_scale_name(suite, scale.name())
    }

    /// Creates an empty report with a free-form scale label (for producers
    /// outside the tiny/small/medium suite, e.g. the CLI's ad-hoc graphs).
    pub fn with_scale_name(suite: impl Into<String>, scale: impl Into<String>) -> Self {
        Report {
            schema_version: SCHEMA_VERSION,
            suite: suite.into(),
            scale: scale.into(),
            notes: Vec::new(),
            records: Vec::new(),
        }
    }

    /// Appends a provenance note (shown in the serialized report's optional
    /// `notes` array).
    pub fn push_note(&mut self, note: impl Into<String>) {
        self.notes.push(note.into());
    }

    /// Appends records, stamping this report's scale onto records that did
    /// not know theirs (scale-agnostic experiments leave it empty).
    pub fn extend(&mut self, records: Vec<ExperimentRecord>) {
        for mut r in records {
            if r.scale.is_empty() {
                r.scale = self.scale.clone();
            }
            self.records.push(r);
        }
    }

    /// Validates the header and every record.
    pub fn validate(&self) -> Result<(), String> {
        if self.schema_version != SCHEMA_VERSION {
            return Err(format!(
                "unsupported schema_version {} (expected {SCHEMA_VERSION})",
                self.schema_version
            ));
        }
        if self.suite.is_empty() {
            return Err("empty suite name".into());
        }
        let mut keys = HashSet::new();
        for r in &self.records {
            r.validate()?;
            if !keys.insert(r.key()) {
                return Err(format!(
                    "duplicate record key ({}, {}, {}) — workload labels must disambiguate \
                     repeated runs (e.g. include the epsilon)",
                    r.experiment, r.workload, r.scale
                ));
            }
        }
        Ok(())
    }

    /// The baseline gate: compares this report's deterministic counters with
    /// `baseline`'s and returns one line per failure — a baseline record this
    /// report lacks, a record whose counters drifted (naming each drifted
    /// counter), or a record the baseline lacks. Empty means the gate passes;
    /// the timing fields are never compared.
    pub fn check_against(&self, baseline: &Report) -> Vec<String> {
        let ours: BTreeMap<_, _> = self.records.iter().map(|r| (r.key(), r)).collect();
        let theirs: BTreeMap<_, _> = baseline.records.iter().map(|r| (r.key(), r)).collect();
        let mut failures = Vec::new();
        for (key, expected) in &theirs {
            let Some(got) = ours.get(key) else {
                failures.push(format!("missing record {key:?} (the baseline has it)"));
                continue;
            };
            let drift: Vec<String> = ExperimentRecord::COUNTERS
                .iter()
                .zip(expected.counters().into_iter().zip(got.counters()))
                .filter(|(_, (e, g))| e != g)
                .map(|(name, (e, g))| format!("{name}: {e} -> {g}"))
                .collect();
            if !drift.is_empty() {
                failures.push(format!("counter drift in {key:?}: {}", drift.join(", ")));
            }
        }
        let extra = ours.keys().filter(|k| !theirs.contains_key(*k));
        failures
            .extend(extra.map(|k| format!("unexpected new record {k:?} (update the baseline)")));
        failures
    }

    /// Pretty-printed JSON (trailing newline included: the file is meant to
    /// be committed as a baseline).
    pub fn to_json(&self) -> String {
        let mut s = serde_json::to_string_pretty(self).expect("report serialization is total");
        s.push('\n');
        s
    }

    /// Parses and validates a schema-v6 JSON report. A malformed report is
    /// rejected with every missing or ill-typed field of every record listed
    /// in one error, not just the first.
    pub fn from_json(text: &str) -> Result<Report, String> {
        let value = serde_json::from_str(text).map_err(|e| format!("invalid JSON: {e}"))?;
        match value.get("schema_version").and_then(Value::as_u64) {
            Some(SCHEMA_VERSION) => {}
            Some(v) => {
                return Err(format!(
                    "unsupported schema_version {v} (only v{SCHEMA_VERSION} is read)"
                ))
            }
            None => return Err("missing or non-integer field 'schema_version'".into()),
        }
        let mut problems = Vec::new();
        let p = &mut problems;
        let suite = field(p, &value, "", "field", "suite", Value::as_str);
        let scale = field(p, &value, "", "field", "scale", Value::as_str);
        // Optional: absent means "no notes".
        let notes = match value.get("notes") {
            None => Some(Vec::new()),
            Some(_) => field(p, &value, "", "field", "notes", |n| {
                n.as_array()?.iter().map(Value::as_str).collect()
            }),
        };
        let records = field(p, &value, "", "field", "records", Value::as_array);
        let records: Vec<_> = (records.unwrap_or_default().iter().enumerate())
            .filter_map(|(i, v)| record(p, i, v))
            .collect();
        let (Some(suite), Some(scale), Some(notes), true) = (suite, scale, notes, p.is_empty())
        else {
            let list = problems.join("\n  - ");
            return Err(format!("{} problem(s):\n  - {list}", problems.len()));
        };
        let report = Report {
            schema_version: SCHEMA_VERSION,
            suite: suite.into(),
            scale: scale.into(),
            notes: notes.into_iter().map(String::from).collect(),
            records,
        };
        report.validate()?;
        Ok(report)
    }

    /// Writes the pretty JSON to `path`.
    pub fn write_to(&self, path: impl AsRef<Path>) -> std::io::Result<()> {
        std::fs::write(path, self.to_json())
    }

    /// Reads and validates a report file.
    pub fn read_from(path: impl AsRef<Path>) -> Result<Report, String> {
        let path = path.as_ref();
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        Report::from_json(&text).map_err(|e| format!("{}: {e}", path.display()))
    }
}

impl Serialize for Report {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        let fields = if self.notes.is_empty() { 4 } else { 5 };
        let mut s = serializer.serialize_struct("Report", fields)?;
        s.serialize_field("schema_version", &self.schema_version)?;
        s.serialize_field("suite", &self.suite)?;
        s.serialize_field("scale", &self.scale)?;
        if !self.notes.is_empty() {
            s.serialize_field("notes", &self.notes)?;
        }
        s.serialize_field("records", &self.records)?;
        s.end()
    }
}

/// Reads `key` of `v` with `read`; a missing or ill-typed field is recorded
/// in `problems` (prefixed with `at`) and read as `None`, so that
/// [`Report::from_json`] lists every problem of a report, not just the first.
fn field<'v, T>(
    problems: &mut Vec<String>,
    v: &'v Value,
    at: &str,
    kind: &str,
    key: &str,
    read: impl Fn(&'v Value) -> Option<T>,
) -> Option<T> {
    let found = v.get(key).map(read);
    match found {
        None => problems.push(format!("{at}missing {kind} '{key}'")),
        Some(None) => problems.push(format!("{at}{kind} '{key}' has the wrong type")),
        Some(Some(_)) => {}
    }
    found.flatten()
}

/// Reads record `i` of a report, or records its problems and returns `None`.
fn record(problems: &mut Vec<String>, i: usize, v: &Value) -> Option<ExperimentRecord> {
    let before = problems.len();
    let at = format!("record {i}: ");
    let [experiment, workload, scale] = ["experiment", "workload", "scale"]
        .map(|key| field(problems, v, &at, "identity field", key, Value::as_str));
    let at = match (experiment, workload, scale) {
        (Some(e), Some(w), Some(s)) => format!("record {i} {:?}: ", (e, w, s)),
        _ => at,
    };
    let [wall_clock_ms, messages_per_sec] = ["wall_clock_ms", "messages_per_sec"]
        .map(|key| field(problems, v, &at, "field", key, Value::as_f64));
    let counters = ExperimentRecord::COUNTERS
        .map(|key| field(problems, v, &at, "counter", key, Value::as_u64).unwrap_or(0) as usize);
    (problems.len() == before).then_some(())?;
    Some(ExperimentRecord::with_counters(
        experiment?.into(),
        workload?.into(),
        scale?.into(),
        wall_clock_ms?,
        counters,
        messages_per_sec?,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    pub(crate) fn sample_report() -> Report {
        let mut report = Report::new("exp_demo", WorkloadScale::Tiny);
        report.extend(vec![
            ExperimentRecord {
                experiment: "E9".into(),
                workload: "ba-2000-seq".into(),
                scale: "".into(), // stamped by extend
                wall_clock_ms: 12.25,
                rounds: 21,
                total_messages: 399_900,
                payload_bits: 25_593_600,
                max_message_bits: 64,
                wire_bits: 26_803_200,
                node_updates: 42_000,
                dropped_loss: 120,
                dropped_burst: 7,
                dropped_partition: 0,
                dropped_byzantine: 5,
                crashed_nodes: 3,
                byzantine_accusations: 9,
                quarantined_nodes: 2,
                boundary_bits: 1_088,
                boundary_nodes: 6,
                messages_per_sec: 3.2e7,
            },
            ExperimentRecord::from_counts("E2", "grid", "tiny", Duration::from_micros(1500), 17, 0),
        ]);
        report
    }

    #[test]
    fn extend_stamps_missing_scales_only() {
        let report = sample_report();
        assert_eq!(report.records[0].scale, "tiny");
        assert_eq!(report.records[1].scale, "tiny");
        assert!(report.validate().is_ok());
    }

    #[test]
    fn json_round_trip_is_identity() {
        let report = sample_report();
        let parsed = Report::from_json(&report.to_json()).unwrap();
        assert_eq!(parsed, report);
    }

    #[test]
    fn counters_survive_round_trip_exactly() {
        let mut report = sample_report();
        report.records[0].total_messages = usize::MAX / 2;
        report.records[0].payload_bits = (1usize << 53) + 1; // beyond f64 exactness
        let parsed = Report::from_json(&report.to_json()).unwrap();
        assert_eq!(parsed.records[0].total_messages, usize::MAX / 2);
        assert_eq!(parsed.records[0].payload_bits, (1usize << 53) + 1);
    }

    #[test]
    fn from_json_rejects_malformed_reports() {
        assert!(Report::from_json("not json").is_err());
        assert!(Report::from_json("{}").is_err());
        let wrong_version = sample_report()
            .to_json()
            .replace("\"schema_version\": 6", "\"schema_version\": 999");
        let err = Report::from_json(&wrong_version).unwrap_err();
        assert!(err.contains("schema_version"), "{err}");
        let missing_field = sample_report()
            .to_json()
            .replace("\"rounds\"", "\"wrongs\"");
        let err = Report::from_json(&missing_field).unwrap_err();
        assert!(err.contains("rounds"), "{err}");
    }

    #[test]
    fn only_schema_v6_is_read() {
        for old in [1, 5] {
            let json = sample_report().to_json().replace(
                "\"schema_version\": 6",
                &format!("\"schema_version\": {old}"),
            );
            let err = Report::from_json(&json).unwrap_err();
            assert!(err.contains(&format!("schema_version {old}")), "{err}");
        }
        let err = Report::from_json(
            &sample_report()
                .to_json()
                .replace("\"schema_version\": 6", "\"schema_version\": true"),
        )
        .unwrap_err();
        assert!(err.contains("schema_version"), "{err}");
    }

    #[test]
    fn from_json_lists_every_missing_or_ill_typed_field() {
        let json = sample_report()
            .to_json()
            .replacen("\"node_updates\": 42000,\n", "", 1)
            .replacen("\"wall_clock_ms\": 12.25", "\"wall_clock_ms\": \"fast\"", 1)
            .replacen("\"workload\": \"grid\",\n", "", 1)
            .replacen("\"rounds\": 17", "\"rounds\": \"17\"", 1)
            .replacen("\"suite\": \"exp_demo\"", "\"suite\": 3", 1);
        let err = Report::from_json(&json).unwrap_err();
        for expected in [
            "5 problem(s)",
            "field 'suite' has the wrong type",
            "record 0 (\"E9\", \"ba-2000-seq\", \"tiny\"): missing counter 'node_updates'",
            "field 'wall_clock_ms' has the wrong type",
            "record 1: missing identity field 'workload'",
            "record 1: counter 'rounds' has the wrong type",
        ] {
            assert!(err.contains(expected), "{expected:?} not in:\n{err}");
        }
    }

    /// `report` with the first value of `counter` raised by one.
    fn bump(report: &Report, counter: &str) -> Report {
        let mut record = report.records[0].clone();
        let i = ExperimentRecord::COUNTERS
            .iter()
            .position(|c| *c == counter)
            .unwrap();
        let mut counters = record.counters();
        counters[i] += 1;
        record = ExperimentRecord::with_counters(
            record.experiment,
            record.workload,
            record.scale,
            record.wall_clock_ms,
            counters,
            record.messages_per_sec,
        );
        let mut bumped = report.clone();
        bumped.records[0] = record;
        bumped
    }

    #[test]
    fn gate_names_every_drifted_counter_and_ignores_timings() {
        let baseline = sample_report();
        let mut retimed = baseline.clone();
        retimed.records[0].wall_clock_ms = 99.0;
        retimed.records[0].messages_per_sec = 1.0;
        assert_eq!(retimed.check_against(&baseline), Vec::<String>::new());
        for (counter, before) in ExperimentRecord::COUNTERS
            .into_iter()
            .zip(baseline.records[0].counters())
        {
            let failures = bump(&baseline, counter).check_against(&baseline);
            let expected = format!(
                "counter drift in (\"E9\", \"ba-2000-seq\", \"tiny\"): {counter}: {before} -> {}",
                before + 1
            );
            assert_eq!(failures, vec![expected]);
        }
    }

    #[test]
    fn gate_reports_missing_and_unexpected_records() {
        let baseline = sample_report();
        let mut report = baseline.clone();
        report.records[1].workload = "mesh".into();
        assert_eq!(
            report.check_against(&baseline),
            vec![
                "missing record (\"E2\", \"grid\", \"tiny\") (the baseline has it)".to_string(),
                "unexpected new record (\"E2\", \"mesh\", \"tiny\") (update the baseline)"
                    .to_string(),
            ]
        );
    }

    #[test]
    fn notes_are_optional_and_round_trip() {
        // No notes: the key is absent, keeping baselines byte-stable.
        let plain = sample_report();
        assert!(!plain.to_json().contains("\"notes\""));
        assert_eq!(Report::from_json(&plain.to_json()).unwrap(), plain);
        // With notes: serialized and recovered verbatim.
        let mut noted = sample_report();
        noted.push_note("resumed from checkpoint at round 12");
        let json = noted.to_json();
        assert!(
            json.contains("resumed from checkpoint at round 12"),
            "{json}"
        );
        assert_eq!(Report::from_json(&json).unwrap(), noted);
        // Malformed notes are rejected with a field-level message.
        let bad = json.replace("\"resumed from checkpoint at round 12\"", "17");
        let err = Report::from_json(&bad).unwrap_err();
        assert!(err.contains("notes"), "{err}");
    }

    #[test]
    fn file_round_trip() {
        let dir = std::env::temp_dir().join("dkc_report_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("report.json");
        let report = sample_report();
        report.write_to(&path).unwrap();
        assert_eq!(Report::read_from(&path).unwrap(), report);
    }

    #[test]
    fn from_metrics_uses_executor_timing() {
        use dkc_distsim::RoundStats;
        let mut metrics = RunMetrics::new();
        metrics.push(RoundStats {
            round: 1,
            messages: 1000,
            payload_bits: 64_000,
            max_message_bits: 64,
            wire_bits: 96_000,
            sending_nodes: 10,
            changed_nodes: 10,
            node_updates: 10,
            boundary_bits: 544,
            boundary_nodes: 3,
            ..RoundStats::default()
        });
        metrics.add_elapsed(Duration::from_millis(100));
        let rec = ExperimentRecord::from_metrics("E9", "ba-10", "tiny", &metrics);
        assert_eq!(rec.rounds, 1);
        assert_eq!(rec.total_messages, 1000);
        assert_eq!(rec.payload_bits, 64_000);
        assert_eq!(rec.wire_bits, 96_000);
        assert_eq!(rec.node_updates, 10);
        assert_eq!(rec.boundary_bits, 544);
        assert_eq!(rec.boundary_nodes, 3);
        assert!((rec.messages_per_sec - 10_000.0).abs() < 1e-9);
        assert!((rec.wall_clock_ms - 100.0).abs() < 1e-9);
        assert!(rec.validate().is_ok());
    }

    #[test]
    fn from_counts_derives_throughput() {
        let rec = ExperimentRecord::from_counts(
            "E5",
            "ba-eps0.5",
            "tiny",
            Duration::from_secs(2),
            54,
            500,
        );
        assert_eq!(rec.rounds, 54);
        assert_eq!(rec.total_messages, 500);
        assert_eq!(rec.payload_bits, 0);
        assert!((rec.messages_per_sec - 250.0).abs() < 1e-9);
    }

    #[test]
    fn validate_rejects_duplicate_record_keys() {
        let mut report = sample_report();
        let dup = report.records[0].clone();
        report.records.push(dup);
        let err = report.validate().unwrap_err();
        assert!(err.contains("duplicate record key"), "{err}");
    }
}
