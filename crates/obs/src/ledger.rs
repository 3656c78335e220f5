//! The run ledger: persisted, comparable metric records for whole
//! experiment invocations.
//!
//! PR 3–4 made every miner's internals observable *in process*; this
//! module makes whole runs observable *across processes and commits*.
//! A [`RunRecord`] captures one `experiments` invocation — git
//! revision, run configuration, and per-experiment [`MetricDoc`]s
//! (counters, gauge high-waters, histogram summaries, span-tree
//! rollups, wall-clock) — as deterministic sorted-key JSON suitable
//! for committing to `ledger/` and diffing in review.
//!
//! On top of records sit two engines:
//!
//! * [`diff`] — a structured per-metric delta report between two
//!   records (absolute + relative for counters and gauges, histogram
//!   quantile drift in power-of-two buckets, span-tree rollups aligned
//!   by path), rendered as a human table ([`RecordDiff::render_table`])
//!   or machine JSON ([`RecordDiff::render_json`]).
//! * [`check`] — the CI regression gate. Metrics are split into two
//!   classes by name ([`MetricClass`]): **exact** metrics (work
//!   counters, memory high-waters, objective gauges, span/event
//!   counts) are deterministic by the workspace's seeded-determinism
//!   and seq≡par equivalence guarantees and gate at **zero
//!   tolerance**; **noisy** metrics (wall-clock, `*_ns` sums,
//!   duration-histogram quantiles) gate only with wide bands
//!   ([`CheckPolicy::noisy_band`]) above an absolute floor, so the
//!   gate stays trustworthy on slow or shared CI hardware.
//!
//! The threshold policy and the record schema are documented in
//! `DESIGN.md` ("Run ledger"); the `dm ledger` binary (crate
//! `dm-bench`) is the command-line surface.

use crate::hist::bucket_index;
use crate::json::{
    parse, FieldError, FromJson, Json, JsonError,
    Layout::{Block, Inline},
    ToJson, Writer,
};
use crate::{Histogram, Snapshot};
use std::collections::BTreeMap;
use std::fmt;
use std::fmt::Write as _;

/// Version of the ledger record schema (the `"ledger_schema"` key).
/// Bump it whenever a key is added, removed or changes meaning, and
/// record the change in `DESIGN.md` ("Run ledger").
pub const LEDGER_SCHEMA: u32 = 1;

/// Errors reading a ledger record.
#[derive(Debug, Clone, PartialEq)]
pub enum LedgerError {
    /// The document is not valid JSON.
    Json(JsonError),
    /// The document parsed but is not a valid record (missing or
    /// ill-typed field; the string names it).
    Shape(String),
    /// The record's `ledger_schema` is newer than this build supports.
    SchemaTooNew(u64),
}

impl fmt::Display for LedgerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Json(e) => write!(f, "invalid JSON: {e}"),
            Self::Shape(what) => write!(f, "not a ledger record: {what}"),
            Self::SchemaTooNew(v) => write!(
                f,
                "record has ledger_schema {v}, this build reads <= {LEDGER_SCHEMA}"
            ),
        }
    }
}

impl std::error::Error for LedgerError {}

/// Aggregate of all span-tree nodes sharing one root-to-node name
/// path: how many nodes, and their total nanoseconds (open or leaked
/// spans count 0).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpanRollup {
    /// Number of nodes on the path.
    pub count: u64,
    /// Total nanoseconds across those nodes.
    pub total_ns: u64,
}

/// The ledger's view of one experiment's [`Snapshot`]: everything
/// deterministic or aggregate, nothing per-occurrence.
///
/// Relative to the raw snapshot: events collapse to a count per name
/// (their payload strings and ordering stay in `--metrics` output),
/// the span tree collapses to per-path [`SpanRollup`]s (raw node
/// timestamps are wall-clock noise), exemplars are dropped, and
/// non-finite gauges are skipped (they cannot round-trip through JSON).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricDoc {
    /// Monotonic counters by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauges by name (finite values only).
    pub gauges: BTreeMap<String, f64>,
    /// Event counts by event name.
    pub events: BTreeMap<String, u64>,
    /// Duration/value histograms by name.
    pub histograms: BTreeMap<String, Histogram>,
    /// Span-tree rollups keyed by `/`-joined name path from the root.
    pub tree: BTreeMap<String, SpanRollup>,
}

impl MetricDoc {
    /// Collapses a snapshot into its ledger view.
    pub fn from_snapshot(snap: &Snapshot) -> Self {
        let mut events: BTreeMap<String, u64> = BTreeMap::new();
        for e in &snap.events {
            *events.entry(e.name.clone()).or_insert(0) += 1;
        }
        let mut tree: BTreeMap<String, SpanRollup> = BTreeMap::new();
        // Nodes are stored in open order with `parent < id`, so one
        // forward pass can resolve every node's full path.
        let mut paths: BTreeMap<u64, String> = BTreeMap::new();
        for node in &snap.tree {
            let path = match paths.get(&node.parent) {
                Some(parent_path) => format!("{parent_path}/{}", node.name),
                None => node.name.clone(),
            };
            let rollup = tree.entry(path.clone()).or_default();
            rollup.count += 1;
            rollup.total_ns = rollup.total_ns.saturating_add(node.dur_ns.unwrap_or(0));
            paths.insert(node.id, path);
        }
        Self {
            counters: snap.counters.clone(),
            gauges: snap
                .gauges
                .iter()
                .filter(|(_, v)| v.is_finite())
                .map(|(k, &v)| (k.clone(), v))
                .collect(),
            events,
            histograms: snap.histograms.clone(),
            tree,
        }
    }

    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty()
            && self.gauges.is_empty()
            && self.events.is_empty()
            && self.histograms.is_empty()
            && self.tree.is_empty()
    }
}

/// One experiment's entry in a [`RunRecord`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ExperimentRun {
    /// Wall-clock duration of the experiment, milliseconds.
    pub wall_ms: f64,
    /// `None` for a complete run; `Some(reason)` when the guard
    /// truncated it (or the run errored; the reason says which).
    pub truncated: Option<String>,
    /// The recorded metrics, in ledger form.
    pub metrics: MetricDoc,
}

/// One persisted run of the `experiments` binary: provenance plus one
/// [`ExperimentRun`] per experiment id.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunRecord {
    /// Milliseconds since the Unix epoch when the run started.
    pub created_unix_ms: u64,
    /// `git rev-parse HEAD` of the working tree (or `"unknown"`).
    pub git_rev: String,
    /// Free-form run label (the experiment ids requested, by default).
    pub label: String,
    /// Run configuration: everything that must match for two records
    /// to be comparable (parallelism, deadline, dataset scale, ...).
    pub config: BTreeMap<String, String>,
    /// Per-experiment results, keyed by experiment id.
    pub experiments: BTreeMap<String, ExperimentRun>,
}

// ---------------------------------------------------------------------------
// Serialization
// ---------------------------------------------------------------------------

impl FromJson<'_> for SpanRollup {
    fn from_json(v: &Json) -> Result<Self, FieldError> {
        Ok(SpanRollup {
            count: v.req("count")?,
            total_ns: v.req("total_ns")?,
        })
    }
}

impl ToJson for SpanRollup {
    fn write_json(&self, w: &mut Writer) {
        w.obj(Inline, |w| {
            w.key("count").u64(self.count);
            w.key("total_ns").u64(self.total_ns);
        });
    }
}

impl ToJson for MetricDoc {
    fn write_json(&self, w: &mut Writer) {
        w.obj(Block, |w| {
            w.key("counters").map(Block, &self.counters);
            w.key("events").map(Block, &self.events);
            w.key("gauges").map(Block, &self.gauges);
            w.key("histograms").map(Block, &self.histograms);
            w.key("tree").map(Block, &self.tree);
        });
    }
}

impl ToJson for ExperimentRun {
    fn write_json(&self, w: &mut Writer) {
        w.obj(Block, |w| {
            w.key("wall_ms").f64(self.wall_ms);
            w.key("truncated").val(&self.truncated);
            w.key("metrics").val(&self.metrics);
        });
    }
}

impl FromJson<'_> for MetricDoc {
    fn from_json(v: &Json) -> Result<Self, FieldError> {
        Ok(MetricDoc {
            counters: v.req("counters")?,
            events: v.req("events")?,
            gauges: v.req("gauges")?,
            histograms: v.req("histograms")?,
            tree: v.req("tree")?,
        })
    }
}

impl FromJson<'_> for ExperimentRun {
    fn from_json(v: &Json) -> Result<Self, FieldError> {
        Ok(ExperimentRun {
            wall_ms: v.req("wall_ms")?,
            truncated: v.req("truncated")?,
            metrics: v.req("metrics")?,
        })
    }
}

impl RunRecord {
    /// Serializes the record as deterministic sorted-key JSON: same
    /// record, same bytes — the property the golden tests and git
    /// diffs of `ledger/` rely on.
    pub fn to_json(&self) -> String {
        let mut w = Writer::new();
        w.obj(Block, |w| {
            w.key("ledger_schema").u64(LEDGER_SCHEMA.into());
            w.key("created_unix_ms").u64(self.created_unix_ms);
            w.key("git_rev").str(&self.git_rev);
            w.key("label").str(&self.label);
            w.key("config").map(Block, &self.config);
            w.key("experiments").map(Block, &self.experiments);
        });
        w.finish() + "\n"
    }

    /// Parses a record previously written by [`RunRecord::to_json`].
    pub fn from_json(input: &str) -> Result<Self, LedgerError> {
        let doc = parse(input).map_err(LedgerError::Json)?;
        let schema: u64 = doc.req("ledger_schema")?;
        if schema > LEDGER_SCHEMA as u64 {
            return Err(LedgerError::SchemaTooNew(schema));
        }
        Ok(RunRecord {
            created_unix_ms: doc.req("created_unix_ms")?,
            git_rev: doc.req("git_rev")?,
            label: doc.req("label")?,
            config: doc.req("config")?,
            experiments: doc.req("experiments")?,
        })
    }
}

impl From<FieldError> for LedgerError {
    fn from(e: FieldError) -> Self {
        LedgerError::Shape(e.to_string())
    }
}

// ---------------------------------------------------------------------------
// Classification
// ---------------------------------------------------------------------------

/// The regression-gate class of a metric, decided by name.
///
/// The split encodes the workspace's determinism story: everything an
/// algorithm *counts* (candidates, nodes, shard items, iterations),
/// every capacity-based memory high-water, and every objective value
/// is reproducible bit-for-bit under fixed seeds (PR-1's seq≡par
/// equivalence, PR-2's unlimited≡ungoverned identity), so any drift is
/// a real behavior change. Everything derived from a clock is not.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricClass {
    /// Deterministic: gates at zero tolerance.
    Exact,
    /// Clock-derived: gates only with a wide band above a floor.
    Noisy,
}

impl MetricClass {
    fn as_str(self) -> &'static str {
        match self {
            Self::Exact => "exact",
            Self::Noisy => "noisy",
        }
    }
}

/// Class of a counter: everything is exact except elapsed-time counters
/// (`par.shard<w>.busy_ns` and anything else ending in `_ns`).
pub fn counter_class(name: &str) -> MetricClass {
    if name.ends_with("_ns") {
        MetricClass::Noisy
    } else {
        MetricClass::Exact
    }
}

/// Class of a histogram's `sum`: duration histograms (span timings)
/// are noisy; value histograms (work sizes — `.items`, and any future
/// `_bytes`/`.queries` family) are exact. The histogram `count` is
/// always exact: how many spans ran is work, not time.
pub fn hist_sum_class(name: &str) -> MetricClass {
    if name.ends_with(".items") || name.ends_with("_bytes") || name.ends_with(".queries") {
        MetricClass::Exact
    } else {
        MetricClass::Noisy
    }
}

// ---------------------------------------------------------------------------
// Diff
// ---------------------------------------------------------------------------

/// What a [`DiffEntry`] compares.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DiffKind {
    /// A counter value.
    Counter,
    /// A gauge value.
    Gauge,
    /// An event count.
    EventCount,
    /// A histogram's sample count.
    HistCount,
    /// A histogram's sum.
    HistSum,
    /// A histogram's p50, as a power-of-two bucket upper bound.
    HistP50,
    /// A histogram's p99, as a power-of-two bucket upper bound.
    HistP99,
    /// A span-tree path's node count.
    TreeCount,
    /// A span-tree path's total nanoseconds.
    TreeNs,
    /// The experiment's wall-clock milliseconds.
    WallMs,
    /// The experiment's truncation marker.
    Truncated,
    /// A whole experiment present on only one side.
    Experiment,
}

impl DiffKind {
    fn as_str(self) -> &'static str {
        match self {
            Self::Counter => "counter",
            Self::Gauge => "gauge",
            Self::EventCount => "event_count",
            Self::HistCount => "hist_count",
            Self::HistSum => "hist_sum",
            Self::HistP50 => "hist_p50",
            Self::HistP99 => "hist_p99",
            Self::TreeCount => "tree_count",
            Self::TreeNs => "tree_ns",
            Self::WallMs => "wall_ms",
            Self::Truncated => "truncated",
            Self::Experiment => "experiment",
        }
    }
}

/// One side of a compared metric.
#[derive(Debug, Clone, PartialEq)]
pub enum MetricValue {
    /// An exact integer (counters, counts, bucket bounds).
    U64(u64),
    /// A float (gauges, wall-clock).
    F64(f64),
    /// A string (truncation markers, experiment presence).
    Text(String),
}

impl MetricValue {
    fn render(&self) -> String {
        match self {
            Self::U64(v) => v.to_string(),
            Self::F64(v) => format!("{v:?}"),
            Self::Text(s) => s.clone(),
        }
    }

    fn as_f64(&self) -> Option<f64> {
        match self {
            Self::U64(v) => Some(*v as f64),
            Self::F64(v) => Some(*v),
            Self::Text(_) => None,
        }
    }
}

impl ToJson for MetricValue {
    fn write_json(&self, w: &mut Writer) {
        match self {
            Self::U64(v) => w.u64(*v),
            Self::F64(v) => w.f64(*v),
            Self::Text(s) => w.str(s),
        };
    }
}

/// One differing metric between two records.
#[derive(Debug, Clone, PartialEq)]
pub struct DiffEntry {
    /// Experiment id the metric belongs to.
    pub experiment: String,
    /// What is being compared.
    pub kind: DiffKind,
    /// Metric name (or tree path / event name; empty for whole-
    /// experiment entries).
    pub name: String,
    /// Gate class of this metric.
    pub class: MetricClass,
    /// Value in the first record (`None` = absent there).
    pub base: Option<MetricValue>,
    /// Value in the second record (`None` = absent there).
    pub current: Option<MetricValue>,
}

impl DiffEntry {
    /// Signed `current - base` when both sides are numeric.
    pub fn delta(&self) -> Option<f64> {
        match (&self.base, &self.current) {
            (Some(a), Some(b)) => Some(b.as_f64()? - a.as_f64()?),
            _ => None,
        }
    }

    /// Relative change `delta / base` when defined and finite.
    pub fn relative(&self) -> Option<f64> {
        let base = self.base.as_ref()?.as_f64()?;
        let delta = self.delta()?;
        (base != 0.0).then(|| delta / base)
    }

    /// `current / base` when both are positive.
    pub fn ratio(&self) -> Option<f64> {
        let base = self.base.as_ref()?.as_f64()?;
        let current = self.current.as_ref()?.as_f64()?;
        (base > 0.0 && current > 0.0).then(|| current / base)
    }
}

impl ToJson for DiffEntry {
    fn write_json(&self, w: &mut Writer) {
        w.obj(Inline, |w| {
            w.key("experiment").str(&self.experiment);
            w.key("kind").str(self.kind.as_str());
            w.key("class").str(self.class.as_str());
            w.key("name").str(&self.name);
            w.key("base").val(&self.base);
            w.key("current").val(&self.current);
            // Non-finite values print as `null`, as undefined ones do.
            w.key("delta").val(&self.delta());
            w.key("relative").val(&self.relative());
        });
    }
}

/// The structured result of [`diff`]: every metric that differs
/// between two records, in a deterministic order (experiment, kind,
/// name).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RecordDiff {
    /// All differing metrics.
    pub entries: Vec<DiffEntry>,
    /// Total metrics compared (differing or not), for context.
    pub compared: usize,
}

impl RecordDiff {
    /// Whether the two records agreed on every compared metric.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The differing entries of one gate class.
    pub fn entries_of(&self, class: MetricClass) -> impl Iterator<Item = &DiffEntry> {
        self.entries.iter().filter(move |e| e.class == class)
    }

    /// Renders the diff as a fixed-width table (one line per differing
    /// metric) with a trailing summary line.
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        out.push_str("# ledger diff\n");
        if self.is_empty() {
            let _ = writeln!(out, "no differences ({} metrics compared)", self.compared);
            return out;
        }
        let header = [
            "experiment",
            "kind",
            "class",
            "metric",
            "base",
            "current",
            "delta",
            "rel",
        ];
        let mut rows: Vec<[String; 8]> = Vec::with_capacity(self.entries.len());
        for e in &self.entries {
            let fmt_side = |side: &Option<MetricValue>| {
                side.as_ref()
                    .map_or_else(|| "-".to_owned(), MetricValue::render)
            };
            let delta = e
                .delta()
                .map_or_else(|| "-".to_owned(), |d| format!("{d:+.6}"));
            let rel = e
                .relative()
                .map_or_else(|| "-".to_owned(), |r| format!("{:+.2}%", r * 100.0));
            rows.push([
                e.experiment.clone(),
                e.kind.as_str().to_owned(),
                e.class.as_str().to_owned(),
                e.name.clone(),
                fmt_side(&e.base),
                fmt_side(&e.current),
                delta,
                rel,
            ]);
        }
        let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
        for row in &rows {
            for (w, cell) in widths.iter_mut().zip(row.iter()) {
                *w = (*w).max(cell.len());
            }
        }
        let fmt_row = |cells: &[String]| {
            let mut line = String::new();
            for (i, cell) in cells.iter().enumerate() {
                if i > 0 {
                    line.push_str("  ");
                }
                let _ = write!(line, "{:<width$}", cell, width = widths[i]);
            }
            line.truncate(line.trim_end().len());
            line.push('\n');
            line
        };
        let header: Vec<String> = header.iter().map(|s| s.to_string()).collect();
        out.push_str(&fmt_row(&header));
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
        out.push('\n');
        for row in &rows {
            out.push_str(&fmt_row(row));
        }
        let exact = self.entries_of(MetricClass::Exact).count();
        let _ = writeln!(
            out,
            "{} differing ({} exact, {} noisy) of {} compared",
            self.entries.len(),
            exact,
            self.entries.len() - exact,
            self.compared
        );
        out
    }

    /// Renders the diff as deterministic JSON (an object with a
    /// `differences` array in table order).
    pub fn render_json(&self) -> String {
        let mut w = Writer::new();
        w.obj(Block, |w| {
            w.key("compared").u64(self.compared as u64);
            w.key("differences").list(Block, &self.entries);
        });
        w.finish() + "\n"
    }
}

/// Accumulates [`DiffEntry`]s for one experiment while counting every
/// compared metric.
struct DiffSink<'a> {
    entries: &'a mut Vec<DiffEntry>,
    compared: &'a mut usize,
    experiment: &'a str,
}

impl DiffSink<'_> {
    /// Compares two keyed maps; `None` marks a side where the name is
    /// absent. Counts every aligned name toward `compared` and emits
    /// an entry only when the sides differ under `eq_key`.
    fn diff_map<V, E: PartialEq>(
        &mut self,
        kind: DiffKind,
        a: &BTreeMap<String, V>,
        b: &BTreeMap<String, V>,
        class_of: impl Fn(&str) -> MetricClass,
        eq_key: impl Fn(&V) -> E,
        to_value: impl Fn(&V) -> MetricValue,
    ) {
        let names: std::collections::BTreeSet<&String> = a.keys().chain(b.keys()).collect();
        for name in names {
            *self.compared += 1;
            let (av, bv) = (a.get(name.as_str()), b.get(name.as_str()));
            let differs = match (av, bv) {
                (Some(x), Some(y)) => eq_key(x) != eq_key(y),
                _ => true,
            };
            if differs {
                self.entries.push(DiffEntry {
                    experiment: self.experiment.to_owned(),
                    kind,
                    name: name.to_string(),
                    class: class_of(name),
                    base: av.map(&to_value),
                    current: bv.map(&to_value),
                });
            }
        }
    }
}

/// Two gauges are "equal" within a relative epsilon of 1e-9: gauges
/// are deterministic, but this absorbs harmless last-bit formatting
/// drift without opening a real tolerance.
fn gauge_key(v: &f64) -> u64 {
    // Quantize onto a grid ~1e-9 relative: exponent plus the top ~30
    // mantissa bits.
    let bits = v.to_bits();
    bits >> 22
}

/// Computes the structured diff between two records. Only differing
/// metrics produce entries, so `diff(a, a)` is empty; numeric deltas
/// are `current - base`, so swapping the arguments negates them.
pub fn diff(base: &RunRecord, current: &RunRecord) -> RecordDiff {
    let mut entries = Vec::new();
    let mut compared = 0usize;
    let ids: std::collections::BTreeSet<&String> = base
        .experiments
        .keys()
        .chain(current.experiments.keys())
        .collect();
    for id in ids {
        let (a, b) = (
            base.experiments.get(id.as_str()),
            current.experiments.get(id.as_str()),
        );
        compared += 1;
        let (a, b) = match (a, b) {
            (Some(a), Some(b)) => (a, b),
            (a, b) => {
                let presence =
                    |run: Option<&ExperimentRun>| run.map(|_| MetricValue::Text("present".into()));
                entries.push(DiffEntry {
                    experiment: id.to_string(),
                    kind: DiffKind::Experiment,
                    name: String::new(),
                    class: MetricClass::Exact,
                    base: presence(a),
                    current: presence(b),
                });
                continue;
            }
        };
        // Truncation marker.
        compared += 1;
        if a.truncated != b.truncated {
            let side = |t: &Option<String>| {
                Some(MetricValue::Text(
                    t.clone().unwrap_or_else(|| "complete".into()),
                ))
            };
            entries.push(DiffEntry {
                experiment: id.to_string(),
                kind: DiffKind::Truncated,
                name: String::new(),
                class: MetricClass::Exact,
                base: side(&a.truncated),
                current: side(&b.truncated),
            });
        }
        // Wall clock (always noisy; only reported when it moved by
        // more than 1% so `diff(a, b)` on re-serialized identical
        // records stays quiet).
        compared += 1;
        let wall_moved = {
            let (wa, wb) = (a.wall_ms, b.wall_ms);
            (wa - wb).abs() > 0.01 * wa.abs().max(wb.abs())
        };
        if wall_moved {
            entries.push(DiffEntry {
                experiment: id.to_string(),
                kind: DiffKind::WallMs,
                name: String::new(),
                class: MetricClass::Noisy,
                base: Some(MetricValue::F64(a.wall_ms)),
                current: Some(MetricValue::F64(b.wall_ms)),
            });
        }
        let (ma, mb) = (&a.metrics, &b.metrics);
        let mut sink = DiffSink {
            entries: &mut entries,
            compared: &mut compared,
            experiment: id,
        };
        sink.diff_map(
            DiffKind::Counter,
            &ma.counters,
            &mb.counters,
            counter_class,
            |v| *v,
            |v| MetricValue::U64(*v),
        );
        sink.diff_map(
            DiffKind::Gauge,
            &ma.gauges,
            &mb.gauges,
            |_| MetricClass::Exact,
            gauge_key,
            |v| MetricValue::F64(*v),
        );
        sink.diff_map(
            DiffKind::EventCount,
            &ma.events,
            &mb.events,
            |_| MetricClass::Exact,
            |v| *v,
            |v| MetricValue::U64(*v),
        );
        // Histograms split into four views with independent classes.
        sink.diff_map(
            DiffKind::HistCount,
            &ma.histograms,
            &mb.histograms,
            |_| MetricClass::Exact,
            |h| h.count,
            |h| MetricValue::U64(h.count),
        );
        sink.diff_map(
            DiffKind::HistSum,
            &ma.histograms,
            &mb.histograms,
            hist_sum_class,
            |h| h.sum,
            |h| MetricValue::U64(h.sum),
        );
        for (kind, q) in [(DiffKind::HistP50, 0.5), (DiffKind::HistP99, 0.99)] {
            sink.diff_map(
                kind,
                &ma.histograms,
                &mb.histograms,
                hist_sum_class,
                |h| h.quantile(q),
                |h| MetricValue::U64(h.quantile(q).unwrap_or(0)),
            );
        }
        sink.diff_map(
            DiffKind::TreeCount,
            &ma.tree,
            &mb.tree,
            |_| MetricClass::Exact,
            |r| r.count,
            |r| MetricValue::U64(r.count),
        );
        sink.diff_map(
            DiffKind::TreeNs,
            &ma.tree,
            &mb.tree,
            |_| MetricClass::Noisy,
            |r| r.total_ns,
            |r| MetricValue::U64(r.total_ns),
        );
    }
    // Deterministic report order: experiment, then kind, then name.
    entries.sort_by(|x, y| {
        (x.experiment.as_str(), x.kind.as_str(), x.name.as_str()).cmp(&(
            y.experiment.as_str(),
            y.kind.as_str(),
            y.name.as_str(),
        ))
    });
    RecordDiff { entries, compared }
}

// ---------------------------------------------------------------------------
// Check (the regression gate)
// ---------------------------------------------------------------------------

/// Thresholds for [`check`]. Exact-class metrics always gate at zero
/// tolerance; the knobs here only shape the noisy class.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CheckPolicy {
    /// Maximum allowed ratio (either direction) for noisy metrics —
    /// wall-clock, `*_ns` sums, duration quantiles. The default, 16×,
    /// is deliberately wide: it tolerates any plausible hardware gap
    /// between the capture host and CI while still catching
    /// complexity-class regressions.
    pub noisy_band: f64,
    /// Noisy nanosecond drift is ignored while both sides are under
    /// this floor (absolute jitter on sub-millisecond spans is
    /// meaningless).
    pub noisy_floor_ns: u64,
    /// Wall-clock drift is ignored while both sides are under this
    /// floor, in milliseconds.
    pub wall_floor_ms: f64,
    /// Allowed p50/p99 drift in power-of-two buckets (3 ≈ 8×).
    pub quantile_band_buckets: u32,
    /// When false, noisy metrics never fail the gate (they still show
    /// up in the diff report).
    pub gate_noisy: bool,
    /// When false, experiments missing from the current record are
    /// tolerated (subset check, e.g. `experiments e1 --ledger` against
    /// the full baseline).
    pub require_all: bool,
}

impl Default for CheckPolicy {
    fn default() -> Self {
        Self {
            noisy_band: 16.0,
            noisy_floor_ns: 20_000_000, // 20 ms
            wall_floor_ms: 50.0,
            quantile_band_buckets: 3,
            gate_noisy: true,
            require_all: true,
        }
    }
}

/// One gate failure.
#[derive(Debug, Clone, PartialEq)]
pub struct Violation {
    /// The differing metric that tripped the gate.
    pub entry: DiffEntry,
    /// Why it tripped.
    pub reason: String,
}

/// The result of [`check`]: violations fail the gate, warnings are
/// informational (noisy drift inside the band, config mismatches).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CheckReport {
    /// Gate failures.
    pub violations: Vec<Violation>,
    /// Non-fatal observations.
    pub warnings: Vec<String>,
    /// Metrics compared.
    pub compared: usize,
}

impl CheckReport {
    /// Whether the gate passes.
    pub fn passed(&self) -> bool {
        self.violations.is_empty()
    }

    /// Renders the report for humans (one block per violation, then
    /// warnings, then the verdict line).
    pub fn render(&self) -> String {
        let mut out = String::new();
        for v in &self.violations {
            let side = |s: &Option<MetricValue>| {
                s.as_ref()
                    .map_or_else(|| "-".to_owned(), MetricValue::render)
            };
            let _ = writeln!(
                out,
                "VIOLATION [{}] {} {} `{}`: baseline {} -> current {} ({})",
                v.entry.class.as_str(),
                v.entry.experiment,
                v.entry.kind.as_str(),
                v.entry.name,
                side(&v.entry.base),
                side(&v.entry.current),
                v.reason
            );
        }
        for w in &self.warnings {
            let _ = writeln!(out, "warning: {w}");
        }
        let _ = writeln!(
            out,
            "{}: {} violation(s), {} warning(s), {} metrics compared",
            if self.passed() { "PASS" } else { "FAIL" },
            self.violations.len(),
            self.warnings.len(),
            self.compared
        );
        out
    }
}

/// Gates `current` against `baseline` under `policy`.
///
/// Exact-class drift (work counters, gauges, span/event counts, tree
/// shapes, truncation markers, experiment presence) is always a
/// violation. Noisy-class drift is a violation only beyond
/// [`CheckPolicy::noisy_band`] above the relevant floor — and not at
/// all when [`CheckPolicy::gate_noisy`] is off. Config mismatches are
/// warnings: they usually explain, rather than constitute, a
/// regression.
pub fn check(baseline: &RunRecord, current: &RunRecord, policy: &CheckPolicy) -> CheckReport {
    let d = diff(baseline, current);
    let mut report = CheckReport {
        compared: d.compared,
        ..Default::default()
    };
    for (k, base_v) in &baseline.config {
        match current.config.get(k) {
            Some(v) if v == base_v => {}
            Some(v) => report.warnings.push(format!(
                "config `{k}` differs: baseline `{base_v}` vs current `{v}`"
            )),
            None => report
                .warnings
                .push(format!("config `{k}` missing from current record")),
        }
    }
    for entry in d.entries {
        match entry.class {
            MetricClass::Exact => {
                if entry.kind == DiffKind::Experiment
                    && !policy.require_all
                    && entry.current.is_none()
                {
                    report.warnings.push(format!(
                        "experiment `{}` not in current record (subset check)",
                        entry.experiment
                    ));
                    continue;
                }
                let reason = match (&entry.base, &entry.current) {
                    (Some(_), None) => "present in baseline only".to_owned(),
                    (None, Some(_)) => "present in current only".to_owned(),
                    _ => "exact metrics gate at zero tolerance".to_owned(),
                };
                report.violations.push(Violation { entry, reason });
            }
            MetricClass::Noisy => {
                if !policy.gate_noisy {
                    continue;
                }
                let below_floor = {
                    let floor = match entry.kind {
                        DiffKind::WallMs => policy.wall_floor_ms,
                        _ => policy.noisy_floor_ns as f64,
                    };
                    let under = |v: &Option<MetricValue>| {
                        v.as_ref()
                            .and_then(MetricValue::as_f64)
                            .is_none_or(|x| x < floor)
                    };
                    under(&entry.base) && under(&entry.current)
                };
                if below_floor {
                    continue;
                }
                let quantile = matches!(entry.kind, DiffKind::HistP50 | DiffKind::HistP99);
                let violated = if quantile {
                    let bucket = |v: &Option<MetricValue>| {
                        v.as_ref()
                            .and_then(MetricValue::as_f64)
                            .map(|x| bucket_index(x as u64) as i64)
                    };
                    match (bucket(&entry.base), bucket(&entry.current)) {
                        (Some(a), Some(b)) => {
                            (a - b).unsigned_abs() > policy.quantile_band_buckets as u64
                        }
                        _ => true,
                    }
                } else {
                    match entry.ratio() {
                        Some(r) => r > policy.noisy_band || r < 1.0 / policy.noisy_band,
                        // One side absent or zero: only the absent case is
                        // suspicious for a noisy metric.
                        None => entry.base.is_none() || entry.current.is_none(),
                    }
                };
                if violated {
                    let reason = if quantile {
                        format!(
                            "quantile drift beyond ±{} power-of-two buckets",
                            policy.quantile_band_buckets
                        )
                    } else {
                        format!("outside the {}x noise band", policy.noisy_band)
                    };
                    report.violations.push(Violation { entry, reason });
                } else if entry.ratio().is_some_and(|r| !(0.5..=2.0).contains(&r)) {
                    report.warnings.push(format!(
                        "noisy drift (within band): {} {} `{}` ratio {:.2}",
                        entry.experiment,
                        entry.kind.as_str(),
                        entry.name,
                        entry.ratio().unwrap_or(f64::NAN)
                    ));
                }
            }
        }
    }
    report
}

/// Crash-safe file write for ledger records and baselines: the
/// contents go to a sibling temp file (`<name>.tmp.<pid>`) which is
/// fsynced and atomically renamed over `path`, so an interrupted run
/// can never leave a truncated or half-written `ledger/baseline.json`
/// behind — readers see either the old bytes or the new bytes, never
/// a mix.
pub fn write_atomic(path: &std::path::Path, contents: &str) -> std::io::Result<()> {
    use std::io::Write as _;
    let file_name = path.file_name().and_then(|n| n.to_str()).ok_or_else(|| {
        std::io::Error::new(
            std::io::ErrorKind::InvalidInput,
            format!("not a writable file path: {}", path.display()),
        )
    })?;
    let tmp = path.with_file_name(format!("{file_name}.tmp.{}", std::process::id()));
    let result = (|| {
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(contents.as_bytes())?;
        f.sync_all()?;
        drop(f);
        std::fs::rename(&tmp, path)
    })();
    if result.is_err() {
        // Best-effort cleanup; the original error is what matters.
        let _ = std::fs::remove_file(&tmp);
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{InMemoryRecorder, Obs};

    fn sample_record() -> RunRecord {
        let rec = InMemoryRecorder::new();
        let obs = Obs::new(&rec);
        {
            let _e = obs.span("experiment.e1");
            {
                let _p = obs.span("assoc.apriori.pass1");
                obs.counter("assoc.apriori.pass1.candidates", 44);
                obs.counter("assoc.apriori.pass1.frequent", 12);
                obs.value("par.shard.items", 1000);
            }
            obs.gauge_max("assoc.mem.ck_bytes", 417_792.0);
            obs.event("guard.trip", "work-unit budget exhausted");
        }
        let mut record = RunRecord {
            created_unix_ms: 1_700_000_000_000,
            git_rev: "deadbeef".into(),
            label: "e1".into(),
            ..Default::default()
        };
        record
            .config
            .insert("parallelism".into(), "sequential".into());
        record.experiments.insert(
            "e1".into(),
            ExperimentRun {
                wall_ms: 12.5,
                truncated: None,
                metrics: MetricDoc::from_snapshot(&rec.snapshot()),
            },
        );
        record
    }

    #[test]
    fn metric_doc_rolls_up_tree_and_events() {
        let record = sample_record();
        let doc = &record.experiments["e1"].metrics;
        assert_eq!(doc.events["guard.trip"], 1);
        assert_eq!(doc.tree["experiment.e1"].count, 1);
        let pass = &doc.tree["experiment.e1/assoc.apriori.pass1"];
        assert_eq!(pass.count, 1);
        assert_eq!(doc.counters["assoc.apriori.pass1.candidates"], 44);
    }

    #[test]
    fn record_round_trips_through_json() {
        let record = sample_record();
        let json = record.to_json();
        let parsed = RunRecord::from_json(&json).expect("parses");
        assert_eq!(parsed, record);
        // Deterministic: same record, same bytes.
        assert_eq!(parsed.to_json(), json);
    }

    #[test]
    fn from_json_rejects_bad_documents() {
        assert!(matches!(
            RunRecord::from_json("not json"),
            Err(LedgerError::Json(_))
        ));
        assert!(matches!(
            RunRecord::from_json("{}"),
            Err(LedgerError::Shape(_))
        ));
        let future =
            sample_record()
                .to_json()
                .replacen("\"ledger_schema\": 1", "\"ledger_schema\": 99", 1);
        assert!(matches!(
            RunRecord::from_json(&future),
            Err(LedgerError::SchemaTooNew(99))
        ));
    }

    #[test]
    fn diff_of_identical_records_is_empty() {
        let record = sample_record();
        let d = diff(&record, &record);
        assert!(d.is_empty(), "{:?}", d.entries);
        assert!(d.compared > 5);
        assert!(d.render_table().contains("no differences"));
    }

    #[test]
    fn diff_reports_counter_and_gauge_drift_with_classes() {
        let base = sample_record();
        let mut current = base.clone();
        {
            let run = current.experiments.get_mut("e1").unwrap();
            *run.metrics
                .counters
                .get_mut("assoc.apriori.pass1.candidates")
                .unwrap() = 88;
            run.metrics
                .gauges
                .insert("assoc.mem.ck_bytes".into(), 500_000.0);
            run.metrics
                .counters
                .insert("assoc.apriori.pass2.candidates".into(), 7);
        }
        let d = diff(&base, &current);
        let by_name = |n: &str| d.entries.iter().find(|e| e.name == n).unwrap();
        let c = by_name("assoc.apriori.pass1.candidates");
        assert_eq!(c.class, MetricClass::Exact);
        assert_eq!(c.delta(), Some(44.0));
        assert_eq!(c.relative(), Some(1.0));
        let added = by_name("assoc.apriori.pass2.candidates");
        assert!(added.base.is_none());
        let g = by_name("assoc.mem.ck_bytes");
        assert_eq!(g.kind, DiffKind::Gauge);
        // Render paths stay in sync with the entries.
        let table = d.render_table();
        assert!(table.contains("assoc.apriori.pass1.candidates"));
        let json = d.render_json();
        assert!(json.contains("\"assoc.apriori.pass1.candidates\""));
        assert!(crate::json::parse(&json).is_ok(), "diff JSON is valid JSON");
    }

    #[test]
    fn busy_ns_counters_are_noisy_class() {
        assert_eq!(counter_class("par.shard0.busy_ns"), MetricClass::Noisy);
        assert_eq!(
            counter_class("assoc.apriori.pass1.candidates"),
            MetricClass::Exact
        );
        assert_eq!(hist_sum_class("par.shard.items"), MetricClass::Exact);
        assert_eq!(hist_sum_class("assoc.apriori.pass1"), MetricClass::Noisy);
    }

    #[test]
    fn check_passes_identical_and_fails_exact_drift() {
        let base = sample_record();
        let policy = CheckPolicy::default();
        assert!(check(&base, &base, &policy).passed());

        let mut regressed = base.clone();
        *regressed
            .experiments
            .get_mut("e1")
            .unwrap()
            .metrics
            .counters
            .get_mut("assoc.apriori.pass1.candidates")
            .unwrap() += 1;
        let report = check(&base, &regressed, &policy);
        assert!(!report.passed());
        assert_eq!(report.violations.len(), 1);
        assert!(report.render().contains("FAIL"));
    }

    #[test]
    fn check_tolerates_noisy_drift_inside_band_but_not_beyond() {
        let base = sample_record();
        let policy = CheckPolicy::default();
        // 4x wall-clock drift above the floor: inside the 16x band.
        let mut slow = base.clone();
        slow.experiments.get_mut("e1").unwrap().wall_ms = 400.0;
        let mut base_walled = base.clone();
        base_walled.experiments.get_mut("e1").unwrap().wall_ms = 100.0;
        assert!(check(&base_walled, &slow, &policy).passed());
        // 100x: beyond the band.
        slow.experiments.get_mut("e1").unwrap().wall_ms = 10_000.0;
        let report = check(&base_walled, &slow, &policy);
        assert!(!report.passed());
        assert_eq!(report.violations[0].entry.kind, DiffKind::WallMs);
        // Sub-floor wall drift is ignored entirely.
        slow.experiments.get_mut("e1").unwrap().wall_ms = 49.0;
        base_walled.experiments.get_mut("e1").unwrap().wall_ms = 1.0;
        assert!(check(&base_walled, &slow, &policy).passed());
    }

    #[test]
    fn check_flags_missing_and_extra_experiments() {
        let base = sample_record();
        let mut extra = base.clone();
        extra
            .experiments
            .insert("e2".into(), ExperimentRun::default());
        let report = check(&base, &extra, &CheckPolicy::default());
        assert!(!report.passed(), "new experiment requires baseline update");

        let empty = RunRecord::default();
        let report = check(&base, &empty, &CheckPolicy::default());
        assert!(!report.passed());
        let subset_policy = CheckPolicy {
            require_all: false,
            ..CheckPolicy::default()
        };
        assert!(check(&base, &empty, &subset_policy).passed());
    }

    #[test]
    fn check_flags_truncation_change() {
        let base = sample_record();
        let mut truncated = base.clone();
        truncated.experiments.get_mut("e1").unwrap().truncated =
            Some("wall-clock deadline exceeded".into());
        let report = check(&base, &truncated, &CheckPolicy::default());
        assert!(!report.passed());
        assert_eq!(report.violations[0].entry.kind, DiffKind::Truncated);
    }

    #[test]
    fn config_mismatch_warns_but_does_not_fail() {
        let base = sample_record();
        let mut other = base.clone();
        other
            .config
            .insert("parallelism".into(), "threads:4".into());
        let report = check(&base, &other, &CheckPolicy::default());
        assert!(report.passed());
        assert_eq!(report.warnings.len(), 1);
    }
}
