//! # dm-obs
//!
//! Zero-cost observability for the workspace's long-running miners
//! (re-exported by the facade as `dm_core::obs`).
//!
//! The canonical evaluations this repo reconstructs — Apriori's per-pass
//! candidate tables, the AprioriTid `C̄_k`-vs-database memory crossover,
//! k-means inertia curves, shard-imbalance ratios — are defined in terms
//! of *internal counters and sizes*, not wall-clock time. This crate is
//! the substrate that surfaces them: a dependency-free [`Recorder`]
//! trait with
//!
//! * [`NoopRecorder`] — the default on every ungoverned path; every
//!   method is an empty body and [`Recorder::enabled`] returns `false`,
//!   so instrumentation sites skip even the metric-name formatting
//!   (measured ≤2% overhead on the assoc/cluster benches, see
//!   `ledger/bench-obs.json`);
//! * [`InMemoryRecorder`] — thread-safe aggregation into counters,
//!   gauges, log-bucketed duration/value [`Histogram`]s, a hierarchical
//!   span *tree*, and an ordered event log, snapshot as a stable,
//!   sorted JSON document ([`Snapshot::to_json`], schema version
//!   [`SNAPSHOT_SCHEMA`]).
//!
//! ## Hierarchical spans
//!
//! [`Obs::span`] returns an RAII guard; guards nest through a
//! thread-local parent stack, so `experiment → pass → shard` trees fall
//! out of ordinary lexical scoping. Crossing a thread boundary (the
//! `dm_par` workers) is explicit: capture [`Obs::current_span`] on the
//! spawning thread and open the child with [`Obs::span_child`]. Each
//! closed span also lands in its name's duration [`Histogram`], the
//! one place a duration is stored. With a disabled recorder no clock is
//! read, no name is formatted and the thread-local stack is never
//! touched.
//!
//! ## Memory accounting
//!
//! The [`HeapSize`] trait estimates the heap bytes of the big
//! intermediate structures (hash-trees, `C̄_k` tid-lists, CF-tree
//! leaves, distance caches); algorithms publish them once per pass as
//! `*.mem_bytes` gauges, with [`Obs::gauge_max`] keeping family-level
//! high-water marks.
//!
//! ## Exporters
//!
//! [`export`] renders a [`Snapshot`] for standard tools with no new
//! dependencies: chrome://tracing trace-event JSON
//! ([`export::chrome_trace`]), folded stacks for flamegraph
//! ([`export::folded_stacks`]), and Prometheus text exposition
//! ([`export::prometheus`]). The `experiments` binary exposes them as
//! `--trace`, `--folded` and `--prom`.
//!
//! ## Loading
//!
//! [`Snapshot::from_json`] reads only the current schema, with every
//! section required, and refuses a document whose parts disagree: a
//! histogram whose buckets do not sum to its count, gauge write
//! ordinals for other names than the gauges, or a span tree whose ids
//! are not `1..=n` in order with each parent `0` or an earlier id.
//!
//! ## Metric naming
//!
//! Names are hierarchical, dot-separated, lowercase:
//! `<subsystem>.<algorithm>.<scope>.<metric>` — e.g.
//! `assoc.apriori.pass3.candidates`, `cluster.kmeans.iter.inertia`,
//! `par.shard2.busy_ns`, `guard.trip`. The full registry (name, unit,
//! emitting algorithm) lives in `DESIGN.md`.
//!
//! ## Wiring
//!
//! Recorders ride on `dm_guard::Guard`, which already flows through
//! every governed entry point and every `dm_par` worker: attach one
//! with `Guard::with_recorder`, and instrumentation sites reach it via
//! `Guard::obs()` → [`Obs`]. Ungoverned entry points construct
//! `Guard::unlimited()` (no recorder), so they pay only an
//! `Option`-is-`None` check per emission site.
//!
//! ```
//! use dm_obs::{InMemoryRecorder, Obs, Recorder};
//! use std::sync::Arc;
//!
//! let rec = Arc::new(InMemoryRecorder::new());
//! let obs = Obs::new(rec.as_ref());
//! obs.counter("assoc.apriori.pass3.candidates", 44);
//! {
//!     let _pass = obs.span("assoc.apriori.pass3"); // nests via TLS
//!     obs.value("par.shard.items", 1000);
//! }
//! let snap = rec.snapshot();
//! assert_eq!(snap.counter("assoc.apriori.pass3.candidates"), Some(44));
//! assert_eq!(snap.tree.len(), 1);
//! assert!(snap.to_json().contains("\"schema\": 5"));
//! ```

#![warn(missing_docs)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

pub mod export;
pub mod heap;
pub mod hist;
pub mod json;
pub mod ledger;
pub mod trace;
pub mod watch;

pub use heap::HeapSize;
pub use hist::{Exemplar, Histogram};
pub use trace::TraceId;

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::Mutex;
use std::thread::ThreadId;
use std::time::Instant;

/// Version of the [`Snapshot`] JSON schema (the `"schema"` key). Bump
/// it whenever a key is added, removed or its meaning changes, and
/// record the change in `DESIGN.md` ("Metrics snapshot schema").
/// Version 5 dropped `spans`; readers accept 5 only.
pub const SNAPSHOT_SCHEMA: u32 = 5;

/// Identifier of one node in a recorder's span tree. `SpanId::ROOT`
/// (zero) is "no parent": a top-level span, or a recorder that does not
/// keep a tree.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SpanId(pub u64);

impl SpanId {
    /// The absent/top-level parent id.
    pub const ROOT: SpanId = SpanId(0);

    /// Whether this id names a real span (non-root).
    pub fn is_some(self) -> bool {
        self.0 != 0
    }
}

/// A metrics sink. Implementations must be cheap and thread-safe: the
/// same recorder is shared by reference across parallel shards.
///
/// All methods take `&self`; implementations use interior mutability
/// (or, like [`NoopRecorder`], no state at all). The span-tree and
/// histogram methods have defaults that degrade gracefully, so a
/// minimal recorder only implements the three flat primitives.
pub trait Recorder: Send + Sync {
    /// Whether this recorder keeps anything. Instrumentation sites check
    /// this before formatting dynamic metric names, so a disabled
    /// recorder costs neither allocation nor clock reads.
    fn enabled(&self) -> bool {
        true
    }

    /// Adds `delta` to the named monotonic counter.
    fn counter(&self, name: &str, delta: u64);

    /// Sets the named gauge to `value` (last write wins).
    fn gauge(&self, name: &str, value: f64);

    /// Appends an entry to the ordered event log.
    fn event(&self, name: &str, detail: &str);

    /// Raises the named gauge to `value` if it is below it (high-water
    /// mark). Defaults to a plain overwrite for recorders without
    /// max-merge support.
    fn gauge_max(&self, name: &str, value: f64) {
        self.gauge(name, value);
    }

    /// Records one sample into the named value histogram. Defaults to
    /// dropping the sample.
    fn value(&self, name: &str, v: u64) {
        let _ = (name, v);
    }

    /// Records one sample into the named value histogram *and* marks
    /// the bucket it lands in with `trace` as its exemplar (last write
    /// wins). Defaults to plain [`Recorder::value`] for recorders
    /// without exemplar storage.
    fn value_traced(&self, name: &str, v: u64, trace: TraceId) {
        let _ = trace;
        self.value(name, v);
    }

    /// Opens a span in the hierarchical span tree under `parent`
    /// (`SpanId::ROOT` for a top-level span), returning its id.
    /// Recorders without a tree return `SpanId::ROOT`, which callers
    /// treat as "no tree node was created".
    fn span_begin(&self, name: &str, parent: SpanId) -> SpanId {
        let _ = (name, parent);
        SpanId::ROOT
    }

    /// Closes span `id` after `elapsed_ns`, also feeding the name's
    /// duration histogram. The default forwards to [`Recorder::value`]
    /// so tree-less recorders still aggregate durations.
    fn span_end(&self, id: SpanId, name: &str, elapsed_ns: u64) {
        let _ = id;
        self.value(name, elapsed_ns);
    }
}

/// The do-nothing recorder: every method compiles to an empty body and
/// [`Recorder::enabled`] is `false`, so callers skip name formatting.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoopRecorder;

impl Recorder for NoopRecorder {
    #[inline]
    fn enabled(&self) -> bool {
        false
    }
    #[inline]
    fn counter(&self, _name: &str, _delta: u64) {}
    #[inline]
    fn gauge(&self, _name: &str, _value: f64) {}
    #[inline]
    fn event(&self, _name: &str, _detail: &str) {}
}

/// The process-wide noop instance [`Obs::noop`] hands out.
pub static NOOP: NoopRecorder = NoopRecorder;

/// One entry of the ordered event log.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Event {
    /// 0-based sequence number (emission order).
    pub seq: u64,
    /// Event name (same hierarchical scheme as metrics).
    pub name: String,
    /// Free-form detail string.
    pub detail: String,
}

/// One node of the hierarchical span tree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanNode {
    /// This span's id (1-based; ids are assigned in open order).
    pub id: u64,
    /// Parent span id, `0` for top-level spans.
    pub parent: u64,
    /// Span name (same hierarchical scheme as metrics).
    pub name: String,
    /// Dense index of the opening thread (0-based, in first-seen order).
    pub tid: u32,
    /// Open timestamp, nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// Span duration; `None` while the span is still open (or was
    /// leaked without closing).
    pub dur_ns: Option<u64>,
}

impl json::FromJson<'_> for Event {
    fn from_json(v: &json::Json) -> Result<Self, json::FieldError> {
        Ok(Event {
            seq: v.req("seq")?,
            name: v.req("name")?,
            detail: v.req("detail")?,
        })
    }
}

impl json::ToJson for Event {
    fn write_json(&self, w: &mut json::Writer) {
        w.obj(json::Layout::Inline, |w| {
            w.key("seq").u64(self.seq);
            w.key("name").str(&self.name);
            w.key("detail").str(&self.detail);
        });
    }
}

impl json::FromJson<'_> for SpanNode {
    fn from_json(v: &json::Json) -> Result<Self, json::FieldError> {
        Ok(SpanNode {
            id: v.req("id")?,
            parent: v.req("parent")?,
            name: v.req("name")?,
            tid: v.req("tid")?,
            start_ns: v.req("start_ns")?,
            dur_ns: v.opt("dur_ns")?.flatten(),
        })
    }
}

impl json::ToJson for SpanNode {
    fn write_json(&self, w: &mut json::Writer) {
        w.obj(json::Layout::Inline, |w| {
            w.key("id").u64(self.id).key("parent").u64(self.parent);
            w.key("name").str(&self.name);
            w.key("tid").u64(self.tid.into());
            w.key("start_ns").u64(self.start_ns);
            w.key("dur_ns").val(&self.dur_ns);
        });
    }
}

#[derive(Debug, Default)]
struct State {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    /// Per-gauge write ordinal: the value of the recorder-wide gauge
    /// write counter at that gauge's most recent write. Gauges are
    /// last-write-wins, so without this a reader cannot tell a fresh
    /// write of the same value from no write at all.
    gauge_seq: BTreeMap<String, u64>,
    /// Recorder-wide monotonic gauge write counter (feeds `gauge_seq`).
    gauge_writes: u64,
    hists: BTreeMap<String, Histogram>,
    /// Per-histogram bucket exemplars: the most recent traced
    /// observation per bucket.
    exemplars: BTreeMap<String, BTreeMap<usize, Exemplar>>,
    events: Vec<Event>,
    nodes: Vec<SpanNode>,
    /// Dense thread-id table: `threads[i]` opened spans with `tid = i`.
    threads: Vec<ThreadId>,
}

impl State {
    fn touch_gauge(&mut self, name: &str) {
        self.gauge_writes += 1;
        let seq = self.gauge_writes;
        self.gauge_seq.insert(name.to_owned(), seq);
    }
}

impl State {
    fn dense_tid(&mut self, t: ThreadId) -> u32 {
        match self.threads.iter().position(|&x| x == t) {
            Some(i) => i as u32,
            None => {
                self.threads.push(t);
                (self.threads.len() - 1) as u32
            }
        }
    }
}

/// A thread-safe recorder that aggregates everything in memory.
///
/// Counters sum, gauges keep the last written value (high-water via
/// [`Recorder::gauge_max`]), span durations and explicit values
/// aggregate into power-of-two [`Histogram`]s, the span tree keeps
/// every opened span with its parent and timestamps, events append in
/// order. Every mutation takes the internal lock exactly once.
/// [`InMemoryRecorder::snapshot`] returns a point-in-time copy;
/// [`Snapshot::to_json`] serializes it in a stable format (keys sorted,
/// schema versioned — see `DESIGN.md`).
#[derive(Debug)]
pub struct InMemoryRecorder {
    state: Mutex<State>,
    /// Time origin of `SpanNode::start_ns`.
    epoch: Instant,
}

impl Default for InMemoryRecorder {
    fn default() -> Self {
        Self {
            state: Mutex::new(State::default()),
            epoch: Instant::now(),
        }
    }
}

/// Nanoseconds since `t0`, saturating at `u64::MAX`.
fn ns_since(t0: Instant) -> u64 {
    u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

impl InMemoryRecorder {
    /// A fresh, empty recorder.
    pub fn new() -> Self {
        Self::default()
    }

    fn with_state<T>(&self, f: impl FnOnce(&mut State) -> T) -> T {
        // Mutex poisoning can only happen if a panic escaped mid-record;
        // metrics are best-effort, so keep recording into the inner state.
        let mut state = match self.state.lock() {
            Ok(s) => s,
            Err(poisoned) => poisoned.into_inner(),
        };
        f(&mut state)
    }

    /// A point-in-time copy of everything recorded so far.
    pub fn snapshot(&self) -> Snapshot {
        self.with_state(|s| Snapshot {
            counters: s.counters.clone(),
            gauges: s.gauges.clone(),
            histograms: s.hists.clone(),
            exemplars: s.exemplars.clone(),
            events: s.events.clone(),
            tree: s.nodes.clone(),
            gauge_seq: s.gauge_seq.clone(),
        })
    }
}

impl Recorder for InMemoryRecorder {
    fn counter(&self, name: &str, delta: u64) {
        self.with_state(|s| {
            *s.counters.entry(name.to_owned()).or_insert(0) += delta;
        });
    }

    fn gauge(&self, name: &str, value: f64) {
        self.with_state(|s| {
            s.gauges.insert(name.to_owned(), value);
            s.touch_gauge(name);
        });
    }

    fn gauge_max(&self, name: &str, value: f64) {
        self.with_state(|s| {
            s.gauges
                .entry(name.to_owned())
                .and_modify(|g| *g = g.max(value))
                .or_insert(value);
            s.touch_gauge(name);
        });
    }

    fn value(&self, name: &str, v: u64) {
        self.with_state(|s| {
            s.hists.entry(name.to_owned()).or_default().record(v);
        });
    }

    fn value_traced(&self, name: &str, v: u64, trace: TraceId) {
        self.with_state(|s| {
            s.hists.entry(name.to_owned()).or_default().record(v);
            s.exemplars.entry(name.to_owned()).or_default().insert(
                hist::bucket_index(v),
                Exemplar {
                    trace_id: trace.0,
                    value: v,
                },
            );
        });
    }

    fn event(&self, name: &str, detail: &str) {
        // Single lock acquisition covers both the sequence-number read
        // and the append, so concurrent writers can neither duplicate
        // nor skip a `seq`.
        self.with_state(|s| {
            let seq = s.events.len() as u64;
            s.events.push(Event {
                seq,
                name: name.to_owned(),
                detail: detail.to_owned(),
            });
        });
    }

    fn span_begin(&self, name: &str, parent: SpanId) -> SpanId {
        let start_ns = ns_since(self.epoch);
        let thread = std::thread::current().id();
        self.with_state(|s| {
            let id = s.nodes.len() as u64 + 1;
            // A parent id from a different recorder (or a stale one)
            // cannot be resolved; fall back to top-level.
            let parent = if parent.0 <= s.nodes.len() as u64 {
                parent.0
            } else {
                0
            };
            let tid = s.dense_tid(thread);
            s.nodes.push(SpanNode {
                id,
                parent,
                name: name.to_owned(),
                tid,
                start_ns,
                dur_ns: None,
            });
            SpanId(id)
        })
    }

    fn span_end(&self, id: SpanId, name: &str, elapsed_ns: u64) {
        self.with_state(|s| {
            s.hists
                .entry(name.to_owned())
                .or_default()
                .record(elapsed_ns);
            if id.is_some() {
                if let Some(node) = s.nodes.get_mut(id.0 as usize - 1) {
                    if node.dur_ns.is_none() {
                        node.dur_ns = Some(elapsed_ns);
                    }
                }
            }
        });
    }
}

/// A point-in-time copy of an [`InMemoryRecorder`]'s contents.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Snapshot {
    /// Monotonic counters by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauges by name (last written value).
    pub gauges: BTreeMap<String, f64>,
    /// Duration/value histograms by name (span durations land under
    /// the span's name; count and sum are exact).
    pub histograms: BTreeMap<String, Histogram>,
    /// The ordered event log.
    pub events: Vec<Event>,
    /// The hierarchical span tree, in open order (`id` = index + 1).
    pub tree: Vec<SpanNode>,
    /// Per-gauge write ordinal: the recorder-wide gauge
    /// write counter at each gauge's last write. Strictly increases
    /// with every write to any gauge, so two snapshots of the same
    /// recorder order gauge observations even when the value repeats.
    pub gauge_seq: BTreeMap<String, u64>,
    /// Per-histogram bucket exemplars: for each histogram
    /// fed through [`Recorder::value_traced`], the most recent traced
    /// observation per bucket.
    pub exemplars: BTreeMap<String, BTreeMap<usize, Exemplar>>,
}

impl Snapshot {
    /// The value of a counter, if it was ever incremented.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters.get(name).copied()
    }

    /// The last written value of a gauge.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.get(name).copied()
    }

    /// The duration/value histogram recorded under `name`.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }

    /// The exemplar marking `bucket` of histogram `name`, if a traced
    /// observation ever landed there.
    pub fn exemplar(&self, name: &str, bucket: usize) -> Option<Exemplar> {
        self.exemplars
            .get(name)
            .and_then(|m| m.get(&bucket))
            .copied()
    }

    /// Whether nothing at all was recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty()
            && self.gauges.is_empty()
            && self.histograms.is_empty()
            && self.events.is_empty()
            && self.tree.is_empty()
    }

    /// All counters whose name starts with `prefix`, in name order.
    pub fn counters_with_prefix(&self, prefix: &str) -> Vec<(&str, u64)> {
        self.counters
            .iter()
            .filter(|(k, _)| k.starts_with(prefix))
            .map(|(k, &v)| (k.as_str(), v))
            .collect()
    }

    /// All gauges whose name starts with `prefix`, in name order.
    pub fn gauges_with_prefix(&self, prefix: &str) -> Vec<(&str, f64)> {
        self.gauges
            .iter()
            .filter(|(k, _)| k.starts_with(prefix))
            .map(|(k, &v)| (k.as_str(), v))
            .collect()
    }

    /// Serializes the snapshot as a JSON document.
    ///
    /// The format is stable and versioned (`"schema"`, currently
    /// [`SNAPSHOT_SCHEMA`]): one object with `counters`, `gauges`,
    /// `events`, `histograms` (sparse power-of-two buckets), `tree`
    /// (the span hierarchy), `gauge_seq` (per-gauge write ordinals) and
    /// `exemplars` (sparse `[bucket, trace_id, value]` triples per
    /// histogram). Map keys sorted lexicographically; non-finite gauge
    /// values serialize as `null`.
    /// See `DESIGN.md` ("Metrics snapshot schema") for the full schema
    /// and the bump rule.
    pub fn to_json(&self) -> String {
        let mut w = json::Writer::new();
        self.write_json(&mut w, None);
        w.finish()
    }

    /// Writes the [`Snapshot::to_json`] document into `w`. A `Some`
    /// `truncated` adds the optional `"truncated": "<reason>"` tag
    /// right after `"schema"` (the `experiments --metrics` marker for a
    /// run its guard cut short).
    pub fn write_json(&self, w: &mut json::Writer, truncated: Option<&str>) {
        use json::Layout::{Block, Inline};
        w.obj(Block, |w| {
            w.key("schema").u64(SNAPSHOT_SCHEMA.into());
            if let Some(reason) = truncated {
                w.key("truncated").str(reason);
            }
            w.key("counters").map(Block, &self.counters);
            w.key("gauges").map(Block, &self.gauges);
            w.key("events").list(Block, &self.events);
            w.key("histograms").map(Block, &self.histograms);
            w.key("tree").list(Block, &self.tree);
            w.key("gauge_seq").map(Block, &self.gauge_seq);
            w.key("exemplars").obj(Block, |w| {
                for (k, buckets) in &self.exemplars {
                    w.key(k).arr(Inline, |w| {
                        for (bucket, e) in buckets {
                            w.arr(Inline, |w| {
                                w.u64(*bucket as u64).u64(e.trace_id).u64(e.value);
                            });
                        }
                    });
                }
            });
        });
    }

    /// Parses a snapshot serialized by [`Snapshot::to_json`] — the
    /// replay path behind `dm watch`, where archived snapshots feed a
    /// [`watch::MetricView`] exactly as live ones would. Only schema
    /// [`SNAPSHOT_SCHEMA`] is read and every section is required. A
    /// document whose parts disagree is refused: `gauge_seq` must name
    /// exactly the gauges, tree ids must run `1..=n` in order with each
    /// `parent` `0` or an earlier id, and each histogram's buckets must
    /// sum to its count.
    pub fn from_json(input: &str) -> Result<Snapshot, String> {
        Self::read(input).map_err(|e| format!("snapshot: {e}"))
    }

    fn read(input: &str) -> Result<Snapshot, String> {
        let doc = json::parse(input).map_err(|e| e.to_string())?;
        let schema: u64 = doc.req("schema")?;
        if schema != u64::from(SNAPSHOT_SCHEMA) {
            return Err(format!(
                "unsupported schema {schema} (this build reads {SNAPSHOT_SCHEMA} only)"
            ));
        }
        // Non-finite gauge values serialize as `null`.
        let gauges: BTreeMap<String, Option<f64>> = doc.req("gauges")?;
        let exemplars: BTreeMap<String, Vec<Vec<u64>>> = doc.req("exemplars")?;
        let mut snap = Snapshot {
            counters: doc.req("counters")?,
            gauges: gauges
                .into_iter()
                .map(|(k, g)| (k, g.unwrap_or(f64::NAN)))
                .collect(),
            histograms: doc.req("histograms")?,
            events: doc.req("events")?,
            tree: doc.req("tree")?,
            gauge_seq: doc.req("gauge_seq")?,
            exemplars: BTreeMap::new(),
        };
        if !snap.gauge_seq.keys().eq(snap.gauges.keys()) {
            return Err("`gauge_seq` does not name exactly the gauges".into());
        }
        for (i, node) in snap.tree.iter().enumerate() {
            if node.id != i as u64 + 1 || node.parent >= node.id {
                return Err(format!(
                    "`tree[{i}]` is not span {} under 0 or an earlier span",
                    i + 1
                ));
            }
        }
        for (k, triples) in exemplars {
            let mut buckets = BTreeMap::new();
            for (i, triple) in triples.iter().enumerate() {
                match triple[..] {
                    [b, trace_id, value] if b < hist::N_BUCKETS as u64 => {
                        buckets.insert(b as usize, Exemplar { trace_id, value });
                    }
                    _ => {
                        return Err(format!(
                            "`exemplars.{k}[{i}]` is not a [bucket < 65, trace_id, value] triple"
                        ))
                    }
                }
            }
            snap.exemplars.insert(k, buckets);
        }
        Ok(snap)
    }
}

thread_local! {
    /// Per-thread span stack: `(recorder address, span id)` pairs. The
    /// address disambiguates recorders when two are live on one thread,
    /// so a span can only parent under its own recorder's spans.
    static SPAN_STACK: RefCell<Vec<(usize, u64)>> = const { RefCell::new(Vec::new()) };
}

/// A borrowed handle to a recorder — the type instrumentation sites work
/// with. `Copy`, two words wide, and cheap to pass around.
///
/// All emission helpers check [`Recorder::enabled`] first, so with the
/// [`NoopRecorder`] behind it every call reduces to a predictable branch.
#[derive(Clone, Copy)]
pub struct Obs<'a> {
    rec: &'a dyn Recorder,
}

impl std::fmt::Debug for Obs<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Obs")
            .field("enabled", &self.rec.enabled())
            .finish()
    }
}

impl<'a> Obs<'a> {
    /// Wraps a recorder reference.
    pub fn new(rec: &'a dyn Recorder) -> Self {
        Self { rec }
    }

    /// A handle to the process-wide [`NoopRecorder`].
    pub fn noop() -> Obs<'static> {
        Obs { rec: &NOOP }
    }

    /// The address of the underlying recorder, used to key the
    /// thread-local span stack.
    fn addr(&self) -> usize {
        self.rec as *const dyn Recorder as *const () as usize
    }

    /// Whether emissions are kept (see [`Recorder::enabled`]).
    #[inline]
    pub fn enabled(&self) -> bool {
        self.rec.enabled()
    }

    /// Adds `delta` to the named counter.
    #[inline]
    pub fn counter(&self, name: &str, delta: u64) {
        if self.rec.enabled() {
            self.rec.counter(name, delta);
        }
    }

    /// Adds `delta` to a counter whose name is built lazily — the
    /// `format_args!` is only rendered when the recorder is enabled.
    #[inline]
    pub fn counter_fmt(&self, name: std::fmt::Arguments<'_>, delta: u64) {
        if self.rec.enabled() {
            self.rec.counter(&name.to_string(), delta);
        }
    }

    /// Sets the named gauge.
    #[inline]
    pub fn gauge(&self, name: &str, value: f64) {
        if self.rec.enabled() {
            self.rec.gauge(name, value);
        }
    }

    /// Sets a gauge with a lazily formatted name.
    #[inline]
    pub fn gauge_fmt(&self, name: std::fmt::Arguments<'_>, value: f64) {
        if self.rec.enabled() {
            self.rec.gauge(&name.to_string(), value);
        }
    }

    /// Raises the named high-water gauge to `value` if it is below it.
    #[inline]
    pub fn gauge_max(&self, name: &str, value: f64) {
        if self.rec.enabled() {
            self.rec.gauge_max(name, value);
        }
    }

    /// High-water gauge with a lazily formatted name.
    #[inline]
    pub fn gauge_max_fmt(&self, name: std::fmt::Arguments<'_>, value: f64) {
        if self.rec.enabled() {
            self.rec.gauge_max(&name.to_string(), value);
        }
    }

    /// Records one sample into the named value histogram.
    #[inline]
    pub fn value(&self, name: &str, v: u64) {
        if self.rec.enabled() {
            self.rec.value(name, v);
        }
    }

    /// Value-histogram sample carrying a trace exemplar (see
    /// [`Recorder::value_traced`]).
    #[inline]
    pub fn value_traced(&self, name: &str, v: u64, trace: TraceId) {
        if self.rec.enabled() {
            self.rec.value_traced(name, v, trace);
        }
    }

    /// Appends an event to the log.
    #[inline]
    pub fn event(&self, name: &str, detail: &str) {
        if self.rec.enabled() {
            self.rec.event(name, detail);
        }
    }

    /// The innermost span this recorder has open on the current thread
    /// (`SpanId::ROOT` if none) — capture it before spawning workers
    /// and hand it to [`Obs::span_child`] so cross-thread spans parent
    /// correctly.
    pub fn current_span(&self) -> SpanId {
        if !self.rec.enabled() {
            return SpanId::ROOT;
        }
        let addr = self.addr();
        SPAN_STACK.with(|stack| {
            stack
                .borrow()
                .iter()
                .rev()
                .find(|(a, _)| *a == addr)
                .map_or(SpanId::ROOT, |&(_, id)| SpanId(id))
        })
    }

    /// Starts a timed span that records on drop, parented under the
    /// current thread's innermost open span. With a disabled recorder,
    /// no clock is read, nothing is allocated and the thread-local
    /// stack is untouched.
    #[inline]
    pub fn span(&self, name: &str) -> Span<'a> {
        if self.rec.enabled() {
            self.begin_span(name.to_owned(), self.current_span())
        } else {
            Span { active: None }
        }
    }

    /// [`Obs::span`] with a lazily formatted name.
    #[inline]
    pub fn span_fmt(&self, name: std::fmt::Arguments<'_>) -> Span<'a> {
        if self.rec.enabled() {
            self.begin_span(name.to_string(), self.current_span())
        } else {
            Span { active: None }
        }
    }

    /// Starts a timed span under an explicit parent — the cross-thread
    /// variant: capture [`Obs::current_span`] on the spawning thread,
    /// then open the worker's span with it.
    #[inline]
    pub fn span_child(&self, name: &str, parent: SpanId) -> Span<'a> {
        if self.rec.enabled() {
            self.begin_span(name.to_owned(), parent)
        } else {
            Span { active: None }
        }
    }

    /// [`Obs::span_child`] with a lazily formatted name.
    #[inline]
    pub fn span_child_fmt(&self, name: std::fmt::Arguments<'_>, parent: SpanId) -> Span<'a> {
        if self.rec.enabled() {
            self.begin_span(name.to_string(), parent)
        } else {
            Span { active: None }
        }
    }

    fn begin_span(&self, name: String, parent: SpanId) -> Span<'a> {
        let id = self.rec.span_begin(&name, parent);
        let addr = self.addr();
        if id.is_some() {
            SPAN_STACK.with(|stack| stack.borrow_mut().push((addr, id.0)));
        }
        Span {
            active: Some(ActiveSpan {
                rec: self.rec,
                name,
                start: Instant::now(),
                id,
                addr,
            }),
        }
    }
}

struct ActiveSpan<'a> {
    rec: &'a dyn Recorder,
    name: String,
    start: Instant,
    id: SpanId,
    addr: usize,
}

/// A guard for a timed span: closes the span (tree node + duration
/// histogram) when dropped. Obtained from [`Obs::span`] /
/// [`Obs::span_child`].
pub struct Span<'a> {
    active: Option<ActiveSpan<'a>>,
}

impl Span<'_> {
    /// The tree id of this span (`SpanId::ROOT` when the recorder is
    /// disabled or keeps no tree). Hand it to [`Obs::span_child`] to
    /// parent work on another thread under this span.
    pub fn id(&self) -> SpanId {
        self.active.as_ref().map_or(SpanId::ROOT, |a| a.id)
    }
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        if let Some(span) = self.active.take() {
            let ns = ns_since(span.start);
            if span.id.is_some() {
                SPAN_STACK.with(|stack| {
                    let mut stack = stack.borrow_mut();
                    // Strict nesting makes this the top entry; search
                    // defensively in case a guard was dropped out of
                    // order.
                    if let Some(pos) = stack
                        .iter()
                        .rposition(|&(a, id)| a == span.addr && id == span.id.0)
                    {
                        stack.remove(pos);
                    }
                });
            }
            span.rec.span_end(span.id, &span.name, ns);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn noop_is_disabled_and_silent() {
        let obs = Obs::noop();
        assert!(!obs.enabled());
        obs.counter("a.b", 1);
        obs.gauge("a.g", 1.0);
        obs.gauge_max("a.hw", 2.0);
        obs.value("a.v", 3);
        obs.event("a.e", "x");
        obs.counter_fmt(format_args!("a.{}", 3), 1);
        assert_eq!(obs.current_span(), SpanId::ROOT);
        drop(obs.span("a.s"));
    }

    #[test]
    fn counters_sum_and_gauges_overwrite() {
        let rec = InMemoryRecorder::new();
        let obs = Obs::new(&rec);
        obs.counter("assoc.apriori.pass1.candidates", 10);
        obs.counter("assoc.apriori.pass1.candidates", 5);
        obs.gauge("cluster.kmeans.iter.inertia", 10.0);
        obs.gauge("cluster.kmeans.iter.inertia", 3.5);
        let snap = rec.snapshot();
        assert_eq!(snap.counter("assoc.apriori.pass1.candidates"), Some(15));
        assert_eq!(snap.gauge("cluster.kmeans.iter.inertia"), Some(3.5));
        assert_eq!(snap.counter("missing"), None);
    }

    #[test]
    fn gauge_max_keeps_high_water() {
        let rec = InMemoryRecorder::new();
        let obs = Obs::new(&rec);
        obs.gauge_max("assoc.mem.ck_bytes", 100.0);
        obs.gauge_max("assoc.mem.ck_bytes", 400.0);
        obs.gauge_max("assoc.mem.ck_bytes", 250.0);
        assert_eq!(rec.snapshot().gauge("assoc.mem.ck_bytes"), Some(400.0));
    }

    #[test]
    fn span_durations_share_the_value_histogram() {
        let rec = InMemoryRecorder::new();
        let obs = Obs::new(&rec);
        obs.value("knn.predict.batch", 100);
        obs.value("knn.predict.batch", 50);
        {
            let _s = obs.span("knn.predict.batch");
        }
        let snap = rec.snapshot();
        let hist = snap.histogram("knn.predict.batch").unwrap();
        assert_eq!(hist.count, 3);
        assert!(hist.sum >= 150);
        assert_eq!(snap.tree.len(), 1, "only the live span makes a node");
    }

    #[test]
    fn span_tree_nests_lexically() {
        let rec = InMemoryRecorder::new();
        let obs = Obs::new(&rec);
        {
            let outer = obs.span("experiment.e1");
            assert_eq!(obs.current_span(), outer.id());
            {
                let _pass = obs.span("assoc.apriori.pass1");
                let _inner = obs.span("assoc.apriori.pass1.count");
            }
            let _pass2 = obs.span("assoc.apriori.pass2");
        }
        let snap = rec.snapshot();
        assert_eq!(snap.tree.len(), 4);
        let by_name = |n: &str| snap.tree.iter().find(|s| s.name == n).unwrap();
        let outer = by_name("experiment.e1");
        assert_eq!(outer.parent, 0);
        assert_eq!(by_name("assoc.apriori.pass1").parent, outer.id);
        assert_eq!(by_name("assoc.apriori.pass2").parent, outer.id);
        assert_eq!(
            by_name("assoc.apriori.pass1.count").parent,
            by_name("assoc.apriori.pass1").id
        );
        assert!(snap.tree.iter().all(|s| s.dur_ns.is_some()));
        // The stack fully unwinds.
        assert_eq!(obs.current_span(), SpanId::ROOT);
    }

    #[test]
    fn span_child_parents_across_threads() {
        let rec = Arc::new(InMemoryRecorder::new());
        let obs = Obs::new(rec.as_ref());
        {
            let _pass = obs.span("assoc.apriori.pass2");
            let parent = obs.current_span();
            std::thread::scope(|s| {
                for w in 0..2 {
                    let rec = Arc::clone(&rec);
                    s.spawn(move || {
                        let obs = Obs::new(rec.as_ref());
                        let _shard = obs.span_child_fmt(format_args!("par.shard{w}"), parent);
                    });
                }
            });
        }
        let snap = rec.snapshot();
        let pass = snap
            .tree
            .iter()
            .find(|s| s.name == "assoc.apriori.pass2")
            .unwrap();
        let shards: Vec<_> = snap
            .tree
            .iter()
            .filter(|s| s.name.starts_with("par.shard"))
            .collect();
        assert_eq!(shards.len(), 2);
        for s in shards {
            assert_eq!(s.parent, pass.id, "shard span parents under the pass");
            assert_ne!(s.tid, pass.tid, "shard ran on a worker thread");
        }
    }

    #[test]
    fn events_keep_order() {
        let rec = InMemoryRecorder::new();
        let obs = Obs::new(&rec);
        obs.event("guard.trip", "work-unit budget exhausted");
        obs.event("guard.trip", "cancelled");
        let snap = rec.snapshot();
        assert_eq!(snap.events.len(), 2);
        assert_eq!(snap.events[0].seq, 0);
        assert_eq!(snap.events[0].detail, "work-unit budget exhausted");
        assert_eq!(snap.events[1].seq, 1);
    }

    #[test]
    fn concurrent_event_appends_keep_dense_unique_seqs() {
        let rec = Arc::new(InMemoryRecorder::new());
        std::thread::scope(|s| {
            for t in 0..4 {
                let rec = Arc::clone(&rec);
                s.spawn(move || {
                    let obs = Obs::new(rec.as_ref());
                    for i in 0..250 {
                        obs.event("e", &format!("{t}:{i}"));
                    }
                });
            }
        });
        let snap = rec.snapshot();
        assert_eq!(snap.events.len(), 1000);
        for (i, e) in snap.events.iter().enumerate() {
            assert_eq!(e.seq, i as u64, "seqs are dense and unique");
        }
    }

    #[test]
    fn gauge_seq_orders_writes_even_when_values_repeat() {
        let rec = InMemoryRecorder::new();
        let obs = Obs::new(&rec);
        obs.gauge("stream.kmeans.inertia", 5.0);
        obs.gauge("serve.queue.depth", 2.0);
        let first = rec.snapshot();
        // Rewriting the same value still advances the write ordinal.
        obs.gauge("stream.kmeans.inertia", 5.0);
        let second = rec.snapshot();
        assert_eq!(first.gauge("stream.kmeans.inertia"), Some(5.0));
        assert_eq!(second.gauge("stream.kmeans.inertia"), Some(5.0));
        let s1 = first.gauge_seq["stream.kmeans.inertia"];
        let s2 = second.gauge_seq["stream.kmeans.inertia"];
        assert!(s2 > s1, "rewrite must advance the ordinal ({s1} -> {s2})");
        // gauge_max writes advance it too.
        obs.gauge_max("serve.queue.depth", 1.0); // below the high water
        let third = rec.snapshot();
        assert_eq!(third.gauge("serve.queue.depth"), Some(2.0));
        assert!(third.gauge_seq["serve.queue.depth"] > second.gauge_seq["serve.queue.depth"]);
    }

    #[test]
    fn snapshot_json_round_trips() {
        let rec = InMemoryRecorder::new();
        let obs = Obs::new(&rec);
        obs.counter("assoc.apriori.passes", 3);
        obs.gauge("stream.kmeans.inertia", 41.5);
        obs.gauge("cluster.kmeans.sse", f64::NAN); // serializes as null
        obs.value("serve.latency.predict_ns", 1_234);
        obs.value("serve.latency.predict_ns", 0);
        obs.event("guard.trip", "deadline");
        {
            let _outer = obs.span("experiment.e1");
            let _inner = obs.span("assoc.apriori.pass");
        }
        let snap = rec.snapshot();
        let parsed = Snapshot::from_json(&snap.to_json()).unwrap();
        // NaN breaks PartialEq on the whole snapshot; compare around it.
        assert!(parsed.gauge("cluster.kmeans.sse").unwrap().is_nan());
        let mut snap = snap;
        let mut parsed = parsed;
        snap.gauges.remove("cluster.kmeans.sse");
        parsed.gauges.remove("cluster.kmeans.sse");
        assert_eq!(snap, parsed);
    }

    #[test]
    fn snapshot_from_json_rejects_other_schemas_and_garbage() {
        let err = Snapshot::from_json("{\"schema\": 99}").unwrap_err();
        assert!(err.contains("unsupported schema 99"), "{err}");
        assert!(Snapshot::from_json("{}").is_err());
        assert!(Snapshot::from_json("nonsense").is_err());
        // A schema-2 document is no longer read.
        let err = Snapshot::from_json(
            "{\"schema\": 2, \"counters\": {\"assoc.rules.emitted\": 4}, \"gauges\": {}}",
        )
        .unwrap_err();
        assert!(err.contains("unsupported schema 2"), "{err}");
    }

    #[test]
    fn write_json_tags_truncated_runs_only() {
        let rec = InMemoryRecorder::new();
        let obs = Obs::new(&rec);
        obs.counter("a.b.c", 1);
        let snap = rec.snapshot();
        let tagged = |reason| {
            let mut w = json::Writer::new();
            snap.write_json(&mut w, reason);
            w.finish()
        };
        assert_eq!(tagged(None), snap.to_json());
        let doc = tagged(Some("wall-clock deadline exceeded"));
        let parsed = json::parse(&doc).expect("tagged snapshot is valid JSON");
        assert_eq!(
            parsed.get("truncated").and_then(json::Json::as_str),
            Some("wall-clock deadline exceeded")
        );
        assert!(doc.starts_with("{\n  \"schema\": 5,\n  \"truncated\": "));
        assert_eq!(
            parsed
                .get("counters")
                .and_then(|c| c.get("a.b.c"))
                .and_then(json::Json::as_u64),
            Some(1)
        );
    }

    #[test]
    fn prefix_query_returns_sorted_matches() {
        let rec = InMemoryRecorder::new();
        let obs = Obs::new(&rec);
        obs.counter("assoc.apriori.pass2.candidates", 6);
        obs.counter("assoc.apriori.pass1.candidates", 5);
        obs.counter("assoc.ais.pass1.candidates", 5);
        let snap = rec.snapshot();
        let got = snap.counters_with_prefix("assoc.apriori.");
        assert_eq!(
            got,
            vec![
                ("assoc.apriori.pass1.candidates", 5),
                ("assoc.apriori.pass2.candidates", 6)
            ]
        );
    }

    #[test]
    fn json_snapshot_is_stable_and_escaped() {
        let rec = InMemoryRecorder::new();
        let obs = Obs::new(&rec);
        obs.counter("b", 2);
        obs.counter("a", 1);
        obs.gauge("g.nan", f64::NAN);
        obs.gauge("g.v", 1.5);
        obs.value("s", 42);
        obs.event("e", "line1\n\"quoted\"");
        let json = rec.snapshot().to_json();
        // Keys sorted: "a" before "b".
        assert!(json.find("\"a\": 1").unwrap() < json.find("\"b\": 2").unwrap());
        assert!(json.contains("\"g.nan\": null"));
        assert!(json.contains("\"g.v\": 1.5"));
        assert!(json.contains("\"s\": {\"count\": 1, \"sum\": 42, \"buckets\": [[6, 1]]}"));
        assert!(json.contains("\\n\\\"quoted\\\""));
        // Same content -> same serialization.
        assert_eq!(json, rec.snapshot().to_json());
    }

    #[test]
    fn empty_snapshot_serializes_cleanly() {
        let snap = InMemoryRecorder::new().snapshot();
        let json = snap.to_json();
        assert!(json.contains("\"schema\": 5"));
        assert!(!json.contains("\"spans\""));
        assert!(json.contains("\"counters\": {}"));
        assert!(json.contains("\"events\": []"));
        assert!(json.contains("\"histograms\": {}"));
        assert!(json.contains("\"tree\": []"));
        assert!(json.contains("\"gauge_seq\": {}"));
        assert!(json.contains("\"exemplars\": {}"));
    }

    #[test]
    fn value_traced_keeps_last_exemplar_per_bucket() {
        let rec = InMemoryRecorder::new();
        let obs = Obs::new(&rec);
        // Two values in the same bucket (le 1023): last trace wins.
        obs.value_traced("serve.latency.predict_ns", 600, TraceId(0xA));
        obs.value_traced("serve.latency.predict_ns", 900, TraceId(0xB));
        // A different bucket keeps its own exemplar.
        obs.value_traced("serve.latency.predict_ns", 3, TraceId(0xC));
        // Untraced samples never touch exemplars.
        obs.value("serve.latency.predict_ns", 700);
        let snap = rec.snapshot();
        let h = snap.histogram("serve.latency.predict_ns").unwrap();
        assert_eq!(h.count, 4);
        assert_eq!(
            snap.exemplar("serve.latency.predict_ns", hist::bucket_index(900)),
            Some(Exemplar {
                trace_id: 0xB,
                value: 900
            })
        );
        assert_eq!(
            snap.exemplar("serve.latency.predict_ns", hist::bucket_index(3)),
            Some(Exemplar {
                trace_id: 0xC,
                value: 3
            })
        );
        assert_eq!(snap.exemplar("serve.latency.predict_ns", 0), None);
        // Exemplars round-trip through the snapshot document.
        let parsed = Snapshot::from_json(&snap.to_json()).unwrap();
        assert_eq!(parsed, snap);
    }

    #[test]
    fn shared_across_threads() {
        let rec = Arc::new(InMemoryRecorder::new());
        std::thread::scope(|s| {
            for _ in 0..4 {
                let rec = Arc::clone(&rec);
                s.spawn(move || {
                    let obs = Obs::new(rec.as_ref());
                    for _ in 0..1000 {
                        obs.counter("par.shard0.items", 1);
                    }
                });
            }
        });
        assert_eq!(rec.snapshot().counter("par.shard0.items"), Some(4000));
    }
}
