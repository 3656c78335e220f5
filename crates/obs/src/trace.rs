//! Request-scoped tracing with tail-based sampling.
//!
//! The rest of this crate is *aggregate*: counters, histograms, span
//! rollups. They can say "p99 regressed" but not *which request* did it
//! or where its time went. This module is the per-request half: a
//! server mints a deterministic [`TraceId`] per submission
//! ([`TraceId::mint`] from a configured seed and the request sequence
//! number, so a replayed seeded run reproduces the exact same ids), the
//! request accumulates typed [`TraceEvent`]s across its lifecycle
//! (admission/shed, queue wait, worker pickup, guard trips,
//! degradation-tier selection, panic recovery, artifact refresh races),
//! and on completion the assembled [`RequestTrace`] is offered to a
//! [`TraceStore`].
//!
//! ## Tail-based sampling
//!
//! The store decides retention *after* the request finishes, when the
//! interesting-or-boring verdict is known:
//!
//! * **always retain** anomalous traces — any shed, guard trip
//!   (deadline/work-budget/cancel), degraded tier, or recovered panic;
//! * **slowest-k** — up to `slowest_k` of the slowest boring traces per
//!   shard are kept (a later, slower one demotes the fastest of them);
//! * **probabilistic** — 1-in-`sample_every` boring traces are kept by
//!   id hash (deterministic, since ids are seeded);
//! * everything else is dropped.
//!
//! Retained traces live in bounded per-worker ring buffers under a
//! store-wide byte budget, accounted with [`HeapSize`]. Under pressure
//! the *lowest class, oldest* trace is evicted first (sampled → slow →
//! anomalous → pinned), so boring traces never push out evidence.
//! [`TraceStore::pin_recent`] upgrades everything currently retained to
//! the pinned class — the `watch` integration calls it on a rule's
//! Ok→Firing edge so every fired alert ships with the traces that
//! overlapped it.
//!
//! Store decisions emit `trace.retained` / `trace.dropped` /
//! `trace.evicted` / `trace.pinned` counters and the `trace.bytes`
//! gauge through the [`Obs`] passed to each call.
//!
//! ## Files and rendering
//!
//! [`TraceStore::to_json`] dumps the retained set as a stable,
//! schema-versioned document ([`TRACE_SCHEMA`]); [`traces_from_json`]
//! reads it back. [`render_list`] / [`render_show`] /
//! [`chrome_trace_request`] are the presentation layer behind the
//! `dm trace` CLI: a filterable table, a single request's lifecycle,
//! and a chrome://tracing export whose slices carry the `trace_id` as
//! args (the "linked slice" form Perfetto surfaces next to exemplars).

use crate::heap::HeapSize;
use crate::json::{
    self, Json,
    Layout::{Block, Inline},
    ToJson, Writer,
};
use crate::Obs;
use std::borrow::Cow;
use std::collections::VecDeque;
use std::fmt;
use std::fmt::Write as _;
use std::sync::Mutex;

/// Version of the trace-file schema (the `"schema"` key written by
/// [`TraceStore::to_json`]). Same bump rule as the snapshot schema:
/// append-only keys, record changes in `DESIGN.md`.
pub const TRACE_SCHEMA: u32 = 1;

/// The default store-wide byte budget (1 MiB).
pub const DEFAULT_BYTE_BUDGET: usize = 1 << 20;

/// SplitMix64 — the id-mixing permutation. A bijection on `u64`, so
/// distinct (seed, seq) pairs mint distinct ids for a fixed seed.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Identifier of one traced request. Deterministic: minted from the
/// store's seed and the server's per-request sequence number, so a
/// seeded replay reproduces the same ids and every exemplar in a gated
/// experiment resolves. Displays as 16 lowercase hex digits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TraceId(pub u64);

impl TraceId {
    /// Mints the id of request `seq` under `seed`. Injective in `seq`
    /// for a fixed seed (SplitMix64 is a bijection).
    pub fn mint(seed: u64, seq: u64) -> TraceId {
        TraceId(splitmix64(seed ^ seq.wrapping_mul(0x9E37_79B9_7F4A_7C15)))
    }

    /// Parses the 16-hex-digit form produced by `Display`.
    pub fn from_hex(s: &str) -> Option<TraceId> {
        if s.len() != 16 {
            return None;
        }
        u64::from_str_radix(s, 16).ok().map(TraceId)
    }
}

impl fmt::Display for TraceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

/// One lifecycle event, stamped with nanoseconds since submission.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// Nanoseconds since the request was submitted.
    pub at_ns: u64,
    /// What happened.
    pub kind: TraceEventKind,
}

/// The typed lifecycle events a request can accumulate. Labels are
/// `Cow`s: a server passes its `&'static str` labels without allocating,
/// and [`traces_from_json`] reads them back as owned strings.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceEventKind {
    /// The request entered `Server::submit`.
    Submitted,
    /// Admitted to the queue at this depth.
    Admitted {
        /// Queue depth right after the push.
        depth: u64,
    },
    /// Rejected at admission (`queue_full`) or answered during
    /// shutdown (`shutdown`).
    Shed {
        /// Why the request was shed.
        reason: Cow<'static, str>,
    },
    /// A worker popped the job.
    Dequeued {
        /// 0-based worker index.
        worker: u32,
        /// Time spent queued (also charged against the deadline).
        wait_ns: u64,
    },
    /// The per-request guard truncated the run.
    GuardTrip {
        /// The guard's truncation reason (deadline, work budget, …).
        reason: Cow<'static, str>,
    },
    /// The response was served from a degradation tier.
    Degraded {
        /// Tier label (`centroid`, `majority`, `top_support`).
        tier: Cow<'static, str>,
    },
    /// The handler panicked; the worker boundary caught it.
    PanicRecovered,
    /// The served bundle was refreshed between submit and pickup — the
    /// request ran on a different artifact generation than it saw at
    /// admission.
    RefreshRace {
        /// Generation at submit.
        submitted_gen: u64,
        /// Generation actually served.
        served_gen: u64,
    },
    /// Terminal event: the response (or error) was delivered.
    Finished {
        /// Outcome label (`complete`, `truncated`, `panicked`, …).
        outcome: Cow<'static, str>,
    },
}

impl TraceEventKind {
    /// Stable lowercase tag (the `"kind"` field in the trace file).
    pub fn label(&self) -> &'static str {
        match self {
            TraceEventKind::Submitted => "submitted",
            TraceEventKind::Admitted { .. } => "admitted",
            TraceEventKind::Shed { .. } => "shed",
            TraceEventKind::Dequeued { .. } => "dequeued",
            TraceEventKind::GuardTrip { .. } => "guard_trip",
            TraceEventKind::Degraded { .. } => "degraded",
            TraceEventKind::PanicRecovered => "panic_recovered",
            TraceEventKind::RefreshRace { .. } => "refresh_race",
            TraceEventKind::Finished { .. } => "finished",
        }
    }
}

impl HeapSize for TraceEventKind {
    fn heap_bytes(&self) -> usize {
        match self {
            TraceEventKind::Shed { reason } | TraceEventKind::GuardTrip { reason } => {
                reason.heap_bytes()
            }
            TraceEventKind::Degraded { tier } => tier.heap_bytes(),
            TraceEventKind::Finished { outcome } => outcome.heap_bytes(),
            _ => 0,
        }
    }
}

impl HeapSize for TraceEvent {
    fn heap_bytes(&self) -> usize {
        self.kind.heap_bytes()
    }
}

/// One request's assembled trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RequestTrace {
    /// The minted id.
    pub id: TraceId,
    /// Server-side submission sequence number (1-based).
    pub seq: u64,
    /// Endpoint label (`predict`, `score`, `recommend`).
    pub endpoint: Cow<'static, str>,
    /// Lifecycle events in emission order.
    pub events: Vec<TraceEvent>,
    /// Time spent queued.
    pub queue_ns: u64,
    /// Time spent executing the handler.
    pub exec_ns: u64,
    /// Submit-to-delivery wall time.
    pub total_ns: u64,
    /// Watch rules whose Ok→Firing edge pinned this trace.
    pub pinned: Vec<String>,
}

impl RequestTrace {
    /// The terminal outcome label (`unknown` if no terminal event was
    /// recorded — a trace assembled from a malformed file).
    pub fn outcome(&self) -> &str {
        for ev in self.events.iter().rev() {
            match &ev.kind {
                TraceEventKind::Finished { outcome } => return outcome,
                TraceEventKind::Shed { reason } => return reason,
                _ => {}
            }
        }
        "unknown"
    }

    /// Whether the tail sampler must always retain this trace: any
    /// shed, guard trip (deadline exceeded, work budget, cancel),
    /// degraded tier, or recovered panic.
    pub fn is_anomalous(&self) -> bool {
        self.events.iter().any(|e| {
            matches!(
                e.kind,
                TraceEventKind::Shed { .. }
                    | TraceEventKind::GuardTrip { .. }
                    | TraceEventKind::Degraded { .. }
                    | TraceEventKind::PanicRecovered
            )
        })
    }

    /// Retained-size estimate: inline struct plus heap payload.
    pub fn approx_bytes(&self) -> usize {
        std::mem::size_of::<RequestTrace>() + self.heap_bytes()
    }
}

impl HeapSize for RequestTrace {
    fn heap_bytes(&self) -> usize {
        self.endpoint.heap_bytes()
            + self.events.heap_bytes()
            + self.pinned.capacity() * std::mem::size_of::<String>()
            + self.pinned.iter().map(HeapSize::heap_bytes).sum::<usize>()
    }
}

/// Tail-sampler tuning. All decisions are deterministic functions of
/// the (seeded) trace ids and the synthetic/measured durations, so a
/// seeded replay retains the identical set.
#[derive(Debug, Clone)]
pub struct TraceConfig {
    /// Seed folded into every minted [`TraceId`].
    pub seed: u64,
    /// Store-wide cap on retained bytes ([`HeapSize`]-accounted).
    pub byte_budget: usize,
    /// Max retained traces per shard (per-worker ring bound).
    pub ring_capacity: usize,
    /// Keep 1-in-N boring traces by id hash; `0` disables probabilistic
    /// retention entirely.
    pub sample_every: u64,
    /// Keep up to this many of the slowest boring traces per shard;
    /// `0` disables slowest-k retention (gated experiments use that —
    /// wall-clock must not influence the retained *set*).
    pub slowest_k: usize,
}

impl Default for TraceConfig {
    fn default() -> Self {
        Self {
            seed: 0,
            byte_budget: DEFAULT_BYTE_BUDGET,
            ring_capacity: 256,
            sample_every: 16,
            slowest_k: 4,
        }
    }
}

/// Retention class, in eviction order: lowest class evicts first, and
/// within a class the oldest admission goes first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum RetainClass {
    Sampled,
    Slow,
    Anomalous,
    Pinned,
}

#[derive(Debug)]
struct Retained {
    trace: RequestTrace,
    bytes: usize,
    class: RetainClass,
    admit: u64,
}

#[derive(Debug, Default)]
struct Inner {
    shards: Vec<VecDeque<Retained>>,
    bytes: usize,
    admit_seq: u64,
    retained: u64,
    dropped: u64,
    evicted: u64,
    pinned: u64,
}

/// Point-in-time store statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TraceStats {
    /// Offers accepted (cumulative; includes later-evicted traces).
    pub retained: u64,
    /// Offers rejected by the sampler (cumulative).
    pub dropped: u64,
    /// Retained traces later evicted by capacity/budget pressure.
    pub evicted: u64,
    /// Pin markings applied by [`TraceStore::pin_recent`] (cumulative).
    pub pinned: u64,
    /// Bytes currently held.
    pub bytes: usize,
    /// Traces currently held.
    pub live: usize,
}

/// The retention store: per-worker rings, one byte budget, tail-based
/// admission. One instance per server; workers offer completed traces
/// to their own shard (shard 0 is the submit path, for sheds).
#[derive(Debug)]
pub struct TraceStore {
    cfg: TraceConfig,
    inner: Mutex<Inner>,
}

impl TraceStore {
    /// A store with `shards` rings (workers + 1; shard 0 is the submit
    /// path). At least one shard is always allocated.
    pub fn new(cfg: TraceConfig, shards: usize) -> Self {
        let inner = Inner {
            shards: (0..shards.max(1)).map(|_| VecDeque::new()).collect(),
            ..Inner::default()
        };
        Self {
            cfg,
            inner: Mutex::new(inner),
        }
    }

    /// The id-minting seed (servers fold it into [`TraceId::mint`]).
    pub fn seed(&self) -> u64 {
        self.cfg.seed
    }

    /// The configured byte budget.
    pub fn byte_budget(&self) -> usize {
        self.cfg.byte_budget
    }

    fn with_inner<T>(&self, f: impl FnOnce(&mut Inner) -> T) -> T {
        let mut inner = match self.inner.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        };
        f(&mut inner)
    }

    /// Offers a completed trace to shard `shard` (clamped into range).
    /// Returns `true` when the tail sampler retained it. Emits
    /// `trace.retained` / `trace.dropped` / `trace.evicted` counters
    /// and the `trace.bytes` gauge through `obs`.
    pub fn offer(&self, shard: usize, trace: RequestTrace, obs: &Obs<'_>) -> bool {
        let kept = self.with_inner(|inner| {
            let shard = shard.min(inner.shards.len() - 1);
            let class = classify(&self.cfg, &inner.shards[shard], &trace);
            let Some(class) = class else {
                inner.dropped += 1;
                return (false, 0, inner.bytes);
            };
            if class == RetainClass::Slow {
                // A full slow set admits this slower trace by demoting
                // its fastest member to the evictable Sampled class.
                demote_fastest_slow(&mut inner.shards[shard], self.cfg.slowest_k);
            }
            let bytes = trace.approx_bytes();
            inner.admit_seq += 1;
            let admit = inner.admit_seq;
            inner.bytes += bytes;
            inner.retained += 1;
            inner.shards[shard].push_back(Retained {
                trace,
                bytes,
                class,
                admit,
            });
            let evicted = evict_to_limits(inner, &self.cfg);
            (true, evicted, inner.bytes)
        });
        let (kept, evicted, bytes) = kept;
        if kept {
            obs.counter("trace.retained", 1);
        } else {
            obs.counter("trace.dropped", 1);
        }
        if evicted > 0 {
            obs.counter("trace.evicted", evicted);
        }
        obs.gauge("trace.bytes", bytes as f64);
        kept
    }

    /// Marks every currently retained trace as pinned by `rule`
    /// (idempotent per rule) and upgrades it to the pinned class, so
    /// alert evidence outlives ordinary eviction pressure. Returns how
    /// many traces were newly pinned; emits `trace.pinned`.
    pub fn pin_recent(&self, rule: &str, obs: &Obs<'_>) -> usize {
        let (n, evicted, bytes) = self.with_inner(|inner| {
            let mut n = 0usize;
            let mut delta = 0isize;
            for ring in &mut inner.shards {
                for r in ring.iter_mut() {
                    if r.trace.pinned.iter().any(|p| p == rule) {
                        continue;
                    }
                    r.trace.pinned.push(rule.to_owned());
                    let new_bytes = r.trace.approx_bytes();
                    delta += new_bytes as isize - r.bytes as isize;
                    r.bytes = new_bytes;
                    r.class = RetainClass::Pinned;
                    n += 1;
                }
            }
            inner.bytes = inner.bytes.saturating_add_signed(delta);
            inner.pinned += n as u64;
            let evicted = evict_to_limits(inner, &self.cfg);
            (n, evicted, inner.bytes)
        });
        if n > 0 {
            obs.counter("trace.pinned", n as u64);
            obs.gauge("trace.bytes", bytes as f64);
        }
        if evicted > 0 {
            obs.counter("trace.evicted", evicted);
        }
        n
    }

    /// All retained traces, sorted by submission sequence.
    pub fn retained(&self) -> Vec<RequestTrace> {
        self.with_inner(|inner| {
            let mut out: Vec<RequestTrace> = inner
                .shards
                .iter()
                .flat_map(|ring| ring.iter().map(|r| r.trace.clone()))
                .collect();
            out.sort_by_key(|t| t.seq);
            out
        })
    }

    /// Looks up one retained trace by id.
    pub fn find(&self, id: TraceId) -> Option<RequestTrace> {
        self.with_inner(|inner| {
            inner
                .shards
                .iter()
                .flat_map(VecDeque::iter)
                .find(|r| r.trace.id == id)
                .map(|r| r.trace.clone())
        })
    }

    /// Current statistics.
    pub fn stats(&self) -> TraceStats {
        self.with_inner(|inner| TraceStats {
            retained: inner.retained,
            dropped: inner.dropped,
            evicted: inner.evicted,
            pinned: inner.pinned,
            bytes: inner.bytes,
            live: inner.shards.iter().map(VecDeque::len).sum(),
        })
    }

    /// Serializes the retained set as the versioned trace-file format
    /// ([`TRACE_SCHEMA`]) read by `dm trace` / [`traces_from_json`].
    pub fn to_json(&self) -> String {
        traces_to_json(&self.retained())
    }
}

/// The sampler's admission verdict (`None` = drop).
fn classify(
    cfg: &TraceConfig,
    ring: &VecDeque<Retained>,
    trace: &RequestTrace,
) -> Option<RetainClass> {
    if trace.is_anomalous() {
        return Some(RetainClass::Anomalous);
    }
    if cfg.sample_every > 0 && trace.id.0.is_multiple_of(cfg.sample_every) {
        return Some(RetainClass::Sampled);
    }
    if cfg.slowest_k > 0 {
        let slow: Vec<u64> = ring
            .iter()
            .filter(|r| r.class == RetainClass::Slow)
            .map(|r| r.trace.total_ns)
            .collect();
        if slow.len() < cfg.slowest_k {
            return Some(RetainClass::Slow);
        }
        let floor = slow.iter().copied().min().unwrap_or(0);
        if trace.total_ns > floor {
            return Some(RetainClass::Slow);
        }
    }
    None
}

/// Demotes the fastest Slow-class member to Sampled when the slow set
/// is already at `k` — the incoming slower trace takes its slot.
fn demote_fastest_slow(ring: &mut VecDeque<Retained>, k: usize) {
    let slow: Vec<usize> = ring
        .iter()
        .enumerate()
        .filter(|(_, r)| r.class == RetainClass::Slow)
        .map(|(i, _)| i)
        .collect();
    if slow.len() < k {
        return;
    }
    if let Some(&fastest) = slow
        .iter()
        .min_by_key(|&&i| (ring[i].trace.total_ns, ring[i].admit))
    {
        ring[fastest].class = RetainClass::Sampled;
    }
}

/// Evicts lowest-(class, admit-order) traces until every shard is
/// within `ring_capacity` and the store is within `byte_budget`.
/// Returns how many were evicted.
fn evict_to_limits(inner: &mut Inner, cfg: &TraceConfig) -> u64 {
    let mut evicted = 0u64;
    // Per-shard ring bound first.
    for s in 0..inner.shards.len() {
        while inner.shards[s].len() > cfg.ring_capacity.max(1) {
            if let Some(pos) = victim_in_shard(&inner.shards[s]) {
                let r = remove_at(&mut inner.shards[s], pos);
                inner.bytes = inner.bytes.saturating_sub(r.bytes);
                inner.evicted += 1;
                evicted += 1;
            } else {
                break;
            }
        }
    }
    // Store-wide byte budget.
    while inner.bytes > cfg.byte_budget {
        let victim = inner
            .shards
            .iter()
            .enumerate()
            .filter_map(|(s, ring)| {
                victim_in_shard(ring).map(|pos| {
                    let r = &ring[pos];
                    ((r.class, r.admit), s, pos)
                })
            })
            .min_by_key(|&(key, _, _)| key);
        let Some((_, s, pos)) = victim else { break };
        let r = remove_at(&mut inner.shards[s], pos);
        inner.bytes = inner.bytes.saturating_sub(r.bytes);
        inner.evicted += 1;
        evicted += 1;
    }
    evicted
}

fn victim_in_shard(ring: &VecDeque<Retained>) -> Option<usize> {
    ring.iter()
        .enumerate()
        .min_by_key(|(_, r)| (r.class, r.admit))
        .map(|(i, _)| i)
}

fn remove_at(ring: &mut VecDeque<Retained>, pos: usize) -> Retained {
    // `pos` comes from an enumerate over the same ring, so it is in
    // bounds; the fallback keeps the accounting sane regardless.
    match ring.remove(pos) {
        Some(r) => r,
        None => Retained {
            trace: RequestTrace {
                id: TraceId(0),
                seq: 0,
                endpoint: Cow::Borrowed(""),
                events: Vec::new(),
                queue_ns: 0,
                exec_ns: 0,
                total_ns: 0,
                pinned: Vec::new(),
            },
            bytes: 0,
            class: RetainClass::Sampled,
            admit: 0,
        },
    }
}

// ---------------------------------------------------------------------------
// Trace-file serialization
// ---------------------------------------------------------------------------

impl ToJson for TraceEvent {
    fn write_json(&self, w: &mut Writer) {
        w.obj(Inline, |w| {
            w.key("at_ns").u64(self.at_ns);
            w.key("kind").str(self.kind.label());
            match &self.kind {
                TraceEventKind::Admitted { depth } => {
                    w.key("depth").u64(*depth);
                }
                TraceEventKind::Shed { reason } | TraceEventKind::GuardTrip { reason } => {
                    w.key("reason").str(reason);
                }
                TraceEventKind::Dequeued { worker, wait_ns } => {
                    w.key("worker").u64((*worker).into());
                    w.key("wait_ns").u64(*wait_ns);
                }
                TraceEventKind::Degraded { tier } => {
                    w.key("tier").str(tier);
                }
                TraceEventKind::RefreshRace {
                    submitted_gen,
                    served_gen,
                } => {
                    w.key("submitted_gen").u64(*submitted_gen);
                    w.key("served_gen").u64(*served_gen);
                }
                TraceEventKind::Finished { outcome } => {
                    w.key("outcome").str(outcome);
                }
                TraceEventKind::Submitted | TraceEventKind::PanicRecovered => {}
            }
        });
    }
}

impl ToJson for RequestTrace {
    fn write_json(&self, w: &mut Writer) {
        w.obj(Inline, |w| {
            w.key("id").str(&self.id.to_string());
            w.key("seq").u64(self.seq);
            w.key("endpoint").str(&self.endpoint);
            w.key("queue_ns").u64(self.queue_ns);
            w.key("exec_ns").u64(self.exec_ns);
            w.key("total_ns").u64(self.total_ns);
            w.key("pinned").list(Inline, &self.pinned);
            w.key("events").list(Inline, &self.events);
        });
    }
}

/// Serializes traces as the versioned trace-file document: stable key
/// order, ids as 16-hex-digit strings, events in emission order.
pub fn traces_to_json(traces: &[RequestTrace]) -> String {
    let mut w = Writer::new();
    w.obj(Block, |w| {
        w.key("schema").u64(TRACE_SCHEMA.into());
        w.key("traces").list(Block, traces);
    });
    w.finish()
}

fn parse_event(v: &Json) -> Result<TraceEvent, String> {
    let kind: &str = v.req("kind")?;
    let text = |key: &str| v.req::<String>(key).map(Cow::Owned);
    let kind = match kind {
        "submitted" => TraceEventKind::Submitted,
        "admitted" => TraceEventKind::Admitted {
            depth: v.req("depth")?,
        },
        "shed" => TraceEventKind::Shed {
            reason: text("reason")?,
        },
        "dequeued" => TraceEventKind::Dequeued {
            worker: v.req("worker")?,
            wait_ns: v.req("wait_ns")?,
        },
        "guard_trip" => TraceEventKind::GuardTrip {
            reason: text("reason")?,
        },
        "degraded" => TraceEventKind::Degraded {
            tier: text("tier")?,
        },
        "panic_recovered" => TraceEventKind::PanicRecovered,
        "refresh_race" => TraceEventKind::RefreshRace {
            submitted_gen: v.req("submitted_gen")?,
            served_gen: v.req("served_gen")?,
        },
        "finished" => TraceEventKind::Finished {
            outcome: text("outcome")?,
        },
        other => return Err(format!("unknown event kind `{other}`")),
    };
    Ok(TraceEvent {
        at_ns: v.req("at_ns")?,
        kind,
    })
}

fn parse_trace(t: &Json) -> Result<RequestTrace, String> {
    let id = TraceId::from_hex(t.req("id")?).ok_or("`id` is not a 16-hex-digit trace id")?;
    Ok(RequestTrace {
        id,
        seq: t.req("seq")?,
        endpoint: Cow::Owned(t.req("endpoint")?),
        events: t
            .req::<&[Json]>("events")?
            .iter()
            .map(parse_event)
            .collect::<Result<_, _>>()?,
        queue_ns: t.req("queue_ns")?,
        exec_ns: t.req("exec_ns")?,
        total_ns: t.req("total_ns")?,
        // Optional: anything but an array reads as no pins.
        pinned: match t.get("pinned") {
            Some(p @ Json::Arr(_)) => p.to("pinned")?,
            _ => Vec::new(),
        },
    })
}

/// Parses a trace-file document produced by [`traces_to_json`]. Any
/// schema up to [`TRACE_SCHEMA`] is accepted.
pub fn traces_from_json(input: &str) -> Result<Vec<RequestTrace>, String> {
    let read = || -> Result<Vec<RequestTrace>, String> {
        let doc = json::parse(input).map_err(|e| e.to_string())?;
        let schema: u64 = doc.req("schema")?;
        if schema == 0 || schema > u64::from(TRACE_SCHEMA) {
            return Err(format!(
                "unsupported schema {schema} (this build reads <= {TRACE_SCHEMA})"
            ));
        }
        doc.req::<&[Json]>("traces")?
            .iter()
            .map(parse_trace)
            .collect()
    };
    read().map_err(|e| format!("trace: {e}"))
}

// ---------------------------------------------------------------------------
// Rendering (the `dm trace` presentation layer)
// ---------------------------------------------------------------------------

fn fmt_ns(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.2}s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.2}ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.1}us", ns as f64 / 1e3)
    } else {
        format!("{ns}ns")
    }
}

fn event_detail(kind: &TraceEventKind) -> String {
    match kind {
        TraceEventKind::Submitted | TraceEventKind::PanicRecovered => String::new(),
        TraceEventKind::Admitted { depth } => format!("depth={depth}"),
        TraceEventKind::Shed { reason } => format!("reason={reason}"),
        TraceEventKind::Dequeued { worker, wait_ns } => {
            format!("worker={worker} wait={}", fmt_ns(*wait_ns))
        }
        TraceEventKind::GuardTrip { reason } => format!("reason={reason}"),
        TraceEventKind::Degraded { tier } => format!("tier={tier}"),
        TraceEventKind::RefreshRace {
            submitted_gen,
            served_gen,
        } => format!("submitted_gen={submitted_gen} served_gen={served_gen}"),
        TraceEventKind::Finished { outcome } => format!("outcome={outcome}"),
    }
}

/// Renders traces as a fixed-width table (the `dm trace list` view),
/// one row per trace in the given order.
pub fn render_list(traces: &[RequestTrace]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<16}  {:>5}  {:<9}  {:<18}  {:>10}  {:>10}  {:>10}  {:>6}  PINNED",
        "TRACE", "SEQ", "ENDPOINT", "OUTCOME", "QUEUE", "EXEC", "TOTAL", "EVENTS"
    );
    for t in traces {
        let pinned = if t.pinned.is_empty() {
            "-".to_owned()
        } else {
            t.pinned.join(",")
        };
        let _ = writeln!(
            out,
            "{:<16}  {:>5}  {:<9}  {:<18}  {:>10}  {:>10}  {:>10}  {:>6}  {}",
            t.id.to_string(),
            t.seq,
            t.endpoint,
            t.outcome(),
            fmt_ns(t.queue_ns),
            fmt_ns(t.exec_ns),
            fmt_ns(t.total_ns),
            t.events.len(),
            pinned
        );
    }
    out
}

/// Renders one request's full lifecycle (the `dm trace show` view).
pub fn render_show(t: &RequestTrace) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "trace {}  seq {}  endpoint {}  outcome {}",
        t.id,
        t.seq,
        t.endpoint,
        t.outcome()
    );
    let _ = writeln!(
        out,
        "  queue {}  exec {}  total {}",
        fmt_ns(t.queue_ns),
        fmt_ns(t.exec_ns),
        fmt_ns(t.total_ns)
    );
    for ev in &t.events {
        let detail = event_detail(&ev.kind);
        if detail.is_empty() {
            let _ = writeln!(out, "  +{:<12} {}", fmt_ns(ev.at_ns), ev.kind.label());
        } else {
            let _ = writeln!(
                out,
                "  +{:<12} {:<15} {}",
                fmt_ns(ev.at_ns),
                ev.kind.label(),
                detail
            );
        }
    }
    if !t.pinned.is_empty() {
        let _ = writeln!(out, "  pinned by: {}", t.pinned.join(", "));
    }
    out
}

/// Exports one request's lifecycle as chrome://tracing trace-event
/// JSON: a `request <endpoint>` slice spanning submit→delivery with
/// nested `queue` and `exec` phase slices, plus an instant event per
/// lifecycle event. Every slice carries the `trace_id` in `args`, which
/// is the "linked slice" form Perfetto can join against histogram
/// exemplars.
pub fn chrome_trace_request(t: &RequestTrace) -> String {
    let id = t.id.to_string();
    let request = format!("request {}", t.endpoint);
    // One trace event; instants (those with a `detail`) are
    // thread-scoped (`"s": "t"`).
    let event = |w: &mut Writer, name: &str, ph: &str, ts_ns: u64, detail: Option<&str>| {
        w.obj(Inline, |w| {
            w.key("name").str(name);
            w.key("cat").str("trace").key("ph").str(ph);
            w.key("ts").f64_fixed(ts_ns as f64 / 1e3, 3);
            w.key("pid").u64(1).key("tid").u64(1);
            if detail.is_some() {
                w.key("s").str("t");
            }
            w.key("args").obj(Inline, |w| {
                w.key("trace_id").str(&id);
                if let Some(detail) = detail {
                    w.key("detail").str(detail);
                }
            });
        });
    };
    let mut w = Writer::new();
    w.obj(Inline, |w| {
        w.key("displayTimeUnit").str("ms");
        w.key("traceEvents").arr(Block, |w| {
            event(w, &request, "B", 0, None);
            if t.queue_ns > 0 || t.exec_ns > 0 {
                event(w, "queue", "B", 0, None);
                event(w, "queue", "E", t.queue_ns, None);
                event(w, "exec", "B", t.queue_ns, None);
                event(w, "exec", "E", t.queue_ns + t.exec_ns, None);
            }
            for ev in &t.events {
                let detail = event_detail(&ev.kind);
                let ts = ev.at_ns.min(t.total_ns);
                event(w, ev.kind.label(), "i", ts, Some(&detail));
            }
            event(w, &request, "E", t.total_ns, None);
        });
    });
    w.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn boring(seed: u64, seq: u64, total_ns: u64) -> RequestTrace {
        RequestTrace {
            id: TraceId::mint(seed, seq),
            seq,
            endpoint: "predict".into(),
            events: vec![
                TraceEvent {
                    at_ns: 0,
                    kind: TraceEventKind::Submitted,
                },
                TraceEvent {
                    at_ns: total_ns,
                    kind: TraceEventKind::Finished {
                        outcome: "complete".into(),
                    },
                },
            ],
            queue_ns: total_ns / 4,
            exec_ns: total_ns - total_ns / 4,
            total_ns,
            pinned: Vec::new(),
        }
    }

    fn anomalous(seed: u64, seq: u64) -> RequestTrace {
        let mut t = boring(seed, seq, 1_000);
        t.events.insert(
            1,
            TraceEvent {
                at_ns: 500,
                kind: TraceEventKind::GuardTrip {
                    reason: "DeadlineExceeded".into(),
                },
            },
        );
        t
    }

    #[test]
    fn trace_ids_are_deterministic_and_distinct() {
        let a = TraceId::mint(7, 1);
        assert_eq!(a, TraceId::mint(7, 1));
        assert_ne!(a, TraceId::mint(7, 2));
        assert_ne!(a, TraceId::mint(8, 1));
        let hex = a.to_string();
        assert_eq!(hex.len(), 16);
        assert_eq!(TraceId::from_hex(&hex), Some(a));
        assert_eq!(TraceId::from_hex("xyz"), None);
        assert_eq!(TraceId::from_hex("00ff"), None, "length must be 16");
    }

    #[test]
    fn anomalous_traces_are_always_retained() {
        let cfg = TraceConfig {
            sample_every: 0,
            slowest_k: 0,
            ..TraceConfig::default()
        };
        let store = TraceStore::new(cfg, 2);
        let obs = Obs::noop();
        for seq in 1..=20 {
            store.offer(1, anomalous(0, seq), &obs);
        }
        assert_eq!(store.retained().len(), 20);
        // A boring trace under the same config is dropped.
        assert!(!store.offer(1, boring(0, 100, 10), &obs));
        let stats = store.stats();
        assert_eq!(stats.retained, 20);
        assert_eq!(stats.dropped, 1);
    }

    #[test]
    fn sampling_is_deterministic_in_the_ids() {
        let cfg = TraceConfig {
            sample_every: 4,
            slowest_k: 0,
            ..TraceConfig::default()
        };
        let run = || {
            let store = TraceStore::new(cfg.clone(), 2);
            let obs = Obs::noop();
            for seq in 1..=64 {
                store.offer(1, boring(42, seq, 100), &obs);
            }
            store.retained().iter().map(|t| t.seq).collect::<Vec<_>>()
        };
        let first = run();
        assert_eq!(first, run(), "same seed, same retained set");
        assert!(!first.is_empty() && first.len() < 64, "a strict subset");
    }

    #[test]
    fn slowest_k_keeps_the_slow_tail() {
        let cfg = TraceConfig {
            sample_every: 0,
            slowest_k: 2,
            ..TraceConfig::default()
        };
        let store = TraceStore::new(cfg, 1);
        let obs = Obs::noop();
        // Increasing totals: each new trace displaces the fastest.
        for (seq, total) in [(1u64, 100u64), (2, 200), (3, 300), (4, 50), (5, 400)] {
            store.offer(0, boring(0, seq, total), &obs);
        }
        let retained = store.retained();
        let totals: Vec<u64> = retained.iter().map(|t| t.total_ns).collect();
        // Slow class holds {300, 400}; earlier displacements were
        // demoted to Sampled but nothing forced their eviction.
        assert!(totals.contains(&300) && totals.contains(&400), "{totals:?}");
        // seq 4 (50ns, slower floor already 200) was dropped outright.
        assert!(!retained.iter().any(|t| t.seq == 4), "{totals:?}");
    }

    #[test]
    fn byte_budget_evicts_boring_before_anomalous() {
        let one = anomalous(0, 1).approx_bytes();
        let cfg = TraceConfig {
            sample_every: 1, // retain every boring trace (class Sampled)
            slowest_k: 0,
            byte_budget: one * 4,
            ring_capacity: 1024,
            ..TraceConfig::default()
        };
        let store = TraceStore::new(cfg.clone(), 1);
        let obs = Obs::noop();
        for seq in 1..=3 {
            store.offer(0, boring(0, seq, 100), &obs);
        }
        for seq in 4..=7 {
            store.offer(0, anomalous(0, seq), &obs);
        }
        let stats = store.stats();
        assert!(stats.bytes <= cfg.byte_budget, "budget respected");
        let retained = store.retained();
        // All four anomalous traces survived; boring ones were evicted.
        for seq in 4..=7 {
            assert!(retained.iter().any(|t| t.seq == seq), "anomalous {seq}");
        }
        assert!(stats.evicted >= 2, "boring traces made way: {stats:?}");
    }

    #[test]
    fn ring_capacity_bounds_each_shard() {
        let cfg = TraceConfig {
            sample_every: 1,
            slowest_k: 0,
            ring_capacity: 8,
            ..TraceConfig::default()
        };
        let store = TraceStore::new(cfg, 2);
        let obs = Obs::noop();
        for seq in 1..=40 {
            store.offer((seq % 2) as usize, boring(0, seq, 10), &obs);
        }
        assert!(store.stats().live <= 16, "{:?}", store.stats());
    }

    #[test]
    fn pin_recent_upgrades_and_is_idempotent() {
        let store = TraceStore::new(
            TraceConfig {
                sample_every: 1,
                slowest_k: 0,
                ..TraceConfig::default()
            },
            1,
        );
        let obs = Obs::noop();
        store.offer(0, boring(0, 1, 10), &obs);
        assert_eq!(store.pin_recent("latency-slo", &obs), 1);
        assert_eq!(store.pin_recent("latency-slo", &obs), 0, "idempotent");
        assert_eq!(store.pin_recent("drift", &obs), 1, "second rule re-pins");
        let t = &store.retained()[0];
        assert_eq!(t.pinned, vec!["latency-slo".to_owned(), "drift".to_owned()]);
    }

    #[test]
    fn store_emits_trace_metrics() {
        use crate::InMemoryRecorder;
        let rec = InMemoryRecorder::new();
        let obs = Obs::new(&rec);
        let store = TraceStore::new(
            TraceConfig {
                sample_every: 0,
                slowest_k: 0,
                ..TraceConfig::default()
            },
            1,
        );
        store.offer(0, anomalous(0, 1), &obs);
        store.offer(0, boring(0, 2, 10), &obs);
        store.pin_recent("rule", &obs);
        let snap = rec.snapshot();
        assert_eq!(snap.counter("trace.retained"), Some(1));
        assert_eq!(snap.counter("trace.dropped"), Some(1));
        assert_eq!(snap.counter("trace.pinned"), Some(1));
        assert!(snap.gauge("trace.bytes").unwrap() > 0.0);
    }

    #[test]
    fn trace_file_round_trips() {
        let mut t = anomalous(3, 9);
        t.events.insert(
            1,
            TraceEvent {
                at_ns: 10,
                kind: TraceEventKind::Admitted { depth: 2 },
            },
        );
        t.events.insert(
            2,
            TraceEvent {
                at_ns: 120,
                kind: TraceEventKind::Dequeued {
                    worker: 1,
                    wait_ns: 110,
                },
            },
        );
        t.events.insert(
            3,
            TraceEvent {
                at_ns: 130,
                kind: TraceEventKind::RefreshRace {
                    submitted_gen: 1,
                    served_gen: 2,
                },
            },
        );
        t.pinned.push("latency-slo".into());
        let boring = boring(3, 10, 55);
        let json = traces_to_json(&[t.clone(), boring.clone()]);
        let parsed = traces_from_json(&json).unwrap();
        assert_eq!(parsed, vec![t, boring]);
    }

    #[test]
    fn trace_file_rejects_garbage() {
        assert!(traces_from_json("nonsense").is_err());
        assert!(traces_from_json("{}").is_err());
        assert!(traces_from_json("{\"schema\": 99, \"traces\": []}").is_err());
        let bad_event = "{\"schema\": 1, \"traces\": [{\"id\": \"0000000000000001\", \"seq\": 1, \"endpoint\": \"predict\", \"queue_ns\": 0, \"exec_ns\": 0, \"total_ns\": 0, \"pinned\": [], \"events\": [{\"at_ns\": 0, \"kind\": \"nope\"}]}]}";
        assert!(traces_from_json(bad_event)
            .unwrap_err()
            .contains("unknown event kind"));
    }

    #[test]
    fn chrome_export_is_balanced_and_linked() {
        let t = anomalous(0, 1);
        let json = chrome_trace_request(&t);
        assert!(json.starts_with('{') && json.ends_with('}'));
        let b = json.matches("\"ph\": \"B\"").count();
        let e = json.matches("\"ph\": \"E\"").count();
        assert_eq!(b, e, "balanced B/E pairs");
        assert!(b >= 1);
        let id = t.id.to_string();
        // Every slice and instant is linked to the trace id.
        let events = json.matches("\"ph\"").count();
        assert_eq!(json.matches(&id).count(), events);
    }

    #[test]
    fn renderers_cover_every_event_kind() {
        let mut t = anomalous(1, 2);
        t.events.insert(
            1,
            TraceEvent {
                at_ns: 5,
                kind: TraceEventKind::Degraded {
                    tier: "centroid".into(),
                },
            },
        );
        t.events.insert(
            2,
            TraceEvent {
                at_ns: 6,
                kind: TraceEventKind::PanicRecovered,
            },
        );
        t.pinned.push("slo".into());
        let list = render_list(std::slice::from_ref(&t));
        assert!(list.contains(&t.id.to_string()));
        assert!(list.contains("predict"));
        let show = render_show(&t);
        for needle in [
            "submitted",
            "degraded",
            "panic_recovered",
            "guard_trip",
            "finished",
            "pinned by: slo",
        ] {
            assert!(show.contains(needle), "`{needle}` missing from:\n{show}");
        }
    }
}
