//! The serving workloads: a one-worker `Server` over `ModelSet::demo`,
//! driven from the main thread by an open-loop Poisson schedule, then,
//! where the run asks for it, a closed loop, with an optional stream
//! writer publishing k-means
//! refreshes into the running server. Two threads in all: this one and
//! the server's worker.

use crate::stats::{
    hist_mean, mean, median, peak_rss_mb, percentile, release_free_memory, PoissonSchedule,
};
use crate::{write_trace_files, Outcome, RunArgs};
use dm_core::prelude::{
    DataError, GaussianMixture, Guard, InMemoryRecorder, Matrix, PointStream, RunStatus,
    StreamEngine, StreamKMeans,
};
use dm_serve::{
    ModelKind, ModelSet, Reply, Request, ServeConfig, ServeError, ServeResponse, ServeResult,
    Server, Ticket, Tier, TraceConfig,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::VecDeque;
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Distinct requests generated per run; sends pick from them.
const POOL: usize = 1024;
/// Requests kept in flight by the closed loop, and the share of the
/// measured time it runs for, after the open loop.
const IN_FLIGHT: usize = 64;
const CLOSED_SHARE: f64 = 0.25;
const QUEUE_CAPACITY: usize = 1024;
/// Preparations per run; `setup_s` takes their median.
const SETUPS: usize = 15;
/// Every this many sends, the reply is kept for the output check.
const CHECK_EVERY: u64 = 16;
/// Recommendations asked for per recommend request.
const RECOMMEND_K: usize = 5;
/// Item ids of the demo bundle's basket database.
const DEMO_ITEMS: u32 = 100;
/// How long the drain waits for each reply still in flight.
const DRAIN_WAIT: Duration = Duration::from_secs(5);
/// A send later than this against its schedule counts as late...
const LATE_LIMIT: Duration = Duration::from_millis(1);
/// ...and a run with a larger share of late sends is invalid.
const LATE_SHARE_LIMIT: f64 = 0.01;
/// The stream writer publishes this often, absorbing this many points.
const PUBLISH_EVERY: Duration = Duration::from_millis(50);
const PUBLISH_POINTS: usize = 1000;
/// Distinct stream points generated per run; the writer cycles them.
const STREAM_POINTS: usize = 10_000;
const STREAM_BATCH: usize = 250;

/// The deployed bundle is `ModelSet::demo` at this fixed seed. Across
/// seeds its rule mining varies sixty-fold in time and eight-fold in
/// memory, so a seeded bundle would make set-up time and memory measure
/// the seed; the run seed draws the traffic instead.
const BUNDLE_SEED: u64 = 7;

const MODELS: [ModelKind; 4] = [
    ModelKind::Tree,
    ModelKind::Ensemble,
    ModelKind::NaiveBayes,
    ModelKind::Knn,
];

/// One serving workload.
#[derive(Debug, Clone)]
pub struct LoadConfig {
    /// Open-loop arrival rate, requests per second.
    pub rate: f64,
    /// Rows per predict or score request, and items per basket.
    pub rows: (usize, usize),
    /// Percent of requests that score, and that recommend; the rest
    /// predict, spread uniformly over the four classifiers.
    pub score_pct: u32,
    pub recommend_pct: u32,
    /// Serve with an `InMemoryRecorder` and the default request tracing.
    pub observed: bool,
    /// Run the stream writer that publishes k-means refreshes.
    pub refresh: bool,
    /// End every run with the closed loop. Otherwise only the traced
    /// run has one, for the capacity diagnostic.
    pub closed_loop: bool,
}

/// Small requests at a sixth of capacity: the model call is a small
/// part of each request, so admission, hand-off and tracing dominate.
/// Open loop only: with 64 requests in flight, its peak memory moved by
/// up to 3 MB from run to run, with or without the recorder and tracing.
pub const SMALL: LoadConfig = LoadConfig {
    rate: 10_000.0,
    rows: (1, 3),
    score_pct: 25,
    recommend_pct: 25,
    observed: true,
    refresh: false,
    closed_loop: false,
};

/// 64-row requests with no observability while a writer refreshes the
/// bundle: decoding and the model call dominate, and reads share the
/// bundle's lock with the writer.
pub const BATCH_REFRESH: LoadConfig = LoadConfig {
    rate: 8_000.0,
    rows: (64, 64),
    score_pct: 50,
    recommend_pct: 0,
    observed: false,
    refresh: true,
    closed_loop: true,
};

/// The demo bundle's training blobs; request rows and stream points are
/// drawn near them.
fn demo_mixture() -> Result<GaussianMixture, DataError> {
    GaussianMixture::well_separated(3, 2, 40, 8.0)
}

fn ns(d: Duration) -> u64 {
    d.as_nanos() as u64
}

/// The request pool, generated from the seed: rows drawn near the demo
/// bundle's training blobs, baskets over its item universe.
fn request_pool(cfg: &LoadConfig, seed: u64) -> Result<Vec<Request>, DataError> {
    let mut rng = StdRng::seed_from_u64(seed.wrapping_add(11));
    let mut points = PointStream::new(demo_mixture()?, seed.wrapping_add(12));
    let mut rows = |n: usize| -> Vec<Vec<f64>> { points.by_ref().take(n).map(|p| p.0).collect() };
    let pool = (0..POOL)
        .map(|_| {
            let n = rng.gen_range(cfg.rows.0..=cfg.rows.1);
            let pick = rng.gen_range(0..100u32);
            if pick < cfg.recommend_pct {
                Request::Recommend {
                    basket: (0..n).map(|_| rng.gen_range(0..DEMO_ITEMS)).collect(),
                    k: RECOMMEND_K,
                }
            } else if pick < cfg.recommend_pct + cfg.score_pct {
                Request::Score { rows: rows(n) }
            } else {
                Request::Predict {
                    model: MODELS[rng.gen_range(0..MODELS.len())],
                    rows: rows(n),
                }
            }
        })
        .collect();
    Ok(pool)
}

/// The handler a worker runs for `request`, called directly.
fn direct(models: &ModelSet, request: &Request) -> Result<(Reply, Tier), ServeError> {
    let guard = Guard::unlimited();
    match request {
        Request::Predict { model, rows } => models.predict(*model, rows, &guard),
        Request::Score { rows } => models.score(rows, &guard),
        Request::Recommend { basket, k } => models.recommend(basket, *k, &guard),
    }
}

/// Starts the one-worker server over `models`; `recorded` attaches an
/// in-memory recorder, returned alongside.
fn start(
    cfg: &LoadConfig,
    models: ModelSet,
    recorded: bool,
) -> (Server, Option<Arc<InMemoryRecorder>>) {
    let config = ServeConfig {
        workers: 1,
        queue_capacity: QUEUE_CAPACITY,
        trace: cfg.observed.then(TraceConfig::default),
        ..ServeConfig::default()
    };
    if !recorded {
        return (Server::start(models, config), None);
    }
    let rec = Arc::new(InMemoryRecorder::new());
    let server = Server::start_recorded(models, config, Arc::clone(&rec) as _);
    (server, Some(rec))
}

/// The stream writer: absorbs `PUBLISH_POINTS` points into a
/// `StreamKMeans`, then publishes its model into the server, whenever
/// `PUBLISH_EVERY` has passed and no request is due.
struct Writer {
    stream: StreamKMeans,
    points: Vec<Vec<f64>>,
    cursor: usize,
    next: Instant,
    /// Per step: insert, model and refresh nanoseconds.
    steps: Vec<[f64; 3]>,
}

impl Writer {
    fn new(seed: u64) -> Result<Self, DataError> {
        Ok(Self {
            stream: StreamKMeans::new(3, STREAM_BATCH)?,
            points: PointStream::new(demo_mixture()?, seed.wrapping_add(13))
                .take(STREAM_POINTS)
                .map(|p| p.0)
                .collect(),
            cursor: 0,
            next: Instant::now(),
            steps: Vec::new(),
        })
    }

    fn step_if_due(&mut self, server: &Server, now: Instant) -> Result<bool, DataError> {
        if now < self.next {
            return Ok(false);
        }
        self.next = now + PUBLISH_EVERY;
        let t0 = Instant::now();
        for _ in 0..PUBLISH_POINTS {
            self.stream.insert(&self.points[self.cursor]);
            self.cursor = (self.cursor + 1) % self.points.len();
        }
        let t1 = Instant::now();
        let model = self.stream.model()?;
        let t2 = Instant::now();
        server.refresh_artifact(|m| m.with_kmeans(model));
        let t3 = Instant::now();
        self.steps
            .push([t1 - t0, t2 - t1, t3 - t2].map(|d| d.as_nanos() as f64));
        Ok(true)
    }

    /// Mean nanoseconds of each step part, and the median whole step.
    fn summary(&self) -> ([f64; 3], f64) {
        let part = |i: usize| mean(&self.steps.iter().map(|s| s[i]).collect::<Vec<_>>());
        let mut whole: Vec<f64> = self.steps.iter().map(|s| s.iter().sum()).collect();
        ([part(0), part(1), part(2)], median(&mut whole))
    }
}

/// What a send leaves for the matching reply.
struct Sent {
    due: Instant,
    index: usize,
    seq: u64,
}

/// What one load phase observed. Only a timed phase keeps per-request
/// samples and replies; the closed loop counts, so peak memory does not
/// follow its throughput.
#[derive(Default)]
struct Phase {
    timed: bool,
    sent: u64,
    ok: u64,
    failed: u64,
    /// Due-to-completion nanoseconds of every answered request.
    latency_ns: Vec<u64>,
    /// How late each send left against its schedule.
    late_ns: Vec<u64>,
    /// Nanoseconds spent inside `submit`, summed.
    admit_ns: u64,
    /// Pool index of every send, in order.
    sent_indices: Vec<u32>,
    /// Every `CHECK_EVERY`th reply, with its pool index.
    kept: Vec<(usize, ServeResponse)>,
}

impl Phase {
    /// A timed phase with room for `expected` requests, allocated up
    /// front so the samples do not move peak memory run to run.
    fn timed(expected: usize) -> Self {
        Self {
            timed: true,
            latency_ns: Vec::with_capacity(expected),
            late_ns: Vec::with_capacity(expected),
            sent_indices: Vec::with_capacity(expected),
            kept: Vec::with_capacity(expected / CHECK_EVERY as usize + 1),
            ..Self::default()
        }
    }

    /// Submits `request`, a copy of pool entry `index` made before it
    /// was due, so the copy is not timed.
    fn send(
        &mut self,
        server: &Server,
        request: Request,
        index: usize,
        due: Instant,
        inflight: &mut VecDeque<(Ticket, Sent)>,
    ) {
        let sent_at = Instant::now();
        let submitted = server.submit(request);
        self.admit_ns += ns(sent_at.elapsed());
        if self.timed {
            self.late_ns
                .push(ns(sent_at.saturating_duration_since(due)));
            self.sent_indices.push(index as u32);
        }
        self.sent += 1;
        match submitted {
            Ok(ticket) => {
                let seq = self.sent;
                inflight.push_back((ticket, Sent { due, index, seq }));
            }
            Err(_) => self.failed += 1,
        }
    }

    fn complete(&mut self, sent: Sent, result: ServeResult, at: Instant) {
        if self.timed {
            self.latency_ns
                .push(ns(at.saturating_duration_since(sent.due)));
        }
        match result {
            Ok(resp) if resp.tier == Tier::Full && resp.status == RunStatus::Complete => {
                self.ok += 1;
                if self.timed && sent.seq.is_multiple_of(CHECK_EVERY) {
                    self.kept.push((sent.index, resp));
                }
            }
            _ => self.failed += 1,
        }
    }

    /// Takes the oldest reply if it has arrived. One worker answers in
    /// FIFO order, so only the oldest ticket needs polling.
    fn collect(&mut self, inflight: &mut VecDeque<(Ticket, Sent)>) -> bool {
        let Some(result) = inflight.front().and_then(|(t, _)| t.try_take()) else {
            return false;
        };
        let at = Instant::now();
        if let Some((_, sent)) = inflight.pop_front() {
            self.complete(sent, result, at);
        }
        true
    }

    fn drain(&mut self, inflight: &mut VecDeque<(Ticket, Sent)>) {
        while let Some((ticket, sent)) = inflight.pop_front() {
            let result = ticket.wait(DRAIN_WAIT);
            self.complete(sent, result, Instant::now());
        }
    }

    fn answered(&self) -> u64 {
        self.ok + self.failed
    }

    fn report(&self, name: &str) {
        println!(
            "phase {name}: sent {} succeeded {} failed {}",
            self.sent, self.ok, self.failed
        );
    }
}

/// Sends on a Poisson schedule at `cfg.rate` for `budget`, timing each
/// request from when it was due to when its reply is seen.
fn open_loop(
    server: &Server,
    pool: &[Request],
    cfg: &LoadConfig,
    seed: u64,
    budget: Duration,
    writer: &mut Option<Writer>,
) -> Result<Phase, DataError> {
    let mut schedule = PoissonSchedule::new(cfg.rate, seed);
    let mut picks = StdRng::seed_from_u64(seed.wrapping_add(1));
    let mut phase = Phase::timed((cfg.rate * budget.as_secs_f64() * 1.1) as usize + 1024);
    let mut inflight = VecDeque::new();
    let end = Instant::now() + budget;
    let mut due = Instant::now();
    let mut index = picks.gen_range(0..pool.len());
    let mut next = pool[index].clone();
    while due < end {
        loop {
            let now = Instant::now();
            if now >= due {
                break;
            }
            if phase.collect(&mut inflight) {
                continue;
            }
            if let Some(w) = writer.as_mut() {
                if w.step_if_due(server, now)? {
                    continue;
                }
            }
            std::thread::yield_now();
        }
        phase.send(server, next, index, due, &mut inflight);
        index = picks.gen_range(0..pool.len());
        next = pool[index].clone();
        due += Duration::from_nanos(schedule.next_gap_ns());
    }
    phase.drain(&mut inflight);
    Ok(phase)
}

/// Keeps `IN_FLIGHT` requests outstanding for `budget`. Returns the
/// phase and its throughput, replies per second inside the window: the
/// server's capacity for this mix.
fn closed_loop(
    server: &Server,
    pool: &[Request],
    seed: u64,
    budget: Duration,
    writer: &mut Option<Writer>,
) -> Result<(Phase, f64), DataError> {
    let mut picks = StdRng::seed_from_u64(seed.wrapping_add(2));
    let mut phase = Phase::default();
    let mut inflight = VecDeque::new();
    let start = Instant::now();
    loop {
        let now = Instant::now();
        if now >= start + budget {
            break;
        }
        while inflight.len() < IN_FLIGHT {
            let index = picks.gen_range(0..pool.len());
            let request = pool[index].clone();
            phase.send(server, request, index, Instant::now(), &mut inflight);
        }
        if phase.collect(&mut inflight) {
            continue;
        }
        if let Some(w) = writer.as_mut() {
            if w.step_if_due(server, now)? {
                continue;
            }
        }
        std::thread::yield_now();
    }
    let rps = phase.answered() as f64 / start.elapsed().as_secs_f64();
    phase.drain(&mut inflight);
    Ok((phase, rps))
}

/// Compares every kept reply with a direct call on `reference`, a
/// second bundle built the same way. Under refresh, k-means has moved
/// on, so a score reply is checked only for its length and finiteness.
fn check_replies(
    cfg: &LoadConfig,
    reference: &ModelSet,
    pool: &[Request],
    kept: &[(usize, ServeResponse)],
) -> Vec<String> {
    let mut problems = Vec::new();
    for (index, resp) in kept {
        let request = &pool[*index];
        let fine = match (request, &resp.reply) {
            (Request::Score { rows }, Reply::Scores(scores)) if cfg.refresh => {
                scores.len() == rows.len() && scores.iter().all(|s| s.is_finite())
            }
            _ => direct(reference, request).is_ok_and(|(reply, _)| reply == resp.reply),
        };
        if !fine {
            problems.push(format!(
                "reply to pool request {index} differs from a direct call"
            ));
        }
    }
    problems
}

/// Sorted copy for percentile reads.
fn sorted(values: &[u64]) -> Vec<u64> {
    let mut v = values.to_vec();
    v.sort_unstable();
    v
}

fn percentile_us(sorted: &[u64], q: f64) -> f64 {
    percentile(sorted, q).map_or(0.0, |v| v as f64 / 1e3)
}

/// The measurement every run makes: an open-loop phase, then, if asked,
/// a closed loop, after `SETUPS` preparations and one server start.
struct Measured {
    setup_s: f64,
    open: Phase,
    closed: Phase,
    capacity_rps: f64,
    problems: Vec<String>,
    invalid: Vec<String>,
}

fn measure(
    cfg: &LoadConfig,
    args: &RunArgs,
    seconds: Duration,
    reference: &ModelSet,
    with_closed_loop: bool,
) -> Result<Measured, DataError> {
    // Inputs and model fitting repeat; the server starts once, because
    // starting and stopping worker threads leaves peak memory a couple
    // of megabytes apart from run to run.
    let mut prepare_s = Vec::with_capacity(SETUPS);
    let mut last = None;
    for _ in 0..SETUPS {
        let t = Instant::now();
        let pool = request_pool(cfg, args.seed)?;
        let writer = if cfg.refresh {
            Some(Writer::new(args.seed)?)
        } else {
            None
        };
        let models = ModelSet::demo(BUNDLE_SEED)?;
        prepare_s.push(t.elapsed().as_secs_f64());
        last = Some((pool, writer, models));
    }
    let (pool, mut writer, models) = last.ok_or(DataError::Empty("no serving set-up"))?;
    release_free_memory();
    let t = Instant::now();
    let (server, _rec) = start(cfg, models, cfg.observed);
    let setup_s = median(&mut prepare_s) + t.elapsed().as_secs_f64();
    let open_time = if with_closed_loop {
        seconds.mul_f64(1.0 - CLOSED_SHARE)
    } else {
        seconds
    };
    let open = open_loop(&server, &pool, cfg, args.seed, open_time, &mut writer)?;
    let (closed, capacity_rps) = if with_closed_loop {
        let closed_time = seconds.saturating_sub(open_time);
        closed_loop(&server, &pool, args.seed, closed_time, &mut writer)?
    } else {
        (Phase::default(), 0.0)
    };
    server.shutdown();
    open.report("open");
    if with_closed_loop {
        closed.report("closed");
    }
    let problems = check_replies(cfg, reference, &pool, &open.kept);
    let invalid = fell_behind(&open.late_ns).into_iter().collect();
    Ok(Measured {
        setup_s,
        open,
        closed,
        capacity_rps,
        problems,
        invalid,
    })
}

/// Why the open loop cannot be trusted, given how late each send left:
/// more than `LATE_SHARE_LIMIT` of them over `LATE_LIMIT` late.
fn fell_behind(late_ns: &[u64]) -> Option<String> {
    let late = late_ns.iter().filter(|&&l| l > ns(LATE_LIMIT)).count();
    let share = late as f64 / late_ns.len().max(1) as f64;
    (share > LATE_SHARE_LIMIT).then(|| {
        format!(
            "load generator fell behind: {:.2}% of sends were over {LATE_LIMIT:?} late",
            share * 100.0
        )
    })
}

/// Runs a serving workload: untraced, it reports the end-to-end
/// metrics; with a trace directory it reports the per-layer metrics.
pub fn run(cfg: &LoadConfig, args: &RunArgs) -> Result<Outcome, String> {
    // The bundle replies are checked against, built before anything
    // else: fitting `demo` mines rules, and on the heap a run has
    // churned that transient would move peak memory by megabytes.
    let reference = ModelSet::demo(BUNDLE_SEED).map_err(|e| format!("serving: {e}"))?;
    match &args.trace_dir {
        None => end_to_end(cfg, args, &reference),
        Some(dir) => per_layer(cfg, args, dir, &reference),
    }
    .map_err(|e| format!("serving: {e}"))
}

fn end_to_end(
    cfg: &LoadConfig,
    args: &RunArgs,
    reference: &ModelSet,
) -> Result<Outcome, DataError> {
    let m = measure(cfg, args, args.seconds, reference, cfg.closed_loop)?;
    let attempted = m.open.sent + m.closed.sent;
    let ok = m.open.ok + m.closed.ok;
    let mut out = Outcome {
        attempted,
        failed: attempted - ok,
        problems: m.problems,
        invalid: m.invalid,
        ..Outcome::default()
    };
    out.set("setup_s", m.setup_s);
    out.set("peak_rss_mb", peak_rss_mb().unwrap_or(0.0));
    out.set("success_rate", ok as f64 / attempted.max(1) as f64);
    Ok(out)
}

fn per_layer(
    cfg: &LoadConfig,
    args: &RunArgs,
    dir: &std::path::Path,
    reference: &ModelSet,
) -> Result<Outcome, DataError> {
    let half = args.seconds / 2;
    let plain = measure(cfg, args, half, reference, true)?;

    // The traced phase: the same open loop on a fresh server that
    // always records, so its queue and exec histograms can be read.
    let pool = request_pool(cfg, args.seed)?;
    let mut writer = if cfg.refresh {
        Some(Writer::new(args.seed)?)
    } else {
        None
    };
    let (server, rec) = start(cfg, ModelSet::demo(BUNDLE_SEED)?, true);
    let rec = rec.ok_or(DataError::Empty("traced server has no recorder"))?;
    let traced = open_loop(&server, &pool, cfg, args.seed, half, &mut writer)?;
    let trace_stats = server.tracer().map(|t| t.stats());
    server.shutdown();
    traced.report("traced");
    let snap = rec.snapshot();
    write_trace_files(dir, &args.workload, args.seed, &snap)
        .map_err(|e| DataError::InvalidParameter(format!("writing the trace: {e}")))?;

    // Replays of the traced requests, outside the server: row decoding
    // alone, and the whole handler.
    let sent: Vec<&Request> = traced
        .sent_indices
        .iter()
        .map(|&i| &pool[i as usize])
        .collect();
    let requests = sent.len().max(1) as f64;
    let t = Instant::now();
    let mut rows = 0usize;
    for request in &sent {
        if let Request::Predict { rows: r, .. } | Request::Score { rows: r } = request {
            rows += r.len();
            let _ = black_box(Matrix::from_rows(r));
        }
    }
    let decode_ns = t.elapsed().as_nanos() as f64 / requests;
    let t = Instant::now();
    for request in &sent {
        let _ = black_box(direct(reference, request));
    }
    let handler_ns = t.elapsed().as_nanos() as f64 / requests;

    let as_f64 = |v: &[u64]| v.iter().map(|&x| x as f64).collect::<Vec<_>>();
    // Mean latency = late + queue + exec + handoff. The server starts a
    // request's queue clock inside `submit`, before the push and the
    // worker wake-up, so `admit` overlaps the start of `queue` and is
    // not a term of the sum; `handoff` holds what precedes that clock
    // inside `submit`, the gap between pop and exec, and delivery.
    let traced_lat = as_f64(&traced.latency_ns);
    let latency = mean(&traced_lat);
    let late = mean(&as_f64(&traced.late_ns));
    let admit = traced.admit_ns as f64 / requests;
    let queue = hist_mean(&snap, "serve.request.queue_ns");
    let exec = hist_mean(&snap, "serve.request.exec_ns");
    let handoff = latency - late - queue - exec;
    let problems = [
        plain.problems,
        check_replies(cfg, reference, &pool, &traced.kept),
    ]
    .concat();
    let mut invalid = plain.invalid;
    if handoff < 0.0 {
        invalid.push(format!("serve.handoff_ns is negative ({handoff:.0} ns)"));
    }
    println!(
        "accounting: late {late:.0} + queue {queue:.0} + exec {exec:.0} + handoff {handoff:.0} \
         = {latency:.0} ns mean latency (admit {admit:.0} overlaps queue)"
    );

    let plain_p50 = median(&mut as_f64(&plain.open.latency_ns));
    let attempted = plain.open.sent + plain.closed.sent + traced.sent;
    let ok = plain.open.ok + plain.closed.ok + traced.ok;
    let mut out = Outcome {
        attempted,
        failed: attempted - ok,
        problems,
        invalid,
        ..Outcome::default()
    };
    out.set("dataset.decode_ns", decode_ns);
    out.set("serve.admit_ns", admit);
    out.set("serve.handoff_ns", handoff);
    out.set("serve.queue_ns", queue);
    out.set(
        "serve.queue.depth_peak",
        snap.gauge("serve.queue.depth_peak").unwrap_or(0.0),
    );
    out.set("serve.exec_ns", exec);
    out.set("serve.handler_ns", handler_ns);
    out.set("serve.requests", traced.sent as f64);
    out.set("serve.rows", rows as f64);
    if let Some(w) = &writer {
        let ([insert, model, refresh], publish) = w.summary();
        out.set("stream.insert_ns", insert);
        out.set("stream.model_ns", model);
        out.set("serve.refresh_ns", refresh);
        out.set("stream.publish_us", publish / 1e3);
    }
    if let Some(stats) = trace_stats {
        out.set("trace.retained", stats.retained as f64);
        out.set("trace.dropped", stats.dropped as f64);
        out.set("trace.evicted", stats.evicted as f64);
    }
    let plain_sorted = sorted(&plain.open.latency_ns);
    out.set("p50_us", plain_p50 / 1e3);
    out.set("loadgen.p90_us", percentile_us(&plain_sorted, 90.0));
    out.set("loadgen.p99_us", percentile_us(&plain_sorted, 99.0));
    out.set("serve.capacity_rps", plain.capacity_rps);
    out.set(
        "loadgen.late_p99_us",
        percentile_us(&sorted(&plain.open.late_ns), 99.0),
    );
    out.set(
        "bench.trace_overhead_pct",
        (median(&mut traced_lat.clone()) / plain_p50 - 1.0) * 100.0,
    );
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_run_with_over_one_percent_late_sends_is_invalid() {
        let on_time = ns(LATE_LIMIT);
        let mut late_ns = vec![on_time; 1000];
        late_ns[..10].fill(on_time + 1);
        assert_eq!(fell_behind(&late_ns), None);
        late_ns[10] = on_time + 1;
        assert!(fell_behind(&late_ns).is_some());
        assert_eq!(fell_behind(&[]), None);
    }
}
