//! The request loop: admission, per-request guards, worker threads,
//! panic isolation, and instrumentation.
//!
//! Life of a request: [`Server::submit`] validates nothing heavier
//! than queue capacity (admission must stay O(1) under overload) and
//! either sheds with [`ServeError::Overloaded`] or enqueues a job
//! stamped with its submit time. A worker pops the job, *charges the
//! queue wait against the request's deadline*, runs the handler under
//! a per-request [`Guard`] (the request's `CancelToken` is honoured by
//! every governed entry point it calls), and delivers through the
//! non-blocking responder. A handler panic is caught at the worker
//! boundary: the client gets [`ServeError::WorkerPanicked`], the
//! worker increments `serve.worker.recycled` and returns to the loop —
//! workers hold no request state, so recycling is exactly that.
//!
//! Every lifecycle point of a request (admitted, shed, dequeued, refresh
//! race, guard trip, degraded, panic recovered, finished) is reported by
//! one [`emit`] call, which bumps the point's `serve.*` counter (see
//! [`counter_name`]) and, when tracing is on, appends it to the request's
//! trace. Besides those counters the server records the
//! `serve.queue.depth` and `serve.queue.depth_peak` gauges and the
//! `serve.request.{queue,exec}_ns` and per-endpoint
//! `serve.latency.<endpoint>_ns` histograms.

use crate::api::{Endpoint, Request, ServeError, ServeResult, Tier};
use crate::models::ModelSet;
use crate::queue::{AdmissionQueue, Popped, PushError};
use crate::ticket::{ticket_pair, Responder, Ticket};
use dm_core::guard::{Budget, CancelToken, Guard, RunStatus, TruncationReason};
use dm_core::obs::trace::{RequestTrace, TraceConfig, TraceEvent, TraceEventKind, TraceStore};
use dm_core::obs::{Obs, Recorder, TraceId};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError, RwLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How often an idle worker wakes to poll for shutdown.
const POP_POLL: Duration = Duration::from_millis(50);

/// Server tuning knobs.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Worker threads. `0` is allowed and useful in tests: requests
    /// are admitted (or shed) but never served until shutdown answers
    /// them with `ShuttingDown`.
    pub workers: usize,
    /// Admission-queue capacity; pushes beyond it shed with
    /// [`ServeError::Overloaded`].
    pub queue_capacity: usize,
    /// Deadline applied to requests submitted without an explicit
    /// budget ([`Server::submit`]). `None` = no implicit deadline.
    pub default_deadline: Option<Duration>,
    /// Request-scoped tracing. `Some` mints a deterministic
    /// [`TraceId`] per submission, threads lifecycle events through
    /// the request, and retains completed traces in a tail-sampled
    /// [`TraceStore`] ([`Server::tracer`]). `None` (the default) keeps
    /// the request path allocation-free: no ids, no events, no store.
    pub trace: Option<TraceConfig>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            workers: 2,
            queue_capacity: 64,
            default_deadline: Some(Duration::from_millis(250)),
            trace: None,
        }
    }
}

/// Deterministic fault injection in the request path (the `failpoints`
/// feature). Knobs compose with dm-guard's own fail points.
#[cfg(feature = "failpoints")]
#[derive(Debug, Clone, Default)]
pub struct ChaosConfig {
    /// Panic inside the handler on every Nth admitted request
    /// (1-based sequence; `Some(3)` panics requests 3, 6, 9…). The
    /// panic is caught by the worker boundary — that is the point.
    pub panic_every: Option<u64>,
    /// Arm dm-guard's fail point on every Nth request's guard: the
    /// first governed check trips `DeadlineExceeded`, forcing the
    /// request down its degradation tier without any real clock
    /// pressure. Simulates a mid-request deadline storm.
    pub trip_every: Option<u64>,
}

/// Per-request trace state carried inside the job while tracing is
/// enabled: the minted id, the artifact generation seen at admission
/// (for refresh-race detection), and the events accumulated so far.
struct TraceCtx {
    id: TraceId,
    submitted_gen: u64,
    events: Vec<TraceEvent>,
}

impl TraceCtx {
    /// The completed trace, ready to offer to the store.
    fn finish(
        self,
        seq: u64,
        endpoint: Endpoint,
        queue_ns: u64,
        exec_ns: u64,
        total_ns: u64,
    ) -> RequestTrace {
        RequestTrace {
            id: self.id,
            seq,
            endpoint: endpoint.label().into(),
            events: self.events,
            queue_ns,
            exec_ns,
            total_ns,
            pinned: Vec::new(),
        }
    }
}

/// The `serve.*` counter a lifecycle event bumps, if any: the one
/// mapping from events to counters.
fn counter_name(kind: &TraceEventKind) -> Option<&'static str> {
    Some(match kind {
        TraceEventKind::Admitted { .. } => "serve.req.admitted",
        TraceEventKind::Shed { reason } => match &**reason {
            "queue_full" => "serve.shed.queue_full",
            "shutdown" => "serve.shed.shutdown",
            _ => return None,
        },
        TraceEventKind::Degraded { tier } => match &**tier {
            "centroid" => "serve.degraded.centroid",
            "majority" => "serve.degraded.majority",
            "top_support" => "serve.degraded.top_support",
            _ => return None,
        },
        TraceEventKind::PanicRecovered => "serve.worker.recycled",
        TraceEventKind::Finished { outcome } => match &**outcome {
            "complete" => "serve.resp.complete",
            "truncated" => "serve.resp.truncated",
            "malformed" => "serve.resp.malformed",
            "unavailable" => "serve.resp.unavailable",
            // A panic is counted by `serve.worker.recycled`.
            _ => return None,
        },
        _ => return None,
    })
}

/// Reports one lifecycle point: bumps its counter and, when the request
/// is traced, appends it to the trace `at_ns` after submission.
fn emit(obs: &Obs<'_>, trace: &mut Option<TraceCtx>, at_ns: u64, kind: TraceEventKind) {
    if let Some(name) = counter_name(&kind) {
        obs.counter(name, 1);
    }
    if let Some(ctx) = trace {
        ctx.events.push(TraceEvent { at_ns, kind });
    }
}

struct Job {
    request: Request,
    responder: Responder,
    budget: Budget,
    token: CancelToken,
    submitted: Instant,
    seq: u64,
    trace: Option<TraceCtx>,
}

pub(crate) struct Shared {
    queue: AdmissionQueue<Job>,
    /// The served bundle, swappable in place: workers snapshot the
    /// `Arc` per job, so a [`Server::refresh_artifact`] never blocks
    /// in-flight requests — they finish on the bundle they started
    /// with, and the next pop sees the new one.
    models: RwLock<Arc<ModelSet>>,
    recorder: Option<Arc<dyn Recorder>>,
    seq: AtomicU64,
    /// Bumped by every [`Server::refresh_artifact`]; traced requests
    /// compare the generation they saw at submit against the one they
    /// are served under and record a `refresh_race` event on mismatch.
    models_gen: AtomicU64,
    /// The tail-sampled trace store, when tracing is configured.
    /// Shard 0 takes the submit-path traces (sheds, shutdown answers);
    /// worker `w` offers into shard `w + 1`.
    pub(crate) tracer: Option<Arc<TraceStore>>,
    #[cfg(feature = "failpoints")]
    chaos: ChaosConfig,
}

impl Shared {
    pub(crate) fn obs(&self) -> Obs<'_> {
        match self.recorder.as_deref() {
            Some(rec) => Obs::new(rec),
            None => Obs::noop(),
        }
    }

    fn models(&self) -> Arc<ModelSet> {
        Arc::clone(&self.models.read().unwrap_or_else(PoisonError::into_inner))
    }
}

/// A running server. Dropping it without [`Server::shutdown`] closes
/// the queue and detaches the workers; prefer an explicit shutdown.
pub struct Server {
    pub(crate) shared: Arc<Shared>,
    config: ServeConfig,
    handles: Mutex<Vec<JoinHandle<()>>>,
    /// The attached watcher, if [`Server::install_watch`] was called.
    pub(crate) watch: Mutex<Option<crate::watch::AttachedWatch>>,
    /// Work-unit cap applied to every submission while the watcher has
    /// an SLO alert firing and the policy asks for degradation
    /// (`0` = no cap). See [`crate::watch::WatchPolicy`].
    pub(crate) degrade_cap: AtomicU64,
}

/// What `build` threads through for fault injection: the real knobs
/// with `failpoints`, nothing without.
#[cfg(feature = "failpoints")]
type ChaosParam = ChaosConfig;
#[cfg(not(feature = "failpoints"))]
struct ChaosParam;

/// No fault injection — what `start`/`start_recorded` thread through.
fn quiet_chaos() -> ChaosParam {
    #[cfg(feature = "failpoints")]
    {
        ChaosConfig::default()
    }
    #[cfg(not(feature = "failpoints"))]
    {
        ChaosParam
    }
}

impl Server {
    /// Starts the worker pool over `models` with no recorder.
    pub fn start(models: ModelSet, config: ServeConfig) -> Self {
        Self::build(models, config, None, quiet_chaos())
    }

    /// Starts the pool with a metrics recorder; every admission, shed,
    /// degradation and latency lands in it.
    pub fn start_recorded(
        models: ModelSet,
        config: ServeConfig,
        recorder: Arc<dyn Recorder>,
    ) -> Self {
        Self::build(models, config, Some(recorder), quiet_chaos())
    }

    /// Starts the pool with fault injection armed.
    #[cfg(feature = "failpoints")]
    pub fn start_chaos(
        models: ModelSet,
        config: ServeConfig,
        recorder: Option<Arc<dyn Recorder>>,
        chaos: ChaosConfig,
    ) -> Self {
        Self::build(models, config, recorder, chaos)
    }

    fn build(
        models: ModelSet,
        config: ServeConfig,
        recorder: Option<Arc<dyn Recorder>>,
        chaos: ChaosParam,
    ) -> Self {
        #[cfg(not(feature = "failpoints"))]
        let ChaosParam = chaos;
        let tracer = config
            .trace
            .clone()
            .map(|cfg| Arc::new(TraceStore::new(cfg, config.workers + 1)));
        let shared = Arc::new(Shared {
            queue: AdmissionQueue::new(config.queue_capacity.max(1)),
            models: RwLock::new(Arc::new(models)),
            recorder,
            seq: AtomicU64::new(0),
            models_gen: AtomicU64::new(0),
            tracer,
            #[cfg(feature = "failpoints")]
            chaos,
        });
        let handles = (0..config.workers)
            .map(|w| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || worker_loop(&shared, w as u32))
            })
            .collect();
        Self {
            shared,
            config,
            handles: Mutex::new(handles),
            watch: Mutex::new(None),
            degrade_cap: AtomicU64::new(0),
        }
    }

    /// Submits under the configured default deadline and a fresh
    /// cancel token.
    pub fn submit(&self, request: Request) -> Result<Ticket, ServeError> {
        let budget = match self.config.default_deadline {
            Some(d) => Budget::unlimited().with_deadline(d),
            None => Budget::unlimited(),
        };
        self.submit_with(request, budget, CancelToken::new())
    }

    /// Submits with an explicit per-request budget and cancel token.
    /// The budget's deadline is charged from *now* — time spent queued
    /// counts against it, so an admitted request that waits too long
    /// degrades instead of serving a stale full answer.
    pub fn submit_with(
        &self,
        request: Request,
        mut budget: Budget,
        token: CancelToken,
    ) -> Result<Ticket, ServeError> {
        let obs = self.shared.obs();
        // While the watcher has the degradation reaction engaged, cap
        // every request's work budget so overload sheds load through
        // the existing truncation tiers instead of queueing more of it.
        let cap = self.degrade_cap.load(Ordering::SeqCst);
        if cap > 0 {
            budget.max_work = Some(budget.max_work.map_or(cap, |m| m.min(cap)));
        }
        let seq = self.shared.seq.fetch_add(1, Ordering::Relaxed) + 1;
        let mut trace = self.shared.tracer.as_ref().map(|t| TraceCtx {
            id: TraceId::mint(t.seed(), seq),
            submitted_gen: self.shared.models_gen.load(Ordering::Acquire),
            events: Vec::new(),
        });
        emit(&obs, &mut trace, 0, TraceEventKind::Submitted);
        let (ticket, responder) = ticket_pair(trace.as_ref().map(|t| t.id));
        let job = Job {
            request,
            responder,
            budget,
            token,
            submitted: Instant::now(),
            seq,
            trace,
        };
        // Reported under the queue lock, after the push and before a
        // worker can pop the job, so the trace still belongs to us and
        // the depth is this submission's exact position.
        let admitted = |job: &mut Job, depth: usize| {
            let depth = depth as u64;
            emit(&obs, &mut job.trace, 0, TraceEventKind::Admitted { depth });
        };
        match self.shared.queue.push(job, admitted) {
            Ok(depth) => {
                obs.gauge("serve.queue.depth", depth as f64);
                obs.gauge_max("serve.queue.depth_peak", depth as f64);
                Ok(ticket)
            }
            Err(PushError::Full(job)) => Err(self.shed(job, "queue_full", &obs)),
            Err(PushError::Closed(job)) => Err(self.shed(job, "shutdown", &obs)),
        }
    }

    /// Reports a refused job's `shed` point, answers it, and offers its
    /// (always anomalous) trace into shard 0. Returns the error it sent.
    fn shed(&self, mut job: Job, reason: &'static str, obs: &Obs<'_>) -> ServeError {
        let error = match reason {
            "queue_full" => ServeError::Overloaded {
                depth: self.shared.queue.capacity(),
            },
            _ => ServeError::ShuttingDown,
        };
        let total_ns = job.submitted.elapsed().as_nanos() as u64;
        let shed = TraceEventKind::Shed {
            reason: reason.into(),
        };
        emit(obs, &mut job.trace, total_ns, shed);
        job.responder.deliver(Err(error.clone()));
        if let (Some(tracer), Some(ctx)) = (&self.shared.tracer, job.trace) {
            let trace = ctx.finish(job.seq, job.request.endpoint(), 0, 0, total_ns);
            tracer.offer(0, trace, obs);
        }
        error
    }

    /// Current admission-queue depth.
    pub fn queue_depth(&self) -> usize {
        self.shared.queue.depth()
    }

    /// A snapshot of the current serving bundle (tests inspect
    /// fallback state through it). The snapshot is immutable; a
    /// concurrent [`Server::refresh_artifact`] does not change it.
    pub fn models(&self) -> Arc<ModelSet> {
        self.shared.models()
    }

    /// Swaps the served bundle in place — the streaming refresh hook.
    ///
    /// `update` receives a clone of the current bundle and returns the
    /// replacement (e.g. `|m| m.with_kmeans(stream.model()?)` to
    /// install freshly streamed centroids). The swap is atomic from
    /// the workers' point of view: jobs already running keep the
    /// bundle they snapshotted, jobs popped afterwards serve the new
    /// one. No restart, no queue drain. Emits
    /// `serve.artifact.refreshed`.
    pub fn refresh_artifact(&self, update: impl FnOnce(ModelSet) -> ModelSet) {
        let mut slot = self
            .shared
            .models
            .write()
            .unwrap_or_else(PoisonError::into_inner);
        let next = update((**slot).clone());
        *slot = Arc::new(next);
        // Bump the generation while still holding the write lock so a
        // worker can never observe the new bundle under the old number.
        self.shared.models_gen.fetch_add(1, Ordering::Release);
        drop(slot);
        self.shared.obs().counter("serve.artifact.refreshed", 1);
    }

    /// The trace store, when [`ServeConfig::trace`] was set. Query it
    /// for retained traces ([`TraceStore::retained`],
    /// [`TraceStore::find`]) or serialize with [`TraceStore::to_json`]
    /// for `dm trace`.
    pub fn tracer(&self) -> Option<Arc<TraceStore>> {
        self.shared.tracer.clone()
    }

    /// Graceful shutdown: close admission, join workers (they finish
    /// the jobs they hold and drain the queue until empty), then
    /// answer anything still queued with `ShuttingDown`. Returns how
    /// many queued requests were answered that way.
    pub fn shutdown(self) -> usize {
        self.shared.queue.close();
        let handles =
            std::mem::take(&mut *self.handles.lock().unwrap_or_else(PoisonError::into_inner));
        for handle in handles {
            // A worker that somehow died still lets shutdown proceed.
            let _ = handle.join();
        }
        let leftovers = self.shared.queue.drain();
        let obs = self.shared.obs();
        let n = leftovers.len();
        for job in leftovers {
            // Shed-at-shutdown traces are anomalous and always offered,
            // so gated experiments see exact retention counts even for
            // requests that never reached a worker.
            self.shed(job, "shutdown", &obs);
        }
        n
    }
}

impl Drop for Server {
    /// A dropped server closes admission so detached workers drain and
    /// exit instead of blocking forever. Explicit [`Server::shutdown`]
    /// (which also joins and answers leftovers) is still preferred.
    fn drop(&mut self) {
        self.shared.queue.close();
    }
}

fn worker_loop(shared: &Shared, worker: u32) {
    loop {
        match shared.queue.pop(POP_POLL) {
            Popped::Job(job) => run_job(shared, job, worker),
            Popped::TimedOut => continue,
            Popped::Closed => break,
        }
    }
}

/// Short stable tag for a guard trip, used in trace events (the
/// `Display` form is prose for the event log).
fn trip_label(reason: TruncationReason) -> &'static str {
    match reason {
        TruncationReason::DeadlineExceeded => "deadline",
        TruncationReason::WorkLimitExceeded => "work_limit",
        TruncationReason::IterationLimitReached => "iteration_limit",
        TruncationReason::Cancelled => "cancelled",
    }
}

/// How a handled request ended: its `finished` label.
fn outcome_label(result: &ServeResult) -> &'static str {
    match result {
        Ok(response) if response.status.is_complete() => "complete",
        Ok(_) => "truncated",
        Err(ServeError::WorkerPanicked) => "panicked",
        Err(ServeError::Malformed(_)) => "malformed",
        Err(ServeError::ModelUnavailable(_)) => "unavailable",
        Err(_) => "error",
    }
}

fn run_job(shared: &Shared, job: Job, worker: u32) {
    let Job {
        request,
        responder,
        budget,
        token,
        submitted,
        seq,
        mut trace,
    } = job;
    let obs = shared.obs();
    obs.gauge("serve.queue.depth", shared.queue.depth() as f64);
    let waited = submitted.elapsed();
    let queue_ns = waited.as_nanos() as u64;
    obs.value("serve.request.queue_ns", queue_ns);
    let dequeued = TraceEventKind::Dequeued {
        worker,
        wait_ns: queue_ns,
    };
    emit(&obs, &mut trace, queue_ns, dequeued);
    if let Some(ctx) = &trace {
        let served_gen = shared.models_gen.load(Ordering::Acquire);
        if served_gen != ctx.submitted_gen {
            let race = TraceEventKind::RefreshRace {
                submitted_gen: ctx.submitted_gen,
                served_gen,
            };
            emit(&obs, &mut trace, queue_ns, race);
        }
    }
    // Charge the queue wait against the deadline: the guard measures
    // from its own construction, so shrink the deadline by the wait
    // (saturating at zero ⇒ the guard trips on its first check and the
    // request degrades immediately).
    let mut effective = budget;
    if let Some(deadline) = effective.deadline {
        effective.deadline = Some(deadline.saturating_sub(waited));
    }
    let endpoint = request.endpoint();
    let mut guard = Guard::with_token(effective, token);
    if let Some(rec) = &shared.recorder {
        guard = guard.with_recorder(Arc::clone(rec));
    }
    #[cfg(feature = "failpoints")]
    if shared.chaos.trip_every.is_some_and(|n| seq % n.max(1) == 0) {
        // trip_at counts checks that *pass*; 0 trips at the very first
        // check site the handler reaches.
        guard = guard.with_failpoint(0, TruncationReason::DeadlineExceeded);
    }
    let started = Instant::now();
    #[cfg(feature = "failpoints")]
    let panic_armed = shared
        .chaos
        .panic_every
        .is_some_and(|n| seq % n.max(1) == 0);
    #[cfg(not(feature = "failpoints"))]
    let _ = seq;
    let models = shared.models();
    let outcome: Result<ServeResult, _> = catch_unwind(AssertUnwindSafe(|| {
        #[cfg(feature = "failpoints")]
        if panic_armed {
            panic!("failpoint: injected worker panic");
        }
        handle(&models, request, &guard)
    }));
    let result = outcome.unwrap_or(Err(ServeError::WorkerPanicked));
    let exec_ns = started.elapsed().as_nanos() as u64;
    obs.value("serve.request.exec_ns", exec_ns);
    let latency = endpoint.latency_metric();
    match &trace {
        Some(ctx) => obs.value_traced(latency, exec_ns, ctx.id),
        None => obs.value(latency, exec_ns),
    }
    let total_ns = submitted.elapsed().as_nanos() as u64;
    match &result {
        Ok(response) => {
            if let RunStatus::Truncated(reason) = response.status {
                let trip = TraceEventKind::GuardTrip {
                    reason: trip_label(reason).into(),
                };
                emit(&obs, &mut trace, total_ns, trip);
            }
            if response.tier != Tier::Full {
                let tier = response.tier.label().into();
                let degraded = TraceEventKind::Degraded { tier };
                emit(&obs, &mut trace, total_ns, degraded);
            }
        }
        Err(ServeError::WorkerPanicked) => {
            emit(&obs, &mut trace, total_ns, TraceEventKind::PanicRecovered);
        }
        Err(_) => {}
    }
    let finished = TraceEventKind::Finished {
        outcome: outcome_label(&result).into(),
    };
    emit(&obs, &mut trace, total_ns, finished);
    responder.deliver(result);
    if let (Some(tracer), Some(ctx)) = (&shared.tracer, trace) {
        let trace = ctx.finish(seq, endpoint, queue_ns, exec_ns, total_ns);
        tracer.offer(worker as usize + 1, trace, &obs);
    }
}

fn handle(models: &ModelSet, request: Request, guard: &Guard) -> ServeResult {
    let (reply, tier) = match request {
        Request::Predict { model, rows } => models.predict(model, &rows, guard)?,
        Request::Score { rows } => models.score(&rows, guard)?,
        Request::Recommend { basket, k } => models.recommend(&basket, k, guard)?,
    };
    Ok(crate::api::ServeResponse {
        reply,
        status: guard.status(),
        tier,
    })
}
