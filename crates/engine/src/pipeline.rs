//! A pipelined session layer: a bounded queue of in-flight sweeps over
//! one shared [`Engine`], completed **out of order** keyed by request id.
//!
//! The blocking [`Engine::evaluate`] call answers one sweep at a time;
//! serving many concurrent clients (the paper's multi-host regime, and
//! the repeated re-evaluation workload of the incremental-verification
//! literature) wants several sweeps in flight at once. Two types provide
//! exactly that without an async runtime:
//!
//! - An [`ExecutorTeam`] is the shareable part: one ticket queue, a small
//!   team of executor threads pulling tickets off it and evaluating them
//!   on the shared engine, and the depth gate bounding how many tickets
//!   the whole team holds. The engine's work-stealing pool and π-table
//!   cache are common to every in-flight request, and a short sweep
//!   submitted after a long one finishes *first*.
//! - A [`Pipeline`] is one submitter's handle on a team: its request ids,
//!   its completion channel, its cancel tokens, its counters and its
//!   completion notifier. Every ticket carries its handle's reply side, so
//!   many handles share one team and each still sees only its own
//!   completions and statistics. [`Pipeline::new`] builds a private team
//!   with one handle; [`Pipeline::attach`] joins an existing team (one
//!   team per `zeroconf serve` daemon, one handle per connection).
//!
//! The handle's lifecycle:
//!
//! - [`Pipeline::submit`] enqueues a validated [`SweepRequest`] and
//!   returns a [`RequestId`] immediately ([`Pipeline::submit_work`] does
//!   the same for any [`WorkRequest`] verb — sweep, calibrate or
//!   frontier). The team's depth is bounded: once `depth` tickets are in
//!   the team, `submit` **blocks** until one completes (backpressure, not
//!   unbounded buffering).
//! - [`Pipeline::poll_completions`] / [`Pipeline::next_completion`] hand
//!   back [`Completion`]s in **finish order**, each tagged with its
//!   [`RequestId`] and per-request latency counters (queue wait and
//!   service time).
//! - [`Pipeline::cancel`] flags one in-flight request; a queued ticket is
//!   dropped before evaluation, a running one aborts at the next `r`
//!   boundary (see [`CancelToken`]), and either way the request completes
//!   with [`EngineError::Cancelled`] — no id is ever lost.
//! - [`Pipeline::drain`] blocks until every in-flight request has
//!   completed; dropping the last handle on a team joins the executors
//!   after they finish the queue (graceful shutdown — queued work is never
//!   abandoned mid-evaluation).
//!
//! Everything is `std`: one `mpsc` channel into the team, one out per
//! handle, a mutex-condvar gate for the depth bound. The wire-protocol
//! front-end in [`crate::wire`] is a thin codec over this type.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::Instant;

use crate::{CancelToken, Engine, EngineError, SweepRequest, WorkRequest, WorkResponse};

/// Executor-team construction parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PipelineConfig {
    /// Maximum tickets in the team (submitted but not yet completed),
    /// across every handle. Further `submit` calls block until a slot
    /// frees: backpressure.
    pub depth: usize,
    /// Executor threads evaluating requests concurrently. More executors
    /// than `depth` is pointless; fewer serializes some of the queue.
    pub executors: usize,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        PipelineConfig {
            depth: 4,
            executors: 4,
        }
    }
}

impl PipelineConfig {
    /// A config with `depth` in-flight slots and one executor per slot —
    /// the usual shape (`--inflight N` on the CLI).
    #[must_use]
    pub fn with_depth(depth: usize) -> PipelineConfig {
        let depth = depth.max(1);
        PipelineConfig {
            depth,
            executors: depth,
        }
    }
}

/// A callback executor threads invoke right after a [`Completion`] lands
/// in its handle's channel. Readiness-driven consumers (the `zeroconf
/// serve` reactor) register one to get woken — typically by writing to
/// an eventfd — instead of polling the pipeline on a timer. The callback
/// runs on an executor thread, so it must be cheap and must never block
/// on the consumer side.
pub type CompletionNotifier = Arc<dyn Fn() + Send + Sync>;

/// Identifier of one submitted request, unique within its [`Pipeline`]
/// handle. Completions are keyed by it; submission order is `id` order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RequestId(pub u64);

impl std::fmt::Display for RequestId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "#{}", self.0)
    }
}

/// One finished request: its id, outcome and latency split.
#[derive(Debug)]
pub struct Completion {
    /// The id `submit` returned.
    pub id: RequestId,
    /// The evaluated response — same [`WorkResponse`] variant as the
    /// submitted [`WorkRequest`] — or why there is none
    /// ([`EngineError::Cancelled`] for cancelled requests).
    pub result: Result<WorkResponse, EngineError>,
    /// Nanoseconds spent queued before an executor picked the request up.
    pub queue_nanos: u64,
    /// Nanoseconds spent evaluating (zero when cancelled while queued).
    pub service_nanos: u64,
}

/// Handle-lifetime counters, including the per-request latency
/// aggregates reported by the CLI's `--stats`. Each [`Pipeline`] handle
/// counts only its own requests, even on a shared team.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PipelineStats {
    /// Requests accepted by `submit`.
    pub submitted: u64,
    /// Requests that completed successfully.
    pub completed: u64,
    /// Requests that completed as cancelled.
    pub cancelled: u64,
    /// Requests that completed with a non-cancellation error.
    pub failed: u64,
    /// Total nanoseconds requests spent waiting in the queue.
    pub queue_nanos_total: u64,
    /// Worst single queue wait in nanoseconds.
    pub queue_nanos_max: u64,
    /// Total nanoseconds requests spent evaluating.
    pub service_nanos_total: u64,
    /// Worst single service time in nanoseconds.
    pub service_nanos_max: u64,
}

/// One queued request, carrying the reply side of the handle that
/// submitted it.
struct Ticket {
    id: RequestId,
    request: WorkRequest,
    token: CancelToken,
    submitted: Instant,
    reply: Arc<Reply>,
}

/// The executor-facing half of one [`Pipeline`] handle: where its
/// completions go and what they update.
struct Reply {
    done: Sender<Completion>,
    tokens: Mutex<HashMap<RequestId, CancelToken>>,
    counters: Counters,
    notifier: Mutex<Option<CompletionNotifier>>,
}

/// The in-flight counter and its condvar: `acquire` blocks submitters at
/// the depth bound, `release` (called by executors once a ticket is
/// answered) wakes them.
struct Gate {
    in_flight: Mutex<usize>,
    freed: Condvar,
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

impl Gate {
    fn acquire(&self, depth: usize) {
        let mut n = lock(&self.in_flight);
        while *n >= depth {
            n = self.freed.wait(n).unwrap_or_else(|e| e.into_inner());
        }
        *n += 1;
    }

    fn release(&self) {
        let mut n = lock(&self.in_flight);
        *n -= 1;
        self.freed.notify_all();
    }
}

/// What the executor threads share: the ticket receiver (std mpsc
/// receivers are single-consumer, hence the mutex) and the depth gate.
struct Queue {
    tickets: Mutex<Receiver<Ticket>>,
    gate: Gate,
}

/// Executor-side counters (atomics; read via [`Pipeline::stats`]).
#[derive(Default)]
struct Counters {
    submitted: AtomicU64,
    completed: AtomicU64,
    cancelled: AtomicU64,
    failed: AtomicU64,
    queue_total: AtomicU64,
    queue_max: AtomicU64,
    service_total: AtomicU64,
    service_max: AtomicU64,
}

impl Counters {
    fn record(&self, result: &Result<WorkResponse, EngineError>, queue_ns: u64, service_ns: u64) {
        match result {
            Ok(_) => &self.completed,
            Err(EngineError::Cancelled) => &self.cancelled,
            Err(_) => &self.failed,
        }
        // ORDERING: pipeline statistics tallies; each counter stands
        // alone and is only ever reported, so relaxed add/max suffice.
        .fetch_add(1, Ordering::Relaxed);
        self.queue_total.fetch_add(queue_ns, Ordering::Relaxed);
        self.queue_max.fetch_max(queue_ns, Ordering::Relaxed);
        // ORDERING: same statistics block.
        self.service_total.fetch_add(service_ns, Ordering::Relaxed);
        self.service_max.fetch_max(service_ns, Ordering::Relaxed);
    }
}

/// The shareable half of a pipeline: one ticket queue, the executor
/// threads draining it onto one [`Engine`], and the depth gate bounding
/// the tickets of every attached [`Pipeline`] handle together. Executors
/// are spawned by [`ExecutorTeam::new`] and joined when the last `Arc`
/// drops, after they finish everything already queued.
pub struct ExecutorTeam {
    engine: Arc<Engine>,
    depth: usize,
    queue: Arc<Queue>,
    /// `None` only during drop: closing it ends the executor loops.
    sender: Option<Sender<Ticket>>,
    executors: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for ExecutorTeam {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ExecutorTeam")
            .field("depth", &self.depth)
            .field("executors", &self.executors.len())
            .finish()
    }
}

impl ExecutorTeam {
    /// Builds a team over `engine`, spawning `config.executors` executor
    /// threads (clamped to `1..=depth`).
    #[must_use]
    pub fn new(engine: Arc<Engine>, config: PipelineConfig) -> Arc<ExecutorTeam> {
        let depth = config.depth.max(1);
        let (sender, receiver) = channel::<Ticket>();
        let queue = Arc::new(Queue {
            tickets: Mutex::new(receiver),
            gate: Gate {
                in_flight: Mutex::new(0),
                freed: Condvar::new(),
            },
        });
        let executors = (0..config.executors.clamp(1, depth))
            .map(|i| {
                let queue = Arc::clone(&queue);
                let engine = Arc::clone(&engine);
                std::thread::Builder::new()
                    .name(format!("zeroconf-pipeline-{i}"))
                    .spawn(move || executor_loop(&queue, &engine))
                    .expect("spawning a pipeline executor thread")
            })
            .collect();
        Arc::new(ExecutorTeam {
            engine,
            depth,
            queue,
            sender: Some(sender),
            executors,
        })
    }

    /// The engine every ticket of this team evaluates on.
    #[must_use]
    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    /// The team-wide depth bound.
    #[must_use]
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// Tickets on the team right now, every handle's together: queued
    /// or executing, not yet released by an executor (observability
    /// only — racy by nature).
    #[must_use]
    pub fn in_flight(&self) -> usize {
        *lock(&self.queue.gate.in_flight)
    }
}

impl Drop for ExecutorTeam {
    fn drop(&mut self) {
        // Closing the queue ends the executor loops *after* they finish
        // everything already enqueued: graceful drain on shutdown.
        self.sender = None;
        for handle in self.executors.drain(..) {
            let _ = handle.join();
        }
    }
}

/// One submitter's handle on an [`ExecutorTeam`]. See the module docs
/// for the lifecycle; the one-line version:
///
/// ```
/// use zeroconf_engine::{Engine, EngineConfig, GridSpec, Pipeline, PipelineConfig, SweepRequest};
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let scenario = zeroconf_cost::paper::figure2_scenario()?;
/// let engine = std::sync::Arc::new(Engine::new(EngineConfig::default()));
/// let mut pipeline = Pipeline::new(engine, PipelineConfig::with_depth(4));
/// let a = pipeline.submit(SweepRequest::new(scenario.clone(), GridSpec::linspace(4, 0.5, 2.0, 8)))?;
/// let b = pipeline.submit(SweepRequest::new(scenario, GridSpec::linspace(2, 0.5, 2.0, 4)))?;
/// let done = pipeline.drain(); // completions in *finish* order
/// assert_eq!(done.len(), 2);
/// assert!(done.iter().any(|c| c.id == a) && done.iter().any(|c| c.id == b));
/// # Ok(())
/// # }
/// ```
pub struct Pipeline {
    team: Arc<ExecutorTeam>,
    next_id: u64,
    /// Submitted requests whose completion this side has not yet
    /// received. Maintained entirely by the consumer thread, so checking
    /// it against zero is race-free (unlike the gate, which executors
    /// release asynchronously).
    outstanding: usize,
    completions: Receiver<Completion>,
    reply: Arc<Reply>,
}

impl std::fmt::Debug for Pipeline {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Pipeline")
            .field("team", &self.team)
            .field("in_flight", &self.in_flight())
            .finish()
    }
}

impl Pipeline {
    /// Builds a private team over `engine` (spawning `config.executors`
    /// executor threads) with this handle as its only submitter.
    #[must_use]
    pub fn new(engine: Arc<Engine>, config: PipelineConfig) -> Pipeline {
        Pipeline::attach(ExecutorTeam::new(engine, config))
    }

    /// A new handle on `team`: its own ids, completions, cancel tokens,
    /// counters and notifier, sharing the team's executors and depth.
    #[must_use]
    pub fn attach(team: Arc<ExecutorTeam>) -> Pipeline {
        let (done, completions) = channel::<Completion>();
        Pipeline {
            team,
            next_id: 0,
            outstanding: 0,
            completions,
            reply: Arc::new(Reply {
                done,
                tokens: Mutex::new(HashMap::new()),
                counters: Counters::default(),
                notifier: Mutex::new(None),
            }),
        }
    }

    /// Registers `notifier`, to be invoked by an executor thread each time
    /// a completion of this handle becomes pollable (replacing any
    /// previous notifier). See [`CompletionNotifier`] for the contract.
    pub fn set_completion_notifier(&self, notifier: CompletionNotifier) {
        *lock(&self.reply.notifier) = Some(notifier);
    }

    /// The engine shared by every request of this pipeline.
    #[must_use]
    pub fn engine(&self) -> &Engine {
        self.team.engine()
    }

    /// The team's depth bound.
    #[must_use]
    pub fn depth(&self) -> usize {
        self.team.depth()
    }

    /// Requests of this handle currently in flight: submitted, completion
    /// not yet retrieved by [`Pipeline::poll_completions`] /
    /// [`Pipeline::next_completion`].
    #[must_use]
    pub fn in_flight(&self) -> usize {
        self.outstanding
    }

    /// Validates and enqueues one sweep, returning its id immediately.
    /// Blocks while the team already holds `depth` tickets.
    ///
    /// # Errors
    ///
    /// [`EngineError::InvalidRequest`] for malformed requests — rejected
    /// eagerly, before consuming an in-flight slot.
    pub fn submit(&mut self, request: SweepRequest) -> Result<RequestId, EngineError> {
        self.submit_work(WorkRequest::Sweep(request))
    }

    /// Validates and enqueues any engine verb — sweep, calibrate or
    /// frontier — returning its id immediately. Blocks while the team
    /// already holds `depth` tickets. The completion carries the matching
    /// [`WorkResponse`] variant.
    ///
    /// # Errors
    ///
    /// [`EngineError::InvalidRequest`] for malformed requests — rejected
    /// eagerly, before consuming an in-flight slot.
    pub fn submit_work(&mut self, request: WorkRequest) -> Result<RequestId, EngineError> {
        request.validate()?;
        self.team.queue.gate.acquire(self.team.depth);
        self.outstanding += 1;
        let id = RequestId(self.next_id);
        self.next_id += 1;
        let token = CancelToken::new();
        lock(&self.reply.tokens).insert(id, token.clone());
        // ORDERING: statistics tally; the ticket itself travels through
        // the channel, which does the synchronizing.
        self.reply
            .counters
            .submitted
            .fetch_add(1, Ordering::Relaxed);
        self.team
            .sender
            .as_ref()
            .expect("queue sender lives until the team drops")
            .send(Ticket {
                id,
                request,
                token,
                submitted: Instant::now(),
                reply: Arc::clone(&self.reply),
            })
            .expect("team executors outlive every handle");
        Ok(id)
    }

    /// Flags one in-flight request for cancellation. Returns `false` when
    /// the id is unknown or already completed. The request still produces
    /// a [`Completion`] (with [`EngineError::Cancelled`]), so consumers
    /// never lose an id — unless evaluation already finished, in which
    /// case the ordinary completion stands.
    pub fn cancel(&self, id: RequestId) -> bool {
        match lock(&self.reply.tokens).get(&id) {
            Some(token) => {
                token.cancel();
                true
            }
            None => false,
        }
    }

    /// Completions that are ready right now, in finish order, without
    /// blocking.
    pub fn poll_completions(&mut self) -> Vec<Completion> {
        let mut out = Vec::new();
        while let Ok(completion) = self.completions.try_recv() {
            self.outstanding -= 1;
            out.push(completion);
        }
        out
    }

    /// Blocks for the next completion; `None` when nothing is in flight.
    pub fn next_completion(&mut self) -> Option<Completion> {
        if self.outstanding == 0 {
            return None;
        }
        // Every outstanding request sends exactly one completion, so with
        // `outstanding > 0` this receive always returns.
        let completion = self
            .completions
            .recv()
            .expect("the handle keeps its completion channel open");
        self.outstanding -= 1;
        Some(completion)
    }

    /// Blocks until every in-flight request has completed and returns the
    /// completions in finish order.
    pub fn drain(&mut self) -> Vec<Completion> {
        let mut out = Vec::new();
        while let Some(completion) = self.next_completion() {
            out.push(completion);
        }
        out
    }

    /// A snapshot of this handle's lifetime counters.
    #[must_use]
    pub fn stats(&self) -> PipelineStats {
        let c = &self.reply.counters;
        PipelineStats {
            // ORDERING: statistics snapshot; counters are independent and
            // reporting tolerates a torn view across them.
            submitted: c.submitted.load(Ordering::Relaxed),
            completed: c.completed.load(Ordering::Relaxed),
            cancelled: c.cancelled.load(Ordering::Relaxed),
            failed: c.failed.load(Ordering::Relaxed),
            // ORDERING: same snapshot.
            queue_nanos_total: c.queue_total.load(Ordering::Relaxed),
            queue_nanos_max: c.queue_max.load(Ordering::Relaxed),
            service_nanos_total: c.service_total.load(Ordering::Relaxed),
            service_nanos_max: c.service_max.load(Ordering::Relaxed),
        }
    }
}

fn executor_loop(queue: &Queue, engine: &Engine) {
    loop {
        // Only the receive is serialized; evaluation runs outside the
        // lock, so executors overlap on the engine.
        let ticket = match lock(&queue.tickets).recv() {
            Ok(ticket) => ticket,
            Err(_) => return, // team dropped and queue drained
        };
        let queue_nanos = u64::try_from(ticket.submitted.elapsed().as_nanos()).unwrap_or(u64::MAX);
        // Cancelled while queued: never touches the engine, and reports
        // zero service time.
        let (result, service_nanos) = if ticket.token.is_cancelled() {
            (Err(EngineError::Cancelled), 0)
        } else {
            let started = Instant::now();
            let result = match &ticket.request {
                WorkRequest::Sweep(request) => engine
                    .evaluate_cancellable(request, &ticket.token)
                    .map(WorkResponse::Sweep),
                WorkRequest::Calibrate(request) => engine
                    .calibrate_cancellable(request, &ticket.token)
                    .map(WorkResponse::Calibrate),
                WorkRequest::Frontier(request) => engine
                    .frontier_cancellable(request, &ticket.token)
                    .map(WorkResponse::Frontier),
            };
            let nanos = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
            (result, nanos)
        };
        let reply = &ticket.reply;
        reply.counters.record(&result, queue_nanos, service_nanos);
        lock(&reply.tokens).remove(&ticket.id);
        // Free the team slot *before* the completion becomes observable.
        // A submitter paced by completions — the serve daemon returns a
        // budget permit only after polling one — then always finds the
        // slot already free, so with depth equal to its budget the gate
        // never blocks it.
        queue.gate.release();
        // The handle may be gone (its client vanished); the ticket is
        // answered regardless and the send simply fails.
        let _ = reply.done.send(Completion {
            id: ticket.id,
            result,
            queue_nanos,
            service_nanos,
        });
        // Wake a readiness-driven consumer strictly after the send, so a
        // woken poller always finds the completion already in the channel.
        let notifier = lock(&reply.notifier).clone();
        if let Some(notify) = notifier {
            notify();
        }
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use zeroconf_cost::Scenario;
    use zeroconf_dist::DefectiveExponential;

    use crate::{Engine, EngineConfig, GridSpec, SweepRequest};

    use super::*;

    fn scenario() -> Scenario {
        Scenario::builder()
            .occupancy(0.5)
            .probe_cost(2.0)
            .error_cost(1e6)
            .reply_time(Arc::new(
                DefectiveExponential::from_loss(1e-6, 10.0, 1.0).unwrap(),
            ))
            .build()
            .unwrap()
    }

    fn pipeline(depth: usize) -> Pipeline {
        let engine = Arc::new(Engine::new(EngineConfig {
            workers: 1,
            cache_tables: 64,
            cache_dir: None,
            ..EngineConfig::default()
        }));
        Pipeline::new(engine, PipelineConfig::with_depth(depth))
    }

    fn request(n_max: u32, points: usize) -> SweepRequest {
        SweepRequest::new(scenario(), GridSpec::linspace(n_max, 0.5, 2.0, points))
    }

    #[test]
    fn submit_and_drain_round_trip() {
        let mut p = pipeline(2);
        let a = p.submit(request(3, 4)).unwrap();
        let b = p.submit(request(2, 3)).unwrap();
        assert_ne!(a, b);
        let done = p.drain();
        assert_eq!(done.len(), 2);
        assert_eq!(p.in_flight(), 0);
        for completion in &done {
            let response = completion.result.as_ref().unwrap();
            let sweep = response
                .as_sweep()
                .expect("sweep submissions complete as sweeps");
            assert!(!sweep.landscape.is_empty());
        }
        let stats = p.stats();
        assert_eq!(stats.submitted, 2);
        assert_eq!(stats.completed, 2);
        assert_eq!(stats.cancelled + stats.failed, 0);
        assert!(stats.service_nanos_total >= stats.service_nanos_max);
    }

    #[test]
    fn invalid_requests_are_rejected_before_queueing() {
        let mut p = pipeline(1);
        let mut bad = request(3, 4);
        bad.grid.r_values.clear();
        assert!(matches!(
            p.submit(bad),
            Err(EngineError::InvalidRequest { .. })
        ));
        assert_eq!(p.in_flight(), 0);
        assert_eq!(p.stats().submitted, 0);
    }

    #[test]
    fn cancel_of_unknown_id_is_false() {
        let mut p = pipeline(1);
        assert!(!p.cancel(RequestId(42)));
        let id = p.submit(request(2, 2)).unwrap();
        p.drain();
        // Completed ids are forgotten.
        assert!(!p.cancel(id));
    }

    #[test]
    fn next_completion_is_none_when_idle() {
        let mut p = pipeline(2);
        assert!(p.next_completion().is_none());
        p.submit(request(2, 2)).unwrap();
        assert!(p.next_completion().is_some());
        assert!(p.next_completion().is_none());
    }

    #[test]
    fn completion_notifier_fires_once_per_completion() {
        use std::sync::atomic::AtomicUsize;
        let mut p = pipeline(2);
        let fired = Arc::new(AtomicUsize::new(0));
        let observer = Arc::clone(&fired);
        p.set_completion_notifier(Arc::new(move || {
            observer.fetch_add(1, Ordering::SeqCst);
        }));
        p.submit(request(3, 4)).unwrap();
        p.submit(request(2, 3)).unwrap();
        let done = p.drain();
        assert_eq!(done.len(), 2);
        // The notifier runs after each completion is sent, so drain can
        // observe the second completion a moment before its notify lands
        // — wait for it rather than racing the executor thread.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        while fired.load(Ordering::SeqCst) < 2 {
            assert!(
                std::time::Instant::now() < deadline,
                "notifier fired {} of 2 times",
                fired.load(Ordering::SeqCst)
            );
            std::thread::yield_now();
        }
        assert_eq!(fired.load(Ordering::SeqCst), 2);
    }

    #[test]
    fn handles_on_one_team_see_only_their_own_work() {
        let team = ExecutorTeam::new(
            Arc::new(Engine::new(EngineConfig {
                workers: 1,
                cache_tables: 4096,
                cache_dir: None,
                ..EngineConfig::default()
            })),
            PipelineConfig {
                depth: 4,
                executors: 1,
            },
        );
        let mut a = Pipeline::attach(Arc::clone(&team));
        let mut b = Pipeline::attach(Arc::clone(&team));
        // One executor behind a long first ticket, so b's second request
        // is still queued when it is cancelled. Ids are per handle: b2
        // and a2 are the same number, and only b2 may be cancelled.
        let a1 = a.submit(request(32, 400)).unwrap();
        let b1 = b.submit(request(2, 3)).unwrap();
        let a2 = a.submit(request(2, 2)).unwrap();
        let b2 = b.submit(request(3, 3)).unwrap();
        assert_eq!(a2, b2);
        assert!(b.cancel(b2));

        let done_a = a.drain();
        let mut ids_a: Vec<_> = done_a.iter().map(|c| c.id).collect();
        ids_a.sort();
        assert_eq!(ids_a, vec![a1, a2]);
        assert!(done_a.iter().all(|c| c.result.is_ok()), "{done_a:?}");
        let stats_a = a.stats();
        assert_eq!((stats_a.submitted, stats_a.completed), (2, 2));
        assert_eq!(stats_a.cancelled + stats_a.failed, 0);

        let done_b = b.drain();
        let mut ids_b: Vec<_> = done_b.iter().map(|c| c.id).collect();
        ids_b.sort();
        assert_eq!(ids_b, vec![b1, b2]);
        for completion in &done_b {
            if completion.id == b2 {
                assert!(matches!(completion.result, Err(EngineError::Cancelled)));
            } else {
                assert!(completion.result.is_ok());
            }
        }
        let stats_b = b.stats();
        assert_eq!((stats_b.submitted, stats_b.completed), (2, 1));
        assert_eq!(stats_b.cancelled, 1);
        assert_eq!(a.stats(), stats_a, "b's work never moves a's counters");
        assert!(a.poll_completions().is_empty() && b.poll_completions().is_empty());
    }

    #[test]
    fn dropping_a_full_pipeline_finishes_queued_work() {
        // Queue more than the executor count, then drop without draining:
        // Drop must join cleanly (graceful drain), not hang or abandon.
        let mut p = pipeline(4);
        for _ in 0..4 {
            p.submit(request(2, 3)).unwrap();
        }
        drop(p);
    }
}
