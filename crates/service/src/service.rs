//! The request/response serving front-end over a shared [`ReleaseEngine`].
//!
//! Architecture: admission is one step. A submission is charged its
//! per-user ε budget and takes one place of the bounded queue's capacity
//! before it is decided where the release runs: queued in that place for a
//! [`WorkerPool`] worker, or, under [`ReleaseService::try_submit_or_hold`]
//! when its calibration is already cached, handed back to the caller as a
//! [`HeldRelease`] served on the caller's thread through the same serve
//! path. Workers drain the queue, drive the engine (one `Arc<ReleaseEngine>`
//! shared by all workers — calibrations are cached and stampede-coalesced
//! there), and call each job's reply with the outcome. In-process callers
//! get a [`Ticket`], which is one such reply; the network front-end's reply
//! pushes the finished release straight into its connection writer. The
//! same queue also carries callers' own tasks ([`ReleaseService::try_spawn`]),
//! so one fixed set of workers runs both. Back-pressure is explicit: the
//! capacity bounds the releases and tasks admitted and not yet taken,
//! queued or held, and a full queue refuses [`ReleaseService::try_submit`]
//! rather than growing without bound.
//!
//! Budget semantics: the ε spend is committed atomically at *admission*, so
//! concurrent submissions can never jointly overdraw a user's budget. If the
//! queue then refuses the request, the spend is rolled back; if the release
//! itself later fails in the mechanism layer (a query of another length
//! than the engine's calibrated one, for example), the spend is *kept* —
//! the conservative choice, since a failed release may still have consumed
//! information (and admission, not outcome, is what the accountant can
//! reason about atomically).

use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock, PoisonError, RwLock};

use rand::rngs::StdRng;
use rand::SeedableRng;

use pufferfish_core::queries::LipschitzQuery;
use pufferfish_core::snapshot::unix_now;
use pufferfish_core::{
    CalibrationSnapshot, NoisyRelease, PrivacyBudget, PufferfishError, ReleaseEngine,
};
use pufferfish_parallel::{Parallelism, WorkerPool};
use pufferfish_telemetry::{query_signature, LedgerEventKind, RequestTrace, Stage};

use crate::budget::SpendTag;
use crate::queue::{BoundedQueue, HeldSlot, PushError};
use crate::telemetry::ServiceTelemetry;
use crate::{BudgetAccountant, ReleaseObserver, ServiceError, ServiceStats};

/// The release workers' thread name; the pool suffixes `-{index}`. Linux
/// keeps 15 bytes of a thread name, so `pf-release-{i}` shows whole in
/// `/proc`, `top` and `gdb` for up to 10,000 workers.
const WORKER_THREADS: &str = "pf-release";

/// One release request, self-contained and thread-portable.
///
/// The `seed` makes the request's noise deterministic (each worker derives
/// its RNG from it), so identical request streams produce identical
/// responses regardless of worker scheduling — the property the service
/// tests rely on.
#[derive(Clone)]
pub struct ReleaseRequest {
    /// Budget owner this release is charged to.
    pub user: String,
    /// The query to release.
    pub query: Arc<dyn LipschitzQuery>,
    /// The database (state sequence) to evaluate on.
    pub database: Vec<usize>,
    /// Per-release privacy parameter ε.
    pub epsilon: f64,
    /// Seed for the release's Laplace noise.
    pub seed: u64,
}

impl std::fmt::Debug for ReleaseRequest {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReleaseRequest")
            .field("user", &self.user)
            .field("query", &self.query.name())
            .field("database_len", &self.database.len())
            .field("epsilon", &self.epsilon)
            .field("seed", &self.seed)
            .finish()
    }
}

/// Single-use response slot shared between a ticket and its reply.
struct ResponseSlot {
    result: Mutex<Option<Result<NoisyRelease, ServiceError>>>,
    ready: Condvar,
}

impl ResponseSlot {
    fn fulfil(&self, result: Result<NoisyRelease, ServiceError>) {
        // Tolerate a poisoned slot: this also runs from a job's drop guard
        // during unwinding, where a second panic would abort the process.
        *self.result.lock().unwrap_or_else(PoisonError::into_inner) = Some(result);
        self.ready.notify_all();
    }
}

/// A claim on the eventual response to a submitted request.
pub struct Ticket {
    slot: Arc<ResponseSlot>,
}

impl Ticket {
    /// An empty ticket and the reply that fulfils it.
    fn with_reply() -> (Ticket, Reply) {
        let slot = Arc::new(ResponseSlot {
            result: Mutex::new(None),
            ready: Condvar::new(),
        });
        let reply = Reply::Ticket(Arc::clone(&slot));
        (Ticket { slot }, reply)
    }

    /// `true` once the response is available ([`Ticket::wait`] will not
    /// block).
    pub fn is_ready(&self) -> bool {
        self.slot
            .result
            .lock()
            .expect("response slot poisoned")
            .is_some()
    }

    /// Blocks until the worker fulfils the request and returns the release.
    ///
    /// # Errors
    /// Mechanism-layer failures ([`ServiceError::Mechanism`]) and
    /// [`ServiceError::ServiceClosed`] when the service shut down before a
    /// worker reached the request.
    pub fn wait(self) -> Result<NoisyRelease, ServiceError> {
        let mut result = self.slot.result.lock().expect("response slot poisoned");
        loop {
            if let Some(response) = result.take() {
                return response;
            }
            result = self
                .slot
                .ready
                .wait(result)
                .expect("response slot poisoned");
        }
    }
}

impl std::fmt::Debug for Ticket {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Ticket")
            .field("ready", &self.is_ready())
            .finish()
    }
}

/// A caller's own reply: it receives the outcome and the request's trace.
type CallReply = Box<dyn FnOnce(Result<NoisyRelease, ServiceError>, Option<RequestTrace>) + Send>;

/// Where a job's outcome goes: a ticket's slot, or a caller's own callback
/// (see [`ReleaseService::try_submit_or_hold`]). A ticket's slot is stored
/// as is rather than boxed inside a callback: that extra allocation, freed
/// on the worker thread, measurably slowed in-process submission.
enum Reply {
    Ticket(Arc<ResponseSlot>),
    Call(CallReply),
}

/// A queued unit of work: the request, the reply its outcome goes to, and
/// the trace that times it.
struct Job {
    request: ReleaseRequest,
    /// Called exactly once, by whichever comes first: the worker with the
    /// outcome, or the drop guard with [`ServiceError::ServiceClosed`]. A
    /// job is made only once its place is taken, so a refusal's only answer
    /// is the submitter's synchronous error.
    reply: Option<Reply>,
    /// The request's clock and stage breakdown. Admission attaches one to
    /// every job while telemetry is attached, and the worker laps it; a
    /// callback reply gets it back.
    trace: Option<RequestTrace>,
}

impl Job {
    fn answer(&mut self, result: Result<NoisyRelease, ServiceError>) {
        match self.reply.take() {
            Some(Reply::Ticket(slot)) => slot.fulfil(result),
            Some(Reply::Call(reply)) => reply(result, self.trace.take()),
            None => {}
        }
    }
}

impl Drop for Job {
    /// Answers [`ServiceError::ServiceClosed`] if nothing else did: a job
    /// dropped before its worker produced a response (a panic mid-release,
    /// queue teardown) must never leave its submitter waiting forever.
    fn drop(&mut self) {
        self.answer(Err(ServiceError::ServiceClosed));
    }
}

/// One item of the admission queue: a release job, or a caller's task
/// ([`ReleaseService::try_spawn`]). Workers take both in FIFO order.
enum Work {
    Release(Job),
    Task(Box<dyn FnOnce() + Send>),
}

/// Tuning knobs for [`ReleaseService::start`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServiceConfig {
    /// Worker-pool size ([`Parallelism::Auto`] = one worker per core).
    pub workers: Parallelism,
    /// Admission-queue capacity (back-pressure threshold, clamped to ≥ 1):
    /// it bounds the releases and tasks admitted and not yet taken. Every
    /// admission takes one place before it is decided where the release
    /// runs, so a place counts whether it waits in the queue for a worker
    /// or is held by a caller that serves the release itself
    /// ([`ReleaseService::try_submit_or_hold`]).
    pub queue_capacity: usize,
    /// Total ε budget granted to each user across all their releases.
    pub per_user_epsilon: f64,
}

impl Default for ServiceConfig {
    /// All cores, a 256-deep queue, and a per-user budget of ε = 1.
    fn default() -> Self {
        ServiceConfig {
            workers: Parallelism::Auto,
            queue_capacity: 256,
            per_user_epsilon: 1.0,
        }
    }
}

/// A concurrent Pufferfish release service.
///
/// # Trust boundary
///
/// Responses are full [`NoisyRelease`] values — including `true_values`,
/// per the workspace-wide experiment-harness convention — and noise seeds
/// are supplied by the requester so traffic is replayable. Both are right
/// for benchmarking and testing, but they sit *inside* the trust boundary:
/// a deployment exposing this service to untrusted clients must strip
/// `true_values` from responses and draw seeds from a server-side CSPRNG,
/// otherwise the ε accounting guards nothing.
///
/// # Example
///
/// ```
/// use std::sync::Arc;
/// use pufferfish_core::engine::{MqmApproxCalibrator, ReleaseEngine};
/// use pufferfish_core::queries::StateFrequencyQuery;
/// use pufferfish_core::{MqmApproxOptions, Parallelism};
/// use pufferfish_markov::IntervalClassBuilder;
/// use pufferfish_service::{ReleaseRequest, ReleaseService, ServiceConfig, ServiceError};
///
/// let class = IntervalClassBuilder::symmetric(0.4).grid_points(2).build().unwrap();
/// let engine = ReleaseEngine::shared(MqmApproxCalibrator::new(
///     class,
///     60,
///     MqmApproxOptions::default(),
/// ));
/// let service = ReleaseService::start(
///     engine,
///     ServiceConfig {
///         workers: Parallelism::Threads(2),
///         queue_capacity: 8,
///         per_user_epsilon: 1.0,
///     },
/// )
/// .unwrap();
///
/// let request = |seed: u64| ReleaseRequest {
///     user: "alice".to_string(),
///     query: Arc::new(StateFrequencyQuery::new(1, 60)),
///     database: vec![0; 60],
///     epsilon: 0.5,
///     seed,
/// };
/// // Two releases of ε = 0.5 fit alice's budget of 1.0.
/// let first = service.submit(request(1)).unwrap();
/// let second = service.submit(request(2)).unwrap();
/// assert_eq!(first.wait().unwrap().values.len(), 1);
/// assert_eq!(second.wait().unwrap().values.len(), 1);
/// // The third is refused at admission: budget exhausted.
/// assert!(matches!(
///     service.submit(request(3)),
///     Err(ServiceError::BudgetExhausted { .. })
/// ));
/// service.shutdown();
/// ```
pub struct ReleaseService {
    serving: Arc<Serving>,
    budget: BudgetAccountant,
    pool: Option<WorkerPool>,
    /// Provenance of the warm-start snapshot, when the service was built
    /// with [`ReleaseService::warm_start`].
    warm_start: Option<WarmStartProvenance>,
}

/// Everything serving an admitted release touches, shared by the service
/// and its workers: a release is served the same way on a worker and on a
/// caller that holds it.
struct Serving {
    /// The engine behind one level of indirection so
    /// [`ReleaseService::swap_engine`] can replace it atomically while
    /// requests are in flight. A release clones the inner `Arc` out under
    /// the read lock *once*, then is served entirely from that clone — a
    /// request is always answered by exactly one engine's calibration,
    /// never a torn mix of pre- and post-swap entries.
    engine: RwLock<Arc<ReleaseEngine>>,
    /// Write-once hooks, like the engine's metrics and the budget's ledger:
    /// reading either on the release path is one atomic load.
    observer: OnceLock<Arc<dyn ReleaseObserver>>,
    telemetry: OnceLock<Arc<ServiceTelemetry>>,
    queue: BoundedQueue<Work>,
    served: AtomicU64,
}

impl Serving {
    fn engine(&self) -> Arc<ReleaseEngine> {
        Arc::clone(&self.engine.read().expect("engine lock poisoned"))
    }

    /// The telemetry, if attached, with its queue-depth gauge set to the
    /// places now taken; called as a worker takes an item or a holder
    /// serves its release.
    fn taking(&self) -> Option<&ServiceTelemetry> {
        let watch = self.telemetry.get().map(Arc::as_ref);
        if let Some(watch) = watch {
            // The atomic mirror, not `len()`: re-locking the queue here
            // would contend with every submitter.
            watch.queue_depth().set(self.queue.approx_len() as u64);
        }
        watch
    }

    /// Serves one admitted release on the calling thread, a worker or a
    /// holder, inside its own panic boundary: laps the queue-wait stage and
    /// counts the admission (when `trace` is given and telemetry is
    /// attached), serves through [`ReleaseService::serve`], reports a
    /// success to the observer and counts the release served. A panic is
    /// answered [`ServiceError::ServiceClosed`], like a job dropped
    /// unserved, and counts nothing.
    fn serve_admitted(
        &self,
        engine: &ReleaseEngine,
        request: &ReleaseRequest,
        trace: Option<&mut RequestTrace>,
        watch: Option<&ServiceTelemetry>,
    ) -> Result<NoisyRelease, ServiceError> {
        panic::catch_unwind(AssertUnwindSafe(|| {
            let mut staged = trace.zip(watch);
            if let Some((trace, watch)) = staged.as_mut() {
                watch.stages().lap(trace, Stage::QueueWait);
                watch.admitted().inc();
            }
            let response = ReleaseService::serve(engine, request, staged);
            if let (Ok(release), Some(observer)) = (&response, self.observer.get()) {
                observer.observe_release(&request.database, release);
            }
            self.served.fetch_add(1, Ordering::Relaxed);
            response
        }))
        .unwrap_or(Err(ServiceError::ServiceClosed))
    }
}

/// A release admitted by [`ReleaseService::try_submit_or_hold`] for its
/// caller to serve on its own thread: its ε is charged and its calibration
/// was cached at admission. It holds one place of the admission queue's
/// capacity until [`HeldRelease::serve`] has served it, or until it is
/// dropped unserved.
pub struct HeldRelease<'a> {
    serving: &'a Serving,
    /// The engine its calibration was found in, which serves it.
    engine: Arc<ReleaseEngine>,
    admitted: Admitted<'a>,
}

impl HeldRelease<'_> {
    /// Serves the release on the calling thread through the path a worker
    /// runs for a queued one (same RNG seeding, observer, `served` count,
    /// stages and panic boundary; a panic is answered
    /// [`ServiceError::ServiceClosed`]), then gives the queue place back.
    /// Returns the outcome and the request's trace, lapped through the
    /// mechanism stage as a callback reply receives it.
    pub fn serve(mut self) -> (Result<NoisyRelease, ServiceError>, Option<RequestTrace>) {
        let watch = self.serving.taking();
        let Admitted { request, trace, .. } = &mut self.admitted;
        let response = self
            .serving
            .serve_admitted(&self.engine, request, trace.as_mut(), watch);
        (response, self.admitted.trace)
    }
}

/// A release that passed admission: its ε is charged and it holds one
/// place of the queue's capacity. Dropped, it gives the place back.
struct Admitted<'a> {
    request: ReleaseRequest,
    trace: Option<RequestTrace>,
    slot: HeldSlot<'a, Work>,
}

impl Admitted<'_> {
    /// Queues the release for a worker in the place it holds; `reply` gets
    /// the outcome.
    fn queue(self, reply: Reply) {
        self.slot.fill(Work::Release(Job {
            request: self.request,
            reply: Some(reply),
            trace: self.trace,
        }));
    }
}

/// What [`ReleaseService::warm_start`] remembers about the snapshot it
/// loaded (the age in [`crate::SnapshotInfo`] is derived from the creation
/// time at every stats call).
#[derive(Debug, Clone, Copy)]
struct WarmStartProvenance {
    created_unix_secs: u64,
    entries: usize,
    bytes: u64,
}

impl ReleaseService {
    /// Starts the worker pool and returns the running service.
    ///
    /// # Errors
    /// [`ServiceError::InvalidConfig`] for a non-positive per-user budget.
    pub fn start(engine: Arc<ReleaseEngine>, config: ServiceConfig) -> Result<Self, ServiceError> {
        let budget = BudgetAccountant::new(config.per_user_epsilon)?;
        let serving = Arc::new(Serving {
            engine: RwLock::new(engine),
            observer: OnceLock::new(),
            telemetry: OnceLock::new(),
            queue: BoundedQueue::new(config.queue_capacity),
            served: AtomicU64::new(0),
        });
        let pool = {
            let serving = Arc::clone(&serving);
            WorkerPool::spawn(config.workers, WORKER_THREADS, move |_worker| {
                while let Some(work) = serving.queue.pop() {
                    let watch = serving.taking();
                    // One panic boundary for every queued item: a task, a
                    // reply or a release that panics unwinds out of itself
                    // alone (a job left unanswered is answered
                    // ServiceClosed by its drop guard), and the worker
                    // lives on to take the next.
                    let _ = panic::catch_unwind(AssertUnwindSafe(|| {
                        let mut job = match work {
                            Work::Release(job) => job,
                            Work::Task(task) => return task(),
                        };
                        // One engine per request: the clone taken here
                        // outlives any concurrent swap_engine, so the whole
                        // release is served from a single consistent
                        // calibration.
                        let engine = serving.engine();
                        let response = serving.serve_admitted(
                            &engine,
                            &job.request,
                            job.trace.as_mut(),
                            watch,
                        );
                        // Offer a ticket's trace to the recorder before
                        // replying, as serving counted the release: a
                        // submitter woken by its ticket must find its own
                        // request in `served()` and in the recorder. A
                        // callback gets its trace back instead.
                        if let (Some(Reply::Ticket(_)), Some(trace), Some(recorder)) = (
                            &job.reply,
                            &job.trace,
                            watch.and_then(ServiceTelemetry::recorder),
                        ) {
                            recorder.observe(trace);
                        }
                        job.answer(response);
                    }));
                }
            })
        };

        Ok(ReleaseService {
            serving,
            budget,
            pool: Some(pool),
            warm_start: None,
        })
    }

    /// Starts the service *warm*: loads the calibration snapshot at `path`
    /// into `engine` before spawning the workers, so the first requests are
    /// cache hits instead of multi-second cold calibrations.
    ///
    /// The import performs **zero** calibrations — the engine's miss counter
    /// is untouched, which is how the warm-start tests and the
    /// `calibration_store` bench certify that no calibration ran. Snapshot
    /// provenance (age, entry count, file size) is reported through
    /// [`ServiceStats::snapshot`](crate::ServiceStats::snapshot).
    ///
    /// A missing, corrupt, version-mismatched or wrong-class snapshot is a
    /// **typed error**, not a silent cold start: callers that prefer
    /// best-effort warming can match on
    /// `ServiceError::Mechanism(PufferfishError::Snapshot(_))` and fall back
    /// to [`ReleaseService::start`] themselves.
    ///
    /// # Errors
    /// [`ServiceError::InvalidConfig`] as for [`ReleaseService::start`];
    /// [`ServiceError::Mechanism`] wrapping
    /// [`pufferfish_core::SnapshotError`] for every snapshot failure.
    pub fn warm_start(
        engine: Arc<ReleaseEngine>,
        config: ServiceConfig,
        path: impl AsRef<std::path::Path>,
    ) -> Result<Self, ServiceError> {
        let path = path.as_ref();
        let bytes = std::fs::read(path).map_err(|e| {
            PufferfishError::Snapshot(pufferfish_core::SnapshotError::Io(format!(
                "reading {}: {e}",
                path.display()
            )))
        })?;
        let snapshot = CalibrationSnapshot::from_bytes(&bytes)?;
        let entries = engine.import_snapshot(&snapshot)?;
        let mut service = Self::start(engine, config)?;
        service.warm_start = Some(WarmStartProvenance {
            created_unix_secs: snapshot.created_unix_secs,
            entries,
            bytes: bytes.len() as u64,
        });
        Ok(service)
    }

    /// Exports the engine's current calibration cache to `path`, returning
    /// the bytes written — the producer side of
    /// [`ReleaseService::warm_start`]. Shard locks are held only to clone
    /// entries; encoding and file I/O run lock-free, so a live service can
    /// checkpoint itself without stalling releases.
    ///
    /// # Errors
    /// [`ServiceError::Mechanism`] wrapping
    /// [`pufferfish_core::SnapshotError::Io`] on filesystem failures.
    pub fn save_snapshot(&self, path: impl AsRef<std::path::Path>) -> Result<u64, ServiceError> {
        Ok(self.engine().export_snapshot().write_to_file(path)?)
    }

    /// The handling of one admitted request, on a worker or on a holder:
    /// the steps of [`ReleaseEngine::release`], split so that a staged
    /// job's trace can time the engine stage (the cache probe, plus
    /// calibration on a miss) apart from the mechanism stage (RNG setup,
    /// query evaluation and noise sampling). The RNG sees the same draws
    /// either way. A failed release records nothing past its failure point.
    fn serve(
        engine: &ReleaseEngine,
        request: &ReleaseRequest,
        mut staged: Option<(&mut RequestTrace, &ServiceTelemetry)>,
    ) -> Result<NoisyRelease, ServiceError> {
        let budget = PrivacyBudget::new(request.epsilon)?;
        let mechanism = engine.mechanism(&*request.query, budget)?;
        if let Some((trace, watch)) = staged.as_mut() {
            watch.stages().lap(trace, Stage::Engine);
        }
        let mut rng = StdRng::seed_from_u64(request.seed);
        let release = mechanism.release(&*request.query, &request.database, &mut rng)?;
        if let Some((trace, watch)) = staged {
            watch.stages().lap(trace, Stage::Mechanism);
        }
        engine.note_release(release.scale);
        Ok(release)
    }

    /// Non-blocking submission: admission control (budget, then a queue
    /// place) and immediate return of a [`Ticket`].
    ///
    /// # Errors
    /// [`ServiceError::BudgetExhausted`] (budget untouched),
    /// [`ServiceError::QueueFull`] / [`ServiceError::ServiceClosed`] (budget
    /// spend rolled back).
    pub fn try_submit(&self, request: ReleaseRequest) -> Result<Ticket, ServiceError> {
        let (ticket, reply) = Ticket::with_reply();
        self.admit(request, None, BoundedQueue::try_hold)?
            .queue(reply);
        Ok(ticket)
    }

    /// Non-blocking submission whose outcome goes to `reply`, unless the
    /// release's calibration is already cached: then it is not queued but
    /// comes back as a [`HeldRelease`] for the caller to serve on its own
    /// thread, and `reply` is dropped uncalled. Admission is the same for
    /// both, and comes first: the budget is charged, then one place of the
    /// queue's capacity is taken, and a full or closed queue refuses the
    /// release and refunds the charge. Only a release that got its place is
    /// probed for a cached calibration; one that is not warm is queued in
    /// that place (`Ok(None)`), so no calibration ever runs on the
    /// caller's thread.
    ///
    /// A queued release's `reply` is called exactly once: by the worker
    /// with the release or its mechanism error, or with
    /// [`ServiceError::ServiceClosed`] when the job is dropped unserved (a
    /// panic mid-release, queue teardown). It may run on a worker thread
    /// before this call returns, and it must not block. On a refusal it is
    /// dropped without being called: the returned error is the only answer.
    ///
    /// A held release is served, through the same path a worker runs, by
    /// [`HeldRelease::serve`]; until then its place counts in
    /// [`ReleaseService::pending`] and against the capacity. The network
    /// front-end's connection readers serve warm RELEASE frames this way.
    ///
    /// `reply` and [`HeldRelease::serve`] also give the request's trace
    /// back. With telemetry attached, admission restarts the clock of
    /// `trace` (or starts a trace keyed by the request seed), and the trace
    /// then carries the admission, queue-wait, engine and mechanism stages,
    /// each also recorded into the registry histograms. Without telemetry,
    /// `trace` comes back untouched. The network front-end threads its
    /// per-request trace through here, laps its own stages on the trace it
    /// gets back, and offers the finished trace to its flight recorder.
    ///
    /// # Errors
    /// As for [`ReleaseService::try_submit`].
    pub fn try_submit_or_hold(
        &self,
        request: ReleaseRequest,
        trace: Option<RequestTrace>,
        reply: impl FnOnce(Result<NoisyRelease, ServiceError>, Option<RequestTrace>) + Send + 'static,
    ) -> Result<Option<HeldRelease<'_>>, ServiceError> {
        let admitted = self.admit(request, trace, BoundedQueue::try_hold)?;
        match self.warm_engine(&admitted.request) {
            Some(engine) => Ok(Some(HeldRelease {
                serving: &self.serving,
                engine,
                admitted,
            })),
            None => {
                admitted.queue(Reply::Call(Box::new(reply)));
                Ok(None)
            }
        }
    }

    /// Queues `task` to run once on a worker, in FIFO order with the release
    /// jobs, through the same bounded queue — so work that is not a release
    /// still runs on the service's fixed set of threads and still meets its
    /// back-pressure. The network front-end runs each PROGRESSIVE request
    /// this way.
    ///
    /// The service charges no budget for a task (a task that spends ε
    /// charges [`ReleaseService::budget`] itself) and does not count it in
    /// [`ReleaseService::served`], the admission counter or the stage
    /// histograms; the queue's depth, high-water mark and refusals count
    /// it. An accepted task runs exactly once, also when it is queued
    /// before [`ReleaseService::shutdown`] or a drop, which drain it like a
    /// job. A task that panics unwinds out of itself alone: the worker
    /// lives on.
    ///
    /// # Errors
    /// [`ServiceError::QueueFull`] and [`ServiceError::ServiceClosed`]; the
    /// task is then dropped without running.
    pub fn try_spawn(&self, task: impl FnOnce() + Send + 'static) -> Result<(), ServiceError> {
        let slot = self
            .serving
            .queue
            .try_hold()
            .map_err(|refused| self.refusal(refused))?;
        slot.fill(Work::Task(Box::new(task)));
        Ok(())
    }

    /// The error a queue refusal answers.
    fn refusal(&self, refused: PushError) -> ServiceError {
        match refused {
            PushError::Full => ServiceError::QueueFull {
                capacity: self.serving.queue.capacity(),
            },
            PushError::Closed => ServiceError::ServiceClosed,
        }
    }

    /// Blocking submission: waits for queue space instead of failing with
    /// [`ServiceError::QueueFull`].
    ///
    /// # Errors
    /// [`ServiceError::BudgetExhausted`] and [`ServiceError::ServiceClosed`].
    pub fn submit(&self, request: ReleaseRequest) -> Result<Ticket, ServiceError> {
        let (ticket, reply) = Ticket::with_reply();
        self.admit(request, None, BoundedQueue::hold)?.queue(reply);
        Ok(ticket)
    }

    /// The one admission path: spend the budget, then take one place of the
    /// queue's capacity through `take` ([`BoundedQueue::try_hold`] or
    /// [`BoundedQueue::hold`]). A refused place rolls the spend back before
    /// any job exists, so no reply is ever called for it. Every budget event
    /// carries its audit tag — query signature, engine family, request
    /// seed — into an attached ε ledger.
    fn admit<'s>(
        &'s self,
        request: ReleaseRequest,
        mut trace: Option<RequestTrace>,
        take: impl FnOnce(&'s BoundedQueue<Work>) -> Result<HeldSlot<'s, Work>, PushError>,
    ) -> Result<Admitted<'s>, ServiceError> {
        // With telemetry attached the request is timed from its arrival
        // here. Admission ends before the place is taken, so time spent
        // waiting for a place is part of the queue-wait stage.
        let watch = self.serving.telemetry.get();
        if watch.is_some() {
            match trace.as_mut() {
                Some(trace) => trace.restart(),
                None => trace = Some(RequestTrace::new(request.seed)),
            }
        }
        // Only an attached ledger reads the tag, so without one admission
        // neither takes the engine lock nor hashes the query name.
        let tag = if self.budget.has_ledger() {
            SpendTag {
                query_sig: query_signature(request.query.name()),
                family: self.engine().kind(),
                seq: request.seed,
            }
        } else {
            SpendTag::default()
        };
        if let Err(refused) = self
            .budget
            .try_spend_tagged(&request.user, request.epsilon, tag)
        {
            if let (Some(watch), Some(trace)) = (watch, trace.as_mut()) {
                watch.stages().lap(trace, Stage::Admission);
                watch.refused().inc();
            }
            return Err(refused);
        }
        let admission_ns = watch
            .and(trace.as_mut())
            .map(|trace| trace.lap(Stage::Admission));
        match take(&self.serving.queue) {
            Ok(slot) => {
                // Only an admission that got its place is sampled.
                if let Some((watch, ns)) = watch.zip(admission_ns) {
                    watch.stages().record(Stage::Admission, ns);
                }
                Ok(Admitted {
                    request,
                    trace,
                    slot,
                })
            }
            Err(refused) => {
                self.budget
                    .refund_tagged(&request.user, request.epsilon, tag);
                if let Some(watch) = watch {
                    watch.refused().inc();
                }
                Err(self.refusal(refused))
            }
        }
    }

    /// The engine to serve `request` from on the caller's thread: the
    /// current one, when it already has the request's calibration cached.
    fn warm_engine(&self, request: &ReleaseRequest) -> Option<Arc<ReleaseEngine>> {
        let budget = PrivacyBudget::new(request.epsilon).ok()?;
        let engine = self.engine();
        engine.is_cached(&*request.query, budget).then_some(engine)
    }

    /// Convenience: submit (blocking) and wait for the response.
    ///
    /// # Errors
    /// Admission and mechanism errors, as for [`ReleaseService::submit`] and
    /// [`Ticket::wait`].
    pub fn release(&self, request: ReleaseRequest) -> Result<NoisyRelease, ServiceError> {
        self.submit(request)?.wait()
    }

    /// The engine currently behind the service (cache stats live here).
    ///
    /// The returned `Arc` keeps that engine alive across a concurrent
    /// [`ReleaseService::swap_engine`] — like the workers, callers see one
    /// consistent engine, not a moving target.
    pub fn engine(&self) -> Arc<ReleaseEngine> {
        self.serving.engine()
    }

    /// Atomically replaces the engine serving future requests, returning the
    /// previous one.
    ///
    /// In-flight requests finish on whichever engine they started with (each
    /// worker clones the engine `Arc` once per request), so a swap is never
    /// observable as a torn calibration — only as a clean before/after. This
    /// is the commit point of the monitor crate's canary recalibration: the
    /// new engine is built and calibrated *off-path*, then installed here in
    /// one pointer swap.
    pub fn swap_engine(&self, engine: Arc<ReleaseEngine>) -> Arc<ReleaseEngine> {
        // An attached ε ledger records the swap: an auditor replaying the
        // ledger can see exactly which releases were served before and after
        // a recalibration.
        if let Some(ledger) = self.budget.ledger() {
            ledger.record(LedgerEventKind::Recalibration, "", 0, engine.kind(), 0.0, 0);
        }
        // The incoming engine inherits the service's instrumentation. The
        // slot is read under the write lock, so a concurrent
        // `enable_telemetry` either is seen here or reads the engine after
        // this swap and enables the new one itself.
        let mut current = self.serving.engine.write().expect("engine lock poisoned");
        if let Some(watch) = self.serving.telemetry.get() {
            engine.enable_telemetry(watch.registry());
        }
        std::mem::replace(&mut *current, engine)
    }

    /// Attaches live instrumentation: the engine's cache counters register
    /// against the telemetry's registry, and every request admitted from
    /// now on is counted and timed through admission, queue-wait, engine
    /// and mechanism (plus a flight-recorder trace when the telemetry
    /// carries a recorder). Events before attaching are not back-filled.
    ///
    /// The slot is **write-once**, like
    /// [`BudgetAccountant::attach_ledger`] and
    /// [`ReleaseEngine::enable_telemetry`]: the first call wins and returns
    /// `true`; later calls return `false` and change nothing, so the
    /// service's stages and the engine's counters always land in one
    /// registry.
    pub fn enable_telemetry(&self, telemetry: Arc<ServiceTelemetry>) -> bool {
        let registry = Arc::clone(telemetry.registry());
        if self.serving.telemetry.set(telemetry).is_err() {
            return false;
        }
        self.engine().enable_telemetry(&registry);
        true
    }

    /// Attaches the observer every later successful release is reported
    /// to. Observation is on the worker release path; see
    /// [`ReleaseObserver`] for the cost contract.
    ///
    /// The slot is **write-once**, like
    /// [`BudgetAccountant::attach_ledger`]: the first call wins and returns
    /// `true`; later calls return `false` and leave the first observer in
    /// place, so a monitor never silently stops seeing releases.
    pub fn set_observer(&self, observer: Arc<dyn ReleaseObserver>) -> bool {
        self.serving.observer.set(observer).is_ok()
    }

    /// One observability snapshot of the whole service: engine cache
    /// counters, queue occupancy, fulfilment count and budget spend (see
    /// [`ServiceStats`] for the cross-field consistency contract).
    pub fn stats(&self) -> ServiceStats {
        let engine = self.engine();
        ServiceStats {
            cache: engine.stats(),
            cached_calibrations: engine.len(),
            queue_depth: self.serving.queue.len(),
            queue_capacity: self.serving.queue.capacity(),
            queue_refusals: self.serving.queue.refusals(),
            queue_high_water: self.serving.queue.high_water(),
            served: self.served(),
            users: self.budget.users(),
            spent_epsilon: self.budget.total_spent(),
            // The release front-end never probes a scale index.
            indexed_probe_misses: 0,
            snapshot: self.warm_start.map(|warm| crate::SnapshotInfo {
                age_secs: unix_now().saturating_sub(warm.created_unix_secs),
                entries: warm.entries,
                bytes: warm.bytes,
            }),
            monitor: self
                .serving
                .observer
                .get()
                .map(|observer| observer.monitor_stats()),
        }
    }

    /// The per-user budget ledger.
    pub fn budget(&self) -> &BudgetAccountant {
        &self.budget
    }

    /// Release requests fulfilled so far (successfully or not); tasks are
    /// not counted.
    pub fn served(&self) -> u64 {
        self.serving.served.load(Ordering::Relaxed)
    }

    /// Releases and tasks admitted and not yet taken: queued for a worker,
    /// or held by a caller that serves them itself
    /// ([`ReleaseService::try_submit_or_hold`]). The queue capacity bounds
    /// this count.
    pub fn pending(&self) -> usize {
        self.serving.queue.len()
    }

    /// Graceful shutdown: refuses new submissions, lets the workers drain
    /// every queued request and task, and joins the pool.
    pub fn shutdown(mut self) {
        self.serving.queue.close();
        if let Some(pool) = self.pool.take() {
            pool.join();
        }
    }
}

impl Drop for ReleaseService {
    /// Same handshake as [`ReleaseService::shutdown`], for services that are
    /// simply dropped.
    fn drop(&mut self) {
        self.serving.queue.close();
        self.pool.take();
    }
}

impl std::fmt::Debug for ReleaseService {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReleaseService")
            .field("engine", &self.engine())
            .field("pending", &self.pending())
            .field("served", &self.served())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pufferfish_core::engine::MqmApproxCalibrator;
    use pufferfish_core::queries::StateFrequencyQuery;
    use pufferfish_core::MqmApproxOptions;
    use pufferfish_markov::IntervalClassBuilder;

    fn test_engine() -> Arc<ReleaseEngine> {
        let class = IntervalClassBuilder::symmetric(0.4)
            .grid_points(2)
            .build()
            .unwrap();
        ReleaseEngine::shared(MqmApproxCalibrator::new(
            class,
            60,
            MqmApproxOptions::default(),
        ))
    }

    fn request(user: &str, epsilon: f64, seed: u64) -> ReleaseRequest {
        ReleaseRequest {
            user: user.to_string(),
            query: Arc::new(StateFrequencyQuery::new(1, 60)),
            database: (0..60).map(|t| t % 2).collect(),
            epsilon,
            seed,
        }
    }

    #[test]
    fn serves_requests_and_tracks_budget() {
        let service = ReleaseService::start(
            test_engine(),
            ServiceConfig {
                workers: Parallelism::Threads(2),
                queue_capacity: 16,
                per_user_epsilon: 1.0,
            },
        )
        .unwrap();

        let release = service.release(request("alice", 0.4, 7)).unwrap();
        assert_eq!(release.values.len(), 1);
        assert!((service.budget().spent("alice") - 0.4).abs() < 1e-12);

        // Same seed, same key: the response is bit-for-bit reproducible and
        // served from the calibration cache.
        let again = service.release(request("alice", 0.4, 7)).unwrap();
        assert_eq!(release.values, again.values);
        let stats = service.engine().stats();
        assert_eq!(stats.misses, 1);
        assert_eq!(service.served(), 2);
        service.shutdown();
    }

    #[test]
    fn budget_exhaustion_is_refused_at_admission() {
        let service = ReleaseService::start(
            test_engine(),
            ServiceConfig {
                workers: Parallelism::Threads(1),
                queue_capacity: 4,
                per_user_epsilon: 1.0,
            },
        )
        .unwrap();
        service.release(request("bob", 0.6, 1)).unwrap();
        let refused = service.submit(request("bob", 0.6, 2));
        assert!(matches!(refused, Err(ServiceError::BudgetExhausted { .. })));
        // The refused request consumed nothing beyond the first release.
        assert!((service.budget().spent("bob") - 0.6).abs() < 1e-12);
        service.shutdown();
    }

    #[test]
    fn queue_full_rolls_the_spend_back() {
        // A service whose single worker is blocked behind slow jobs will
        // refuse try_submit once the queue is at capacity — and the refused
        // request must not consume budget.
        let service = ReleaseService::start(
            test_engine(),
            ServiceConfig {
                workers: Parallelism::Threads(1),
                queue_capacity: 1,
                per_user_epsilon: 100.0,
            },
        )
        .unwrap();
        let mut tickets = Vec::new();
        let mut refusals = 0;
        // Submit aggressively; with a capacity-1 queue some must be refused.
        for seed in 0..200 {
            match service.try_submit(request("carol", 0.1, seed)) {
                Ok(ticket) => tickets.push(ticket),
                Err(ServiceError::QueueFull { capacity }) => {
                    assert_eq!(capacity, 1);
                    refusals += 1;
                }
                Err(other) => panic!("unexpected error: {other}"),
            }
        }
        let admitted = tickets.len();
        for ticket in tickets {
            ticket.wait().unwrap();
        }
        assert_eq!(admitted + refusals, 200);
        // Budget reflects only admitted requests.
        assert!((service.budget().spent("carol") - 0.1 * admitted as f64).abs() < 1e-9);
        assert_eq!(service.served(), admitted as u64);
        service.shutdown();
    }

    type Outcome = Result<NoisyRelease, ServiceError>;

    /// A reply that forwards its outcome into a channel: one message and
    /// then a disconnect means it was called once; a bare disconnect means
    /// it was dropped uncalled.
    fn recorder() -> (
        impl FnOnce(Outcome, Option<RequestTrace>) + Send + 'static,
        std::sync::mpsc::Receiver<Outcome>,
    ) {
        let (tx, rx) = std::sync::mpsc::channel();
        // A failed send means the test already failed and dropped `rx`;
        // panicking here, possibly inside a drop guard, would abort.
        (
            move |outcome, _trace| {
                let _ = tx.send(outcome);
            },
            rx,
        )
    }

    /// Admits and queues `request` exactly as `try_submit_or_hold` does a
    /// release whose calibration is not cached, so `reply` answers it
    /// whatever the cache holds.
    fn submit_cold(
        service: &ReleaseService,
        request: ReleaseRequest,
        trace: Option<RequestTrace>,
        reply: impl FnOnce(Outcome, Option<RequestTrace>) + Send + 'static,
    ) -> Result<(), ServiceError> {
        service
            .admit(request, trace, BoundedQueue::try_hold)?
            .queue(Reply::Call(Box::new(reply)));
        Ok(())
    }

    /// The outcome a reply was called with. Waits at most 10 s, so a job
    /// that nobody serves fails the test instead of hanging it.
    fn called_once(rx: &std::sync::mpsc::Receiver<Outcome>) -> Outcome {
        let outcome = rx
            .recv_timeout(std::time::Duration::from_secs(10))
            .expect("the reply was dropped uncalled or never called");
        assert!(rx.recv().is_err(), "the reply answered twice");
        outcome
    }

    /// Holds the worker that evaluates it until the test opens the gate.
    struct GatedQuery {
        entered: Mutex<std::sync::mpsc::Sender<()>>,
        gate: Mutex<std::sync::mpsc::Receiver<()>>,
    }

    impl LipschitzQuery for GatedQuery {
        fn lipschitz_constant(&self) -> f64 {
            1.0 / 60.0
        }
        fn output_dimension(&self) -> usize {
            1
        }
        fn expected_length(&self) -> usize {
            60
        }
        fn evaluate(&self, database: &[usize]) -> pufferfish_core::Result<Vec<f64>> {
            self.entered.lock().unwrap().send(()).unwrap();
            self.gate.lock().unwrap().recv().unwrap();
            StateFrequencyQuery::new(1, 60).evaluate(database)
        }
        fn name(&self) -> &str {
            "gated"
        }
    }

    #[test]
    fn reply_is_called_once_and_a_refused_reply_never() {
        let service = ReleaseService::start(
            test_engine(),
            ServiceConfig {
                workers: Parallelism::Threads(1),
                queue_capacity: 1,
                per_user_epsilon: 10.0,
            },
        )
        .unwrap();
        let (reply, served) = recorder();
        submit_cold(&service, request("rita", 0.1, 1), None, reply).unwrap();
        assert_eq!(called_once(&served).unwrap().values.len(), 1);

        // Hold the only worker inside a release and fill the one queue
        // slot: the next submission is refused, and its reply with it.
        let (entered_tx, entered) = std::sync::mpsc::channel();
        let (open, gate) = std::sync::mpsc::channel();
        let gated = ReleaseRequest {
            query: Arc::new(GatedQuery {
                entered: Mutex::new(entered_tx),
                gate: Mutex::new(gate),
            }),
            ..request("rita", 0.1, 2)
        };
        let (reply, held) = recorder();
        submit_cold(&service, gated, None, reply).unwrap();
        entered.recv().unwrap();
        let (reply, queued) = recorder();
        submit_cold(&service, request("rita", 0.1, 3), None, reply).unwrap();
        let (reply, refused) = recorder();
        assert!(matches!(
            submit_cold(&service, request("rita", 0.1, 4), None, reply),
            Err(ServiceError::QueueFull { capacity: 1 })
        ));
        assert!(
            matches!(
                refused.try_recv(),
                Err(std::sync::mpsc::TryRecvError::Disconnected)
            ),
            "a refused submission's reply is dropped uncalled"
        );
        assert!(
            (service.budget().spent("rita") - 0.3).abs() < 1e-12,
            "the refused spend is refunded"
        );
        open.send(()).unwrap();
        called_once(&held).unwrap();
        called_once(&queued).unwrap();
        service.shutdown();

        // A job that panics is answered once with ServiceClosed, and its
        // worker, the only one, lives on to serve the next job.
        let service = ReleaseService::start(
            test_engine(),
            ServiceConfig {
                workers: Parallelism::Threads(1),
                queue_capacity: 4,
                per_user_epsilon: 10.0,
            },
        )
        .unwrap();
        let (reply, panicked) = recorder();
        let panicking = ReleaseRequest {
            query: Arc::new(PanickingQuery),
            ..request("rita", 0.1, 5)
        };
        submit_cold(&service, panicking, None, reply).unwrap();
        assert!(matches!(
            called_once(&panicked),
            Err(ServiceError::ServiceClosed)
        ));
        let (reply, next) = recorder();
        submit_cold(&service, request("rita", 0.1, 6), None, reply).unwrap();
        assert_eq!(called_once(&next).unwrap().values.len(), 1);
        service.shutdown();
    }

    #[test]
    fn stats_surface_queue_refusals_and_high_water() {
        let service = ReleaseService::start(
            test_engine(),
            ServiceConfig {
                workers: Parallelism::Threads(1),
                queue_capacity: 1,
                per_user_epsilon: 100.0,
            },
        )
        .unwrap();
        let mut tickets = Vec::new();
        let mut refused = 0u64;
        for seed in 0..100 {
            match service.try_submit(request("hw", 0.1, seed)) {
                Ok(ticket) => tickets.push(ticket),
                Err(ServiceError::QueueFull { .. }) => refused += 1,
                Err(other) => panic!("unexpected error: {other}"),
            }
        }
        for ticket in tickets {
            ticket.wait().unwrap();
        }
        let stats = service.stats();
        assert_eq!(stats.queue_refusals, refused);
        assert!(refused > 0, "capacity-1 queue must refuse some submissions");
        assert_eq!(stats.queue_high_water, 1);
        let rendered = stats.to_string();
        assert!(rendered.contains(&format!("refused {refused}")));
        service.shutdown();
    }

    #[test]
    fn shutdown_drains_queued_requests() {
        let service = ReleaseService::start(
            test_engine(),
            ServiceConfig {
                workers: Parallelism::Threads(2),
                queue_capacity: 32,
                per_user_epsilon: 100.0,
            },
        )
        .unwrap();
        let tickets: Vec<Ticket> = (0..20)
            .map(|seed| service.submit(request("dave", 0.1, seed)).unwrap())
            .collect();
        service.shutdown();
        for ticket in tickets {
            assert!(ticket.wait().is_ok());
        }
    }

    struct PanickingQuery;

    impl LipschitzQuery for PanickingQuery {
        fn lipschitz_constant(&self) -> f64 {
            1.0 / 60.0
        }
        fn output_dimension(&self) -> usize {
            1
        }
        fn expected_length(&self) -> usize {
            60
        }
        fn evaluate(&self, _database: &[usize]) -> pufferfish_core::Result<Vec<f64>> {
            panic!("query bug")
        }
        fn name(&self) -> &str {
            "panicking"
        }
    }

    #[test]
    fn worker_panic_does_not_hang_the_ticket() {
        let service = ReleaseService::start(
            test_engine(),
            ServiceConfig {
                workers: Parallelism::Threads(2),
                queue_capacity: 8,
                per_user_epsilon: 10.0,
            },
        )
        .unwrap();
        let ticket = service
            .submit(ReleaseRequest {
                user: "p".to_string(),
                query: Arc::new(PanickingQuery),
                database: vec![0; 60],
                epsilon: 0.5,
                seed: 1,
            })
            .unwrap();
        // The worker panics mid-release; the job's drop guard must wake the
        // waiter instead of leaving it blocked forever.
        assert!(matches!(ticket.wait(), Err(ServiceError::ServiceClosed)));
        // Both workers keep serving.
        let release = service.release(request("p", 0.5, 2)).unwrap();
        assert_eq!(release.values.len(), 1);
        // The panic stayed inside the job: joining the workers finds none.
        service.shutdown();
    }

    #[test]
    fn a_panicking_calibration_does_not_wedge_the_surviving_worker() {
        use pufferfish_core::engine::FnCalibrator;
        use pufferfish_core::{Mechanism, MqmApprox};
        use std::sync::atomic::AtomicUsize;
        use std::sync::mpsc;

        let calls = Arc::new(AtomicUsize::new(0));
        let counted = Arc::clone(&calls);
        let class = IntervalClassBuilder::symmetric(0.4)
            .grid_points(2)
            .build()
            .unwrap();
        let engine = ReleaseEngine::shared(FnCalibrator::class_scoped(
            "panicky",
            13,
            move |_q, budget| {
                if counted.fetch_add(1, Ordering::SeqCst) == 0 {
                    panic!("calibrator bug");
                }
                Ok(Arc::new(MqmApprox::calibrate(
                    &class,
                    60,
                    budget,
                    MqmApproxOptions::default(),
                )?) as Arc<dyn Mechanism>)
            },
        ));
        let service = ReleaseService::start(
            engine,
            ServiceConfig {
                workers: Parallelism::Threads(2),
                queue_capacity: 8,
                per_user_epsilon: 10.0,
            },
        )
        .unwrap();
        // The first release panics mid-calibration; its worker lives on.
        assert!(matches!(
            service.release(request("p", 0.5, 1)),
            Err(ServiceError::ServiceClosed)
        ));
        // The next release calibrates the same key again instead of
        // waiting on the panicked leader: nothing is cached, so it is queued.
        let (reply_tx, reply_rx) = mpsc::channel();
        let reply = move |result, _trace| {
            let _ = reply_tx.send(result);
        };
        assert!(matches!(
            service.try_submit_or_hold(request("p", 0.5, 2), None, reply),
            Ok(None)
        ));
        let Ok(reply) = reply_rx.recv_timeout(std::time::Duration::from_secs(10)) else {
            // Dropping the service would join the wedged worker.
            std::mem::forget(service);
            panic!("the second release is wedged behind the panicked calibration");
        };
        assert_eq!(reply.unwrap().values.len(), 1);
        assert_eq!(calls.load(Ordering::SeqCst), 2);
        assert_eq!(service.engine().stats().misses, 1);
        drop(service);
    }

    fn one_worker(queue_capacity: usize) -> ReleaseService {
        ReleaseService::start(
            test_engine(),
            ServiceConfig {
                workers: Parallelism::Threads(1),
                queue_capacity,
                per_user_epsilon: 10.0,
            },
        )
        .unwrap()
    }

    /// Queues a task that holds the worker running it until the returned
    /// sender is used or dropped; returns once a worker has taken it.
    fn hold_the_worker(service: &ReleaseService) -> std::sync::mpsc::Sender<()> {
        let (entered_tx, entered) = std::sync::mpsc::channel();
        let (open, gate) = std::sync::mpsc::channel::<()>();
        service
            .try_spawn(move || {
                entered_tx.send(()).unwrap();
                let _ = gate.recv();
            })
            .unwrap();
        entered.recv().unwrap();
        open
    }

    #[test]
    fn a_panicking_task_leaves_the_worker_serving_releases_and_tasks() {
        let service = one_worker(4);
        service.try_spawn(|| panic!("task bug")).unwrap();
        let (reply, released) = recorder();
        assert!(
            matches!(
                service.try_submit_or_hold(request("tom", 0.1, 1), None, reply),
                Ok(None)
            ),
            "nothing is cached yet, so the release is queued"
        );
        assert_eq!(called_once(&released).unwrap().values.len(), 1);
        let (done, ran) = std::sync::mpsc::channel();
        service.try_spawn(move || done.send(()).unwrap()).unwrap();
        ran.recv_timeout(std::time::Duration::from_secs(10))
            .expect("the second task never ran");
        // Tasks are charged nothing and served() counts the release only.
        assert_eq!(service.served(), 1);
        assert_eq!(service.stats().served, 1);
        assert!((service.budget().total_spent() - 0.1).abs() < 1e-12);
        service.shutdown();
    }

    #[test]
    fn a_warm_release_is_held_against_the_capacity_and_served_like_a_job() {
        let service = one_worker(1);
        // Cold: queued for the worker, whose reply answers it.
        let (reply, cold) = recorder();
        assert!(matches!(
            service.try_submit_or_hold(request("hal", 0.1, 1), None, reply),
            Ok(None)
        ));
        called_once(&cold).unwrap();

        // Warm: held for the caller, and the reply is dropped uncalled.
        let (reply, unused) = recorder();
        let held = service
            .try_submit_or_hold(request("hal", 0.1, 2), None, reply)
            .unwrap()
            .expect("a cached calibration is held");
        assert!(matches!(
            unused.try_recv(),
            Err(std::sync::mpsc::TryRecvError::Disconnected)
        ));
        // The held place fills the 1-deep queue: the next admission is
        // refused and refunded, held or queued alike.
        assert_eq!(service.pending(), 1);
        let (reply, _refused) = recorder();
        assert!(matches!(
            service.try_submit_or_hold(request("hal", 0.1, 3), None, reply),
            Err(ServiceError::QueueFull { capacity: 1 })
        ));
        assert!(matches!(
            service.try_submit(request("hal", 0.1, 4)),
            Err(ServiceError::QueueFull { capacity: 1 })
        ));
        assert!((service.budget().spent("hal") - 0.2).abs() < 1e-12);

        // Served on this thread, bitwise as a worker serves the same seed.
        let (served, trace) = held.serve();
        assert!(trace.is_none(), "without telemetry no trace is made up");
        let reference = service.release(request("ref", 0.1, 2)).unwrap();
        assert_eq!(served.unwrap().values, reference.values);
        let stats = service.stats();
        assert_eq!((stats.queue_depth, stats.queue_high_water), (0, 1));
        assert_eq!((stats.queue_refusals, stats.served), (2, 3));
        assert_eq!(stats.cache.misses, 1);

        // A panic while serving is answered ServiceClosed and gives the
        // place back.
        let panicking = ReleaseRequest {
            query: Arc::new(PanickingQuery),
            ..request("hal", 0.1, 5)
        };
        let (reply, _unused) = recorder();
        let held = service
            .try_submit_or_hold(panicking, None, reply)
            .unwrap()
            .expect("the class-scoped calibration is cached");
        assert!(matches!(held.serve().0, Err(ServiceError::ServiceClosed)));
        assert_eq!(service.pending(), 0);
        assert_eq!(service.served(), 3);
        service.shutdown();
    }

    #[test]
    fn a_task_refused_by_a_full_queue_never_runs() {
        let service = one_worker(1);
        let open = hold_the_worker(&service);
        let (done, ran) = std::sync::mpsc::channel();
        let queued = done.clone();
        service
            .try_spawn(move || queued.send("queued").unwrap())
            .unwrap();
        assert!(matches!(
            service.try_spawn(move || done.send("refused").unwrap()),
            Err(ServiceError::QueueFull { capacity: 1 })
        ));
        // The queue refuses a release behind the task as well.
        assert!(matches!(
            service.try_submit(request("una", 0.1, 1)),
            Err(ServiceError::QueueFull { capacity: 1 })
        ));
        let stats = service.stats();
        assert_eq!(stats.queue_depth, 1);
        assert_eq!(stats.queue_refusals, 2);
        assert_eq!(stats.queue_high_water, 1);
        open.send(()).unwrap();
        service.shutdown();
        // Every sender is gone: the queued task ran once, the refused one
        // was dropped without running.
        assert_eq!(ran.iter().collect::<Vec<_>>(), vec!["queued"]);
    }

    #[test]
    fn the_queue_depth_gauge_counts_queued_tasks() {
        use pufferfish_telemetry::Registry;

        let service = one_worker(4);
        let telemetry = Arc::new(ServiceTelemetry::new(Arc::new(Registry::new())));
        service.enable_telemetry(Arc::clone(&telemetry));
        let open = hold_the_worker(&service);
        let (seen_tx, seen) = std::sync::mpsc::channel();
        service
            .try_spawn(move || seen_tx.send(telemetry.queue_depth().get()).unwrap())
            .unwrap();
        service.try_spawn(|| {}).unwrap();
        open.send(()).unwrap();
        // Taking the first queued task left the second one behind it.
        let depth = seen.recv_timeout(std::time::Duration::from_secs(10));
        assert_eq!(depth.unwrap(), 1);
        service.shutdown();
    }

    #[test]
    fn a_task_queued_before_shutdown_runs_before_shutdown_returns() {
        let service = one_worker(4);
        let open = hold_the_worker(&service);
        let ran = Arc::new(AtomicU64::new(0));
        for _ in 0..2 {
            let ran = Arc::clone(&ran);
            service
                .try_spawn(move || {
                    ran.fetch_add(1, Ordering::SeqCst);
                })
                .unwrap();
        }
        let ticket = service.submit(request("vic", 0.1, 1)).unwrap();
        open.send(()).unwrap();
        service.shutdown();
        assert_eq!(ran.load(Ordering::SeqCst), 2);
        assert_eq!(ticket.wait().unwrap().values.len(), 1);
    }

    #[test]
    fn warm_start_restores_the_cache_without_calibrating() {
        let dir = std::env::temp_dir().join(format!(
            "pufferfish-warm-start-{}-{}",
            std::process::id(),
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .unwrap()
                .as_nanos()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("engine.pfsnap");

        // Cold service: pay the calibration, answer one request, checkpoint.
        let cold = ReleaseService::start(test_engine(), ServiceConfig::default()).unwrap();
        let reference = cold.release(request("alice", 0.4, 11)).unwrap();
        assert_eq!(cold.engine().stats().misses, 1);
        assert!(cold.stats().snapshot.is_none());
        let bytes = cold.save_snapshot(&path).unwrap();
        assert!(bytes > 0);
        cold.shutdown();

        // Warm service: zero calibrations, bitwise-identical response.
        let warm =
            ReleaseService::warm_start(test_engine(), ServiceConfig::default(), &path).unwrap();
        let replay = warm.release(request("alice", 0.4, 11)).unwrap();
        assert_eq!(replay.values, reference.values);
        assert_eq!(replay.scale.to_bits(), reference.scale.to_bits());
        let stats = warm.stats();
        assert_eq!(stats.cache.misses, 0, "warm start must not calibrate");
        let info = stats.snapshot.expect("warm start must report provenance");
        assert_eq!(info.entries, 1);
        assert_eq!(info.bytes, bytes);
        warm.shutdown();

        // A missing file is a typed error, never a silent cold start.
        let missing = ReleaseService::warm_start(
            test_engine(),
            ServiceConfig::default(),
            dir.join("nope.pfsnap"),
        );
        assert!(matches!(
            missing,
            Err(ServiceError::Mechanism(PufferfishError::Snapshot(
                pufferfish_core::SnapshotError::Io(_)
            )))
        ));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn telemetry_traces_stages_and_ledger_audits_bitwise() {
        use crate::audit_ledger;
        use pufferfish_telemetry::{EpsilonLedger, FlightRecorder, Registry};

        let service = ReleaseService::start(
            test_engine(),
            ServiceConfig {
                workers: Parallelism::Threads(2),
                queue_capacity: 16,
                per_user_epsilon: 1.0,
            },
        )
        .unwrap();
        let registry = Arc::new(Registry::new());
        // Threshold 0: every request is "slow", so the recorder sees all.
        let recorder = Arc::new(FlightRecorder::new(8, 0));
        let telemetry = Arc::new(ServiceTelemetry::with_recorder(
            Arc::clone(&registry),
            Arc::clone(&recorder),
        ));
        service.enable_telemetry(Arc::clone(&telemetry));
        let ledger = Arc::new(EpsilonLedger::new());
        service.budget().attach_ledger(Arc::clone(&ledger));

        // Two served releases, one budget refusal.
        service.release(request("alice", 0.4, 1)).unwrap();
        service.release(request("alice", 0.4, 2)).unwrap();
        assert!(matches!(
            service.submit(request("alice", 0.4, 3)),
            Err(ServiceError::BudgetExhausted { .. })
        ));

        // Deterministic noise is unchanged by instrumentation: a fresh
        // uninstrumented service answers the same request identically.
        let plain = ReleaseService::start(test_engine(), ServiceConfig::default()).unwrap();
        let reference = plain.release(request("ref", 0.4, 1)).unwrap();
        let traced = service.release(request("bob", 0.4, 1)).unwrap();
        assert_eq!(traced.values, reference.values);
        plain.shutdown();

        // Stage histograms: the worker recorded queue-wait, engine and
        // mechanism for each of the three served releases.
        let text = registry.render_text();
        assert!(text.contains("stage_queue_wait_ns histogram count=3"));
        assert!(text.contains("stage_engine_ns histogram count=3"));
        assert!(text.contains("stage_mechanism_ns histogram count=3"));
        assert!(text.contains("service_admitted_total counter 3"));
        assert!(text.contains("service_refused_total counter 1"));
        // The engine registered its counters against the same registry.
        assert!(text.contains("engine_mqm_approx_cache_hits_total counter 2"));
        assert!(text.contains("engine_mqm_approx_releases_total counter 3"));

        // The flight recorder captured every in-process trace, with the
        // worker stages filled in.
        assert_eq!(recorder.observed(), 3);
        let reports = recorder.reports();
        assert_eq!(reports.len(), 3);
        for report in &reports {
            assert!(report.total_ns > 0);
        }

        // The ledger audits bitwise against the live accountant: 3 charges,
        // 1 refusal.
        let report = audit_ledger(&ledger.to_bytes(), service.budget()).unwrap();
        assert_eq!(report.events, 4);
        assert_eq!(
            report.total.to_bits(),
            service.budget().total_spent().to_bits()
        );
        // The charges carry their audit tags.
        let events = EpsilonLedger::replay(&ledger.to_bytes()).unwrap();
        assert_eq!(events[0].family, "mqm-approx");
        assert_eq!(
            events[0].query_sig,
            query_signature(request("alice", 0.4, 1).query.name())
        );
        assert_eq!(events[0].seq, 1);

        // An engine swap is recorded as a recalibration event and the new
        // engine inherits the instrumentation.
        service.swap_engine(test_engine());
        let events = EpsilonLedger::replay(&ledger.to_bytes()).unwrap();
        let last = events.last().unwrap();
        assert_eq!(last.kind, LedgerEventKind::Recalibration);
        assert_eq!(last.family, "mqm-approx");
        service.release(request("carol", 0.4, 9)).unwrap();
        let text = registry.render_text();
        // 2 misses now: one per engine (the swap emptied the cache).
        assert!(text.contains("engine_mqm_approx_cache_misses_total counter 2"));
        // The audit still passes across the swap.
        audit_ledger(&ledger.to_bytes(), service.budget()).unwrap();
        service.shutdown();
    }

    #[test]
    fn a_callback_gets_its_trace_back_lapped_only_with_telemetry() {
        use pufferfish_telemetry::{FlightRecorder, Registry};

        let service = ReleaseService::start(
            test_engine(),
            ServiceConfig {
                workers: Parallelism::Threads(1),
                queue_capacity: 4,
                per_user_epsilon: 10.0,
            },
        )
        .unwrap();
        let submit = |trace: Option<RequestTrace>, seed: u64| {
            let (tx, rx) = std::sync::mpsc::channel();
            submit_cold(
                &service,
                request("tia", 0.1, seed),
                trace,
                move |outcome, trace| {
                    let _ = tx.send((outcome, trace));
                },
            )
            .unwrap();
            let (outcome, trace) = rx.recv().unwrap();
            outcome.unwrap();
            trace
        };
        let mut decoded = RequestTrace::new(41);
        decoded.record(Stage::Decode, 500);

        // Without telemetry the caller's trace comes back untouched, and
        // no trace is made up for a caller without one.
        let untouched = submit(Some(decoded.clone()), 1).unwrap();
        assert_eq!(untouched.seq(), 41);
        assert_eq!(untouched.stage_nanos(), decoded.stage_nanos());
        assert!(submit(None, 2).is_none());

        let registry = Arc::new(Registry::new());
        let recorder = Arc::new(FlightRecorder::new(4, 0));
        service.enable_telemetry(Arc::new(ServiceTelemetry::with_recorder(
            Arc::clone(&registry),
            Arc::clone(&recorder),
        )));
        // With telemetry the trace carries the service's stages on top of
        // the caller's, and the caller, not the worker, finishes it.
        let lapped = submit(Some(decoded.clone()), 3).unwrap();
        assert_eq!(lapped.seq(), 41);
        assert_eq!(lapped.stage_nanos()[0], 500, "decode is the caller's");
        assert!(lapped.total_nanos() > 500);
        let started = submit(None, 4).expect("admission starts a trace");
        assert_eq!(started.seq(), 4);
        assert_eq!(recorder.observed(), 0);
        let text = registry.render_text();
        for stage in ["admission", "queue_wait", "engine", "mechanism"] {
            assert!(
                text.contains(&format!("stage_{stage}_ns histogram count=2")),
                "{text}"
            );
        }
        assert!(text.contains("stage_decode_ns histogram count=0"), "{text}");
        service.shutdown();
    }

    #[test]
    fn telemetry_is_write_once_so_stages_and_engine_share_one_registry() {
        use pufferfish_telemetry::{MetricValue, Registry};

        let service = ReleaseService::start(
            test_engine(),
            ServiceConfig {
                workers: Parallelism::Threads(1),
                queue_capacity: 4,
                per_user_epsilon: 1.0,
            },
        )
        .unwrap();
        let first = Arc::new(Registry::new());
        let second = Arc::new(Registry::new());
        assert!(service.enable_telemetry(Arc::new(ServiceTelemetry::new(Arc::clone(&first)))));
        assert!(!service.enable_telemetry(Arc::new(ServiceTelemetry::new(Arc::clone(&second)))));
        service.release(request("alice", 0.4, 1)).unwrap();

        // The service's stages and the engine's counters both land in the
        // first registry.
        let text = first.render_text();
        assert!(text.contains("stage_engine_ns histogram count=1"), "{text}");
        assert!(
            text.contains("engine_mqm_approx_releases_total counter 1"),
            "{text}"
        );
        // The refused registry holds only the handles its telemetry
        // registered at construction, and records nothing.
        for sample in second.snapshot() {
            let recorded = match sample.value {
                MetricValue::Counter(n) | MetricValue::Gauge(n) => n,
                MetricValue::Histogram(summary) => summary.count,
            };
            assert_eq!(
                recorded, 0,
                "{} recorded into the refused registry",
                sample.name
            );
        }
        assert!(!second.render_text().contains("engine_mqm_approx"));
        service.shutdown();
    }

    /// Counts the releases it sees, reported as noise tests.
    #[derive(Default)]
    struct CountingObserver(AtomicU64);

    impl ReleaseObserver for CountingObserver {
        fn observe_release(&self, _database: &[usize], _release: &NoisyRelease) {
            self.0.fetch_add(1, Ordering::Relaxed);
        }

        fn monitor_stats(&self) -> crate::MonitorStats {
            crate::MonitorStats {
                noise_tests: self.0.load(Ordering::Relaxed),
                ..crate::MonitorStats::default()
            }
        }
    }

    #[test]
    fn the_first_observer_wins_and_keeps_seeing_every_release() {
        let service = ReleaseService::start(
            test_engine(),
            ServiceConfig {
                workers: Parallelism::Threads(2),
                queue_capacity: 4,
                per_user_epsilon: 1.0,
            },
        )
        .unwrap();
        let first = Arc::new(CountingObserver::default());
        let second = Arc::new(CountingObserver::default());
        assert!(service.set_observer(Arc::clone(&first) as Arc<dyn ReleaseObserver>));
        service.release(request("olga", 0.1, 1)).unwrap();
        assert!(!service.set_observer(Arc::clone(&second) as Arc<dyn ReleaseObserver>));
        service.release(request("olga", 0.1, 2)).unwrap();
        service.release(request("olga", 0.1, 3)).unwrap();
        // Workers observe before they reply, so the counts are settled.
        assert_eq!(first.0.load(Ordering::Relaxed), 3);
        assert_eq!(second.0.load(Ordering::Relaxed), 0);
        assert_eq!(service.stats().monitor.unwrap().noise_tests, 3);
        service.shutdown();
    }

    #[test]
    fn mechanism_errors_reach_the_ticket() {
        let service = ReleaseService::start(
            test_engine(),
            ServiceConfig {
                workers: Parallelism::Threads(1),
                queue_capacity: 4,
                per_user_epsilon: 10.0,
            },
        )
        .unwrap();
        // Wrong database length: admission passes, the release itself fails.
        let mut bad = request("erin", 0.5, 3);
        bad.database = vec![0; 10];
        let result = service.release(bad);
        assert!(matches!(result, Err(ServiceError::Mechanism(_))));
        // The conservative budget rule: the failed release stays spent.
        assert!((service.budget().spent("erin") - 0.5).abs() < 1e-12);
        service.shutdown();
    }
}
