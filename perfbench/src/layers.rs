//! The traced run's in-process half: each workload's requests replayed
//! through the public entry points of every layer, each call timed as a
//! span from outside the program.
//!
//! A span records its name, start, end, parent and request id. Spans stay
//! in memory and are written out when the run ends; a layer's self time is
//! its span minus the part its children cover.

use std::collections::HashMap;
use std::io::Write;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use pufferfish_core::{Laplace, PrivacyBudget, ReleaseEngine};
use pufferfish_net::{decode_payload, encode, Envelope, Frame, DEFAULT_MAX_FRAME_LEN};
use pufferfish_query::{
    cell_seed, execute_plan, parse_statement, plan_statement, MechanismCatalog, MechanismKind,
    ProbeSource, QueryPlan,
};
use pufferfish_service::{
    BudgetAccountant, ProgressiveRelease, RefinementSchedule, RefinementStep, ReleaseRequest,
    ReleaseService, StreamBackend,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::gate::wire_result;
use crate::inputs::{
    class, release_budget, release_query, scoped_user, statement_query, Inputs, PROGRESSIVE_NAME,
    QUERY_EPSILON, QUERY_LENGTH, RELEASE_EPSILON,
};
use crate::stack::{schedule_steps, QUERY_PARALLELISM};
use crate::stats::{median, nanos, quantile};

/// One timed call.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// What was called (`layer.operation`).
    pub name: &'static str,
    /// Start, in nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// The request (counter) the span belongs to.
    pub request: u64,
}

impl Span {
    fn duration(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// An in-memory span recorder.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }
}

impl Tracer {
    fn now(&self) -> u64 {
        nanos(self.origin.elapsed())
    }

    /// Opens a root span for `request`.
    pub fn open(&mut self, name: &'static str, request: u64) -> usize {
        let start_ns = self.now();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: None,
            request,
        });
        self.spans.len() - 1
    }

    /// Closes span `id`.
    pub fn close(&mut self, id: usize) {
        self.spans[id].end_ns = self.now();
    }

    /// Runs `call` as a child span of `parent`.
    pub fn child<T>(&mut self, name: &'static str, parent: usize, call: impl FnOnce() -> T) -> T {
        let start_ns = self.now();
        let value = call();
        let end_ns = self.now();
        let request = self.spans[parent].request;
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent: Some(parent),
            request,
        });
        value
    }

    /// Records an already measured root span.
    pub fn record(&mut self, name: &'static str, request: u64, start: Instant, end: Instant) {
        let start_ns = nanos(start.saturating_duration_since(self.origin));
        let end_ns = nanos(end.saturating_duration_since(self.origin));
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent: None,
            request,
        });
    }

    fn child_sums(&self) -> Vec<u64> {
        let mut sums = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                sums[parent] += span.duration();
            }
        }
        sums
    }

    /// Self times (span minus children) of every span, by name.
    pub fn self_times(&self) -> HashMap<&'static str, Vec<u64>> {
        let sums = self.child_sums();
        let mut out: HashMap<&'static str, Vec<u64>> = HashMap::new();
        for (span, children) in self.spans.iter().zip(sums) {
            out.entry(span.name)
                .or_default()
                .push(span.duration().saturating_sub(children));
        }
        out
    }

    /// Median self time of `name` in nanoseconds (0 if never recorded).
    pub fn median_self(&self, name: &str) -> f64 {
        self.self_times().get(name).map_or(0.0, |v| median(v))
    }

    /// For every root span named `root`: the time its children account
    /// for. The rest of a wire request's latency is unattributed.
    pub fn attributed(&self, root: &str) -> Vec<u64> {
        let sums = self.child_sums();
        self.spans
            .iter()
            .zip(sums)
            .filter(|(span, _)| span.parent.is_none() && span.name == root)
            .map(|(_, children)| children)
            .collect()
    }

    /// Writes every span as one JSON object per line.
    ///
    /// # Errors
    /// I/O errors creating or writing the file.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, span) in self.spans.iter().enumerate() {
            let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\": {id}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \
                 \"parent\": {parent}, \"request\": {}}}",
                span.name, span.start_ns, span.end_ns, span.request
            )?;
        }
        out.flush()
    }
}

fn encode_frame(seq: u64, frame: Frame) -> Vec<u8> {
    encode(&Envelope { seq, frame }, DEFAULT_MAX_FRAME_LEN).expect("benchmark frames encode")
}

fn decode_frame(bytes: &[u8]) -> Envelope {
    decode_payload(&bytes[4..]).expect("benchmark frames decode")
}

/// Wire sizes of one request kind: request bytes in, response bytes out.
#[derive(Debug, Clone, Copy, Default)]
pub struct WireBytes {
    /// Request bytes the server reads.
    pub rx: usize,
    /// Response bytes the server writes.
    pub tx: usize,
}

/// Replays RELEASE requests: client encode → server decode → dispatch →
/// budget admission → warm engine release → response encode → client
/// decode. Returns the wire sizes of one request.
pub fn replay_releases(
    tracer: &mut Tracer,
    inputs: &Inputs,
    engine: &ReleaseEngine,
    budget: &BudgetAccountant,
    counters: impl Iterator<Item = u64>,
) -> WireBytes {
    let mut bytes = WireBytes::default();
    for counter in counters {
        let frame = inputs.release_frame(counter);
        let root = tracer.open("request.release", counter);
        let request = tracer.child("net.encode.release", root, || encode_frame(counter, frame));
        let envelope = tracer.child("net.decode.release", root, || decode_frame(&request));
        let Frame::Release {
            user,
            query,
            epsilon,
            seed,
            database,
        } = envelope.frame
        else {
            unreachable!("a RELEASE frame decodes to a RELEASE frame")
        };
        let (id, built, database) = tracer.child("net.dispatch.release", root, || {
            (
                scoped_user(user),
                query.build().expect("the wire query builds"),
                database.into_iter().map(usize::from).collect::<Vec<_>>(),
            )
        });
        tracer
            .child("service.admit.release", root, || {
                budget.try_spend(&id, epsilon)
            })
            .expect("the unlimited budget admits");
        let release = tracer
            .child("core.engine.release", root, || {
                let budget = PrivacyBudget::new(epsilon).expect("positive epsilon");
                let mut rng = StdRng::seed_from_u64(seed);
                engine.release(&*built, &database, budget, &mut rng)
            })
            .expect("the warm release succeeds");
        let response = tracer.child("net.encode.release_ok", root, || {
            encode_frame(
                counter,
                Frame::ReleaseOk {
                    scale: release.scale,
                    values: release.values,
                },
            )
        });
        tracer.child("net.decode.release_ok", root, || decode_frame(&response));
        tracer.close(root);
        bytes = WireBytes {
            rx: request.len(),
            tx: response.len(),
        };
    }
    bytes
}

/// What the QUERY replay observed besides its spans.
#[derive(Debug, Clone, Copy, Default)]
pub struct QueryReplay {
    /// Wire sizes of one QUERY.
    pub bytes: WireBytes,
    /// Planner probes answered from the scale index.
    pub indexed_probes: u64,
    /// Planner probes that produced a scale at all.
    pub successful_probes: u64,
}

/// Replays QUERY requests: encode → decode → parse → plan → budget
/// admission → morsel execution → response encode → decode.
pub fn replay_queries(
    tracer: &mut Tracer,
    inputs: &Inputs,
    catalog: &MechanismCatalog,
    budget: &BudgetAccountant,
    counters: impl Iterator<Item = u64>,
) -> QueryReplay {
    let table = inputs.table();
    let mut out = QueryReplay::default();
    for counter in counters {
        let frame = inputs.query_frame(counter);
        let root = tracer.open("request.query", counter);
        let request = tracer.child("net.encode.query", root, || encode_frame(counter, frame));
        let envelope = tracer.child("net.decode.query", root, || decode_frame(&request));
        let Frame::Query {
            user,
            statement,
            seed,
            ..
        } = envelope.frame
        else {
            unreachable!("a QUERY frame decodes to a QUERY frame")
        };
        let statement = tracer
            .child("query.parse", root, || parse_statement(&statement))
            .expect("the statement parses");
        let plan = tracer
            .child("query.plan", root, || {
                plan_statement(catalog, &statement, &table)
            })
            .expect("the statement plans");
        for probe in plan.probes() {
            if probe.outcome.is_ok() {
                out.successful_probes += 1;
                if matches!(probe.source, ProbeSource::Indexed { .. }) {
                    out.indexed_probes += 1;
                }
            }
        }
        let id = scoped_user(user);
        tracer
            .child("service.admit.query", root, || {
                budget.try_spend(&id, plan.total_epsilon())
            })
            .expect("the unlimited budget admits");
        let result = tracer
            .child("query.execute", root, || {
                execute_plan(&plan, seed, QUERY_PARALLELISM)
            })
            .expect("the plan executes");
        let response = tracer.child("net.encode.query_ok", root, || {
            encode_frame(counter, Frame::QueryOk(wire_result(&result)))
        });
        tracer.child("net.decode.query_ok", root, || decode_frame(&response));
        tracer.close(root);
        out.bytes = WireBytes {
            rx: request.len(),
            tx: response.len(),
        };
    }
    out
}

/// Replays PROGRESSIVE requests: encode → decode → schedule validation →
/// `ProgressiveRelease::begin` → streaming the window through the driver →
/// one REFINE_OK encode and decode per step.
pub fn replay_progressive(
    tracer: &mut Tracer,
    inputs: &Inputs,
    schedule: &RefinementSchedule,
    budget: &BudgetAccountant,
    counters: impl Iterator<Item = u64>,
) -> WireBytes {
    let class = class();
    let steps = schedule_steps(schedule);
    let mut bytes = WireBytes::default();
    for counter in counters {
        let frame = inputs.progressive_frame(counter, &steps);
        let root = tracer.open("request.progressive", counter);
        let request = tracer.child("net.encode.progressive", root, || {
            encode_frame(counter, frame)
        });
        let envelope = tracer.child("net.decode.progressive", root, || decode_frame(&request));
        let Frame::Progressive {
            user,
            confidence,
            seed,
            steps: wire_steps,
            database,
        } = envelope.frame
        else {
            unreachable!("a PROGRESSIVE frame decodes to a PROGRESSIVE frame")
        };
        let (id, schedule, database) = tracer.child("net.dispatch.progressive", root, || {
            let steps = wire_steps
                .iter()
                .map(|s| RefinementStep {
                    prefix: s.prefix as usize,
                    epsilon: s.epsilon,
                    error_bound: s.error_bound,
                })
                .collect();
            (
                scoped_user(user),
                RefinementSchedule::new(steps, confidence).expect("the ladder validates"),
                database.into_iter().map(usize::from).collect::<Vec<_>>(),
            )
        });
        let mut driver = tracer
            .child("service.progressive.begin", root, || {
                ProgressiveRelease::begin(
                    PROGRESSIVE_NAME,
                    &class,
                    schedule,
                    StreamBackend::MqmApprox,
                    budget,
                    &id,
                    seed,
                )
            })
            .expect("the unlimited budget admits the ladder");
        let updates = tracer.child("service.progressive.stream", root, || {
            database
                .iter()
                .filter_map(|&event| driver.push(event).expect("the window streams"))
                .collect::<Vec<_>>()
        });
        let mut tx = 0;
        for update in updates {
            let response = tracer.child("net.encode.refine_ok", root, || {
                encode_frame(
                    counter,
                    Frame::RefineOk {
                        step: update.step as u32,
                        total_steps: update.total_steps as u32,
                        prefix: update.prefix as u32,
                        scale: update.release.scale,
                        epsilon: update.epsilon,
                        certified_error: update.certified_error,
                        spent_epsilon: update.spent_epsilon,
                        values: update.release.values,
                    },
                )
            });
            tracer.child("net.decode.refine_ok", root, || decode_frame(&response));
            tx += response.len();
        }
        tracer.close(root);
        bytes = WireBytes {
            rx: request.len(),
            tx,
        };
    }
    bytes
}

/// `execute_plan` time over engine-direct `release_batch_refs` on the same
/// windows and per-cell seeds (medians over `reps`), plus whether both
/// produced bitwise-identical values.
pub fn exec_over_engine(
    catalog: &MechanismCatalog,
    plan: &QueryPlan,
    seed: u64,
    reps: usize,
) -> (f64, bool) {
    let engine = catalog
        .engine_for(plan.chosen(), QUERY_LENGTH)
        .expect("the chosen engine exists");
    let query = statement_query();
    let budget = PrivacyBudget::new(QUERY_EPSILON).expect("positive epsilon");
    let batch = plan.batch();
    let mut executor = Vec::with_capacity(reps);
    let mut direct = Vec::with_capacity(reps);
    let mut identical = true;
    for _ in 0..reps {
        let started = Instant::now();
        let planned = execute_plan(plan, seed, QUERY_PARALLELISM).expect("the plan executes");
        executor.push(nanos(started.elapsed()));

        let started = Instant::now();
        let releases: Vec<_> = (0..batch.num_cells())
            .map(|cell| {
                let windows: Vec<&[usize]> = batch
                    .cell_window_range(cell)
                    .map(|w| batch.window(w))
                    .collect();
                let mut rng = StdRng::seed_from_u64(cell_seed(seed, cell));
                engine
                    .release_batch_refs(&query, &windows, budget, &mut rng)
                    .expect("the direct release succeeds")
            })
            .collect();
        direct.push(nanos(started.elapsed()));

        identical &= planned.cells().iter().zip(&releases).all(|(cell, direct)| {
            cell.releases().len() == direct.len()
                && cell.releases().iter().zip(direct).all(|(a, b)| {
                    a.values
                        .iter()
                        .map(|v| v.to_bits())
                        .eq(b.values.iter().map(|v| v.to_bits()))
                })
        });
    }
    (median(&executor) / median(&direct), identical)
}

/// In-process `ReleaseService::submit` and `Ticket::wait` from one caller
/// keeping `depth` requests in flight. Records one `service.submit.d<depth>`
/// and one `service.wait.d<depth>` span per request, plus the round trip
/// (submit start → wait return) as `service.round_trip.d<depth>`.
pub fn service_round_trips(
    tracer: &mut Tracer,
    service: &ReleaseService,
    inputs: &Inputs,
    counters: impl Iterator<Item = u64>,
    depth: usize,
) -> Vec<u64> {
    let query: Arc<dyn pufferfish_core::LipschitzQuery> = Arc::new(release_query());
    let (submit, wait, round_trip) = if depth == 1 {
        (
            "service.submit.d1",
            "service.wait.d1",
            "service.round_trip.d1",
        )
    } else {
        (
            "service.submit.d32",
            "service.wait.d32",
            "service.round_trip.d32",
        )
    };
    let counters: Vec<u64> = counters.collect();
    let mut round_trips = Vec::with_capacity(counters.len());
    for chunk in counters.chunks(depth) {
        let requests: Vec<ReleaseRequest> = chunk
            .iter()
            .map(|&c| ReleaseRequest {
                user: scoped_user(inputs.user(c)),
                query: Arc::clone(&query),
                database: inputs.database(c).to_vec(),
                epsilon: RELEASE_EPSILON,
                seed: inputs.request_seed(c),
            })
            .collect();
        let mut tickets = Vec::with_capacity(depth);
        for (request, &counter) in requests.into_iter().zip(chunk) {
            let started = Instant::now();
            let ticket = service.submit(request).expect("the service admits");
            tracer.record(submit, counter, started, Instant::now());
            tickets.push((counter, started, ticket));
        }
        for (counter, started, ticket) in tickets {
            let waited = Instant::now();
            ticket.wait().expect("the warm release succeeds");
            let done = Instant::now();
            tracer.record(wait, counter, waited, done);
            tracer.record(round_trip, counter, started, done);
            round_trips.push(nanos(done.duration_since(started)));
        }
    }
    round_trips
}

/// Cold calibration of `kind` for the analyst statement's query at length
/// [`QUERY_LENGTH`] on a fresh catalog, in milliseconds (median of `reps`).
pub fn calibrate_ms(kind: MechanismKind, reps: usize) -> f64 {
    let query = statement_query();
    let budget = PrivacyBudget::new(QUERY_EPSILON).expect("positive epsilon");
    let times: Vec<u64> = (0..reps)
        .map(|_| {
            let catalog = MechanismCatalog::new(class());
            let started = Instant::now();
            catalog
                .engine_for(kind, QUERY_LENGTH)
                .expect("the family is registered")
                .mechanism(&query, budget)
                .expect("the family calibrates for this class");
            nanos(started.elapsed())
        })
        .collect();
    median(&times) / 1e6
}

/// `Laplace::sample_into` per value, in nanoseconds (median over `reps`
/// batches of 1024).
pub fn laplace_sample_ns(scale: f64, seed: u64, reps: usize) -> f64 {
    let laplace = Laplace::new(scale).expect("positive scale");
    let mut buffer = vec![0.0f64; 1024];
    let mut rng = StdRng::seed_from_u64(seed);
    let times: Vec<u64> = (0..reps)
        .map(|_| {
            let started = Instant::now();
            laplace.sample_into(&mut buffer, &mut rng);
            std::hint::black_box(&buffer);
            nanos(started.elapsed())
        })
        .collect();
    median(&times) / buffer.len() as f64
}

/// The warm release's noise scale (the Laplace row samples at it).
pub fn release_scale(engine: &ReleaseEngine) -> f64 {
    engine
        .mechanism(&release_query(), release_budget())
        .expect("warm")
        .noise_scale_for(&release_query())
}

/// p50 and p99 of the self times of span `name`.
pub fn p50_p99(tracer: &Tracer, name: &str) -> (f64, f64) {
    let times = tracer.self_times();
    let values = times.get(name).map(Vec::as_slice).unwrap_or(&[]);
    (quantile(values, 0.5), quantile(values, 0.99))
}
