//! One benchmark run: set-up, the measured wire phase, the correctness
//! gate, and — with tracing — the per-layer replays and the layer ladder.

use std::collections::HashSet;
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::{Duration, Instant};

use pufferfish_net::{NetClient, NetServer, NetServerConfig, WireMetricValue};
use pufferfish_query::{MechanismKind, QueryService, QueryServiceConfig};
use pufferfish_service::BudgetAccountant;

use crate::gate::{check_budget, check_queries, check_refinements, check_releases, sample_users};
use crate::inputs::{
    counter_base, Inputs, Workload, CONNECTIONS, HOT_USERS, PIPELINE, RELEASE_EPSILON, TENANT,
    UNLIMITED_EPSILON,
};
use crate::layers::{self, Tracer};
use crate::stack::{self, schedule_steps, Stack};
use crate::stats::{median, median_f64, peak_rss_mb, Reservoir};
use crate::wire::{
    initial_counters, run_phase, single_release, Counts, KindResult, Phase, RssCheckpoint, Stop,
};
use crate::Sizes;

/// The result of one run, printed as the benchmark's last line.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Every output passed the gate and no request failed.
    pub correct: bool,
    /// Requests sent.
    pub attempted: u64,
    /// Requests answered BUSY, BUDGET or ERROR, or with a wrong answer.
    pub failed: u64,
    /// `(name, value, unit)` of every reported metric.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Human-readable lines: environment, per-kind counts, ladder.
    pub report: Vec<String>,
}

impl Outcome {
    /// The result line: `correct`, `attempted`, `failed` and `metrics`.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                let value = if value.is_finite() { *value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

const KIND_NAMES: [&str; 3] = ["release", "query", "progressive"];

/// One slice of a run, kept whole so the run can pool the slices it
/// selects.
struct Slice {
    probe_ns: u64,
    steal: f64,
    ok: u64,
    seconds: f64,
    kinds: [KindResult; 3],
}

impl Slice {
    fn rps(&self) -> f64 {
        self.ok as f64 / self.seconds.max(1e-9)
    }

    fn latency(&self) -> Reservoir {
        pool(self.kinds.iter().map(|k| &k.latency))
    }
}

fn pool<'a>(reservoirs: impl Iterator<Item = &'a Reservoir>) -> Reservoir {
    let mut pooled = Reservoir::new(0);
    for reservoir in reservoirs {
        pooled.merge(reservoir);
    }
    pooled
}

/// Accumulates request outcomes, slices and gate verdicts over the phases
/// of a run.
struct Tally {
    counts: [Counts; 3],
    slices: Vec<Slice>,
    gate_ok: bool,
}

impl Tally {
    fn new() -> Self {
        Tally {
            counts: [Counts::default(); 3],
            slices: Vec::new(),
            gate_ok: true,
        }
    }

    fn add(&mut self, phase: &Phase) {
        let kinds = phase.kinds();
        for (total, kind) in self.counts.iter_mut().zip(&kinds) {
            total.add(&kind.counts);
        }
        self.slices.push(Slice {
            probe_ns: phase.probe_ns,
            steal: phase.steal,
            ok: phase.ok(),
            seconds: phase.seconds,
            kinds,
        });
    }

    /// The interquartile mean over slices of `figure` (slices where it is
    /// `None` are skipped): the mean of the middle half of the values.
    ///
    /// On a shared virtual machine the host steals CPU in bursts and moves
    /// the machine between physical cores, so single slices run fast or
    /// slow for reasons outside the program, and the program's own latency
    /// distribution changes shape from slice to slice. Dropping the top and
    /// bottom quarter keeps the outliers out without favouring either side,
    /// and averaging the rest uses every remaining slice. The same rule
    /// applies to every commit.
    fn iqm(&self, figure: impl Fn(&Slice) -> Option<f64>) -> f64 {
        let mut values: Vec<f64> = self.slices.iter().filter_map(figure).collect();
        values.sort_by(f64::total_cmp);
        let quarter = values.len() / 4;
        let middle = &values[quarter..values.len() - quarter];
        middle.iter().sum::<f64>() / middle.len().max(1) as f64
    }

    /// [`Tally::iqm`] of a latency quantile (ns) of request kind `kind`, or
    /// of every kind pooled when `kind` is `None`.
    fn latency(&self, kind: Option<usize>, q: f64) -> f64 {
        self.iqm(|slice| {
            let reservoir = match kind {
                Some(k) => slice.kinds[k].latency.clone(),
                None => slice.latency(),
            };
            (reservoir.count() > 0).then(|| reservoir.quantile(q))
        })
    }

    /// [`Tally::iqm`] of slice throughput.
    fn rps(&self) -> f64 {
        self.iqm(|slice| Some(slice.rps()))
    }

    /// How fast the host ran during the run relative to the reference:
    /// the interquartile mean of the slices' [`crate::stats::host_probe_ns`] over
    /// [`REFERENCE_PROBE_NS`]. Above 1 means a slow host.
    fn host_factor(&self) -> f64 {
        self.iqm(|s| Some(s.probe_ns as f64)) / REFERENCE_PROBE_NS
    }

    fn totals(&self) -> Counts {
        let mut total = Counts::default();
        for kind in &self.counts {
            total.add(kind);
        }
        total
    }

    fn report(&self, lines: &mut Vec<String>, label: &str) {
        for (k, name) in KIND_NAMES.iter().enumerate() {
            let c = self.counts[k];
            if c.attempted == 0 {
                continue;
            }
            let mut line = format!(
                "{label} {name}: attempted={} ok={} busy={} budget={} error={} wrong={} \
                 p50_us={:.1} p99_us={:.1}",
                c.attempted,
                c.ok,
                c.busy,
                c.budget,
                c.error,
                c.wrong,
                self.latency(Some(k), 0.5) / 1e3,
                self.latency(Some(k), 0.99) / 1e3,
            );
            if *name == "progressive" {
                let first = self.iqm(|s| {
                    let first = &s.kinds[k].first;
                    (first.count() > 0).then(|| first.quantile(0.5))
                });
                let _ = write!(line, " first_p50_us={:.1}", first / 1e3);
            }
            lines.push(line);
        }
        let per_slice = |f: &dyn Fn(&Slice) -> f64| {
            self.slices
                .iter()
                .map(|s| format!("{:.0}", f(s)))
                .collect::<Vec<_>>()
                .join(" ")
        };
        lines.push(format!("{label} slice_rps=[{}]", per_slice(&|s| s.rps())));
        lines.push(format!(
            "{label} slice_steal_pct=[{}]",
            per_slice(&|s| s.steal * 100.0)
        ));
        lines.push(format!(
            "{label} slice_probe_us=[{}]",
            per_slice(&|s| s.probe_ns as f64 / 1e3)
        ));
        lines.push(format!(
            "{label} slice_p50_us=[{}]",
            per_slice(&|s| s.latency().quantile(0.5) / 1e3)
        ));
        lines.push(format!(
            "{label} slice_p99_us=[{}]",
            per_slice(&|s| s.latency().quantile(0.99) / 1e3)
        ));
        let total = self.totals();
        lines.push(format!(
            "{label} failed_frac={} ({} of {} attempted) rps={:.1} (interquartile means over {} \
             slices)",
            total.failed() as f64 / total.attempted.max(1) as f64,
            total.failed(),
            total.attempted,
            self.rps(),
            self.slices.len(),
        ));
    }
}

/// What the gate re-derives answers with.
struct Reference {
    engine: Arc<pufferfish_core::ReleaseEngine>,
    replica: Option<QueryService>,
}

impl Reference {
    fn new(workload: Workload, inputs: &Inputs) -> Self {
        let replica = (workload == Workload::AnalystMix).then(|| {
            QueryService::start(
                stack::analyst_catalog(inputs).catalog,
                QueryServiceConfig {
                    per_user_epsilon: UNLIMITED_EPSILON,
                    parallelism: stack::QUERY_PARALLELISM,
                },
            )
            .expect("valid query config")
        });
        Reference {
            engine: stack::release_engine(),
            replica,
        }
    }
}

/// Runs the gate over every phase served by `stack`, folding wrong
/// answers into `tally` and clearing `tally.gate_ok` on any mismatch.
fn gate(
    tally: &mut Tally,
    workload: Workload,
    inputs: &Inputs,
    sizes: &Sizes,
    stack: &Stack,
    phases: &[&Phase],
    reference: &Reference,
) {
    let connections = phases.iter().flat_map(|p| p.connections.iter());
    let budget = stack.service.budget();
    if workload.is_release() {
        let mut acked = Vec::new();
        let mut wrong = 0;
        for conn in connections {
            let blocks = conn
                .blocks
                .as_ref()
                .expect("release connections keep digests");
            wrong += check_releases(
                inputs,
                &reference.engine,
                blocks,
                conn.next_counter,
                &conn.unacked,
            );
            let unacked: HashSet<u64> = conn.unacked.iter().copied().collect();
            acked.extend((conn.first_counter..conn.next_counter).filter(|c| !unacked.contains(c)));
        }
        let hot = workload == Workload::ReleaseHot;
        let sample = sample_users(inputs, &acked, 1024);
        let budget_ok = check_budget(
            inputs,
            budget,
            acked.into_iter(),
            &sample,
            if hot { sizes.hot_history } else { 0 },
            if hot { HOT_USERS } else { 0 },
            1,
            RELEASE_EPSILON,
        );
        tally.counts[0].wrong += wrong;
        tally.gate_ok &= wrong == 0 && budget_ok;
        return;
    }

    let schedule = stack
        .schedule
        .as_ref()
        .expect("the analyst stack has a ladder");
    let replica = reference
        .replica
        .as_ref()
        .expect("the analyst gate has a replica");
    let mut queries = Vec::new();
    let mut refinements = Vec::new();
    for conn in connections {
        queries.extend_from_slice(&conn.queries);
        refinements.extend_from_slice(&conn.refinements);
    }
    let wrong_queries = check_queries(inputs, replica, &queries);
    let wrong_refinements = check_refinements(inputs, schedule, &refinements);
    let acked: Vec<u64> = refinements.iter().map(|&(c, _)| c).collect();
    let sample = sample_users(inputs, &acked, 1024);
    let steps = schedule.steps();
    let progressive_ok = check_budget(
        inputs,
        budget,
        acked.iter().copied(),
        &sample,
        0,
        0,
        steps.len(),
        steps[0].epsilon,
    );
    // The query accountant lives inside the server; STATS reports the
    // release and query accountants' spend summed.
    let query_spent = stack.server.stats().spent_epsilon - budget.total_spent();
    let expected = queries.len() as f64 * stack.query_epsilon;
    let query_ok = (query_spent - expected).abs() <= 1e-9 * expected.max(1.0);
    tally.counts[1].wrong += wrong_queries;
    tally.counts[2].wrong += wrong_refinements;
    tally.gate_ok &= wrong_queries == 0 && wrong_refinements == 0 && progressive_ok && query_ok;
}

fn environment(workload: Workload, seed: u64, seconds: f64, trace: bool) -> String {
    let command = |program: &str, args: &[&str]| {
        std::process::Command::new(program)
            .args(args)
            .output()
            .ok()
            .filter(|out| out.status.success())
            .map(|out| String::from_utf8_lossy(&out.stdout).trim().to_string())
            .unwrap_or_else(|| "unknown".to_string())
    };
    format!(
        "env workload={} seed={seed} seconds={seconds} trace={} nproc={} rustc=\"{}\" git_head={} \
         server_workers={} connections={CONNECTIONS} pipeline={PIPELINE}",
        workload.name(),
        u8::from(trace),
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        command("rustc", &["-V"]),
        command("git", &["rev-parse", "HEAD"]),
        stack::WORKERS,
    )
}

/// Runs `workload` with inputs from `seed` for about `seconds`; with
/// `trace`, reports the per-layer metrics instead of the end-to-end ones.
pub fn run(workload: Workload, seed: u64, seconds: f64, trace: bool, sizes: &Sizes) -> Outcome {
    let inputs = Inputs::new(workload, seed);
    let mut report = vec![environment(workload, seed, seconds, trace)];
    let (tally, metrics, layers_ok) = if trace {
        traced(workload, &inputs, seconds, sizes, &mut report)
    } else {
        let (tally, metrics) = untraced(workload, &inputs, seconds, sizes, &mut report);
        (tally, metrics, true)
    };
    let totals = tally.totals();
    Outcome {
        correct: tally.gate_ok && layers_ok && totals.failed() == 0 && totals.ok > 0,
        attempted: totals.attempted.max(1),
        failed: totals.failed(),
        metrics,
        report,
    }
}

type Metrics = Vec<(&'static str, f64, &'static str)>;

/// Length of one slice of the untraced wire phase. The end-to-end figures
/// are medians over slices, which keeps a transient stall on a shared host
/// to one slice.
const SLICE_SECONDS: f64 = 0.5;

/// [`crate::stats::host_probe_ns`] on the reference host (a two-vCPU Xeon virtual
/// machine) at its typical speed; end-to-end figures are scaled to it.
const REFERENCE_PROBE_NS: f64 = 6.5e6;

/// Slices per `release_hot` round.
const HOT_ROUND_SLICES: usize = 8;

/// Acknowledged RELEASEs per connection before the peak resident set is
/// read.
const RELEASE_RSS_CHECKPOINT: u64 = 100_000;

/// Acknowledged analyst requests per connection before the peak resident
/// set is read (the QUERY connection gets there first).
const ANALYST_RSS_CHECKPOINT: u64 = 1_000;

fn untraced(
    workload: Workload,
    inputs: &Inputs,
    seconds: f64,
    sizes: &Sizes,
    report: &mut Vec<String>,
) -> (Tally, Metrics) {
    let mut tally = Tally::new();
    let mut setups = Vec::new();
    let mut checkpoint = RssCheckpoint::after(if workload.is_release() {
        RELEASE_RSS_CHECKPOINT
    } else {
        ANALYST_RSS_CHECKPOINT
    });
    let mut counters = initial_counters();
    let reference;
    if workload == Workload::ReleaseHot {
        // The history grows with every request, so each round serves a
        // fixed request count against a freshly preloaded stack.
        reference = Reference::new(workload, inputs);
        let started = Instant::now();
        loop {
            let stack = stack::start(workload, inputs, sizes, false);
            setups.push(stack.setup_s);
            // Each slice opens new connections (new server threads), so a
            // round samples the server's scheduling several times.
            let slice =
                Stop::Requests(sizes.hot_round_requests / (HOT_ROUND_SLICES * CONNECTIONS) as u64);
            let phases: Vec<Phase> = (0..HOT_ROUND_SLICES)
                .map(|_| {
                    run_phase(
                        stack.server.local_addr(),
                        workload,
                        inputs,
                        &[],
                        &mut counters,
                        slice,
                        None,
                    )
                })
                .collect();
            // Every round serves the same requests, so the first round's
            // peak is the fixed-work memory figure.
            checkpoint.reading.get_or_insert_with(peak_rss_mb);
            for phase in &phases {
                tally.add(phase);
            }
            let phases: Vec<&Phase> = phases.iter().collect();
            gate(
                &mut tally, workload, inputs, sizes, &stack, &phases, &reference,
            );
            if started.elapsed().as_secs_f64() >= seconds {
                break;
            }
        }
    } else {
        let mut stack = None;
        let setup_count = if workload.is_release() {
            sizes.release_setups
        } else {
            sizes.analyst_setups
        };
        for _ in 0..setup_count.max(1) {
            drop(stack.take());
            let started = stack::start(workload, inputs, sizes, false);
            setups.push(started.setup_s);
            stack = Some(started);
        }
        let stack = stack.expect("at least one set-up");
        let steps = stack
            .schedule
            .as_ref()
            .map(schedule_steps)
            .unwrap_or_default();
        let slices = ((seconds / SLICE_SECONDS).round() as usize).max(1);
        let slice = Stop::For(Duration::from_secs_f64(seconds / slices as f64));
        let mut phases = Vec::with_capacity(slices);
        for _ in 0..slices {
            let phase = run_phase(
                stack.server.local_addr(),
                workload,
                inputs,
                &steps,
                &mut counters,
                slice,
                Some(&checkpoint),
            );
            phase.advance(&mut checkpoint);
            tally.add(&phase);
            phases.push(phase);
        }
        // A run too short to reach the checkpoint reads the peak at its end.
        checkpoint.reading.get_or_insert_with(peak_rss_mb);
        reference = Reference::new(workload, inputs);
        let phases: Vec<&Phase> = phases.iter().collect();
        gate(
            &mut tally, workload, inputs, sizes, &stack, &phases, &reference,
        );
    }
    tally.report(report, "wire");
    report.push(format!(
        "setup_s samples={} values={:?}",
        setups.len(),
        setups
    ));
    // Wall-clock figures scale with the host's speed, which drifts by
    // tens of percent over minutes on a shared virtual machine; each is
    // scaled to the reference host speed (throughput up and times down on
    // a slow host). The raw figures stay in the report.
    let host = tally.host_factor();
    report.push(format!(
        "host_factor={host:.4} raw: rps={:.1} p50_us={:.1} p99_us={:.1} setup_s={:.6}; \
         scaled p99_us={:.1}",
        tally.rps(),
        tally.latency(None, 0.5) / 1e3,
        tally.latency(None, 0.99) / 1e3,
        median_f64(&setups),
        tally.latency(None, 0.99) / 1e3 / host,
    ));
    let metrics = vec![
        ("rps", tally.rps() * host, "1/s"),
        ("p50_us", tally.latency(None, 0.5) / 1e3 / host, "us"),
        ("setup_s", median_f64(&setups) / host, "s"),
        ("peak_rss_mb", checkpoint.reading.unwrap_or(0.0), "MB"),
    ];
    (tally, metrics)
}

/// Sum of the p50s of every `stage_*` histogram in a METRICS snapshot, in
/// nanoseconds, with one report line per stage.
fn stage_p50_sum(addr: std::net::SocketAddr, report: &mut Vec<String>) -> f64 {
    let mut client = NetClient::connect(addr, TENANT).expect("the traced server accepts");
    let metrics = client.metrics().expect("the traced server answers METRICS");
    let _ = client.goodbye();
    let mut sum = 0.0;
    for metric in metrics {
        if let WireMetricValue::Histogram {
            count, p50, p99, ..
        } = metric.value
        {
            if metric.name.starts_with("stage_") && count > 0 {
                sum += p50 as f64;
                report.push(format!(
                    "metrics {}: count={count} p50_ns={p50} p99_ns={p99}",
                    metric.name
                ));
            }
        }
    }
    sum
}

fn traced(
    workload: Workload,
    inputs: &Inputs,
    seconds: f64,
    sizes: &Sizes,
    report: &mut Vec<String>,
) -> (Tally, Metrics, bool) {
    // Part 1: the wire phase twice, untraced and with server telemetry,
    // in alternating slices so drift hits both sides alike.
    let plain = stack::start(workload, inputs, sizes, false);
    let instrumented = stack::start(workload, inputs, sizes, true);
    let steps = plain
        .schedule
        .as_ref()
        .map(schedule_steps)
        .unwrap_or_default();
    let pairs = sizes.trace_pairs.max(1);
    let slice = if workload == Workload::ReleaseHot {
        Stop::Requests(sizes.hot_round_requests / (4 * CONNECTIONS as u64))
    } else {
        Stop::For(Duration::from_secs_f64(seconds / (2 * pairs) as f64))
    };
    let before = plain.server.stats();
    let mut plain_counters = initial_counters();
    let mut traced_counters = initial_counters();
    let mut plain_phases = Vec::new();
    let mut traced_phases = Vec::new();
    let mut slowdowns = Vec::new();
    for pair in 0..pairs {
        let run = |stack: &Stack, counters: &mut [u64; CONNECTIONS]| {
            run_phase(
                stack.server.local_addr(),
                workload,
                inputs,
                &steps,
                counters,
                slice,
                None,
            )
        };
        let (p, t) = if pair % 2 == 0 {
            let p = run(&plain, &mut plain_counters);
            (p, run(&instrumented, &mut traced_counters))
        } else {
            let t = run(&instrumented, &mut traced_counters);
            (run(&plain, &mut plain_counters), t)
        };
        slowdowns.push((1.0 - t.rps() / p.rps()) * 100.0);
        plain_phases.push(p);
        traced_phases.push(t);
    }
    let after = plain.server.stats();
    let stage_sum_ns = stage_p50_sum(instrumented.server.local_addr(), report);

    let reference = Reference::new(workload, inputs);
    let mut plain_tally = Tally::new();
    let mut traced_tally = Tally::new();
    for phase in &plain_phases {
        plain_tally.add(phase);
    }
    for phase in &traced_phases {
        traced_tally.add(phase);
    }
    let plain_refs: Vec<&Phase> = plain_phases.iter().collect();
    let traced_refs: Vec<&Phase> = traced_phases.iter().collect();
    gate(
        &mut plain_tally,
        workload,
        inputs,
        sizes,
        &plain,
        &plain_refs,
        &reference,
    );
    gate(
        &mut traced_tally,
        workload,
        inputs,
        sizes,
        &instrumented,
        &traced_refs,
        &reference,
    );
    plain_tally.report(report, "untraced");
    traced_tally.report(report, "traced");
    drop(plain);
    drop(instrumented);

    let lookups = (after.hits + after.misses).saturating_sub(before.hits + before.misses);
    let hit_ratio = if lookups == 0 {
        1.0
    } else {
        (after.hits - before.hits) as f64 / lookups as f64
    };

    // Part 2: the same requests replayed through each layer in-process.
    let analyst = stack::analyst_catalog(inputs);
    let service = stack::release_service(stack::release_engine());
    let preload_s = stack::preload(workload, sizes, &service);
    let engine = service.engine();
    let mut tracer = Tracer::default();
    let range = |k: usize, n: u64| {
        let base = counter_base(CONNECTIONS + k);
        base..base + n
    };
    let release_bytes = layers::replay_releases(
        &mut tracer,
        inputs,
        &engine,
        service.budget(),
        range(0, sizes.replay_releases),
    );
    let query_budget = BudgetAccountant::new(UNLIMITED_EPSILON).expect("valid budget");
    let query = layers::replay_queries(
        &mut tracer,
        inputs,
        &analyst.catalog,
        &query_budget,
        range(1, sizes.replay_queries),
    );
    let progressive_budget = BudgetAccountant::new(UNLIMITED_EPSILON).expect("valid budget");
    let progressive_bytes = layers::replay_progressive(
        &mut tracer,
        inputs,
        &analyst.schedule,
        &progressive_budget,
        range(2, sizes.replay_progressive),
    );
    let (exec_ratio, exec_identical) = layers::exec_over_engine(
        &analyst.catalog,
        &analyst.plan,
        inputs.seed,
        sizes.exec_reps,
    );
    let (d1_requests, d32_requests) = sizes.service_requests;
    let started = Instant::now();
    let rt_d1 =
        layers::service_round_trips(&mut tracer, &service, inputs, range(3, d1_requests), 1);
    let rt_d1_rps = rt_d1.len() as f64 / started.elapsed().as_secs_f64();
    let started = Instant::now();
    let rt_d32 = layers::service_round_trips(
        &mut tracer,
        &service,
        inputs,
        range(4, d32_requests),
        PIPELINE,
    );
    let rt_d32_rps = rt_d32.len() as f64 / started.elapsed().as_secs_f64();

    // The ladder's wire rows: one connection over the same service.
    let server = NetServer::bind(
        ("127.0.0.1", 0),
        Arc::clone(&service),
        NetServerConfig {
            max_pipeline: PIPELINE,
            ..NetServerConfig::default()
        },
    )
    .expect("loopback bind");
    let (d1_seconds, d32_seconds) = sizes.ladder_seconds;
    let (wire_d1, wire_d1_s) = single_release(
        server.local_addr(),
        inputs,
        range(5, 0).start,
        1,
        Stop::For(Duration::from_secs_f64(d1_seconds)),
    );
    let (wire_d32, wire_d32_s) = single_release(
        server.local_addr(),
        inputs,
        range(6, 0).start,
        PIPELINE,
        Stop::For(Duration::from_secs_f64(d32_seconds)),
    );
    server.shutdown();
    let mut ladder_wrong = 0;
    for conn in [&wire_d1, &wire_d32] {
        ladder_wrong += conn.release.counts.failed()
            + check_releases(
                inputs,
                &reference.engine,
                conn.blocks.as_ref().expect("release digests"),
                conn.next_counter,
                &conn.unacked,
            );
    }

    let families = [
        (MechanismKind::Mqm, "core.calibrate_ms.mqm"),
        (MechanismKind::MqmApprox, "core.calibrate_ms.mqm_approx"),
        (MechanismKind::Gk16, "core.calibrate_ms.gk16"),
        (MechanismKind::GroupDp, "core.calibrate_ms.group_dp"),
    ];
    let calibrations: Vec<(&'static str, f64)> = families
        .iter()
        .map(|&(kind, name)| (name, layers::calibrate_ms(kind, sizes.calibrate_reps)))
        .collect();
    let laplace_ns = layers::laplace_sample_ns(
        layers::release_scale(&engine),
        inputs.seed,
        sizes.laplace_reps,
    );

    let out_dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    if std::fs::create_dir_all(&out_dir).is_ok() {
        let _ = tracer.write_jsonl(&out_dir.join(format!("{}.spans.jsonl", workload.name())));
    }

    // Metrics.
    let self_ns = |name: &str| tracer.median_self(name);
    let (admit_p50, admit_p99) = layers::p50_p99(
        &tracer,
        if workload.is_release() {
            "service.admit.release"
        } else {
            "service.admit.query"
        },
    );
    let quantile_us = |r: &Reservoir, q: f64| r.quantile(q) / 1e3;
    let wire_d1_p50 = quantile_us(&wire_d1.release.latency, 0.5);
    let wire_d32_p50 = quantile_us(&wire_d32.release.latency, 0.5);
    let rt_d1_us = median(&rt_d1) / 1e3;
    let rt_d32_us = median(&rt_d32) / 1e3;
    let (rx, tx) = if workload.is_release() {
        (release_bytes.rx as f64, release_bytes.tx as f64)
    } else {
        let nq = plain_tally.counts[1].ok as f64;
        let np = plain_tally.counts[2].ok as f64;
        let n = (nq + np).max(1.0);
        (
            (nq * query.bytes.rx as f64 + np * progressive_bytes.rx as f64) / n,
            (nq * query.bytes.tx as f64 + np * progressive_bytes.tx as f64) / n,
        )
    };
    // Unattributed: the primary request's depth-1 wire latency minus the
    // time the layer replays of that request account for.
    let unattributed_us = if workload.is_release() {
        wire_d1_p50 - median(&tracer.attributed("request.release")) / 1e3
    } else {
        plain_tally.latency(Some(1), 0.5) / 1e3 - median(&tracer.attributed("request.query")) / 1e3
    };
    // The stages cover RELEASE end to end and PROGRESSIVE from dispatch to
    // the last refinement; QUERY records none.
    let primary = if workload.is_release() { 0 } else { 2 };
    let traced_p50_ns = traced_tally.latency(Some(primary), 0.5);

    let mut metrics: Metrics = vec![
        (
            "core.engine.release_ns",
            self_ns("core.engine.release"),
            "ns",
        ),
        ("core.engine.hit_ratio", hit_ratio, "ratio"),
    ];
    metrics.extend(calibrations.iter().map(|&(name, ms)| (name, ms, "ms")));
    metrics.extend([
        (
            "core.scale_index.build_ms",
            analyst.index_build_s * 1e3,
            "ms",
        ),
        ("core.laplace.sample_ns", laplace_ns, "ns"),
        ("service.budget.admit_p50_ns", admit_p50, "ns"),
        ("service.budget.admit_p99_ns", admit_p99, "ns"),
        ("service.budget.preload_s", preload_s, "s"),
        ("service.submit_ns", self_ns("service.submit.d32"), "ns"),
        ("service.wait_ns", self_ns("service.wait.d32"), "ns"),
        ("service.round_trip_d1_us", rt_d1_us, "us"),
        ("service.round_trip_d32_us", rt_d32_us, "us"),
        (
            "service.queue.high_water",
            after.queue_high_water as f64,
            "count",
        ),
        (
            "service.progressive.begin_us",
            self_ns("service.progressive.begin") / 1e3,
            "us",
        ),
        (
            "service.progressive.stream_us",
            self_ns("service.progressive.stream") / 1e3,
            "us",
        ),
        ("query.parse_ns", self_ns("query.parse"), "ns"),
        ("query.plan_us", self_ns("query.plan") / 1e3, "us"),
        ("query.execute_us", self_ns("query.execute") / 1e3, "us"),
        (
            "query.indexed_probe_ratio",
            query.indexed_probes as f64 / query.successful_probes.max(1) as f64,
            "ratio",
        ),
        ("parallel.exec_over_engine", exec_ratio, "ratio"),
        ("net.encode_ns.release", self_ns("net.encode.release"), "ns"),
        (
            "net.encode_ns.query_ok",
            self_ns("net.encode.query_ok"),
            "ns",
        ),
        (
            "net.encode_ns.refine_ok",
            self_ns("net.encode.refine_ok"),
            "ns",
        ),
        ("net.decode_ns.release", self_ns("net.decode.release"), "ns"),
        (
            "net.dispatch_ns.release",
            self_ns("net.dispatch.release"),
            "ns",
        ),
        ("net.bytes_per_req.rx", rx, "bytes"),
        ("net.bytes_per_req.tx", tx, "bytes"),
        ("net.wire_d1_p50_us", wire_d1_p50, "us"),
        ("net.wire_d32_p50_us", wire_d32_p50, "us"),
        ("net.self_us", wire_d32_p50 - rt_d32_us, "us"),
        ("telemetry.overhead_pct", median_f64(&slowdowns), "%"),
        (
            "telemetry.stage_sum_over_e2e",
            stage_sum_ns / traced_p50_ns.max(1.0),
            "ratio",
        ),
        ("trace.unattributed_us", unattributed_us, "us"),
    ]);

    // The layer ladder, one canonical warm RELEASE at each layer.
    let row = |name: &str, p50: f64, p99: f64, rps: f64| {
        format!("ladder {name:<28} p50={p50:>12.3} p99={p99:>12.3} rps={rps:>12.0}")
    };
    let engine_spans = tracer.self_times();
    let engine_ns = engine_spans
        .get("core.engine.release")
        .map(Vec::as_slice)
        .unwrap_or(&[]);
    report.push(
        "ladder rows for this workload's RELEASE requests (latencies in us; Laplace in ns per \
         value; calibration in ms)"
            .to_string(),
    );
    report.push(row(
        "laplace_sample_ns",
        laplace_ns,
        laplace_ns,
        1e9 / laplace_ns.max(1e-9),
    ));
    report.push(row(
        "engine_hit",
        crate::stats::quantile(engine_ns, 0.5) / 1e3,
        crate::stats::quantile(engine_ns, 0.99) / 1e3,
        1e9 / crate::stats::quantile(engine_ns, 0.5).max(1.0),
    ));
    for (name, trips, rps) in [
        ("service_round_trip_d1", &rt_d1, rt_d1_rps),
        ("service_round_trip_d32", &rt_d32, rt_d32_rps),
    ] {
        report.push(row(
            name,
            median(trips) / 1e3,
            crate::stats::quantile(trips, 0.99) / 1e3,
            rps,
        ));
    }
    for (name, conn, s) in [
        ("wire_d1_1conn", &wire_d1, wire_d1_s),
        ("wire_d32_1conn", &wire_d32, wire_d32_s),
    ] {
        report.push(row(
            name,
            quantile_us(&conn.release.latency, 0.5),
            quantile_us(&conn.release.latency, 0.99),
            conn.release.counts.ok as f64 / s.max(1e-9),
        ));
    }
    for &(name, ms) in &calibrations {
        report.push(format!("ladder {name:<28} cold={ms:>12.3}"));
    }
    let mut names: Vec<_> = engine_spans.keys().copied().collect();
    names.sort_unstable();
    for name in names {
        let times = &engine_spans[name];
        report.push(format!(
            "span {name:<28} n={:>6} self_p50_ns={:>12.0} self_p99_ns={:>12.0}",
            times.len(),
            crate::stats::quantile(times, 0.5),
            crate::stats::quantile(times, 0.99)
        ));
    }
    report.push(format!(
        "unattributed_us={unattributed_us:.1} exec_bitwise_equal={exec_identical} \
         ladder_failures={ladder_wrong}"
    ));

    // Both wire sides count toward attempted/failed.
    for (total, kind) in plain_tally.counts.iter_mut().zip(&traced_tally.counts) {
        total.add(kind);
    }
    plain_tally.gate_ok &= traced_tally.gate_ok;
    (plain_tally, metrics, exec_identical && ladder_wrong == 0)
}
