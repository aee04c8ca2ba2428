//! Concurrent-throughput benchmark for the release engine and the
//! service front-end, emitting `BENCH_service.json` at the workspace root.
//!
//! Four measurements:
//!
//! * **cold-distinct** — N distinct cache keys calibrated serially vs. from
//!   N concurrent threads: distinct keys never serialise behind one another
//!   (locks are not held across calibration), so concurrent cold misses
//!   approach the speed of the slowest single calibration.
//! * **stampede** — 8 threads racing the *same* cold key: the key's slot
//!   mutex coalesces the herd into exactly one calibration.
//! * **warm-engine** — requests/sec against the warm cache for growing
//!   thread counts, hammering the shared engine directly. Warm hits take the
//!   cache's read lock only, so throughput scales with threads instead of
//!   collapsing behind a global mutex.
//! * **warm-service** — the same requests end-to-end through the
//!   [`ReleaseService`] (admission queue + budget accounting + worker pool)
//!   for growing worker counts.
//!
//! The JSON schema is documented in the README ("BENCH_*.json schema").

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use std::time::Instant;

use pufferfish_core::engine::{MqmExactCalibrator, ReleaseEngine};
use pufferfish_core::queries::StateFrequencyQuery;
use pufferfish_core::{MqmExactOptions, Parallelism, PrivacyBudget};
use pufferfish_datasets::StreamWorkload;
use pufferfish_markov::{MarkovChain, MarkovChainClass};
use pufferfish_service::{ReleaseRequest, ReleaseService, ServiceConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Chain length: long enough that MQMExact's quilt search is genuinely
/// expensive (cold misses dominated by calibration, not bookkeeping).
const CHAIN_LENGTH: usize = 150;
/// Distinct ε values (= distinct cache keys) for the cold phase.
const DISTINCT_KEYS: usize = 8;
/// Requests per thread-count sample in the warm-engine phase.
const WARM_REQUESTS: usize = 100_000;
/// Requests per worker-count sample in the warm-service phase (end-to-end
/// through queue + budget, so fewer are needed for a stable figure).
const SERVICE_REQUESTS: usize = 20_000;

fn engine() -> Arc<ReleaseEngine> {
    let chain =
        MarkovChain::with_stationary_initial(vec![vec![0.85, 0.15], vec![0.35, 0.65]]).unwrap();
    // Serial calibration inside the engine: the bench measures *engine*
    // concurrency, so the calibrator must not also fan out worker threads.
    let options = MqmExactOptions {
        max_quilt_width: Some(24),
        search_middle_only: false,
        parallelism: Parallelism::Serial,
    };
    ReleaseEngine::shared(MqmExactCalibrator::new(
        MarkovChainClass::singleton(chain),
        CHAIN_LENGTH,
        options,
    ))
}

fn epsilons() -> Vec<f64> {
    (0..DISTINCT_KEYS).map(|i| 0.5 + 0.25 * i as f64).collect()
}

/// Cold phase: all keys from one thread, then all keys from one thread each.
fn bench_cold(json: &mut Vec<String>) {
    let query = StateFrequencyQuery::new(1, CHAIN_LENGTH);

    let serial_engine = engine();
    let start = Instant::now();
    for &epsilon in &epsilons() {
        let budget = PrivacyBudget::new(epsilon).unwrap();
        serial_engine.mechanism(&query, budget).unwrap();
    }
    let serial = start.elapsed().as_secs_f64();
    assert_eq!(serial_engine.stats().misses, DISTINCT_KEYS as u64);

    let concurrent_engine = engine();
    let barrier = Barrier::new(DISTINCT_KEYS);
    let start = Instant::now();
    std::thread::scope(|scope| {
        for &epsilon in &epsilons() {
            let engine = Arc::clone(&concurrent_engine);
            let barrier = &barrier;
            scope.spawn(move || {
                let query = StateFrequencyQuery::new(1, CHAIN_LENGTH);
                let budget = PrivacyBudget::new(epsilon).unwrap();
                barrier.wait();
                engine.mechanism(&query, budget).unwrap();
            });
        }
    });
    let concurrent = start.elapsed().as_secs_f64();
    assert_eq!(concurrent_engine.stats().misses, DISTINCT_KEYS as u64);

    println!(
        "cold {DISTINCT_KEYS} distinct keys: serial {serial:.3}s, \
         concurrent {concurrent:.3}s ({:.2}x)",
        serial / concurrent
    );
    json.push(format!(
        "  \"cold_distinct\": {{\"keys\": {DISTINCT_KEYS}, \"serial_seconds\": {serial:.6}, \
         \"concurrent_seconds\": {concurrent:.6}, \"speedup\": {:.3}}}",
        serial / concurrent
    ));
}

/// Stampede phase: 8 threads, one cold key, exactly one calibration.
fn bench_stampede(json: &mut Vec<String>) {
    let engine = engine();
    let threads = 8;
    let barrier = Barrier::new(threads);
    std::thread::scope(|scope| {
        for _ in 0..threads {
            let engine = Arc::clone(&engine);
            let barrier = &barrier;
            scope.spawn(move || {
                let query = StateFrequencyQuery::new(1, CHAIN_LENGTH);
                let budget = PrivacyBudget::new(1.0).unwrap();
                barrier.wait();
                engine.mechanism(&query, budget).unwrap();
            });
        }
    });
    let stats = engine.stats();
    assert_eq!(stats.misses, 1, "stampede must coalesce to one calibration");
    println!(
        "stampede {threads} threads -> {} calibration(s), {} coalesced",
        stats.misses, stats.coalesced
    );
    json.push(format!(
        "  \"stampede\": {{\"threads\": {threads}, \"calibrations\": {}, \"coalesced\": {}}}",
        stats.misses, stats.coalesced
    ));
}

/// Thread counts are fixed regardless of host cores: on an N-core host the
/// curve scales up to N and flattens; on fewer cores the oversubscribed
/// points still prove the absence of lock *collapse* (throughput holding
/// steady instead of degrading as contention grows). `host_parallelism` in
/// the JSON tells readers which regime they are looking at.
fn thread_counts() -> Vec<usize> {
    vec![1, 2, 4, 8]
}

fn host_parallelism() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Warm phase, engine-direct: fixed request count split across T threads.
fn bench_warm_engine(json: &mut Vec<String>) {
    let engine = engine();
    let workload = StreamWorkload::new(
        MarkovChain::with_stationary_initial(vec![vec![0.85, 0.15], vec![0.35, 0.65]]).unwrap(),
        42,
    );
    let budget = PrivacyBudget::new(1.0).unwrap();
    {
        // Pre-warm the single class-scoped key.
        let query = StateFrequencyQuery::new(1, CHAIN_LENGTH);
        engine.mechanism(&query, budget).unwrap();
    }

    let mut rows = Vec::new();
    for threads in thread_counts() {
        let databases = Arc::new(workload.generate(threads as u64, CHAIN_LENGTH).unwrap());
        engine.reset_counters();
        let barrier = Barrier::new(threads);
        let per_thread = WARM_REQUESTS / threads;
        let start = Instant::now();
        std::thread::scope(|scope| {
            for thread in 0..threads {
                let engine = Arc::clone(&engine);
                let databases = Arc::clone(&databases);
                let barrier = &barrier;
                scope.spawn(move || {
                    let query = StateFrequencyQuery::new(1, CHAIN_LENGTH);
                    let mut rng = StdRng::seed_from_u64(thread as u64);
                    let database = &databases[thread];
                    barrier.wait();
                    for _ in 0..per_thread {
                        engine.release(&query, database, budget, &mut rng).unwrap();
                    }
                });
            }
        });
        let seconds = start.elapsed().as_secs_f64();
        let requests = per_thread * threads;
        let rps = requests as f64 / seconds;
        let stats = engine.stats();
        assert_eq!(stats.misses, 0, "warm phase must not recalibrate");
        assert_eq!(stats.hits, requests as u64);
        println!("warm engine  {threads:>2} threads: {rps:>12.0} req/s ({requests} requests in {seconds:.3}s)");
        rows.push(format!(
            "    {{\"threads\": {threads}, \"requests\": {requests}, \"seconds\": {seconds:.6}, \
             \"requests_per_sec\": {rps:.0}}}"
        ));
    }
    json.push(format!("  \"warm_engine\": [\n{}\n  ]", rows.join(",\n")));
}

/// Warm phase, end-to-end: the same traffic through the full service.
fn bench_warm_service(json: &mut Vec<String>) {
    let workload = StreamWorkload::new(
        MarkovChain::with_stationary_initial(vec![vec![0.85, 0.15], vec![0.35, 0.65]]).unwrap(),
        43,
    );

    let mut rows = Vec::new();
    for workers in thread_counts() {
        let shared_engine = engine();
        {
            // Pre-warm so every measured request is a cache hit.
            let query = StateFrequencyQuery::new(1, CHAIN_LENGTH);
            let budget = PrivacyBudget::new(0.1).unwrap();
            shared_engine.mechanism(&query, budget).unwrap();
        }
        shared_engine.reset_counters();
        let service = ReleaseService::start(
            Arc::clone(&shared_engine),
            ServiceConfig {
                workers: Parallelism::Threads(workers),
                queue_capacity: 1024,
                per_user_epsilon: 1e9,
            },
        )
        .unwrap();

        let submitters = workers.clamp(1, 4);
        let per_submitter = SERVICE_REQUESTS / submitters;
        let databases = Arc::new(workload.generate(submitters as u64, CHAIN_LENGTH).unwrap());
        let barrier = Barrier::new(submitters);
        let errors = AtomicU64::new(0);
        let start = Instant::now();
        std::thread::scope(|scope| {
            for submitter in 0..submitters {
                let service = &service;
                let databases = Arc::clone(&databases);
                let barrier = &barrier;
                let errors = &errors;
                scope.spawn(move || {
                    let database = databases[submitter].clone();
                    barrier.wait();
                    let mut tickets = Vec::with_capacity(64);
                    for i in 0..per_submitter {
                        let request = ReleaseRequest {
                            user: format!("user-{submitter}"),
                            query: Arc::new(StateFrequencyQuery::new(1, CHAIN_LENGTH)),
                            database: database.clone(),
                            epsilon: 0.1,
                            seed: (submitter * per_submitter + i) as u64,
                        };
                        tickets.push(service.submit(request).unwrap());
                        // Collect in batches to bound outstanding tickets.
                        if tickets.len() == 64 {
                            for ticket in tickets.drain(..) {
                                if ticket.wait().is_err() {
                                    errors.fetch_add(1, Ordering::Relaxed);
                                }
                            }
                        }
                    }
                    for ticket in tickets {
                        if ticket.wait().is_err() {
                            errors.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                });
            }
        });
        let seconds = start.elapsed().as_secs_f64();
        let requests = per_submitter * submitters;
        let rps = requests as f64 / seconds;
        assert_eq!(errors.load(Ordering::Relaxed), 0);
        assert_eq!(service.served(), requests as u64);
        assert_eq!(shared_engine.stats().misses, 0);
        service.shutdown();
        println!(
            "warm service {workers:>2} workers: {rps:>12.0} req/s \
             ({requests} requests, {submitters} submitters, {seconds:.3}s)"
        );
        rows.push(format!(
            "    {{\"workers\": {workers}, \"submitters\": {submitters}, \"requests\": {requests}, \
             \"seconds\": {seconds:.6}, \"requests_per_sec\": {rps:.0}}}"
        ));
    }
    json.push(format!("  \"warm_service\": [\n{}\n  ]", rows.join(",\n")));
}

fn main() {
    println!("== service_throughput ==");
    let mut json: Vec<String> = vec![
        "  \"bench\": \"service_throughput\"".to_string(),
        format!(
            "  \"config\": {{\"mechanism\": \"mqm-exact\", \"chain_length\": {CHAIN_LENGTH}, \
             \"host_parallelism\": {}, \"warm_requests\": {WARM_REQUESTS}, \
             \"service_requests\": {SERVICE_REQUESTS}}}",
            host_parallelism()
        ),
    ];

    bench_cold(&mut json);
    bench_stampede(&mut json);
    bench_warm_engine(&mut json);
    bench_warm_service(&mut json);

    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_service.json");
    let contents = format!("{{\n{}\n}}\n", json.join(",\n"));
    std::fs::write(path, &contents).expect("failed to write BENCH_service.json");
    println!("wrote {path}");
}
