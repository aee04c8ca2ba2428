//! Calibration-store benchmark: what snapshot persistence and the ε-grid
//! scale index actually buy, emitting `BENCH_store.json` at the workspace
//! root.
//!
//! Four measurements:
//!
//! * **cold_start** — calibrating N distinct ε keys on a fresh engine (its
//!   calibrator builds the per-θ tables at the first and reuses them), plus
//!   the cost of exporting the resulting cache to a snapshot file.
//! * **warm_start** — a fresh engine importing that file: wall-clock
//!   speedup over cold calibration, an asserted **zero** miss counter, and
//!   asserted bitwise-identical releases against the cold engine.
//! * **probe** — the planner's noise-scale probe at fresh ε values: exact
//!   (one full calibration each) vs indexed (monotone interpolation), with
//!   the worst certified error bound recorded.
//! * **planner** — `plan_statement` end-to-end at a fresh ε: exact probing
//!   (pays one calibration per family) vs a warmed scale index (asserted
//!   zero calibrations).
//!
//! The JSON schema is documented in the README ("BENCH_*.json schema").

use std::time::Instant;

use pufferfish_core::engine::{MqmExactCalibrator, ReleaseEngine};
use pufferfish_core::queries::{RelativeFrequencyHistogram, StateFrequencyQuery};
use pufferfish_core::{
    CalibrationSnapshot, EpsilonGrid, MqmExactOptions, Parallelism, PrivacyBudget, ScaleIndex,
};
use pufferfish_markov::{IntervalClassBuilder, MarkovChain, MarkovChainClass};
use pufferfish_query::{
    parse_statement, plan_statement, CatalogOptions, MechanismCatalog, ProbeSource, Table,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Chain length for the store phases: long enough that MQMExact calibration
/// is genuinely expensive.
const CHAIN_LENGTH: usize = 150;
/// Distinct ε keys calibrated into the snapshot.
const SNAPSHOT_KEYS: usize = 6;
/// Grid resolution for the probe/planner phases.
const GRID_POINTS: usize = 8;

fn store_engine() -> ReleaseEngine {
    let chain =
        MarkovChain::with_stationary_initial(vec![vec![0.85, 0.15], vec![0.35, 0.65]]).unwrap();
    let options = MqmExactOptions {
        max_quilt_width: Some(24),
        search_middle_only: false,
        parallelism: Parallelism::Serial,
    };
    ReleaseEngine::new(MqmExactCalibrator::new(
        MarkovChainClass::singleton(chain),
        CHAIN_LENGTH,
        options,
    ))
}

fn store_epsilons() -> Vec<f64> {
    (0..SNAPSHOT_KEYS).map(|i| 0.4 + 0.3 * i as f64).collect()
}

fn planner_class() -> MarkovChainClass {
    IntervalClassBuilder::symmetric(0.4)
        .grid_points(2)
        .build()
        .unwrap()
}

/// Cold calibration + export, then warm import with bitwise verification.
fn bench_store(json: &mut Vec<String>) -> (ReleaseEngine, std::path::PathBuf) {
    let query = StateFrequencyQuery::new(1, CHAIN_LENGTH);
    let database: Vec<usize> = (0..CHAIN_LENGTH).map(|t| (t / 3) % 2).collect();

    let cold = store_engine();
    let start = Instant::now();
    for &epsilon in &store_epsilons() {
        cold.mechanism(&query, PrivacyBudget::new(epsilon).unwrap())
            .unwrap();
    }
    let cold_seconds = start.elapsed().as_secs_f64();
    assert_eq!(cold.stats().misses, SNAPSHOT_KEYS as u64);

    let path = std::env::temp_dir().join(format!(
        "pufferfish-bench-store-{}.pfsnap",
        std::process::id()
    ));
    let start = Instant::now();
    let snapshot_bytes = cold.export_snapshot().write_to_file(&path).unwrap();
    let export_seconds = start.elapsed().as_secs_f64();

    let warm = store_engine();
    let start = Instant::now();
    let snapshot = CalibrationSnapshot::read_from_file(&path).unwrap();
    let imported = warm.import_snapshot(&snapshot).unwrap();
    let warm_seconds = start.elapsed().as_secs_f64();
    assert_eq!(imported, SNAPSHOT_KEYS);
    assert_eq!(
        warm.stats().misses,
        0,
        "warm start must perform zero calibrations"
    );

    // Bitwise verification: every ε, same seed, identical noisy values.
    for (i, &epsilon) in store_epsilons().iter().enumerate() {
        let budget = PrivacyBudget::new(epsilon).unwrap();
        let mut cold_rng = StdRng::seed_from_u64(i as u64);
        let mut warm_rng = StdRng::seed_from_u64(i as u64);
        let cold_release = cold
            .release(&query, &database, budget, &mut cold_rng)
            .unwrap();
        let warm_release = warm
            .release(&query, &database, budget, &mut warm_rng)
            .unwrap();
        assert_eq!(cold_release.values, warm_release.values);
        assert_eq!(cold_release.scale.to_bits(), warm_release.scale.to_bits());
    }
    assert_eq!(warm.stats().misses, 0);

    let speedup = cold_seconds / warm_seconds;
    println!(
        "cold start: {SNAPSHOT_KEYS} calibrations in {cold_seconds:.3}s; warm start from \
         {snapshot_bytes}-byte snapshot in {warm_seconds:.6}s ({speedup:.0}x), 0 misses, \
         bitwise-identical releases"
    );
    json.push(format!(
        "  \"cold_start\": {{\"keys\": {SNAPSHOT_KEYS}, \"calibrate_seconds\": \
         {cold_seconds:.6}, \"export_seconds\": {export_seconds:.6}, \"snapshot_bytes\": \
         {snapshot_bytes}}}"
    ));
    json.push(format!(
        "  \"warm_start\": {{\"import_seconds\": {warm_seconds:.6}, \"speedup\": {speedup:.1}, \
         \"misses_after_import\": 0, \"bitwise_identical_releases\": true}}"
    ));
    (warm, path)
}

/// Exact vs indexed probe latency at fresh (uncached, off-grid-point) ε.
fn bench_probe(json: &mut Vec<String>) {
    let grid = EpsilonGrid::log_spaced(0.2, 4.0, GRID_POINTS).unwrap();
    let query = RelativeFrequencyHistogram::new(2, 60).unwrap();
    let probe_epsilons: Vec<f64> = (0..SNAPSHOT_KEYS).map(|i| 0.45 + 0.35 * i as f64).collect();

    // Exact: every probe at a fresh ε is a full calibration.
    let make_engine = || {
        ReleaseEngine::new(MqmExactCalibrator::new(
            planner_class(),
            60,
            MqmExactOptions::default(),
        ))
    };
    let exact_engine = make_engine();
    let start = Instant::now();
    for &epsilon in &probe_epsilons {
        exact_engine
            .noise_scale_estimate(&query, PrivacyBudget::new(epsilon).unwrap())
            .unwrap();
    }
    let exact_per_probe = start.elapsed().as_secs_f64() / probe_epsilons.len() as f64;
    assert_eq!(exact_engine.stats().misses, probe_epsilons.len() as u64);

    // Indexed: the grid is paid once, then probes are interpolation.
    let index_engine = make_engine();
    let start = Instant::now();
    let index = ScaleIndex::build(&index_engine, &query, &grid).unwrap();
    let build_seconds = start.elapsed().as_secs_f64();
    let rounds = 1_000;
    let start = Instant::now();
    let mut bound_max: f64 = 0.0;
    for _ in 0..rounds {
        for &epsilon in &probe_epsilons {
            let estimate = index.estimate(&query, epsilon).unwrap();
            bound_max = bound_max.max(estimate.error_bound / estimate.scale);
        }
    }
    let indexed_per_probe = start.elapsed().as_secs_f64() / (rounds * probe_epsilons.len()) as f64;
    assert_eq!(
        index_engine.stats().misses,
        GRID_POINTS as u64,
        "indexed probes must not calibrate beyond the grid"
    );

    let speedup = exact_per_probe / indexed_per_probe;
    println!(
        "probe: exact {exact_per_probe:.6}s/probe vs indexed {indexed_per_probe:.9}s/probe \
         ({speedup:.0}x; grid build {build_seconds:.3}s, worst relative bound {bound_max:.4})"
    );
    json.push(format!(
        "  \"probe\": {{\"exact_per_probe_seconds\": {exact_per_probe:.9}, \
         \"indexed_per_probe_seconds\": {indexed_per_probe:.9}, \"speedup\": {speedup:.1}, \
         \"grid_build_seconds\": {build_seconds:.6}, \"grid_points\": {GRID_POINTS}, \
         \"max_relative_error_bound\": {bound_max:.6}}}"
    ));
}

/// `plan_statement` wall-clock at a fresh ε, before and after index warm-up.
fn bench_planner(json: &mut Vec<String>) {
    let table = Table::single("chain", 2, (0..60).map(|t| (t / 3) % 2).collect()).unwrap();
    let statement = parse_statement("HISTOGRAM EPSILON 0.77").unwrap();

    // Before: no scale grid — every family probe calibrates.
    let before_catalog = MechanismCatalog::new(planner_class());
    let start = Instant::now();
    let before_plan = plan_statement(&before_catalog, &statement, &table).unwrap();
    let before_seconds = start.elapsed().as_secs_f64();

    // After: warmed index — planning performs zero calibrations.
    let after_catalog = MechanismCatalog::with_options(
        planner_class(),
        CatalogOptions {
            scale_grid: Some(EpsilonGrid::log_spaced(0.2, 4.0, GRID_POINTS).unwrap()),
            ..CatalogOptions::default()
        },
    );
    let query = RelativeFrequencyHistogram::new(2, 60).unwrap();
    let start = Instant::now();
    let indexed_families = after_catalog.warm_scale_index(60, &query).unwrap();
    let warmup_seconds = start.elapsed().as_secs_f64();
    let warm_misses = after_catalog.cache_stats().0.misses;
    let start = Instant::now();
    let after_plan = plan_statement(&after_catalog, &statement, &table).unwrap();
    let after_seconds = start.elapsed().as_secs_f64();
    assert_eq!(
        after_catalog.cache_stats().0.misses,
        warm_misses,
        "indexed planning must trigger no calibration"
    );
    assert!(after_plan
        .probes()
        .iter()
        .all(|probe| matches!(probe.source, ProbeSource::Indexed { .. })));
    assert_eq!(before_plan.chosen(), after_plan.chosen());

    let speedup = before_seconds / after_seconds;
    println!(
        "planner: cold-probe plan {before_seconds:.3}s vs indexed plan {after_seconds:.6}s \
         ({speedup:.0}x; warm-up {warmup_seconds:.3}s over {indexed_families} families)"
    );
    json.push(format!(
        "  \"planner\": {{\"exact_plan_seconds\": {before_seconds:.6}, \
         \"indexed_plan_seconds\": {after_seconds:.6}, \"speedup\": {speedup:.1}, \
         \"index_warmup_seconds\": {warmup_seconds:.6}, \"indexed_families\": \
         {indexed_families}, \"indexed_plan_calibrations\": 0}}"
    ));
}

fn main() {
    println!("== calibration_store ==");
    let mut json: Vec<String> = vec![
        "  \"bench\": \"calibration_store\"".to_string(),
        format!(
            "  \"config\": {{\"mechanism\": \"mqm-exact\", \"chain_length\": {CHAIN_LENGTH}, \
             \"snapshot_keys\": {SNAPSHOT_KEYS}, \"grid_points\": {GRID_POINTS}}}"
        ),
    ];

    let (_warm, path) = bench_store(&mut json);
    bench_probe(&mut json);
    bench_planner(&mut json);
    let _ = std::fs::remove_file(&path);

    let out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_store.json");
    let contents = format!("{{\n{}\n}}\n", json.join(",\n"));
    std::fs::write(out, &contents).expect("failed to write BENCH_store.json");
    println!("wrote {out}");
}
