//! Snapshot round-trip properties and negative paths.
//!
//! The persistence contract of the calibration store is exact: for every
//! mechanism family and every ε,
//! `export → encode → decode → import` must reproduce releases **bitwise**
//! and probe scales **bitwise**, with the importing engine performing zero
//! calibrations. The property tests below drive that contract through the
//! proptest shim; the deterministic tests cover the failure taxonomy — a
//! broken snapshot must always surface as the right typed
//! [`SnapshotError`], never as a panic or a silently empty cache.

use std::sync::Arc;

use proptest::prelude::*;
use pufferfish_baselines::{EntryDp, Gk16, GroupDp};
use pufferfish_bayesnet::{Dag, DiscreteBayesianNetwork};
use pufferfish_core::engine::{
    markov_class_token, FnCalibrator, MqmApproxCalibrator, MqmExactCalibrator, QuiltCalibrator,
    TokenHasher, WassersteinCalibrator,
};
use pufferfish_core::queries::{
    LipschitzQuery, RelativeFrequencyHistogram, StateCountQuery, StateFrequencyQuery,
};
use pufferfish_core::snapshot::ScaleForm;
use pufferfish_core::{
    CalibrationSnapshot, Mechanism, MqmApproxOptions, MqmExactOptions, Parallelism, PrivacyBudget,
    PufferfishError, QuiltMechanismOptions, ReleaseEngine, SnapshotError,
};
use pufferfish_markov::{IntervalClassBuilder, MarkovChain, MarkovChainClass};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn chain_class() -> MarkovChainClass {
    MarkovChainClass::singleton(
        MarkovChain::new(vec![0.7, 0.3], vec![vec![0.8, 0.2], vec![0.35, 0.65]]).unwrap(),
    )
}

fn interval_class() -> MarkovChainClass {
    IntervalClassBuilder::symmetric(0.42)
        .grid_points(2)
        .build()
        .unwrap()
}

/// The engine constructions the properties sweep: one per mechanism family.
const FAMILIES: [&str; 7] = [
    "mqm-exact",
    "mqm-approx",
    "gk16",
    "group-dp",
    "wasserstein",
    "markov-quilt",
    "entry-dp",
];

/// The node count of the Markov Quilt family's chain network.
const QUILT_NODES: usize = 6;

/// A binary chain network over `nodes` nodes (node cardinality 2).
fn chain_network(nodes: usize) -> DiscreteBayesianNetwork {
    let mut network = DiscreteBayesianNetwork::new(Dag::chain(nodes), vec![2; nodes]).unwrap();
    network.set_cpd(0, vec![vec![0.7, 0.3]]).unwrap();
    for node in 1..nodes {
        network
            .set_cpd(node, vec![vec![0.8, 0.2], vec![0.35, 0.65]])
            .unwrap();
    }
    network
}

/// Builds a fresh engine of the given family.
/// The Wasserstein family is query-scoped and uses the 3-person flu
/// framework; entry DP is query-scoped too; the Markov Quilt family
/// calibrates over a `QUILT_NODES`-node chain network; the others calibrate
/// for chains of `length`.
fn engine_for(family: &str, length: usize) -> ReleaseEngine {
    match family {
        "mqm-exact" => ReleaseEngine::new(MqmExactCalibrator::new(
            chain_class(),
            length,
            MqmExactOptions::default(),
        )),
        "mqm-approx" => ReleaseEngine::new(MqmApproxCalibrator::new(
            interval_class(),
            length,
            MqmApproxOptions::default(),
        )),
        "gk16" => {
            let class = interval_class();
            let token = TokenHasher::new("gk16")
                .mix(&markov_class_token(&class))
                .mix(&length)
                .finish();
            ReleaseEngine::new(FnCalibrator::class_scoped(
                "gk16",
                token,
                move |_q, budget| {
                    Ok(Arc::new(Gk16::calibrate(&class, length, budget)?) as Arc<dyn Mechanism>)
                },
            ))
        }
        "group-dp" => {
            let token = TokenHasher::new("group-dp").mix(&length).finish();
            ReleaseEngine::new(FnCalibrator::class_scoped(
                "group-dp",
                token,
                move |_q, budget| {
                    Ok(Arc::new(GroupDp::calibrate(length, budget)?) as Arc<dyn Mechanism>)
                },
            ))
        }
        "wasserstein" => {
            let framework =
                pufferfish_core::flu::flu_clique_framework(3, &[0.5, 0.1, 0.1, 0.3]).unwrap();
            ReleaseEngine::new(WassersteinCalibrator::new(framework, Parallelism::Serial))
        }
        "markov-quilt" => ReleaseEngine::new(QuiltCalibrator::new(
            vec![chain_network(QUILT_NODES)],
            QuiltMechanismOptions::default(),
        )),
        "entry-dp" => {
            let token = TokenHasher::new("entry-dp").mix(&length).finish();
            ReleaseEngine::new(FnCalibrator::new("entry-dp", token, |query, budget| {
                Ok(Arc::new(EntryDp::for_query(query, budget)?) as Arc<dyn Mechanism>)
            }))
        }
        other => panic!("unknown family {other}"),
    }
}

/// The query and database batch the family releases in the properties.
fn workload(family: &str, length: usize) -> (Arc<dyn LipschitzQuery>, Vec<Vec<usize>>) {
    if family == "wasserstein" {
        let databases = vec![vec![1, 0, 1], vec![0, 0, 1], vec![1, 1, 1]];
        (Arc::new(StateCountQuery::new(1, 3)), databases)
    } else {
        let databases = (0..3)
            .map(|offset| (0..length).map(|t| (t + offset) % 2).collect())
            .collect();
        (
            Arc::new(RelativeFrequencyHistogram::new(2, length).unwrap()),
            databases,
        )
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// export → to_bytes → from_bytes → import reproduces `release_batch`
    /// bitwise and `noise_scale_estimate` bitwise, across mechanism
    /// families and ε values — and the importing engine never calibrates.
    #[test]
    fn roundtrip_is_bitwise_identical_across_families(
        family_index in 0usize..FAMILIES.len(),
        epsilon_milli in 100u64..3_000,
        length in 24usize..48,
        seed in 0u64..1_000_000,
    ) {
        let family = FAMILIES[family_index];
        let epsilon = epsilon_milli as f64 / 1000.0;
        let length = match family {
            "wasserstein" => 3,
            "markov-quilt" => QUILT_NODES,
            _ => length,
        };
        let budget = PrivacyBudget::new(epsilon).unwrap();
        let (query, databases) = workload(family, length);

        // Cold: calibrate at two ε values (the snapshot must carry both).
        let cold = engine_for(family, length);
        let other_budget = PrivacyBudget::new(epsilon * 2.0).unwrap();
        cold.mechanism(&*query, budget).unwrap();
        cold.mechanism(&*query, other_budget).unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        let cold_releases = cold
            .release_batch(&*query, &databases, budget, &mut rng)
            .unwrap();
        let cold_scale = cold.noise_scale_estimate(&*query, other_budget).unwrap();

        // Through bytes, into a fresh engine.
        let snapshot = CalibrationSnapshot::from_bytes(&cold.export_snapshot().to_bytes()).unwrap();
        prop_assert_eq!(snapshot.len(), 2);
        let warm = engine_for(family, length);
        prop_assert_eq!(warm.import_snapshot(&snapshot).unwrap(), 2);

        let mut rng = StdRng::seed_from_u64(seed);
        let warm_releases = warm
            .release_batch(&*query, &databases, budget, &mut rng)
            .unwrap();
        prop_assert_eq!(cold_releases.len(), warm_releases.len());
        for (cold_release, warm_release) in cold_releases.iter().zip(&warm_releases) {
            prop_assert_eq!(&cold_release.values, &warm_release.values);
            prop_assert_eq!(&cold_release.true_values, &warm_release.true_values);
            prop_assert_eq!(cold_release.scale.to_bits(), warm_release.scale.to_bits());
        }
        let warm_scale = warm.noise_scale_estimate(&*query, other_budget).unwrap();
        prop_assert_eq!(cold_scale.to_bits(), warm_scale.to_bits());
        prop_assert_eq!(warm.stats().misses, 0);

        // The restored cache re-exports to an equivalent snapshot (same
        // keys and states; the export timestamp may differ).
        let re_export = warm.export_snapshot();
        prop_assert_eq!(&re_export.entries, &snapshot.entries);
    }

    /// Bumping the version field or flipping any single body/checksum byte
    /// is always a typed decode error — never a partial decode.
    #[test]
    fn corrupted_bytes_never_decode(
        epsilon_milli in 100u64..2_000,
        flip_bit in 0u8..8,
    ) {
        let epsilon = epsilon_milli as f64 / 1000.0;
        let engine = engine_for("mqm-approx", 30);
        let query = StateFrequencyQuery::new(1, 30);
        engine
            .mechanism(&query, PrivacyBudget::new(epsilon).unwrap())
            .unwrap();
        let bytes = engine.export_snapshot().to_bytes();

        // Version bump (byte 8 is the low byte of the little-endian u32).
        let mut versioned = bytes.clone();
        versioned[8] = versioned[8].wrapping_add(1);
        prop_assert!(matches!(
            CalibrationSnapshot::from_bytes(&versioned),
            Err(PufferfishError::Snapshot(SnapshotError::UnsupportedVersion { .. }))
        ));

        // Any single-bit corruption after the header: checksum mismatch.
        let header = 8 + 4 + 8;
        for at in header..bytes.len() {
            let mut corrupt = bytes.clone();
            corrupt[at] ^= 1 << flip_bit;
            prop_assert!(matches!(
                CalibrationSnapshot::from_bytes(&corrupt),
                Err(PufferfishError::Snapshot(SnapshotError::ChecksumMismatch { .. }))
            ));
        }

        // Every strict prefix is Truncated.
        for len in [0, 7, header - 1, header, bytes.len() / 2, bytes.len() - 1] {
            prop_assert!(matches!(
                CalibrationSnapshot::from_bytes(&bytes[..len]),
                Err(PufferfishError::Snapshot(SnapshotError::Truncated { .. }))
            ));
        }
    }
}

/// CI cross-process gate: when `PUFFERFISH_CI_SNAPSHOT` names a file
/// exported by `examples/snapshot_cycle.rs export` in a **previous CI
/// step** (a separate process), import it here and require zero
/// calibrations plus bitwise-identical seeded releases against an engine
/// calibrated cold inside *this* process. Without the variable (local
/// runs) the test passes vacuously — the in-process properties above
/// cover the format.
#[test]
fn ci_snapshot_from_previous_step_imports_cleanly() {
    let Ok(path) = std::env::var("PUFFERFISH_CI_SNAPSHOT") else {
        return;
    };
    // Must mirror the engine `examples/snapshot_cycle.rs` constructs.
    let make_engine = || {
        let chain =
            MarkovChain::with_stationary_initial(vec![vec![0.85, 0.15], vec![0.35, 0.65]]).unwrap();
        ReleaseEngine::new(MqmExactCalibrator::new(
            MarkovChainClass::singleton(chain),
            100,
            MqmExactOptions::default(),
        ))
    };
    let query = StateFrequencyQuery::new(1, 100);
    let database: Vec<usize> = (0..100).map(|t| (t / 3) % 2).collect();
    let release_at = |engine: &ReleaseEngine, epsilon: f64| {
        let budget = PrivacyBudget::new(epsilon).unwrap();
        let mut rng = StdRng::seed_from_u64(42);
        engine.release(&query, &database, budget, &mut rng).unwrap()
    };

    let snapshot = CalibrationSnapshot::read_from_file(&path).unwrap();
    let warm = make_engine();
    let imported = warm.import_snapshot(&snapshot).unwrap();
    assert!(imported > 0, "the CI snapshot must carry calibrations");

    let cold = make_engine();
    for &epsilon in &[0.5, 1.0, 2.0] {
        let warm_release = release_at(&warm, epsilon);
        let cold_release = release_at(&cold, epsilon);
        assert_eq!(warm_release.values, cold_release.values);
        assert_eq!(warm_release.scale.to_bits(), cold_release.scale.to_bits());
    }
    assert_eq!(
        warm.stats().misses,
        0,
        "the other process's snapshot must cover every ε this process releases at"
    );
}

/// A snapshot file that was truncated on disk yields the typed error and
/// leaves an importing engine's cache untouched.
#[test]
fn truncated_file_is_typed_and_never_empties_the_cache() {
    let dir = std::env::temp_dir().join(format!(
        "pufferfish-snapshot-negative-{}",
        std::process::id()
    ));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("truncated.pfsnap");

    let engine = engine_for("mqm-exact", 30);
    let query = StateFrequencyQuery::new(1, 30);
    let budget = PrivacyBudget::new(1.0).unwrap();
    engine.mechanism(&query, budget).unwrap();
    let full = engine.export_snapshot();
    let bytes = full.to_bytes();
    std::fs::write(&path, &bytes[..bytes.len() - 5]).unwrap();
    assert!(matches!(
        CalibrationSnapshot::read_from_file(&path),
        Err(PufferfishError::Snapshot(SnapshotError::Truncated {
            needed,
            available
        })) if needed == bytes.len() && available == bytes.len() - 5
    ));

    // Flipped checksum byte on disk.
    let mut corrupt = bytes.clone();
    let last = corrupt.len() - 1;
    corrupt[last] ^= 0xFF;
    std::fs::write(&path, &corrupt).unwrap();
    assert!(matches!(
        CalibrationSnapshot::read_from_file(&path),
        Err(PufferfishError::Snapshot(
            SnapshotError::ChecksumMismatch { .. }
        ))
    ));

    // Bumped version field on disk.
    let mut versioned = bytes.clone();
    versioned[8] += 1;
    std::fs::write(&path, &versioned).unwrap();
    assert!(matches!(
        CalibrationSnapshot::read_from_file(&path),
        Err(PufferfishError::Snapshot(
            SnapshotError::UnsupportedVersion { .. }
        ))
    ));

    std::fs::remove_dir_all(&dir).unwrap();
}

/// Importing a snapshot from a *different* calibrator (class token
/// mismatch) is refused wholesale: typed error, cache untouched.
#[test]
fn class_mismatch_is_refused_without_touching_the_cache() {
    let source = engine_for("mqm-exact", 30);
    let query = StateFrequencyQuery::new(1, 30);
    let budget = PrivacyBudget::new(1.0).unwrap();
    source.mechanism(&query, budget).unwrap();
    let snapshot = source.export_snapshot();

    // Same family, different length ⇒ different class token.
    let other = engine_for("mqm-exact", 40);
    other
        .mechanism(&StateFrequencyQuery::new(1, 40), budget)
        .unwrap();
    let before = other.len();
    assert!(matches!(
        other.import_snapshot(&snapshot),
        Err(PufferfishError::Snapshot(
            SnapshotError::EngineMismatch { .. }
        ))
    ));
    assert_eq!(other.len(), before, "a refused import must change nothing");
    assert_eq!(other.stats().misses, 1);
}

/// A snapshot naming a family this build cannot restore is refused before
/// any entry is imported.
#[test]
fn unknown_family_is_refused_atomically() {
    let source = engine_for("group-dp", 30);
    let query = StateFrequencyQuery::new(1, 30);
    let budget = PrivacyBudget::new(1.0).unwrap();
    source.mechanism(&query, budget).unwrap();
    let mut snapshot = source.export_snapshot();
    snapshot.entries[0].state.family = "quantum-annealer";

    let target = engine_for("group-dp", 30);
    assert!(matches!(
        target.import_snapshot(&snapshot),
        Err(PufferfishError::Snapshot(SnapshotError::UnknownFamily(f))) if f == "quantum-annealer"
    ));
    assert!(
        target.is_empty(),
        "no entry may be imported from a refused snapshot"
    );
}

/// A snapshot whose scale form would skip the noise (a negative
/// multiplier: every release would publish the exact value) is refused on
/// its way in: a typed error, and nothing imported.
#[test]
fn noise_skipping_scale_form_is_refused_on_import() {
    let source = engine_for("mqm-approx", 30);
    let query = StateFrequencyQuery::new(1, 30);
    source
        .mechanism(&query, PrivacyBudget::new(1.0).unwrap())
        .unwrap();
    let mut snapshot = source.export_snapshot();
    snapshot.entries[0].state.scale = ScaleForm::LipschitzTimes { multiplier: -3.0 };
    let bytes = snapshot.to_bytes();

    let target = engine_for("mqm-approx", 30);
    let imported = CalibrationSnapshot::from_bytes(&bytes)
        .and_then(|decoded| target.import_snapshot(&decoded));
    assert!(
        matches!(
            imported,
            Err(PufferfishError::Snapshot(SnapshotError::Malformed(_)))
        ),
        "got {imported:?}"
    );
    assert_eq!(target.len(), 0, "no entry may be imported");
}
