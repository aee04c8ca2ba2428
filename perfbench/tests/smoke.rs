//! Smoke test of the benchmark itself: every workload runs at tiny sizes,
//! every metric `BENCHMARK.json` names is emitted with its unit, and the
//! correctness gate catches a corrupted answer.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use std::collections::BTreeMap;

use perfbench::gate::{check_releases, query_digest, wire_result, ReleaseBlocks};
use perfbench::inputs::{release_budget, release_query, scoped_user, Inputs, STATEMENT};
use perfbench::stack;
use perfbench::{run, Sizes, Workload};
use pufferfish_query::{QueryService, QueryServiceConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// `(name, unit)` of every metric listed under `section` in the repository's
/// `BENCHMARK.json` (a metric entry is an object with a `"unit"` key).
fn declared(section: &str) -> BTreeMap<String, String> {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json sits at the repository root");
    let start = text
        .find(&format!("\"{section}\""))
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {section} section"));
    let body = &text[start..];
    let end = body.find(']').expect("the section is a list");
    let quoted = |entry: &str, key: &str| -> Option<String> {
        let after = &entry[entry.find(&format!("\"{key}\""))? + key.len() + 2..];
        let open = after.find('"')? + 1;
        let close = open + after[open..].find('"')?;
        Some(after[open..close].to_string())
    };
    body[..end]
        .split('}')
        .filter_map(|entry| Some((quoted(entry, "name")?, quoted(entry, "unit")?)))
        .collect()
}

#[test]
fn every_declared_metric_is_emitted_with_its_unit() {
    let end_to_end = declared("end_to_end");
    let per_layer = declared("per_layer");
    assert!(end_to_end.contains_key("setup_s"));
    assert!(!per_layer.is_empty());
    for workload in Workload::ALL {
        for (trace, expected) in [(false, &end_to_end), (true, &per_layer)] {
            let outcome = run(workload, 7, 0.3, trace, &Sizes::tiny());
            assert!(
                outcome.correct,
                "{} trace={trace} failed its gate: {:?}",
                workload.name(),
                outcome.report
            );
            assert_eq!(outcome.failed, 0);
            assert!(outcome.attempted > 0);
            let emitted: BTreeMap<String, String> = outcome
                .metrics
                .iter()
                .map(|(name, _, unit)| (name.to_string(), unit.to_string()))
                .collect();
            assert_eq!(
                &emitted,
                expected,
                "{} trace={trace} emits a different metric set",
                workload.name()
            );
            assert!(outcome
                .metrics
                .iter()
                .all(|(_, value, _)| value.is_finite()));
            let json = outcome.json();
            assert!(json.starts_with("{\"correct\": true, \"attempted\": "));
        }
    }
}

#[test]
fn the_gate_catches_a_corrupted_release() {
    let inputs = Inputs::new(Workload::ReleaseFresh, 3);
    let engine = stack::release_engine();
    let first = 0;
    let end = 8;
    let answers = |corrupt: Option<u64>| {
        let mut blocks = ReleaseBlocks::new(first);
        for counter in first..end {
            let mut rng = StdRng::seed_from_u64(inputs.request_seed(counter));
            let release = engine
                .release(
                    &release_query(),
                    inputs.database(counter),
                    release_budget(),
                    &mut rng,
                )
                .unwrap();
            let mut values = release.values;
            if corrupt == Some(counter) {
                values[0] = f64::from_bits(values[0].to_bits() ^ 1);
            }
            blocks.record(counter, release.scale, &values);
        }
        blocks
    };
    assert_eq!(
        check_releases(&inputs, &engine, &answers(None), end, &[]),
        0
    );
    assert!(check_releases(&inputs, &engine, &answers(Some(5)), end, &[]) > 0);
    // A missing answer is caught as well.
    assert!(check_releases(&inputs, &engine, &answers(None), end + 1, &[]) > 0);
}

#[test]
fn the_gate_catches_a_corrupted_query_answer() {
    let inputs = Inputs::new(Workload::AnalystMix, 3);
    let warmed = stack::analyst_catalog(&inputs);
    let config = QueryServiceConfig {
        per_user_epsilon: 1e12,
        parallelism: stack::QUERY_PARALLELISM,
    };
    let service = QueryService::start(warmed.catalog, config).unwrap();
    let replica = QueryService::start(stack::analyst_catalog(&inputs).catalog, config).unwrap();
    let counter = 11;
    let result = service
        .query(
            &scoped_user(inputs.user(counter)),
            STATEMENT,
            &inputs.table(),
            inputs.request_seed(counter),
        )
        .unwrap();
    let mut wire = wire_result(&result);
    let honest = query_digest(&wire);
    assert_eq!(
        perfbench::gate::check_queries(&inputs, &replica, &[(counter, honest)]),
        0
    );
    let value = &mut wire.cells[3].windows[2].values[0];
    *value = f64::from_bits(value.to_bits() ^ 1);
    assert_eq!(
        perfbench::gate::check_queries(&inputs, &replica, &[(counter, query_digest(&wire))]),
        1
    );
}
