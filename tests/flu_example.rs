//! Integration test: the flu-status example of Sections 2.2 and 3, released
//! end-to-end through the Wasserstein Mechanism and compared with the
//! group-DP baseline.

use pufferfish_baselines::GroupDp;
use pufferfish_core::flu::{contagion_distribution, flu_clique_framework};
use pufferfish_core::queries::StateCountQuery;
use pufferfish_core::{Mechanism, PrivacyBudget, WassersteinMechanism};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Section 3's worked example: W = 2 for the 4-person clique with infection
/// distribution (0.1, 0.15, 0.5, 0.15, 0.1), strictly better than group DP's
/// sensitivity of 4 (Theorem 3.3).
#[test]
fn paper_flu_example_wasserstein_parameter() {
    let framework = flu_clique_framework(4, &[0.1, 0.15, 0.5, 0.15, 0.1]).unwrap();
    let query = StateCountQuery::new(1, 4);
    let budget = PrivacyBudget::new(1.0).unwrap();
    let mechanism = WassersteinMechanism::calibrate(&framework, &query, budget).unwrap();
    assert!((mechanism.wasserstein_parameter() - 2.0).abs() < 1e-9);

    // Group DP treats the whole clique as one group of 4 binary records, so
    // its Laplace scale for the count query is 4 / epsilon.
    let group = GroupDp::calibrate(4, budget).unwrap();
    assert!((group.noise_scale_for(&query) - 4.0).abs() < 1e-9);
    assert!(mechanism.noise_scale() < group.noise_scale_for(&query));
}

/// End-to-end release accuracy: the Wasserstein Mechanism's mean error is
/// about half that of group DP on the same clique.
#[test]
fn wasserstein_release_beats_group_dp() {
    let framework = flu_clique_framework(4, &[0.1, 0.15, 0.5, 0.15, 0.1]).unwrap();
    let query = StateCountQuery::new(1, 4);
    let budget = PrivacyBudget::new(1.0).unwrap();
    let mechanism = WassersteinMechanism::calibrate(&framework, &query, budget).unwrap();
    let group = GroupDp::calibrate(4, budget).unwrap();

    let database = vec![1, 1, 0, 0];
    let mut rng = StdRng::seed_from_u64(13);
    let trials = 20_000;
    let (mut wasserstein_error, mut group_error) = (0.0, 0.0);
    for _ in 0..trials {
        wasserstein_error += mechanism
            .release(&query, &database, &mut rng)
            .unwrap()
            .l1_error();
        group_error += group
            .release(&query, &database, &mut rng)
            .unwrap()
            .l1_error();
    }
    wasserstein_error /= trials as f64;
    group_error /= trials as f64;
    assert!(
        (wasserstein_error - 2.0).abs() < 0.1,
        "wasserstein {wasserstein_error}"
    );
    assert!((group_error - 4.0).abs() < 0.2, "group {group_error}");
}

/// Correlated contagion models need more noise than independent infections,
/// but the Wasserstein parameter never exceeds the group sensitivity
/// (Theorem 3.3).
///
/// Note `contagion_distribution(n, 0.0)` is *uniform over counts* — a
/// strongly correlated model (the count barely constrains any individual, so
/// conditioning shifts the whole count distribution) — not independence.
/// True independence is the binomial count distribution `C(n, j) / 2^n`.
#[test]
fn contagion_strength_and_clique_size_scaling() {
    let budget = PrivacyBudget::new(1.0).unwrap();
    let query = StateCountQuery::new(1, 6);

    // Independent fair coins: the count is Binomial(6, 1/2) and W collapses
    // to (about) the entry-DP sensitivity 1.
    let binomial: Vec<f64> = {
        let mut row = vec![1.0f64];
        for k in 1..=6usize {
            let next = row[k - 1] * (6 - k + 1) as f64 / k as f64;
            row.push(next);
        }
        let total: f64 = row.iter().sum();
        row.into_iter().map(|c| c / total).collect()
    };
    let independent = flu_clique_framework(6, &binomial).unwrap();
    let w_independent = WassersteinMechanism::calibrate(&independent, &query, budget)
        .unwrap()
        .wasserstein_parameter();
    assert!(w_independent < 2.5, "binomial W = {w_independent}");

    // Every contagion-shaped model is more correlated than independence:
    // W strictly exceeds the independent case yet respects Theorem 3.3's
    // group-sensitivity ceiling.
    for strength in [0.0, 1.0, 2.0] {
        let dist = contagion_distribution(6, strength);
        let framework = flu_clique_framework(6, &dist).unwrap();
        let mechanism = WassersteinMechanism::calibrate(&framework, &query, budget).unwrap();
        let w = mechanism.wasserstein_parameter();
        assert!(w <= 6.0 + 1e-9, "strength {strength}: W = {w}");
        assert!(
            w > w_independent + 0.4,
            "strength {strength}: W = {w} vs independent {w_independent}"
        );
    }
}
