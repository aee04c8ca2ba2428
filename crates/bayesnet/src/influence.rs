//! Max-influence (Definition 4.1 of the paper): the worst-case max-divergence
//! a protected variable can exert on a set of variables, over a class of
//! network parameterisations.

use crate::{BayesNetError, DiscreteBayesianNetwork, Result};

/// Probability below which an outcome is treated as impossible.
const ZERO_MASS: f64 = 1e-300;

/// Max-influence of `node` on the variable set `target` under a *single*
/// network parameterisation (the `e_{θ}` of Equation 5, computed by
/// enumeration rather than the chain-specific closed form).
///
/// Returns `f64::INFINITY` when some target assignment is possible under one
/// value of the node but impossible under another — such a quilt can never be
/// used by the mechanism.
///
/// # Errors
/// * [`BayesNetError::NodeOutOfRange`] / [`BayesNetError::MissingCpd`] for
///   malformed inputs.
/// * [`BayesNetError::InvalidQuilt`] if `node` appears in `target`.
pub fn max_influence_single(
    network: &DiscreteBayesianNetwork,
    node: usize,
    target: &[usize],
) -> Result<f64> {
    if node >= network.num_nodes() {
        return Err(BayesNetError::NodeOutOfRange {
            node,
            num_nodes: network.num_nodes(),
        });
    }
    if target.contains(&node) {
        return Err(BayesNetError::InvalidQuilt(format!(
            "target set may not contain the protected node {node}"
        )));
    }
    if target.is_empty() {
        return Ok(0.0);
    }

    let node_marginal = network.marginal(node)?;
    // Conditional distribution of the target set for each feasible node value.
    let mut conditionals: Vec<Option<Vec<f64>>> = Vec::with_capacity(node_marginal.len());
    for (value, &p) in node_marginal.iter().enumerate() {
        if p <= ZERO_MASS {
            conditionals.push(None);
            continue;
        }
        let dist = network.conditional_joint_distribution(target, &[(node, value)])?;
        conditionals.push(Some(dist));
    }

    let mut worst: f64 = 0.0;
    for (a, dist_a) in conditionals.iter().enumerate() {
        let Some(dist_a) = dist_a else { continue };
        for (b, dist_b) in conditionals.iter().enumerate() {
            if a == b {
                continue;
            }
            let Some(dist_b) = dist_b else { continue };
            for (pa, pb) in dist_a.iter().zip(dist_b) {
                if *pa <= ZERO_MASS {
                    continue;
                }
                if *pb <= ZERO_MASS {
                    return Ok(f64::INFINITY);
                }
                worst = worst.max((pa / pb).ln());
            }
        }
    }
    Ok(worst)
}

/// Max-influence `e_Θ(target | node)` over a class of networks sharing the
/// same structure (Definition 4.1): the supremum of
/// [`max_influence_single`] over the class.
///
/// # Errors
/// [`BayesNetError::InvalidStructure`] for an empty class, plus per-network
/// failures.
pub fn max_influence(
    networks: &[DiscreteBayesianNetwork],
    node: usize,
    target: &[usize],
) -> Result<f64> {
    if networks.is_empty() {
        return Err(BayesNetError::InvalidStructure(
            "network class is empty".to_string(),
        ));
    }
    let mut worst: f64 = 0.0;
    for network in networks {
        let influence = max_influence_single(network, node, target)?;
        worst = worst.max(influence);
        if worst.is_infinite() {
            break;
        }
    }
    Ok(worst)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Dag;
    use proptest::prelude::*;

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-9
    }

    /// 3-node binary chain with the running example's θ₁ dynamics, started
    /// from the paper's composition-example initial distribution [0.8, 0.2].
    fn chain3() -> DiscreteBayesianNetwork {
        let dag = Dag::chain(3);
        let mut net = DiscreteBayesianNetwork::new(dag, vec![2, 2, 2]).unwrap();
        net.set_cpd(0, vec![vec![0.8, 0.2]]).unwrap();
        let transition = vec![vec![0.9, 0.1], vec![0.4, 0.6]];
        net.set_cpd(1, transition.clone()).unwrap();
        net.set_cpd(2, transition).unwrap();
        net
    }

    #[test]
    fn section_4_3_composition_example_influences() {
        // The paper's Section 4.3 example: a 3-node chain with initial
        // distribution [0.8, 0.2] and transition [[0.9, 0.1], [0.4, 0.6]].
        // The quilts of the middle node X_2 (1-based) have max-influence
        // 0, log 6, log 6 and log 36 for ∅, {X_1}, {X_3}, {X_1, X_3}.
        let net = chain3();
        assert!(close(max_influence_single(&net, 1, &[]).unwrap(), 0.0));

        let left = max_influence_single(&net, 1, &[0]).unwrap();
        assert!(close(left, 6.0f64.ln()), "left influence {left}");

        let right = max_influence_single(&net, 1, &[2]).unwrap();
        assert!(close(right, 6.0f64.ln()), "right influence {right}");

        let both = max_influence_single(&net, 1, &[0, 2]).unwrap();
        assert!(close(both, 36.0f64.ln()), "two-sided influence {both}");
    }

    #[test]
    fn independent_nodes_have_zero_influence() {
        // Two disconnected binary nodes.
        let dag = Dag::new(2);
        let mut net = DiscreteBayesianNetwork::new(dag, vec![2, 2]).unwrap();
        net.set_cpd(0, vec![vec![0.5, 0.5]]).unwrap();
        net.set_cpd(1, vec![vec![0.3, 0.7]]).unwrap();
        assert!(close(max_influence_single(&net, 0, &[1]).unwrap(), 0.0));
    }

    #[test]
    fn deterministic_dependence_has_infinite_influence() {
        // X1 copies X0 exactly: observing X1 reveals X0.
        let mut dag = Dag::new(2);
        dag.add_edge(0, 1).unwrap();
        let mut net = DiscreteBayesianNetwork::new(dag, vec![2, 2]).unwrap();
        net.set_cpd(0, vec![vec![0.5, 0.5]]).unwrap();
        net.set_cpd(1, vec![vec![1.0, 0.0], vec![0.0, 1.0]])
            .unwrap();
        assert!(max_influence_single(&net, 0, &[1]).unwrap().is_infinite());
    }

    #[test]
    fn influence_monotone_in_correlation_strength() {
        let make = |stay: f64| {
            let mut dag = Dag::new(2);
            dag.add_edge(0, 1).unwrap();
            let mut net = DiscreteBayesianNetwork::new(dag, vec![2, 2]).unwrap();
            net.set_cpd(0, vec![vec![0.5, 0.5]]).unwrap();
            net.set_cpd(1, vec![vec![stay, 1.0 - stay], vec![1.0 - stay, stay]])
                .unwrap();
            net
        };
        let weak = max_influence_single(&make(0.6), 0, &[1]).unwrap();
        let strong = max_influence_single(&make(0.9), 0, &[1]).unwrap();
        assert!(strong > weak);
        assert!(weak > 0.0);
    }

    #[test]
    fn class_influence_is_the_maximum_over_members() {
        let make = |stay: f64| {
            let mut dag = Dag::new(2);
            dag.add_edge(0, 1).unwrap();
            let mut net = DiscreteBayesianNetwork::new(dag, vec![2, 2]).unwrap();
            net.set_cpd(0, vec![vec![0.5, 0.5]]).unwrap();
            net.set_cpd(1, vec![vec![stay, 1.0 - stay], vec![1.0 - stay, stay]])
                .unwrap();
            net
        };
        let weak = make(0.6);
        let strong = make(0.9);
        let class_value = max_influence(&[weak.clone(), strong.clone()], 0, &[1]).unwrap();
        let strong_value = max_influence_single(&strong, 0, &[1]).unwrap();
        assert!(close(class_value, strong_value));
        assert!(max_influence(&[], 0, &[1]).is_err());
    }

    #[test]
    fn skipped_zero_probability_node_values() {
        // X0 is deterministically 0; the influence maximisation must skip the
        // impossible value 1 rather than dividing by zero.
        let mut dag = Dag::new(2);
        dag.add_edge(0, 1).unwrap();
        let mut net = DiscreteBayesianNetwork::new(dag, vec![2, 2]).unwrap();
        net.set_cpd(0, vec![vec![1.0, 0.0]]).unwrap();
        net.set_cpd(1, vec![vec![0.7, 0.3], vec![0.2, 0.8]])
            .unwrap();
        assert!(close(max_influence_single(&net, 0, &[1]).unwrap(), 0.0));
    }

    #[test]
    fn validation_errors() {
        let net = chain3();
        assert!(max_influence_single(&net, 9, &[0]).is_err());
        assert!(matches!(
            max_influence_single(&net, 1, &[1]),
            Err(BayesNetError::InvalidQuilt(_))
        ));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Max-influence is >= 0 (or +inf) for every node and target set of
        /// random chain networks and two-member classes of them: the
        /// invariant the Markov Quilt Mechanism's exact quilt prune rests on.
        #[test]
        fn max_influence_is_never_negative(
            len in 2usize..6,
            k in 2usize..4,
            members in 1usize..3,
            draws in collection::vec((0.0f64..1.0, 0u8..4), 24),
        ) {
            let row = |cells: &[(f64, u8)]| -> Vec<f64> {
                let weights: Vec<f64> =
                    cells.iter().map(|&(w, kind)| if kind == 0 { 0.0 } else { w + 1e-3 }).collect();
                let sum: f64 = weights.iter().sum();
                if sum > 0.0 {
                    weights.iter().map(|w| w / sum).collect()
                } else {
                    vec![1.0 / k as f64; k]
                }
            };
            let networks: Vec<DiscreteBayesianNetwork> = (0..members)
                .map(|m| {
                    let cells = &draws[12 * m..12 * (m + 1)];
                    let mut net =
                        DiscreteBayesianNetwork::new(Dag::chain(len), vec![k; len]).unwrap();
                    net.set_cpd(0, vec![row(&cells[..k])]).unwrap();
                    let transition: Vec<Vec<f64>> =
                        (0..k).map(|r| row(&cells[k * (r + 1)..k * (r + 2)])).collect();
                    for node in 1..len {
                        net.set_cpd(node, transition.clone()).unwrap();
                    }
                    net
                })
                .collect();
            for node in 0..len {
                let others: Vec<usize> = (0..len).filter(|&n| n != node).collect();
                for mask in 0..1usize << others.len() {
                    let target: Vec<usize> = others
                        .iter()
                        .enumerate()
                        .filter(|&(bit, _)| mask >> bit & 1 == 1)
                        .map(|(_, &n)| n)
                        .collect();
                    let influence = max_influence(&networks, node, &target).unwrap();
                    prop_assert!(influence >= 0.0, "node {node}, target {target:?}: {influence}");
                }
            }
        }
    }
}
