//! The general Markov Quilt Mechanism (Algorithm 2 of the paper) for data
//! whose correlation is described by an arbitrary discrete Bayesian network.
//!
//! This is the fully general form of the mechanism: candidate quilts are
//! validated by d-separation and their max-influence is computed by exact
//! inference over the network class. It is intended for moderately sized
//! networks; the Markov-chain specialisations [`crate::MqmExact`] and
//! [`crate::MqmApprox`] scale to the paper's large time-series workloads.
//!
//! Each node's quilt is chosen by the scorer Algorithms 2–4 share
//! (`best_quilt` in `mqm_chain_influence.rs`).

use pufferfish_bayesnet::{markov_blanket, max_influence, DiscreteBayesianNetwork, MarkovQuilt};
use pufferfish_parallel::{try_par_map, Parallelism};

use crate::mechanism::{Mechanism, PrivacyBudget};
use crate::mqm_chain_influence::best_quilt;
use crate::snapshot::{MechanismState, ScaleForm, ValidationForm};
use crate::{PufferfishError, Result};

/// Options for [`MarkovQuiltMechanism::calibrate`].
#[derive(Debug, Clone, Default)]
pub struct QuiltMechanismOptions {
    /// Candidate quilts per node. When `None`, the mechanism uses the trivial
    /// quilt plus the Markov-blanket quilt for each node.
    ///
    /// Each inner vector must contain quilts *for the node at that index*.
    pub quilt_candidates: Option<Vec<Vec<MarkovQuilt>>>,
    /// How to execute the per-node quilt search (results are identical for
    /// every policy; only wall-clock time changes).
    pub parallelism: Parallelism,
}

/// Per-node calibration summary.
#[derive(Debug, Clone)]
pub struct NodeCalibration {
    /// The node being protected.
    pub node: usize,
    /// The winning quilt.
    pub quilt: MarkovQuilt,
    /// Its max-influence under the class.
    pub max_influence: f64,
    /// Its score `card(X_N) / (ε − e_Θ)`.
    pub score: f64,
}

/// A calibrated general Markov Quilt Mechanism.
#[derive(Debug, Clone)]
pub struct MarkovQuiltMechanism {
    state: MechanismState,
    sigma_max: f64,
    per_node: Vec<NodeCalibration>,
}

impl MarkovQuiltMechanism {
    /// Calibrates the mechanism for a class of networks sharing one DAG.
    ///
    /// Every node's candidates are validated up front. A candidate whose
    /// `card(X_N) / ε` already reaches the node's best score cannot win, so
    /// its max-influence is not computed, and an inference error it would
    /// raise does not surface.
    ///
    /// # Errors
    /// * [`PufferfishError::InvalidFramework`] for an empty class, networks
    ///   with mismatched structures, or malformed candidate quilt sets.
    /// * [`PufferfishError::CannotCalibrate`] when a node has no candidates,
    ///   or every candidate has max-influence ≥ ε.
    /// * Substrate errors from inference are propagated.
    pub fn calibrate(
        networks: &[DiscreteBayesianNetwork],
        budget: PrivacyBudget,
        options: QuiltMechanismOptions,
    ) -> Result<Self> {
        let first = networks.first().ok_or_else(|| {
            PufferfishError::InvalidFramework("network class is empty".to_string())
        })?;
        let num_nodes = first.num_nodes();
        for network in networks {
            if network.num_nodes() != num_nodes || network.dag() != first.dag() {
                return Err(PufferfishError::InvalidFramework(
                    "all networks in the class must share the same DAG".to_string(),
                ));
            }
        }
        if let Some(candidates) = &options.quilt_candidates {
            if candidates.len() != num_nodes {
                return Err(PufferfishError::InvalidFramework(format!(
                    "expected quilt candidates for {num_nodes} nodes, got {}",
                    candidates.len()
                )));
            }
        }

        let epsilon = budget.epsilon();

        // Per-node quilt searches are independent (exact inference over the
        // shared network class): run them under the configured parallelism
        // policy and fold in node order for schedule-independent results.
        let nodes: Vec<usize> = (0..num_nodes).collect();
        let per_node: Vec<NodeCalibration> = try_par_map(options.parallelism, &nodes, |&node| {
            let candidates = match &options.quilt_candidates {
                Some(all) => all[node].clone(),
                None => default_candidates(first, node)?,
            };
            if candidates.iter().any(|q| q.node() != node) {
                return Err(PufferfishError::InvalidFramework(format!(
                    "a candidate quilt for node {node} targets a different node"
                )));
            }
            if candidates.is_empty() {
                return Err(PufferfishError::CannotCalibrate(format!(
                    "node {node} has no candidate quilts"
                )));
            }
            // The candidates come in no order of card, so each is a run of one.
            let candidates = candidates
                .into_iter()
                .map(|q| std::iter::once((q.card_nearby(), q)));
            let best = best_quilt(epsilon, candidates, |quilt| {
                Ok(max_influence(networks, node, quilt.quilt())?)
            })?;
            match best {
                Some((score, max_influence, quilt)) if score.is_finite() => Ok(NodeCalibration {
                    node,
                    quilt,
                    max_influence,
                    score,
                }),
                _ => Err(PufferfishError::CannotCalibrate(format!(
                    "every candidate quilt for node {node} has max-influence >= epsilon; \
                     include the trivial quilt to guarantee calibration"
                ))),
            }
        })?;

        let sigma_max = per_node
            .iter()
            .fold(0.0f64, |acc, calibration| acc.max(calibration.score));

        Ok(MarkovQuiltMechanism {
            state: MechanismState {
                family: "markov-quilt",
                epsilon,
                scale: ScaleForm::LipschitzTimes {
                    multiplier: sigma_max,
                },
                validation: ValidationForm::NodeCardinalities {
                    cardinalities: (0..num_nodes).map(|n| first.cardinality(n)).collect(),
                },
            },
            sigma_max,
            per_node,
        })
    }

    /// The noise multiplier `σ_max`.
    pub fn sigma_max(&self) -> f64 {
        self.sigma_max
    }

    /// The winning quilt and score for each node (the "active" quilts of
    /// Definition 4.5, which the composition theorem relies on).
    pub fn per_node(&self) -> &[NodeCalibration] {
        &self.per_node
    }
}

impl Mechanism for MarkovQuiltMechanism {
    fn state(&self) -> &MechanismState {
        &self.state
    }
}

/// Default candidate set: the trivial quilt plus the Markov-blanket quilt.
fn default_candidates(network: &DiscreteBayesianNetwork, node: usize) -> Result<Vec<MarkovQuilt>> {
    let n = network.num_nodes();
    let mut candidates = vec![MarkovQuilt::trivial(n, node)?];
    let blanket = markov_blanket(network.dag(), node)?;
    if !blanket.is_empty() && blanket.len() < n - 1 {
        candidates.push(MarkovQuilt::for_node(network.dag(), node, blanket)?);
    }
    Ok(candidates)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::queries::StateCountQuery;
    use pufferfish_bayesnet::{chain_quilts, Dag};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn chain_network(
        initial: [f64; 2],
        stay0: f64,
        stay1: f64,
        len: usize,
    ) -> DiscreteBayesianNetwork {
        let dag = Dag::chain(len);
        let mut net = DiscreteBayesianNetwork::new(dag, vec![2; len]).unwrap();
        net.set_cpd(0, vec![initial.to_vec()]).unwrap();
        for node in 1..len {
            net.set_cpd(
                node,
                vec![vec![stay0, 1.0 - stay0], vec![1.0 - stay1, stay1]],
            )
            .unwrap();
        }
        net
    }

    #[test]
    fn calibration_with_chain_quilts_matches_exact_mechanism() {
        // A 6-node chain: the generic mechanism with full chain-quilt
        // candidate sets must agree with MQMExact.
        let len = 6;
        let net = chain_network([0.8, 0.2], 0.9, 0.6, len);
        let candidates: Vec<Vec<MarkovQuilt>> = (0..len)
            .map(|node| chain_quilts(len, node, len).unwrap())
            .collect();
        let budget = PrivacyBudget::new(2.0).unwrap();
        let generic = MarkovQuiltMechanism::calibrate(
            &[net],
            budget,
            QuiltMechanismOptions {
                quilt_candidates: Some(candidates),
                ..Default::default()
            },
        )
        .unwrap();

        let chain = pufferfish_markov::MarkovChain::new(
            vec![0.8, 0.2],
            vec![vec![0.9, 0.1], vec![0.4, 0.6]],
        )
        .unwrap();
        let exact = crate::MqmExact::calibrate_single(
            &chain,
            len,
            budget,
            crate::MqmExactOptions::default(),
        )
        .unwrap();
        assert!(
            (generic.sigma_max() - exact.sigma_max()).abs() < 1e-6,
            "generic {} vs exact {}",
            generic.sigma_max(),
            exact.sigma_max()
        );
        assert_eq!(generic.per_node().len(), len);
        assert_eq!(generic.epsilon(), 2.0);
    }

    #[test]
    fn default_candidates_use_blanket_and_trivial() {
        let net = chain_network([0.5, 0.5], 0.7, 0.7, 5);
        let budget = PrivacyBudget::new(3.0).unwrap();
        let mechanism =
            MarkovQuiltMechanism::calibrate(&[net], budget, QuiltMechanismOptions::default())
                .unwrap();
        // Every node got a finite score, and sigma never exceeds the trivial
        // bound n / epsilon.
        assert!(mechanism.sigma_max() <= 5.0 / 3.0 + 1e-12);
        for calibration in mechanism.per_node() {
            assert!(calibration.score.is_finite());
            assert!(calibration.max_influence >= 0.0);
        }
    }

    #[test]
    fn figure_2_network_is_supported() {
        // The non-chain network of Figure 2.
        let mut dag = Dag::new(4);
        dag.add_edge(0, 1).unwrap();
        dag.add_edge(0, 2).unwrap();
        dag.add_edge(1, 3).unwrap();
        dag.add_edge(2, 3).unwrap();
        let mut net = DiscreteBayesianNetwork::new(dag, vec![2; 4]).unwrap();
        net.set_cpd(0, vec![vec![0.6, 0.4]]).unwrap();
        net.set_cpd(1, vec![vec![0.7, 0.3], vec![0.2, 0.8]])
            .unwrap();
        net.set_cpd(2, vec![vec![0.9, 0.1], vec![0.4, 0.6]])
            .unwrap();
        net.set_cpd(
            3,
            vec![
                vec![0.9, 0.1],
                vec![0.7, 0.3],
                vec![0.6, 0.4],
                vec![0.1, 0.9],
            ],
        )
        .unwrap();
        let mechanism = MarkovQuiltMechanism::calibrate(
            &[net],
            PrivacyBudget::new(2.0).unwrap(),
            QuiltMechanismOptions::default(),
        )
        .unwrap();
        assert!(mechanism.sigma_max() > 0.0);
        assert!(mechanism.sigma_max() <= 4.0 / 2.0 + 1e-12);
    }

    #[test]
    fn class_calibration_takes_worst_member() {
        let weak = chain_network([0.5, 0.5], 0.6, 0.6, 5);
        let strong = chain_network([0.5, 0.5], 0.95, 0.95, 5);
        let budget = PrivacyBudget::new(1.0).unwrap();
        let class_mechanism = MarkovQuiltMechanism::calibrate(
            &[weak.clone(), strong.clone()],
            budget,
            QuiltMechanismOptions::default(),
        )
        .unwrap();
        let weak_only =
            MarkovQuiltMechanism::calibrate(&[weak], budget, QuiltMechanismOptions::default())
                .unwrap();
        assert!(class_mechanism.sigma_max() >= weak_only.sigma_max() - 1e-12);
    }

    #[test]
    fn validation_errors() {
        let net = chain_network([0.5, 0.5], 0.7, 0.7, 4);
        let budget = PrivacyBudget::new(1.0).unwrap();
        assert!(MarkovQuiltMechanism::calibrate(&[], budget, Default::default()).is_err());

        // Mismatched structures.
        let other = chain_network([0.5, 0.5], 0.7, 0.7, 5);
        assert!(
            MarkovQuiltMechanism::calibrate(&[net.clone(), other], budget, Default::default())
                .is_err()
        );

        // Wrong number of candidate vectors.
        assert!(MarkovQuiltMechanism::calibrate(
            std::slice::from_ref(&net),
            budget,
            QuiltMechanismOptions {
                quilt_candidates: Some(vec![vec![]]),
                ..Default::default()
            },
        )
        .is_err());

        // Candidate targeting the wrong node.
        let wrong = vec![
            vec![MarkovQuilt::trivial(4, 1).unwrap()],
            vec![MarkovQuilt::trivial(4, 1).unwrap()],
            vec![MarkovQuilt::trivial(4, 2).unwrap()],
            vec![MarkovQuilt::trivial(4, 3).unwrap()],
        ];
        assert!(MarkovQuiltMechanism::calibrate(
            std::slice::from_ref(&net),
            budget,
            QuiltMechanismOptions {
                quilt_candidates: Some(wrong),
                ..Default::default()
            },
        )
        .is_err());

        // Empty candidate list for some node.
        let empty = vec![
            vec![MarkovQuilt::trivial(4, 0).unwrap()],
            vec![],
            vec![MarkovQuilt::trivial(4, 2).unwrap()],
            vec![MarkovQuilt::trivial(4, 3).unwrap()],
        ];
        assert!(MarkovQuiltMechanism::calibrate(
            &[net],
            budget,
            QuiltMechanismOptions {
                quilt_candidates: Some(empty),
                ..Default::default()
            },
        )
        .is_err());
    }

    #[test]
    fn release_and_database_validation() {
        let net = chain_network([0.5, 0.5], 0.8, 0.8, 4);
        let mechanism = MarkovQuiltMechanism::calibrate(
            &[net],
            PrivacyBudget::new(1.0).unwrap(),
            QuiltMechanismOptions::default(),
        )
        .unwrap();
        let query = StateCountQuery::new(1, 4);
        let mut rng = StdRng::seed_from_u64(17);
        let release = mechanism.release(&query, &[0, 1, 1, 0], &mut rng).unwrap();
        assert_eq!(release.true_values, vec![2.0]);
        assert!(release.scale > 0.0);
        assert!(mechanism.release(&query, &[0, 1], &mut rng).is_err());
        assert!(mechanism.release(&query, &[0, 1, 9, 0], &mut rng).is_err());
    }
}
