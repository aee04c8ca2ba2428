//! Progressive anytime releases: one window of events answered as a
//! coarse-to-fine stream of privatised estimates.
//!
//! A [`RefinementSchedule`] lists the prefixes of a window at which an
//! estimate is published and the per-step ε each estimate pays (the
//! `pufferfish-query` planner searches for ε-optimal schedules; anything
//! satisfying the validation here is runnable). A [`ProgressiveRelease`]
//! drives the schedule over a live event stream: the caller gets a coarse
//! answer as soon as the first prefix fills — long before the window does —
//! and strictly better answers at every later refinement point, each
//! carrying a *certified* error bound from the step's actual Laplace scale
//! ([`pufferfish_core::laplace_error_bound`]).
//!
//! Budget is charged through a [`BudgetAccountant`] **up front**: every
//! scheduled step is admitted (and ledgered) as its own tagged spend before
//! the first event arrives, so a schedule either fits the user's remaining
//! budget whole or is refused whole. Stopping early — [`abort`] or simply
//! dropping the driver — refunds exactly the steps that never released.
//!
//! The headline guarantee is *bitwise equivalence*: the final refinement is
//! produced by the very same release path — the full-window histogram
//! released through the backend's calibration cache
//! ([`StreamBackend::engine`]) at the final ε — seeded with the very same
//! raw seed, that a one-shot release of the full window would use — see
//! [`ProgressiveRelease::one_shot`]. Intermediate steps draw
//! their noise from seeds derived per step (a splitmix64 mix of the raw
//! seed and the step index), so they can never perturb the final answer's
//! noise stream. Paying for early answers therefore costs nothing in final
//! accuracy: at equal seed and equal final ε, the progressive pipeline's
//! last answer *is* the one-shot answer, bit for bit.
//!
//! [`abort`]: ProgressiveRelease::abort

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::SeedableRng;

use pufferfish_core::queries::RelativeFrequencyHistogram;
use pufferfish_core::{laplace_error_bound, NoisyRelease, PrivacyBudget, ReleaseEngine};
use pufferfish_markov::MarkovChainClass;
use pufferfish_telemetry::query_signature;

use crate::budget::{BudgetAccountant, SpendTag};
use crate::stream::{StreamBackend, WindowRelease};
use crate::ServiceError;

/// One scheduled refinement point: release an estimate over the first
/// `prefix` events at privacy parameter `epsilon`, predicted (by the
/// planner) to land within `error_bound` of the true answer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RefinementStep {
    /// How many events the estimate covers (the window prefix length).
    pub prefix: usize,
    /// The ε this step's release spends.
    pub epsilon: f64,
    /// The planner's predicted sup-norm error bound for this step, at the
    /// schedule's confidence. Informational: the bound *certified* at
    /// release time is recomputed from the step's actual noise scale.
    pub error_bound: f64,
}

/// A validated anytime-release plan: which window prefixes to answer at,
/// at what per-step ε, at what confidence.
///
/// Validation pins down the invariants every consumer relies on:
///
/// * at least one step, prefixes strictly increasing — the last prefix *is*
///   the window, and the final step answers over the whole of it;
/// * every ε positive, finite and **bitwise identical** across steps.
///   Homogeneity makes Theorem 4.4 composition collapse to `k · ε`, so
///   [`total_epsilon`](RefinementSchedule::total_epsilon) equals the
///   composed guarantee a
///   [`CompositionAccountant`](pufferfish_core::CompositionAccountant)
///   reports — exactly, not up to tolerance;
/// * error bounds positive, finite and non-increasing — refinements must
///   not get *worse*;
/// * confidence strictly inside (0, 1).
#[derive(Debug, Clone, PartialEq)]
pub struct RefinementSchedule {
    steps: Vec<RefinementStep>,
    confidence: f64,
}

impl RefinementSchedule {
    /// Validates and builds a schedule.
    ///
    /// # Errors
    /// [`ServiceError::InvalidConfig`] naming the violated invariant (see
    /// the type-level list).
    pub fn new(steps: Vec<RefinementStep>, confidence: f64) -> Result<Self, ServiceError> {
        if steps.is_empty() {
            return Err(ServiceError::InvalidConfig(
                "a refinement schedule needs at least one step".to_string(),
            ));
        }
        if !confidence.is_finite() || confidence <= 0.0 || confidence >= 1.0 {
            return Err(ServiceError::InvalidConfig(format!(
                "schedule confidence must lie in (0, 1), got {confidence}"
            )));
        }
        let epsilon_bits = steps[0].epsilon.to_bits();
        let mut previous: Option<&RefinementStep> = None;
        for (i, step) in steps.iter().enumerate() {
            if step.prefix == 0 {
                return Err(ServiceError::InvalidConfig(format!(
                    "schedule step {i} has an empty prefix"
                )));
            }
            if !step.epsilon.is_finite() || step.epsilon <= 0.0 {
                return Err(ServiceError::InvalidConfig(format!(
                    "schedule step {i} has non-positive epsilon {}",
                    step.epsilon
                )));
            }
            if step.epsilon.to_bits() != epsilon_bits {
                return Err(ServiceError::InvalidConfig(format!(
                    "schedule steps must share one epsilon (Theorem 4.4 \
                     composition then equals the plain sum): step {i} has {} \
                     but step 0 has {}",
                    step.epsilon, steps[0].epsilon
                )));
            }
            if !step.error_bound.is_finite() || step.error_bound <= 0.0 {
                return Err(ServiceError::InvalidConfig(format!(
                    "schedule step {i} has non-positive error bound {}",
                    step.error_bound
                )));
            }
            if let Some(prev) = previous {
                if step.prefix <= prev.prefix {
                    return Err(ServiceError::InvalidConfig(format!(
                        "schedule prefixes must strictly increase: step {i} \
                         has {} after {}",
                        step.prefix, prev.prefix
                    )));
                }
                if step.error_bound > prev.error_bound {
                    return Err(ServiceError::InvalidConfig(format!(
                        "refinements must not get worse: step {i} bound {} \
                         exceeds the previous bound {}",
                        step.error_bound, prev.error_bound
                    )));
                }
            }
            previous = Some(step);
        }
        Ok(RefinementSchedule { steps, confidence })
    }

    /// The refinement steps, in release order.
    pub fn steps(&self) -> &[RefinementStep] {
        &self.steps
    }

    /// The window length — the last (and largest) prefix, which the final
    /// step answers over in full.
    pub fn window(&self) -> usize {
        self.steps.last().expect("schedules are never empty").prefix
    }

    /// Total ε the schedule spends across all steps: `k · ε` for `k` steps.
    /// Because validation enforces bitwise-equal per-step ε, this *is* the
    /// Theorem 4.4 composed guarantee, exactly: the same product a
    /// [`CompositionAccountant`](pufferfish_core::CompositionAccountant)
    /// reports and the query planner prices a ladder at.
    pub fn total_epsilon(&self) -> f64 {
        self.steps.len() as f64 * self.steps[0].epsilon
    }

    /// The final step's ε — what an equivalent one-shot release of the full
    /// window would spend.
    pub fn final_epsilon(&self) -> f64 {
        self.steps
            .last()
            .expect("schedules are never empty")
            .epsilon
    }

    /// The confidence level the error bounds are certified at.
    pub fn confidence(&self) -> f64 {
        self.confidence
    }
}

/// One published refinement: the noisy estimate over a window prefix, with
/// the error bound certified from the release's actual noise scale.
#[derive(Debug, Clone, PartialEq)]
pub struct ProgressiveUpdate {
    /// 1-based ordinal of this refinement within the schedule.
    pub step: usize,
    /// Total steps in the schedule (`step == total_steps` on the final,
    /// full-window answer).
    pub total_steps: usize,
    /// Events this estimate covers.
    pub prefix: usize,
    /// The ε this step spent.
    pub epsilon: f64,
    /// The noisy release over the prefix (values, true values, scale).
    pub release: NoisyRelease,
    /// Certified sup-norm error bound: with probability at least
    /// [`confidence`](ProgressiveUpdate::confidence), every coordinate of
    /// the estimate lies within this distance of the true answer. Computed
    /// from the *actual* calibrated scale via
    /// [`pufferfish_core::laplace_error_bound`], not the planner's
    /// prediction.
    pub certified_error: f64,
    /// The confidence the certified bound holds at.
    pub confidence: f64,
    /// The driver's composed ε spend after this step (monotone across the
    /// update stream; equals the schedule's total on the final update).
    pub spent_epsilon: f64,
}

impl ProgressiveUpdate {
    /// `true` on the full-window answer — the one that is bitwise-identical
    /// to the equivalent one-shot release.
    pub fn is_final(&self) -> bool {
        self.step == self.total_steps
    }
}

/// Mixes a step index into the stream seed (splitmix64 finalizer), so
/// intermediate refinements draw noise from streams disjoint from the raw
/// seed the final step (and the one-shot comparator) consumes.
fn step_seed(seed: u64, step: usize) -> u64 {
    let mut z = seed ^ 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(step as u64 + 1);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Drives a [`RefinementSchedule`] over a live event stream, emitting a
/// [`ProgressiveUpdate`] as each scheduled prefix fills.
///
/// All scheduled steps are charged to `user` through the accountant at
/// [`begin`](ProgressiveRelease::begin) — one tagged ledger event per step
/// — and unconsumed steps are refunded on [`abort`](ProgressiveRelease::abort)
/// or drop. When its prefix fills, each step releases once through the
/// driver's calibration cache ([`StreamBackend::engine`]) and certifies its
/// error bound from the calibrated scale. The first release of a
/// `(prefix, ε)` calibrates it (per-prefix calibrations are what make the
/// first coarse answer fast); every later one is a cache hit — including
/// releases by other drivers that share the engine through
/// [`begin_with`](ProgressiveRelease::begin_with), which is how a server
/// calibrates each step of a recurring ladder once, not once per request.
///
/// # Example
///
/// ```
/// use pufferfish_markov::IntervalClassBuilder;
/// use pufferfish_service::{
///     BudgetAccountant, ProgressiveRelease, RefinementSchedule, RefinementStep, StreamBackend,
/// };
///
/// let class = IntervalClassBuilder::symmetric(0.45).grid_points(2).build().unwrap();
/// let budget = BudgetAccountant::new(2.0).unwrap();
/// let schedule = RefinementSchedule::new(
///     vec![
///         RefinementStep { prefix: 10, epsilon: 0.5, error_bound: 4.0 },
///         RefinementStep { prefix: 20, epsilon: 0.5, error_bound: 2.0 },
///     ],
///     0.95,
/// )
/// .unwrap();
///
/// let mut driver = ProgressiveRelease::begin(
///     "demo", &class, schedule, StreamBackend::MqmApprox, &budget, "alice", 7,
/// )
/// .unwrap();
/// // Both steps are charged before the first event arrives.
/// assert!((budget.spent("alice") - 1.0).abs() < 1e-12);
///
/// let mut answers = 0;
/// for t in 0..20 {
///     if let Some(update) = driver.push(t % 2).unwrap() {
///         answers += 1;
///         assert!(update.certified_error > 0.0);
///     }
/// }
/// assert_eq!(answers, 2);
/// assert!(driver.is_complete());
/// ```
pub struct ProgressiveRelease<'a> {
    name: String,
    num_states: usize,
    engine: Arc<ReleaseEngine>,
    budget: &'a BudgetAccountant,
    user: String,
    schedule: RefinementSchedule,
    backend: StreamBackend,
    seed: u64,
    query_sig: u64,
    buffer: Vec<usize>,
    next_step: usize,
    settled: bool,
}

impl<'a> ProgressiveRelease<'a> {
    /// Admits the whole schedule against `user`'s budget and returns the
    /// ready driver, releasing through a calibration cache of its own.
    ///
    /// Every step is charged as its own tagged spend (`seq` = step index),
    /// so an attached ε ledger records one `Charge` per scheduled
    /// refinement. If any step is refused, the steps already charged are
    /// refunded before the error returns — admission is all-or-nothing.
    ///
    /// # Errors
    /// [`ServiceError::BudgetExhausted`] when the schedule does not fit
    /// `user`'s remaining budget (nothing stays charged).
    pub fn begin(
        name: &str,
        class: &'a MarkovChainClass,
        schedule: RefinementSchedule,
        backend: StreamBackend,
        budget: &'a BudgetAccountant,
        user: &str,
        seed: u64,
    ) -> Result<Self, ServiceError> {
        let engine = backend.engine(class);
        Self::begin_with(name, class, schedule, backend, engine, budget, user, seed)
    }

    /// [`begin`](ProgressiveRelease::begin) over a shared calibration
    /// cache: `engine` must be [`StreamBackend::engine`] of this `backend`
    /// over this `class` (or a clone of that `Arc`). Drivers sharing one
    /// engine calibrate each `(prefix, ε)` step once between them, so a
    /// recurring ladder costs one calibration per step, not one per
    /// request. Outputs are bitwise those of [`begin`](ProgressiveRelease::begin).
    ///
    /// # Errors
    /// As for [`begin`](ProgressiveRelease::begin).
    #[allow(clippy::too_many_arguments)]
    pub fn begin_with(
        name: &str,
        class: &MarkovChainClass,
        schedule: RefinementSchedule,
        backend: StreamBackend,
        engine: Arc<ReleaseEngine>,
        budget: &'a BudgetAccountant,
        user: &str,
        seed: u64,
    ) -> Result<Self, ServiceError> {
        let query_sig = query_signature(name);
        let tag_for = |seq: usize| SpendTag {
            query_sig,
            family: backend.name(),
            seq: seq as u64,
        };
        for (i, step) in schedule.steps().iter().enumerate() {
            if let Err(refusal) = budget.try_spend_tagged(user, step.epsilon, tag_for(i)) {
                // All-or-nothing admission: none of the already-charged
                // steps released anything, so roll every one of them back.
                for (j, charged) in schedule.steps().iter().enumerate().take(i) {
                    budget.refund_tagged(user, charged.epsilon, tag_for(j));
                }
                return Err(refusal);
            }
        }
        Ok(ProgressiveRelease {
            name: name.to_string(),
            num_states: class.num_states(),
            engine,
            budget,
            user: user.to_string(),
            schedule,
            backend,
            seed,
            query_sig,
            buffer: Vec::new(),
            next_step: 0,
            settled: false,
        })
    }

    /// Ingests one event; returns the refinement when a scheduled prefix
    /// fills. Events past the final prefix are ingested and ignored (the
    /// schedule is complete).
    ///
    /// # Errors
    /// [`ServiceError::Mechanism`] for an out-of-range event (nothing is
    /// ingested) or when the step's backend fails to calibrate or release —
    /// the step then stays unconsumed, so aborting refunds it.
    pub fn push(&mut self, event: usize) -> Result<Option<ProgressiveUpdate>, ServiceError> {
        if event >= self.num_states {
            return Err(ServiceError::Mechanism(
                pufferfish_core::PufferfishError::InvalidDatabase(format!(
                    "progressive event {event} out of range for {} states",
                    self.num_states
                )),
            ));
        }
        self.buffer.push(event);
        if self.next_step >= self.schedule.steps().len()
            || self.buffer.len() != self.schedule.steps()[self.next_step].prefix
        {
            return Ok(None);
        }
        self.refine().map(Some)
    }

    /// Executes the due refinement step over the buffered prefix.
    fn refine(&mut self) -> Result<ProgressiveUpdate, ServiceError> {
        let index = self.next_step;
        let step = self.schedule.steps()[index];
        let total_steps = self.schedule.steps().len();
        let is_final = index + 1 == total_steps;
        // The final step consumes the *raw* seed through the very same
        // release path `one_shot` uses — that identity is the
        // bitwise-equivalence guarantee. Intermediate steps use derived
        // seeds so they never touch the final answer's noise stream.
        let seed = if is_final {
            self.seed
        } else {
            step_seed(self.seed, index)
        };
        let release =
            Self::release_prefix(&self.engine, self.num_states, step, seed, &self.buffer)?;
        self.next_step += 1;
        if is_final {
            // Complete: nothing left to refund, stop the drop guard.
            self.settled = true;
        }
        let certified_error = laplace_error_bound(
            release.scale,
            release.values.len(),
            self.schedule.confidence(),
        )?;
        Ok(ProgressiveUpdate {
            step: index + 1,
            total_steps,
            prefix: step.prefix,
            epsilon: step.epsilon,
            release,
            certified_error,
            confidence: self.schedule.confidence(),
            spent_epsilon: self.spent_epsilon(),
        })
    }

    /// One refinement step: the relative-frequency histogram of the
    /// `step.prefix` buffered events, released at `step.epsilon` through
    /// `engine` with noise drawn from `seed`. This is the *single* path
    /// both the progressive driver and the one-shot comparator run, which
    /// is what makes their final answers structurally — and therefore
    /// bitwise — equal. It draws the same mechanism and the same noise as
    /// a fresh tumbling-window [`ContinualRelease`](crate::ContinualRelease)
    /// (`window = slide = prefix`) fed the prefix at the same seed.
    fn release_prefix(
        engine: &ReleaseEngine,
        num_states: usize,
        step: RefinementStep,
        seed: u64,
        events: &[usize],
    ) -> Result<NoisyRelease, ServiceError> {
        let query = RelativeFrequencyHistogram::new(num_states, step.prefix)?;
        let budget = PrivacyBudget::new(step.epsilon)?;
        let mut rng = StdRng::seed_from_u64(seed);
        Ok(engine.release(&query, events, budget, &mut rng)?)
    }

    /// The one-shot comparator: releases the full window in a single step,
    /// through the identical release path and raw `seed` the driver's final
    /// refinement uses, over a calibration cache of its own. At equal seed
    /// and equal final ε the result is bitwise-identical to the driver's
    /// last update. The name is not part of the release; it is taken for
    /// symmetry with [`begin`](ProgressiveRelease::begin).
    ///
    /// This is the verification half of the equivalence claim — it charges
    /// **no** budget; callers releasing for real must account separately.
    ///
    /// # Errors
    /// [`ServiceError::InvalidConfig`] when `database` is not exactly the
    /// schedule's window; calibration/release errors as for the driver.
    pub fn one_shot(
        _name: &str,
        class: &MarkovChainClass,
        schedule: &RefinementSchedule,
        backend: StreamBackend,
        seed: u64,
        database: &[usize],
    ) -> Result<WindowRelease, ServiceError> {
        let step = *schedule.steps().last().expect("schedules are never empty");
        if database.len() != step.prefix {
            return Err(ServiceError::InvalidConfig(format!(
                "one-shot database has {} events but the schedule's window is {}",
                database.len(),
                step.prefix
            )));
        }
        let release = Self::release_prefix(
            &backend.engine(class),
            class.num_states(),
            step,
            seed,
            database,
        )?;
        Ok(WindowRelease {
            window_end: step.prefix,
            release,
            spent_epsilon: step.epsilon,
        })
    }

    /// Stops the release early, refunding every step that has not released
    /// yet; returns how many steps were refunded. Idempotent — dropping
    /// the driver calls this too, so an explicit abort never double-refunds.
    pub fn abort(&mut self) -> usize {
        if self.settled {
            return 0;
        }
        self.settled = true;
        let mut refunded = 0;
        for (i, step) in self
            .schedule
            .steps()
            .iter()
            .enumerate()
            .skip(self.next_step)
        {
            let tag = SpendTag {
                query_sig: self.query_sig,
                family: self.backend.name(),
                seq: i as u64,
            };
            if self.budget.refund_tagged(&self.user, step.epsilon, tag) {
                refunded += 1;
            }
        }
        refunded
    }

    /// The schedule this driver runs.
    pub fn schedule(&self) -> &RefinementSchedule {
        &self.schedule
    }

    /// The mechanism family serving every step.
    pub fn backend(&self) -> StreamBackend {
        self.backend
    }

    /// The budget owner the steps were charged to.
    pub fn user(&self) -> &str {
        &self.user
    }

    /// Events ingested so far.
    pub fn events(&self) -> usize {
        self.buffer.len()
    }

    /// Refinement steps released so far.
    pub fn steps_completed(&self) -> usize {
        self.next_step
    }

    /// `true` once the final, full-window refinement has been released.
    pub fn is_complete(&self) -> bool {
        self.next_step == self.schedule.steps().len()
    }

    /// Composed ε actually *consumed* by released steps so far (Theorem
    /// 4.4 guarantee; the charged-but-unreleased remainder is what an abort
    /// refunds). The steps share one ε bit for bit, so the composition is
    /// `n · ε` for `n` released steps, exactly: the product
    /// [`RefinementSchedule::total_epsilon`] returns once all have run.
    pub fn spent_epsilon(&self) -> f64 {
        self.next_step as f64 * self.schedule.final_epsilon()
    }
}

impl Drop for ProgressiveRelease<'_> {
    /// Refunds unconsumed steps — walking away from a driver mid-stream
    /// must not leak charged budget.
    fn drop(&mut self) {
        self.abort();
    }
}

impl std::fmt::Debug for ProgressiveRelease<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ProgressiveRelease")
            .field("name", &self.name)
            .field("user", &self.user)
            .field("backend", &self.backend.name())
            .field("events", &self.buffer.len())
            .field("steps_completed", &self.next_step)
            .field("total_steps", &self.schedule.steps().len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pufferfish_core::CompositionAccountant;
    use pufferfish_markov::IntervalClassBuilder;

    fn weak_class() -> MarkovChainClass {
        IntervalClassBuilder::symmetric(0.45)
            .grid_points(2)
            .build()
            .unwrap()
    }

    fn step(prefix: usize, epsilon: f64, error_bound: f64) -> RefinementStep {
        RefinementStep {
            prefix,
            epsilon,
            error_bound,
        }
    }

    fn two_step_schedule() -> RefinementSchedule {
        RefinementSchedule::new(vec![step(8, 0.3, 4.0), step(16, 0.3, 2.0)], 0.95).unwrap()
    }

    #[test]
    fn schedule_validation_and_accessors() {
        let schedule = two_step_schedule();
        assert_eq!(schedule.steps().len(), 2);
        assert_eq!(schedule.window(), 16);
        assert_eq!(schedule.final_epsilon(), 0.3);
        assert!((schedule.total_epsilon() - 0.6).abs() < 1e-15);
        assert_eq!(schedule.confidence(), 0.95);

        // `k · ε` is exactly the composed Theorem 4.4 guarantee, on ladders
        // of every depth the planner searches and at ε whose step-by-step
        // sums drift from it.
        for k in 1..=8usize {
            for epsilon in [0.3, 0.1, 0.7, 1.0 / 3.0, 1.885] {
                let ladder = (0..k)
                    .map(|j| step(8 << j, epsilon, (k - j) as f64))
                    .collect();
                let ladder = RefinementSchedule::new(ladder, 0.95).unwrap();
                let mut accountant = CompositionAccountant::new();
                for s in ladder.steps() {
                    accountant.record(s.epsilon);
                }
                assert_eq!(
                    accountant.guaranteed_epsilon().to_bits(),
                    ladder.total_epsilon().to_bits(),
                    "{k} steps of ε {epsilon}"
                );
            }
        }

        let invalid = [
            RefinementSchedule::new(vec![], 0.95),
            RefinementSchedule::new(vec![step(8, 0.3, 1.0)], 0.0),
            RefinementSchedule::new(vec![step(8, 0.3, 1.0)], 1.0),
            RefinementSchedule::new(vec![step(8, 0.3, 1.0)], f64::NAN),
            RefinementSchedule::new(vec![step(0, 0.3, 1.0)], 0.95),
            RefinementSchedule::new(vec![step(8, 0.0, 1.0)], 0.95),
            RefinementSchedule::new(vec![step(8, f64::INFINITY, 1.0)], 0.95),
            RefinementSchedule::new(vec![step(8, 0.3, 0.0)], 0.95),
            // Heterogeneous ε breaks the sum-equals-composition identity.
            RefinementSchedule::new(vec![step(8, 0.3, 2.0), step(16, 0.4, 1.0)], 0.95),
            // Prefixes must strictly increase.
            RefinementSchedule::new(vec![step(8, 0.3, 2.0), step(8, 0.3, 1.0)], 0.95),
            RefinementSchedule::new(vec![step(16, 0.3, 2.0), step(8, 0.3, 1.0)], 0.95),
            // Refinements must not get worse.
            RefinementSchedule::new(vec![step(8, 0.3, 1.0), step(16, 0.3, 2.0)], 0.95),
        ];
        for result in invalid {
            assert!(matches!(result, Err(ServiceError::InvalidConfig(_))));
        }
    }

    #[test]
    fn charges_upfront_streams_refinements_and_matches_one_shot_bitwise() {
        let class = weak_class();
        let budget = BudgetAccountant::new(10.0).unwrap();
        let schedule = two_step_schedule();
        let events: Vec<usize> = (0..16).map(|t| (t / 3) % 2).collect();

        let mut driver = ProgressiveRelease::begin(
            "prog",
            &class,
            schedule.clone(),
            StreamBackend::MqmApprox,
            &budget,
            "alice",
            42,
        )
        .unwrap();
        // Both steps charged before any event arrived, as two ledgerable
        // spends.
        assert!((budget.spent("alice") - 0.6).abs() < 1e-12);
        assert_eq!(budget.releases("alice"), 2);
        assert_eq!(driver.spent_epsilon(), 0.0);

        let mut updates = Vec::new();
        for &event in &events {
            if let Some(update) = driver.push(event).unwrap() {
                updates.push(update);
            }
        }
        assert_eq!(updates.len(), 2);
        assert!(driver.is_complete());
        assert_eq!(driver.events(), 16);

        // Coarse first: the prefix answer lands at event 8, the refinement
        // at 16, spend monotone and equal to the schedule sum at the end.
        assert_eq!(updates[0].step, 1);
        assert_eq!(updates[0].prefix, 8);
        assert!(!updates[0].is_final());
        assert_eq!(updates[1].step, 2);
        assert_eq!(updates[1].prefix, 16);
        assert!(updates[1].is_final());
        assert!(updates[0].spent_epsilon < updates[1].spent_epsilon);
        assert_eq!(updates[1].spent_epsilon, schedule.total_epsilon());
        assert_eq!(driver.spent_epsilon(), schedule.total_epsilon());

        // Each update certifies its bound from its actual scale, and the
        // bounds refine (smaller prefix → larger scale → looser bound).
        for update in &updates {
            let expected =
                laplace_error_bound(update.release.scale, update.release.values.len(), 0.95)
                    .unwrap();
            assert_eq!(update.certified_error, expected);
            assert_eq!(update.confidence, 0.95);
        }
        assert!(updates[1].certified_error < updates[0].certified_error);

        // The headline: the final refinement is bitwise the one-shot
        // release at the same seed and final ε.
        let one_shot = ProgressiveRelease::one_shot(
            "prog",
            &class,
            &schedule,
            StreamBackend::MqmApprox,
            42,
            &events,
        )
        .unwrap();
        assert_eq!(updates[1].release, one_shot.release);

        // ...and the intermediate estimate used a different noise stream.
        assert_ne!(updates[0].release.values, one_shot.release.values);

        // Completing the schedule settles the driver: dropping it refunds
        // nothing.
        drop(driver);
        assert!((budget.spent("alice") - 0.6).abs() < 1e-12);

        // Events past the final prefix are ingested but never released.
        let mut full = ProgressiveRelease::begin(
            "prog2",
            &class,
            schedule,
            StreamBackend::MqmApprox,
            &budget,
            "alice",
            42,
        )
        .unwrap();
        for &event in &events {
            full.push(event).unwrap();
        }
        assert!(full.push(0).unwrap().is_none());
        assert_eq!(full.events(), 17);
    }

    #[test]
    fn abort_refunds_exactly_the_unconsumed_steps() {
        let class = weak_class();
        let budget = BudgetAccountant::new(10.0).unwrap();
        let schedule = RefinementSchedule::new(
            vec![step(6, 0.2, 4.0), step(12, 0.2, 2.0), step(24, 0.2, 1.0)],
            0.9,
        )
        .unwrap();

        let mut driver = ProgressiveRelease::begin(
            "abort",
            &class,
            schedule,
            StreamBackend::MqmApprox,
            &budget,
            "bob",
            7,
        )
        .unwrap();
        assert!((budget.spent("bob") - 0.6).abs() < 1e-12);

        // Consume only the first step...
        for t in 0..6 {
            driver.push(t % 2).unwrap();
        }
        assert_eq!(driver.steps_completed(), 1);

        // ...so aborting refunds the two unreleased ones, and only those.
        assert_eq!(driver.abort(), 2);
        assert!((budget.spent("bob") - 0.2).abs() < 1e-12);
        // Idempotent, including through drop.
        assert_eq!(driver.abort(), 0);
        drop(driver);
        assert!((budget.spent("bob") - 0.2).abs() < 1e-12);
    }

    #[test]
    fn dropping_an_unfinished_driver_refunds_through_the_drop_guard() {
        let class = weak_class();
        let budget = BudgetAccountant::new(10.0).unwrap();
        {
            let _driver = ProgressiveRelease::begin(
                "leak",
                &class,
                two_step_schedule(),
                StreamBackend::MqmApprox,
                &budget,
                "carol",
                1,
            )
            .unwrap();
            assert!((budget.spent("carol") - 0.6).abs() < 1e-12);
        }
        assert_eq!(budget.spent("carol"), 0.0);
    }

    #[test]
    fn admission_is_all_or_nothing() {
        let class = weak_class();
        // Admits one 0.3-step but not two.
        let budget = BudgetAccountant::new(0.4).unwrap();
        let refused = ProgressiveRelease::begin(
            "refused",
            &class,
            two_step_schedule(),
            StreamBackend::MqmApprox,
            &budget,
            "dave",
            1,
        );
        assert!(matches!(refused, Err(ServiceError::BudgetExhausted { .. })));
        // The first step's charge was rolled back with the refusal.
        assert_eq!(budget.spent("dave"), 0.0);
        assert_eq!(budget.releases("dave"), 0);
    }

    #[test]
    fn out_of_range_events_are_rejected_without_ingestion() {
        let class = weak_class();
        let budget = BudgetAccountant::new(10.0).unwrap();
        let mut driver = ProgressiveRelease::begin(
            "range",
            &class,
            two_step_schedule(),
            StreamBackend::MqmApprox,
            &budget,
            "erin",
            1,
        )
        .unwrap();
        assert!(matches!(driver.push(5), Err(ServiceError::Mechanism(_))));
        assert_eq!(driver.events(), 0);
        assert!(driver.push(1).unwrap().is_none());
        assert_eq!(driver.events(), 1);
    }

    #[test]
    fn gk16_backend_drives_refinements_too() {
        let class = weak_class();
        let budget = BudgetAccountant::new(10.0).unwrap();
        let schedule = two_step_schedule();
        let events: Vec<usize> = (0..16).map(|t| t % 2).collect();
        let mut driver = ProgressiveRelease::begin(
            "gk",
            &class,
            schedule.clone(),
            StreamBackend::Gk16,
            &budget,
            "frank",
            3,
        )
        .unwrap();
        let mut last = None;
        for &event in &events {
            if let Some(update) = driver.push(event).unwrap() {
                last = Some(update);
            }
        }
        let last = last.unwrap();
        assert!(last.is_final());
        let one_shot =
            ProgressiveRelease::one_shot("gk", &class, &schedule, StreamBackend::Gk16, 3, &events)
                .unwrap();
        assert_eq!(last.release, one_shot.release);

        // The comparator itself validates its database length.
        assert!(matches!(
            ProgressiveRelease::one_shot(
                "gk",
                &class,
                &schedule,
                StreamBackend::Gk16,
                3,
                &events[..8],
            ),
            Err(ServiceError::InvalidConfig(_))
        ));
    }
}
