//! The query front-end: parse → plan → admit (budget) → execute.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use pufferfish_parallel::Parallelism;
use pufferfish_service::{BudgetAccountant, ServiceStats, SpendTag};
use pufferfish_telemetry::query_signature;

use crate::catalog::MechanismCatalog;
use crate::exec::{execute_plan, QueryResult};
use crate::parser::parse_statement;
use crate::plan::{plan_statement, QueryPlan};
use crate::table::Table;
use crate::QueryError;

/// Tuning knobs for [`QueryService::start`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QueryServiceConfig {
    /// Total ε budget granted to each user across all their queries
    /// (charged per query at the plan's [`total_epsilon`]).
    ///
    /// [`total_epsilon`]: crate::QueryPlan::total_epsilon
    pub per_user_epsilon: f64,
    /// How group-by cells are fanned out during execution. Never changes
    /// results — execution is deterministically seeded per cell.
    pub parallelism: Parallelism,
}

impl Default for QueryServiceConfig {
    /// A per-user budget of ε = 1 and all cores for cell fan-out.
    fn default() -> Self {
        QueryServiceConfig {
            per_user_epsilon: 1.0,
            parallelism: Parallelism::Auto,
        }
    }
}

/// A declarative query front-end over a [`MechanismCatalog`].
///
/// Admission mirrors [`ReleaseService`](pufferfish_service::ReleaseService):
/// the plan's **total** ε — every window release against the worst-off
/// individual, composed under Theorem 4.4 — is charged to the submitting
/// user through a [`BudgetAccountant`] *before* execution, so a query can
/// never start spending noise it is not funded for; if execution then fails,
/// the charge is rolled back (nothing was released: the plan failed shaping
/// or calibrating, not mid-noise).
///
/// # Example
///
/// ```
/// use pufferfish_markov::IntervalClassBuilder;
/// use pufferfish_query::{MechanismCatalog, QueryService, QueryServiceConfig, Table};
///
/// let class = IntervalClassBuilder::symmetric(0.4).grid_points(2).build().unwrap();
/// let service = QueryService::start(MechanismCatalog::new(class), QueryServiceConfig::default())
///     .unwrap();
/// let table = Table::single("sensor", 2, (0..60).map(|t| (t / 3) % 2).collect()).unwrap();
///
/// let result = service
///     .query("alice", "HISTOGRAM WINDOW 30 STEP 15 EPSILON 0.2", &table, 7)
///     .unwrap();
/// assert_eq!(result.releases(), 3);
/// // Three sequential window releases at ε = 0.2 compose to 0.6.
/// assert!((service.budget().spent("alice") - 0.6).abs() < 1e-12);
/// // Planner + executor shared one calibration; later queries hit it.
/// assert!(service.stats().cache.misses >= 1);
/// ```
pub struct QueryService {
    catalog: Arc<MechanismCatalog>,
    budget: Arc<BudgetAccountant>,
    parallelism: Parallelism,
    executed: AtomicU64,
}

impl QueryService {
    /// Builds the front-end over `catalog`.
    ///
    /// # Errors
    /// [`QueryError::Budget`] for a non-positive per-user budget.
    pub fn start(
        catalog: MechanismCatalog,
        config: QueryServiceConfig,
    ) -> Result<Self, QueryError> {
        Ok(QueryService {
            catalog: Arc::new(catalog),
            budget: Arc::new(BudgetAccountant::new(config.per_user_epsilon)?),
            parallelism: config.parallelism,
            executed: AtomicU64::new(0),
        })
    }

    /// Parses and plans `text` against `table` without executing or charging
    /// anything — the `EXPLAIN` path, exposing the probe evidence and the
    /// total ε a [`QueryService::query`] call would be charged.
    ///
    /// # Errors
    /// Parse and planning errors, as for [`QueryService::query`].
    pub fn plan(&self, text: &str, table: &Table) -> Result<QueryPlan, QueryError> {
        let statement = parse_statement(text)?;
        plan_statement(&self.catalog, &statement, table)
    }

    /// Parses, plans, admits and executes one statement for `user`, with all
    /// noise derived from `seed`.
    ///
    /// # Errors
    /// Parse/plan errors charge nothing; [`QueryError::Budget`] when the
    /// plan's total ε does not fit the user's remaining budget (nothing
    /// charged); execution errors roll the charge back.
    pub fn query(
        &self,
        user: &str,
        text: &str,
        table: &Table,
        seed: u64,
    ) -> Result<QueryResult, QueryError> {
        let plan = self.plan(text, table)?;
        self.execute_tagged(user, &plan, seed, Some(text))
    }

    /// Admits and executes an already prepared plan (the two-step
    /// counterpart of [`QueryService::query`], for callers that inspect the
    /// plan first).
    ///
    /// # Errors
    /// As for [`QueryService::query`], minus parsing.
    pub fn execute(
        &self,
        user: &str,
        plan: &QueryPlan,
        seed: u64,
    ) -> Result<QueryResult, QueryError> {
        self.execute_tagged(user, plan, seed, None)
    }

    fn execute_tagged(
        &self,
        user: &str,
        plan: &QueryPlan,
        seed: u64,
        text: Option<&str>,
    ) -> Result<QueryResult, QueryError> {
        // Charges (and execution-failure refunds) carry their audit tag into
        // a ledger attached via `self.budget()`: which statement (by the
        // signature of its raw text; `execute` on a pre-built plan has no
        // text and logs 0), which mechanism family the planner chose, which
        // seed. Only a ledger reads the tag, so without one the statement
        // is not hashed.
        let tag = if self.budget.has_ledger() {
            SpendTag {
                query_sig: text.map_or(0, query_signature),
                family: plan.chosen().keyword(),
                seq: seed,
            }
        } else {
            SpendTag::default()
        };
        self.budget
            .try_spend_tagged(user, plan.total_epsilon(), tag)?;
        let result = execute_plan(plan, seed, self.parallelism);
        // Count every admitted execution, successful or not — the same
        // semantics as `ReleaseService::served`, so the shared
        // `ServiceStats.served` field means one thing across front-ends.
        self.executed.fetch_add(1, Ordering::Relaxed);
        if result.is_err() {
            self.budget.refund_tagged(user, plan.total_epsilon(), tag);
        }
        result
    }

    /// The mechanism catalog (engines and their cache counters live here).
    pub fn catalog(&self) -> &MechanismCatalog {
        &self.catalog
    }

    /// The per-user budget ledger.
    pub fn budget(&self) -> &BudgetAccountant {
        &self.budget
    }

    /// Queries admitted and executed so far (successfully or not — the
    /// counterpart of `ReleaseService::served`; refused admissions are not
    /// counted).
    pub fn executed(&self) -> u64 {
        self.executed.load(Ordering::Relaxed)
    }

    /// One observability snapshot across every engine the catalog has built.
    /// The query front-end executes synchronously, so the queue fields are
    /// zero by construction.
    pub fn stats(&self) -> ServiceStats {
        let (cache, cached_calibrations) = self.catalog.cache_stats();
        ServiceStats {
            cache,
            cached_calibrations,
            queue_depth: 0,
            queue_capacity: 0,
            queue_refusals: 0,
            queue_high_water: 0,
            served: self.executed(),
            users: self.budget.users(),
            spent_epsilon: self.budget.total_spent(),
            indexed_probe_misses: self.catalog.indexed_probe_misses(),
            snapshot: None,
            monitor: None,
        }
    }
}

impl std::fmt::Debug for QueryService {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("QueryService")
            .field("catalog", &self.catalog)
            .field("executed", &self.executed())
            .field("users", &self.budget.users())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pufferfish_markov::IntervalClassBuilder;
    use pufferfish_service::ServiceError;

    fn service(per_user_epsilon: f64) -> QueryService {
        let class = IntervalClassBuilder::symmetric(0.4)
            .grid_points(2)
            .build()
            .unwrap();
        QueryService::start(
            MechanismCatalog::new(class),
            QueryServiceConfig {
                per_user_epsilon,
                parallelism: Parallelism::Threads(2),
            },
        )
        .unwrap()
    }

    fn table() -> Table {
        Table::single("t", 2, (0..40).map(|t| t % 2).collect()).unwrap()
    }

    #[test]
    fn invalid_config_is_refused() {
        let class = IntervalClassBuilder::symmetric(0.4)
            .grid_points(2)
            .build()
            .unwrap();
        assert!(QueryService::start(
            MechanismCatalog::new(class),
            QueryServiceConfig {
                per_user_epsilon: 0.0,
                parallelism: Parallelism::Serial,
            },
        )
        .is_err());
    }

    #[test]
    fn charges_the_planned_total_and_refuses_overdraw() {
        let service = service(1.0);
        let table = table();
        // 3 windows × 0.2 = 0.6 charged.
        let result = service
            .query(
                "alice",
                "HISTOGRAM WINDOW 20 STEP 10 EPSILON 0.2",
                &table,
                1,
            )
            .unwrap();
        assert_eq!(result.releases(), 3);
        assert!((service.budget().spent("alice") - 0.6).abs() < 1e-12);
        assert_eq!(service.executed(), 1);
        // A second 0.6 query would compose past 1.0 and is refused whole —
        // not partially executed.
        let refused = service.query(
            "alice",
            "HISTOGRAM WINDOW 20 STEP 10 EPSILON 0.2",
            &table,
            2,
        );
        assert!(matches!(
            refused,
            Err(QueryError::Budget(ServiceError::BudgetExhausted { .. }))
        ));
        assert!((service.budget().spent("alice") - 0.6).abs() < 1e-12);
        assert_eq!(service.executed(), 1);
        // Budgets are per user.
        assert!(service
            .query("bob", "COUNT STATE 1 EPSILON 0.5", &table, 3)
            .is_ok());
    }

    #[test]
    fn parse_and_plan_failures_charge_nothing() {
        let service = service(1.0);
        let table = table();
        assert!(matches!(
            service.query("carol", "FROBNICATE EPSILON 1", &table, 1),
            Err(QueryError::Parse { .. })
        ));
        assert!(matches!(
            service.query("carol", "HISTOGRAM WINDOW 999 EPSILON 0.5", &table, 1),
            Err(QueryError::Plan(_))
        ));
        assert_eq!(service.budget().spent("carol"), 0.0);
        assert_eq!(service.budget().users(), 0);
    }

    #[test]
    fn an_attached_ledger_records_each_query_with_its_tag() {
        use pufferfish_telemetry::{EpsilonLedger, LedgerEvent, LedgerEventKind};

        let service = service(1.0);
        let table = table();
        let ledger = Arc::new(EpsilonLedger::new());
        assert!(!service.budget().has_ledger());
        service.budget().attach_ledger(Arc::clone(&ledger));
        assert!(service.budget().has_ledger());

        let text = "HISTOGRAM WINDOW 20 STEP 10 EPSILON 0.2";
        let plan = service.plan(text, &table).unwrap();
        let family = plan.chosen().keyword();
        service.query("alice", text, &table, 5).unwrap();
        service.execute("bob", &plan, 6).unwrap();
        // alice's second 0.6 would compose past 1.0.
        assert!(service.query("alice", text, &table, 7).is_err());

        let events = EpsilonLedger::replay(&ledger.to_bytes()).unwrap();
        let tag = |event: &LedgerEvent| {
            (
                event.kind,
                event.user.clone(),
                event.query_sig,
                event.family.clone(),
                event.seq,
            )
        };
        let expected = |kind, user: &str, query_sig, seq| {
            (kind, user.to_string(), query_sig, family.to_string(), seq)
        };
        let signature = query_signature(text);
        assert_ne!(signature, 0);
        assert_eq!(
            events.iter().map(tag).collect::<Vec<_>>(),
            vec![
                expected(LedgerEventKind::Charge, "alice", signature, 5),
                expected(LedgerEventKind::Charge, "bob", 0, 6),
                expected(LedgerEventKind::Refusal, "alice", signature, 7),
            ]
        );
        for event in &events {
            assert_eq!(event.epsilon.to_bits(), plan.total_epsilon().to_bits());
        }
    }

    #[test]
    fn stats_aggregate_catalog_engines() {
        let service = service(10.0);
        let table = table();
        service
            .query("dave", "HISTOGRAM EPSILON 0.5", &table, 1)
            .unwrap();
        let stats = service.stats();
        // Auto probing calibrated several mechanisms (one miss each), and
        // the chosen one's release was a hit on its own probe.
        assert!(stats.cache.misses >= 3);
        assert!(stats.cache.hits >= 1);
        assert!(stats.cached_calibrations >= 3);
        assert_eq!(stats.queue_depth, 0);
        assert_eq!(stats.served, 1);
        assert_eq!(stats.users, 1);
        assert!((stats.spent_epsilon - 0.5).abs() < 1e-12);
        // Repeating the query is pure cache hits: no new calibration.
        let misses_before = stats.cache.misses;
        service
            .query("dave", "HISTOGRAM EPSILON 0.5", &table, 2)
            .unwrap();
        assert_eq!(service.stats().cache.misses, misses_before);
    }
}
