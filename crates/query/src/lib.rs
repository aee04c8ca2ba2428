//! # pufferfish-query
//!
//! A declarative query layer over the Pufferfish privacy mechanisms of
//! Song, Wang & Chaudhuri (SIGMOD 2017). Instead of hard-coding *which*
//! mechanism answers each call site, callers write one line of query text
//! and a cost-based planner picks the minimum-expected-error mechanism that
//! can calibrate for the class — the paper's central practical question
//! ("which mechanism gives the least error for this query at this ε?")
//! answered per query, automatically.
//!
//! ## The language
//!
//! One statement per line; `#` comments; keywords case-insensitive:
//!
//! ```text
//! statement := aggregate clause*
//! aggregate := COUNT STATE <n>      # records equal to state n   (1-Lipschitz)
//!            | HISTOGRAM            # relative-frequency histogram (2/T)
//!            | RANGE <lo> <hi>      # records with state in [lo,hi] (1)
//!            | MEAN                 # mean state label ((k-1)/T)
//! clause    := WINDOW <w> [STEP <s>]   # sliding windows (STEP defaults to w)
//!            | GROUP BY <key>          # one cell per table group (key is a label)
//!            | EPSILON <e>             # required per-release ε
//!            | MECHANISM auto|wasserstein|mqm|mqm_approx|gk16|group_dp
//! ```
//!
//! ## The pipeline
//!
//! * [`parse_statement`] / [`parse_script`] produce typed
//!   [`QueryStatement`]s;
//! * [`plan_statement`] shapes cells and windows against a [`Table`] and
//!   chooses the mechanism: under `MECHANISM auto` it probes each family
//!   registered in the [`MechanismCatalog`] via
//!   [`ReleaseEngine::noise_scale_estimate`] (a *cached* calibration, so
//!   probing is amortised — the winner's release reuses it) and keeps the
//!   minimum-noise-scale family whose calibration succeeds, falling back
//!   past `DegenerateClass`/`CannotCalibrate` candidates;
//! * [`execute_plan`] (and its tunable form [`execute_plan_with`]) slices
//!   windows straight out of the plan's columnar [`TableBatch`] and
//!   schedules them as (cell × window-chunk) morsels through
//!   `pufferfish-parallel`'s scoped scheduler, deterministically
//!   seeded per cell ([`cell_seed`]) with computable per-morsel RNG offsets,
//!   so planned execution is **bitwise-identical** to direct mechanism calls
//!   under the same seed — on any thread count, morsel size or
//!   schedule;
//! * [`QueryService`] fronts the pipeline with per-user admission: the
//!   plan's total ε (Theorem 4.4 sequential composition within a cell,
//!   parallel across disjoint groups) is charged through
//!   `pufferfish_service::BudgetAccountant` before execution and rolled
//!   back if execution fails.
//!
//! [`ReleaseEngine::noise_scale_estimate`]: pufferfish_core::ReleaseEngine::noise_scale_estimate
//!
//! ## Quick start
//!
//! ```
//! use pufferfish_markov::IntervalClassBuilder;
//! use pufferfish_query::{MechanismCatalog, QueryService, QueryServiceConfig, Table};
//!
//! // Plausible models: binary chains with transition probabilities in
//! // [0.4, 0.6]; the data is one sensor's 60-step state sequence.
//! let class = IntervalClassBuilder::symmetric(0.4).grid_points(2).build().unwrap();
//! let table = Table::single("sensor", 2, (0..60).map(|t| (t / 3) % 2).collect()).unwrap();
//! let service = QueryService::start(MechanismCatalog::new(class), QueryServiceConfig::default())
//!     .unwrap();
//!
//! // EXPLAIN: which mechanism would answer this, and at what cost?
//! let plan = service.plan("HISTOGRAM WINDOW 30 STEP 15 EPSILON 0.2", &table).unwrap();
//! assert!(plan.probes().len() >= 4);           // every registered family probed
//! assert!(plan.noise_scale() > 0.0);
//! assert!((plan.total_epsilon() - 0.6).abs() < 1e-12); // 3 windows × 0.2
//!
//! // Execute: admitted against alice's budget, then one fused batch.
//! let result = service.query("alice", "HISTOGRAM WINDOW 30 STEP 15 EPSILON 0.2", &table, 7).unwrap();
//! assert_eq!(result.releases(), 3);
//! assert_eq!(result.mechanism(), plan.chosen());
//! ```

#![deny(missing_docs)]
#![deny(unsafe_code)]

pub mod ast;
mod batch;
mod catalog;
mod error;
mod exec;
mod parser;
mod plan;
mod refine;
mod service;
mod table;

pub use ast::{Aggregate, MechanismChoice, MechanismKind, QueryStatement, WindowSpec};
pub use batch::TableBatch;
pub use catalog::{CatalogOptions, MechanismCatalog};
pub use error::QueryError;
pub use exec::{cell_seed, execute_plan, execute_plan_with, CellResult, ExecOptions, QueryResult};
pub use parser::{parse_script, parse_statement};
pub use plan::{plan_statement, MechanismProbe, ProbeSource, QueryPlan};
pub use refine::{plan_refinement, plan_uniform, RefinementGoal};
pub use service::{QueryService, QueryServiceConfig};
pub use table::{Table, TableGroup};

/// Result alias for the query layer.
pub type Result<T> = std::result::Result<T, QueryError>;
