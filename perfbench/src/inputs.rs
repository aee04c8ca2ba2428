//! The workloads and the inputs each one generates from its seed.
//!
//! Every input — databases, table rows, progressive windows, user
//! identities, noise seeds — is a pure function of `(seed, request
//! counter)`, so the untraced run, the traced run and the correctness gate
//! all see the same requests.

use pufferfish_core::queries::{RelativeFrequencyHistogram, StateFrequencyQuery};
use pufferfish_core::PrivacyBudget;
use pufferfish_datasets::StreamWorkload;
use pufferfish_markov::{IntervalClassBuilder, MarkovChain, MarkovChainClass};
use pufferfish_net::{Frame, WireQuery};
use pufferfish_query::{RefinementGoal, Table};

use crate::stats::splitmix64;

/// The tenant every benchmark connection authenticates as; the server
/// charges budget to `TENANT#<user id in hex>`.
pub const TENANT: &str = "bench";
/// Database length of a RELEASE (the `net_load` class).
pub const RELEASE_LENGTH: usize = 60;
/// Per-release ε.
pub const RELEASE_EPSILON: f64 = 0.1;
/// State whose frequency a RELEASE asks for.
pub const RELEASE_STATE: usize = 1;
/// In-flight requests per RELEASE connection.
pub const PIPELINE: usize = 32;
/// Client connections (and client threads) per workload.
pub const CONNECTIONS: usize = 2;
/// The identity space fresh users are drawn from.
pub const USER_SPACE: u64 = 10_000_000;
/// Distinct databases RELEASE requests cycle through.
pub const DATABASE_POOL: usize = 256;
/// Users of `release_hot`.
pub const HOT_USERS: u64 = 16;
/// Name of the analyst table.
pub const TABLE: &str = "activity";
/// Rows (users) of the analyst table.
pub const TABLE_USERS: usize = 16;
/// Events per analyst-table row.
pub const TABLE_EVENTS: usize = 400;
/// The analyst's repeated QUERY statement.
pub const STATEMENT: &str =
    "HISTOGRAM WINDOW 100 STEP 10 GROUP BY user EPSILON 0.05 MECHANISM auto";
/// Window width of [`STATEMENT`].
pub const QUERY_LENGTH: usize = 100;
/// ε of [`STATEMENT`].
pub const QUERY_EPSILON: f64 = 0.05;
/// Window of each PROGRESSIVE request.
pub const PROGRESSIVE_WINDOW: usize = 128;
/// Distinct PROGRESSIVE windows requests cycle through.
pub const PROGRESSIVE_POOL: usize = 64;
/// Name the server's progressive driver runs under (part of its stream
/// construction, so the one-shot comparator uses it too).
pub const PROGRESSIVE_NAME: &str = "net-progressive";
/// The anytime goal the progressive ladder is planned for.
pub const GOAL: RefinementGoal = RefinementGoal {
    target_error: 0.25,
    confidence: 0.9,
    first_answer_by: 16,
};
/// Per-user budget of every accountant: large enough that no workload is
/// ever refused, so budget refusals can only mean a bug.
pub const UNLIMITED_EPSILON: f64 = 1e12;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Warm RELEASE traffic from a fresh user per request.
    ReleaseFresh,
    /// The same RELEASE frames from 16 users with long budget histories.
    ReleaseHot,
    /// Grouped histogram QUERYs on one connection, PROGRESSIVE on the other.
    AnalystMix,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::ReleaseFresh,
        Workload::ReleaseHot,
        Workload::AnalystMix,
    ];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ReleaseFresh => "release_fresh",
            Workload::ReleaseHot => "release_hot",
            Workload::AnalystMix => "analyst_mix",
        }
    }

    /// Parses a command-line workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether the workload sends RELEASE frames.
    pub fn is_release(self) -> bool {
        !matches!(self, Workload::AnalystMix)
    }
}

/// The chain every simulated user's events follow.
pub fn chain() -> MarkovChain {
    MarkovChain::with_stationary_initial(vec![vec![0.85, 0.15], vec![0.35, 0.65]])
        .expect("the demo chain is a valid stochastic matrix")
}

/// The distribution class every mechanism is calibrated against.
pub fn class() -> MarkovChainClass {
    IntervalClassBuilder::symmetric(0.4)
        .grid_points(2)
        .build()
        .expect("the symmetric interval class is valid")
}

/// The RELEASE query.
pub fn release_query() -> StateFrequencyQuery {
    StateFrequencyQuery::new(RELEASE_STATE, RELEASE_LENGTH)
}

/// The RELEASE query in wire form.
pub fn wire_query() -> WireQuery {
    WireQuery::StateFrequency {
        state: RELEASE_STATE as u32,
        length: RELEASE_LENGTH as u32,
    }
}

/// The RELEASE budget.
pub fn release_budget() -> PrivacyBudget {
    PrivacyBudget::new(RELEASE_EPSILON).expect("positive epsilon")
}

/// The query [`STATEMENT`] plans to.
pub fn statement_query() -> RelativeFrequencyHistogram {
    RelativeFrequencyHistogram::new(2, QUERY_LENGTH).expect("two states")
}

/// Budget identity the server charges a frame's `user` to.
pub fn scoped_user(user: u64) -> String {
    format!("{TENANT}#{user:x}")
}

/// First request counter of connection `conn`: connections draw disjoint
/// counter ranges, so no two requests of a run share inputs.
pub fn counter_base(conn: usize) -> u64 {
    (conn as u64) << 40
}

/// Everything a workload's requests are built from, generated from one seed.
pub struct Inputs {
    /// The workload seed.
    pub seed: u64,
    /// Which workload's identities [`Inputs::user`] draws.
    pub workload: Workload,
    streams: StreamWorkload,
    databases: Vec<Vec<usize>>,
    windows: Vec<Vec<usize>>,
    table_rows: Vec<(String, Vec<usize>)>,
}

impl Inputs {
    /// Generates the inputs of `workload` under `seed`.
    pub fn new(workload: Workload, seed: u64) -> Self {
        let streams = StreamWorkload::new(chain(), seed);
        let databases = streams
            .generate(DATABASE_POOL as u64, RELEASE_LENGTH)
            .expect("positive length");
        let windows = StreamWorkload::new(chain(), splitmix64(seed ^ 0x5052_4F47))
            .generate(PROGRESSIVE_POOL as u64, PROGRESSIVE_WINDOW)
            .expect("positive length");
        let rows = StreamWorkload::new(chain(), splitmix64(seed ^ 0x5441_424C));
        let table_rows = (0..TABLE_USERS)
            .map(|u| {
                (
                    format!("user{u:02}"),
                    rows.user_stream(u as u64).take(TABLE_EVENTS).collect(),
                )
            })
            .collect();
        Inputs {
            seed,
            workload,
            streams,
            databases,
            windows,
            table_rows,
        }
    }

    /// The user id (within [`TENANT`]) request `counter` is charged to.
    pub fn user(&self, counter: u64) -> u64 {
        let drawn = self.streams.user_seed(counter);
        match self.workload {
            Workload::ReleaseHot => drawn % HOT_USERS,
            Workload::ReleaseFresh | Workload::AnalystMix => drawn % USER_SPACE,
        }
    }

    /// The noise seed of request `counter`.
    pub fn request_seed(&self, counter: u64) -> u64 {
        splitmix64(self.seed ^ splitmix64(counter ^ 0x5EED))
    }

    /// The database of RELEASE request `counter`.
    pub fn database(&self, counter: u64) -> &[usize] {
        &self.databases[(counter % DATABASE_POOL as u64) as usize]
    }

    /// The window of PROGRESSIVE request `counter`.
    pub fn window(&self, counter: u64) -> &[usize] {
        &self.windows[(counter % PROGRESSIVE_POOL as u64) as usize]
    }

    /// The analyst table.
    pub fn table(&self) -> Table {
        Table::grouped(TABLE, 2, self.table_rows.clone()).expect("well-formed table")
    }

    /// The RELEASE frame of request `counter`.
    pub fn release_frame(&self, counter: u64) -> Frame {
        Frame::release(
            self.user(counter),
            wire_query(),
            self.database(counter),
            RELEASE_EPSILON,
            self.request_seed(counter),
        )
        .expect("states fit the wire")
    }

    /// The QUERY frame of request `counter`.
    pub fn query_frame(&self, counter: u64) -> Frame {
        Frame::Query {
            user: self.user(counter),
            table: TABLE.to_string(),
            statement: STATEMENT.to_string(),
            seed: self.request_seed(counter),
        }
    }

    /// The PROGRESSIVE frame of request `counter` under `steps`
    /// (`(prefix, epsilon, error_bound)`, coarse to fine).
    pub fn progressive_frame(&self, counter: u64, steps: &[(usize, f64, f64)]) -> Frame {
        Frame::progressive(
            self.user(counter),
            GOAL.confidence,
            self.request_seed(counter),
            steps,
            self.window(counter),
        )
        .expect("states and prefixes fit the wire")
    }
}
