//! Building the serving stack each workload runs against: engines,
//! services, the analyst catalog, and the loopback `NetServer`.

use std::sync::Arc;
use std::time::Instant;

use pufferfish_core::engine::{MqmApproxCalibrator, ReleaseEngine};
use pufferfish_core::{EpsilonGrid, MqmApproxOptions, Parallelism};
use pufferfish_net::{
    NetServer, NetServerConfig, ProgressiveEndpoint, QueryEndpoint, TelemetryOptions,
};
use pufferfish_query::{
    execute_plan, parse_statement, plan_refinement, plan_statement, CatalogOptions,
    MechanismCatalog, QueryPlan, QueryService, QueryServiceConfig,
};
use pufferfish_service::{RefinementSchedule, ReleaseService, ServiceConfig, StreamBackend};

use crate::inputs::{
    class, release_budget, release_query, scoped_user, Inputs, Workload, GOAL, HOT_USERS, PIPELINE,
    PROGRESSIVE_WINDOW, QUERY_LENGTH, RELEASE_EPSILON, RELEASE_LENGTH, UNLIMITED_EPSILON,
};
use crate::Sizes;

/// Release-service workers. Pinned rather than derived from the host, so a
/// run means the same thing on every machine; `nproc` is recorded beside
/// the results.
pub const WORKERS: usize = 1;

/// How the server's query service fans out cells. Serial: the two client
/// connections already keep both of the reference host's cores busy, and a
/// parallel execution spawns threads per query, whose cost on a virtual
/// machine swings with the host more than the query itself does.
pub const QUERY_PARALLELISM: Parallelism = Parallelism::Threads(1);

/// The ε grid the analyst catalog's scale index covers (it must contain
/// the statement's ε).
pub fn scale_grid() -> EpsilonGrid {
    EpsilonGrid::log_spaced(0.02, 1.0, 8).expect("valid grid")
}

/// A warm MQM-approx engine for the RELEASE query: its one class-scoped
/// calibration is done here, so every request is a cache hit.
pub fn release_engine() -> Arc<ReleaseEngine> {
    let engine = ReleaseEngine::shared(MqmApproxCalibrator::new(
        class(),
        RELEASE_LENGTH,
        MqmApproxOptions::default(),
    ));
    engine
        .mechanism(&release_query(), release_budget())
        .expect("the MQM-approx release calibrates");
    engine
}

/// A running release service over `engine`.
pub fn release_service(engine: Arc<ReleaseEngine>) -> Arc<ReleaseService> {
    Arc::new(
        ReleaseService::start(
            engine,
            ServiceConfig {
                workers: Parallelism::Threads(WORKERS),
                queue_capacity: 256,
                per_user_epsilon: UNLIMITED_EPSILON,
            },
        )
        .expect("valid service config"),
    )
}

/// Gives each `release_hot` user `sizes.hot_history` prior releases
/// through `service`'s accountant, under the exact `tenant#user` identity
/// the server charges (other workloads start without history). Returns the
/// seconds it took.
pub fn preload(workload: Workload, sizes: &Sizes, service: &ReleaseService) -> f64 {
    let history = if workload == Workload::ReleaseHot {
        sizes.hot_history
    } else {
        0
    };
    let started = Instant::now();
    for user in 0..HOT_USERS {
        let id = scoped_user(user);
        for _ in 0..history {
            service
                .budget()
                .try_spend(&id, RELEASE_EPSILON)
                .expect("the preload fits the unlimited budget");
        }
    }
    started.elapsed().as_secs_f64()
}

fn server_config() -> NetServerConfig {
    NetServerConfig {
        max_pipeline: PIPELINE,
        ..NetServerConfig::default()
    }
}

/// The analyst catalog, warmed the way the server's set-up warms it: the
/// scale index over [`scale_grid`], then one execution of the statement so
/// the chosen family's calibration is cached.
pub struct AnalystCatalog {
    /// The warmed catalog.
    pub catalog: MechanismCatalog,
    /// The statement's plan against the workload's table.
    pub plan: QueryPlan,
    /// The progressive ladder `plan_refinement` chose.
    pub schedule: RefinementSchedule,
    /// Seconds the scale index took to build.
    pub index_build_s: f64,
}

/// Builds and warms the analyst catalog for `inputs`' table.
pub fn analyst_catalog(inputs: &Inputs) -> AnalystCatalog {
    let catalog = MechanismCatalog::with_options(
        class(),
        CatalogOptions {
            scale_grid: Some(scale_grid()),
            ..CatalogOptions::default()
        },
    );
    let started = Instant::now();
    catalog
        .warm_scale_index(QUERY_LENGTH, &crate::inputs::statement_query())
        .expect("the scale index builds");
    let index_build_s = started.elapsed().as_secs_f64();
    let statement = parse_statement(crate::inputs::STATEMENT).expect("the statement parses");
    let plan = plan_statement(&catalog, &statement, &inputs.table()).expect("the statement plans");
    execute_plan(&plan, inputs.seed, QUERY_PARALLELISM).expect("the warm-up execution runs");
    let schedule = plan_refinement(&catalog, StreamBackend::MqmApprox, PROGRESSIVE_WINDOW, GOAL)
        .expect("the progressive goal is reachable");
    AnalystCatalog {
        catalog,
        plan,
        schedule,
        index_build_s,
    }
}

/// A started stack: the server, the release service behind it, and what
/// the workload's requests and gate need to know about it.
pub struct Stack {
    /// The listening server.
    pub server: NetServer,
    /// The release service (RELEASE and PROGRESSIVE charge its accountant).
    pub service: Arc<ReleaseService>,
    /// The progressive ladder (analyst workload only).
    pub schedule: Option<RefinementSchedule>,
    /// The ε one QUERY is charged (analyst workload only).
    pub query_epsilon: f64,
    /// Seconds the whole set-up took.
    pub setup_s: f64,
}

/// Sets up `workload`'s stack; `telemetry` binds it instrumented.
pub fn start(workload: Workload, inputs: &Inputs, sizes: &Sizes, telemetry: bool) -> Stack {
    let started = Instant::now();
    let telemetry = telemetry.then(TelemetryOptions::new);
    let addr = ("127.0.0.1", 0);
    match workload {
        Workload::ReleaseFresh | Workload::ReleaseHot => {
            let service = release_service(release_engine());
            preload(workload, sizes, &service);
            let server = NetServer::bind_full(
                addr,
                Arc::clone(&service),
                None,
                None,
                server_config(),
                telemetry,
            )
            .expect("loopback bind");
            Stack {
                server,
                service,
                schedule: None,
                query_epsilon: 0.0,
                setup_s: started.elapsed().as_secs_f64(),
            }
        }
        Workload::AnalystMix => {
            let warmed = analyst_catalog(inputs);
            let query_epsilon = warmed.plan.total_epsilon();
            let schedule = warmed.schedule.clone();
            let query = QueryService::start(
                warmed.catalog,
                QueryServiceConfig {
                    per_user_epsilon: UNLIMITED_EPSILON,
                    parallelism: QUERY_PARALLELISM,
                },
            )
            .expect("valid query config");
            let mut endpoint = QueryEndpoint::new(query);
            endpoint.register_table(inputs.table());
            // PROGRESSIVE charges the release service's accountant; its
            // engine never releases here, so it stays cold.
            let service = release_service(ReleaseEngine::shared(MqmApproxCalibrator::new(
                class(),
                RELEASE_LENGTH,
                MqmApproxOptions::default(),
            )));
            let server = NetServer::bind_full(
                addr,
                Arc::clone(&service),
                Some(endpoint),
                Some(ProgressiveEndpoint::new(class(), StreamBackend::MqmApprox)),
                server_config(),
                telemetry,
            )
            .expect("loopback bind");
            Stack {
                server,
                service,
                schedule: Some(schedule),
                query_epsilon,
                setup_s: started.elapsed().as_secs_f64(),
            }
        }
    }
}

/// The schedule in the `(prefix, epsilon, error_bound)` form frames take.
pub fn schedule_steps(schedule: &RefinementSchedule) -> Vec<(usize, f64, f64)> {
    schedule
        .steps()
        .iter()
        .map(|s| (s.prefix, s.epsilon, s.error_bound))
        .collect()
}
