//! Stand-alone TCP release server: the binary half of the wire quickstart.
//!
//! Run with
//!
//! ```text
//! cargo run -p pufferfish-bench --release --example net_server -- 127.0.0.1:7878
//! ```
//!
//! then point `--example net_client` at the same address. Useful flags:
//!
//! * first positional arg — listen address (default `127.0.0.1:7878`;
//!   `127.0.0.1:0` picks an ephemeral port and prints it)
//! * `--exit-after-connections N` — shut down gracefully once N
//!   connections have come and gone (how CI runs the server/client pair as
//!   separate processes with a deterministic exit)
//! * `--telemetry` — attach the unified telemetry layer: a metrics
//!   registry every client can snapshot with METRICS, a flight recorder of
//!   slow requests, and an ε-spend ledger audited (bitwise, against the
//!   live accountant) at shutdown

use std::sync::Arc;
use std::time::Duration;

use pufferfish_core::engine::{MqmApproxCalibrator, ReleaseEngine};
use pufferfish_core::{MqmApproxOptions, Parallelism};
use pufferfish_markov::IntervalClassBuilder;
use pufferfish_monitor::{ClassBounds, MonitorConfig, ServiceMonitor};
use pufferfish_net::{NetServer, NetServerConfig, QueryEndpoint, TelemetryOptions};
use pufferfish_query::{MechanismCatalog, QueryService, QueryServiceConfig, Table};
use pufferfish_service::{audit_ledger, ReleaseObserver, ReleaseService, ServiceConfig};
use pufferfish_telemetry::{EpsilonLedger, FlightRecorder};

const CHAIN_LENGTH: usize = 60;

fn main() {
    let mut addr = "127.0.0.1:7878".to_string();
    let mut exit_after: Option<u64> = None;
    let mut telemetry = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        if arg == "--exit-after-connections" {
            let n = args
                .next()
                .and_then(|v| v.parse().ok())
                .expect("--exit-after-connections needs a number");
            exit_after = Some(n);
        } else if arg == "--telemetry" {
            telemetry = true;
        } else {
            addr = arg;
        }
    }

    // The serving stack: a weakly correlated binary interval class behind
    // the approximate Markov Quilt mechanism, shared by 4 workers.
    let class = IntervalClassBuilder::symmetric(0.4)
        .grid_points(2)
        .build()
        .expect("valid interval class");
    let engine = ReleaseEngine::shared(MqmApproxCalibrator::new(
        class.clone(),
        CHAIN_LENGTH,
        MqmApproxOptions::default(),
    ));
    let service = Arc::new(
        ReleaseService::start(
            engine,
            ServiceConfig {
                workers: Parallelism::Threads(4),
                queue_capacity: 256,
                per_user_epsilon: 5.0,
            },
        )
        .expect("valid service config"),
    );

    // Self-validation: a monitor watches every release (sequential noise
    // test + windowed drift detection against a generous demo envelope),
    // and its counters ride the STATS wire frame to every client.
    let monitor = ServiceMonitor::new(
        ClassBounds::new(vec![vec![0.05; 2]; 2], vec![vec![0.95; 2]; 2]),
        MonitorConfig::default(),
        8 * 1024,
    );
    service.set_observer(Arc::clone(&monitor) as Arc<dyn ReleaseObserver>);

    // A query endpoint with one demo table, so QUERY frames work too.
    let query_service = QueryService::start(
        MechanismCatalog::new(class),
        QueryServiceConfig {
            per_user_epsilon: 5.0,
            parallelism: Parallelism::Threads(2),
        },
    )
    .expect("valid query config");
    let mut endpoint = QueryEndpoint::new(query_service);
    let sensor: Vec<usize> = (0..CHAIN_LENGTH).map(|t| (t * 7 + 3) % 13 % 2).collect();
    endpoint.register_table(Table::single("sensor", 2, sensor).expect("valid table"));

    // With --telemetry: one registry shared by every layer (net byte
    // counters, the six-stage span family, service admission counters,
    // engine cache counters), a flight recorder capturing requests slower
    // than 1 ms end to end, and an append-only ε-ledger the shutdown path
    // audits bitwise against the live accountant.
    let ledger = telemetry.then(|| {
        let ledger = Arc::new(EpsilonLedger::new());
        service.budget().attach_ledger(Arc::clone(&ledger));
        ledger
    });
    let options = telemetry.then(|| TelemetryOptions {
        recorder: Some(Arc::new(FlightRecorder::new(64, 1_000_000))),
        ..TelemetryOptions::new()
    });
    let server = NetServer::bind_full(
        &addr as &str,
        Arc::clone(&service),
        Some(endpoint),
        None,
        NetServerConfig::default(),
        options,
    )
    .expect("bind failed");

    println!("listening on {}", server.local_addr());
    if telemetry {
        println!("telemetry on: METRICS frames answered, ε-ledger attached");
    }
    match exit_after {
        Some(n) => {
            // Poll until N connections have been accepted and finished,
            // then drain and exit — the deterministic CI lifecycle.
            loop {
                if server.total_connections() >= n && server.active_connections() == 0 {
                    break;
                }
                std::thread::sleep(Duration::from_millis(50));
            }
            let stats = server.stats();
            println!(
                "served {} release(s) across {} connection(s); shutting down",
                stats.served,
                server.total_connections()
            );
            server.shutdown();
            if let Some(ledger) = &ledger {
                let report = audit_ledger(&ledger.to_bytes(), service.budget())
                    .expect("ledger audit must reconstruct the accountant bitwise");
                println!(
                    "ledger audit passed: {} event(s), {} user(s), total ε {:.6} \
                     bitwise-equal to the live accountant",
                    report.events,
                    report.per_user.len(),
                    report.total
                );
            }
        }
        None => {
            // Serve until the process is killed.
            loop {
                std::thread::sleep(Duration::from_secs(3600));
            }
        }
    }
}
