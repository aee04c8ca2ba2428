//! End-to-end socket tests for the TCP front-end.
//!
//! The contracts pinned here, each over real `127.0.0.1` connections:
//!
//! * **Determinism survives the wire**: concurrent clients on separate
//!   connections issuing the identical `(user, query, ε, seed, database)`
//!   release get bitwise-identical noisy answers — and exactly the answer
//!   the in-process service gives for the same scoped identity.
//! * **Budget enforcement is typed**: exhausting a user's ε over the wire
//!   yields a `BUDGET_EXHAUSTED{requested, remaining}` frame, budgets are
//!   tenant-scoped (the same numeric user id under two tenants spends two
//!   budgets), and the spend survives reconnects. An ε that is not
//!   positive and finite is a typed `MALFORMED` error that charges nothing.
//! * **Overload is typed and survivable**: a tiny admission queue under a
//!   deep pipeline produces `BUSY` frames, never hangs, and the server
//!   serves normally afterwards. PROGRESSIVE shares that queue: refused, it
//!   is `BUSY`, charges nothing and gives its pipeline slot back.
//! * **Adversarial bytes are contained**: garbage on one connection gets a
//!   typed error and a close, while the listener keeps serving others; the
//!   connection cap refuses with a typed frame; a HELLO tenant longer than
//!   255 bytes is refused and charges nothing; shutdown drains in-flight
//!   releases, and neither a stalled release nor a client that stops
//!   reading can hold shutdown past one `drain_timeout` per connection.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use pufferfish_core::engine::{Calibrator, FnCalibrator, MqmApproxCalibrator, ReleaseEngine};
use pufferfish_core::{MqmApproxOptions, Parallelism, PrivacyBudget};
use pufferfish_markov::IntervalClassBuilder;
use pufferfish_net::{
    decode, encode, ClientError, Envelope, ErrorCode, Frame, FrameError, NetClient, NetServer,
    NetServerConfig, ProgressiveEndpoint, QueryEndpoint, TelemetryOptions, WireMetricValue,
    WireQuery, DEFAULT_MAX_FRAME_LEN,
};
use pufferfish_query::{MechanismCatalog, QueryService, QueryServiceConfig, Table};
use pufferfish_service::{
    audit_ledger, ProgressiveRelease, RefinementSchedule, RefinementStep, ReleaseRequest,
    ReleaseService, ServiceConfig, StreamBackend,
};
use pufferfish_telemetry::{EpsilonLedger, FlightRecorder};

const LENGTH: usize = 60;

fn engine() -> Arc<ReleaseEngine> {
    let class = IntervalClassBuilder::symmetric(0.4)
        .grid_points(2)
        .build()
        .unwrap();
    ReleaseEngine::shared(MqmApproxCalibrator::new(
        class,
        LENGTH,
        MqmApproxOptions::default(),
    ))
}

fn service(queue_capacity: usize, workers: usize, per_user_epsilon: f64) -> Arc<ReleaseService> {
    Arc::new(
        ReleaseService::start(
            engine(),
            ServiceConfig {
                workers: Parallelism::Threads(workers),
                queue_capacity,
                per_user_epsilon,
            },
        )
        .unwrap(),
    )
}

fn database(seed: usize) -> Vec<usize> {
    (0..LENGTH).map(|t| (t * 7 + seed) % 13 % 2).collect()
}

fn test_query() -> WireQuery {
    WireQuery::StateFrequency {
        state: 1,
        length: LENGTH as u32,
    }
}

#[test]
fn concurrent_connections_get_bitwise_deterministic_releases() {
    let service = service(64, 4, 100.0);
    let server = NetServer::bind(
        ("127.0.0.1", 0),
        Arc::clone(&service),
        NetServerConfig::default(),
    )
    .unwrap();
    let addr = server.local_addr();
    let db = database(3);

    // The ground truth: the identical request through the in-process path,
    // under the exact scoped identity the wire assigns ("tenant#user-hex").
    let reference = service
        .try_submit(ReleaseRequest {
            user: "det#2a".to_string(),
            query: test_query().build().unwrap(),
            database: db.clone(),
            epsilon: 0.25,
            seed: 777,
        })
        .unwrap()
        .wait()
        .unwrap();

    let answers: Vec<Vec<u64>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..6)
            .map(|_| {
                let db = db.clone();
                scope.spawn(move || {
                    let mut client = NetClient::connect(addr, "det").unwrap();
                    let (scale, values) =
                        client.release(0x2a, test_query(), &db, 0.25, 777).unwrap();
                    assert!(scale > 0.0);
                    client.goodbye().unwrap();
                    values.iter().map(|v| v.to_bits()).collect()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    let expected: Vec<u64> = reference.values.iter().map(|v| v.to_bits()).collect();
    for answer in &answers {
        assert_eq!(
            answer, &expected,
            "a wire release diverged from the in-process release"
        );
    }
    assert_eq!(server.total_connections(), 6);
    server.shutdown();
}

#[test]
fn pipelined_requests_complete_out_of_order_but_all_complete() {
    let service = service(256, 4, 1000.0);
    let server = NetServer::bind(
        ("127.0.0.1", 0),
        Arc::clone(&service),
        NetServerConfig::default(),
    )
    .unwrap();
    let mut client = NetClient::connect(server.local_addr(), "pipe").unwrap();

    // 40 requests in flight before the first recv: more than the release
    // worker count, so completion order is up to the scheduler.
    let db = database(5);
    let mut expected: std::collections::HashMap<u64, u64> = std::collections::HashMap::new();
    for i in 0..40u64 {
        let frame = Frame::release(i, test_query(), &db, 0.1, 1000 + i).unwrap();
        let seq = client.send(frame).unwrap();
        expected.insert(seq, i);
    }
    for _ in 0..40 {
        let Envelope { seq, frame } = client.recv().unwrap();
        let user = expected.remove(&seq).expect("unknown or duplicate seq");
        match frame {
            Frame::ReleaseOk { values, .. } => assert_eq!(values.len(), 1),
            other => panic!("user {user} got {other:?}"),
        }
    }
    assert!(expected.is_empty(), "every request answered exactly once");
    client.goodbye().unwrap();
    server.shutdown();
}

/// Reads `count` whole frames off a raw socket; bytes past the last one
/// stay in `inbox`.
fn read_frames(stream: &mut TcpStream, inbox: &mut Vec<u8>, count: usize) -> Vec<Envelope> {
    let mut frames = Vec::new();
    let mut chunk = [0u8; 4096];
    while frames.len() < count {
        match decode(inbox, DEFAULT_MAX_FRAME_LEN) {
            Ok((envelope, consumed)) => {
                inbox.drain(..consumed);
                frames.push(envelope);
            }
            Err(FrameError::Truncated { .. }) => {
                let n = stream.read(&mut chunk).unwrap();
                assert!(n > 0, "the server closed after {} frames", frames.len());
                inbox.extend_from_slice(&chunk[..n]);
            }
            Err(error) => panic!("undecodable answer: {error}"),
        }
    }
    frames
}

#[test]
fn frames_split_across_writes_are_all_answered() {
    let service = service(64, 2, 1000.0);
    let server = NetServer::bind(
        ("127.0.0.1", 0),
        Arc::clone(&service),
        NetServerConfig::default(),
    )
    .unwrap();
    let mut raw = TcpStream::connect(server.local_addr()).unwrap();
    raw.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    let encoded =
        |seq: u64, frame: Frame| encode(&Envelope { seq, frame }, DEFAULT_MAX_FRAME_LEN).unwrap();
    let db = database(8);
    let mut bytes = encoded(
        0,
        Frame::Hello {
            tenant: "split".to_string(),
        },
    );
    let mut last_len = 0;
    for seq in 1..=6u64 {
        let release = Frame::release(seq, test_query(), &db, 0.1, 500 + seq).unwrap();
        let frame = encoded(seq, release);
        last_len = frame.len();
        bytes.extend_from_slice(&frame);
    }

    // The first write holds HELLO, five whole RELEASEs and half of the
    // sixth; the rest is written only once those six frames are answered,
    // so the server must carry the half frame over to its next read.
    let cut = bytes.len() - last_len / 2;
    raw.write_all(&bytes[..cut]).unwrap();
    let mut inbox = Vec::new();
    let mut answers = read_frames(&mut raw, &mut inbox, 6);
    raw.write_all(&bytes[cut..]).unwrap();
    answers.extend(read_frames(&mut raw, &mut inbox, 1));

    let mut seqs: Vec<u64> = answers.iter().map(|envelope| envelope.seq).collect();
    seqs.sort_unstable();
    assert_eq!(seqs, (0..=6).collect::<Vec<u64>>());
    for Envelope { seq, frame } in answers {
        match frame {
            Frame::HelloOk { .. } if seq == 0 => {}
            Frame::ReleaseOk { values, .. } if seq > 0 => assert_eq!(values.len(), 1),
            other => panic!("seq {seq} got {other:?}"),
        }
    }
    assert_eq!(service.budget().releases("split#6"), 1);
    server.shutdown();
}

#[test]
fn budget_exhaustion_over_the_wire_is_typed_and_tenant_scoped() {
    // ε = 0.5 per user: two 0.2-releases fit, the third does not.
    let service = service(64, 2, 0.5);
    let server = NetServer::bind(
        ("127.0.0.1", 0),
        Arc::clone(&service),
        NetServerConfig::default(),
    )
    .unwrap();
    let db = database(1);

    let mut client = NetClient::connect(server.local_addr(), "alpha").unwrap();
    for seed in 0..2 {
        client.release(9, test_query(), &db, 0.2, seed).unwrap();
    }
    match client.release(9, test_query(), &db, 0.2, 3) {
        Err(ClientError::BudgetExhausted {
            requested,
            remaining,
        }) => {
            assert_eq!(requested, 0.2);
            assert!(remaining < 0.2, "remaining was {remaining}");
        }
        other => panic!("expected BudgetExhausted, got {other:?}"),
    }
    // A different user under the same tenant still has a full budget...
    client.release(10, test_query(), &db, 0.2, 4).unwrap();
    client.goodbye().unwrap();

    // ...and the same numeric user id under a *different* tenant does too:
    // the tenant prefix is what the accountant charges.
    let mut other = NetClient::connect(server.local_addr(), "beta").unwrap();
    other.release(9, test_query(), &db, 0.2, 5).unwrap();
    other.goodbye().unwrap();

    // The spend is server-side state: reconnecting as the exhausted tenant
    // does not refresh the budget.
    let mut back = NetClient::connect(server.local_addr(), "alpha").unwrap();
    assert!(matches!(
        back.release(9, test_query(), &db, 0.2, 6),
        Err(ClientError::BudgetExhausted { .. })
    ));
    back.goodbye().unwrap();
    server.shutdown();
}

#[test]
fn overload_returns_busy_and_the_server_stays_healthy() {
    // One slow worker behind a 2-deep queue, hammered by a deep pipeline:
    // some requests must be refused as BUSY, none may hang, and the server
    // must serve normally afterwards.
    let service = service(2, 1, 10_000.0);
    let server = NetServer::bind(
        ("127.0.0.1", 0),
        Arc::clone(&service),
        NetServerConfig {
            max_pipeline: 256,
            ..NetServerConfig::default()
        },
    )
    .unwrap();
    let db = database(9);

    let mut client = NetClient::connect(server.local_addr(), "storm").unwrap();
    let mut unanswered = std::collections::HashSet::new();
    for i in 0..120u64 {
        unanswered.insert(
            client
                .send(Frame::release(i, test_query(), &db, 0.01, i).unwrap())
                .unwrap(),
        );
    }
    let mut ok = 0u64;
    let mut busy = 0u64;
    for _ in 0..120 {
        let Envelope { seq, frame } = client.recv().unwrap();
        // A refused submission whose reply also fired would answer its
        // seq twice: BUSY from the reader and a second frame from the reply.
        assert!(unanswered.remove(&seq), "seq {seq} answered twice");
        match frame {
            Frame::ReleaseOk { .. } => ok += 1,
            Frame::Busy { retry_hint_ms } => {
                busy += 1;
                assert!(retry_hint_ms >= 1);
            }
            other => panic!("unexpected overload response {other:?}"),
        }
    }
    assert!(
        busy > 0,
        "a 2-deep queue under 120 pipelined requests must refuse some"
    );
    assert!(ok > 0, "admission control must not starve everything");
    // Nothing trails the 120 answers: the next frame is the STATS reply.
    client.stats().unwrap();
    client.goodbye().unwrap();

    // Health check: a fresh connection serves normally, and the refusals
    // are visible in the STATS frame.
    let mut after = NetClient::connect(server.local_addr(), "after").unwrap();
    after.release(1, test_query(), &db, 0.01, 42).unwrap();
    let stats = after.stats().unwrap();
    assert!(stats.queue_refusals > 0, "refusals must surface in STATS");
    assert!(stats.served >= ok);
    after.goodbye().unwrap();
    server.shutdown();
}

#[test]
fn busy_refusals_do_not_charge_the_budget() {
    // Budget admits exactly 50 ε=0.1 releases. Push 50 through an overload
    // that BUSY-refuses many; every refusal must roll its spend back, so
    // retrying eventually lands all 50.
    let service = service(1, 1, 5.0 + 1e-9);
    let server = NetServer::bind(
        ("127.0.0.1", 0),
        Arc::clone(&service),
        NetServerConfig::default(),
    )
    .unwrap();
    let db = database(2);
    let mut client = NetClient::connect(server.local_addr(), "refund").unwrap();
    let mut landed = 0u64;
    let mut attempts = 0u64;
    while landed < 50 {
        attempts += 1;
        assert!(attempts < 50_000, "refusals must not leak budget");
        match client.release(7, test_query(), &db, 0.1, landed) {
            Ok(_) => landed += 1,
            Err(ClientError::Busy { .. }) => {
                std::thread::sleep(std::time::Duration::from_micros(200))
            }
            Err(other) => panic!("unexpected error {other:?}"),
        }
    }
    // The 51st must fail on budget, not on queue state.
    match client.release(7, test_query(), &db, 0.1, 999) {
        Err(ClientError::BudgetExhausted { .. }) => {}
        other => panic!("expected BudgetExhausted, got {other:?}"),
    }
    client.goodbye().unwrap();
    server.shutdown();
}

/// Caches the one class-scoped calibration a release at `epsilon` needs,
/// without charging anyone, so every such release after it is warm.
fn warm_engine(service: &ReleaseService, epsilon: f64) {
    let query = test_query().build().unwrap();
    service
        .engine()
        .mechanism(&*query, PrivacyBudget::new(epsilon).unwrap())
        .unwrap();
}

/// Encodes one frame for a raw socket.
fn encoded(seq: u64, frame: Frame) -> Vec<u8> {
    encode(&Envelope { seq, frame }, DEFAULT_MAX_FRAME_LEN).unwrap()
}

/// HELLO under `tenant`, as seq 0.
fn hello(tenant: &str) -> Vec<u8> {
    encoded(
        0,
        Frame::Hello {
            tenant: tenant.to_string(),
        },
    )
}

#[test]
fn a_warm_overload_sheds_busy_and_charges_only_the_releases_it_answers() {
    // A cached calibration, one worker and a 2-deep queue under 120
    // releases for distinct users, all in one write: some must be BUSY,
    // every seq is answered once, and a refused release is refunded.
    const EPSILON: f64 = 0.25;
    let service = service(2, 1, 1.0);
    warm_engine(&service, EPSILON);
    let server = NetServer::bind(
        ("127.0.0.1", 0),
        Arc::clone(&service),
        NetServerConfig::default(),
    )
    .unwrap();
    let mut raw = TcpStream::connect(server.local_addr()).unwrap();
    raw.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    let db = database(4);
    let mut bytes = hello("surge");
    for seq in 1..=120u64 {
        let release = Frame::release(seq, test_query(), &db, EPSILON, seq).unwrap();
        bytes.extend_from_slice(&encoded(seq, release));
    }
    raw.write_all(&bytes).unwrap();

    let mut inbox = Vec::new();
    let mut unanswered: std::collections::HashSet<u64> = (0..=120).collect();
    let (mut ok, mut busy) = (0u64, 0u64);
    for Envelope { seq, frame } in read_frames(&mut raw, &mut inbox, 121) {
        assert!(unanswered.remove(&seq), "seq {seq} answered twice");
        let spent = service.budget().spent(&format!("surge#{seq:x}"));
        match frame {
            Frame::HelloOk { .. } if seq == 0 => {}
            Frame::ReleaseOk { .. } => {
                ok += 1;
                assert_eq!(spent, EPSILON, "seq {seq}");
            }
            Frame::Busy { .. } => {
                busy += 1;
                assert_eq!(spent, 0.0, "seq {seq}: a BUSY release stays charged");
            }
            other => panic!("seq {seq} got {other:?}"),
        }
    }
    assert!(unanswered.is_empty());
    assert!(
        busy > 0,
        "a 2-deep queue under 120 releases must refuse some"
    );
    assert!(ok > 0, "admission control must not starve everything");
    // Nothing trails the 121 answers: the next frame is the STATS reply.
    raw.write_all(&encoded(121, Frame::Stats)).unwrap();
    match read_frames(&mut raw, &mut inbox, 1).pop().unwrap() {
        Envelope {
            seq: 121,
            frame: Frame::StatsOk(stats),
        } => assert!(stats.queue_refusals > 0, "refusals must surface in STATS"),
        other => panic!("expected STATS_OK for seq 121, got {other:?}"),
    }
    assert_eq!(service.budget().total_spent(), ok as f64 * EPSILON);
    server.shutdown();
}

#[test]
fn a_warm_release_is_answered_while_the_only_worker_is_busy() {
    let service = service(4, 1, 10.0);
    warm_engine(&service, 0.1);
    let server = NetServer::bind(
        ("127.0.0.1", 0),
        Arc::clone(&service),
        NetServerConfig::default(),
    )
    .unwrap();
    let mut client = NetClient::connect(server.local_addr(), "bypass").unwrap();

    // Hold the only worker with a task. It lets go when the test opens its
    // gate or after 2 s, so a server that queues the release behind it
    // answers late instead of never.
    let (entered_tx, entered) = std::sync::mpsc::channel();
    let (open, gate) = std::sync::mpsc::channel::<()>();
    let worker_free = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let freed = Arc::clone(&worker_free);
    service
        .try_spawn(move || {
            entered_tx.send(()).unwrap();
            let _ = gate.recv_timeout(Duration::from_secs(2));
            freed.store(true, std::sync::atomic::Ordering::SeqCst);
        })
        .unwrap();
    entered.recv().unwrap();

    let (scale, values) = client
        .release(1, test_query(), &database(2), 0.1, 5)
        .unwrap();
    assert!(
        !worker_free.load(std::sync::atomic::Ordering::SeqCst),
        "the warm release waited for the worker"
    );
    assert!(scale > 0.0);
    assert_eq!(values.len(), 1);
    open.send(()).unwrap();
    client.goodbye().unwrap();
    server.shutdown();
}

/// Writes `bytes` in one write and reads every frame until EOF (or until
/// the 5 s read timeout fails the test).
fn frames_until_eof(addr: std::net::SocketAddr, bytes: &[u8]) -> Vec<Envelope> {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    stream.write_all(bytes).unwrap();
    let mut response = Vec::new();
    stream
        .read_to_end(&mut response)
        .expect("the server closes the connection");
    let mut frames = Vec::new();
    let mut at = 0;
    while at < response.len() {
        let (envelope, consumed) = decode(&response[at..], DEFAULT_MAX_FRAME_LEN).unwrap();
        frames.push(envelope);
        at += consumed;
    }
    frames
}

#[test]
fn a_warm_release_keeps_hello_ok_first_and_a_closing_error_last() {
    let service = service(16, 1, 10.0);
    warm_engine(&service, 0.5);
    let server = NetServer::bind(
        ("127.0.0.1", 0),
        Arc::clone(&service),
        NetServerConfig::default(),
    )
    .unwrap();
    let release = |seq: u64| {
        let frame = Frame::release(seq, test_query(), &database(3), 0.5, seq).unwrap();
        encoded(seq, frame)
    };

    // HELLO, a warm RELEASE and a STATS in one write: HELLO_OK comes first
    // and both requests are answered.
    let bytes = [
        hello("order"),
        release(1),
        encoded(2, Frame::Stats),
        encoded(3, Frame::Goodbye),
    ]
    .concat();
    let frames = frames_until_eof(server.local_addr(), &bytes);
    assert_eq!(frames.len(), 3, "{frames:?}");
    assert!(
        matches!(frames[0].frame, Frame::HelloOk { .. }),
        "{frames:?}"
    );
    let mut rest: Vec<_> = frames[1..].iter().map(|e| (e.seq, &e.frame)).collect();
    rest.sort_by_key(|&(seq, _)| seq);
    assert!(matches!(rest[0], (1, Frame::ReleaseOk { .. })), "{rest:?}");
    assert!(matches!(rest[1], (2, Frame::StatsOk(_))), "{rest:?}");

    // HELLO, a warm RELEASE and a response-kind frame: the release is
    // answered before the closing ERROR, then EOF, and charged once.
    let bytes = [
        hello("closing"),
        release(1),
        encoded(2, Frame::Busy { retry_hint_ms: 1 }),
    ]
    .concat();
    let frames: Vec<_> = frames_until_eof(server.local_addr(), &bytes)
        .into_iter()
        .map(|e| (e.seq, e.frame))
        .collect();
    assert_eq!(frames.len(), 3, "{frames:?}");
    assert!(
        matches!(frames[0], (0, Frame::HelloOk { .. })),
        "{frames:?}"
    );
    assert!(
        matches!(frames[1], (1, Frame::ReleaseOk { .. })),
        "{frames:?}"
    );
    assert!(
        matches!(
            frames[2],
            (
                2,
                Frame::Error {
                    code: ErrorCode::Malformed,
                    ..
                }
            )
        ),
        "{frames:?}"
    );
    assert_eq!(service.budget().spent("closing#1"), 0.5);
    server.shutdown();
}

#[test]
fn server_threads_keep_role_and_index_within_the_kernel_name_limit() {
    let service = service(16, 2, 10.0);
    let server = NetServer::bind(
        ("127.0.0.1", 0),
        Arc::clone(&service),
        NetServerConfig::default(),
    )
    .unwrap();
    // A HELLO round trip: the connection's reader and writer are running.
    let client = NetClient::connect(server.local_addr(), "names").unwrap();
    // Linux keeps 15 bytes of a thread name; a name that fits reads back
    // whole. Other tests' threads share the process, so only look for ours.
    if let Ok(tasks) = std::fs::read_dir("/proc/self/task") {
        let names: Vec<String> = tasks
            .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
            .map(|name| name.trim_end().to_string())
            .collect();
        for expected in [
            "pf-net-accept",
            "pf-net-read",
            "pf-net-write",
            "pf-release-0",
            "pf-release-1",
        ] {
            assert!(
                names.iter().any(|name| name == expected),
                "no thread named {expected} in {names:?}"
            );
        }
    }
    client.goodbye().unwrap();
    server.shutdown();
}

#[test]
fn a_release_whose_epsilon_is_not_positive_and_finite_is_malformed_and_free() {
    let service = service(16, 1, 1.0);
    let server = NetServer::bind(
        ("127.0.0.1", 0),
        Arc::clone(&service),
        NetServerConfig::default(),
    )
    .unwrap();
    let db = database(5);
    let mut client = NetClient::connect(server.local_addr(), "eps").unwrap();
    for epsilon in [-0.5, 0.0, f64::NAN] {
        match client.release(3, test_query(), &db, epsilon, 1) {
            Err(ClientError::Remote { code, .. }) => {
                assert_eq!(code, ErrorCode::Malformed, "epsilon {epsilon}")
            }
            other => panic!("epsilon {epsilon}: expected a typed Malformed error, got {other:?}"),
        }
    }
    assert_eq!(service.budget().spent("eps#3"), 0.0);
    // The refusals left the connection open: a valid release still lands.
    client.release(3, test_query(), &db, 0.25, 2).unwrap();
    assert!((service.budget().spent("eps#3") - 0.25).abs() < 1e-12);
    client.goodbye().unwrap();
    server.shutdown();
}

/// A chain engine calibrated for length 60 refuses a RELEASE of length 100
/// with a typed `Mechanism` error. MQMApprox σ grows with the chain length:
/// on this sticky class at ε = 1 it is 60 at T = 60 and 68.641 at T = 100,
/// so serving the length-60 calibration would add 12.6% less noise than a
/// length-100 release requires. The refused release's charge stands, as
/// for any failure in the mechanism layer.
#[test]
fn a_release_of_another_length_than_the_calibrated_one_is_refused() {
    let sticky = IntervalClassBuilder::symmetric(0.1)
        .grid_points(3)
        .build()
        .unwrap();
    let engine = ReleaseEngine::shared(MqmApproxCalibrator::new(
        sticky,
        LENGTH,
        MqmApproxOptions::default(),
    ));
    let service = Arc::new(
        ReleaseService::start(
            engine,
            ServiceConfig {
                workers: Parallelism::Threads(1),
                queue_capacity: 16,
                per_user_epsilon: 10.0,
            },
        )
        .unwrap(),
    );
    let server = NetServer::bind(
        ("127.0.0.1", 0),
        Arc::clone(&service),
        NetServerConfig::default(),
    )
    .unwrap();
    let mut client = NetClient::connect(server.local_addr(), "len").unwrap();
    let histogram = |length: usize| WireQuery::Histogram {
        num_states: 2,
        length: length as u32,
    };
    let longer: Vec<usize> = (0..100).map(|t| t / 7 % 2).collect();
    // Refused cold, and again once the engine's own length is cached.
    for seed in [1, 3] {
        match client.release(1, histogram(100), &longer, 1.0, seed) {
            Err(ClientError::Remote { code, .. }) => assert_eq!(code, ErrorCode::Mechanism),
            other => panic!("a length-100 release on a length-60 engine gave {other:?}"),
        }
        client
            .release(
                1,
                histogram(LENGTH),
                &database(seed as usize),
                1.0,
                seed + 1,
            )
            .unwrap();
    }
    assert!((service.budget().spent("len#1") - 4.0).abs() < 1e-12);
    client.goodbye().unwrap();
    server.shutdown();
}

#[test]
fn query_frames_execute_and_miss_typed() {
    let class = IntervalClassBuilder::symmetric(0.45)
        .grid_points(2)
        .build()
        .unwrap();
    let query_service = QueryService::start(
        MechanismCatalog::new(class),
        QueryServiceConfig {
            per_user_epsilon: 10.0,
            parallelism: Parallelism::Threads(2),
        },
    )
    .unwrap();
    let mut endpoint = QueryEndpoint::new(query_service);
    endpoint.register_table(Table::single("sensor", 2, database(4)).unwrap());

    let service = service(64, 2, 10.0);
    let server = NetServer::bind_full(
        ("127.0.0.1", 0),
        Arc::clone(&service),
        Some(endpoint),
        None,
        NetServerConfig::default(),
        None,
    )
    .unwrap();
    let mut client = NetClient::connect(server.local_addr(), "q").unwrap();

    let statement = "HISTOGRAM WINDOW 30 EPSILON 0.2 MECHANISM MQM_APPROX";
    let result = client.query(5, "sensor", statement, 11).unwrap();
    assert!(!result.cells.is_empty());
    assert!(result.noise_scale > 0.0);
    assert!(result.total_epsilon > 0.0);
    for cell in &result.cells {
        assert!(!cell.windows.is_empty());
        for window in &cell.windows {
            assert_eq!(window.values.len(), 2, "histogram over 2 states");
        }
    }
    // Identical query, identical seed: bitwise-identical over the wire.
    let again = client.query(6, "sensor", statement, 11).unwrap();
    assert_eq!(
        result.cells[0].windows[0]
            .values
            .iter()
            .map(|v| v.to_bits())
            .collect::<Vec<_>>(),
        again.cells[0].windows[0]
            .values
            .iter()
            .map(|v| v.to_bits())
            .collect::<Vec<_>>()
    );

    // Typed misses: unknown table, unparsable statement.
    match client.query(5, "nope", statement, 1) {
        Err(ClientError::Remote { code, .. }) => assert_eq!(code, ErrorCode::TableNotFound),
        other => panic!("expected TableNotFound, got {other:?}"),
    }
    match client.query(5, "sensor", "FROBNICATE EVERYTHING", 1) {
        Err(ClientError::Remote { code, .. }) => assert_eq!(code, ErrorCode::Parse),
        other => panic!("expected Parse, got {other:?}"),
    }
    client.goodbye().unwrap();
    server.shutdown();
}

#[test]
fn progressive_streams_interleave_with_pipelined_traffic_and_charge_per_refinement() {
    // PROGRESSIVE runs as a task on the release workers: with one worker,
    // every stream shares it with the RELEASE traffic around it.
    for workers in [2, 1] {
        progressive_streams_interleave(workers);
    }
}

fn progressive_streams_interleave(workers: usize) {
    let class = IntervalClassBuilder::symmetric(0.4)
        .grid_points(2)
        .build()
        .unwrap();
    let service = service(64, workers, 100.0);
    let server = NetServer::bind_full(
        ("127.0.0.1", 0),
        Arc::clone(&service),
        None,
        Some(ProgressiveEndpoint::new(
            class.clone(),
            StreamBackend::MqmApprox,
        )),
        NetServerConfig::default(),
        Some(TelemetryOptions::new()),
    )
    .unwrap();
    let mut client = NetClient::connect(server.local_addr(), "prog").unwrap();

    let window = 16usize;
    let steps = [(8usize, 0.5f64, 4.0f64), (16, 0.5, 2.0)];
    let stream_db: Vec<usize> = (0..window).map(|t| (t * 5 + 1) % 7 % 2).collect();
    let release_db = database(3);

    // One PROGRESSIVE in the middle of ordinary pipelined RELEASE traffic,
    // all in flight before the first recv: its refinements must stream back
    // seq-correlated and in step order, interleaved however completion
    // order falls with the surrounding RELEASE_OK frames.
    let mut release_seqs = std::collections::HashSet::new();
    for i in 0..4u64 {
        release_seqs.insert(
            client
                .send(Frame::release(i, test_query(), &release_db, 0.1, i).unwrap())
                .unwrap(),
        );
    }
    let prog_seq = client
        .send(Frame::progressive(9, 0.9, 42, &steps, &stream_db).unwrap())
        .unwrap();
    for i in 4..8u64 {
        release_seqs.insert(
            client
                .send(Frame::release(i, test_query(), &release_db, 0.1, i).unwrap())
                .unwrap(),
        );
    }

    let mut refinements: Vec<(u32, u32, f64, Vec<f64>)> = Vec::new();
    let mut releases = 0usize;
    while releases < 8 || refinements.len() < steps.len() {
        let Envelope { seq, frame } = client.recv().unwrap();
        match frame {
            Frame::ReleaseOk { .. } => {
                assert!(release_seqs.remove(&seq), "unknown release seq {seq}");
                releases += 1;
            }
            Frame::RefineOk {
                step,
                total_steps,
                prefix,
                spent_epsilon,
                values,
                ..
            } => {
                assert_eq!(seq, prog_seq, "refinements correlate by request seq");
                assert_eq!(total_steps, steps.len() as u32);
                refinements.push((step, prefix, spent_epsilon, values));
            }
            other => panic!("unexpected frame {other:?}"),
        }
    }
    assert!(release_seqs.is_empty());

    // Step order and prefixes are the schedule's, ε-spend is monotone and
    // settles on the schedule's sum — charged per refinement against the
    // *tenant-scoped* budget the connection proved.
    assert_eq!(
        refinements.iter().map(|r| r.0).collect::<Vec<_>>(),
        vec![1, 2]
    );
    assert_eq!(
        refinements.iter().map(|r| r.1).collect::<Vec<_>>(),
        vec![8, 16]
    );
    assert!(refinements[0].2 < refinements[1].2, "ε-spend is monotone");
    let schedule = RefinementSchedule::new(
        steps
            .iter()
            .map(|&(prefix, epsilon, error_bound)| RefinementStep {
                prefix,
                epsilon,
                error_bound,
            })
            .collect(),
        0.9,
    )
    .unwrap();
    assert_eq!(
        refinements[1].2.to_bits(),
        schedule.total_epsilon().to_bits()
    );
    assert_eq!(
        service.budget().spent("prog#9").to_bits(),
        schedule.total_epsilon().to_bits(),
        "the stream's ε lands on the tenant-scoped user"
    );

    // The final refinement over the wire is bitwise-identical to the
    // in-process one-shot release at the same seed and total ε.
    let one_shot = ProgressiveRelease::one_shot(
        "net-progressive",
        &class,
        &schedule,
        StreamBackend::MqmApprox,
        42,
        &stream_db,
    )
    .unwrap();
    assert_eq!(
        refinements[1]
            .3
            .iter()
            .map(|v| v.to_bits())
            .collect::<Vec<_>>(),
        one_shot
            .release
            .values
            .iter()
            .map(|v| v.to_bits())
            .collect::<Vec<_>>(),
        "a wire refinement diverged from the in-process release"
    );

    // The blocking client helper drives the same stream end to end, under
    // its own user — charged separately.
    let refined = client.progressive(11, 0.9, 43, &steps, &stream_db).unwrap();
    assert_eq!(refined.len(), steps.len());
    assert!(refined[0].certified_error > refined[1].certified_error);
    assert_eq!(
        service.budget().spent("prog#b").to_bits(),
        schedule.total_epsilon().to_bits()
    );

    // The endpoint calibrates each (prefix, ε) step once per server: a
    // third request on the same ladder is served from the cache, and the
    // endpoint's own counters (apart from the release engine's
    // `engine_mqm_approx_*`) say so — 2 calibrations, 4 hits.
    let refined_again = client.progressive(12, 0.9, 44, &steps, &stream_db).unwrap();
    assert_eq!(refined_again.len(), steps.len());
    let metrics = client.metrics().unwrap();
    let counter = |name: &str| match metrics.iter().find(|m| m.name == name) {
        Some(metric) => match metric.value {
            WireMetricValue::Counter(n) => n,
            ref other => panic!("{name} was {other:?}"),
        },
        None => panic!("metric {name} missing"),
    };
    assert_eq!(counter("engine_stream_mqm_approx_cache_misses_total"), 2);
    assert_eq!(counter("engine_stream_mqm_approx_cache_hits_total"), 4);
    assert_eq!(counter("engine_stream_mqm_approx_releases_total"), 6);

    // A schedule whose window disagrees with the shipped database is a
    // typed Malformed refusal, not a stream.
    match client.progressive(7, 0.9, 1, &steps, &stream_db[..10]) {
        Err(ClientError::Remote { code, .. }) => assert_eq!(code, ErrorCode::Malformed),
        other => panic!("expected Malformed, got {other:?}"),
    }
    // So is an empty schedule.
    match client.progressive(7, 0.9, 1, &[], &stream_db) {
        Err(ClientError::Remote { code, .. }) => assert_eq!(code, ErrorCode::Malformed),
        other => panic!("expected Malformed, got {other:?}"),
    }
    client.goodbye().unwrap();
    server.shutdown();
}

#[test]
fn progressive_on_a_full_queue_is_busy_charges_nothing_and_gives_its_slot_back() {
    let class = IntervalClassBuilder::symmetric(0.4)
        .grid_points(2)
        .build()
        .unwrap();
    let service = service(1, 1, 100.0);
    let server = NetServer::bind_full(
        ("127.0.0.1", 0),
        Arc::clone(&service),
        None,
        Some(ProgressiveEndpoint::new(class, StreamBackend::MqmApprox)),
        // One slot: a slot the refused request kept would refuse the next.
        NetServerConfig {
            max_pipeline: 1,
            ..NetServerConfig::default()
        },
        None,
    )
    .unwrap();

    // Fill the only worker, then the one queue slot, with tasks that wait.
    let (entered_tx, entered) = std::sync::mpsc::channel();
    let (left_tx, left) = std::sync::mpsc::channel();
    let (open, gate) = std::sync::mpsc::channel::<()>();
    let gate = Arc::new(Mutex::new(gate));
    let waiting_task = || {
        let (entered_tx, left_tx) = (entered_tx.clone(), left_tx.clone());
        let gate = Arc::clone(&gate);
        move || {
            let _ = entered_tx.send(());
            let _ = gate.lock().unwrap().recv();
            let _ = left_tx.send(());
        }
    };
    service.try_spawn(waiting_task()).unwrap();
    entered.recv().unwrap();
    service.try_spawn(waiting_task()).unwrap();
    assert_eq!(service.pending(), 1);

    let steps = [(8usize, 0.5f64, 4.0f64), (16, 0.5, 2.0)];
    let stream_db: Vec<usize> = (0..16).map(|t| (t * 5 + 1) % 7 % 2).collect();
    let mut client = NetClient::connect(server.local_addr(), "full").unwrap();
    let seq = client
        .send(Frame::progressive(1, 0.9, 42, &steps, &stream_db).unwrap())
        .unwrap();
    let answer = client.recv().unwrap();
    assert_eq!(answer.seq, seq);
    assert!(
        matches!(answer.frame, Frame::Busy { .. }),
        "{:?}",
        answer.frame
    );
    assert_eq!(service.budget().spent("full#1"), 0.0);

    // Let the tasks go; once both are past their gate the queue is empty,
    // and the same connection then streams every step.
    for _ in 0..2 {
        open.send(()).unwrap();
        left.recv().unwrap();
    }
    let refined = client.progressive(1, 0.9, 42, &steps, &stream_db).unwrap();
    assert_eq!(refined.len(), steps.len());
    assert!((service.budget().spent("full#1") - 1.0).abs() < 1e-12);
    client.goodbye().unwrap();
    server.shutdown();
}

#[test]
fn progressive_without_an_endpoint_is_a_typed_refusal() {
    let service = service(16, 1, 10.0);
    let server = NetServer::bind(
        ("127.0.0.1", 0),
        Arc::clone(&service),
        NetServerConfig::default(),
    )
    .unwrap();
    let mut client = NetClient::connect(server.local_addr(), "plain").unwrap();
    let db: Vec<usize> = (0..16).map(|t| t % 2).collect();
    match client.progressive(1, 0.9, 7, &[(8, 0.5, 2.0), (16, 0.5, 1.0)], &db) {
        Err(ClientError::Remote { code, message }) => {
            assert_eq!(code, ErrorCode::Unsupported);
            assert!(message.contains("progressive"), "message was {message:?}");
        }
        other => panic!("expected a typed Unsupported refusal, got {other:?}"),
    }
    client.goodbye().unwrap();
    server.shutdown();
}

#[test]
fn malformed_bytes_get_a_typed_error_and_the_listener_survives() {
    let service = service(64, 2, 10.0);
    let server = NetServer::bind(
        ("127.0.0.1", 0),
        Arc::clone(&service),
        NetServerConfig::default(),
    )
    .unwrap();
    let addr = server.local_addr();

    // Raw garbage on a fresh socket (not even a length prefix that parses).
    let mut raw = TcpStream::connect(addr).unwrap();
    raw.write_all(&[0x10, 0, 0, 0, 0xde, 0xad, 0xbe, 0xef])
        .unwrap();
    raw.write_all(&[0u8; 16]).unwrap();
    raw.flush().unwrap();
    let mut response = Vec::new();
    raw.read_to_end(&mut response).unwrap(); // server answers then closes
    let (envelope, _) = decode(&response, DEFAULT_MAX_FRAME_LEN).unwrap();
    match envelope.frame {
        Frame::Error { code, .. } => assert_eq!(code, ErrorCode::Malformed),
        other => panic!("expected a typed Malformed error, got {other:?}"),
    }

    // A valid frame that is not HELLO as the first frame: typed NotHello.
    let mut eager = TcpStream::connect(addr).unwrap();
    let stats = encode(
        &Envelope {
            seq: 4,
            frame: Frame::Stats,
        },
        DEFAULT_MAX_FRAME_LEN,
    )
    .unwrap();
    eager.write_all(&stats).unwrap();
    eager.flush().unwrap();
    let mut response = Vec::new();
    eager.read_to_end(&mut response).unwrap();
    let (envelope, _) = decode(&response, DEFAULT_MAX_FRAME_LEN).unwrap();
    match envelope.frame {
        Frame::Error { code, .. } => assert_eq!(code, ErrorCode::NotHello),
        other => panic!("expected NotHello, got {other:?}"),
    }

    // A complete frame whose body is short: HELLO, then a valid header of
    // kind RELEASE with no body. It is malformed, not "read more": the
    // server answers it and closes instead of waiting for bytes that can
    // never complete it. The read timeout fails a server that waits within
    // seconds rather than after its idle timeout.
    let mut short = TcpStream::connect(addr).unwrap();
    short
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    let hello = Envelope {
        seq: 0,
        frame: Frame::Hello {
            tenant: "short".to_string(),
        },
    };
    short
        .write_all(&encode(&hello, DEFAULT_MAX_FRAME_LEN).unwrap())
        .unwrap();
    let mut release = stats.clone();
    release[9] = 0x02; // the kind byte: RELEASE, with no body behind it
    short.write_all(&release).unwrap();
    short.flush().unwrap();
    let mut response = Vec::new();
    short
        .read_to_end(&mut response)
        .expect("the server answers a short body and closes");
    let (envelope, consumed) = decode(&response, DEFAULT_MAX_FRAME_LEN).unwrap();
    assert!(matches!(envelope.frame, Frame::HelloOk { .. }));
    let (envelope, _) = decode(&response[consumed..], DEFAULT_MAX_FRAME_LEN).unwrap();
    match envelope.frame {
        Frame::Error { code, .. } => assert_eq!(code, ErrorCode::Malformed),
        other => panic!("expected a typed Malformed error, got {other:?}"),
    }

    // The listener shrugged it all off.
    let mut fine = NetClient::connect(addr, "fine").unwrap();
    fine.release(1, test_query(), &database(6), 0.1, 1).unwrap();
    fine.goodbye().unwrap();
    server.shutdown();
}

/// A connection the server refuses with an ERROR ends in EOF, not a
/// reset, even when the client pipelined 1,000 frames behind the bad one:
/// the server half-closes once the ERROR is out and discards what the
/// client already sent, so closing the socket throws away no answer.
#[test]
fn an_error_and_close_ends_in_eof_with_frames_pipelined_behind_it() {
    let service = service(64, 2, 10.0);
    let server = NetServer::bind(
        ("127.0.0.1", 0),
        Arc::clone(&service),
        NetServerConfig::default(),
    )
    .unwrap();
    let frame = |seq, frame| encode(&Envelope { seq, frame }, DEFAULT_MAX_FRAME_LEN).unwrap();
    let hello = frame(
        0,
        Frame::Hello {
            tenant: "pipelined".to_string(),
        },
    );
    let stats = frame(1, Frame::Stats);
    let mut short_release = stats.clone();
    short_release[9] = 0x02; // the kind byte: RELEASE, with no body behind it
    let response_kind = frame(1, Frame::Busy { retry_hint_ms: 1 });
    let behind: Vec<u8> = (0..1_000).flat_map(|_| stats.iter().copied()).collect();

    // (bytes up to the violation, answers expected before EOF).
    let cases = [
        ([&hello[..], &short_release].concat(), ErrorCode::Malformed),
        (stats.clone(), ErrorCode::NotHello),
        ([&hello[..], &hello].concat(), ErrorCode::Malformed),
        ([&hello[..], &response_kind].concat(), ErrorCode::Malformed),
    ];
    for (case, (bytes, code)) in cases.into_iter().enumerate() {
        let mut stream = TcpStream::connect(server.local_addr()).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        stream.write_all(&[&bytes[..], &behind].concat()).unwrap();
        let mut response = Vec::new();
        stream
            .read_to_end(&mut response)
            .unwrap_or_else(|e| panic!("case {case}: EOF expected, got {e}"));
        let mut frames = Vec::new();
        let mut at = 0;
        while at < response.len() {
            let (envelope, consumed) = decode(&response[at..], DEFAULT_MAX_FRAME_LEN).unwrap();
            frames.push(envelope.frame);
            at += consumed;
        }
        let error = frames.pop().expect("an ERROR frame");
        assert!(
            matches!(error, Frame::Error { code: c, .. } if c == code),
            "case {case}: {error:?}"
        );
        let hello_ok = usize::from(code != ErrorCode::NotHello);
        assert_eq!(frames.len(), hello_ok, "case {case}: {frames:?}");
        assert!(frames.iter().all(|f| matches!(f, Frame::HelloOk { .. })));
    }
    server.shutdown();
}

#[test]
fn connection_cap_refuses_with_a_typed_frame() {
    let service = service(64, 2, 10.0);
    let server = NetServer::bind(
        ("127.0.0.1", 0),
        Arc::clone(&service),
        NetServerConfig {
            max_connections: 2,
            ..NetServerConfig::default()
        },
    )
    .unwrap();
    let addr = server.local_addr();

    let held_a = NetClient::connect(addr, "a").unwrap();
    let held_b = NetClient::connect(addr, "b").unwrap();

    // The third connection is told why before the socket closes. The cap
    // check races the accept loop, so allow a few scheduling retries.
    let mut refused = false;
    for _ in 0..50 {
        if server.active_connections() < 2 {
            std::thread::sleep(std::time::Duration::from_millis(10));
            continue;
        }
        let mut extra = TcpStream::connect(addr).unwrap();
        let mut response = Vec::new();
        extra.read_to_end(&mut response).unwrap();
        if response.is_empty() {
            continue;
        }
        let (envelope, _) = decode(&response, DEFAULT_MAX_FRAME_LEN).unwrap();
        match envelope.frame {
            Frame::Error { code, .. } => {
                assert_eq!(code, ErrorCode::TooManyConnections);
                refused = true;
                break;
            }
            other => panic!("expected TooManyConnections, got {other:?}"),
        }
    }
    assert!(refused, "the connection cap never refused");
    assert!(server.refused_connections() >= 1);

    // Freeing a slot re-admits new connections.
    held_a.goodbye().unwrap();
    for _ in 0..100 {
        if server.active_connections() < 2 {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
    let readmitted = NetClient::connect(addr, "c").unwrap();
    readmitted.goodbye().unwrap();
    held_b.goodbye().unwrap();
    server.shutdown();
}

#[test]
fn telemetry_server_exposes_metrics_traces_and_an_auditable_ledger() {
    let service = service(64, 2, 100.0);
    // Attach the ε-ledger before any traffic so the audit sees every event.
    let ledger = Arc::new(EpsilonLedger::new());
    service.budget().attach_ledger(Arc::clone(&ledger));

    let mut options = TelemetryOptions::new();
    // Threshold 0: every request is "slow", so the recorder captures all.
    options.recorder = Some(Arc::new(FlightRecorder::new(16, 0)));
    let recorder = options.recorder.clone().unwrap();
    let server = NetServer::bind_full(
        ("127.0.0.1", 0),
        Arc::clone(&service),
        None,
        None,
        NetServerConfig::default(),
        Some(options),
    )
    .unwrap();
    let db = database(7);

    let mut client = NetClient::connect(server.local_addr(), "obs").unwrap();
    for seed in 0..3u64 {
        client.release(1, test_query(), &db, 0.2, seed).unwrap();
    }
    // One budget refusal must land in the ledger as a Refusal event.
    assert!(matches!(
        client.release(1, test_query(), &db, 1000.0, 9),
        Err(ClientError::BudgetExhausted { .. })
    ));

    let metrics = client.metrics().unwrap();
    let lines: Vec<String> = metrics.iter().map(|m| m.to_string()).collect();
    let find = |name: &str| {
        metrics
            .iter()
            .find(|m| m.name == name)
            .unwrap_or_else(|| panic!("metric {name} missing from {lines:#?}"))
    };

    // Every layer reported into the one registry: net byte counters, the
    // six-stage span family, service admission counters, engine cache
    // counters.
    match find("net_rx_bytes_total").value {
        WireMetricValue::Counter(n) => assert!(n > 0, "rx bytes must count"),
        ref other => panic!("net_rx_bytes_total was {other:?}"),
    }
    match find("service_admitted_total").value {
        WireMetricValue::Counter(n) => assert_eq!(n, 3),
        ref other => panic!("service_admitted_total was {other:?}"),
    }
    match find("service_refused_total").value {
        WireMetricValue::Counter(n) => assert_eq!(n, 1),
        ref other => panic!("service_refused_total was {other:?}"),
    }
    for stage in [
        "stage_decode_ns",
        "stage_admission_ns",
        "stage_queue_wait_ns",
        "stage_engine_ns",
        "stage_mechanism_ns",
    ] {
        match find(stage).value {
            WireMetricValue::Histogram { count, .. } => {
                assert!(count >= 3, "{stage} saw {count} < 3 samples")
            }
            ref other => panic!("{stage} was {other:?}"),
        }
    }
    match find("engine_mqm_approx_releases_total").value {
        WireMetricValue::Counter(n) => assert_eq!(n, 3),
        ref other => panic!("releases_total was {other:?}"),
    }
    // The exposition lines render in the registry's canonical text format.
    assert!(
        lines
            .iter()
            .any(|l| l.starts_with("stage_engine_ns histogram count=")),
        "missing exposition line in {lines:#?}"
    );

    // tx bytes only settle after the responses were written; the METRICS
    // response itself was answered, so the counter must be non-zero by now.
    let metrics_again = client.metrics().unwrap();
    let tx = metrics_again
        .iter()
        .find(|m| m.name == "net_tx_bytes_total")
        .unwrap();
    match tx.value {
        WireMetricValue::Counter(n) => assert!(n > 0, "tx bytes must count"),
        ref other => panic!("net_tx_bytes_total was {other:?}"),
    }

    // The flight recorder captured the wire-traced releases with a full
    // decode → encode breakdown.
    assert!(recorder.observed() >= 3);
    let reports = recorder.reports();
    assert!(!reports.is_empty());
    assert!(reports.iter().all(|r| r.to_string().contains("decode=")));

    // The ledger replays to bitwise equality with the live accountant:
    // 3 charges + 1 refusal, all tenant-scoped.
    let report = audit_ledger(&ledger.to_bytes(), service.budget()).unwrap();
    assert_eq!(report.events, 4);
    assert_eq!(report.per_user.len(), 1);
    assert!(report.per_user.contains_key("obs#1"));

    client.goodbye().unwrap();
    server.shutdown();
}

#[test]
fn metrics_on_an_uninstrumented_server_is_a_typed_refusal() {
    let service = service(16, 1, 10.0);
    let server = NetServer::bind(
        ("127.0.0.1", 0),
        Arc::clone(&service),
        NetServerConfig::default(),
    )
    .unwrap();
    let mut client = NetClient::connect(server.local_addr(), "plain").unwrap();
    match client.metrics() {
        Err(ClientError::Remote { code, message }) => {
            assert_eq!(code, ErrorCode::Unsupported);
            assert!(message.contains("telemetry"), "message was {message:?}");
        }
        other => panic!("expected a typed Unsupported refusal, got {other:?}"),
    }
    client.goodbye().unwrap();
    server.shutdown();
}

#[test]
fn shutdown_drains_in_flight_releases() {
    let service = service(256, 2, 1000.0);
    let server = NetServer::bind(
        ("127.0.0.1", 0),
        Arc::clone(&service),
        NetServerConfig::default(),
    )
    .unwrap();
    let mut client = NetClient::connect(server.local_addr(), "drain").unwrap();
    let db = database(8);
    // A second connection sends a burst whose calibration is cached, so its
    // reader serves the burst itself.
    const WARM_EPSILON: f64 = 0.2;
    warm_engine(&service, WARM_EPSILON);
    let mut warm = NetClient::connect(server.local_addr(), "drain-warm").unwrap();
    let mut warm_outstanding = std::collections::HashSet::new();
    for i in 0..30u64 {
        let release = Frame::release(i, test_query(), &db, WARM_EPSILON, i).unwrap();
        warm_outstanding.insert(warm.send(release).unwrap());
    }
    warm.flush().unwrap();

    // Pipeline a burst, then shut the server down while they are in flight.
    let mut outstanding = std::collections::HashSet::new();
    for i in 0..30u64 {
        outstanding.insert(
            client
                .send(Frame::release(i, test_query(), &db, 0.1, i).unwrap())
                .unwrap(),
        );
    }
    client.flush().unwrap();
    server.shutdown();

    // Every admitted request still gets a response frame (RELEASE_OK, BUSY,
    // or a typed shutdown error) before the server closes the socket.
    let mut answered = 0usize;
    // recv() errors with a clean EOF once the drain finishes.
    while let Ok(envelope) = client.recv() {
        if !outstanding.remove(&envelope.seq) {
            // Server-initiated shutdown notice (seq 0), not a reply.
            assert!(
                matches!(
                    envelope.frame,
                    Frame::Error {
                        code: ErrorCode::Shutdown,
                        ..
                    }
                ),
                "unknown seq {} with frame {:?}",
                envelope.seq,
                envelope.frame
            );
            continue;
        }
        match envelope.frame {
            Frame::ReleaseOk { .. } | Frame::Busy { .. } | Frame::Error { .. } => {}
            other => panic!("unexpected drain response {other:?}"),
        }
        answered += 1;
    }
    assert!(
        answered > 0,
        "shutdown must drain, not drop, in-flight requests"
    );
    assert!(outstanding.is_empty(), "unanswered: {outstanding:?}");

    // The warm burst was served and written before its reader stopped:
    // each release is answered OK, then come the shutdown notice and EOF.
    while let Ok(envelope) = warm.recv() {
        if warm_outstanding.remove(&envelope.seq) {
            assert!(
                matches!(envelope.frame, Frame::ReleaseOk { .. }),
                "seq {} got {:?}",
                envelope.seq,
                envelope.frame
            );
        } else {
            assert!(
                matches!(
                    envelope.frame,
                    Frame::Error {
                        code: ErrorCode::Shutdown,
                        ..
                    }
                ),
                "unknown seq {} with frame {:?}",
                envelope.seq,
                envelope.frame
            );
        }
    }
    assert!(
        warm_outstanding.is_empty(),
        "unanswered: {warm_outstanding:?}"
    );
}

/// Opens a calibration gate when dropped.
struct OpenOnDrop(Arc<(Mutex<bool>, Condvar)>);

impl Drop for OpenOnDrop {
    fn drop(&mut self) {
        let (open, opened) = &*self.0;
        *open
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner) = true;
        opened.notify_all();
    }
}

#[test]
fn a_stalled_release_cannot_hold_shutdown_past_one_drain_timeout() {
    // Calibration blocks until the test opens the gate, so every release
    // below is still in flight when the server shuts down.
    let gate = Arc::new((Mutex::new(false), Condvar::new()));
    let calibrator = {
        let gate = Arc::clone(&gate);
        let class = IntervalClassBuilder::symmetric(0.4)
            .grid_points(2)
            .build()
            .unwrap();
        let inner = MqmApproxCalibrator::new(class, LENGTH, MqmApproxOptions::default());
        FnCalibrator::class_scoped("gated", 1, move |query, budget| {
            let (open, opened) = &*gate;
            let mut open = open.lock().unwrap();
            while !*open {
                open = opened.wait(open).unwrap();
            }
            drop(open);
            inner.calibrate(query, budget)
        })
    };
    let service = Arc::new(
        ReleaseService::start(
            ReleaseEngine::shared(calibrator),
            ServiceConfig {
                workers: Parallelism::Threads(1),
                queue_capacity: 16,
                per_user_epsilon: 100.0,
            },
        )
        .unwrap(),
    );
    // Dropped before the service, so a failed assertion below opens the
    // gate instead of leaving the service's drop waiting on its worker.
    let open_gate = OpenOnDrop(Arc::clone(&gate));
    let read_timeout = Duration::from_millis(20);
    let drain_timeout = Duration::from_millis(200);
    let server = NetServer::bind(
        ("127.0.0.1", 0),
        Arc::clone(&service),
        NetServerConfig {
            read_timeout,
            drain_timeout,
            ..NetServerConfig::default()
        },
    )
    .unwrap();
    let mut client = NetClient::connect(server.local_addr(), "stall").unwrap();
    let db = database(4);
    for i in 0..8u64 {
        client
            .send(Frame::release(1, test_query(), &db, 0.1, i).unwrap())
            .unwrap();
    }
    client.flush().unwrap();
    // All 8 are admitted once their spend lands on the tenant-scoped user.
    let admitted = Instant::now();
    while service.budget().spent("stall#1") < 0.8 - 1e-9 {
        assert!(
            admitted.elapsed() < Duration::from_secs(10),
            "never admitted"
        );
        std::thread::sleep(Duration::from_millis(1));
    }

    // One deadline for the connection, not one per release: 8 × 200 ms
    // would overshoot this bound.
    let started = Instant::now();
    server.shutdown();
    let took = started.elapsed();
    assert!(
        took < read_timeout + drain_timeout + Duration::from_millis(600),
        "shutdown took {took:?}"
    );
    // The client gets the shutdown notice, then EOF: no reply arrives for
    // the stalled releases, and nothing hangs.
    loop {
        match client.recv() {
            Ok(envelope) => assert!(
                matches!(
                    envelope.frame,
                    Frame::Error {
                        code: ErrorCode::Shutdown,
                        ..
                    }
                ),
                "unexpected frame {:?}",
                envelope.frame
            ),
            Err(ClientError::Io(_)) => break,
            Err(other) => panic!("expected EOF, got {other:?}"),
        }
    }

    // Let the stalled worker finish so no thread outlives the test.
    drop(open_gate);
    Arc::try_unwrap(service)
        .expect("the server released its handle")
        .shutdown();
}

#[test]
fn a_client_that_stops_reading_cannot_hold_shutdown() {
    let service = service(16, 1, 10.0);
    let server = NetServer::bind(
        ("127.0.0.1", 0),
        Arc::clone(&service),
        NetServerConfig {
            read_timeout: Duration::from_millis(20),
            drain_timeout: Duration::from_millis(200),
            ..NetServerConfig::default()
        },
    )
    .unwrap();
    // HELLO and 200,000 STATS in one write, and nothing read: the answers
    // fill both socket buffers, so the reader's write of a pass blocks.
    let mut raw = TcpStream::connect(server.local_addr()).unwrap();
    let stats = encoded(1, Frame::Stats);
    let mut bytes = hello("mute");
    for _ in 0..200_000 {
        bytes.extend_from_slice(&stats);
    }
    // A blocked reader stops reading, so this write may block as well.
    raw.set_write_timeout(Some(Duration::from_millis(500)))
        .unwrap();
    let _ = raw.write_all(&bytes);

    let (stopped_tx, stopped) = std::sync::mpsc::channel();
    let stopper = std::thread::spawn(move || {
        server.shutdown();
        let _ = stopped_tx.send(());
    });
    let stopped = stopped.recv_timeout(Duration::from_secs(5));
    // Closing the socket fails a write the server is still blocked in, so
    // a server without a write deadline ends here instead of hanging.
    drop(raw);
    stopper.join().unwrap();
    assert!(
        stopped.is_ok(),
        "shutdown was still blocked 5 s after it was called"
    );
}

#[test]
fn a_tenant_longer_than_255_bytes_is_refused_and_charges_nothing() {
    let service = service(16, 1, 10.0);
    let server = NetServer::bind(
        ("127.0.0.1", 0),
        Arc::clone(&service),
        NetServerConfig::default(),
    )
    .unwrap();
    let release = encoded(
        1,
        Frame::release(1, test_query(), &database(6), 0.5, 1).unwrap(),
    );

    // At the limit: HELLO_OK, and the release is charged to `tenant#1`.
    let tenant = "t".repeat(255);
    let bytes = [hello(&tenant), release.clone(), encoded(2, Frame::Goodbye)].concat();
    let frames: Vec<_> = frames_until_eof(server.local_addr(), &bytes)
        .into_iter()
        .map(|e| (e.seq, e.frame))
        .collect();
    assert_eq!(frames.len(), 2, "{frames:?}");
    assert!(
        matches!(frames[0], (0, Frame::HelloOk { .. })),
        "{frames:?}"
    );
    assert!(
        matches!(frames[1], (1, Frame::ReleaseOk { .. })),
        "{frames:?}"
    );
    assert_eq!(service.budget().spent(&format!("{tenant}#1")), 0.5);

    // One byte more: a typed ERROR, then EOF. The release behind it is
    // never dispatched, so nobody is charged.
    let bytes = [hello(&"t".repeat(256)), release].concat();
    let frames: Vec<_> = frames_until_eof(server.local_addr(), &bytes)
        .into_iter()
        .map(|e| (e.seq, e.frame))
        .collect();
    assert_eq!(frames.len(), 1, "{frames:?}");
    assert!(
        matches!(
            frames[0],
            (
                0,
                Frame::Error {
                    code: ErrorCode::Malformed,
                    ..
                }
            )
        ),
        "{frames:?}"
    );
    assert_eq!(service.budget().users(), 1);
    assert_eq!(service.budget().total_spent(), 0.5);
    server.shutdown();
}
