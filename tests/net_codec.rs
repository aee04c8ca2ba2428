//! Wire-codec properties and adversarial decoding.
//!
//! Two contracts, driven through the proptest shim:
//!
//! 1. **Round-trip**: every frame kind, with arbitrary field values,
//!    survives `encode → decode` exactly, and frames concatenated on one
//!    buffer decode back in order (the streaming case).
//! 2. **Adversarial**: no byte sequence makes the decoder panic or allocate
//!    unboundedly. Truncations report [`FrameError::Truncated`], oversized
//!    length prefixes report [`FrameError::Oversized`] before any
//!    allocation, corrupted headers report the matching typed error, and
//!    bodies declaring collections far larger than the payload report
//!    [`FrameError::Malformed`].

use proptest::prelude::*;
use pufferfish_net::{
    decode, encode, Envelope, ErrorCode, Frame, FrameError, WireCell, WireMetric, WireMetricValue,
    WireQuery, WireQueryResult, WireRefinementStep, WireStats, WireWindow, DEFAULT_MAX_FRAME_LEN,
    MAGIC, VERSION,
};
use rand::Rng;

type TestRng = proptest::TestRng;

fn arbitrary_string(rng: &mut TestRng) -> String {
    let len = rng.gen_range(0..24usize);
    (0..len)
        .map(|_| {
            // Mostly ASCII with some multi-byte code points mixed in.
            match rng.gen_range(0..6u32) {
                0 => 'ε',
                1 => '→',
                _ => char::from(rng.gen_range(b' '..b'~')),
            }
        })
        .collect()
}

fn arbitrary_f64(rng: &mut TestRng) -> f64 {
    // Finite but wide-ranged (round-trip equality; NaN bit-preservation is
    // pinned by a deterministic unit test in the crate).
    let mantissa: f64 = rng.gen_range(-1.0..1.0);
    let exponent: i32 = rng.gen_range(-300..300);
    mantissa * 10f64.powi(exponent)
}

fn arbitrary_values(rng: &mut TestRng, max_len: usize) -> Vec<f64> {
    let len = rng.gen_range(0..max_len);
    (0..len).map(|_| arbitrary_f64(rng)).collect()
}

fn arbitrary_query(rng: &mut TestRng) -> WireQuery {
    match rng.gen_range(0..5u32) {
        0 => WireQuery::StateFrequency {
            state: rng.gen_range(0..1000u32),
            length: rng.gen_range(0..1000u32),
        },
        1 => WireQuery::StateCount {
            state: rng.gen_range(0..1000u32),
            length: rng.gen_range(0..1000u32),
        },
        2 => WireQuery::Histogram {
            num_states: rng.gen_range(0..1000u32),
            length: rng.gen_range(0..1000u32),
        },
        3 => WireQuery::RangeCount {
            lo: rng.gen_range(0..1000u32),
            hi: rng.gen_range(0..1000u32),
            num_states: rng.gen_range(0..1000u32),
            length: rng.gen_range(0..1000u32),
        },
        _ => WireQuery::MeanState {
            num_states: rng.gen_range(0..1000u32),
            length: rng.gen_range(0..1000u32),
        },
    }
}

const ERROR_CODES: [ErrorCode; 9] = [
    ErrorCode::Malformed,
    ErrorCode::NotHello,
    ErrorCode::Mechanism,
    ErrorCode::TableNotFound,
    ErrorCode::Parse,
    ErrorCode::Shutdown,
    ErrorCode::TooManyConnections,
    ErrorCode::Unsupported,
    ErrorCode::Internal,
];

fn arbitrary_metric(rng: &mut TestRng) -> WireMetric {
    let value = match rng.gen_range(0..3u32) {
        0 => WireMetricValue::Counter(rng.gen()),
        1 => WireMetricValue::Gauge(rng.gen()),
        _ => WireMetricValue::Histogram {
            count: rng.gen(),
            max: rng.gen(),
            mean: arbitrary_f64(rng),
            p50: rng.gen(),
            p99: rng.gen(),
            p999: rng.gen(),
        },
    };
    WireMetric {
        name: arbitrary_string(rng),
        value,
    }
}

/// Draws one frame of any of the sixteen kinds with arbitrary field values.
fn arbitrary_frame(rng: &mut TestRng) -> Frame {
    match rng.gen_range(0..16u32) {
        0 => Frame::Hello {
            tenant: arbitrary_string(rng),
        },
        1 => {
            let db_len = rng.gen_range(0..200usize);
            Frame::Release {
                user: rng.gen(),
                query: arbitrary_query(rng),
                epsilon: arbitrary_f64(rng),
                seed: rng.gen(),
                database: (0..db_len).map(|_| rng.gen_range(0..1000u16)).collect(),
            }
        }
        2 => Frame::Query {
            user: rng.gen(),
            table: arbitrary_string(rng),
            statement: arbitrary_string(rng),
            seed: rng.gen(),
        },
        3 => Frame::Stats,
        4 => Frame::Goodbye,
        5 => Frame::HelloOk {
            max_pipeline: rng.gen(),
            max_frame_len: rng.gen(),
        },
        6 => Frame::ReleaseOk {
            scale: arbitrary_f64(rng),
            values: arbitrary_values(rng, 64),
        },
        7 => Frame::QueryOk(WireQueryResult {
            mechanism: arbitrary_string(rng),
            noise_scale: arbitrary_f64(rng),
            total_epsilon: arbitrary_f64(rng),
            cells: (0..rng.gen_range(0..4usize))
                .map(|_| WireCell {
                    key: arbitrary_string(rng),
                    windows: (0..rng.gen_range(0..4usize))
                        .map(|_| WireWindow {
                            end: rng.gen(),
                            values: arbitrary_values(rng, 16),
                        })
                        .collect(),
                })
                .collect(),
        }),
        8 => Frame::StatsOk(WireStats {
            hits: rng.gen(),
            misses: rng.gen(),
            coalesced: rng.gen(),
            cached_calibrations: rng.gen(),
            queue_depth: rng.gen(),
            queue_capacity: rng.gen(),
            queue_refusals: rng.gen(),
            queue_high_water: rng.gen(),
            served: rng.gen(),
            users: rng.gen(),
            spent_epsilon: arbitrary_f64(rng),
            monitor_noise_tests: rng.gen(),
            monitor_noise_failures: rng.gen(),
            drift_windows: rng.gen(),
            drift_score: arbitrary_f64(rng),
            drifted: rng.gen_range(0..2u8) == 1,
            recalibrations: rng.gen(),
        }),
        9 => Frame::Busy {
            retry_hint_ms: rng.gen(),
        },
        10 => Frame::BudgetExhausted {
            requested: arbitrary_f64(rng),
            remaining: arbitrary_f64(rng),
        },
        11 => Frame::Metrics,
        12 => Frame::MetricsOk(
            (0..rng.gen_range(0..8usize))
                .map(|_| arbitrary_metric(rng))
                .collect(),
        ),
        13 => Frame::Progressive {
            user: rng.gen(),
            confidence: rng.gen_range(0.5..0.999),
            seed: rng.gen(),
            steps: (0..rng.gen_range(0..6usize))
                .map(|_| WireRefinementStep {
                    prefix: rng.gen_range(0..10_000u32),
                    epsilon: arbitrary_f64(rng),
                    error_bound: arbitrary_f64(rng),
                })
                .collect(),
            database: (0..rng.gen_range(0..100usize))
                .map(|_| rng.gen_range(0..1000u16))
                .collect(),
        },
        14 => Frame::RefineOk {
            step: rng.gen(),
            total_steps: rng.gen(),
            prefix: rng.gen(),
            scale: arbitrary_f64(rng),
            epsilon: arbitrary_f64(rng),
            certified_error: arbitrary_f64(rng),
            spent_epsilon: arbitrary_f64(rng),
            values: arbitrary_values(rng, 32),
        },
        _ => Frame::Error {
            code: ERROR_CODES[rng.gen_range(0..ERROR_CODES.len())],
            message: arbitrary_string(rng),
        },
    }
}

fn frame_strategy() -> proptest::FnStrategy<Frame, fn(&mut TestRng) -> Frame> {
    proptest::FnStrategy::new(arbitrary_frame)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// encode → decode is the identity on every frame kind, consuming
    /// exactly the encoded length.
    #[test]
    fn round_trip_is_identity(frame in frame_strategy(), seq in 0u64..u64::MAX) {
        let envelope = Envelope { seq, frame };
        let bytes = encode(&envelope, DEFAULT_MAX_FRAME_LEN).expect("arbitrary frames encode");
        let (decoded, consumed) = decode(&bytes, DEFAULT_MAX_FRAME_LEN).expect("decode");
        prop_assert_eq!(consumed, bytes.len());
        prop_assert_eq!(decoded, envelope);
    }

    /// Two frames concatenated on one buffer decode back in order — the
    /// streaming accumulation the server's read loop relies on.
    #[test]
    fn concatenated_frames_stream_decode(
        first in frame_strategy(),
        second in frame_strategy(),
    ) {
        let a = Envelope { seq: 1, frame: first };
        let b = Envelope { seq: 2, frame: second };
        let mut buffer = encode(&a, DEFAULT_MAX_FRAME_LEN).unwrap();
        buffer.extend_from_slice(&encode(&b, DEFAULT_MAX_FRAME_LEN).unwrap());
        let (first_out, consumed) = decode(&buffer, DEFAULT_MAX_FRAME_LEN).unwrap();
        prop_assert_eq!(&first_out, &a);
        let (second_out, rest) = decode(&buffer[consumed..], DEFAULT_MAX_FRAME_LEN).unwrap();
        prop_assert_eq!(&second_out, &b);
        prop_assert_eq!(consumed + rest, buffer.len());
    }

    /// Every strict prefix of a valid encoding reports `Truncated` — the
    /// "read more bytes" signal — and never panics or misparses.
    #[test]
    fn every_truncation_reports_truncated(frame in frame_strategy(), cut in 0.0f64..1.0) {
        let envelope = Envelope { seq: 9, frame };
        let bytes = encode(&envelope, DEFAULT_MAX_FRAME_LEN).unwrap();
        let len = (cut * bytes.len() as f64) as usize; // strictly < bytes.len()
        match decode(&bytes[..len], DEFAULT_MAX_FRAME_LEN) {
            Err(FrameError::Truncated { needed, available }) => {
                prop_assert_eq!(available, len);
                prop_assert!(needed > available);
            }
            other => return Err(format!("prefix of {len} bytes decoded as {other:?}")),
        }
    }

    /// Corrupting any single byte never panics; corrupting the magic or
    /// version bytes yields exactly the matching typed error.
    #[test]
    fn corrupted_bytes_never_panic(
        frame in frame_strategy(),
        position in 0.0f64..1.0,
        xor in 1u8..255,
    ) {
        let envelope = Envelope { seq: 3, frame };
        let mut bytes = encode(&envelope, DEFAULT_MAX_FRAME_LEN).unwrap();
        let index = (position * bytes.len() as f64) as usize % bytes.len();
        bytes[index] ^= xor;
        // Must return *something* typed — any Ok/Err is fine, panics are not.
        let outcome = decode(&bytes, DEFAULT_MAX_FRAME_LEN);
        if (4..8).contains(&index) {
            prop_assert!(
                matches!(outcome, Err(FrameError::BadMagic { .. })),
                "magic corruption gave {outcome:?}"
            );
        }
        if index == 8 {
            prop_assert!(
                matches!(outcome, Err(FrameError::UnsupportedVersion { .. })),
                "version corruption gave {outcome:?}"
            );
        }
    }

    /// Arbitrary garbage never panics the decoder.
    #[test]
    fn garbage_never_panics(bytes in collection::vec(0u8..255, 0..256usize)) {
        let _ = decode(&bytes, DEFAULT_MAX_FRAME_LEN);
        let _ = pufferfish_net::decode_payload(&bytes);
        prop_assert!(true);
    }
}

// ---------------------------------------------------------------------------
// Deterministic adversarial cases.
// ---------------------------------------------------------------------------

fn header(kind: u8, body_len: usize) -> Vec<u8> {
    let mut bytes = Vec::new();
    bytes.extend_from_slice(&u32::try_from(14 + body_len).unwrap().to_le_bytes());
    bytes.extend_from_slice(&MAGIC.to_le_bytes());
    bytes.push(VERSION);
    bytes.push(kind);
    bytes.extend_from_slice(&7u64.to_le_bytes());
    bytes
}

#[test]
fn oversized_length_prefix_is_refused_before_allocation() {
    // Declares 4 GiB; the decoder must refuse from the 4-byte prefix alone.
    let mut bytes = Vec::new();
    bytes.extend_from_slice(&u32::MAX.to_le_bytes());
    bytes.extend_from_slice(&[0u8; 32]);
    assert_eq!(
        decode(&bytes, DEFAULT_MAX_FRAME_LEN),
        Err(FrameError::Oversized {
            declared: u32::MAX,
            max: DEFAULT_MAX_FRAME_LEN,
        })
    );
}

#[test]
fn giant_declared_collection_in_tiny_payload_is_malformed() {
    // A RELEASE whose database claims u32::MAX events inside an 8-byte tail:
    // the count guard must reject it before allocating a 4-billion-element
    // vector.
    let mut body = Vec::new();
    body.extend_from_slice(&1u64.to_le_bytes()); // user
    body.push(0); // StateFrequency
    body.extend_from_slice(&1u32.to_le_bytes());
    body.extend_from_slice(&60u32.to_le_bytes());
    body.extend_from_slice(&0.5f64.to_le_bytes()); // epsilon
    body.extend_from_slice(&9u64.to_le_bytes()); // seed
    body.extend_from_slice(&u32::MAX.to_le_bytes()); // database count
    body.extend_from_slice(&[0u8; 8]); // ...but only 8 bytes of data
    let mut bytes = header(0x02, body.len());
    bytes.extend_from_slice(&body);
    assert!(matches!(
        decode(&bytes, DEFAULT_MAX_FRAME_LEN),
        Err(FrameError::Malformed(_))
    ));

    // Same attack through a string length (HELLO tenant).
    let mut body = Vec::new();
    body.extend_from_slice(&u32::MAX.to_le_bytes());
    body.extend_from_slice(b"ok");
    let mut bytes = header(0x01, body.len());
    bytes.extend_from_slice(&body);
    assert!(matches!(
        decode(&bytes, DEFAULT_MAX_FRAME_LEN),
        Err(FrameError::Malformed(_))
    ));
}

#[test]
fn unknown_kind_and_trailing_bytes_are_typed_errors() {
    let bytes = header(0x42, 0);
    assert_eq!(
        decode(&bytes, DEFAULT_MAX_FRAME_LEN),
        Err(FrameError::UnknownKind { found: 0x42 })
    );

    // A STATS frame with trailing garbage inside its declared length.
    let mut bytes = header(0x04, 3);
    bytes.extend_from_slice(&[1, 2, 3]);
    assert!(matches!(
        decode(&bytes, DEFAULT_MAX_FRAME_LEN),
        Err(FrameError::Malformed(_))
    ));
}

#[test]
fn metrics_ok_adversarial_bodies_are_typed_errors() {
    // A METRICS_OK declaring u32::MAX metrics inside an 8-byte tail: the
    // 13-byte-per-metric floor must refuse the count before any allocation.
    let mut body = Vec::new();
    body.extend_from_slice(&u32::MAX.to_le_bytes());
    body.extend_from_slice(&[0u8; 8]);
    let mut bytes = header(0x88, body.len());
    bytes.extend_from_slice(&body);
    assert!(matches!(
        decode(&bytes, DEFAULT_MAX_FRAME_LEN),
        Err(FrameError::Malformed(_))
    ));

    // One metric with an unknown value-kind tag.
    let mut body = Vec::new();
    body.extend_from_slice(&1u32.to_le_bytes()); // one metric
    body.extend_from_slice(&2u32.to_le_bytes()); // name length
    body.extend_from_slice(b"ok");
    body.push(9); // unknown kind tag
    body.extend_from_slice(&0u64.to_le_bytes());
    let mut bytes = header(0x88, body.len());
    bytes.extend_from_slice(&body);
    match decode(&bytes, DEFAULT_MAX_FRAME_LEN) {
        Err(FrameError::Malformed(msg)) => assert!(msg.contains("unknown metric kind")),
        other => panic!("expected a typed unknown-kind error, got {other:?}"),
    }

    // A metric name claiming u32::MAX bytes: refused by the string guard.
    let mut body = Vec::new();
    body.extend_from_slice(&1u32.to_le_bytes());
    body.extend_from_slice(&u32::MAX.to_le_bytes()); // giant name length
    body.extend_from_slice(&[0u8; 16]);
    let mut bytes = header(0x88, body.len());
    bytes.extend_from_slice(&body);
    assert!(matches!(
        decode(&bytes, DEFAULT_MAX_FRAME_LEN),
        Err(FrameError::Malformed(_))
    ));

    // Truncated mid-histogram: the "read more" signal, not a misparse.
    let histogram = Frame::MetricsOk(vec![WireMetric {
        name: "stage_engine_ns".to_string(),
        value: WireMetricValue::Histogram {
            count: 10,
            max: 900,
            mean: 450.5,
            p50: 400,
            p99: 880,
            p999: 900,
        },
    }]);
    let bytes = encode(
        &Envelope {
            seq: 5,
            frame: histogram,
        },
        DEFAULT_MAX_FRAME_LEN,
    )
    .unwrap();
    assert!(matches!(
        decode(&bytes[..bytes.len() - 6], DEFAULT_MAX_FRAME_LEN),
        Err(FrameError::Truncated { .. })
    ));
}

#[test]
fn progressive_adversarial_bodies_are_typed_errors() {
    // A PROGRESSIVE declaring u32::MAX refinement steps inside an 8-byte
    // tail: the 20-byte-per-step floor must refuse the count before any
    // allocation.
    let mut body = Vec::new();
    body.extend_from_slice(&1u64.to_le_bytes()); // user
    body.extend_from_slice(&0.9f64.to_le_bytes()); // confidence
    body.extend_from_slice(&7u64.to_le_bytes()); // seed
    body.extend_from_slice(&u32::MAX.to_le_bytes()); // step count
    body.extend_from_slice(&[0u8; 8]); // ...but only 8 bytes of data
    let mut bytes = header(0x07, body.len());
    bytes.extend_from_slice(&body);
    assert!(matches!(
        decode(&bytes, DEFAULT_MAX_FRAME_LEN),
        Err(FrameError::Malformed(_))
    ));

    // Trailing garbage inside a valid PROGRESSIVE's declared length.
    let frame = Frame::progressive(1, 0.9, 7, &[(8, 0.5, 2.0)], &[0, 1, 0, 1, 0, 1, 0, 1]).unwrap();
    let mut bytes = encode(&Envelope { seq: 2, frame }, DEFAULT_MAX_FRAME_LEN).unwrap();
    // The declared length excludes the 4-byte prefix itself.
    let padded = u32::try_from(bytes.len() - 4 + 2).unwrap();
    bytes[..4].copy_from_slice(&padded.to_le_bytes());
    bytes.extend_from_slice(&[0xAA, 0xBB]);
    assert!(matches!(
        decode(&bytes, DEFAULT_MAX_FRAME_LEN),
        Err(FrameError::Malformed(_))
    ));
}

#[test]
fn refine_ok_adversarial_bodies_are_typed_errors() {
    // A REFINE_OK declaring u32::MAX refined values inside an 8-byte tail.
    let mut body = Vec::new();
    body.extend_from_slice(&1u32.to_le_bytes()); // step
    body.extend_from_slice(&2u32.to_le_bytes()); // total_steps
    body.extend_from_slice(&8u32.to_le_bytes()); // prefix
    body.extend_from_slice(&1.0f64.to_le_bytes()); // scale
    body.extend_from_slice(&0.5f64.to_le_bytes()); // epsilon
    body.extend_from_slice(&3.0f64.to_le_bytes()); // certified_error
    body.extend_from_slice(&0.5f64.to_le_bytes()); // spent_epsilon
    body.extend_from_slice(&u32::MAX.to_le_bytes()); // value count
    body.extend_from_slice(&[0u8; 8]);
    let mut bytes = header(0x89, body.len());
    bytes.extend_from_slice(&body);
    assert!(matches!(
        decode(&bytes, DEFAULT_MAX_FRAME_LEN),
        Err(FrameError::Malformed(_))
    ));

    // Truncated mid-values: the "read more" signal, not a misparse.
    let frame = Frame::RefineOk {
        step: 1,
        total_steps: 3,
        prefix: 16,
        scale: 2.0,
        epsilon: 0.5,
        certified_error: 6.0,
        spent_epsilon: 0.5,
        values: vec![0.25, 0.75],
    };
    let bytes = encode(&Envelope { seq: 5, frame }, DEFAULT_MAX_FRAME_LEN).unwrap();
    assert!(matches!(
        decode(&bytes[..bytes.len() - 6], DEFAULT_MAX_FRAME_LEN),
        Err(FrameError::Truncated { .. })
    ));
}

#[test]
fn declared_length_shorter_than_header_is_malformed() {
    let mut bytes = Vec::new();
    bytes.extend_from_slice(&3u32.to_le_bytes());
    bytes.extend_from_slice(&[0u8; 16]);
    assert!(matches!(
        decode(&bytes, DEFAULT_MAX_FRAME_LEN),
        Err(FrameError::Malformed(_))
    ));
}

#[test]
fn bad_utf8_and_bad_error_codes_are_malformed() {
    // HELLO with invalid UTF-8 in the tenant string.
    let mut body = Vec::new();
    body.extend_from_slice(&2u32.to_le_bytes());
    body.extend_from_slice(&[0xFF, 0xFE]);
    let mut bytes = header(0x01, body.len());
    bytes.extend_from_slice(&body);
    assert!(matches!(
        decode(&bytes, DEFAULT_MAX_FRAME_LEN),
        Err(FrameError::Malformed(_))
    ));

    // ERROR frame with an unknown error code.
    let mut body = Vec::new();
    body.extend_from_slice(&999u16.to_le_bytes());
    body.extend_from_slice(&0u32.to_le_bytes());
    let mut bytes = header(0x87, body.len());
    bytes.extend_from_slice(&body);
    assert!(matches!(
        decode(&bytes, DEFAULT_MAX_FRAME_LEN),
        Err(FrameError::Malformed(_))
    ));
}

// ---------------------------------------------------------------------------
// Pinned bytes.
// ---------------------------------------------------------------------------

/// Byte-wise 64-bit FNV-1a, written out here so the pins below do not lean
/// on the code under test.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, &byte| {
        (hash ^ u64::from(byte)).wrapping_mul(0x100_0000_01b3)
    })
}

/// One envelope of every frame kind with fixed field values: a RELEASE per
/// query tag, every metric kind, and non-ASCII text.
fn golden_envelopes() -> Vec<(&'static str, Envelope)> {
    let release = |seq: u64, query: WireQuery| Envelope {
        seq,
        frame: Frame::Release {
            user: 0x2a,
            query,
            epsilon: 0.25,
            seed: 777,
            database: vec![0, 1, 1, 0, 2, 65_535],
        },
    };
    let frames = vec![
        (
            "hello",
            Frame::Hello {
                tenant: "zoë-α".to_string(),
            },
        ),
        (
            "query",
            Frame::Query {
                user: 3,
                table: "sensor".to_string(),
                statement: "HISTOGRAM WINDOW 30 EPSILON 0.2".to_string(),
                seed: 5,
            },
        ),
        (
            "progressive",
            Frame::Progressive {
                user: 9,
                confidence: 0.95,
                seed: 77,
                steps: vec![
                    WireRefinementStep {
                        prefix: 8,
                        epsilon: 0.25,
                        error_bound: 4.0,
                    },
                    WireRefinementStep {
                        prefix: 16,
                        epsilon: 0.1,
                        error_bound: 2.5,
                    },
                ],
                database: vec![0, 1, 1, 0, 1, 0, 0, 1],
            },
        ),
        ("stats", Frame::Stats),
        ("goodbye", Frame::Goodbye),
        ("metrics", Frame::Metrics),
        (
            "hello_ok",
            Frame::HelloOk {
                max_pipeline: 128,
                max_frame_len: DEFAULT_MAX_FRAME_LEN,
            },
        ),
        (
            "release_ok",
            Frame::ReleaseOk {
                scale: 1.25,
                values: vec![0.5, -0.25, 3.75],
            },
        ),
        (
            "query_ok",
            Frame::QueryOk(WireQueryResult {
                mechanism: "mqm-approx".to_string(),
                noise_scale: 0.75,
                total_epsilon: 0.6,
                cells: vec![
                    WireCell {
                        key: "cell-a".to_string(),
                        windows: vec![
                            WireWindow {
                                end: 30,
                                values: vec![1.0, 2.0],
                            },
                            WireWindow {
                                end: 60,
                                values: vec![],
                            },
                        ],
                    },
                    WireCell {
                        key: String::new(),
                        windows: vec![],
                    },
                ],
            }),
        ),
        (
            "refine_ok",
            Frame::RefineOk {
                step: 1,
                total_steps: 2,
                prefix: 8,
                scale: 2.5,
                epsilon: 0.25,
                certified_error: 3.75,
                spent_epsilon: 0.25,
                values: vec![4.0, 4.5],
            },
        ),
        (
            "stats_ok",
            Frame::StatsOk(WireStats {
                hits: 1,
                misses: 2,
                coalesced: 3,
                cached_calibrations: 4,
                queue_depth: 5,
                queue_capacity: 6,
                queue_refusals: 7,
                queue_high_water: 8,
                served: 9,
                users: 10,
                spent_epsilon: 1.5,
                monitor_noise_tests: 11,
                monitor_noise_failures: 12,
                drift_windows: 13,
                drift_score: 0.75,
                drifted: true,
                recalibrations: 14,
            }),
        ),
        (
            "metrics_ok",
            Frame::MetricsOk(vec![
                WireMetric {
                    name: "service_admitted_total".to_string(),
                    value: WireMetricValue::Counter(17),
                },
                WireMetric {
                    name: "queue_depth".to_string(),
                    value: WireMetricValue::Gauge(3),
                },
                WireMetric {
                    name: "stage_engine_ns".to_string(),
                    value: WireMetricValue::Histogram {
                        count: 1000,
                        max: 90_000,
                        mean: 1234.5,
                        p50: 1100,
                        p99: 44_000,
                        p999: 88_000,
                    },
                },
            ]),
        ),
        ("busy", Frame::Busy { retry_hint_ms: 2 }),
        (
            "budget_exhausted",
            Frame::BudgetExhausted {
                requested: 0.5,
                remaining: 0.25,
            },
        ),
        (
            "error",
            Frame::Error {
                code: ErrorCode::TableNotFound,
                message: "no table 'sensor'".to_string(),
            },
        ),
    ];
    let mut golden = vec![
        (
            "release_state_frequency",
            release(
                100,
                WireQuery::StateFrequency {
                    state: 1,
                    length: 6,
                },
            ),
        ),
        (
            "release_state_count",
            release(
                101,
                WireQuery::StateCount {
                    state: 2,
                    length: 6,
                },
            ),
        ),
        (
            "release_histogram",
            release(
                102,
                WireQuery::Histogram {
                    num_states: 3,
                    length: 6,
                },
            ),
        ),
        (
            "release_range_count",
            release(
                103,
                WireQuery::RangeCount {
                    lo: 1,
                    hi: 2,
                    num_states: 3,
                    length: 6,
                },
            ),
        ),
        (
            "release_mean_state",
            release(
                104,
                WireQuery::MeanState {
                    num_states: 3,
                    length: 6,
                },
            ),
        ),
    ];
    golden.extend(
        frames
            .into_iter()
            .zip(1u64..)
            .map(|((name, frame), seq)| (name, Envelope { seq, frame })),
    );
    golden
}

/// The wire bytes of the golden set, pinned: each encoding's length and
/// FNV-1a. A change to the encoder that moves any of them is a protocol
/// change and needs a new `VERSION`; the decoder must still read them back.
#[test]
fn golden_frames_encode_to_pinned_bytes() {
    const PINNED: [(&str, usize, u64); 20] = [
        ("release_state_frequency", 67, 0xb661_d05c_7809_6c1c),
        ("release_state_count", 67, 0x5d2d_699c_cc2f_de93),
        ("release_histogram", 67, 0xb1df_1e5a_c5a3_9f82),
        ("release_range_count", 75, 0xc22f_92ea_b94c_8b1d),
        ("release_mean_state", 67, 0xacbe_8610_a4af_6a7a),
        ("hello", 29, 0x158a_8897_1c0b_65a0),
        ("query", 79, 0x7142_66d1_19ad_0767),
        ("progressive", 106, 0xa605_a0b6_21f1_b682),
        ("stats", 18, 0xedc9_8906_2e24_8019),
        ("goodbye", 18, 0x7130_32f9_fbf3_252f),
        ("metrics", 18, 0x88ff_5038_ef0f_ffb1),
        ("hello_ok", 26, 0x044c_dfc5_c64e_8df1),
        ("release_ok", 54, 0x7af1_0324_9851_1b67),
        ("query_ok", 106, 0xb4e5_1887_0c69_4ab7),
        ("refine_ok", 82, 0x098b_99b7_6e56_48c9),
        ("stats_ok", 148, 0x4d38_5745_2aa5_39b6),
        ("metrics_ok", 149, 0x5e03_02eb_bcda_8f6e),
        ("busy", 22, 0x1f9b_d130_b497_9af9),
        ("budget_exhausted", 34, 0x003d_2853_8a11_42f9),
        ("error", 41, 0xad68_46d2_cc59_831e),
    ];
    let actual: Vec<(&str, usize, u64)> = golden_envelopes()
        .into_iter()
        .map(|(name, envelope)| {
            let bytes = encode(&envelope, DEFAULT_MAX_FRAME_LEN).unwrap();
            assert_eq!(
                decode(&bytes, DEFAULT_MAX_FRAME_LEN).unwrap(),
                (envelope, bytes.len()),
                "{name} must decode back"
            );
            (name, bytes.len(), fnv1a(&bytes))
        })
        .collect();
    assert_eq!(actual, PINNED);
}

/// Frames the payload `bytes[4..end]` with a length prefix that declares
/// exactly that much.
fn reframe(bytes: &[u8], end: usize) -> Vec<u8> {
    let mut framed = u32::try_from(end - 4).unwrap().to_le_bytes().to_vec();
    framed.extend_from_slice(&bytes[4..end]);
    framed
}

/// A frame whose length prefix has all arrived is complete: a body that
/// stops short of its fields is `Malformed`, never the streaming
/// `Truncated` ("read more") that would leave a reader waiting for bytes
/// that can never complete it. Checked for every request and answer kind
/// with a body, with a prefix covering only the header and with the frame
/// cut inside its first and its last field.
#[test]
fn complete_frames_with_short_bodies_are_malformed() {
    let mut kinds = 0;
    for (name, envelope) in golden_envelopes() {
        let bytes = encode(&envelope, DEFAULT_MAX_FRAME_LEN).unwrap();
        let header_end = 4 + 14;
        if bytes.len() == header_end {
            continue; // STATS, GOODBYE and METRICS have no body
        }
        kinds += 1;
        for end in [header_end, header_end + 1, bytes.len() - 1] {
            match decode(&reframe(&bytes, end), DEFAULT_MAX_FRAME_LEN) {
                Err(FrameError::Malformed(_)) => {}
                other => panic!("{name} cut to {end} bytes decoded as {other:?}"),
            }
        }
    }
    // Every kind but STATS, GOODBYE and METRICS, and RELEASE once per
    // query tag.
    assert_eq!(kinds, 17);
}

/// One decode outcome in words: the error variant with its fields, a
/// `Malformed` text dropped (texts may be reworded), or `ok` with the bytes
/// consumed and the FNV-1a of the decoded envelope encoded again.
fn outcome(result: Result<(Envelope, usize), FrameError>) -> String {
    match result {
        Ok((envelope, consumed)) => {
            let bytes = encode(&envelope, DEFAULT_MAX_FRAME_LEN).unwrap();
            format!("ok {consumed} {:016x}", fnv1a(&bytes))
        }
        Err(FrameError::Malformed(_)) => "Malformed".to_string(),
        Err(error) => format!("{error:?}"),
    }
}

/// Every typed decode outcome of the golden set, pinned as one FNV-1a per
/// frame: each prefix of the encoding (the whole frame included), each
/// complete frame cut short inside its declared length, and each
/// single-byte flip (`^= 0x40`). A codec change that moves any outcome of
/// the 3,759 moves a pin.
#[test]
fn golden_frame_decode_outcomes_are_pinned() {
    const PINNED: [(&str, u64); 20] = [
        ("release_state_frequency", 0x52d8_4dc0_8858_0ca2),
        ("release_state_count", 0xc918_7daa_219b_b18c),
        ("release_histogram", 0x3072_5588_5623_5afd),
        ("release_range_count", 0xd4d2_d52b_1553_2e37),
        ("release_mean_state", 0x3e0f_bb46_df6e_6433),
        ("hello", 0x47ed_bf1b_6146_0f2e),
        ("query", 0xddf5_46d2_40cf_0ca3),
        ("progressive", 0x9e0f_64e5_bdeb_d4ec),
        ("stats", 0x960b_1e1d_64c1_b824),
        ("goodbye", 0xe4f3_885e_ece4_968e),
        ("metrics", 0x8f4e_425b_4c30_f352),
        ("hello_ok", 0x2e98_fb35_cbc4_705d),
        ("release_ok", 0x15fc_29fb_369d_f37c),
        ("query_ok", 0xcb32_b71a_530e_d65f),
        ("refine_ok", 0x28e6_62ff_a4ad_8aff),
        ("stats_ok", 0x33a3_e253_a2f6_deca),
        ("metrics_ok", 0x83ed_5050_5a52_880a),
        ("busy", 0xdf7d_44dd_19be_5437),
        ("budget_exhausted", 0xa723_c53a_0474_36f2),
        ("error", 0xb7b9_0782_f2ed_6de0),
    ];
    let mut outcomes = 0;
    let actual: Vec<(&str, u64)> = golden_envelopes()
        .into_iter()
        .map(|(name, envelope)| {
            let bytes = encode(&envelope, DEFAULT_MAX_FRAME_LEN).unwrap();
            let outcome_of = |input: &[u8]| outcome(decode(input, DEFAULT_MAX_FRAME_LEN));
            let mut log = Vec::new();
            log.extend((0..=bytes.len()).map(|end| outcome_of(&bytes[..end])));
            log.extend((4..bytes.len()).map(|end| outcome_of(&reframe(&bytes, end))));
            log.extend((0..bytes.len()).map(|index| {
                let mut flipped = bytes.clone();
                flipped[index] ^= 0x40;
                outcome_of(&flipped)
            }));
            outcomes += log.len();
            (name, fnv1a(log.join("\n").as_bytes()))
        })
        .collect();
    assert_eq!(outcomes, 3_759);
    assert_eq!(actual, PINNED);
}
