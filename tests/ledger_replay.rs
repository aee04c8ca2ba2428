//! The ε-audit contract, end to end: every workload the accountant admits —
//! randomized, concurrent, multi-tenant, with refusals, refunds and
//! recalibrations mixed in — must leave behind a ledger whose replay
//! reconstructs the live accountant **bitwise**, and every damaged ledger
//! must fail its audit with a typed error, never a silently shortened or
//! "almost matching" reconstruction.

use std::sync::Arc;

use proptest::prelude::*;
use pufferfish_service::{audit_ledger, AuditError, BudgetAccountant, SpendTag};
use pufferfish_telemetry::{
    query_signature, EpsilonLedger, LedgerError, LedgerEvent, LedgerEventKind,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Worker count for the concurrent workload: the CI matrix pins it via
/// `PUFFERFISH_TEST_THREADS`; 4 otherwise.
fn test_threads() -> usize {
    std::env::var("PUFFERFISH_TEST_THREADS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(4)
}

const QUERIES: [&str; 3] = ["state-frequency", "histogram", "range-count"];
const FAMILIES: [&str; 3] = ["mqm-approx", "wasserstein", "gk16"];
const EPSILONS: [f64; 4] = [0.1, 0.25, 0.3, 0.7];
/// Identities on both sides of the accountant's 22-byte inline key
/// capacity, one of them not ASCII.
const USERS: [&str; 4] = [
    "t#0",
    "t#1",
    "t#an-identity-past-the-inline-capacity",
    "t#zoë-ünïcødé",
];

fn arbitrary_tag(rng: &mut StdRng, seq: u64) -> SpendTag<'static> {
    SpendTag {
        query_sig: query_signature(QUERIES[rng.gen_range(0..QUERIES.len())]),
        family: FAMILIES[rng.gen_range(0..FAMILIES.len())],
        seq,
    }
}

/// Drives one randomized workload — charges, natural refusals, refunds of
/// earlier charges — against a fresh accountant with an attached ledger.
fn run_workload(seed: u64, target: f64, steps: u64) -> (Arc<BudgetAccountant>, Arc<EpsilonLedger>) {
    let budget = Arc::new(BudgetAccountant::new(target).unwrap());
    let ledger = Arc::new(EpsilonLedger::new());
    budget.attach_ledger(Arc::clone(&ledger));

    let mut rng = StdRng::seed_from_u64(seed);
    // Per-user history of admitted (ε, tag) pairs, for legal refunds.
    let mut charged: Vec<Vec<(f64, SpendTag<'static>)>> = vec![Vec::new(); USERS.len()];
    for seq in 0..steps {
        let user_index = rng.gen_range(0..charged.len());
        let user = USERS[user_index];
        if !charged[user_index].is_empty() && rng.gen_range(0..4u32) == 0 {
            // Refund one earlier admitted charge, exactly as the service
            // does when a queue refusal or execution failure rolls back.
            let pick = rng.gen_range(0..charged[user_index].len());
            let (epsilon, tag) = charged[user_index].remove(pick);
            assert!(budget.refund_tagged(user, epsilon, tag));
        } else {
            let epsilon = EPSILONS[rng.gen_range(0..EPSILONS.len())];
            let tag = arbitrary_tag(&mut rng, seq);
            // Refusals land in the ledger too; only admissions enter the
            // refundable history.
            if budget.try_spend_tagged(user, epsilon, tag).is_ok() {
                charged[user_index].push((epsilon, tag));
            }
        }
    }
    (budget, ledger)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Any single-threaded workload of charges, refusals and refunds
    /// replays to bitwise equality with the live accountant.
    #[test]
    fn randomized_workloads_audit_bitwise(
        seed in 0u64..10_000,
        target_index in 0usize..3,
        steps in 10u64..120,
    ) {
        let target = [1.0, 2.5, 10.0][target_index];
        let (budget, ledger) = run_workload(seed, target, steps);
        let report = audit_ledger(&ledger.to_bytes(), &budget)
            .expect("a faithful ledger must audit clean");
        prop_assert_eq!(report.events, ledger.events());
        // Bitwise, not approximately, equal.
        prop_assert_eq!(report.total.to_bits(), budget.total_spent().to_bits());
        for (user, &spent) in &report.per_user {
            prop_assert_eq!(spent.to_bits(), budget.spent(user).to_bits());
        }
    }

    /// Every strict truncation of a ledger either reports a typed decode
    /// error or (when the cut lands exactly on a record boundary) replays
    /// fewer events and then fails the bitwise audit — corruption can
    /// never produce a *passing* audit of a different history.
    #[test]
    fn truncations_never_pass_the_audit(seed in 0u64..1000, cut in 0.0f64..1.0) {
        let (budget, ledger) = run_workload(seed, 2.5, 60);
        let bytes = ledger.to_bytes();
        let full = audit_ledger(&bytes, &budget).expect("intact ledger audits clean");
        prop_assume!(full.total != 0.0);
        let len = (cut * bytes.len() as f64) as usize; // strictly < bytes.len()
        if let Ok(report) = audit_ledger(&bytes[..len], &budget) {
            return Err(format!(
                "a {len}-byte prefix of a {}-byte ledger audited clean: {report:?}",
                bytes.len()
            ));
        }
    }
}

#[test]
fn concurrent_multi_tenant_workload_audits_bitwise() {
    let threads = test_threads();
    let budget = Arc::new(BudgetAccountant::new(1e6).unwrap());
    let ledger = Arc::new(EpsilonLedger::new());
    budget.attach_ledger(Arc::clone(&ledger));

    // Each thread is one tenant hammering its own users *and* a shared
    // user every tenant touches — the accountant's lock orders the ledger,
    // so replay must still agree bitwise despite the scheduling races.
    std::thread::scope(|scope| {
        for thread in 0..threads {
            let budget = Arc::clone(&budget);
            scope.spawn(move || {
                let mut rng = StdRng::seed_from_u64(thread as u64);
                let mut refundable: Vec<(String, f64, SpendTag<'static>)> = Vec::new();
                for step in 0..400u64 {
                    let user = match rng.gen_range(0..3u32) {
                        0 => "shared#0".to_string(),
                        _ => format!("t{thread}#{}", rng.gen_range(0..3u32)),
                    };
                    if !refundable.is_empty() && rng.gen_range(0..5u32) == 0 {
                        let (user, epsilon, tag) =
                            refundable.remove(rng.gen_range(0..refundable.len()));
                        assert!(budget.refund_tagged(&user, epsilon, tag));
                    } else {
                        let epsilon = EPSILONS[rng.gen_range(0..EPSILONS.len())];
                        let tag = arbitrary_tag(&mut rng, step);
                        if budget.try_spend_tagged(&user, epsilon, tag).is_ok() {
                            refundable.push((user, epsilon, tag));
                        }
                    }
                }
            });
        }
    });

    let report = audit_ledger(&ledger.to_bytes(), &budget).unwrap();
    assert_eq!(report.events, ledger.events());
    assert!(report.events >= 400, "the workload must actually have run");
    assert_eq!(report.total.to_bits(), budget.total_spent().to_bits());
    assert!(report.per_user.contains_key("shared#0"));
}

#[test]
fn recalibration_events_ride_along_without_perturbing_the_audit() {
    let (budget, ledger) = run_workload(7, 2.5, 40);
    let before = audit_ledger(&ledger.to_bytes(), &budget).unwrap();
    // A canary swap logs a Recalibration row (no user, ε 0) — exactly what
    // `ReleaseService::swap_engine` records.
    ledger.record(LedgerEventKind::Recalibration, "", 0, "wasserstein", 0.0, 0);
    let after = audit_ledger(&ledger.to_bytes(), &budget).unwrap();
    assert_eq!(after.events, before.events + 1);
    assert_eq!(after.total.to_bits(), before.total.to_bits());
    assert_eq!(after.per_user, before.per_user);

    let events = EpsilonLedger::replay(&ledger.to_bytes()).unwrap();
    let last = events.last().unwrap();
    assert_eq!(last.kind, LedgerEventKind::Recalibration);
    assert_eq!(last.family, "wasserstein");
}

#[test]
fn corrupted_ledgers_fail_with_the_matching_typed_error() {
    let (budget, ledger) = run_workload(11, 2.5, 30);
    let bytes = ledger.to_bytes();

    // Bad magic.
    let mut bad = bytes.clone();
    bad[0] ^= 0xFF;
    assert!(matches!(
        audit_ledger(&bad, &budget),
        Err(AuditError::Ledger(LedgerError::BadMagic { .. }))
    ));

    // Unsupported version.
    let mut bad = bytes.clone();
    bad[8] ^= 0x40;
    assert!(matches!(
        audit_ledger(&bad, &budget),
        Err(AuditError::Ledger(LedgerError::UnsupportedVersion { .. }))
    ));

    // Flipping one payload byte trips the record checksum.
    let mut bad = bytes.clone();
    let target = bytes.len() / 2;
    bad[target] ^= 0x01;
    match audit_ledger(&bad, &budget) {
        Err(AuditError::Ledger(
            LedgerError::ChecksumMismatch { .. }
            | LedgerError::Truncated { .. }
            | LedgerError::Malformed(_),
        )) => {}
        other => panic!("mid-ledger corruption must be typed, got {other:?}"),
    }

    // Cutting mid-record is the canonical Truncated.
    let cut = bytes.len() - 3;
    assert!(matches!(
        audit_ledger(&bytes[..cut], &budget),
        Err(AuditError::Ledger(LedgerError::Truncated { .. }))
    ));

    // Splicing a record in (re-appending the last record's bytes) breaks
    // the monotonic index check.
    let events = EpsilonLedger::replay(&bytes).unwrap();
    let mut spliced = bytes.clone();
    let tail_start = {
        // Find the last record's start by replaying lengths from the header.
        let mut pos = 12usize;
        let mut last = pos;
        while pos < bytes.len() {
            last = pos;
            let body_len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().unwrap()) as usize;
            pos += 4 + body_len + 8;
        }
        last
    };
    spliced.extend_from_slice(&bytes[tail_start..]);
    assert!(matches!(
        EpsilonLedger::replay(&spliced),
        Err(LedgerError::Malformed(_))
    ));
    assert_eq!(events.len() as u64, ledger.events());
}

#[test]
fn a_ledger_written_to_disk_replays_identically() {
    let (budget, ledger) = run_workload(13, 10.0, 50);
    let path = std::env::temp_dir().join(format!(
        "pufferfish-ledger-replay-{}.bin",
        std::process::id()
    ));
    let written = ledger.write_to_file(&path).unwrap();
    let from_disk = std::fs::read(&path).unwrap();
    std::fs::remove_file(&path).ok();
    assert_eq!(written, from_disk.len() as u64);
    assert_eq!(from_disk, ledger.to_bytes());

    let report = audit_ledger(&from_disk, &budget).unwrap();
    assert_eq!(report.total.to_bits(), budget.total_spent().to_bits());

    let replayed = EpsilonLedger::replay(&from_disk).unwrap();
    let again = EpsilonLedger::replay(&ledger.to_bytes()).unwrap();
    let key = |e: &LedgerEvent| (e.index, e.kind, e.user.clone(), e.epsilon.to_bits(), e.seq);
    assert_eq!(
        replayed.iter().map(key).collect::<Vec<_>>(),
        again.iter().map(key).collect::<Vec<_>>()
    );
}

/// Byte-wise 64-bit FNV-1a, written out here so the pin below does not lean
/// on the code under test.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, &byte| {
        (hash ^ u64::from(byte)).wrapping_mul(0x100_0000_01b3)
    })
}

/// The ledger's bytes, pinned: one record of every event kind for a short,
/// a long and a non-ASCII user, each record's length and FNV-1a, then the
/// whole file's. Ledgers written today must replay under every later
/// build, so a change that moves these bytes needs a new `LEDGER_VERSION`.
#[test]
fn golden_ledger_records_encode_to_pinned_bytes() {
    const PINNED: [(usize, u64); 12] = [
        (66, 0x9c53_d080_84d0_f184),
        (102, 0xa9da_744a_6ab5_19e3),
        (75, 0xb6c9_745e_fdc5_4e50),
        (66, 0x6d43_29f6_c471_b9eb),
        (102, 0x4a9e_b2e6_e8fb_dda3),
        (75, 0xe37a_a7b2_0a25_9ef7),
        (66, 0x5e43_370c_d931_b1e9),
        (102, 0xc1e5_163f_4611_2a1f),
        (75, 0xf609_77fa_7239_0903),
        (66, 0x2e45_7ba0_92c7_3ef7),
        (102, 0xb0c4_34ba_76ff_2845),
        (75, 0x7673_f828_8698_e4ee),
    ];
    const FILE: (usize, u64) = (984, 0x6b96_387b_fc9d_5ce1);
    let kinds = [
        LedgerEventKind::Charge,
        LedgerEventKind::Refund,
        LedgerEventKind::Refusal,
        LedgerEventKind::Recalibration,
    ];
    let users = [USERS[0], USERS[2], USERS[3]];
    let ledger = EpsilonLedger::new();
    let mut records = Vec::new();
    let mut start = ledger.to_bytes().len();
    let events = kinds
        .iter()
        .flat_map(|&kind| users.iter().map(move |&user| (kind, user)));
    for (i, (kind, user)) in events.enumerate() {
        let sig = query_signature(QUERIES[i % QUERIES.len()]);
        let family = FAMILIES[i % FAMILIES.len()];
        let epsilon = EPSILONS[i % EPSILONS.len()];
        ledger.record(kind, user, sig, family, epsilon, 1000 + i as u64);
        let bytes = ledger.to_bytes();
        records.push((bytes.len() - start, fnv1a(&bytes[start..])));
        start = bytes.len();
    }
    let bytes = ledger.to_bytes();
    assert_eq!(records, PINNED);
    assert_eq!((bytes.len(), fnv1a(&bytes)), FILE);
    // The pinned bytes replay to the events that wrote them.
    let events = EpsilonLedger::replay(&bytes).unwrap();
    assert_eq!(events.len(), PINNED.len());
    assert_eq!(events[11].user, users[2]);
    assert_eq!(events[11].kind, LedgerEventKind::Recalibration);
}
