//! Per-user ε-budget accounting for the serving layer.
//!
//! Each user owns a [`CompositionAccountant`] tracking the Theorem 4.4
//! composition of their releases; the [`BudgetAccountant`] admits a request
//! only when the *composed* guarantee after the spend would still fit inside
//! the per-user target. Admission check and commit are one atomic step under
//! the accountant's lock, so concurrent requests for the same user can never
//! jointly overdraw the budget — the property the service stress tests
//! hammer. A user's spend is kept as a multiset of ε (each distinct value
//! with its count), so an admission costs O(distinct ε) however many
//! releases the user has made.
//!
//! The accountant keeps every identity it has seen for the life of the
//! server, so an identity costs only its bytes: ids of up to 22 bytes are
//! stored inside a 24-byte [`UserKey`], and a one-ε spend inside its
//! [`CompositionAccountant`].

use std::borrow::Borrow;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::{Arc, Mutex, OnceLock};

use pufferfish_core::CompositionAccountant;
use pufferfish_telemetry::{EpsilonLedger, LedgerEventKind};

use crate::ServiceError;

/// Audit context a budget event carries into an attached
/// [`EpsilonLedger`]: which query (by signature), which mechanism family,
/// and which request seed/sequence number the spend belongs to.
///
/// The untagged entry points ([`BudgetAccountant::try_spend`],
/// [`BudgetAccountant::refund`]) log with [`SpendTag::default`] — every
/// budget event still reaches the ledger, just without provenance.
#[derive(Debug, Clone, Copy, Default)]
pub struct SpendTag<'a> {
    /// FNV-1a signature of the query
    /// ([`pufferfish_telemetry::query_signature`]).
    pub query_sig: u64,
    /// The mechanism family serving the release.
    pub family: &'a str,
    /// The request's noise seed / wire sequence number.
    pub seq: u64,
}

/// A budget identity's bytes, inline up to [`UserKey::INLINE`] bytes and in
/// a heap block beyond. Keys compare, order and borrow as their bytes, so a
/// map of them orders exactly as a map of `String`s does and is searched by
/// `&[u8]` without building a key.
#[derive(Clone)]
enum UserKey {
    /// An id of `len ≤ INLINE` bytes, in the first `len` bytes.
    Inline(u8, [u8; UserKey::INLINE]),
    /// A longer id.
    Heap(Box<[u8]>),
}

impl UserKey {
    /// The longest id stored inline: the most that keeps a key at the 24
    /// bytes of a `String`.
    const INLINE: usize = 22;

    fn new(id: &str) -> Self {
        let bytes = id.as_bytes();
        match u8::try_from(bytes.len()) {
            Ok(len) if bytes.len() <= Self::INLINE => {
                let mut inline = [0; Self::INLINE];
                inline[..bytes.len()].copy_from_slice(bytes);
                UserKey::Inline(len, inline)
            }
            _ => UserKey::Heap(bytes.into()),
        }
    }

    fn as_bytes(&self) -> &[u8] {
        match self {
            UserKey::Inline(len, inline) => &inline[..usize::from(*len)],
            UserKey::Heap(bytes) => bytes,
        }
    }

    fn as_str(&self) -> &str {
        std::str::from_utf8(self.as_bytes()).expect("a user key holds the bytes of a str")
    }
}

impl PartialEq for UserKey {
    fn eq(&self, other: &Self) -> bool {
        self.as_bytes() == other.as_bytes()
    }
}

impl Eq for UserKey {}

impl PartialOrd for UserKey {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

// Not derived: a derived order would sort every inline id before every heap
// id, where `String` order (and so `per_user_spent`) compares the bytes.
impl Ord for UserKey {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.as_bytes().cmp(other.as_bytes())
    }
}

impl Borrow<[u8]> for UserKey {
    fn borrow(&self) -> &[u8] {
        self.as_bytes()
    }
}

impl fmt::Debug for UserKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.as_str(), f)
    }
}

/// Thread-safe per-user privacy-budget ledger with a common target ε.
///
/// # Example
///
/// ```
/// use pufferfish_service::BudgetAccountant;
///
/// let budget = BudgetAccountant::new(1.0).unwrap();
/// // Two releases of ε = 0.4 fit inside the target of 1.0 …
/// assert!(budget.try_spend("alice", 0.4).is_ok());
/// assert!(budget.try_spend("alice", 0.4).is_ok());
/// // … a third would compose to 1.2 and is refused.
/// assert!(budget.try_spend("alice", 0.4).is_err());
/// // Budgets are per user: bob's ledger is untouched.
/// assert!(budget.try_spend("bob", 0.4).is_ok());
/// ```
#[derive(Debug)]
pub struct BudgetAccountant {
    target_epsilon: f64,
    // BTreeMap, not HashMap: aggregate views (`total_spent`,
    // `per_user_spent`) iterate in a deterministic order, which is what lets
    // an offline ledger replay reproduce the summed f64 *bitwise*.
    users: Mutex<BTreeMap<UserKey, CompositionAccountant>>,
    /// Write-once: the audit log is attached before traffic and can never
    /// be silently swapped mid-history (a replaced ledger could not replay
    /// the events recorded before the swap). Write-once is also what makes
    /// the per-event read one atomic load instead of a lock round-trip.
    ledger: OnceLock<Arc<EpsilonLedger>>,
}

impl BudgetAccountant {
    /// Creates a ledger granting every user the same total budget.
    ///
    /// # Errors
    /// [`ServiceError::InvalidConfig`] unless `target_epsilon` is positive
    /// and finite.
    pub fn new(target_epsilon: f64) -> Result<Self, ServiceError> {
        if !target_epsilon.is_finite() || target_epsilon <= 0.0 {
            return Err(ServiceError::InvalidConfig(format!(
                "per-user target epsilon must be positive and finite, got {target_epsilon}"
            )));
        }
        Ok(BudgetAccountant {
            target_epsilon,
            users: Mutex::new(BTreeMap::new()),
            ledger: OnceLock::new(),
        })
    }

    /// The per-user target ε.
    pub fn target_epsilon(&self) -> f64 {
        self.target_epsilon
    }

    /// Attaches an append-only audit ledger. From this point every budget
    /// event — charge, refund, refusal — is recorded *while the user-table
    /// lock is held*, so a refund is always logged after the charge it rolls
    /// back. Replaying the ledger ([`EpsilonLedger::replay`]) therefore
    /// rebuilds each user's multiset of surviving charges, and because the
    /// composed spend depends on that multiset alone, not on the order of
    /// events, the replay reproduces [`BudgetAccountant::total_spent`]
    /// bitwise.
    /// The slot is **write-once**: the first attach wins and later calls
    /// return `false` without replacing it, so an audit trail can never be
    /// silently truncated by re-attachment mid-history.
    pub fn attach_ledger(&self, ledger: Arc<EpsilonLedger>) -> bool {
        self.ledger.set(ledger).is_ok()
    }

    /// The attached audit ledger, if any.
    pub fn ledger(&self) -> Option<Arc<EpsilonLedger>> {
        self.ledger.get().cloned()
    }

    /// Whether a ledger is attached, i.e. whether a [`SpendTag`] is read.
    /// Admission paths build their tag only when it is, and pass
    /// [`SpendTag::default`] otherwise.
    pub fn has_ledger(&self) -> bool {
        self.ledger.get().is_some()
    }

    /// Records `kind` into the attached ledger (no-op without one). Callers
    /// hold the users mutex, which is what serialises ledger order with
    /// accountant order.
    fn log(&self, kind: LedgerEventKind, user: &str, epsilon: f64, tag: SpendTag<'_>) {
        if let Some(ledger) = self.ledger.get() {
            ledger.record(kind, user, tag.query_sig, tag.family, epsilon, tag.seq);
        }
    }

    /// Atomically checks and records a spend of `epsilon` for `user`.
    ///
    /// The check is against the *composed* guarantee ([Theorem 4.4]: `Σ ε`
    /// for homogeneous budgets, `K · max ε` for heterogeneous ones), not a
    /// naive running sum — a heterogeneous spend can therefore consume more
    /// budget than its own ε, and the accountant refuses it when the
    /// composed loss would exceed the target. Refused spends leave the
    /// ledger untouched. Returns the budget remaining after the spend.
    ///
    /// [Theorem 4.4]: pufferfish_core::CompositionAccountant
    ///
    /// # Errors
    /// [`ServiceError::BudgetExhausted`] when the composed guarantee after
    /// the spend would exceed the target; [`ServiceError::InvalidConfig`]
    /// for a non-positive or non-finite `epsilon`.
    pub fn try_spend(&self, user: &str, epsilon: f64) -> Result<f64, ServiceError> {
        self.try_spend_tagged(user, epsilon, SpendTag::default())
    }

    /// [`BudgetAccountant::try_spend`] carrying audit context: when a ledger
    /// is attached, the admitted charge (or the refusal) is recorded with
    /// the tag's query signature, mechanism family, and sequence number.
    ///
    /// # Errors
    /// As for [`BudgetAccountant::try_spend`].
    pub fn try_spend_tagged(
        &self,
        user: &str,
        epsilon: f64,
        tag: SpendTag<'_>,
    ) -> Result<f64, ServiceError> {
        if !epsilon.is_finite() || epsilon <= 0.0 {
            return Err(ServiceError::InvalidConfig(format!(
                "per-release epsilon must be positive and finite, got {epsilon}"
            )));
        }
        let mut users = self.users.lock().expect("budget ledger poisoned");
        // A known id is found by its bytes, without building a key; only a
        // new id pays a second descent to insert one.
        if let Some(accountant) = users.get_mut(user.as_bytes()) {
            return self.charge(accountant, user, epsilon, tag);
        }
        let accountant = users.entry(UserKey::new(user)).or_default();
        self.charge(accountant, user, epsilon, tag)
    }

    /// The admission step of [`BudgetAccountant::try_spend_tagged`] for
    /// `user`'s `accountant`, run under the users lock.
    fn charge(
        &self,
        accountant: &mut CompositionAccountant,
        user: &str,
        epsilon: f64,
        tag: SpendTag<'_>,
    ) -> Result<f64, ServiceError> {
        // Preview the composed guarantee (not a simple running sum under
        // heterogeneous budgets) without recording the spend — this runs
        // under the ledger lock on every admission.
        let composed = accountant.guaranteed_epsilon_with(epsilon);
        if composed > self.target_epsilon + 1e-12 {
            let remaining = (self.target_epsilon - accountant.guaranteed_epsilon()).max(0.0);
            self.log(LedgerEventKind::Refusal, user, epsilon, tag);
            return Err(ServiceError::BudgetExhausted {
                user: user.to_string(),
                requested: epsilon,
                remaining,
            });
        }
        accountant.record(epsilon);
        self.log(LedgerEventKind::Charge, user, epsilon, tag);
        Ok((self.target_epsilon - composed).max(0.0))
    }

    /// Rolls back one spend of exactly `epsilon` for `user`, returning
    /// whether a matching spend was found.
    ///
    /// Used by the service when a request passes the budget check but is
    /// then refused by the admission queue — the release never happened, so
    /// the spend must not count (see
    /// [`CompositionAccountant::unrecord`] for why removal by value is
    /// sound).
    pub fn refund(&self, user: &str, epsilon: f64) -> bool {
        self.refund_tagged(user, epsilon, SpendTag::default())
    }

    /// [`BudgetAccountant::refund`] carrying audit context: a successful
    /// rollback is recorded as a refund event in the attached ledger (a
    /// failed match records nothing — the accountant did not change).
    pub fn refund_tagged(&self, user: &str, epsilon: f64, tag: SpendTag<'_>) -> bool {
        let mut users = self.users.lock().expect("budget ledger poisoned");
        let refunded = users
            .get_mut(user.as_bytes())
            .map(|accountant| accountant.unrecord(epsilon))
            .unwrap_or(false);
        if refunded {
            self.log(LedgerEventKind::Refund, user, epsilon, tag);
        }
        refunded
    }

    /// The composed privacy loss recorded for `user` so far (0 for unknown
    /// users).
    pub fn spent(&self, user: &str) -> f64 {
        self.users
            .lock()
            .expect("budget ledger poisoned")
            .get(user.as_bytes())
            .map(CompositionAccountant::guaranteed_epsilon)
            .unwrap_or(0.0)
    }

    /// Budget remaining for `user` before the target is exceeded.
    pub fn remaining(&self, user: &str) -> f64 {
        (self.target_epsilon - self.spent(user)).max(0.0)
    }

    /// Number of releases recorded for `user`.
    pub fn releases(&self, user: &str) -> usize {
        self.users
            .lock()
            .expect("budget ledger poisoned")
            .get(user.as_bytes())
            .map(CompositionAccountant::releases)
            .unwrap_or(0)
    }

    /// Number of users with at least one recorded (or attempted) spend.
    pub fn users(&self) -> usize {
        self.users.lock().expect("budget ledger poisoned").len()
    }

    /// The composed privacy loss summed over every user — an aggregate load
    /// signal for dashboards (each user's own guarantee is still their
    /// individual [`BudgetAccountant::spent`] value).
    pub fn total_spent(&self) -> f64 {
        self.users
            .lock()
            .expect("budget ledger poisoned")
            .values()
            .map(CompositionAccountant::guaranteed_epsilon)
            .sum()
    }

    /// Every user's composed privacy loss, keyed by user in sorted order —
    /// the live state an offline ledger replay is audited against.
    pub fn per_user_spent(&self) -> BTreeMap<String, f64> {
        self.users
            .lock()
            .expect("budget ledger poisoned")
            .iter()
            .map(|(user, accountant)| (user.as_str().to_owned(), accountant.guaranteed_epsilon()))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validation() {
        assert!(BudgetAccountant::new(0.0).is_err());
        assert!(BudgetAccountant::new(f64::NAN).is_err());
        assert!(BudgetAccountant::new(-1.0).is_err());
        let budget = BudgetAccountant::new(2.0).unwrap();
        assert_eq!(budget.target_epsilon(), 2.0);
        assert!(budget.try_spend("u", 0.0).is_err());
        assert!(budget.try_spend("u", f64::INFINITY).is_err());
    }

    #[test]
    fn homogeneous_spends_sum() {
        let budget = BudgetAccountant::new(1.0).unwrap();
        for i in 0..5 {
            let remaining = budget.try_spend("alice", 0.2).unwrap();
            assert!((remaining - (1.0 - 0.2 * (i + 1) as f64)).abs() < 1e-9);
        }
        assert!(matches!(
            budget.try_spend("alice", 0.2),
            Err(ServiceError::BudgetExhausted { .. })
        ));
        assert_eq!(budget.releases("alice"), 5);
        assert!((budget.spent("alice") - 1.0).abs() < 1e-9);
        assert_eq!(budget.remaining("alice"), 0.0);
    }

    #[test]
    fn heterogeneous_spends_use_composition_guarantee() {
        // 0.1 then 0.5: the Theorem 4.4 guarantee is 2 * 0.5 = 1.0, not 0.6.
        let budget = BudgetAccountant::new(1.0).unwrap();
        budget.try_spend("alice", 0.1).unwrap();
        budget.try_spend("alice", 0.5).unwrap();
        assert!((budget.spent("alice") - 1.0).abs() < 1e-9);
        // Even a tiny further spend composes to 3 * 0.5 = 1.5 > 1.0.
        assert!(budget.try_spend("alice", 0.01).is_err());
        // The refused spend did not change the ledger.
        assert_eq!(budget.releases("alice"), 2);
    }

    #[test]
    fn budgets_are_per_user() {
        let budget = BudgetAccountant::new(0.5).unwrap();
        budget.try_spend("alice", 0.5).unwrap();
        assert!(budget.try_spend("alice", 0.5).is_err());
        budget.try_spend("bob", 0.5).unwrap();
        assert_eq!(budget.users(), 2);
        assert_eq!(budget.spent("nobody"), 0.0);
        assert_eq!(budget.remaining("nobody"), 0.5);
        assert_eq!(budget.releases("nobody"), 0);
    }

    #[test]
    fn refund_restores_budget() {
        let budget = BudgetAccountant::new(1.0).unwrap();
        budget.try_spend("alice", 0.6).unwrap();
        assert!(budget.try_spend("alice", 0.6).is_err());
        assert!(budget.refund("alice", 0.6));
        assert_eq!(budget.releases("alice"), 0);
        assert!(budget.try_spend("alice", 0.6).is_ok());
        // Refunds need a matching spend and a known user.
        assert!(!budget.refund("alice", 0.123));
        assert!(!budget.refund("stranger", 0.6));
    }

    #[test]
    fn ids_on_both_sides_of_the_inline_capacity_keep_string_order() {
        assert_eq!(std::mem::size_of::<UserKey>(), 24);
        let ids = [
            "u".repeat(40),
            "u".repeat(23),
            "u".repeat(22),
            "u".repeat(21),
            "v".to_string(),
            "t#zoë".to_string(),
            "t#zoe".to_string(),
            "t#日本語-ユーザー-ß".to_string(),
            "t#".to_string(),
            String::new(),
        ];
        let budget = BudgetAccountant::new(10.0).unwrap();
        let mut expected = BTreeMap::new();
        for (i, id) in ids.iter().enumerate() {
            let epsilon = 0.1 * (i + 1) as f64;
            budget.try_spend(id, epsilon).unwrap();
            expected.insert(id.clone(), epsilon);
        }
        let live = budget.per_user_spent();
        assert!(live.keys().eq(expected.keys()));
        for (id, &epsilon) in &expected {
            assert_eq!(budget.spent(id).to_bits(), epsilon.to_bits());
            assert_eq!(budget.releases(id), 1);
            assert!(budget.refund(id, epsilon));
            assert_eq!(budget.releases(id), 0);
        }
        assert_eq!(budget.users(), ids.len());
    }

    #[test]
    fn concurrent_spends_never_overdraw() {
        use std::sync::Arc;

        let budget = Arc::new(BudgetAccountant::new(1.0).unwrap());
        let grants: usize = std::thread::scope(|scope| {
            (0..8)
                .map(|_| {
                    let budget = Arc::clone(&budget);
                    scope.spawn(move || {
                        (0..4)
                            .filter(|_| budget.try_spend("shared", 0.1).is_ok())
                            .count()
                    })
                })
                .collect::<Vec<_>>()
                .into_iter()
                .map(|w| w.join().unwrap())
                .sum()
        });
        // 32 attempts at 0.1 against a target of 1.0: exactly 10 grants.
        assert_eq!(grants, 10);
        assert!((budget.spent("shared") - 1.0).abs() < 1e-9);
    }

    #[test]
    fn attached_ledger_sees_every_budget_event() {
        use pufferfish_telemetry::query_signature;

        let budget = BudgetAccountant::new(1.0).unwrap();
        let ledger = Arc::new(EpsilonLedger::new());
        budget.attach_ledger(Arc::clone(&ledger));
        assert!(budget.ledger().is_some());

        let tag = SpendTag {
            query_sig: query_signature("state-frequency"),
            family: "mqm-approx",
            seq: 7,
        };
        budget.try_spend_tagged("t#a", 0.6, tag).unwrap();
        // Refused: composed 2 × 0.6 = 1.2 > 1.0.
        assert!(budget.try_spend_tagged("t#a", 0.6, tag).is_err());
        assert!(budget.refund_tagged("t#a", 0.6, tag));
        // A failed refund changes nothing and logs nothing.
        assert!(!budget.refund_tagged("t#a", 0.6, tag));
        // Untagged entry points still log, with a default tag.
        budget.try_spend("t#b", 0.25).unwrap();

        let events = EpsilonLedger::replay(&ledger.to_bytes()).unwrap();
        let kinds: Vec<LedgerEventKind> = events.iter().map(|e| e.kind).collect();
        assert_eq!(
            kinds,
            vec![
                LedgerEventKind::Charge,
                LedgerEventKind::Refusal,
                LedgerEventKind::Refund,
                LedgerEventKind::Charge,
            ]
        );
        assert_eq!(events[0].family, "mqm-approx");
        assert_eq!(events[0].seq, 7);
        assert_eq!(events[3].user, "t#b");
        assert_eq!(events[3].family, "");

        let spend = pufferfish_telemetry::replay_spend(&events).unwrap();
        let live = budget.per_user_spent();
        assert_eq!(live.len(), 2);
        for (user, epsilons) in &spend {
            let mut accountant = CompositionAccountant::new();
            for &e in epsilons {
                accountant.record(e);
            }
            assert_eq!(
                accountant.guaranteed_epsilon().to_bits(),
                live[user].to_bits()
            );
        }
    }
}
