//! Offline verification that an ε-spend ledger agrees with the live
//! accountant — **bitwise**.
//!
//! The [`pufferfish_telemetry::EpsilonLedger`] records every budget event the
//! [`BudgetAccountant`](crate::BudgetAccountant) applies (the accountant logs
//! while holding its user-table lock, so a refund never precedes the charge
//! it rolls back). A user's composed spend depends only on the multiset of
//! their surviving charges, never on the order they arrived in, so recording
//! the replayed charges into a fresh [`CompositionAccountant`] must land on
//! exactly the same f64 bits as the live accountant. [`audit_ledger`]
//! performs that comparison per user and in aggregate; any disagreement is a
//! typed [`AuditError`], because an audit that "almost matches" is an audit
//! that failed.

use std::collections::BTreeMap;

use pufferfish_core::CompositionAccountant;
use pufferfish_telemetry::{replay_spend, EpsilonLedger, LedgerError};

use crate::BudgetAccountant;

/// Why an audit failed.
#[derive(Debug, Clone, PartialEq)]
pub enum AuditError {
    /// The ledger bytes themselves did not decode.
    Ledger(LedgerError),
    /// The replay knows a user the live accountant does not (the converse —
    /// a live user the ledger never charged — is legal: refused-only users
    /// exist in the accountant at spend 0).
    UnknownUser {
        /// The user present in the replay but not the accountant.
        user: String,
    },
    /// One user's replayed composed ε differs from the live value.
    UserMismatch {
        /// The disagreeing user.
        user: String,
        /// The live accountant's composed ε (bits).
        live: u64,
        /// The replay's composed ε (bits).
        replayed: u64,
    },
    /// The summed totals differ.
    TotalMismatch {
        /// `BudgetAccountant::total_spent()` (bits).
        live: u64,
        /// The replay's sum over users in the same order (bits).
        replayed: u64,
    },
}

impl From<LedgerError> for AuditError {
    fn from(error: LedgerError) -> Self {
        AuditError::Ledger(error)
    }
}

impl std::fmt::Display for AuditError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AuditError::Ledger(error) => write!(f, "ledger audit failed to decode: {error}"),
            AuditError::UnknownUser { user } => {
                write!(f, "ledger names user {user:?} the accountant never saw")
            }
            AuditError::UserMismatch {
                user,
                live,
                replayed,
            } => write!(
                f,
                "user {user:?} spend mismatch: live {} ({live:#018x}) vs replayed {} \
                 ({replayed:#018x})",
                f64::from_bits(*live),
                f64::from_bits(*replayed)
            ),
            AuditError::TotalMismatch { live, replayed } => write!(
                f,
                "total spend mismatch: live {} ({live:#018x}) vs replayed {} ({replayed:#018x})",
                f64::from_bits(*live),
                f64::from_bits(*replayed)
            ),
        }
    }
}

impl std::error::Error for AuditError {}

/// A successful audit: the replayed view that matched the live accountant.
#[derive(Debug, Clone, PartialEq)]
pub struct AuditReport {
    /// Ledger events replayed.
    pub events: u64,
    /// Per-user composed ε reconstructed from the ledger alone (users the
    /// accountant knows but the ledger never charged appear at 0.0).
    pub per_user: BTreeMap<String, f64>,
    /// The reconstructed total — bitwise equal to
    /// [`BudgetAccountant::total_spent`] at audit time.
    pub total: f64,
}

/// Replays `bytes` and checks the reconstruction against `budget`, bitwise.
///
/// Per user, the replayed charges are recorded into a fresh
/// [`CompositionAccountant`] and the composed guarantee is compared by
/// [`f64::to_bits`] against the live value; the totals are then
/// summed in the accountant's own (sorted) user order and compared the same
/// way. Users the accountant knows with no surviving charges (refused-only,
/// or fully refunded before their first charge… which cannot happen — fully
/// refunded) must replay to exactly `0.0`.
///
/// # Errors
/// [`AuditError`] naming the first disagreement; [`AuditError::Ledger`]
/// when the bytes themselves are truncated, corrupted, or malformed.
pub fn audit_ledger(bytes: &[u8], budget: &BudgetAccountant) -> Result<AuditReport, AuditError> {
    let events = EpsilonLedger::replay(bytes)?;
    let replayed = replay_spend(&events)?;
    let live = budget.per_user_spent();

    for user in replayed.keys() {
        if !live.contains_key(user) {
            return Err(AuditError::UnknownUser { user: user.clone() });
        }
    }

    let mut per_user = BTreeMap::new();
    for (user, &live_spend) in &live {
        let composed = match replayed.get(user) {
            Some(epsilons) => {
                let mut accountant = CompositionAccountant::new();
                for &epsilon in epsilons {
                    accountant.record(epsilon);
                }
                accountant.guaranteed_epsilon()
            }
            // The accountant knows the user (a refusal created the entry)
            // but no charge survives in the ledger: the live spend must be
            // exactly zero.
            None => 0.0,
        };
        if composed.to_bits() != live_spend.to_bits() {
            return Err(AuditError::UserMismatch {
                user: user.clone(),
                live: live_spend.to_bits(),
                replayed: composed.to_bits(),
            });
        }
        per_user.insert(user.clone(), composed);
    }

    // Totals: same users, same sorted order, same summation — the bits must
    // agree with the accountant's own aggregate.
    let total: f64 = per_user.values().sum();
    let live_total = budget.total_spent();
    if total.to_bits() != live_total.to_bits() {
        return Err(AuditError::TotalMismatch {
            live: live_total.to_bits(),
            replayed: total.to_bits(),
        });
    }

    Ok(AuditReport {
        events: events.len() as u64,
        per_user,
        total,
    })
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use pufferfish_telemetry::{query_signature, LedgerEventKind};

    use super::*;
    use crate::budget::SpendTag;

    fn tagged(seq: u64) -> SpendTag<'static> {
        SpendTag {
            query_sig: query_signature("audit-test"),
            family: "mqm-approx",
            seq,
        }
    }

    #[test]
    fn audit_passes_on_a_faithful_ledger() {
        let budget = BudgetAccountant::new(2.0).unwrap();
        let ledger = Arc::new(pufferfish_telemetry::EpsilonLedger::new());
        budget.attach_ledger(Arc::clone(&ledger));

        budget.try_spend_tagged("t#a", 0.3, tagged(1)).unwrap();
        budget.try_spend_tagged("t#a", 0.3, tagged(2)).unwrap();
        budget.try_spend_tagged("t#b", 0.7, tagged(3)).unwrap();
        // Heterogeneous for b: composed K·max = 1.4, not the 0.8 sum.
        budget.try_spend_tagged("t#b", 0.1, tagged(4)).unwrap();
        // A refusal (creates no spend: 3 × 0.9 = 2.7 > 2.0) and a refund.
        assert!(budget.try_spend_tagged("t#a", 0.9, tagged(5)).is_err());
        assert!(budget.refund_tagged("t#a", 0.3, tagged(2)));
        // A refused-only user: exists live at 0.0, absent from the replay.
        assert!(budget.try_spend_tagged("t#c", 2.5, tagged(6)).is_err());

        let report = audit_ledger(&ledger.to_bytes(), &budget).unwrap();
        assert_eq!(report.events, 7);
        assert_eq!(report.per_user.len(), 3);
        assert_eq!(report.per_user["t#c"], 0.0);
        assert_eq!(report.total.to_bits(), budget.total_spent().to_bits());
    }

    #[test]
    fn a_spend_the_ledger_missed_fails_the_audit() {
        let budget = BudgetAccountant::new(1.0).unwrap();
        let ledger = Arc::new(pufferfish_telemetry::EpsilonLedger::new());
        budget.try_spend("t#a", 0.5).unwrap(); // before attach: unlogged
        budget.attach_ledger(Arc::clone(&ledger));
        budget.try_spend("t#a", 0.25).unwrap();
        assert!(matches!(
            audit_ledger(&ledger.to_bytes(), &budget),
            Err(AuditError::UserMismatch { .. })
        ));
    }

    #[test]
    fn a_charge_for_an_unknown_user_fails_the_audit() {
        let budget = BudgetAccountant::new(1.0).unwrap();
        let ledger = Arc::new(pufferfish_telemetry::EpsilonLedger::new());
        ledger.record(LedgerEventKind::Charge, "ghost", 0, "mqm", 0.5, 1);
        assert!(matches!(
            audit_ledger(&ledger.to_bytes(), &budget),
            Err(AuditError::UnknownUser { .. })
        ));
    }

    #[test]
    fn corrupt_bytes_fail_typed_not_partially() {
        let budget = BudgetAccountant::new(1.0).unwrap();
        let ledger = Arc::new(pufferfish_telemetry::EpsilonLedger::new());
        budget.attach_ledger(Arc::clone(&ledger));
        budget.try_spend("t#a", 0.5).unwrap();
        let mut bytes = ledger.to_bytes();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x01;
        assert!(matches!(
            audit_ledger(&bytes, &budget),
            Err(AuditError::Ledger(LedgerError::ChecksumMismatch { .. }))
        ));
        bytes.truncate(last.saturating_sub(4));
        assert!(matches!(
            audit_ledger(&bytes, &budget),
            Err(AuditError::Ledger(LedgerError::Truncated { .. }))
        ));
    }
}
