//! Error type for the serving layer.

use std::fmt;

use pufferfish_core::PufferfishError;

/// Errors produced by the release service, budget accountant and streaming
/// pipeline.
#[derive(Debug, Clone, PartialEq)]
pub enum ServiceError {
    /// A configuration parameter (target ε, window geometry, queue capacity)
    /// was invalid.
    InvalidConfig(String),
    /// Admitting the request would push the user's composed privacy loss
    /// (Theorem 4.4 accounting) past their target budget.
    BudgetExhausted {
        /// The budget owner (user id or stream name).
        user: String,
        /// The per-release ε the request asked for.
        requested: f64,
        /// Budget still available under the composition guarantee (0 when
        /// fully exhausted).
        remaining: f64,
    },
    /// A continual-release stream's total ε budget could not admit a due
    /// window release. Distinct from [`ServiceError::BudgetExhausted`] so
    /// stream drivers can tell "this stream is done releasing" (ingestion
    /// still continues) from a per-user admission refusal, and can report
    /// *where* in the stream the budget ran out.
    StreamBudgetExhausted {
        /// The stream's name.
        stream: String,
        /// Number of events ingested when the refused release came due —
        /// the window boundary the caller did *not* get a release for.
        window_end: usize,
        /// The per-release ε the due release needed.
        requested: f64,
        /// Budget still available under the composition guarantee (0 when
        /// fully exhausted).
        remaining: f64,
    },
    /// The bounded admission queue was full (back-pressure signal — the
    /// caller should retry, shed the request, or use the blocking submit).
    QueueFull {
        /// The queue's fixed capacity.
        capacity: usize,
    },
    /// The service has been shut down and accepts no further requests.
    ServiceClosed,
    /// Calibration, validation or release failed in the mechanism layer.
    Mechanism(PufferfishError),
}

impl fmt::Display for ServiceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServiceError::InvalidConfig(msg) => write!(f, "invalid service config: {msg}"),
            ServiceError::BudgetExhausted {
                user,
                requested,
                remaining,
            } => write!(
                f,
                "budget exhausted for '{user}': requested epsilon {requested}, \
                 remaining {remaining}"
            ),
            ServiceError::StreamBudgetExhausted {
                stream,
                window_end,
                requested,
                remaining,
            } => write!(
                f,
                "stream '{stream}' budget exhausted at window ending at event \
                 {window_end}: release needs epsilon {requested}, remaining {remaining}"
            ),
            ServiceError::QueueFull { capacity } => {
                write!(f, "request queue full (capacity {capacity})")
            }
            ServiceError::ServiceClosed => write!(f, "service is shut down"),
            ServiceError::Mechanism(e) => write!(f, "mechanism error: {e}"),
        }
    }
}

impl std::error::Error for ServiceError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServiceError::Mechanism(e) => Some(e),
            _ => None,
        }
    }
}

impl From<PufferfishError> for ServiceError {
    fn from(e: PufferfishError) -> Self {
        ServiceError::Mechanism(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::error::Error;

    #[test]
    fn display_and_source() {
        assert!(ServiceError::InvalidConfig("bad".into())
            .to_string()
            .contains("bad"));
        let exhausted = ServiceError::BudgetExhausted {
            user: "alice".into(),
            requested: 0.5,
            remaining: 0.1,
        };
        assert!(exhausted.to_string().contains("alice"));
        assert!(exhausted.source().is_none());
        let stream = ServiceError::StreamBudgetExhausted {
            stream: "sensor-1".into(),
            window_end: 45,
            requested: 0.2,
            remaining: 0.0,
        };
        assert!(stream.to_string().contains("sensor-1"));
        assert!(stream.to_string().contains("45"));
        assert!(stream.source().is_none());
        assert!(ServiceError::QueueFull { capacity: 8 }
            .to_string()
            .contains('8'));
        assert!(ServiceError::ServiceClosed.to_string().contains("shut"));
        let wrapped = ServiceError::from(PufferfishError::InvalidEpsilon(0.0));
        assert!(wrapped.to_string().contains("epsilon"));
        assert!(wrapped.source().is_some());
    }
}
