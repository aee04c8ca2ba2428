//! Baseline mechanisms the paper's evaluation compares against.
//!
//! * [`EntryDp`] — the classical Laplace mechanism for (entry) differential
//!   privacy: noise proportional to the query's Lipschitz constant. Used as
//!   the "DP" row of Table 1 (aggregation across participants) and as the
//!   degenerate no-correlation baseline.
//! * [`GroupDp`] — group differential privacy (Definition 2.2): all records
//!   in a correlated group are protected together, so the noise scales with
//!   the size of the largest group (for a single connected Markov chain,
//!   the whole chain).
//! * [`Gk16`] — the influence-matrix mechanism of Ghosh & Kleinberg
//!   ("Inferential privacy", 2016), re-implemented from the description in
//!   Section 5.1 of the Pufferfish mechanisms paper: it builds a local
//!   influence matrix per distribution, applies only when its spectral norm
//!   is below 1, and inflates the Laplace noise by `1 / (1 − ‖I‖₂)`.
//!
//! All three release queries through the shared [`LipschitzQuery`] interface
//! of `pufferfish-core`, so the experiment harness can swap mechanisms
//! freely.

#![warn(missing_docs)]
#![deny(unsafe_code)]

mod entry_dp;
mod gk16;
mod group_dp;

pub use entry_dp::EntryDp;
pub use gk16::{Gk16, Gk16Calibrator, InfluenceMatrixSummary};
pub use group_dp::GroupDp;

pub use pufferfish_core::{
    LipschitzQuery, Mechanism, NoisyRelease, PrivacyBudget, PufferfishError,
};

/// Result alias matching `pufferfish-core`.
pub type Result<T> = std::result::Result<T, PufferfishError>;
