//! Calibration persistence: serializable snapshots of a release engine's
//! cached calibrations.
//!
//! Calibration is the system's dominant cost — the ∞-Wasserstein sweep and
//! the Markov Quilt searches take seconds, while a release is a query
//! evaluation plus Laplace noise. Every calibrated mechanism, however,
//! releases through a small *normal form* it carries ([`MechanismState`]):
//! the privacy parameter, a rule mapping a query to its Laplace scale
//! ([`ScaleForm`]) and a database validation rule ([`ValidationForm`]). This
//! module persists exactly that normal form, so a service restart (or a
//! second process) can
//! [`import`](crate::ReleaseEngine::import_snapshot) a snapshot and serve
//! releases that are **bitwise-identical** to a freshly calibrated engine —
//! without performing a single calibration.
//!
//! The on-disk format is self-describing (magic, version, u64 body length,
//! body, FNV-1a checksum), its fields written and read through the shared
//! byte codec (`pufferfish_telemetry::codec`). Decoding is paranoid: a
//! truncated file, a corrupted byte or a version from a different format
//! generation each surface as a typed [`SnapshotError`], never a panic or a
//! silently empty cache.
//!
//! # Example
//!
//! ```
//! use pufferfish_core::engine::{MqmApproxCalibrator, ReleaseEngine};
//! use pufferfish_core::queries::StateFrequencyQuery;
//! use pufferfish_core::{MqmApproxOptions, PrivacyBudget};
//! use pufferfish_markov::IntervalClassBuilder;
//!
//! let class = IntervalClassBuilder::symmetric(0.4).grid_points(2).build().unwrap();
//! let calibrator = || MqmApproxCalibrator::new(class.clone(), 60, MqmApproxOptions::default());
//!
//! // Pay the calibration once...
//! let cold = ReleaseEngine::new(calibrator());
//! let query = StateFrequencyQuery::new(1, 60);
//! let budget = PrivacyBudget::new(1.0).unwrap();
//! cold.mechanism(&query, budget).unwrap();
//!
//! // ...snapshot it, and serve it from a fresh engine with zero calibrations.
//! let bytes = cold.export_snapshot().to_bytes();
//! let snapshot = pufferfish_core::CalibrationSnapshot::from_bytes(&bytes).unwrap();
//! let warm = ReleaseEngine::new(calibrator());
//! assert_eq!(warm.import_snapshot(&snapshot).unwrap(), 1);
//! assert_eq!(warm.stats().misses, 0);
//! let scale = warm.noise_scale_estimate(&query, budget).unwrap();
//! assert_eq!(scale.to_bits(), cold.noise_scale_estimate(&query, budget).unwrap().to_bits());
//! assert_eq!(warm.stats().misses, 0, "warm probes never calibrate");
//! ```

use std::fmt;
use std::path::Path;
use std::sync::Arc;
use std::time::{SystemTime, UNIX_EPOCH};

use pufferfish_telemetry::codec::{fnv1a, put_f64, put_u32, put_u64, CodecError, Cursor};

use crate::engine::{CalibrationKey, QuerySignature};
use crate::mechanism::Mechanism;
use crate::queries::LipschitzQuery;
use crate::{PufferfishError, Result};

/// Magic bytes opening every snapshot file.
pub const SNAPSHOT_MAGIC: [u8; 8] = *b"PFCALSNP";

/// The format generation this build reads and writes. Decoding a snapshot
/// whose version field differs fails with
/// [`SnapshotError::UnsupportedVersion`] — the format carries no
/// cross-version migration logic.
pub const SNAPSHOT_VERSION: u32 = 1;

/// Size of the fixed header: magic + version + body length.
const HEADER_LEN: usize = 8 + 4 + 8;

/// Typed failures while encoding, decoding or importing a snapshot.
///
/// Every decode failure mode is distinguished so operators can tell a wrong
/// file from a corrupted one from a format-generation mismatch.
#[derive(Debug, Clone, PartialEq)]
pub enum SnapshotError {
    /// The file does not start with [`SNAPSHOT_MAGIC`] — not a snapshot.
    BadMagic,
    /// The snapshot was written by a different format generation.
    UnsupportedVersion {
        /// The version field found in the file.
        found: u32,
        /// The version this build supports.
        supported: u32,
    },
    /// The body failed its integrity check (corrupted or tampered bytes).
    ChecksumMismatch {
        /// The checksum stored in the file.
        stored: u64,
        /// The checksum recomputed over the body.
        computed: u64,
    },
    /// The file ends before the declared content does.
    Truncated {
        /// Bytes the decoder needed.
        needed: usize,
        /// Bytes actually available.
        available: usize,
    },
    /// The body passed its checksum but violates the format's invariants
    /// (impossible tag values, trailing garbage, non-finite parameters,
    /// scale forms that would skip the noise) — an encoder bug or a
    /// hand-crafted file.
    Malformed(String),
    /// The snapshot names a mechanism family this build cannot restore.
    UnknownFamily(String),
    /// The snapshot was exported from an engine over a different calibrator
    /// (class/options mismatch); importing it would serve calibrations for
    /// the wrong distribution class.
    EngineMismatch {
        /// Calibrator family recorded in the snapshot.
        snapshot_kind: String,
        /// Family of the engine asked to import it.
        engine_kind: String,
        /// Class token recorded in the snapshot.
        snapshot_class: u64,
        /// Class token of the importing engine's calibrator.
        engine_class: u64,
    },
    /// Reading or writing the snapshot file failed at the filesystem level.
    Io(String),
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::BadMagic => write!(f, "not a calibration snapshot (bad magic)"),
            SnapshotError::UnsupportedVersion { found, supported } => write!(
                f,
                "snapshot version {found} is not supported (this build reads version {supported})"
            ),
            SnapshotError::ChecksumMismatch { stored, computed } => write!(
                f,
                "snapshot checksum mismatch: stored {stored:#018x}, computed {computed:#018x}"
            ),
            SnapshotError::Truncated { needed, available } => write!(
                f,
                "snapshot truncated: needed {needed} bytes, only {available} available"
            ),
            SnapshotError::Malformed(detail) => write!(f, "malformed snapshot: {detail}"),
            SnapshotError::UnknownFamily(family) => {
                write!(f, "snapshot contains unknown mechanism family '{family}'")
            }
            SnapshotError::EngineMismatch {
                snapshot_kind,
                engine_kind,
                snapshot_class,
                engine_class,
            } => write!(
                f,
                "snapshot was exported from a '{snapshot_kind}' engine (class {snapshot_class:#x}) \
                 but the importing engine is '{engine_kind}' (class {engine_class:#x})"
            ),
            SnapshotError::Io(detail) => write!(f, "snapshot i/o error: {detail}"),
        }
    }
}

impl From<CodecError> for SnapshotError {
    fn from(error: CodecError) -> Self {
        SnapshotError::Malformed(error.to_string())
    }
}

/// How a mechanism maps a query to its Laplace scale.
///
/// Each variant is one family's scale formula, evaluated in the paper's
/// operation order; a restored state evaluates the same formula, so its
/// scales are bitwise-identical to a fresh calibration's.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ScaleForm {
    /// `scale = L(query) × multiplier` — the Markov Quilt families, whose
    /// calibrated `σ_max` is rescaled by the query's Lipschitz constant at
    /// release time.
    LipschitzTimes {
        /// The calibrated noise multiplier `σ_max`.
        multiplier: f64,
    },
    /// `scale = L(query) × numerator / denominator` (left-associated) — the
    /// group-DP (`M`, ε) and GK16 (inflation, ε) baselines.
    LipschitzRatio {
        /// Numerator applied after the Lipschitz constant.
        numerator: f64,
        /// Denominator applied last.
        denominator: f64,
    },
    /// A query-independent scale — the Wasserstein Mechanism (calibrated to
    /// the concrete query) and entry DP (calibrated to a fixed sensitivity).
    Fixed {
        /// The calibrated Laplace scale.
        scale: f64,
    },
}

impl ScaleForm {
    /// The Laplace scale this form assigns to `query`.
    pub fn scale_for(&self, query: &dyn LipschitzQuery) -> f64 {
        match *self {
            ScaleForm::LipschitzTimes { multiplier } => query.lipschitz_constant() * multiplier,
            ScaleForm::LipschitzRatio {
                numerator,
                denominator,
            } => query.lipschitz_constant() * numerator / denominator,
            ScaleForm::Fixed { scale } => scale,
        }
    }

    /// `true` when every parameter is finite and the form adds the noise it
    /// owes: a positive multiplier, numerator and denominator, and a
    /// non-negative fixed scale (zero is the Wasserstein Mechanism's exact
    /// release at `W = 0`). A crafted snapshot could otherwise smuggle a
    /// NaN/∞ scale, or one that skips the noise, past calibration's checks.
    fn is_valid(&self) -> bool {
        let positive = |value: f64| value.is_finite() && value > 0.0;
        match *self {
            ScaleForm::LipschitzTimes { multiplier } => positive(multiplier),
            ScaleForm::LipschitzRatio {
                numerator,
                denominator,
            } => positive(numerator) && positive(denominator),
            ScaleForm::Fixed { scale } => scale.is_finite() && scale >= 0.0,
        }
    }
}

/// How a mechanism validates a database before releasing.
#[derive(Debug, Clone, PartialEq)]
pub enum ValidationForm {
    /// Length must match the query's expected length (Wasserstein and the
    /// baselines).
    QueryLength,
    /// Length must match the query and every state must be `< num_states`
    /// (the Markov-chain quilt mechanisms).
    StateRange {
        /// Size of the calibrated state space.
        num_states: usize,
    },
    /// One value per network node, each below its node's cardinality (the
    /// general Bayesian-network quilt mechanism).
    NodeCardinalities {
        /// Per-node state-space sizes, in node order.
        cardinalities: Vec<usize>,
    },
}

impl ValidationForm {
    /// Checks `database` against this rule (and, for the length rules,
    /// against the length `query` expects).
    ///
    /// # Errors
    /// [`PufferfishError::InvalidDatabase`] on mismatch.
    pub fn check(&self, query: &dyn LipschitzQuery, database: &[usize]) -> Result<()> {
        let invalid = |detail: String| Err(PufferfishError::InvalidDatabase(detail));
        if let ValidationForm::NodeCardinalities { cardinalities } = self {
            if database.len() != cardinalities.len() {
                return invalid(format!(
                    "assignment has {} entries, network has {}",
                    database.len(),
                    cardinalities.len()
                ));
            }
            for (node, (&value, &cardinality)) in database.iter().zip(cardinalities).enumerate() {
                if value >= cardinality {
                    return invalid(format!("value {value} out of range for node {node}"));
                }
            }
            return Ok(());
        }
        if database.len() != query.expected_length() {
            return invalid(format!(
                "database has length {}, query expects {}",
                database.len(),
                query.expected_length()
            ));
        }
        if let ValidationForm::StateRange { num_states } = self {
            if let Some(&bad) = database.iter().find(|&&s| s >= *num_states) {
                return invalid(format!("state {bad} out of range for {num_states} states"));
            }
        }
        Ok(())
    }
}

/// The calibrated normal form of one mechanism: everything a release needs.
///
/// Every family builds its state once, at calibration, and releases through
/// it (see [`Mechanism::state`]). A state is itself a [`Mechanism`]: it is
/// what a snapshot persists and what [`MechanismState::restore`] serves, so
/// a restored mechanism releases bitwise-identically to the calibrated
/// original under the same RNG seed. Calibration *diagnostics* (winning
/// quilt selections, worst-case secret pairs) are not part of the normal
/// form and are not restored.
#[derive(Debug, Clone, PartialEq)]
pub struct MechanismState {
    /// The family name ("wasserstein", "mqm-exact", …), reported as
    /// [`Mechanism::name`].
    pub family: &'static str,
    /// The privacy parameter ε the mechanism was calibrated for.
    pub epsilon: f64,
    /// The query → Laplace-scale rule.
    pub scale: ScaleForm,
    /// The database validation rule.
    pub validation: ValidationForm,
}

impl Mechanism for MechanismState {
    fn state(&self) -> &MechanismState {
        self
    }
}

/// The families this build can restore, under their [`Mechanism::name`].
const FAMILIES: [&str; 7] = [
    "wasserstein",
    "mqm-exact",
    "mqm-approx",
    "markov-quilt",
    "group-dp",
    "gk16",
    "entry-dp",
];

/// Interns a family name to its `'static` spelling, rejecting families this
/// build does not know.
fn intern_family(family: &str) -> std::result::Result<&'static str, SnapshotError> {
    FAMILIES
        .into_iter()
        .find(|&known| known == family)
        .ok_or_else(|| SnapshotError::UnknownFamily(family.to_string()))
}

impl MechanismState {
    /// Checks this state and returns it as a live mechanism.
    ///
    /// # Errors
    /// [`SnapshotError::UnknownFamily`] for a family this build cannot
    /// restore; [`SnapshotError::Malformed`] for an invalid ε or a scale form
    /// that is non-finite or would skip the noise.
    pub fn restore(&self) -> Result<Arc<dyn Mechanism>> {
        self.check().map_err(PufferfishError::Snapshot)?;
        Ok(Arc::new(self.clone()))
    }

    /// The invariants of a restorable state.
    fn check(&self) -> std::result::Result<(), SnapshotError> {
        intern_family(self.family)?;
        if !self.epsilon.is_finite() || self.epsilon <= 0.0 {
            return Err(SnapshotError::Malformed(format!(
                "family '{}' carries invalid epsilon {}",
                self.family, self.epsilon
            )));
        }
        if !self.scale.is_valid() {
            return Err(SnapshotError::Malformed(format!(
                "family '{}' carries an invalid scale form {:?}",
                self.family, self.scale
            )));
        }
        Ok(())
    }
}

/// One persisted cache entry: the cache key and the mechanism's normal form.
#[derive(Debug, Clone, PartialEq)]
pub struct SnapshotEntry {
    /// The engine cache key this entry restores under.
    pub key: CalibrationKey,
    /// The calibrated mechanism's serializable state.
    pub state: MechanismState,
}

/// A versioned, checksummed dump of a release engine's calibration cache.
///
/// Produced by [`ReleaseEngine::export_snapshot`](crate::ReleaseEngine::export_snapshot),
/// consumed by [`ReleaseEngine::import_snapshot`](crate::ReleaseEngine::import_snapshot);
/// [`CalibrationSnapshot::to_bytes`] / [`CalibrationSnapshot::from_bytes`]
/// move it through any byte transport and
/// [`write_to_file`](CalibrationSnapshot::write_to_file) /
/// [`read_from_file`](CalibrationSnapshot::read_from_file) through the
/// filesystem.
#[derive(Debug, Clone, PartialEq)]
pub struct CalibrationSnapshot {
    /// Family name of the calibrator the exporting engine wrapped.
    pub engine_kind: String,
    /// Class token of the exporting engine's calibrator; importing engines
    /// must match it.
    pub class_token: u64,
    /// Informational only, kept so the format stays at version 1: the
    /// engine's cache is one map, export writes 1 and import ignores it.
    pub shard_count: u32,
    /// Unix timestamp (seconds) when the snapshot was exported.
    pub created_unix_secs: u64,
    /// The persisted cache entries, in a stable sorted order.
    pub entries: Vec<SnapshotEntry>,
}

impl CalibrationSnapshot {
    /// Number of persisted calibrations.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when the snapshot holds no calibrations.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Seconds elapsed since the snapshot was exported (0 when the clock
    /// reads earlier than the export — e.g. across machines with skew).
    pub fn age_secs(&self) -> u64 {
        unix_now().saturating_sub(self.created_unix_secs)
    }

    /// Serialises to the self-describing binary format.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut body = Vec::with_capacity(64 + self.entries.len() * 96);
        write_text(&mut body, &self.engine_kind);
        put_u64(&mut body, self.class_token);
        put_u32(&mut body, self.shard_count);
        put_u64(&mut body, self.created_unix_secs);
        put_u64(&mut body, self.entries.len() as u64);
        for entry in &self.entries {
            write_key(&mut body, &entry.key);
            write_state(&mut body, &entry.state);
        }

        let mut bytes = Vec::with_capacity(HEADER_LEN + body.len() + 8);
        bytes.extend_from_slice(&SNAPSHOT_MAGIC);
        put_u32(&mut bytes, SNAPSHOT_VERSION);
        put_u64(&mut bytes, body.len() as u64);
        bytes.extend_from_slice(&body);
        put_u64(&mut bytes, fnv1a(&body));
        bytes
    }

    /// Decodes the binary format, verifying magic, version, length and
    /// checksum before touching the body.
    ///
    /// # Errors
    /// The typed [`SnapshotError`] variants, wrapped in
    /// [`PufferfishError::Snapshot`]: [`SnapshotError::BadMagic`],
    /// [`SnapshotError::UnsupportedVersion`], [`SnapshotError::Truncated`],
    /// [`SnapshotError::ChecksumMismatch`], [`SnapshotError::Malformed`]
    /// and [`SnapshotError::UnknownFamily`].
    pub fn from_bytes(bytes: &[u8]) -> Result<Self> {
        Self::decode(bytes).map_err(PufferfishError::Snapshot)
    }

    fn decode(bytes: &[u8]) -> std::result::Result<Self, SnapshotError> {
        let truncated = |needed| SnapshotError::Truncated {
            needed,
            available: bytes.len(),
        };
        if bytes.len() < HEADER_LEN {
            return Err(truncated(HEADER_LEN));
        }
        if bytes[..8] != SNAPSHOT_MAGIC {
            return Err(SnapshotError::BadMagic);
        }
        let mut r = Cursor::new(&bytes[8..]);
        let version = r.u32()?;
        if version != SNAPSHOT_VERSION {
            return Err(SnapshotError::UnsupportedVersion {
                found: version,
                supported: SNAPSHOT_VERSION,
            });
        }
        let body_len = usize::try_from(r.u64()?).map_err(|_| truncated(usize::MAX))?;
        let total = HEADER_LEN
            .checked_add(body_len)
            .and_then(|n| n.checked_add(8))
            .ok_or(SnapshotError::Malformed(
                "declared body length overflows".to_string(),
            ))?;
        if bytes.len() < total {
            return Err(truncated(total));
        }
        if bytes.len() > total {
            return Err(SnapshotError::Malformed(format!(
                "{} trailing bytes after the checksum",
                bytes.len() - total
            )));
        }
        let body = r.bytes(body_len)?;
        let stored = r.u64()?;
        let computed = fnv1a(body);
        if stored != computed {
            return Err(SnapshotError::ChecksumMismatch { stored, computed });
        }

        let mut r = Cursor::new(body);
        let engine_kind = read_text(&mut r)?;
        let class_token = r.u64()?;
        let shard_count = r.u32()?;
        let created_unix_secs = r.u64()?;
        // Every entry takes more than 16 bytes, so a count the body cannot
        // hold is refused before anything is allocated for it.
        let declared = r.u64()?;
        let count = r.count(declared, 16)?;
        let mut entries = Vec::with_capacity(count);
        for _ in 0..count {
            let key = read_key(&mut r)?;
            if key.class_token != class_token {
                return Err(SnapshotError::Malformed(format!(
                    "entry class token {:#x} differs from the snapshot's {class_token:#x}",
                    key.class_token
                )));
            }
            let state = read_state(&mut r)?;
            entries.push(SnapshotEntry { key, state });
        }
        if r.remaining() != 0 {
            return Err(SnapshotError::Malformed(format!(
                "{} undeclared bytes after the last entry",
                r.remaining()
            )));
        }
        Ok(CalibrationSnapshot {
            engine_kind,
            class_token,
            shard_count,
            created_unix_secs,
            entries,
        })
    }

    /// Writes the encoded snapshot to `path`, returning the bytes written.
    ///
    /// # Errors
    /// [`SnapshotError::Io`] on filesystem failures.
    pub fn write_to_file(&self, path: impl AsRef<Path>) -> Result<u64> {
        let bytes = self.to_bytes();
        std::fs::write(path.as_ref(), &bytes).map_err(|e| {
            PufferfishError::Snapshot(SnapshotError::Io(format!(
                "writing {}: {e}",
                path.as_ref().display()
            )))
        })?;
        Ok(bytes.len() as u64)
    }

    /// Reads and decodes a snapshot file.
    ///
    /// # Errors
    /// [`SnapshotError::Io`] on filesystem failures plus every decode error
    /// of [`CalibrationSnapshot::from_bytes`].
    pub fn read_from_file(path: impl AsRef<Path>) -> Result<Self> {
        let bytes = std::fs::read(path.as_ref()).map_err(|e| {
            PufferfishError::Snapshot(SnapshotError::Io(format!(
                "reading {}: {e}",
                path.as_ref().display()
            )))
        })?;
        Self::from_bytes(&bytes)
    }
}

/// Current Unix time in seconds (0 if the clock reads before the epoch) —
/// the clock snapshots are stamped and aged against. Exposed so callers
/// deriving snapshot age themselves (e.g. the serving layer's
/// `ServiceStats`) agree with [`CalibrationSnapshot::age_secs`].
pub fn unix_now() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0)
}

// ---------------------------------------------------------------------------
// Body layout, over the shared codec: u64 text lengths and size fields,
// tagged enums. Writers are infallible; readers return typed errors.
// ---------------------------------------------------------------------------

fn write_text(out: &mut Vec<u8>, text: &str) {
    put_u64(out, text.len() as u64);
    out.extend_from_slice(text.as_bytes());
}

fn read_text(r: &mut Cursor) -> std::result::Result<String, SnapshotError> {
    let len = r.u64()?;
    Ok(r.text(r.count(len, 1)?)?)
}

fn read_size(r: &mut Cursor) -> std::result::Result<usize, SnapshotError> {
    usize::try_from(r.u64()?)
        .map_err(|_| SnapshotError::Malformed("size field overflows usize".to_string()))
}

fn write_key(out: &mut Vec<u8>, key: &CalibrationKey) {
    put_u64(out, key.class_token);
    put_u64(out, key.epsilon_bits);
    write_text(out, &key.query.name);
    put_u64(out, key.query.lipschitz_bits);
    put_u64(out, key.query.output_dimension as u64);
    put_u64(out, key.query.expected_length as u64);
    put_u64(out, key.query.discriminator);
}

fn read_key(r: &mut Cursor) -> std::result::Result<CalibrationKey, SnapshotError> {
    Ok(CalibrationKey {
        class_token: r.u64()?,
        epsilon_bits: r.u64()?,
        query: QuerySignature {
            name: read_text(r)?,
            lipschitz_bits: r.u64()?,
            output_dimension: read_size(r)?,
            expected_length: read_size(r)?,
            discriminator: r.u64()?,
        },
    })
}

fn write_state(out: &mut Vec<u8>, state: &MechanismState) {
    write_text(out, state.family);
    put_f64(out, state.epsilon);
    match state.scale {
        ScaleForm::LipschitzTimes { multiplier } => {
            out.push(0);
            put_f64(out, multiplier);
        }
        ScaleForm::LipschitzRatio {
            numerator,
            denominator,
        } => {
            out.push(1);
            put_f64(out, numerator);
            put_f64(out, denominator);
        }
        ScaleForm::Fixed { scale } => {
            out.push(2);
            put_f64(out, scale);
        }
    }
    match &state.validation {
        ValidationForm::QueryLength => out.push(0),
        ValidationForm::StateRange { num_states } => {
            out.push(1);
            put_u64(out, *num_states as u64);
        }
        ValidationForm::NodeCardinalities { cardinalities } => {
            out.push(2);
            put_u64(out, cardinalities.len() as u64);
            for &cardinality in cardinalities {
                put_u64(out, cardinality as u64);
            }
        }
    }
}

fn read_state(r: &mut Cursor) -> std::result::Result<MechanismState, SnapshotError> {
    let family = intern_family(&read_text(r)?)?;
    let epsilon = r.f64()?;
    let scale = match r.u8()? {
        0 => ScaleForm::LipschitzTimes {
            multiplier: r.f64()?,
        },
        1 => ScaleForm::LipschitzRatio {
            numerator: r.f64()?,
            denominator: r.f64()?,
        },
        2 => ScaleForm::Fixed { scale: r.f64()? },
        tag => {
            return Err(SnapshotError::Malformed(format!(
                "unknown scale-form tag {tag}"
            )))
        }
    };
    let validation = match r.u8()? {
        0 => ValidationForm::QueryLength,
        1 => ValidationForm::StateRange {
            num_states: read_size(r)?,
        },
        2 => {
            let declared = r.u64()?;
            let len = r.count(declared, 8)?;
            let cardinalities = (0..len)
                .map(|_| read_size(r))
                .collect::<std::result::Result<_, _>>()?;
            ValidationForm::NodeCardinalities { cardinalities }
        }
        tag => {
            return Err(SnapshotError::Malformed(format!(
                "unknown validation-form tag {tag}"
            )))
        }
    };
    let state = MechanismState {
        family,
        epsilon,
        scale,
        validation,
    };
    state.check()?;
    Ok(state)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::queries::{StateCountQuery, StateFrequencyQuery};

    fn entry(epsilon: f64, query: QuerySignature, state: MechanismState) -> SnapshotEntry {
        SnapshotEntry {
            key: CalibrationKey {
                class_token: 0xDEAD_BEEF,
                epsilon_bits: epsilon.to_bits(),
                query,
            },
            state,
        }
    }

    /// One entry per [`ScaleForm`] and per [`ValidationForm`] variant.
    fn sample_snapshot() -> CalibrationSnapshot {
        CalibrationSnapshot {
            engine_kind: "mqm-approx".to_string(),
            class_token: 0xDEAD_BEEF,
            shard_count: 16,
            created_unix_secs: 1_700_000_000,
            entries: vec![
                entry(
                    1.0,
                    QuerySignature::class_scoped(),
                    MechanismState {
                        family: "mqm-approx",
                        epsilon: 1.0,
                        scale: ScaleForm::LipschitzTimes { multiplier: 42.5 },
                        validation: ValidationForm::StateRange { num_states: 2 },
                    },
                ),
                entry(
                    0.5,
                    QuerySignature::class_scoped(),
                    MechanismState {
                        family: "markov-quilt",
                        epsilon: 0.5,
                        scale: ScaleForm::LipschitzTimes { multiplier: 3.25 },
                        validation: ValidationForm::NodeCardinalities {
                            cardinalities: vec![2, 3, 2],
                        },
                    },
                ),
                entry(
                    2.0,
                    QuerySignature::class_scoped(),
                    MechanismState {
                        family: "group-dp",
                        epsilon: 2.0,
                        scale: ScaleForm::LipschitzRatio {
                            numerator: 120.0,
                            denominator: 2.0,
                        },
                        validation: ValidationForm::QueryLength,
                    },
                ),
                entry(
                    0.25,
                    QuerySignature::of(&StateCountQuery::new(1, 4)),
                    MechanismState {
                        family: "wasserstein",
                        epsilon: 0.25,
                        scale: ScaleForm::Fixed { scale: 8.0 },
                        validation: ValidationForm::QueryLength,
                    },
                ),
            ],
        }
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let snapshot = sample_snapshot();
        let bytes = snapshot.to_bytes();
        let decoded = CalibrationSnapshot::from_bytes(&bytes).unwrap();
        assert_eq!(decoded, snapshot);
        // Encoding is deterministic.
        assert_eq!(decoded.to_bytes(), bytes);
        // ...and pinned across builds: these are the bytes version 1 has
        // always written for these entries. A change to the encoder or to
        // `MechanismState` that moves them needs a new SNAPSHOT_VERSION.
        assert_eq!(bytes.len(), 502);
        assert_eq!(fnv1a(&bytes), 0x8b1e_0156_9703_98a5);
    }

    #[test]
    fn truncation_is_typed_at_every_length() {
        let bytes = sample_snapshot().to_bytes();
        for len in 0..bytes.len() {
            let result = CalibrationSnapshot::from_bytes(&bytes[..len]);
            assert!(
                matches!(
                    result,
                    Err(PufferfishError::Snapshot(SnapshotError::Truncated { .. }))
                ),
                "prefix of {len} bytes must be Truncated, got {result:?}"
            );
        }
    }

    #[test]
    fn corruption_is_a_checksum_mismatch() {
        let bytes = sample_snapshot().to_bytes();
        // Flip one bit in every body byte position and in the trailing
        // checksum: all must surface as ChecksumMismatch.
        for at in HEADER_LEN..bytes.len() {
            let mut corrupt = bytes.clone();
            corrupt[at] ^= 0x40;
            let result = CalibrationSnapshot::from_bytes(&corrupt);
            assert!(
                matches!(
                    result,
                    Err(PufferfishError::Snapshot(
                        SnapshotError::ChecksumMismatch { .. }
                    ))
                ),
                "corruption at byte {at} must be ChecksumMismatch, got {result:?}"
            );
        }
    }

    #[test]
    fn version_bump_is_typed() {
        let mut bytes = sample_snapshot().to_bytes();
        bytes[8] = SNAPSHOT_VERSION as u8 + 1;
        assert!(matches!(
            CalibrationSnapshot::from_bytes(&bytes),
            Err(PufferfishError::Snapshot(
                SnapshotError::UnsupportedVersion { found, supported }
            )) if found == SNAPSHOT_VERSION + 1 && supported == SNAPSHOT_VERSION
        ));
    }

    #[test]
    fn bad_magic_and_trailing_garbage_are_typed() {
        let mut bytes = sample_snapshot().to_bytes();
        bytes[0] = b'X';
        assert!(matches!(
            CalibrationSnapshot::from_bytes(&bytes),
            Err(PufferfishError::Snapshot(SnapshotError::BadMagic))
        ));
        let mut padded = sample_snapshot().to_bytes();
        padded.push(0);
        assert!(matches!(
            CalibrationSnapshot::from_bytes(&padded),
            Err(PufferfishError::Snapshot(SnapshotError::Malformed(_)))
        ));
    }

    #[test]
    fn restored_mechanism_reproduces_scales_and_validation() {
        let state = MechanismState {
            family: "mqm-exact",
            epsilon: 0.5,
            scale: ScaleForm::LipschitzTimes { multiplier: 7.25 },
            validation: ValidationForm::StateRange { num_states: 2 },
        };
        let restored = state.restore().unwrap();
        assert_eq!(restored.name(), "mqm-exact");
        assert_eq!(restored.epsilon(), 0.5);
        let query = StateFrequencyQuery::new(1, 8);
        assert_eq!(
            restored.noise_scale_for(&query).to_bits(),
            (query.lipschitz_constant() * 7.25).to_bits()
        );
        assert!(restored.validate(&query, &[0, 1, 0, 1, 0, 1, 0, 1]).is_ok());
        assert!(restored.validate(&query, &[0, 1]).is_err());
        assert!(restored
            .validate(&query, &[0, 1, 0, 1, 0, 1, 0, 9])
            .is_err());
        // The restored mechanism re-exports its own state unchanged.
        assert_eq!(restored.state(), &state);
    }

    #[test]
    fn restore_rejects_unknown_and_invalid_states() {
        let mut state = MechanismState {
            family: "time-machine",
            epsilon: 1.0,
            scale: ScaleForm::Fixed { scale: 1.0 },
            validation: ValidationForm::QueryLength,
        };
        assert!(matches!(
            state.restore(),
            Err(PufferfishError::Snapshot(SnapshotError::UnknownFamily(f))) if f == "time-machine"
        ));
        state.family = "wasserstein";
        state.epsilon = f64::NAN;
        assert!(state.restore().is_err());
        state.epsilon = 1.0;
        state.scale = ScaleForm::Fixed {
            scale: f64::INFINITY,
        };
        assert!(state.restore().is_err());
        // Forms that would skip the noise: restored, each would publish the
        // exact value.
        for scale in [
            ScaleForm::LipschitzTimes { multiplier: -3.0 },
            ScaleForm::LipschitzTimes { multiplier: 0.0 },
            ScaleForm::LipschitzRatio {
                numerator: -1.0,
                denominator: 1.0,
            },
            ScaleForm::LipschitzRatio {
                numerator: 1.0,
                denominator: -1.0,
            },
            ScaleForm::Fixed { scale: -0.5 },
        ] {
            state.scale = scale;
            assert!(
                matches!(
                    state.restore(),
                    Err(PufferfishError::Snapshot(SnapshotError::Malformed(_)))
                ),
                "{scale:?} must be refused"
            );
        }
        // W = 0 is a legitimate exact release.
        state.scale = ScaleForm::Fixed { scale: 0.0 };
        assert!(state.restore().is_ok());
    }

    #[test]
    fn io_errors_are_typed() {
        assert!(matches!(
            CalibrationSnapshot::read_from_file("/nonexistent/dir/snapshot.pfsnap"),
            Err(PufferfishError::Snapshot(SnapshotError::Io(_)))
        ));
        assert!(matches!(
            sample_snapshot().write_to_file("/nonexistent/dir/snapshot.pfsnap"),
            Err(PufferfishError::Snapshot(SnapshotError::Io(_)))
        ));
    }
}
