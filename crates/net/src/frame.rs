//! The length-prefixed binary wire protocol.
//!
//! Every frame on the wire is
//!
//! ```text
//! u32  frame_len   — byte length of everything after this field
//! u32  magic       — 0x4646_5550 ("PUFF" as little-endian bytes)
//! u8   version     — protocol version, currently 1
//! u8   kind        — frame type discriminant
//! u64  seq         — client-chosen sequence number, echoed in the response
//! …    body        — type-specific fields
//! ```
//!
//! with every multi-byte integer little-endian. The `seq` field is what
//! makes connections *pipelined*: a client may have many requests in flight
//! and the server answers each as soon as its release completes, so
//! responses can return out of order — the sequence number is the only way
//! to match them back up.
//!
//! Each value's layout is written once, in this module's layout table:
//! every frame kind's code and every field list, in wire order. [`encode`]
//! and [`decode_payload`] both follow it, and a counted list's allocation
//! guard takes its item size (the fewest bytes an item can take) from the
//! same table. Fields go through the shared byte codec
//! (`pufferfish_telemetry::codec`); the wire's own rules are its header and
//! its u32 length and count prefixes.
//!
//! Decoding is defensive end to end: a declared frame length beyond the
//! negotiated maximum is [`FrameError::Oversized`] *before* any
//! allocation, every collection count inside a body is checked against the
//! bytes that actually remain, and trailing garbage is
//! [`FrameError::Malformed`]. Only the length prefix reports
//! [`FrameError::Truncated`] ("read more"): a frame whose declared bytes
//! have all arrived but whose body ends inside a field is
//! [`FrameError::Malformed`], so a stream reader answers it rather than
//! waiting for bytes that cannot complete it. No input can make the decoder
//! panic or allocate unboundedly — the property the adversarial codec tests
//! pin down.

use std::sync::Arc;

use pufferfish_core::queries::{
    LipschitzQuery, MeanStateQuery, RangeCountQuery, RelativeFrequencyHistogram, StateCountQuery,
    StateFrequencyQuery,
};
use pufferfish_service::ServiceStats;
use pufferfish_telemetry::codec::{put_f64, put_u16, put_u32, put_u64, CodecError, Cursor};

/// The four magic bytes every frame starts with: `b"PUFF"` on the wire.
pub const MAGIC: u32 = 0x4646_5550;
/// The protocol version this crate speaks.
pub const VERSION: u8 = 1;
/// Default cap on `frame_len` (1 MiB): frames declaring more are refused
/// before any allocation.
pub const DEFAULT_MAX_FRAME_LEN: u32 = 1 << 20;
/// Bytes of fixed header after the length prefix (magic + version + kind +
/// seq) — the minimum legal `frame_len`.
pub const HEADER_LEN: usize = 14;

/// Typed decode/encode failures. Every malformed input maps to exactly one
/// of these — never a panic, never an unbounded allocation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// The frame did not start with [`MAGIC`].
    BadMagic {
        /// The four bytes found instead.
        found: u32,
    },
    /// The frame declared a protocol version this crate does not speak.
    UnsupportedVersion {
        /// The version found.
        found: u8,
    },
    /// The frame kind discriminant is not one this crate knows.
    UnknownKind {
        /// The discriminant found.
        found: u8,
    },
    /// The input holds fewer bytes than the length prefix declares, or not
    /// even the prefix. In streaming contexts this means "read more bytes";
    /// for a complete message it is an error. Only [`decode`] reports it.
    Truncated {
        /// Bytes the decoder needed next.
        needed: usize,
        /// Bytes that were actually available.
        available: usize,
    },
    /// The declared frame length exceeds the negotiated maximum. Refused
    /// before allocating anything.
    Oversized {
        /// The declared length.
        declared: u32,
        /// The maximum the decoder accepts.
        max: u32,
    },
    /// The frame parsed structurally but its body is inconsistent (a field
    /// past the payload end, bad UTF-8, a collection count larger than the
    /// remaining bytes, trailing garbage, an unknown error code, …).
    Malformed(String),
    /// The value cannot be represented on the wire (a state outside `u16`,
    /// a frame larger than the maximum).
    Unencodable(String),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::BadMagic { found } => {
                write!(f, "bad magic 0x{found:08x} (expected 0x{MAGIC:08x})")
            }
            FrameError::UnsupportedVersion { found } => {
                write!(
                    f,
                    "unsupported protocol version {found} (speaking {VERSION})"
                )
            }
            FrameError::UnknownKind { found } => write!(f, "unknown frame kind 0x{found:02x}"),
            FrameError::Truncated { needed, available } => {
                write!(f, "truncated frame: needed {needed} bytes, had {available}")
            }
            FrameError::Oversized { declared, max } => {
                write!(f, "frame declares {declared} bytes, maximum is {max}")
            }
            FrameError::Malformed(msg) => write!(f, "malformed frame: {msg}"),
            FrameError::Unencodable(msg) => write!(f, "unencodable frame: {msg}"),
        }
    }
}

impl std::error::Error for FrameError {}

/// Machine-readable reason inside an [`Frame::Error`] response.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u16)]
pub enum ErrorCode {
    /// The request frame was undecodable or semantically invalid.
    Malformed = 1,
    /// A request arrived before the connection's HELLO.
    NotHello = 2,
    /// Calibration or release failed in the mechanism layer.
    Mechanism = 3,
    /// A QUERY frame named a table the server does not serve.
    TableNotFound = 4,
    /// A QUERY frame's statement did not parse.
    Parse = 5,
    /// The server is shutting down.
    Shutdown = 6,
    /// The server is at its connection limit.
    TooManyConnections = 7,
    /// The request names a capability this server does not expose (e.g. a
    /// QUERY frame against a release-only server, or an unplannable
    /// statement).
    Unsupported = 8,
    /// An internal serving failure, for example a response that cannot be
    /// encoded or a PROGRESSIVE task that panicked. (A response that misses
    /// the shutdown drain deadline is dropped instead: its client reads
    /// EOF.)
    Internal = 9,
}

impl ErrorCode {
    fn from_u16(value: u16) -> Option<Self> {
        Some(match value {
            1 => ErrorCode::Malformed,
            2 => ErrorCode::NotHello,
            3 => ErrorCode::Mechanism,
            4 => ErrorCode::TableNotFound,
            5 => ErrorCode::Parse,
            6 => ErrorCode::Shutdown,
            7 => ErrorCode::TooManyConnections,
            8 => ErrorCode::Unsupported,
            9 => ErrorCode::Internal,
            _ => return None,
        })
    }
}

impl std::fmt::Display for ErrorCode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let name = match self {
            ErrorCode::Malformed => "malformed",
            ErrorCode::NotHello => "not-hello",
            ErrorCode::Mechanism => "mechanism",
            ErrorCode::TableNotFound => "table-not-found",
            ErrorCode::Parse => "parse",
            ErrorCode::Shutdown => "shutdown",
            ErrorCode::TooManyConnections => "too-many-connections",
            ErrorCode::Unsupported => "unsupported",
            ErrorCode::Internal => "internal",
        };
        f.write_str(name)
    }
}

/// A release query in wire form: the closed set of
/// [`LipschitzQuery`] shapes the protocol can name, with
/// [`WireQuery::build`] mapping each onto the core implementation.
///
/// A server whose engine is calibrated for one chain length answers a
/// query of any other `length` with a [`Frame::Error`] carrying
/// [`ErrorCode::Mechanism`], and the release's ε charge stands, as for any
/// failure in the mechanism layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireQuery {
    /// [`StateFrequencyQuery`]: relative frequency of one state.
    StateFrequency {
        /// The state whose frequency is released.
        state: u32,
        /// Expected database length.
        length: u32,
    },
    /// [`StateCountQuery`]: absolute count of one state.
    StateCount {
        /// The state whose count is released.
        state: u32,
        /// Expected database length.
        length: u32,
    },
    /// [`RelativeFrequencyHistogram`]: the full frequency histogram.
    Histogram {
        /// Number of states in the histogram.
        num_states: u32,
        /// Expected database length.
        length: u32,
    },
    /// [`RangeCountQuery`]: count of events in `[lo, hi]`.
    RangeCount {
        /// Inclusive lower state.
        lo: u32,
        /// Inclusive upper state.
        hi: u32,
        /// Number of states in the space.
        num_states: u32,
        /// Expected database length.
        length: u32,
    },
    /// [`MeanStateQuery`]: mean state index.
    MeanState {
        /// Number of states in the space.
        num_states: u32,
        /// Expected database length.
        length: u32,
    },
}

impl WireQuery {
    /// Instantiates the core query this wire form names.
    ///
    /// # Errors
    /// [`pufferfish_core::PufferfishError`] when the parameters are invalid
    /// (empty histogram, inverted range, …) — surfaced to the client as a
    /// [`Frame::Error`] with [`ErrorCode::Malformed`].
    pub fn build(&self) -> pufferfish_core::Result<Arc<dyn LipschitzQuery>> {
        Ok(match *self {
            WireQuery::StateFrequency { state, length } => {
                Arc::new(StateFrequencyQuery::new(state as usize, length as usize))
            }
            WireQuery::StateCount { state, length } => {
                Arc::new(StateCountQuery::new(state as usize, length as usize))
            }
            WireQuery::Histogram { num_states, length } => Arc::new(
                RelativeFrequencyHistogram::new(num_states as usize, length as usize)?,
            ),
            WireQuery::RangeCount {
                lo,
                hi,
                num_states,
                length,
            } => Arc::new(RangeCountQuery::new(
                lo as usize,
                hi as usize,
                num_states as usize,
                length as usize,
            )?),
            WireQuery::MeanState { num_states, length } => {
                Arc::new(MeanStateQuery::new(num_states as usize, length as usize)?)
            }
        })
    }
}

/// The numeric image of [`ServiceStats`] carried by a
/// [`Frame::StatsOk`] response.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct WireStats {
    /// Calibration-cache hits.
    pub hits: u64,
    /// Calibration-cache misses.
    pub misses: u64,
    /// Stampedes coalesced into an in-flight calibration.
    pub coalesced: u64,
    /// Distinct calibrations currently cached.
    pub cached_calibrations: u64,
    /// Requests admitted but not yet taken: queued for a worker or held
    /// by a connection reader.
    pub queue_depth: u64,
    /// Admission-queue capacity.
    pub queue_capacity: u64,
    /// Submissions refused at capacity (back-pressure events).
    pub queue_refusals: u64,
    /// Deepest the admission queue has ever been.
    pub queue_high_water: u64,
    /// Requests fulfilled so far.
    pub served: u64,
    /// Users with at least one recorded spend.
    pub users: u64,
    /// Composed ε spend summed over all users.
    pub spent_epsilon: f64,
    /// Sequential sign/MAD noise tests the release monitor completed
    /// (zero when no monitor is attached).
    pub monitor_noise_tests: u64,
    /// Noise tests that rejected (miscalibration verdicts).
    pub monitor_noise_failures: u64,
    /// Event windows the drift detector has scored.
    pub drift_windows: u64,
    /// The last window's drift score in units of the detection slack
    /// (> 1 means the window violated the calibrated class bounds).
    pub drift_score: f64,
    /// Whether the drift detector is currently tripped.
    pub drifted: bool,
    /// Canary recalibrations performed (engine swaps).
    pub recalibrations: u64,
}

impl From<ServiceStats> for WireStats {
    fn from(stats: ServiceStats) -> Self {
        let monitor = stats.monitor.unwrap_or_default();
        WireStats {
            hits: stats.cache.hits,
            misses: stats.cache.misses,
            coalesced: stats.cache.coalesced,
            cached_calibrations: stats.cached_calibrations as u64,
            queue_depth: stats.queue_depth as u64,
            queue_capacity: stats.queue_capacity as u64,
            queue_refusals: stats.queue_refusals,
            queue_high_water: stats.queue_high_water as u64,
            served: stats.served,
            users: stats.users as u64,
            spent_epsilon: stats.spent_epsilon,
            monitor_noise_tests: monitor.noise_tests,
            monitor_noise_failures: monitor.noise_failures,
            drift_windows: monitor.drift_windows,
            drift_score: monitor.drift_score,
            drifted: monitor.drifted,
            recalibrations: monitor.recalibrations,
        }
    }
}

/// A metric's value inside a [`WireMetric`] — the wire image of the
/// telemetry registry's counter / gauge / histogram-summary kinds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum WireMetricValue {
    /// A monotonic counter.
    Counter(u64),
    /// A point-in-time gauge.
    Gauge(u64),
    /// A latency-histogram summary (nanoseconds).
    Histogram {
        /// Recorded samples.
        count: u64,
        /// Exact maximum sample.
        max: u64,
        /// Mean sample.
        mean: f64,
        /// 50th percentile.
        p50: u64,
        /// 99th percentile.
        p99: u64,
        /// 99.9th percentile.
        p999: u64,
    },
}

/// One named metric inside a [`Frame::MetricsOk`] response.
#[derive(Debug, Clone, PartialEq)]
pub struct WireMetric {
    /// The registry name (e.g. `stage_engine_ns`).
    pub name: String,
    /// Its value at snapshot time.
    pub value: WireMetricValue,
}

impl std::fmt::Display for WireMetric {
    /// The same one-line text exposition the telemetry registry's
    /// `MetricSample` renders, so server-side `render_text` and client-side
    /// METRICS output grep identically.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.value {
            WireMetricValue::Counter(v) => write!(f, "{} counter {v}", self.name),
            WireMetricValue::Gauge(v) => write!(f, "{} gauge {v}", self.name),
            WireMetricValue::Histogram {
                count,
                max,
                mean,
                p50,
                p99,
                p999,
            } => write!(
                f,
                "{} histogram count={count} mean={mean:.1} p50={p50} p99={p99} p999={p999} max={max}",
                self.name
            ),
        }
    }
}

/// One window's released values inside a [`WireCell`].
#[derive(Debug, Clone, PartialEq)]
pub struct WireWindow {
    /// Exclusive end offset of the window within the cell's sequence.
    pub end: u32,
    /// The noisy released values (true values never cross the wire).
    pub values: Vec<f64>,
}

/// One group-by cell of a query result in wire form.
#[derive(Debug, Clone, PartialEq)]
pub struct WireCell {
    /// The group key.
    pub key: String,
    /// Per-window releases, in window order.
    pub windows: Vec<WireWindow>,
}

/// A query result in wire form — the payload of [`Frame::QueryOk`].
#[derive(Debug, Clone, PartialEq)]
pub struct WireQueryResult {
    /// The mechanism family the planner chose (its display name).
    pub mechanism: String,
    /// The Laplace scale every release applied.
    pub noise_scale: f64,
    /// The total ε the query was charged.
    pub total_epsilon: f64,
    /// Per-cell results, in table group order.
    pub cells: Vec<WireCell>,
}

/// One refinement step of a [`Frame::Progressive`] request: the wire image
/// of `pufferfish_service::RefinementStep`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WireRefinementStep {
    /// Window-prefix length this step answers over.
    pub prefix: u32,
    /// The ε this step spends.
    pub epsilon: f64,
    /// The planned error bound for this step.
    pub error_bound: f64,
}

/// One protocol frame. Kinds `0x01–0x07` are requests (client → server),
/// `0x81–0x89` are responses (server → client).
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    /// Authenticates the connection under a tenant name. Must be the first
    /// frame on every connection; the tenant scopes every per-frame user id
    /// (`BudgetAccountant` charges `tenant#user`), so no connection can
    /// spend another tenant's budgets by quoting a raw user string. The
    /// server refuses a tenant longer than 255 bytes with a typed
    /// [`ErrorCode::Malformed`] and closes the connection.
    Hello {
        /// The tenant every later frame's user id is scoped under.
        tenant: String,
    },
    /// One release request.
    Release {
        /// The user (within the connection's tenant) the release is charged
        /// to — per-frame, so one connection can multiplex millions of
        /// distinct users.
        user: u64,
        /// The query to release.
        query: WireQuery,
        /// Per-release privacy parameter ε.
        epsilon: f64,
        /// Noise seed (the service is deterministic given the seed).
        seed: u64,
        /// The database: a state sequence, each state in `0..65536`.
        database: Vec<u16>,
    },
    /// One declarative query against a server-registered table.
    Query {
        /// The user (within the tenant) the plan's total ε is charged to.
        user: u64,
        /// Name of a table registered on the server.
        table: String,
        /// The query statement text (`pufferfish-query` grammar).
        statement: String,
        /// Noise seed.
        seed: u64,
    },
    /// One progressive release: the server streams one [`Frame::RefineOk`]
    /// per schedule step — coarse prefix estimate first, refinements as the
    /// schedule completes — all echoing this request's sequence number, so
    /// they interleave freely with other pipelined traffic.
    Progressive {
        /// The user (within the tenant) each step's ε is charged to.
        user: u64,
        /// Confidence level the per-step error bounds are certified at.
        confidence: f64,
        /// Noise seed (the final refinement is bitwise-identical to a
        /// one-shot release at this seed and the schedule's total ε).
        seed: u64,
        /// The refinement schedule, coarse to fine; the last step's prefix
        /// is the full window.
        steps: Vec<WireRefinementStep>,
        /// The window: a state sequence, each state in `0..65536`.
        database: Vec<u16>,
    },
    /// Requests a [`Frame::StatsOk`] observability snapshot.
    Stats,
    /// Requests a [`Frame::MetricsOk`] telemetry-registry snapshot. Servers
    /// without telemetry attached answer [`Frame::Error`] with
    /// [`ErrorCode::Unsupported`].
    Metrics,
    /// Clean client-initiated close: the server finishes every in-flight
    /// response on this connection, then closes it.
    Goodbye,
    /// HELLO accepted; the server's negotiated limits.
    HelloOk {
        /// In-flight requests the server allows per connection before
        /// answering [`Frame::Busy`].
        max_pipeline: u32,
        /// Largest frame the server will read or write.
        max_frame_len: u32,
    },
    /// A successful release. Only the noisy values and the scale cross the
    /// wire — the wire is the trust boundary, so `true_values` are stripped.
    ReleaseOk {
        /// Laplace scale applied to each coordinate.
        scale: f64,
        /// The privatised query answers.
        values: Vec<f64>,
    },
    /// A successful declarative query.
    QueryOk(WireQueryResult),
    /// One step of a [`Frame::Progressive`] answer stream. `step ==
    /// total_steps` marks the final (full-window) refinement.
    RefineOk {
        /// 1-based index of this step within the schedule.
        step: u32,
        /// Total steps in the schedule.
        total_steps: u32,
        /// Window-prefix length this estimate answers over.
        prefix: u32,
        /// Laplace scale applied to each coordinate.
        scale: f64,
        /// The ε this step spent.
        epsilon: f64,
        /// Certified error bound recomputed from the actual release scale.
        certified_error: f64,
        /// Cumulative ε consumed by the stream so far (monotone).
        spent_epsilon: f64,
        /// The privatised answers for the prefix.
        values: Vec<f64>,
    },
    /// The observability snapshot.
    StatsOk(WireStats),
    /// The telemetry-registry snapshot: every registered metric, sorted by
    /// name.
    MetricsOk(Vec<WireMetric>),
    /// Admission control refused the request (queue full or the connection's
    /// pipeline limit reached). The request spent **no** budget; retry after
    /// the hint.
    Busy {
        /// Suggested client back-off in milliseconds.
        retry_hint_ms: u32,
    },
    /// The user's ε budget cannot admit the request.
    BudgetExhausted {
        /// The ε the request asked for.
        requested: f64,
        /// Budget still available under the composition guarantee.
        remaining: f64,
    },
    /// A typed failure.
    Error {
        /// Machine-readable reason.
        code: ErrorCode,
        /// Human-readable detail.
        message: String,
    },
}

impl Frame {
    /// Builds a [`Frame::Release`] from a `usize` state sequence, checking
    /// every state fits the wire's `u16` representation.
    ///
    /// # Errors
    /// [`FrameError::Unencodable`] when a state exceeds `u16::MAX`.
    pub fn release(
        user: u64,
        query: WireQuery,
        database: &[usize],
        epsilon: f64,
        seed: u64,
    ) -> Result<Frame, FrameError> {
        Ok(Frame::Release {
            user,
            query,
            epsilon,
            seed,
            database: wire_states(database)?,
        })
    }

    /// Builds a [`Frame::Progressive`] from `usize` prefixes and states,
    /// checking each fits its wire representation (`u32` prefixes, `u16`
    /// states).
    ///
    /// # Errors
    /// [`FrameError::Unencodable`] when a prefix exceeds `u32::MAX` or a
    /// state exceeds `u16::MAX`.
    pub fn progressive(
        user: u64,
        confidence: f64,
        seed: u64,
        steps: &[(usize, f64, f64)],
        database: &[usize],
    ) -> Result<Frame, FrameError> {
        let steps = steps
            .iter()
            .map(|&(prefix, epsilon, error_bound)| {
                let prefix = u32::try_from(prefix).map_err(|_| {
                    FrameError::Unencodable(format!("prefix {prefix} exceeds the wire maximum"))
                })?;
                Ok(WireRefinementStep {
                    prefix,
                    epsilon,
                    error_bound,
                })
            })
            .collect::<Result<Vec<WireRefinementStep>, FrameError>>()?;
        Ok(Frame::Progressive {
            user,
            confidence,
            seed,
            steps,
            database: wire_states(database)?,
        })
    }
}

/// The wire form of a state sequence, refusing a state past `u16::MAX`.
fn wire_states(database: &[usize]) -> Result<Vec<u16>, FrameError> {
    database
        .iter()
        .map(|&s| {
            u16::try_from(s).map_err(|_| {
                FrameError::Unencodable(format!("state {s} exceeds the wire maximum 65535"))
            })
        })
        .collect()
}

/// A sequence-numbered frame — the unit the wire carries.
#[derive(Debug, Clone, PartialEq)]
pub struct Envelope {
    /// Client-chosen sequence number (echoed on responses).
    pub seq: u64,
    /// The frame.
    pub frame: Frame,
}

// ---------------------------------------------------------------------------
// The wire layout
// ---------------------------------------------------------------------------

/// A value with one wire layout, followed in both directions: [`encode`]
/// writes it with `put` and [`decode_payload`] reads it back with `get`.
trait Wire: Sized {
    /// The fewest bytes any value of the type takes on the wire. A counted
    /// list of the type is refused unless its count of these fits the bytes
    /// left, before anything is allocated for it.
    const MIN_BYTES: usize;
    fn put(&self, out: &mut Vec<u8>) -> Result<(), FrameError>;
    fn get(r: &mut Cursor) -> Result<Self, FrameError>;
}

/// A tagged union on the wire: a `u8` tag, then the variant's fields. A
/// frame's tag is its kind, which the header carries ahead of `seq`, so
/// [`encode`] and [`decode_payload`] place the two parts themselves.
trait Tagged: Sized {
    /// The fewest bytes of any variant's fields.
    const MIN_FIELDS: usize;
    fn tag(&self) -> u8;
    fn put_fields(&self, out: &mut Vec<u8>) -> Result<(), FrameError>;
    fn get_fields(tag: u8, r: &mut Cursor) -> Result<Self, FrameError>;
}

impl<T: Tagged> Wire for T {
    const MIN_BYTES: usize = 1 + T::MIN_FIELDS;
    #[inline]
    fn put(&self, out: &mut Vec<u8>) -> Result<(), FrameError> {
        out.push(self.tag());
        self.put_fields(out)
    }
    #[inline(always)]
    fn get(r: &mut Cursor) -> Result<Self, FrameError> {
        let tag = r.u8()?;
        T::get_fields(tag, r)
    }
}

/// The least wire size of the field `field` picks out of an `S`: how the
/// layouts below take a field's type from its hand-written definition.
const fn min_bytes<S, T: Wire>(_field: fn(&S) -> Option<&T>) -> usize {
    T::MIN_BYTES
}

// A number's read is a bounds check and a load; left out of line in a
// large decoder, each one became a call returning a `Result` in memory, so
// number reads and writes, and a tagged union's read, are always inlined.
macro_rules! wire_number {
    ($($ty:ident $put:ident),+) => {$(
        /// Little-endian, through the shared byte codec.
        impl Wire for $ty {
            const MIN_BYTES: usize = std::mem::size_of::<$ty>();
            #[inline(always)]
            fn put(&self, out: &mut Vec<u8>) -> Result<(), FrameError> {
                $put(out, *self);
                Ok(())
            }
            #[inline(always)]
            fn get(r: &mut Cursor) -> Result<Self, FrameError> {
                Ok(r.$ty()?)
            }
        }
    )+};
}

wire_number!(u16 put_u16, u32 put_u32, u64 put_u64, f64 put_f64);

/// A flag: a `u16` that is 0 or 1.
impl Wire for bool {
    const MIN_BYTES: usize = u16::MIN_BYTES;
    fn put(&self, out: &mut Vec<u8>) -> Result<(), FrameError> {
        u16::from(*self).put(out)
    }
    fn get(r: &mut Cursor) -> Result<Self, FrameError> {
        match u16::get(r)? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(FrameError::Malformed(format!(
                "a flag must be 0 or 1, found {other}"
            ))),
        }
    }
}

/// Its `u16` discriminant.
impl Wire for ErrorCode {
    const MIN_BYTES: usize = u16::MIN_BYTES;
    fn put(&self, out: &mut Vec<u8>) -> Result<(), FrameError> {
        (*self as u16).put(out)
    }
    fn get(r: &mut Cursor) -> Result<Self, FrameError> {
        let raw = u16::get(r)?;
        ErrorCode::from_u16(raw)
            .ok_or_else(|| FrameError::Malformed(format!("unknown error code {raw}")))
    }
}

/// Writes a `u32` length or count prefix, refusing one the wire cannot
/// carry.
fn put_len(out: &mut Vec<u8>, len: usize) -> Result<(), FrameError> {
    u32::try_from(len)
        .map_err(|_| FrameError::Unencodable(format!("{len} items exceed a u32 count")))?
        .put(out)
}

/// Text: a `u32` byte length, then UTF-8.
impl Wire for String {
    const MIN_BYTES: usize = u32::MIN_BYTES;
    fn put(&self, out: &mut Vec<u8>) -> Result<(), FrameError> {
        put_len(out, self.len())?;
        out.extend_from_slice(self.as_bytes());
        Ok(())
    }
    fn get(r: &mut Cursor) -> Result<Self, FrameError> {
        let len = u32::get(r)?;
        Ok(r.text(len as usize)?)
    }
}

/// A list: a `u32` count, then the items, read into one allocation once
/// the count is known to fit. The read stays out of line: in its own frame
/// the cursor is a `&mut` whose fields the item loop keeps in registers,
/// where inlined into [`decode_payload`] it is reloaded from the stack on
/// every item (a 60-state RELEASE decoded ≈ 20 ns slower).
impl<T: Wire> Wire for Vec<T> {
    const MIN_BYTES: usize = u32::MIN_BYTES;
    #[inline]
    fn put(&self, out: &mut Vec<u8>) -> Result<(), FrameError> {
        put_len(out, self.len())?;
        for item in self {
            item.put(out)?;
        }
        Ok(())
    }
    #[inline(never)]
    fn get(r: &mut Cursor) -> Result<Self, FrameError> {
        let declared = u32::get(r)?;
        let count = r.count(declared.into(), T::MIN_BYTES)?;
        let mut items = Vec::with_capacity(count);
        for _ in 0..count {
            items.push(T::get(r)?);
        }
        Ok(items)
    }
}

/// Structs' layouts: per struct, its fields in wire order.
macro_rules! wire_struct {
    ($($ty:ident { $($field:ident),+ $(,)? };)+) => {$(
        impl Wire for $ty {
            const MIN_BYTES: usize = 0 $(+ min_bytes(|value: &$ty| Some(&value.$field)))+;
            #[inline]
            fn put(&self, out: &mut Vec<u8>) -> Result<(), FrameError> {
                $(self.$field.put(out)?;)+
                Ok(())
            }
            #[inline]
            fn get(r: &mut Cursor) -> Result<Self, FrameError> {
                Ok($ty { $($field: Wire::get(r)?),+ })
            }
        }
    )+};
}

/// A tagged union's layout: per variant, its tag and its fields in wire
/// order, `Name(field)` for a one-field tuple variant and `Name {}` for a
/// variant without fields; `$unknown` maps a tag no variant has to its
/// error.
macro_rules! wire_union {
    ($ty:ident, $unknown:expr; $($tag:literal => $variant:ident $fields:tt),+ $(,)?) => {
        impl Tagged for $ty {
            const MIN_FIELDS: usize = {
                let mut min = usize::MAX;
                $(
                    let fields = wire_union!(@min $ty $variant $fields);
                    if fields < min {
                        min = fields;
                    }
                )+
                min
            };
            #[inline]
            fn tag(&self) -> u8 {
                match self {
                    $($ty::$variant { .. } => $tag,)+
                }
            }
            #[inline]
            fn put_fields(&self, out: &mut Vec<u8>) -> Result<(), FrameError> {
                match self {
                    $(
                        wire_union!(@pattern $ty $variant $fields) =>
                            wire_union!(@put out $fields),
                    )+
                }
                Ok(())
            }
            #[inline(always)]
            fn get_fields(tag: u8, r: &mut Cursor) -> Result<Self, FrameError> {
                Ok(match tag {
                    $($tag => wire_union!(@get r $ty $variant $fields),)+
                    other => return Err($unknown(other)),
                })
            }
        }
    };
    (@pattern $ty:ident $variant:ident { $($field:ident),* }) => { $ty::$variant { $($field),* } };
    (@pattern $ty:ident $variant:ident ($field:ident)) => { $ty::$variant($field) };
    (@put $out:ident { $($field:ident),* }) => {{ $($field.put($out)?;)* }};
    (@put $out:ident ($field:ident)) => { $field.put($out)? };
    (@get $r:ident $ty:ident $variant:ident { $($field:ident),* }) => {
        $ty::$variant { $($field: Wire::get($r)?),* }
    };
    (@get $r:ident $ty:ident $variant:ident ($field:ident)) => { $ty::$variant(Wire::get($r)?) };
    (@min $ty:ident $variant:ident { $($field:ident),* }) => {
        0 $(+ min_bytes(|value: &$ty| {
            if let $ty::$variant { $field, .. } = value { Some($field) } else { None }
        }))*
    };
    (@min $ty:ident $variant:ident ($field:ident)) => {
        min_bytes(|value: &$ty| if let $ty::$variant($field) = value { Some($field) } else { None })
    };
}

// The wire's layout table: every frame kind's code and the fields of every
// value it carries, in wire order.

wire_union! {
    Frame, |found| FrameError::UnknownKind { found };
    0x01 => Hello { tenant },
    0x02 => Release { user, query, epsilon, seed, database },
    0x03 => Query { user, table, statement, seed },
    0x04 => Stats {},
    0x05 => Goodbye {},
    0x06 => Metrics {},
    0x07 => Progressive { user, confidence, seed, steps, database },
    0x81 => HelloOk { max_pipeline, max_frame_len },
    0x82 => ReleaseOk { scale, values },
    0x83 => QueryOk(result),
    0x84 => StatsOk(stats),
    0x85 => Busy { retry_hint_ms },
    0x86 => BudgetExhausted { requested, remaining },
    0x87 => Error { code, message },
    0x88 => MetricsOk(metrics),
    0x89 => RefineOk {
        step, total_steps, prefix, scale, epsilon, certified_error, spent_epsilon, values
    },
}

wire_union! {
    WireQuery, |tag| FrameError::Malformed(format!("unknown query tag {tag}"));
    0 => StateFrequency { state, length },
    1 => StateCount { state, length },
    2 => Histogram { num_states, length },
    3 => RangeCount { lo, hi, num_states, length },
    4 => MeanState { num_states, length },
}

wire_union! {
    WireMetricValue, |tag| FrameError::Malformed(format!("unknown metric kind {tag}"));
    0 => Counter(value),
    1 => Gauge(value),
    2 => Histogram { count, max, mean, p50, p99, p999 },
}

wire_struct! {
    WireRefinementStep { prefix, epsilon, error_bound };
    WireQueryResult { mechanism, noise_scale, total_epsilon, cells };
    WireCell { key, windows };
    WireWindow { end, values };
    WireMetric { name, value };
    WireStats {
        hits, misses, coalesced, cached_calibrations, queue_depth, queue_capacity,
        queue_refusals, queue_high_water, served, users, spent_epsilon,
        monitor_noise_tests, monitor_noise_failures, drift_windows, drift_score, drifted,
        recalibrations,
    };
}

// ---------------------------------------------------------------------------
// Encoding and decoding
// ---------------------------------------------------------------------------

/// Encodes one envelope into its full wire representation (length prefix
/// included).
///
/// # Errors
/// [`FrameError::Unencodable`] when the encoded frame would exceed
/// `max_frame_len` or a field cannot be represented on the wire.
pub fn encode(envelope: &Envelope, max_frame_len: u32) -> Result<Vec<u8>, FrameError> {
    let mut out = Vec::with_capacity(64);
    put_u32(&mut out, 0); // patched below
    put_u32(&mut out, MAGIC);
    out.push(VERSION);
    out.push(envelope.frame.tag());
    put_u64(&mut out, envelope.seq);
    envelope.frame.put_fields(&mut out)?;

    let frame_len = out.len() - 4;
    let declared = u32::try_from(frame_len)
        .map_err(|_| FrameError::Unencodable(format!("frame of {frame_len} bytes")))?;
    if declared > max_frame_len {
        return Err(FrameError::Unencodable(format!(
            "frame of {declared} bytes exceeds the maximum {max_frame_len}"
        )));
    }
    out[..4].copy_from_slice(&declared.to_le_bytes());
    Ok(out)
}

impl From<CodecError> for FrameError {
    /// A payload holds its declared length, so a field past its end is
    /// malformed, not [`FrameError::Truncated`]. Kept out of line: every
    /// field read carries this conversion on its error path.
    #[cold]
    #[inline(never)]
    fn from(error: CodecError) -> Self {
        FrameError::Malformed(error.to_string())
    }
}

/// The payload length a frame's prefix declares, refused past
/// `max_frame_len` or short of the header.
pub(crate) fn payload_len(prefix: [u8; 4], max_frame_len: u32) -> Result<usize, FrameError> {
    let declared = u32::from_le_bytes(prefix);
    if declared > max_frame_len {
        return Err(FrameError::Oversized {
            declared,
            max: max_frame_len,
        });
    }
    let len = declared as usize;
    if len < HEADER_LEN {
        return Err(FrameError::Malformed(format!(
            "declared length {len} is shorter than the {HEADER_LEN}-byte header"
        )));
    }
    Ok(len)
}

/// Decodes one envelope from the front of `buf`, returning it and the
/// number of bytes consumed.
///
/// # Errors
/// [`FrameError::Truncated`] when `buf` does not yet hold a complete frame
/// (streaming callers read more and retry); [`FrameError::Oversized`] when
/// the declared length exceeds `max_frame_len`; the other variants for
/// structurally broken frames.
pub fn decode(buf: &[u8], max_frame_len: u32) -> Result<(Envelope, usize), FrameError> {
    let truncated = |needed| FrameError::Truncated {
        needed,
        available: buf.len(),
    };
    let prefix = *buf.first_chunk::<4>().ok_or_else(|| truncated(4))?;
    let end = 4 + payload_len(prefix, max_frame_len)?;
    let payload = buf.get(4..end).ok_or_else(|| truncated(end))?;
    Ok((decode_payload(payload)?, end))
}

/// Decodes a frame payload (everything after the length prefix).
///
/// # Errors
/// As for [`decode`], minus the length-prefix checks: the payload is taken
/// to be complete, so it never reports [`FrameError::Truncated`].
pub fn decode_payload(payload: &[u8]) -> Result<Envelope, FrameError> {
    let mut r = Cursor::new(payload);
    let magic = r.u32()?;
    if magic != MAGIC {
        return Err(FrameError::BadMagic { found: magic });
    }
    let version = r.u8()?;
    if version != VERSION {
        return Err(FrameError::UnsupportedVersion { found: version });
    }
    let kind = r.u8()?;
    let seq = r.u64()?;
    let frame = Frame::get_fields(kind, &mut r)?;
    if r.remaining() != 0 {
        return Err(FrameError::Malformed(format!(
            "{} trailing bytes after the frame body",
            r.remaining()
        )));
    }
    Ok(Envelope { seq, frame })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(frame: Frame) -> Envelope {
        let envelope = Envelope { seq: 42, frame };
        let bytes = encode(&envelope, DEFAULT_MAX_FRAME_LEN).unwrap();
        let (decoded, consumed) = decode(&bytes, DEFAULT_MAX_FRAME_LEN).unwrap();
        assert_eq!(consumed, bytes.len());
        assert_eq!(decoded, envelope);
        decoded
    }

    #[test]
    fn every_frame_kind_round_trips() {
        round_trip(Frame::Hello {
            tenant: "load-α".to_string(),
        });
        round_trip(
            Frame::release(
                7,
                WireQuery::StateFrequency {
                    state: 1,
                    length: 60,
                },
                &[0, 1, 1, 0],
                0.5,
                99,
            )
            .unwrap(),
        );
        round_trip(Frame::Query {
            user: 3,
            table: "sensor".to_string(),
            statement: "HISTOGRAM WINDOW 30 EPSILON 0.2".to_string(),
            seed: 5,
        });
        round_trip(
            Frame::progressive(
                9,
                0.95,
                77,
                &[(8, 0.25, 4.0), (16, 0.25, 2.0)],
                &[0, 1, 1, 0, 1, 0, 0, 1, 1, 1, 0, 0, 1, 0, 1, 1],
            )
            .unwrap(),
        );
        round_trip(Frame::Stats);
        round_trip(Frame::Goodbye);
        round_trip(Frame::HelloOk {
            max_pipeline: 128,
            max_frame_len: DEFAULT_MAX_FRAME_LEN,
        });
        round_trip(Frame::ReleaseOk {
            scale: 1.25,
            values: vec![0.5, -0.25, 3.75],
        });
        round_trip(Frame::RefineOk {
            step: 1,
            total_steps: 2,
            prefix: 8,
            scale: 2.5,
            epsilon: 0.25,
            certified_error: 3.75,
            spent_epsilon: 0.25,
            values: vec![4.0, 4.5],
        });
        round_trip(Frame::QueryOk(WireQueryResult {
            mechanism: "mqm".to_string(),
            noise_scale: 0.75,
            total_epsilon: 0.6,
            cells: vec![WireCell {
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
            }],
        }));
        round_trip(Frame::StatsOk(WireStats {
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
        }));
        round_trip(Frame::Metrics);
        round_trip(Frame::MetricsOk(vec![
            WireMetric {
                name: "engine_mqm_approx_cache_hits_total".to_string(),
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
        ]));
        round_trip(Frame::Busy { retry_hint_ms: 2 });
        round_trip(Frame::BudgetExhausted {
            requested: 0.5,
            remaining: 0.25,
        });
        round_trip(Frame::Error {
            code: ErrorCode::Parse,
            message: "no".to_string(),
        });
    }

    #[test]
    fn progressive_builder_refuses_unencodable_inputs() {
        let err = Frame::progressive(0, 0.9, 1, &[(8, 0.1, 1.0)], &[70_000]).unwrap_err();
        assert!(matches!(err, FrameError::Unencodable(_)));
        let err = Frame::progressive(0, 0.9, 1, &[(1 << 40, 0.1, 1.0)], &[0, 1]).unwrap_err();
        assert!(matches!(err, FrameError::Unencodable(_)));
    }

    #[test]
    fn release_builder_refuses_wide_states() {
        let err = Frame::release(
            0,
            WireQuery::StateCount {
                state: 0,
                length: 1,
            },
            &[70_000],
            0.5,
            1,
        )
        .unwrap_err();
        assert!(matches!(err, FrameError::Unencodable(_)));
    }

    #[test]
    fn oversized_declared_length_is_refused_before_reading() {
        let envelope = Envelope {
            seq: 1,
            frame: Frame::Stats,
        };
        let mut bytes = encode(&envelope, DEFAULT_MAX_FRAME_LEN).unwrap();
        bytes[..4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            decode(&bytes, DEFAULT_MAX_FRAME_LEN),
            Err(FrameError::Oversized {
                declared: u32::MAX,
                ..
            })
        ));
        // Encoding against a tiny cap is refused symmetrically.
        assert!(matches!(
            encode(&envelope, 4),
            Err(FrameError::Unencodable(_))
        ));
    }

    #[test]
    fn wire_queries_build_their_core_counterparts() {
        let query = WireQuery::Histogram {
            num_states: 3,
            length: 30,
        }
        .build()
        .unwrap();
        assert_eq!(query.output_dimension(), 3);
        assert_eq!(query.expected_length(), 30);
        // Invalid parameters surface as typed core errors, not panics.
        assert!(WireQuery::RangeCount {
            lo: 5,
            hi: 2,
            num_states: 6,
            length: 10
        }
        .build()
        .is_err());
    }

    #[test]
    fn error_codes_round_trip_and_reject_unknowns() {
        for code in [
            ErrorCode::Malformed,
            ErrorCode::NotHello,
            ErrorCode::Mechanism,
            ErrorCode::TableNotFound,
            ErrorCode::Parse,
            ErrorCode::Shutdown,
            ErrorCode::TooManyConnections,
            ErrorCode::Unsupported,
            ErrorCode::Internal,
        ] {
            assert_eq!(ErrorCode::from_u16(code as u16), Some(code));
            assert!(!code.to_string().is_empty());
        }
        assert_eq!(ErrorCode::from_u16(0), None);
        assert_eq!(ErrorCode::from_u16(999), None);
    }

    #[test]
    fn list_guards_take_their_item_sizes_from_the_layout() {
        assert_eq!(WireRefinementStep::MIN_BYTES, 20);
        assert_eq!(WireCell::MIN_BYTES, 8);
        assert_eq!(WireWindow::MIN_BYTES, 8);
        assert_eq!(WireMetric::MIN_BYTES, 13);
        assert_eq!(<f64 as Wire>::MIN_BYTES, 8);
        assert_eq!(<u16 as Wire>::MIN_BYTES, 2);
    }

    #[test]
    fn nan_values_survive_bit_for_bit() {
        let payload = vec![f64::NAN, f64::INFINITY, -0.0];
        let envelope = Envelope {
            seq: 0,
            frame: Frame::ReleaseOk {
                scale: 1.0,
                values: payload.clone(),
            },
        };
        let bytes = encode(&envelope, DEFAULT_MAX_FRAME_LEN).unwrap();
        let (decoded, _) = decode(&bytes, DEFAULT_MAX_FRAME_LEN).unwrap();
        let Frame::ReleaseOk { values, .. } = decoded.frame else {
            panic!("wrong frame kind");
        };
        for (a, b) in payload.iter().zip(&values) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }
}
