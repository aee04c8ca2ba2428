//! Per-request tracing: stage histograms, per-request traces, and a
//! ring-buffer flight recorder for slow requests.
//!
//! A request's life through the serving stack is a fixed pipeline of
//! [`Stage`]s: decode → admission → queue wait → engine → mechanism sample
//! → encode. The request carries its own [`RequestTrace`], an owned value
//! that is both its clock and its per-stage breakdown, and moves with it
//! from thread to thread. Whichever thread owns the request at a stage
//! boundary calls [`StageHistograms::lap`], which ends the stage on the
//! trace and records it into the stage's registry histogram. No thread
//! shares a trace, so it needs no lock and no atomics, and no thread-local
//! state can leak between requests that share a worker.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use crate::registry::{HistogramHandle, Registry};

/// The pipeline stages a request passes through, in order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// Wire-frame decoding on the connection reader.
    Decode,
    /// Admission control: budget spend plus queue push.
    Admission,
    /// Time between admission and a worker picking the request up.
    QueueWait,
    /// Engine lookup: cache probe and (on a miss) calibration.
    Engine,
    /// Mechanism sampling: query evaluation plus Laplace noise.
    Mechanism,
    /// Response encoding and socket write on the connection writer.
    Encode,
    /// Progressive-release refinement: one scheduled refinement step of an
    /// anytime answer stream (calibration + release of a window prefix).
    Progressive,
}

impl Stage {
    /// Number of stages.
    pub const COUNT: usize = 7;

    /// Every stage, in pipeline order. [`Stage::Progressive`] sits last:
    /// it is an out-of-band stage (refinements run beside the pipeline, not
    /// inside it), so appending keeps every existing stage index stable.
    pub const ALL: [Stage; Stage::COUNT] = [
        Stage::Decode,
        Stage::Admission,
        Stage::QueueWait,
        Stage::Engine,
        Stage::Mechanism,
        Stage::Encode,
        Stage::Progressive,
    ];

    /// The stage's metric-name segment.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Stage::Decode => "decode",
            Stage::Admission => "admission",
            Stage::QueueWait => "queue_wait",
            Stage::Engine => "engine",
            Stage::Mechanism => "mechanism",
            Stage::Encode => "encode",
            Stage::Progressive => "progressive",
        }
    }

    fn index(self) -> usize {
        match self {
            Stage::Decode => 0,
            Stage::Admission => 1,
            Stage::QueueWait => 2,
            Stage::Engine => 3,
            Stage::Mechanism => 4,
            Stage::Encode => 5,
            Stage::Progressive => 6,
        }
    }
}

/// The per-stage latency histograms of one pipeline, resolved once at
/// construction (see the registry's hot-path contract).
///
/// Two components registering against the same registry and prefix share
/// the same histograms, so every stage of a request lands in one
/// `stage_*_ns` family whichever thread laps it.
#[derive(Debug, Clone)]
pub struct StageHistograms {
    stages: [HistogramHandle; Stage::COUNT],
}

impl StageHistograms {
    /// Registers (or resolves) the `{prefix}_{stage}_ns` histogram for every
    /// stage.
    pub fn register(registry: &Registry, prefix: &str) -> Self {
        StageHistograms {
            stages: Stage::ALL
                .map(|stage| registry.histogram(&format!("{prefix}_{}_ns", stage.name()))),
        }
    }

    /// Records a measured duration of `stage`, in nanoseconds.
    pub fn record(&self, stage: Stage, nanos: u64) {
        self.stages[stage.index()].record(nanos);
    }

    /// Ends `stage` on `trace` now (see [`RequestTrace::lap`]) and records
    /// its duration into the stage's histogram: one clock read per stage
    /// boundary.
    pub fn lap(&self, trace: &mut RequestTrace, stage: Stage) {
        self.record(stage, trace.lap(stage));
    }

    /// The histogram behind `stage`.
    #[must_use]
    pub fn handle(&self, stage: Stage) -> &HistogramHandle {
        &self.stages[stage.index()]
    }
}

/// One request's clock and per-stage timing.
///
/// The trace is a plain value that moves with its request: connection
/// reader, admission, queue, worker, reply, connection writer. Its clock
/// runs from the last stage boundary, so each [`RequestTrace::lap`] ends
/// one stage and starts the next with a single clock read. Time between
/// stages that no one times (a hand-off between threads) is skipped with
/// [`RequestTrace::restart`].
#[derive(Debug, Clone)]
pub struct RequestTrace {
    seq: u64,
    started: Instant,
    stages: [u64; Stage::COUNT],
}

impl RequestTrace {
    /// A trace for the request with wire sequence number (or in-process
    /// seed) `seq`, whose clock starts now.
    #[must_use]
    pub fn new(seq: u64) -> Self {
        Self::started_at(seq, Instant::now())
    }

    /// A trace whose clock started at `started` (a stage already under way
    /// when the request's identity became known).
    #[must_use]
    pub fn started_at(seq: u64, started: Instant) -> Self {
        RequestTrace {
            seq,
            started,
            stages: [0; Stage::COUNT],
        }
    }

    /// Restarts the clock now, leaving the time since the last boundary
    /// out of every stage.
    pub fn restart(&mut self) {
        self.started = Instant::now();
    }

    /// Ends `stage` now: adds the time since the clock last started to the
    /// stage, restarts the clock, and returns the stage's nanoseconds.
    pub fn lap(&mut self, stage: Stage) -> u64 {
        let now = Instant::now();
        let nanos = u64::try_from(now.duration_since(self.started).as_nanos()).unwrap_or(u64::MAX);
        self.started = now;
        self.record(stage, nanos);
        nanos
    }

    /// Adds `nanos` to `stage` (accumulating, so a retried stage sums).
    pub fn record(&mut self, stage: Stage, nanos: u64) {
        let slot = &mut self.stages[stage.index()];
        *slot = slot.saturating_add(nanos);
    }

    /// The request identifier the trace was created with.
    #[must_use]
    pub fn seq(&self) -> u64 {
        self.seq
    }

    /// The per-stage nanoseconds recorded so far, in [`Stage::ALL`] order.
    #[must_use]
    pub fn stage_nanos(&self) -> [u64; Stage::COUNT] {
        self.stages
    }

    /// Total nanoseconds across every stage.
    #[must_use]
    pub fn total_nanos(&self) -> u64 {
        self.stages
            .iter()
            .fold(0u64, |sum, &ns| sum.saturating_add(ns))
    }
}

/// One finished trace, frozen for the flight recorder.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceReport {
    /// The request's wire sequence number (or in-process seed).
    pub seq: u64,
    /// Total nanoseconds across every stage.
    pub total_ns: u64,
    /// Per-stage nanoseconds, in [`Stage::ALL`] order.
    pub stages: [u64; Stage::COUNT],
}

impl std::fmt::Display for TraceReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "seq={} total={}ns", self.seq, self.total_ns)?;
        for (stage, ns) in Stage::ALL.iter().zip(&self.stages) {
            write!(f, " {}={}ns", stage.name(), ns)?;
        }
        Ok(())
    }
}

/// A ring buffer of the last N *slow* requests' stage breakdowns.
///
/// Every finished [`RequestTrace`] is offered via
/// [`FlightRecorder::observe`]; traces whose total meets the threshold are
/// kept (evicting the oldest beyond `capacity`), the rest cost one atomic
/// increment. This answers the question percentiles cannot: *which* stage
/// made this particular slow request slow.
#[derive(Debug)]
pub struct FlightRecorder {
    threshold_ns: u64,
    capacity: usize,
    observed: AtomicU64,
    captured: AtomicU64,
    slow: Mutex<VecDeque<TraceReport>>,
}

impl FlightRecorder {
    /// A recorder keeping the last `capacity` traces at or above
    /// `threshold_ns` total (capacity clamped to ≥ 1).
    #[must_use]
    pub fn new(capacity: usize, threshold_ns: u64) -> Self {
        FlightRecorder {
            threshold_ns,
            capacity: capacity.max(1),
            observed: AtomicU64::new(0),
            captured: AtomicU64::new(0),
            slow: Mutex::new(VecDeque::new()),
        }
    }

    /// Offers one finished trace.
    pub fn observe(&self, trace: &RequestTrace) {
        self.observed.fetch_add(1, Ordering::Relaxed);
        let total_ns = trace.total_nanos();
        if total_ns < self.threshold_ns {
            return;
        }
        self.captured.fetch_add(1, Ordering::Relaxed);
        let report = TraceReport {
            seq: trace.seq(),
            total_ns,
            stages: trace.stage_nanos(),
        };
        let mut slow = self.slow.lock().expect("flight recorder poisoned");
        if slow.len() == self.capacity {
            slow.pop_front();
        }
        slow.push_back(report);
    }

    /// Traces offered so far.
    pub fn observed(&self) -> u64 {
        self.observed.load(Ordering::Relaxed)
    }

    /// Traces that met the threshold (including ones since evicted).
    pub fn captured(&self) -> u64 {
        self.captured.load(Ordering::Relaxed)
    }

    /// The retained slow traces, oldest first.
    pub fn reports(&self) -> Vec<TraceReport> {
        self.slow
            .lock()
            .expect("flight recorder poisoned")
            .iter()
            .copied()
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_record_into_stage_histograms() {
        let registry = Registry::new();
        let stages = StageHistograms::register(&registry, "stage");
        stages.record(Stage::Engine, 1_000_000);
        let snapshot = stages.handle(Stage::Engine).snapshot();
        assert_eq!(snapshot.count(), 1);
        assert!(snapshot.max() >= 1_000_000, "max {} < 1ms", snapshot.max());
        // Other stages untouched.
        assert_eq!(stages.handle(Stage::Decode).snapshot().count(), 0);
        // The registry sees all six under the prefix.
        assert_eq!(registry.len(), Stage::COUNT);
        assert!(registry.render_text().contains("stage_engine_ns histogram"));
    }

    #[test]
    fn traced_spans_accumulate_into_the_request_trace() {
        let registry = Registry::new();
        let stages = StageHistograms::register(&registry, "stage");
        let mut trace = RequestTrace::new(42);
        stages.record(Stage::Decode, 300);
        trace.record(Stage::Decode, 300);
        stages.record(Stage::QueueWait, 500);
        trace.record(Stage::QueueWait, 500);
        trace.record(Stage::QueueWait, 250);
        let nanos = trace.stage_nanos();
        assert_eq!(nanos[Stage::Decode.index()], 300);
        assert_eq!(nanos[Stage::QueueWait.index()], 750);
        assert_eq!(trace.seq(), 42);
        assert_eq!(trace.total_nanos(), nanos.iter().sum::<u64>());
    }

    #[test]
    fn laps_end_each_stage_on_the_trace_and_in_its_histogram() {
        let registry = Registry::new();
        let stages = StageHistograms::register(&registry, "stage");
        let origin = Instant::now();
        let mut trace = RequestTrace::started_at(7, origin);
        std::thread::sleep(std::time::Duration::from_millis(2));
        stages.lap(&mut trace, Stage::Decode);
        let decode = trace.stage_nanos()[Stage::Decode.index()];
        assert!(decode >= 2_000_000, "decode lapped {decode} ns");
        // The lap restarted the clock, so the next stage starts after it.
        let engine = trace.lap(Stage::Engine);
        assert!(engine <= origin.elapsed().as_nanos() as u64 - decode);
        // A restart leaves the time before it out of every stage.
        std::thread::sleep(std::time::Duration::from_millis(2));
        let restarted = Instant::now();
        trace.restart();
        let mechanism = trace.lap(Stage::Mechanism);
        assert!(mechanism <= restarted.elapsed().as_nanos() as u64);
        assert_eq!(trace.total_nanos(), decode + engine + mechanism);
        // Only the histogram lap reached the registry.
        assert_eq!(stages.handle(Stage::Decode).snapshot().count(), 1);
        assert_eq!(stages.handle(Stage::Engine).snapshot().count(), 0);
    }

    #[test]
    fn two_registrants_share_one_stage_family() {
        let registry = Registry::new();
        let worker_side = StageHistograms::register(&registry, "stage");
        let net_side = StageHistograms::register(&registry, "stage");
        worker_side.record(Stage::Engine, 100);
        net_side.record(Stage::Engine, 200);
        assert_eq!(worker_side.handle(Stage::Engine).snapshot().count(), 2);
        assert_eq!(registry.len(), Stage::COUNT);
    }

    #[test]
    fn flight_recorder_keeps_only_slow_traces_bounded() {
        let recorder = FlightRecorder::new(3, 1_000);
        for seq in 0..10u64 {
            let mut trace = RequestTrace::new(seq);
            // Even seqs are fast (below threshold), odd are slow.
            let ns = if seq % 2 == 0 { 10 } else { 2_000 + seq };
            trace.record(Stage::Mechanism, ns);
            recorder.observe(&trace);
        }
        assert_eq!(recorder.observed(), 10);
        assert_eq!(recorder.captured(), 5);
        let reports = recorder.reports();
        // Capacity 3: only the last three slow traces survive (seqs 5, 7, 9).
        assert_eq!(reports.len(), 3);
        assert_eq!(
            reports.iter().map(|r| r.seq).collect::<Vec<_>>(),
            vec![5, 7, 9]
        );
        for report in &reports {
            assert!(report.total_ns >= 1_000);
            let rendered = report.to_string();
            assert!(rendered.contains("mechanism="));
            assert!(rendered.starts_with(&format!("seq={}", report.seq)));
        }
    }

    #[test]
    fn stage_names_cover_the_pipeline_in_order() {
        let names: Vec<&str> = Stage::ALL.iter().map(|s| s.name()).collect();
        assert_eq!(
            names,
            vec![
                "decode",
                "admission",
                "queue_wait",
                "engine",
                "mechanism",
                "encode",
                "progressive"
            ]
        );
        for (position, stage) in Stage::ALL.iter().enumerate() {
            assert_eq!(stage.index(), position);
        }
    }
}
