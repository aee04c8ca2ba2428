//! Live instrumentation for the serving front-end.
//!
//! A [`ServiceTelemetry`] bundles everything the service records per
//! request: the shared `stage_*_ns` histogram family (admission and the
//! worker's queue-wait / engine / mechanism stages; the network front-end
//! laps decode / encode / progressive into the same family), admission
//! counters, the queue-depth gauge, and an optional flight recorder for
//! slow requests.
//! All handles are resolved once at construction — attaching telemetry to a
//! running service adds one relaxed atomic op per recorded event to the hot
//! path, nothing more (see the registry's cost contract).

use std::sync::Arc;

use pufferfish_telemetry::{Counter, FlightRecorder, Gauge, Registry, StageHistograms};

/// The serving layer's resolved metric handles, shared by the admission
/// path (the admission stage and refusals) and every thread that serves an
/// admitted release (everything else — each one is counted and staged by
/// the worker, or the caller holding it, that serves it, on the trace the
/// request carries).
///
/// Metric names: `service_admitted_total`, `service_refused_total` (budget
/// *and* queue refusals — every release submission a caller saw fail),
/// `queue_depth`, and the six `stage_*_ns` histograms. A task queued
/// through [`ReleaseService::try_spawn`](crate::ReleaseService::try_spawn)
/// is in no counter or stage here; only the `queue_depth` gauge, which
/// reads the queue each time a worker takes an item or a holder serves its
/// release, counts it.
#[derive(Debug)]
pub struct ServiceTelemetry {
    registry: Arc<Registry>,
    stages: StageHistograms,
    admitted: Counter,
    refused: Counter,
    queue_depth: Gauge,
    recorder: Option<Arc<FlightRecorder>>,
}

impl ServiceTelemetry {
    /// Resolves every handle against `registry`, without a flight recorder.
    pub fn new(registry: Arc<Registry>) -> Self {
        Self::build(registry, None)
    }

    /// [`ServiceTelemetry::new`] plus a flight recorder: finished in-process
    /// request traces are offered to it (the network front-end offers its
    /// own traces after the encode stage instead).
    pub fn with_recorder(registry: Arc<Registry>, recorder: Arc<FlightRecorder>) -> Self {
        Self::build(registry, Some(recorder))
    }

    fn build(registry: Arc<Registry>, recorder: Option<Arc<FlightRecorder>>) -> Self {
        let stages = StageHistograms::register(&registry, "stage");
        let admitted = registry.counter("service_admitted_total");
        let refused = registry.counter("service_refused_total");
        let queue_depth = registry.gauge("queue_depth");
        ServiceTelemetry {
            registry,
            stages,
            admitted,
            refused,
            queue_depth,
            recorder,
        }
    }

    /// The registry the handles live in.
    pub fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }

    /// The shared `stage_*_ns` histogram family.
    pub fn stages(&self) -> &StageHistograms {
        &self.stages
    }

    /// Submissions that passed admission (budget and queue).
    pub fn admitted(&self) -> &Counter {
        &self.admitted
    }

    /// Submissions refused at admission — budget exhaustion or a full
    /// queue, both of which a caller observed as an error.
    pub fn refused(&self) -> &Counter {
        &self.refused
    }

    /// Last observed admission-queue depth.
    pub fn queue_depth(&self) -> &Gauge {
        &self.queue_depth
    }

    /// The attached flight recorder, if any.
    pub fn recorder(&self) -> Option<&Arc<FlightRecorder>> {
        self.recorder.as_ref()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pufferfish_telemetry::Stage;

    #[test]
    fn handles_resolve_once_and_share_the_registry() {
        let registry = Arc::new(Registry::new());
        let telemetry = ServiceTelemetry::new(Arc::clone(&registry));
        telemetry.admitted().inc();
        telemetry.refused().inc();
        telemetry.queue_depth().set(5);
        telemetry.stages().record(Stage::QueueWait, 1_000);
        telemetry.stages().record(Stage::Engine, 2_000);
        // Six stage histograms + two counters + one gauge.
        assert_eq!(registry.len(), Stage::COUNT + 3);
        let text = registry.render_text();
        assert!(text.contains("service_admitted_total counter 1"));
        assert!(text.contains("service_refused_total counter 1"));
        assert!(text.contains("queue_depth gauge 5"));
        assert!(text.contains("stage_queue_wait_ns histogram count=1"));
        assert!(telemetry.recorder().is_none());
    }

    #[test]
    fn recorder_attaches() {
        let registry = Arc::new(Registry::new());
        let recorder = Arc::new(FlightRecorder::new(4, 0));
        let telemetry = ServiceTelemetry::with_recorder(registry, Arc::clone(&recorder));
        assert!(Arc::ptr_eq(
            telemetry.recorder().expect("recorder attached"),
            &recorder
        ));
    }
}
