//! The unified observability snapshot for the serving stack.

use pufferfish_core::CacheStats;

/// Provenance of a warm start: what the calibration snapshot the service
/// loaded at construction looked like, and how stale it is now.
///
/// Reported by [`ServiceStats::snapshot`] when the service was built with
/// [`ReleaseService::warm_start`](crate::ReleaseService::warm_start);
/// `None` for cold-started services. `age_secs` is recomputed at every
/// [`stats`](crate::ReleaseService::stats) call, so dashboards can alert on
/// snapshots growing stale.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SnapshotInfo {
    /// Seconds between the snapshot's export and this stats snapshot.
    pub age_secs: u64,
    /// Calibrations the snapshot restored into the engine.
    pub entries: usize,
    /// Size of the snapshot file in bytes.
    pub bytes: u64,
}

/// Counters of an attached runtime monitor (see the `pufferfish-monitor`
/// crate): the live sign/MAD noise tests, event-drift windows and canary
/// recalibrations. `None` in [`ServiceStats::monitor`] when no observer is
/// attached — the monitor-off service pays nothing for the field.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct MonitorStats {
    /// Sequential sign/MAD noise tests completed so far.
    pub noise_tests: u64,
    /// Noise tests that rejected (miscalibration verdicts).
    pub noise_failures: u64,
    /// Event windows the drift detector has scored.
    pub drift_windows: u64,
    /// The last window's drift score (max bound violation over transition
    /// entries, in units of the detection slack; > 1 means the window
    /// violated the calibrated class bounds).
    pub drift_score: f64,
    /// Whether the drift detector is currently tripped.
    pub drifted: bool,
    /// Canary recalibrations performed (engine swaps).
    pub recalibrations: u64,
}

/// One self-contained snapshot of a serving front-end's observable state:
/// calibration-cache counters, queue occupancy and budget spend, gathered
/// into a single struct so dashboards, examples and the query layer can log
/// one value instead of poking four substructures.
///
/// Produced by [`ReleaseService::stats`](crate::ReleaseService::stats) (all
/// fields populated) and by `pufferfish-query`'s `QueryService::stats`
/// (which has no admission queue, so the queue fields are zero there).
///
/// Like [`CacheStats`], a snapshot taken while requests are in flight is not
/// a cross-field transaction; quiescent values are exact.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ServiceStats {
    /// Calibration-cache counters (hits, misses, coalesced stampedes),
    /// summed over every engine the front-end drives.
    pub cache: CacheStats,
    /// Distinct calibrations currently held in the cache(s).
    pub cached_calibrations: usize,
    /// Items admitted but not yet taken: release requests and the tasks
    /// queued through
    /// [`ReleaseService::try_spawn`](crate::ReleaseService::try_spawn)
    /// alike (the network front-end's PROGRESSIVE requests are such tasks),
    /// plus the warm releases a caller holds to serve itself
    /// ([`ReleaseService::try_submit_or_hold`](crate::ReleaseService::try_submit_or_hold)).
    pub queue_depth: usize,
    /// Capacity of the admission queue (0 when the front-end has none).
    pub queue_capacity: usize,
    /// Submissions the admission queue refused at capacity, requests and
    /// tasks alike — every one a back-pressure event a caller saw
    /// (`QueueFull` in process, a `BUSY` frame over the wire). The signal
    /// to watch when tuning `queue_capacity` and worker count.
    pub queue_refusals: u64,
    /// The deepest the admission queue has ever been, counting requests,
    /// tasks and held releases. A high-water mark at `queue_capacity` means traffic has
    /// touched the refusal threshold.
    pub queue_high_water: usize,
    /// Requests fulfilled so far (successfully or not): releases on the
    /// release service, whose queued tasks are not counted, and queries on
    /// the query front-end.
    pub served: u64,
    /// Users (or streams) with at least one recorded spend.
    pub users: usize,
    /// Composed ε spend summed over all users (each user's Theorem 4.4
    /// guarantee, then summed — an aggregate load signal, not itself a
    /// privacy guarantee).
    pub spent_epsilon: f64,
    /// ε-grid scale-index probes that found an index for the query shape but
    /// got no estimate back (ε outside the grid, or a different query
    /// signature than the index was built for). Every miss silently fell
    /// back to an exact engine probe — cheap schedule search degrading into
    /// full calibrations — so a growing count is the signal to widen the
    /// grid. Zero for front-ends that never probe an index.
    pub indexed_probe_misses: u64,
    /// The warm-start snapshot this front-end loaded, if any (see
    /// [`SnapshotInfo`]).
    pub snapshot: Option<SnapshotInfo>,
    /// Counters of the attached runtime monitor, if any (see
    /// [`MonitorStats`]).
    pub monitor: Option<MonitorStats>,
}

impl ServiceStats {
    /// Total cache lookups (hits + misses).
    pub fn lookups(&self) -> u64 {
        self.cache.hits + self.cache.misses
    }

    /// Fraction of lookups served from the cache (1.0 for an idle service,
    /// where there is nothing to amortise yet).
    pub fn hit_rate(&self) -> f64 {
        let lookups = self.lookups();
        if lookups == 0 {
            1.0
        } else {
            self.cache.hits as f64 / lookups as f64
        }
    }
}

impl std::fmt::Display for ServiceStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "cache {}/{} hit (coalesced {}), {} cached, queue {}/{} \
             (high-water {}, refused {}), served {}, {} users, spent ε = {:.4}",
            self.cache.hits,
            self.lookups(),
            self.cache.coalesced,
            self.cached_calibrations,
            self.queue_depth,
            self.queue_capacity,
            self.queue_high_water,
            self.queue_refusals,
            self.served,
            self.users,
            self.spent_epsilon,
        )?;
        if self.indexed_probe_misses > 0 {
            write!(
                f,
                ", {} indexed-probe misses (exact fallback)",
                self.indexed_probe_misses
            )?;
        }
        if let Some(snapshot) = &self.snapshot {
            write!(
                f,
                ", warm-started from a {}-entry snapshot ({} bytes, {}s old)",
                snapshot.entries, snapshot.bytes, snapshot.age_secs
            )?;
        }
        if let Some(monitor) = &self.monitor {
            write!(
                f,
                ", monitor: {} noise tests ({} failed), {} drift windows \
                 (last score {:.2}{}), {} recalibrations",
                monitor.noise_tests,
                monitor.noise_failures,
                monitor.drift_windows,
                monitor.drift_score,
                if monitor.drifted { ", DRIFTED" } else { "" },
                monitor.recalibrations,
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derived_metrics() {
        let mut stats = ServiceStats::default();
        assert_eq!(stats.lookups(), 0);
        assert_eq!(stats.hit_rate(), 1.0);
        stats.cache = CacheStats {
            hits: 3,
            misses: 1,
            coalesced: 2,
        };
        stats.queue_depth = 4;
        stats.queue_capacity = 16;
        stats.queue_refusals = 9;
        stats.queue_high_water = 12;
        stats.served = 4;
        stats.users = 2;
        stats.spent_epsilon = 1.25;
        assert_eq!(stats.lookups(), 4);
        assert!((stats.hit_rate() - 0.75).abs() < 1e-12);
        let rendered = stats.to_string();
        assert!(rendered.contains("3/4 hit"));
        assert!(rendered.contains("queue 4/16"));
        assert!(rendered.contains("high-water 12"));
        assert!(rendered.contains("refused 9"));
        assert!(rendered.contains("2 users"));
        assert!(!rendered.contains("warm-started"));
        // The indexed-probe counter renders only once a miss happened, so
        // index-free front-ends keep their historical one-line form.
        assert!(!rendered.contains("indexed-probe"));
        stats.indexed_probe_misses = 5;
        assert!(stats
            .to_string()
            .contains("5 indexed-probe misses (exact fallback)"));

        stats.snapshot = Some(SnapshotInfo {
            age_secs: 120,
            entries: 7,
            bytes: 1024,
        });
        let rendered = stats.to_string();
        assert!(rendered.contains("7-entry snapshot"));
        assert!(rendered.contains("1024 bytes"));
        assert!(rendered.contains("120s old"));
        assert!(!rendered.contains("monitor:"));

        stats.monitor = Some(MonitorStats {
            noise_tests: 12,
            noise_failures: 1,
            drift_windows: 30,
            drift_score: 1.75,
            drifted: true,
            recalibrations: 2,
        });
        let rendered = stats.to_string();
        assert!(rendered.contains("12 noise tests (1 failed)"));
        assert!(rendered.contains("30 drift windows"));
        assert!(rendered.contains("last score 1.75, DRIFTED"));
        assert!(rendered.contains("2 recalibrations"));
    }
}
