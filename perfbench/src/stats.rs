//! Small measurement helpers: a fixed-size latency sample, percentiles,
//! hashing for output digests, and the process's peak resident set.

use std::time::{Duration, Instant};

/// SplitMix64 finalizer: the mixing step behind request seeds, identities
/// and output digests.
pub fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// An order-sensitive fold of `words` into one 64-bit fingerprint.
pub fn fold(words: impl IntoIterator<Item = u64>) -> u64 {
    words
        .into_iter()
        .fold(0x243F_6A88_85A3_08D3, |h, w| splitmix64(h ^ w))
}

/// Fingerprint of a string, for folding keys into digests.
pub fn fold_str(s: &str) -> u64 {
    fold(s.as_bytes().chunks(8).map(|c| {
        c.iter()
            .fold(c.len() as u64, |a, &b| (a << 8) | u64::from(b))
    }))
}

/// Nanoseconds in `d`, saturating.
pub fn nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// Nanoseconds since `start`.
pub fn since(start: Instant) -> u64 {
    nanos(start.elapsed())
}

/// A uniform sample of at most `capacity` latencies (Algorithm R with a
/// seeded generator). Its memory does not grow with the request count, so a
/// faster program does not report a larger resident set.
#[derive(Debug, Clone)]
pub struct Reservoir {
    samples: Vec<u64>,
    capacity: usize,
    seen: u64,
    state: u64,
}

/// Samples each latency reservoir keeps.
pub const RESERVOIR: usize = 1 << 13;

impl Reservoir {
    /// An empty reservoir seeded by `seed`.
    pub fn new(seed: u64) -> Self {
        Reservoir {
            samples: Vec::new(),
            capacity: RESERVOIR,
            seen: 0,
            state: seed,
        }
    }

    /// Offers one value.
    pub fn record(&mut self, value: u64) {
        self.seen += 1;
        if self.samples.len() < self.capacity {
            self.samples.push(value);
            return;
        }
        self.state = splitmix64(self.state);
        let slot = self.state % self.seen;
        if (slot as usize) < self.capacity {
            self.samples[slot as usize] = value;
        }
    }

    /// Values offered so far.
    pub fn count(&self) -> u64 {
        self.seen
    }

    /// Merges another reservoir's samples (each keeps its own uniform
    /// sample; the merged set stays representative when the inputs are of
    /// similar size, which holds for connections of one workload).
    pub fn merge(&mut self, other: &Reservoir) {
        self.seen += other.seen;
        self.samples.extend_from_slice(&other.samples);
    }

    /// The `q`-quantile (0..=1) of the sample, in the recorded unit; 0 when
    /// empty.
    pub fn quantile(&self, q: f64) -> f64 {
        quantile(&self.samples, q)
    }
}

/// The `q`-quantile of `values` by linear interpolation between order
/// statistics; 0 when empty.
pub fn quantile(values: &[u64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_unstable();
    let position = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lower = position.floor() as usize;
    let upper = position.ceil() as usize;
    let weight = position - lower as f64;
    sorted[lower] as f64 * (1.0 - weight) + sorted[upper] as f64 * weight
}

/// Median of `values`; 0 when empty.
pub fn median(values: &[u64]) -> f64 {
    quantile(values, 0.5)
}

/// Median of floating-point `values`; 0 when empty.
pub fn median_f64(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Nanoseconds a fixed random walk over an 8 MiB table takes: a probe of
/// how fast the shared host is running this machine right now. The table
/// exceeds the per-core cache, so the walk waits on the shared cache and
/// memory, which is where a busy neighbour slows everything down.
pub fn host_probe_ns() -> u64 {
    static TABLE: std::sync::OnceLock<Vec<u32>> = std::sync::OnceLock::new();
    let table = TABLE.get_or_init(|| {
        // Sattolo's shuffle: one random cycle through every slot, so the
        // walk never settles into a short, cached loop.
        let n = 1usize << 21;
        let mut next: Vec<u32> = (0..n as u32).collect();
        let mut state = 7u64;
        for i in (1..n).rev() {
            state = splitmix64(state);
            next.swap(i, (state % i as u64) as usize);
        }
        next
    });
    let started = Instant::now();
    let mut at = 0u32;
    for _ in 0..50_000 {
        at = table[at as usize];
    }
    std::hint::black_box(at);
    since(started)
}

/// Host-wide CPU time in clock ticks from `/proc/stat`: `(steal, total)`.
/// Steal is time the hypervisor ran something else while this machine's
/// CPUs wanted to run; `(0, 0)` when the platform does not report it.
pub fn cpu_ticks() -> (u64, u64) {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|stat| {
            let line = stat.lines().next()?;
            let fields: Vec<u64> = line
                .split_whitespace()
                .skip(1)
                .filter_map(|f| f.parse().ok())
                .collect();
            let steal = *fields.get(7)?;
            Some((steal, fields.iter().take(8).sum()))
        })
        .unwrap_or((0, 0))
}

/// The process's peak resident set (`VmHWM`) in MiB, or 0 when the
/// platform does not report it.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find(|line| line.starts_with("VmHWM:"))
                .and_then(|line| line.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_order_statistics() {
        assert_eq!(quantile(&[], 0.5), 0.0);
        assert_eq!(median(&[5, 1, 3]), 3.0);
        assert_eq!(median(&[1, 2, 3, 4]), 2.5);
        assert_eq!(quantile(&[0, 100], 0.99), 99.0);
    }

    #[test]
    fn reservoir_memory_is_bounded() {
        let mut reservoir = Reservoir::new(7);
        for v in 0..(RESERVOIR as u64 * 3) {
            reservoir.record(v);
        }
        assert_eq!(reservoir.count(), RESERVOIR as u64 * 3);
        assert_eq!(reservoir.samples.len(), RESERVOIR);
        let p50 = reservoir.quantile(0.5);
        let expected = RESERVOIR as f64 * 1.5;
        assert!((p50 - expected).abs() < expected * 0.05, "p50 {p50}");
    }
}
