//! Minimal benchmark harness (no external dependencies).
//!
//! The bench binaries (`harness = false` targets) need warmup, repeated
//! sampling, and aligned reporting — nothing more. Each [`bench`] call
//! runs the closure once to warm caches, then `samples` times under the
//! wall clock, and reports min / median / mean. Results are printed
//! immediately and returned so a bench can assert on its own measurements
//! (e.g. the pair-cache hit-rate check in `analysis_scale`).

use std::time::Instant;

/// Measured timings of one benchmark, in nanoseconds.
#[derive(Debug, Clone)]
pub struct Stats {
    /// Benchmark label.
    pub name: String,
    /// All sample durations, sorted ascending.
    pub samples_ns: Vec<u128>,
}

impl Stats {
    /// Fastest sample.
    pub fn min_ns(&self) -> u128 {
        *self.samples_ns.first().unwrap_or(&0)
    }

    /// Median sample.
    pub fn median_ns(&self) -> u128 {
        if self.samples_ns.is_empty() {
            return 0;
        }
        self.samples_ns[self.samples_ns.len() / 2]
    }

    /// Arithmetic mean.
    pub fn mean_ns(&self) -> u128 {
        if self.samples_ns.is_empty() {
            return 0;
        }
        self.samples_ns.iter().sum::<u128>() / self.samples_ns.len() as u128
    }
}

/// `(median, min, max)` of a sample set, for benches that gate on the
/// median of interleaved repeats and record its spread. The median of an
/// even count is the mean of the middle two; an empty set gives NaNs.
pub fn spread(xs: &[f64]) -> (f64, f64, f64) {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let Some((&min, &max)) = v.first().zip(v.last()) else {
        return (f64::NAN, f64::NAN, f64::NAN);
    };
    let mid = v.len() / 2;
    let median = if v.len() % 2 == 1 { v[mid] } else { (v[mid - 1] + v[mid]) / 2.0 };
    (median, min, max)
}

/// Human-readable duration.
pub fn fmt_ns(ns: u128) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.3} s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.3} ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.3} µs", ns as f64 / 1e3)
    } else {
        format!("{ns} ns")
    }
}

/// Run one benchmark: a warmup iteration, then `samples` timed iterations.
/// The closure's return value is consumed through [`std::hint::black_box`]
/// so the optimizer cannot delete the measured work.
pub fn bench<T>(name: &str, samples: usize, mut f: impl FnMut() -> T) -> Stats {
    std::hint::black_box(f());
    let mut times = Vec::with_capacity(samples);
    for _ in 0..samples.max(1) {
        let t0 = Instant::now();
        std::hint::black_box(f());
        times.push(t0.elapsed().as_nanos());
    }
    times.sort_unstable();
    let stats = Stats { name: name.to_string(), samples_ns: times };
    println!(
        "{:<44} min {:>12}  median {:>12}  mean {:>12}  ({} samples)",
        stats.name,
        fmt_ns(stats.min_ns()),
        fmt_ns(stats.median_ns()),
        fmt_ns(stats.mean_ns()),
        stats.samples_ns.len(),
    );
    stats
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_measures_and_reports() {
        let s = bench("noop", 5, || 1 + 1);
        assert_eq!(s.samples_ns.len(), 5);
        assert!(s.min_ns() <= s.median_ns());
        assert!(s.median_ns() <= *s.samples_ns.last().unwrap());
    }

    #[test]
    fn spread_is_median_min_max() {
        assert_eq!(spread(&[3.0, 1.0, 2.0]), (2.0, 1.0, 3.0));
        assert_eq!(spread(&[4.0, 1.0, 2.0, 3.0]), (2.5, 1.0, 4.0));
        assert!(spread(&[]).0.is_nan());
    }

    #[test]
    fn fmt_ns_scales() {
        assert_eq!(fmt_ns(500), "500 ns");
        assert!(fmt_ns(1_500).contains("µs"));
        assert!(fmt_ns(2_000_000).contains("ms"));
        assert!(fmt_ns(3_000_000_000).contains(" s"));
    }
}
