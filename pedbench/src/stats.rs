//! Order statistics and the per-run op recorder.

use std::time::Instant;

/// Quantile `q` in [0, 1] by linear interpolation between closest ranks
/// (the same rule as Python's `statistics.quantiles(method="inclusive")`).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// What one run did, accumulated op by op. Only ops of the workload's main
/// configuration feed latency, throughput and CPU; companion ops (the
/// serial half of a pair, the other client count) only feed ratios.
#[derive(Debug, Default)]
pub struct Recorder {
    /// Ops started (main and companion).
    pub attempted: u64,
    /// Ops whose result failed verification, or that panicked.
    pub failed: u64,
    /// First few failure messages, for the diagnostics line.
    pub failures: Vec<String>,
    /// Latency of every untraced main-configuration op, in ms.
    pub lat_ms: Vec<f64>,
    /// Untraced main-configuration ops completed and verified.
    pub main_ops: u64,
    /// Wall seconds spent in untraced main-configuration phases.
    pub main_wall_s: f64,
    /// Process CPU seconds spent in those phases.
    pub main_cpu_s: f64,
    /// Traced main-configuration ops and wall seconds (traced run only).
    pub traced_ops: u64,
    pub traced_wall_s: f64,
    /// Every op of a traced pair, companions included: the ops the
    /// recorded spans belong to.
    pub traced_all_ops: u64,
    /// Per-pair ratios: main-configuration speed over companion speed.
    pub pair_ratios: Vec<f64>,
    /// Client-driven workloads: summed seconds per op of the one-client
    /// and the two-client phases of every pair.
    pub pair_secs: [f64; 2],
}

impl Recorder {
    pub fn fail(&mut self, msg: String) {
        self.failed += 1;
        if self.failures.len() < 8 {
            self.failures.push(msg);
        }
    }

    /// Untraced main-configuration throughput, ops per second.
    pub fn throughput(&self) -> f64 {
        self.main_ops as f64 / self.main_wall_s
    }

    /// Two-client over one-client throughput, as the ratio of their mean
    /// seconds per op over all pairs: a mean over the run, so a few slow
    /// pairs move it in proportion instead of flipping a median.
    pub fn pair_speedup(&self) -> f64 {
        self.pair_secs[0] / self.pair_secs[1]
    }

    /// Traced main-configuration throughput, ops per second.
    pub fn traced_throughput(&self) -> f64 {
        self.traced_ops as f64 / self.traced_wall_s
    }
}

/// A stopwatch over wall time and process CPU time.
pub struct Stopwatch {
    wall: Instant,
    cpu: f64,
}

impl Stopwatch {
    pub fn start() -> Stopwatch {
        Stopwatch { wall: Instant::now(), cpu: crate::host::cpu_seconds() }
    }

    /// (wall seconds, CPU seconds) since `start`.
    pub fn stop(&self) -> (f64, f64) {
        (self.wall.elapsed().as_secs_f64(), crate::host::cpu_seconds() - self.cpu)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let v = [4.0, 1.0, 3.0, 2.0, 5.0];
        assert_eq!(median(&v), 3.0);
        assert_eq!(quantile(&v, 0.25), 2.0);
        assert!((quantile(&[1.0, 2.0], 0.9) - 1.9).abs() < 1e-12);
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
    }
}
