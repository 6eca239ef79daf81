//! The four workloads and the paired-phase runner two of them share.

pub mod campaign;
pub mod edit;
pub mod parallel;
pub mod serve;

use crate::stats::{Recorder, Stopwatch};
use crate::trace;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

/// Run `f`, turning a panic into an error so one bad op never ends the run.
pub fn guarded<R>(f: impl FnOnce() -> Result<R, String>) -> Result<R, String> {
    match catch_unwind(AssertUnwindSafe(f)) {
        Ok(r) => r,
        Err(p) => Err(format!(
            "panic: {}",
            p.downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| p.downcast_ref::<&str>().copied())
                .unwrap_or("?")
        )),
    }
}

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 9;

/// Median over `reps` runs of a set-up, keeping the last one's state.
pub fn repeated_setup<S>(
    reps: usize,
    mut f: impl FnMut() -> Result<S, String>,
) -> Result<(S, Vec<f64>), String> {
    let mut times = Vec::new();
    let mut last = None;
    for _ in 0..reps {
        // Drop the previous state first so each set-up starts alike.
        drop(last.take());
        let t = Instant::now();
        let s = f()?;
        times.push(t.elapsed().as_secs_f64());
        last = Some(s);
    }
    Ok((last.expect("at least one set-up"), times))
}

/// A closed-loop client: it sends its next op when the previous returns.
pub trait Client: Send {
    /// Start a phase of pair `pair`. Both phases of a pair, and every
    /// client of a phase, replay the same op plan.
    fn rewind(&mut self, pair: usize);

    /// One op, verified. An `Err` is a failed op.
    fn op(&mut self) -> Result<(), String>;
}

/// Seed of pair `k` of a run with benchmark seed `seed`.
pub fn pair_seed(seed: u64, k: usize) -> u64 {
    seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ (k as u64).wrapping_mul(0xBF58_476D_1CE4_E5B9)
}

/// One phase: the first `n` clients each run `ops` ops concurrently.
/// Returns (wall s, CPU s, per-op latencies in ms, failure messages).
fn phase<C: Client>(
    clients: &mut [C],
    n: usize,
    ops: usize,
    pair: usize,
) -> (f64, f64, Vec<f64>, Vec<String>) {
    for c in clients[..n].iter_mut() {
        c.rewind(pair);
    }
    let sw = Stopwatch::start();
    let results: Vec<(Vec<f64>, Vec<String>)> = std::thread::scope(|s| {
        let handles: Vec<_> = clients[..n]
            .iter_mut()
            .map(|c| {
                s.spawn(move || {
                    let mut lat = Vec::with_capacity(ops);
                    let mut errs = Vec::new();
                    for _ in 0..ops {
                        let t = Instant::now();
                        match guarded(|| trace::span("bench.op", || c.op())) {
                            Ok(()) => lat.push(t.elapsed().as_secs_f64() * 1e3),
                            Err(e) => errs.push(e),
                        }
                    }
                    (lat, errs)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join().unwrap_or_else(|_| (Vec::new(), vec!["client thread panicked".into()]))
            })
            .collect()
    });
    let (wall, cpu) = sw.stop();
    let mut lat = Vec::new();
    let mut errs = Vec::new();
    for (l, e) in results {
        lat.extend(l);
        errs.extend(e);
    }
    (wall, cpu, lat, errs)
}

/// Alternate phases of `main` and `alt` concurrent clients back to back
/// until `seconds` have passed and a round of `round` pairs is complete,
/// switching which goes first every pair.
/// Every phase of a pair replays the same seeded op plan.
/// Main-configuration phases feed latency, throughput and CPU; each pair
/// adds the ratio of two-client to one-client throughput (see
/// [`Recorder::pair_speedup`]). In a traced run every other two rounds are
/// traced.
#[allow(clippy::too_many_arguments)]
pub fn drive_pairs<C: Client>(
    clients: &mut [C],
    main: usize,
    alt: usize,
    ops: usize,
    round: usize,
    seconds: f64,
    traced_run: bool,
    rec: &mut Recorder,
) {
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut k = 0usize;
    while Instant::now() < deadline || k < 4 * round || !k.is_multiple_of(round) {
        let traced = traced_run && (k / (2 * round)) % 2 == 1;
        trace::set_enabled(traced);
        let order = if k.is_multiple_of(2) { [main, alt] } else { [alt, main] };
        let mut tp = [0.0f64; 2];
        for (i, &n) in order.iter().enumerate() {
            let (wall, cpu, lat, errs) = phase(clients, n, ops, k);
            rec.attempted += (n * ops) as u64;
            let ok = lat.len() as u64;
            for e in errs {
                rec.fail(e);
            }
            tp[i] = ok as f64 / wall;
            if traced {
                rec.traced_all_ops += ok;
            }
            if n == main {
                if traced {
                    rec.traced_ops += ok;
                    rec.traced_wall_s += wall;
                } else {
                    rec.main_ops += ok;
                    rec.main_wall_s += wall;
                    rec.main_cpu_s += cpu;
                    rec.lat_ms.extend(lat);
                }
            }
        }
        let (tp_main, tp_alt) = if k.is_multiple_of(2) { (tp[0], tp[1]) } else { (tp[1], tp[0]) };
        let (two, one) = if main > alt { (tp_main, tp_alt) } else { (tp_alt, tp_main) };
        rec.pair_ratios.push(two / one);
        rec.pair_secs[0] += 1.0 / one;
        rec.pair_secs[1] += 1.0 / two;
        k += 1;
    }
    trace::set_enabled(false);
}
