//! `parallel-run`: the three E14 kernels at four times E14's trip counts.
//!
//! Each op is one verified `Threads(2)` run of a kernel; a serial run of
//! the same kernel is paired with it, alternating which goes first, so
//! both halves of a pair see the same host regime. Kernels are taken in a
//! seeded order, each round running every kernel once, so the latency
//! distribution keeps a fixed mix. Every run's printed output and final
//! memory must equal the serial bytecode reference bit for bit; set-up also
//! checks that reference against the tree-walking interpreter once per
//! kernel.
//!
//! `speedup_t2` is the geometric mean over kernels of the median per-pair
//! ratio of serial to `Threads(2)` wall time of the kernel's parallel loop
//! (the runtime's own loop profile, as E14 reports it).

use super::{guarded, repeated_setup, SETUP_REPS};
use crate::stats::{geomean, median, Stopwatch};
use crate::trace::{self, span};
use crate::{fnv, Opts, Outcome, FNV_START, KERNELS};
use ped_fortran::{Program, StmtId, StmtKind, UnitKind};
use ped_runtime::{Engine, ExecConfig, Interp, MemorySnapshot, ParallelMode, RunResult};
use ped_workloads::rng::Rng;
use std::time::{Duration, Instant};

/// Kernel source: `name`, trip count `n`, seeded initial-value scale `c`.
fn kernel_src(name: &str, n: usize, c: f64) -> String {
    let c = format!("{c:.6}");
    let body = match name {
        "vscale" => format!(
            "real a(n), b(n)\nreal t\n\
             do i = 1, n\n  a(i) = {c} * i\nenddo\n\
             parallel do i = 1, n lastprivate(t)\n  t = a(i) * 2.0 + 1.0\n  b(i) = t * t + a(i)\nenddo\n\
             print *, b(1), b(n / 2), b(n)\n"
        ),
        "dotred" => format!(
            "real a(n), b(n)\nreal s\n\
             do i = 1, n\n  a(i) = {c} * i\n  b(i) = 1.0 / i\nenddo\n\
             s = 0.0\n\
             parallel do i = 1, n reduction(+:s)\n  s = s + a(i) * b(i)\nenddo\n\
             print *, s\n"
        ),
        _ => format!(
            "real a(n), b(n)\nreal t\n\
             do i = 1, n\n  a(i) = {c} * i\nenddo\n\
             parallel do i = 1, n lastprivate(t, j)\n  t = 0.0\n  do j = 1, i\n    t = t + a(j) * 0.5\n  enddo\n  b(i) = t\nenddo\n\
             print *, b(1), b(n / 2), b(n)\n"
        ),
    };
    format!("program {name}\ninteger n\nparameter (n = {n})\n{body}end\n")
}

/// Trip counts: four times E14's.
fn trips(tiny: bool) -> [usize; 3] {
    if tiny {
        [6_000, 8_000, 120]
    } else {
        [600_000, 800_000, 2_400]
    }
}

struct Kernel {
    name: &'static str,
    program: Program,
    /// Profile key of the kernel's `PARALLEL DO`.
    key: (String, StmtId),
    expect: (Vec<String>, MemorySnapshot),
    source: String,
}

fn config(threads: usize) -> ExecConfig {
    ExecConfig {
        mode: if threads > 1 { ParallelMode::Threads(threads) } else { ParallelMode::Serial },
        ..ExecConfig::default()
    }
}

/// Lower and run `program` once.
fn exec(program: &Program, cfg: ExecConfig) -> Result<(RunResult, MemorySnapshot), String> {
    let interp = span("runtime.lower", || Interp::new(program, cfg)).map_err(|e| e.message)?;
    span("runtime.run", || interp.run_with_memory()).map_err(|e| e.message)
}

fn build(name: &'static str, n: usize, c: f64) -> Result<Kernel, String> {
    let source = kernel_src(name, n, c);
    let program = span("fortran.parse", || ped_fortran::parse_program(&source))
        .map_err(|e| format!("{name}: {e}"))?;
    let unit = program
        .units
        .iter()
        .find(|u| u.kind == UnitKind::Main)
        .ok_or_else(|| format!("{name}: no main unit"))?;
    let header = unit
        .stmts
        .iter()
        .find_map(|s| match &s.kind {
            StmtKind::Do(d) if d.is_parallel() => Some(s.id),
            _ => None,
        })
        .ok_or_else(|| format!("{name}: no PARALLEL DO"))?;
    let key = (unit.name.clone(), header);
    let (r, mem) = exec(&program, config(1))?;
    Ok(Kernel { name, program, key, expect: (r.printed, mem), source })
}

/// One verified run; returns (op wall ms, loop wall ms, result).
fn verified_run(k: &Kernel, threads: usize) -> Result<(f64, f64, RunResult), String> {
    let t = Instant::now();
    let (r, mem) = exec(&k.program, config(threads))?;
    let op_ms = t.elapsed().as_secs_f64() * 1e3;
    if r.printed != k.expect.0 || mem != k.expect.1 {
        return Err(format!("{} at {threads} threads: output differs from serial", k.name));
    }
    let loop_ms = r
        .profile
        .get(&k.key)
        .map(|l| l.wall_ns as f64 / 1e6)
        .ok_or_else(|| format!("{}: parallel loop missing from profile", k.name))?;
    Ok((op_ms, loop_ms, r))
}

const ORDER_SALT: u64 = 0x0DE5;

/// A seeded order of the three kernels, for one round.
fn round_order(rng: &mut Rng) -> [usize; 3] {
    let mut order = [0, 1, 2];
    for i in (1..3).rev() {
        order.swap(i, rng.range(0, i as u64 + 1) as usize);
    }
    order
}

pub fn run(opts: &Opts) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut rng = Rng::seed_from_u64(opts.seed);
    // Seeded initial values: inputs change with the seed, work does not.
    let scales: Vec<f64> = (0..3).map(|_| 0.001 + rng.range(0, 1000) as f64 * 1e-6).collect();
    let trip = trips(opts.tiny);
    let (kernels, setups) = repeated_setup(SETUP_REPS, || {
        KERNELS
            .iter()
            .zip(trip)
            .zip(&scales)
            .map(|((&name, n), &c)| build(name, n, c))
            .collect::<Result<Vec<_>, _>>()
    })?;
    out.setups_s = setups;
    // The tree walker is the reference oracle for the bytecode engine.
    for k in &kernels {
        let tree = ExecConfig { engine: Engine::Tree, ..config(1) };
        let (r, mem) = guarded(|| exec(&k.program, tree))?;
        if r.printed != k.expect.0 || mem != k.expect.1 {
            return Err(format!("{}: bytecode and tree-walker results differ", k.name));
        }
    }
    // Warm-up: one pair per kernel.
    for k in &kernels {
        guarded(|| verified_run(k, 2))?;
        guarded(|| verified_run(k, 1))?;
    }

    let rec = &mut out.rec;
    let mut ratios: [Vec<f64>; 3] = Default::default();
    let mut serial_ms: [Vec<f64>; 3] = Default::default();
    let mut t2_ms: [Vec<f64>; 3] = Default::default();
    let (mut chunks, mut stolen, mut imbalance, mut t2_runs) = (0u64, 0u64, 0.0f64, 0u64);
    let (mut t2_cpu, mut t2_wall) = (0.0f64, 0.0f64);
    let mut steps = [0u64; 3];
    let mut digest = FNV_START;
    for k in &kernels {
        digest = fnv(digest, k.source.as_bytes());
    }
    let mut preview = Rng::seed_from_u64(opts.seed ^ ORDER_SALT);
    for _ in 0..20 {
        digest = fnv(digest, &round_order(&mut preview).map(|k| k as u8));
    }
    let mut order_rng = Rng::seed_from_u64(opts.seed ^ ORDER_SALT);
    let mut order = [0usize; 3];
    let deadline = Instant::now() + Duration::from_secs_f64(opts.seconds);
    let mut pair = 0usize;
    while Instant::now() < deadline || pair < 12 {
        if pair.is_multiple_of(3) {
            order = round_order(&mut order_rng);
        }
        let ki = order[pair % 3];
        let k = &kernels[ki];
        let traced = opts.trace && (pair / 6) % 2 == 1;
        trace::set_enabled(traced);
        let mut serial = None;
        let mut threaded = None;
        for half in 0..2 {
            let threads = if (half + pair).is_multiple_of(2) { 2 } else { 1 };
            rec.attempted += 1;
            let sw = Stopwatch::start();
            let r = guarded(|| trace::span("bench.op", || verified_run(k, threads)));
            let (wall, cpu) = sw.stop();
            if traced && r.is_ok() {
                rec.traced_all_ops += 1;
            }
            match r {
                Err(e) => rec.fail(e),
                Ok((op_ms, loop_ms, r)) if threads == 2 => {
                    if traced {
                        rec.traced_ops += 1;
                        rec.traced_wall_s += wall;
                    } else {
                        rec.main_ops += 1;
                        rec.main_wall_s += wall;
                        rec.main_cpu_s += cpu;
                        rec.lat_ms.push(op_ms);
                    }
                    chunks += r.sched.chunks_executed;
                    stolen += r.sched.chunks_stolen;
                    imbalance += r.sched.imbalance_ratio();
                    t2_runs += 1;
                    t2_cpu += cpu;
                    t2_wall += wall;
                    steps[ki] = r.steps;
                    threaded = Some(loop_ms);
                }
                Ok((_, loop_ms, _)) => serial = Some(loop_ms),
            }
        }
        if let (Some(s), Some(t)) = (serial, threaded) {
            ratios[ki].push(s / t);
            serial_ms[ki].push(s);
            t2_ms[ki].push(t);
            rec.pair_ratios.push(s / t);
        }
        pair += 1;
    }
    trace::set_enabled(false);
    out.digest = digest;
    out.speedup_t2 = geomean(&ratios.iter().map(|r| median(r)).collect::<Vec<_>>());
    if opts.trace {
        for (i, name) in KERNELS.iter().enumerate() {
            out.layer.push((format!("runtime.serial_ms.{name}"), median(&serial_ms[i])));
            out.layer.push((format!("runtime.t2_ms.{name}"), median(&t2_ms[i])));
        }
        let per_run = |v: f64| v / t2_runs.max(1) as f64;
        out.layer.extend([
            ("runtime.chunks_executed".to_string(), per_run(chunks as f64)),
            ("runtime.chunks_stolen".to_string(), per_run(stolen as f64)),
            ("runtime.imbalance_ratio".to_string(), per_run(imbalance)),
            ("runtime.cpu_util_t2".to_string(), t2_cpu / (2.0 * t2_wall)),
            ("runtime.steps".to_string(), steps.iter().sum::<u64>() as f64),
        ]);
    }
    Ok(out)
}
