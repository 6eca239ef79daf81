//! # pedbench — Ped's end-to-end and per-layer benchmark
//!
//! Four workloads, each run in its own process from one seed:
//!
//! * `edit-session` — one client editing a generated program through
//!   [`ped_core::Ped`]: diagnose → apply → reanalyze → query → undo, with
//!   occasional text edits and a periodic whole-program `suggest`;
//! * `parallel-run` — the three E14 kernels run verified under
//!   `Threads(2)`, each paired with a serial run of the same kernel;
//! * `serve-mix` — two closed-loop clients cycling the suite programs
//!   through an in-process [`ped_core::Daemon`] with a graph store;
//! * `campaign` — [`ped_core::run_campaign`] over seeded program batches.
//!
//! The host this runs on changes speed by up to 3× in regimes lasting
//! 0.5–8 s, so the design follows three rules: headline metrics are means
//! over the whole timed phase, ops are long (tens of milliseconds), and
//! the two configurations a ratio compares run back to back in pairs so
//! both see the same host regime. End-to-end metrics come from untraced
//! phases only; the traced run alternates traced and untraced pairs and
//! reports the difference as its overhead.

pub mod host;
pub mod stats;
pub mod trace;
pub mod workloads;

use stats::Recorder;

/// The workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 4] = ["edit-session", "parallel-run", "serve-mix", "campaign"];

/// End-to-end metrics: (name, unit). Every workload reports all of them.
/// Throughput, op latency percentiles and CPU per op are diagnostics
/// instead: on the host this was tuned on they did not repeat within a
/// tenth between two sets of runs (see `results/RESULTS.md`).
pub const END_TO_END: [(&str, &str); 3] =
    [("setup_s", "s"), ("peak_rss_mb", "MiB"), ("speedup_t2", "x")];

/// Kernels of the parallel-run workload.
pub const KERNELS: [&str; 3] = ["vscale", "dotred", "tri"];

/// Serve verbs one serve-mix cycle sends, in order.
pub const VERBS: [&str; 7] = ["open", "analyze", "suggest", "transform", "check", "undo", "close"];

/// Campaign pipeline stages, in `CampaignOutcome::stage_ns` order.
pub const STAGES: [&str; 5] = ["generate", "analyze", "autopar", "check", "equivalence"];

/// Layers self time is reported for (see [`trace::layer_of`]).
pub const LAYERS: [&str; 11] = [
    "bench",
    "fortran",
    "interproc",
    "perf",
    "transform",
    "runtime",
    "core.session",
    "core.autopilot",
    "core.check",
    "core.serve",
    "core.campaign",
];

/// Per-layer metrics of the traced run: (name, unit). Every workload
/// reports all of them; a layer the workload does not exercise reads 0.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut v: Vec<(String, &'static str)> = [
        ("host.ref_ms", "ms"),
        ("trace.overhead_per_s", "1/s"),
        ("trace.overhead_pct", "%"),
        ("trace.spans_per_op", "count"),
        ("fortran.parse_ms", "ms"),
        ("interproc.analyze_ms", "ms"),
        ("interproc.recomputes", "count"),
        ("interproc.recomputes_skipped", "count"),
        ("core.session.analyze_all_ms", "ms"),
        ("dep.graphs_built", "count"),
        ("dep.graphs_reused", "count"),
        ("dep.pair_hit_ratio", "ratio"),
        ("transform.apply_ms", "ms"),
        ("core.session.undo_ms", "ms"),
        ("core.autopilot.suggest_ms", "ms"),
        ("core.autopilot.candidates", "count"),
        ("core.autopilot.ms_per_candidate", "ms"),
        ("core.autopilot.pruned_ratio", "ratio"),
        ("perf.rank_program_ms", "ms"),
        ("runtime.lower_ms", "ms"),
    ]
    .iter()
    .map(|&(n, u)| (n.to_string(), u))
    .collect();
    for k in KERNELS {
        v.push((format!("runtime.serial_ms.{k}"), "ms"));
        v.push((format!("runtime.t2_ms.{k}"), "ms"));
    }
    for (n, u) in [
        ("runtime.chunks_executed", "count"),
        ("runtime.chunks_stolen", "count"),
        ("runtime.imbalance_ratio", "ratio"),
        ("runtime.cpu_util_t2", "ratio"),
        ("runtime.steps", "count"),
        ("core.check.check_ms", "ms"),
    ] {
        v.push((n.to_string(), u));
    }
    for verb in VERBS {
        v.push((format!("core.serve.{verb}_p50_ms"), "ms"));
        v.push((format!("core.serve.{verb}_p90_ms"), "ms"));
    }
    for (n, u) in [
        ("core.store.warm_open_ratio", "ratio"),
        ("core.store.graphs_loaded", "count"),
        ("core.store.graphs_persisted", "count"),
    ] {
        v.push((n.to_string(), u));
    }
    for s in STAGES {
        v.push((format!("core.campaign.{s}_ms_per_program"), "ms"));
    }
    v.push(("core.campaign.loops_parallelized".to_string(), "count"));
    for l in LAYERS {
        v.push((format!("self_ms_per_op.{l}"), "ms"));
    }
    v
}

/// Per-layer metrics that are the mean duration of one span name.
const SPAN_MEANS: [(&str, &str); 9] = [
    ("fortran.parse_ms", "fortran.parse"),
    ("interproc.analyze_ms", "interproc.analyze"),
    ("core.session.analyze_all_ms", "core.session.analyze_all"),
    ("transform.apply_ms", "transform.apply"),
    ("core.session.undo_ms", "core.session.undo"),
    ("core.autopilot.suggest_ms", "core.autopilot.suggest"),
    ("perf.rank_program_ms", "perf.rank_program"),
    ("runtime.lower_ms", "runtime.lower"),
    ("core.check.check_ms", "core.check.check"),
];

/// Benchmark options, parsed from the command line.
#[derive(Debug, Clone)]
pub struct Opts {
    pub workload: String,
    pub seed: u64,
    /// Length of the timed phase.
    pub seconds: f64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Tiny inputs, for the smoke test.
    pub tiny: bool,
}

/// What a workload hands back to [`run`].
#[derive(Debug, Default)]
pub struct Outcome {
    pub rec: Recorder,
    /// Wall seconds of each repeated set-up.
    pub setups_s: Vec<f64>,
    /// Main configuration's speed over the companion's (see each workload).
    pub speedup_t2: f64,
    /// Per-layer values the workload measured (traced run).
    pub layer: Vec<(String, f64)>,
    /// Digest of the seeded inputs and op order.
    pub digest: u64,
}

/// One named value with its unit.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// The result of one benchmark run.
#[derive(Debug)]
pub struct Report {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// End-to-end metrics (untraced run) or per-layer metrics (traced run).
    pub metrics: Vec<Metric>,
    /// Diagnostics that gate nothing: host speed, sample counts.
    pub diag: Vec<Metric>,
    pub failures: Vec<String>,
    pub digest: u64,
}

/// This process's scratch directory, inside the working directory; the
/// caller of [`run`] removes it when the run ends.
pub fn scratch_dir() -> std::path::PathBuf {
    std::path::PathBuf::from(".pedbench").join(format!("tmp-{}", std::process::id()))
}

/// FNV-1a, for input digests.
pub fn fnv(h: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(h, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
}

pub const FNV_START: u64 = 0xcbf2_9ce4_8422_2325;

/// Run one workload and derive its metrics.
pub fn run(opts: &Opts) -> Result<Report, String> {
    let ref_start = host::ref_ms();
    trace::set_enabled(opts.trace);
    let out = match opts.workload.as_str() {
        "edit-session" => workloads::edit::run(opts),
        "parallel-run" => workloads::parallel::run(opts),
        "serve-mix" => workloads::serve::run(opts),
        "campaign" => workloads::campaign::run(opts),
        other => return Err(format!("unknown workload '{other}' (want one of {WORKLOADS:?})")),
    }?;
    trace::set_enabled(false);
    let ref_end = host::ref_ms();
    let rec = &out.rec;
    let correct = rec.failed == 0 && rec.main_ops > 0;
    let mut diag = vec![
        Metric { name: "host.ref_ms_start".into(), value: ref_start, unit: "ms" },
        Metric { name: "host.ref_ms_end".into(), value: ref_end, unit: "ms" },
        Metric { name: "throughput_per_s".into(), value: rec.throughput(), unit: "1/s" },
        Metric { name: "op_p50_ms".into(), value: stats::quantile(&rec.lat_ms, 0.5), unit: "ms" },
        Metric { name: "op_p90_ms".into(), value: stats::quantile(&rec.lat_ms, 0.9), unit: "ms" },
        Metric { name: "op_samples".into(), value: rec.lat_ms.len() as f64, unit: "count" },
        Metric {
            name: "cpu_ms_per_op".into(),
            value: 1e3 * rec.main_cpu_s / rec.main_ops as f64,
            unit: "ms",
        },
        Metric { name: "pairs".into(), value: rec.pair_ratios.len() as f64, unit: "count" },
    ];
    let metrics: Vec<Metric> = if opts.trace {
        // Mean duration per call of each public entry point the spans wrap.
        let mut values: Vec<(String, f64)> = SPAN_MEANS
            .iter()
            .map(|&(metric, span)| (metric.to_string(), trace::mean_ms(span)))
            .filter(|(_, v)| v.is_finite())
            .collect();
        values.extend(out.layer.iter().cloned());
        values.push(("host.ref_ms".into(), (ref_start + ref_end) / 2.0));
        let untraced = rec.throughput();
        let traced = rec.traced_throughput();
        values.push(("trace.overhead_per_s".into(), untraced - traced));
        values.push(("trace.overhead_pct".into(), 100.0 * (untraced - traced) / untraced));
        values.extend(self_time_metrics(rec.traced_all_ops));
        per_layer()
            .into_iter()
            .map(|(name, unit)| {
                let value = values.iter().rev().find(|(n, _)| *n == name).map_or(0.0, |v| v.1);
                Metric { name, value, unit }
            })
            .collect()
    } else {
        let values = [stats::median(&out.setups_s), host::peak_rss_mb(), out.speedup_t2];
        END_TO_END
            .iter()
            .zip(values)
            .map(|(&(name, unit), value)| Metric { name: name.into(), value, unit })
            .collect()
    };
    diag.push(Metric {
        name: "throughput_traced_per_s".into(),
        value: rec.traced_throughput(),
        unit: "1/s",
    });
    let finite = metrics.iter().all(|m| m.value.is_finite());
    Ok(Report {
        correct: correct && finite,
        attempted: rec.attempted,
        failed: rec.failed,
        metrics,
        diag,
        failures: rec.failures.clone(),
        digest: out.digest,
    })
}

/// Self time per layer, per op of the traced pairs, from the recorded spans.
fn self_time_metrics(traced_ops: u64) -> Vec<(String, f64)> {
    let spans = trace::spans();
    // Only spans under a bench op root count; set-up spans do not.
    let op_roots: std::collections::HashSet<u64> = spans
        .iter()
        .filter(|s| s.parent == 0 && s.name.starts_with("bench.op"))
        .map(|s| s.id)
        .collect();
    let mut per_layer: std::collections::BTreeMap<&str, u64> = Default::default();
    let mut in_ops = 0u64;
    for (op, name, ns) in trace::self_times(&spans) {
        if op_roots.contains(&op) {
            *per_layer.entry(trace::layer_of(name)).or_default() += ns;
            in_ops += 1;
        }
    }
    let ops = traced_ops.max(1) as f64;
    let mut v: Vec<(String, f64)> = per_layer
        .into_iter()
        .map(|(l, ns)| (format!("self_ms_per_op.{l}"), ns as f64 / 1e6 / ops))
        .collect();
    v.push(("trace.spans_per_op".into(), in_ops as f64 / ops));
    v
}

/// The result as the one JSON line the benchmark prints last.
pub fn result_json(r: &Report) -> String {
    let metrics: Vec<String> = r
        .metrics
        .iter()
        .map(|m| {
            format!("\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}", m.name, num(m.value), m.unit)
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        r.correct,
        r.attempted,
        r.failed,
        metrics.join(", ")
    )
}

/// A JSON number with every digit the value has (`null` when not finite).
pub fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}
