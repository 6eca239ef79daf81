//! `edit-session`: one user editing a generated program through [`Ped`].
//!
//! The program is generated once, from a fixed generator seed; the
//! benchmark seed draws the op plans. Each phase of the paired-phase runner runs
//! one plan of `phase_ops` ops in a seeded order:
//! * `edits` text edits of a seeded work unit through `edit_unit` (forcing
//!   interprocedural reanalysis), then reanalyze → undo → reanalyze;
//! * the rest transform cycles on seeded catalog entries: diagnose → apply →
//!   `analyze_all` → `parallelizable` query → undo → `analyze_all`;
//! * in the first pair of every round of `round` pairs, one survey in place
//!   of a transform cycle: the estimator ranks every loop, then the
//!   autopilot runs its whole-program `suggest`. Runs end on a round
//!   boundary, so every run does the same mix of work.
//!
//! Both phases of a pair, and both clients of a two-client phase, replay
//! the same plan, so every phase does a known amount of the same work and
//! a pair's ratio compares like with like.
//!
//! Every op must leave the program exactly as it found it, which each op
//! checks on the unit it touched (the whole source after a suggest). After
//! the timed phase each session's incrementally maintained graphs must equal
//! those of a session opened fresh from its source.
//!
//! `speedup_t2` here is the throughput of two independent sessions driven
//! concurrently over that of one: how much the second core gives the editor.

use super::{drive_pairs, guarded, pair_seed, repeated_setup, Client, SETUP_REPS};
use crate::trace::span;
use crate::{fnv, Opts, Outcome, FNV_START};
use ped_core::{autopilot, AutopilotConfig, Ped};
use ped_fortran::printer::print_unit;
use ped_fortran::StmtId;
use ped_interproc::IpAnalysis;
use ped_perf::Estimator;
use ped_runtime::Machine;
use ped_transform::Xform;
use ped_workloads::generator::{gen_source, GenConfig};
use ped_workloads::rng::Rng;
use std::sync::Arc;

struct Shape {
    gen: GenConfig,
    /// Ops per phase plan.
    phase_ops: usize,
    /// Text edits per plan.
    edits: usize,
    /// Pairs per round; the first plan of a round holds the survey.
    round: usize,
    warmup_ops: usize,
}

/// Generator seed of the edited program. The program is fixed: across 64
/// loops, the per-program mean cost of an edit cycle differs by about 9%
/// between generator seeds, which would swamp the run-to-run spread the
/// bounds allow. The benchmark seed draws the op plans instead.
const PROGRAM_SEED: u64 = 7;

fn shape(opts: &Opts) -> Shape {
    let seed = PROGRAM_SEED;
    if opts.tiny {
        Shape {
            gen: GenConfig { units: 2, loops_per_unit: 3, stmts_per_loop: 3, extent: 16, seed },
            phase_ops: 6,
            edits: 1,
            round: 2,
            warmup_ops: 2,
        }
    } else {
        Shape {
            gen: GenConfig { units: 8, loops_per_unit: 8, stmts_per_loop: 5, extent: 64, seed },
            phase_ops: 48,
            edits: 6,
            round: 4,
            warmup_ops: 8,
        }
    }
}

/// One planned op.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Op {
    /// Catalog entry index.
    Transform(usize),
    /// Editable-unit index and the line number the edit writes.
    Edit(usize, u64),
    Survey,
}

/// 0..n in a seeded order.
fn permutation(n: usize, rng: &mut Rng) -> Vec<usize> {
    let mut v: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        v.swap(i, rng.range(0, i as u64 + 1) as usize);
    }
    v
}

/// The plan of pair `k`: `edits` text edits, a survey when `k` starts a
/// round, and transform cycles for the rest, in a seeded order. Successive
/// plans walk through seeded permutations of the catalog and of the
/// possible text edits, so a run covers them evenly and its mean op cost
/// hardly depends on the seed.
fn plan(inputs: &Inputs, k: usize) -> Vec<Op> {
    let sh = &inputs.shape;
    let survey = usize::from(k.is_multiple_of(sh.round));
    let cycles = sh.phase_ops - sh.edits;
    let edits = &inputs.edit_order;
    let catalog = &inputs.catalog_order;
    let mut ops = vec![Op::Survey; survey];
    ops.extend((0..sh.edits).map(|j| edits[(k * sh.edits + j) % edits.len()]));
    ops.extend((survey..cycles).map(|j| Op::Transform(catalog[(k * cycles + j) % catalog.len()])));
    let order = permutation(ops.len(), &mut Rng::seed_from_u64(pair_seed(inputs.seed, k)));
    order.into_iter().map(|i| ops[i]).collect()
}

/// Transformations the op stream draws from, each tried on every loop.
fn catalog_xforms() -> Vec<Xform> {
    vec![
        Xform::Parallelize,
        Xform::Interchange,
        Xform::Distribute,
        Xform::Reverse,
        Xform::StripMine { size: 8 },
        Xform::Unroll { factor: 2 },
    ]
}

/// Read-only state every client shares.
struct Inputs {
    /// Generated source.
    source: String,
    /// The unedited program as Ped prints it.
    printed: String,
    /// Printed text of every unit of the unedited program.
    unit_text: Vec<String>,
    /// (unit, loop header, transformation) triples diagnosed applicable.
    catalog: Vec<(usize, StmtId, Xform)>,
    /// Units a text edit may target (the generated work units).
    editable: Vec<usize>,
    shape: Shape,
    /// Benchmark seed.
    seed: u64,
    /// Seeded permutation of the catalog.
    catalog_order: Vec<usize>,
    /// Seeded permutation of the possible text edits.
    edit_order: Vec<Op>,
}

struct EditClient {
    ped: Ped,
    inputs: Arc<Inputs>,
    /// The current phase's plan, consumed from the back.
    plan: Vec<Op>,
    tally: Tally,
}

/// Counts the traced run reports per layer.
#[derive(Debug, Default)]
struct Tally {
    analyze_calls: u64,
    built: u64,
    reused: u64,
    suggests: u64,
    candidates: u64,
    pruned: u64,
}

fn unit_text(ped: &Ped, u: usize) -> String {
    let mut s = String::new();
    print_unit(&ped.program().units[u], &mut s);
    s
}

impl EditClient {
    fn restored(&self, u: usize, what: &str) -> Result<(), String> {
        if unit_text(&self.ped, u) == self.inputs.unit_text[u] {
            Ok(())
        } else {
            Err(format!("{what}: undo did not restore unit {u}"))
        }
    }

    fn analyze(&mut self) {
        let r = span("core.session.analyze_all", || self.ped.analyze_all());
        self.tally.analyze_calls += 1;
        self.tally.built += r.built as u64;
        self.tally.reused += r.reused as u64;
    }

    /// Reanalyze, undo, reanalyze: the tail every edit shares.
    fn reanalyze_and_undo(&mut self) -> Result<(), String> {
        self.analyze();
        if !span("core.session.undo", || self.ped.undo()) {
            return Err("undo had nothing to undo".into());
        }
        self.analyze();
        Ok(())
    }

    fn transform_cycle(&mut self, entry: usize) -> Result<(), String> {
        let inputs = Arc::clone(&self.inputs);
        let (u, h, x) = &inputs.catalog[entry];
        let d = span("core.session.diagnose", || self.ped.diagnose(*u, *h, x))
            .map_err(|e| format!("diagnose: {e}"))?;
        d.applicable.map_err(|e| format!("{x:?} on {h} no longer applicable: {e}"))?;
        span("transform.apply", || self.ped.apply(*u, *h, x))
            .map_err(|e| format!("apply {x:?} on {h}: {e}"))?;
        self.analyze();
        let first = self.ped.loops(*u).first().map(|&(s, _)| s);
        if let Some(l) = first {
            span("core.session.parallelizable", || self.ped.parallelizable(*u, l))
                .map_err(|e| format!("parallelizable: {e}"))?;
        }
        if !span("core.session.undo", || self.ped.undo()) {
            return Err("undo had nothing to undo".into());
        }
        self.analyze();
        self.restored(*u, "transform")
    }

    fn text_edit(&mut self, unit: usize, line: u64) -> Result<(), String> {
        let inputs = Arc::clone(&self.inputs);
        let u = inputs.editable[unit];
        let text = &inputs.unit_text[u];
        let body_end = text.trim_end().len() - "end".len();
        let edited =
            format!("{}  b({line}) = a({line}) + 1.0\n{}", &text[..body_end], &text[body_end..]);
        let name = self.ped.program().units[u].name.clone();
        span("core.session.edit_unit", || self.ped.edit_unit(&name, &edited))
            .map_err(|e| format!("edit_unit {name}: {e}"))?;
        self.reanalyze_and_undo()?;
        self.restored(u, "text edit")
    }

    fn survey(&mut self) -> Result<(), String> {
        let ranked = span("perf.rank_program", || {
            Estimator::new(self.ped.program(), Machine::alliant8()).rank_program().len()
        });
        if ranked == 0 {
            return Err("estimator ranked no loops".into());
        }
        let s = span("core.autopilot.suggest", || {
            autopilot::suggest(&mut self.ped, &AutopilotConfig::default())
        });
        if s.nests.is_empty() || s.stats.candidates == 0 {
            return Err("suggest found no candidate".into());
        }
        if self.ped.source() != self.inputs.printed {
            return Err("suggest left the program changed".into());
        }
        self.tally.suggests += 1;
        self.tally.candidates += s.stats.candidates;
        self.tally.pruned += s.stats.pruned_unsafe + s.stats.pruned_unprofitable;
        Ok(())
    }
}

impl Client for EditClient {
    fn rewind(&mut self, pair: usize) {
        self.plan = plan(&self.inputs, pair);
        self.plan.reverse();
    }

    fn op(&mut self) -> Result<(), String> {
        match self.plan.pop() {
            Some(Op::Survey) => self.survey(),
            Some(Op::Edit(unit, line)) => self.text_edit(unit, line),
            Some(Op::Transform(entry)) => self.transform_cycle(entry),
            None => Err("op plan exhausted".into()),
        }
    }
}

/// Parse, analyze and rank a fresh session (the traced run also times the
/// interprocedural pass on its own).
fn open_session(src: &str) -> Result<Ped, String> {
    let program = span("fortran.parse", || ped_fortran::parse_program(src))
        .map_err(|e| format!("generated program does not parse: {e}"))?;
    if crate::trace::enabled() {
        span("interproc.analyze", || IpAnalysis::analyze(&program));
    }
    let mut ped = span("core.session.from_program", || Ped::from_program(program));
    span("core.session.analyze_all", || ped.analyze_all());
    Ok(ped)
}

fn setup(shape: Shape, seed: u64) -> Result<(Vec<EditClient>, Arc<Inputs>), String> {
    let source = gen_source(shape.gen);
    let mut ped = open_session(&source)?;
    let ranked = span("perf.rank_program", || {
        Estimator::new(ped.program(), Machine::alliant8()).rank_program().len()
    });
    let mut catalog = Vec::new();
    let units = ped.program().units.len();
    for u in 0..units {
        for (h, _) in ped.loops(u) {
            for x in catalog_xforms() {
                let d = ped.diagnose(u, h, &x).map_err(|e| format!("diagnose: {e}"))?;
                if d.applicable.is_ok() {
                    catalog.push((u, h, x));
                }
            }
        }
    }
    let editable: Vec<usize> =
        (0..units).filter(|&u| ped.program().units[u].name.starts_with("work")).collect();
    if catalog.is_empty() || editable.is_empty() || ranked == 0 {
        return Err("generated program has no transformable loop".into());
    }
    let unit_text = (0..units).map(|u| unit_text(&ped, u)).collect();
    let printed = ped.source();
    let mut rng = Rng::seed_from_u64(seed);
    let catalog_order = permutation(catalog.len(), &mut rng);
    let edits: Vec<Op> =
        (0..editable.len()).flat_map(|u| (1..9).map(move |line| Op::Edit(u, line))).collect();
    let edit_order = permutation(edits.len(), &mut rng).into_iter().map(|i| edits[i]).collect();
    let inputs = Arc::new(Inputs {
        source,
        printed,
        unit_text,
        catalog,
        editable,
        shape,
        seed,
        catalog_order,
        edit_order,
    });
    let second = open_session(&inputs.source)?;
    let clients = [ped, second]
        .into_iter()
        .map(|ped| EditClient {
            ped,
            inputs: Arc::clone(&inputs),
            plan: Vec::new(),
            tally: Tally::default(),
        })
        .collect();
    Ok((clients, inputs))
}

pub fn run(opts: &Opts) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let ((mut clients, inputs), setups) = repeated_setup(SETUP_REPS, || {
        let sh = shape(opts);
        let warmup = sh.warmup_ops;
        let (mut clients, inputs) = setup(sh, opts.seed)?;
        for c in clients.iter_mut() {
            for entry in 0..warmup {
                guarded(|| c.transform_cycle(entry * inputs.catalog.len() / warmup))?;
            }
        }
        Ok((clients, inputs))
    })?;
    out.setups_s = setups;
    let mut digest = fnv(FNV_START, inputs.source.as_bytes());
    for k in 0..4 {
        let p = plan(&inputs, k);
        digest = fnv(digest, format!("{p:?}").as_bytes());
    }
    out.digest = digest;

    let (ops, round) = (inputs.shape.phase_ops, inputs.shape.round);
    drive_pairs(&mut clients, 1, 2, ops, round, opts.seconds, opts.trace, &mut out.rec);
    out.speedup_t2 = out.rec.pair_speedup();

    // Incremental graphs must equal a fresh session's.
    for (i, c) in clients.iter_mut().enumerate() {
        out.rec.attempted += 1;
        let ok = guarded(|| {
            let incremental = ped_core::equiv::canonical_graphs(&mut c.ped);
            let mut fresh = Ped::open(&c.ped.source()).map_err(|e| e.to_string())?;
            Ok(incremental == ped_core::equiv::canonical_graphs(&mut fresh))
        });
        match ok {
            Ok(true) => {}
            Ok(false) => out.rec.fail(format!("client {i}: incremental graphs differ from fresh")),
            Err(e) => out.rec.fail(format!("client {i}: {e}")),
        }
    }
    if opts.trace {
        let inc = clients[0].ped.incremental_stats();
        let cache = clients[0].ped.pair_cache_stats();
        let t = clients.iter().fold(Tally::default(), |a, c| Tally {
            analyze_calls: a.analyze_calls + c.tally.analyze_calls,
            built: a.built + c.tally.built,
            reused: a.reused + c.tally.reused,
            suggests: a.suggests + c.tally.suggests,
            candidates: a.candidates + c.tally.candidates,
            pruned: a.pruned + c.tally.pruned,
        });
        let per = |n: u64, d: u64| n as f64 / d.max(1) as f64;
        let candidates = per(t.candidates, t.suggests);
        out.layer.extend([
            ("dep.graphs_built".to_string(), per(t.built, t.analyze_calls)),
            ("dep.graphs_reused".to_string(), per(t.reused, t.analyze_calls)),
            ("core.autopilot.candidates".to_string(), candidates),
            (
                "core.autopilot.ms_per_candidate".to_string(),
                crate::trace::mean_ms("core.autopilot.suggest") / candidates,
            ),
            ("core.autopilot.pruned_ratio".to_string(), per(t.pruned, t.candidates)),
            ("interproc.recomputes".to_string(), inc.ip_recomputes as f64),
            ("interproc.recomputes_skipped".to_string(), inc.ip_recomputes_skipped as f64),
            (
                "dep.pair_hit_ratio".to_string(),
                cache.hits as f64 / (cache.hits + cache.misses).max(1) as f64,
            ),
        ]);
    }
    Ok(out)
}
