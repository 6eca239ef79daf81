//! `serve-mix`: two closed-loop clients with no think time on one
//! in-process [`Daemon`] backed by a [`GraphStore`] in a scratch directory.
//!
//! One op is one client's rotation over the nine suite programs, in a
//! seeded order, each program going through the whole verb chain: open
//! (warm from the store) → analyze → suggest → transform (parallelize a
//! loop set-up found safe) → check → undo → close. A rotation is one op,
//! not each request, so every op does the same mix of work and the latency
//! distribution has no gaps between programs for a percentile to fall
//! into; per-verb latencies are reported per layer. Every response must be
//! `ok`, the shadow check must come back clean and the undo must apply.
//! Set-up runs one cold pass over every program, which fills the store.
//!
//! `speedup_t2` is two-client throughput over one-client throughput.

use super::{drive_pairs, guarded, pair_seed, repeated_setup, Client, SETUP_REPS};
use crate::trace::span;
use crate::{fnv, Opts, Outcome, FNV_START, VERBS};
use ped_core::{Daemon, GraphStore};
use ped_obs::json::{self, Json};
use ped_transform::Xform;
use ped_workloads::rng::Rng;
use std::sync::Arc;
use std::time::Instant;

/// One suite program and the loop the cycle parallelizes.
struct Prog {
    name: &'static str,
    open_req: String,
    unit: String,
    target: u32,
}

fn request(verb: &str, session: u64, extra: Vec<(&str, Json)>) -> String {
    let mut fields = vec![("id", Json::int(session)), ("verb", Json::str(verb))];
    if session > 0 {
        fields.push(("session", Json::int(session)));
    }
    fields.extend(extra);
    Json::obj(fields).to_string_compact()
}

/// Send one request; the response must be `ok`.
fn send(daemon: &Daemon, owner: u64, verb: &'static str, line: &str) -> Result<Json, String> {
    let resp = daemon.handle_line(owner, line);
    let v = json::parse(&resp.text).map_err(|e| format!("{verb}: bad response: {e}"))?;
    if v.get("ok").and_then(Json::as_bool) != Some(true) {
        return Err(format!("{verb}: {}", resp.text));
    }
    Ok(v)
}

struct ServeClient {
    daemon: Arc<Daemon>,
    owner: u64,
    progs: Arc<Vec<Prog>>,
    /// Benchmark seed, and the current phase's order generator.
    seed: u64,
    rng: Rng,
    /// Latency samples per verb, in [`VERBS`] order (ms).
    verb_ms: [Vec<f64>; 7],
}

impl ServeClient {
    fn timed(&mut self, i: usize, line: &str) -> Result<Json, String> {
        let t = Instant::now();
        let r = span(SPAN_NAMES[i], || send(&self.daemon, self.owner, VERBS[i], line));
        self.verb_ms[i].push(t.elapsed().as_secs_f64() * 1e3);
        r
    }
}

const SPAN_NAMES: [&str; 7] = [
    "core.serve.open",
    "core.serve.analyze",
    "core.serve.suggest",
    "core.serve.transform",
    "core.serve.check",
    "core.serve.undo",
    "core.serve.close",
];

impl ServeClient {
    /// One program through the whole verb chain.
    fn cycle(&mut self, p: &Prog) -> Result<(), String> {
        let v = self.timed(0, &p.open_req)?;
        let s = v.get("session").and_then(Json::as_u64).ok_or("open: no session id")?;
        self.timed(1, &request("analyze", s, vec![]))?;
        let v = self.timed(2, &request("suggest", s, vec![]))?;
        if v.get("nests").and_then(Json::as_arr).is_none() {
            return Err(format!("{}: suggest returned no nests", p.name));
        }
        let xf = vec![
            ("unit", Json::str(&p.unit)),
            ("target", Json::int(u64::from(p.target))),
            ("xform", Json::str("parallelize")),
        ];
        self.timed(3, &request("transform", s, xf))?;
        let v = self.timed(4, &request("check", s, vec![]))?;
        if v.get("clean").and_then(Json::as_bool) != Some(true) {
            return Err(format!("{}: check not clean after a safe parallelize", p.name));
        }
        let v = self.timed(5, &request("undo", s, vec![]))?;
        if v.get("applied").and_then(Json::as_bool) != Some(true) {
            return Err(format!("{}: undo did not apply", p.name));
        }
        self.timed(6, &request("close", s, vec![]))?;
        Ok(())
    }
}

impl Client for ServeClient {
    fn rewind(&mut self, pair: usize) {
        self.rng = Rng::seed_from_u64(pair_seed(self.seed, pair));
    }

    /// One rotation: every program once, in a fresh seeded order.
    fn op(&mut self) -> Result<(), String> {
        let progs = Arc::clone(&self.progs);
        for i in shuffled(progs.len(), &mut self.rng) {
            self.cycle(&progs[i])?;
        }
        Ok(())
    }
}

/// 0..n in a seeded order.
fn shuffled(n: usize, rng: &mut Rng) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        order.swap(i, rng.range(0, i as u64 + 1) as usize);
    }
    order
}

/// The first loop of `src`, in program order, that diagnoses safe to
/// parallelize and whose parallelization checks clean.
fn pick_target(src: &str) -> Result<(String, u32), String> {
    let mut ped = ped_core::Ped::open(src).map_err(|e| e.to_string())?;
    ped.analyze_all();
    let mut found = Vec::new();
    for u in 0..ped.program().units.len() {
        for (h, _) in ped.loops(u) {
            let d = ped.diagnose(u, h, &Xform::Parallelize).map_err(|e| e.to_string())?;
            let already = ped.program().units[u].loop_of(h).is_parallel();
            if d.ok() && !already {
                found.push((u, h));
            }
        }
    }
    for (u, h) in found {
        ped.apply(u, h, &Xform::Parallelize).map_err(|e| e.to_string())?;
        let clean = span("core.check.check", || ped.check(Default::default()))
            .map(|r| r.clean())
            .unwrap_or(false);
        ped.undo();
        if clean {
            return Ok((ped.program().units[u].name.clone(), h.0));
        }
    }
    Err("no loop parallelizes cleanly".into())
}

pub fn run(opts: &Opts) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut suite = ped_workloads::all_programs();
    if opts.tiny {
        suite.truncate(3);
    }
    let mut rep = 0;
    let ((daemon, progs), setups) = repeated_setup(SETUP_REPS, || {
        rep += 1;
        let dir = crate::scratch_dir().join(format!("store-{rep}"));
        let store = GraphStore::open(&dir).map_err(|e| format!("store: {e}"))?;
        let daemon = Arc::new(Daemon::new(Some(store)));
        let mut progs = Vec::new();
        for w in &suite {
            let (unit, target) = pick_target(w.source).map_err(|e| format!("{}: {e}", w.name))?;
            let open_req = Json::obj(vec![
                ("id", Json::int(0)),
                ("verb", Json::str("open")),
                ("source", Json::str(w.source)),
            ])
            .to_string_compact();
            // Cold pass: analyze and persist, so timed opens start warm.
            let v = span("core.serve.open", || send(&daemon, 0, "open", &open_req))?;
            let s = v.get("session").and_then(Json::as_u64).ok_or("open: no session id")?;
            span("core.serve.analyze", || {
                send(&daemon, 0, "analyze", &request("analyze", s, vec![]))
            })?;
            span("core.serve.close", || send(&daemon, 0, "close", &request("close", s, vec![])))?;
            progs.push(Prog { name: w.name, open_req, unit, target });
        }
        Ok((daemon, Arc::new(progs)))
    })?;
    out.setups_s = setups;
    let mut clients: Vec<ServeClient> = (0..2u64)
        .map(|c| ServeClient {
            daemon: Arc::clone(&daemon),
            owner: c + 1,
            progs: Arc::clone(&progs),
            seed: opts.seed,
            rng: Rng::seed_from_u64(pair_seed(opts.seed, 0)),
            verb_ms: Default::default(),
        })
        .collect();
    // The first pairs' rotation orders.
    let mut digest = FNV_START;
    for k in 0..4 {
        let mut rng = Rng::seed_from_u64(pair_seed(opts.seed, k));
        digest = fnv(
            digest,
            &shuffled(progs.len(), &mut rng).iter().map(|&i| i as u8).collect::<Vec<_>>(),
        );
    }
    for p in progs.iter() {
        digest = fnv(digest, format!("{}:{}:{}", p.name, p.unit, p.target).as_bytes());
    }
    out.digest = digest;
    // Warm-up: one rotation per client.
    for c in clients.iter_mut() {
        guarded(|| c.op())?;
        c.verb_ms = Default::default();
    }
    let before = daemon.stats();
    drive_pairs(&mut clients, 2, 1, 2, 1, opts.seconds, opts.trace, &mut out.rec);
    out.speedup_t2 = out.rec.pair_speedup();
    let after = daemon.stats();
    if after.errors != before.errors {
        out.rec.fail(format!("daemon counted {} request errors", after.errors - before.errors));
    }
    if opts.trace {
        for (i, verb) in VERBS.iter().enumerate() {
            let ms: Vec<f64> = clients.iter().flat_map(|c| c.verb_ms[i].iter().copied()).collect();
            out.layer.push((format!("core.serve.{verb}_p50_ms"), crate::stats::quantile(&ms, 0.5)));
            out.layer.push((format!("core.serve.{verb}_p90_ms"), crate::stats::quantile(&ms, 0.9)));
        }
        let opened = (after.sessions_opened - before.sessions_opened).max(1) as f64;
        out.layer.extend([
            (
                "core.store.warm_open_ratio".to_string(),
                (after.warm_opens - before.warm_opens) as f64 / opened,
            ),
            (
                "core.store.graphs_loaded".to_string(),
                (after.graphs_loaded - before.graphs_loaded) as f64 / opened,
            ),
            (
                "core.store.graphs_persisted".to_string(),
                (after.graphs_persisted - before.graphs_persisted) as f64 / opened,
            ),
        ]);
    }
    Ok(out)
}
