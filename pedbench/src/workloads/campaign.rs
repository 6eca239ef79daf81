//! `campaign`: [`run_campaign`] on seeded batches of generated programs.
//!
//! One op is one generated program taken through the campaign pipeline
//! (generate → analyze → autopar → shadow check → four-variant
//! equivalence). Programs run in batches of one `run_campaign` call each;
//! every batch runs twice back to back, once with two workers and once
//! with one, alternating which goes first, over the same seed range. The
//! two-worker batches are the main configuration; every batch must come
//! back clean. Seed ranges are derived from the benchmark seed and never
//! repeat within a run.
//!
//! `speedup_t2` is the median per-pair ratio of one-worker to two-worker
//! batch wall time. Latency samples are per-batch milliseconds per program.

use super::{guarded, repeated_setup, SETUP_REPS};
use crate::stats::{median, Stopwatch};
use crate::trace::{self, span};
use crate::{fnv, Opts, Outcome, FNV_START, STAGES};
use ped_core::{run_campaign, CampaignConfig, CampaignOutcome};
use std::time::{Duration, Instant};

fn batch_config(start: u64, seeds: usize, workers: usize) -> CampaignConfig {
    CampaignConfig { seeds, seed_start: start, workers, ..CampaignConfig::default() }
}

fn checked(cfg: &CampaignConfig) -> Result<CampaignOutcome, String> {
    let o = span("core.campaign.run", || run_campaign(cfg));
    if !o.clean() {
        return Err(format!(
            "seeds {}..{}: {} discrepancies, first: {:?}",
            cfg.seed_start,
            cfg.seed_start + cfg.seeds as u64,
            o.discrepancies.len(),
            o.discrepancies.first().map(|d| (&d.class, d.seed))
        ));
    }
    if o.seeds != cfg.seeds {
        return Err(format!("ran {} of {} seeds", o.seeds, cfg.seeds));
    }
    Ok(o)
}

pub fn run(opts: &Opts) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let batch = if opts.tiny { 2 } else { 4 };
    // Seed ranges of different benchmark seeds never overlap.
    let base = 1 + opts.seed.wrapping_mul(1 << 24) % (1 << 60);
    let warm = batch_config(base, batch, 2);
    let (warm_outcome, setups) = repeated_setup(SETUP_REPS, || checked(&warm))?;
    out.setups_s = setups;
    out.digest = fnv(FNV_START, &base.to_le_bytes());
    for s in base..base + 4 {
        let src = ped_workloads::generator::gen_source(ped_workloads::generator::GenConfig {
            seed: s,
            ..warm.gen
        });
        out.digest = fnv(out.digest, src.as_bytes());
    }

    let rec = &mut out.rec;
    let mut stage_ns = [0u64; 5];
    let mut programs = 0u64;
    let deadline = Instant::now() + Duration::from_secs_f64(opts.seconds);
    let mut pair = 0u64;
    while Instant::now() < deadline || pair < 4 {
        let start = base + (1 + pair) * batch as u64;
        let traced = opts.trace && (pair / 2) % 2 == 1;
        trace::set_enabled(traced);
        let mut wall_by_workers = [0.0f64; 2];
        for half in 0..2u64 {
            let workers = if (half + pair).is_multiple_of(2) { 2 } else { 1 };
            rec.attempted += batch as u64;
            let sw = Stopwatch::start();
            let r = guarded(|| {
                trace::span("bench.op", || checked(&batch_config(start, batch, workers)))
            });
            let (wall, cpu) = sw.stop();
            match r {
                Err(e) => {
                    rec.failed += batch as u64 - 1;
                    rec.fail(e);
                }
                Ok(o) => {
                    wall_by_workers[workers - 1] = wall;
                    if traced {
                        rec.traced_all_ops += o.seeds as u64;
                    }
                    if workers == 2 {
                        for (acc, ns) in stage_ns.iter_mut().zip(o.stage_ns) {
                            *acc += ns;
                        }
                        programs += o.seeds as u64;
                        if traced {
                            rec.traced_ops += o.seeds as u64;
                            rec.traced_wall_s += wall;
                        } else {
                            rec.main_ops += o.seeds as u64;
                            rec.main_wall_s += wall;
                            rec.main_cpu_s += cpu;
                            rec.lat_ms.push(wall * 1e3 / o.seeds as f64);
                        }
                    }
                }
            }
        }
        if wall_by_workers.iter().all(|&w| w > 0.0) {
            rec.pair_ratios.push(wall_by_workers[0] / wall_by_workers[1]);
        }
        pair += 1;
    }
    trace::set_enabled(false);
    out.speedup_t2 = median(&out.rec.pair_ratios);
    if opts.trace {
        for (stage, ns) in STAGES.iter().zip(stage_ns) {
            out.layer.push((
                format!("core.campaign.{stage}_ms_per_program"),
                ns as f64 / 1e6 / programs.max(1) as f64,
            ));
        }
        out.layer.push((
            "core.campaign.loops_parallelized".to_string(),
            warm_outcome.loops_parallelized as f64,
        ));
        out.layer.push((
            "dep.pair_hit_ratio".to_string(),
            warm_outcome.cache.hits as f64
                / (warm_outcome.cache.hits + warm_outcome.cache.misses).max(1) as f64,
        ));
    }
    Ok(out)
}
