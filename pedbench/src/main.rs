//! Command line: `pedbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//! (plus `--tiny` for smoke-test sizes).
//!
//! Prints a diagnostics line, then, as the last line of standard output,
//! one JSON object with `correct`, `attempted`, `failed` and `metrics`.
//! Exits 0 when every op verified, 1 when some did not, 2 on bad usage or
//! when the workload could not be set up.

use pedbench::{num, result_json, run, scratch_dir, Opts};

fn parse_args() -> Result<Opts, String> {
    let mut opts =
        Opts { workload: String::new(), seed: 1, seconds: 10.0, trace: false, tiny: false };
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        let mut val = |name: &str| args.next().ok_or_else(|| format!("{name} needs a value"));
        match a.as_str() {
            "--workload" => opts.workload = val("--workload")?,
            "--seed" => opts.seed = val("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                opts.seconds = val("--seconds")?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(opts.seconds > 0.0 && opts.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                opts.trace = match val("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--tiny" => opts.tiny = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if opts.workload.is_empty() {
        return Err("--workload is required".into());
    }
    Ok(opts)
}

fn main() {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("pedbench: {e}");
            std::process::exit(2);
        }
    };
    let result = run(&opts);
    let _ = std::fs::remove_dir_all(scratch_dir());
    let report = match result {
        Ok(r) => r,
        Err(e) => {
            eprintln!("pedbench: {}: {e}", opts.workload);
            std::process::exit(2);
        }
    };
    if opts.trace {
        let path = std::path::Path::new(".pedbench")
            .join(format!("trace-{}-seed{}.jsonl", opts.workload, opts.seed));
        let written =
            std::fs::create_dir_all(".pedbench").and_then(|()| pedbench::trace::write_jsonl(&path));
        if let Err(e) = written {
            eprintln!("pedbench: writing {}: {e}", path.display());
        }
    }
    for f in &report.failures {
        eprintln!("pedbench: failed op: {f}");
    }
    let diag: Vec<String> =
        report.diag.iter().map(|m| format!("\"{}\": {}", m.name, num(m.value))).collect();
    println!("diagnostics {{\"digest\": \"{:016x}\", {}}}", report.digest, diag.join(", "));
    println!("{}", result_json(&report));
    std::process::exit(if report.correct { 0 } else { 1 });
}
