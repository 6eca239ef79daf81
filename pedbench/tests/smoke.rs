//! Smoke test: every workload at a tiny size, through the real command
//! line. Each run must verify, emit every named metric finite and with its
//! unit, and the metric catalogue must match `BENCHMARK.json`. Changing the
//! seed must change the inputs and op order (the digest) but not the set of
//! metric names.

use ped_obs::json::{self, Json};
use pedbench::{per_layer, END_TO_END, WORKLOADS};
use std::process::Command;

struct Run {
    code: i32,
    digest: String,
    result: Option<Json>,
}

fn bench(workload: &str, seed: u64, trace: bool) -> Run {
    let out = Command::new(env!("CARGO_BIN_EXE_pedbench"))
        .args(["--workload", workload, "--seed", &seed.to_string(), "--seconds", "0.3"])
        .args(["--trace", if trace { "1" } else { "0" }, "--tiny"])
        .output()
        .expect("benchmark binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let digest = stdout
        .lines()
        .find_map(|l| l.strip_prefix("diagnostics "))
        .and_then(|d| json::parse(d).ok())
        .and_then(|d| d.get("digest").and_then(Json::as_str).map(str::to_string))
        .unwrap_or_default();
    Run {
        code: out.status.code().unwrap_or(-1),
        digest,
        result: stdout.lines().last().and_then(|l| json::parse(l).ok()),
    }
}

/// Checks one result line and returns its metric names.
fn check(label: &str, run: &Run, expected: &[(String, &str)]) -> Vec<String> {
    assert_eq!(run.code, 0, "{label}: exit code");
    let r = run.result.as_ref().unwrap_or_else(|| panic!("{label}: no JSON result line"));
    assert_eq!(r.get("correct").and_then(Json::as_bool), Some(true), "{label}: not correct");
    assert_eq!(r.get("failed").and_then(Json::as_u64), Some(0), "{label}: failed ops");
    assert!(r.get("attempted").and_then(Json::as_u64).unwrap_or(0) >= 1, "{label}: no ops");
    let metrics = r.get("metrics").unwrap_or_else(|| panic!("{label}: no metrics"));
    let Json::Obj(pairs) = metrics else { panic!("{label}: metrics is not an object") };
    let names: Vec<String> = pairs.iter().map(|(k, _)| k.clone()).collect();
    let want: Vec<String> = expected.iter().map(|(n, _)| n.clone()).collect();
    assert_eq!(names, want, "{label}: metric names");
    for (name, unit) in expected {
        let m = metrics.get(name).expect("listed above");
        let v = m.get("value").and_then(Json::as_f64);
        assert!(v.is_some_and(f64::is_finite), "{label}: {name} = {v:?} is not finite");
        assert_eq!(m.get("unit").and_then(Json::as_str), Some(*unit), "{label}: {name} unit");
    }
    names
}

fn end_to_end() -> Vec<(String, &'static str)> {
    END_TO_END.iter().map(|&(n, u)| (n.to_string(), u)).collect()
}

fn smoke(workload: &str) {
    let a = bench(workload, 1, false);
    let names = check(&format!("{workload} seed 1"), &a, &end_to_end());
    let b = bench(workload, 2, false);
    assert_eq!(check(&format!("{workload} seed 2"), &b, &end_to_end()), names);
    assert!(!a.digest.is_empty(), "{workload}: no input digest");
    assert_ne!(a.digest, b.digest, "{workload}: the seed changed neither inputs nor op order");
    assert_eq!(
        bench(workload, 1, false).digest,
        a.digest,
        "{workload}: seed 1 is not reproducible"
    );
    check(&format!("{workload} traced"), &bench(workload, 1, true), &per_layer());
}

#[test]
fn edit_session() {
    smoke("edit-session");
}

#[test]
fn parallel_run() {
    smoke("parallel-run");
}

#[test]
fn serve_mix() {
    smoke("serve-mix");
}

#[test]
fn campaign() {
    smoke("campaign");
}

#[test]
fn bad_usage_fails_without_a_result() {
    for args in [
        &["--workload", "nope"][..],
        &["--seed", "1"][..],
        &["--workload", "campaign", "--trace", "2"][..],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_pedbench")).args(args).output().expect("runs");
        assert_ne!(out.status.code(), Some(0), "{args:?} exited 0");
        assert!(out.stdout.is_empty(), "{args:?} printed a result");
    }
}

#[test]
fn catalogue_matches_benchmark_json() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let b = json::parse(&text).expect("BENCHMARK.json parses");
    let names = |key: &str| -> Vec<(String, String)> {
        b.get(key)
            .and_then(Json::as_arr)
            .unwrap_or_else(|| panic!("{key} is a list"))
            .iter()
            .map(|m| {
                let s = |k: &str| m.get(k).and_then(Json::as_str).unwrap_or_default().to_string();
                (s("name"), s("unit"))
            })
            .collect()
    };
    let workloads: Vec<String> = names("workloads").into_iter().map(|(n, _)| n).collect();
    assert_eq!(workloads, WORKLOADS);
    let own = |v: Vec<(String, &str)>| -> Vec<(String, String)> {
        v.into_iter().map(|(n, u)| (n, u.to_string())).collect()
    };
    assert_eq!(names("end_to_end"), own(end_to_end()));
    assert_eq!(names("per_layer"), own(per_layer()));
}
