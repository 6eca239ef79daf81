#!/usr/bin/env python3
"""Steadiness check for the benchmark: run every workload on several seeds,
in one or more sets, and report each end-to-end metric's median, quartiles
and spread (quartile distance over median) per set, plus the shift of each
set's median from the first set's. A metric whose set medians differ by more
than a tenth is named as not repeating. The ungated diagnostics every run
prints (throughput, op latency percentiles, CPU per op) are summarized too.

Usage (from the repository root):

    python3 pedbench/steady.py --seeds 10 --sets 2 \
        --out steadiness.json --markdown steadiness.md

Runs go through the command in BENCHMARK.json, one at a time, workloads
interleaved within a set so each sees the same spread of host conditions.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


# Diagnostics every run prints besides its metrics; summarized per set too.
DIAGNOSTICS = ["throughput_per_s", "op_p50_ms", "op_p90_ms", "cpu_ms_per_op"]


def run_once(command, workload, seed, seconds, trace):
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", str(trace)]
    t = time.time()
    p = subprocess.run(args, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    elapsed = time.time() - t
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        sys.stderr.write(p.stderr[-2000:])
        raise SystemExit(f"{workload} seed {seed}: exit {p.returncode}")
    diag = {}
    for line in lines:
        if line.startswith("diagnostics "):
            diag = json.loads(line[len("diagnostics "):])
    result = json.loads(lines[-1])
    return result, diag, elapsed


def summarize(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med,
            "values": values}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", type=int, default=10, help="runs per workload per set")
    ap.add_argument("--sets", type=int, default=2)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workloads", default="", help="comma-separated; default all")
    ap.add_argument("--seconds", type=float, default=0, help="default: run_seconds")
    ap.add_argument("--out", default="", help="JSON report path")
    ap.add_argument("--markdown", default="", help="Markdown summary path")
    a = ap.parse_args()

    bench = json.load(open("BENCHMARK.json"))
    command = bench["command"]
    seconds = a.seconds or bench["run_seconds"]
    workloads = a.workloads.split(",") if a.workloads else [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    sets = []
    seed = a.first_seed
    for s in range(a.sets):
        runs = {w: [] for w in workloads}
        for _ in range(a.seeds):
            for w in workloads:
                result, diag, elapsed = run_once(command, w, seed, seconds, 0)
                runs[w].append({"seed": seed, "result": result, "diag": diag, "elapsed_s": elapsed})
                m = result["metrics"]
                print(f"set {s + 1} {w:13s} seed {seed:3d} {elapsed:5.1f}s correct={result['correct']} "
                      f"failed={result['failed']}/{result['attempted']} "
                      + " ".join(f"{k}={v['value']:.4g}" for k, v in m.items())
                      + f" ref_ms={diag.get('host.ref_ms_start', 0):.2f}/{diag.get('host.ref_ms_end', 0):.2f}",
                      flush=True)
            seed += 1
        sets.append(runs)

    report = {"seconds": seconds, "seeds_per_set": a.seeds, "workloads": {}, "runs": [
        {"set": i + 1, "workload": w, "seed": r["seed"], "elapsed_s": round(r["elapsed_s"], 2),
         "correct": r["result"]["correct"], "attempted": r["result"]["attempted"],
         "failed": r["result"]["failed"], "diagnostics": r["diag"],
         "metrics": {k: v["value"] for k, v in r["result"]["metrics"].items()}}
        for i, runs in enumerate(sets) for w in workloads for r in runs[w]]}
    worst = []
    not_repeating = []
    for w in workloads:
        wrep = {"sets": []}
        for runs in sets:
            metrics = {name: summarize([r["result"]["metrics"][name]["value"] for r in runs[w]])
                       for name in bounds}
            diagnostics = {name: summarize([r["diag"][name] for r in runs[w]])
                           for name in DIAGNOSTICS if all(name in r["diag"] for r in runs[w])}
            wrep["sets"].append({
                "seeds": [r["seed"] for r in runs[w]],
                "attempted": sum(r["result"]["attempted"] for r in runs[w]),
                "failed": sum(r["result"]["failed"] for r in runs[w]),
                "all_correct": all(r["result"]["correct"] for r in runs[w]),
                "metrics": metrics,
                "diagnostics": diagnostics,
            })
        print(f"\n{w}")
        for name, bound in bounds.items():
            meds = [st["metrics"][name]["median"] for st in wrep["sets"]]
            spreads = [st["metrics"][name]["spread"] for st in wrep["sets"]]
            shift = max(abs(m / meds[0] - 1) for m in meds)
            if shift > 0.1:
                not_repeating.append({"workload": w, "metric": name, "shift": shift,
                                      "spreads": spreads})
            print(f"  {name:18s} bound {bound:.2f}  medians " + " ".join(f"{m:.4g}" for m in meds)
                  + "  spreads " + " ".join(f"{x:.3f}" for x in spreads) + f"  shift {shift:.3f}")
            worst.append((max(spreads) / bound if name != "setup_s" else 0, shift / bound, w, name))
        report["workloads"][w] = wrep
    report["not_repeating_within_a_tenth"] = not_repeating
    for n in not_repeating:
        print("does not repeat within a tenth: %(workload)s %(metric)s shift %(shift).3f" % n)
    print("\nworst spread/bound: %.2f (%s %s)" % max((x[0], x[2], x[3]) for x in worst))
    print("worst shift/bound:  %.2f (%s %s)" % max((x[1], x[2], x[3]) for x in worst))
    if a.out:
        with open(a.out, "w") as f:
            json.dump(report, f, indent=1)
    if a.markdown:
        with open(a.markdown, "w") as f:
            f.write(markdown(report, bounds))


def markdown(report, bounds):
    out = [f"Runs of {report['seconds']} s, {report['seeds_per_set']} seeds per set; "
           "spread = (q3 - q1) / median; shift = |set median / set 1 median - 1|.\n"]
    for w, wrep in report["workloads"].items():
        sets = wrep["sets"]
        out.append(f"\n### {w}\n")
        out.append("ops: " + "; ".join(
            f"set {i + 1} seeds {st['seeds'][0]}-{st['seeds'][-1]}: {st['failed']} failed of "
            f"{st['attempted']} attempted" for i, st in enumerate(sets)) + "\n")
        head = "| metric | bound | " + " | ".join(
            f"set {i + 1} median [q1, q3] | spread" for i in range(len(sets))) + " | shift |"
        out.append(head)
        out.append("|" + "---|" * (3 + 2 * len(sets)))
        rows = [(name, bound, "metrics") for name, bound in bounds.items()]
        rows += [(name, "diagnostic", "diagnostics") for name in DIAGNOSTICS
                 if all(name in st.get("diagnostics", {}) for st in sets)]
        for name, bound, kind in rows:
            cells = []
            for st in sets:
                m = st[kind][name]
                cells.append(f"{m['median']:.4g} [{m['q1']:.4g}, {m['q3']:.4g}] | {m['spread']:.3f}")
            shift = max(abs(st[kind][name]["median"] / sets[0][kind][name]["median"] - 1)
                        for st in sets)
            out.append(f"| {name} | {bound} | " + " | ".join(cells) + f" | {shift:.3f} |")
    nr = report.get("not_repeating_within_a_tenth", [])
    out.append("\nMetrics whose set medians differ by more than a tenth: " + (
        "; ".join(f"{n['workload']} {n['metric']} (shift {n['shift']:.3f}, spreads "
                  + ", ".join(f"{x:.3f}" for x in n["spreads"]) + ")" for n in nr) or "none") + ".\n")
    return "\n".join(out)


if __name__ == "__main__":
    main()
