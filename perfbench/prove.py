"""Run the benchmark over several seeds and summarise its spread.

    python3 perfbench/prove.py

For every workload in BENCHMARK.json this runs perfbench/run.py for the
workload's run_seconds once per seed in SEEDS with tracing off, and reports,
per end-to-end metric, the median of the per-run values and their
interquartile range as a share of the median (the spread), next to the
metric's bound. It then makes one untraced run on HELD_OUT, a seed the
parameter ranges were not tuned on, and one traced run on TRACED_SEED with
the three costliest functions by self time and the checks against the
profile in ROADMAP.md. The summary goes to perfbench/_results/prove.json;
perfbench/baseline.json is that file as measured at the commit that added
the benchmark.
"""

import json
import statistics
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RESULTS = BENCH / "_results"
SEEDS = range(1, 11)
TRACED_SEED = 1
HELD_OUT = 1009


def run(workload, seed, seconds, trace):
    out = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    if out.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {out.returncode}\n{out.stderr}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med}


def profile_checks(workload, seed):
    """ROADMAP baseline picture, from the spans of a traced run."""
    with open(RESULTS / f"spans-{workload}-seed{seed}.json") as f:
        spans = json.load(f)["spans"]
    per_pass = defaultdict(lambda: defaultdict(float))
    for name, start, end, _parent, scenario, self_s, _counts in spans:
        label, case = scenario.split(":", 1)
        per_pass[label][(case, name, "self")] += self_s
        per_pass[label][(case, name, "total")] += end - start

    def med(key):
        return statistics.median(p[key] for p in per_pass.values())

    if workload == "torus_flow":
        total = med(("density", "variation_harness.check_density_divergence", "total"))
        return {
            "check_density_divergence_s": total,
            "evaluate_fourier_2d_share_of_density": med(
                ("density", "spectral.evaluate_fourier_2d", "self")) / total,
            "is_totally_real_share_of_uniqueness": med(
                ("uniqueness", "immersion.is_totally_real", "total"))
            / med(("uniqueness", "geodesic_flow.uniqueness_compare", "total")),
        }
    if workload == "curve_annulus":
        return {"solve_bvp_annulus_N32_s": med(
            ("bvp32", "geodesic_flow.solve_bvp_annulus", "total"))}
    return {}


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    summary = {"seconds": seconds, "seeds": list(SEEDS), "workloads": {}}
    for w in (w["name"] for w in spec["workloads"]):
        runs = [run(w, s, seconds, 0) for s in SEEDS]
        entry = {"correct": all(r["correct"] for r in runs),
                 "failed": sum(r["failed"] for r in runs),
                 "attempted": sum(r["attempted"] for r in runs), "metrics": {}}
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs]
            stats = spread(values)
            entry["metrics"][name] = {"values": values, "bound": bound, **stats}
            print(f"{w:14s} {name:20s} median {stats['median']:.5g}  "
                  f"spread {stats['spread']:.3f}  bound {bound}", flush=True)
        held = run(w, HELD_OUT, seconds, 0)
        entry["held_out"] = {"seed": HELD_OUT, "correct": held["correct"],
                             "failed": held["failed"],
                             "metrics": {k: v["value"] for k, v in held["metrics"].items()}}
        print(f"{w:14s} held-out seed {HELD_OUT}: correct {held['correct']}")
        traced = run(w, TRACED_SEED, seconds, 1)
        meta = json.loads((RESULTS / f"run-{w}-seed{TRACED_SEED}-trace1.json").read_text())
        entry["traced"] = {"seed": TRACED_SEED, "correct": traced["correct"],
                           "top_self_s": meta["top_self_s"],
                           "profile": profile_checks(w, TRACED_SEED),
                           "metrics": {k: v["value"] for k, v in traced["metrics"].items()}}
        print(f"{w:14s} traced: {entry['traced']['top_self_s']} "
              f"{entry['traced']['profile']}", flush=True)
        summary["workloads"][w] = entry
    for key in ("git_sha", "machine", "threads"):
        summary[key] = meta[key]
    RESULTS.mkdir(parents=True, exist_ok=True)
    with open(RESULTS / "prove.json", "w") as f:
        json.dump(summary, f, indent=1)


if __name__ == "__main__":
    main()
