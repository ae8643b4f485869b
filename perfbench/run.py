"""trgeo benchmark: seeded scenario workloads run through the public CLI.

Usage (from the repository root):

    python3 perfbench/run.py --workload torus_flow --seed 1 --seconds 30 --trace 0

Each pass runs every scenario of the workload in this process through
`trgeo.cli.main(["run", ...])` and checks each written result against the
test suite's pinned tolerances (perfbench/workloads.py). The last line of
standard output is one JSON object: {"correct", "attempted", "failed",
"metrics"}.

--trace 0 reports the end-to-end metrics listed in BENCHMARK.json:
  wall_s               median time of one pass, verification included
  setup_s              median time a fresh interpreter takes to import
                       trgeo.cli with numpy and build the workload's charts
  peak_rss_mb          peak resident memory of this process
  ok_frac              1 - failed_frac: share of scenario runs that passed
  accuracy_margin_dec  min over tolerance checks of log10(tol / err)
After the timed passes, each of --threads 1 and --threads nproc that the
timed passes did not use gets one more pass; its results.json files must
match the timed passes byte for byte.

--trace 1 alternates untraced and traced passes (perfbench/tracer.py) and
reports the per-layer metrics; a traced pass must write the same
results.json bytes as an untraced one. trace.overhead_s is the traced
median pass time minus the untraced one. The spans are written to
perfbench/_results/ when the run ends.

Load discipline: BLAS/OpenMP pools are pinned to one thread before numpy is
imported, and the scenarios get --threads nproc - 1, so the two together
stay within nproc.
"""

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

BLAS_THREADS = 1
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = str(BLAS_THREADS)

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / "_work"
RESULTS = BENCH / "_results"
SETUP_REPEATS = 20
MIN_PASSES = 3

SETUP_CODE = """
import json, sys
import numpy
import trgeo.cli
from trgeo import ambient
for desc in json.loads(sys.argv[1]):
    ambient.chart_from_descriptor(desc)
"""


def time_setup(descs):
    """Wall time of one fresh interpreter importing trgeo.cli."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", SETUP_CODE, json.dumps(descs)],
                   env=env, check=True, cwd=ROOT)
    return time.perf_counter() - t0


class Runner:
    """Runs the workload's scenarios through the CLI and checks them."""

    def __init__(self, cli, workloads, cases, threads):
        self.cli = cli
        self.workloads = workloads
        self.cases = cases
        self.threads = threads
        self.attempted = 0
        self.failures = []
        self.margins = []
        self.reference = {}       # case name -> results.json bytes
        self.bytes_written = 0
        self.n_passes = 0
        WORK.mkdir(parents=True, exist_ok=True)
        self.paths = []
        for case in cases:
            path = WORK / f"{case.scenario['name']}.json"
            path.write_text(json.dumps(case.scenario))
            self.paths.append(path)

    def one_pass(self, prefix, threads=None, tracer=None):
        """Run and check every scenario once; returns the pass's wall time."""
        threads = self.threads if threads is None else threads
        label = f"{prefix}{self.n_passes}"
        self.n_passes += 1
        self.bytes_written = 0
        t0 = time.perf_counter()
        for case, path in zip(self.cases, self.paths):
            name = case.scenario["name"]
            if tracer is not None:
                tracer.scenario = f"{label}:{name}"
            out = WORK / "out" / name
            shutil.rmtree(out, ignore_errors=True)
            self.attempted += 1
            problem = self._run_case(case, path, out, threads)
            if problem:
                self.failures.append(f"{label}:{name}: {problem}")
        return time.perf_counter() - t0

    def _run_case(self, case, path, out, threads):
        try:
            code = self.cli.main(["run", "--scenario", str(path), "--out", str(out),
                                  "--threads", str(threads)])
            if code != case.exit_code:
                return f"exit code {code}, expected {case.exit_code}"
            blob = (out / "results.json").read_bytes()
            checks = self.workloads.Checks()
            case.check(checks, json.loads(blob), str(out))
        except Exception as e:     # a traceback is a failed scenario, not a crash
            return f"{type(e).__name__}: {e}"
        self.bytes_written += sum(p.stat().st_size for p in out.iterdir())
        self.margins.extend(checks.margins)
        if checks.failures:
            return "; ".join(checks.failures)
        ref = self.reference.setdefault(case.scenario["name"], blob)
        if blob != ref:
            return "results.json differs from the first pass"
        return None


def run_passes(seconds, step, after=lambda done: None):
    """Call step() until the passes' total time would exceed `seconds`.

    after(done) runs between passes, outside the timed total, with the share
    of `seconds` the passes have used so far; its last call has done = 1.
    """
    times = []
    while True:
        times.append(step())
        total = sum(times)
        if len(times) >= MIN_PASSES and total * (len(times) + 1) / len(times) > seconds:
            after(1.0)
            return times
        after(min(1.0, total / seconds))


def layer_totals(spans):
    """Per-layer and per-function self time, total time, calls and counts."""
    agg = defaultdict(float)
    for name, start, end, _parent, _scn, self_s, counts in spans:
        agg[name.split(".")[0] + ".self_s"] += self_s
        agg[name + ".self_s"] += self_s
        agg[name + ".total_s"] += end - start
        agg[name + ".calls"] += 1
        for quantity, value in (counts or {}).items():
            agg[f"{name}.{quantity}"] += value
    return agg


def machine_info(np):
    info = {"nproc": os.cpu_count(), "platform": platform.platform(),
            "python": platform.python_version(), "numpy": np.__version__}
    try:
        with open("/proc/cpuinfo") as f:
            models = [l.split(":", 1)[1].strip() for l in f if l.startswith("model name")]
        info["cpu_model"] = models[0] if models else None
    except OSError:
        info["cpu_model"] = None
    caches = {}
    cache_dir = Path("/sys/devices/system/cpu/cpu0/cache")
    for idx in sorted(cache_dir.glob("index*")) if cache_dir.is_dir() else []:
        try:
            level = (idx / "level").read_text().strip()
            kind = (idx / "type").read_text().strip()
            caches[f"L{level}-{kind}"] = (idx / "size").read_text().strip()
        except OSError:
            pass
    info["caches_cpu0"] = caches
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        info["blas"] = None
    return info


def git_sha():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                             capture_output=True, timeout=10,
                             env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)))
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "trgeo" / "cli.py").is_file() or not spec_path.is_file():
        print(f"perfbench: no trgeo sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    sys.path.insert(0, str(SRC))
    import numpy as np
    import tracer as tracer_mod
    import workloads
    from trgeo import cli

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    nproc = os.cpu_count() or 1
    threads = max(1, nproc - BLAS_THREADS)
    cases = workloads.generate(args.workload, args.seed)
    shutil.rmtree(WORK, ignore_errors=True)
    runner = Runner(cli, workloads, cases, threads)
    meta = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
            "seconds": args.seconds, "git_sha": git_sha(),
            "machine": machine_info(np),
            "threads": {"blas_omp": BLAS_THREADS, "cli_threads": threads,
                        "cross_check_threads": [1, nproc]},
            "scenarios": [c.scenario for c in cases]}

    if args.trace == 0:
        descs = workloads.chart_descriptors(cases)
        setup_times = []

        def sample_setup(done):
            # spread the interpreters over the run, so that a slow spell of
            # the host weighs on setup_s no more than on wall_s
            while len(setup_times) < math.ceil(SETUP_REPEATS * done):
                setup_times.append(time_setup(descs))

        times = run_passes(args.seconds, lambda: runner.one_pass("p"), sample_setup)
        setup_s = statistics.median(setup_times)
        for t in sorted({1, nproc} - {threads}):
            runner.one_pass(f"threads{t}-", threads=t)
        q1, wall, q3 = statistics.quantiles(times, n=4)
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        values = {
            "wall_s": wall,
            "setup_s": setup_s,
            "peak_rss_mb": rss_kb / 1024.0,
            "ok_frac": 1.0 - len(runner.failures) / runner.attempted,
            "accuracy_margin_dec": min(runner.margins) if runner.margins else 0.0,
        }
        metrics_spec = spec["end_to_end"]
        meta.update(pass_times=times, wall_iqr_s=q3 - q1, setup_times=setup_times)
        print(f"wall_s median {wall:.4f} s, IQR {q3 - q1:.4f} s over "
              f"{len(times)} passes")
    else:
        tr = tracer_mod.LayerTracer()
        plain, traced, aggs = [], [], []

        def pair():
            plain.append(runner.one_pass("u"))
            first = len(tr.spans)
            tr.install()
            try:
                traced.append(runner.one_pass("t", tracer=tr))
            finally:
                tr.restore()
            agg = layer_totals(tr.spans[first:])
            agg["geodesic_flow.flow_timestep.rk4_steps"] = tracer_mod.rk4_steps(
                tr.spans, first)
            agg["cli.bytes_written"] = runner.bytes_written
            aggs.append(agg)
            return plain[-1] + traced[-1]

        run_passes(args.seconds, pair)
        keys = set().union(*aggs)
        values = {k: statistics.median(a.get(k, 0.0) for a in aggs) for k in keys}
        values["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
        metrics_spec = spec["per_layer"]
        functions = {name for name, *_ in tr.spans}
        top = sorted(((values[f + ".self_s"], f) for f in functions), reverse=True)[:3]
        meta.update(untraced_pass_times=plain, traced_pass_times=traced,
                    top_self_s=[[k, v] for v, k in top], n_spans=len(tr.spans))
        print("costliest by self time: " + ", ".join(f"{k} {v:.3f} s" for v, k in top))
        RESULTS.mkdir(parents=True, exist_ok=True)
        with open(RESULTS / f"spans-{args.workload}-seed{args.seed}.json", "w") as f:
            json.dump({"fields": ["name", "start", "end", "parent", "scenario",
                                  "self_s", "counts"], "spans": tr.spans}, f)

    meta["failures"] = runner.failures
    meta["metrics"] = values
    RESULTS.mkdir(parents=True, exist_ok=True)
    with open(RESULTS / f"run-{args.workload}-seed{args.seed}-trace{args.trace}.json",
              "w") as f:
        json.dump(meta, f, indent=1)
    shutil.rmtree(WORK, ignore_errors=True)
    for failure in runner.failures[:20]:
        print("FAIL " + failure)
    metrics = {m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]}
               for m in metrics_spec}
    for name, m in metrics.items():
        print(f"{args.workload} {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": not runner.failures, "attempted": runner.attempted,
                      "failed": len(runner.failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
