"""The repository benchmark: three workloads through ``run_protocol``.

    python3 perfbench/run.py [--workload NAME|all] [--seed N]
                             [--seconds S] [--trace 0|1]

Run from the root of a source checkout.  A benchmark seed stands for a
few short simulations (``workloads.sim_seeds``).  Each run is one of
them in a fresh process (``perfbench/child.py``), one at a time, in
turn, until ``--seconds`` are used (each simulation at least once).
Host-time metrics are process CPU seconds scaled to a reference host
speed (the run's CPU time times ``CALIBRATION_REF_S`` over the CPU time
of the ``calib`` yardstick timed in the same process), and the reported
value is the median over the runs; simulated metrics are the mean over
the simulations.  Simulated metrics repeat exactly for a simulation seed,
and every run must reproduce the simulated fingerprint of the first run
of its simulation seed with zero invariant violations — otherwise the
run counts as failed and the command exits 1.

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``.
``--trace 1`` adds one traced run, in which the layers' public entry
points are wrapped from outside, and reports the per-layer metrics: self
time per layer, call times, counts, and the tracing overhead (traced
``total_s`` minus the untraced median).  Spans, runs and the manifest are
written to ``.perfbench/`` in the checkout.  The last line of standard
output is one JSON object: ``correct``, ``attempted`` and ``failed``
(runs) and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from gate import check_runs  # noqa: E402
from spans import Span, inclusive_times, layer_self_times  # noqa: E402

#: untraced runs per invocation, at least, whatever ``--seconds`` says
#: (and at least one per simulation seed)
MIN_RUNS = 3
#: end-to-end metrics measured on the host; the others are simulated
HOST_METRICS = ("setup_s", "loop_s", "total_s", "peak_rss_mb")
#: the host times that are scaled to the reference host speed
CPU_METRICS = ("setup_s", "loop_s", "total_s")
#: ``calib.measure()`` before plus after a run on the host the benchmark
#: was defined on (2-vCPU Xeon VM, CPython 3.11) in a typical minute: a
#: run whose yardstick takes this long reports its CPU times unscaled
CALIBRATION_REF_S = 0.085
#: the children's environment: a fixed string-hash seed, so that dict
#: layouts (and so their speed) do not vary from process to process
CHILD_ENV = dict(os.environ, PYTHONHASHSEED="0")
#: a child that takes longer than this is killed and counted as failed
CHILD_TIMEOUT_S = 150
#: layers that get a ``<layer>.self_s`` metric from the traced run
LAYERS = ("bench", "workloads", "storage", "cluster", "cc", "core", "sim",
          "durability", "frontend", "obs")
#: per-layer call times: metric -> the span names whose outermost calls
#: it sums
CALL_TIMES = {
    "workloads.load_s": ("workloads.factory", "workloads.build_database"),
    "workloads.check_s": ("workloads.check_invariants",),
    "storage.snapshot_s": ("storage.snapshot",),
    "storage.from_snapshot_s": ("storage.from_snapshot",),
    "storage.residue_s": ("storage.residue",),
    "durability.init_s": ("durability.init",),
    "durability.install_s": ("durability.install",),
    "durability.finalize_s": ("durability.finalize",),
    "cluster.shard_tables_s": ("cluster.shard_tables",),
    "cc.setup_s": ("cc.setup",),
    "obs.export_s": ("obs.export_trace", "obs.export_timeline",
                     "obs.export_metrics"),
}
#: layers some workloads leave off (their counters are then absent)
SWITCHABLE_LAYERS = ("durability", "cluster", "frontend", "obs")
#: printed with the end-to-end metrics but not bounded (see README.md)
UNBOUNDED_UNITS = {"sim_p50_us": "us", "failed_frac": "ratio"}


class BenchError(Exception):
    """The benchmark cannot run here (missing program, input or spec)."""


def load_spec() -> dict:
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        raise BenchError(f"{path} not found")
    return json.loads(path.read_text())


def check_checkout(names: List[str]) -> None:
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        raise BenchError(f"no program source under {ROOT / 'src'}; run "
                         "from the root of a repository checkout")
    for name in names:
        for path in workloads.input_files(name):
            if not path.is_file():
                raise BenchError(f"{name}: input {path} is missing "
                                 "(committed artifacts are never retrained)")


# ---------------------------------------------------------------------- #
# manifest


def git_revision() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def source_hash() -> str:
    """sha256 over the program's Python sources (path + bytes), so a
    checkout without git history still names the code it measured."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def manifest(seed: int, names: List[str], results: Dict[str, dict]) -> dict:
    return {
        "seed": seed,
        "git_revision": git_revision(),
        "src_sha256": source_hash(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)),
        "workloads": {
            name: {
                "config_hash": results[name].get("config_hash"),
                "sim_seeds": workloads.sim_seeds(name, seed),
                "inputs": {path.name: workloads.sha256_file(path)
                           for path in workloads.input_files(name)},
            } for name in names},
    }


# ---------------------------------------------------------------------- #
# runs


def run_child(name: str, seed: int, traced: bool) -> dict:
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", name,
           "--seed", str(seed)] + (["--trace"] if traced else [])
    start = time.perf_counter()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=CHILD_ENV,
                              capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"error": f"timed out after {CHILD_TIMEOUT_S}s",
                "wall_s": time.perf_counter() - start}
    wall = time.perf_counter() - start
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-1:] or ["(no stderr)"]
        return {"error": f"exit {proc.returncode}: {tail[0]}",
                "wall_s": wall}
    try:
        run = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        return {"error": "no result from the run", "wall_s": wall}
    run["wall_s"] = wall
    return scale_to_reference(run)


def scale_to_reference(run: dict) -> dict:
    """Replace the run's CPU times by CPU times at the reference host
    speed; the measured ones move to ``run["cpu"]``."""
    factor = CALIBRATION_REF_S / run["calibration_s"]
    run["cpu"] = {key: run["e2e"][key] for key in CPU_METRICS}
    run["e2e"].update((key, value * factor)
                      for key, value in run["cpu"].items())
    return run


def collect_runs(name: str, seed: int, seconds: float,
                 trace: bool) -> List[dict]:
    """Untraced runs of the simulation seeds in turn until the time budget
    is used (keeping room for the traced run when ``trace``), then the
    traced run of the first simulation seed.  Stops at the first crashed
    run."""
    seeds = workloads.sim_seeds(name, seed)
    start = time.perf_counter()
    runs: List[dict] = []
    reserve = 2 if trace else 1
    while True:
        run = run_child(name, seeds[len(runs) % len(seeds)], traced=False)
        runs.append(run)
        print(f"  run {len(runs)}: " + describe(run), flush=True)
        if "error" in run:
            return runs
        elapsed = time.perf_counter() - start
        if len(runs) >= max(MIN_RUNS, len(seeds)) and \
                elapsed + reserve * run["wall_s"] > seconds:
            break
    if trace:
        run = run_child(name, seeds[0], traced=True)
        runs.append(run)
        print(f"  run {len(runs)} (traced): " + describe(run), flush=True)
    return runs


def describe(run: dict) -> str:
    if "error" in run:
        return f"FAILED {run['error']}"
    e2e = run["e2e"]
    return (f"seed {run['seed']} setup {e2e['setup_s']:.3f}s "
            f"loop {e2e['loop_s']:.3f}s total {e2e['total_s']:.3f}s "
            f"rss {e2e['peak_rss_mb']:.0f}MB "
            f"commits {run['fingerprint']['commits']} "
            f"violations {len(run['violations'])}")


def quartiles(values: List[float]):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def end_to_end(untraced: List[dict]) -> Dict[str, float]:
    """Host metrics: the median over the untraced runs.  Simulated
    metrics: the mean over the simulation seeds (they are identical in
    every run of one simulation seed that passed the gate)."""
    by_seed: Dict[object, dict] = {}
    for run in untraced:
        by_seed.setdefault(run.get("seed"), run["e2e"])
    return {key: statistics.median(run["e2e"][key] for run in untraced)
            if key in HOST_METRICS
            else statistics.fmean(e2e[key] for e2e in by_seed.values())
            for key in untraced[0]["e2e"]}


def per_layer(traced: dict, untraced: List[dict],
              spec_metrics: List[dict]) -> Dict[str, float]:
    spans = [Span.from_dict(d) for d in traced["spans"]]
    incl = inclusive_times(spans)
    own = layer_self_times(spans)
    # span times are CPU ns of the traced run, scaled like its CPU times
    per_ns = CALIBRATION_REF_S / traced["calibration_s"] / 1e9
    # the traced run is compared with the untraced runs of its own seed
    median = end_to_end([run for run in untraced
                         if run.get("seed") == traced.get("seed")])
    values: Dict[str, float] = dict(traced["layer"])
    for metric, names in CALL_TIMES.items():
        values[metric] = sum(incl.get(n, 0) for n in names) * per_ns
    for layer in LAYERS:
        values[f"{layer}.self_s"] = own.get(layer, 0) * per_ns
    values["bench.spans"] = len(spans)
    values["bench.trace_overhead_s"] = \
        traced["e2e"]["total_s"] - median["total_s"]
    values["bench.host_slowdown"] = statistics.median(
        run["calibration_s"] for run in untraced) / CALIBRATION_REF_S
    values["bench.cpu_total_s"] = statistics.median(
        run["cpu"]["total_s"] for run in untraced)
    events = traced["layer"]["sim.events"]
    values["sim.loop_us_per_event"] = \
        median["loop_s"] * 1e6 / events if events else 0.0
    names = [m["name"] for m in spec_metrics]
    unknown = [n for n in names if n not in values
               and n.split(".")[0] not in SWITCHABLE_LAYERS]
    if unknown:
        raise BenchError(f"BENCHMARK.json names per-layer metrics the "
                         f"traced run does not produce: {unknown}")
    # counters of layers a workload does not switch on read 0
    return {n: values.get(n, 0) for n in names}


def bench_workload(name: str, seed: int, seconds: float, trace: bool,
                   spec: dict) -> dict:
    print(f"== {name} (seed {seed}, {seconds:g}s, trace {int(trace)}) ==",
          flush=True)
    runs = collect_runs(name, seed, seconds, trace)
    failed, messages = check_runs(runs)
    for line in messages:
        print(f"  GATE FAILED {line}")
    result = {"attempted": len(runs), "failed": failed, "runs": runs,
              "config_hash": runs[0].get("fingerprint", {}).get(
                  "config_hash")}
    if failed:
        result["metrics"] = {}
        return result
    untraced = [run for run in runs if not run["traced"]]
    e2e = end_to_end(untraced)
    sims = len({run["seed"] for run in untraced})
    print(f"  end-to-end: host metrics the median of {len(untraced)} "
          f"untraced runs, simulated metrics the mean of {sims} "
          "simulations [q1 .. q3 over the runs]:")
    samples = sum(run["layer"]["sim.latency_samples"]
                  for run in {r["seed"]: r for r in untraced}.values())
    units = dict(UNBOUNDED_UNITS)
    units.update((m["name"], m["unit"]) for m in spec["end_to_end"])
    for key, value in e2e.items():
        unit = units[key]
        q1, q3 = quartiles([run["e2e"][key] for run in untraced])
        note = f"  (n={samples} commits over the simulations)" \
            if key.startswith("sim_p") else ""
        print(f"    {key:<16} {value:>14.6g} {unit:<6} "
              f"[{q1:.6g} .. {q3:.6g}]{note}")
    cpu = {key: statistics.median(run["cpu"][key] for run in untraced)
           for key in CPU_METRICS}
    slowdown = statistics.median(run["calibration_s"]
                                 for run in untraced) / CALIBRATION_REF_S
    print(f"  host: yardstick {slowdown:.3f}x the reference time; "
          "measured CPU s, median: " + " ".join(
              f"{key} {value:.6g}" for key, value in cpu.items()))
    if trace:
        traced = runs[-1]
        layer = per_layer(traced, untraced, spec["per_layer"])
        print("  per-layer, traced run:")
        for m in spec["per_layer"]:
            print(f"    {m['name']:<36} {layer[m['name']]:>14.6g} "
                  f"{m['unit']}")
        result["metrics"] = {m["name"]: {"value": layer[m["name"]],
                                         "unit": m["unit"]}
                             for m in spec["per_layer"]}
    else:
        result["metrics"] = {m["name"]: {"value": e2e[m["name"]],
                                         "unit": m["unit"]}
                             for m in spec["end_to_end"]}
    return result


def write_output(name: str, seed: int, trace: bool, man: dict,
                 result: dict) -> Path:
    out_dir = ROOT / ".perfbench"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"{name}-seed{seed}-trace{int(trace)}.json"
    path.write_text(json.dumps({"manifest": man, "runs": result["runs"],
                                "metrics": result["metrics"]}) + "\n")
    return path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all",
                        choices=sorted(workloads.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per workload (default: "
                             "run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    names = list(workloads.WORKLOADS) if args.workload == "all" \
        else [args.workload]
    try:
        spec = load_spec()
        check_checkout(names)
        seconds = args.seconds if args.seconds is not None \
            else spec["run_seconds"]
        trace = bool(args.trace)
        results = {name: bench_workload(name, args.seed, seconds, trace,
                                        spec)
                   for name in names}
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    man = manifest(args.seed, names, results)
    print("manifest: " + json.dumps(man, sort_keys=True))
    for name in names:
        path = write_output(name, args.seed, trace, man, results[name])
        print(f"wrote {path.relative_to(ROOT)}")
    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    if len(names) == 1:
        metrics = results[names[0]]["metrics"]
    else:
        metrics = {f"{name}/{key}": value
                   for name in names
                   for key, value in results[name]["metrics"].items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    raise SystemExit(main())
