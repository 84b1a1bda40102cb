"""Tests for the benchmark's own logic (no simulation is run).

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402
from gate import check_runs  # noqa: E402
from run import CALL_TIMES, LAYERS, per_layer  # noqa: E402
from spans import (Span, SpanRecorder, inclusive_times,  # noqa: E402
                   layer_self_times, self_times)


def tree():
    """root [0,100) -> a [10,40) -> b [15,25);  root -> c [50,90);
    c -> c' [55,70) with the same name as c (a delegating override)."""
    return [
        Span(0, "bench.run", 0, 100),
        Span(1, "sim.a", 10, 40, parent=0),
        Span(2, "storage.b", 15, 25, parent=1),
        Span(3, "durability.c", 50, 90, parent=0),
        Span(4, "durability.c", 55, 70, parent=3),
    ]


class TestSpanArithmetic:
    def test_self_time_subtracts_children(self):
        assert self_times(tree()) == {0: 30, 1: 20, 2: 10, 3: 25, 4: 15}

    def test_self_times_add_up_to_the_root(self):
        assert sum(self_times(tree()).values()) == 100

    def test_layer_self_times(self):
        assert layer_self_times(tree()) == {
            "bench": 30, "sim": 20, "storage": 10, "durability": 40}

    def test_inclusive_time_counts_outermost_calls_once(self):
        assert inclusive_times(tree()) == {
            "bench.run": 100, "sim.a": 30, "storage.b": 10,
            "durability.c": 40}

    def test_round_trip(self):
        span = tree()[2]
        again = Span.from_dict(span.to_dict())
        assert (again.id, again.name, again.start, again.end,
                again.parent) == (2, "storage.b", 15, 25, 1)


class Target:
    def method(self, x):
        return Target.klass(x) + 1

    @classmethod
    def klass(cls, x):
        return Target.static(x) * 2

    @staticmethod
    def static(x):
        return x + 3


class TestSpanRecorder:
    def test_wraps_nests_and_restores(self):
        ticks = iter(range(100))
        rec = SpanRecorder(clock=lambda: next(ticks))
        originals = {k: vars(Target)[k] for k in ("method", "klass",
                                                   "static")}
        rec.patch(Target, "method", "x.method")
        rec.patch(Target, "klass", "x.klass")
        rec.patch(Target, "static", "x.static")
        assert Target().method(1) == 9
        assert [(s.name, s.parent) for s in rec.spans] == [
            ("x.method", None), ("x.klass", 0), ("x.static", 1)]
        assert all(s.end > s.start for s in rec.spans)
        rec.restore()
        assert {k: vars(Target)[k] for k in originals} == originals
        assert Target().method(1) == 9
        assert len(rec.spans) == 3

    def test_span_closes_when_the_call_raises(self):
        rec = SpanRecorder()

        def boom():
            raise ValueError("boom")

        with pytest.raises(ValueError):
            rec.wrap("x.boom", boom)()
        assert rec.spans[0].end >= rec.spans[0].start
        rec.wrap("x.after", lambda: None)()
        assert rec.spans[1].parent is None

    def test_after_hook_sees_arguments_and_result(self):
        rec = SpanRecorder()
        seen = []
        rec.wrap("x.f", lambda a: a * 2,
                 after=lambda args, result: seen.append((args, result)))(4)
        assert seen == [((4,), 8)]


def good_run(**fingerprint):
    base = {"config_hash": "abc", "commits": 10, "events": 99,
            "sim_tps": "1000.0"}
    base.update(fingerprint)
    return {"violations": [], "fingerprint": base}


class TestGate:
    def test_identical_clean_runs_pass(self):
        assert check_runs([good_run(), good_run(), good_run()]) == (0, [])

    def test_fingerprint_mismatch_fails(self):
        failed, messages = check_runs([good_run(), good_run(commits=11),
                                       good_run()])
        assert failed == 1
        assert "run 2" in messages[0] and "commits 11 != 10" in messages[0]

    def test_injected_invariant_violation_fails(self):
        bad = good_run()
        bad["violations"] = ["district 1: next_o_id mismatch"]
        failed, messages = check_runs([good_run(), bad])
        assert failed == 1
        assert "invariant violation" in messages[0]

    def test_violation_in_the_reference_run_fails(self):
        bad = good_run()
        bad["violations"] = ["residue"]
        assert check_runs([bad, good_run()])[0] == 1

    def test_crashed_run_fails(self):
        failed, messages = check_runs([good_run(), {"error": "exit 1: x"}])
        assert failed == 1 and "exit 1" in messages[0]

    def test_each_simulation_seed_has_its_own_reference(self):
        runs = [dict(good_run(commits=c), seed=s)
                for s, c in ((4, 10), (5, 12), (4, 10), (5, 12))]
        assert check_runs(runs) == (0, [])
        runs.append(dict(good_run(commits=10), seed=5))
        failed, messages = check_runs(runs)
        assert failed == 1
        assert "run 5" in messages[0] and "from run 2" in messages[0]
        assert "commits 10 != 12" in messages[0]


class TestEndToEnd:
    def test_cpu_times_are_scaled_to_the_reference_host_speed(self):
        measured = {"setup_s": 1.0, "loop_s": 4.0, "total_s": 6.0,
                    "peak_rss_mb": 50.0, "sim_tps": 10.0}
        slow = {"calibration_s": 2 * run.CALIBRATION_REF_S,
                "e2e": dict(measured)}
        run.scale_to_reference(slow)
        assert slow["e2e"] == {"setup_s": 0.5, "loop_s": 2.0,
                               "total_s": 3.0, "peak_rss_mb": 50.0,
                               "sim_tps": 10.0}
        assert slow["cpu"] == {"setup_s": 1.0, "loop_s": 4.0,
                               "total_s": 6.0}

    def test_host_metrics_are_medians_simulated_are_means(self):
        untraced = [{"seed": s, "e2e": {"loop_s": t, "sim_tps": tps}}
                    for s, t, tps in ((8, 1.0, 100.0), (9, 5.0, 300.0),
                                      (8, 2.0, 100.0))]
        assert run.end_to_end(untraced) == {"loop_s": 2.0, "sim_tps": 200.0}

    def test_simulation_seeds_of_distinct_seeds_are_disjoint(self):
        for name in workloads.WORKLOADS:
            seen = [workloads.sim_seeds(name, seed) for seed in range(1, 20)]
            flat = [s for seeds in seen for s in seeds]
            assert len(set(flat)) == len(flat)
            assert workloads.sim_seeds(name, 3) == workloads.sim_seeds(name, 3)


class TestPerLayer:
    def traced(self):
        spans = [s.to_dict() for s in tree()]
        spans.append(Span(5, "storage.snapshot", 60, 65, parent=4).to_dict())
        return {"spans": spans, "e2e": {"total_s": 3.0, "loop_s": 2.0},
                "calibration_s": run.CALIBRATION_REF_S / 2,
                "layer": {"sim.events": 1000, "cc.commit_ratio": 0.5}}

    def test_metrics_from_spans_counts_and_untraced_medians(self):
        untraced = [{"e2e": {"total_s": t, "loop_s": 1.0},
                     "calibration_s": c * run.CALIBRATION_REF_S,
                     "cpu": {"total_s": t * c}}
                    for t, c in ((2.0, 1.0), (2.5, 1.5), (9.0, 4.0))]
        names = ["cc.commit_ratio", "storage.snapshot_s", "sim.self_s",
                 "bench.trace_overhead_s", "sim.loop_us_per_event",
                 "cluster.prepares", "bench.host_slowdown",
                 "bench.cpu_total_s"]
        values = per_layer(self.traced(), untraced,
                           [{"name": n} for n in names])
        assert values["cc.commit_ratio"] == 0.5
        # span times scale like the traced run's CPU times (2x here)
        assert values["storage.snapshot_s"] == pytest.approx(10e-9)
        assert values["sim.self_s"] == pytest.approx(40e-9)
        assert values["bench.trace_overhead_s"] == pytest.approx(0.5)
        assert values["sim.loop_us_per_event"] == pytest.approx(1000.0)
        assert values["cluster.prepares"] == 0  # layer off: reads 0
        assert values["bench.host_slowdown"] == pytest.approx(1.5)
        assert values["bench.cpu_total_s"] == pytest.approx(3.75)

    def test_unknown_metric_name_is_an_error(self):
        untraced = [{"e2e": {"total_s": 1.0, "loop_s": 1.0},
                     "calibration_s": 1.0, "cpu": {"total_s": 1.0}}]
        with pytest.raises(run.BenchError, match="sim.evnets"):
            per_layer(self.traced(), untraced, [{"name": "sim.evnets"}])

    def test_every_declared_layer_metric_is_computed(self):
        spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
        names = {m["name"] for m in spec["per_layer"]}
        assert set(CALL_TIMES) <= names
        assert {f"{layer}.self_s" for layer in LAYERS} <= names


def test_refuses_to_run_without_the_program(tmp_path):
    """In a directory holding only the benchmark, it exits non-zero and
    prints no result."""
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload",
         "micro-hot-polyjuice", "--seed", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
    assert "error:" in proc.stderr


def test_missing_policy_is_an_error(monkeypatch):
    params = copy.deepcopy(workloads.WORKLOADS)
    params["micro-hot-polyjuice"]["policy"] = "no_such_policy.json"
    monkeypatch.setattr(workloads, "WORKLOADS", params)
    with pytest.raises(run.BenchError, match="never retrained"):
        run.check_checkout(["micro-hot-polyjuice"])
