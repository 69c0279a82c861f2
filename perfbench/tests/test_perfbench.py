"""Quick-size checks of the benchmark itself.

Run from the root of a checkout with ``python3 -m pytest perfbench/tests``.
"""

import json
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import spans  # noqa: E402
from workloads import WORKLOADS, Outcome  # noqa: E402

SEED_CALLS_PER_STEP = {"closures.closure_factors": 4,
                       "state.recover_delta1": 6,
                       "hyperbolicity.jacobian_coeffs": 3,
                       "hyperbolicity.nickalls_bounds": 3}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_quick_workload_passes_checks_and_trace_self_check(name, tmp_path):
    workload = WORKLOADS[name](seed=3, work_dir=tmp_path, quick=True)
    m = run.measure(workload, seconds=0.0, trace=True)
    assert m["failed"] == 0, m["problems"]
    assert len(m["walls"]) >= run.MIN_SOLUTIONS
    assert len(m["layers"]) >= run.MIN_SOLUTIONS

    end_to_end = run.metrics_of(m, trace=False)
    assert set(end_to_end) == set(run.END_TO_END_UNITS)
    assert all(v["value"] > 0 for v in end_to_end.values())
    layers = run.metrics_of(m, trace=True)
    assert set(layers) == set(run.per_layer_units())

    if name == "mlsw_bump":
        assert layers["mlsw.steps"]["value"] > 0
        assert layers["timeloop.steps"]["value"] == 0
        assert layers["mlsw._thomas.self_s"]["value"] > 0
    else:
        assert layers["timeloop.steps"]["value"] > 0
        for key, calls in SEED_CALLS_PER_STEP.items():
            assert layers[f"{key}.calls_per_step"]["value"] == calls
    if name == "bump_ensemble":
        assert layers["riemann.newton_active_ratio"]["value"] > 0
    if name == "impulsive_cli":
        assert layers["riemann.newton_active_ratio"]["value"] == 0
        assert layers["scenarios.emit_snapshot.bytes"]["value"] > 0


def test_same_seed_same_inputs(tmp_path):
    for cls in WORKLOADS.values():
        a, b, c = (cls(seed, tmp_path, quick=True) for seed in (5, 5, 6))
        drawn = [(getattr(w, "alpha", None), getattr(w, "center", None),
                  getattr(w, "snapshot_times", None)) for w in (a, b, c)]
        assert drawn[0] == drawn[1] != drawn[2]


def test_checks_reject_a_wrong_answer(tmp_path):
    workload = WORKLOADS["bump_ensemble"](seed=3, work_dir=tmp_path,
                                          quick=True)
    workload.setup()
    raw = workload.solve()
    assert workload.check(raw).problems == []
    # sub and sup bumps swapped: the phase-lag signs of criterion 5 flip
    raw["sub_bump"], raw["sup_bump"] = raw["sup_bump"], raw["sub_bump"]
    raw["sub_flat"], raw["sup_flat"] = raw["sup_flat"], raw["sub_flat"]
    assert any("criterion 5" in p for p in workload.check(raw).problems)

    cli = WORKLOADS["impulsive_cli"](seed=3, work_dir=tmp_path, quick=True)
    cli.setup()
    raw = cli.solve()
    assert cli.check(raw).problems == []
    final = cli.out / "final.csv"
    final.write_text("\n".join(final.read_text().splitlines()[:-1]) + "\n")
    assert any("rows" in p for p in cli.check(raw).problems)


def test_self_time_subtracts_child_spans(monkeypatch):
    ticks = iter(range(100))
    monkeypatch.setattr(spans.time, "perf_counter", lambda: next(ticks))
    mod = types.ModuleType("fake_layers")

    def inner():
        return 1

    def outer():
        return mod.inner() + 1

    mod.inner, mod.outer = inner, outer
    monkeypatch.setitem(sys.modules, "fake_layers", mod)
    tracer = spans.Tracer({"fake.outer": ("fake_layers", "outer", None),
                           "fake.inner": ("fake_layers", "inner", None)})
    with tracer:
        assert mod.outer() == 2
    assert mod.outer is outer and mod.inner is inner
    summary = tracer.summary("fake.outer")
    # outer spans ticks 0..3, inner 1..2
    assert summary["self_s"] == {"fake.outer": 2, "fake.inner": 1}
    assert summary["in_step"]["fake.inner"] == 1


def test_self_check_catches_a_reference_left_unwrapped(monkeypatch):
    mod = types.ModuleType("fake_layers")

    def work():
        return 1

    mod.work = work
    registry = {"work": work}   # held outside any module namespace
    monkeypatch.setitem(sys.modules, "fake_layers", mod)
    tracer = spans.Tracer({"fake.work": ("fake_layers", "work", None)})
    with tracer:
        _, profiled = spans.profile_calls(
            tracer.originals, lambda: mod.work() + registry["work"]())
    summary = tracer.summary("timeloop.step")
    problems = run.trace_problems(summary, Outcome(None, 0.0, ""), profiled)
    assert problems == ["trace: fake.work wrapped 1 calls, profiler saw 2"]


def test_fails_without_the_solver_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{BENCH.name}/run.py", "--workload",
         "bump_ensemble", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_benchmark_json_matches_the_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == \
        run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == \
        run.per_layer_units()
