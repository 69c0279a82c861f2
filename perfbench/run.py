"""Benchmark of the eswsim solver: one workload per invocation.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload bump_ensemble --seed 1 \
        --seconds 30 --trace 0

``--workload all`` runs every workload in turn, each in its own process.
The load is a closed loop in one single-threaded process: one caller, and
each solution starts when the previous one has ended. With ``--trace 0``
the last line of standard output is a JSON object with the end-to-end
metrics; with ``--trace 1`` it carries the per-layer metrics of a traced
run (see README.md for the metric map).
"""

from __future__ import annotations

import os

# pin BLAS/OpenMP pools before numpy is imported
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

from spans import Tracer, profile_calls  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

SETUP_PER_SOLUTION = 2
MIN_SOLUTIONS = 3


def _observe_star_depths(counters, args, kwargs, result):
    jump_fb, lam_L, lam_R = args[4:7]
    active = (jump_fb != 0.0) & (lam_L < 0.0) & (lam_R > 0.0)
    counters["riemann.newton_active"] += int(np.count_nonzero(active))
    counters["riemann.newton_interfaces"] += active.size


def _observe_riemann(counters, args, kwargs, result):
    counters["riemann.fallback"] += int(np.count_nonzero(result.fallback))
    counters["riemann.interfaces"] += result.fallback.size


def _observe_snapshot(counters, args, kwargs, result):
    path = args[3] if len(args) > 3 else kwargs["path"]
    counters["scenarios.emit_snapshot.bytes"] += os.path.getsize(path)


# span name -> (module, function, observer)
TARGETS = {
    "timeloop.step": ("eswsim.timeloop", "step", None),
    "timeloop.apply_boundaries": ("eswsim.timeloop", "apply_boundaries",
                                  None),
    "timeloop.frozen_gradient": ("eswsim.timeloop", "frozen_gradient", None),
    "timeloop.compute_dt": ("eswsim.timeloop", "compute_dt", None),
    "timeloop.convection_step": ("eswsim.timeloop", "convection_step", None),
    "timeloop.friction_step": ("eswsim.timeloop", "friction_step", None),
    "riemann.solve_local_riemann": ("eswsim.riemann", "solve_local_riemann",
                                    _observe_riemann),
    "riemann.physical_flux": ("eswsim.riemann", "physical_flux", None),
    "riemann._star_depths": ("eswsim.riemann", "_star_depths",
                             _observe_star_depths),
    "closures.closure_factors": ("eswsim.closures", "closure_factors", None),
    "state.recover_delta1": ("eswsim.state", "recover_delta1", None),
    "hyperbolicity.jacobian_coeffs": ("eswsim.hyperbolicity",
                                      "jacobian_coeffs", None),
    "hyperbolicity.nickalls_bounds": ("eswsim.hyperbolicity",
                                      "nickalls_bounds", None),
    "scenarios.emit_snapshot": ("eswsim.scenarios", "emit_snapshot",
                                _observe_snapshot),
    "scenarios.emit_mlsw_snapshot": ("eswsim.scenarios",
                                     "emit_mlsw_snapshot", None),
    "mlsw.mlsw_step": ("eswsim.mlsw", "mlsw_step", None),
    "mlsw._thomas": ("eswsim.mlsw", "_thomas", None),
    "mlsw.mlsw_compute_dt": ("eswsim.mlsw", "mlsw_compute_dt", None),
}
PER_STEP = ("closures.closure_factors", "state.recover_delta1",
            "hyperbolicity.jacobian_coeffs", "hyperbolicity.nickalls_bounds")

END_TO_END_UNITS = {"wall_rel": "ratio", "setup_s": "s", "peak_rss_mb": "MB",
                    "ref_l1": "dimensionless"}


def reference_kernel():
    """Fixed work shaped like the solver's: a time loop of small-array NumPy
    arithmetic, reductions and concatenation, a few large-array passes, and
    formatting 20 000 floats as the CSV writers do.

    It runs after each untraced solution; ``wall_rel`` divides each
    solution's wall time by the kernel's, so that a slowdown of the shared
    host, which moves both, cancels out. The kernel does not call the
    solver, so a change to the solver moves only the numerator.
    """
    for n, reps in ((404, 2000), (20_004, 60)):
        h = np.linspace(0.5, 2.0, n)
        q = 0.9 * h
        for _ in range(reps):
            u = q / h
            c = np.sqrt(h)
            lam = float(np.max(np.maximum(np.abs(u - c), np.abs(u + c))))
            f = np.where(u > 0.0, q * u, -q * u) + 0.5 * h * h
            h = np.concatenate([h[:2], h[2:-2] - 1e-6 / lam
                                * (f[3:-1] - f[1:-3]), h[-2:]])
    return ",".join(f"{v:.17g}" for v in h)


def per_layer_units() -> dict:
    units = {f"{name}.self_s": "s" for name in TARGETS}
    units.update({f"{name}.calls_per_step": "count" for name in PER_STEP})
    units.update({"timeloop.steps": "count", "mlsw.steps": "count",
                  "riemann.newton_active_ratio": "ratio",
                  "riemann.fallback_ratio": "ratio",
                  "scenarios.emit_snapshot.bytes": "B",
                  "trace.overhead_ratio": "ratio"})
    return units


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(summary: dict) -> dict:
    """Per-layer values of one traced solution."""
    calls, in_step, counters = (summary["calls"], summary["in_step"],
                                summary["counters"])
    steps = calls["timeloop.step"]
    values = {f"{name}.self_s": summary["self_s"][name] for name in TARGETS}
    values.update({f"{name}.calls_per_step": _ratio(in_step[name], steps)
                   for name in PER_STEP})
    values.update({
        "timeloop.steps": steps,
        "mlsw.steps": calls["mlsw.mlsw_step"],
        "riemann.newton_active_ratio": _ratio(
            counters["riemann.newton_active"],
            counters["riemann.newton_interfaces"]),
        "riemann.fallback_ratio": _ratio(counters["riemann.fallback"],
                                         counters["riemann.interfaces"]),
        "scenarios.emit_snapshot.bytes":
            counters["scenarios.emit_snapshot.bytes"],
    })
    return values


def trace_problems(summary: dict, outcome, profiled=None) -> list:
    """Self-check of one traced solution.

    The number of step spans must equal the step count the program
    reported. With ``profiled`` (calls of each original code object,
    counted by the profiler), every call must have gone through its
    wrapper, which shows that every imported name was rebound.
    """
    calls = summary["calls"]
    problems = [f"trace: {name} wrapped {calls[name]} calls, profiler "
                f"saw {count}"
                for name, count in (profiled or {}).items()
                if calls[name] != count]
    if outcome.steps is not None and calls["timeloop.step"] != outcome.steps:
        problems.append(f"trace: {calls['timeloop.step']} step spans, "
                        f"program reported {outcome.steps} steps")
    return problems


def _purge_solver():
    for name in [m for m in sys.modules
                 if m == "eswsim" or m.startswith("eswsim.")]:
        del sys.modules[name]


def environment(seed: int) -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "cpu": cpu, "python": platform.python_version(),
            "numpy": np.__version__, "seed": seed,
            "threads": {v: os.environ[v] for v in THREAD_VARS}}


def measure(workload, seconds: float, trace: bool) -> dict:
    """Set up, warm up (traced and self-checked) and measure one workload.

    Set-up is repeated after every untraced solution, so that its samples
    span the run as the solutions do. Returns the result counts, the
    problems found and the samples.
    """
    tracer = Tracer(TARGETS)
    m = {"attempted": 0, "failed": 0, "problems": [], "setup": [],
         "walls": [], "traced_walls": [], "layers": [], "reference": []}
    reference = None

    def setups():
        for _ in range(SETUP_PER_SOLUTION):
            _purge_solver()
            t0 = time.perf_counter()
            workload.setup()
            m["setup"].append(time.perf_counter() - t0)
        # free the dropped modules now, not at a collection inside a timing
        gc.collect()

    def solution(traced: bool, profiled: bool = False):
        """One checked solution: (wall, outcome, trace summary) or None."""
        m["attempted"] += 1
        workload.prepare()
        tracer.reset()
        counts = None
        try:
            with tracer if traced else contextlib.nullcontext():
                t0 = time.perf_counter()
                if profiled:
                    raw, counts = profile_calls(tracer.originals,
                                                workload.solve)
                else:
                    raw = workload.solve()
                wall = time.perf_counter() - t0
        except workload.errors as exc:
            m["failed"] += 1
            m["problems"].append(f"{type(exc).__name__}: {exc}")
            return None
        outcome = workload.check(raw)
        bad = list(outcome.problems)
        summary = tracer.summary(workload.step_span) if traced else None
        if traced:
            bad += trace_problems(summary, outcome, counts)
        if reference is not None and not outcome.problems:
            if outcome.digest != reference.digest:
                bad.append("output differs from the warm-up solution")
            if outcome.ref_l1 != reference.ref_l1:
                bad.append(f"ref_l1 {outcome.ref_l1!r} differs from the "
                           f"warm-up value {reference.ref_l1!r}")
        if bad:
            m["failed"] += 1
            m["problems"].extend(bad)
            return None
        return wall, outcome, summary

    setups()
    # the warm-up fills caches, fixes the reference output, cross-checks
    # the tracer against the profiler and counts the steps (MLSW runs do
    # not report theirs)
    warm = solution(traced=True, profiled=True)
    if warm is None:
        return m
    _, reference, summary = warm
    calls = summary["calls"]
    m["cell_steps"] = workload.cells * (calls["timeloop.step"]
                                        + calls["mlsw.mlsw_step"])
    m["ref_l1"] = reference.ref_l1

    need = 1 + MIN_SOLUTIONS * (2 if trace else 1)
    begin = time.perf_counter()
    while time.perf_counter() - begin < seconds or m["attempted"] < need:
        traced = trace and len(m["layers"]) < len(m["walls"])
        done = solution(traced)
        if done is None:
            continue
        wall, _, summary = done
        if traced:
            m["traced_walls"].append(wall)
            m["layers"].append(layer_metrics(summary))
        else:
            m["walls"].append(wall)
            t0 = time.perf_counter()
            reference_kernel()
            m["reference"].append(time.perf_counter() - t0)
            setups()
    m["peak_rss_mb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return m


def tail(samples: list):
    """(level, value): the highest percentile with ten samples beyond it.

    With fewer than twenty samples that is the median.
    """
    n = len(samples)
    level = max(0.5, 1.0 - 10.0 / n)
    ordered = sorted(samples)
    return level, ordered[min(n - 1, int(level * n))]


def metrics_of(m: dict, trace: bool) -> dict:
    if trace:
        units = per_layer_units()
        values = {name: statistics.median(v[name] for v in m["layers"])
                  for name in units if name != "trace.overhead_ratio"}
        values["trace.overhead_ratio"] = (statistics.median(m["traced_walls"])
                                          / statistics.median(m["walls"]))
    else:
        units = END_TO_END_UNITS
        values = {"wall_rel": statistics.median(
                      w / r for w, r in zip(m["walls"], m["reference"])),
                  "setup_s": statistics.median(m["setup"]),
                  "peak_rss_mb": m["peak_rss_mb"], "ref_l1": m["ref_l1"]}
    return {name: {"value": values[name], "unit": units[name]}
            for name in units}


def report(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Measure one workload, print the readable lines and the result."""
    work_dir = WORK / f"{name}-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    try:
        workload = WORKLOADS[name](seed, work_dir)
        m = measure(workload, seconds, trace)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()
    print("env " + json.dumps(environment(seed)))
    for problem in m["problems"][:20]:
        print(f"problem: {problem}")
    result = {"correct": m["failed"] == 0, "attempted": m["attempted"],
              "failed": m["failed"], "metrics": {}}
    if m["walls"] and (m["layers"] or not trace):
        result["metrics"] = metrics_of(m, trace)
        if not trace:
            wall = statistics.median(m["walls"])
            level, value = tail(m["walls"])
            print(f"{name}: wall_s median {wall:.4f} s, p{100 * level:.0f} "
                  f"{value:.4f} s over {len(m['walls'])} solutions; "
                  f"reference kernel median "
                  f"{statistics.median(m['reference']):.4f} s")
            print(f"{name}: cell_steps_per_s = {m['cell_steps'] / wall:.6g}"
                  f" 1/s; failed_ratio {m['failed']}/{m['attempted']} = "
                  f"{m['failed'] / m['attempted']:.3g}")
        for key, metric in result["metrics"].items():
            print(f"{name}: {key} = {metric['value']:.6g} {metric['unit']}")
    else:
        result["correct"] = False
    print(json.dumps(result))
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "eswsim" / "__init__.py").is_file():
        print(f"eswsim sources not found under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        for name in sorted(WORKLOADS):
            subprocess.run([sys.executable, __file__, "--workload", name,
                            "--seed", str(args.seed), "--seconds",
                            str(args.seconds), "--trace", str(args.trace)],
                           check=True)
        return 0
    sys.path.insert(0, str(SRC))
    report(args.workload, args.seed, args.seconds, bool(args.trace))
    return 0


if __name__ == "__main__":
    sys.exit(main())
