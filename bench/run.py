"""Benchmark of hankelbound: four workloads with checked outputs, reporting
end-to-end metrics untraced and per-layer metrics from a traced run.

    python3 bench/run.py --workload spiral_grid --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 25 --trace 1

Run from the repository root; the program is imported from ``src/``.  The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUNS = HERE / "runs"

WORKLOADS = ("spiral_grid", "curvature_sweep", "ylemma_certify", "coeff_crosscheck")

#: Fresh processes timed from start to ready; setup_s is their median.
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 60

END_TO_END = {"setup_s": "s", "task_p50_s": "s", "items_per_s": "1/s", "peak_rss_mb": "MiB"}

YCASES = ("AC_NONNEG_SUM", "AC_NONNEG_PARABOLA", "NEG_FIRST", "NEG_SECOND",
          "R_SUM", "R_DIFF", "R_SQRT")

#: name -> (unit, how it is computed, span or counter).  "mean_s" is the
#: mean span duration, "self_s" the mean self time, "calls" spans per item,
#: "per_call" a counter per span of the function it belongs to, "per_item"
#: a counter per item.  Items are counted over the traced rounds.
PER_LAYER = {
    "search.sweep.mean_s": ("s", "mean_s", "search.sweep"),
    "search.global_max.calls": ("1/item", "calls", "search.global_max"),
    "search.global_max.mean_s": ("s", "mean_s", "search.global_max"),
    "search._grid_values.calls": ("1/item", "calls", "search._grid_values"),
    "search._grid_values.mean_s": ("s", "mean_s", "search._grid_values"),
    "search._grid_values.points": ("points/call", "per_call", "search._grid_values.points"),
    "search._grid_values.bytes": ("B/call", "per_call", "search._grid_values.bytes"),
    "search.points_per_cell": ("points/item", "per_item", "search._grid_values.points"),
    "ymax.y_oracle.calls": ("1/item", "calls", "ymax.y_oracle"),
    "ymax.y_oracle.mean_s": ("s", "mean_s", "ymax.y_oracle"),
    "ymax.y_oracle.points": ("points/call", "per_call", "ymax.y_oracle.points"),
    "ymax.y_certify.mean_s": ("s", "mean_s", "ymax.y_certify"),
    "ymax.y_closed_form.calls": ("1/item", "calls", "ymax.y_closed_form"),
    "ymax.y_closed_form.mean_s": ("s", "mean_s", "ymax.y_closed_form"),
    **{f"ymax.y_closed_form.case.{case}": ("1/item", "per_item", f"ymax.y_closed_form.case.{case}")
       for case in YCASES},
    "families.coeffs_closed_form.mean_s": ("s", "mean_s", "families.coeffs_closed_form"),
    "families.coeffs_ode_oracle.mean_s": ("s", "mean_s", "families.coeffs_ode_oracle"),
    "families.extremal_coeffs.mean_s": ("s", "mean_s", "families.extremal_coeffs"),
    "families.sharp_bound.calls": ("1/item", "calls", "families.sharp_bound"),
    "caratheodory.c_from_params.mean_s": ("s", "mean_s", "caratheodory.c_from_params"),
    "series.exp_unit.calls": ("1/item", "calls", "series.exp_unit"),
    "series.exp_unit.mean_s": ("s", "mean_s", "series.exp_unit"),
    "series.exp_unit.terms": ("terms/call", "per_call", "series.exp_unit.terms"),
    "series.log_unit.mean_s": ("s", "mean_s", "series.log_unit"),
    "hankel.h21.mean_s": ("s", "mean_s", "hankel.h21"),
    "hankel.h21_monomial.mean_s": ("s", "mean_s", "hankel.h21_monomial"),
    "cli.main.calls": ("1/item", "calls", "cli.main"),
    "cli.main.mean_s": ("s", "mean_s", "cli.main"),
    "cli.self_s": ("s", "self_s", "cli.main"),
}
#: Metrics computed from array sizes or series lengths rather than measured.
COMPUTED = (".points", ".bytes", ".terms", "points_per_cell")
#: Tracing overhead: traced rounds against the untraced rounds of the same run.
OVERHEAD = {"trace.items_per_s": "1/s", "trace.untraced_items_per_s": "1/s",
            "trace.overhead_pct": "%"}


class Phase:
    """Tallies of the operations run under one tracing setting."""

    def __init__(self):
        self.attempted = self.failed = self.items = 0
        self.times: list[float] = []
        self.problems: list[str] = []

    def record(self, op, elapsed: float, outcome) -> None:
        self.attempted += 1
        self.problems += [f"{op.label}: {p}" for p in outcome.problems]
        if outcome.failed:
            self.failed += 1
        elif op.task:
            self.times.append(elapsed)
            self.items += outcome.items

    def items_per_s(self) -> float:
        return self.items / sum(self.times) if self.times else 0.0


def import_program():
    """Import hankelbound from this checkout's ``src/``, and the modules of
    the benchmark that need it; exit with an error if it is not there."""
    package = SRC / "hankelbound"
    if not (package / "__init__.py").is_file():
        sys.exit(f"error: the program's source {package} is missing")
    sys.path.insert(0, str(SRC))
    import hankelbound
    if Path(hankelbound.__file__).resolve().parent != package:
        sys.exit(f"error: imported hankelbound from {hankelbound.__file__}, not {package}")
    import tracing
    import workloads
    return workloads, tracing


def measure_setup(args) -> list[float]:
    """Seconds from starting a fresh process until its first task could run."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"]
    times = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            times.append(time.perf_counter() - start)
            proc.communicate(timeout=PROBE_TIMEOUT_S)
        if line.strip() != "ready" or proc.returncode != 0:
            sys.exit(f"error: set-up probe exited {proc.returncode}")
    return times


def per_layer(tracer, traced: Phase, untraced: Phase) -> dict[str, float]:
    spans = tracer.summary()
    counters = tracer.counters
    items = traced.items

    def value(kind: str, source: str) -> float:
        if kind in ("calls", "mean_s", "self_s"):
            span = spans.get(source, {"calls": 0})
            if kind == "calls":
                return span["calls"] / items if items else 0.0
            key = "total_s" if kind == "mean_s" else "self_s"
            return span[key] / span["calls"] if span["calls"] else 0.0
        count = counters.get(source, 0.0)
        if kind == "per_item":
            return count / items if items else 0.0
        calls = spans.get(source.rsplit(".", 1)[0], {"calls": 0})["calls"]
        return count / calls if calls else 0.0

    metrics = {name: value(kind, source) for name, (_, kind, source) in PER_LAYER.items()}
    fast, slow = untraced.items_per_s(), traced.items_per_s()
    metrics["trace.items_per_s"] = slow
    metrics["trace.untraced_items_per_s"] = fast
    metrics["trace.overhead_pct"] = 100.0 * (fast / slow - 1.0) if slow else 0.0
    return metrics


def attempt(op, errors: dict[str, str]):
    """op.run(), or None if the program raised: a failed operation."""
    try:
        return op.run()
    except Exception:
        errors.setdefault(op.label, traceback.format_exc())
        return None


def judge(workloads, op, output):
    """The outcome of one operation; output the checks cannot read is wrong."""
    if output is None:
        return workloads.Outcome(failed=True)
    try:
        return op.check(output)
    except (ValueError, LookupError, TypeError) as exc:
        return workloads.Outcome(problems=[f"malformed output: {exc!r}"])


def set_up(args):
    """Everything before the first task: imports, inputs, warm-up."""
    workloads, tracing = import_program()
    workload = workloads.build(args.workload, args.seed)
    errors: dict[str, str] = {}
    for op in workload.warmup:
        attempt(op, errors)
    return workloads, tracing, workload, errors


def run_workload(args) -> dict:
    setup = [] if args.trace else measure_setup(args)
    workloads, tracing, workload, errors = set_up(args)
    tracer = tracing.Tracer() if args.trace else None
    phases = {False: Phase(), True: Phase()}
    # Traced runs alternate untraced and traced rounds, for the overhead.
    min_rounds = 2 if tracer else 1
    deadline = time.perf_counter() + args.seconds
    index = 0
    try:
        while index < min_rounds or time.perf_counter() < deadline:
            traced = tracer is not None and index % 2 == 1
            for op in workload.round(index):
                # Only tasks are traced: the invalid-input commands are not load.
                trace_op = traced and op.task
                if trace_op:
                    tracer.install()
                start = time.perf_counter()
                output = attempt(op, errors)
                elapsed = time.perf_counter() - start
                if trace_op:
                    tracer.uninstall()
                phases[traced].record(op, elapsed, judge(workloads, op, output))
            index += 1
    finally:
        workloads.WORKER.stop()

    plain, traced_phase = phases[False], phases[True]
    problems = plain.problems + traced_phase.problems
    if tracer:
        values = per_layer(tracer, traced_phase, plain)
        units = {name: unit for name, (unit, _, _) in PER_LAYER.items()} | OVERHEAD
    else:
        values = {
            "setup_s": statistics.median(setup),
            "task_p50_s": statistics.median(plain.times) if plain.times else 0.0,
            "items_per_s": plain.items_per_s(),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END
    result = {
        "correct": not problems,
        "attempted": plain.attempted + traced_phase.attempted,
        "failed": plain.failed + traced_phase.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    detail = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "rounds": index, "setup_probes_s": setup,
        "task_times_s": plain.times, "items": plain.items + traced_phase.items,
        "problems": problems, "errors": errors, "result": result,
    }
    if tracer:
        detail["spans"] = tracer.summary()
        detail["counters"] = tracer.counters
        detail["untraced_functions"] = sorted(tracer.missing)
    RUNS.mkdir(exist_ok=True)
    out = RUNS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(detail, indent=1) + "\n")

    print(f"{args.workload} seed={args.seed} trace={args.trace}: {index} rounds, "
          f"{len(plain.times) + len(traced_phase.times)} tasks, {detail['items']} items, "
          f"attempted {result['attempted']}, failed {result['failed']}, "
          f"correct {str(result['correct']).lower()}")
    for name, metric in result["metrics"].items():
        computed = " (computed)" if name.endswith(COMPUTED) else ""
        print(f"  {name:<42} {metric['value']:.6g} {metric['unit']}{computed}")
    for problem in problems[:20]:
        print(f"problem: {problem}", file=sys.stderr)
    for label, error in errors.items():
        print(f"error in {label}:\n{error}", file=sys.stderr)
    if tracer and tracer.missing:
        print(f"warning: not traced: {', '.join(sorted(tracer.missing))}", file=sys.stderr)
    return result


def run_all(args) -> dict:
    """Every workload, each in its own process."""
    results = {}
    for name in WORKLOADS:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            sys.exit(f"error: workload {name} exited {proc.returncode}")
        print("\n".join(lines[:-1]))
        results[name] = json.loads(lines[-1])
    return {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "workloads": results,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    # One thread, in this process and in every process it starts.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    if args.setup_probe:
        set_up(args)
        print("ready", flush=True)
        return 0
    result = run_all(args) if args.workload == "all" else run_workload(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
