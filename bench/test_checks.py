"""Tests of the benchmark's own checks: correct program output is accepted
and perturbed output is rejected.

    python3 -m pytest bench
"""

import copy
import json
import math
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from hankelbound import cli, families, search, ymax  # noqa: E402


def payload(argv):
    res = workloads.call_cli(argv)
    assert res.code == 0, res.err
    return json.loads(res.out)


def test_exact_bounds_known_values():
    assert checks.spirallike_bound(Fraction(0), Fraction(1)) == Fraction(1, 4)
    assert checks.robertson_bound(Fraction(1, 2)) == Fraction(1, 33)
    assert checks.robertson_bound(Fraction(1)) == Fraction(9 * 213, 576 * 47)
    assert checks.ozaki_bound(Fraction(1)) == Fraction(31, 4416)


@pytest.fixture(scope="module")
def ozaki_sweep():
    nu = Fraction(3, 4)
    spec = families.Ozaki(nu=0.75)
    out = payload(["sweep", "--family", "ozaki", "--values", "0.75",
                   "--coarse", "64", "--refine-rounds", "3"])
    return out, [checks.ozaki_bound(nu)], [workloads._argmax_h(spec)]


def test_sweep_accepted(ozaki_sweep):
    assert checks.check_sweep(*ozaki_sweep) == []


@pytest.mark.parametrize("field,delta", [
    ("max_abs_h21", 1e-3),     # above the bound
    ("max_abs_h21", -1e-3),    # short of the bound by more than 5e-4
    ("max_abs_h21", math.nan),
    ("bound", 1e-9),           # reported bound off the exact one
    ("argmax_p1", 1e-3),       # argmax no longer attains the maximum
])
def test_sweep_perturbed_rejected(ozaki_sweep, field, delta):
    out, bounds, h_at = ozaki_sweep
    bad = copy.deepcopy(out)
    bad["results"][0][field] += delta
    assert checks.check_sweep(bad, bounds, h_at)


def test_sweep_failed_summary_rejected(ozaki_sweep):
    out, bounds, h_at = ozaki_sweep
    bad = copy.deepcopy(out)
    bad["summary"]["pass"] = False
    assert checks.check_sweep(bad, bounds, h_at)
    assert checks.check_sweep(out, bounds * 2, h_at * 2)  # a missing row


def test_disk_max_known_values():
    lower, upper = checks.disk_max(0.0, 0.0, 0.0)
    assert lower == 1.0 and upper > 1.0
    lower, upper = checks.disk_max(1.0, 1.0, 1.0)  # |1 + z + z^2| = 3 at z = 1
    assert lower == pytest.approx(3.0, abs=1e-12)


def test_disk_check_brackets_closed_form():
    rng = np.random.default_rng(7)
    triples = [*rng.uniform(-5.0, 5.0, (40, 3)), *workloads.envelope_triples(rng, 40)]
    for triple in triples:
        closed = ymax.y_closed_form(*triple).value
        assert checks.check_disk(triple, closed, workloads.Y_TOL) == []
        assert checks.check_disk(triple, closed + 1e-2, workloads.Y_TOL)
        assert checks.check_disk(triple, closed - 1e-6, workloads.Y_TOL)


def test_envelope_triples_are_the_programs_envelope():
    for spec, family, param in ((families.Spirallike(0.3, 0.2), "spirallike", 0.0),
                                (families.Ozaki(0.625), "ozaki", 0.625),
                                (families.Robertson(0.8), "robertson", 0.8)):
        for p1 in (0.1, 0.5, 0.9):
            env = search.envelope(spec, p1)
            want = (env.e0 / env.e3, env.e1 / env.e3, env.e2 / env.e3)
            assert workloads.envelope_triple(family, param, p1) == pytest.approx(want)


def test_member_accepted_and_perturbed_rejected():
    rng = np.random.default_rng(3)
    members = [workloads._member(rng) for _ in range(12)]
    op = workloads.member_op(members)
    results = op.run()
    assert op.check(results).problems == []
    for (_, _, bound, ozaki), (closed, ode, h, hm, ho) in zip(members, results):
        closed, ode = (closed.a2, closed.a3, closed.a4), (ode.a2, ode.a3, ode.a4)
        over = complex(float(bound) + 1e-9)
        problems = checks.check_member(closed, ode, over, hm, ho, bound, ozaki)
        assert any("above the sharp bound" in p for p in problems)
        a4 = ode[2] * (1.0 + 1e-8 / abs(ode[2]))  # |a4| off by 1e-8
        problems = checks.check_member(closed, (*ode[:2], a4), h, hm, ho, bound, ozaki)
        assert any("routes differ" in p for p in problems)


@pytest.mark.parametrize("flags,bound", [
    (["--family", "ozaki", "--nu", "0.5"], checks.ozaki_bound(Fraction(1, 2))),
    (["--family", "robertson", "--lambda", "0.75"], checks.robertson_bound(Fraction(3, 4))),
    (["--family", "spirallike", "--alpha", "0.25", "--beta", str(math.acos(math.sqrt(0.5)))],
     checks.spirallike_bound(Fraction(1, 4), Fraction(1, 2))),
])
def test_extremal(flags, bound):
    out = payload(["extremal", *flags])
    assert checks.check_extremal(out, bound) == []
    bad = copy.deepcopy(out)
    bad["results"][0]["abs_h21"] += 1e-9
    assert checks.check_extremal(bad, bound)
    bad = copy.deepcopy(out)
    bad["results"][0]["a3"][0] += 1e-6  # a2 = 0 for the spirallike extremal
    assert checks.check_extremal(bad, bound)


def test_gamma():
    out = payload(["gamma", "--koebe"])
    assert checks.check_gamma(out, *checks.KOEBE, known=checks.KOEBE_GAMMAS) == []
    bad = copy.deepcopy(out)
    bad["results"][0]["gamma3"][0] += 1e-9
    assert checks.check_gamma(bad, *checks.KOEBE, known=checks.KOEBE_GAMMAS)
    a = (0.5 - 0.25j, -1.5j, 2.0 + 0.5j)
    out = payload(["gamma", *(f"--a{n}={z!r}" for n, z in zip((2, 3, 4), a))])
    assert checks.check_gamma(out, *a) == []
    bad = copy.deepcopy(out)
    bad["results"][0]["h21_monomial_path"][1] += 1e-9
    assert checks.check_gamma(bad, *a)


def test_rejection():
    assert checks.check_rejected(2, "")
    assert not checks.check_rejected(1, "")
    assert not checks.check_rejected(2, '{"summary": {"pass": true}}')
    assert not checks.check_rejected(0, "")


def test_certification_miss_is_wrong_not_failed(ozaki_sweep):
    """A sweep or Y-lemma certification that misses makes the run incorrect;
    it is not merely counted as a failed operation."""
    out, bounds, h_at = ozaki_sweep
    op = workloads.cli_op(["sweep"], 1, lambda p: checks.check_sweep(p, bounds, h_at))
    bad = copy.deepcopy(out)
    bad["summary"]["pass"] = False
    bad["results"][0]["max_abs_h21"] -= 1e-3
    outcome = op.check(workloads.CliRun(1, json.dumps(bad), ""))
    assert not outcome.failed and outcome.problems
    outcome = op.check(workloads.CliRun(1, "", "Traceback ..."))
    assert not outcome.failed and outcome.problems
    assert op.check(workloads.CliRun(0, json.dumps(out), "")).problems == []

    triples = workloads.envelope_triples(np.random.default_rng(4), 3)
    op = workloads.y_certify_op(triples, [0])
    assert op.check([True, True, True]).problems == []
    outcome = op.check([True, False, True])
    assert not outcome.failed and outcome.problems


def test_rejections_run_in_the_worker():
    try:
        res = workloads.WORKER.call(["gamma", "--koebe"])
        assert res.code == 0 and json.loads(res.out)["summary"]["pass"] is True
        assert workloads.WORKER.call(["gamma", "--a2", "x"]).code == 2  # argparse error
        for argv in workloads.INVALID_INPUTS:
            op = workloads.rejection_op(argv)
            assert not op.task
            op.check(op.run())
    finally:
        workloads.WORKER.stop()
    assert workloads.WORKER.proc is None


def test_seed_fixes_the_inputs():
    for name in run.WORKLOADS:
        labels = [[[op.label for op in r] for r in workloads.build(name, seed).rounds]
                  for seed in (5, 5, 6)]
        assert labels[0] == labels[1] != labels[2]


def test_tracer_records_and_restores():
    tracer = tracing.Tracer()
    assert not tracer.missing
    original = cli.sweep
    tracer.install()
    try:
        assert cli.sweep is not original and search.sweep is cli.sweep
        workloads.call_cli(["extremal", "--family", "robertson", "--lambda", "1"])
    finally:
        tracer.uninstall()
    assert cli.sweep is original
    tracer.install()
    try:
        ymax.y_oracle(1.0, 1.0, 1.0, radial=64, angular=256)
        ymax.y_oracle(1.0, 1.0, 1.0, radial=64, angular=257)
    finally:
        tracer.uninstall()
    # The points y_oracle evaluates: angular/2 + 1 angles when angular is even.
    assert tracer.counters["ymax.y_oracle.points"] == 65 * 129 + 65 * 257
    spans = tracer.summary()
    assert spans["cli.main"]["calls"] == 1
    assert spans["families.extremal_coeffs"]["calls"] == 1
    assert spans["hankel.h21_monomial"]["calls"] == 1
    main = spans["cli.main"]
    assert 0.0 < main["self_s"] < main["total_s"]


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    per_layer = {name: unit for name, (unit, _, _) in run.PER_LAYER.items()} | run.OVERHEAD
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == per_layer
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
