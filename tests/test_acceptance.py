"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete.
"""

import cmath
import math
import time

import numpy as np

from hankelbound.caratheodory import SchurParams, c_from_params
from hankelbound.families import (
    CoeffTriple,
    Ozaki,
    Robertson,
    Spirallike,
    coeffs_closed_form,
    coeffs_ode_oracle,
    extremal_coeffs,
    sharp_bound,
)
from hankelbound.hankel import h21
from hankelbound.search import global_max
from hankelbound.series import PowerSeries, log_unit
from hankelbound.ymax import grid_allowance, y_closed_form, y_oracle
from reference import random_params, random_spec, rotate

GAP_TOL = 5e-4
GAP_FLOOR = 1e-9


def report(name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def check_global_max(name, spec, target):
    start = time.perf_counter()
    rep = global_max(spec)
    elapsed = time.perf_counter() - start
    lo, hi = target - GAP_TOL, target + GAP_FLOOR
    ok = lo <= rep.max_abs_h21 <= hi and elapsed < 10.0
    report(name, ok,
           f"max={rep.max_abs_h21:.9f} target={target:.9f} time={elapsed:.2f}s")


def test_criterion_01_y_lemma_certification():
    rng = np.random.default_rng(2024)
    radial, angular, tol = 512, 2048, 1e-6
    start = time.perf_counter()
    worst = 0.0
    failures = 0
    triples = rng.uniform(-5.0, 5.0, size=(10_000, 3))
    grids = y_oracle(*triples.T, radial=radial, angular=angular)
    for (A, B, C), grid in zip(triples, grids):
        closed = y_closed_form(A, B, C).value
        disc = abs(closed - grid)
        worst = max(worst, disc)
        if disc > tol + grid_allowance(B, C, radial, angular):
            failures += 1
    elapsed = time.perf_counter() - start
    ok = failures == 0 and elapsed < 60.0
    report("criterion 1 (Y-lemma certification)", ok,
           f"failures={failures}/10000 worst={worst:.3e} time={elapsed:.1f}s")


def test_criterion_02_starlike_bound():
    check_global_max("criterion 2 (starlike bound)", Spirallike(0.0, 0.0), 0.25)


def test_criterion_03_convex_bound():
    check_global_max("criterion 3 (convex bound)", Robertson(0.5), 1.0 / 33.0)


def test_criterion_04_close_to_convex_bound():
    target = 9.0 * 213.0 / (576.0 * 47.0)  # = 0.070811...
    check_global_max("criterion 4 (close-to-convex bound)", Robertson(1.0), target)


def test_criterion_05_ozaki_bound():
    check_global_max("criterion 5 (Ozaki bound)", Ozaki(1.0), 31.0 / 4416.0)


def test_criterion_06_spirallike_parameter_law():
    start = time.perf_counter()
    worst = 0.0
    for alpha in (0.0, 0.2, 0.4, 0.6, 0.8):
        for beta in (0.0, math.pi / 6, -math.pi / 6, math.pi / 3, -math.pi / 3):
            target = (1.0 - alpha) ** 2 * math.cos(beta) ** 2 / 4.0
            rep = global_max(Spirallike(alpha, beta))
            worst = max(worst, abs(rep.max_abs_h21 - target))
    elapsed = time.perf_counter() - start
    ok = worst <= GAP_TOL and elapsed < 300.0
    report("criterion 6 (spirallike parameter law)", ok,
           f"worst|max-target|={worst:.2e} over 25 cells, time={elapsed:.1f}s")


def test_criterion_07_extremal_equality():
    rng = np.random.default_rng(2025)
    worst = 0.0
    for tag in ("spirallike", "ozaki", "robertson"):
        for _ in range(50):
            spec = random_spec(rng, tag)
            residual = abs(abs(h21(extremal_coeffs(spec))) - sharp_bound(spec))
            worst = max(worst, residual)
    report("criterion 7 (extremal equality)", worst <= 1e-10,
           f"worst residual={worst:.3e} over 150 draws")


def test_criterion_08_koebe_log_coefficients():
    fz = PowerSeries(np.arange(1.0, 12.0))  # Koebe f/z = (1-z)^-2 = sum (n+1) z^n
    gammas = log_unit(fz).coeffs / 2.0
    worst = max(abs(gammas[n] - 1.0 / n) for n in range(1, 11))
    report("criterion 8 (Koebe log coefficients)", worst <= 1e-12,
           f"worst|gamma_n - 1/n|={worst:.3e} for n<=10")


def test_criterion_09_closed_form_vs_ode_oracle():
    rng = np.random.default_rng(2026)
    worst = 0.0
    for tag in ("spirallike", "ozaki", "robertson"):
        for _ in range(1000):
            spec = random_spec(rng, tag)
            c = c_from_params(random_params(rng))
            p = PowerSeries([1.0, c.c1, c.c2, c.c3])
            cf = coeffs_closed_form(spec, c)
            oc = coeffs_ode_oracle(spec, p)
            if tag == "ozaki":
                # Sign convention: both routes use the direct solve, under
                # which a2 = -nu*c1/4; moduli and the full functional must
                # match regardless.
                worst = max(worst, abs(abs(cf.a2) - abs(oc.a2)),
                            abs(cf.a3 - oc.a3), abs(abs(cf.a4) - abs(oc.a4)),
                            abs(h21(cf) - h21(oc)))
            else:
                worst = max(worst, abs(cf.a2 - oc.a2), abs(cf.a3 - oc.a3),
                            abs(cf.a4 - oc.a4))
    # Adjudicate the cubic-versus-quadratic c1 term in the Ozaki a4:
    # against the oracle, the variant with a c1^2 term must disagree.
    spec = Ozaki(1.0)
    c = c_from_params(SchurParams(0.6, 0.3 + 0.2j, 0.5))
    oc = coeffs_ode_oracle(spec, PowerSeries([1.0, c.c1, c.c2, c.c3]))
    nu = spec.nu
    a4_quadratic = nu * (6 * nu * c.c1 * c.c2 - 8 * c.c3 - nu * nu * c.c1 ** 2) / 192.0
    cubic_wins = abs(oc.a4 - a4_quadratic) > 1e-6
    ok = worst <= 1e-10 and cubic_wins
    report("criterion 9 (closed form vs ODE oracle)", ok,
           f"worst={worst:.3e}; Ozaki a4 carries nu^2*c1^3 (c1^2 variant "
           f"off by {abs(oc.a4 - a4_quadratic):.3e})")


def test_criterion_10_rotation_equivariance():
    rng = np.random.default_rng(2027)
    worst = 0.0
    for _ in range(1000):
        r = rng.uniform(0, 4, 3)
        phase = np.exp(1j * rng.uniform(0, 2 * np.pi, 3))
        a = CoeffTriple(*(complex(v) for v in r * phase))
        theta = rng.uniform(0, 2 * np.pi)
        lhs = h21(rotate(a, theta))
        rhs = cmath.exp(4j * theta) * h21(a)
        worst = max(worst, abs(lhs - rhs))
    report("criterion 10 (rotation equivariance)", worst <= 1e-12,
           f"worst residual={worst:.3e} over 1000 draws")
