"""Reference computations the benchmark checks the program against.

Nothing here imports hankelbound.  The sharp bounds are the paper's closed
forms evaluated in exact rational arithmetic, the disk maximum comes from a
radial grid with a Lipschitz certificate, and the logarithmic coefficients
come from a separately written series recurrence.  Each ``check_*`` function
returns a list of problems; an empty list means the output is accepted.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

#: A grid search may fall short of the sharp bound by this much ...
SWEEP_BELOW = Fraction(5, 10_000)
#: ... but may never exceed it by more than this.
SWEEP_ABOVE = Fraction(1, 10**9)
#: |H| at the reported argmax must reproduce the reported maximum.
ARGMAX_TOL = 1e-12
#: Extremal functions attain the bound, and the two coefficient routes agree.
ATTAIN_TOL = 1e-10
#: Slack on the inequality |H| <= bound for class members.
MEMBER_TOL = 1e-12
#: Radial nodes of the independent disk maximiser.
DISK_RADII = 16_385


# -- sharp bounds, exact -----------------------------------------------------

def spirallike_bound(alpha: Fraction, cos2_beta: Fraction) -> Fraction:
    return (1 - alpha) ** 2 * cos2_beta / 4


def ozaki_bound(nu: Fraction) -> Fraction:
    return nu**2 * (nu**2 + 12 * nu - 44) / (192 * (nu**2 + 8 * nu - 32))


def robertson_bound(lam: Fraction) -> Fraction:
    num = (2 * lam + 1) ** 2 * (12 * lam**2 - 60 * lam - 165)
    return num / (576 * (4 * lam**2 - 12 * lam - 39))


# -- logarithmic coefficients and H -------------------------------------------

def log_coefficients(a2: complex, a3: complex, a4: complex) -> tuple[complex, complex, complex]:
    """gamma_1..gamma_3 of f = z + a2 z^2 + a3 z^3 + a4 z^4 + ...

    s = log(f(z)/z) = 2 * sum gamma_n z^n solves n s_n = n g_n -
    sum_{k<n} k s_k g_{n-k} for g = f(z)/z, from s' g = g'.
    """
    g = (1.0, complex(a2), complex(a3), complex(a4))
    s = [0j] * 4
    for n in range(1, 4):
        s[n] = g[n] - sum(k * s[k] * g[n - k] for k in range(1, n)) / n
    return s[1] / 2, s[2] / 2, s[3] / 2


def hankel_det(a2: complex, a3: complex, a4: complex) -> complex:
    """H = gamma_1 gamma_3 - gamma_2^2."""
    g1, g2, g3 = log_coefficients(a2, a3, a4)
    return g1 * g3 - g2 * g2


def _within(errors, tol: float) -> bool:
    """Every error is at most tol; NaN never is."""
    return all(e <= tol for e in errors)


def _coeff_scale(*coeffs: complex) -> float:
    return max(1.0, *(abs(c) for c in coeffs)) ** 4


# -- independent disk maximiser ---------------------------------------------

def disk_max(A: float, B: float, C: float) -> tuple[float, float]:
    """Lower and upper bounds on max |A + Bz + Cz^2| + 1 - |z|^2 over |z| <= 1.

    On the circle |z| = r, |A + Bz + Cz^2|^2 is a quadratic in cos(theta), so
    its maximum sits at theta = 0, theta = pi or the angle of the vertex; the
    modulus is then evaluated directly at those three points.  The radial
    profile is Lipschitz with constant |B| + 2|C| + 2, which bounds what the
    uniform grid of radii can miss.
    """
    r = np.linspace(0.0, 1.0, DISK_RADII)
    with np.errstate(divide="ignore", invalid="ignore"):
        vertex = -B * (A + C * r * r) / (4.0 * A * C * r)
    cos_t = np.clip(np.nan_to_num(vertex, nan=1.0, posinf=1.0, neginf=-1.0), -1.0, 1.0)
    best = np.zeros_like(r)
    for angle in (np.zeros_like(r), np.full_like(r, math.pi), np.arccos(cos_t)):
        z = r * np.exp(1j * angle)
        best = np.maximum(best, np.abs(A + B * z + C * z * z))
    lower = float(np.max(best + 1.0 - r * r))
    slack = (abs(B) + 2.0 * abs(C) + 2.0) / (2.0 * (DISK_RADII - 1))
    return lower, lower + slack


def check_disk(triple, closed: float, tol: float) -> list[str]:
    """The closed-form maximum must lie between what the grid attains and the
    grid's certified upper bound plus the certification tolerance."""
    A, B, C = (float(v) for v in triple)
    lower, upper = disk_max(A, B, C)
    floor = lower - 1e-12 * (1.0 + abs(A) + abs(B) + abs(C))
    if not floor <= closed <= upper + tol:
        return [f"Y({A!r}, {B!r}, {C!r}) closed form {closed!r} outside "
                f"[{lower!r}, {upper + tol!r}] of the disk maximiser"]
    return []


# -- sweeps ---------------------------------------------------------------------

def check_cell(row: dict, bound: Fraction, h_at_argmax: float) -> list[str]:
    """One certified parameter cell of a ``sweep`` payload."""
    where = {k: row[k] for k in ("family", "alpha", "beta", "nu", "lambda") if k in row}
    problems = []
    top = row["max_abs_h21"]
    if not (math.isfinite(top) and bound - SWEEP_BELOW <= Fraction(top) <= bound + SWEEP_ABOVE):
        problems.append(f"{where}: max {top!r} outside "
                        f"[bound - 5e-4, bound + 1e-9], bound {float(bound)!r}")
    if not abs(row["bound"] - float(bound)) <= ARGMAX_TOL:
        problems.append(f"{where}: reported bound {row['bound']!r} != {float(bound)!r}")
    if not abs(h_at_argmax - row["max_abs_h21"]) <= ARGMAX_TOL:
        problems.append(f"{where}: |H| at argmax {h_at_argmax!r} != max {row['max_abs_h21']!r}")
    return problems


def check_sweep(payload: dict, bounds: list[Fraction], h_at_argmax) -> list[str]:
    """A ``sweep`` payload: pass, one row per value, every cell checked.

    ``h_at_argmax[i](row)`` maps the argmax of row i to |H| there.
    """
    if payload["summary"]["pass"] is not True:
        return ["sweep summary does not pass"]
    rows = payload["results"]
    if len(rows) != len(bounds):
        return [f"sweep returned {len(rows)} rows for {len(bounds)} values"]
    problems = []
    for row, bound, h_at in zip(rows, bounds, h_at_argmax):
        problems += check_cell(row, bound, h_at(row))
    return problems


# -- coefficient cross-checks ------------------------------------------------

def check_member(closed, ode, h: complex, h_monomial: complex, h_ode: complex,
                 bound: Fraction, moduli_only: bool) -> list[str]:
    """One class member through both coefficient routes.

    ``closed`` and ``ode`` are (a2, a3, a4) from the closed form and the ODE
    solve; ``moduli_only`` compares |a_n| (the Ozaki sign convention).
    """
    problems = []
    scale = _coeff_scale(*closed)
    if not abs(h) <= float(bound) + MEMBER_TOL:
        problems.append(f"|H| = {abs(h)!r} above the sharp bound {float(bound)!r}")
    mine = hankel_det(*closed)
    if not _within((abs(h - mine), abs(h - h_monomial)), 1e-12 * scale):
        problems.append(f"H {h!r} != independent {mine!r} or monomial {h_monomial!r}")
    if moduli_only:
        diffs = [abs(abs(x) - abs(y)) for x, y in zip(closed, ode)]
    else:
        diffs = [abs(x - y) for x, y in zip(closed, ode)]
    if not _within([*diffs, abs(h - h_ode)], ATTAIN_TOL):
        problems.append(f"closed form {closed!r} and ODE {ode!r} routes differ")
    return problems


def _cx(pair) -> complex:
    return complex(pair[0], pair[1])


def check_extremal(payload: dict, bound: Fraction) -> list[str]:
    """An ``extremal`` payload attains the exact bound."""
    if payload["summary"]["pass"] is not True:
        return ["extremal summary does not pass"]
    row = payload["results"][0]
    mine = abs(hankel_det(_cx(row["a2"]), _cx(row["a3"]), _cx(row["a4"])))
    target = float(bound)
    if not _within((abs(row["abs_h21"] - target), abs(mine - target)), ATTAIN_TOL):
        return [f"extremal |H| {row['abs_h21']!r} (independent {mine!r}) "
                f"does not attain {target!r}"]
    return []


#: gamma_n = 1/n for the Koebe function z/(1 - z)^2 = z + 2z^2 + 3z^3 + 4z^4 + ...
KOEBE = (2.0, 3.0, 4.0)
KOEBE_GAMMAS = (1.0, 0.5, 1.0 / 3.0)


def check_gamma(payload: dict, a2: complex, a3: complex, a4: complex,
                known=None) -> list[str]:
    """A ``gamma`` payload for the coefficients (a2, a3, a4); ``known``
    optionally gives gamma_1..gamma_3 in closed form as well."""
    row = payload["results"][0]
    scale = _coeff_scale(a2, a3, a4)
    got = tuple(_cx(row[k]) for k in ("gamma1", "gamma2", "gamma3"))
    problems = []
    for want in filter(None, (log_coefficients(a2, a3, a4), known)):
        if not _within((abs(g - w) for g, w in zip(got, want)), 1e-12 * scale):
            problems.append(f"gamma {got!r} != expected {want!r}")
    h = hankel_det(a2, a3, a4)
    for key in ("h21_gamma_path", "h21_monomial_path"):
        if not abs(_cx(row[key]) - h) <= 1e-12 * scale:
            problems.append(f"{key} {row[key]!r} != independent {h!r}")
    return problems


def check_rejected(code: int, stdout: str) -> bool:
    """Invalid input is rejected: exit 2 and never a passing summary."""
    return code == 2 and '"pass": true' not in stdout
