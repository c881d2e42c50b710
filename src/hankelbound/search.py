"""Global maximization of |H_{2,1}| over the Caratheodory parameter domain.

For each family, H_{2,1} restricted to real c1 (justified by rotation
invariance) has the form

    scale * (e0 + e1*p2 + e2*p2^2 + e3*(1 - |p2|^2)*p3)

with real e0..e3 depending on p1 only and e3 >= 0.  ``families`` writes it
as one polynomial in p1 for both kinds, and the kind picks only its p1-free
factor row: nothing here tells the family kinds apart.  The search takes the
paper's two steps.  p3 enters affinely with a nonnegative coefficient, so
its optimum is the unimodular value aligning phases (``p3_step``); for
e3 > 0 the maximum over p2 is then scale*e3*Y(e0/e3, e1/e3, e2/e3), the
Y-lemma of ``ymax``.  What is left is a 1-D search over p1 in [0, 1] per
member, on a grid refined in shrinking windows.  ``sweep`` stacks the
members' factor rows once; each round is then one envelope evaluation and
one ``ymax.y_values`` call over every member's nodes, compared by the
unscaled e3*Y (|e0| + |e1| + |e2| where e3 = 0).  The scalar
``y_closed_form`` gives each member's maximising p2 at its best node;
``global_max`` is the one-member ``sweep``.  ``_grid_values``, the value on
a 3-D grid in (p1, |p2|, arg p2), is the tests' brute-force reference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .caratheodory import SchurParams
from .families import (Envelope, FamilySpec, ParameterRangeError, envelope_arrays,
                       envelope_factors, envelope_poly, sharp_bound)
from .ymax import y_closed_form, y_values

_SHRINK = 8.0  # window shrink factor per refinement round

#: Largest coarse grid, in p1 nodes less one.
MAX_COARSE = 256
#: Largest refine_rounds.  Round t spaces its nodes 8^-t/coarse apart, which
#: at coarse 64 is 2^-(3t+6); at t = 16 that is 2^-54, below the spacing of
#: doubles in [0.5, 1], so further rounds cannot move the result there.
MAX_REFINE_ROUNDS = 16


@dataclass(frozen=True)
class SearchReport:
    family: FamilySpec
    max_abs_h21: float
    argmax: SchurParams
    bound: float
    gap: float
    grid: str


def envelope(spec: FamilySpec, p1: float) -> Envelope:
    """Envelope coefficients of H_{2,1} at a single p1 in [0, 1], as floats."""
    if not 0.0 <= p1 <= 1.0:
        raise ParameterRangeError(f"p1 must lie in [0, 1], got {p1!r}")
    return envelope_arrays(spec, float(p1))


def p3_step(env: Envelope, p2: complex) -> tuple[float, complex]:
    """The exact max of |H_{2,1}| over |p3| <= 1 at fixed (p1, p2), and a
    unimodular p3 attaining it.

    The p3 coefficient e3*(1-|p2|^2) is nonnegative, so the best p3 takes the
    phase of e0 + e1*p2 + e2*p2^2, and is 1 where that is 0 and the phase free.
    """
    if not abs(p2) <= 1.0 + 1e-12:
        raise ParameterRangeError(f"|p2| must be <= 1, got {abs(p2)!r}")
    inner = env.e0 + env.e1 * p2 + env.e2 * p2 * p2
    value = env.scale * (abs(inner) + env.e3 * (1.0 - abs(p2) ** 2))
    return value, inner / abs(inner) if inner else 1.0 + 0.0j


def _grid_values(spec: FamilySpec, p1: np.ndarray, r: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """values[i, j, k] = p3_step's value at (p1[i], r[j]*e^{i*phi[k]})."""
    scale, e0, e1, e2, e3 = envelope_arrays(spec, p1)
    p2 = r[:, None] * np.exp(1j * phi)[None, :]
    p2sq = p2 * p2
    inner = (
        e0[:, None, None]
        + e1[:, None, None] * p2[None, :, :]
        + e2[:, None, None] * p2sq[None, :, :]
    )
    disk = (1.0 - r * r)[None, :, None]
    return scale * (np.abs(inner) + e3[:, None, None] * disk)


def global_max(spec: FamilySpec, coarse: int = 128, refine_rounds: int = 3) -> SearchReport:
    """Y-lemma maximum over (p2, p3) per p1, searched over p1 on a refining
    grid: the one-member ``sweep``."""
    return sweep([spec], coarse=coarse, refine_rounds=refine_rounds)[0]


def sweep(specs, coarse: int = 128, refine_rounds: int = 3) -> list[SearchReport]:
    """One SearchReport per family member, in order.  Each round is one array
    pass over every member's p1 window; each member keeps its own best node,
    and its argmax ties break toward smaller p1 (first hit in scan order)."""
    if not 64 <= coarse <= MAX_COARSE:
        raise ValueError(f"coarse must lie in [64, {MAX_COARSE}], got {coarse!r}")
    if refine_rounds < 2:
        raise ValueError("refine_rounds must be >= 2")
    if refine_rounds > MAX_REFINE_ROUNDS:
        raise ValueError(f"refine_rounds must be <= {MAX_REFINE_ROUNDS}, got {refine_rounds!r}")
    specs = list(specs)
    if not specs:
        return []

    nodes = np.arange(coarse + 1.0)
    factors = np.array([envelope_factors(spec) for spec in specs]).T[:, :, None]
    best, bp1 = [-math.inf] * len(specs), np.full(len(specs), 0.5)
    for t in range(refine_rounds + 1):
        # Round 0 spans [0, 1]; each later one a window _SHRINK times narrower.
        half = 0.5 / _SHRINK ** t
        lo, hi = np.maximum(0.0, bp1 - half), np.minimum(1.0, bp1 + half)
        # Row by row np.linspace(lo, hi, coarse + 1), bit for bit, at a third of its cost.
        p1 = nodes * ((hi - lo) / coarse)[:, None] + lo[:, None]
        p1[:, -1] = hi
        _, e0, e1, e2, e3 = envelope_poly(factors, p1)
        # Unscaled, so no scale's rounding picks a node.  Where e3 = 0 (p1 = 0 or
        # 1) e0 or e2 alone is non-zero: z = 1, and np.where drops the lemma's 0/0.
        with np.errstate(divide="ignore", invalid="ignore"):
            value = np.where(e3 > 0.0, e3 * y_values(e0 / e3, e1 / e3, e2 / e3),
                             np.abs(e0) + np.abs(e1) + np.abs(e2))
        # np.argmax takes the first of equal maxima: ties go to smaller p1.
        for r, i in enumerate(np.argmax(value, axis=1).tolist()):
            if value[r, i] > best[r]:
                best[r], bp1[r] = value[r, i], p1[r, i]

    reports = []
    grid = f"coarse={coarse}, refine_rounds={refine_rounds}, shrink={int(_SHRINK)}"
    for spec, x in zip(specs, bp1.tolist()):
        env = envelope(spec, x)
        z = y_closed_form(env.e0 / env.e3, env.e1 / env.e3, env.e2 / env.e3).z if env.e3 else 1.0
        p2 = complex(z)  # z = 1 where e3 = 0, as in the rounds
        top, p3 = p3_step(env, p2)
        bound = sharp_bound(spec)
        reports.append(SearchReport(family=spec, max_abs_h21=top, argmax=SchurParams(x, p2, p3),
                                    bound=bound, gap=bound - top, grid=grid))
    return reports


def bound_monotonicity(reports: list[SearchReport]) -> str:
    """Direction of the closed-form bound across a sweep, to 1e-15 relative."""
    bounds = [rep.bound for rep in reports]
    if all(b2 <= b1 + 1e-15 * max(b1, b2) for b1, b2 in zip(bounds, bounds[1:])):
        return "non-increasing"
    if all(b2 >= b1 - 1e-15 * max(b1, b2) for b1, b2 in zip(bounds, bounds[1:])):
        return "non-decreasing"
    return "non-monotonic"
