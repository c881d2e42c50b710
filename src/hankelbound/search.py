"""Global maximization of |H_{2,1}| over the Caratheodory parameter domain.

For each family, H_{2,1} restricted to real c1 (justified by rotation
invariance) has the form

    scale * (e0 + e1*p2 + e2*p2^2 + e3*(1 - |p2|^2)*p3)

with real e0..e3 depending on p1 only and e3 >= 0, all taken from
``families.envelope_arrays``: nothing here tells the family kinds apart.
The search takes the paper's two steps.  p3 enters affinely with a
nonnegative coefficient, so its optimum is the unimodular value aligning
phases; for e3 > 0 the maximum over p2 is then scale*e3*Y(e0/e3, e1/e3,
e2/e3), the Y-lemma of ``ymax``.  What is left is a 1-D search over p1 in
[0, 1] on a grid refined in shrinking windows.  Each round is one array
pass of ``ymax.y_values`` and one ``np.where`` that takes |e0| + |e1| + |e2|
where e3 = 0; the scalar ``y_closed_form`` runs once, at the best node, for
a maximising p2.  ``_grid_values``, the same value on a 3-D grid in
(p1, |p2|, arg p2), is the tests' brute-force reference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .caratheodory import SchurParams
from .families import FamilySpec, ParameterRangeError, envelope_arrays, make_spec, sharp_bound
from .ymax import y_closed_form, y_values

_SHRINK = 8.0  # window shrink factor per refinement round

#: Largest coarse grid, in p1 nodes less one.
MAX_COARSE = 256
#: Largest refine_rounds.  Round t spaces its nodes 8^-t/coarse apart, which
#: at coarse 64 is 2^-(3t+6); at t = 16 that is 2^-54, below the spacing of
#: doubles in [0.5, 1], so further rounds cannot move the result there.
MAX_REFINE_ROUNDS = 16


@dataclass(frozen=True)
class Envelope:
    """Evaluated envelope coefficients at a fixed p1."""

    scale: float
    e0: float
    e1: float
    e2: float
    e3: float


@dataclass(frozen=True)
class SearchReport:
    family: FamilySpec
    max_abs_h21: float
    argmax: SchurParams
    bound: float
    gap: float
    grid: str


def envelope(spec: FamilySpec, p1: float) -> Envelope:
    """Envelope coefficients of H_{2,1} at a single p1 in [0, 1]."""
    if not 0.0 <= p1 <= 1.0:
        raise ParameterRangeError(f"p1 must lie in [0, 1], got {p1!r}")
    scale, e0, e1, e2, e3 = envelope_arrays(spec, np.asarray(p1, dtype=float))
    return Envelope(float(scale), float(e0), float(e1), float(e2), float(e3))


def envelope_value(env: Envelope, p2: complex, p3: complex) -> complex:
    """H_{2,1} (up to the dropped rotation phase) at explicit (p2, p3)."""
    return env.scale * (
        env.e0 + env.e1 * p2 + env.e2 * p2 * p2
        + env.e3 * (1.0 - abs(p2) ** 2) * p3
    )


def value_p3_optimal(env: Envelope, p2: complex) -> float:
    """Exact max of |H_{2,1}| over |p3| <= 1 at fixed (p1, p2).

    The p3 coefficient e3*(1-|p2|^2) is nonnegative, so the best p3 is the
    unimodular value phase-aligned with the remaining terms.
    """
    if abs(p2) > 1.0 + 1e-12:
        raise ParameterRangeError(f"|p2| must be <= 1, got {abs(p2)!r}")
    inner = env.e0 + env.e1 * p2 + env.e2 * p2 * p2
    return env.scale * (abs(inner) + env.e3 * (1.0 - abs(p2) ** 2))


def optimal_p3(env: Envelope, p2: complex) -> complex:
    """The unimodular p3 realizing value_p3_optimal (1 when the phase is free)."""
    inner = env.e0 + env.e1 * p2 + env.e2 * p2 * p2
    if inner == 0:
        return 1.0 + 0.0j
    return inner / abs(inner)


def _grid_values(spec: FamilySpec, p1: np.ndarray, r: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """values[i, j, k] = value_p3_optimal at (p1[i], r[j]*e^{i*phi[k]})."""
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
    grid; argmax ties break toward smaller p1 (first hit in scan order)."""
    if not 64 <= coarse <= MAX_COARSE:
        raise ValueError(f"coarse must lie in [64, {MAX_COARSE}], got {coarse!r}")
    if refine_rounds < 2:
        raise ValueError("refine_rounds must be >= 2")
    if refine_rounds > MAX_REFINE_ROUNDS:
        raise ValueError(f"refine_rounds must be <= {MAX_REFINE_ROUNDS}, got {refine_rounds!r}")

    best, bp1 = -math.inf, 0.5
    for t in range(refine_rounds + 1):
        # Round 0 spans [0, 1]; each later one a window _SHRINK times narrower.
        half = 0.5 / _SHRINK ** t
        p1 = np.linspace(max(0.0, bp1 - half), min(1.0, bp1 + half), coarse + 1)
        scale, e0, e1, e2, e3 = envelope_arrays(spec, p1)
        # Where e3 = 0 (p1 = 0 or 1) e2 or e0 alone is non-zero: z = 1.  The
        # lemma's value there divides by zero, and np.where discards it.
        with np.errstate(divide="ignore", invalid="ignore"):
            value = np.where(e3 > 0.0, scale * e3 * y_values(e0 / e3, e1 / e3, e2 / e3),
                             scale * (np.abs(e0) + np.abs(e1) + np.abs(e2)))
        i = int(np.argmax(value))  # the first of equal maxima: ties go to smaller p1
        if value[i] > best:
            best, bp1 = value[i], float(p1[i])

    env = envelope(spec, bp1)
    z = y_closed_form(env.e0 / env.e3, env.e1 / env.e3, env.e2 / env.e3).z if env.e3 else 1.0
    p2 = complex(z)  # z = 1 where e3 = 0, as in the rounds
    top = value_p3_optimal(env, p2)
    bound = sharp_bound(spec)
    return SearchReport(
        family=spec,
        max_abs_h21=top,
        argmax=SchurParams(bp1, p2, optimal_p3(env, p2)),
        bound=bound,
        gap=bound - top,
        grid=f"coarse={coarse}, refine_rounds={refine_rounds}, shrink={int(_SHRINK)}",
    )


def sweep(family: str, values, coarse: int = 128, refine_rounds: int = 3,
          beta: float = 0.0) -> list[SearchReport]:
    """One SearchReport per parameter value; any bad value aborts up front."""
    specs = [make_spec(family, v, beta=beta) for v in values]
    return [global_max(s, coarse=coarse, refine_rounds=refine_rounds) for s in specs]


def bound_monotonicity(reports: list[SearchReport]) -> str:
    """Direction of the closed-form bound across a sweep."""
    bounds = [rep.bound for rep in reports]
    if all(b2 <= b1 + 1e-15 for b1, b2 in zip(bounds, bounds[1:])):
        return "non-increasing"
    if all(b2 >= b1 - 1e-15 for b1, b2 in zip(bounds, bounds[1:])):
        return "non-decreasing"
    return "non-monotonic"
