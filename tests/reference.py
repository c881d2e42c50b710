"""Test-only references, kept out of the program.

The tests check the program against these: the series quotient, the
degree-1 and degree-2 rational Caratheodory representatives, a runtime
positivity falsifier for truncated Caratheodory expansions, and the rotation
e^{-i*theta} f(e^{i*theta} z) of a coefficient triple.  Several test
modules also draw their random family members and Schur parameters here.
Neither the command line nor the benchmark calls any of them.
"""

from __future__ import annotations

import cmath

import numpy as np

from hankelbound.caratheodory import _COEFF_SLACK, _DISK_SLACK, InvalidParameterError, SchurParams
from hankelbound.families import CoeffTriple, Ozaki, Robertson, Spirallike
from hankelbound.series import DEFAULT_ORDER, PowerSeries, SeriesDomainError


def div(a: PowerSeries, b: PowerSeries) -> PowerSeries:
    """Quotient q with q*b = a up to the truncation order."""
    if not abs(b[0]) > 0.0:
        raise SeriesDomainError("division by a series with zero or NaN constant term")
    n = min(a.order, b.order)
    q = np.zeros(n + 1, dtype=complex)
    bc = b.coeffs
    for k in range(n + 1):
        acc = a.coeffs[k]
        if k:
            m = min(k, b.order)
            acc -= np.dot(bc[1 : m + 1], q[k - m : k][::-1])
        q[k] = acc / bc[0]
    return PowerSeries(q)


def rep_degree1(p1: complex, order: int = DEFAULT_ORDER) -> PowerSeries:
    """Series of (1 + p1*z) / (1 - p1*z); the unique member when |p1| = 1."""
    if not abs(p1) <= 1.0 + _DISK_SLACK:
        raise InvalidParameterError(f"|p1| must be <= 1, got {abs(p1)!r}")
    coeffs = np.empty(order + 1, dtype=complex)
    coeffs[0] = 1.0
    coeffs[1:] = 2.0 * np.asarray(p1, dtype=complex) ** np.arange(1, order + 1)
    return PowerSeries(coeffs)


def rep_degree2(p1: complex, p2: complex, order: int = DEFAULT_ORDER) -> PowerSeries:
    """Series of the degree-2 rational representative for (p1, p2).

    The function is the unique Caratheodory member with the prescribed c1, c2
    when |p2| = 1; for |p2| < 1 it is accepted here and its positivity should
    be checked at runtime via :func:`validate_caratheodory`.
    """
    if not (abs(p1) <= 1.0 + _DISK_SLACK and abs(p2) <= 1.0 + _DISK_SLACK):
        raise InvalidParameterError("p1 and p2 must lie in the closed unit disk")
    p1c = complex(p1).conjugate()
    num = PowerSeries.from_poly([1.0, p1 + p1c * p2, p2], order)
    den = PowerSeries.from_poly([1.0, -(p1 - p1c * p2), -p2], order)
    return div(num, den)


def validate_caratheodory(p: PowerSeries, radius: float, samples: int) -> bool:
    """Falsification check for truncated Caratheodory expansions.

    Returns False when no function with positive real part on the unit disk
    can share the retained coefficients: either some |c_n| exceeds 2, or the
    sampled real part on the circle of the given radius drops below what the
    truncation tail could possibly restore.  Once |c_n| <= 2 holds, the
    discarded tail contributes at most 2 r^(N+1) / (1 - r) on that circle,
    so a genuine member is never rejected.
    """
    if not 0.0 < radius < 1.0:
        raise ValueError("radius must lie in (0, 1)")
    if np.any(np.abs(p.coeffs[1:]) > 2.0 + _COEFF_SLACK):
        return False
    theta = 2.0 * np.pi * np.arange(samples) / samples
    z = radius * np.exp(1j * theta)
    values = np.polyval(p.coeffs[::-1], z)
    tail = 2.0 * radius ** (p.order + 1) / (1.0 - radius)
    return bool(np.all(values.real > -tail))


def rotate(a: CoeffTriple, theta: float) -> CoeffTriple:
    """Coefficients of e^{-i*theta} f(e^{i*theta} z)."""
    w = cmath.exp(1j * theta)
    return CoeffTriple(w * a.a2, w * w * a.a3, w ** 3 * a.a4)


def random_spec(rng, tag):
    """A family member drawn from rng, of the family named by tag."""
    if tag == "spirallike":
        return Spirallike(rng.uniform(0, 0.95), rng.uniform(-1.4, 1.4))
    if tag == "ozaki":
        return Ozaki(rng.uniform(0.05, 1.0))
    return Robertson(rng.uniform(0.5, 1.0))


def random_params(rng) -> SchurParams:
    """Schur parameters drawn from rng: p1 in [0, 1), p2 and p3 in the open disk."""
    p1 = rng.uniform(0, 1)
    p2 = rng.uniform(0, 1) * np.exp(1j * rng.uniform(0, 2 * np.pi))
    p3 = rng.uniform(0, 1) * np.exp(1j * rng.uniform(0, 2 * np.pi))
    return SchurParams(p1, p2, p3)
