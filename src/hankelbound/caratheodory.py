"""Parameterization of Caratheodory coefficients.

Functions with positive real part and p(0) = 1 have first coefficients
(c1, c2, c3) that can be written in terms of a triple (p1, p2, p3) with
p1 in [0, 1] and p2, p3 in the closed unit disk.  This module provides that
map, the explicit rational representatives realizing the degree-1 and
degree-2 extremal cases, and a runtime positivity check.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .series import DEFAULT_ORDER, PowerSeries, div

#: Slack absorbing floating-point representation error of unimodular inputs.
_DISK_SLACK = 1e-12

#: Classical coefficient bound |c_n| <= 2 with numerical slack.
_COEFF_SLACK = 1e-9


class InvalidParameterError(ValueError):
    """A Schur-type parameter lies outside its admissible region."""


@dataclass(frozen=True)
class SchurParams:
    """Parameters (p1, p2, p3) in [0,1] x closed-disk x closed-disk."""

    p1: float
    p2: complex
    p3: complex

    def __post_init__(self):
        if not (-_DISK_SLACK <= self.p1 <= 1.0 + _DISK_SLACK):
            raise InvalidParameterError(f"p1 must lie in [0, 1], got {self.p1!r}")
        if not abs(self.p2) <= 1.0 + _DISK_SLACK:
            raise InvalidParameterError(f"|p2| must be <= 1, got {abs(self.p2)!r}")
        if not abs(self.p3) <= 1.0 + _DISK_SLACK:
            raise InvalidParameterError(f"|p3| must be <= 1, got {abs(self.p3)!r}")


@dataclass(frozen=True)
class CTriple:
    """First three Taylor coefficients of a Caratheodory function."""

    c1: complex
    c2: complex
    c3: complex

    def __post_init__(self):
        for name in ("c1", "c2", "c3"):
            if not abs(getattr(self, name)) <= 2.0 + _COEFF_SLACK:
                raise InvalidParameterError(f"|{name}| must be <= 2")


def c_from_params(params: SchurParams) -> CTriple:
    """Coefficients (c1, c2, c3) realized by the parameters (p1, p2, p3)."""
    p1, p2, p3 = params.p1, params.p2, params.p3
    t = 1.0 - p1 * p1
    c1 = 2.0 * p1
    c2 = 2.0 * p1 * p1 + 2.0 * t * p2
    c3 = (
        2.0 * p1 ** 3
        + 4.0 * t * p1 * p2
        - 2.0 * t * p1 * p2 * p2
        + 2.0 * t * (1.0 - abs(p2) ** 2) * p3
    )
    return CTriple(c1, c2, c3)


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
