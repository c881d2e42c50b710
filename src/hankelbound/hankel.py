"""Logarithmic coefficients and the second Hankel determinant H_{2,1}.

For f(z) = z + a2 z^2 + ... the coefficients gamma_n of log(f(z)/z)/2 give
H_{2,1} = gamma1*gamma3 - gamma2^2, which also equals
(a2*a4 - a3^2 + a2^4/12)/4.  ``h21`` evaluates both routes on every call
and raises ``PathMismatchError`` when they disagree, so every caller, the
``gamma`` command included, gets a checked value.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

from .families import CoeffTriple


class PathMismatchError(RuntimeError):
    """The two evaluation paths of H_{2,1} disagree."""


@dataclass(frozen=True)
class GammaTriple:
    g1: complex
    g2: complex
    g3: complex


def log_coeffs(a: CoeffTriple) -> GammaTriple:
    """gamma_1..gamma_3 in terms of (a2, a3, a4)."""
    g1 = a.a2 / 2.0
    g2 = (a.a3 - a.a2 * a.a2 / 2.0) / 2.0
    g3 = (a.a4 - a.a2 * a.a3 + a.a2 ** 3 / 3.0) / 2.0
    return GammaTriple(g1, g2, g3)


def h21_monomial(a: CoeffTriple) -> complex:
    """Direct evaluation (a2*a4 - a3^2 + a2^4/12)/4."""
    return (a.a2 * a.a4 - a.a3 * a.a3 + a.a2 ** 4 / 12.0) / 4.0


def h21(a: CoeffTriple) -> complex:
    """gamma1*gamma3 - gamma2^2, cross-checked against the monomial form."""
    g = log_coeffs(a)
    value = g.g1 * g.g3 - g.g2 * g.g2
    scale = max(1.0, abs(a.a2), abs(a.a3), abs(a.a4)) ** 4
    mismatch = abs(value - h21_monomial(a))
    if not mismatch <= 1e-12 * scale:
        raise PathMismatchError(f"H_{{2,1}} path mismatch {mismatch!r} for {a!r}")
    return value


def rotate(a: CoeffTriple, theta: float) -> CoeffTriple:
    """Coefficients of e^{-i*theta} f(e^{i*theta} z)."""
    w = cmath.exp(1j * theta)
    return CoeffTriple(w * a.a2, w * w * a.a3, w ** 3 * a.a4)
