"""Closed-form maximum of |A + Bz + Cz^2| + 1 - |z|^2 over the closed disk.

``y_closed_form`` implements the piecewise formula exactly as stated for real
A, B, C, recording which branch fired and a disk point where that branch's
value is attained.  ``y_values`` is its array twin: bit for bit the same
value for every triple of three arrays, in one numpy pass, as the search
needs on all p1 nodes of a refinement round at once.  ``y_oracle`` is an
independent maximization over a polar grid: on each circle the squared
modulus is a quadratic in cos(theta), so only the end nodes and the nodes
next to its vertex are evaluated, and the result is exactly the grid
maximum.  It takes one triple or arrays of many, in one loop over chunks
of a fixed number of (triple, radius) pairs on a grid that the cached
``_oracle_nodes`` checks and builds; each element is computed by the same
expression either way, so a batched maximum is bit for bit the
single-triple one.  ``y_certify`` checks the lemma against the oracle, one
triple at a time, up to a grid-resolution allowance.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass

import numpy as np

#: Default certification grid.
CERT_RADIAL = 512
CERT_ANGULAR = 2048
#: Largest y_oracle grid, in nodes per triple; 8 bytes a node per temporary.
MAX_ORACLE_NODES = 10 ** 7


class YCase(enum.Enum):
    AC_NONNEG_SUM = "AC_NONNEG_SUM"
    AC_NONNEG_PARABOLA = "AC_NONNEG_PARABOLA"
    NEG_FIRST = "NEG_FIRST"
    NEG_SECOND = "NEG_SECOND"
    R_SUM = "R_SUM"
    R_DIFF = "R_DIFF"
    R_SQRT = "R_SQRT"


@dataclass(frozen=True)
class YResult:
    value: float
    case_label: YCase
    z: complex  # a point of the closed disk where value is attained


def y_closed_form(A: float, B: float, C: float) -> YResult:
    """Piecewise maximum; first satisfied condition (top to bottom) wins."""
    aA, aB, aC = abs(A), abs(B), abs(C)
    sA, sB = math.copysign(1.0, A), math.copysign(1.0, B)

    if A * C >= 0.0:
        sAC = math.copysign(1.0, A + C)
        if aB - 2.0 * (1.0 - aC) >= 0.0:
            return YResult(aA + aB + aC, YCase.AC_NONNEG_SUM, sB * sAC)
        return YResult(1.0 + aA + aB * aB / (4.0 * (1.0 - aC)), YCase.AC_NONNEG_PARABOLA,
                       sAC * B / (2.0 * (1.0 - aC)))

    # AC < 0 from here on, so C != 0; if C*C underflows, C^-2 is inf, as in y_values.
    cc = C * C
    t = -4.0 * A * C * ((1.0 / cc if cc else math.inf) - 1.0)
    if t <= B * B and aB < 2.0 * (1.0 - aC):
        return YResult(1.0 - aA + aB * aB / (4.0 * (1.0 - aC)), YCase.NEG_FIRST,
                       -sA * B / (2.0 * (1.0 - aC)))
    # (1 + |C|) squared by a product: libm's pow is not correctly rounded,
    # and y_values has no array twin of it.
    if B * B < min(4.0 * ((1.0 + aC) * (1.0 + aC)), t):
        return YResult(1.0 + aA + aB * aB / (4.0 * (1.0 + aC)), YCase.NEG_SECOND,
                       sA * B / (2.0 * (1.0 + aC)))

    # First case: |A| + |B| - |C|.  With AC < 0 the three terms of the
    # polynomial cannot phase-align on the boundary, so |C| is subtracted;
    # the polar-grid oracle confirms this against the "+|C|" variant.
    if aA * aB - aC * (aB + 4.0 * aA) >= 0.0:
        return YResult(aA + aB - aC, YCase.R_SUM, sA * sB)
    if aC * (aB - 4.0 * aA) - aA * aB >= 0.0:
        return YResult(-aA + aB + aC, YCase.R_DIFF, -sA * sB)
    # AC < 0, so the radicand is at least 1 (or nan for non-finite input).
    radicand = 1.0 - B * B / (4.0 * A * C)
    u = min(max(-B * (A + C) / (4.0 * A * C), -1.0), 1.0)
    return YResult((aA + aC) * math.sqrt(radicand), YCase.R_SQRT,
                   complex(u, math.sqrt(1.0 - u * u)))


def y_values(A: np.ndarray, B: np.ndarray, C: np.ndarray) -> np.ndarray:
    """``y_closed_form(A[i], B[i], C[i]).value`` for every i, bit for bit.

    Every branch's value and condition is computed on the whole arrays with
    the scalar expressions, then ``np.select`` picks by the lemma's
    precedence: it assigns from the last branch to the first, so that an
    earlier branch overwrites a later one.  Branches that are not selected
    may divide by zero or overflow; their inf and nan are discarded, so
    floating-point errors are ignored here rather than reported.
    """
    A, B, C = (np.asarray(x, dtype=float) for x in (A, B, C))
    with np.errstate(all="ignore"):
        aA, aB, aC = np.abs(A), np.abs(B), np.abs(C)
        BB, aAaB, fourA = B * B, aA * aB, 4.0 * aA
        om, op = 1.0 - aC, 1.0 + aC
        two_om, four_AC = 2.0 * om, 4.0 * A * C
        parabola = BB / (4.0 * om)
        t = -four_AC * (1.0 / (C * C) - 1.0)  # -4AC(C^-2 - 1), negated exactly
        cap = 4.0 * (op * op)
        radicand = 1.0 - BB / four_AC
        nonneg = A * C >= 0.0
        conditions = [
            nonneg & (aB - two_om >= 0.0),                  # AC_NONNEG_SUM
            nonneg,                                         # AC_NONNEG_PARABOLA
            (t <= BB) & (aB < two_om),                      # NEG_FIRST
            BB < np.where(t < cap, t, cap),                 # NEG_SECOND: min(cap, t)
            aAaB - aC * (aB + fourA) >= 0.0,                # R_SUM
            aC * (aB - fourA) - aAaB >= 0.0,                # R_DIFF
        ]
        branches = [aA + aB + aC, 1.0 + aA + parabola, 1.0 - aA + parabola,
                    1.0 + aA + BB / (4.0 * op), aA + aB - aC, -aA + aB + aC]
        r_sqrt = (aA + aC) * np.sqrt(radicand)
        return np.select(conditions, branches, r_sqrt)


@functools.lru_cache(maxsize=8)
def _oracle_nodes(radial: int, angular: int) -> tuple[np.ndarray, ...]:
    """Radii, squared radii and the grid's distinct cosines, sorted and padded
    by their end values, two on each side; a grid that fails the check
    builds no array.  The arrays are shared by every call with the same
    grid, so they are returned read-only.
    """
    # theta_k and 2*pi - theta_k give the same cos, hence the same value;
    # for even angular counts the distinct cosines are k = 0..angular/2.
    n_u = angular // 2 + 1 if angular % 2 == 0 else angular
    if radial < 64 or angular < 256 or (radial + 1) * n_u > MAX_ORACLE_NODES:
        raise ValueError(f"need radial >= 64, angular >= 256, nodes <= {MAX_ORACLE_NODES}")
    r = np.arange(radial + 1) / radial
    u = np.sort(np.cos(2.0 * np.pi * np.arange(n_u) / angular))
    nodes = (r, r * r, np.pad(u, 2, mode="edge"))
    for a in nodes:
        a.flags.writeable = False
    return nodes


#: Elements, 8 bytes each, per (triples x radii) chunk of y_oracle's temporaries.
ORACLE_CHUNK = 8192


def y_oracle(A: float | np.ndarray, B: float | np.ndarray, C: float | np.ndarray,
             radial: int = CERT_RADIAL, angular: int = CERT_ANGULAR) -> float | np.ndarray:
    """Maximum of |A + Bz + Cz^2| + 1 - |z|^2 over the polar grid.

    A, B and C are floats, or arrays of one shape; the result is a float,
    or an array of that shape holding the grid maximum of every triple.

    The grid is r_j = j/radial (j = 0..radial, so r = 0 and r = 1 are
    included) times theta_k = 2*pi*k/angular.  For real coefficients the
    squared modulus on the circle of radius r_j is a quadratic in
    u = cos(theta), so its largest value over the grid's u-nodes sits at an
    end node or, for a concave quadratic, at a node next to the vertex.  Only
    five nodes per radius are evaluated, the four around the vertex and the
    lowest, with the same floating-point expression as a scan of every node,
    so the result is exactly the grid maximum.  Nothing here uses the
    piecewise formula of ``y_closed_form``.

    One loop takes the triples in chunks of about ``ORACLE_CHUNK`` (triple,
    radius) pairs, with the radius on the last axis, so temporaries stay small
    for any count and grid; ``_oracle_nodes`` rejects a bad grid before that.
    Every element is computed by the same expression as for one triple alone,
    so batching does not change a bit.
    """
    A, B, C = (np.asarray(x, dtype=float) for x in (A, B, C))
    if not A.shape == B.shape == C.shape:
        raise ValueError(f"A, B and C differ in shape: {A.shape}, {B.shape}, {C.shape}")
    r, r2, pad = _oracle_nodes(radial, angular)
    u, lowest = pad[2:-2], pad[0]
    columns = [x.reshape(-1, 1) for x in (A, B, C)]
    out = np.empty(A.size)
    step = max(1, ORACLE_CHUNK // (radial + 1))
    for lo in range(0, A.size, step):
        a, b, c = (x[lo:lo + step] for x in columns)
        # |A + Bz + Cz^2|^2 = A^2 + B^2 r^2 + C^2 r^4
        #                     + 2(AB r + BC r^3) u + 2AC r^2 (2u^2 - 1)
        const = a * a + b * b * r2 + c * c * r2 * r2 - 2.0 * a * c * r2
        lin = 2.0 * (a * b * r + b * c * r * r2)
        quad = 4.0 * a * c * r2
        # A row that is not concave peaks at an end node.  Its vertex is put past
        # the upper end, so its window holds that end; every row adds the lower
        # end.  The window is two nodes on each side of the vertex's insertion
        # point i, as for odd angular counts theta_k and 2*pi - theta_k give
        # near-equal cosines: pad[i + k], k = 0..3, is u[clip(i - 2 + k, 0, len(u) - 1)].
        at = np.searchsorted(u, np.divide(-lin, 2.0 * quad, out=np.full_like(lin, np.inf),
                                          where=quad < 0.0))
        sq = const + lin * lowest + quad * (lowest * lowest)
        for k in range(4):
            uc = pad[at + k]
            np.maximum(sq, const + lin * uc + quad * (uc * uc), out=sq)
        row_max = np.sqrt(np.maximum(sq, 0.0))
        out[lo:lo + step] = np.max(row_max + 1.0 - r2, axis=1)
    return float(out[0]) if A.ndim == 0 else out.reshape(A.shape)


def grid_allowance(B: float, C: float, radial: int = CERT_RADIAL,
                   angular: int = CERT_ANGULAR) -> float:
    """Lipschitz-based slack covering the gap between grid and true maximum."""
    lip = abs(B) + 2.0 * abs(C) + 2.0
    return lip * math.pi / angular + lip / radial


def y_certify(A: float, B: float, C: float, tol: float,
              radial: int = CERT_RADIAL, angular: int = CERT_ANGULAR) -> bool:
    """True iff closed form and oracle agree within tol plus grid allowance."""
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    closed = y_closed_form(A, B, C).value
    grid = y_oracle(A, B, C, radial=radial, angular=angular)
    return abs(closed - grid) <= tol + grid_allowance(B, C, radial, angular)
