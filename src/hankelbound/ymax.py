"""Closed-form maximum of |A + Bz + Cz^2| + 1 - |z|^2 over the closed disk.

``y_closed_form`` implements the piecewise formula exactly as stated for real
A, B, C, recording which branch fired and a disk point where that branch's
value is attained.  ``y_values`` is its array twin: bit for bit the same
value for every triple of three arrays, in one numpy pass, as the search
needs on all p1 nodes of a refinement round at once, and on request each
triple's branch, as ``ymax-certify`` counts them.  ``y_oracle`` is an
independent maximization over a polar grid: on each circle the squared
modulus is a quadratic in cos(theta), so only the end nodes and the nodes
next to its vertex are evaluated, in place by one kernel, and the result
is exactly the grid maximum.  One triple is one kernel call on Python
floats against the 1-D radii of the grid that the cached ``_oracle_nodes``
checks and builds.  A batch of two or more goes in chunks and two passes:
every ``ORACLE_STRIDE``-th radius, then only the blocks between them whose
Lipschitz bound in r, plus a rounding margin, reaches the best value so
far, bit for bit the one-triple maximum; a triple that could overflow is
scanned as one triple.  ``y_certify`` checks a triple against the grid, up
to an allowance, by exact circle maxima where they decide.
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
#: Largest grid y_oracle accepts, as (radial + 1) times its distinct cosines; not a memory bound.
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
    A, B, C = float(A), float(B), float(C)  # numpy scalars would warn where floats give inf
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


def y_values(A: np.ndarray, B: np.ndarray, C: np.ndarray,
             case_index: bool = False) -> np.ndarray | tuple[np.ndarray, np.ndarray]:
    """``y_closed_form(A[i], B[i], C[i]).value`` for every i, bit for bit.

    Every branch's value and condition is computed on the whole arrays with
    the scalar expressions.  ``out`` starts as R_SQRT's value; the others are
    copied in from the last branch to the first, so an earlier one overwrites
    a later one.  Unselected branches may divide by zero or overflow; their
    inf and nan are discarded, so floating-point errors are ignored here.

    With ``case_index`` the result is (values, index), where index[i] is the
    position in ``YCase`` of ``y_closed_form(A[i], B[i], C[i]).case_label``,
    taken from the same conditions as the values.
    """
    A, B, C = (np.asarray(x, dtype=float) for x in (A, B, C))
    with np.errstate(all="ignore"):
        aA, aB, aC = np.abs(A), np.abs(B), np.abs(C)
        BB, aAaB, fourA = B * B, aA * aB, 4.0 * aA
        sAB, one_aA = aA + aB, 1.0 + aA
        om, op = 1.0 - aC, 1.0 + aC
        two_om, four_AC = 2.0 * om, 4.0 * A * C
        parabola = BB / (4.0 * om)
        t = -four_AC * (1.0 / (C * C) - 1.0)  # -4AC(C^-2 - 1), negated exactly
        cap = 4.0 * (op * op)
        radicand = 1.0 - BB / four_AC
        nonneg = A * C >= 0.0
        out = np.asarray((aA + aC) * np.sqrt(radicand))  # R_SQRT; an array for 0-d input too
        r_diff = aC * (aB - fourA) - aAaB >= 0.0
        np.copyto(out, -aA + aB + aC, where=r_diff)
        r_sum = aAaB - aC * (aB + fourA) >= 0.0
        np.copyto(out, sAB - aC, where=r_sum)
        neg_second = BB < np.where(t < cap, t, cap)  # B^2 < min(cap, t)
        np.copyto(out, one_aA + BB / (4.0 * op), where=neg_second)
        neg_first = (t <= BB) & (aB < two_om)
        np.copyto(out, 1.0 - aA + parabola, where=neg_first)
        np.copyto(out, one_aA + parabola, where=nonneg)  # AC_NONNEG_PARABOLA
        nonneg_sum = nonneg & (aB - two_om >= 0.0)
        np.copyto(out, sAB + aC, where=nonneg_sum)
        if not case_index:
            return out
        # The same conditions, in YCase's order, applied last to first as above.
        conditions = (nonneg_sum, nonneg, neg_first, neg_second, r_sum, r_diff)
        index = np.full(out.shape, len(conditions), dtype=np.int8)  # R_SQRT
        for case in reversed(range(len(conditions))):
            np.copyto(index, case, where=conditions[case])
        return out, index


@functools.lru_cache(maxsize=8)
def _oracle_nodes(radial: int, angular: int) -> tuple[np.ndarray, ...]:
    """Radii, squared radii and the grid's distinct cosines, sorted and padded
    by their end values, two on each side; a grid that fails the check
    builds no array.  The arrays are shared by every call with the same
    grid, so they are returned read-only."""
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
#: Radii per block of a batch's pruned scan: its coarse pass takes every
#: ORACLE_STRIDE-th radius, its fine pass the interior of blocks that can win.
ORACLE_STRIDE = 16
#: Largest |A| + |B| + |C| whose radii are pruned.  Below it no partial sum of
#: the squared modulus in ``_circle_values`` (each at most 5 (|A| + |B| + |C|)^2) overflows.
ORACLE_PRUNE_SCALE = 1e153


def _tame(a, b, c):
    """|a| + |b| + |c| below ``ORACLE_PRUNE_SCALE``: the squared modulus cannot overflow."""
    return abs(a) + abs(b) + abs(c) < ORACLE_PRUNE_SCALE


def _margin(a, b, c):
    """1e-6 (1 + S), S = |a| + |b| + |c|: the rounding margin that ``y_oracle`` argues."""
    return 1e-6 * (1.0 + (abs(a) + abs(b) + abs(c)))


def lipschitz(B, C):
    """|B| + 2|C| + 2, a Lipschitz constant of |A + Bz + Cz^2| + 1 - |z|^2
    on the closed disk, so also of its grid maximum over each circle, in r:
    the polynomial's derivative is at most |B| + 2|C| and that of 1 - r^2
    at most 2.  Floats or arrays."""
    return abs(B) + 2.0 * abs(C) + 2.0


def _circle_quadratic(a, b, c, r, r2):
    """const, lin, quad of |a + b z + c z^2|^2 = const + lin u + quad u^2 at z = r e^(i theta),
    u = cos(theta), and a scratch array, over the broadcast arrays; r2 is r * r."""
    # |A + Bz + Cz^2|^2 = A^2 + B^2 r^2 + C^2 r^4
    #                     + 2(AB r + BC r^3) u + 2AC r^2 (2u^2 - 1)
    # In place, in the order of const = a * a + b * b * r2 + c * c * r2 * r2 - 2.0 * a * c * r2,
    # lin = 2.0 * (a * b * r + b * c * r * r2) and quad = 4.0 * a * c * r2: each step rounds so.
    const, q = np.multiply(b * b, r2), np.multiply(c * c, r2)
    np.add(a * a, const, out=const)
    np.add(const, np.multiply(q, r2, out=q), out=const)
    np.subtract(const, np.multiply(2.0 * a * c, r2, out=q), out=const)
    lin = np.multiply(a * b, r)
    np.add(lin, np.multiply(np.multiply(b * c, r, out=q), r2, out=q), out=lin)
    np.multiply(2.0, lin, out=lin)
    return const, lin, np.multiply(4.0 * a * c, r2), q


def _circle_values(a, b, c, r, r2, pad):
    """sqrt(max_k |a + b z + c z^2|^2) + 1 - r^2 over z = r e^(i theta_k),
    element by element over the broadcast arrays; r2 is r * r, and pad the
    padded cosines of ``_oracle_nodes``.  Only five nodes per radius are
    evaluated, the four around the vertex of the quadratic in cos(theta) and
    the lowest one, which is exactly the maximum over every node."""
    # Q(u) = const + lin * u + quad * (u * u), sqrt(max(Q, 0)) + 1.0 - r2: in place in that order.
    const, lin, quad, q = _circle_quadratic(a, b, c, r, r2)
    # A radius that is not concave peaks at an end node.  Its vertex, -lin / (2 quad), taken as
    # lin / (-2 quad) (the same but for a nan's sign), is put past the upper end, so its window
    # holds that end; every radius adds the lower end.  The window is two nodes on each side of
    # the vertex's insertion point i, as for odd angular counts theta_k and 2*pi - theta_k give
    # near-equal cosines: pad[k:][i], k = 0..3, is u[clip(i - 2 + k, 0, len(u) - 1)].
    sq = np.full_like(lin, np.inf)
    at = np.searchsorted(pad[2:-2], np.divide(lin, np.multiply(-2.0, quad, out=q), out=sq,
                                              where=quad < 0.0))
    np.add(np.add(const, np.multiply(lin, pad[0], out=sq), out=sq),
           np.multiply(quad, pad[0] * pad[0], out=q), out=sq)
    for k in range(4):
        u = pad[k:][at]
        np.add(np.add(const, np.multiply(lin, u, out=q), out=q),
               np.multiply(quad, np.multiply(u, u, out=u), out=u), out=q)
        np.maximum(sq, q, out=sq)
    np.sqrt(np.maximum(sq, 0.0, out=sq), out=sq)
    return np.subtract(np.add(sq, 1.0, out=sq), r2, out=sq)


def _circle_maxima(a, b, c, r, r2):
    """``_circle_values`` over the whole circle: Q's maximum over u in [-1, 1], const + quad + |lin|
    at an end, or where quad < 0 and |lin| < -2 quad, const - lin^2 / (4 quad) at the vertex,
    taken as const - lin (lin / (4 quad)), a quotient below 1/2 in modulus."""
    const, lin, quad, q = _circle_quadratic(a, b, c, r, r2)
    top = np.add(const, quad)
    np.add(top, np.abs(lin, out=q), out=top)
    vertex = q < -2.0 * quad  # so quad < 0, as q = |lin| >= 0
    np.divide(lin, np.multiply(4.0, quad, out=quad), out=q, where=vertex)
    np.subtract(const, np.multiply(lin, q, out=q, where=vertex), out=top, where=vertex)
    np.sqrt(np.maximum(top, 0.0, out=top), out=top)
    return np.subtract(np.add(top, 1.0, out=top), r2, out=top)


def _pruned_max(a, b, c, r, r2, pad):
    """The grid maximum of each row of the (n, 1) columns a, b, c from the radii that can hold
    it, in chunks; the fine pass folds each block's maximum into its triple's best, in any order."""
    out = np.empty(a.shape[0])
    radial = r.size - 1
    edges = np.minimum(np.arange(0, radial + ORACLE_STRIDE, ORACLE_STRIDE), radial)
    half_width = 0.5 * (r[edges[1:]] - r[edges[:-1]])
    # A block's interior radii; a short last block repeats its last one.
    inner = np.minimum(edges[:-1, None] + np.arange(1, ORACLE_STRIDE), edges[1:, None] - 1)
    step = max(1, ORACLE_CHUNK // edges.size)
    # Blocks per fine chunk: half as many, as a fine element also gathers r, r2 and an index.
    fine_step = max(1, ORACLE_CHUNK // (2 * ORACLE_STRIDE))
    for lo in range(0, out.size, step):
        rows = slice(lo, lo + step)
        x, y, z = a[rows], b[rows], c[rows]
        g = _circle_values(x, y, z, r[edges], r2[edges], pad)
        best = np.max(g, axis=1)
        bound = 0.5 * (g[:, :-1] + g[:, 1:]) + lipschitz(y, z) * half_width + _margin(x, y, z)
        tame = _tame(x, y, z)
        tri, blocks = np.nonzero((bound >= best[:, None]) & tame)
        del g, bound  # the fine pass's temporaries come on top of these
        for f in range(0, tri.size, fine_step):
            i, j = tri[f:f + fine_step], inner[blocks[f:f + fine_step]]
            np.maximum.at(best, i, _circle_values(x[i], y[i], z[i], r[j], r2[j], pad).max(axis=1))
        # A triple that is not ``_tame`` (a nan, an inf, S too large): every radius, as one triple.
        for i in np.flatnonzero(~tame[:, 0]):
            best[i] = _circle_values(x.item(i), y.item(i), z.item(i), r, r2, pad).max()
        out[rows] = best
    return out


def y_oracle(A: float | np.ndarray, B: float | np.ndarray, C: float | np.ndarray,
             radial: int = CERT_RADIAL, angular: int = CERT_ANGULAR) -> float | np.ndarray:
    """Maximum of |A + Bz + Cz^2| + 1 - |z|^2 over the polar grid.

    A, B and C are floats, or arrays of one shape; the result is a float,
    or an array of that shape holding the grid maximum of every triple.

    The grid is r_j = j/radial (j = 0..radial) times theta_k =
    2*pi*k/angular.  For real coefficients the squared modulus on the circle
    of radius r_j is a quadratic Q_j in u = cos(theta), so its largest value
    over the grid's u-nodes sits at an end node or, for a concave quadratic,
    next to the vertex.  ``_circle_values`` evaluates only those five nodes
    per radius, with the floating-point operations of a scan of every node,
    so g_j = sqrt(max_k Q_j(u_k)) + 1 - r_j^2 is exactly the grid's value.
    Nothing here uses the piecewise formula of ``y_closed_form``.

    One triple is one ``_circle_values`` call on Python floats over every
    radius.  A batch of two or more takes two passes.  The coarse pass computes
    g_j at every m-th radius (m = ``ORACLE_STRIDE``) and at r = 1.  The grid
    maximum g(r) is lip-Lipschitz in r, lip = ``lipschitz(B, C)``, so on a
    block [r_lo, r_hi] of width w, g(r) <= min(g_lo + lip (r - r_lo),
    g_hi + lip (r_hi - r)) <= (g_lo + g_hi)/2 + lip w/2.  The fine pass
    evaluates the interior radii of the blocks where that bound plus a margin
    reaches the best coarse value; every radius it skips is below the maximum.
    Each block's maximum folds into its triple's best in any order, and each
    element takes the same float operations on every path, so no bit changes.

    The margin, ``_margin`` = 1e-6 (1 + S), S = |A| + |B| + |C|, covers
    rounding.  Below ``ORACLE_PRUNE_SCALE`` every term of Q_j is at most S^2
    and no partial sum exceeds 5 S^2, so nothing overflows, and Q_j is computed
    with an absolute error of at most about 100 eps S^2 (some 20 roundings,
    each of a value below 5 S^2).  As |sqrt x - sqrt y| <= sqrt|x - y|, each
    g_j is within d = sqrt(100 eps) S + 4 eps (1 + S) < 1.5e-7 S + 1e-15 of the
    exact grid value.  The bound needs 2 d (d at the skipped radius, d for the
    mean of the ends) and a few eps (1 + S + lip) for its own rounding; the
    margin is more than all three.  A triple that is not ``_tame`` (a nan, an
    inf, S past ``ORACLE_PRUNE_SCALE``) is scanned at every radius as one
    triple, so even its nan is the same.  Its terms may overflow, and for a
    tiny AC so may the vertex, which is then past an end node as it should be;
    numpy's overflow and invalid warnings are silenced around the whole call.
    ``_oracle_nodes`` rejects a bad grid first.
    """
    A, B, C = (np.asarray(x, dtype=float) for x in (A, B, C))
    if not A.shape == B.shape == C.shape:
        raise ValueError(f"A, B and C differ in shape: {A.shape}, {B.shape}, {C.shape}")
    r, r2, pad = _oracle_nodes(radial, angular)
    with np.errstate(over="ignore", invalid="ignore"):
        if A.size == 1:  # Python floats against the 1-D radii
            out = _circle_values(A.item(), B.item(), C.item(), r, r2, pad).max()
            return float(out) if A.ndim == 0 else np.full(A.shape, out)
        a, b, c = A.reshape(-1, 1), B.reshape(-1, 1), C.reshape(-1, 1)
        return _pruned_max(a, b, c, r, r2, pad).reshape(A.shape)


def grid_allowance(B, C, radial: int = CERT_RADIAL, angular: int = CERT_ANGULAR):
    """Lipschitz-based slack covering the gap between grid and true maximum,
    for floats or arrays B and C."""
    lip = lipschitz(B, C)
    return lip * math.pi / angular + lip / radial


def y_certify(A: float, B: float, C: float, tol: float,
              radial: int = CERT_RADIAL, angular: int = CERT_ANGULAR) -> bool:
    """True iff |closed - grid| <= T, T = tol + ``grid_allowance``: the closed
    form and ``y_oracle``'s grid agree.  A ``_tame`` triple is first decided
    from ``_circle_maxima``.  Its largest value M is at least grid, whose nodes
    lie on the circles, and at most grid + (|B| + 2|C|) pi/angular, as each
    circle's maximum is within pi/angular in theta of a node and |A + Bz + Cz^2|
    is (|B| + 2|C|)-Lipschitz in theta.  By ``y_oracle``'s argument, with a few
    more roundings, both are computed to 1.5e-7 S + 1e-15, so m = ``_margin``
    covers them and the comparisons: an enclosure [M - (|B| + 2|C|) pi/angular
    - m, M + m] inside [closed - T, closed + T] gives True, one outside False.
    Any other triple is scanned, so the bool is the grid's in every case."""
    if not 0.0 < tol < math.inf:  # a nan tol certifies nothing, an infinite one anything
        raise ValueError("tol must be positive and finite")
    r, r2, _ = _oracle_nodes(radial, angular)  # a bad grid raises before the allowance divides
    A, B, C = float(A), float(B), float(C)
    closed = y_closed_form(A, B, C).value
    allowed = tol + grid_allowance(B, C, radial, angular)
    if _tame(A, B, C):
        top = float(_circle_maxima(A, B, C, r, r2).max())
        margin = _margin(A, B, C)
        lo, hi = top - (abs(B) + 2.0 * abs(C)) * math.pi / angular - margin, top + margin
        inside = closed - allowed <= lo and hi <= closed + allowed
        if inside or hi < closed - allowed or closed + allowed < lo:
            return inside
    grid = y_oracle(A, B, C, radial=radial, angular=angular)
    return abs(closed - grid) <= allowed
