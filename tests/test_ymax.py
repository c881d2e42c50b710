import collections
import itertools
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from hankelbound import ymax
from hankelbound.families import Ozaki, Robertson, Spirallike
from hankelbound.search import envelope, global_max
from hankelbound.ymax import (
    ORACLE_CHUNK,
    ORACLE_PRUNE_MIN,
    ORACLE_STRIDE,
    YCase,
    YResult,
    _circle_maxima,
    _oracle_nodes,
    grid_allowance,
    y_certify,
    y_closed_form,
    y_oracle,
    y_values,
)


class TestClosedForm:
    def test_origin(self):
        res = y_closed_form(0, 0, 0)
        assert res.value == pytest.approx(1.0)
        assert res.case_label is YCase.AC_NONNEG_PARABOLA

    def test_all_ones(self):
        res = y_closed_form(1, 1, 1)
        assert res.value == pytest.approx(3.0)
        assert res.case_label is YCase.AC_NONNEG_SUM

    def test_imaginary_diameter(self):
        res = y_closed_form(1, 0, -1)
        assert res.value == pytest.approx(2.0)
        assert res.case_label is YCase.R_SQRT


def sample_triples(rng):
    """Uniform triples at three scales, and every triple over a small value
    set holding zeros of both signs and the branch thresholds |B| = 2 and
    |C| = 1."""
    scaled = np.concatenate([rng.uniform(-s, s, size=(4000, 3)) for s in (0.25, 1.0, 5.0)])
    values = (0.0, -0.0, 0.5, -0.5, 1.0, -1.0, 2.0, -2.0, 3.0)
    return [*map(tuple, scaled.tolist()), *itertools.product(values, repeat=3)]


class TestMaximiser:
    def test_attains_value_in_every_branch(self):
        seen = collections.Counter()
        for A, B, C in sample_triples(np.random.default_rng(11)):
            res = y_closed_form(A, B, C)
            z = res.z
            assert abs(z) <= 1.0
            attained = abs(A + B * z + C * z * z) + 1.0 - abs(z) ** 2
            assert abs(attained - res.value) <= 1e-12 * res.value, (A, B, C, res)
            seen[res.case_label] += 1
        assert min(seen[case] for case in YCase) >= 20, seen


def _full_scan_radii(A, B, C, radial, angular):
    """Reference grid value at every radius: the same expression evaluated
    at every grid node."""
    n_u = angular // 2 + 1 if angular % 2 == 0 else angular
    r = np.arange(radial + 1) / radial
    u = np.cos(2.0 * np.pi * np.arange(n_u) / angular)
    r2 = r * r
    const = A * A + B * B * r2 + C * C * r2 * r2 - 2.0 * A * C * r2
    lin = 2.0 * (A * B * r + B * C * r * r2)
    quad = 4.0 * A * C * r2
    sq = const[:, None] + lin[:, None] * u[None, :] + quad[:, None] * (u * u)[None, :]
    row_max = np.sqrt(np.maximum(sq.max(axis=1), 0.0))
    return row_max + 1.0 - r2


def _full_scan(A, B, C, radial, angular):
    """Reference oracle: the largest of ``_full_scan_radii``."""
    return float(np.max(_full_scan_radii(A, B, C, radial, angular)))


def envelope_triples(rng, count):
    """(e0, e1, e2) / e3 of the search envelope, the Y-lemma inputs of the
    paper's second step, for random members of all three families."""
    specs = [Spirallike(0.0, 0.0), *map(Ozaki, rng.uniform(0.05, 1.0, count)),
             *map(Robertson, rng.uniform(0.5, 1.0, count))]
    out = []
    for spec in specs:
        env = envelope(spec, float(rng.uniform(0.01, 0.99)))
        out.append((env.e0 / env.e3, env.e1 / env.e3, env.e2 / env.e3))
    return out


#: A = 0, C = 0, B = 0, AC > 0 (convex rows), a vertex -B/(4Cr) outside
#: [-1, 1] at every radius, the imaginary diameter, tiny coefficients, and
#: a tiny AC whose vertex overflows to inf.
DEGENERATE = [
    (0.0, 1.5, -2.0), (-0.0, -3.0, 0.5), (2.0, -1.0, 0.0), (-1.0, 4.0, -0.0),
    (1.5, 0.0, -2.5), (-3.0, 0.0, 0.7), (0.0, 0.0, 0.0), (0.0, 2.0, 0.0),
    (2.0, 1.0, 3.0), (-1.0, -4.0, -0.5), (0.0, 0.0, -2.0), (4.0, 0.0, 0.0),
    (1.0, 4.5, -1.0), (-2.0, -9.0, 2.0), (1.0, 0.0, -1.0), (1e-9, 1e-9, -1e-9),
    (3.0, 1e-12, -1e-3), (1.0, 0.02, -1.0), (1e-310, 1.0, -1e-14), (1e-300, 1e10, -1e-23),
]


def _assert_oracle_matches(triples, radial, angular, full_scan=True):
    """One array y_oracle call on all triples equals the scalar call on each,
    and _full_scan on each, bit for bit."""
    A, B, C = np.array(triples, dtype=float).reshape(-1, 3).T
    triples = list(zip(A.tolist(), B.tolist(), C.tolist()))
    batch = y_oracle(A, B, C, radial, angular)
    scalar = np.array([y_oracle(*t, radial, angular) for t in triples])
    differ = np.flatnonzero(batch.view(np.int64) != scalar.view(np.int64))
    assert differ.size == 0, [(triples[i], batch[i], scalar[i]) for i in differ[:5]]
    if full_scan:
        for t, value in zip(triples, scalar.tolist()):
            assert value == _full_scan(*t, radial, angular), t


class TestFullScan:
    @pytest.mark.parametrize("radial,angular,count", [(64, 256, 300), (128, 257, 300),
                                                      (512, 2048, 40)])
    def test_uniform(self, radial, angular, count):
        rng = np.random.default_rng(radial + angular)
        for scale in (0.25, 5.0):
            _assert_oracle_matches(rng.uniform(-scale, scale, size=(count, 3)), radial, angular)

    @pytest.mark.parametrize("radial,angular", [(64, 256), (128, 257), (512, 2048)])
    def test_envelope(self, radial, angular):
        _assert_oracle_matches(envelope_triples(np.random.default_rng(angular), 15),
                               radial, angular)

    @pytest.mark.parametrize("radial,angular", [(64, 256), (128, 257), (512, 2048)])
    def test_degenerate(self, radial, angular):
        _assert_oracle_matches(DEGENERATE, radial, angular)


class TestBatch:
    @pytest.mark.parametrize("radial,angular", [(64, 256), (512, 2048)])
    def test_sizes_around_the_chunk(self, radial, angular):
        # Batches that fill part of one chunk, exactly one, one and a bit,
        # and many with a partial last one, in the one-pass chunks and in
        # the pruned pass's; and batches around the crossover between them.
        chunk = ORACLE_CHUNK // (radial + 1)
        pruned = ORACLE_CHUNK // (-(-radial // ORACLE_STRIDE) + 1)
        rng = np.random.default_rng(chunk)
        for size in (1, chunk - 1, chunk, chunk + 1, 1000, pruned - 1, pruned, pruned + 1,
                     ORACLE_PRUNE_MIN - 1, ORACLE_PRUNE_MIN, ORACLE_PRUNE_MIN + 1):
            _assert_oracle_matches(rng.uniform(-5.0, 5.0, size=(size, 3)), radial, angular,
                                   full_scan=False)

    def test_shapes(self):
        assert type(y_oracle(1.0, -0.3, -2.0)) is float
        assert type(y_oracle(np.float64(1.0), np.array(-0.3), -2.0)) is float
        one = y_oracle([1.0], [-0.3], [-2.0])
        assert isinstance(one, np.ndarray) and one.shape == (1,)
        assert one[0] == y_oracle(1.0, -0.3, -2.0)
        grid = np.random.default_rng(15).uniform(-5.0, 5.0, size=(3, 4, 5))
        out = y_oracle(*grid, radial=64, angular=256)
        assert out.shape == (4, 5)
        flat = y_oracle(*grid.reshape(3, -1), radial=64, angular=256)
        assert np.array_equal(out.ravel(), flat)
        assert y_oracle([], [], []).shape == (0,)

    @pytest.mark.parametrize("shapes", [((3,), (3,), (2,)), ((3,), (), (3,)),
                                        ((2, 3), (3, 2), (2, 3))])
    def test_mismatched_shapes(self, shapes):
        A, B, C = (np.ones(shape) for shape in shapes)
        with pytest.raises(ValueError):
            y_oracle(A, B, C)

    def test_memory(self):
        # Temporaries are chunked: 10^4 triples at the default grid would
        # need 10^4 x 513 doubles, 41 MB, per temporary in one pass.
        A, B, C = np.random.default_rng(16).uniform(-5.0, 5.0, size=(3, 10_000))
        _oracle_nodes.cache_clear()
        tracemalloc.start()
        try:
            out = y_oracle(A, B, C)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - out.nbytes < 2 ** 20


def _winning_radius(triple, radial, angular):
    values = _full_scan_radii(*triple, radial, angular)
    return int(np.argmax(values)), values


class TestPruning:
    """A batch of ORACLE_PRUNE_MIN triples or more skips the radii that a
    Lipschitz bound in r rules out; its result is still the full scan's."""

    GRIDS = [(64, 256), (100, 301), (128, 257), (512, 2048)]

    @pytest.mark.parametrize("radial,angular", GRIDS)
    def test_winner_inside_a_block(self, radial, angular):
        # Small random triples peak inside the disk.  A large A with small B
        # and AC >= 0 peaks at r* = |B| / (2 (1 - |C|)), put here half way
        # between two coarse radii.  From |A| ~ 1e5 the margin 1e-6 (1 + S)
        # exceeds the slack of the Lipschitz bound, so a margin of the wrong
        # sign drops the peak.
        rng = np.random.default_rng(radial + angular)
        triples = [tuple(t) for t in rng.uniform(-0.5, 0.5, size=(30, 3))]
        for k, A in enumerate((1.0, -10.0, 1e3, -1e5, 1e5, -1e7)):
            r_star = (ORACLE_STRIDE * (k % (radial // ORACLE_STRIDE)) + 7.5) / radial
            for C in (0.0, 0.3):
                triples.append((A, 2.0 * (1.0 - C) * r_star * (-1) ** k, math.copysign(C, A)))
        inside = beaten = 0
        for triple in triples:
            j, values = _winning_radius(triple, radial, angular)
            if j % ORACLE_STRIDE and j != radial:
                inside += 1
                coarse = values[np.minimum(np.arange(0, radial + ORACLE_STRIDE, ORACLE_STRIDE),
                                           radial)]
                beaten += bool(values[j] > coarse.max())
        assert inside >= 30 and beaten >= 30, (inside, beaten)
        _assert_oracle_matches(triples, radial, angular)

    @pytest.mark.parametrize("radial,angular", GRIDS)
    def test_zero_triple(self, radial, angular):
        # A = B = C = 0: g = 1 - r^2, largest at r = 0.
        triples = list(itertools.product((0.0, -0.0), repeat=3))
        assert len(triples) >= ORACLE_PRUNE_MIN
        _assert_oracle_matches(triples, radial, angular)
        assert np.all(y_oracle(*np.array(triples).T, radial, angular) == 1.0)

    @pytest.mark.parametrize("magnitude", [1e-150, 1e150])
    @pytest.mark.parametrize("radial,angular", [(64, 256), (512, 2048)])
    def test_extreme_magnitudes(self, magnitude, radial, angular):
        rng = np.random.default_rng(radial + (magnitude > 1.0))
        triples = magnitude * rng.uniform(-5.0, 5.0, size=(24, 3))
        mixed = [(magnitude, 0.5, 0.25), (-magnitude, 1e-3, -0.7), (0.0, magnitude, 0.0),
                 (1.0, 0.2, magnitude), (magnitude, -magnitude, magnitude)]
        _assert_oracle_matches([*triples.tolist(), *mixed], radial, angular)

    @pytest.mark.parametrize("radial,angular", [(64, 256), (128, 257)])
    def test_non_finite(self, radial, angular):
        # A nan or an infinity in any slot, or an overflow, gives the
        # one-pass value, bit for bit, also next to finite triples in one batch.
        finite = (0.0, -1.5, 2.0, 1e150)
        triples = [tuple(np.roll((bad, x, y), slot))
                   for bad in (math.nan, math.inf, -math.inf) for slot in range(3)
                   for x in finite for y in finite]
        # Finite triples whose squared modulus overflows: inf, or nan.
        triples += [(1e200, 0.0, 0.0), (-1e180, 1.0, 0.0), (1e160, 1e160, -1e160)]
        # Finite triples of modest S whose vertex -lin / (2 quad) overflows.
        triples += [(1e-310, 1.0, -1e-14), (1e-300, 1e10, -1e-23), (-5e-324, 1.0, 1e-10)]
        triples += np.random.default_rng(22).uniform(-1.0, 1.0, size=(20, 3)).tolist()
        # y_oracle silences numpy's warnings for these itself: the suite
        # turns a RuntimeWarning into an error.
        _assert_oracle_matches(triples, radial, angular, full_scan=False)
        batch = y_oracle(*np.array(triples).T, radial, angular)
        assert np.isnan(batch).any() and np.isposinf(batch).any()

    @pytest.mark.parametrize("radial,angular", [(64, 256), (77_000, 256)])
    def test_tame_edge(self, radial, angular):
        # A tame triple takes no np.errstate, so the suite's error filter
        # fails this on any warning.  With |A| = |B| = S/2 and |A C| = rho S^2
        # the vertex -lin / (2 quad) at r = 1/radial is about radial / (16 rho);
        # rho runs across the edge of the tame set, 1e-290, down to where that
        # overflows, at a grid near the largest y_oracle accepts.
        triples = []
        for S in 10.0 ** np.arange(-3.0, 151.0, 17.0):
            for rho in 10.0 ** np.arange(-330.0, -279.0, 2.0):
                C = rho * S / 0.5 * (1.0 + 1e-12)
                triples.append((0.5 * S, 0.5 * S - C, -C))
        for triple in triples:
            y_oracle(*triple, radial, angular)
        y_oracle(*np.array(triples).T, 64, 256)

    def test_every_magnitude(self):
        # |A|, |B|, |C| from 1e-300 to 1e300: past ORACLE_PRUNE_SCALE the
        # squared modulus may overflow at some radii only, and such a triple
        # takes the one pass, so even its nan is the one-pass nan.
        rng = np.random.default_rng(23)
        triples = 10.0 ** rng.uniform(-300, 300, size=(3000, 3)) * rng.choice([-1, 1], (3000, 3))
        # A^2 overflows, and 2AB r does past r = 1/2: inf at some radii, nan
        # at others.
        wild = (2.6725682798628607e+235, -6.712799067421129e+72, 1.8230318269981457e-88)
        _assert_oracle_matches([wild] * ORACLE_PRUNE_MIN, 64, 256, full_scan=False)
        _assert_oracle_matches(triples, 64, 256, full_scan=False)


def _assert_values_match(triples):
    """y_values on all triples at once equals y_closed_form(...).value on
    each, bit for bit; returns the branch counts."""
    A, B, C = np.array(triples, dtype=float).T
    scalar = [y_closed_form(*t) for t in zip(A.tolist(), B.tolist(), C.tolist())]
    expected = np.array([res.value for res in scalar])
    got = y_values(A, B, C)
    differ = np.flatnonzero(got.view(np.int64) != expected.view(np.int64))
    assert differ.size == 0, [(triples[i], got[i], expected[i]) for i in differ[:5]]
    return collections.Counter(res.case_label for res in scalar)


class TestValues:
    def test_seeded_triples(self):
        rng = np.random.default_rng(12)
        triples = np.concatenate([rng.uniform(-s, s, size=(34_000, 3))
                                  for s in (0.25, 1.0, 5.0)])
        seen = _assert_values_match(triples.tolist())
        assert min(seen[case] for case in YCase) >= 20, seen

    def test_degenerate(self):
        # DEGENERATE, |C| = 1 in both kinds, AC > 0, and the value set of
        # sample_triples: zeros of both signs and the thresholds |B| = 2,
        # |C| = 1.
        # At (1e308, 1, -1) 4A overflows and t = inf * 0 is nan; Python's
        # min(cap, t) is then cap, and NEG_SECOND is selected.  At C = -1e-170,
        # C*C underflows to 0 and C^-2 is inf in both functions.
        unit_c = [(0.5, 0.3, 1.0), (0.5, 2.5, -1.0), (-2.0, 1.0, 1.0), (0.0, 1.0, -1.0),
                  (3.0, 0.0, -1.0), (-0.5, 2.0, 1.0), (1e308, 1.0, -1.0),
                  (1e200, 0.0, -1e-170), (1.0, 0.5, -1e-170)]
        positive_ac = [(2.0, 1.0, 3.0), (-1.0, -4.0, -0.5), (0.3, 0.1, 0.2), (-4.0, 5.0, -2.0)]
        values = (0.0, -0.0, 0.5, -0.5, 1.0, -1.0, 2.0, -2.0, 3.0)
        triples = [*DEGENERATE, *unit_c, *positive_ac, *itertools.product(values, repeat=3)]
        _assert_values_match(triples)
        for triple in [*DEGENERATE, *unit_c, *positive_ac]:
            _assert_values_match([triple])
        assert y_values(1.0, 0.0, -1.0) == y_closed_form(1.0, 0.0, -1.0).value == 2.0
        assert y_closed_form(1e200, 0.0, -1e-170).value == 1e200
        assert y_closed_form(1.0, 0.5, -1e-170).value == 2.0625

    def test_envelope_triples(self):
        _assert_values_match(envelope_triples(np.random.default_rng(13), 200))

    def test_case_index_is_the_scalar_label(self):
        # The branch index comes from the same conditions as the values: it
        # is y_closed_form's case_label, node by node, in every branch.
        triples = [*sample_triples(np.random.default_rng(17)), *DEGENERATE]
        A, B, C = np.array(triples).T
        values, index = y_values(A, B, C, case_index=True)
        labels = [y_closed_form(*t).case_label for t in triples]
        assert set(labels) == set(YCase)
        assert index.tolist() == [list(YCase).index(label) for label in labels]
        assert np.array_equal(values.view(np.int64), y_values(A, B, C).view(np.int64))
        value, case = y_values(1.0, 0.0, -1.0, case_index=True)
        assert value == 2.0 and case == list(YCase).index(YCase.R_SQRT)

    def test_r_sqrt_radicand_is_at_least_one(self):
        # In R_SQRT AC < 0, so 1 - B^2/(4AC) >= 1: the negative-radicand
        # guard of both functions cannot fire for real A, B, C, even at
        # extreme magnitudes.
        rng = np.random.default_rng(14)
        mags = 10.0 ** rng.uniform(-150, 150, size=(20_000, 3))
        triples = (mags * rng.choice([-1.0, 1.0], size=mags.shape)).tolist()
        r_sqrt = [t for t in triples if abs(t[2]) > 1e-150
                  and y_closed_form(*t).case_label is YCase.R_SQRT]
        assert len(r_sqrt) >= 20
        for A, B, C in r_sqrt:
            assert 1.0 - B * B / (4.0 * A * C) >= 1.0
        _assert_values_match(r_sqrt)

    def test_strict_floating_point_caller(self):
        # Unselected branches divide by zero (C = 0) and overflow; a caller
        # that turns every warning and floating-point error into an
        # exception must still see none.
        triples = np.array([*DEGENERATE, (1e200, 1e200, -1e200), (0.0, 0.0, 1e-200)])
        with warnings.catch_warnings(), np.errstate(all="raise"):
            warnings.simplefilter("error")
            y_values(*triples.T)
            for spec in (Spirallike(0.0, 0.0), Spirallike(0.5, 1.0), Ozaki(1.0),
                         Ozaki(0.05), Robertson(0.5), Robertson(1.0)):
                global_max(spec)


class TestOracle:
    def test_origin(self):
        assert y_oracle(0, 0, 0) == pytest.approx(1.0)

    def test_boundary_attained_on_grid(self):
        assert y_oracle(1, 1, 1) == pytest.approx(3.0)

    def test_refinement_study(self):
        assert y_oracle(1, 0, -1, radial=512, angular=2048) == pytest.approx(2.0, abs=1e-6)

    def test_monotone_in_refinement(self):
        # The coarser grid is a subset of the finer one.
        rng = np.random.default_rng(5)
        for A, B, C in rng.uniform(-5, 5, size=(20, 3)):
            assert y_oracle(A, B, C, 64, 256) <= y_oracle(A, B, C, 128, 512) + 1e-12

    def test_grid_preconditions(self):
        with pytest.raises(ValueError):
            y_oracle(1, 1, 1, radial=32, angular=2048)
        with pytest.raises(ValueError):
            y_oracle(1, 1, 1, radial=512, angular=128)
        # Rejected before any array is built: 100001 x 50001 nodes is 40 GB.
        with pytest.raises(ValueError):
            y_oracle(1, 1, 1, radial=100_000, angular=100_000)
        # The cap still admits a grid twice as fine as the default each way.
        assert y_oracle(1, 1, 1, radial=1024, angular=4096) == pytest.approx(3.0)

    def test_grid_checked_before_any_array(self):
        # _oracle_nodes checks the grid before it builds one: 100001 x 50001
        # nodes would be 40 GB per array.
        tracemalloc.start()
        try:
            with pytest.raises(ValueError):
                _oracle_nodes(100_000, 100_000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4096

    def test_memory(self):
        # A full scan of this grid holds 1025 x 2049 doubles per temporary.
        _oracle_nodes.cache_clear()
        tracemalloc.start()
        try:
            y_oracle(1.0, -0.3, -2.0, radial=1024, angular=4096)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20


class TestCertify:
    def test_trivial(self):
        assert y_certify(0, 0, 0, 1e-9)

    def test_grid_node_exact(self):
        assert y_certify(1, 1, 1, 1e-9)

    @pytest.mark.parametrize("tol", [0.0, -1.0, math.nan, math.inf])
    def test_requires_positive_tol(self, tol):
        # A nan tol would certify nothing and an infinite one anything.
        with pytest.raises(ValueError):
            y_certify(1, 1, 1, tol)

    def test_random_sample(self):
        rng = np.random.default_rng(6)
        for A, B, C in rng.uniform(-5, 5, size=(200, 3)):
            assert y_certify(A, B, C, 1e-6)

    @pytest.mark.parametrize("radial,angular", [(64, 256), (512, 2048)])
    def test_shifted_closed_form(self, monkeypatch, radial, angular):
        # Negative controls, with T = tol + grid_allowance: the closed form
        # moved by k T, and put just inside and just outside each edge of
        # the band [grid - T, grid + T].  The answer is True inside the band
        # and False outside it, and at every shift it is the exact grid's,
        # whether the enclosure of the grid maximum decided it or the grid
        # was scanned.  At |k| = 1 the enclosure straddles the band's edge;
        # at the coarse grid the enclosure's lower end lies well below the
        # grid's value, so the edge shifts fail if it is not low enough.
        tol = 1e-6
        rng = np.random.default_rng(24)
        triples = [*envelope_triples(rng, 50), *rng.uniform(-5.0, 5.0, size=(150, 3)).tolist(),
                   *DEGENERATE]
        closed_form, scans, outcomes = ymax.y_closed_form, [], collections.Counter()
        monkeypatch.setattr(ymax, "y_oracle", lambda *args, **kw: scans.append(args)
                            or y_oracle(*args, **kw))
        for A, B, C in triples:
            T = tol + grid_allowance(B, C, radial, angular)
            closed, grid = closed_form(A, B, C).value, y_oracle(A, B, C, radial, angular)
            shifts = [(closed + k * T, None if abs(k) == 1.0 else abs(k) < 1.0)
                      for k in (-3.0, -1.5, -1.0, -0.5, 0.0, 0.5, 1.0, 1.5, 3.0)]
            shifts += [(grid + side * T * (1.0 + e), e < 0.0)
                       for side in (-1.0, 1.0) for e in (-1e-9, 1e-9)]
            for value, inside in shifts:
                monkeypatch.setattr(ymax, "y_closed_form",
                                    lambda *_: YResult(value, YCase.R_SQRT, 0j))
                scans.clear()
                got = y_certify(A, B, C, tol, radial, angular)
                assert got == (abs(value - grid) <= T), (A, B, C, value - closed)
                assert inside is None or got == inside, (A, B, C, value - closed)
                outcomes["scanned" if scans else got] += 1
        assert outcomes[True] and outcomes[False] and outcomes["scanned"], outcomes


class TestCircleMaxima:
    """``_circle_maxima``, the exact maximum over each circle, encloses the
    grid's value at that radius: grid_j <= circle_j + m and grid_j >=
    circle_j - (|B| + 2|C|) pi/angular - m, m = 1e-6 (1 + S)."""

    @pytest.mark.parametrize("radial,angular", [(64, 256), (128, 257), (512, 2048)])
    def test_sandwich(self, radial, angular):
        # The suite turns a RuntimeWarning into an error, so the kernel must
        # raise none, at r = 0 (quad = 0) or at magnitude 1e150 either.
        rng = np.random.default_rng(radial + angular)
        uniform = rng.uniform(-5.0, 5.0, size=(60, 3))
        huge = [(1e150, 0.5, 0.25), (-1e150, 1e-3, -0.7), (0.0, 1e150, 0.0), (1.0, 0.2, 1e150),
                (1e150, -1e150, 1e150), *(1e150 * uniform[:20]).tolist()]
        triples = [*uniform.tolist(), *envelope_triples(rng, 10), *DEGENERATE, *huge,
                   *(-np.array(huge)).tolist()]
        r, r2, _ = _oracle_nodes(radial, angular)
        for A, B, C in triples:
            grid = _full_scan_radii(A, B, C, radial, angular)
            circle = _circle_maxima(A, B, C, r, r2)
            margin = 1e-6 * (1.0 + abs(A) + abs(B) + abs(C))
            assert np.all(grid <= circle + margin), (A, B, C)
            assert np.all(grid >= circle - (abs(B) + 2.0 * abs(C)) * math.pi / angular - margin), \
                (A, B, C)


class TestInvariants:
    def test_dominance(self):
        # Closed form dominates the objective at every sampled disk point.
        rng = np.random.default_rng(7)
        n_triples, n_z = 10_000, 1000
        z = rng.uniform(0, 1, n_z) * np.exp(1j * rng.uniform(0, 2 * np.pi, n_z))
        one_minus = 1.0 - np.abs(z) ** 2
        triples = rng.uniform(-5, 5, size=(n_triples, 3))
        for chunk in np.array_split(triples, 20):
            A = chunk[:, 0:1]
            B = chunk[:, 1:2]
            C = chunk[:, 2:3]
            vals = np.abs(A + B * z[None, :] + C * z[None, :] ** 2) + one_minus[None, :]
            tops = np.array([y_closed_form(*t).value for t in chunk])
            assert np.all(vals.max(axis=1) <= tops + 1e-9)

    def test_symmetry(self):
        rng = np.random.default_rng(8)
        for A, B, C in rng.uniform(-5, 5, size=(2000, 3)):
            v = y_closed_form(A, B, C).value
            assert abs(v - y_closed_form(-A, -B, -C).value) <= 1e-12
            assert abs(v - y_closed_form(A, -B, C).value) <= 1e-12

    def test_scaling_floor(self):
        rng = np.random.default_rng(9)
        for A, B, C in rng.uniform(-5, 5, size=(2000, 3)):
            v = y_closed_form(A, B, C).value
            at_plus = abs(A + B + C)
            at_minus = abs(A - B + C)
            assert v >= max(1.0 + abs(A), at_plus, at_minus) - 1e-12

    def test_case_continuity(self):
        rng = np.random.default_rng(10)
        found = 0
        attempts = 0
        while found < 100 and attempts < 5000:
            attempts += 1
            x0 = rng.uniform(-5, 5, 3)
            x1 = rng.uniform(-5, 5, 3)
            label0 = y_closed_form(*x0).case_label
            if y_closed_form(*x1).case_label is label0:
                continue
            lo, hi = 0.0, 1.0
            for _ in range(60):
                mid = 0.5 * (lo + hi)
                point = x0 + mid * (x1 - x0)
                if y_closed_form(*point).case_label is label0:
                    lo = mid
                else:
                    hi = mid
            eps = 1e-9
            below = y_closed_form(*(x0 + (lo - eps) * (x1 - x0))).value
            above = y_closed_form(*(x0 + (hi + eps) * (x1 - x0))).value
            assert abs(below - above) <= 1e-6
            found += 1
        assert found == 100


def test_allowance_scales_with_coefficients():
    assert grid_allowance(0, 0) < grid_allowance(5, 5)
