import collections
import itertools
import tracemalloc
import warnings

import numpy as np
import pytest

from hankelbound.families import Ozaki, Robertson, Spirallike
from hankelbound.search import envelope, global_max
from hankelbound.ymax import (
    ORACLE_CHUNK,
    YCase,
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


def _full_scan(A, B, C, radial, angular):
    """Reference oracle: the same expression evaluated at every grid node."""
    n_u = angular // 2 + 1 if angular % 2 == 0 else angular
    r = np.arange(radial + 1) / radial
    u = np.cos(2.0 * np.pi * np.arange(n_u) / angular)
    r2 = r * r
    const = A * A + B * B * r2 + C * C * r2 * r2 - 2.0 * A * C * r2
    lin = 2.0 * (A * B * r + B * C * r * r2)
    quad = 4.0 * A * C * r2
    sq = const[:, None] + lin[:, None] * u[None, :] + quad[:, None] * (u * u)[None, :]
    row_max = np.sqrt(np.maximum(sq.max(axis=1), 0.0))
    return float(np.max(row_max + 1.0 - r2))


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
#: [-1, 1] at every radius, the imaginary diameter, and tiny coefficients.
DEGENERATE = [
    (0.0, 1.5, -2.0), (-0.0, -3.0, 0.5), (2.0, -1.0, 0.0), (-1.0, 4.0, -0.0),
    (1.5, 0.0, -2.5), (-3.0, 0.0, 0.7), (0.0, 0.0, 0.0), (0.0, 2.0, 0.0),
    (2.0, 1.0, 3.0), (-1.0, -4.0, -0.5), (0.0, 0.0, -2.0), (4.0, 0.0, 0.0),
    (1.0, 4.5, -1.0), (-2.0, -9.0, 2.0), (1.0, 0.0, -1.0), (1e-9, 1e-9, -1e-9),
    (3.0, 1e-12, -1e-3), (1.0, 0.02, -1.0),
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
        # and many with a partial last one.
        chunk = ORACLE_CHUNK // (radial + 1)
        rng = np.random.default_rng(chunk)
        for size in (1, chunk - 1, chunk, chunk + 1, 1000):
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

    def test_requires_positive_tol(self):
        with pytest.raises(ValueError):
            y_certify(1, 1, 1, 0.0)

    def test_random_sample(self):
        rng = np.random.default_rng(6)
        for A, B, C in rng.uniform(-5, 5, size=(200, 3)):
            assert y_certify(A, B, C, 1e-6)


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
