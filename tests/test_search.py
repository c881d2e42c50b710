import math
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from hankelbound import families, search
from hankelbound.caratheodory import SchurParams, c_from_params
from hankelbound.families import (
    Envelope,
    Ozaki,
    ParameterRangeError,
    Robertson,
    Spirallike,
    coeffs_closed_form,
    envelope_arrays,
    s_critical,
    sharp_bound,
)
from hankelbound.hankel import h21
from hankelbound.search import (
    _SHRINK,
    MAX_COARSE,
    MAX_REFINE_ROUNDS,
    SearchReport,
    _grid_values,
    bound_monotonicity,
    envelope,
    global_max,
    p3_step,
    sweep,
)
from hankelbound.ymax import y_closed_form
from reference import random_spec


def envelope_value(env, p2, p3):
    """H_{2,1} (up to the dropped rotation phase) at explicit (p2, p3)."""
    return env.scale * (env.e0 + env.e1 * p2 + env.e2 * p2 * p2
                        + env.e3 * (1.0 - abs(p2) ** 2) * p3)


def _scalar_global_max(spec, coarse=128, refine_rounds=3, windows=None):
    """Reference search: the Y-lemma taken node by node with the scalar
    ``y_closed_form``, as ``global_max`` did before its rounds became one
    array pass each.  Nodes compare by the unscaled G, e3*Y or
    |e0| + |e1| + |e2| where e3 = 0.  Each round's p1 nodes are appended to
    ``windows``."""
    best, bp1, bp2 = -math.inf, 0.5, 1.0
    for t in range(refine_rounds + 1):
        half = 0.5 / _SHRINK ** t
        p1 = np.linspace(max(0.0, bp1 - half), min(1.0, bp1 + half), coarse + 1)
        if windows is not None:
            windows.append(p1)
        _, *coeffs = envelope_arrays(spec, p1)
        for x, e0, e1, e2, e3 in zip(p1.tolist(), *(c.tolist() for c in coeffs)):
            if e3 == 0.0:
                value, z = abs(e0) + abs(e1) + abs(e2), 1.0
            else:
                y = y_closed_form(e0 / e3, e1 / e3, e2 / e3)
                value, z = e3 * y.value, y.z
            if value > best:
                best, bp1, bp2 = value, x, z
    env = envelope(spec, bp1)
    p2 = complex(bp2)
    top, p3 = p3_step(env, p2)
    bound = sharp_bound(spec)
    return SearchReport(
        family=spec,
        max_abs_h21=top,
        argmax=SchurParams(bp1, p2, p3),
        bound=bound,
        gap=bound - top,
        grid=f"coarse={coarse}, refine_rounds={refine_rounds}, shrink={int(_SHRINK)}",
    )


def _bits(rep):
    """The reported maximum and argmax, bit for bit (signed zeros included)."""
    p2, p3 = complex(rep.argmax.p2), complex(rep.argmax.p3)
    return tuple(float(x).hex() for x in (rep.max_abs_h21, rep.argmax.p1,
                                          p2.real, p2.imag, p3.real, p3.imag))


class TestEnvelope:
    def test_starlike_endpoint_p1_one(self):
        env = envelope(Spirallike(0.0, 0.0), 1.0)
        assert env.scale == pytest.approx(1.0 / 12.0)
        assert env.e0 == pytest.approx(1.0)
        assert env.e1 == env.e2 == env.e3 == 0.0
        assert p3_step(env, 0.0)[0] == pytest.approx(1.0 / 12.0)

    def test_starlike_endpoint_p1_zero(self):
        env = envelope(Spirallike(0.0, 0.0), 0.0)
        assert env.e0 == env.e1 == env.e3 == 0.0
        assert env.e2 == pytest.approx(-3.0)
        assert p3_step(env, 1.0)[0] == pytest.approx(0.25)

    def test_ozaki_endpoint_p1_zero(self):
        env = envelope(Ozaki(1.0), 0.0)
        assert env.scale == pytest.approx(1.0 / 2304.0)
        assert env.e2 == pytest.approx(-16.0)
        assert p3_step(env, 1.0)[0] == pytest.approx(1.0 / 144.0)

    def test_p1_out_of_range(self):
        with pytest.raises(ParameterRangeError):
            envelope(Ozaki(1.0), 1.5)

    def test_one_type_floats_or_arrays(self):
        # A float p1 gives floats, an array p1 arrays (scale stays a float),
        # equal bit for bit at every shared node; search.envelope is the same.
        rng = np.random.default_rng(39)
        p1 = np.concatenate([rng.uniform(0, 1, 300), np.linspace(0, 1, 129)])
        for tag in ("spirallike", "ozaki", "robertson"):
            spec = random_spec(rng, tag)
            arrays = envelope_arrays(spec, p1)
            assert type(arrays) is Envelope and type(arrays.scale) is float
            assert all(isinstance(e, np.ndarray) and e.shape == p1.shape for e in arrays[1:])
            for i, x in enumerate(p1.tolist()):
                floats = envelope_arrays(spec, x)
                assert type(floats) is Envelope
                assert all(type(f) is float for f in floats)
                got = [f.hex() for f in floats]
                assert got == [float(arrays.scale).hex(), *(float(e[i]).hex() for e in arrays[1:])]
                assert envelope(spec, x) == floats

    def test_e3_nonnegative(self):
        rng = np.random.default_rng(40)
        for tag in ("spirallike", "ozaki", "robertson"):
            for _ in range(200):
                env = envelope(random_spec(rng, tag), rng.uniform(0, 1))
                assert env.e3 >= 0.0


class TestP3Reduction:
    def test_pure_p3_term(self):
        env = envelope(Ozaki(1.0), 0.5)
        # p2 = 0 leaves e0 plus the full p3 coefficient.
        assert p3_step(env, 0.0)[0] == pytest.approx(
            env.scale * (abs(env.e0) + env.e3)
        )

    def test_matches_unimodular_scan(self):
        rng = np.random.default_rng(41)
        phases = np.exp(1j * 2 * np.pi * np.arange(4096) / 4096)
        for _ in range(1000):
            spec = random_spec(rng, ("spirallike", "ozaki", "robertson")[_ % 3])
            env = envelope(spec, rng.uniform(0, 1))
            p2 = rng.uniform(0, 1) * np.exp(1j * rng.uniform(0, 2 * np.pi))
            inner = env.e0 + env.e1 * p2 + env.e2 * p2 * p2
            scanned = env.scale * np.max(
                np.abs(inner + env.e3 * (1 - abs(p2) ** 2) * phases)
            )
            assert p3_step(env, p2)[0] >= scanned - 1e-9
            assert p3_step(env, p2)[0] <= scanned + 1e-6

    def test_optimal_p3_is_unimodular_and_attains(self):
        rng = np.random.default_rng(42)
        for _ in range(200):
            env = envelope(random_spec(rng, "robertson"), rng.uniform(0, 1))
            p2 = rng.uniform(0, 1) * np.exp(1j * rng.uniform(0, 2 * np.pi))
            value, p3 = p3_step(env, p2)
            assert abs(abs(p3) - 1.0) <= 1e-12
            assert abs(envelope_value(env, p2, p3)) == pytest.approx(value)

    def test_free_phase_gives_one(self):
        # Spirallike at p1 = 0 has e0 = e1 = e3 = 0, so at p2 = 0 every p3
        # gives 0 and the step takes p3 = 1.
        assert p3_step(envelope(Spirallike(0.0, 0.0), 0.0), 0.0) == (0.0, 1.0 + 0.0j)
        assert p3_step(envelope(Spirallike(0.0, 0.0), 0.0), 0j) == (0.0, 1.0 + 0.0j)

    def test_p2_out_of_range(self):
        with pytest.raises(ParameterRangeError):
            p3_step(envelope(Ozaki(1.0), 0.5), 1.01j)


class TestEnvelopeConsistency:
    def test_matches_coefficient_pipeline(self):
        rng = np.random.default_rng(43)
        for _ in range(1000):
            p1 = rng.uniform(0, 1)
            p2 = rng.uniform(0, 1) * np.exp(1j * rng.uniform(0, 2 * np.pi))
            p3 = rng.uniform(0, 1) * np.exp(1j * rng.uniform(0, 2 * np.pi))
            params = SchurParams(p1, p2, p3)
            spec = random_spec(rng, ("spirallike", "ozaki", "robertson")[_ % 3])
            env = envelope(spec, p1)
            via_envelope = abs(envelope_value(env, p2, p3))
            via_coeffs = abs(h21(coeffs_closed_form(spec, c_from_params(params))))
            assert abs(via_envelope - via_coeffs) <= 1e-10


class TestGlobalMax:
    def test_preconditions(self):
        with pytest.raises(ValueError):
            global_max(Ozaki(1.0), coarse=32)
        with pytest.raises(ValueError):
            global_max(Ozaki(1.0), refine_rounds=1)
        with pytest.raises(ValueError):
            global_max(Ozaki(1.0), refine_rounds=MAX_REFINE_ROUNDS + 1)
        global_max(Ozaki(1.0), coarse=64, refine_rounds=MAX_REFINE_ROUNDS)

    def test_starlike(self):
        rep = global_max(Spirallike(0.0, 0.0))
        assert rep.max_abs_h21 == pytest.approx(0.25, abs=1e-12)
        assert rep.argmax.p1 == 0.0
        assert abs(rep.argmax.p2) == pytest.approx(1.0, abs=1e-12)

    def test_soundness_and_sharpness(self):
        rng = np.random.default_rng(44)
        for tag in ("spirallike", "ozaki", "robertson"):
            for _ in range(10):
                spec = random_spec(rng, tag)
                rep = global_max(spec, coarse=64, refine_rounds=3)
                assert rep.gap >= -1e-12
                assert rep.gap <= 1e-9

    def test_argmax_near_critical_point(self):
        for spec in (Ozaki(1.0), Ozaki(0.4), Robertson(0.5), Robertson(1.0)):
            rep = global_max(spec)
            assert abs(rep.argmax.p1 - s_critical(spec)) <= 2e-5
            # The extremal generator aligns with p2 = -1.
            assert abs(rep.argmax.p2 + 1.0) <= 1e-12

    def test_never_beaten_by_grid(self):
        # The 3-D brute-force grid shares the 65 coarse p1 nodes, where the
        # Y-lemma gives the exact maximum over (p2, p3).
        rng = np.random.default_rng(45)
        p1 = np.linspace(0.0, 1.0, 65)
        r = np.linspace(0.0, 1.0, 65)
        phi = 2.0 * np.pi * np.arange(64) / 64
        for tag in ("spirallike", "ozaki", "robertson"):
            for _ in range(4):
                spec = random_spec(rng, tag)
                grid = float(_grid_values(spec, p1, r, phi).max())
                assert global_max(spec, coarse=64).max_abs_h21 >= grid * (1.0 - 1e-12)

    def test_argmax_reproduces_maximum(self):
        rng = np.random.default_rng(46)
        for tag in ("spirallike", "ozaki", "robertson"):
            for _ in range(10):
                spec = random_spec(rng, tag)
                rep = global_max(spec)
                a = coeffs_closed_form(spec, c_from_params(rep.argmax))
                assert abs(abs(h21(a)) - rep.max_abs_h21) <= 1e-12

    def test_memory(self):
        tracemalloc.start()
        try:
            global_max(Robertson(0.7), coarse=MAX_COARSE)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20

    def test_matches_scalar_search(self):
        # 25 specs x 16 grid settings: each round's single array pass picks
        # the same node, maximum and argmax as the node-by-node search.
        rng = np.random.default_rng(47)
        specs = [Ozaki(1.0), Robertson(0.5), Robertson(1.0), Spirallike(0.0, 0.0),
                 *(random_spec(rng, tag) for tag in ("spirallike", "ozaki", "robertson")
                   for _ in range(7))]
        edge = 0
        for spec in specs:
            for coarse in (64, 128, 200, 256):
                for rounds in (2, 3, 4, 5):
                    rep = global_max(spec, coarse=coarse, refine_rounds=rounds)
                    ref = _scalar_global_max(spec, coarse=coarse, refine_rounds=rounds)
                    assert _bits(rep) == _bits(ref), (spec, coarse, rounds)
                    assert rep == ref
                    edge += rep.argmax.p1 == 0.0
        # The spirallike maximum is flat near p1 = 0; the edge node p1 = 0,
        # where e3 = 0 and the Y-lemma is not used, wins in many settings.
        assert edge >= 32, edge

    def test_determinism(self):
        a = global_max(Robertson(0.7), coarse=64, refine_rounds=2)
        b = global_max(Robertson(0.7), coarse=64, refine_rounds=2)
        assert a == b


class TestSweep:
    def test_matches_scalar_search_per_member(self):
        # One array pass per round over all members picks, for each member,
        # the node, maximum and argmax of its own node-by-node search: mixed
        # families, a repeated member and the reversed order included.
        rng = np.random.default_rng(48)
        specs = [Ozaki(1.0), Spirallike(0.0, 0.0), Robertson(0.5),
                 *(random_spec(rng, tag) for tag in ("robertson", "spirallike", "ozaki")
                   for _ in range(3))]
        specs += [specs[0], specs[4], specs[1]]
        for coarse in (64, 128, 256):
            for rounds in (2, 3, 5, MAX_REFINE_ROUNDS):
                refs = [_scalar_global_max(s, coarse=coarse, refine_rounds=rounds)
                        for s in specs]
                for order in (specs, specs[::-1]):
                    reps = sweep(order, coarse=coarse, refine_rounds=rounds)
                    want = refs if order is specs else refs[::-1]
                    assert [_bits(r) for r in reps] == [_bits(r) for r in want], (coarse, rounds)
                    assert reps == want

    def test_windows_are_linspace_rows(self, monkeypatch):
        # Every round's p1 nodes are, bit for bit, the np.linspace window of
        # the node-by-node search, end nodes included: row j of the round's
        # stacked p1 array is member j's window.
        rng = np.random.default_rng(49)
        specs = [random_spec(rng, tag) for tag in ("spirallike", "ozaki", "robertson")
                 for _ in range(4)]
        stacked = []
        poly = search.envelope_poly

        def recorded(factors, p1):
            stacked.append(p1.copy())
            return poly(factors, p1)

        monkeypatch.setattr(search, "envelope_poly", recorded)
        for coarse in (97, 200):
            stacked.clear()
            sweep(specs, coarse=coarse, refine_rounds=5)
            assert [p1.shape for p1 in stacked] == [(len(specs), coarse + 1)] * 6
            for j, spec in enumerate(specs):
                want = []
                _scalar_global_max(spec, coarse=coarse, refine_rounds=5, windows=want)
                got = [p1[j] for p1 in stacked]
                assert [w.tobytes() for w in got] == [w.tobytes() for w in want], (coarse, spec)

    def test_stacked_envelope_is_each_members_own(self):
        # One evaluation over the stacked factor rows of mixed S*/C members
        # equals each member's own envelope_arrays, bit for bit.
        rng = np.random.default_rng(50)
        specs = [random_spec(rng, tag) for tag in ("spirallike", "ozaki", "robertson",
                                                   "ozaki", "spirallike") for _ in range(3)]
        specs += [Spirallike(0.0, 0.0), Ozaki(1.0), Robertson(0.5)]
        p1 = np.sort(rng.uniform(0, 1, (len(specs), 129)), axis=1)
        p1[:, 0], p1[:, -1] = 0.0, 1.0
        factors = np.array([families.envelope_factors(s) for s in specs]).T[:, :, None]
        _, *stacked = families.envelope_poly(factors, p1)
        for j, spec in enumerate(specs):
            own = envelope_arrays(spec, p1[j])
            for name, got, want in zip(("e0", "e1", "e2", "e3"), stacked, own[1:]):
                assert got[j].tobytes() == want.tobytes(), (spec, name)
            assert factors[0, j, 0] == own.scale

    def test_argmax_does_not_depend_on_the_scale(self):
        # Every spirallike member has the same unscaled envelope, so members
        # with different scales share one argmax; near p1 = 0, where G is
        # flat to float precision, a scaled comparison let the rounding of
        # the scale pick the node.
        specs = [Spirallike(0.0, 0.0), Spirallike(0.9, -1.2), Spirallike(0.3, 0.4)]
        assert len({envelope(s, 0.0).scale for s in specs}) == 3
        for coarse, rounds in ((64, 2), (128, 3), (200, 5)):
            reps = sweep(specs, coarse=coarse, refine_rounds=rounds)
            assert len({(rep.argmax.p1, rep.argmax.p2) for rep in reps}) == 1, (coarse, rounds)

    def test_empty(self):
        assert sweep([]) == []
        assert sweep(iter(())) == []

    def test_spirallike_alpha_sweep(self):
        specs = [Spirallike(alpha, 0.0) for alpha in (0.0, 0.25, 0.5)]
        reports = sweep(specs, coarse=64, refine_rounds=2)
        bounds = [rep.bound for rep in reports]
        assert bounds == pytest.approx([0.25, 0.140625, 0.0625])
        assert bound_monotonicity(reports) == "non-increasing"

    def test_robertson_sweep(self):
        reports = sweep([Robertson(0.5), Robertson(1.0)], coarse=64, refine_rounds=2)
        assert reports[0].bound == pytest.approx(1.0 / 33.0)
        assert reports[1].bound == pytest.approx(0.070811, abs=1e-6)
        assert bound_monotonicity(reports) == "non-decreasing"

    def test_monotonicity_slack_is_relative(self):
        def reports(*bounds):
            return [SimpleNamespace(bound=b) for b in bounds]

        assert bound_monotonicity(reports(7.2e-203, 7.2e-183, 7.2e-163)) == "non-decreasing"
        assert bound_monotonicity(reports(7.2e-163, 7.2e-183, 7.2e-203)) == "non-increasing"
        assert bound_monotonicity(reports(1e-20, 3e-20, 2e-20)) == "non-monotonic"
        # Equal bounds, and bounds a last bit apart, count as equal.
        assert bound_monotonicity(reports(0.25, 0.25, 0.25)) == "non-increasing"
        assert bound_monotonicity(reports(7.2e-203, 7.2e-203)) == "non-increasing"
        assert bound_monotonicity(reports(0.0, 0.0)) == "non-increasing"
        one_ulp = math.nextafter(0.25, 1.0)
        assert bound_monotonicity(reports(0.25, one_ulp, 0.25)) == "non-increasing"
        assert bound_monotonicity(reports(0.25, one_ulp, 0.5)) == "non-decreasing"
