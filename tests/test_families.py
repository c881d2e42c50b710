import math

import numpy as np
import pytest

from hankelbound.caratheodory import CTriple, c_from_params
from hankelbound.families import (
    CoeffTriple,
    Ozaki,
    ParameterRangeError,
    Robertson,
    Spirallike,
    coeffs_closed_form,
    coeffs_ode_oracle,
    extremal_coeffs,
    s_critical,
    sharp_bound,
)
from hankelbound.hankel import h21
from hankelbound.series import PowerSeries, exp_unit, log_unit
from reference import random_params, random_spec, rep_degree1

HALF_PLANE = CTriple(2.0, 2.0, 2.0)


def random_ctriple(rng) -> CTriple:
    return c_from_params(random_params(rng))


class TestParameterRanges:
    @pytest.mark.parametrize("bad", [
        lambda: Spirallike(1.0, 0.0),
        lambda: Spirallike(-0.1, 0.0),
        lambda: Spirallike(0.0, math.pi / 2),
        lambda: Ozaki(0.0),
        lambda: Ozaki(1.5),
        lambda: Robertson(0.4),
        lambda: Robertson(1.1),
    ])
    def test_rejected(self, bad):
        with pytest.raises(ParameterRangeError):
            bad()

    def test_s_critical_not_defined_for_spirallike(self):
        with pytest.raises(ParameterRangeError):
            s_critical(Spirallike(0.0, 0.0))


class TestClosedForm:
    def test_starlike_koebe(self):
        a = coeffs_closed_form(Spirallike(0.0, 0.0), HALF_PLANE)
        assert a.a2 == pytest.approx(2.0)
        assert a.a3 == pytest.approx(3.0)
        assert a.a4 == pytest.approx(4.0)

    def test_ozaki_identity_function(self):
        a = coeffs_closed_form(Ozaki(0.7), CTriple(0.0, 0.0, 0.0))
        assert a.a2 == a.a3 == a.a4 == 0.0

    def test_convex_half_plane(self):
        a = coeffs_closed_form(Robertson(0.5), HALF_PLANE)
        assert a.a2 == pytest.approx(1.0)
        assert a.a3 == pytest.approx(1.0)
        assert a.a4 == pytest.approx(1.0)


class TestOdeOracle:
    def test_constant_driver_gives_identity(self):
        p = PowerSeries.from_poly([1.0], 4)
        for spec in (Spirallike(0.2, 0.3), Ozaki(0.8), Robertson(0.6)):
            a = coeffs_ode_oracle(spec, p)
            assert abs(a.a2) + abs(a.a3) + abs(a.a4) <= 1e-14

    def test_starlike_half_plane_gives_koebe(self):
        a = coeffs_ode_oracle(Spirallike(0.0, 0.0), rep_degree1(1.0))
        assert a.a2 == pytest.approx(2.0)
        assert a.a3 == pytest.approx(3.0)
        assert a.a4 == pytest.approx(4.0)

    def test_ozaki_half_plane_matches_closed_form(self):
        a = coeffs_ode_oracle(Ozaki(1.0), rep_degree1(1.0))
        b = coeffs_closed_form(Ozaki(1.0), HALF_PLANE)
        assert a.a2 == pytest.approx(b.a2)
        assert a.a3 == pytest.approx(b.a3)
        assert a.a4 == pytest.approx(b.a4)

    def test_requires_unit_constant_term(self):
        with pytest.raises(Exception):
            coeffs_ode_oracle(Ozaki(1.0), PowerSeries.from_poly([2, 1], 4))

    def test_agreement_all_families(self):
        rng = np.random.default_rng(20)
        for tag in ("spirallike", "ozaki", "robertson"):
            for _ in range(1000):
                spec = random_spec(rng, tag)
                c = random_ctriple(rng)
                p = PowerSeries([1.0, c.c1, c.c2, c.c3])
                cf = coeffs_closed_form(spec, c)
                oc = coeffs_ode_oracle(spec, p)
                assert abs(cf.a2 - oc.a2) <= 1e-10
                assert abs(cf.a3 - oc.a3) <= 1e-10
                assert abs(cf.a4 - oc.a4) <= 1e-10


class TestCriticalPoint:
    def test_printed_values(self):
        assert s_critical(Ozaki(1.0)) == pytest.approx(math.sqrt(2.0 / 23.0))
        assert s_critical(Robertson(1.0)) == pytest.approx(math.sqrt(10.0 / 47.0))
        assert s_critical(Robertson(0.5)) == pytest.approx(math.sqrt(8.0 / 44.0))

    def test_lies_in_unit_interval(self):
        rng = np.random.default_rng(21)
        for _ in range(200):
            assert 0.0 < s_critical(Ozaki(rng.uniform(0.01, 1.0))) < 1.0
            assert 0.0 < s_critical(Robertson(rng.uniform(0.5, 1.0))) < 1.0


class TestExtremal:
    def test_starlike_extremal(self):
        a = extremal_coeffs(Spirallike(0.0, 0.0))
        assert abs(a.a2) <= 1e-14
        assert a.a3 == pytest.approx(1.0)
        assert abs(h21(a)) == pytest.approx(0.25)

    def test_spirallike_extremal_expansion(self):
        # The extremal f/z = (1-z^2)^-k = exp(-k log(1-z^2)), expanded as a
        # series, has the closed-form coefficients (0, k, 0) bit for bit,
        # signed zeros included.
        def bits(a):
            return [(repr(z.real), repr(z.imag)) for z in (a.a2, a.a3, a.a4)]

        log_base = log_unit(PowerSeries.from_poly([1.0, 0.0, -1.0], 3))
        for alpha in np.linspace(0.0, 0.95, 12):
            for beta in np.linspace(-1.5, 1.5, 13):
                spec = Spirallike(float(alpha), float(beta))
                k = spec.row[1] / 2.0  # the row is ("S*", 2k, 2k, 2k)
                fz = exp_unit(PowerSeries(-k * log_base.coeffs))
                assert bits(extremal_coeffs(spec)) == bits(CoeffTriple(fz[1], fz[2], fz[3]))

    def test_ozaki_extremal_uses_critical_point(self):
        s = s_critical(Ozaki(1.0))
        a = extremal_coeffs(Ozaki(1.0))
        assert a.a2 == pytest.approx(-s / 2.0)

    def test_equality_random_draws(self):
        rng = np.random.default_rng(22)
        for tag in ("spirallike", "ozaki", "robertson"):
            for _ in range(50):
                spec = random_spec(rng, tag)
                residual = abs(abs(h21(extremal_coeffs(spec))) - sharp_bound(spec))
                assert residual <= 1e-10


class TestSharpBound:
    def test_known_values(self):
        assert sharp_bound(Spirallike(0.0, 0.0)) == pytest.approx(0.25)
        assert sharp_bound(Robertson(0.5)) == pytest.approx(1.0 / 33.0)
        assert sharp_bound(Robertson(1.0)) == pytest.approx(0.070811, abs=1e-6)
        assert sharp_bound(Ozaki(1.0)) == pytest.approx(31.0 / 4416.0)

    def test_positive_on_admissible_ranges(self):
        rng = np.random.default_rng(23)
        for tag in ("spirallike", "ozaki", "robertson"):
            for _ in range(200):
                assert sharp_bound(random_spec(rng, tag)) > 0.0

    def test_monotone_in_alpha_and_even_in_beta(self):
        alphas = np.linspace(0.0, 0.95, 20)
        betas = np.linspace(-1.4, 1.4, 20)
        for beta in betas:
            bounds = [sharp_bound(Spirallike(a, beta)) for a in alphas]
            assert all(b1 > b2 for b1, b2 in zip(bounds, bounds[1:]))
        for beta in betas:
            assert sharp_bound(Spirallike(0.3, beta)) == pytest.approx(
                sharp_bound(Spirallike(0.3, -beta))
            )


class TestMembership:
    """Extremal functions satisfy their defining Re-condition near the boundary."""

    BOUNDARY = 0.999 * np.exp(1j * 2 * np.pi * np.arange(360) / 360)

    def test_spirallike_extremal(self):
        rng = np.random.default_rng(24)
        for _ in range(20):
            alpha, beta = rng.uniform(0, 0.95), rng.uniform(-1.4, 1.4)
            w = (1 - alpha) * math.cos(beta) * np.exp(1j * beta)
            z = self.BOUNDARY
            ratio = 1.0 + 2.0 * w * z ** 2 / (1.0 - z ** 2)  # z f1'/f1
            lhs = (np.exp(-1j * beta) * ratio).real
            assert np.all(lhs > alpha * math.cos(beta) - 1e-6)

    @pytest.mark.parametrize("tag", ["ozaki", "robertson"])
    def test_curvature_extremal_driver_is_caratheodory(self, tag):
        rng = np.random.default_rng(25)
        for _ in range(20):
            spec = Ozaki(rng.uniform(0.05, 1.0)) if tag == "ozaki" else Robertson(
                rng.uniform(0.5, 1.0))
            s = s_critical(spec)
            z = self.BOUNDARY
            p = (1.0 - z ** 2) / (1.0 - 2.0 * s * z + z ** 2)
            assert np.all(p.real > -1e-6)


def test_coeff_triple_is_plain_value():
    a = CoeffTriple(1j, 2.0, -3.0)
    assert a.a2 == 1j and a.a3 == 2.0 and a.a4 == -3.0
