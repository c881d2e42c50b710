"""Symbolic checks of the two family kinds.

Ozaki's class and the Robertson class share one set of formulas in the
curvature parameter m (m = -nu and m = 2*lambda + 1).  These tests derive
the search envelope from the coefficient formulas, and compare every m-form
formula, through the classes' own ``m``, with the per-family expressions in
nu and lambda that are kept here as the reference.
"""

from types import SimpleNamespace

import pytest

sp = pytest.importorskip("sympy")

from hankelbound import caratheodory, families, hankel  # noqa: E402
from hankelbound.families import Ozaki, Robertson, Spirallike  # noqa: E402

P1 = sp.Symbol("p1", real=True)
P2, P3 = sp.symbols("p2 p3")
ABS_P2_SQ = sp.Symbol("abs_p2_sq", nonnegative=True)  # |p2|^2, a symbol of its own
C1, C2, C3 = sp.symbols("c1 c2 c3")
K = sp.Symbol("k")
M = sp.Symbol("m", real=True)
NU = sp.Symbol("nu", positive=True)
LAM = sp.Symbol("lam", positive=True)
S = sp.Symbol("s", positive=True)


def exact(expr):
    """The expanded expression with its float coefficients made rational.

    The formulas divide by float literals (x / 12.0), so the expanded
    coefficients carry rounding error; every true coefficient is a rational
    with a small denominator, and a residue below 1e-12 is a zero."""
    return sp.nsimplify(sp.expand(expr), tolerance=1e-12, rational=True)


def same(a, b) -> bool:
    return sp.simplify(exact(a) - exact(b)) == 0


def symbolic(cls, **params):
    """An instance of a family class holding symbols; the range check, which
    cannot order symbols, is skipped."""
    spec = object.__new__(cls)
    for name, value in params.items():
        object.__setattr__(spec, name, value)
    return spec


class SpirallikeK(Spirallike):
    """A spirallike spec whose factor k is the free symbol K."""

    k = K


# -- the envelope, derived from coeffs_closed_form o c_from_params ------------

@pytest.fixture
def symbolic_ctriple(monkeypatch):
    """Let c_from_params return symbols: CTriple's |c_n| <= 2 check cannot
    decide an inequality between them."""
    monkeypatch.setattr(caratheodory, "CTriple",
                        lambda c1, c2, c3: SimpleNamespace(c1=c1, c2=c2, c3=c3))


def h21_symbolic(spec):
    """H_{2,1} of coeffs_closed_form(spec, c_from_params(p1, p2, p3))."""
    c = caratheodory.c_from_params(SimpleNamespace(p1=P1, p2=P2, p3=P3))
    h = exact(hankel.h21_monomial(families.coeffs_closed_form(spec, c)))
    return h.subs(sp.Abs(P2), sp.sqrt(ABS_P2_SQ))


def envelope_terms(h):
    """(e0, e1, e2, e3) with h = e0 + e1 p2 + e2 p2^2 + e3 (1 - |p2|^2) p3."""
    terms = dict(sp.Poly(sp.expand(h), P2, P3, ABS_P2_SQ).terms())
    e = [terms.pop(power, 0) for power in ((0, 0, 0), (1, 0, 0), (2, 0, 0), (0, 1, 0))]
    assert sp.expand(terms.pop((0, 1, 1), 0) + e[3]) == 0
    assert not terms, f"terms outside the envelope form: {terms}"
    return e


@pytest.mark.usefixtures("symbolic_ctriple")
def test_curvature_envelope_from_coefficients():
    spec = SimpleNamespace(m=M)
    scale, *e = families.envelope_arrays(spec, P1)
    derived = envelope_terms(h21_symbolic(spec) / exact(scale))
    for name, want, got in zip(("e0", "e1", "e2", "e3"), e, derived):
        assert same(want, got), name


@pytest.mark.usefixtures("symbolic_ctriple")
def test_spirallike_envelope_from_coefficients():
    # H_{2,1} = k^2/12 * (...); the phase of k^2 is the rotation the search
    # drops, and its modulus is the envelope scale checked below.
    scale, *e = families.envelope_arrays(Spirallike(0.0, 0.0), P1)
    assert scale == pytest.approx(1.0 / 12.0)
    derived = envelope_terms(h21_symbolic(SpirallikeK(0.0, 0.0)) * 12 / K ** 2)
    for name, want, got in zip(("e0", "e1", "e2", "e3"), e, derived):
        assert same(want, got), name
    for alpha, beta in ((0.0, 0.0), (0.3, -1.1), (0.9, 0.7)):
        spec = Spirallike(alpha, beta)
        scale = families.envelope_arrays(spec, P1)[0]
        assert scale == pytest.approx(abs(spec.k) ** 2 / 12.0, rel=1e-14)


# -- the m-form formulas against the per-family ones in nu and lambda ---------

def _robertson_reference():
    m = 2 * LAM + 1
    return {
        "spec": symbolic(Robertson, lam=LAM),
        "closed_form": (m * C1 / 4, m * (2 * C2 + m * C1 ** 2) / 24,
                        m * (8 * C3 + 6 * m * C1 * C2 + m ** 2 * C1 ** 3) / 192),
        "s_squared": -2 * (2 * LAM + 3) / (4 * LAM ** 2 - 12 * LAM - 39),
        "extremal": (m * S / 2, m * ((m + 2) * S ** 2 - 1) / 6,
                     m * (m + 2) * ((m + 4) * S ** 2 - 3) * S / 24),
        "bound": (2 * LAM + 1) ** 2 * (12 * LAM ** 2 - 60 * LAM - 165)
        / (576 * (4 * LAM ** 2 - 12 * LAM - 39)),
        "envelope": ((2 * LAM + 1) ** 2 / 2304,
                     (-4 * LAM ** 2 + 4 * LAM + 11) * P1 ** 4,
                     4 * (2 * LAM + 5) * (1 - P1 ** 2) * P1 ** 2,
                     -8 * (P1 ** 2 + 2) * (1 - P1 ** 2),
                     24 * P1 * (1 - P1 ** 2)),
    }


def _ozaki_reference():
    return {
        "spec": symbolic(Ozaki, nu=NU),
        "closed_form": (-NU * C1 / 4, NU * (NU * C1 ** 2 - 2 * C2) / 24,
                        NU * (6 * NU * C1 * C2 - 8 * C3 - NU ** 2 * C1 ** 3) / 192),
        "s_squared": 2 * (NU - 2) / (NU ** 2 + 8 * NU - 32),
        "extremal": (-NU * S / 2, NU * (1 + (NU - 2) * S ** 2) / 6,
                     -NU * (NU - 2) * S * (3 + (NU - 4) * S ** 2) / 24),
        "bound": NU ** 2 * (NU ** 2 + 12 * NU - 44) / (192 * (NU ** 2 + 8 * NU - 32)),
        "envelope": (NU ** 2 / 2304,
                     (-NU ** 2 - 4 * NU + 8) * P1 ** 4,
                     4 * (4 - NU) * (1 - P1 ** 2) * P1 ** 2,
                     -8 * (2 + P1 ** 2) * (1 - P1 ** 2),
                     24 * P1 * (1 - P1 ** 2)),
    }


@pytest.fixture(params=["ozaki", "robertson"])
def reference(request):
    return {"ozaki": _ozaki_reference, "robertson": _robertson_reference}[request.param]()


def test_closed_form(reference):
    a = families.coeffs_closed_form(reference["spec"], SimpleNamespace(c1=C1, c2=C2, c3=C3))
    for got, want in zip((a.a2, a.a3, a.a4), reference["closed_form"]):
        assert same(got, want)


def test_s_critical(reference, monkeypatch):
    monkeypatch.setattr(families, "math", SimpleNamespace(sqrt=sp.sqrt))
    s = families.s_critical(reference["spec"])
    assert same(s ** 2, reference["s_squared"])


@pytest.mark.usefixtures("symbolic_ctriple")
def test_extremal_coeffs(reference, monkeypatch):
    # With s held symbolic the coefficients are polynomials in s; SchurParams
    # cannot order s against 1, so it is skipped like CTriple.
    monkeypatch.setattr(families, "s_critical", lambda spec: S)
    monkeypatch.setattr(families, "SchurParams",
                        lambda p1, p2, p3: SimpleNamespace(p1=p1, p2=p2, p3=p3))
    a = families.extremal_coeffs(reference["spec"])
    for got, want in zip((a.a2, a.a3, a.a4), reference["extremal"]):
        assert same(got, want)


def test_sharp_bound(reference):
    assert same(families.sharp_bound(reference["spec"]), reference["bound"])


def test_envelope(reference):
    got = families.envelope_arrays(reference["spec"], P1)
    for name, g, want in zip(("scale", "e0", "e1", "e2", "e3"), got, reference["envelope"]):
        assert same(g, want), name


def test_curvature_parameter_values():
    assert Ozaki(0.25).m == -0.25
    assert Robertson(0.5).m == 2.0
    assert Robertson(1.0).m == 3.0
