"""Jet arithmetic against a finite-difference oracle.

Each case pairs expression text with an independently written Python lambda.
First and second derivatives from eval_jet must match Richardson-extrapolated
central differences of the lambda; third derivatives are spot-checked against
hand-computed closed forms. The FD oracle is the reference, computed fresh
here rather than from the jet machinery under test.
"""

import math

import numpy as np
import pytest

from srlab.calculus import Jet, eval_jet, parse
from srlab.calculus.jets import Composer, jatan2, jsqrt
from srlab.errors import EvaluationError


def fd1(f, p, i, h=1e-5):
    """Richardson-extrapolated central difference for d_i f."""

    def d(step):
        pp, pm = list(p), list(p)
        pp[i] += step
        pm[i] -= step
        return (f(*pp) - f(*pm)) / (2 * step)

    return (4 * d(h / 2) - d(h)) / 3


def fd2(f, p, i, j, h=1e-4):
    def d(step):
        if i == j:
            pp, pm = list(p), list(p)
            pp[i] += step
            pm[i] -= step
            return (f(*pp) - 2 * f(*p) + f(*pm)) / step**2
        out = 0.0
        for si in (+1, -1):
            for sj in (+1, -1):
                q = list(p)
                q[i] += si * step
                q[j] += sj * step
                out += si * sj * f(*q)
        return out / (4 * step**2)

    return (4 * d(h / 2) - d(h)) / 3


CASES = [
    ("x*y", lambda x, y, z: x * y, (2.0, 3.0, 0.0)),
    ("sin(x)*cos(y) + z", lambda x, y, z: math.sin(x) * math.cos(y) + z, (0.4, -1.2, 0.7)),
    ("exp(x*y)/(1+z^2)", lambda x, y, z: math.exp(x * y) / (1 + z**2), (0.3, -0.5, 1.1)),
    ("sqrt(1+x^2+y^2)", lambda x, y, z: math.sqrt(1 + x**2 + y**2), (0.8, -0.6, 0.0)),
    ("log(2+x)*tanh(y)-sinh(z)", lambda x, y, z: math.log(2 + x) * math.tanh(y) - math.sinh(z), (0.5, 0.9, -0.3)),
    ("atan2(y, x)", lambda x, y, z: math.atan2(y, x), (-0.4, 0.7, 0.0)),
    ("atan2(y, x)", lambda x, y, z: math.atan2(y, x), (0.5, -0.8, 0.0)),
    ("x^2.5*y", lambda x, y, z: x**2.5 * y, (1.7, -0.4, 0.0)),
    ("2^(x*y)", lambda x, y, z: 2.0 ** (x * y), (0.6, 1.1, 0.0)),
    ("(x+y*z)^3", lambda x, y, z: (x + y * z) ** 3, (0.2, 0.5, -1.3)),
    ("cosh(x)*tan(z)", lambda x, y, z: math.cosh(x) * math.tan(z), (0.3, 0.0, 0.9)),
    ("x^-2", lambda x, y, z: x**-2, (1.3, 0.0, 0.0)),
]


def unit(*axes):
    """Multi-index of the partial derivative along each of `axes` in turn."""
    return tuple(axes.count(k) for k in range(3))


def _jet_at(text, p, order=3):
    ast = parse(text)
    seeds = Jet.seeds(list(p), order)
    return eval_jet(ast, dict(zip(("x", "y", "z"), seeds)))


class TestDerivativesAgainstFiniteDifferences:
    @pytest.mark.parametrize("text,f,p", CASES)
    def test_first_order(self, text, f, p):
        jet = _jet_at(text, p)
        for i in range(3):
            want = fd1(f, p, i)
            got = jet.derivative(unit(i))
            assert abs(got - want) <= 1e-6 * (1 + abs(want)), (
                f"{text}: d_{i} jet={got} fd={want}"
            )

    @pytest.mark.parametrize("text,f,p", CASES)
    def test_second_order(self, text, f, p):
        jet = _jet_at(text, p)
        for i in range(3):
            for j in range(i, 3):
                want = fd2(f, p, i, j)
                got = jet.derivative(unit(i, j))
                assert abs(got - want) <= 1e-6 * (1 + abs(want)), (
                    f"{text}: d_{i}{j} jet={got} fd={want}"
                )

    def test_third_derivatives_closed_form(self):
        # f = x^3 y: d3/dx3 = 6y, d3/dx2dy = 6x, at (2, 5)
        jet = _jet_at("x^3*y", (2.0, 5.0, 0.0))
        assert jet.derivative((3, 0, 0)) == pytest.approx(30.0, abs=1e-12)
        assert jet.derivative((2, 1, 0)) == pytest.approx(12.0, abs=1e-12)
        # sin(t): third derivative at 0 is -cos(0) = -1
        t = Jet.seeds([0.0], 3)
        s = eval_jet(parse("sin(t)", ("t",)), {"t": t[0]})
        assert s.derivative((3,)) == pytest.approx(-1.0, abs=1e-15)


class TestJetStructure:
    def test_order0_coefficient_is_plain_evaluation(self):
        jet = _jet_at("exp(x)*sin(y+z^2)", (0.3, -0.2, 0.5))
        assert jet.value == pytest.approx(math.exp(0.3) * math.sin(-0.2 + 0.25), rel=1e-15)

    def test_mixed_partials_symmetric_by_construction(self):
        jet = _jet_at("exp(x*y)*cos(z)", (0.4, 0.7, 1.1))
        assert jet.derivative(unit(0, 1)) == jet.derivative(unit(1, 0))
        assert jet.derivative((1, 1, 1)) == jet.derivative((1, 1, 1))

    def test_variable_set_mismatch_raises(self):
        a = Jet.variable(1.0, 0, 2, 3)
        b = Jet.variable(1.0, 0, 3, 3)
        with pytest.raises(ValueError, match="variable set"):
            _ = a + b

    def test_order_truncation_on_mixed_orders(self):
        a = Jet.variable(2.0, 0, 2, 3)
        b = Jet.variable(3.0, 1, 2, 2)
        assert (a * b).order == 2

    def test_deriv_lowers_order(self):
        a = _jet_at("x^2*y", (1.0, 2.0, 0.0))
        d = a.deriv(0)
        assert d.order == 2
        assert d.value == pytest.approx(4.0)
        assert d.derivative((1, 0, 0)) == pytest.approx(4.0)  # d2/dx2 (x^2 y) = 2y

    def test_batch_matches_scalar_loop(self):
        text = "exp(x*y)*sin(z) + sqrt(1+x^2)"
        pts = [(0.1, 0.4, -0.2), (1.2, -0.3, 0.8), (0.0, 2.0, 1.5)]
        xs = np.array([p[0] for p in pts])
        ys = np.array([p[1] for p in pts])
        zs = np.array([p[2] for p in pts])
        seeds = Jet.seeds([xs, ys, zs], 3)
        batch = eval_jet(parse(text), dict(zip(("x", "y", "z"), seeds)))
        for k, p in enumerate(pts):
            single = _jet_at(text, p)
            for cb, cs in zip(batch.coef, single.coef):
                assert np.asarray(cb)[k] == pytest.approx(np.asarray(cs), rel=1e-15, abs=1e-15)

    def test_integer_power_of_negative_base(self):
        jet = _jet_at("x^3", (-2.0, 0.0, 0.0))
        assert jet.value == -8.0
        assert jet.derivative((1, 0, 0)) == pytest.approx(12.0)

    def test_compose_matches_direct_evaluation(self):
        F = eval_jet(parse("exp(x)*sin(y+z^2)"), dict(zip(("x", "y", "z"), Jet.seeds([0.3, -0.2, 0.5], 4))))
        u, v = Jet.seeds([0.5, 0.6], 3)
        xu, yu, zu = u * v, u - v - 0.1, u * u + 0.25
        G = Composer([xu - xu.value, yu - yu.value, zu - zu.value]).pull(F)
        direct = eval_jet(
            parse("exp(u*v)*sin((u-v-0.1)+(u^2+0.25)^2)", ("u", "v")),
            {"u": u, "v": v},
        )
        for a, b in zip(G.coef, direct.coef):
            assert a == pytest.approx(b, rel=1e-12, abs=1e-14)


class TestDomainErrors:
    def test_log_of_negative(self):
        with pytest.raises(EvaluationError, match="log"):
            _jet_at("log(x)", (-1.0, 0.0, 0.0))

    def test_sqrt_of_negative(self):
        with pytest.raises(EvaluationError, match="sqrt"):
            _jet_at("sqrt(x)", (-1.0, 0.0, 0.0))

    def test_sqrt_at_zero_has_no_jet(self):
        with pytest.raises(EvaluationError, match="sqrt"):
            _jet_at("sqrt(x)", (0.0, 0.0, 0.0))
        # plain value at order 0 is fine
        assert jsqrt(Jet.constant(0.0, 1, 0)).value == 0.0

    def test_division_by_zero(self):
        with pytest.raises(EvaluationError, match="division"):
            _jet_at("1/x", (0.0, 1.0, 0.0))
        with pytest.raises(EvaluationError, match="division"):
            _jet_at("1/0", (0.0, 0.0, 0.0))

    def test_atan2_at_origin(self):
        with pytest.raises(EvaluationError, match="atan2"):
            _jet_at("atan2(y, x)", (0.0, 0.0, 0.0))

    def test_noninteger_power_of_negative(self):
        with pytest.raises(EvaluationError, match="power"):
            _jet_at("x^0.5", (-2.0, 0.0, 0.0))

    def test_error_carries_position(self):
        with pytest.raises(EvaluationError) as err:
            _jet_at("1 + log(x)", (-1.0, 0.0, 0.0))
        assert err.value.position == 4

    def test_batch_domain_error(self):
        xs = np.array([1.0, -1.0])
        seeds = Jet.seeds([xs, xs * 0, xs * 0], 3)
        with pytest.raises(EvaluationError):
            eval_jet(parse("log(x)"), dict(zip(("x", "y", "z"), seeds)))


def test_atan2_jet_matches_quotient_arctan_off_axis():
    # where x > 0, atan2(y, x) == atan(y/x); compare full jets via the identity
    # d/dy atan2 = x/(x^2+y^2), d/dx atan2 = -y/(x^2+y^2)
    x0, y0 = 1.3, -0.7
    x, y = Jet.seeds([x0, y0], 3)
    a = jatan2(y, x)
    r2 = x0**2 + y0**2
    assert a.derivative((0, 1)) == pytest.approx(x0 / r2, rel=1e-12)
    assert a.derivative((1, 0)) == pytest.approx(-y0 / r2, rel=1e-12)
