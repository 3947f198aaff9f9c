"""Chart-level field calculus: brackets, exterior derivatives, pairings.

The oracles here are hand-worked classical identities (the Heisenberg frame
bracket, d of an explicit one-form) plus structural identities that hold for
any smooth fields: antisymmetry of the bracket, d(df) = 0, and Jacobi.
"""

import numpy as np
import pytest

from srlab.calculus import (
    ScalarField,
    VectorFieldC,
    bracket_jets,
    chart_seeds,
    d_oneform_jets,
    eval_jet,
    eval_twoform,
    pair_oneform,
    parse,
)
from srlab.frame import SubRiemannianModel

E1 = VectorFieldC.parse(("1", "0", "-y/2"))
E2 = VectorFieldC.parse(("0", "1", "x/2"))
OMEGA = tuple(ScalarField.parse(t) for t in ("y/2", "-x/2", "1"))


def values(jets):
    return np.array([float(np.asarray(c.value)) for c in jets])


def field_at(field, p):
    """Component values of a vector field or one-form at a chart point."""
    comps = field.components if isinstance(field, VectorFieldC) else field
    return np.array([c.at(p) for c in comps])


def bracket_at(v, w, p):
    bind = chart_seeds(p, 2)
    return values(bracket_jets(v.jets(bind), w.jets(bind)))


def d_at(theta, p):
    """d(theta) at p on (dx^dy, dx^dz, dy^dz), for a one-form given by scalar fields."""
    bind = chart_seeds(p, 2)
    return values(d_oneform_jets([c.jet(bind) for c in theta]))


class TestDirectionalDerivative:
    """(Vf)(p) = df(V), the pairing the frame pipeline forms with jets."""

    @staticmethod
    def along(f, v, p):
        bind = chart_seeds(p, 1)
        fj = f.jet(bind)
        return float(np.asarray(pair_oneform([fj.deriv(m) for m in range(3)],
                                             v.jets(bind)).value))

    def test_product_along_first_frame_field(self):
        f = ScalarField.parse("x*y")
        # e1 = d/dx - (y/2) d/dz and f has no z dependence, so e1 f = y
        assert self.along(f, E1, (1.0, 2.0, 0.0)) == pytest.approx(2.0)

    def test_coordinate_direction(self):
        f = ScalarField.parse("sin(z)*x")
        v = VectorFieldC.parse(("0", "0", "1"))
        p = (2.0, -1.0, 0.4)
        assert self.along(f, v, p) == pytest.approx(2.0 * np.cos(0.4))


class TestLieBracket:
    @pytest.mark.parametrize("p", [(0.0, 0.0, 0.0), (1.0, -2.0, 0.5), (0.3, 0.7, -1.1)])
    def test_heisenberg_frame_bracket_is_vertical(self, p):
        # [e1, e2] = d/dz everywhere for this frame
        got = bracket_at(E1, E2, p)
        assert got == pytest.approx([0.0, 0.0, 1.0], abs=1e-14)

    def test_antisymmetry_exact(self):
        v = VectorFieldC.parse(("y*z", "sin(x)", "exp(0.2*x*y)"))
        w = VectorFieldC.parse(("cos(z)", "x^2", "y"))
        p = (0.4, -0.8, 1.2)
        assert np.all(bracket_at(v, w, p) == -bracket_at(w, v, p))

    def test_jacobi_identity(self):
        u = VectorFieldC.parse(("y", "z*x", "sin(x)"))
        v = VectorFieldC.parse(("exp(0.2*y)", "x+z", "1"))
        w = VectorFieldC.parse(("cos(z)", "x^2", "y"))

        def nested(a, b, c, p):
            bind = chart_seeds(p, 2)
            inner = bracket_jets(b.jets(bind), c.jets(bind))
            return values(bracket_jets(a.jets(bind), inner))

        p = (0.3, -0.5, 0.9)
        total = nested(u, v, w, p) + nested(v, w, u, p) + nested(w, u, v, p)
        assert np.max(np.abs(total)) <= 1e-8


class TestBracketTruncation:
    """bracket_jets cuts its operands once, so no product meets two orders,
    and its bits are those of the per-product formula."""

    MODEL = SubRiemannianModel.from_components(
        "dense",
        ("cos(0.2*z)", "sin(0.2*z)", "-y/2 + 0.1*sin(x)"),
        ("-sin(0.2*z)", "cos(0.2*z)", "x/2 + 0.1*cos(y)"),
    )
    POINTS = (np.array([0.3, -1.1, 0.8]), np.array([0.5, 0.2, -0.9]), np.array([0.1, 0.7, -0.4]))

    @staticmethod
    def per_product(v, w):
        # each product truncates its operands to the lower order itself
        out = []
        for i in range(3):
            terms = [v[m] * w[i].deriv(m) - w[m] * v[i].deriv(m) for m in range(3)]
            out.append(terms[0] + terms[1] + terms[2])
        return out

    @staticmethod
    def bits(field):
        return [(c.order, [(np.shape(x), np.asarray(x).tobytes()) for x in c.coef])
                for c in field]

    def fields(self):
        fr = self.MODEL.frame(self.POINTS, order=4)
        assert (fr.e1[0].order, fr.e3[0].order) == (4, 2)
        return fr.e1, fr.e2, fr.e3

    def test_mixed_orders_match_the_per_product_formula(self):
        e1, e2, e3 = self.fields()
        for v, w in ((e1, e3), (e3, e1), (e2, e3), (e1, e2), (e3, e3)):
            assert self.bits(bracket_jets(v, w)) == self.bits(self.per_product(v, w))

    def test_no_product_meets_two_orders(self, monkeypatch):
        from srlab.calculus.jets import Jet

        mixed = []
        meta = Jet._meta

        def recording(self, other):
            if isinstance(other, Jet) and other.order != self.order:
                mixed.append((self.order, other.order))
            return meta(self, other)

        e1, _, e3 = self.fields()
        monkeypatch.setattr(Jet, "_meta", recording)
        bracket_jets(e1, e3)
        assert mixed == []
        self.per_product(e1, e3)
        assert mixed     # the wrapper does see the per-product truncations


class TestExteriorDerivative:
    @pytest.mark.parametrize("p", [(0.0, 0.0, 0.0), (2.0, 3.0, -1.0)])
    def test_contact_form_of_heisenberg(self, p):
        d = d_at(OMEGA, p)
        assert d == pytest.approx((-1.0, 0.0, 0.0), abs=1e-14)
        # paired with the frame: d(omega)(e1, e2) = -1
        assert eval_twoform(d, field_at(E1, p), field_at(E2, p)) == pytest.approx(-1.0, abs=1e-14)

    def test_d_of_exact_form_vanishes(self):
        # theta = d(x^2 y) written out by hand
        theta = tuple(ScalarField.parse(t) for t in ("2*x*y", "x^2", "0"))
        d = d_at(theta, (1.3, -0.7, 0.2))
        assert d == pytest.approx((0.0, 0.0, 0.0), abs=1e-14)

    def test_d_of_d_scalar_vanishes_for_random_fields(self):
        rng = np.random.default_rng(20260819)
        for _ in range(20):
            a, b, c, d = rng.uniform(-2.0, 2.0, size=4)
            text = (
                f"({a})*x^2*y + ({b})*sin(x+2*z) + ({c})*exp(0.3*y*z) + ({d})*x*y*z"
            )
            p = rng.uniform(-1.0, 1.0, size=3)
            f = eval_jet(parse(text), chart_seeds(tuple(p), 3))
            grad = [f.deriv(m) for m in range(3)]
            for coeff in d_oneform_jets(grad):
                assert abs(float(np.asarray(coeff.value))) <= 1e-12


class TestPairings:
    def test_pair_oneform_is_componentwise_sum(self):
        assert pair_oneform((1.0, 2.0, 3.0), (4.0, 5.0, 6.0)) == pytest.approx(32.0)

    def test_eval_twoform_antisymmetric(self):
        c = (0.5, -1.0, 2.0)
        v, w = (1.0, 2.0, 3.0), (-1.0, 0.5, 2.0)
        assert eval_twoform(c, v, w) == -eval_twoform(c, w, v)
        assert eval_twoform(c, v, v) == 0.0

    def test_oneform_values_at_point(self):
        p = (2.0, 4.0, 0.0)
        omega = field_at(OMEGA, p)
        assert omega == pytest.approx([2.0, -1.0, 1.0])
        assert pair_oneform(omega, field_at(E1, p)) == pytest.approx(0.0, abs=1e-15)
        assert pair_oneform(omega, field_at(E2, p)) == pytest.approx(0.0, abs=1e-15)
