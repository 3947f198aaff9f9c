"""Curvature pipeline tests: finite-L forms, limits, curves, and oracles.

The metric-side oracles (Brioschi curvature, Christoffel geodesic
curvature) are validated first on surfaces whose curvatures are known in
closed form; only then are they trusted as references for the
connection-form pipeline.
"""

import hashlib

import numpy as np
import pytest

from srlab import curvature as cv
from srlab.calculus import Jet, ScalarField
from srlab.errors import NumericalError, TransversalityError
from srlab.frame import ConnectionFormsL
from srlab.models import builtin_model
from srlab.scenes import builtin_scene, region_scan_grid
from srlab.surface import SurfaceGeometry, SurfacePatch

HEIS = builtin_model("heisenberg")
ROTO = builtin_model("rototranslation")
PLANE = SurfacePatch.parse(("u", "v", "0"))
RPLANE = SurfacePatch.parse(("u", "0", "v"))


def heis_points(n, seed=11):
    rng = np.random.default_rng(seed)
    r = rng.uniform(0.5, 2.0, n)
    th = rng.uniform(0.0, 2 * np.pi, n)
    return r * np.cos(th), r * np.sin(th)


def roto_points(n, seed=13):
    rng = np.random.default_rng(seed)
    return rng.uniform(-1.5, 1.5, n), rng.uniform(0.4, 2.0, n)


class TestMetricOracles:
    """Closed-form sanity checks for the oracle cores themselves."""

    def setup_method(self):
        uu = np.array([0.6, 1.0, 1.7, 2.4])
        vv = np.array([0.0, 2.0, -1.0, 0.3])
        self.su, self.sv = Jet.seeds([uu, vv], 2)
        self.one = Jet.constant(1.0, 2, 2)
        self.zero = Jet.constant(0.0, 2, 2)

    def metric_jet(self, text):
        return ScalarField.parse(text, ("u", "v")).jet({"u": self.su, "v": self.sv})

    def test_brioschi_unit_sphere(self):
        # E = 1, F = 0, G = sin(u)^2 is the round metric of curvature one
        k = cv.metric_gauss_curvature(self.one, self.zero, self.metric_jet("sin(u)^2"))
        assert np.max(np.abs(k - 1.0)) < 1e-12

    def test_brioschi_flat_polar(self):
        k = cv.metric_gauss_curvature(self.one, self.zero, self.metric_jet("u^2"))
        assert np.max(np.abs(k)) < 1e-12

    def test_brioschi_hyperbolic_half_plane(self):
        # E = G = 1 / v^2, F = 0 has curvature minus one (needs v > 0)
        su, sv = Jet.seeds([np.array([0.0, 1.0, -2.0]), np.array([0.5, 1.5, 2.5])], 2)
        conf = ScalarField.parse("1 / v^2", ("u", "v")).jet({"u": su, "v": sv})
        zero = Jet.constant(0.0, 2, 2)
        k = cv.metric_gauss_curvature(conf, zero, conf)
        assert np.max(np.abs(k + 1.0)) < 1e-10

    @pytest.mark.parametrize("u0", [0.7, 1.2])
    def test_geodesic_core_sphere_latitude(self, u0):
        # latitude circle at colatitude u0, traversed with increasing v
        comps = (1.0, 0.0, np.sin(u0) ** 2)
        dcomps = ((0.0, 0.0), (0.0, 0.0), (2 * np.sin(u0) * np.cos(u0), 0.0))
        kg = cv.metric_geodesic_curvature(comps, dcomps, (0.0, 1.0), (0.0, 0.0))
        assert abs(kg - 1.0 / np.tan(u0)) < 1e-12

    def test_geodesic_core_flat_circle(self):
        # Euclidean circle of radius r, counterclockwise: k = +1/r
        r = 1.7
        t = np.linspace(0.0, 5.0, 9)
        comps = (1.0, 0.0, 1.0)
        dcomps = ((0.0, 0.0), (0.0, 0.0), (0.0, 0.0))
        cdot = (-r * np.sin(t), r * np.cos(t))
        cddot = (-r * np.cos(t), -r * np.sin(t))
        kg = cv.metric_geodesic_curvature(comps, dcomps, cdot, cddot)
        assert np.max(np.abs(kg - 1.0 / r)) < 1e-12
        kg_rev = cv.metric_geodesic_curvature(
            comps, dcomps, (r * np.sin(t), -r * np.cos(t)), cddot
        )
        assert np.max(np.abs(kg_rev + 1.0 / r)) < 1e-12


class TestProjectedForm:
    def test_koszul_assembly_agreement(self):
        # same form through structure functions and through raw Koszul brackets
        cases = [
            (HEIS, PLANE, heis_points(5)),
            (ROTO, RPLANE, roto_points(5)),
            (builtin_model("polarized_heisenberg"), PLANE,
             (np.array([0.5, 1.0, 1.5, 0.8, 2.0]),
              np.array([0.0, 1.0, -1.0, 0.4, 0.7]))),
            (builtin_model("minkowski_rototranslation"), RPLANE,
             (np.array([0.0, 1.0, -0.5, 0.3, 0.9]),
              np.array([0.5, 0.8, 1.2, 1.6, 0.6]))),
        ]
        for model, patch, (uu, vv) in cases:
            geom = SurfaceGeometry(model, patch, uu, vv)
            p, q = cv.projected_connection_form(geom, 10.0).values()
            pk, qk = cv.omega23_koszul_values(geom, 10.0)
            gap = max(np.max(np.abs(p - pk)), np.max(np.abs(q - qk)))
            assert gap < 1e-7, f"{model.name}: koszul mismatch {gap:.2e}"

    @pytest.mark.parametrize("model,patch,pts", [
        (HEIS, PLANE, heis_points(6, seed=5)),
        (ROTO, RPLANE, roto_points(6, seed=6)),
    ])
    def test_parameter_vs_ambient_evaluation(self, model, patch, pts):
        # the restricted forms agree with the ambient forms on tangent vectors
        uu, vv = pts
        geom = SurfaceGeometry(model, patch, uu, vv)
        L = 10.0
        asm = cv.LFormAssembly(geom, L)
        forms = ConnectionFormsL(geom.frame, L)

        rng = np.random.default_rng(2)
        a = rng.uniform(-1.0, 1.0, uu.shape)
        b = rng.uniform(-1.0, 1.0, uu.shape)
        tu = np.stack([np.broadcast_to(np.asarray(c.value), uu.shape) for c in geom.Tu])
        tv = np.stack([np.broadcast_to(np.asarray(c.value), uu.shape) for c in geom.Tv])
        vec = a * tu + b * tv

        rows = []
        for row in geom.frame.coframe:
            rows.append(np.stack(
                [np.broadcast_to(np.asarray(c.value), uu.shape) for c in row]
            ))
        scale = (1.0, 1.0, np.sqrt(L))
        pairings = [s * np.einsum("i...,i...->...", r, vec)
                    for s, r in zip(scale, rows)]

        def cval(c):
            return np.asarray(c.value if hasattr(c, "value") else c, dtype=float)

        for (i, j), restricted in (((1, 2), asm.w12), ((1, 3), asm.w13),
                                   ((2, 3), asm.w23)):
            ambient = sum(
                cval(forms.coefficient(i, j, k)) * pairings[k - 1]
                for k in (1, 2, 3)
            )
            gap = np.max(np.abs(restricted(a, b) - ambient))
            assert gap < 1e-10 * (1.0 + np.max(np.abs(ambient)))

    def test_limit_form_golden_point(self):
        # at the probe point the limit form is a pure dv component of size |A|
        geom = SurfaceGeometry(HEIS, PLANE, 1.0, 0.0)
        p, q = cv.limit_connection_form(geom).values()
        assert abs(float(p)) < 1e-14
        assert abs(float(q) - 1.0) < 1e-12

    @pytest.mark.parametrize("model,patch,pts", [
        (HEIS, PLANE, heis_points(4, seed=21)),
        (ROTO, RPLANE, roto_points(4, seed=22)),
    ])
    def test_scaled_form_converges(self, model, patch, pts):
        geom = SurfaceGeometry(model, patch, *pts)
        p, q = cv.limit_connection_form(geom).values()
        size = max(np.max(np.abs(p)), np.max(np.abs(q)))
        devs = [cv.scaled_form_limit_deviation(geom, L) for L in (1e2, 1e3, 1e4)]
        assert devs[-1] < 1e-2 * size
        assert devs[0] > devs[1] > devs[2]

    def test_rejects_bad_parameter(self):
        geom = SurfaceGeometry(HEIS, PLANE, 1.0, 0.0)
        with pytest.raises(ValueError):
            cv.LFormAssembly(geom, 0.0)
        with pytest.raises(ValueError):
            cv.LFormAssembly(geom, -4.0)


class TestBasisComponents:
    """The one 2x2 normal-equation solve recovers (a, b) from w = a p + b q."""

    def test_values(self):
        rng = np.random.default_rng(31)
        p, q = rng.normal(size=(2, 3, 8))
        a, b = rng.normal(size=(2, 8))
        got = cv.basis_components(list(p), list(q), list(a * p + b * q))
        assert np.allclose(got, (a, b), rtol=0, atol=1e-12)

    def test_jets(self):
        su, sv = Jet.seeds([np.array([0.3, -0.7, 1.2]), np.array([1.1, 0.4, -0.5])], 2)

        def jets(*texts):
            return [ScalarField.parse(t, ("u", "v")).jet({"u": su, "v": sv}) for t in texts]

        p = jets("1 + u*v", "sin(u)", "2 + v^2")
        q = jets("cos(v)", "u - v", "exp(u)/3")
        a, b = jets("0.5 + u", "v*v - 2")
        w = [a * pi + b * qi for pi, qi in zip(p, q)]
        for got, want in zip(cv.basis_components(p, q, w), (a, b)):
            assert got.order == want.order == 2
            for x, y in zip(got.coef, want.coef):
                assert np.allclose(x, y, rtol=0, atol=1e-12)


class TestGaussEquationGolden:
    # sha256 of K_L, K, Kbar_L and II_L (float64 bytes) at L = 1 and 100 on
    # each shipped scene's 15-sample region grid, recorded when W12_L, W13_L
    # and d(beta) were still built eagerly with W23_L
    DIGESTS = {
        "rt_disk": "7118cb14491ae7ef801c64af6df1c893e01526294ebb1c2ca4dbaea685d52230",
        "heisenberg_annulus": "2ea25e1cd5132a152b5f77a40fceae4f66850d2f6e9fd684b4b5d1989d38de17",
    }

    @pytest.mark.parametrize("name", sorted(DIGESTS))
    def test_decomposition_is_bitwise_unchanged(self, name):
        sc = builtin_scene(name)
        geom = SurfaceGeometry(sc.model, sc.patch, *region_scan_grid(sc.region, 15))
        digest = hashlib.sha256()
        for L in (1.0, 100.0):
            s = cv.gauss_equation_decomposition(geom, L)
            for x in (s.K_L, s.K_limit, s.Kbar_L, s.II_L):
                digest.update(np.ascontiguousarray(x, dtype=float).tobytes())
        assert digest.hexdigest() == self.DIGESTS[name]


class TestGaussCurvature:
    def test_limit_closed_forms(self):
        # plane through the center: K = -2 / r^2
        uu, vv = heis_points(30, seed=3)
        geom = SurfaceGeometry(HEIS, PLANE, uu, vv)
        expected = -2.0 / (uu * uu + vv * vv)
        assert np.max(np.abs(cv.gauss_curvature_limit(geom) - expected)) < 1e-10
        # vertical plane in the rototranslation chart: constant curvature one
        ru, rv = roto_points(30, seed=4)
        rgeom = SurfaceGeometry(ROTO, RPLANE, ru, rv)
        assert np.max(np.abs(cv.gauss_curvature_limit(rgeom) - 1.0)) < 1e-10

    @pytest.mark.parametrize("model,patch,point,target", [
        (HEIS, PLANE, (1.0, 0.0), -2.0),
        (ROTO, RPLANE, (0.3, 1.0), 1.0),
    ])
    def test_finite_L_near_limit(self, model, patch, point, target):
        geom = SurfaceGeometry(model, patch, *point)
        k = float(cv.gauss_curvature_L(geom, 1e4))
        assert abs(k - target) < 0.01 * abs(target)

    @pytest.mark.parametrize("L", [1.0, 10.0, 100.0])
    def test_oracle_equivalence(self, L):
        for model, patch, pts in (
            (HEIS, PLANE, heis_points(10, seed=31)),
            (ROTO, RPLANE, roto_points(10, seed=32)),
        ):
            geom = SurfaceGeometry(model, patch, *pts)
            k = cv.gauss_curvature_L(geom, L)
            k_oracle = cv.induced_metric_gauss_oracle(geom, L)
            rel = np.max(np.abs(k - k_oracle) / np.maximum(1.0, np.abs(k_oracle)))
            assert rel < 1e-6, f"{model.name} at L={L}: {rel:.2e}"

    @pytest.mark.parametrize("step", [1e-4, 1e-5])
    def test_fd_secondary_oracle(self, step):
        # central differences on the form components confirm the jet curl
        cases = [
            (HEIS, PLANE, np.array([1.1, 0.7]), np.array([0.4, -0.9])),
            (ROTO, RPLANE, np.array([0.2, -0.6]), np.array([0.9, 1.4])),
        ]
        L = 10.0
        for model, patch, uu, vv in cases:
            def pq(u, v):
                return cv.projected_connection_form(
                    SurfaceGeometry(model, patch, u, v), L).values()

            qu = (pq(uu + step, vv)[1] - pq(uu - step, vv)[1]) / (2 * step)
            pv = (pq(uu, vv + step)[0] - pq(uu, vv - step)[0]) / (2 * step)
            exact = cv.projected_connection_form(
                SurfaceGeometry(model, patch, uu, vv), L).curl()
            gap = np.max(np.abs((qu - pv) - exact) / np.maximum(1.0, np.abs(exact)))
            assert gap < 1e-5

    @pytest.mark.parametrize("L", [10.0, 1e4])
    def test_decomposition_identity(self, L):
        uu, vv = heis_points(8, seed=41)
        geom = SurfaceGeometry(HEIS, PLANE, uu, vv)
        s = cv.gauss_equation_decomposition(geom, L)
        bound = 1e-9 * np.maximum(1.0, np.maximum(np.abs(s.K_L), np.abs(s.II_L)))
        assert np.all(np.abs(s.K_L - (s.Kbar_L + s.II_L)) <= bound)
        assert s.L == L

    def test_second_fundamental_diverges(self):
        geom = SurfaceGeometry(HEIS, PLANE, 1.0, 0.0)
        lo = cv.gauss_equation_decomposition(geom, 1e2)
        hi = cv.gauss_equation_decomposition(geom, 1e4)
        assert abs(float(hi.II_L) / float(lo.II_L)) > 50.0
        # at large L both split terms dwarf the curvature itself
        assert abs(float(hi.II_L)) > 10.0 * abs(float(hi.K_L))
        assert abs(float(hi.Kbar_L)) > 10.0 * abs(float(hi.K_L))

    @pytest.mark.parametrize("model,patch,point", [
        (HEIS, PLANE, (1.0, 0.0)),
        (ROTO, RPLANE, (0.3, 1.0)),
    ])
    def test_convergence_slope(self, model, patch, point):
        geom = SurfaceGeometry(model, patch, *point)
        limit = float(cv.gauss_curvature_limit(geom))
        L_values = np.array([1e2, 1e3, 1e4, 1e5])
        errs = np.array([abs(float(cv.gauss_curvature_L(geom, L)) - limit)
                         for L in L_values])
        assert np.all(np.diff(errs) < 0), "errors must decrease with L"
        slope = np.polyfit(np.log(L_values), np.log(errs), 1)[0]
        assert -1.3 < slope < -0.7

    def test_swap_invariance(self):
        # exchanging the surface parameters leaves the curvature alone
        uu, vv = heis_points(6, seed=51)
        k = cv.gauss_curvature_limit(SurfaceGeometry(HEIS, PLANE, uu, vv))
        swapped = SurfacePatch.parse(("v", "u", "0"))
        k_sw = cv.gauss_curvature_limit(SurfaceGeometry(HEIS, swapped, vv, uu))
        assert np.max(np.abs(k - k_sw)) < 1e-10

    def test_limit_via_form_route(self):
        for model, patch, pts in (
            (HEIS, PLANE, heis_points(8, seed=61)),
            (ROTO, RPLANE, roto_points(8, seed=62)),
        ):
            geom = SurfaceGeometry(model, patch, *pts)
            direct = cv.gauss_curvature_limit(geom)
            via_form = cv.gauss_curvature_limit_via_form(geom)
            assert np.max(np.abs(direct - via_form)) < 1e-9


CIRCLE = cv.CurveOnSurface.parse(("cos(t)", "sin(t)"), (0.0, 2 * np.pi))
T12 = np.linspace(0.05, 6.2, 12)


class TestCurves:
    def test_circle_decomposition(self):
        x, y = cv.curve_decomposition(HEIS, PLANE, CIRCLE, T12)
        assert np.max(np.abs(x)) < 1e-12
        assert np.max(np.abs(y + 0.5)) < 1e-12
        # radius two: the contact pairing scales with the enclosed rate
        big = cv.CurveOnSurface.parse(("2*cos(t)", "2*sin(t)"), (0.0, 2 * np.pi))
        _, y2 = cv.curve_decomposition(HEIS, PLANE, big, T12)
        assert np.max(np.abs(y2 + 2.0)) < 1e-12

    def test_decomposition_matches_contact_pairing(self):
        cg = cv.CurveGeometry(ROTO, RPLANE,
                              cv.CurveOnSurface.parse(
                                  ("0.8*cos(t)", "1.5 + 0.8*sin(t)"),
                                  (0.0, 2 * np.pi)),
                              T12)
        omega_t = [cg.pull(c) for c in cg.geom.omega_s]
        manual = sum(np.asarray((a * b).value)
                     for a, b in zip(omega_t, cg.gamma_dot))
        assert np.max(np.abs(np.asarray(cg.y.value) - manual)) < 1e-10

    @pytest.mark.parametrize("radius,expected", [(1.0, 2.0), (2.0, 1.0)])
    def test_normal_curvature_limit_circle(self, radius, expected):
        curve = cv.CurveOnSurface.parse(
            (f"{radius}*cos(t)", f"{radius}*sin(t)"), (0.0, 2 * np.pi))
        kn = cv.normal_curvature_limit(HEIS, PLANE, curve, T12)
        assert np.max(np.abs(kn - expected)) < 1e-12

    def test_normal_curvature_finite_L(self):
        kn = cv.normal_curvature_L(HEIS, PLANE, CIRCLE, T12, 1e4)
        assert np.max(np.abs(kn - 2.0)) < 0.04
        # frozen golden value at L = 100: 51/26 on the unit circle
        kn100 = cv.normal_curvature_L(HEIS, PLANE, CIRCLE, T12, 100.0)
        assert np.max(np.abs(kn100 - 51.0 / 26.0)) < 1e-9

    def test_derivative_terms_negligible_on_circle(self):
        # on the circle the frame components are constant in t, so the
        # curvature is carried almost entirely by the connection form
        L = 1e6
        cg = cv.CurveGeometry(HEIS, PLANE, CIRCLE, T12)
        kn = cv.normal_curvature_L(HEIS, PLANE, CIRCLE, T12, L, cg=cg)
        form = cv.projected_connection_form(cg.geom, L)
        p_t, q_t = cg.pull(form.P), cg.pull(form.Q)
        along = np.asarray((p_t * cg.udot + q_t * cg.vdot).value)
        x, y, A = cg.x, cg.y, cg.A
        norm = np.asarray(
            np.sqrt((x * x + y * y * (A * A + L)).value), dtype=float)
        assert np.max(np.abs(kn - along / norm)) < 1e-2

    @pytest.mark.parametrize("L", [1.0, 10.0, 100.0])
    def test_oracle_equivalence_circle(self, L):
        cg = cv.CurveGeometry(HEIS, PLANE, CIRCLE, T12)
        kn = cv.normal_curvature_L(HEIS, PLANE, CIRCLE, T12, L, cg=cg)
        kg = cv.geodesic_curvature_oracle(HEIS, PLANE, CIRCLE, T12, L, cg=cg)
        rel = np.max(np.abs(kn - kg) / np.maximum(1.0, np.abs(kg)))
        assert rel < 1e-6

    def test_oracle_equivalence_roto_boundary(self):
        # parameters stay clear of t = 0 and t = pi, where this boundary is
        # tangent to the horizontal directions and the normal degenerates
        curve = cv.CurveOnSurface.parse(
            ("0.8*cos(t)", "1.5 + 0.8*sin(t)"), (0.0, 2 * np.pi))
        t8 = np.linspace(0.3, 5.9, 8)
        cg = cv.CurveGeometry(ROTO, RPLANE, curve, t8)
        kn = cv.normal_curvature_L(ROTO, RPLANE, curve, t8, 10.0, cg=cg)
        kg = cv.geodesic_curvature_oracle(ROTO, RPLANE, curve, t8, 10.0, cg=cg)
        rel = np.max(np.abs(kn - kg) / np.maximum(1.0, np.abs(kg)))
        assert rel < 1e-6

    def test_reversal_flips_sign(self):
        rev = cv.CurveOnSurface.parse(("cos(-t)", "sin(-t)"), (-2 * np.pi, 0.0))
        kn = cv.normal_curvature_limit(HEIS, PLANE, CIRCLE, T12)
        kn_rev = cv.normal_curvature_limit(HEIS, PLANE, rev, -T12)
        assert np.max(np.abs(kn + kn_rev)) < 1e-12
        a = cv.normal_curvature_L(HEIS, PLANE, CIRCLE, T12, 10.0)
        b = cv.normal_curvature_L(HEIS, PLANE, rev, -T12, 10.0)
        assert np.max(np.abs(a + b)) < 1e-12

    def test_tangent_curve_rejected(self):
        # a radial ray in the plane is tangent to the horizontal directions
        ray = cv.CurveOnSurface.parse(("t", "0"), (0.5, 2.0))
        t = np.linspace(0.5, 2.0, 5)
        with pytest.raises(TransversalityError):
            cv.normal_curvature_limit(HEIS, PLANE, ray, t)
        with pytest.raises(TransversalityError):
            cv.normal_curvature_L(HEIS, PLANE, ray, t, 10.0)

    def test_stationary_curve_rejected(self):
        frozen = cv.CurveOnSurface.parse(("1", "0.5"), (0.0, 1.0))
        with pytest.raises(NumericalError):
            cv.CurveGeometry(HEIS, PLANE, frozen, np.array([0.2, 0.5]))

    def test_parse_errors(self):
        with pytest.raises(ValueError):
            cv.CurveOnSurface.parse(("t",), (0.0, 1.0))
        with pytest.raises(ValueError):
            cv.CurveOnSurface.parse(("t", "t"), (1.0, 1.0))


class TestOrderErrors:
    """Quantities that read second derivatives name the order they need."""

    @staticmethod
    def geometry(order):
        sc = builtin_scene("rt_disk")
        return SurfaceGeometry(sc.model, sc.patch, 0.2, 1.3, order)

    def test_assembly_names_K_L(self):
        asm = cv.LFormAssembly(self.geometry(2), 10.0)
        with pytest.raises(ValueError, match="K_L needs a surface geometry of order 3 .*got order 2"):
            asm.gauss_curvature()

    def test_gauss_curvature_L_names_K_L(self):
        with pytest.raises(ValueError, match="K_L needs a surface geometry of order 3 .*got order 2"):
            cv.gauss_curvature_L(self.geometry(2), 10.0)

    def test_induced_metric_oracle_names_itself(self):
        with pytest.raises(ValueError, match="induced-metric curvature oracle needs a surface "
                                             "geometry of order 3 .*got order 2"):
            cv.induced_metric_gauss_oracle(self.geometry(2), 10.0)

    def test_order_3_still_works(self):
        geom = self.geometry(3)
        assert np.isfinite(cv.gauss_curvature_L(geom, 10.0))
        assert np.isfinite(cv.induced_metric_gauss_oracle(geom, 10.0))
