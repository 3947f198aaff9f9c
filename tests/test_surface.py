"""Surface patches, characteristic detection, and adapted frames.

Closed forms used as oracles, derived by hand for the shipped geometries:
on the Heisenberg plane z = 0 the frame function is A = -2/r with r the
distance from the origin (the origin itself is characteristic), and on the
rototranslation plane y = 0 it is A = -cot(v) for v in (0, pi). Both signs
follow from the orientation rule tying f2 to the parametrization.
"""

from pathlib import Path

import numpy as np
import pytest

from srlab.calculus import pair_oneform
from srlab.calculus.jets import Composer, Jet, jsqrt
from srlab.calculus.jets import value_of as jval
from srlab.curvature import LFormAssembly
from srlab.errors import CharacteristicPointError, ImmersionError
from srlab.frame import metric_matrix, _cross, _cut
from srlab.measures import region_scan_grid
from srlab.models import builtin_model
from srlab.scenes import BUILTIN_SCENES, builtin_scene, load_scene
from srlab.surface import (
    EPS_CHAR,
    SurfaceGeometry,
    SurfacePatch,
    characteristic_report,
    immersion_ratio,
    tangents,
)

HEIS = builtin_model("heisenberg")
ROTO = builtin_model("rototranslation")
PLANE = SurfacePatch.parse(("u", "v", "0"))
RPLANE = SurfacePatch.parse(("u", "0", "v"))
DENSE_SCENE = Path(__file__).parent / "golden" / "dense_scene.json"


def vec_values(vec, shape=()):
    return np.stack([np.broadcast_to(jval(c), shape) for c in vec])


class TestCharacteristicClassification:
    """A point is characteristic where its margin is below EPS_CHAR."""

    def test_heisenberg_plane_regular_point(self):
        margin = characteristic_report(HEIS, PLANE, 1.0, 0.0)
        assert margin == pytest.approx(0.25, abs=1e-14)
        assert margin >= EPS_CHAR

    def test_heisenberg_plane_origin(self):
        margin = characteristic_report(HEIS, PLANE, 0.0, 0.0)
        assert margin == pytest.approx(0.0, abs=1e-15)
        assert margin < EPS_CHAR

    def test_rototranslation_plane_at_pi(self):
        assert characteristic_report(ROTO, RPLANE, 0.3, np.pi) < EPS_CHAR

    def test_batch_labels(self):
        margin = characteristic_report(HEIS, PLANE, np.array([1.0, 0.0]), np.array([0.0, 0.0]))
        assert list(margin < EPS_CHAR) == [False, True]

    def test_geometry_refuses_characteristic_point(self):
        with pytest.raises(CharacteristicPointError):
            SurfaceGeometry(HEIS, PLANE, 0.0, 0.0)

    def test_geometry_refuses_degenerate_parametrization(self):
        folded = SurfacePatch.parse(("u", "u", "0"))
        with pytest.raises(ImmersionError):
            SurfaceGeometry(HEIS, folded, 1.0, 0.5)


class TestSharedChecks:
    """The value-level checks that geometry, scene load and validate share."""

    def test_immersion_ratio_broadcasts_scalar_and_array_components(self):
        u = np.array([0.5, 1.0, -2.0])
        v = np.array([1.0, -1.0, 0.0])
        # graph z = 0.1 u v: Tu = (1, 0, 0.1 v) and Tv = (0, 1, 0.1 u)
        ratio = immersion_ratio((1.0, 0.0, 0.1 * v), (0.0, 1.0, 0.1 * u))
        assert ratio.shape == (3,)
        for k in range(3):
            sv = np.linalg.svd([[1.0, 0.0], [0.0, 1.0], [0.1 * v[k], 0.1 * u[k]]],
                               compute_uv=False)
            assert ratio[k] == pytest.approx(sv[-1] / sv[0], rel=1e-14)

    def test_immersion_ratio_near_degenerate(self):
        # Tv = c Tu + 1e-9 |Tu| n with n a unit normal to Tu: ratio about 1e-9.
        # Both routes are accurate to about one unit of rounding in the ratio
        # itself, so the gap is bounded in absolute terms, not relative ones.
        rng = np.random.default_rng(7)
        tu = rng.normal(size=(3, 12)) * 10.0 ** rng.uniform(-2, 2, 12)
        n = rng.normal(size=(3, 12))
        n -= tu * np.sum(n * tu, axis=0) / np.sum(tu * tu, axis=0)
        n /= np.linalg.norm(n, axis=0)
        tv = tu * rng.uniform(0.3, 3.0, 12) + 1e-9 * np.linalg.norm(tu, axis=0) * n
        ratio = immersion_ratio(tuple(tu), tuple(tv))
        sv = np.linalg.svd(np.stack([tu.T, tv.T], axis=-1), compute_uv=False)
        expected = sv[:, 1] / sv[:, 0]
        assert np.all((expected > 1e-10) & (expected < 1e-8))
        assert np.max(np.abs(ratio - expected)) <= 8 * np.finfo(float).eps
        # exactly parallel tangents give an exact zero
        assert immersion_ratio((1.0, 2.0, 3.0), (2.0, 4.0, 6.0)) == 0.0

    @pytest.mark.parametrize("name", BUILTIN_SCENES)
    def test_geometry_and_prescan_margins_agree_bitwise(self, name):
        scene = builtin_scene(name)
        for samples in (15, 25):
            uu, vv = region_scan_grid(scene.region, samples)
            geom = SurfaceGeometry(scene.model, scene.patch, uu, vv)
            margin = characteristic_report(scene.model, scene.patch, uu, vv)
            assert np.array_equal(geom.margin, margin)


class TestAdaptedFrameHeisenberg:
    def test_golden_point(self):
        g = SurfaceGeometry(HEIS, PLANE, 1.0, 0.0)
        assert float(jval(g.A)) == pytest.approx(-2.0, abs=1e-12)
        assert vec_values(g.f3) == pytest.approx([0.0, -2.0, 0.0], abs=1e-12)
        assert vec_values(g.f2) == pytest.approx([-1.0, 0.0, 0.0], abs=1e-12)
        # the frame angle: f1 = cos(alpha) e1 + sin(alpha) e2, sin(alpha) = -x
        alpha = np.arctan2(-float(jval(g.x)), float(jval(g.y)))
        assert alpha == pytest.approx(np.pi / 2, abs=1e-12)

    def test_closed_form_A(self):
        rng = np.random.default_rng(5)
        r = rng.uniform(0.5, 2.0, size=40)
        th = rng.uniform(0.0, 2 * np.pi, size=40)
        u, v = r * np.cos(th), r * np.sin(th)
        g = SurfaceGeometry(HEIS, PLANE, u, v)
        assert jval(g.A) == pytest.approx(-2.0 / r, abs=1e-10)

    def test_conormal_solves_its_system(self):
        g = SurfaceGeometry(HEIS, PLANE, np.array([1.0, 0.3]), np.array([-0.2, 1.4]))
        assert np.max(np.abs(jval(pair_oneform(g.f1cov, g.Tu)))) <= 1e-10
        assert np.max(np.abs(jval(pair_oneform(g.f1cov, g.Tv)))) <= 1e-10
        assert jval(pair_oneform(g.f1cov, g.f1)) == pytest.approx([1.0, 1.0], abs=1e-10)

    def test_f3_is_tangent(self):
        g = SurfaceGeometry(HEIS, PLANE, np.array([0.7, -1.1]), np.array([0.4, 0.9]))
        normal = _cross(g.Tu, g.Tv)
        resid = jval(pair_oneform(normal, g.f3))
        scale = np.linalg.norm(vec_values(g.f3, resid.shape), axis=0)
        assert np.max(np.abs(resid) / scale) <= 1e-10

    def test_unit_horizontal_norm_and_positive_wedge(self):
        rng = np.random.default_rng(23)
        u = rng.uniform(0.4, 1.8, size=30)
        v = rng.uniform(0.4, 1.8, size=30)
        g = SurfaceGeometry(HEIS, PLANE, u, v)
        assert jval(g.x) ** 2 + jval(g.y) ** 2 == pytest.approx(np.ones(30), abs=1e-12)
        assert np.all(jval(g.wedge) > 0)

    def test_coframe_roundtrip(self):
        # e^1 = cos(a) f^1 - sin(a) f^2 + A cos(a) f^3, and cyclically;
        # reconstruction must reproduce the pulled-back coframe
        g = SurfaceGeometry(HEIS, PLANE, np.array([1.2, 0.5]), np.array([-0.3, 0.8]))
        shape = jval(g.A).shape
        cos_a, sin_a = jval(g.y), -jval(g.x)
        A = jval(g.A)
        f1c = vec_values(g.f1cov, shape)
        f2c = vec_values(f2cov(g), shape)
        f3c = vec_values(g.omega_s, shape)
        e1_back = cos_a * f1c - sin_a * f2c + A * cos_a * f3c
        e2_back = sin_a * f1c + cos_a * f2c + A * sin_a * f3c
        assert e1_back == pytest.approx(vec_values(g.cof1_s, shape), abs=1e-10)
        assert e2_back == pytest.approx(vec_values(g.cof2_s, shape), abs=1e-10)

    def test_batch_matches_scalar(self):
        u = np.array([1.0, 0.6, -0.9])
        v = np.array([0.2, -1.3, 0.5])
        batch = SurfaceGeometry(HEIS, PLANE, u, v)
        for k in range(3):
            single = SurfaceGeometry(HEIS, PLANE, u[k], v[k])
            assert float(jval(batch.A)[k]) == pytest.approx(float(jval(single.A)), rel=1e-14)
            assert float(jval(batch.wedge)[k]) == pytest.approx(float(jval(single.wedge)), rel=1e-14)


def jet_bits(jet):
    return jet.order, [(np.shape(c), np.asarray(c).tobytes()) for c in jet.coef]


class TestStoredPairings:
    """The geometry keeps e^k(Tu) and e^k(Tv), k = 1..3: e^3 at the tangents'
    order and e^1, e^2 one order below, each the pairing itself truncated to
    that order, bit for bit."""

    @pytest.mark.parametrize("name", BUILTIN_SCENES)
    @pytest.mark.parametrize("order", [2, 3])
    def test_stored_pairings_are_the_pairings(self, name, order):
        sc = builtin_scene(name)
        g = SurfaceGeometry(sc.model, sc.patch, *region_scan_grid(sc.region, 7), order)
        rows = (g.cof1_s, g.cof2_s, g.omega_s)
        for stored, tangent in ((g.coframe_Tu, g.Tu), (g.coframe_Tv, g.Tv)):
            assert len(stored) == 3
            for jet, row, k in zip(stored, rows, (order - 2, order - 2, order - 1)):
                assert jet.order == k
                assert jet_bits(jet) == jet_bits(pair_oneform(row, tangent).truncate(k))


def full_order_geometry(model, patch, u, v, k) -> dict:
    """The adapted frame with every jet at k - 1, as an order-k geometry was
    built before each jet was cut to the order its readers take."""
    phi = patch.jets(u, v, k)
    tu, tv = tangents(phi)
    fr = model.frame([np.asarray(j.value) for j in phi], order=k + 1)
    pull = Composer([j.centered().truncate(k - 1) for j in phi]).pull
    omega, cof1, cof2, e1, e2, e3 = ([pull(c) for c in _cut(f, k - 1)]
                                     for f in (fr.omega, *fr.coframe[:2], *fr.frames()))
    on_tu = [pair_oneform(r, tu) for r in (cof1, cof2, omega)]
    on_tv = [pair_oneform(r, tv) for r in (cof1, cof2, omega)]
    t = [on_tu[2] * b - on_tv[2] * a for a, b in zip(tu, tv)]
    x_raw, y_raw = pair_oneform(cof1, t), pair_oneform(cof2, t)
    f2_tu = x_raw * on_tu[0] + y_raw * on_tu[1]
    f2_tv = x_raw * on_tv[0] + y_raw * on_tv[1]
    wedge_raw = f2_tu * on_tv[2] - f2_tv * on_tu[2]
    sign = np.where(np.asarray(wedge_raw.value) >= 0.0, 1.0, -1.0)
    inv_h = 1.0 / jsqrt(x_raw * x_raw + y_raw * y_raw)
    x, y, wedge = sign * x_raw * inv_h, sign * y_raw * inv_h, sign * wedge_raw * inv_h
    f1 = [y * a - x * b for a, b in zip(e1, e2)]
    normal = _cross(tu, tv)
    inv_pairing = 1.0 / pair_oneform(normal, f1)
    f1cov = [c * inv_pairing for c in normal]
    A = -pair_oneform(f1cov, e3)
    return {"phi": phi, "Tu": tu, "Tv": tv, "omega_s": omega, "cof1_s": cof1, "cof2_s": cof2,
            "e1_s": e1, "e2_s": e2, "e3_s": e3, "coframe_Tu": on_tu, "coframe_Tv": on_tv,
            "x": [x], "y": [y], "wedge": [wedge], "f1": f1, "f1cov": f1cov, "A": [A],
            "f2": [x * a + y * b for a, b in zip(e1, e2)],
            "f3": [a + A * b for a, b in zip(e3, f1)]}


class TestReaderOrders:
    """Each jet a geometry stores carries the order of the `SurfaceGeometry`
    docstring's table, and is bitwise the truncation of the full-order
    formula to it."""

    @staticmethod
    def table(k) -> dict:
        """The docstring's table: stored jet -> its order, one per entry of the
        coframe pairings (e^1, e^2, e^3)."""
        low, vec = k - 1, min(k - 1, 1)
        orders = dict.fromkeys(("Tu", "Tv", "omega_s", "cof1_s", "cof2_s", "x", "y"), low)
        orders.update(dict.fromkeys(("e1_s", "e2_s", "e3_s", "f1", "f1cov", "A", "f2", "f3"), vec))
        orders.update(phi=k, wedge=0, coframe_Tu=(k - 2, k - 2, low), coframe_Tv=(k - 2, k - 2, low))
        return orders

    @staticmethod
    def scene(name):
        return load_scene(DENSE_SCENE) if name == "dense" else builtin_scene(name)

    @pytest.mark.parametrize("order", [2, 3])
    @pytest.mark.parametrize("name", [*BUILTIN_SCENES, "dense"])
    def test_orders_and_bits_match_the_full_order_formula(self, name, order):
        sc = self.scene(name)
        u, v = region_scan_grid(sc.region, 7)
        g = SurfaceGeometry(sc.model, sc.patch, u, v, order)
        want = full_order_geometry(sc.model, sc.patch, u, v, order)
        orders = self.table(order)
        # the table names every stored jet, and the f2 and f3 built on first use
        stored = {key for key, val in vars(g).items()
                  if isinstance(val, Jet) or isinstance(val, (list, tuple))
                  and val and all(isinstance(c, Jet) for c in val)}
        assert stored | {"f2", "f3"} == set(orders)
        for key, k in orders.items():
            jets = getattr(g, key)
            jets = [jets] if isinstance(jets, Jet) else list(jets)
            ks = k if isinstance(k, tuple) else (k,) * len(jets)
            assert len(jets) == len(ks) == len(want[key]), key
            for jet, ref, kk in zip(jets, want[key], ks):
                assert jet.order == kk, key
                assert ref.order >= kk, key
                assert jet_bits(jet) == jet_bits(ref.truncate(kk)), key


class TestAdaptedFrameRototranslation:
    def test_golden_point(self):
        g = SurfaceGeometry(ROTO, RPLANE, 0.7, 1.0)
        assert float(jval(g.A)) == pytest.approx(-1.0 / np.tan(1.0), abs=1e-12)
        assert abs(float(jval(g.A))) == pytest.approx(0.642093, abs=1e-6)
        assert vec_values(g.f2) == pytest.approx([0.0, 0.0, -1.0], abs=1e-12)

    def test_closed_form_A(self):
        rng = np.random.default_rng(9)
        u = rng.uniform(-2.0, 2.0, size=30)
        v = rng.uniform(0.2, np.pi - 0.2, size=30)
        g = SurfaceGeometry(ROTO, RPLANE, u, v)
        assert jval(g.A) == pytest.approx(-1.0 / np.tan(v), abs=1e-10)

    def test_orientation_covariance_under_swap(self):
        swapped = SurfacePatch.parse(("v", "0", "u"))
        a = SurfaceGeometry(ROTO, RPLANE, 0.4, 1.2)
        b = SurfaceGeometry(ROTO, swapped, 1.2, 0.4)
        assert float(jval(b.A)) == pytest.approx(-float(jval(a.A)), abs=1e-12)
        assert vec_values(b.f2) == pytest.approx(-vec_values(a.f2), abs=1e-12)
        assert vec_values(b.f3) == pytest.approx(vec_values(a.f3), abs=1e-12)


def f2cov(g):
    """The covector f^2 = x e^1 + y e^2; f^1 is `g.f1cov` and f^3 is `g.omega_s`."""
    return tuple(g.x * a + g.y * b for a, b in zip(g.cof1_s, g.cof2_s))


def x1_values(asm):
    """The unit normal X1 = cos(b) f1 - sin(b) e3 / sqrt(L), from the assembly's angles."""
    g = asm.geom
    e3_scaled = [c / np.sqrt(asm.L) for c in g.e3_s]
    return [asm.cosb * a - asm.sinb * b for a, b in zip(g.f1, e3_scaled)]


def beta(asm):
    return np.arctan2(jval(asm.sinb), jval(asm.cosb))


class TestLAdaptedFrame:
    """The L-adapted frame (X1, X2, X3) = (normal, f2, f3 / sqrt(L + A^2))
    that LFormAssembly reads: its angles and the values of X3."""

    def test_golden_beta(self):
        asm = LFormAssembly(SurfaceGeometry(HEIS, PLANE, 1.0, 0.0), 4.0)
        assert abs(float(jval(asm.sinb))) == pytest.approx(2.0 / np.sqrt(8.0), abs=1e-12)
        assert abs(float(beta(asm))) == pytest.approx(np.pi / 4, abs=1e-12)

    @pytest.mark.parametrize("L", [1.0, 25.0, 400.0])
    def test_gram_matrix_is_identity(self, L):
        u = np.array([1.0, 0.8, -1.3])
        v = np.array([0.1, -0.7, 0.6])
        g = SurfaceGeometry(HEIS, PLANE, u, v)
        asm = LFormAssembly(g, L)
        gl = metric_matrix(g.frame, L)
        frame = (x1_values(asm), g.f2, asm.X3_values())
        cols = np.stack([vec_values(x, u.shape) for x in frame], axis=1)
        gram = np.einsum("ain,abn,bjn->ijn", cols, gl, cols)
        expect = np.repeat(np.eye(3)[:, :, None], u.size, axis=2)
        assert np.max(np.abs(gram - expect)) <= 1e-10

    def test_normal_is_orthogonal_to_tangent_plane(self):
        u = np.array([0.9, 1.4])
        v = np.array([0.3, -0.5])
        g = SurfaceGeometry(ROTO, RPLANE, u, v + 1.2)
        asm = LFormAssembly(g, 30.0)
        gl = metric_matrix(g.frame, 30.0)
        x1 = vec_values(x1_values(asm), u.shape)
        for tangent in (g.Tu, g.Tv):
            t = vec_values(tangent, u.shape)
            pair = np.einsum("an,abn,bn->n", x1, gl, t)
            assert np.max(np.abs(pair)) <= 1e-10

    def test_dual_frame_relations(self):
        # dual covectors: X^1 = cos(b) f^1, X^2 = f^2, X^3 = sqrt(L + A^2) f^3 + sin(b) f^1
        g = SurfaceGeometry(HEIS, PLANE, np.array([1.1, -0.8]), np.array([0.5, 1.3]))
        asm = LFormAssembly(g, 9.0)
        frames = (x1_values(asm), g.f2, asm.X3_values())
        denom = 1.0 / asm.inv_denom
        covs = (tuple(asm.cosb * c for c in g.f1cov), f2cov(g),
                tuple(denom * a + asm.sinb * b for a, b in zip(g.omega_s, g.f1cov)))
        for i, cov in enumerate(covs):
            for j, vec in enumerate(frames):
                want = 1.0 if i == j else 0.0
                got = jval(pair_oneform(cov, vec))
                assert np.max(np.abs(got - want)) <= 1e-10, (i, j)
        # the normal covector vanishes on the tangent plane
        for tangent in (g.Tu, g.Tv):
            assert np.max(np.abs(jval(pair_oneform(covs[0], tangent)))) <= 1e-10

    def test_beta_shrinks_with_L(self):
        asm = LFormAssembly(SurfaceGeometry(HEIS, PLANE, 1.0, 0.0), 1e6)
        assert abs(float(beta(asm))) <= 2.1e-3
        assert float(jval(asm.cosb)) == pytest.approx(1.0, abs=1e-5)

    def test_beta_derivative_identity(self):
        # d(beta) = sqrt(L)/(L + A^2) dA, checked against finite differences
        L, u0, v0, h = 7.0, 1.1, 0.4, 1e-5

        def beta_at(u):
            return float(beta(LFormAssembly(SurfaceGeometry(HEIS, PLANE, u, v0), L)))

        fd = (beta_at(u0 + h) - beta_at(u0 - h)) / (2 * h)
        g = SurfaceGeometry(HEIS, PLANE, u0, v0)
        dA_du = g.A.derivative((1, 0))
        want = np.sqrt(L) / (L + float(jval(g.A)) ** 2) * float(dA_du)
        assert fd == pytest.approx(want, rel=1e-6)
        assert float(jval(LFormAssembly(g, L).dbeta.P)) == pytest.approx(want, rel=1e-12)

    def test_rejects_nonpositive_L(self):
        g = SurfaceGeometry(HEIS, PLANE, 1.0, 0.0)
        with pytest.raises(ValueError):
            LFormAssembly(g, -1.0)


class TestContinuity:
    def test_smooth_arc_passes(self):
        # consecutive f2 samples along a path of nearby regular points never
        # reverse direction, so the orientation rule does not flip
        t = np.linspace(0.0, 2 * np.pi, 64, endpoint=False)
        g = SurfaceGeometry(HEIS, PLANE, 1.5 * np.cos(t), 1.5 * np.sin(t))
        f2 = vec_values(g.f2, t.shape)
        assert np.all(np.sum(f2[:, 1:] * f2[:, :-1], axis=0) > 0.0)
