"""Contact frame construction: Reeb field, coframe, structure functions,
connection forms, and the Koszul cross-check.

Golden values were worked out by hand from the frame definitions: for the
Heisenberg pair the contact form is dz + (y/2)dx - (x/2)dy, the Reeb field
is the vertical direction and every structure function vanishes; for the
rototranslation pair the Reeb field is (sin z, -cos z, 0) and the single
nonzero structure function is a23_1 = 1 (its Minkowski analogue gives -1).
"""

from pathlib import Path

import numpy as np
import pytest

from srlab.calculus import bracket_jets, chart_seeds, d_oneform_jets, eval_twoform, pair_oneform
from srlab.calculus import jets as jets_module
from srlab.calculus.jets import Jet
from srlab.errors import DegenerateFrameError, NonContactError, UnknownModelError
from srlab.frame import (
    SF_KEYS,
    ConnectionFormsL,
    SubRiemannianModel,
    ensure_valid,
    koszul_connection_oracle,
    metric_matrix,
    scaled_form_deviation,
    validate_model,
)
from srlab.models import BUILTIN_FRAMES, builtin_model
from srlab.scenes import builtin_scene, load_scene
from srlab.surface import SurfaceGeometry

MODELS = sorted(BUILTIN_FRAMES)
# an inline-frame scene where every frame and surface component varies
DENSE_SCENE = Path(__file__).parent / "golden" / "dense_scene.json"


def rand_points(n, seed=7):
    rng = np.random.default_rng(seed)
    return rng.uniform(-2.0, 2.0, size=(3, n))


def frame_at(name, p):
    return builtin_model(name).frame(p)


def cval(x):
    return float(np.asarray(x.value if hasattr(x, "value") else x))


class TestContactForm:
    def test_heisenberg_components(self):
        fr = frame_at("heisenberg", (1.0, 0.0, 0.0))
        got = [float(np.asarray(c.value)) for c in fr.omega]
        assert got == pytest.approx([0.0, -0.5, 1.0], abs=1e-14)

    def test_rototranslation_components(self):
        fr = frame_at("rototranslation", (0.0, 0.0, 0.0))
        got = [float(np.asarray(c.value)) for c in fr.omega]
        assert got == pytest.approx([0.0, -1.0, 0.0], abs=1e-14)

    @pytest.mark.parametrize("name", MODELS)
    def test_annihilates_horizontal_frame(self, name):
        fr = frame_at(name, rand_points(25))
        for vec in (fr.e1, fr.e2):
            paired = sum(c.value * v.value for c, v in zip(fr.omega, vec))
            assert np.max(np.abs(np.asarray(paired))) <= 1e-13


class TestReebField:
    def test_heisenberg_vertical(self):
        fr = frame_at("heisenberg", rand_points(25))
        vals = [np.asarray(c.value) for c in fr.e3]
        assert np.max(np.abs(vals[0])) <= 1e-14
        assert np.max(np.abs(vals[1])) <= 1e-14
        assert np.max(np.abs(vals[2] - 1.0)) <= 1e-14

    def test_rototranslation_at_quarter_turn(self):
        fr = frame_at("rototranslation", (0.0, 0.0, np.pi / 2))
        got = [float(np.asarray(c.value)) for c in fr.e3]
        assert got == pytest.approx([1.0, 0.0, 0.0], abs=1e-14)

    def test_minkowski_at_zero(self):
        fr = frame_at("minkowski_rototranslation", (0.0, 0.0, 0.0))
        got = [float(np.asarray(c.value)) for c in fr.e3]
        assert got == pytest.approx([0.0, -1.0, 0.0], abs=1e-14)


class TestCoframe:
    def test_heisenberg_origin_is_standard(self):
        fr = frame_at("heisenberg", (0.0, 0.0, 0.0))
        rows = [[float(np.asarray(c.value)) for c in row] for row in fr.coframe]
        assert rows[0] == pytest.approx([1.0, 0.0, 0.0], abs=1e-14)
        assert rows[1] == pytest.approx([0.0, 1.0, 0.0], abs=1e-14)
        assert rows[2] == pytest.approx([0.0, 0.0, 1.0], abs=1e-14)

    def test_rototranslation_mixes_axes(self):
        fr = frame_at("rototranslation", (0.0, 0.0, 0.0))
        rows = [[float(np.asarray(c.value)) for c in row] for row in fr.coframe]
        assert rows[0] == pytest.approx([1.0, 0.0, 0.0], abs=1e-14)
        assert rows[1] == pytest.approx([0.0, 0.0, 1.0], abs=1e-14)
        assert rows[2] == pytest.approx([0.0, -1.0, 0.0], abs=1e-14)

    @pytest.mark.parametrize("name", MODELS)
    def test_duality(self, name):
        fr = frame_at(name, rand_points(25))
        for i, row in enumerate(fr.coframe):
            for j, vec in enumerate(fr.frames()):
                paired = sum(c.value * v.value for c, v in zip(row, vec))
                delta = 1.0 if i == j else 0.0
                assert np.max(np.abs(np.asarray(paired) - delta)) <= 1e-12


class TestStructureFunctions:
    ZERO_KEYS = ("a12_1", "a12_2", "a13_1", "a13_2", "a23_1", "a23_2")

    @pytest.mark.parametrize("name,a23_1", [
        ("heisenberg", 0.0),
        ("polarized_heisenberg", 0.0),
        ("rototranslation", 1.0),
        ("minkowski_rototranslation", -1.0),
    ])
    def test_builtin_tables(self, name, a23_1):
        sf = frame_at(name, rand_points(25)).sf_values()
        for key in self.ZERO_KEYS:
            expect = a23_1 if key == "a23_1" else 0.0
            assert np.max(np.abs(np.asarray(sf[key]) - expect)) <= 1e-12, key
        assert np.max(np.abs(np.asarray(sf["a12_3"]) - 1.0)) <= 1e-12
        assert np.max(np.abs(np.asarray(sf["a13_3"]))) <= 1e-12
        assert np.max(np.abs(np.asarray(sf["a23_3"]))) <= 1e-12

    @pytest.mark.parametrize("name", MODELS)
    def test_jacobi_identity_for_frame(self, name):
        from srlab.calculus import bracket_jets

        fr = frame_at(name, rand_points(10, seed=3))
        fields = fr.frames()

        def nested(a, b, c):
            return bracket_jets(a, bracket_jets(b, c))

        for i, j, k in ((0, 1, 2), (0, 2, 1)):
            total = None
            for u, v, w in ((i, j, k), (j, k, i), (k, i, j)):
                term = nested(fields[u], fields[v], fields[w])
                total = term if total is None else [x + y for x, y in zip(total, term)]
            worst = max(np.max(np.abs(np.asarray(t.value))) for t in total)
            assert worst <= 1e-8


class TestMetric:
    def test_heisenberg_origin_diagonal(self):
        fr = frame_at("heisenberg", (0.0, 0.0, 0.0))
        assert metric_matrix(fr, 9.0) == pytest.approx(np.diag([1.0, 1.0, 9.0]), abs=1e-14)
        assert metric_matrix(fr, 1.0) == pytest.approx(np.eye(3), abs=1e-14)

    @pytest.mark.parametrize("name", MODELS)
    @pytest.mark.parametrize("L", [1.0, 10.0, 100.0])
    def test_frame_is_orthonormal(self, name, L):
        pts = rand_points(20, seed=11)
        fr = frame_at(name, pts)
        g = metric_matrix(fr, L)
        cols = []
        for vec, scale in ((fr.e1, 1.0), (fr.e2, 1.0), (fr.e3, L ** -0.5)):
            cols.append(np.stack([
                np.broadcast_to(np.asarray(c.value) * scale, pts[0].shape) for c in vec
            ]))
        m = np.stack(cols, axis=1)          # (3 chart, 3 frame, n)
        gram = np.einsum("ain,abn,bjn->ijn", m, g, m)
        expect = np.repeat(np.eye(3)[:, :, None], pts.shape[1], axis=2)
        assert np.max(np.abs(gram - expect)) <= 1e-10

    def test_positive_definite(self):
        fr = frame_at("rototranslation", rand_points(20, seed=13))
        g = np.moveaxis(metric_matrix(fr, 50.0), -1, 0)
        assert np.min(np.linalg.eigvalsh(g)) > 0


class TestConnectionForms:
    def test_heisenberg_L4_closed_form(self):
        forms = ConnectionFormsL(frame_at("heisenberg", (0.3, -0.7, 0.2)), 4.0)

        def comp(i, j):
            return [cval(forms.coefficient(i, j, k)) for k in (1, 2, 3)]

        assert comp(1, 2) == pytest.approx([0.0, 0.0, -1.0], abs=1e-14)
        assert comp(1, 3) == pytest.approx([0.0, -1.0, 0.0], abs=1e-14)
        assert comp(2, 3) == pytest.approx([1.0, 0.0, 0.0], abs=1e-14)

    def test_rototranslation_L1_vertical_coefficient_cancels(self):
        forms = ConnectionFormsL(frame_at("rototranslation", (0.1, 0.2, 0.5)), 1.0)
        # (a23_1 - a13_2 - L)/(2 sqrt L) = (1 - 0 - 1)/2 = 0
        assert cval(forms.coefficient(1, 2, 3)) == pytest.approx(0.0, abs=1e-13)

    def test_antisymmetry_and_zero_diagonal(self):
        forms = ConnectionFormsL(frame_at("minkowski_rototranslation", rand_points(10)), 7.0)
        vals = forms.values()
        assert np.max(np.abs(vals + np.swapaxes(vals, 0, 1))) == 0.0

    def test_rejects_nonpositive_parameter(self):
        fr = frame_at("heisenberg", (0.0, 0.0, 0.0))
        with pytest.raises(ValueError):
            ConnectionFormsL(fr, 0.0)


class TestKoszulOracle:
    def test_heisenberg_L4(self):
        fr = frame_at("heisenberg", (1.1, -0.4, 0.6))
        forms = ConnectionFormsL(fr, 4.0)
        assert np.max(np.abs(forms.values() - koszul_connection_oracle(fr, 4.0))) <= 1e-9

    def test_rototranslation_L100(self):
        fr = frame_at("rototranslation", (0.3, -1.2, 0.7))
        forms = ConnectionFormsL(fr, 100.0)
        assert np.max(np.abs(forms.values() - koszul_connection_oracle(fr, 100.0))) <= 1e-8

    @pytest.mark.parametrize("name", MODELS)
    @pytest.mark.parametrize("L", [1.0, 10.0, 100.0])
    def test_builtins_agree(self, name, L):
        fr = frame_at(name, rand_points(20, seed=29))
        forms = ConnectionFormsL(fr, L)
        assert np.max(np.abs(forms.values() - koszul_connection_oracle(fr, L))) <= 1e-7

    def test_generic_inline_model(self):
        model = SubRiemannianModel.from_components(
            "perturbed", ("1", "0", "-y/2"), ("0", "1+0.1*x^2", "x/2")
        )
        rng = np.random.default_rng(41)
        fr = model.frame(rng.uniform(-1.0, 1.0, size=(3, 20)))
        for L in (1.0, 30.0):
            forms = ConnectionFormsL(fr, L)
            assert np.max(np.abs(forms.values() - koszul_connection_oracle(fr, L))) <= 1e-6


class TestScaledFormDeviation:
    @pytest.mark.parametrize("L", [1.0, 10.0, 100.0])
    def test_heisenberg_exactly_at_limit(self, L):
        dev = scaled_form_deviation(frame_at("heisenberg", (0.4, 1.3, -0.2)), L)
        assert dev["w12"] == 0.0

    def test_rototranslation_rate(self):
        fr = frame_at("rototranslation", (0.0, 0.0, 0.3))
        assert scaled_form_deviation(fr, 100.0)["w12"] == pytest.approx(0.005, rel=1e-10)
        assert scaled_form_deviation(fr, 10.0)["w12"] == pytest.approx(0.05, rel=1e-10)

    @pytest.mark.parametrize("name", MODELS)
    def test_nonincreasing_along_L(self, name):
        fr = frame_at(name, rand_points(15, seed=17))
        for key in ("w12", "w13", "w23"):
            devs = [scaled_form_deviation(fr, L)[key] for L in (10.0, 100.0, 1000.0, 10000.0)]
            assert all(a >= b - 1e-15 for a, b in zip(devs, devs[1:]))


class TestValidation:
    @pytest.mark.parametrize("name", MODELS)
    def test_builtins_pass_100_points(self, name):
        report = ensure_valid(builtin_model(name), rand_points(100, seed=19))
        assert all(entry["passed"] for entry in report.values())

    def test_degenerate_frame(self):
        model = SubRiemannianModel.from_components("bad", ("1", "0", "0"), ("2", "0", "0"))
        with pytest.raises(DegenerateFrameError):
            validate_model(model, rand_points(10))

    def test_integrable_distribution_is_not_contact(self):
        model = SubRiemannianModel.from_components("flat", ("1", "0", "0"), ("0", "1", "0"))
        with pytest.raises(NonContactError):
            validate_model(model, rand_points(10))

    def test_unknown_model_lists_choices(self):
        with pytest.raises(UnknownModelError, match="heisenberg"):
            builtin_model("nope")


def cross(a, b):
    return (
        a[1] * b[2] - a[2] * b[1],
        a[2] * b[0] - a[0] * b[2],
        a[0] * b[1] - a[1] * b[0],
    )


def full_order_frame(model, point, order):
    """The frame formulas on untruncated operands: each product cuts its
    operands to the lower order itself, and every division inverts anew."""
    seeds = chart_seeds(point, order)
    e1, e2 = model.e1.jets(seeds), model.e2.jets(seeds)
    raw = cross(e1, e2)
    tau = eval_twoform(d_oneform_jets(raw), e1, e2)
    omega = tuple((-1.0 / tau) * c for c in raw)
    w = bracket_jets(e1, e2)
    d_omega = d_oneform_jets(omega)
    p = -eval_twoform(d_omega, w, e2)
    q = eval_twoform(d_omega, w, e1)
    e3 = [w[i] - p * e1[i] - q * e2[i] for i in range(3)]
    det = pair_oneform(cross(e2, e3), e1)
    coframe = (tuple(c / det for c in cross(e2, e3)),
               tuple(c / det for c in cross(e3, e1)), omega)
    sf = {}
    for tag, vec in (("a12", w), ("a13", bracket_jets(e1, e3)), ("a23", bracket_jets(e2, e3))):
        for k in range(3):
            sf[f"{tag}_{k + 1}"] = pair_oneform(coframe[k], vec)
    return {"e1": e1, "e2": e2, "e3": e3, "tau": [tau], "omega": omega,
            "cof1": coframe[0], "cof2": coframe[1], "sf": [sf[k] for k in SF_KEYS]}


def jet_bits(jet):
    return jet.order, [(np.shape(c), np.asarray(c).tobytes()) for c in jet.coef]


def frame_models():
    return {"dense": load_scene(DENSE_SCENE).model,
            "rt_disk": builtin_scene("rt_disk").model,
            "heisenberg_annulus": builtin_scene("heisenberg_annulus").model}


FRAME_POINTS = (np.array([0.39, -1.16, 0.8]), np.array([1.13, 0.31, -0.9]),
                np.array([0.03, -0.17, 0.4]))


class TestFrameOrders:
    """Each frame quantity is built to the order its readers take, with no
    jet operation between two orders, and is bitwise the truncation of the
    full-order formula."""

    # FrameData field -> orders below the chart order K
    DROP = {"e1": 0, "e2": 0, "tau": 1, "omega": 1, "e3": 2, "cof1": 2, "cof2": 2, "sf": 3}

    @staticmethod
    def fields(fr):
        return {"e1": fr.e1, "e2": fr.e2, "e3": fr.e3, "tau": [fr.tau], "omega": fr.omega,
                "cof1": fr.coframe[0], "cof2": fr.coframe[1],
                "sf": [fr.sf[k] for k in SF_KEYS]}

    @pytest.mark.parametrize("name", ["dense", "rt_disk", "heisenberg_annulus"])
    @pytest.mark.parametrize("order", [3, 4])
    def test_orders_and_bits_match_the_full_order_formula(self, name, order):
        model = frame_models()[name]
        got = self.fields(model.frame(FRAME_POINTS, order=order))
        want = full_order_frame(model, FRAME_POINTS, order)
        for key, jets in got.items():
            k = order - self.DROP[key]
            assert len(jets) == len(want[key])
            for jet, ref in zip(jets, want[key]):
                assert jet.order == k, key
                assert ref.order >= k, key
                assert jet_bits(jet) == jet_bits(ref.truncate(k)), key

    @staticmethod
    def record_meta(monkeypatch):
        """Jet-jet operations as (order, other order) pairs, from now on."""
        calls = []
        meta = Jet._meta

        def recording(self, other):
            if isinstance(other, Jet):
                calls.append((self.order, other.order))
            return meta(self, other)

        monkeypatch.setattr(Jet, "_meta", recording)
        return calls

    @pytest.mark.parametrize("name", ["dense", "rt_disk", "heisenberg_annulus"])
    def test_no_operation_meets_two_orders(self, name, monkeypatch):
        model = frame_models()[name]
        calls = self.record_meta(monkeypatch)
        model.frame(FRAME_POINTS, order=4)
        assert calls and all(a == b for a, b in calls)
        full_order_frame(model, FRAME_POINTS, 4)
        # the wrapper does see the full-order formula's truncations
        assert any(a != b for a, b in calls)

    @pytest.mark.parametrize("order", [2, 3])
    def test_surface_geometry_meets_no_two_orders(self, order, monkeypatch):
        scene = load_scene(DENSE_SCENE)
        calls = self.record_meta(monkeypatch)
        SurfaceGeometry(scene.model, scene.patch, np.array([0.3, -1.2]), np.array([1.1, 0.4]),
                        order)
        assert calls and all(a == b for a, b in calls)

    def test_one_reciprocal_per_divisor(self, monkeypatch):
        # tau (chart order 3) and det (2) in the frame; |t| and the normal
        # pairing (surface order 2) in the adapted frame
        scene = load_scene(DENSE_SCENE)
        calls = []
        reciprocal = jets_module._reciprocal
        monkeypatch.setattr(jets_module, "_reciprocal",
                            lambda u: calls.append(u.order) or reciprocal(u))
        SurfaceGeometry(scene.model, scene.patch, np.array([0.3, -1.2]), np.array([1.1, 0.4]), 3)
        assert sorted(calls) == [2, 2, 2, 3]

    @pytest.mark.parametrize("order", [0, 1, 2])
    def test_low_order_names_the_frame(self, order):
        with pytest.raises(ValueError, match=f"chart frame needs order 3 .*got order {order}"):
            builtin_model("heisenberg").frame((0.1, 0.2, 0.3), order=order)
