"""Scene file loading, schema validation, and round-trip tests."""

import dataclasses
import json
import math
import operator
from importlib import resources

import pytest

from srlab import frame
from srlab import scenes as sc
from srlab.calculus.expr import MAX_NESTING, MAX_OPERATORS
from srlab.errors import ImmersionError, SceneError
from srlab.frame import SubRiemannianModel
from srlab.measures import (MAX_CURVE_NODES, MAX_REGION_NODES, QuadratureSpec,
                            gauss_bonnet_residual)

TWO_PI = 2.0 * math.pi


def annulus_config():
    return {
        "model": {"builtin": "heisenberg"},
        "surface": {
            "phi": ["u", "v", "0"],
            "domain": {"u": [-3.0, 3.0], "v": [-3.0, 3.0]},
        },
        "region": {
            "type": "annulus",
            "center": [0.0, 0.0],
            "radii": [1.0, 2.0],
            "euler_characteristic": 0,
        },
        "boundary": [
            {"curve": ["2*cos(t)", "2*sin(t)"], "t": [0.0, TWO_PI]},
            {"curve": ["cos(-t)", "sin(-t)"], "t": [0.0, TWO_PI]},
        ],
    }


def count_calls(monkeypatch, owner, attr) -> list:
    """Replace owner.attr by a wrapper that appends to the returned list."""
    calls = []
    orig = getattr(owner, attr)

    def counted(*args, **kwargs):
        calls.append(attr)
        return orig(*args, **kwargs)

    monkeypatch.setattr(owner, attr, counted)
    return calls


class TestBuiltinScenes:
    @pytest.mark.parametrize("name", sc.BUILTIN_SCENES)
    def test_loads_and_validates(self, name):
        scene = sc.builtin_scene(name)
        assert scene.name == name
        assert scene.quadrature == QuadratureSpec()
        assert scene.L_grid == (100.0, 1000.0, 10000.0)

    def test_annulus_shape(self):
        scene = sc.builtin_scene("heisenberg_annulus")
        assert scene.region.kind == "annulus"
        assert scene.region.chi == 0
        assert len(scene.boundary) == 2

    def test_disk_shape(self):
        scene = sc.builtin_scene("rt_disk")
        assert scene.region.kind == "disk"
        assert scene.region.chi == 1
        assert len(scene.boundary) == 1
        assert scene.region.center == (0.0, 1.5)

    def test_unknown_builtin(self):
        with pytest.raises(SceneError, match="shipped scenes"):
            sc.builtin_scene("nope")


class TestBuiltinMemo:
    """A shipped scene is validated once per process; a scene file on every call."""

    @pytest.mark.usefixtures("fresh_builtin_scenes")
    @pytest.mark.parametrize("name", sc.BUILTIN_SCENES)
    def test_second_load_builds_no_frame(self, monkeypatch, name):
        frames = count_calls(monkeypatch, SubRiemannianModel, "frame")
        first = sc.builtin_scene(name)
        second = sc.resolve_scene(name)
        assert len(frames) == 1
        assert second is first

    @pytest.mark.parametrize("edit", [
        lambda s: operator.setitem(s.tolerances, "residual", 1.0),
        lambda s: operator.delitem(s.tolerances, "residual"),
        lambda s: operator.setitem(s.patch.domain, "v", (-9.0, 9.0)),
        lambda s: operator.delitem(s.patch.domain, "u"),
    ])
    def test_edits_are_refused(self, edit):
        scene = sc.builtin_scene("rt_disk")
        with pytest.raises(TypeError):
            edit(scene)
        assert sc.builtin_scene("rt_disk") is scene
        assert scene.tolerances == {"residual": 1e-06}

    def test_file_scene_is_reread_and_revalidated(self, monkeypatch, tmp_path):
        path = tmp_path / "edited.json"
        cfg = annulus_config()
        path.write_text(json.dumps(cfg), encoding="utf-8")
        frames = count_calls(monkeypatch, SubRiemannianModel, "frame")
        assert sc.resolve_scene(str(path)).L_grid == ()
        cfg["L_grid"] = [10.0]
        path.write_text(json.dumps(cfg), encoding="utf-8")
        assert sc.resolve_scene(str(path)).L_grid == (10.0,)
        cfg["model"] = {"frame": {"e1": ["1", "0", "0"], "e2": ["0", "1", "0"]}}
        path.write_text(json.dumps(cfg), encoding="utf-8")
        with pytest.raises(SceneError, match=r"\$\.model"):
            sc.resolve_scene(str(path))
        assert len(frames) == 3     # one scan per call


class TestRoundTrip:
    @pytest.mark.parametrize("name", sc.BUILTIN_SCENES)
    def test_packaged_file_loads_as_the_shipped_scene(self, name):
        path = resources.files("srlab").joinpath("scenes", f"{name}.json")
        assert sc.load_scene(str(path)) == sc.builtin_scene(name)

    def test_load_from_config_dict(self):
        scene = sc.scene_from_config(annulus_config(), name="adhoc")
        assert scene.name == "adhoc"
        assert scene.region.chi == 0

    def test_resolve_by_name_and_path(self, tmp_path):
        assert sc.resolve_scene("rt_disk").name == "rt_disk"
        path = tmp_path / "own.json"
        with open(path, "w") as fh:
            json.dump(annulus_config(), fh)
        assert sc.resolve_scene(str(path)).name == "own"
        with pytest.raises(SceneError, match="no scene named"):
            sc.resolve_scene("missing_scene")

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(SceneError, match="invalid JSON"):
            sc.load_scene(path)


class TestSchemaErrors:
    """Every schema violation names the offending field path."""

    def check(self, mutate, fragment):
        cfg = annulus_config()
        mutate(cfg)
        with pytest.raises(SceneError) as err:
            sc.scene_from_config(cfg)
        assert fragment in str(err.value)

    def test_missing_surface(self):
        self.check(lambda c: c.pop("surface"), "$.surface")

    def test_missing_model(self):
        self.check(lambda c: c.pop("model"), "$.model")

    def test_unknown_top_level_key(self):
        self.check(lambda c: c.update(extra=1), "unknown fields: extra")

    def test_unknown_model(self):
        self.check(lambda c: c["model"].update(builtin="nope"), "$.model.builtin")

    def test_model_needs_builtin_or_frame(self):
        self.check(lambda c: c.update(model={}), "$.model")

    def test_phi_arity(self):
        self.check(lambda c: c["surface"].update(phi=["u", "v"]), "$.surface.phi")

    def test_phi_parse_error(self):
        self.check(lambda c: c["surface"].update(phi=["u", "v", "1 +"]), "$.surface.phi")
        # past the nesting or tree-height bound, before the parser or the
        # evaluator runs out of Python's recursion limit
        for deep in ("(" * 300 + "0" + ")" * 300, "-" * 1500 + "0", "+".join(["0"] * 3000)):
            self.check(lambda c: c["surface"].update(phi=["u", "v", deep]), "$.surface.phi")

    def test_expressions_at_the_bounds_load(self):
        nesting = MAX_NESTING - 1       # the top level is one level too
        longest_sum = "+".join(["0"] * (MAX_OPERATORS + 1))
        for text in ("(" * nesting + "0" + ")" * nesting, "-" * nesting + "0",
                     "1^" * nesting + "0", longest_sum,
                     # the evaluator's deepest recursion: both bounds at once
                     "sin(" * nesting + longest_sum + ")" * nesting):
            cfg = annulus_config()
            cfg["surface"]["phi"][2] = text
            assert sc.scene_from_config(cfg).region.chi == 0

    def test_missing_domain(self):
        self.check(lambda c: c["surface"].pop("domain"), "$.surface.domain")

    def test_empty_domain_interval(self):
        self.check(lambda c: c["surface"]["domain"].update(u=[2.0, 2.0]),
                   "$.surface.domain.u")

    def test_unknown_region_type(self):
        self.check(lambda c: c["region"].update(type="blob"), "$.region.type")

    def test_chi_mismatch(self):
        self.check(lambda c: c["region"].update(euler_characteristic=1),
                   "$.region.euler_characteristic")

    def test_chi_must_be_integer(self):
        self.check(lambda c: c["region"].update(euler_characteristic=0.5),
                   "$.region.euler_characteristic")

    def test_bad_radii(self):
        self.check(lambda c: c["region"].update(radii=[2.0, 1.0]), "$.region")
        # an integer past the float range
        self.check(lambda c: c["region"].update(radii=[1.0, 10 ** 400]), "$.region.radii[1]")

    def test_curve_arity(self):
        self.check(lambda c: c["boundary"][0].update(curve=["cos(t)"]),
                   "$.boundary[0].curve")

    def test_curve_interval(self):
        self.check(lambda c: c["boundary"][1].update(t=[1.0, 1.0]),
                   "$.boundary[1].t")

    def test_curve_expression_not_string(self):
        self.check(lambda c: c["boundary"][0].update(curve=["cos(t)", 3]),
                   "$.boundary[0].curve[1]")

    def test_unknown_boundary_key(self):
        self.check(lambda c: c["boundary"][0].update(reverse=True), "$.boundary[0]")

    def test_bad_quadrature(self):
        self.check(lambda c: c.update(quadrature={"order": 1}), "$.quadrature")
        self.check(lambda c: c.update(quadrature={"nodes": 4}), "$.quadrature")

    def test_bad_tolerance(self):
        self.check(lambda c: c.update(tolerances={"residual": 0.0}),
                   "$.tolerances.residual")
        # a misspelt key would otherwise drop the residual gate without a word
        self.check(lambda c: c.update(tolerances={"residul": 1e-6}),
                   "unknown fields: residul (scene field $.tolerances)")
        self.check(lambda c: c.update(tolerances={"residual": 10 ** 400}),
                   "expected a finite number (scene field $.tolerances.residual)")

    def test_bad_L_grid(self):
        self.check(lambda c: c.update(L_grid=[100.0, -1.0]), "$.L_grid[1]")
        self.check(lambda c: c.update(L_grid=[-10 ** 400]), "$.L_grid[0]")


class TestCrossValidation:
    def test_region_outside_domain(self):
        cfg = annulus_config()
        cfg["surface"]["domain"]["u"] = [-1.5, 1.5]
        with pytest.raises(SceneError, match="outside the surface domain"):
            sc.scene_from_config(cfg)

    def test_characteristic_region(self):
        cfg = annulus_config()
        cfg["region"] = {"type": "disk", "center": [0.0, 0.0], "radius": 1.0,
                         "euler_characteristic": 1}
        cfg["boundary"] = [{"curve": ["cos(t)", "sin(t)"], "t": [0.0, TWO_PI]}]
        with pytest.raises(SceneError, match="characteristic"):
            sc.scene_from_config(cfg)

    def test_degenerate_parametrization(self):
        cfg = annulus_config()
        cfg["surface"]["phi"] = ["u", "u", "0"]
        with pytest.raises(ImmersionError):
            sc.scene_from_config(cfg)

    def test_boundary_off_region_edge(self):
        cfg = annulus_config()
        cfg["boundary"][0]["curve"] = ["1.9*cos(t)", "1.9*sin(t)"]
        with pytest.raises(SceneError, match=r"\$.boundary\[0\]"):
            sc.scene_from_config(cfg)

    def test_orientation_note_accepted(self):
        cfg = annulus_config()
        cfg["boundary"][0]["orientation"] = "outer, counterclockwise"
        scene = sc.scene_from_config(cfg)
        assert len(scene.boundary) == 2

    def test_inline_frame_model(self):
        cfg = annulus_config()
        cfg["model"] = {"frame": {
            "e1": ["1", "0", "-y/2"],
            "e2": ["0", "1", "x/2"],
        }}
        scene = sc.scene_from_config(cfg)
        assert scene.region.chi == 0

    def test_failed_frame_checks_are_each_named(self, monkeypatch):
        monkeypatch.setattr(frame, "REEB_TOL", -1.0)
        with pytest.raises(SceneError) as err:
            sc.scene_from_config(annulus_config())
        assert err.value.path == "$.model"
        assert str(err.value).startswith("model failed frame checks: ")
        for key in ("reeb_pairing", "reeb_contraction", "contact_normalization"):
            assert f"{key} (" in str(err.value)

    def test_inline_frame_must_satisfy_contact_condition(self):
        cfg = annulus_config()
        cfg["model"] = {"frame": {
            "e1": ["1", "0", "0"],
            "e2": ["0", "1", "0"],
        }}
        with pytest.raises(SceneError, match=r"\$\.model"):
            sc.scene_from_config(cfg)


class TestScaleRange:
    """The Heisenberg annulus rescaled by s: e1 = (s, 0, -y/2), e2 = (0, s, x/2)
    and phi = s (u, v, 0). The contact form scales, tau = -s^3, but the limit
    area does not. The absolute floors (contact 1e-12, transversality 1e-14)
    leave the scene loadable from s = 1e-4 to 1e4; at s = 3e-5, |tau| =
    2.7e-14 fails the contact floor at `$.model`."""

    QUAD = QuadratureSpec(order=6, cells=(3, 3), segments=12, max_refine=2)

    @staticmethod
    def scaled(s: float):
        cfg = annulus_config()
        cfg["model"] = {"frame": {"e1": [repr(s), "0", "-y/2"], "e2": ["0", repr(s), "x/2"]}}
        cfg["surface"]["phi"] = [f"{s!r}*u", f"{s!r}*v", "0"]
        return dataclasses.replace(sc.scene_from_config(cfg), quadrature=TestScaleRange.QUAD)

    @pytest.mark.parametrize("s", [1e-3, 1e-2, 1e2, 1e4])
    def test_limit_area_is_scale_free(self, s):
        unit = gauss_bonnet_residual(self.scaled(1.0))
        report = gauss_bonnet_residual(self.scaled(s))
        assert unit.area.value == pytest.approx(-TWO_PI, rel=1e-12)
        assert report.area.value == pytest.approx(unit.area.value, rel=1e-12)
        assert abs(report.residual) <= 1e-12


class TestOneScan:
    @pytest.mark.usefixtures("fresh_builtin_scenes")
    @pytest.mark.parametrize("name", sc.BUILTIN_SCENES)
    def test_load_builds_one_chart_frame(self, monkeypatch, name):
        frames = count_calls(monkeypatch, SubRiemannianModel, "frame")
        sc.builtin_scene(name)
        assert len(frames) == 1

    def test_graph_surface_loads(self):
        cfg = annulus_config()
        cfg["surface"]["phi"] = ["u", "v", "0.1*u*v"]
        scene = sc.scene_from_config(cfg)
        assert scene.region.chi == 0

    def test_immersion_checked_before_model(self):
        cfg = annulus_config()
        cfg["surface"]["phi"] = ["u", "u", "0"]
        cfg["model"] = {"frame": {"e1": ["1", "0", "0"], "e2": ["0", "1", "0"]}}
        with pytest.raises(ImmersionError):
            sc.scene_from_config(cfg)

    def test_zero_area_annulus_rejected(self):
        cfg = annulus_config()
        cfg["region"]["radii"] = [1.5, 1.5]
        with pytest.raises(SceneError, match="zero area") as err:
            sc.scene_from_config(cfg)
        assert err.value.path == "$.region"


class TestLGrid:
    def test_grid_over_the_cap_rejected(self):
        cfg = annulus_config()
        cfg["L_grid"] = [100.0] * (sc.MAX_L_VALUES + 1)
        with pytest.raises(SceneError, match="at most 64 L values") as err:
            sc.scene_from_config(cfg)
        assert err.value.path == "$.L_grid"
        cfg["L_grid"] = [100.0] * sc.MAX_L_VALUES
        assert len(sc.scene_from_config(cfg).L_grid) == sc.MAX_L_VALUES


class TestQuadratureSettings:
    @pytest.mark.parametrize("quad, path", [
        ({"order": 2.5}, "$.quadrature.order"),
        ({"max_refine": 1.5}, "$.quadrature.max_refine"),
        ({"segments": True}, "$.quadrature.segments"),
        ({"cells": [1.5, 2]}, "$.quadrature.cells[0]"),
        ({"cells": [2, False]}, "$.quadrature.cells[1]"),
        ({"cells": [2, 2, 2]}, "$.quadrature.cells"),
        ({"rel_tol": float("nan")}, "$.quadrature.rel_tol"),
        ({"rel_tol": 0.0}, "$.quadrature"),
        ({"order": 1}, "$.quadrature"),
        ({"rel_tol": "1e-8"}, "$.quadrature.rel_tol"),
        # 12 region nodes over MAX_REGION_NODES, at level 0 and through a refinement
        ({"order": 2, "cells": [3, 699051], "max_refine": 0}, "$.quadrature"),
        ({"order": 2, "cells": [1, 419431], "max_refine": 1}, "$.quadrature"),
        # curve nodes over MAX_CURVE_NODES: by one segment, and by far
        ({"order": 16, "segments": 4370}, "$.quadrature"),
        ({"segments": 10 ** 9}, "$.quadrature"),
        # an integer past the float range
        ({"rel_tol": 10 ** 400}, "$.quadrature.rel_tol"),
    ])
    def test_rejected_at_field_path(self, quad, path):
        cfg = annulus_config()
        cfg["quadrature"] = quad
        with pytest.raises(SceneError) as err:
            sc.scene_from_config(cfg)
        assert err.value.path == path

    def test_region_node_budget(self):
        # the check needs no quadrature run, so settings at the budget are cheap to load
        assert MAX_REGION_NODES == 2 ** 23
        at_budget = {"order": 2, "cells": [1, 2 ** 21], "max_refine": 0}
        cfg = annulus_config()
        cfg["quadrature"] = at_budget
        assert sc.scene_from_config(cfg).quadrature.cells == (1, 2 ** 21)
        QuadratureSpec(order=2, cells=(1, 419430), max_refine=1)    # 8388600 nodes
        QuadratureSpec(max_refine=4)
        with pytest.raises(ValueError, match="more than 8388608 nodes"):
            QuadratureSpec(max_refine=5)

    def test_curve_node_budget(self):
        # 64 segments x 16 nodes over levels 0..3 is 15360 per curve; the
        # check runs on the settings alone, so no node is ever built
        assert MAX_CURVE_NODES == 2 ** 20
        assert QuadratureSpec().segments * 16 * (1 + 2 + 4 + 8) == 15360
        QuadratureSpec(segments=4369)                               # 1048560 nodes
        QuadratureSpec(order=2, segments=2 ** 19, max_refine=0)     # exactly the cap
        with pytest.raises(ValueError, match="more than 1048576 nodes per curve"):
            QuadratureSpec(segments=4370)                           # 1048800 nodes
        with pytest.raises(ValueError, match="more than 1048576 nodes per curve"):
            QuadratureSpec(order=2, segments=2 ** 19 + 1, max_refine=0)
        cfg = annulus_config()
        cfg["quadrature"] = {"order": 2, "segments": 2 ** 19, "max_refine": 0}
        assert sc.scene_from_config(cfg).quadrature.segments == 2 ** 19

    def test_integer_settings_load(self):
        cfg = annulus_config()
        cfg["quadrature"] = {"order": 8, "cells": [2, 3], "segments": 16,
                             "max_refine": 0, "rel_tol": 1}
        assert sc.scene_from_config(cfg).quadrature == QuadratureSpec(
            order=8, cells=(2, 3), segments=16, max_refine=0, rel_tol=1.0)
