"""Command-line interface tests: outputs, determinism, and exit codes."""

import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import shipped_config
from srlab import cli
from srlab import curvature as cv
from srlab import frame
from srlab import measures as ms
from srlab import scenes as sc
from srlab.curvature import CurveGeometry
from srlab.errors import SamplingError
from srlab.frame import SubRiemannianModel
from srlab.measures import Region
from srlab.surface import SurfaceGeometry

GOLDEN = Path(__file__).parent / "golden"
DENSE_SCENE = str(GOLDEN / "dense_scene.json")
# stdout digests and exit codes of recorded CLI calls on the shipped scenes
REFERENCE = Path(__file__).resolve().parents[1] / "perfbench" / "reference.json"


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestValidate:
    @pytest.mark.parametrize("name", ["heisenberg_annulus", "rt_disk"])
    def test_builtin_scenes_pass(self, capsys, name):
        code, out, err = run(capsys, "validate", "--scene", name)
        assert code == 0
        assert "validation: ok" in out
        assert "FAIL" not in out
        assert err == ""

    def test_contact_residual_reported(self, capsys):
        code, out, _ = run(capsys, "validate", "--scene", "heisenberg_annulus")
        assert code == 0
        assert "contact_normalization: max 0.0" in out
        assert "structure_trace: max 0.0" in out
        assert "a12_3: (1.0, 1.0)" in out

    def test_deterministic_output(self, capsys):
        _, first, _ = run(capsys, "validate", "--scene", "rt_disk")
        _, second, _ = run(capsys, "validate", "--scene", "rt_disk")
        assert first == second

    def test_unknown_scene(self, capsys):
        code, _, err = run(capsys, "validate", "--scene", "missing")
        assert code == 3
        assert "no scene named" in err

    def test_unwritable_out_exits_3(self, capsys, tmp_path):
        code, out, err = run(capsys, "validate", "--scene", "rt_disk", "--out", str(tmp_path))
        assert code == 3 and out == ""
        assert err.startswith("error: ") and str(tmp_path) in err

    def test_failed_model_checks_print_fail_lines(self, capsys, monkeypatch):
        sc.builtin_scene("rt_disk")             # validated before the checks tighten
        monkeypatch.setattr(frame, "REEB_TOL", -1.0)
        code, out, err = run(capsys, "validate", "--scene", "rt_disk")
        assert code == 3 and err == ""
        fail_lines = [line for line in out.splitlines() if line.endswith(": FAIL")]
        failed = ["reeb_pairing", "reeb_contraction", "contact_normalization"]
        assert [line.split(":")[0].strip() for line in fail_lines] == failed
        assert all("(tolerance -1.0)" in line for line in fail_lines)
        assert out.endswith(f"validation: FAILED {', '.join(failed)}\n")


def write_scene(tmp_path, mutate, base="heisenberg_annulus"):
    cfg = shipped_config(base)
    mutate(cfg)
    path = tmp_path / "scene.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    return str(path)


class TestGoldenOutputs:
    """CLI stdout, byte for byte, as recorded in tests/golden.

    The shipped scenes are mostly structural zeros, where a coefficient
    built to the wrong order can hide; dense_scene.json, an inline frame
    and surface where every component varies, leaves it nowhere to hide.
    """

    @pytest.mark.parametrize("name, argv", [
        ("validate_rt_disk", ["validate", "--scene", "rt_disk"]),
        ("validate_heisenberg_annulus", ["validate", "--scene", "heisenberg_annulus"]),
        ("frame_report_rt_disk",
         ["frame-report", "--scene", "rt_disk", "--uv", "0.2,1.3", "--L", "100"]),
        ("frame_report_heisenberg_annulus",
         ["frame-report", "--scene", "heisenberg_annulus", "--uv", "1.5,-0.4", "--L", "10"]),
        ("validate_dense_scene", ["validate", "--scene", DENSE_SCENE]),
        ("frame_report_dense_scene",
         ["frame-report", "--scene", DENSE_SCENE, "--uv", "0.3,1.1", "--L", "100"]),
        ("curvature_dense_scene",
         ["curvature", "--scene", DENSE_SCENE, "--uv", "0.3,1.1", "--L", "100"]),
        ("oracle_check_dense_scene",
         ["oracle-check", "--scene", DENSE_SCENE, "--samples", "3", "--seed", "5",
          "--L", "1,10,100"]),
        ("gauss_bonnet_dense_scene", ["gauss-bonnet", "--scene", DENSE_SCENE]),
    ])
    def test_stdout_matches_golden(self, capsys, name, argv):
        code, out, err = run(capsys, *argv)
        assert code == 0 and err == ""
        assert out == (GOLDEN / f"{name}.txt").read_text(encoding="utf-8")


class TestValidateScan:
    def test_graph_surface_validates(self, capsys, tmp_path):
        def graph(cfg):
            cfg["surface"]["phi"] = ["u", "v", "0.1*u*v"]
        code, out, err = run(capsys, "validate", "--scene", write_scene(tmp_path, graph))
        assert code == 0, err
        assert "validation: ok" in out

    @pytest.mark.usefixtures("fresh_builtin_scenes")
    def test_builds_two_frames_and_no_geometry(self, capsys, monkeypatch):
        def counted(cls, attr):
            calls = []
            orig = getattr(cls, attr)
            monkeypatch.setattr(cls, attr, lambda *a, **k: calls.append(1) or orig(*a, **k))
            return calls

        frames = counted(SubRiemannianModel, "frame")
        geometries = counted(SurfaceGeometry, "__init__")
        code, _, _ = run(capsys, "validate", "--scene", "rt_disk")
        assert code == 0
        assert (len(frames), len(geometries)) == (2, 0)

    def test_non_integer_quadrature_is_validation_error(self, capsys, tmp_path):
        def fractional(cfg):
            cfg["quadrature"]["order"] = 2.5
        code, out, err = run(capsys, "gauss-bonnet", "--scene", write_scene(tmp_path, fractional))
        assert code == 3 and out == ""
        assert "$.quadrature.order" in err

    def test_misspelt_tolerance_key_is_validation_error(self, capsys, tmp_path):
        def misspelt(cfg):
            cfg["tolerances"] = {"residul": 1e-6}
        path = write_scene(tmp_path, misspelt, "rt_disk")
        code, out, err = run(capsys, "gauss-bonnet", "--scene", path, "--L", "100")
        assert code == 3 and out == ""
        assert "$.tolerances" in err and "residul" in err

    def test_curve_node_budget_is_validation_error(self, capsys, tmp_path):
        def huge(cfg):
            cfg["quadrature"]["segments"] = 10 ** 9
        code, out, err = run(capsys, "gauss-bonnet", "--scene", write_scene(tmp_path, huge))
        assert code == 3 and out == ""
        assert "$.quadrature" in err and "nodes per curve" in err


class TestThinRegions:
    def test_sampler_gives_up_on_zero_width(self):
        region = Region.annulus((0.0, 0.0), (1.5, 1.5 + 1e-12))
        with pytest.raises(SamplingError, match="too thin"):
            cli._sample_region_points(region, 3, np.random.default_rng(0))

    def test_oracle_check_on_too_thin_annulus_exits_4(self, capsys, tmp_path):
        def thin(cfg):
            cfg["region"]["radii"] = [1.5, 1.5005]
            cfg["boundary"][0]["curve"] = ["1.5005*cos(t)", "1.5005*sin(t)"]
            cfg["boundary"][1]["curve"] = ["1.5*cos(-t)", "1.5*sin(-t)"]
        code, out, err = run(capsys, "oracle-check", "--scene", write_scene(tmp_path, thin))
        assert code == 4 and out == ""
        assert "too thin" in err

    def test_zero_width_annulus_is_rejected_at_load(self, capsys, tmp_path):
        def zero(cfg):
            cfg["region"]["radii"] = [1.5, 1.5]
        code, _, err = run(capsys, "oracle-check", "--scene", write_scene(tmp_path, zero))
        assert code == 3
        assert "$.region" in err


class TestFrameReport:
    def test_rototranslation_point(self, capsys):
        code, out, _ = run(capsys, "frame-report", "--scene", "rt_disk",
                           "--uv", "0.2,1.3", "--L", "100")
        assert code == 0
        assert "contact factor tau: -1.0" in out
        assert "a23_1: 1.0" in out
        assert "w12:" in out and "w23:" in out

    def test_bad_uv(self, capsys):
        code, _, err = run(capsys, "frame-report", "--scene", "rt_disk", "--uv", "0.2")
        assert code == 2
        assert "--uv" in err


class TestCurvature:
    def test_decomposition_identity(self, capsys):
        code, out, _ = run(capsys, "curvature", "--scene", "rt_disk",
                           "--uv", "0.2,1.3", "--L", "100")
        assert code == 0
        assert "identity residual: 0.0" in out
        assert "K (limit): 1.0" in out

    def test_characteristic_point_is_numerical_error(self, capsys):
        code, _, err = run(capsys, "curvature", "--scene", "heisenberg_annulus",
                           "--uv", "0,0", "--L", "10")
        assert code == 4
        assert "characteristic" in err


class TestSweep:
    def test_K_sweep_csv(self, capsys):
        code, out, _ = run(capsys, "sweep", "--scene", "rt_disk",
                           "--L", "1e2,1e3,1e4", "--quantity", "K", "--uv", "0.2,1.3")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "L,K_L,K_limit,abs_gap"
        gaps = [float(line.split(",")[3]) for line in lines[1:]]
        assert gaps[0] > gaps[1] > gaps[2]

    def test_kn_sweep(self, capsys):
        code, out, _ = run(capsys, "sweep", "--scene", "heisenberg_annulus",
                           "--quantity", "kn", "--curve", "0", "--t", "1.0",
                           "--L", "1e2,1e3,1e4")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "L,kn_L,kn_limit,abs_gap"
        gaps = [float(line.split(",")[3]) for line in lines[1:]]
        assert gaps[0] > gaps[1] > gaps[2]
        assert float(lines[1].split(",")[2]) == pytest.approx(1.0, abs=1e-12)

    def test_default_grid_from_scene(self, capsys):
        code, out, _ = run(capsys, "sweep", "--scene", "rt_disk",
                           "--quantity", "K", "--uv", "0.2,1.3")
        assert code == 0
        assert len(out.strip().splitlines()) == 4

    def test_deterministic(self, capsys):
        args = ("sweep", "--scene", "rt_disk", "--L", "1e2,1e3",
                "--quantity", "K", "--uv", "0.2,1.3")
        _, first, _ = run(capsys, *args)
        _, second, _ = run(capsys, *args)
        assert first == second

    def test_missing_uv_is_usage_error(self, capsys):
        code, _, err = run(capsys, "sweep", "--scene", "rt_disk", "--quantity", "K")
        assert code == 2
        assert "--uv" in err

    def test_kn_without_t_is_usage_error(self, capsys):
        code, out, err = run(capsys, "sweep", "--scene", "rt_disk", "--quantity", "kn")
        assert code == 2 and out == ""
        assert err == "usage error: --quantity kn needs --t\n"

    def test_curve_index_out_of_range_is_usage_error(self, capsys):
        code, out, err = run(capsys, "sweep", "--scene", "rt_disk", "--quantity", "kn",
                             "--curve", "5", "--t", "1.0")
        assert code == 2 and out == ""
        assert err == "usage error: --curve must be in [0, 0]\n"

    def test_nonpositive_L_is_usage_error(self, capsys):
        code, _, err = run(capsys, "sweep", "--scene", "rt_disk", "--quantity", "K",
                           "--uv", "0.2,1.3", "--L", "0")
        assert code == 2
        assert "positive" in err

    def test_tangent_parameter_is_numerical_error(self, capsys):
        code, _, err = run(capsys, "sweep", "--scene", "rt_disk",
                           "--quantity", "kn", "--curve", "0", "--t", "0.0",
                           "--L", "1e2")
        assert code == 4
        assert err != ""


class TestGaussBonnet:
    def test_rt_disk_report(self, capsys):
        code, out, _ = run(capsys, "gauss-bonnet", "--scene", "rt_disk", "--L", "100")
        assert code == 0
        payload = json.loads(out)
        assert payload["euler_characteristic"] == 1
        area = payload["area_integral"]["value"]
        assert abs(payload["residual"]) <= 1e-6 * abs(area)
        assert payload["residual_ok"] is True
        row = payload["finite_L"][0]
        assert row["L"] == 100.0
        assert row["target"] == pytest.approx(2 * math.pi / 10.0, rel=1e-15)
        assert abs(row["gap"]) <= 0.01 * row["target"]

    def test_annulus_report_and_determinism(self, capsys):
        args = ("gauss-bonnet", "--scene", "heisenberg_annulus", "--L", "100")
        code, first, _ = run(capsys, *args)
        assert code == 0
        payload = json.loads(first)
        assert payload["euler_characteristic"] == 0
        assert abs(abs(payload["area_integral"]["value"]) - 2 * math.pi) <= 1e-5
        assert abs(payload["residual"]) <= 1e-6 * 2 * math.pi
        assert abs(payload["finite_L"][0]["scaled_sum"]) <= 1e-5
        _, second, _ = run(capsys, *args)
        assert first == second

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "report.json"
        code, out, _ = run(capsys, "gauss-bonnet", "--scene", "rt_disk",
                           "--L", "100", "--out", str(target))
        assert code == 0
        assert out == ""
        payload = json.loads(target.read_text(encoding="utf-8"))
        assert payload["scene"] == "rt_disk"


class TestOracleCheck:
    @pytest.mark.parametrize("name", ["heisenberg_annulus", "rt_disk"])
    def test_oracles_agree(self, capsys, name):
        code, out, _ = run(capsys, "oracle-check", "--scene", name,
                           "--L", "1,10,100", "--samples", "10")
        assert code == 0
        assert "oracle check: ok" in out
        assert "Koszul" in out and "induced-metric" in out and "geodesic" in out

    @pytest.mark.parametrize("name", ["heisenberg_annulus", "rt_disk"])
    def test_oracles_agree_at_the_top_of_the_usable_L_range(self, capsys, name):
        # past about L = 1e9 the oracles lose digits: the annulus fails from 1e10 here
        code, out, _ = run(capsys, "oracle-check", "--scene", name,
                           "--L", "1e9", "--samples", "20", "--seed", "5")
        assert code == 0 and "oracle check: ok" in out

    def test_deterministic_given_seed(self, capsys):
        args = ("oracle-check", "--scene", "rt_disk", "--L", "10",
                "--samples", "6", "--seed", "3")
        _, first, _ = run(capsys, *args)
        _, second, _ = run(capsys, *args)
        assert first == second


def counted(monkeypatch, cls, attr) -> list:
    """Replace cls.attr by a wrapper that counts its calls."""
    calls = []
    orig = getattr(cls, attr)
    monkeypatch.setattr(cls, attr, lambda *a, **k: calls.append(1) or orig(*a, **k))
    return calls


class TestCurveGeometryBuilds:
    """Single-point commands build each curve geometry once and share it."""

    @pytest.fixture
    def builds(self, monkeypatch):
        return counted(monkeypatch, CurveGeometry, "__init__")

    def test_kn_sweep_builds_one_for_the_limit_and_every_L(self, capsys, builds):
        code, out, _ = run(capsys, "sweep", "--scene", "heisenberg_annulus", "--quantity", "kn",
                           "--curve", "0", "--t", "0.3", "--L", "10,100,1000")
        assert code == 0 and len(out.splitlines()) == 4
        assert len(builds) == 1

    @pytest.mark.usefixtures("fresh_builtin_scenes")
    def test_oracle_check_builds_one_per_curve(self, capsys, monkeypatch, builds):
        frames = counted(monkeypatch, SubRiemannianModel, "frame")
        code, out, _ = run(capsys, "oracle-check", "--scene", "heisenberg_annulus",
                           "--L", "1,10,100", "--samples", "4")
        assert code == 0 and "oracle check: ok" in out
        assert len(builds) == 2
        # scene load, the region geometry (whose frame the connection check
        # reuses) and one per curve geometry
        assert len(frames) == 1 + 1 + 2


class TestOracleCheckCurveBatches:
    """oracle-check evaluates all L rows of a curve on one curve geometry, and
    prints the gaps that one geometry per (L, curve) pair gives, bit for bit."""

    ARGV = ("oracle-check", "--scene", "heisenberg_annulus", "--L", "1,10,100", "--samples", "4")

    @staticmethod
    def sample_counts(monkeypatch) -> list:
        sizes = []
        orig = CurveGeometry.__init__

        def init(self, model, patch, curve, t, *rest):
            sizes.append(np.size(t))
            orig(self, model, patch, curve, t, *rest)

        monkeypatch.setattr(CurveGeometry, "__init__", init)
        return sizes

    def test_gaps_match_one_geometry_per_L_and_curve(self, capsys):
        code, out, _ = run(capsys, *self.ARGV)
        assert code == 0
        printed = [line.rsplit(" ", 1)[1] for line in out.splitlines()
                   if "geodesic-curvature oracle" in line]

        scene = sc.builtin_scene("heisenberg_annulus")
        rng = np.random.default_rng(0)
        cli._sample_region_points(scene.region, 4, rng)
        expected = []
        for L in (1.0, 10.0, 100.0):
            for curve in scene.boundary:
                t = rng.uniform(curve.t0, curve.t1, 4)
                cg = CurveGeometry(scene.model, scene.patch, curve, t, 3)
                kn = cv.normal_curvature_L(cg, L)
                kg = cv.geodesic_curvature_oracle(cg, L)
                expected.append(repr(float(np.max(np.abs(kn - kg) / np.maximum(1.0, np.abs(kg))))))
        assert printed == expected

    @pytest.mark.parametrize("cap,sizes", [(8, [8, 8, 4, 4]), (4, [4] * 6)])
    def test_builds_split_by_L_row_at_the_sample_cap(self, capsys, monkeypatch, cap, sizes):
        _, whole, _ = run(capsys, *self.ARGV)
        built = self.sample_counts(monkeypatch)
        monkeypatch.setattr(cli, "MAX_SAMPLES", cap)
        code, out, _ = run(capsys, *self.ARGV)
        assert code == 0 and out == whole
        assert built == sizes

    def test_tangent_boundary_curve_exits_4(self, capsys, tmp_path):
        # on the rototranslation plane the horizontal line field is d/dv, so
        # the rectangle's sides u = const are tangent to it; nothing varies
        # along the side before them, so its values come out 0-d
        def rectangle(cfg):
            cfg["region"] = {"type": "rectangle", "u": [-0.5, 0.5], "v": [1.0, 2.0],
                             "euler_characteristic": 1}
            cfg["boundary"] = [
                {"curve": ["t", "1"], "t": [-0.5, 0.5]},
                {"curve": ["0.5", "t"], "t": [1.0, 2.0]},
                {"curve": ["-t", "2"], "t": [-0.5, 0.5]},
                {"curve": ["-0.5", "-t"], "t": [-2.0, -1.0]},
            ]
        code, out, err = run(capsys, "oracle-check", "--scene",
                             write_scene(tmp_path, rectangle, "rt_disk"), "--L", "1,10")
        assert code == 4 and out == ""
        assert "tangent to the horizontal line field" in err


class TestUsage:
    def test_no_arguments(self, capsys):
        assert cli.main([]) == 2

    def test_unknown_subcommand(self, capsys):
        assert cli.main(["plot"]) == 2

    def test_help_exits_cleanly(self, capsys):
        assert cli.main(["--help"]) == 0
        out = capsys.readouterr().out
        assert "gauss-bonnet" in out


class TestSharedParser:
    """`main` builds its parser once per process; no call leaves state for the next."""

    def test_calls_in_one_process_match_their_records(self, capsys, tmp_path):
        ref = json.loads(REFERENCE.read_text(encoding="utf-8"))
        recorded = [entry for kind in ("curvature", "sweep-K", "sweep-kn", "oracle-check",
                                       "frame-report", "error")
                    for entry in ref["queries"][kind][:2]]
        recorded.append(ref["gb_shipped"][0])
        defaults = ("curvature", "--scene", "rt_disk", "--uv", "0.1,1.2")
        code, first_default, _ = run(capsys, *defaults)
        assert code == 0 and "L = 100.0" in first_default

        for entry in recorded:
            # usage errors in between: a missing option, an unknown command, help
            assert run(capsys, "curvature", "--scene", "rt_disk")[0] == 2
            assert run(capsys, "plot")[0] == 2
            assert run(capsys, "--help")[0] == 0
            code, out, _ = run(capsys, *entry["argv"])
            assert code == entry["exit"], entry["argv"]
            assert hashlib.sha256(out.encode("utf-8")).hexdigest() == entry["sha256"]

            target = tmp_path / "golden.txt"
            code, out, _ = run(capsys, "validate", "--scene", "rt_disk", "--out", str(target))
            assert code == 0 and out == ""
            assert target.read_text(encoding="utf-8") == (
                GOLDEN / "validate_rt_disk.txt").read_text(encoding="utf-8")
            code, out, _ = run(capsys, "frame-report", "--scene", "heisenberg_annulus",
                               "--uv", "1.5,-0.4", "--L", "10")
            assert code == 0 and out == (
                GOLDEN / "frame_report_heisenberg_annulus.txt").read_text(encoding="utf-8")

        assert run(capsys, *defaults) == (0, first_default, "")


class TestRecordedCalls:
    """Every call recorded in perfbench/reference.json, replayed through `main`
    in one process: its exit code and the SHA-256 of its stdout match the record."""

    @staticmethod
    def replay(capsys, entries):
        for entry in entries:
            code, out, _ = run(capsys, *entry["argv"])
            assert code == entry["exit"], entry["argv"]
            assert hashlib.sha256(out.encode("utf-8")).hexdigest() == entry["sha256"], \
                entry["argv"]

    def test_every_recorded_call_matches(self, capsys):
        ref = json.loads(REFERENCE.read_text(encoding="utf-8"))
        entries = ref["gb_shipped"] + [entry for kind in ref["queries"].values()
                                       for entry in kind]
        assert len(entries) == 254
        self.replay(capsys, entries)

    def test_gauss_bonnet_calls_match_without_workers(self, capsys, monkeypatch):
        monkeypatch.setattr(ms, "WORKERS", 1)
        self.replay(capsys, json.loads(REFERENCE.read_text(encoding="utf-8"))["gb_shipped"])


class TestInputChecks:
    @pytest.mark.parametrize("argv", [
        ("curvature", "--scene", "rt_disk", "--uv", "0.1,0.2", "--L", "nan"),
        ("frame-report", "--scene", "rt_disk", "--uv", "0.1,0.2", "--L", "inf"),
        ("curvature", "--scene", "rt_disk", "--uv", "nan,0.2"),
        ("sweep", "--scene", "rt_disk", "--quantity", "K", "--uv", "0.1,0.2", "--L", "nan,inf"),
        ("sweep", "--scene", "rt_disk", "--quantity", "kn", "--t", "inf"),
        ("gauss-bonnet", "--scene", "rt_disk", "--L", "100,inf"),
        ("oracle-check", "--scene", "rt_disk", "--samples", "0"),
        ("oracle-check", "--scene", "rt_disk", "--tol", "nan"),
        # a negative tolerance could never pass
        ("oracle-check", "--scene", "rt_disk", "--tol", "-1"),
    ])
    def test_non_finite_and_empty_inputs_are_usage_errors(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert "finite" in err or "at least 1" in err
        assert "zero-size" not in err

    def test_negative_seed_is_a_usage_error_that_names_the_option(self, capsys):
        code, out, err = run(capsys, "oracle-check", "--scene", "rt_disk", "--seed", "-1")
        assert code == 2 and out == ""
        assert "argument --seed: expected an integer of at least 0, got '-1'" in err

    def test_zero_tol_is_accepted(self, capsys):
        code, out, _ = run(capsys, "oracle-check", "--scene", "rt_disk", "--samples", "3",
                           "--L", "1", "--tol", "0")
        assert code in (0, 4)
        assert "tolerance 0.0)" in out


class TestPointsInRange:
    """--uv must lie in the surface domain and --t in the curve's interval;
    both ends of each are in range."""

    @pytest.mark.parametrize("argv, what", [
        (("curvature", "--scene", "rt_disk", "--uv", "5,5"), "--uv: u = 5.0"),
        (("frame-report", "--scene", "rt_disk", "--uv", "0.2,0.05"), "--uv: v = 0.05"),
        (("sweep", "--scene", "rt_disk", "--quantity", "K", "--uv", "0.2,3.5"), "--uv: v = 3.5"),
        (("sweep", "--scene", "rt_disk", "--quantity", "kn", "--t", "1e308"), "--t 1e+308"),
        (("sweep", "--scene", "heisenberg_annulus", "--quantity", "kn", "--curve", "1",
          "--t", "-0.1"), "--t -0.1"),
    ])
    def test_outside_is_a_usage_error(self, capsys, argv, what):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert what in err and "outside" in err

    @pytest.mark.parametrize("argv", [
        ("curvature", "--scene", "rt_disk", "--uv=-3,0.1"),
        ("sweep", "--scene", "heisenberg_annulus", "--quantity", "kn", "--t", "0", "--L", "10"),
        ("sweep", "--scene", "heisenberg_annulus", "--quantity", "kn", "--t", repr(2 * math.pi),
         "--L", "10"),
    ])
    def test_ends_are_in_range(self, capsys, argv):
        code, _, err = run(capsys, *argv)
        assert code == 0, err


class TestEmptyLList:
    """An empty --L, or one with an empty entry, is a usage error on every
    subcommand that takes a list."""

    @pytest.mark.parametrize("argv", [
        ("sweep", "--scene", "rt_disk", "--quantity", "K", "--uv", "0.1,1.2", "--L", ""),
        ("sweep", "--scene", "rt_disk", "--quantity", "kn", "--t", "0.3", "--L", ""),
        ("gauss-bonnet", "--scene", "rt_disk", "--L", ""),
        ("gauss-bonnet", "--scene", "rt_disk", "--L", ","),
        ("oracle-check", "--scene", "rt_disk", "--L", ""),
    ])
    def test_empty_list_is_a_usage_error(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert "expected at least one L value" in err

    @pytest.mark.parametrize("argv", [
        ("gauss-bonnet", "--scene", "rt_disk", "--L", "1,,10"),
        ("gauss-bonnet", "--scene", "rt_disk", "--L", "100,"),
        ("sweep", "--scene", "rt_disk", "--quantity", "kn", "--t", "0.3", "--L", "1,,10"),
        ("oracle-check", "--scene", "rt_disk", "--L", "100,"),
    ])
    def test_empty_entry_is_a_usage_error(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert f"--L {argv[-1]!r} has an empty entry" in err


class TestWorkCaps:
    """--samples and --L lists are capped; a value just over a cap is a usage error."""

    over_L = ",".join(["100"] * (cli.MAX_L_VALUES + 1))

    @pytest.mark.parametrize("argv", [
        ("oracle-check", "--scene", "rt_disk", "--samples", str(cli.MAX_SAMPLES + 1)),
        ("oracle-check", "--scene", "rt_disk", "--L", over_L),
        ("gauss-bonnet", "--scene", "rt_disk", "--L", over_L),
        ("sweep", "--scene", "rt_disk", "--quantity", "K", "--uv", "0.1,1.2", "--L", over_L),
    ])
    def test_over_the_cap_is_a_usage_error(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert "at most" in err

    def test_at_the_cap_is_accepted(self, capsys):
        at_cap = ",".join(["100"] * cli.MAX_L_VALUES)
        code, out, _ = run(capsys, "sweep", "--scene", "rt_disk", "--uv", "0.1,1.2", "--L", at_cap)
        assert code == 0
        assert len(out.splitlines()) == 1 + cli.MAX_L_VALUES
        assert cli._sample_count(str(cli.MAX_SAMPLES)) == cli.MAX_SAMPLES


class TestFiniteOutputs:
    """A NaN or inf result exits 4 and prints nothing, never NaN with exit 0."""

    @pytest.mark.parametrize("command", ["frame-report", "curvature"])
    def test_tiny_L_overflow_exits_4(self, capsys, command):
        # 1 / L overflows the scaled connection forms and II_L
        with np.errstate(all="ignore"):
            code, out, err = run(capsys, command, "--scene", "rt_disk", "--uv", "0.1,1.2",
                                 "--L", "1e-310")
        assert code == 4 and out == ""
        assert "non-finite result" in err

    def test_overflow_prints_one_stderr_line(self):
        # in a fresh interpreter, where numpy's warnings are not captured
        src = str(Path(cli.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
        proc = subprocess.run(
            [sys.executable, "-m", "srlab", "frame-report", "--scene", "rt_disk",
             "--uv", "0.1,1.2", "--L", "1e-310"],
            capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 4 and proc.stdout == ""
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("numerical error: non-finite result")

    @pytest.mark.parametrize("formula, result, argv", [
        ("gauss_curvature_L", np.nan, ("--uv", "0.1,1.2")),
        ("normal_curvature_L", np.array([np.nan]), ("--quantity", "kn", "--t", "0.3")),
    ])
    def test_sweep_nan_exits_4(self, capsys, monkeypatch, formula, result, argv):
        monkeypatch.setattr(cli.cv, formula, lambda *a, **k: result)
        code, out, err = run(capsys, "sweep", "--scene", "rt_disk", "--L", "10,100", *argv)
        assert code == 4 and out == ""
        assert "non-finite result nan" in err

    def test_gauss_bonnet_nan_exits_4_before_writing(self, capsys, tmp_path):
        # at L = 1e308 the annulus row's boundary part and gap come out NaN
        path = tmp_path / "report.json"
        for out_arg in ((), ("--out", str(path))):
            code, out, err = run(capsys, "gauss-bonnet", "--scene", "heisenberg_annulus",
                                 "--L", "1e308", *out_arg)
            assert code == 4 and out == ""
            assert err.splitlines() == [
                "numerical error: non-finite result in the report; no output written"]
        assert not path.exists()


class TestMalformedSceneFiles:
    """A scene file that is not UTF-8 text, nests too deeply for the JSON
    parser or holds an integer longer than Python's int digit limit is a
    scene error at `$` (exit 3), like any other invalid JSON."""

    @pytest.mark.parametrize("data", [b'{"model": "\xff\xfe"}', b"[" * 100000,
                                      b'{"model": 1' + b"0" * 5000 + b"}"],
                             ids=["not-utf8", "deeply-nested", "int-over-4300-digits"])
    def test_exits_3_at_the_root(self, capsys, tmp_path, data):
        path = tmp_path / "malformed.json"
        path.write_bytes(data)
        for command in ("validate", "gauss-bonnet"):
            code, out, err = run(capsys, command, "--scene", str(path))
            assert code == 3 and out == ""
            assert err.startswith("validation error: invalid JSON: ")
            assert err.rstrip().endswith("(scene field $)")
            assert "set_int_max_str_digits" not in err


class TestSceneFieldErrors:
    """A scene field of the wrong shape, or an inline frame that does not
    parse, is a scene error at that field (exit 3)."""

    @pytest.mark.parametrize("edit, message, field", [
        (lambda cfg: [cfg], "expected an object", "$"),
        (lambda cfg: dict(cfg, boundary=cfg["boundary"][0]), "expected an array", "$.boundary"),
        (lambda cfg: dict(cfg, model={"frame": {"e1": ["1", "0", "y +"],
                                                "e2": ["0", "1", "x/2"]}}),
         "expected a number, identifier, or '(' (at position 3)", "$.model.frame"),
    ], ids=["top-level-array", "boundary-object", "inline-frame-parse-error"])
    def test_exits_3_at_the_field(self, capsys, tmp_path, edit, message, field):
        path = tmp_path / "scene.json"
        path.write_text(json.dumps(edit(shipped_config("rt_disk"))), encoding="utf-8")
        code, out, err = run(capsys, "validate", "--scene", str(path))
        assert code == 3 and out == ""
        assert err == f"validation error: {message} (scene field {field})\n"


class TestOutOfRangeLiterals:
    """A number literal that overflows a float is a parse error at its
    expression's field (exit 3), as a JSON integer past the float range is."""

    def test_surface_literal(self, capsys, tmp_path):
        def overflow(cfg):
            cfg["surface"]["phi"][2] = "1e999*v"
        self.rejected(capsys, write_scene(tmp_path, overflow, "rt_disk"), "$.surface.phi")

    def test_curve_literal(self, capsys, tmp_path):
        def overflow(cfg):
            cfg["boundary"][0]["curve"][0] = "1e999*cos(t)"
        self.rejected(capsys, write_scene(tmp_path, overflow, "rt_disk"), "$.boundary[0].curve")

    @staticmethod
    def rejected(capsys, path, field):
        code, out, err = run(capsys, "validate", "--scene", path)
        assert code == 3 and out == ""
        assert err == (f"validation error: number '1e999' is out of range (at position 0) "
                       f"(scene field {field})\n")


class TestGaussBonnetConvergence:
    def test_unconverged_quadrature_exits_4(self, capsys, tmp_path):
        cfg = shipped_config("rt_disk")
        cfg["quadrature"]["max_refine"] = 0
        path = tmp_path / "no_refine.json"
        path.write_text(json.dumps(cfg), encoding="utf-8")
        code, out, err = run(capsys, "gauss-bonnet", "--scene", str(path), "--L", "100")
        assert code == 4
        payload = json.loads(out)
        assert payload["residual_ok"] is True
        assert payload["area_integral"]["converged"] is False
        assert "did not converge" in err and "L = 100.0" in err


def circle(radius, sign="", center=(0.0, 0.0)):
    cu, cv = center
    return {"curve": [f"{cu}+{radius}*cos({sign}t)", f"{cv}+{radius}*sin({sign}t)"],
            "t": [0.0, 2 * math.pi]}


class TestBoundaryCoverage:
    """Boundary curves must trace each edge component once, induced orientation."""

    def rejected(self, capsys, tmp_path, mutate, base, edge):
        code, out, err = run(capsys, "validate", "--scene", write_scene(tmp_path, mutate, base))
        assert code == 3 and out == ""
        assert "$.boundary" in err and f"{edge} edge" in err

    def test_missing_hole_curve(self, capsys, tmp_path):
        def drop_inner(cfg):
            del cfg["boundary"][1]
        self.rejected(capsys, tmp_path, drop_inner, "heisenberg_annulus", "inner")

    def test_no_curves(self, capsys, tmp_path):
        def empty(cfg):
            cfg["boundary"] = []
        self.rejected(capsys, tmp_path, empty, "rt_disk", "outer")

    def test_reversed_outer_curve(self, capsys, tmp_path):
        def reverse(cfg):
            cfg["boundary"] = [circle(0.8, "-", (0.0, 1.5))]
        self.rejected(capsys, tmp_path, reverse, "rt_disk", "outer")

    def test_reversed_hole_curve(self, capsys, tmp_path):
        def reverse(cfg):
            cfg["boundary"][1] = circle(1.0)
        self.rejected(capsys, tmp_path, reverse, "heisenberg_annulus", "inner")

    def test_doubled_curve(self, capsys, tmp_path):
        def double(cfg):
            cfg["boundary"].append(dict(cfg["boundary"][0]))
        self.rejected(capsys, tmp_path, double, "rt_disk", "outer")

    def test_half_edge_traced_twice(self, capsys, tmp_path):
        def upper_half_twice(cfg):
            half = dict(circle(0.8, "", (0.0, 1.5)), t=[0.0, math.pi])
            cfg["boundary"] = [half, dict(half)]
        self.rejected(capsys, tmp_path, upper_half_twice, "rt_disk", "outer")

    def test_curve_that_winds_twice(self, capsys, tmp_path):
        def twice(cfg):
            cfg["boundary"][0]["t"] = [0.0, 4 * math.pi]
        self.rejected(capsys, tmp_path, twice, "heisenberg_annulus", "outer")

    @pytest.mark.parametrize("kept, pieces, index", [
        (1, [(["0.8*cos(pi*sin(t))", "1.5+0.8*sin(pi*sin(t))"], [0.0, math.pi])], 1),
        (1, [(["0.8*cos(t)", "1.5+0.8*sin(t)"], [0.0, math.pi]),
             (["0.8*cos(-t)", "1.5+0.8*sin(-t)"], [-math.pi, 0.0])], 2),
        (0, [(["0.8*cos(t+1.5*sin(t))", "1.5+0.8*sin(t+1.5*sin(t))"], [0.0, 2 * math.pi])], 0),
    ], ids=["out-and-back", "half-forward-then-back", "circle-that-turns-back"])
    def test_curve_that_doubles_back(self, capsys, tmp_path, kept, pieces, index):
        # the integrals would come out as over the circle traced once, but
        # piece `index` turns clockwise somewhere along the outer edge
        def doubling(cfg):
            cfg["boundary"][kept:] = [{"curve": curve, "t": t} for curve, t in pieces]
        code, out, err = run(capsys, "validate", "--scene", write_scene(tmp_path, doubling, "rt_disk"))
        assert code == 3 and out == ""
        assert f"$.boundary[{index}]" in err and "outer edge" in err

    @pytest.mark.parametrize("turns, base, index", [
        (33, "rt_disk", 0), (65, "rt_disk", 0), (33, "heisenberg_annulus", 1),
    ], ids=["disk-33", "disk-65", "hole-33"])
    def test_turns_that_alias_between_samples(self, capsys, tmp_path, turns, base, index):
        # each of the 32 sample steps is whole turns plus 2 pi / 32, so the
        # wrapped steps sum to one turn; the derivative shows the whole turns
        def wound(cfg):
            cfg["boundary"][index]["t"] = [0.0, 2 * math.pi * turns]
        code, out, err = run(capsys, "validate", "--scene", write_scene(tmp_path, wound, base))
        assert code == 3 and out == ""
        assert "too fast for 32 samples" in err
        assert err.endswith(f"(scene field $.boundary[{index}])\n")

    @pytest.mark.parametrize("curve, t, reason", [
        (["0.8*cos(sqrt(t))", "0.8*sin(sqrt(t))"], [0.0, 4 * math.pi ** 2],
         "sqrt of a non-positive value (derivative undefined) (expression position 8)"),
        (["0.8*cos(log(t))", "1.5+0.8*sin(log(t))"], [0.0, 1.0],
         "log of a non-positive value (expression position 8)"),
    ], ids=["derivative-undefined", "value-undefined"])
    def test_curve_that_fails_at_a_sample(self, capsys, tmp_path, curve, t, reason):
        # a scene error at the curve (exit 3), not a numerical error with no field
        def unevaluable(cfg):
            cfg["boundary"][0] = {"curve": curve, "t": t}
        code, out, err = run(capsys, "validate", "--scene",
                             write_scene(tmp_path, unevaluable, "rt_disk"))
        assert code == 3 and out == ""
        assert err == ("validation error: boundary curve or its first derivative cannot be "
                       f"evaluated at one of its 33 edge samples: {reason} "
                       "(scene field $.boundary[0])\n")

    def test_uneven_parametrization_is_accepted(self, capsys, tmp_path):
        def squared(cfg):
            cfg["boundary"][0] = {"curve": ["0.8*cos(t*t)", "1.5+0.8*sin(t*t)"],
                                  "t": [0.5, math.sqrt(2 * math.pi + 0.25)]}
        code, out, err = run(capsys, "validate", "--scene", write_scene(tmp_path, squared, "rt_disk"))
        assert code == 0, err
        assert out.endswith("validation: ok\n")

    def test_pieces_that_close_up_are_accepted(self, capsys, tmp_path):
        def halves(cfg):
            outer = circle(2.0)
            cfg["boundary"][0:1] = [dict(outer, t=[0.0, math.pi]),
                                    dict(outer, t=[math.pi, 2 * math.pi])]
        code, out, err = run(capsys, "validate", "--scene",
                             write_scene(tmp_path, halves, "heisenberg_annulus"))
        assert code == 0, err
        assert "boundary curve 2" in out

    def test_rectangle_in_four_sides(self, capsys, tmp_path):
        def rectangle(cfg):
            cfg["region"] = {"type": "rectangle", "u": [-0.5, 0.5], "v": [1.0, 2.0],
                             "euler_characteristic": 1}
            cfg["boundary"] = [
                {"curve": ["t", "1"], "t": [-0.5, 0.5]},
                {"curve": ["0.5", "t"], "t": [1.0, 2.0]},
                {"curve": ["-t", "2"], "t": [-0.5, 0.5]},
                {"curve": ["-0.5", "-t"], "t": [-2.0, -1.0]},
            ]
        path = write_scene(tmp_path, rectangle, "rt_disk")
        code, out, err = run(capsys, "validate", "--scene", path)
        assert code == 0, err
        assert "boundary curve 3: max distance to region edge 0.0" in out

        def drop_side(cfg):
            rectangle(cfg)
            del cfg["boundary"][2]
        self.rejected(capsys, tmp_path, drop_side, "rt_disk", "outer")
