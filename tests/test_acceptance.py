"""Acceptance suite: the ten headline checks, one printed line per criterion.

Each test prints its verdict through the capture guard so the line shows up
in normal pytest runs, then asserts. Tolerances and sample counts are fixed
here and are not read from configuration; these are the package's contract.
"""

import math
import time
from functools import lru_cache

import numpy as np
import pytest

from srlab import curvature as cv
from srlab import measures as ms
from srlab.calculus import d_oneform_jets, eval_twoform, pair_oneform
from srlab.curvature import CurveOnSurface
from srlab.frame import ConnectionFormsL, koszul_connection_oracle, scaled_form_deviation
from srlab.models import BUILTIN_FRAMES, builtin_model
from srlab.scenes import builtin_scene
from srlab.surface import SurfaceGeometry, SurfacePatch

TWO_PI = 2.0 * math.pi

HEIS = builtin_model("heisenberg")
ROTO = builtin_model("rototranslation")
PLANE = SurfacePatch.parse(("u", "v", "0"))
RPLANE = SurfacePatch.parse(("u", "0", "v"))
CIRCLE = CurveOnSurface.parse(("cos(t)", "sin(t)"), (0.0, TWO_PI))


@pytest.fixture
def announce(capsys):
    def _announce(label, ok, detail):
        with capsys.disabled():
            print(f"{label}: {'PASS' if ok else 'FAIL'} - {detail}", flush=True)
    return _announce


@lru_cache(maxsize=None)
def ambient_points(n=100, seed=2024):
    rng = np.random.default_rng(seed)
    return rng.uniform(-2.0, 2.0, (3, n))


@lru_cache(maxsize=None)
def model_frames(order=3):
    points = ambient_points()
    return {name: builtin_model(name).frame(points, order=order)
            for name in BUILTIN_FRAMES}


def sample_inside(region, n, seed):
    rng = np.random.default_rng(seed)
    (u0, u1), (v0, v1) = region.bounding_box()
    uu, vv = [], []
    while len(uu) < n:
        u, v = rng.uniform(u0, u1), rng.uniform(v0, v1)
        if region.contains(u, v) and region.boundary_distance(u, v) > 0.05:
            uu.append(u)
            vv.append(v)
    return np.asarray(uu), np.asarray(vv)


@lru_cache(maxsize=None)
def scene_by_name(name):
    return builtin_scene(name)


@lru_cache(maxsize=None)
def scene_report(name):
    start = time.monotonic()
    report = ms.gauss_bonnet_residual(scene_by_name(name))
    return report, time.monotonic() - start


def test_criterion_01_connection_oracle(announce):
    start = time.monotonic()
    worst = 0.0
    for name, fr in model_frames().items():
        for L in (1.0, 10.0, 100.0):
            gap = float(np.max(np.abs(
                ConnectionFormsL(fr, L).values() - koszul_connection_oracle(fr, L))))
            worst = max(worst, gap)
    elapsed = time.monotonic() - start
    ok = worst <= 1e-7 and elapsed <= 10.0
    announce("criterion 1 (connection forms vs Koszul, 4 models x 100 pts)",
             ok, f"max gap {worst:.3e}, elapsed {elapsed:.2f}s")
    assert worst <= 1e-7
    assert elapsed <= 10.0


def test_criterion_02_structure_constraint(announce):
    worst_trace = worst_contact = 0.0
    for name, fr in model_frames().items():
        sfv = fr.sf_values()
        worst_trace = max(worst_trace, float(np.max(np.abs(
            np.asarray(sfv["a13_1"]) + np.asarray(sfv["a23_2"])))))
        d_omega = d_oneform_jets(fr.omega)
        contact = eval_twoform(d_omega, fr.e1, fr.e2)
        contact = np.asarray(contact.value if hasattr(contact, "value") else contact)
        worst_contact = max(worst_contact, float(np.max(np.abs(contact + 1.0))))
    ok = worst_trace <= 1e-10 and worst_contact <= 1e-10
    announce("criterion 2 (structure trace and contact normalization)",
             ok, f"max |a13_1 + a23_2| {worst_trace:.3e}, "
                 f"max |d_omega(e1,e2) + 1| {worst_contact:.3e}")
    assert worst_trace <= 1e-10
    assert worst_contact <= 1e-10


def test_criterion_03_limit_forms(announce):
    worst = {}
    for name, fr in model_frames(order=4).items():
        for key, dev in scaled_form_deviation(fr, 1e6).items():
            worst[key] = max(worst.get(key, 0.0), dev)
    ok = all(dev <= 1e-3 for dev in worst.values())
    announce("criterion 3 (rescaled connection forms at L = 1e6)",
             ok, ", ".join(f"{k} dev {v:.3e}" for k, v in sorted(worst.items())))
    assert ok, worst


def test_criterion_04_heisenberg_goldens(announce):
    geom = SurfaceGeometry(HEIS, PLANE, 1.0, 0.0)
    a_gap = abs(abs(float(np.asarray(geom.A.value))) - 2.0)
    k_gap = abs(float(cv.gauss_curvature_limit(geom)) + 2.0)
    # the limit area density against du dv is (f^2 ^ f^3)(Tu, Tv)
    dens_gap = abs(float(np.asarray(geom.wedge.value)) - 0.5)
    t = np.asarray([0.0, 1.0, 2.0, 4.0])
    kn = cv.normal_curvature_limit(cv.CurveGeometry(HEIS, PLANE, CIRCLE, t))
    kn_gap = float(np.max(np.abs(np.abs(kn) - 2.0)))
    length = ms.integrate_curve(
        lambda s: np.abs(np.asarray(cv.CurveGeometry(HEIS, PLANE, CIRCLE, s).y.value)),
        0.0, TWO_PI, ms.QuadratureSpec())
    len_gap = abs(length.value - math.pi)
    ok = (a_gap <= 1e-10 and k_gap <= 1e-8 and kn_gap <= 1e-8
          and dens_gap <= 1e-12 and len_gap <= 1e-8)
    announce("criterion 4 (Heisenberg plane goldens at (1, 0))",
             ok, f"|A|-2 {a_gap:.1e}, K+2 {k_gap:.1e}, |kn|-2 {kn_gap:.1e}, "
                 f"density-0.5 {dens_gap:.1e}, length-pi {len_gap:.1e}")
    assert ok


def test_criterion_05_rototranslation_goldens(announce):
    rng = np.random.default_rng(5)
    u = rng.uniform(-1.5, 1.5, 10)
    v = rng.uniform(0.3, 2.8, 10)
    geom = SurfaceGeometry(ROTO, RPLANE, u, v)
    k_gap = float(np.max(np.abs(np.asarray(cv.gauss_curvature_limit(geom)) - 1.0)))
    a_gap = float(np.max(np.abs(
        np.abs(np.asarray(geom.A.value)) - np.abs(np.cos(v) / np.sin(v)))))
    ok = k_gap <= 1e-8 and a_gap <= 1e-10
    announce("criterion 5 (rototranslation plane goldens, 10 points)",
             ok, f"max |K - 1| {k_gap:.3e}, max ||A| - |cot v|| {a_gap:.3e}")
    assert k_gap <= 1e-8
    assert a_gap <= 1e-10


def test_criterion_06_convergence_sweep(announce):
    grid = (1e2, 1e3, 1e4, 1e5)
    geom = SurfaceGeometry(HEIS, PLANE, 1.0, 0.0)
    k_limit = float(cv.gauss_curvature_limit(geom))
    k_errs = [abs(float(cv.gauss_curvature_L(geom, L)) - k_limit) for L in grid]
    slope = float(np.polyfit(np.log(grid), np.log(k_errs), 1)[0])
    k_monotone = all(a > b for a, b in zip(k_errs, k_errs[1:]))

    t = np.asarray([0.0, 1.0, 2.0])
    cg = cv.CurveGeometry(HEIS, PLANE, CIRCLE, t)
    kn_limit = np.asarray(cv.normal_curvature_limit(cg))
    kn_errs = [np.abs(np.asarray(cv.normal_curvature_L(cg, L)) - kn_limit)
               for L in grid]
    kn_monotone = all(np.all(a > b) for a, b in zip(kn_errs, kn_errs[1:]))

    ok = k_monotone and kn_monotone and -1.3 <= slope <= -0.7
    announce("criterion 6 (convergence sweep on the Heisenberg plane)",
             ok, f"K errors {['%.2e' % e for e in k_errs]}, slope {slope:.3f}, "
                 f"kn errors decreasing: {kn_monotone}")
    assert k_monotone and kn_monotone
    assert -1.3 <= slope <= -0.7


def test_criterion_07_gauss_equation(announce):
    region = scene_by_name("heisenberg_annulus").region
    u, v = sample_inside(region, 20, seed=77)
    geom = SurfaceGeometry(HEIS, PLANE, u, v)
    residual = 0.0
    for L in (1e2, 1e4):
        sample = cv.gauss_equation_decomposition(geom, L)
        residual = max(residual, float(np.max(np.abs(
            np.asarray(sample.K_L) - np.asarray(sample.Kbar_L) - np.asarray(sample.II_L)))))
    ii_small = np.abs(np.asarray(cv.gauss_equation_decomposition(geom, 1e2).II_L))
    ii_large = np.abs(np.asarray(cv.gauss_equation_decomposition(geom, 1e4).II_L))
    min_ratio = float(np.min(ii_large / ii_small))
    ok = residual <= 1e-9 and min_ratio >= 50.0
    announce("criterion 7 (Gauss equation split on the annulus)",
             ok, f"max identity residual {residual:.3e}, "
                 f"min |II(1e4)|/|II(1e2)| ratio {min_ratio:.1f}")
    assert residual <= 1e-9
    assert min_ratio >= 50.0


def test_criterion_08_gauss_bonnet_residuals(announce):
    annulus, t_ann = scene_report("heisenberg_annulus")
    disk, t_disk = scene_report("rt_disk")
    area_gap = abs(abs(annulus.area.value) - TWO_PI)
    ann_ok = area_gap <= 1e-5 and abs(annulus.residual) <= 1e-6 * TWO_PI
    disk_ok = abs(disk.residual) <= 1e-6 * abs(disk.area.value)
    time_ok = t_ann <= 30.0 and t_disk <= 30.0
    ok = ann_ok and disk_ok and time_ok
    announce("criterion 8 (Gauss-Bonnet residuals on both scenes)",
             ok, f"annulus |area|-2pi {area_gap:.2e}, residual {annulus.residual:.2e} "
                 f"({t_ann:.1f}s); disk residual {disk.residual:.2e} ({t_disk:.1f}s)")
    assert ann_ok
    assert disk_ok
    assert time_ok


def test_criterion_09_finite_L_gauss_bonnet(announce):
    ann = scene_by_name("heisenberg_annulus")
    disk = scene_by_name("rt_disk")
    ann_sums = [abs(ms.finite_L_gauss_bonnet(ann, L).scaled_sum) for L in (1e2, 1e4)]
    row = ms.finite_L_gauss_bonnet(disk, 1e2)
    disk_gap = abs(row.scaled_sum - row.target)
    ok = max(ann_sums) <= 1e-5 and disk_gap <= 0.01 * row.target
    announce("criterion 9 (finite-L Gauss-Bonnet)",
             ok, f"annulus scaled sums {['%.2e' % s for s in ann_sums]}, "
                 f"disk gap to 2pi/sqrt(L) {disk_gap:.2e} (1% budget {0.01 * row.target:.2e})")
    assert max(ann_sums) <= 1e-5
    assert disk_gap <= 0.01 * row.target


def test_criterion_10_curvature_oracles(announce):
    worst_k = worst_kn = 0.0
    for name in ("heisenberg_annulus", "rt_disk"):
        scene = scene_by_name(name)
        u, v = sample_inside(scene.region, 10, seed=101)
        geom = SurfaceGeometry(scene.model, scene.patch, u, v)
        rng = np.random.default_rng(2025)
        for L in (1.0, 10.0, 100.0):
            kl = np.asarray(cv.gauss_curvature_L(geom, L))
            oracle = np.asarray(cv.induced_metric_gauss_oracle(geom, L))
            worst_k = max(worst_k, float(np.max(
                np.abs(kl - oracle) / np.maximum(1.0, np.abs(oracle)))))
            for curve in scene.boundary:
                t = rng.uniform(curve.t0, curve.t1, 10)
                cg = cv.CurveGeometry(scene.model, scene.patch, curve, t)
                kn = np.asarray(cv.normal_curvature_L(cg, L))
                kg = np.asarray(cv.geodesic_curvature_oracle(cg, L))
                worst_kn = max(worst_kn, float(np.max(
                    np.abs(kn - kg) / np.maximum(1.0, np.abs(kg)))))
    ok = worst_k <= 1e-6 and worst_kn <= 1e-6
    announce("criterion 10 (curvature oracle equivalence, both scenes)",
             ok, f"max relative gap K_L vs induced metric {worst_k:.3e}, "
                 f"kn_L vs geodesic oracle {worst_kn:.3e}")
    assert worst_k <= 1e-6
    assert worst_kn <= 1e-6
