"""Measure, quadrature, and Gauss-Bonnet tests.

The quadrature engine is gated on closed-form integrals first (polynomial
exactness, areas of disks and annuli). The curved-scene integrals are then
checked against values derived independently: the Heisenberg annulus has
closed-form area and boundary integrals, and the rototranslation disk is
compared against a plain high-order quadrature of sin(v), which is what
K dsigma reduces to on that patch.
"""

import collections
import ctypes
import dataclasses
import errno
import itertools
import json
import math
import os
import pickle
import resource
import signal
import subprocess
import sys
import time
import tracemalloc
from functools import lru_cache, partial
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from conftest import shipped_config
from srlab import cli
from srlab import curvature as cv
from srlab import measures as ms
from srlab.calculus import jets
from srlab.calculus.jets import Jet, _tables, _zero
from srlab.curvature import CurveOnSurface
from srlab.errors import CharacteristicPointError, SceneError, TransversalityError
from srlab.models import builtin_model
from srlab.scenes import MAX_L_VALUES, builtin_scene, load_scene, scene_from_config
from srlab.surface import SurfaceGeometry, SurfacePatch

HEIS = builtin_model("heisenberg")
ROTO = builtin_model("rototranslation")
PLANE = SurfacePatch.parse(("u", "v", "0"), {"u": (-3.0, 3.0), "v": (-3.0, 3.0)})
RPLANE = SurfacePatch.parse(("u", "0", "v"), {"u": (-3.0, 3.0), "v": (0.1, 3.0)})
VERT = SurfacePatch.parse(("u", "0", "v"), {"u": (-3.0, 3.0), "v": (-3.0, 3.0)})
TWO_PI = 2.0 * math.pi

QUAD = ms.QuadratureSpec()


def scene(model, patch, region, boundary, quad=QUAD):
    return SimpleNamespace(model=model, patch=patch, region=region,
                           boundary=tuple(boundary), quadrature=quad)


def at_quad(sc, spec):
    """The scene `sc` integrated with the quadrature rule `spec`."""
    return scene(sc.model, sc.patch, sc.region, sc.boundary, spec)


@lru_cache(maxsize=None)
def annulus_scene():
    region = ms.Region.annulus((0.0, 0.0), (1.0, 2.0))
    outer = CurveOnSurface.parse(("2*cos(t)", "2*sin(t)"), (0.0, TWO_PI))
    inner = CurveOnSurface.parse(("cos(-t)", "sin(-t)"), (0.0, TWO_PI))
    return scene(HEIS, PLANE, region, (outer, inner))


@lru_cache(maxsize=None)
def disk_scene():
    region = ms.Region.disk((0.0, 1.5), 0.8)
    bdy = CurveOnSurface.parse(("0.8*cos(t)", "1.5+0.8*sin(t)"), (0.0, TWO_PI))
    return scene(ROTO, RPLANE, region, (bdy,))


@lru_cache(maxsize=None)
def annulus_report():
    return ms.gauss_bonnet_residual(annulus_scene())


@lru_cache(maxsize=None)
def disk_report():
    return ms.gauss_bonnet_residual(disk_scene())


def sin_v_disk_oracle():
    """High-order polar quadrature of sin(v) over the rototranslation disk."""
    x, w = np.polynomial.legendre.leggauss(60)
    rho, wr = 0.4 * (x + 1.0), 0.4 * w
    th, wt = math.pi * (x + 1.0), math.pi * w
    rr, tt = np.meshgrid(rho, th, indexing="ij")
    ww = np.outer(rho * wr, wt)
    return float(np.sum(np.sin(1.5 + rr * np.sin(tt)) * ww))


class TestQuadratureSpec:
    def test_defaults(self):
        assert QUAD.order == 16
        assert QUAD.cells == (8, 8)
        assert QUAD.segments == 64
        assert QUAD.rel_tol == 1e-8

    @pytest.mark.parametrize("kwargs", [
        {"order": 1},
        {"rel_tol": 0.0},
        {"rel_tol": -1e-8},
        {"cells": (0, 4)},
        {"segments": 0},
        {"rel_tol": float("nan")},
    ])
    def test_rejects_bad_settings(self, kwargs):
        with pytest.raises(ValueError):
            ms.QuadratureSpec(**kwargs)

    def test_from_config(self):
        cfg = shipped_config("rt_disk")
        cfg["quadrature"] = {"order": 8, "cells": [2, 3]}
        spec = scene_from_config(cfg).quadrature
        assert spec.order == 8 and spec.cells == (2, 3)
        cfg["quadrature"] = {"nodes": 5}
        with pytest.raises(SceneError, match="unknown fields: nodes") as err:
            scene_from_config(cfg)
        assert err.value.path == "$.quadrature"


class TestRegion:
    def test_euler_characteristic(self):
        assert ms.Region.rectangle((0, 1), (0, 1)).chi == 1
        assert ms.Region.disk((0, 0), 1.0).chi == 1
        assert ms.Region.annulus((0, 0), (1.0, 2.0)).chi == 0

    @pytest.mark.parametrize("build", [
        lambda: ms.Region.rectangle((1, 1), (0, 1)),
        lambda: ms.Region.rectangle((0, 1), (2, 1)),
        lambda: ms.Region.disk((0, 0), 0.0),
        lambda: ms.Region.annulus((0, 0), (2.0, 1.0)),
        lambda: ms.Region.annulus((0, 0), (0.0, 1.0)),
        lambda: ms.Region("blob"),
        lambda: ms.Region.annulus((0, 0), (1.5, 1.5)),
    ])
    def test_rejects_bad_shapes(self, build):
        with pytest.raises(ValueError):
            build()

    def test_bounding_box(self):
        assert ms.Region.disk((1.0, 2.0), 0.5).bounding_box() == ((0.5, 1.5), (1.5, 2.5))
        rect = ms.Region.rectangle((0, 1), (2, 5))
        assert rect.bounding_box() == ((0.0, 1.0), (2.0, 5.0))

    def test_boundary_distance(self):
        rect = ms.Region.rectangle((0, 2), (0, 1))
        assert rect.boundary_distance(1.0, 0.0) == pytest.approx(0.0, abs=1e-15)
        assert rect.boundary_distance(1.0, 0.4) == pytest.approx(0.4)
        assert rect.boundary_distance(2.5, 0.5) == pytest.approx(0.5)
        disk = ms.Region.disk((0.0, 0.0), 1.0)
        t = np.linspace(0, TWO_PI, 9)
        assert np.max(disk.boundary_distance(np.cos(t), np.sin(t))) < 1e-15
        ann = ms.Region.annulus((0.0, 0.0), (1.0, 2.0))
        assert ann.boundary_distance(1.5, 0.0) == pytest.approx(0.5)


class TestRegionQuadrature:
    """Gates on the quadrature engine with closed-form integrals."""

    def test_rectangle_polynomial(self):
        region = ms.Region.rectangle((0.0, 1.0), (0.0, 2.0))
        res = ms.integrate_region(lambda u, v: u ** 3 * v ** 2 + 1.0, region, QUAD)
        exact = (1.0 / 4.0) * (8.0 / 3.0) + 2.0
        assert res.value == pytest.approx(exact, rel=1e-14)
        assert res.converged

    def test_disk_and_annulus_area(self):
        one = lambda u, v: np.ones_like(u)
        disk = ms.integrate_region(one, ms.Region.disk((0.3, -0.2), 1.2), QUAD)
        assert disk.value == pytest.approx(math.pi * 1.44, rel=1e-13)
        ann = ms.integrate_region(one, ms.Region.annulus((0.0, 0.0), (1.0, 2.0)), QUAD)
        assert ann.value == pytest.approx(3.0 * math.pi, rel=1e-13)

    def test_oscillatory_rectangle(self):
        region = ms.Region.rectangle((0.0, 1.0), (0.0, 1.0))
        res = ms.integrate_region(lambda u, v: np.sin(10 * u) * np.cos(7 * v), region, QUAD)
        exact = ((1 - math.cos(10.0)) / 10.0) * (math.sin(7.0) / 7.0)
        assert res.value == pytest.approx(exact, rel=1e-12)
        assert abs(res.value - exact) <= max(res.error, 1e-13)

    def test_bitwise_deterministic(self):
        region = ms.Region.annulus((0.0, 0.0), (0.5, 2.0))
        fn = lambda u, v: np.exp(np.sin(3 * u) - v) + u * v
        a = ms.integrate_region(fn, region, QUAD)
        b = ms.integrate_region(fn, region, QUAD)
        assert a.value == b.value and a.error == b.error

    def test_curve_quadrature(self):
        res = ms.integrate_curve(lambda t: np.sin(t) ** 2, 0.0, TWO_PI, QUAD)
        assert res.value == pytest.approx(math.pi, rel=1e-14)


class TestNodeRanges:
    """Nodes built for a range of a level's cells are that slice of the whole level, bit for bit."""

    SPEC = ms.QuadratureSpec(order=3, cells=(2, 5), segments=7)
    REGIONS = [ms.Region.rectangle((-1.3, 2.1), (0.2, 1.7)), ms.Region.disk((0.3, -0.2), 1.1),
               ms.Region.annulus((0.1, 0.2), (0.5, 2.5))]

    @staticmethod
    def ranges(cells, row):
        """One cell, ranges that cross a row of `row` cells, and the whole level."""
        return [(0, 1), (cells - 1, cells), (row - 1, row + 1), (1, cells - 1), (0, cells)]

    @pytest.mark.parametrize("region", REGIONS, ids=lambda r: r.kind)
    @pytest.mark.parametrize("factor", [1, 2, 4])
    def test_region_range_is_a_slice_of_the_level(self, region, factor):
        whole = ms.region_nodes(region, self.SPEC, factor)
        row, per_cell = self.SPEC.cells[1] * factor, self.SPEC.order ** 2
        cells = whole[0].size // per_cell
        assert cells == self.SPEC.cells[0] * factor * row
        for a, b in self.ranges(cells, row):
            part = ms.region_nodes(region, self.SPEC, factor, slice(a, b))
            for got, want in zip(part, whole):
                assert bitwise(got, want[a * per_cell:b * per_cell])

    @pytest.mark.parametrize("factor", [1, 2, 4])
    def test_curve_range_is_a_slice_of_the_level(self, factor):
        whole = ms.curve_nodes(0.4, 5.9, self.SPEC, factor)
        cells = self.SPEC.segments * factor
        for a, b in self.ranges(cells, self.SPEC.segments):
            part = ms.curve_nodes(0.4, 5.9, self.SPEC, factor, slice(a, b))
            for got, want in zip(part, whole):
                assert bitwise(got, want[a * self.SPEC.order:b * self.SPEC.order])


def hausdorff_area_density(model, patch, u, v):
    """Density (f^2 ^ f^3)(Tu, Tv) of the limit (Hausdorff) surface measure against du dv."""
    return np.asarray(SurfaceGeometry(model, patch, u, v).wedge.value)


def area_density_L(model, patch, u, v, L: float):
    """Density sqrt(L + A^2) dsigma of the surface measure under the L metric against du dv."""
    geom = SurfaceGeometry(model, patch, u, v)
    A = np.asarray(geom.A.value)
    return np.sqrt(L + A * A) * np.asarray(geom.wedge.value)


class TestDensities:
    def test_heisenberg_limit_area_density(self):
        assert hausdorff_area_density(HEIS, PLANE, 1.0, 0.0) == pytest.approx(0.5, abs=1e-14)
        assert hausdorff_area_density(HEIS, PLANE, 2.0, 0.0) == pytest.approx(1.0, abs=1e-14)

    def test_finite_L_density_ratio(self):
        limit = hausdorff_area_density(HEIS, PLANE, 1.0, 0.0)
        at4 = area_density_L(HEIS, PLANE, 1.0, 0.0, 4.0)
        assert at4 / (2.0 * limit) == pytest.approx(math.sqrt(2.0), rel=1e-14)

    def test_density_ratio_tends_to_one(self):
        limit = hausdorff_area_density(HEIS, PLANE, 1.0, 0.0)
        gaps = []
        for L in (1e2, 1e4, 1e6):
            ratio = area_density_L(HEIS, PLANE, 1.0, 0.0, L) / (math.sqrt(L) * limit)
            gaps.append(abs(ratio - 1.0))
        assert gaps[0] > gaps[1] > gaps[2]
        assert gaps[2] < 1e-5

    def test_rototranslation_density(self):
        assert hausdorff_area_density(ROTO, RPLANE, 0.3, math.pi / 2) == pytest.approx(1.0, abs=1e-14)
        for v in (0.4, 0.9, 2.1):
            got = hausdorff_area_density(ROTO, RPLANE, -0.7, v)
            assert got == pytest.approx(abs(math.sin(v)), rel=1e-13)

    def test_density_positive_at_regular_points(self):
        rng = np.random.default_rng(7)
        r = rng.uniform(0.5, 2.5, 40)
        th = rng.uniform(0.0, TWO_PI, 40)
        vals = hausdorff_area_density(HEIS, PLANE, r * np.cos(th), r * np.sin(th))
        assert np.all(vals > 0)
        vals_l = area_density_L(HEIS, PLANE, r * np.cos(th), r * np.sin(th), 10.0)
        assert np.all(vals_l > 0)

    def test_rejects_nonpositive_L(self):
        with pytest.raises(ValueError):
            ms._K_dsigma_L(0.0)
        circ = CurveOnSurface.parse(("cos(t)", "sin(t)"), (0.0, TWO_PI))
        with pytest.raises(ValueError):
            cv.normal_curvature_L_jets(cv.CurveGeometry(HEIS, PLANE, circ, np.array([0.1])), -2.0)

    def test_characteristic_point_raises(self):
        with pytest.raises(CharacteristicPointError):
            hausdorff_area_density(HEIS, PLANE, 0.0, 0.0)


def hausdorff_length_density(model, patch, curve, t):
    """Density |e^3(gamma')| of the limit length measure against dt."""
    return np.abs(np.asarray(cv.CurveGeometry(model, patch, curve, t).y.value))


def length_density_L(model, patch, curve, t, L: float):
    """Density |gamma'|_L of induced arclength under the L metric against dt."""
    return np.asarray(cv.CurveGeometry(model, patch, curve, t).speed_L(L).value)


class TestLengthDensity:
    def test_circle_density_and_total(self):
        for r0 in (1.0, 1.5):
            circ = CurveOnSurface.parse((f"{r0}*cos(t)", f"{r0}*sin(t)"), (0.0, TWO_PI))
            t = np.linspace(0.2, 6.0, 9)
            dens = hausdorff_length_density(HEIS, PLANE, circ, t)
            assert np.allclose(dens, r0 * r0 / 2.0, rtol=0, atol=1e-13)
            total = ms.integrate_curve(
                lambda s: hausdorff_length_density(HEIS, PLANE, circ, s),
                0.0, TWO_PI, QUAD)
            assert total.value == pytest.approx(math.pi * r0 * r0, rel=1e-12)

    def test_scaled_finite_L_density_converges(self):
        circ = CurveOnSurface.parse(("cos(t)", "sin(t)"), (0.0, TWO_PI))
        t = np.linspace(0.3, 5.9, 5)
        limit = hausdorff_length_density(HEIS, PLANE, circ, t)
        gaps = []
        for L in (1e2, 1e4, 1e6):
            scaled = length_density_L(HEIS, PLANE, circ, t, L) / math.sqrt(L)
            gaps.append(np.max(np.abs(scaled - limit)))
        assert gaps[0] > gaps[1] > gaps[2]
        assert gaps[2] < 1e-5

    @pytest.mark.parametrize("name", ["rt_disk", "heisenberg_annulus"])
    def test_density_is_the_speed_in_the_normal_curvature(self, name):
        # one ds_L expression: the density is the |gamma'|_L of k_n^L, bit for bit
        sc = builtin_scene(name)
        for curve in sc.boundary:
            t = np.linspace(curve.t0, curve.t1, 7)
            for L in (0.5, 1e2, 1e4):
                _, speed = cv.normal_curvature_L_jets(
                    cv.CurveGeometry(sc.model, sc.patch, curve, t), L)
                density = length_density_L(sc.model, sc.patch, curve, t, L)
                assert bitwise(density, np.asarray(speed.value))

    def test_reversal_leaves_density_unchanged(self):
        fwd = CurveOnSurface.parse(("cos(t)", "sin(t)"), (0.0, TWO_PI))
        rev = CurveOnSurface.parse(("cos(-t)", "sin(-t)"), (-TWO_PI, 0.0))
        t = np.linspace(0.2, 6.0, 7)
        a = hausdorff_length_density(HEIS, PLANE, fwd, t)
        b = hausdorff_length_density(HEIS, PLANE, rev, -t)
        assert np.allclose(a, b, rtol=0, atol=1e-14)


class TestSceneValidation:
    def test_region_outside_domain(self):
        region = ms.Region.disk((0.0, 0.5), 0.8)
        bad = scene(ROTO, RPLANE, region, ())
        with pytest.raises(SceneError, match="outside the surface domain"):
            ms.integrate_K_dsigma(bad)

    def test_characteristic_region_rejected(self):
        region = ms.Region.disk((0.0, 0.0), 1.0)
        bad = scene(HEIS, PLANE, region, ())
        with pytest.raises(CharacteristicPointError, match="pre-scan"):
            ms.integrate_K_dsigma(bad)

    def test_rejects_nonpositive_L(self):
        with pytest.raises(ValueError):
            ms.finite_L_gauss_bonnet(annulus_scene(), 0.0)


class TestHeisenbergAnnulus:
    """Closed-form scene: K dsigma integrates to -du dv/r in polar form."""

    def test_area_integral(self):
        area = annulus_report().area
        assert area.value == pytest.approx(-TWO_PI, rel=1e-6)
        assert area.converged
        assert abs(area.value + TWO_PI) <= max(area.error, 1e-12)

    def test_boundary_integrals(self):
        outer, inner = annulus_report().boundary
        assert outer.value == pytest.approx(2.0 * TWO_PI, rel=1e-9)
        assert inner.value == pytest.approx(-TWO_PI, rel=1e-9)

    def test_residual(self):
        rep = annulus_report()
        assert abs(rep.residual) <= 1e-6 * TWO_PI
        assert rep.chi == 0

    def test_residual_matches_reported_parts_exactly(self):
        rep = annulus_report()
        total = rep.area.value
        for part in rep.boundary:
            total += part.value
        assert rep.residual == total

    def test_refinement_convergence(self):
        rep = annulus_report()
        doubled = ms.QuadratureSpec(cells=(16, 16), segments=128)
        fine = ms.integrate_K_dsigma(at_quad(annulus_scene(), doubled))
        assert abs(fine.value - rep.area.value) <= rep.area.error
        for part, curve in zip(rep.boundary, annulus_scene().boundary):
            fine_part = ms.integrate_kn_ds(
                scene(HEIS, PLANE, annulus_scene().region, (curve,), doubled))[0]
            assert abs(fine_part.value - part.value) <= part.error

    def test_stokes_consistency(self):
        assert annulus_report().stokes_gap <= 1e-6


class TestRototranslationDisk:
    def test_area_integral_against_oracle(self):
        area = disk_report().area
        oracle = sin_v_disk_oracle()
        assert abs(area.value - oracle) <= 1e-6 * abs(oracle)

    def test_boundary_cancels_area(self):
        rep = disk_report()
        assert abs(rep.boundary[0].value + rep.area.value) <= 1e-6 * abs(rep.area.value)

    def test_residual(self):
        rep = disk_report()
        assert abs(rep.residual) <= 1e-6 * abs(rep.area.value)
        assert rep.chi == 1

    def test_boundary_integrand_smooth_at_tangency(self):
        from srlab.curvature import CurveGeometry
        cg = CurveGeometry(ROTO, RPLANE, disk_scene().boundary[0], np.array([0.0, math.pi]))
        vals = ms.boundary_integrand_limit(cg)
        assert np.all(np.isfinite(vals))
        assert np.allclose(vals, 0.0, atol=1e-13)

    def test_stokes_consistency(self):
        assert disk_report().stokes_gap <= 1e-6


class TestZeroTorsionCurve:
    def test_curve_in_A_zero_region_integrates_to_zero(self):
        circ = CurveOnSurface.parse(("cos(t)", "1.5+sin(t)"), (0.0, TWO_PI))
        sc = scene(HEIS, VERT, ms.Region.disk((0.0, 1.5), 1.0), (circ,))
        res = ms.integrate_kn_ds(sc)[0]
        assert res.value == 0.0


class TestOrientation:
    def test_boundary_reversal_flips_each_integral(self):
        rep = annulus_report()
        outer_rev = CurveOnSurface.parse(("2*cos(-t)", "2*sin(-t)"), (0.0, TWO_PI))
        inner_rev = CurveOnSurface.parse(("cos(t)", "sin(t)"), (0.0, TWO_PI))
        rev = scene(HEIS, PLANE, annulus_scene().region, (outer_rev, inner_rev))
        flipped = ms.integrate_kn_ds(rev)
        assert flipped[0].value == pytest.approx(-rep.boundary[0].value, rel=1e-12)
        assert flipped[1].value == pytest.approx(-rep.boundary[1].value, rel=1e-12)

    def test_patch_swap_preserves_area_flips_boundary(self):
        # Swapping the roles of u and v keeps the same ambient annulus but
        # reverses the parameter-plane orientation: the forced-positive area
        # density keeps K dsigma unchanged while A changes sign, so every
        # boundary integral over the same ambient curves flips.
        swapped = SurfacePatch.parse(("v", "u", "0"), {"u": (-3.0, 3.0), "v": (-3.0, 3.0)})
        outer = CurveOnSurface.parse(("2*sin(t)", "2*cos(t)"), (0.0, TWO_PI))
        inner = CurveOnSurface.parse(("sin(-t)", "cos(-t)"), (0.0, TWO_PI))
        sw = scene(HEIS, swapped, annulus_scene().region, (outer, inner))
        rep = annulus_report()
        area_sw = ms.integrate_K_dsigma(sw)
        assert area_sw.value == pytest.approx(rep.area.value, rel=1e-10)
        bnd_sw = ms.integrate_kn_ds(sw)
        assert bnd_sw[0].value == pytest.approx(-rep.boundary[0].value, rel=1e-10)
        assert bnd_sw[1].value == pytest.approx(-rep.boundary[1].value, rel=1e-10)

    def test_patch_swap_with_induced_convention_restores_residual(self):
        # After the swap the induced boundary convention asks for the
        # opposite parameter direction, which restores the cancellation.
        swapped = SurfacePatch.parse(("v", "u", "0"), {"u": (-3.0, 3.0), "v": (-3.0, 3.0)})
        outer = CurveOnSurface.parse(("2*sin(-t)", "2*cos(-t)"), (0.0, TWO_PI))
        inner = CurveOnSurface.parse(("sin(t)", "cos(t)"), (0.0, TWO_PI))
        sw = scene(HEIS, swapped, annulus_scene().region, (outer, inner))
        rep = ms.gauss_bonnet_residual(sw)
        assert abs(rep.residual) <= 1e-6 * TWO_PI


class TestFiniteLGaussBonnet:
    def test_annulus_scaled_sum_vanishes(self):
        row = ms.finite_L_gauss_bonnet(annulus_scene(), 100.0)
        assert row.target == 0.0
        assert abs(row.scaled_sum) <= 1e-8

    def test_disk_matches_chi_term(self):
        row = ms.finite_L_gauss_bonnet(disk_scene(), 100.0)
        assert row.target == pytest.approx(TWO_PI / 10.0, rel=1e-15)
        assert abs(row.scaled_sum - row.target) <= 0.01 * row.target

    def test_scaled_sum_decays(self):
        sums = [abs(ms.finite_L_gauss_bonnet(disk_scene(), L).scaled_sum)
                for L in (1e2, 1e4)]
        assert sums[1] < sums[0]
        assert sums[1] < 0.1

    def test_limit_consistency_monotone(self):
        target = disk_report().area.value
        gaps = [abs(ms.finite_L_gauss_bonnet(disk_scene(), L).area_part - target)
                for L in (1e2, 1e3, 1e4)]
        assert gaps[0] > gaps[1] > gaps[2]

    def test_report_carries_finite_rows(self):
        rep = ms.gauss_bonnet_residual(annulus_scene(), L_values=(100.0,))
        assert len(rep.finite_rows) == 1
        row = rep.finite_rows[0]
        assert row.L == 100.0
        assert row.gap == row.scaled_sum - row.target


class TestOtherBuiltinModels:
    """Gauss-Bonnet, its finite-L rows and the Stokes check in the two built-in
    models no shipped scene uses, each on a disk clear of its characteristic
    set (x = 0 on the polarized plane, z = 0 on the Minkowski one).

    The L grid stops at 100: at order 8 the L = 1e4 rows do not converge.
    """

    QUADRATURE = {"order": 8, "cells": [4, 4], "segments": 16}
    SCENES = {
        "polarized_heisenberg": (["u", "v", "0"], [2.0, 0.0], 1.0, ["2+cos(t)", "sin(t)"]),
        "minkowski_rototranslation": (["u", "0", "v"], [0.0, 1.5], 0.8,
                                      ["0.8*cos(t)", "1.5+0.8*sin(t)"]),
    }

    @pytest.mark.parametrize("model", SCENES)
    def test_gauss_bonnet_and_stokes(self, model):
        phi, center, radius, curve = self.SCENES[model]
        sc = scene_from_config({
            "model": {"builtin": model},
            "surface": {"phi": phi, "domain": {"u": [-3.0, 3.0], "v": [-3.0, 3.0]}},
            "region": {"type": "disk", "center": center, "radius": radius,
                       "euler_characteristic": 1},
            "boundary": [{"curve": curve, "t": [0.0, TWO_PI]}],
            "quadrature": self.QUADRATURE,
            "L_grid": [1.0, 100.0],
        }, name=model)
        rep = ms.gauss_bonnet_residual(sc, sc.L_grid)
        assert rep.area.converged and all(res.converged for res in rep.boundary)
        assert abs(rep.residual) <= 1e-12
        assert len(rep.finite_rows) == 2
        for row in rep.finite_rows:
            assert row.converged and abs(row.gap) <= 1e-9
        assert rep.stokes_gap <= 1e-12

    # the shipped quadrature, and L up to 1e4
    CLI_SCENES = {
        "polarized_heisenberg": (["u", "v", "0"], [2.0, 0.0], 0.5,
                                 ["2+0.5*cos(t)", "0.5*sin(t)"]),
        "minkowski_rototranslation": SCENES["minkowski_rototranslation"],
    }

    @pytest.mark.parametrize("model", CLI_SCENES)
    def test_gauss_bonnet_cli_at_the_shipped_quadrature(self, model, capsys, tmp_path):
        phi, center, radius, curve = self.CLI_SCENES[model]
        path = tmp_path / f"{model}.json"
        path.write_text(json.dumps({
            "model": {"builtin": model},
            "surface": {"phi": phi, "domain": {"u": [-3.0, 3.0], "v": [-3.0, 3.0]}},
            "region": {"type": "disk", "center": center, "radius": radius,
                       "euler_characteristic": 1},
            "boundary": [{"curve": curve, "t": [0.0, TWO_PI]}],
            "quadrature": shipped_config("rt_disk")["quadrature"],
            "L_grid": [1.0, 100.0, 1e4],
        }), encoding="utf-8")
        assert cli.main(["gauss-bonnet", "--scene", str(path)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert abs(report["residual"]) <= 1e-12
        assert [row["L"] for row in report["finite_L"]] == [1.0, 100.0, 1e4]
        for row in report["finite_L"]:
            assert abs(row["gap"]) <= 1e-12


class TestChartChangeLaw:
    """A map `F` that carries one model's frame onto another's (or its own)
    makes `(model, phi)` and `(model', F o phi)` one surface in two charts, so
    their reports agree to rounding. `F(x, y, z) = (x, y, z + x y / 2)` carries
    the `heisenberg` frame onto the `polarized_heisenberg` one; the other laws
    are isometries of one model.

    A law shares all pipeline code with what it checks, so it finds
    coordinate-dependent bugs (a chart component read where a frame
    component belongs), not a formula error common to both sides.
    """

    def report(self, model: str, phi: list, L_values=(1e2, 1e4), base="heisenberg_annulus"):
        """The report of `phi` in `model` over the region and boundary of scene `base`."""
        cfg = shipped_config(base)
        sc = scene_from_config(dict(
            cfg, model={"builtin": model}, surface=dict(cfg["surface"], phi=phi),
            quadrature={"order": 8, "cells": [4, 4], "segments": 16}))
        return ms.gauss_bonnet_residual(sc, L_values)

    @staticmethod
    def assert_scaled(a, b, scale: float):
        """Every integral of report `a` is `scale` times its counterpart in `b`."""
        pairs = [(a.area.value, b.area.value), (a.curl.value, b.curl.value)]
        pairs += [(x.value, y.value) for x, y in zip(a.boundary, b.boundary, strict=True)]
        for x, y in zip(a.finite_rows, b.finite_rows, strict=True):
            pairs += [(x.area_part, y.area_part), (x.boundary_part, y.boundary_part)]
        assert b.boundary and len(pairs) == 6 + len(b.boundary)
        for x, y in pairs:
            assert x == pytest.approx(scale * y, rel=1e-12, abs=0.0)

    def test_heisenberg_to_polarized(self):
        a = self.report("heisenberg", ["u", "v", "0.3*u*v + 0.1*u"])
        b = self.report("polarized_heisenberg", ["u", "v", "0.3*u*v + 0.1*u + u*v/2"])
        self.assert_scaled(a, b, 1.0)

    def test_heisenberg_dilation(self):
        """The dilation `d(x, y, z) = (l x, l y, l^2 z)` pulls `g_L` back to
        `l^2 g_{l^2 L}`, so the report of `d o phi` at `L` is `l` times that of
        `phi` at `l^2 L`: the limit integrals scale by `l`, and the law ties
        rows at different `L` together. Like every law here it cannot catch a
        formula error that both sides share."""
        l, z = 1.7, "0.3*u*v + 0.1*u"
        dilated = self.report("heisenberg", [f"{l!r}*u", f"{l!r}*v", f"{l * l!r}*({z})"])
        plain = self.report("heisenberg", ["u", "v", z], (l * l * 1e2, l * l * 1e4))
        self.assert_scaled(dilated, plain, l)

    def test_heisenberg_left_translation(self):
        """The left translation `(x + a, y + b, z + c + (a y - b x)/2)` carries
        each left-invariant `heisenberg` field to itself, so it is an isometry
        of every `g_L` and the translated surface has the surface's report.
        Like every law here it cannot catch a formula error that both sides
        share."""
        a, b, c, z = 0.7, 1.3, 0.4, "0.3*u*v + 0.1*u"
        moved = self.report("heisenberg", [f"u + {a!r}", f"v + {b!r}",
                                           f"{z} + {c!r} + ({a!r}*v - {b!r}*u)/2"])
        self.assert_scaled(moved, self.report("heisenberg", ["u", "v", z]), 1.0)

    def test_heisenberg_rotation(self):
        """The rotation `(x cos t - y sin t, x sin t + y cos t, z)` about the z
        axis turns `(e1, e2)` by `t` at every point and fixes `e3`, so it is an
        isometry of every `g_L` and the rotated surface has the surface's
        report. Like every law here it cannot catch a formula error that both
        sides share."""
        t, z = 0.6, "0.3*u*v + 0.1*u"
        turned = self.report("heisenberg", [f"u*cos({t!r}) - v*sin({t!r})",
                                            f"u*sin({t!r}) + v*cos({t!r})", z])
        self.assert_scaled(turned, self.report("heisenberg", ["u", "v", z]), 1.0)

    def test_rototranslation(self):
        """`F(x, y, z) = (x cos a - y sin a + b1, x sin a + y cos a + b2, z + a)`
        carries `e1 = (cos z, sin z, 0)` at `p` to `e1` at `F(p)` and fixes
        `e2 = d/dz`, so it is an isometry of every `g_L` and the moved
        `rt_disk` surface has the surface's report. Like every law here it
        cannot catch a formula error that both sides share."""
        a, b1, b2 = 0.6, 0.7, -1.3
        moved = self.report("rototranslation", [f"u*cos({a!r}) + {b1!r}",
                                                f"u*sin({a!r}) + {b2!r}", f"v + {a!r}"],
                            base="rt_disk")
        plain = self.report("rototranslation", ["u", "0", "v"], base="rt_disk")
        self.assert_scaled(moved, plain, 1.0)

    def test_minkowski_rototranslation(self):
        """`F(x, y, z) = (x cosh a + y sinh a + b1, x sinh a + y cosh a + b2, z + a)`
        carries `e1 = (cosh z, sinh z, 0)` at `p` to `e1` at `F(p)` and fixes
        `e2 = d/dz`, so it is an isometry of every `g_L` and the moved
        `rt_disk` surface has the surface's report. Like every law here it
        cannot catch a formula error that both sides share."""
        a, b1, b2 = 0.6, 0.7, -1.3
        moved = self.report("minkowski_rototranslation",
                            [f"u*cosh({a!r}) + {b1!r}", f"u*sinh({a!r}) + {b2!r}", f"v + {a!r}"],
                            base="rt_disk")
        plain = self.report("minkowski_rototranslation", ["u", "0", "v"], base="rt_disk")
        self.assert_scaled(moved, plain, 1.0)


class TestSharedGeometry:
    """A report evaluates every integrand of a node set on one geometry.

    A coarse rule and small chunks keep these cheap while still running
    several chunks per pass and several refinement levels.
    """

    COARSE = ms.QuadratureSpec(order=8, cells=(4, 4), segments=16)

    @pytest.mark.parametrize("name", ["rt_disk", "heisenberg_annulus"])
    def test_report_matches_standalone_integrals_bitwise(self, monkeypatch, name):
        monkeypatch.setattr(ms, "CHUNK", 700)
        sc = dataclasses.replace(builtin_scene(name), quadrature=self.COARSE)
        rep = ms.gauss_bonnet_residual(sc, L_values=sc.L_grid)
        assert rep.area == over_region(sc, ms._K_dsigma)
        assert rep.curl == over_region(sc, ms._limit_curl)
        assert rep.boundary == along_boundary(sc, ms.boundary_integrand_limit)
        rows = tuple(ms._finite_row(sc.region.chi, L, over_region(sc, ms._K_dsigma_L(L)),
                                    along_boundary(sc, ms._kn_ds_L(L)))
                     for L in sc.L_grid)
        assert rep.finite_rows == rows

    @staticmethod
    def save_builds(monkeypatch, folder, owner, name, kind, coords):
        """Save the node coordinates (the arguments at `coords`) of each
        `owner.name(...)` call to a file in `folder`, named "kind-pid-n.npy".

        Builds happen in the workers too, which a list in this process cannot see.
        """
        orig, counter = getattr(owner, name), itertools.count()

        def wrapper(*args):
            np.save(folder / f"{kind}-{os.getpid()}-{next(counter)}.npy",
                    np.stack([np.asarray(args[i], dtype=float) for i in coords]))
            return orig(*args)

        monkeypatch.setattr(owner, name, wrapper)

    @pytest.mark.parametrize("L_values", [(), (1e2, 1e3, 1e4)])
    def test_one_geometry_per_chunk_per_level(self, monkeypatch, tmp_path, L_values):
        # a round lays its levels' node sets end to end, for the region and
        # each curve, and builds one geometry per item of whole cells in
        # whichever process takes the item
        monkeypatch.setattr(ms, "CHUNK", 700)
        monkeypatch.setattr(ms, "WORKERS", 2)
        self.save_builds(monkeypatch, tmp_path, ms, "SurfaceGeometry", "region", (2, 3))
        self.save_builds(monkeypatch, tmp_path, cv, "CurveGeometry", "curve", (3,))
        rounds, run_round = [], ms._pass
        monkeypatch.setattr(ms, "_pass", lambda tasks: rounds.append(tasks) or run_round(tasks))
        sc = at_quad(annulus_scene(), self.COARSE)
        ms.gauss_bonnet_residual(sc, L_values=L_values)
        files = list(tmp_path.glob("*.npy"))
        assert len({f.name.split("-")[1] for f in files}) > 1

        # levels 0 and 1 in the first round, then one level per round
        assert [{task.levels for task in tasks} for tasks in rounds] == \
            [{(0, 1)}] + [{(k,)} for k in range(2, len(rounds) + 1)]
        needed = collections.Counter()
        for tasks in rounds:
            for task in tasks:
                kind = "region" if task.domain is sc.region else "curve"
                whole = (task.nodes(k, slice(None)) for k in task.levels)
                *coords, _ = (np.concatenate(x) for x in zip(*whole))
                step = ms.CHUNK // task.per_cell * task.per_cell
                for lo in range(0, coords[0].size, step):
                    needed[kind, np.stack([c[lo:lo + step] for c in coords]).tobytes()] += 1
        built = collections.Counter((f.name.split("-")[0], np.load(f).tobytes()) for f in files)
        assert built == needed

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("name", ["rt_disk", "heisenberg_annulus"])
    def test_report_carries_the_two_call_stokes_gap(self, monkeypatch, name, workers):
        # the gap as a separate curl pass and boundary pass would give it
        monkeypatch.setattr(ms, "CHUNK", 700)
        monkeypatch.setattr(ms, "WORKERS", workers)
        sc = dataclasses.replace(builtin_scene(name), quadrature=self.COARSE)
        region = over_region(sc, ms._limit_curl).value
        boundary = 0.0
        for res in along_boundary(sc, ms.boundary_integrand_limit):
            boundary += res.value
        two_calls = abs(region - boundary) / max(1.0, abs(region), abs(boundary))
        with_rows = ms.gauss_bonnet_residual(sc, sc.L_grid)
        assert len(with_rows.finite_rows) == len(sc.L_grid) > 0
        assert bitwise(with_rows.stokes_gap, two_calls)
        assert bitwise(ms.gauss_bonnet_residual(sc).stokes_gap, two_calls)
        assert bitwise(ms.stokes_consistency_gap(sc), two_calls)

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("name", ["rt_disk", "heisenberg_annulus"])
    def test_stokes_curl_adds_no_geometry_build(self, monkeypatch, tmp_path, name, workers):
        monkeypatch.setattr(ms, "CHUNK", 700)
        monkeypatch.setattr(ms, "WORKERS", workers)
        self.save_builds(monkeypatch, tmp_path, ms, "SurfaceGeometry", "region", (2, 3))
        sc = dataclasses.replace(builtin_scene(name), quadrature=self.COARSE)
        report = ms.gauss_bonnet_residual(sc, sc.L_grid)
        assert report.curl.converged and report.curl.refinements <= report.area.refinements
        per_cell = self.COARSE.order ** 2
        level0 = self.COARSE.cells[0] * self.COARSE.cells[1] * per_cell
        levels = [level0 * 4 ** k for k in range(report.area.refinements + 1)]
        # the first round joins levels 0 and 1; items are whole cells
        step = ms.CHUNK // per_cell * per_cell
        chunks = sum(math.ceil(n / step) for n in [sum(levels[:2])] + levels[2:])
        assert len(list(tmp_path.glob("region-*.npy"))) == chunks

    def test_each_reader_makes_one_report(self, monkeypatch):
        # only the report builds scene runs; the four readers each read one
        sc = at_quad(annulus_scene(), self.COARSE)
        full = ms.gauss_bonnet_residual(sc, (1e2,))
        calls, report, refine = [], ms.gauss_bonnet_residual, ms._refine
        monkeypatch.setattr(ms, "gauss_bonnet_residual",
                            lambda *args: calls.append(args) or report(*args))
        monkeypatch.setattr(ms, "_refine", lambda *args: calls.append("_refine") or refine(*args))
        for read, args, report_args, want in [
            (ms.integrate_K_dsigma, (sc,), (sc,), full.area),
            (ms.integrate_kn_ds, (sc,), (sc,), full.boundary),
            (ms.finite_L_gauss_bonnet, (sc, 1e2), (sc, (1e2,)), full.finite_rows[0]),
            (ms.stokes_consistency_gap, (sc,), (sc,), full.stokes_gap),
        ]:
            calls.clear()
            assert repr(read(*args)) == repr(want)
            assert calls == [report_args, "_refine"]

    def test_report_builds_no_companion_forms(self, monkeypatch):
        # K_L and kn_L read only W23_L: W12_L, W13_L and d(beta) stay unbuilt
        built = []
        init = cv.LFormAssembly.__init__

        def record(asm, *args):
            init(asm, *args)
            built.append(asm)

        monkeypatch.setattr(cv.LFormAssembly, "__init__", record)
        ms.gauss_bonnet_residual(at_quad(annulus_scene(), self.COARSE), L_values=(1e2, 1e4))
        assert built
        for asm in built:
            assert not {"omega12", "omega13", "dbeta"} & set(vars(asm))

    def test_boundary_integrand_is_normal_curvature_times_length(self):
        circ = CurveOnSurface.parse(("cos(t)", "sin(t)"), (0.0, TWO_PI))
        t = np.linspace(0.3, 5.9, 5)
        cg = cv.CurveGeometry(HEIS, PLANE, circ, t)
        num, norm = cv.normal_curvature_L_jets(cg, 100.0)
        # sqrt(100) is exactly 10
        assert np.array_equal(ms._kn_ds_L(100.0)(cg), np.asarray(num.value) / 10.0)
        kn = cv.normal_curvature_L(cg, 100.0)
        assert np.array_equal(kn, np.asarray(num.value) / np.asarray(norm.value))


def dense_scene():
    """An inline frame and surface with no constant component (the benchmark's dense variant 0)."""
    annulus = shipped_config("heisenberg_annulus")
    return scene_from_config({
        "model": {"frame": {
            "e1": ["cos(0.2*z)", "sin(0.2*z)", "-y/2 + 0.1*sin(x)"],
            "e2": ["-sin(0.2*z)", "cos(0.2*z)", "x/2 + 0.1*cos(y)"],
        }},
        "surface": {"phi": ["u + 0.1*sin(v)", "v + 0.1*sin(u)", "0.2*sin(u)*cos(v)"],
                    "domain": {"u": [-3.0, 3.0], "v": [-3.0, 3.0]}},
        "region": annulus["region"],
        "boundary": annulus["boundary"],
    }, name="dense")


def bitwise(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def region_run(sc, fns) -> tuple:
    """A refinement run of `fns` over the scene's region, built as the report builds it."""
    return partial(ms._surface_geometry, sc.model, sc.patch.phi), list(fns), sc.region


def curve_runs(sc, fns) -> list:
    """One refinement run of `fns` along each boundary curve of the scene."""
    return [(partial(ms._curve_geometry, sc.model, sc.patch.phi, curve), list(fns),
             (curve.t0, curve.t1)) for curve in sc.boundary]


def over_region(sc, fn) -> ms.QuadratureResult:
    """`fn` integrated over the scene's region in a run of its own."""
    return ms._refine([region_run(sc, [fn])], sc.quadrature)[0][0]


def along_boundary(sc, fn) -> tuple:
    """`fn` integrated along each boundary curve, one result per curve, in runs of their own."""
    return tuple(res for res, in ms._refine(curve_runs(sc, [fn]), sc.quadrature))


class TestOrderBudget:
    """Each geometry is built at the highest order its active integrands read,
    and every number is the same, bit for bit, as on order-3 geometry."""

    SPEC = ms.QuadratureSpec(order=6, cells=(3, 3), segments=12, max_refine=2)
    SCENES = ["rt_disk", "heisenberg_annulus", "dense"]

    @staticmethod
    def load(name):
        return dense_scene() if name == "dense" else builtin_scene(name)

    def test_declared_orders(self):
        assert ms._K_dsigma.order == ms._limit_curl.order == 2
        assert ms.boundary_integrand_limit.order == ms._kn_ds_L(10.0).order == 2
        assert ms._K_dsigma_L(10.0).order == 3

    @pytest.mark.parametrize("name", SCENES)
    def test_integrands_at_declared_order_match_order_3(self, name):
        sc = self.load(name)
        u, v, _ = ms.region_nodes(sc.region, self.SPEC)
        for fn in (ms._K_dsigma, ms._limit_curl, ms._K_dsigma_L(1e2), ms._K_dsigma_L(1e4)):
            at_order = fn(SurfaceGeometry(sc.model, sc.patch, u, v, fn.order))
            assert bitwise(at_order, fn(SurfaceGeometry(sc.model, sc.patch, u, v, 3)))
        for curve in sc.boundary:
            t, _ = ms.curve_nodes(curve.t0, curve.t1, self.SPEC)
            for fn in (ms.boundary_integrand_limit, ms._kn_ds_L(1e2), ms._kn_ds_L(1e4)):
                at_order = fn(cv.CurveGeometry(sc.model, sc.patch, curve, t, fn.order))
                assert bitwise(at_order, fn(cv.CurveGeometry(sc.model, sc.patch, curve, t, 3)))

    @pytest.mark.parametrize("name", SCENES)
    def test_single_point_curve_quantities_at_default_order_match_order_3(self, name):
        sc = self.load(name)
        for curve in sc.boundary:
            # clear of t = 0 and pi, where the rt_disk boundary is tangent to the horizontal
            t = curve.t0 + (curve.t1 - curve.t0) * np.array([0.05, 0.2, 0.35, 0.6, 0.8, 0.95])
            cgs = (cv.CurveGeometry(sc.model, sc.patch, curve, t),
                   cv.CurveGeometry(sc.model, sc.patch, curve, t, 3))
            assert cgs[0].geom.order == 2
            for attr in ("x", "y", "A"):
                assert bitwise(*(getattr(cg, attr).value for cg in cgs))
            assert bitwise(*(cv.normal_curvature_limit(cg) for cg in cgs))
            for L in (1.0, 1e2, 1e4):
                for fn in (cv.normal_curvature_L, cv.geodesic_curvature_oracle):
                    assert bitwise(*(fn(cg, L) for cg in cgs))

    @pytest.mark.parametrize("name", SCENES)
    def test_report_and_stokes_match_order_3(self, monkeypatch, name):
        # the record sees only this process's builds
        monkeypatch.setattr(ms, "WORKERS", 1)
        sc = at_quad(self.load(name), self.SPEC)
        L_values = (1e2, 1e4)
        orders = {"region": [], "curve": []}
        surface_geometry, curve_geometry = ms.SurfaceGeometry, cv.CurveGeometry

        def record(kind, build):
            def wrapper(*args):
                orders[kind].append(args[-1])
                return build(*args)
            return wrapper

        monkeypatch.setattr(ms, "SurfaceGeometry", record("region", surface_geometry))
        monkeypatch.setattr(cv, "CurveGeometry", record("curve", curve_geometry))
        report = ms.gauss_bonnet_residual(sc, L_values=L_values)
        # the first level evaluates the finite-L area rows, which read order 3
        assert orders["region"][0] == 3 and set(orders["curve"]) == {2}
        orders["region"].clear()
        limit_only = ms.gauss_bonnet_residual(sc)
        gap = ms.stokes_consistency_gap(sc)
        assert set(orders["region"]) == {2}

        def forced(build):
            return lambda *args: build(*args[:-1], 3)

        monkeypatch.setattr(ms, "SurfaceGeometry", forced(surface_geometry))
        monkeypatch.setattr(cv, "CurveGeometry", forced(curve_geometry))
        assert repr(ms.gauss_bonnet_residual(sc, L_values=L_values)) == repr(report)
        assert repr(ms.gauss_bonnet_residual(sc)) == repr(limit_only)
        assert bitwise(ms.stokes_consistency_gap(sc), gap)


class TestRegionCut:
    """A region item's geometry keeps only what the region integrands read,
    and each of them gives the bits it gives on the whole geometry."""

    @staticmethod
    def geometries(name, order):
        sc = TestOrderBudget.load(name)
        u, v, _ = ms.region_nodes(sc.region, TestOrderBudget.SPEC)
        return (ms._surface_geometry(sc.model, sc.patch.phi, u, v, order),
                SurfaceGeometry(sc.model, sc.patch, u, v, order))

    @pytest.mark.parametrize("order", [2, 3])
    @pytest.mark.parametrize("name", TestOrderBudget.SCENES)
    def test_region_integrands_match_the_whole_geometry(self, name, order):
        cut, whole = self.geometries(name, order)
        rows = [ms._K_dsigma_L(L) for L in (1e2, 1e3, 1e4)]
        for fn in [ms._K_dsigma, ms._limit_curl] + (rows if order == 3 else []):
            assert bitwise(fn(cut), fn(whole))
        # the readers of the cut tangents and pairings, one at a time: the
        # tangent solves read Tu, Tv values, the forms the pairings to order 1
        readers = [lambda g: g.f2_components,
                   lambda g: g.tangent_components(g.f3_values),
                   lambda g: cv.limit_connection_form(g).curl()]
        if order == 3:
            readers += [lambda g, L=L: cv.LFormAssembly(g, L).omega23.curl() for L in (1e2, 1e4)]
        for read in readers:
            assert bitwise(read(cut), read(whole))
        if order == 2:
            for fn in rows:
                with pytest.raises(ValueError, match="order 3"):
                    fn(cut)

    # f2 and f3 are built from dropped jets, so they raise too
    @pytest.mark.parametrize("attr", ["phi", "f1cov", "cof1_s", "cof2_s", "omega_s", "e1_s",
                                      "e2_s", "e3_s", "f1", "f2", "f3"])
    def test_a_dropped_jet_raises(self, attr):
        cut, whole = self.geometries("dense", 3)
        getattr(whole, attr)
        with pytest.raises(AttributeError):
            getattr(cut, attr)

    def test_kept_orders(self):
        cut, whole = self.geometries("dense", 3)
        for attr, k in (("x", 2), ("y", 2), ("A", 1), ("wedge", 0)):
            assert getattr(cut, attr).order == getattr(whole, attr).order == k
        assert [p.order for p in whole.coframe_Tu + whole.coframe_Tv] == [1, 1, 2] * 2
        assert all(p.order == 1 for p in cut.coframe_Tu + cut.coframe_Tv)
        assert {c.order for c in whole.Tu + whole.Tv} == {2}
        assert {c.order for c in cut.Tu + cut.Tv} == {0}
        # what the cut keeps is the whole geometry's, bit for bit
        for kept, full in zip(cut.coframe_Tu + cut.coframe_Tv + tuple(cut.Tu + cut.Tv),
                              whole.coframe_Tu + whole.coframe_Tv + tuple(whole.Tu + whole.Tv)):
            assert all(bitwise(a, b) for a, b in zip(kept.coef, full.coef))
        fr = cut.frame
        assert {c.order for c in fr.e1 + fr.e2 + fr.e3 + list(fr.omega)} == {0}
        assert fr.coframe[2] is fr.omega


def no_children():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


# The test process. Workers are forked from it, so these module-level
# callables, which pickle into a worker's job by name, can tell where they run.
PARENT = os.getpid()


@ms._reads(2)
def fails_in_a_worker(geom):
    if os.getpid() != PARENT:
        raise RuntimeError("the worker fails its job")
    return ms._K_dsigma(geom)


@ms._reads(2)
def dies_in_a_worker(geom):
    if os.getpid() != PARENT:
        os.kill(os.getpid(), signal.SIGKILL)
    return ms._K_dsigma(geom)


@ms._reads(2)
def sleeps_in_a_worker(geom):
    if os.getpid() != PARENT:
        time.sleep(60)
    return ms._K_dsigma(geom)


@ms._reads(2)
def sleeps_in_a_worker_on_a_curve(cg):
    if os.getpid() != PARENT:
        time.sleep(60)
    return ms.boundary_integrand_limit(cg)


@ms._reads(2)
def not_transverse(cg):
    raise TransversalityError("the curve item fails wherever it runs")


class Stop(BaseException):
    pass


def stops_in_the_parent(model, phi, u, v, order):
    if os.getpid() == PARENT:
        raise Stop
    return ms._surface_geometry(model, phi, u, v, order)


def deal_to_workers(monkeypatch):
    """Make this process evaluate only a round's first item, so the workers
    take every other one, whatever the timing."""
    take = ms._take
    monkeypatch.setattr(ms, "_take", lambda queue: None if os.getpid() == PARENT else take(queue))


class TestForkedPasses:
    """Rounds shared with the process's persistent workers give the serial
    bits and leave no process behind, whatever a round raises."""

    COARSE = TestSharedGeometry.COARSE

    @staticmethod
    def count_forks(monkeypatch) -> list:
        forks, fork = [], os.fork

        def counted():
            pid = fork()
            if pid:
                forks.append(pid)
            return pid

        monkeypatch.setattr(os, "fork", counted)
        return forks

    @staticmethod
    def pool() -> list:
        return [worker.pid for worker in ms._POOL]

    def serial_and_pooled(self, monkeypatch, run) -> tuple:
        """`run()` with a 700-node CHUNK, at WORKERS 1 and then 2."""
        monkeypatch.setattr(ms, "CHUNK", 700)
        runs = []
        for workers in (1, 2):
            monkeypatch.setattr(ms, "WORKERS", workers)
            runs.append(run())
        return tuple(runs)

    def level_pass(self, fn, build=None):
        """`ms._pass` of `fn` over the annulus region at level 1 of the coarse rule."""
        sc = annulus_scene()
        build = build or partial(ms._surface_geometry, sc.model, sc.patch.phi)
        return ms._pass([ms._Task(build, (fn,), sc.region, self.COARSE, (1,))])[0][0][0]

    @pytest.mark.parametrize("name", TestOrderBudget.SCENES)
    def test_workers_give_the_serial_bits(self, monkeypatch, name):
        sc = at_quad(TestOrderBudget.load(name), self.COARSE)
        L_values = (1e2, 1e3, 1e4)
        forks = self.count_forks(monkeypatch)

        def run():
            report = ms.gauss_bonnet_residual(sc, L_values=L_values)
            assert len(report.finite_rows) == len(L_values)
            return repr(report), repr(ms.stokes_consistency_gap(sc)), len(forks)

        (serial, serial_gap, serial_forks), (pooled, pooled_gap, pooled_forks) = \
            self.serial_and_pooled(monkeypatch, run)
        assert serial_forks == 0 and pooled_forks == 1 and self.pool() == forks
        assert pooled == serial and pooled_gap == serial_gap

    @pytest.mark.parametrize("max_refine", [0, 3])
    @pytest.mark.parametrize("name", ["rt_disk", "heisenberg_annulus", "dense"])
    def test_a_round_gives_the_serial_bits_at_the_scene_quadrature(self, monkeypatch, name,
                                                                   max_refine):
        # rt_disk's kn_L row at L = 1e4 refines to level 2, a round of its own
        sc = TestOrderBudget.load(name)
        sc = at_quad(sc, dataclasses.replace(sc.quadrature, max_refine=max_refine))
        L_values = (1e2, 1e3, 1e4)
        runs = []
        for workers in (1, 2):
            monkeypatch.setattr(ms, "WORKERS", workers)
            report = ms.gauss_bonnet_residual(sc, L_values=L_values)
            runs.append((repr(report), repr(report.stokes_gap)))
        assert runs[1] == runs[0]
        if name == "rt_disk" and max_refine == 3:
            kn, = along_boundary(sc, ms._kn_ds_L(1e4))
            assert kn.refinements == 2

    def test_items_hold_whole_cells(self, monkeypatch):
        # order 3: 9-node region cells and 3-node curve cells, which no
        # CHUNK below divides
        spec = ms.QuadratureSpec(order=3, cells=(5, 7), segments=11, max_refine=2)
        sc = at_quad(builtin_scene("heisenberg_annulus"), spec)
        serial = repr(ms.gauss_bonnet_residual(sc, L_values=(1e2, 1e4)))
        for chunk in (50, 5):
            monkeypatch.setattr(ms, "CHUNK", chunk)
            for levels in ((0, 1), (2,)):
                tasks = [ms._Task(None, (), sc.region, spec, levels),
                         ms._Task(None, (), (0.0, 1.0), spec, levels)]
                items = ms._items(tasks, chunk)
                for t, task in enumerate(tasks):
                    spans = [(lo, hi) for i, lo, hi in items if i == t]
                    assert spans[0][0] == 0 and spans[-1][1] == sum(task.sizes())
                    assert all(a[1] == b[0] for a, b in zip(spans, spans[1:]))
                    for lo, hi in spans:
                        assert (hi - lo) % task.per_cell == 0
                        assert hi - lo <= max(chunk, task.per_cell)
            for workers in (1, 2):
                monkeypatch.setattr(ms, "WORKERS", workers)
                assert repr(ms.gauss_bonnet_residual(sc, L_values=(1e2, 1e4))) == serial

    @pytest.mark.parametrize("name", ["rt_disk", "heisenberg_annulus"])
    def test_a_report_does_not_depend_on_the_chunk_size(self, monkeypatch, name):
        # a round joins node sets of two levels, so a geometry's node set
        # changes with the chunk layout, and its values must not
        monkeypatch.setattr(ms, "WORKERS", 1)
        sc = builtin_scene(name)
        reports = []
        for chunk in (8192, 777):
            monkeypatch.setattr(ms, "CHUNK", chunk)
            reports.append(repr(ms.gauss_bonnet_residual(sc, sc.L_grid)))
        assert reports[1] == reports[0]

    def test_a_second_report_reuses_the_worker_through_sigint(self, monkeypatch):
        sc = at_quad(builtin_scene("rt_disk"), self.COARSE)
        monkeypatch.setattr(ms, "CHUNK", 700)
        monkeypatch.setattr(ms, "WORKERS", 2)
        L_values = (1e2, 1e3, 1e4)
        first = repr(ms.gauss_bonnet_residual(sc, L_values))
        workers = self.pool()
        assert len(workers) == 1
        forks = self.count_forks(monkeypatch)
        # a terminal's Ctrl-C reaches the whole process group; workers ignore it
        os.kill(workers[0], signal.SIGINT)
        assert repr(ms.gauss_bonnet_residual(sc, L_values)) == first
        assert forks == [] and self.pool() == workers

    def test_failed_fork_gives_the_serial_bits(self, monkeypatch):
        sc = at_quad(builtin_scene("rt_disk"), self.COARSE)
        L_values = (1e2, 1e3, 1e4)
        monkeypatch.setattr(ms, "CHUNK", 700)
        monkeypatch.setattr(ms, "WORKERS", 1)
        serial = repr(ms.gauss_bonnet_residual(sc, L_values=L_values))
        refused = []

        def refuse():
            refused.append(1)
            raise OSError(errno.EAGAIN, "fork refused")

        monkeypatch.setattr(ms.os, "fork", refuse)
        monkeypatch.setattr(ms, "WORKERS", 2)
        assert repr(ms.gauss_bonnet_residual(sc, L_values=L_values)) == serial
        assert refused and self.pool() == []
        no_children()

    def test_a_job_that_does_not_pickle_runs_here(self, monkeypatch):
        local = ms._reads(2)(lambda geom: ms._K_dsigma(geom))
        forks = self.count_forks(monkeypatch)
        serial, pooled = self.serial_and_pooled(monkeypatch, lambda: self.level_pass(local))
        assert bitwise(pooled, serial)
        # the round is pickled before any worker is forked, so none is
        assert forks == [] and self.pool() == []

    def test_a_64_row_report_gives_the_serial_bits(self, monkeypatch):
        # the worker takes every item but the first, so its one answer holds
        # most of the round's per-cell sums: more than a 64 KiB pipe buffer
        deal_to_workers(monkeypatch)
        sc = builtin_scene("rt_disk")
        L_values = tuple(10.0 ** (k / 8) for k in range(MAX_L_VALUES))
        answers, load = [], pickle.load

        def measured(file):
            obj = load(file)
            if isinstance(obj, dict):
                answers.append(len(pickle.dumps(obj, pickle.HIGHEST_PROTOCOL)))
            return obj

        monkeypatch.setattr(pickle, "load", measured)
        runs = []
        for workers in (1, 2):
            monkeypatch.setattr(ms, "WORKERS", workers)
            runs.append(repr(ms.gauss_bonnet_residual(sc, L_values)))
        assert runs[1] == runs[0]
        assert len(self.pool()) == 1 and max(answers) > 1 << 16

    def test_a_worker_that_dies_while_answering_gives_the_serial_sum(self, monkeypatch):
        # the worker writes half of its answer and exits: the caller reads a
        # truncated pickle, reaps the worker and evaluates its items itself
        deal_to_workers(monkeypatch)
        dump = pickle.dump

        def half_then_exit(obj, file, *args):
            if os.getpid() == PARENT:
                return dump(obj, file, *args)
            data = pickle.dumps(obj, *args)
            file.write(data[:len(data) // 2])
            file.flush()
            os._exit(0)

        monkeypatch.setattr(pickle, "dump", half_then_exit)
        forks = self.count_forks(monkeypatch)
        sums = self.serial_and_pooled(monkeypatch, lambda: self.level_pass(ms._K_dsigma))
        assert math.isfinite(sums[0]) and bitwise(sums[1], sums[0])
        assert len(forks) == 1 and self.pool() == []
        no_children()

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="no /proc/self/fd")
    def test_stopping_the_pool_closes_every_pipe(self, monkeypatch):
        sc = at_quad(builtin_scene("rt_disk"), self.COARSE)
        monkeypatch.setattr(ms, "CHUNK", 700)
        monkeypatch.setattr(ms, "WORKERS", 2)
        before = sorted(os.listdir("/proc/self/fd"))
        ms.gauss_bonnet_residual(sc)
        (worker,) = self.pool()
        os.kill(worker, signal.SIGKILL)
        # wait for the worker's end without reaping it, so the next round's
        # job meets a closed pipe and stays unsent in the job file
        os.waitid(os.P_PID, worker, os.WEXITED | os.WNOWAIT)
        ms.gauss_bonnet_residual(sc)
        ms._stop_pool()
        assert sorted(os.listdir("/proc/self/fd")) == before

    def test_a_job_that_raises_in_the_worker_gives_the_serial_sum(self, monkeypatch):
        deal_to_workers(monkeypatch)
        sums = self.serial_and_pooled(monkeypatch, lambda: self.level_pass(fails_in_a_worker))
        assert math.isfinite(sums[0]) and bitwise(sums[1], sums[0])
        # a worker whose items fail stays in the pool
        assert len(self.pool()) == 1

    def test_a_worker_that_dies_on_a_job_gives_the_serial_sum(self, monkeypatch):
        deal_to_workers(monkeypatch)
        forks = self.count_forks(monkeypatch)
        sums = self.serial_and_pooled(monkeypatch, lambda: self.level_pass(dies_in_a_worker))
        assert math.isfinite(sums[0]) and bitwise(sums[1], sums[0])
        # the dead worker is reaped and leaves the pool
        assert len(forks) == 1 and self.pool() == []
        no_children()

    def test_a_curve_item_that_raises_in_a_worker_gives_the_serial_error(self, monkeypatch):
        # two curve items: this process takes the first and the worker the
        # second, which raises a typed error in every process
        deal_to_workers(monkeypatch)
        sc = at_quad(annulus_scene(), self.COARSE)
        runs = [(partial(ms._curve_geometry, sc.model, sc.patch.phi, curve), [fn],
                 (curve.t0, curve.t1))
                for curve, fn in zip(sc.boundary, (ms.boundary_integrand_limit, not_transverse))]
        forks = self.count_forks(monkeypatch)
        errors = []
        for workers in (1, 2):
            monkeypatch.setattr(ms, "WORKERS", workers)
            with pytest.raises(TransversalityError) as err:
                ms._refine(runs, sc.quadrature)
            errors.append(str(err.value))
        assert errors[1] == errors[0]
        assert len(forks) == 1 and self.pool() == forks

    def test_a_round_larger_than_the_queue_gives_the_serial_bits(self, monkeypatch):
        # as if the queue held two items at a time: this process feeds it
        # the rest as it takes items, and a worker that finds it empty early
        # leaves what remains to this process
        monkeypatch.setattr(ms, "WORKERS", 2)
        monkeypatch.setattr(ms, "CHUNK", 64)
        offer = ms._offer
        monkeypatch.setattr(ms, "_offer",
                            lambda feed, pending: offer(feed, pending[:8]) + pending[8:])
        pooled = self.level_pass(ms._K_dsigma)
        assert len(self.pool()) == 1 and ms._take(ms._QUEUE[0]) is None
        monkeypatch.setattr(ms, "WORKERS", 1)
        assert bitwise(pooled, self.level_pass(ms._K_dsigma))

    def test_each_item_is_built_once_with_more_workers_than_cpus(self, monkeypatch, tmp_path):
        # three workers and this process share the queue: no item is lost or
        # taken twice, since a lost one would be built again after the round
        monkeypatch.setattr(ms, "WORKERS", 4)
        monkeypatch.setattr(ms, "CHUNK", 64)
        TestSharedGeometry.save_builds(monkeypatch, tmp_path, ms, "SurfaceGeometry", "region",
                                       (2, 3))
        pooled = self.level_pass(ms._K_dsigma)
        assert len(self.pool()) == 3
        assert len(list(tmp_path.glob("region-*.npy"))) == 4096 // 64
        monkeypatch.setattr(ms, "WORKERS", 1)
        assert bitwise(pooled, self.level_pass(ms._K_dsigma))

    @staticmethod
    def characteristic_scene(tmp_path, item: int = 1) -> str:
        """The annulus scene with its plane's characteristic point moved onto a
        quadrature node of the given item of the first round.

        The node lies between the points of the pre-scan grid, so the scene
        loads and the error comes from an item's geometry build.
        """
        annulus = builtin_scene("heisenberg_annulus")
        u, v, _ = ms.region_nodes(annulus.region, annulus.quadrature)
        node = item * ms.CHUNK + 845
        cfg = dict(shipped_config("heisenberg_annulus"), surface={
            "phi": [f"u - {float(u[node])!r}", f"v - {float(v[node])!r}", "0"],
            "domain": {"u": [-3.0, 3.0], "v": [-3.0, 3.0]},
        })
        path = tmp_path / "characteristic_node.json"
        path.write_text(json.dumps(cfg), encoding="utf-8")
        return str(path)

    def test_typed_error_from_a_child_block(self, monkeypatch, capsys, tmp_path):
        # the worker takes the failing item, whatever the timing
        deal_to_workers(monkeypatch)
        monkeypatch.setattr(ms, "WORKERS", 2)
        path = self.characteristic_scene(tmp_path)
        sc = load_scene(path)
        forks = self.count_forks(monkeypatch)
        errors, exits = [], []
        for workers in (1, 2):
            monkeypatch.setattr(ms, "WORKERS", workers)
            with pytest.raises(CharacteristicPointError, match="surface patch touches") as err:
                ms.gauss_bonnet_residual(sc)
            errors.append(str(err.value))
            code = cli.main(["gauss-bonnet", "--scene", path])
            exits.append((code, capsys.readouterr()))
        # one worker, kept through both failed rounds
        assert len(forks) == 1 and self.pool() == forks
        assert errors[0] == errors[1]
        assert exits[0] == exits[1] and exits[0][0] == 4 and exits[0][1].out == ""

    def test_typed_error_from_the_first_item_keeps_the_worker(self, monkeypatch, tmp_path):
        # this process takes the first item, which fails: the worker still
        # finishes the round, and the error comes from the serial sweep
        sc = load_scene(self.characteristic_scene(tmp_path, item=0))
        forks = self.count_forks(monkeypatch)
        errors = []
        for workers in (1, 2):
            monkeypatch.setattr(ms, "WORKERS", workers)
            with pytest.raises(CharacteristicPointError, match="surface patch touches") as err:
                ms.gauss_bonnet_residual(sc)
            errors.append(str(err.value))
        assert errors[1] == errors[0]
        assert len(forks) == 1 and self.pool() == forks

    def test_exception_in_the_parent_block_reaps_every_child(self, monkeypatch):
        # this process evaluates a round's first item, so the build raises here
        monkeypatch.setattr(ms, "WORKERS", 2)
        monkeypatch.setattr(ms, "CHUNK", 700)
        forks = self.count_forks(monkeypatch)
        sc = annulus_scene()
        with pytest.raises(Stop):
            self.level_pass(ms._K_dsigma, partial(stops_in_the_parent, sc.model, sc.patch.phi))
        assert len(forks) == 1 and self.pool() == []
        no_children()
        pooled = self.level_pass(ms._K_dsigma)
        assert len(forks) == 2 and self.pool() == forks[1:]
        monkeypatch.setattr(ms, "WORKERS", 1)
        assert bitwise(pooled, self.level_pass(ms._K_dsigma))

    def timeout_stops_the_pool(self, monkeypatch, run):
        """`run()` ends in a SIGALRM-raised exception, as the benchmark's
        per-operation limit raises, which stops the pool."""
        deal_to_workers(monkeypatch)
        monkeypatch.setattr(ms, "WORKERS", 2)
        monkeypatch.setattr(ms, "CHUNK", 700)
        forks = self.count_forks(monkeypatch)

        def on_alarm(signum, frame):
            raise Stop

        previous = signal.signal(signal.SIGALRM, on_alarm)
        try:
            signal.setitimer(signal.ITIMER_REAL, 1.0)
            with pytest.raises(Stop):
                run()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        assert len(forks) == 1 and self.pool() == []
        no_children()
        return forks

    def test_a_timeout_while_a_job_is_out_stops_the_pool(self, monkeypatch):
        forks = self.timeout_stops_the_pool(monkeypatch,
                                            lambda: self.level_pass(sleeps_in_a_worker))
        pooled = self.level_pass(ms._K_dsigma)
        assert len(forks) == 2 and self.pool() == forks[1:]
        monkeypatch.setattr(ms, "WORKERS", 1)
        assert bitwise(pooled, self.level_pass(ms._K_dsigma))

    def test_a_timeout_while_curve_items_are_out_stops_the_pool(self, monkeypatch):
        sc = at_quad(annulus_scene(), self.COARSE)
        runs = [region_run(sc, [ms._K_dsigma])] + curve_runs(sc, [sleeps_in_a_worker_on_a_curve])
        self.timeout_stops_the_pool(monkeypatch, lambda: ms._refine(runs, sc.quadrature))

    def test_a_worker_killed_between_passes_gives_the_serial_bits(self, monkeypatch):
        sc = at_quad(builtin_scene("heisenberg_annulus"), self.COARSE)
        monkeypatch.setattr(ms, "CHUNK", 700)
        monkeypatch.setattr(ms, "WORKERS", 2)
        L_values = (1e2, 1e3, 1e4)
        first = repr(ms.gauss_bonnet_residual(sc, L_values))
        (killed,) = self.pool()
        os.kill(killed, signal.SIGKILL)
        assert repr(ms.gauss_bonnet_residual(sc, L_values)) == first
        assert killed not in self.pool()
        with pytest.raises(ChildProcessError):
            os.waitpid(killed, os.WNOHANG)
        monkeypatch.setattr(ms, "WORKERS", 1)
        assert repr(ms.gauss_bonnet_residual(sc, L_values)) == first

    def test_workers_end_with_their_process(self):
        code = ("from srlab import measures as ms; from srlab.scenes import builtin_scene; "
                "ms.WORKERS = 2; sc = builtin_scene('rt_disk'); "
                "ms.gauss_bonnet_residual(sc, sc.L_grid); "
                "print(*(worker.pid for worker in ms._POOL))")
        src = str(Path(ms.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        workers = [int(pid) for pid in proc.stdout.split()]
        assert len(workers) == 1
        for pid in workers:
            with pytest.raises(ProcessLookupError):
                os.kill(pid, 0)


def has_mallopt() -> bool:
    try:
        return hasattr(ctypes.CDLL(None), "mallopt")
    except OSError:
        return False


@pytest.mark.skipif(not has_mallopt(), reason="the C library has no mallopt")
class TestRetainedHeap:
    def test_a_second_report_reuses_the_freed_heap(self, monkeypatch):
        """Each chunk reuses the heap the one before it freed, so a second serial
        report faults in a few hundred pages, not the 22k of a trimmed heap."""
        monkeypatch.setattr(ms, "WORKERS", 1)
        sc = builtin_scene("rt_disk")
        ms.gauss_bonnet_residual(sc, sc.L_grid)
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        ms.gauss_bonnet_residual(sc, sc.L_grid)
        assert resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before < 3000


def dense_item_task() -> ms._Task:
    """The region task of a dense report with three L rows: K and the curl
    with three K_L rows, so its items build order-3 geometry."""
    sc = dense_scene()
    fns = (ms._K_dsigma, ms._limit_curl) + tuple(ms._K_dsigma_L(L) for L in (1e2, 1e3, 1e4))
    return ms._Task(partial(ms._surface_geometry, sc.model, sc.patch.phi), fns, sc.region,
                    ms.QuadratureSpec(), (0,))


class TestItemWorkingSet:
    def test_dense_item_heap_peak(self):
        """One 8192-node dense item, K and the curl with three K_L rows at
        order 3, peaks at 21.7 MB of traced heap: 23.1 MB while the geometry
        built A, f1, f^1, the pulled frame and the wedge at order 2, 28.9 MB
        while construction held each jet until it returned and the item kept
        jets no region integrand reads, 38.2 MB while a geometry kept its
        whole chart frame."""
        task = dense_item_task()
        ms._evaluate([task], (0, 0, task.per_cell))   # fills the jet tables and rule caches
        tracemalloc.start()
        try:
            ms._evaluate([task], (0, 0, 8192))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 22.5e6


def formed_pairs(a: Jet, b: Jet) -> int:
    """The coefficient pairs the product a * b forms: both factors live
    (not a structural zero) and their total degree within the lower order."""
    tables = _tables(a.nvars, min(a.order, b.order))
    live_b = [j for j, c in enumerate(b.coef[:tables.ncoef]) if not _zero(c)]
    return sum(sum(j < len(row) for j in live_b)
               for c, row in zip(a.coef, tables.mul_rows) if not _zero(c))


def count_work(monkeypatch, run) -> dict:
    """Geometry builds and their nodes, jet products by a jet or a number,
    the pairs jet-by-jet products form, and reciprocals, while `run` runs."""
    counts = collections.Counter()

    def counted(cls, key, nodes):
        init = cls.__init__

        def build(self, model, patch, where, t, *rest):
            counts[f"{key} builds"] += 1
            counts[f"{key} nodes"] += nodes(where, t)
            init(self, model, patch, where, t, *rest)

        monkeypatch.setattr(cls, "__init__", build)

    counted(SurfaceGeometry, "surface geometry", lambda u, v: np.broadcast(u, v).size)
    counted(cv.CurveGeometry, "curve geometry", lambda curve, t: np.size(t))
    mul, reciprocal = Jet.__mul__, jets._reciprocal

    def product(a, b):
        counts["jet products"] += 1
        if isinstance(b, Jet):
            counts["jet coefficient pairs"] += formed_pairs(a, b)
        return mul(a, b)

    def counted_reciprocal(u):
        counts["reciprocals"] += 1
        return reciprocal(u)

    monkeypatch.setattr(Jet, "__mul__", product)
    monkeypatch.setattr(Jet, "__rmul__", product)
    monkeypatch.setattr(jets, "_reciprocal", counted_reciprocal)
    monkeypatch.setattr(ms, "WORKERS", 1)
    run()
    return dict(counts)


class TestItemWork:
    """The jet work of one dense item, counted exactly, so a rise is a
    regression no timing noise can hide (ROADMAP item 18)."""

    # Recorded by the change after 2d0c97c, which builds each geometry jet
    # only to the order its readers take; 2d0c97c formed 608 products and
    # 3071 pairs. A change that lowers a count lowers its figure here.
    MOST = {"jet products": 582, "jet coefficient pairs": 2722}

    def test_dense_item_work_counts(self, monkeypatch):
        """One 8192-node dense item at order 3 (K, the curl, three K_L rows):
        every Jet product, by a jet or a number, and the pairs jet-by-jet
        products form."""
        task = dense_item_task()
        counts = count_work(monkeypatch, lambda: ms._evaluate([task], (0, 0, 8192)))
        for name, most in self.MOST.items():
            assert counts[name] <= most, f"{name} rose to {counts[name]}, at most {most}"


class TestReportWork:
    """The work of a serial report with three finite-L rows, counted exactly
    on both shipped scenes and the dense golden scene (ROADMAP item 18)."""

    SCENES = ("rt_disk", "heisenberg_annulus", "dense_scene")
    ROWS = (100.0, 1000.0, 10000.0)
    # Recorded at 91dbbd2. A change that lowers a count lowers its figure
    # here. Surface geometry builds include the one under each curve geometry.
    MOST = {
        "rt_disk": {
            "surface geometry builds": 12, "surface geometry nodes": 89088,
            "curve geometry builds": 2, "curve geometry nodes": 7168,
            "jet products": 4706, "jet coefficient pairs": 3781, "reciprocals": 89,
        },
        "heisenberg_annulus": {
            "surface geometry builds": 12, "surface geometry nodes": 88064,
            "curve geometry builds": 2, "curve geometry nodes": 6144,
            "jet products": 4427, "jet coefficient pairs": 3216, "reciprocals": 93,
        },
        "dense_scene": {
            "surface geometry builds": 12, "surface geometry nodes": 88064,
            "curve geometry builds": 2, "curve geometry nodes": 6144,
            "jet products": 6947, "jet coefficient pairs": 29515, "reciprocals": 93,
        },
    }

    @staticmethod
    def scene(name):
        if name == "dense_scene":
            return load_scene(Path(__file__).parent / "golden" / "dense_scene.json")
        return builtin_scene(name)

    @pytest.mark.parametrize("name", SCENES)
    def test_serial_report_work_counts(self, monkeypatch, name):
        scene = self.scene(name)
        counts = count_work(monkeypatch, lambda: ms.gauss_bonnet_residual(scene, self.ROWS))
        # a counter that never moved means its hook no longer sees the work
        assert set(counts) == set(self.MOST[name])
        for counter, most in self.MOST[name].items():
            assert counts[counter] <= most, f"{counter} rose to {counts[counter]}, at most {most}"
