"""Scene files: a model, a surface patch, a region, and its boundary curves.

Scenes are JSON with expression strings; the expressions carry all the math
and are re-parsed by the calculus layer, so the file format itself has no
semantics beyond structure. Loading validates everything up front: schema
shape (errors carry a $.field path), expression parsing, region containment
in the surface domain, one scan of a region grid that serves the immersion,
model-frame and characteristic-point checks, and a check that the boundary
curves run along the region's edge and trace each edge component once.

The boundary curves are taken as written, orientation included, but must
follow the convention Gauss-Bonnet cancellation expects, the one induced
from the region in the parameter plane: counterclockwise outer boundary,
clockwise holes. A curve with a sample step that turns against that
orientation is rejected at `$.boundary[i]`, even one that doubles back along
the edge and whose integral would still come out right. A set that misses
or repeats a component, or part of one, is rejected at `$.boundary`.
"""

import functools
import json
import math
import os
import sys
from collections.abc import Mapping
from dataclasses import dataclass
from importlib import resources
from types import MappingProxyType

import numpy as np

from .calculus.jets import stack_values, value_of
from .curvature import CurveOnSurface
from .errors import (CharacteristicPointError, EvaluationError, ImmersionError, SceneError,
                     ValidationError)
from .frame import SubRiemannianModel, checked_frame, require_passed
from .measures import (SCAN_SAMPLES, QuadratureSpec, Region, ensure_region_in_domain,
                       region_scan_grid, require_regular)
from .models import builtin_model
from .surface import SurfacePatch, characteristic_margin, immersion_ratio, tangents

BUILTIN_SCENES = ("heisenberg_annulus", "rt_disk")
BOUNDARY_SAMPLES = 32
BOUNDARY_TOL = 1e-8
SWEEP_TOL = 1e-6
JOIN_TOL = 1e-6
IMMERSION_SCAN_RTOL = 1e-8
# most L values an L grid may hold, in a scene file or on the command line
MAX_L_VALUES = 64


@dataclass(frozen=True)
class Scene:
    """A fully validated scene, with no mutable part.

    `tolerances` and `patch.domain` are read-only mappings, so one scene can
    be shared by every caller and an attempt to edit it raises TypeError.
    """

    name: str
    model: object
    patch: SurfacePatch
    region: Region
    boundary: tuple
    quadrature: QuadratureSpec
    tolerances: Mapping
    L_grid: tuple


# -- schema helpers -----------------------------------------------------------


def _need(obj: dict, key: str, path: str):
    if key not in obj:
        raise SceneError("missing required field", f"{path}.{key}")
    return obj[key]


def _as_dict(value, path: str) -> dict:
    if not isinstance(value, dict):
        raise SceneError("expected an object", path)
    return value


def _as_list(value, path: str, length: int = None) -> list:
    if not isinstance(value, list):
        raise SceneError("expected an array", path)
    if length is not None and len(value) != length:
        raise SceneError(f"expected exactly {length} entries, got {len(value)}", path)
    return value


def _as_number(value, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SceneError("expected a number", path)
    try:
        out = float(value)
    except OverflowError:   # an int beyond the float range
        out = math.inf
    if not math.isfinite(out):
        raise SceneError("expected a finite number", path)
    return out


def _as_int(value, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise SceneError("expected an integer", path)
    return value


def _as_exprs(value, path: str, length: int) -> tuple:
    items = _as_list(value, path, length)
    for i, item in enumerate(items):
        if not isinstance(item, str):
            raise SceneError("expected an expression string", f"{path}[{i}]")
    return tuple(items)


def _interval(value, path: str) -> tuple:
    pair = _as_list(value, path, 2)
    a, b = (_as_number(x, f"{path}[{i}]") for i, x in enumerate(pair))
    if not b > a:
        raise SceneError("interval must have positive length", path)
    return a, b


def _reject_unknown(obj: dict, known: set, path: str):
    extra = sorted(set(obj) - known)
    if extra:
        raise SceneError(f"unknown fields: {', '.join(extra)}", path)


# -- section builders ---------------------------------------------------------


def _build_model(cfg, path: str):
    cfg = _as_dict(cfg, path)
    if "builtin" in cfg:
        _reject_unknown(cfg, {"builtin"}, path)
        name = cfg["builtin"]
        if not isinstance(name, str):
            raise SceneError("expected a model name string", f"{path}.builtin")
        try:
            return builtin_model(name)
        except ValidationError as exc:
            raise SceneError(str(exc), f"{path}.builtin") from exc
    if "frame" in cfg:
        _reject_unknown(cfg, {"frame"}, path)
        frame = _as_dict(cfg["frame"], f"{path}.frame")
        _reject_unknown(frame, {"e1", "e2"}, f"{path}.frame")
        e1 = _as_exprs(_need(frame, "e1", f"{path}.frame"), f"{path}.frame.e1", 3)
        e2 = _as_exprs(_need(frame, "e2", f"{path}.frame"), f"{path}.frame.e2", 3)
        try:
            return SubRiemannianModel.from_components("inline", e1, e2)
        except ValidationError as exc:
            raise SceneError(str(exc), f"{path}.frame") from exc
    raise SceneError("model needs either a 'builtin' name or inline 'frame' expressions", path)


def _build_surface(cfg, path: str) -> SurfacePatch:
    cfg = _as_dict(cfg, path)
    _reject_unknown(cfg, {"phi", "domain"}, path)
    phi = _as_exprs(_need(cfg, "phi", path), f"{path}.phi", 3)
    dom = _as_dict(_need(cfg, "domain", path), f"{path}.domain")
    _reject_unknown(dom, {"u", "v"}, f"{path}.domain")
    domain = MappingProxyType({
        "u": _interval(_need(dom, "u", f"{path}.domain"), f"{path}.domain.u"),
        "v": _interval(_need(dom, "v", f"{path}.domain"), f"{path}.domain.v"),
    })
    try:
        return SurfacePatch.parse(phi, domain)
    except (ValidationError, ValueError) as exc:
        raise SceneError(str(exc), f"{path}.phi") from exc


def _build_region(cfg, path: str) -> Region:
    cfg = _as_dict(cfg, path)
    kind = _need(cfg, "type", path)
    chi = _as_int(_need(cfg, "euler_characteristic", path), f"{path}.euler_characteristic")
    try:
        if kind == "rectangle":
            _reject_unknown(cfg, {"type", "u", "v", "euler_characteristic"}, path)
            region = Region.rectangle(
                _interval(_need(cfg, "u", path), f"{path}.u"),
                _interval(_need(cfg, "v", path), f"{path}.v"),
            )
        elif kind in ("disk", "annulus"):
            size = "radius" if kind == "disk" else "radii"
            _reject_unknown(cfg, {"type", "center", size, "euler_characteristic"}, path)
            center = [_as_number(x, f"{path}.center[{i}]")
                      for i, x in enumerate(_as_list(_need(cfg, "center", path), f"{path}.center", 2))]
            if kind == "disk":
                region = Region.disk(center, _as_number(_need(cfg, size, path), f"{path}.{size}"))
            else:
                radii = [_as_number(x, f"{path}.radii[{i}]")
                         for i, x in enumerate(_as_list(_need(cfg, size, path), f"{path}.radii", 2))]
                region = Region.annulus(center, radii)
        else:
            raise SceneError(f"unknown region type {kind!r}", f"{path}.type")
    except ValueError as exc:
        raise SceneError(str(exc), path) from exc
    if chi != region.chi:
        raise SceneError(
            f"euler_characteristic {chi} does not match region type "
            f"{region.kind!r} (expected {region.chi})",
            f"{path}.euler_characteristic",
        )
    return region


def _build_boundary(cfg, path: str) -> tuple:
    items = _as_list(cfg, path)
    curves = []
    for i, item in enumerate(items):
        here = f"{path}[{i}]"
        item = _as_dict(item, here)
        _reject_unknown(item, {"curve", "t", "orientation"}, here)
        exprs = _as_exprs(_need(item, "curve", here), f"{here}.curve", 2)
        interval = _interval(_need(item, "t", here), f"{here}.t")
        if "orientation" in item and not isinstance(item["orientation"], str):
            raise SceneError("expected an orientation note string", f"{here}.orientation")
        try:
            curves.append(CurveOnSurface.parse(exprs, interval))
        except (ValidationError, ValueError) as exc:
            raise SceneError(str(exc), f"{here}.curve") from exc
    return tuple(curves)


def _build_quadrature(cfg, path: str) -> QuadratureSpec:
    cfg = dict(_as_dict(cfg, path))
    _reject_unknown(cfg, {"order", "cells", "segments", "rel_tol", "max_refine"}, path)
    for key in ("order", "segments", "max_refine"):
        if key in cfg:
            _as_int(cfg[key], f"{path}.{key}")
    if "cells" in cfg:
        cfg["cells"] = tuple(_as_int(item, f"{path}.cells[{i}]")
                             for i, item in enumerate(_as_list(cfg["cells"], f"{path}.cells", 2)))
    if "rel_tol" in cfg:
        _as_number(cfg["rel_tol"], f"{path}.rel_tol")
    try:
        return QuadratureSpec(**cfg)
    except ValueError as exc:
        raise SceneError(str(exc), path) from exc


def _build_tolerances(cfg, path: str) -> Mapping:
    cfg = _as_dict(cfg, path)
    _reject_unknown(cfg, {"residual"}, path)
    out = {}
    for key, value in cfg.items():
        num = _as_number(value, f"{path}.{key}")
        if num <= 0:
            raise SceneError("tolerance must be positive", f"{path}.{key}")
        out[key] = num
    return MappingProxyType(out)


def _build_L_grid(cfg, path: str) -> tuple:
    items = _as_list(cfg, path)
    if len(items) > MAX_L_VALUES:
        raise SceneError(f"at most {MAX_L_VALUES} L values, got {len(items)}", path)
    grid = []
    for i, item in enumerate(items):
        num = _as_number(item, f"{path}[{i}]")
        if num <= 0:
            raise SceneError("L values must be positive", f"{path}[{i}]")
        grid.append(num)
    return tuple(grid)


# -- cross-validation ---------------------------------------------------------


def scan_region(model, patch: SurfacePatch, region: Region, samples: int = SCAN_SAMPLES):
    """(frame, model report, characteristic margin) from one pass over the region grid.

    One order-1 patch evaluation gives the points and tangents, and one
    order-3 chart frame serves the model checks and the margin. Immersion
    failures and degenerate or non-contact models raise here.
    """
    uu, vv = region_scan_grid(region, samples)
    phi = patch.jets(uu, vv, order=1)
    tu, tv = tangents(phi)
    worst = float(np.min(immersion_ratio(tu, tv)))
    if worst < IMMERSION_SCAN_RTOL:
        raise ImmersionError(
            f"surface fails the immersion check on the region grid: relative "
            f"smallest singular value {worst:.3e}"
        )
    try:
        frame, checks = checked_frame(model, stack_values(phi))
    except ValidationError as exc:
        raise SceneError(str(exc), "$.model") from exc
    return frame, checks, characteristic_margin(frame.omega, tu, tv)


def _edge_samples(curve):
    """(u, v, du/dt, dv/dt) at BOUNDARY_SAMPLES + 1 evenly spaced parameters,
    both ends included."""
    t = np.linspace(curve.t0, curve.t1, BOUNDARY_SAMPLES + 1)
    ju, jv = curve.jets(t, order=1)
    return np.broadcast_arrays(*map(value_of, (ju, jv, ju.deriv(0), jv.deriv(0))), t)[:4]


def _edge_distance(region: Region, u, v) -> float:
    # the end point t1 is left out: on a boundary it repeats a start point
    return float(np.max(region.boundary_distance(u[:-1], v[:-1])))


def boundary_edge_distances(region: Region, boundary):
    """Max distance to the region edge over BOUNDARY_SAMPLES points, per curve."""
    for curve in boundary:
        yield _edge_distance(region, *_edge_samples(curve)[:2])


def _check_boundary(region: Region, boundary, path: str):
    """Every curve lies on the region edge, and together they trace each edge
    component once with the induced orientation.

    The induced way about the region centre is counterclockwise on the outer
    edge and clockwise on an annulus hole. Per curve, every step between
    samples, wrapped to (-pi, pi], must turn the induced way within
    SWEEP_TOL and lie within pi/4 of the trapezoid rule on the curve's exact
    turning rate, so a curve that turns a whole time or more between two
    samples cannot alias to a smaller step. Per edge component, the curves'
    arcs (start angle in the induced direction, sweep), ordered by start,
    must chain: each end point is the next arc's start point, the last
    wrapping to the first, and the sweeps total one turn. The edge integrals
    then equal those over the edge traced once, so a missing, reversed,
    doubled or half-covered component is rejected, and so is a curve that
    doubles back along the edge.
    """
    if region.kind == "rectangle":
        (a, b), (c, d) = region.u_interval, region.v_interval
        cu, cv = 0.5 * (a + b), 0.5 * (c + d)
    else:
        cu, cv = region.center
    arcs = {"outer": []}
    if region.kind == "annulus":
        arcs["inner"] = []
    for i, curve in enumerate(boundary):
        try:
            u, v, ut, vt = _edge_samples(curve)
        except EvaluationError as exc:
            raise SceneError(
                f"boundary curve or its first derivative cannot be evaluated at one "
                f"of its {BOUNDARY_SAMPLES + 1} edge samples: {exc}",
                f"{path}[{i}]",
            ) from exc
        worst = _edge_distance(region, u, v)
        if worst > BOUNDARY_TOL:
            raise SceneError(
                f"boundary curve leaves the region edge: max distance "
                f"{worst:.3e} over {BOUNDARY_SAMPLES} samples "
                f"(tolerance {BOUNDARY_TOL:.0e})",
                f"{path}[{i}]",
            )
        du, dv = u - cu, v - cv
        hole = region.kind == "annulus" and math.hypot(du[0], dv[0]) < 0.5 * sum(region.radii)
        edge, sign = ("inner", -1.0) if hole else ("outer", 1.0)
        steps = sign * ((np.diff(np.arctan2(dv, du)) + math.pi) % (2 * math.pi) - math.pi)
        rate = sign * (du * vt - dv * ut) / (du * du + dv * dv)
        predicted = 0.5 * (curve.t1 - curve.t0) / BOUNDARY_SAMPLES * (rate[:-1] + rate[1:])
        slip = float(np.max(np.abs(steps - predicted)))
        if slip > math.pi / 4:
            raise SceneError(
                f"boundary curve turns about the region centre too fast for "
                f"{BOUNDARY_SAMPLES} samples: a step differs by {slip:.3g} rad from "
                "the one its derivative predicts (tolerance pi/4)",
                f"{path}[{i}]",
            )
        back = -float(np.min(steps))
        if back > SWEEP_TOL:
            raise SceneError(
                f"boundary curve turns back along the {edge} edge: a step turns "
                f"{back:.3g} rad against the induced orientation, counterclockwise "
                f"on the outer edge and clockwise on a hole (tolerance {SWEEP_TOL:.0e})",
                f"{path}[{i}]",
            )
        arcs[edge].append((sign * math.atan2(dv[0], du[0]), float(np.sum(steps)),
                           (u[0], v[0]), (u[-1], v[-1])))
    for edge, pieces in arcs.items():
        pieces.sort()
        starts = [start for _, _, start, _ in pieces]
        gap = max(map(math.dist, [end for *_, end in pieces], starts[1:] + starts[:1]), default=0.0)
        swept = sum(sweep for _, sweep, _, _ in pieces)
        if gap > JOIN_TOL or abs(swept - 2 * math.pi) > SWEEP_TOL:
            raise SceneError(
                f"boundary curves do not trace the {edge} edge once: in order of start angle, "
                f"an end point misses the next start point by up to {gap:.3g} (tolerance "
                f"{JOIN_TOL:.0e}), and they turn {swept / (2 * math.pi):.6g} times about the "
                "region centre, expected 1 (outer edge counterclockwise, each hole clockwise)",
                path,
            )


# -- loading ------------------------------------------------------------------

_TOP_KEYS = {"model", "surface", "region", "boundary", "quadrature", "tolerances", "L_grid"}


def scene_from_config(cfg: dict, name: str = "") -> Scene:
    """Build and fully validate a scene from a parsed JSON object."""
    cfg = _as_dict(cfg, "$")
    _reject_unknown(cfg, _TOP_KEYS, "$")
    model = _build_model(_need(cfg, "model", "$"), "$.model")
    patch = _build_surface(_need(cfg, "surface", "$"), "$.surface")
    region = _build_region(_need(cfg, "region", "$"), "$.region")
    boundary = _build_boundary(cfg.get("boundary", []), "$.boundary")
    quadrature = _build_quadrature(cfg.get("quadrature", {}), "$.quadrature")
    tolerances = _build_tolerances(cfg.get("tolerances", {}), "$.tolerances")
    L_grid = _build_L_grid(cfg.get("L_grid", []), "$.L_grid")

    ensure_region_in_domain(patch, region)
    _, checks, margin = scan_region(model, patch, region)
    try:
        require_passed(checks)
    except ValidationError as exc:
        raise SceneError(str(exc), "$.model") from exc
    try:
        require_regular(margin, SCAN_SAMPLES)
    except CharacteristicPointError as exc:
        raise SceneError(str(exc), "$.region") from exc
    _check_boundary(region, boundary, "$.boundary")

    return Scene(name=name, model=model, patch=patch, region=region,
                 boundary=boundary, quadrature=quadrature,
                 tolerances=tolerances, L_grid=L_grid)


def load_scene(path) -> Scene:
    """Read and validate a scene JSON file."""
    with open(path, encoding="utf-8") as fh:
        try:
            cfg = json.loads(fh.read())
        except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
            raise SceneError(f"invalid JSON: {exc}", "$") from exc
        except ValueError as exc:
            # the one other ValueError: an int literal past Python's digit limit,
            # whose own message names a Python call a scene author cannot make
            raise SceneError(
                f"invalid JSON: an integer literal has more than "
                f"{sys.get_int_max_str_digits()} digits", "$") from exc
    name = os.path.splitext(os.path.basename(str(path)))[0]
    return scene_from_config(cfg, name=name)


@functools.cache
def builtin_scene(name: str) -> Scene:
    """Load one of the scenes shipped with the package.

    A shipped scene is read-only package data and a `Scene` cannot be
    edited, so it is parsed and validated on its first call in a process
    only, and every later call returns the same object. An unknown name
    raises before anything is memoized, so the memo holds at most one entry
    per name in BUILTIN_SCENES.
    """
    if name not in BUILTIN_SCENES:
        raise SceneError(
            f"unknown scene {name!r}; shipped scenes: {', '.join(BUILTIN_SCENES)}"
        )
    text = resources.files("srlab").joinpath("scenes", f"{name}.json").read_text(encoding="utf-8")
    return scene_from_config(json.loads(text), name=name)


def resolve_scene(ref: str) -> Scene:
    """Resolve a CLI scene reference: shipped scene name or JSON file path.

    A file is read and validated on every call, since it may change
    between calls; a shipped scene is validated once (see `builtin_scene`).
    """
    if ref in BUILTIN_SCENES:
        return builtin_scene(ref)
    if os.path.exists(ref):
        return load_scene(ref)
    raise SceneError(
        f"no scene named {ref!r} and no such file; shipped scenes: "
        f"{', '.join(BUILTIN_SCENES)}"
    )
