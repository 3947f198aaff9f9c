"""Command-line interface: scene validation, reports, sweeps, and checks.

Exit codes: 0 success, 2 usage error, 3 validation failure, 4 numerical
failure (including a region too thin for oracle-check to sample). All
floating-point output uses shortest round-trip formatting (Python repr), so
identical invocations produce byte-identical text.
"""

import argparse
import functools
import json
import math
import sys

import numpy as np

from . import curvature as cv
from . import measures as ms
from .errors import NumericalError, SamplingError, SrLabError, ValidationError
from .frame import ConnectionFormsL, SF_KEYS, koszul_connection_oracle, scaled_form_deviation
from .scenes import (
    BUILTIN_SCENES, MAX_L_VALUES, boundary_edge_distances, resolve_scene, scan_region,
)
from .surface import SurfaceGeometry

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_VALIDATION = 3
EXIT_NUMERICAL = 4

# consecutive rejected draws after which region sampling gives up
SAMPLE_REJECTION_BUDGET = 10000
# most `--samples` a call accepts
MAX_SAMPLES = 10000


def _fmt(x) -> str:
    """Shortest round-trip text of a number; NaN or inf raises NumericalError.

    Every number a subcommand prints passes through here before anything is
    written, so a non-finite result exits 4 with no output.
    """
    x = float(x)
    if not math.isfinite(x):
        raise NumericalError(f"non-finite result {x!r}; no output written")
    return repr(x)


def _parse_pair(text: str, what: str):
    parts = text.split(",")
    if len(parts) != 2:
        raise ValueError(f"{what} must be two comma-separated numbers, got {text!r}")
    pair = float(parts[0]), float(parts[1])
    if not all(map(math.isfinite, pair)):
        raise ValueError(f"{what} must be finite, got {text!r}")
    return pair


def _surface_point(scene, text: str):
    """`--uv` as (u, v), inside the scene's surface domain."""
    u, v = _parse_pair(text, "--uv")
    for name, x in (("u", u), ("v", v)):
        lo, hi = scene.patch.domain[name]
        if not lo <= x <= hi:
            raise ValueError(f"--uv: {name} = {x!r} lies outside the surface domain "
                             f"[{lo!r}, {hi!r}]")
    return u, v


def _parse_L_list(text: str):
    parts = text.split(",")
    if not any(p.strip() for p in parts):
        raise ValueError("expected at least one L value")
    if not all(p.strip() for p in parts):
        raise ValueError(f"--L {text!r} has an empty entry")
    values = tuple(map(float, parts))
    if len(values) > MAX_L_VALUES:
        raise ValueError(f"at most {MAX_L_VALUES} L values, got {len(values)}")
    if not all(math.isfinite(L) and L > 0 for L in values):
        raise ValueError("L values must be finite and positive")
    return values


def _finite_float(text: str) -> float:
    """argparse type: a finite float."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


def _tolerance(text: str) -> float:
    """argparse type: a finite float of at least 0."""
    value = _finite_float(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected a finite number of at least 0, got {text!r}")
    return value


def _seed(text: str) -> int:
    """argparse type: an integer of at least 0, as numpy's generators take."""
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected an integer of at least 0, got {text!r}")
    return value


def _sample_count(text: str) -> int:
    """argparse type: an integer from 1 to MAX_SAMPLES."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if not 1 <= value <= MAX_SAMPLES:
        raise argparse.ArgumentTypeError(
            f"expected an integer of at least 1 and at most {MAX_SAMPLES}, got {text!r}")
    return value


# -- subcommands ----------------------------------------------------------------
# Each takes the resolved scene and the parsed arguments and returns
# (output lines, exit code); `main` writes the lines.


def cmd_validate(scene, args) -> tuple:
    frame, checks, margin = scan_region(scene.model, scene.patch, scene.region, samples=15)
    ms.require_regular(margin, 15)

    lines = [
        f"scene {scene.name or '(inline)'}: region {scene.region.kind} "
        f"(chi {scene.region.chi}), {len(scene.boundary)} boundary curve(s)"
    ]
    failed = []
    lines.append(f"model checks at {np.size(margin)} region grid points:")
    for key, entry in checks.items():
        word = "pass" if entry["passed"] else "FAIL"
        bound = "min" if entry["kind"] == "min" else "max"
        lines.append(
            f"  {key}: {bound} {_fmt(entry['value'])} "
            f"(tolerance {_fmt(entry['tolerance'])}): {word}"
        )
        if not entry["passed"]:
            failed.append(key)

    sfv = frame.sf_values()
    lines.append("structure functions over the grid (min, max):")
    for key in SF_KEYS:
        vals = np.asarray(sfv[key])
        lines.append(f"  {key}: ({_fmt(np.min(vals))}, {_fmt(np.max(vals))})")

    lines.append(f"characteristic margin over the region: min {_fmt(np.min(margin))}")
    for i, dist in enumerate(boundary_edge_distances(scene.region, scene.boundary)):
        lines.append(f"boundary curve {i}: max distance to region edge {_fmt(dist)}")

    lines.append("validation: " + ("ok" if not failed else "FAILED " + ", ".join(failed)))
    return lines, EXIT_OK if not failed else EXIT_VALIDATION


def cmd_frame_report(scene, args) -> tuple:
    u, v = _surface_point(scene, args.uv)
    # the report reads values only, so surface order 2 (chart order 3) serves it
    geom = SurfaceGeometry(scene.model, scene.patch, u, v, order=2)
    fr = geom.frame
    forms = ConnectionFormsL(fr, args.L)

    lines = [f"scene {scene.name}: frame report at (u, v) = ({_fmt(u)}, {_fmt(v)})"]
    pt = [float(np.asarray(j.value)) for j in geom.phi]
    lines.append(f"chart point: ({', '.join(_fmt(c) for c in pt)})")
    lines.append(f"contact factor tau: {_fmt(np.asarray(fr.tau.value))}")
    lines.append(f"characteristic margin: {_fmt(geom.margin)}")
    sfv = fr.sf_values()
    lines.append("structure functions:")
    for key in SF_KEYS:
        lines.append(f"  {key}: {_fmt(np.asarray(sfv[key]))}")
    lines.append(f"connection form coefficients at L = {_fmt(args.L)}")
    lines.append("  (rows w_i^j; columns scaled duals e^1, e^2, sqrt(L) e^3):")
    vals = forms.values()
    for i, j in ((1, 2), (1, 3), (2, 3)):
        row = ", ".join(_fmt(vals[i - 1, j - 1, k]) for k in range(3))
        lines.append(f"  w{i}{j}: [{row}]")
    lines.append("scaled deviation from the limit forms:")
    for key, dev in scaled_form_deviation(fr, args.L).items():
        lines.append(f"  {key}: {_fmt(dev)}")
    lines.append(f"surface quantities: A = {_fmt(np.asarray(geom.A.value))}, "
                 f"area density = {_fmt(np.asarray(geom.wedge.value))}")
    return lines, EXIT_OK


def cmd_curvature(scene, args) -> tuple:
    u, v = _surface_point(scene, args.uv)
    geom = SurfaceGeometry(scene.model, scene.patch, u, v)
    sample = cv.gauss_equation_decomposition(geom, args.L)

    lines = [
        f"scene {scene.name}: curvature at (u, v) = ({_fmt(u)}, {_fmt(v)}), "
        f"L = {_fmt(args.L)}",
        f"K_L: {_fmt(sample.K_L)}",
        f"K (limit): {_fmt(sample.K_limit)}",
        f"decomposition K_L = Kbar_L + II_L:",
        f"  Kbar_L: {_fmt(sample.Kbar_L)}",
        f"  II_L: {_fmt(sample.II_L)}",
        f"identity residual: {_fmt(sample.K_L - sample.Kbar_L - sample.II_L)}",
        f"gap |K_L - K|: {_fmt(abs(sample.K_L - sample.K_limit))}",
    ]
    return lines, EXIT_OK


def cmd_sweep(scene, args) -> tuple:
    grid = _parse_L_list(args.L) if args.L is not None else (scene.L_grid or (1e2, 1e3, 1e4))

    if args.quantity == "K":
        if args.uv is None:
            raise ValueError("--quantity K needs --uv")
        u, v = _surface_point(scene, args.uv)
        geom = SurfaceGeometry(scene.model, scene.patch, u, v)
        limit = float(cv.gauss_curvature_limit(geom))
        values = cv.gauss_curvature_L(geom, np.asarray(grid))
        head = ("L", "K_L", "K_limit", "abs_gap")
    else:
        if args.t is None:
            raise ValueError("--quantity kn needs --t")
        if not scene.boundary:
            raise ValueError("scene has no boundary curves to sweep over")
        if not 0 <= args.curve < len(scene.boundary):
            raise ValueError(f"--curve must be in [0, {len(scene.boundary) - 1}]")
        curve = scene.boundary[args.curve]
        if not curve.t0 <= args.t <= curve.t1:
            raise ValueError(f"--t {args.t!r} lies outside curve {args.curve}'s parameter "
                             f"interval [{curve.t0!r}, {curve.t1!r}]")
        cg = cv.CurveGeometry(scene.model, scene.patch, curve, np.asarray(args.t))
        limit = float(cv.normal_curvature_limit(cg))
        values = cv.normal_curvature_L(cg, np.asarray(grid))
        head = ("L", "kn_L", "kn_limit", "abs_gap")

    rows = [",".join(head)]
    for L, value in zip(grid, values.tolist()):
        rows.append(",".join((_fmt(L), _fmt(value), _fmt(limit), _fmt(abs(value - limit)))))
    return rows, EXIT_OK


def cmd_gauss_bonnet(scene, args) -> tuple:
    grid = _parse_L_list(args.L) if args.L is not None else scene.L_grid
    report = ms.gauss_bonnet_residual(scene, L_values=grid)

    def quad_result(res):
        return {
            "value": res.value,
            "error_estimate": res.error,
            "converged": res.converged,
            "refinements": res.refinements,
        }

    payload = {
        "scene": scene.name,
        "euler_characteristic": report.chi,
        "area_integral": quad_result(report.area),
        "boundary_integrals": [quad_result(res) for res in report.boundary],
        "residual": report.residual,
        "finite_L": [
            {
                "L": row.L,
                "scaled_sum": row.scaled_sum,
                "target": row.target,
                "gap": row.gap,
                "area_part": row.area_part,
                "boundary_part": row.boundary_part,
            }
            for row in report.finite_rows
        ],
    }
    if "residual" in scene.tolerances:
        tol = scene.tolerances["residual"]
        scale = max(abs(report.area.value), 2.0 * np.pi)
        payload["residual_tolerance"] = tol * scale
        payload["residual_ok"] = bool(abs(report.residual) <= tol * scale)
    try:
        text = json.dumps(payload, indent=2, allow_nan=False)
    except ValueError:
        raise NumericalError("non-finite result in the report; no output written") from None
    unconverged = _unconverged_parts(report)
    if unconverged:
        print(f"numerical error: quadrature did not converge: {', '.join(unconverged)}",
              file=sys.stderr)
    failed = payload.get("residual_ok") is False or unconverged
    return [text], EXIT_NUMERICAL if failed else EXIT_OK


def _unconverged_parts(report) -> list:
    parts = [] if report.area.converged else ["area integral"]
    parts += [f"boundary curve {i}" for i, res in enumerate(report.boundary)
              if not res.converged]
    parts += [f"finite-L row at L = {_fmt(row.L)}" for row in report.finite_rows
              if not row.converged]
    return parts


def _sample_region_points(region, n, rng):
    (u0, u1), (v0, v1) = region.bounding_box()
    uu, vv = [], []
    misses = 0
    while len(uu) < n:
        if misses == SAMPLE_REJECTION_BUDGET:
            raise SamplingError(f"region too thin to sample: {misses} draws in a row "
                                f"missed its interior (points at least 1e-3 from the edge)")
        u = rng.uniform(u0, u1)
        v = rng.uniform(v0, v1)
        inside = region.contains(u, v) and region.boundary_distance(u, v) > 1e-3
        if inside:
            uu.append(u)
            vv.append(v)
        misses = 0 if inside else misses + 1
    return np.asarray(uu), np.asarray(vv)


def _region_oracle_gaps(geom, rows) -> tuple:
    """Per L in `rows`: the max gap of the connection forms against the Koszul
    formula and the max relative gap of K_L against the induced-metric oracle.

    L enters as a (k, 1) array against the geometry's n nodes, so one call
    of each function evaluates every row, and row r's gaps are the maxima
    over its own slice.
    """
    fr = geom.frame
    L = np.asarray(rows, dtype=float)[:, None]
    shape = (len(rows),) + fr.shape
    conn = np.abs(ConnectionFormsL(fr, L).values() - koszul_connection_oracle(fr, L))
    kl = cv.gauss_curvature_L(geom, L)
    oracle = cv.induced_metric_gauss_oracle(geom, L)
    rel = np.broadcast_to(np.abs(kl - oracle) / np.maximum(1.0, np.abs(oracle)), shape)
    return np.max(conn, axis=(0, 1, 2, 4)).tolist(), np.max(rel, axis=1).tolist()


def _curve_relative_gaps(scene, curve, t, L):
    """|kn_L - kg| / max(1, |kg|) at each node of one curve geometry, where kg
    is the geodesic-curvature oracle. The geometry feeds both; the oracle's
    formula shares no code with the pipeline's."""
    cg = cv.CurveGeometry(scene.model, scene.patch, curve, t)
    kn = cv.normal_curvature_L(cg, L)
    kg = cv.geodesic_curvature_oracle(cg, L)
    # a curve along which nothing varies gives 0-d values
    return np.broadcast_to(np.abs(kn - kg) / np.maximum(1.0, np.abs(kg)), cg.shape)


def _curve_oracle_gaps(scene, draws, rows, n: int) -> list:
    """Max relative gap between kn_L and the geodesic-curvature oracle, per
    boundary curve and L in `rows`.

    `draws[r][i]` are curve i's n samples for `rows[r]`. Nothing in a curve
    geometry depends on L, so one geometry on several curves' samples for
    every row, laid end to end with L given per node, serves them all; the
    curves are grouped so that no geometry holds more than MAX_SAMPLES
    nodes. Each gap is the max over its own curve's and row's samples. A
    group's build fails exactly when one of its curves would fail alone, but
    its message may be another curve's; this is the one rule that picks the
    error: a failing group is evaluated again curve by curve, so the first
    failing curve raises its own error (the group's stands if none does).
    """
    k = len(rows)
    L = np.repeat(np.asarray(rows, dtype=float), n)
    per_group = max(1, MAX_SAMPLES // (k * n))
    gaps = []
    for first in range(0, len(scene.boundary), per_group):
        curves = scene.boundary[first:first + per_group]
        ts = [np.concatenate([d[i] for d in draws]) for i in range(first, first + len(curves))]
        try:
            rel = _curve_relative_gaps(scene, curves, ts, np.tile(L, len(curves)))
        except SrLabError:
            for curve, t in zip(curves, ts):
                _curve_relative_gaps(scene, curve, t, L)
            raise
        gaps.extend(np.max(rel.reshape(len(curves), k, n), axis=2).tolist())
    return gaps


def cmd_oracle_check(scene, args) -> tuple:
    grid = _parse_L_list(args.L)
    n = args.samples
    rng = np.random.default_rng(args.seed)
    uu, vv = _sample_region_points(scene.region, n, rng)
    geom = SurfaceGeometry(scene.model, scene.patch, uu, vv)
    # curve samples in the order of the report: L outer, curve inner
    draws = [[rng.uniform(c.t0, c.t1, n) for c in scene.boundary] for _ in grid]
    # consecutive L rows are evaluated together while their nodes fit in MAX_SAMPLES
    rows_per_batch = max(1, MAX_SAMPLES // n)

    lines = [f"scene {scene.name}: oracle check at {n} region points"]
    worst = 0.0
    # evaluated a batch of rows at a time, but checked and formatted in the
    # order of the report, so the first failure decides the error
    for row, L in enumerate(grid):
        at = row % rows_per_batch
        if at == 0:
            batch = slice(row, row + rows_per_batch)
            conn_gaps, k_gaps = _region_oracle_gaps(geom, grid[batch])
        lines.append(f"L = {_fmt(L)}:")
        lines.append(f"  connection forms vs Koszul formula: max gap {_fmt(conn_gaps[at])}")
        lines.append(f"  surface curvature vs induced-metric oracle: "
                     f"max relative gap {_fmt(k_gaps[at])}")
        worst = max(worst, conn_gaps[at], k_gaps[at])

        if at == 0:
            curve_gaps = _curve_oracle_gaps(scene, draws[batch], grid[batch], n)
        for i, gaps in enumerate(curve_gaps):
            lines.append(
                f"  boundary curvature vs geodesic-curvature oracle "
                f"(curve {i}): max relative gap {_fmt(gaps[at])}"
            )
            worst = max(worst, gaps[at])

    ok = worst <= args.tol
    lines.append(
        f"oracle check: {'ok' if ok else 'FAILED'} "
        f"(worst gap {_fmt(worst)}, tolerance {_fmt(args.tol)})"
    )
    return lines, EXIT_OK if ok else EXIT_NUMERICAL


# -- parser -------------------------------------------------------------------


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built on the first `main` call and reused by every later one."""
    parser = argparse.ArgumentParser(
        prog="srlab",
        description="Surfaces in 3D sub-Riemannian manifolds: frames, "
                    "curvatures, limits, and Gauss-Bonnet checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--scene", required=True,
                       help=f"shipped scene name ({', '.join(BUILTIN_SCENES)}) or JSON path")
        p.add_argument("--out", default=None, help="write output to a file instead of stdout")
        p.set_defaults(func=func)
        return p

    add("validate", cmd_validate,
        "validate a scene and print frame checks and structure functions")

    p = add("frame-report", cmd_frame_report,
            "structure functions and connection forms at a surface point")
    p.add_argument("--uv", required=True, help="surface parameters, e.g. 1.0,0.0")
    p.add_argument("--L", type=_finite_float, default=1.0, help="metric parameter (default 1.0)")

    p = add("curvature", cmd_curvature,
            "K_L, the limit K, and the Gauss-equation decomposition at a point")
    p.add_argument("--uv", required=True, help="surface parameters, e.g. 1.0,0.0")
    p.add_argument("--L", type=_finite_float, default=100.0, help="metric parameter (default 100.0)")

    p = add("sweep", cmd_sweep, "CSV convergence sweep over an L grid")
    p.add_argument("--L", default=None, help="comma-separated L grid (default: scene L_grid)")
    p.add_argument("--quantity", choices=("K", "kn"), default="K")
    p.add_argument("--uv", default=None, help="surface parameters for --quantity K")
    p.add_argument("--curve", type=int, default=0, help="boundary curve index for --quantity kn")
    p.add_argument("--t", type=_finite_float, default=None, help="curve parameter for --quantity kn")

    p = add("gauss-bonnet", cmd_gauss_bonnet,
            "JSON Gauss-Bonnet report with the finite-L table")
    p.add_argument("--L", default=None, help="comma-separated L values for the finite-L table")

    p = add("oracle-check", cmd_oracle_check,
            "max discrepancies against the independent oracles")
    p.add_argument("--L", default="1,10,100",
                   help="comma-separated L values; the oracles lose digits past about L = 1e9")
    p.add_argument("--samples", type=_sample_count, default=10)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--tol", type=_tolerance, default=1e-6, help="worst allowed gap (at least 0)")

    return parser


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        # a non-finite result exits 4 through `_fmt` (or an unconverged
        # quadrature), so numpy's floating-point warnings would only repeat it
        with np.errstate(all="ignore"):
            lines, code = args.func(resolve_scene(args.scene), args)
        text = "\n".join(lines) + "\n"
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
        return code
    except ValueError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ValidationError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
