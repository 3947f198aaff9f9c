"""The benchmark's workloads: which operations run, and how each is checked.

An operation is one closed-loop request: a CLI call through
`srlab.cli.main(argv)` with stdout captured, or one library call. Shipped
scene CLI calls must reproduce the recorded stdout bytes and exit code in
`reference.json` exactly, because the CLI promises byte-identical output.
Operations on generated scenes are checked by invariants instead.
"""

import contextlib
import hashlib
import io
import json
import math
import os

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE = os.path.join(HERE, "reference.json")

SHIPPED = ("rt_disk", "heisenberg_annulus")

# Stream template for `queries`: one entry per operation, cycled. The kind
# mix is fixed so every seed sees the same proportions; the seed only picks
# which recorded instance of each kind runs. One slot in twelve is a typed
# error whose exit code is checked.
QUERY_TEMPLATE = (
    "validate", "frame-report", "curvature", "sweep-K", "sweep-kn", "oracle-check",
    "frame-report", "curvature", "sweep-K", "sweep-kn", "oracle-check", "error",
)

ANNULUS_REGION = {"type": "annulus", "center": [0.0, 0.0], "radii": [1.0, 2.0],
                  "euler_characteristic": 0}
ANNULUS_BOUNDARY = [
    {"curve": ["2*cos(t)", "2*sin(t)"], "t": [0.0, 6.283185307179586]},
    {"curve": ["cos(-t)", "sin(-t)"], "t": [0.0, 6.283185307179586]},
]
SHIPPED_QUADRATURE = {"order": 16, "cells": [8, 8], "segments": 64, "rel_tol": 1e-08}
SHIPPED_L_GRID = [100.0, 1000.0, 10000.0]

# Inline-frame scenes where every frame and surface component varies, so
# far fewer jet coefficient pairs are structural zeros than on the shipped
# scenes. Each variant was checked to validate, to converge after one
# refinement on every integral, and to pass every invariant below.
# (frame twist, frame wobble, surface wobble, surface height)
DENSE_VARIANTS = (
    (0.2, 0.1, 0.1, 0.2),
    (0.18, 0.12, 0.08, 0.22),
    (0.22, 0.08, 0.12, 0.18),
    (0.2, 0.12, 0.12, 0.2),
)


def dense_scene_config(variant: int) -> dict:
    k, a, b, h = DENSE_VARIANTS[variant]
    return {
        "model": {"frame": {
            "e1": [f"cos({k}*z)", f"sin({k}*z)", f"-y/2 + {a}*sin(x)"],
            "e2": [f"-sin({k}*z)", f"cos({k}*z)", f"x/2 + {a}*cos(y)"],
        }},
        "surface": {
            "phi": [f"u + {b}*sin(v)", f"v + {b}*sin(u)", f"{h}*sin(u)*cos(v)"],
            "domain": {"u": [-3.0, 3.0], "v": [-3.0, 3.0]},
        },
        "region": ANNULUS_REGION,
        "boundary": ANNULUS_BOUNDARY,
        "quadrature": SHIPPED_QUADRATURE,
        "tolerances": {"residual": 1e-06},
        "L_grid": SHIPPED_L_GRID,
    }


# A graph surface phi = (u, v, f(u, v)) over the Heisenberg annulus. It is a
# valid scene, so `validate` must exit 0.
GRAPH_SCENE = {
    "model": {"builtin": "heisenberg"},
    "surface": {"phi": ["u", "v", "0.1*u*v"], "domain": {"u": [-3.0, 3.0], "v": [-3.0, 3.0]}},
    "region": ANNULUS_REGION,
    "boundary": ANNULUS_BOUNDARY,
    "L_grid": SHIPPED_L_GRID,
}


def write_scene(path: str, cfg: dict) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(cfg, fh, indent=2)
        fh.write("\n")
    return path


def load_reference() -> dict:
    with open(REFERENCE, encoding="utf-8") as fh:
        return json.load(fh)


def call_cli(cli, argv):
    """Run `srlab` in process: (exit code, stdout bytes, stderr text)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return code, out.getvalue().encode("utf-8"), err.getvalue()


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class Op:
    """One operation: `run()` returns a result, `check(result)` an error or None."""

    def __init__(self, kind, label, run, check):
        self.kind = kind
        self.label = label
        self.run = run
        self.check = check


def recorded_cli_op(cli, kind, entry) -> Op:
    def check(result):
        code, out, _ = result
        if code != entry["exit"]:
            return f"exit {code}, expected {entry['exit']}"
        if digest(out) != entry["sha256"]:
            return f"stdout differs from the recorded reference ({len(out)} bytes)"
        return None

    return Op(kind, " ".join(entry["argv"]), lambda: call_cli(cli, entry["argv"]), check)


def _finite(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool) and math.isfinite(x)


def check_gauss_bonnet_invariants(result):
    """Invariants of a `gauss-bonnet` report on a generated scene."""
    code, out, err = result
    if code != 0:
        return f"exit {code}, expected 0: {err.strip()[:200]}"
    report = json.loads(out)
    integrals = [report["area_integral"], *report["boundary_integrals"]]
    if not all(q["converged"] for q in integrals):
        return "a quadrature did not converge"
    if report.get("residual_ok") is not True:
        return "residual_ok is not true"
    numbers = [report["residual"]]
    numbers += [q[k] for q in integrals for k in ("value", "error_estimate")]
    for row in report["finite_L"]:
        numbers += list(row.values())
        if abs(row["gap"]) > 1e-9 * max(1.0, abs(row["area_part"])):
            return f"finite-L gap {row['gap']!r} at L = {row['L']!r}"
    if not all(_finite(x) for x in numbers):
        return "non-finite number in the report"
    return None


def stokes_op(measures, scene, label) -> Op:
    def check(gap):
        if not _finite(float(gap)) or gap > 1e-10:
            return f"Stokes gap {gap!r} exceeds 1e-10"
        return None

    return Op("stokes", label, lambda: measures.stokes_consistency_gap(scene), check)


# -- workloads ----------------------------------------------------------------


def gb_shipped_cycle(srlab_mods, ref, rng, workdir):
    """Report and Stokes check on each shipped scene, scene order by seed.

    Returns the cycle's operations and the scenes set-up time loads.
    """
    cli, measures, scenes = srlab_mods
    entries = {e["argv"][2]: e for e in ref["gb_shipped"]}
    ops = []
    for name in rng.permutation(SHIPPED):
        ops.append(recorded_cli_op(cli, "gauss-bonnet", entries[name]))
        ops.append(stokes_op(measures, scenes.builtin_scene(name), f"stokes {name}"))
    return ops, list(SHIPPED)


def gb_dense_cycle(srlab_mods, ref, rng, workdir):
    """Report and Stokes check on a dense inline-frame scene picked by seed."""
    cli, measures, scenes = srlab_mods
    variant = int(rng.integers(len(DENSE_VARIANTS)))
    path = write_scene(os.path.join(workdir, f"dense_{variant}.json"), dense_scene_config(variant))
    argv = ["gauss-bonnet", "--scene", path]
    ops = [
        Op("gauss-bonnet", f"gauss-bonnet dense_{variant}",
           lambda: call_cli(cli, argv), check_gauss_bonnet_invariants),
        stokes_op(measures, scenes.load_scene(path), f"stokes dense_{variant}"),
    ]
    return ops, [path]


class QueryStream:
    """Endless seeded stream of recorded single-point CLI calls."""

    def __init__(self, cli, ref, rng):
        self.cli = cli
        self.pool = ref["queries"]
        self.rng = rng
        self.n = 0

    def warmup_ops(self):
        return [recorded_cli_op(self.cli, kind, self.pool[kind][0]) for kind in self.pool]

    def next(self) -> Op:
        kind = QUERY_TEMPLATE[self.n % len(QUERY_TEMPLATE)]
        self.n += 1
        entries = self.pool[kind]
        return recorded_cli_op(self.cli, kind, entries[int(self.rng.integers(len(entries)))])


def make_rng(seed: int, workload: str):
    return np.random.default_rng([seed, sum(map(ord, workload))])
