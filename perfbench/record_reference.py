"""Record the expected output of every shipped-scene benchmark operation.

Run from the repository root, at the commit whose output is the reference:

    python3 perfbench/record_reference.py

It draws the `queries` pool from a fixed seed, runs each call and the
shipped `gauss-bonnet` reports through `srlab.cli.main`, and writes the
argv, exit code and SHA-256 of stdout of each to perfbench/reference.json.
Benchmark runs draw their operations from this pool, so any seed they are
given has a recorded answer. It also checks that every dense scene variant
validates, converges after one refinement and passes the invariants.
"""

import json
import os
import sys

import numpy as np

from workloads import (DENSE_VARIANTS, REFERENCE, SHIPPED, call_cli,
                       check_gauss_bonnet_invariants, dense_scene_config, digest,
                       write_scene)

POOL_SEED = 2002_07177
PER_SCENE = 24          # instances of each parameterized kind per scene
# Within a kind every instance does the same amount of work (same number of
# L values and samples), so the seed changes the numbers, not the load.
L_RANGE = (0.0, 6.0)    # log10 of the metric parameter L


def _num(x: float) -> str:
    return f"{x:.6g}"


def _L_list(rng, n: int) -> str:
    return ",".join(_num(10 ** rng.uniform(*L_RANGE)) for _ in range(n))


def _region_point(rng, region):
    (u0, u1), (v0, v1) = region.bounding_box()
    while True:
        u, v = float(rng.uniform(u0, u1)), float(rng.uniform(v0, v1))
        if region.contains(u, v) and region.boundary_distance(u, v) > 1e-3:
            # one token, "--uv=-0.3,1.2", so argparse never reads a
            # negative pair as an option
            return f"--uv={_num(u)},{_num(v)}"


def query_pool(scenes, rng) -> dict:
    pool = {kind: [] for kind in ("validate", "frame-report", "curvature", "sweep-K",
                                  "sweep-kn", "oracle-check", "error")}
    for name in SHIPPED:
        scene = scenes.builtin_scene(name)
        pool["validate"].append(["validate", "--scene", name])
        for _ in range(PER_SCENE):
            L = _num(10 ** rng.uniform(*L_RANGE))
            pool["frame-report"].append(
                ["frame-report", "--scene", name, _region_point(rng, scene.region), "--L", L])
            L = _num(10 ** rng.uniform(*L_RANGE))
            pool["curvature"].append(
                ["curvature", "--scene", name, _region_point(rng, scene.region), "--L", L])
            pool["sweep-K"].append(
                ["sweep", "--scene", name, "--quantity", "K",
                 _region_point(rng, scene.region), "--L", _L_list(rng, 3)])
            c = int(rng.integers(len(scene.boundary)))
            curve = scene.boundary[c]
            pool["sweep-kn"].append(
                ["sweep", "--scene", name, "--quantity", "kn", "--curve", str(c),
                 "--t", _num(rng.uniform(curve.t0, curve.t1)), "--L", _L_list(rng, 2)])
            pool["oracle-check"].append(
                ["oracle-check", "--scene", name, "--samples", "3",
                 "--seed", str(int(rng.integers(1000))), "--L", _L_list(rng, 2)])
    # typed errors: each must exit with its documented code (2 usage,
    # 3 validation, 4 numerical)
    pool["error"] = [
        ["curvature", "--scene", "heisenberg_annulus", "--uv", "0,0"],
        ["frame-report", "--scene", "heisenberg_annulus", "--uv", "0,0"],
        ["curvature", "--scene", "rt_disk", "--uv", "0.3"],
        ["sweep", "--scene", "rt_disk", "--quantity", "kn"],
        ["sweep", "--scene", "rt_disk", "--quantity", "K"],
        ["sweep", "--scene", "heisenberg_annulus", "--quantity", "kn", "--t", "1", "--curve", "2"],
        ["sweep", "--scene", "rt_disk", "--quantity", "K", "--uv", "0,1.5", "--L", "-1"],
        ["oracle-check", "--scene", "rt_disk", "--L", "0"],
        ["gauss-bonnet", "--scene", "heisenberg_annulus", "--L", "abc"],
        ["curvature", "--scene", "no_such_scene", "--uv", "0,0"],
    ]
    return pool


def record(cli, argv) -> dict:
    code, out, _ = call_cli(cli, argv)
    return {"argv": argv, "exit": code, "sha256": digest(out), "bytes": len(out)}


def check_dense_variants(cli, measures, scenes, workdir) -> bool:
    ok = True
    for variant in range(len(DENSE_VARIANTS)):
        path = write_scene(os.path.join(workdir, f"dense_{variant}.json"),
                           dense_scene_config(variant))
        validate = call_cli(cli, ["validate", "--scene", path])[0]
        result = call_cli(cli, ["gauss-bonnet", "--scene", path])
        problem = check_gauss_bonnet_invariants(result)
        if problem is None:
            report = json.loads(result[1])
            refinements = {q["refinements"] for q in
                           [report["area_integral"], *report["boundary_integrals"]]}
            if refinements != {1}:
                problem = f"refinements {sorted(refinements)}, expected [1]"
        gap = measures.stokes_consistency_gap(scenes.load_scene(path))
        if validate != 0 or problem or not gap <= 1e-10:
            ok = False
        print(f"dense_{variant}: validate exit {validate}, report {problem or 'ok'}, "
              f"Stokes gap {gap!r}", file=sys.stderr)
    return ok


def main() -> int:
    here = os.path.dirname(os.path.abspath(__file__))
    sys.path.insert(0, os.path.join(os.path.dirname(here), "src"))
    from srlab import cli, measures, scenes

    workdir = os.path.join(here, "out", "work")
    os.makedirs(workdir, exist_ok=True)
    if not check_dense_variants(cli, measures, scenes, workdir):
        return 1

    pool = query_pool(scenes, np.random.default_rng(POOL_SEED))
    ref = {
        "pool_seed": POOL_SEED,
        "gb_shipped": [record(cli, ["gauss-bonnet", "--scene", name]) for name in SHIPPED],
        "queries": {kind: [record(cli, argv) for argv in argvs] for kind, argvs in pool.items()},
    }
    for kind, entries in ref["queries"].items():
        codes = sorted({e["exit"] for e in entries})
        print(f"{kind}: {len(entries)} calls, exit codes {codes}", file=sys.stderr)
    with open(REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(ref, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
