"""Fixed-node-set layer timings: best of k, in microseconds per node.

Each layer function runs on the first n quadrature nodes of a scene, with
n = 1 (a scalar point, as the single-point CLI calls use), 1k and 16k (one
region-quadrature chunk, as `gauss-bonnet` uses). Curve geometry runs on
curve quadrature nodes of the first boundary curve.
"""

import time

SIZES = (("1", 1, 15), ("1k", 1024, 5), ("16k", 16384, 3))   # label, nodes, repeats
L_MICRO = 1000.0


def _best(fn, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _first_nodes(measures, scene, n):
    u, v, _ = measures.region_nodes(scene.region, scene.quadrature, 1)
    curve = scene.boundary[0]
    factor = -(-n // (scene.quadrature.segments * scene.quadrature.order))
    t, _ = measures.curve_nodes(curve.t0, curve.t1, scene.quadrature, factor)
    if n == 1:
        return float(u[0]), float(v[0]), float(t[0])
    return u[:n].copy(), v[:n].copy(), t[:n].copy()


def layer_timings(srlab_mods, scenes_by_label) -> dict:
    """Metrics `<layer>.<fn>.<scene>.<size>_us_per_node` for each scene."""
    from srlab import curvature, surface

    _, measures, _ = srlab_mods
    out = {}
    for label, scene in scenes_by_label.items():
        model, patch = scene.model, scene.patch
        for size, n, repeats in SIZES:
            u, v, t = _first_nodes(measures, scene, n)
            point = patch.point(u, v)
            geom = surface.SurfaceGeometry(model, patch, u, v)
            omega3 = geom.frame.omega[2]
            curve = scene.boundary[0]
            timings = {
                "frame.order4": lambda: model.frame(point, order=4),
                "surface.geometry": lambda: surface.SurfaceGeometry(model, patch, u, v),
                "jets.pull": lambda: geom.pullback.pull(omega3),
                "curvature.lform": lambda: curvature.LFormAssembly(geom, L_MICRO),
                "curvature.curve_geometry": lambda: curvature.CurveGeometry(model, patch, curve, t),
            }
            for name, fn in timings.items():
                out[f"{name}.{label}.{size}_us_per_node"] = _best(fn, repeats) * 1e6 / n
    return out
