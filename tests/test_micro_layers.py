"""The benchmark's fixed-node-set layer timings must still run.

perfbench/micro.py reads srlab attributes directly (the chart point of a
patch, a geometry's frame and pullback, the constructors of every layer),
so removing one would only show when the traced benchmark runs. This loads
the module without writing anything next to it, shrinks its node sizes on
the loaded module object to a single 1-node entry, and times each layer
once on rt_disk.
"""

import importlib.util
import math
import sys
from pathlib import Path

MICRO = Path(__file__).resolve().parents[1] / "perfbench" / "micro.py"


def load_micro():
    spec = importlib.util.spec_from_file_location("perfbench_micro", MICRO)
    module = importlib.util.module_from_spec(spec)
    saved, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module


def test_layer_timings_run_on_one_node():
    from srlab import cli, measures, scenes

    micro = load_micro()
    micro.SIZES = (("1", 1, 1),)
    metrics = micro.layer_timings((cli, measures, scenes),
                                  {"rt_disk": scenes.builtin_scene("rt_disk")})
    assert sorted(metrics) == sorted(
        f"{layer}.rt_disk.1_us_per_node"
        for layer in ("frame.order4", "surface.geometry", "jets.pull",
                      "curvature.lform", "curvature.curve_geometry"))
    assert all(math.isfinite(value) for value in metrics.values())
