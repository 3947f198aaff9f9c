"""The benchmark's per-layer tracer must still find every hook it patches.

perfbench/tracing.py wraps srlab functions and methods by name and skips a
name that no longer exists, so a rename would silently drop a per-layer
metric. This loads the tracer without writing anything next to it,
installs it on the package and checks that nothing is missing and that
its counter hooks run without error.
"""

import dataclasses
import importlib.util
import sys
from pathlib import Path

from srlab import cli, measures, scenes

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    saved, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module


def test_tracer_finds_every_hook():
    original = scenes.resolve_scene
    tracer = load_tracing().Tracer()
    tracer.install()
    try:
        assert tracer.missing == []
        assert scenes.resolve_scene is not original
    finally:
        tracer.uninstall()
    assert scenes.resolve_scene is original


def test_counter_hooks_run(monkeypatch):
    # a hook whose assumptions about a call break lands in hook_errors and
    # its metric reads 0; one process, so the tracer sees every region block
    monkeypatch.setattr(measures, "WORKERS", 1)
    tracer = load_tracing().Tracer()
    tracer.install()
    try:
        assert cli.main(["frame-report", "--scene", "rt_disk", "--uv=0.2,1.3"]) == 0
        scene = dataclasses.replace(
            scenes.builtin_scene("heisenberg_annulus"),
            quadrature=measures.QuadratureSpec(order=8, cells=(4, 4), segments=16))
        measures.gauss_bonnet_residual(scene)
        # the Stokes check nests the report's scene_integral span in its own
        measures.stokes_consistency_gap(scene)
    finally:
        tracer.uninstall()
    assert tracer.hook_errors == {}
    for key in ("frame.calls", "surface.geometry_builds", "measures.region_passes",
                "jets.pull_calls"):
        assert tracer.counts[key] > 0, key
