"""The benchmark's per-layer tracer must still find every hook it patches.

perfbench/tracing.py wraps srlab functions and methods by name and skips a
name that no longer exists, so a rename would silently drop a per-layer
metric. This loads the tracer without writing anything next to it,
installs it on the package and checks that nothing is missing.
"""

import importlib.util
import sys
from pathlib import Path

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
    from srlab import scenes

    original = scenes.resolve_scene
    tracer = load_tracing().Tracer()
    tracer.install()
    try:
        assert tracer.missing == []
        assert scenes.resolve_scene is not original
    finally:
        tracer.uninstall()
    assert scenes.resolve_scene is original
