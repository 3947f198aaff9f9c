"""Session settings for the property tests, and a check on child processes.

Hypothesis runs derandomized (examples depend only on the test, so a run is
reproducible and there is no example database) and without a per-example
deadline, so a slow or busy host cannot make a test flaky.

Region quadrature forks worker processes that live as long as the process
does; each test's are stopped when it ends, and none may be left behind,
running or unreaped.
"""

import json
import os
from importlib import resources

import pytest

try:
    from hypothesis import settings
except ImportError:          # the property tests skip themselves then
    settings = None

if settings is not None:
    settings.register_profile("srlab", derandomize=True, deadline=None)
    settings.load_profile("srlab")


def shipped_config(name: str) -> dict:
    """A fresh parse of the packaged scene file `name`, free to edit."""
    return json.loads(resources.files("srlab").joinpath("scenes", f"{name}.json")
                      .read_text(encoding="utf-8"))


def perturb_slow_curve_y(monkeypatch, below: float):
    """Patch the curve pipeline's tangent decomposition so that y is off by
    1e-6 at the first node whose chart speed |gamma'| is below `below`.

    On a flat patch phi = (u, v, 0) the chart speed is the parameter speed,
    so `below` picks one of several curves that run at different speeds.
    """
    import numpy as np

    from srlab import curvature
    from srlab.calculus.jets import Jet, value_of

    solve = curvature.basis_components

    def perturbed(p, q, w):
        x, y = solve(p, q, w)
        slow = np.flatnonzero(np.sqrt(sum(value_of(c) ** 2 for c in w)) < below)
        if slow.size:
            value = np.array(y.coef[0], dtype=float)
            value.flat[slow[0]] += 1e-6
            y = Jet(y.nvars, y.order, [value] + y.coef[1:])
        return x, y

    monkeypatch.setattr(curvature, "basis_components", perturbed)


@pytest.fixture
def fresh_builtin_scenes():
    """Start from an empty shipped-scene memo, so the test's first load validates in full."""
    from srlab import scenes

    scenes.builtin_scene.cache_clear()


@pytest.fixture(autouse=True)
def no_stray_children():
    """Stop the region-pass workers, then fail if any child process is left.

    Stopping them after every test also means each test forks its own
    workers, after its own monkeypatches; a worker the stop leaves unreaped
    still fails the test.
    """
    yield
    from srlab import measures

    measures._stop_pool()
    try:
        left = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:     # no child at all: the expected case
        return
    pytest.fail(f"the test left a child process behind (waitpid gave {left})")
