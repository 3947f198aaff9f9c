"""Property tests of scene loading.

No scene file makes `srlab` crash: one leaf of the shipped Heisenberg
annulus scene is replaced with a drawn value (an integer past the float
range or past Python's int digit limit, +-1e308, a nested list, a value of
the wrong type, or a long or deeply nested expression), and `srlab
validate` on the written file must end with exit 0, 3 or 4, never with an
exception.

Boundary coverage depends on neither the cuts nor the order of the pieces:
the annulus's two circles cut into pieces and listed in any order load, and
the same set with one piece reversed, duplicated or dropped is refused.
"""

import contextlib
import io
import itertools
import json
import math
import os
import tempfile

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from conftest import shipped_config  # noqa: E402
from srlab import cli  # noqa: E402
from srlab.errors import SceneError  # noqa: E402
from srlab.scenes import scene_from_config  # noqa: E402

# stands for an integer too long for json.dumps; swapped in as text
TOO_MANY_DIGITS = "<integer of 5001 digits>"


def leaf_paths(node, path=()):
    """Key or index paths of every number, string and boolean in a config."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return [path]
    return [p for key, child in items for p in leaf_paths(child, path + (key,))]


LEAVES = leaf_paths(shipped_config("heisenberg_annulus"))


def nested_list(depth: int):
    value = 0
    for _ in range(depth):
        value = [value]
    return value


EXPRESSIONS = (
    lambda n: "(" * n + "0" + ")" * n,
    lambda n: "-" * n + "0",
    lambda n: "sin(" * n + "0" + ")" * n,
    lambda n: "+".join(["0"] * n),
)

VALUES = st.one_of(
    st.builds(lambda k, sign: sign * 10 ** k, st.integers(309, 4000), st.sampled_from((1, -1))),
    st.just(TOO_MANY_DIGITS),
    st.sampled_from((1e308, -1e308)),
    st.integers(1, 100).map(nested_list),
    st.sampled_from((None, True, "text", {}, [], 0.5, -1)),
    st.builds(lambda make, n: make(n), st.sampled_from(EXPRESSIONS), st.integers(1, 3000)),
)


@settings(max_examples=300)
@given(st.sampled_from(LEAVES), VALUES)
def test_validate_never_crashes(path, value):
    cfg = shipped_config("heisenberg_annulus")
    parent = cfg
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    text = json.dumps(cfg).replace(json.dumps(TOO_MANY_DIGITS), "1" + "0" * 5000)
    with tempfile.TemporaryDirectory() as tmp:
        scene = os.path.join(tmp, "scene.json")
        with open(scene, "w", encoding="utf-8") as fh:
            fh.write(text)
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(["validate", "--scene", scene])
    assert code in (0, 3, 4)


def circle_cut(radius: float, sign: str, start: float, weights: list) -> list:
    """(radius, sign, t) pieces of a circle, clockwise for sign "-", from
    parameter `start` once round, with lengths in proportion to `weights`."""
    ends = [start + 2 * math.pi * k / sum(weights) for k in itertools.accumulate([0, *weights])]
    return [(radius, sign, t) for t in zip(ends, ends[1:])]


def boundary(pieces) -> list:
    return [{"curve": [f"{r}*cos({sign}t)", f"{r}*sin({sign}t)"], "t": list(t)}
            for r, sign, t in pieces]


STARTS = st.floats(0.0, 2 * math.pi)
# each piece is at least 1/50 of a turn, so each step of a reversed piece
# turns back far beyond the 1e-6 rad tolerance
WEIGHTS = st.lists(st.integers(1, 10), min_size=1, max_size=5)


@settings(max_examples=60)
@given(STARTS, WEIGHTS, STARTS, WEIGHTS, st.randoms(use_true_random=False),
       st.sampled_from(("reverse", "duplicate", "drop")))
def test_cut_boundary_loads_in_any_order(outer_start, outer_w, inner_start, inner_w, rnd, change):
    pieces = circle_cut(2.0, "", outer_start, outer_w) + circle_cut(1.0, "-", inner_start, inner_w)
    rnd.shuffle(pieces)
    cfg = shipped_config("heisenberg_annulus")
    cfg["boundary"] = boundary(pieces)
    scene_from_config(cfg)

    k = rnd.randrange(len(pieces))
    if change == "reverse":
        r, sign, (a, b) = pieces[k]
        pieces[k] = (r, "" if sign == "-" else "-", (-b, -a))
    elif change == "duplicate":
        pieces.insert(k, pieces[k])
    else:
        del pieces[k]
    cfg["boundary"] = boundary(pieces)
    with pytest.raises(SceneError) as refused:
        scene_from_config(cfg)
    assert refused.value.path == (f"$.boundary[{k}]" if change == "reverse" else "$.boundary")
