"""Property test: no scene file makes `srlab` crash.

One leaf of the shipped Heisenberg annulus scene is replaced with a drawn
value (an integer past the float range or past Python's int digit limit,
+-1e308, a nested list, a value of the wrong type, or a long or deeply
nested expression), and `srlab validate` on the written file must end with
exit 0, 3 or 4, never with an exception.
"""

import contextlib
import io
import json
import os
import tempfile

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from conftest import shipped_config  # noqa: E402
from srlab import cli  # noqa: E402

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
