"""The one JSON writer: the stdlib's canonical encoding, streamed."""

import ast
import json
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import tagrec
from tagrec.errors import write_json

EDGE_FLOATS = [-0.0, 5e-324, 1.7976931348623157e308, -1.7976931348623157e308,
               math.nan, math.inf, -math.inf]

# non-ASCII, control characters, quotes, backslashes and lone surrogates
_text = st.text(st.characters(codec=None), max_size=8) | st.sampled_from(
    ["", "café", "\x00\x1f\x7f", '"\\/', "😀", "\ud800", " "])

_scalars = (st.none() | st.booleans() | st.integers() | st.floats()
            | st.sampled_from(EDGE_FLOATS) | _text)

_values = st.recursive(
    _scalars,
    lambda children: (st.lists(children, max_size=5)
                      | st.lists(children, max_size=5).map(tuple)
                      | st.dictionaries(_text, children, max_size=5)),
    max_leaves=40,
)


class TestWriteJson:
    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(value=_values)
    @example(value=[1, {"b": 1, "a": [2, {"z": 0, "y": 1}]}])
    @example(value=[[1.5, -0.0], 2, "x", None, (3,)])
    @example(value=({"b": ()}, [], {}, [[]], [{}], ((),)))
    @example(value={"m": [[float(x) for x in row] for row in np.eye(3)], "": EDGE_FLOATS})
    def test_file_is_the_canonical_stdlib_encoding(self, tmp_path, value):
        path = tmp_path / "value.json"
        write_json(path, value)
        assert path.read_bytes() == (json.dumps(value, sort_keys=True) + "\n").encode("ascii")

    @pytest.mark.parametrize("value", [
        {1: "a"},
        {"a": 1, 2: "b"},
        {None: 0},
        {True: 0},
        {"outer": {1.5: 0}},
        [{"a": 1}, {2: "b"}],
        ([], {"ok": [{(): 0}]}),
    ])
    def test_a_non_str_key_at_a_walked_level_is_a_type_error(self, tmp_path, value):
        with pytest.raises(TypeError):
            write_json(tmp_path / "value.json", value)

    def test_two_bundle_sized_matrices_are_written_in_bounded_memory(self, tmp_path):
        """The DEM bundle's two 1,024 x 150 weight matrices (6.6 MB of
        text) are written one row at a time, never as one string."""
        rng = np.random.default_rng(0)
        value = {"head": {"weights": rng.standard_normal((1024, 150)).tolist(),
                          "W": rng.standard_normal((1024, 150)).tolist()}}
        path = tmp_path / "bundle.json"
        tracemalloc.start()
        try:
            write_json(path, value)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20
        assert path.read_bytes() == (json.dumps(value, sort_keys=True) + "\n").encode("ascii")


def test_no_module_calls_json_dump():
    """Every artifact goes through errors.write_json: no module of the
    package calls json.dump (or imports it by name)."""
    found = []
    for path in sorted(Path(tagrec.__file__).parent.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and node.attr == "dump"
                    and isinstance(node.value, ast.Name) and node.value.id == "json"):
                found.append(f"{path.name}:{node.lineno}: json.dump")
            elif isinstance(node, ast.ImportFrom) and node.module == "json" and any(
                    alias.name == "dump" for alias in node.names):
                found.append(f"{path.name}:{node.lineno}: from json import dump")
    assert found == []
