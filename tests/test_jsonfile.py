"""``json_text`` writes the text of ``json.dumps(obj, indent=2, sort_keys=True)``,
and ``json_numbers`` reads a JSON list of finite doubles."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pauli_lab import cli
from pauli_lab.jsonfile import json_numbers, json_text


def dumps(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True)


# construct argv -> verify exit code; non-weak 0.9/0.6 is a null-space pair,
# and non-weak 0.8/1.022 fails its verdicts
PIPELINES = {
    ("time", "0.5", "0.9", "7"): 0,
    ("freq-matched", "0.5", "0.9", "7"): 0,
    ("non-weak", "0.5", "0.9", "3"): 0,
    ("non-weak", "0.9", "0.6", "3"): 0,
    ("non-weak", "0.8", "1.022", "3"): 1,
}


@pytest.mark.parametrize("kind, decay, density, seed", list(PIPELINES))
def test_cli_files_are_json_dumps_text(tmp_path, kind, decay, density, seed):
    pair, report = tmp_path / "pair.json", tmp_path / "report.json"
    assert cli.main(["construct", kind, "--A", decay, "--D", density, "--seed", seed,
                     "--out", str(pair)]) == 0
    code = cli.main(["verify", "--pair", str(pair), "--out", str(report)])
    assert code == PIPELINES[kind, decay, density, seed]
    for path in (pair, report):
        text = path.read_text()
        # finite floats, ints, bools, None and strings survive json.loads exactly
        assert text == dumps(json.loads(text)) + "\n"


SPECIAL_FLOATS = [0.0, -0.0, 5e-324, 1e308, -1e308, float("nan"), float("inf"), float("-inf")]
scalars = (st.none() | st.booleans() | st.integers() | st.integers(min_value=2**64)
           | st.floats() | st.sampled_from(SPECIAL_FLOATS) | st.text())
# all-float lists take the writer's joined path, unless one is not finite
float_lists = st.lists(st.floats(allow_nan=False, allow_infinity=False)
                       | st.sampled_from(SPECIAL_FLOATS))
mixed_lists = st.lists(st.floats() | st.integers() | st.booleans(), min_size=1)
values = st.recursive(
    scalars | float_lists | mixed_lists,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=20)


@settings(max_examples=300, deadline=None)
@given(values)
def test_any_json_value(obj):
    assert json_text(obj) == dumps(obj)


@pytest.mark.parametrize("obj", [
    {}, [], (), {"a": {}, "b": [], "c": [[]]}, (1.5, 2.5), [1.0, 2], [1.0, True],
    {"é\n\"": "☃\\", "": None}, {3: 1.0, 1: [0.5]}, {2.5: 1, -1e308: 2},
    {True: "t"}, {None: "n"},
], ids=["empty-dict", "empty-list", "empty-tuple", "nested-empties", "tuple", "float-int",
        "float-bool", "escapes", "int-keys", "float-keys", "bool-key",
        "none-key"])
def test_edge_cases(obj):
    assert json_text(obj) == dumps(obj)


@pytest.mark.parametrize("value, message", [
    ([1.0, True], "must be a list of numbers"),
    ([1, None], "must be a list of numbers"),
    (["a"], "must be a list of numbers"),
    ([[1.0]], "must be a list of numbers"),
    ({"a": 1}, "must be a list of numbers"),
    ([float("inf")], "must hold only finite doubles, got inf"),
    ([10**400], "must hold only finite doubles, got 1000"),
], ids=["bool", "null", "string", "nested", "object", "inf", "big-int"])
def test_json_numbers_rejects(value, message):
    with pytest.raises(ValueError, match=f"^points {message}"):
        json_numbers(value, "points")


@pytest.mark.parametrize("value", [[], [1, 2.5]], ids=["empty", "int-float"])
def test_json_numbers_reads(value):
    numbers = json_numbers(value, "points")
    assert numbers.dtype == float and np.array_equal(numbers, value)
