"""`verify` reports and the README's examples against the golden files in
tests/golden/: each request reruns in-process, and a difference names the
JSON path of its first field.

The float64 quadrature's fields come from libm: `verify`'s left-hand side
(value and bound) and the gap `abs_diff` are compared within the golden
`lhs.error_bound`, and `mahler`'s quadrature value and bound within the
golden `error_bound`.  Every other field, the key list that stands in for
`timings`, and the text lines are compared exactly."""

import json

import pytest

from golden.regen import EXAMPLES, MISSING, REQUESTS, changes, path, report

FLOAT64_FIELDS = {"$.lhs.value", "$.lhs.error_bound", "$.abs_diff"}
QUADRATURE_FIELDS = {"$.value", "$.error_bound"}


def first_difference(got, want, tol: float, path: str = "$", fields=FLOAT64_FIELDS):
    """The JSON path of the first field where got differs from want, or None;
    the paths in fields may differ by up to tol."""
    if path in fields:
        return None if abs(got - want) <= tol else path
    if isinstance(want, dict) and isinstance(got, dict):
        if list(got) != list(want):
            return f"{path} keys"
        pairs = [(f"{path}.{key}", got[key], want[key]) for key in want]
    elif isinstance(want, list) and isinstance(got, list):
        if len(got) != len(want):
            return f"{path} length"
        pairs = [(f"{path}[{i}]", g, w) for i, (g, w) in enumerate(zip(got, want))]
    else:
        return None if type(got) is type(want) and got == want else path
    return next((d for p, g, w in pairs
                 if (d := first_difference(g, w, tol, p, fields))), None)


@pytest.mark.parametrize("name", REQUESTS)
def test_verify_report_matches_golden(name):
    want = json.loads(path(name, REQUESTS[name]).read_text())
    _, got = report(REQUESTS[name])
    diff = first_difference(got, want, want["lhs"]["error_bound"])
    assert diff is None, f"{name}: first difference at {diff}"


@pytest.mark.parametrize("name", EXAMPLES)
def test_example_matches_golden(name):
    argv = EXAMPLES[name]
    code, got = report(argv)
    assert code == 0
    if "--json" not in argv:
        assert got == path(name, argv).read_text()
        return
    want = json.loads(path(name, argv).read_text())
    quadrature = want["input"].get("method") == "quadrature"
    diff = first_difference(got, want, want["error_bound"] if quadrature else 0,
                            fields=QUADRATURE_FIELDS if quadrature else ())
    assert diff is None, f"{name}: first difference at {diff}"


def test_first_difference_names_the_path():
    want = {"a": [1, {"b": "x"}], "lhs": {"value": 1.0}}
    assert first_difference(want, want, 0.0) is None
    assert first_difference({"a": [1, {"b": "y"}], "lhs": {"value": 1.0}}, want, 0.0) == "$.a[1].b"
    assert first_difference({"a": [True, {"b": "x"}], "lhs": {"value": 1.0}}, want, 0.0) == "$.a[0]"
    assert first_difference({"a": [1], "lhs": {"value": 1.0}}, want, 0.0) == "$.a length"
    assert first_difference({"lhs": {"value": 1.0}, "a": [1, {"b": "x"}]}, want, 0.0) == "$ keys"
    assert first_difference({"a": [1, {"b": "x"}], "lhs": {"value": 1.5}}, want, 0.5) is None
    assert first_difference({"a": [1, {"b": "x"}], "lhs": {"value": 1.5}}, want, 0.4) == "$.lhs.value"
    # outside its fields a float is compared exactly
    assert first_difference({"value": 1.5}, {"value": 1.0}, 0.5) == "$.value"
    assert first_difference({"value": 1.5}, {"value": 1.0}, 0.5, fields=QUADRATURE_FIELDS) is None


def test_changes_names_each_field():
    old = {"a": [1, {"b": "x"}], "c": 1.5}
    assert list(changes(old, old)) == []
    assert list(changes(old, {"a": [2, {"b": "y"}], "c": 1.5})) == [("$.a[0]", 1, 2),
                                                                  ("$.a[1].b", "x", "y")]
    assert list(changes(old, {"a": [1], "d": None})) == [
        ("$.a[1]", {"b": "x"}, MISSING), ("$.c", 1.5, MISSING), ("$.d", MISSING, None)]
    # an int for a float, or True for 1, is a change
    assert list(changes(old, {"a": [True, {"b": "x"}], "c": 1.5})) == [("$.a[0]", 1, True)]
    assert list(changes(["x", "y"], ["x", "z"])) == [("$[1]", "y", "z")]
