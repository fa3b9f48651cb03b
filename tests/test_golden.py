"""`verify` reports against the golden files in tests/golden/: each request
reruns in-process, and a difference names the JSON path of its first field.

The left-hand side's value and bound, and the gap `abs_diff`, come from the
float64 quadrature, so they depend on libm and are compared within the
golden `lhs.error_bound`; every other field, and the key list that stands in
for `timings`, is compared exactly."""

import json

import pytest

from golden.regen import HERE, REQUESTS, report

FLOAT64_FIELDS = {"$.lhs.value", "$.lhs.error_bound", "$.abs_diff"}


def first_difference(got, want, tol: float, path: str = "$"):
    """The JSON path of the first field where got differs from want, or None;
    the paths in FLOAT64_FIELDS may differ by up to tol."""
    if path in FLOAT64_FIELDS:
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
    return next((d for p, g, w in pairs if (d := first_difference(g, w, tol, p))), None)


@pytest.mark.parametrize("name", REQUESTS)
def test_verify_report_matches_golden(name):
    want = json.loads((HERE / f"{name}.json").read_text())
    got = report(REQUESTS[name])
    diff = first_difference(got, want, want["lhs"]["error_bound"])
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
