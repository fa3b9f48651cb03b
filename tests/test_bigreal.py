"""Error-bound propagation through the BigReal wrapper."""

import mpmath as mp

from k3mahler.bigreal import BigReal


def agrees_with(x, other, tol):
    return x.abs_diff(other) <= mp.mpf(tol)


def test_exact_wrap_and_float():
    x = BigReal.exactly(0.5, prec=64)
    assert float(x) == 0.5
    assert mp.isfinite(x.error_bound)


def test_bounds_add_and_scale():
    a = BigReal.with_bound(1.0, 1e-10, prec=64)
    b = BigReal.with_bound(2.0, 3e-10, prec=64)
    s = a + b
    assert float(s) == 3.0
    assert float(s.error_bound) >= 4e-10
    d = b - a
    assert float(d) == 1.0
    assert float(d.error_bound) >= 4e-10


def test_mul_bound_dominates_first_order():
    a = BigReal.with_bound(3.0, 1e-9, prec=64)
    b = BigReal.with_bound(4.0, 2e-9, prec=64)
    p = a * b
    assert float(p) == 12.0
    assert float(p.error_bound) >= 3 * 2e-9 + 4 * 1e-9


def test_agreement_predicate():
    a = BigReal.with_bound(1.0, 1e-12, prec=64)
    assert agrees_with(a, 1.0 + 5e-9, 1e-8)
    assert not agrees_with(a, 1.1, 1e-8)
    assert a.abs_diff(BigReal.exactly(1.0, 64)) == 0


def test_bound_kind_propagates():
    exact = BigReal.exactly(2.0, 64)
    est = BigReal.with_bound(1.0, 1e-12, prec=64, kind="estimate")
    assert exact.bound_kind == "rigorous"
    assert (exact * exact + exact - exact).bound_kind == "rigorous"
    assert (exact + est).bound_kind == "estimate"
    assert (exact - est).bound_kind == "estimate"
    assert (exact * est).bound_kind == "estimate"
