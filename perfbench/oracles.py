"""Reference values and output checks for the k3mahler benchmark.

The k = 0 and k = 18 references are computed here from closed forms that the
package does not use.  The A_p reference is the form-series coefficient
a_p, computed by `lfunctions.form_coefficients` (a different module from the
point counts it checks) before any request is timed.

A check returns a list of failure strings; an empty list means the request
passed.  Accuracy is reported in decimal digits, -log10 of an absolute
difference, capped at DIGITS_CAP; an exact agreement scores the cap.
"""

import math
from decimal import Decimal

import mpmath as mp

DIGITS_CAP = 100.0
WORK_DPS = 130
SERIES_TERMS = 120

# identity data: k -> (discriminant of the CM form series, newform level)
FORMS = {3: (-15, 15), 6: (-24, 24), 18: (-120, 120)}
SECTION_COMPONENTS = {"s=0": 6, "s=inf": 1, "s=1/18": 1,
                      "alpha1": 0, "beta1": 0, "alpha2": 0, "beta2": 0}


def d3_reference() -> mp.mpf:
    """m(P_0) = d3 = (3 sqrt3 / 4 pi) L(chi_-3, 2), with
    L(chi_-3, 2) = (psi'(1/3) - psi'(2/3)) / 9."""
    with mp.workdps(WORK_DPS):
        third = mp.mpf(1) / 3
        return +(3 * mp.sqrt(3) / (4 * mp.pi)
                 * (mp.psi(1, third) - mp.psi(1, 2 * third)) / 9)


def constant_term_reference(k: int, terms: int = SERIES_TERMS) -> mp.mpf:
    """m(P_k) = log k - sum_{n>=1} c_2n / (2n k^2n) for |k| > 6
    (Rodriguez-Villegas), where c_2n = C(2n,n) sum_j C(n,j)^2 C(2j,j) is the
    constant term of (x+1/x+y+1/y+z+1/z)^2n.  Since c_2n <= 36^n, the
    truncation error is below (36/k^2)^(terms+1) / (1 - 36/k^2)."""
    if abs(k) <= 6:
        raise ValueError("the constant-term series needs |k| > 6")
    with mp.workdps(WORK_DPS):
        total = mp.log(k)
        kk = mp.mpf(k) ** 2
        for n in range(1, terms + 1):
            c = math.comb(2 * n, n) * sum(math.comb(n, j) ** 2 * math.comb(2 * j, j)
                                          for j in range(n + 1))
            total -= c / (2 * n * kk ** n)
        return +total


def mahler_references() -> dict:
    return {0: d3_reference(), 18: constant_term_reference(18)}


def good_primes(k: int, pmax: int) -> list:
    """Primes p <= pmax of good reduction: p does not divide 6 * level."""
    bad = 6 * FORMS[k][1]
    return [p for p in range(5, pmax + 1)
            if bad % p and all(p % q for q in range(2, math.isqrt(p) + 1))]


def ap_references(pmax: int) -> dict:
    """k -> {p: a_p} for the good primes p <= pmax, from the form series."""
    from k3mahler import lfunctions
    out = {}
    for k, (disc, _) in FORMS.items():
        co = lfunctions.form_coefficients(lfunctions.FORM_SERIES[disc], pmax)
        out[k] = {p: int(co[p]) for p in good_primes(k, pmax)}
    return out


def digits(x) -> float:
    """-log10(x) capped at DIGITS_CAP (x = 0 scores the cap)."""
    if x == 0:
        return DIGITS_CAP
    with mp.workdps(WORK_DPS):
        return min(DIGITS_CAP, float(-mp.log10(abs(x))))


def parse_number(token: str) -> Decimal:
    """JSON float parser for reports: a value printed with at most 17
    significant digits is read as the float64 it denotes, exactly."""
    value = Decimal(token)
    return Decimal(float(token)) if len(value.as_tuple().digits) <= 17 else value


def _mp(d) -> mp.mpf:
    return mp.mpf(str(d))


def _e(x) -> str:
    return mp.nstr(x, 3)


def _resolution(d) -> mp.mpf:
    """Rounding of a reported float64 value, |v| 2^-53; zero for a value
    printed beyond float64 precision."""
    d = Decimal(str(d))
    if d.is_finite() and Decimal(float(d)) == d:
        return abs(_mp(d)) * mp.mpf(2) ** -53
    return mp.mpf(0)


def _check_ap_values(values: dict, k: int, refs: dict, expected: list) -> list:
    fails = []
    got = {int(p): int(v) for p, v in values.items()}
    if not got:
        fails.append(f"k={k}: no A_p values (examined nothing)")
    if sorted(got) != expected:
        fails.append(f"k={k}: primes {sorted(got)} != good primes {expected}")
    wrong = {p: (v, refs[k].get(p)) for p, v in got.items() if refs[k].get(p) != v}
    if wrong:
        fails.append(f"k={k}: A_p != form coefficient at {sorted(wrong)[:8]}")
    return fails


def check_ap(k: int, pmax: int, doc: dict, ap_refs: dict) -> tuple:
    """Check an `ap --json` document.  Returns (failures, accuracy)."""
    fails = _check_ap_values(doc["value"], k, ap_refs, good_primes(k, pmax))
    exact = DIGITS_CAP if not fails else 0.0
    bound = digits(_mp(doc["error_bound"]))
    return fails, {"digits": exact, "certified_digits": bound, "ref_digits": exact,
                   "primes": len(doc["value"])}


def check_verify(k: int, report: dict, mahler_refs: dict, ap_refs: dict) -> tuple:
    """Check a `verify --json` report (parsed with Decimal floats).

    Returns (failures, accuracy), where accuracy holds digits (|lhs - rhs|),
    certified_digits (err(lhs) + err(rhs)), ref_digits (against the
    benchmark's reference, k in {0, 18} only), the A_p prime count and the
    two reported error bounds."""
    fails = []
    if report.get("pass") is not True:
        fails.append(f"k={k}: verdict is FAIL")
    failed_subs = [c["name"] for c in report["subchecks"] if c.get("pass") is not True]
    if failed_subs:
        fails.append(f"k={k}: failed subchecks {failed_subs}")

    with mp.workdps(WORK_DPS):
        lhs, rhs = report["lhs"], report["rhs"]
        lv, rv = _mp(lhs["value"]), _mp(rhs["value"])
        le, re_ = _mp(lhs["error_bound"]), _mp(rhs["error_bound"])
        lres, rres = _resolution(lhs["value"]), _resolution(rhs["value"])
        diff = abs(lv - rv)
        if diff > le + re_ + lres + rres:
            fails.append(f"k={k}: bounds {_e(le)} + {_e(re_)} do not cover "
                         f"|lhs-rhs| = {_e(diff)}")
        acc = {"digits": digits(diff), "certified_digits": digits(le + re_),
               "lhs_err": float(le), "rhs_err": float(re_), "primes": 0}
        ref = mahler_refs.get(k)
        if ref is not None:
            dl, dr = abs(lv - ref), abs(rv - ref)
            if dl > le + lres:
                fails.append(f"k={k}: lhs bound {_e(le)} does not cover |lhs-ref| = {_e(dl)}")
            if dr > re_ + rres:
                fails.append(f"k={k}: rhs bound {_e(re_)} does not cover |rhs-ref| = {_e(dr)}")
            acc["ref_digits"] = digits(max(dl, dr))

    if k in FORMS:
        ap_checks = [c for c in report["subchecks"] if c["name"].startswith("A_p-vs-")]
        if len(ap_checks) != 1:
            fails.append(f"k={k}: expected one A_p subcheck, found {len(ap_checks)}")
        else:
            values = ap_checks[0].get("values", {})
            primes = sorted(int(p) for p in values)
            expected = good_primes(k, primes[-1]) if primes else []
            fails += _check_ap_values(values, k, ap_refs, expected)
            acc["primes"] = len(values)

    if k == 18:
        subs = {c["name"]: c for c in report["subchecks"]}
        expect = {"height": ("value", "10"),
                  "neron-components": ("components", SECTION_COMPONENTS),
                  "zero-section-intersection": ("value", 5)}
        for name, (field, want) in expect.items():
            got = subs.get(name, {}).get(field)
            if got != want:
                fails.append(f"k=18: {name} {field} = {got!r}, expected {want!r}")
    return fails, acc
