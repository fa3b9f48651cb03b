"""Curve and section fixtures for the k=3/6/18 surfaces.

Every displayed formula this package replays (Weierstrass models, the
infinite sections, torsion multiples, the halving data, the two Neron models)
is stored under data/sections/ as a plain-text coefficient list over
Q(sqrt(-3)) -- one file per formula -- and pinned by a SHA-256 manifest.

File grammar: "key: c0 c1 c2 ..." with coefficients lowest-degree first; a
coefficient is a rational "n" or "n/d", or "a&b" for a + b*sqrt(-3).
Rational functions use a pair of keys "<name>.num" / "<name>.den".

The loaders also rebuild each formula from its printed factored form and
refuse to hand out a fixture that does not match the file, so the files and
the in-code constructions certify each other.
"""

from __future__ import annotations

import hashlib
from fractions import Fraction
from functools import lru_cache
from importlib import resources

from .exactalg import Poly, QuadElem, RatFunc
from .mwsections import FunctionFieldCurve, SectionPoint

_MANIFEST_SHA256 = "5f0e3aa2eaa01268161056bd43130c536ab62d450260d74a952193fcb3d9376c"

W = QuadElem(0, 1)  # sqrt(-3)


def poly(coeffs) -> Poly:
    return Poly(coeffs)


# ---------------------------------------------------------------------------
# Text format
# ---------------------------------------------------------------------------

def _format_rational(q: Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def format_coeff(c: QuadElem) -> str:
    if c.b == 0:
        return _format_rational(c.a)
    return f"{_format_rational(c.a)}&{_format_rational(c.b)}"


def parse_coeff(tok: str) -> QuadElem:
    if "&" in tok:
        a, b = tok.split("&")
        return QuadElem(Fraction(a), Fraction(b))
    return QuadElem(Fraction(tok))


def format_poly(p: Poly) -> str:
    if p.is_zero():
        return "0"
    return " ".join(format_coeff(c) for c in p.coeffs)


def parse_poly(text: str) -> Poly:
    toks = text.split()
    if toks == ["0"]:
        return Poly()
    return Poly([parse_coeff(t) for t in toks])


def parse_fixture_text(text: str) -> dict[str, Poly]:
    out: dict[str, Poly] = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, _, rhs = line.partition(":")
        out[key.strip()] = parse_poly(rhs)
    return out


def _data_root():
    return resources.files("k3mahler").joinpath("data/sections")


@lru_cache(maxsize=None)
def _manifest() -> dict[str, str]:
    raw = _data_root().joinpath("CHECKSUMS").read_bytes()
    if hashlib.sha256(raw).hexdigest() != _MANIFEST_SHA256:
        raise RuntimeError("fixture manifest checksum mismatch")
    out = {}
    for line in raw.decode().splitlines():
        if line.strip():
            digest, name = line.split()
            out[name] = digest
    return out


@lru_cache(maxsize=None)
def load_fixture(name: str) -> dict[str, Poly]:
    raw = _data_root().joinpath(name).read_bytes()
    digest = hashlib.sha256(raw).hexdigest()
    want = _manifest().get(name)
    if want != digest:
        raise RuntimeError(f"fixture {name}: checksum {digest} != pinned {want}")
    return parse_fixture_text(raw.decode())


def _ratfunc(entries: dict[str, Poly], name: str) -> RatFunc:
    return RatFunc(entries[f"{name}.num"], entries[f"{name}.den"])


def _checked(name: str, built: dict) -> dict:
    """Load a fixture file and insist it matches the in-code construction."""
    entries = load_fixture(name)
    for key, value in built.items():
        if isinstance(value, RatFunc):
            got = _ratfunc(entries, key)
        else:
            got = RatFunc(entries[key])
            value = RatFunc.coerce(value)
        if got != value:
            raise RuntimeError(f"fixture {name}:{key} disagrees with the "
                               "factored-form construction")
    return entries


# ---------------------------------------------------------------------------
# Factored-form constructions of the displayed formulas
# ---------------------------------------------------------------------------

def _sigma() -> Poly:
    return Poly.x()


def _lin(c) -> Poly:
    """sigma + c."""
    return Poly([c, 1])


def build_y18_curve() -> dict:
    s1 = poly([1, -18, 1])
    return {"a1": s1, "a2": poly([-1, -18, 1]), "a3": poly([]),
            "a4": poly([0, 18, -1]), "a6": poly([])}


def build_y18_schart_curve() -> dict:
    return {"a1": poly([1, -18, 1]), "a2": poly([0, 0, 1, -18, -1]),
            "a3": poly([]), "a4": poly([0, 0, 0, 0, 0, 0, -1, 18]),
            "a6": poly([])}


def build_y18_twist_curve() -> dict:
    return {"a1": poly([1, -18, 1]), "a2": poly([2, 90, -329, 36, -1]),
            "a3": poly([]), "a4": poly([0, 162, -9]), "a6": poly([])}


def build_y3_curve() -> dict:
    return {"a1": poly([1, -3, 1]), "a2": poly([-1, -3, 1]), "a3": poly([]),
            "a4": poly([0, 3, -1]), "a6": poly([])}


def build_y6_curve() -> dict:
    # y^2 + (s^2-6s+1) xy = x (x - s^4)(x + s^2 - 6 s^3)
    return {"a1": poly([1, -6, 1]), "a2": poly([0, 0, 1, -6, -1]),
            "a3": poly([]), "a4": poly([0, 0, 0, 0, 0, 0, -1, 6]),
            "a6": poly([])}


def _psigma_denominator_core() -> Poly:
    return _lin(-9) * poly([72, -21, 1]) * poly([18, -15, 1])


def build_psigma() -> dict:
    s = _sigma()
    dcore = _psigma_denominator_core()
    x_num = 3888 * s * _lin(-18) * _lin(-21) ** 2 * _lin(3) ** 2
    x = RatFunc(x_num, dcore ** 2)
    f2 = Poly([QuadElem(45, -27), QuadElem(-18, 3), QuadElem(1)])
    f3 = Poly([QuadElem(-81, 99), QuadElem(171, -54), QuadElem(-27, 3), QuadElem(1)])
    f5 = Poly([QuadElem(5832, -5832), QuadElem(-22518, -5832), QuadElem(729, 4212),
               QuadElem(513, -432), QuadElem(-45, 12), QuadElem(1)])
    y_num = Poly([QuadElem(0, 36)]) * s * _lin(-21) * _lin(-18) * _lin(3) * f2 * f3 * f5
    y = RatFunc(y_num, dcore ** 3)
    return {"x": x, "y": y}


def build_pminus3() -> dict:
    s = _sigma()
    dcore = _psigma_denominator_core()
    x = RatFunc(-11664 * s * _lin(-18) * _lin(-21) ** 2 * _lin(3) ** 2, dcore ** 2)
    big = poly([128490624, 132322248, -545848956, 281168010, -44001711,
                -294840, 771363, -87822, 4455, -108, 1])
    y = RatFunc(-324 * s * _lin(-18) * _lin(-21) * _lin(3) * big, dcore ** 3)
    return {"x": x, "y": y}


def build_k3_infinite_section() -> dict:
    x = -(_lin(-3) * _lin(-1) ** 2)
    y = _lin(-3) * _lin(-2) * _lin(-1) * poly([1, -3, 1])
    return {"x": RatFunc(x), "y": RatFunc(y)}


def build_torsion_y3() -> dict:
    s = _sigma()
    s1 = poly([1, -3, 1])
    rho = s * _lin(-3)
    return {
        "m1.x": RatFunc(-rho), "m1.y": RatFunc(rho * s1),
        "m2.x": RatFunc(1), "m2.y": RatFunc(poly([-1, 3, -1])),
        "m3.x": RatFunc(0), "m3.y": RatFunc(0),
        "m4.x": RatFunc(1), "m4.y": RatFunc(0),
        "m5.x": RatFunc(poly([0, 3, -1])), "m5.y": RatFunc(0),
    }


def build_torsion_y18() -> dict:
    s = _sigma()
    s1 = poly([1, -18, 1])
    rho = s * _lin(-18)
    return {
        "m1.x": RatFunc(-rho), "m1.y": RatFunc(rho * s1),
        "m2.x": RatFunc(1), "m2.y": RatFunc(poly([-1, 18, -1])),
        "m3.x": RatFunc(0), "m3.y": RatFunc(0),
        "m4.x": RatFunc(1), "m4.y": RatFunc(0),
        "m5.x": RatFunc(poly([0, 18, -1])), "m5.y": RatFunc(0),
    }


def build_halving_data() -> dict:
    dcore = _psigma_denominator_core()
    tp = _lin(-21) * _lin(3)
    xprime = RatFunc(-(dcore ** 2), 3888 * tp ** 2)
    r = RatFunc(dcore, Poly([QuadElem(0, 36)]) * tp)
    yprime_num = (Poly([QuadElem(0, 1)]) * dcore
                  * poly([1350, -171, -12, 1])
                  * poly([-216, 369, -42, 1])
                  * poly([-486, -486, 351, -36, 1]))
    yprime = RatFunc(yprime_num, 419904 * tp ** 3)
    qplus = RatFunc(-(tp ** 2) * poly([9, -18, 1]), 972)
    qminus = RatFunc(-243 * poly([1, -18, 1]) ** 3, tp ** 2)
    bform_a = RatFunc(poly([-3, -108, 330, -36, 1]), 4)
    bform_b = RatFunc(poly([0, 18, -1]))
    return {"xprime": xprime, "yprime": yprime, "qplus": qplus,
            "qminus": qminus, "r": r, "bform_a": bform_a, "bform_b": bform_b}


def build_neron_es_model() -> dict:
    return {
        "a1": poly([1, -20, 1]),
        "a2": poly([0, 1, -18, -17, -1, 0, 6]),
        "a3": poly([0, 0, 0, 0, 0, 0, 0, -40, 2]),
        "a4": poly([0, 0, 0, 0, 0, 0, 0, 2, -71, -68, -4, 0, 12]),
        "a6": poly([0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, -1, 0, -70, -68, -4, 0, 8]),
    }


def build_neron_esigma_model() -> dict:
    return {
        "a1": poly([9, -54, 3]),
        "a2": poly([-27, 324]),
        "a3": poly([0, 0, -5832, 324]),
        "a4": poly([0, 0, 8667, 1458]),
        "a6": poly([0, 0, 78732, -1583388, 157464]),
    }


def build_beauville_quadric_psigma() -> dict:
    # (XY+XZ+YZ)/Z^2 on the infinite section, in the Z-normalized chart
    s = _sigma()
    dcore = _psigma_denominator_core()
    num = -3888 * _lin(-18) * s * _lin(-21) ** 2 * _lin(3) ** 2
    return {"value": RatFunc(num, dcore ** 2)}


_FIXTURE_BUILDERS = {
    "curve_y18.txt": build_y18_curve,
    "curve_y18_schart.txt": build_y18_schart_curve,
    "curve_y18_twist_m3.txt": build_y18_twist_curve,
    "curve_y3.txt": build_y3_curve,
    "curve_y6.txt": build_y6_curve,
    "section_psigma.txt": build_psigma,
    "section_pminus3.txt": build_pminus3,
    "section_k3_infinite.txt": build_k3_infinite_section,
    "torsion_y3.txt": build_torsion_y3,
    "torsion_y18.txt": build_torsion_y18,
    "halving_k18.txt": build_halving_data,
    "neron_es_model.txt": build_neron_es_model,
    "neron_esigma_model.txt": build_neron_esigma_model,
    "beauville_quadric_psigma.txt": build_beauville_quadric_psigma,
}


def fixture_names() -> list[str]:
    return sorted(_FIXTURE_BUILDERS)


# ---------------------------------------------------------------------------
# Public loaders
# ---------------------------------------------------------------------------

def _curve_from(name: str) -> FunctionFieldCurve:
    entries = _checked(name, _FIXTURE_BUILDERS[name]())
    return FunctionFieldCurve.from_coeffs(*(entries[k] for k in
                                            ("a1", "a2", "a3", "a4", "a6")))


@lru_cache(maxsize=None)
def y18_curve() -> FunctionFieldCurve:
    return _curve_from("curve_y18.txt")


@lru_cache(maxsize=None)
def y18_schart_curve() -> FunctionFieldCurve:
    return _curve_from("curve_y18_schart.txt")


@lru_cache(maxsize=None)
def y18_twist_curve() -> FunctionFieldCurve:
    return _curve_from("curve_y18_twist_m3.txt")


@lru_cache(maxsize=None)
def y3_curve() -> FunctionFieldCurve:
    return _curve_from("curve_y3.txt")


@lru_cache(maxsize=None)
def y6_curve() -> FunctionFieldCurve:
    return _curve_from("curve_y6.txt")


@lru_cache(maxsize=None)
def neron_es_model() -> FunctionFieldCurve:
    return _curve_from("neron_es_model.txt")


@lru_cache(maxsize=None)
def neron_esigma_model() -> FunctionFieldCurve:
    return _curve_from("neron_esigma_model.txt")


def _section_from(name: str) -> SectionPoint:
    entries = _checked(name, _FIXTURE_BUILDERS[name]())
    return SectionPoint(_ratfunc(entries, "x"), _ratfunc(entries, "y"))


@lru_cache(maxsize=None)
def infinite_section_k18() -> SectionPoint:
    """The infinite section of the k=18 surface, defined over Q(sqrt(-3))."""
    return _section_from("section_psigma.txt")


@lru_cache(maxsize=None)
def twist_section() -> SectionPoint:
    """The rational section of the twisted-by--3 curve."""
    return _section_from("section_pminus3.txt")


@lru_cache(maxsize=None)
def infinite_section_k3() -> SectionPoint:
    return _section_from("section_k3_infinite.txt")


def _torsion_from(name: str) -> list[SectionPoint]:
    entries = _checked(name, _FIXTURE_BUILDERS[name]())
    return [SectionPoint(_ratfunc(entries, f"m{i}.x"), _ratfunc(entries, f"m{i}.y"))
            for i in range(1, 6)]


@lru_cache(maxsize=None)
def torsion_multiples_k3() -> list[SectionPoint]:
    """[rho6, 2*rho6, ..., 5*rho6] on the k=3 model, as displayed."""
    return _torsion_from("torsion_y3.txt")


@lru_cache(maxsize=None)
def torsion_multiples_k18() -> list[SectionPoint]:
    return _torsion_from("torsion_y18.txt")


@lru_cache(maxsize=None)
def halving_data() -> dict[str, RatFunc]:
    entries = _checked("halving_k18.txt", build_halving_data())
    return {k: _ratfunc(entries, k) for k in
            ("xprime", "yprime", "qplus", "qminus", "r", "bform_a", "bform_b")}


@lru_cache(maxsize=None)
def beauville_quadric_psigma() -> RatFunc:
    entries = _checked("beauville_quadric_psigma.txt", build_beauville_quadric_psigma())
    return _ratfunc(entries, "value")


def y6_torsion_point() -> SectionPoint:
    """The order-6 point (s^2 (6s - 1), 0) of the k=6 model."""
    return SectionPoint.affine(Poly([0, 0, -1, 6]), Poly([]))
