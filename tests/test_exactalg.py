"""Exact-arithmetic foundation: field axioms, polynomial structure, places,
valuations, square tests, and sound mod-p witnesses for non-squares; the
constants of the integer carrier (square roots, values, images mod p, the
places over a quadratic) against the Fraction field of quadfield.py; and the
tests' reference arithmetic in lowest terms (ratfunc.py): its gcd, square
roots and rational functions."""

import random
from fractions import Fraction

import pytest

import ratfunc
from k3mahler import exactalg
from k3mahler import mwsections as mw
from k3mahler.exactalg import Place, Poly, reduce_mod_p
from k3mahler.surfaces import SURFACES
from grouplaw import psigma
from quadfield import (ZERO, QuadElem, coeffs, horner, is_square_quad, poly, reduce_fraction,
                       split_rule)
from ratfunc import RatFunc, poly_gcd, poly_sqrt, reverse, valuation
from test_mwsections import nonsquare_witness, replay_nonsquare

ONE = QuadElem(1)
SQRT_M3 = QuadElem(0, 1)  # sqrt(-3)
SIGMA = Poly([0, 1])
NINE = Place(Poly([-9, 1]))  # the place sigma = 9


def conj(x: QuadElem) -> QuadElem:
    """a - b sqrt(-3) for x = a + b sqrt(-3)."""
    return QuadElem(x.a, -x.b)


def rand_quad(rng, span=9):
    return QuadElem(Fraction(rng.randint(-span, span), rng.randint(1, 4)),
                    Fraction(rng.randint(-span, span), rng.randint(1, 4)))


def rand_poly(rng, deg, span=6):
    while True:
        p = poly([rand_quad(rng, span) for _ in range(deg + 1)])
        if not p.is_zero():
            return p


# -- Fraction-coefficient oracles for the integer kernels -------------------
# Coefficientwise QuadElem arithmetic, as exactalg computed before it stored
# integer numerators over a common denominator.

def frac_mul(f: Poly, g: Poly) -> Poly:
    """Schoolbook product on QuadElem coefficients."""
    if f.is_zero() or g.is_zero():
        return Poly()
    fs, gs = coeffs(f), coeffs(g)
    out = [ZERO] * (len(fs) + len(gs) - 1)
    for i, ci in enumerate(fs):
        if ci.is_zero():
            continue
        for j, cj in enumerate(gs):
            out[i + j] = out[i + j] + ci * cj
    return poly(out)


def frac_divmod(f: Poly, g: Poly) -> tuple[Poly, Poly]:
    """Long division by the inverse of lc(g) in the field."""
    if g.is_zero():
        raise ZeroDivisionError("polynomial division by zero")
    rem, gs = list(coeffs(f)), coeffs(g)
    dq = len(rem) - len(gs)
    if dq < 0:
        return Poly(), f
    inv_lc = gs[-1].inv()
    quot = [ZERO] * (dq + 1)
    for i in range(dq, -1, -1):
        c = rem[i + g.degree()] * inv_lc
        quot[i] = c
        if not c.is_zero():
            for j, gc in enumerate(gs):
                rem[i + j] = rem[i + j] - c * gc
    return poly(quot), poly(rem)


def frac_pseudo_rem(a: Poly, b: Poly) -> Poly:
    """prem(a, b) = lc(b)^(deg a - deg b + 1) * a mod b, division-free, on
    QuadElem lists; the one Poly is built from the result."""
    bs = coeffs(b)
    db, lcb = len(bs) - 1, bs[-1]
    rs = list(coeffs(a))
    n = len(rs) - db
    while len(rs) > db:
        shift, lcr = len(rs) - 1 - db, rs[-1]
        rs = [lcb * c for c in rs]
        for j, c in enumerate(bs):
            rs[shift + j] = rs[shift + j] - lcr * c
        while rs and rs[-1].is_zero():
            rs.pop()
        n -= 1
    if n > 0:
        s = lcb ** n
        rs = [s * c for c in rs]
    return poly(rs)


def frac_gcd(f: Poly, g: Poly) -> Poly:
    """Monic gcd by Euclid's algorithm on the Fraction oracles."""
    while not g.is_zero():
        f, g = g, frac_divmod(f, g)[1]
    if f.is_zero():
        return f
    inv_lc = coeffs(f)[-1].inv()
    return poly([c * inv_lc for c in coeffs(f)])


# denominators: units, small primes and prime powers, a 61-bit prime
KERNEL_DENS = (1, 1, 1, 2, 3, 4, 9, 12, 2 ** 61 - 1)


def rand_kernel_coeff(rng, bits, kind):
    """A coefficient of the given kind (zero / rational / pure sqrt(-3) /
    mixed) with numerators of up to bits + 64 bits."""
    def q():
        num = rng.getrandbits(rng.choice((1, 8, 64, bits, bits + 64)))
        den = rng.choice(KERNEL_DENS + (rng.getrandbits(64) | 1,))
        return Fraction(rng.choice((1, -1)) * num, den)
    if kind == "zero":
        return ZERO
    if kind == "rational":
        return QuadElem(q())
    if kind == "sqrt":
        return QuadElem(0, q())
    return QuadElem(q(), q())


def rand_kernel_poly(rng, deg, bits):
    """A polynomial of degree deg (-1: zero) whose coefficients are all
    rational, all pure sqrt(-3), or mixed, with zero interior coefficients."""
    if deg < 0:
        return Poly()
    shape = rng.choice(("rational", "sqrt", "mixed", "mixed"))
    kinds = ("zero", "rational", "sqrt", "mixed") if shape == "mixed" else (shape,)
    cs = [rand_kernel_coeff(rng, bits, "zero" if rng.random() < 0.2
                            else rng.choice(kinds)) for _ in range(deg)]
    lead = ZERO
    while lead.is_zero():
        lead = rand_kernel_coeff(rng, bits, rng.choice(kinds))
    return poly(cs + [lead])


def check_kernels(cases: int, max_deg: int, bits: int, seed: int,
                  gcd_deg: int = 3) -> dict:
    """Compare the integer kernels with the Fraction oracles on seeded random
    cases.  Each case draws f and g of degree up to max_deg (a third of them
    up to max_deg, the rest lower; -1 is the zero polynomial) and checks
    f * g, divmod(f, g) and the pseudo-remainder of the higher by the lower
    degree; then the gcd of h u and h v with h, u, v of degree up to gcd_deg.
    The remainder sequences of a gcd grow by about the input size per step,
    for the oracle as well, which is why gcd_deg is separate.  Each case also
    runs `check_scalar_case` on a stream of its own.  Returns counts of what
    was compared."""
    rng = random.Random(seed)
    seen = {"products": 0, "divmods": 0, "prems": 0, "gcds": 0,
            "nontrivial_gcds": 0, **dict.fromkeys(SCALAR_COUNTS, 0)}
    srng = random.Random(f"scalars {seed}")
    for _ in range(cases):
        check_scalar_case(srng, bits, seen)
        f, g = (rand_kernel_poly(rng, rng.randint(-1, rng.choice(
            (2, max_deg // 4, max_deg))), bits) for _ in range(2))
        assert f * g == frac_mul(f, g), (f, g)
        seen["products"] += 1
        if g.is_zero():
            continue
        assert divmod(f, g) == frac_divmod(f, g), (f, g)
        seen["divmods"] += 1
        a, b = (f, g) if f.degree() >= g.degree() else (g, f)
        if not b.is_zero():
            assert ratfunc._pseudo_rem(a, b) == frac_pseudo_rem(a, b), (a, b)
            seen["prems"] += 1
        h, u, v = (rand_kernel_poly(rng, rng.randint(0, gcd_deg), bits)
                   for _ in range(3))
        d = poly_gcd(h * u, h * v)
        assert d == frac_gcd(h * u, h * v), (h, u, v)
        seen["gcds"] += 1
        seen["nontrivial_gcds"] += d.degree() > 0
    return seen


# -- the constants of the integer carrier against quadfield.py ---------------

# (p, w) with w^2 = -3 mod p: p = 3 ramifies (w = 0), the others split
SCALAR_PRIMES = ((3, 0), (7, 2), (13, 6), (19, 4))
# denominators that the primes above divide, and a 61-bit prime
SCALAR_DENS = (1, 1, 2, 3, 7, 13, 19, 21, 2 ** 61 - 1)
SCALAR_COUNTS = ("square_tests", "squares", "places", "split_quadratics",
                 "values", "quotients", "none_images", "poles")


def rand_scalar(rng, bits) -> QuadElem:
    """Zero, rational, pure sqrt(-3) or mixed, numerators of up to bits bits."""
    def q():
        return Fraction(rng.choice((1, -1)) * rng.getrandbits(rng.choice((1, 4, bits))),
                        rng.choice(SCALAR_DENS))
    kind = rng.randrange(8)
    return ZERO if kind == 0 else QuadElem(q()) if kind < 3 \
        else QuadElem(0, q()) if kind < 5 else QuadElem(q(), q())


def square_root(x: QuadElem):
    """The root exactalg._is_square gives for x, as a QuadElem, or None: x den^2
    = (re + im w) den is the algebraic integer it is handed, so its root
    (U + V w)/2 is den times that of x."""
    c = poly([x])
    (re,), (im,) = c._re or (0,), c._im or (0,)
    root = exactalg._is_square(re * c._den, im * c._den)
    return root and QuadElem(Fraction(root[0], 2 * c._den), Fraction(root[1], 2 * c._den))


def check_scalar_case(rng, bits: int, seen: dict) -> None:
    """One seeded case of each scalar job of the integer carrier, against the
    Fraction field of quadfield.py, counted into seen:

    * `_is_square` on x, x^2 and -3 x^2 for a random x: the same verdict and
      canonical root (first nonzero part positive) as `is_square_quad`;
    * `Place.over` on a line, a split quadratic, a square, or a random
      quadratic, times a random nonzero constant: the places of `split_rule`,
      in its order;
    * `Poly.at`, `reduce_mod_p` and the quotient `PolyRatio.at` at an integer t
      and one of SCALAR_PRIMES: Horner's rule on QuadElems, the Fraction
      reduction (None images included) and their quotient; a denominator with
      the factor sigma - t a quarter of the time, so that some t are poles.
    """
    x = rand_scalar(rng, bits)
    for c in (x, x * x, -3 * x * x):
        ok, w = is_square_quad(c)
        assert square_root(c) == w, c
        seen["square_tests"] += 1
        seen["squares"] += ok

    r1, r2, u = (rand_scalar(rng, bits) for _ in range(3))
    kind = rng.randrange(4)
    f = poly([-r1, 1]) if kind == 0 else poly([r1 * r2, -r1 - r2, 1]) if kind == 1 \
        else poly([r1 * r1, -2 * r1, 1]) if kind == 2 else poly([r1, r2, 1])
    f = f * poly([u if u else ONE])
    places = Place.over(f)
    assert [pl.poly for pl in places] == split_rule(f), f
    seen["places"] += 1
    seen["split_quadratics"] += len(places) == 2

    f, g = (poly([rand_scalar(rng, bits) for _ in range(rng.randint(0, 4))]) for _ in range(2))
    t = rng.randint(-9, 9)
    if rng.random() < 0.25 or g.is_zero():
        g = (g + poly([rand_scalar(rng, bits)])) * Poly([-t, 1])
    p, w = rng.choice(SCALAR_PRIMES)
    fv, gv = horner(f, t), horner(g, t)
    assert f.at(t) == poly([fv]) and g.at(t) == poly([gv]), (f, g, t)
    assert reduce_mod_p(f.at(t), p, w) == reduce_fraction(fv, p, w), (f, t, p)
    seen["values"] += 1
    try:
        q = mw.PolyRatio(f, g).at(t)
    except ZeroDivisionError:
        assert gv.is_zero(), (f, g, t)
        seen["poles"] += 1
        return
    assert not gv.is_zero() and q == poly([fv / gv]), (f, g, t)
    image = reduce_mod_p(q, p, w)
    assert image == reduce_fraction(fv / gv, p, w), (f, g, t, p)
    seen["quotients"] += 1
    seen["none_images"] += image is None


def check_scalars(cases: int, bits: int, seed: int) -> dict:
    """`check_scalar_case` on `cases` seeded cases; the counts."""
    rng, seen = random.Random(seed), dict.fromkeys(SCALAR_COUNTS, 0)
    for _ in range(cases):
        check_scalar_case(rng, bits, seen)
    return seen


def derivative(f: Poly) -> Poly:
    return poly([i * c for i, c in enumerate(coeffs(f))][1:])


def yun_decomposition(f: Poly) -> list[tuple[Poly, int]]:
    """Yun's square-free decomposition: f = lc * prod a_i^i with a_i monic,
    square-free and pairwise coprime.  Returns [(a_i, i)] for nonconstant a_i.

    The oracle for poly_sqrt (Yun, SYMSAC 1976): a chain of gcds that finds
    every multiplicity, where poly_sqrt only needs "is this a square?".
    """
    if f.is_zero():
        raise ValueError("decomposition of the zero polynomial")
    f = f.monic()
    out: list[tuple[Poly, int]] = []
    if f.degree() <= 0:
        return out
    df = derivative(f)
    a = poly_gcd(f, df)
    b = f // a
    c = df // a
    i = 1
    while b.degree() > 0:
        d = c - derivative(b)
        a_i = poly_gcd(b, d)
        if a_i.degree() > 0:
            out.append((a_i, i))
        b = b // a_i
        c = d // a_i
        i += 1
    return out


def odd_multiplicity_part(f: Poly) -> Poly:
    """Monic product of the irreducible factors of f with odd multiplicity.

    f is a square times a constant iff this equals 1.
    """
    out = Poly([1])
    for a_i, i in yun_decomposition(f):
        if i % 2 == 1:
            out = out * a_i
    return out


def yun_sqrt(f: Poly):
    """The square root of f read off its Yun decomposition, or None."""
    ok, w = is_square_quad(coeffs(f)[-1])
    if not ok:
        return None
    g = poly([w])
    for a_i, i in yun_decomposition(f):
        if i % 2 == 1:
            return None
        g = g * a_i ** (i // 2)
    return g


class TestQuadElem:
    def test_norm_example(self):
        assert QuadElem(1, 1).norm() == 4

    def test_conj_involution(self):
        # and a field automorphism, fixing Q: the norm x conj(x) below is rational
        rng = random.Random(1)
        for _ in range(50):
            x, y = rand_quad(rng), rand_quad(rng)
            assert conj(conj(x)) == x
            assert conj(x * y) == conj(x) * conj(y) and conj(x + y) == conj(x) + conj(y)

    def test_inv_rational_embedding(self):
        assert QuadElem(2).inv() == QuadElem(Fraction(1, 2))

    def test_inv_zero_raises(self):
        with pytest.raises(ZeroDivisionError):
            QuadElem(0).inv()

    def test_field_axioms_randomized(self):
        rng = random.Random(7)
        for _ in range(200):
            x, y, z = (rand_quad(rng) for _ in range(3))
            assert (x + y) + z == x + (y + z)
            assert (x * y) * z == x * (y * z)
            assert x * (y + z) == x * y + x * z
            assert x + y == y + x and x * y == y * x
            if not x.is_zero():
                assert x * x.inv() == ONE
            assert x * conj(x) == QuadElem(x.norm())

    def test_norm_positive_definite(self):
        rng = random.Random(3)
        for _ in range(100):
            x = rand_quad(rng)
            assert x.norm() >= 0
            assert (x.norm() == 0) == x.is_zero()


class TestSquarenessInField:
    def test_examples(self):
        ok, w = is_square_quad(QuadElem(Fraction(-1, 3)))
        assert ok and w * w == QuadElem(Fraction(-1, 3))
        assert w in (SQRT_M3 * Fraction(1, 3), -SQRT_M3 * Fraction(1, 3))
        ok, w = is_square_quad(QuadElem(-3))
        assert ok and w * w == QuadElem(-3)
        assert not is_square_quad(QuadElem(2))[0]

    def test_random_squares_have_witnesses(self):
        rng = random.Random(11)
        for _ in range(100):
            x = rand_quad(rng)
            ok, w = is_square_quad(x * x)
            assert ok and w * w == x * x


class TestPoly:
    def test_coefficients_are_ints_fractions_or_pairs(self):
        half = Fraction(1, 2)
        assert Poly([(1, half), half, 2]) == Poly([1, 0, 0]) + Poly([(0, half), half, 2])
        assert Poly.coerce((3, -1)) == Poly([(3, -1)]) and Poly.coerce(half) == Poly([half])
        # a float or a QuadElem is refused by the one rule, in each entry point
        for bad in (1.5, (1, 0.5), (1, 2, 3), ONE):
            for make in (lambda v: Poly([v]), Poly.coerce):
                with pytest.raises(TypeError, match="Poly coefficient"):
                    make(bad)
        assert SIGMA.__add__(1.5) is NotImplemented and SIGMA.__mul__(ONE) is NotImplemented
        with pytest.raises(TypeError):
            SIGMA * 1.5

    def test_divmod_roundtrip(self):
        rng = random.Random(5)
        for _ in range(40):
            f = rand_poly(rng, rng.randint(0, 6))
            g = rand_poly(rng, rng.randint(0, 4))
            q, r = divmod(f, g)
            assert q * g + r == f
            assert r.is_zero() or r.degree() < g.degree()

    def test_gcd_common_factor(self):
        rng = random.Random(6)
        for _ in range(25):
            h = rand_poly(rng, rng.randint(1, 3))
            f = rand_poly(rng, rng.randint(0, 3)) * h
            g = rand_poly(rng, rng.randint(0, 3)) * h
            d = poly_gcd(f, g)
            assert (d % h.monic()).is_zero() or (h.monic() % d).is_zero()
            assert (f % d).is_zero() and (g % d).is_zero()

    def test_gcd_of_reversed_section_coordinates(self):
        # regression: coprime degree-15 pairs with algebraic-integer content
        # blew up the naive remainder sequence; must stay cheap and return 1
        y = psigma().y
        m = max(y.num.degree(), y.den.degree())
        assert poly_gcd(reverse(y.num, m), reverse(y.den, m)) == Poly([1])

    def test_gcd_with_multiplicities(self):
        rng = random.Random(41)
        for _ in range(10):
            h = rand_poly(rng, 2).monic()
            f = h ** 3 * rand_poly(rng, 1)
            g = h ** 2 * rand_poly(rng, 2)
            d = poly_gcd(f, g)
            assert (d % h ** 2).is_zero() or poly_gcd(d, h ** 2) == h ** 2

    def test_yun_reconstructs(self):
        rng = random.Random(9)
        for _ in range(20):
            f = rand_poly(rng, 2).monic() * rand_poly(rng, 1).monic() ** 2
            parts = yun_decomposition(f)
            rebuilt = Poly([1])
            for a, i in parts:
                rebuilt = rebuilt * a ** i
            assert rebuilt == f.monic()

    def test_odd_multiplicity_part(self):
        a, b = Poly([1, 1]), Poly([2, 0, 1])
        assert odd_multiplicity_part(a ** 2 * b) == b.monic()
        assert odd_multiplicity_part(a ** 2 * b ** 4).degree() == 0


class TestIntegerKernels:
    def test_against_fraction_oracles(self):
        seen = check_kernels(300, 12, 256, seed=2026)
        assert seen["products"] == 300
        assert min(seen[c] for c in SCALAR_COUNTS) > 20, seen
        assert min(seen["divmods"], seen["prems"], seen["gcds"]) > 200
        # both branches of poly_gcd: a common factor, and the mod-p certificate
        assert 100 < seen["nontrivial_gcds"] < seen["gcds"] - 20, seen

    def test_slot_straddling_unpack(self):
        # a -1 below a slot holding the extreme +-(2^(8 nb - 1) - 1): the
        # two's complement bytes borrow from the slot above, and unpacking
        # must carry it back
        for nb in (1, 2, 8, 40):
            top = (1 << (8 * nb - 1)) - 1
            for cs in ([-1, top, -1, -top, 0, -1, 1, 0, -top],
                       [top, -1, -top, -top, 1, -1],
                       [-1] * 5, [-top, 0, 0, top]):
                assert exactalg._unpack(exactalg._pack(cs, nb), len(cs), nb) == cs

    def test_product_at_the_slot_bound(self):
        # f = -1 + K(1 + w) s, g = 1 + (1 - w) s: the s^2 coefficient is
        # K (1 + w)(1 - w) = 4K, half the proven bound 4 * 2 * K * 1, next to
        # -1 and K - 1 (+ (K + 1) w).  For K = 2^j - 1 the slot has j + 4 bits
        # rounded up to bytes: with j = 4 mod 8, 4K fills the bit below the sign
        w = SQRT_M3
        for j in (4, 5, 12, 13, 60, 61, 252, 253):
            K = (1 << j) - 1
            f = poly([-1, K * (1 + w)])
            g = poly([1, 1 - w])
            assert f * g == frac_mul(f, g) == poly([-1, K - 1 + (K + 1) * w, 4 * K])
            assert (-f) * g == poly([1, -(K - 1) - (K + 1) * w, -4 * K])

    def test_canonical_form(self):
        half = Poly([Fraction(1, 2)])
        same = [Poly([Fraction(2, 4)]), poly([QuadElem(Fraction(1, 2))]),
                Poly([(Fraction(1, 2), 0)]), Poly([(Fraction(3, 6), Fraction(0, 5))]),
                Poly([Fraction(3, 4)]) * Poly([Fraction(2, 3)]),
                poly([QuadElem(Fraction(1, 6), 1)]) * Poly([3])
                - poly([QuadElem(0, 3)]),
                Poly([(Fraction(1, 6), 1)]) * Poly([3]) - Poly([(0, 3)]),
                Poly([Fraction(1, 2), 5]) - Poly([0, 5])]
        for p in same:
            assert p == half and hash(p) == hash(half), p
        # a Kronecker product whose common denominator 6 * 2 cancels to 2
        q = Poly([Fraction(1, 6), Fraction(1, 6)]) * Poly([3, -3])
        want = Poly([Fraction(1, 2), 0, Fraction(-1, 2)])
        assert q == want and hash(q) == hash(want)
        assert q * 2 == Poly([1, 0, -1])
        # zero has one form, whatever it came from
        zero = poly([Fraction(1, 3), QuadElem(0, Fraction(2, 9))])
        for z in (zero - zero, Poly([0, 0]), Poly([Fraction(0, 7)]), zero * 0):
            assert z == Poly() and hash(z) == hash(Poly()) and z.degree() == -1


class TestScalars:
    """The constants of the integer carrier against the Fraction field."""

    def test_square_roots(self):
        w = SQRT_M3
        for x, root in ((QuadElem(Fraction(-1, 3)), w / 3), (QuadElem(-3), w),
                        (QuadElem(4), QuadElem(2)), ((1 + w) ** 2, 1 + w),
                        ((1 - w) ** 2, 1 - w), ((1 - w) ** 2 / 4, (1 - w) / 2),
                        (ZERO, ZERO)):
            assert square_root(x) == root and root * root == x, x
            assert is_square_quad(x) == (True, root), x
        for x in (QuadElem(2), QuadElem(-1), w, 1 + w, QuadElem(Fraction(1, 3))):
            assert square_root(x) is None and not is_square_quad(x)[0], x

    def test_k3_split_places(self):
        # sigma^2 - 3 sigma + 9 splits at sigma = (3 +- 3 sqrt(-3))/2, the
        # +sqrt(disc) root first: the places of k = 3's alpha2 and beta2
        half = Fraction(3, 2)
        want = [Place(Poly([(-half, -half), 1])), Place(Poly([(-half, half), 1]))]
        assert Place.over(Poly([9, -3, 1])) == want
        assert [pl.poly for pl in want] == split_rule(Poly([9, -3, 1]))
        alpha2, beta2 = mw._fiber_places(3, SURFACES[3].fibers)[-2:]
        assert [alpha2, beta2] == want

    def test_at_and_quotient_poles(self):
        f, g = Poly([1, (0, 1)]), Poly([-2, 1]) * Poly([Fraction(1, 7)])
        assert f.at(2) == poly([1 + 2 * SQRT_M3]) and g.at(9) == Poly([1])
        assert mw.PolyRatio(f, g).at(9) == poly([1 + 9 * SQRT_M3])
        assert Poly().at(5) == Poly() and mw.PolyRatio(Poly(), g).at(0) == Poly()
        with pytest.raises(ZeroDivisionError):
            mw.PolyRatio(f, g).at(2)
        # 1/7 has no image mod 7; (1 + sqrt(-3))/2 reduces with sqrt(-3) -> 2
        assert reduce_mod_p(Poly([Fraction(1, 7)]), 7, 2) is None
        assert reduce_mod_p(poly([(1 + SQRT_M3) / 2]), 7, 2) == 5
        assert reduce_mod_p(Poly(), 7, 2) == 0

    def test_against_quadfield_oracle(self):
        seen = check_scalars(400, 128, seed=30)
        assert seen["square_tests"] == 1200 and seen["places"] == seen["values"] == 400
        assert min(seen[c] for c in SCALAR_COUNTS) > 40, seen


class TestPolySqrt:
    def test_odd_degree(self):
        sigma = SIGMA
        assert poly_sqrt(sigma ** 3) is None
        assert poly_sqrt(sigma * (sigma + 1) ** 2) is None

    def test_leading_coefficient(self):
        sigma2 = SIGMA ** 2
        assert poly_sqrt(sigma2 * 2) is None
        g = poly_sqrt(sigma2 * -3)   # -3 = sqrt(-3)^2 in the field
        assert g == SIGMA * poly([SQRT_M3]) and g * g == sigma2 * -3

    def test_top_half_alone_is_no_proof(self):
        # the top half is that of (sigma^2 + sigma + 1)^2, the constant is not
        h = Poly([1, 1, 1])
        f = h * h + 1
        assert f.degree() == 4 and coeffs(f)[2:] == coeffs(h * h)[2:]
        assert poly_sqrt(f) is None
        assert poly_sqrt(h * h) == h

    def test_agrees_with_yun_oracle(self):
        rng = random.Random(31)
        sigma = SIGMA
        squares = 0
        for case in range(240):
            g = rand_poly(rng, rng.randint(0, 3))
            kind = case % 4
            if kind == 0:
                f = g * g
            elif kind == 1:
                f = g * g * sigma ** rng.randint(1, 3)
            elif kind == 2:
                f = g * g * 2
            else:  # repeated factors, odd or even multiplicity
                a, b = rand_poly(rng, 1), rand_poly(rng, rng.randint(1, 2))
                c = rand_poly(rng, 0) ** rng.randint(1, 2)
                f = a ** rng.randint(1, 4) * b ** rng.choice((2, 3)) * c
            want = yun_sqrt(f)
            got = poly_sqrt(f)
            assert got == want, f
            if got is not None:
                squares += 1
                assert got * got == f
        # both answers are well represented
        assert 70 < squares < 170, squares


class TestRatFunc:
    def test_canonical_reconstruction(self):
        rng = random.Random(13)
        for _ in range(30):
            f = RatFunc(rand_poly(rng, rng.randint(0, 4)),
                        rand_poly(rng, rng.randint(0, 4)))
            h = rand_poly(rng, rng.randint(1, 3))
            again = RatFunc(f.num * h, f.den * h)
            assert again.num == f.num and again.den == f.den

    def test_field_identities(self):
        rng = random.Random(17)
        for _ in range(20):
            f = RatFunc(rand_poly(rng, 2), rand_poly(rng, 2))
            g = RatFunc(rand_poly(rng, 2), rand_poly(rng, 2))
            assert f + g - g == f
            if not g.is_zero():
                assert (f / g) * g == f


class TestPlacesAndValuation:
    def test_reducible_quadratic_rejected(self):
        # sigma^2 + 3 = (sigma - sqrt(-3))(sigma + sqrt(-3)) over the field:
        # two places, one per root, and no place of a pole factor
        assert Place.over(Poly([3, 0, 1])) == [Place(Poly([(0, -1), 1])),
                                               Place(Poly([(0, 1), 1]))]
        with pytest.raises(ValueError, match="reducible"):
            mw._pole_place((3, 0, 1))
        # disc 153 is not a square: the place of the monic polynomial itself
        assert Place.over(Poly([144, -42, 2])) == [Place(Poly([72, -21, 1]))]
        assert mw._pole_place((72, -21, 1)) == Place(Poly([72, -21, 1]))

    def test_high_degree_needs_flag(self):
        for f in (Poly([1, 0, 0, 1]), Poly([5]), Poly()):
            with pytest.raises(ValueError):
                Place.over(f)

    def test_printed_section_valuations(self):
        x = RatFunc(*psigma().x)
        assert valuation(x, NINE) == -2
        assert valuation(x, Place.infinity()) == 4
        assert valuation(RatFunc(1), NINE) == 0
        assert valuation(RatFunc(1), Place.infinity()) == 0

    def test_valuation_zero_raises(self):
        with pytest.raises(ValueError):
            valuation(RatFunc(0), Place.infinity())

    def test_valuation_additive(self):
        rng = random.Random(19)
        places = [Place(SIGMA), NINE, Place(Poly([2, 1])),
                  *Place.over(Poly([72, -21, 1])), Place.infinity()]
        for _ in range(20):
            f = RatFunc(rand_poly(rng, 3), rand_poly(rng, 2))
            g = RatFunc(rand_poly(rng, 2), rand_poly(rng, 3))
            for v in places:
                assert valuation(f * g, v) == valuation(f, v) + valuation(g, v)

    def test_degree_formula(self):
        # sum over all places of val * deg vanishes; built from known factors
        rng = random.Random(23)
        factors = [Poly([0, 1]), Poly([-9, 1]), Poly([72, -21, 1]),
                   Poly([18, -15, 1])]
        for _ in range(20):
            exps = [rng.randint(-3, 3) for _ in factors]
            num, den = Poly([rng.randint(1, 5)]), Poly([1])
            for p, e in zip(factors, exps):
                if e > 0:
                    num = num * p ** e
                elif e < 0:
                    den = den * p ** (-e)
            f = RatFunc(num, den)
            total = sum(e * p.degree() for p, e in zip(factors, exps))
            assert valuation(f, Place.infinity()) * 1 + total == 0


class TestSquarenessInFunctionField:
    """A square of Q(sqrt(-3))(sigma) never gets a non-square witness."""

    def test_paper_cases(self, k18):
        hd = k18["halving"]
        assert nonsquare_witness(hd["xprime"]) is None
        for f in (k18["ps"].x, hd["qplus"], hd["qminus"]):
            assert replay_nonsquare(f, *nonsquare_witness(f))

    def test_square_and_twisted_square(self):
        rng = random.Random(29)
        sigma = RatFunc(SIGMA)
        for _ in range(20):
            f = RatFunc(rand_poly(rng, 2), rand_poly(rng, 2))
            assert nonsquare_witness(f * f) is None
            assert replay_nonsquare(sigma * f * f, *nonsquare_witness(sigma * f * f))

    def test_constant_class_matters(self):
        f = RatFunc(Poly([0, 0, 1]))  # sigma^2
        assert nonsquare_witness(f) is None
        # -3 is a square in the field, though a non-residue mod p = 2 mod 3
        assert nonsquare_witness(f * QuadElem(-3)) is None
        assert replay_nonsquare(f * 2, *nonsquare_witness(f * 2))
