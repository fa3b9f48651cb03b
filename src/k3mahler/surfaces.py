"""The per-k records of the K3 family, defined once.

``SURFACES`` holds one ``Surface`` record per k = 0, 3, 6, 18: every per-k
fact the other modules use; ``NEWFORM_AP`` holds the a_p table of the newform
of each surface's level; ``tau_table`` gives the CM point of each tabulated
k.  Data only, on ints: a rational is a (num, den) pair, so a request that
only reads the records imports no `fractions`, and the lattice algebra that
checks them lives in `lattices`, so such a request does not compile it.
"""

from __future__ import annotations

from collections import namedtuple


class TauRecord(namedtuple("TauRecord", "k A B C p q r")):
    """CM point data: tau = (A + sqrt(B))/C with B < 0, and the primitive
    (p, q, r) solving -6 p tau^2 + 12 q tau + r = 0."""

    __slots__ = ()

    def residual(self) -> tuple[int, int]:
        """(rational, sqrt(B)-coefficient) parts of C^2 (-6p tau^2 + 12q tau + r)."""
        A, B, C = self.A, self.B, self.C
        rat = -6 * self.p * (A * A + B) + 12 * self.q * A * C + self.r * C * C
        return rat, 12 * (self.q * C - self.p * A)


_TAU_TABLE = {
    0: TauRecord(0, -3, -3, 6, 2, -1, -4),
    2: TauRecord(2, -2, -2, 6, 3, -1, -3),
    3: TauRecord(3, -3, -15, 12, 4, -1, -4),
    6: TauRecord(6, 0, -6, 6, 1, 0, -1),
    10: TauRecord(10, 0, -2, 2, 1, 0, -3),
    18: TauRecord(18, 0, -30, 6, 1, 0, -5),
}


def tau_table(k: int) -> TauRecord:
    """Exact CM point and quadratic-relation data for the tabulated k."""
    try:
        return _TAU_TABLE[k]
    except KeyError:
        raise ValueError(f"k={k} is not a tabulated singular value") from None


class FiberEntry(namedtuple("FiberEntry", (
        "place",
        "m",            # component count of the I_m fiber
        "sigma",        # its polynomial in sigma, constant term first; None: sigma = inf
        "j",            # the component the surface's infinite section meets
))):
    __slots__ = ()

    def __new__(cls, place, m, sigma=None, j=None):
        if m < 1:
            raise ValueError("I_m fiber needs m >= 1")
        return super().__new__(cls, place, m, sigma, j)


class Surface(namedtuple("Surface", (
        "k",
        "d3_coeff",      # a rational, as (num, den)
        "disc",          # CM discriminant of the weight-3 form phi
        "level",         # newform level, equal to |det T|
        "ap_twist",      # d with A_p = (d/p) a_p of that newform
        "prefactor",     # (r, n) as above
        "rank",          # Mordell-Weil rank
        "section_disc",  # d with the infinite section over Q(sqrt(d))
        "fibers",        # one FiberEntry per singular fiber
        "torsion",       # Mordell-Weil torsion order
        "height",        # canonical height of the infinite section, (num, den)
        "section",       # (x, y) numerators of that section, each factored
        "pole_factors",  # the factors of dcore; () for a polynomial section
        "halving_root",  # (num, den) of r, each factored
), defaults=(None,) * 12)):
    """What the identity for one k rests on:

        m(P_k) = (r sqrt(n) / pi^3) L(phi_disc, 3) + d3_coeff * d3

    with prefactor = (r, n), r as (num, den).  k = 0 is the bare identity
    m(P_0) = d3; its surface fields stay unset (None).

    A record with a `height` may give its infinite section as printed: x =
    X/dcore^2 and y = Y/dcore^3, dcore the product of `pole_factors`, and
    `halving_root` r with x(Q) = r^2 for Q the section plus (0, 0) on the
    completed square.  A factored polynomial is a constant followed by its
    factors, each a coefficient tuple with the constant term first; a
    coefficient is an int, or (re, im) for re + im sqrt(-3).
    `mwsections.record_section` builds them."""

    __slots__ = ()

    @property
    def bad_primes(self) -> frozenset:
        """2, 3 and the primes dividing the level: excluded from the A_p count."""
        bad, n, p = {2, 3}, self.level or 1, 2
        while n > 1:
            if n % p:
                p += 1
            else:
                bad.add(p)
                n //= p
        return frozenset(bad)


# Singular fibers of the double cover are read off from the Beauville
# fibration (u = (s^2 - k s + 1)/s^2, s = 1/sigma); each comment names the
# fiber of u below.  `mwsections.section_height` checks them against
# `mwsections.family_curve(k)` and takes one local height per entry.
SURFACES = {
    0: Surface(0, (1, 1)),
    3: Surface(3, (0, 1), disc=-15, level=15,
               prefactor=((15, 2), 15), rank=1, section_disc=1, torsion=6,
               fibers=(
                   FiberEntry("s=0", 12, None),          # double over u=inf
                   FiberEntry("s=inf", 2, (0, 1)),       # over u=1
                   FiberEntry("s=1/3", 2, (-3, 1)),      # over u=1
                   FiberEntry("alpha1", 3, (1, -3, 1)),  # over u=0
                   FiberEntry("beta1", 3, (1, -3, 1)),   # over u=0
                   FiberEntry("alpha2", 1, (9, -3, 1)),  # over u=-8
                   FiberEntry("beta2", 1, (9, -3, 1)),   # over u=-8
               )),
    6: Surface(6, (0, 1), disc=-24, level=24, ap_twist=-3,
               prefactor=((24, 1), 6), rank=0, torsion=6,
               fibers=(
                   FiberEntry("s=0", 12, None),         # double over u=inf
                   FiberEntry("s=inf", 2, (0, 1)),      # over u=1
                   FiberEntry("s=1/6", 2, (-6, 1)),     # over u=1
                   FiberEntry("alpha", 3, (1, -6, 1)),  # over u=0
                   FiberEntry("beta", 3, (1, -6, 1)),   # over u=0
                   FiberEntry("s=1/3", 2, (-3, 1)),     # double over u=-8
               )),
    18: Surface(18, (14, 5), disc=-120, level=120,
                ap_twist=-3, prefactor=((6, 1), 120), rank=1,
                section_disc=-3, torsion=6,
                height=(10, 1),
                section=(
                    # 3888 sigma (sigma - 18)(sigma - 21)^2 (sigma + 3)^2
                    (3888, (0, 1), (-18, 1), (-21, 1), (-21, 1), (3, 1), (3, 1)),
                    # 36 sqrt(-3) sigma (sigma - 21)(sigma - 18)(sigma + 3) f2 f3 f5
                    ((0, 36), (0, 1), (-21, 1), (-18, 1), (3, 1),
                     ((45, -27), (-18, 3), 1),
                     ((-81, 99), (171, -54), (-27, 3), 1),
                     ((5832, -5832), (-22518, -5832), (729, 4212), (513, -432),
                      (-45, 12), 1)),
                ),
                # sigma - 9, sigma^2 - 21 sigma + 72, sigma^2 - 15 sigma + 18
                pole_factors=((-9, 1), (72, -21, 1), (18, -15, 1)),
                # dcore / (36 sqrt(-3) (sigma - 21)(sigma + 3))
                halving_root=((1, (-9, 1), (72, -21, 1), (18, -15, 1)),
                              ((0, 36), (-21, 1), (3, 1))),
                fibers=(
                    FiberEntry("s=0", 12, None, j=6),          # double over u=inf
                    FiberEntry("s=inf", 2, (0, 1), j=1),       # over u=1
                    FiberEntry("s=1/18", 2, (-18, 1), j=1),    # over u=1
                    FiberEntry("alpha1", 3, (1, -18, 1), j=0),  # over u=0
                    FiberEntry("beta1", 3, (1, -18, 1), j=0),   # over u=0
                    FiberEntry("alpha2", 1, (9, -18, 1), j=0),  # over u=-8
                    FiberEntry("beta2", 1, (9, -18, 1), j=0),   # over u=-8
                )),
}

# a_p (p <= 31) of the weight-3 CM newform of each surface's level, the
# second reference for the A_p scan where it has the prime
NEWFORM_AP = {
    15: {2: -1, 3: 3, 5: -5, 7: 0, 11: 0, 13: 0, 17: 14, 19: -22, 23: -34,
         29: 0, 31: 2},
    24: {2: 2, 3: -3, 5: -2, 7: -10, 11: 10, 13: 0, 17: 0, 19: 0, 23: 0,
         29: -50, 31: 38},
    120: {2: 2, 3: 3, 5: -5, 7: 0, 11: 2, 13: -14, 17: -26, 19: 0, 23: -14,
          29: 38, 31: -58},
}
