"""Integer-lattice bookkeeping for the singular members of the K3 family.

Covers the rank-3 ambient pairing on transcendental periods, orthogonal
complements with saturated integer bases, the Shioda rank count from fiber
data, and the Neron-Severi determinant chain.  All arithmetic is exact.

``SURFACES`` holds one ``Surface`` record per k = 0, 3, 6, 18: every per-k
fact the other modules use, defined once; ``NEWFORM_AP`` holds the a_p table
of the newform of each surface's level.
"""

from __future__ import annotations

import math
from collections import namedtuple
from collections.abc import Sequence
from fractions import Fraction

# Ambient pairing on the transcendental periods (gamma_1, gamma_2, gamma_3).
AMBIENT_GRAM = ((0, 0, 1), (0, 12, 0), (1, 0, 0))


class GramLattice(namedtuple("GramLattice", "gram labels")):
    """Integer symmetric bilinear form with labeled basis."""

    __slots__ = ()

    def __new__(cls, gram, labels):
        n = len(gram)
        for row in gram:
            if len(row) != n:
                raise ValueError("Gram matrix must be square")
        for i in range(n):
            for j in range(n):
                if gram[i][j] != gram[j][i]:
                    raise ValueError("Gram matrix must be symmetric")
        return super().__new__(cls, gram, labels)

    @property
    def n(self) -> int:
        return len(self.gram)

    def pairing(self, v: Sequence[int], w: Sequence[int]) -> int:
        return sum(v[i] * self.gram[i][j] * w[j]
                   for i in range(self.n) for j in range(self.n))

    def det(self) -> int:
        g = [list(map(Fraction, row)) for row in self.gram]
        n, det = self.n, Fraction(1)
        for col in range(n):
            piv = next((r for r in range(col, n) if g[r][col] != 0), None)
            if piv is None:
                return 0
            if piv != col:
                g[col], g[piv] = g[piv], g[col]
                det = -det
            det *= g[col][col]
            for r in range(col + 1, n):
                f = g[r][col] / g[col][col]
                for c in range(col, n):
                    g[r][c] -= f * g[col][c]
        assert det.denominator == 1
        return int(det)


def ambient_lattice() -> GramLattice:
    return GramLattice(AMBIENT_GRAM, ("g1", "g2", "g3"))


class TauRecord(namedtuple("TauRecord", "k A B C p q r")):
    """CM point data: tau = (A + sqrt(B))/C with B < 0, and the primitive
    (p, q, r) solving -6 p tau^2 + 12 q tau + r = 0."""

    __slots__ = ()

    def residual(self) -> tuple[Fraction, Fraction]:
        """(rational, sqrt(B)-coefficient) parts of -6p tau^2 + 12q tau + r."""
        A, B, C = self.A, self.B, self.C
        rat = Fraction(-6 * self.p * (A * A + B), C * C) \
            + Fraction(12 * self.q * A, C) + self.r
        irr = Fraction(-12 * self.p * A, C * C) + Fraction(12 * self.q, C)
        return rat, irr

    def period_relation_vector(self) -> tuple[int, int, int]:
        """The class p*g1 + q*g2 + r*g3 that becomes algebraic."""
        return (self.p, self.q, self.r)


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


# ---------------------------------------------------------------------------
# Orthogonal complements over Z
# ---------------------------------------------------------------------------

def _kernel_basis(u: Sequence[int]) -> list[list[int]]:
    """Saturated basis of {w in Z^3 : w . u = 0} for u != 0.

    Built from gcd identities; the cross product of the two rows is +-u/gcd(u),
    which certifies saturation (index 1 in the full orthogonal complement).
    """
    u1, u2, u3 = u
    if u1 == 0 and u2 == 0:
        if u3 == 0:
            raise ValueError("kernel of the zero vector is everything")
        return [[1, 0, 0], [0, 1, 0]]
    g12 = math.gcd(u1, u2)
    v1 = [u2 // g12, -u1 // g12, 0]
    g = math.gcd(g12, u3)
    # a*u1 + b*u2 = g12
    if u2 == 0:
        a, b = (1 if u1 > 0 else -1), 0
    else:
        a, b = _bezout(u1, u2)
    v2 = [-a * (u3 // g), -b * (u3 // g), g12 // g]
    return [v1, v2]


def _bezout(x: int, y: int) -> tuple[int, int]:
    """(a, b) with a*x + b*y = gcd(x, y)."""
    old_r, r = x, y
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_s, old_t = -old_s, -old_t
    return old_s, old_t


def _hnf_rows(rows: list[list[int]]) -> list[list[int]]:
    """Row Hermite normal form of a full-row-rank integer matrix."""
    m = [row[:] for row in rows]
    nrows, ncols = len(m), len(m[0])
    pivot_row = 0
    for col in range(ncols):
        if pivot_row >= nrows:
            break
        # eliminate below by gcd steps
        while True:
            nz = [r for r in range(pivot_row, nrows) if m[r][col] != 0]
            if not nz:
                break
            r0 = min(nz, key=lambda r: abs(m[r][col]))
            m[pivot_row], m[r0] = m[r0], m[pivot_row]
            done = True
            for r in range(pivot_row + 1, nrows):
                if m[r][col] != 0:
                    q = m[r][col] // m[pivot_row][col]
                    for c in range(ncols):
                        m[r][c] -= q * m[pivot_row][c]
                    if m[r][col] != 0:
                        done = False
            if done:
                break
        if m[pivot_row][col] != 0:
            if m[pivot_row][col] < 0:
                m[pivot_row] = [-x for x in m[pivot_row]]
            for r in range(pivot_row):
                q = m[r][col] // m[pivot_row][col]
                if q:
                    for c in range(ncols):
                        m[r][c] -= q * m[pivot_row][c]
            pivot_row += 1
    return m


OrthoComplement = namedtuple("OrthoComplement", "basis sublattice det")


def orthocomplement(ambient: GramLattice, v: Sequence[int]) -> OrthoComplement:
    """Saturated orthogonal complement of v inside Z^3 w.r.t. the ambient form.

    Returns an HNF-canonical basis, the restricted Gram matrix and its
    determinant.
    """
    if ambient.n != 3:
        raise ValueError("ambient lattice must have rank 3")
    if all(c == 0 for c in v):
        raise ValueError("v must be nonzero")
    u = [sum(ambient.gram[i][j] * v[j] for j in range(3)) for i in range(3)]
    basis = _hnf_rows(_kernel_basis(u))
    sub = tuple(tuple(ambient.pairing(b1, b2) for b2 in basis) for b1 in basis)
    lab = tuple(_format_vector(b, ambient.labels) for b in basis)
    sublattice = GramLattice(sub, lab)
    return OrthoComplement(tuple(tuple(b) for b in basis), sublattice,
                           sublattice.det())


def _format_vector(b: Sequence[int], labels: Sequence[str]) -> str:
    parts = []
    for coef, lab in zip(b, labels):
        if coef == 0:
            continue
        if coef == 1:
            parts.append(f"+{lab}")
        elif coef == -1:
            parts.append(f"-{lab}")
        else:
            parts.append(f"{coef:+d}*{lab}")
    out = "".join(parts) or "0"
    return out[1:] if out.startswith("+") else out


# ---------------------------------------------------------------------------
# Fiber configurations and Shioda bookkeeping
# ---------------------------------------------------------------------------

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


def shioda_rank(rho: int, ms: Sequence[int]) -> int:
    """Mordell-Weil rank r from rho = r + 2 + sum(m_nu - 1) over the I_m fibers."""
    if not 1 <= rho <= 20:
        raise ValueError("Picard number out of range [1, 20]")
    r = rho - 2 - sum(m - 1 for m in ms)
    if r < 0:
        raise ValueError(f"inconsistent fiber data: rank would be {r}")
    return r


def trivial_lattice_det(ms: Sequence[int]) -> int:
    """Determinant of the trivial lattice: product of m over the I_m fibers."""
    return math.prod(ms)


def ns_determinant(rank: int, trivial_det: int, mwl_det, torsion_order: int):
    """(-1)^rank * trivial_det * mwl_det / torsion_order^2, exact."""
    if torsion_order < 1:
        raise ValueError("torsion order must be >= 1")
    sign = -1 if rank % 2 else 1
    return Fraction(sign * trivial_det, torsion_order ** 2) * Fraction(mwl_det)


class Surface(namedtuple("Surface", (
        "k",
        "tol",           # default identity tolerance of `verify`
        "d3_coeff",      # a Fraction
        "disc",          # CM discriminant of the weight-3 form phi
        "level",         # newform level, equal to |det T|
        "ap_twist",      # d with A_p = (d/p) a_p of that newform
        "prefactor",     # (r, n) as above
        "rank",          # Mordell-Weil rank
        "section_disc",  # d with the infinite section over Q(sqrt(d))
        "fibers",        # one FiberEntry per singular fiber
        "torsion",       # Mordell-Weil torsion order
        "height",        # canonical height of the infinite section, a Fraction
), defaults=(None,) * 9)):
    """What the identity for one k rests on:

        m(P_k) = (r sqrt(n) / pi^3) L(phi_disc, 3) + d3_coeff * d3

    with prefactor = (r, n).  k = 0 is the bare identity m(P_0) = d3; its
    surface fields stay unset (None)."""

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
    0: Surface(0, 1e-6, Fraction(1)),
    3: Surface(3, 1e-5, Fraction(0), disc=-15, level=15,
               prefactor=(Fraction(15, 2), 15), rank=1, section_disc=1, torsion=6,
               fibers=(
                   FiberEntry("s=0", 12, None),          # double over u=inf
                   FiberEntry("s=inf", 2, (0, 1)),       # over u=1
                   FiberEntry("s=1/3", 2, (-3, 1)),      # over u=1
                   FiberEntry("alpha1", 3, (1, -3, 1)),  # over u=0
                   FiberEntry("beta1", 3, (1, -3, 1)),   # over u=0
                   FiberEntry("alpha2", 1, (9, -3, 1)),  # over u=-8
                   FiberEntry("beta2", 1, (9, -3, 1)),   # over u=-8
               )),
    6: Surface(6, 1e-5, Fraction(0), disc=-24, level=24, ap_twist=-3,
               prefactor=(Fraction(24), 6), rank=0, torsion=6,
               fibers=(
                   FiberEntry("s=0", 12, None),         # double over u=inf
                   FiberEntry("s=inf", 2, (0, 1)),      # over u=1
                   FiberEntry("s=1/6", 2, (-6, 1)),     # over u=1
                   FiberEntry("alpha", 3, (1, -6, 1)),  # over u=0
                   FiberEntry("beta", 3, (1, -6, 1)),   # over u=0
                   FiberEntry("s=1/3", 2, (-3, 1)),     # double over u=-8
               )),
    18: Surface(18, 1e-4, Fraction(14, 5), disc=-120, level=120,
                ap_twist=-3, prefactor=(Fraction(6), 120), rank=1,
                section_disc=-3, torsion=6,
                height=Fraction(10),
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


def transcendental_summary(k: int) -> dict:
    """Full exact chain for one tabulated k: tau data, orthocomplement,
    Shioda rank, trivial-lattice determinant."""
    rec = tau_table(k)
    fibers = SURFACES[k].fibers if k in SURFACES else None
    if fibers is None:
        raise ValueError(f"no fiber table for k={k}")
    comp = orthocomplement(ambient_lattice(), rec.period_relation_vector())
    ms = [f.m for f in fibers]
    return {
        "k": k,
        "tau": rec,
        "orthocomplement": comp,
        "rank": shioda_rank(20, ms),
        "trivial_det": trivial_lattice_det(ms),
    }
