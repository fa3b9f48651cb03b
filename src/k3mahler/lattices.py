"""Integer-lattice bookkeeping for the singular members of the K3 family.

Covers the rank-3 ambient pairing on transcendental periods, orthogonal
complements with saturated integer bases, the Shioda rank count from fiber
data, and the Neron-Severi determinant chain.  All arithmetic is exact.  The
per-k records it checks live in `surfaces`.
"""

from __future__ import annotations

import math
from collections import namedtuple
from collections.abc import Sequence
from fractions import Fraction

from .surfaces import tau_table

# Ambient pairing on the transcendental periods (gamma_1, gamma_2, gamma_3).
AMBIENT_GRAM = ((0, 0, 1), (0, 12, 0), (1, 0, 0))


class GramLattice(namedtuple("GramLattice", "gram labels")):
    """Integer symmetric bilinear form with labeled basis."""

    __slots__ = ()

    def __new__(cls, gram, labels):
        if any(len(row) != len(gram) for row in gram):
            raise ValueError("Gram matrix must be square")
        if any(gram[i][j] != gram[j][i] for i in range(len(gram)) for j in range(i)):
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
    # a*u1 + b*u2 = g12: a inverts u1/g12 modulo u2/g12
    if u2 == 0:
        a, b = (1 if u1 > 0 else -1), 0
    else:
        a = pow(u1 // g12, -1, abs(u2 // g12))
        b = (g12 - a * u1) // u2
    v2 = [-a * (u3 // g), -b * (u3 // g), g12 // g]
    return [v1, v2]


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
# Shioda bookkeeping
# ---------------------------------------------------------------------------

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


def transcendental_summary(surf) -> dict:
    """Full exact chain for one `Surface` record: tau data, orthocomplement,
    and the Shioda rank and trivial-lattice determinant of its fibers."""
    rec = tau_table(surf.k)
    if surf.fibers is None:
        raise ValueError(f"no fiber table for k={surf.k}")
    comp = orthocomplement(ambient_lattice(), (rec.p, rec.q, rec.r))
    ms = [f.m for f in surf.fibers]
    return {
        "tau": rec,
        "orthocomplement": comp,
        "rank": shioda_rank(20, ms),
        "trivial_det": trivial_lattice_det(ms),
    }


def subchecks(surf) -> list[dict]:
    """`verify`'s lattice stage of a `Surface` record: its CM point, |det T|,
    Shioda rank and, where det(MWL) is known, the Neron-Severi chain."""
    summary = transcendental_summary(surf)
    rec, det, rank = summary["tau"], summary["orthocomplement"].det, summary["rank"]
    checks = [
        {"name": "tau-quadratic-relation", "pass": rec.residual() == (0, 0),
         "provenance": "exact quadratic-irrational arithmetic",
         "relation": f"-6*{rec.p}*tau^2+12*{rec.q}*tau+{rec.r}=0"},
        {"name": "orthocomplement-determinant", "pass": det == surf.level,
         "provenance": "integer kernel + restricted Gram form", "det": det},
        {"name": "shioda-rank", "pass": rank == surf.rank,
         "provenance": "rank from Picard number 20 and fiber components", "rank": rank},
    ]
    trivial, height = summary["trivial_det"], surf.height and Fraction(*surf.height)
    if surf.rank == 0 or height is not None:
        h = height or 1  # the Mordell-Weil lattice of rank 0 has det 1
        ns = ns_determinant(surf.rank, trivial, h, surf.torsion)
        checks.append({"name": "ns-determinant-chain", "pass": abs(ns) == surf.level,
                       "provenance": f"|det NS| = {trivial} * det(MWL) / {surf.torsion}^2, "
                                     f"det(MWL) = {h}",
                       "value": str(ns)})
    return checks
