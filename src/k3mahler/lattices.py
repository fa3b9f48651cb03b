"""Integer-lattice bookkeeping for the singular members of the K3 family.

Covers the rank-3 ambient pairing on transcendental periods, the orthogonal
complement of a period relation with its Hermite basis in closed form, the
Shioda rank count from fiber data, and the Neron-Severi determinant chain.
All arithmetic is exact.  The per-k records it checks live in `surfaces`.
"""

from __future__ import annotations

import math
from collections import namedtuple
from collections.abc import Sequence
from fractions import Fraction

from .surfaces import tau_table

# Ambient pairing on the transcendental periods (gamma_1, gamma_2, gamma_3).
AMBIENT_GRAM = ((0, 0, 1), (0, 12, 0), (1, 0, 0))


def pairing(v: Sequence[int], w: Sequence[int]) -> int:
    """The ambient form v^T G w."""
    return sum(v[i] * AMBIENT_GRAM[i][j] * w[j] for i in range(3) for j in range(3))


# ---------------------------------------------------------------------------
# Orthogonal complements over Z
# ---------------------------------------------------------------------------

def _complement_hnf(u: Sequence[int]) -> tuple:
    """Row Hermite normal form of {w in Z^3 : w . u = 0} for u != 0, which is
    unique (Cohen, GTM 138, Thm 2.4.3).

    With u = g (a, b, c) primitive and d = gcd(b, c), the first coordinates
    of the lattice are dZ, since gcd(a, d) = 1.  Its rows with first
    coordinate 0 are the multiples of (0, c', -b'), for b = d b' and
    c = d c', and row 1 is (d, x, y) with a + b' x + c' y = 0, x reduced
    modulo |c'|; for c' = 0 row 2 is e_3 and row 1 ends in 0.
    """
    g = math.gcd(*u)
    a, b, c = (t // g for t in u)
    d = math.gcd(b, c)
    if d == 0:
        return (0, 1, 0), (0, 0, 1)
    b, c = b // d, c // d
    if c == 0:
        return (d, -a * b, 0), (0, 0, 1)
    x = -a * pow(b, -1, abs(c)) % abs(c)
    return (d, x, (-a - b * x) // c), (0, abs(c), -b if c > 0 else b)


OrthoComplement = namedtuple("OrthoComplement", "basis gram labels det")


def orthocomplement(v: Sequence[int]) -> OrthoComplement:
    """Saturated orthogonal complement of v inside Z^3 w.r.t. the ambient form:
    its Hermite basis, the restricted Gram matrix, the basis labels and the
    Gram determinant."""
    if not any(v):
        raise ValueError("v must be nonzero")
    basis = _complement_hnf([sum(g * x for g, x in zip(row, v)) for row in AMBIENT_GRAM])
    gram = tuple(tuple(pairing(b1, b2) for b2 in basis) for b1 in basis)
    (g11, g12), (_, g22) = gram
    return OrthoComplement(basis, gram, tuple(map(_format_vector, basis)),
                           g11 * g22 - g12 * g12)


def _format_vector(b: Sequence[int]) -> str:
    parts = []
    for coef, lab in zip(b, ("g1", "g2", "g3")):
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
    comp = orthocomplement((rec.p, rec.q, rec.r))
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
