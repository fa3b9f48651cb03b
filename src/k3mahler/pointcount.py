"""Finite-field point counting on the fibers of the K3 pencil and assembly of
the transcendental L-coefficients A_p.

The fiber over s is the projective cubic

    s^2 (x+y)(x+z)(y+z) + (s^2 - k s + 1) xyz = 0,

counted over all s in P^1(F_p) including the singular fibers; the fiber over
s = infinity is the u = 1 specialization (x+y)(x+z)(y+z) + xyz = 0.  The
plane-model counter solves a quadratic in y per (s, x) with a Legendre lookup
(O(p) per fiber); a full O(p^2) projective enumeration is kept as a
cross-check mode.

A_p is assembled from the Weierstrass fibers instead.  With u = s^2 - ks each
fiber's value is a_p(s) = -chi(A) H(-u/A^2), A = (u^2+6u-3)/4, read from one
table H(r) = sum_y chi(y(y^2+y+r)) that is the cyclic convolution of a
bincount with the Legendre symbol.  One zero-padded real FFT computes it, and
its rounding is checked rather than trusted; at most two fibers with A = 0
are summed directly.  So all p + 1 fibers of one prime cost O(p log p)
together (see `weierstrass_fiber_ap_values`).

A_p = -sum_s a_p(s) for rank 0, with an extra -(d/p) p for rank 1 when the
infinite section lives over Q(sqrt(d)).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .lattices import SURFACES

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for anything this artifact will ever see."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def primes_up_to(n: int) -> list[int]:
    sieve = np.ones(n + 1, dtype=bool)
    sieve[:2] = False
    for p in range(2, int(n ** 0.5) + 1):
        if sieve[p]:
            sieve[p * p::p] = False
    return [int(p) for p in np.nonzero(sieve)[0]]


def legendre(a: int, p: int) -> int:
    """Legendre symbol (a/p) for an odd prime p, via the Euler criterion."""
    if p == 2 or not is_prime(p):
        raise ValueError("legendre requires an odd prime")
    a %= p
    if a == 0:
        return 0
    return 1 if pow(a, (p - 1) // 2, p) == 1 else -1


def _legendre_table(p: int) -> np.ndarray:
    """chi[t] = (t/p) for t in 0..p-1."""
    chi = -np.ones(p, dtype=np.int64)
    chi[0] = 0
    sq = (np.arange(1, p, dtype=np.int64) ** 2) % p
    chi[sq] = 1
    return chi


# ---------------------------------------------------------------------------
# Fiber counting
# ---------------------------------------------------------------------------

def _fiber_params(k: int, s, p: int) -> tuple[int, int]:
    """(s^2, s^2 - k s + 1) mod p; s None/"inf" means the fiber at infinity."""
    if s is None or s == "inf":
        return 1, 1
    s = int(s) % p
    return (s * s) % p, (s * s - k * s + 1) % p


def count_fiber_points(k: int, s, p: int, method: str = "legendre") -> int:
    """Number of points of the projective cubic fiber over s in P^2(F_p)."""
    if p in (2, 3) or not is_prime(p):
        raise ValueError("p must be a prime not dividing 6")
    if method == "enumerate":
        return _count_fiber_enumerate(k, s, p)
    if method != "legendre":
        raise ValueError(f"unknown method {method!r}")
    s2, c = _fiber_params(k, s, p)
    chi = _legendre_table(p)
    return _count_one_fiber(s2, c, p, chi)


def _count_one_fiber(s2: int, c: int, p: int, chi: np.ndarray) -> int:
    x = np.arange(p, dtype=np.int64)
    # affine chart z = 1: quadratic in y with
    #   A = s^2 (x+1), B = s^2 (x+1)^2 + c x, C = s^2 x (x+1)
    xp1 = (x + 1) % p
    A = (s2 * xp1) % p
    B = (s2 * xp1 * xp1 + c * x) % p
    C = (s2 * x * xp1) % p
    disc = (B * B - 4 * A * C) % p
    roots = np.where(A != 0, 1 + chi[disc],
                     np.where(B != 0, 1, np.where(C == 0, p, 0)))
    total = int(np.sum(roots))
    # line z = 0: s^2 x y (x+y) = 0
    total += 3 if s2 % p else p + 1
    return total


def _count_fiber_enumerate(k: int, s, p: int) -> int:
    """Full projective enumeration (oracle; O(p^2) points)."""
    s2, c = _fiber_params(k, s, p)

    def f(x, y, z):
        return (s2 * (x + y) * (x + z) * (y + z) + c * x * y * z) % p

    total = 0
    for x in range(p):
        for y in range(p):
            if f(x, y, 1) == 0:
                total += 1
    for x in range(p):
        if f(x, 1, 0) == 0:
            total += 1
    if f(1, 0, 0) == 0:
        total += 1
    return total


def cubic_fiber_ap_values(k: int, p: int) -> np.ndarray:
    """a_p(s) = p + 1 - #(plane cubic fiber) for every s in P^1(F_p)
    (last entry is s = infinity).  Cross-check data for the plane model;
    the A_p assembly uses the Weierstrass fiber counts instead."""
    if p in (2, 3) or not is_prime(p):
        raise ValueError("p must be a prime not dividing 6")
    chi = _legendre_table(p)
    s = np.arange(p, dtype=np.int64)
    s2 = (s * s) % p
    c = (s2 - k * s + 1) % p
    x = np.arange(p, dtype=np.int64)
    xp1 = (x + 1) % p
    A = (s2[:, None] * xp1[None, :]) % p
    B = (s2[:, None] * (xp1 * xp1)[None, :] + c[:, None] * x[None, :]) % p
    C = (s2[:, None] * (x * xp1)[None, :]) % p
    disc = (B * B - 4 * A * C) % p
    roots = np.where(A != 0, 1 + chi[disc],
                     np.where(B != 0, 1, np.where(C == 0, p, 0)))
    counts = roots.sum(axis=1)
    counts += np.where(s2 % p != 0, 3, p + 1)
    counts = np.append(counts, _count_one_fiber(1, 1, p, chi))  # s = infinity
    return (p + 1) - counts


def weierstrass_fiber_ap_values(k: int, p: int) -> np.ndarray:
    """a_p(s) = p + 1 - #(Weierstrass fiber) over every s in P^1(F_p).

    Fibers of y^2 + (s^2-ks+1)xy = x(x-1)(x+s^2-ks) for s in F_p, plus the
    s = infinity fiber read in the reciprocal chart.  Singular fibers are
    counted on the (one-component) Weierstrass model; this is the convention
    that reproduces the published A_p tables.

    With u = s^2 - ks the completed square is (2y + (u+1)x)^2 = f_s(x),
    f_s(x) = 4x^3 + (u^2+6u-3)x^2 - 4ux, so a_p(s) = -G(u) with
    G(u) = sum_x chi(x^3 + A x^2 + B x), A = (u^2+6u-3)/4, B = -u.  For
    A != 0 the substitution x = A y gives G(u) = chi(A) H(B/A^2), where
    H(r) = sum_y chi(y (y^2 + y + r)) is one table for all fibers (see
    `_cubic_character_table`).  At the at most two roots of A (they exist
    when p = +-1 mod 12) G(u) = sum_x chi(x^3 - ux) is summed directly by
    `count_weierstrass`.  The
    s = infinity fiber, 4x^3 + x^2 = 4(x^3 + x^2/4), is the case A = 1/4,
    B = 0, so its value is -H(0).  Every step is a bijection of F_p or a
    factorisation of the same character sum, so the values are exact on
    singular fibers too.  Cost: O(p log p) time and O(p) memory per prime.
    """
    if p in (2, 3) or not is_prime(p):
        raise ValueError("p must be a prime not dividing 6")
    chi = _legendre_table(p)
    H = _cubic_character_table(p, chi)
    s = np.arange(p, dtype=np.int64)
    u = s * (s - k % p) % p
    A = (u * u + 6 * u - 3) % p * pow(4, -1, p) % p
    A_inv = _inverse_mod(A, p)
    G = chi[A] * H[(p - u) * A_inv % p * A_inv % p]
    for i in np.flatnonzero(A == 0):
        # y^2 = x^3 - ux is smooth here: u = 0 would make A = -3/4
        G[i] = count_weierstrass((0, 0, 0, -int(u[i]), 0), p) - (p + 1)
    return -np.append(G, H[0])


def _inverse_mod(a: np.ndarray, p: int) -> np.ndarray:
    """a^(p-2) mod p elementwise: the inverse of nonzero a, and 0 at a = 0."""
    result = np.ones_like(a)
    base = a % p
    e = p - 2
    while e:
        if e & 1:
            result = result * base % p
        base = base * base % p
        e >>= 1
    return result


def _cubic_character_table(p: int, chi: np.ndarray) -> np.ndarray:
    """H[r] = sum_y chi(y (y^2 + y + r)) for every r in F_p.

    With w = -y^2 - y, chi(y^2 + y + r) = chi(r - w), so H is the cyclic
    convolution of h(w) = sum_{y: -y^2-y = w} chi(y) with chi.  It is taken
    as one real FFT of length a power of two >= 2p - 1, folded mod p.  Since
    |h| <= 2 and |chi| <= 1, the floating-point error of each entry is of
    order eps * log2(n) * ||h||_2 ||chi||_2 <= eps * log2(n) * 2p, below
    1e-8 for p < 10^6; an entry at least 0.1 from an integer raises
    ArithmeticError instead of being rounded.
    """
    y = np.arange(p, dtype=np.int64)
    h = np.bincount((p - y * (y + 1) % p) % p, weights=chi, minlength=p)
    n = 1 << (2 * p - 2).bit_length()
    conv = np.fft.irfft(np.fft.rfft(h, n) * np.fft.rfft(chi, n), n)
    H = conv[:p]
    H[:p - 1] += conv[p:2 * p - 1]
    rounded = np.rint(H)
    if np.max(np.abs(H - rounded)) >= 0.1:
        raise ArithmeticError(f"FFT convolution at p={p} is not integral")
    return rounded.astype(np.int64)


# ---------------------------------------------------------------------------
# A_p
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FiberCount:
    s: object          # element of F_p or "inf"
    count: int
    a_p_s: int         # always p + 1 - count


def fiber_counts(k: int, p: int) -> list[FiberCount]:
    """Per-fiber Weierstrass counts over P^1(F_p), as (s, count, a_p(s))."""
    vals = weierstrass_fiber_ap_values(k, p)
    labels = list(range(p)) + ["inf"]
    return [FiberCount(s, p + 1 - int(a), int(a)) for s, a in zip(labels, vals)]


def A_p(k: int, p: int) -> int:
    """Transcendental L-coefficient A_p from fiber counts, for k in {3, 6, 18}
    with the rank and section field of the k's Surface record.  Raises at bad
    primes (those dividing the matched newform level, plus 2 and 3).
    """
    surf = SURFACES.get(k)
    if surf is None or surf.rank is None:
        raise ValueError(f"k={k} has no tabulated surface")
    if p in surf.bad_primes:
        raise ValueError(f"p={p} is a bad prime for k={k}: "
                         f"excluded set {sorted(surf.bad_primes)}")
    if not is_prime(p):
        raise ValueError(f"p={p} is not prime")
    value = -int(np.sum(weierstrass_fiber_ap_values(k, p)))
    if surf.rank == 1:
        value -= legendre(surf.section_disc, p) * p
    return value


def ap_scan(k: int, pmax: int) -> dict[int, int]:
    """A_p for all good primes p <= pmax, in increasing order."""
    bad = SURFACES[k].bad_primes
    return {p: A_p(k, p) for p in primes_up_to(pmax) if p not in bad}


# ---------------------------------------------------------------------------
# Weierstrass counting over F_p (used for the twisted-curve reductions)
# ---------------------------------------------------------------------------

def weierstrass_invariants(a1, a2, a3, a4, a6) -> tuple:
    """(b2, b4, b6, discriminant) of y^2 + a1 xy + a3 y = x^3 + a2 x^2 + a4 x + a6.

    Ring-generic: the same formulas serve rational functions and integers
    (reduce the results mod p for the curve over F_p)."""
    b2 = a1 * a1 + 4 * a2
    b4 = 2 * a4 + a1 * a3
    b6 = a3 * a3 + 4 * a6
    b8 = a1 * a1 * a6 + 4 * a2 * a6 - a1 * a3 * a4 + a2 * a3 * a3 - a4 * a4
    return b2, b4, b6, -b2 * b2 * b8 - 8 * b4 ** 3 - 27 * b6 * b6 + 9 * b2 * b4 * b6


def count_weierstrass(coeffs: Iterable[int], p: int) -> int:
    """#E(F_p) for y^2 + a1 xy + a3 y = x^3 + a2 x^2 + a4 x + a6 over F_p.

    Completes the square and sums Legendre symbols; raises on singular
    reduction.
    """
    if p == 2 or not is_prime(p):
        raise ValueError("p must be an odd prime")
    a1, a2, a3, a4, a6 = (v % p for v in coeffs)
    b2, b4, b6, disc = (b % p for b in weierstrass_invariants(a1, a2, a3, a4, a6))
    if disc == 0:
        raise ValueError("singular curve mod p")
    chi = _legendre_table(p)
    x = np.arange(p, dtype=np.int64)
    rhs = (((4 * x + b2) * x + 2 * b4) * x + b6) % p
    return int(np.sum(1 + chi[rhs])) + 1


def point_order(coeffs: Iterable[int], pt: tuple[int, int], p: int,
                bound: int = 24) -> int:
    """Order of an affine point on the reduced curve, up to bound.

    Raises on singular reduction, where the chord-tangent law is not a group
    law on all points."""
    a1, a2, a3, a4, a6 = (v % p for v in coeffs)
    if weierstrass_invariants(a1, a2, a3, a4, a6)[3] % p == 0:
        raise ValueError("singular curve mod p")

    def add(P, Q):
        if P is None:
            return Q
        if Q is None:
            return P
        x1, y1 = P
        x2, y2 = Q
        if x1 == x2 and (y1 + y2 + a1 * x2 + a3) % p == 0:
            return None
        if P == Q:
            num = (3 * x1 * x1 + 2 * a2 * x1 + a4 - a1 * y1) % p
            den = (2 * y1 + a1 * x1 + a3) % p
        else:
            num, den = (y2 - y1) % p, (x2 - x1) % p
        lam = num * pow(den, -1, p) % p
        nu = (y1 - lam * x1) % p
        x3 = (lam * lam + a1 * lam - a2 - x1 - x2) % p
        y3 = (-(lam + a1) * x3 - nu - a3) % p
        return (x3, y3)

    x, y = pt
    if (y * y + a1 * x * y + a3 * y - (x ** 3 + a2 * x * x + a4 * x + a6)) % p != 0:
        raise ValueError("point is not on the curve mod p")
    acc, n = pt, 1  # acc = [n]P at the top of each iteration
    while acc is not None:
        if n > bound:
            raise ValueError(f"order exceeds bound {bound}")
        acc = add(acc, pt)
        n += 1
    return n
