"""Finite-field point counts on the paper's K3 surface and the transcendental
L-coefficients A_p.

A_p is read from N_k(p), the number of points of x + 1/x + y + 1/y + z + 1/z
= k on the torus (F_p^*)^3, in closed form (see `A_p`).  With w(a) =
#{x in F_p^* : x + 1/x = a} = 1 + chi(a^2 - 4), N_k(p) = sum_c w(c)
(w * w)(k - c): one cyclic self-convolution and one dot product per prime,
in O(p^1.585): the convolution is one exact big-integer (Kronecker) square
in pure Python, which CPython multiplies by Karatsuba.
`A_p` checks its record and tests p for primality on every call; `ap_scan`
checks the record once and takes its primes from the sieve, so it runs no
primality test."""

from __future__ import annotations

import math
import sys
from array import array
from operator import itemgetter, mul

from .surfaces import SURFACES


def is_prime(n: int) -> bool:
    """Primality by trial division to isqrt(n): the guard of `legendre` and
    `A_p`, whose primes stay far below 10^7."""
    return n > 1 and all(n % d for d in range(2, math.isqrt(n) + 1))


def primes_up_to(n: int) -> list[int]:
    if n < 2:
        return []
    sieve = bytearray([1]) * (n + 1)
    sieve[:2] = b"\0\0"
    for p in range(2, math.isqrt(n) + 1):
        if sieve[p]:
            sieve[p * p::p] = bytes(len(range(p * p, n + 1, p)))
    return [p for p, flag in enumerate(sieve) if flag]


def legendre(a: int, p: int) -> int:
    """Legendre symbol (a/p) for an odd prime p, via the Euler criterion."""
    if p == 2 or not is_prime(p):
        raise ValueError("legendre requires an odd prime")
    return _euler(a, p)


def _euler(a: int, p: int) -> int:
    """(a/p) by Euler's criterion, for an odd prime p the caller has checked."""
    e = pow(a, (p - 1) // 2, p)
    return e - p if e > 1 else e


# ---------------------------------------------------------------------------
# Torus count
# ---------------------------------------------------------------------------

def _torus_count(k: int, p: int) -> int:
    """N_k(p) = #{(x, y, z) in (F_p^*)^3 : x + 1/x + y + 1/y + z + 1/z = k}
    for an odd prime p < 2^30 that the caller has checked; raises where p | k,
    where the count does not give A_p (see `A_p`), and from p = 2^30.

    With w(a) = #{x in F_p^* : x + 1/x = a} = 1 + chi(a^2 - 4), the roots
    of x^2 - ax + 1, N_k(p) = sum_{a+b+c=k} w(a) w(b) w(c) = sum_c w(c)
    (w * w)(k - c): one cyclic self-convolution and one dot product, in
    O(p^1.585) time (CPython squares big ints by Karatsuba) and O(p) memory
    per prime.

    w is even, so it is chi + 1 read at the squares a^2, a = 0..m, m =
    (p-1)/2, shifted by 4, then mirrored.  One exact integer (Kronecker)
    square of w in b-byte slots, folded mod p in the integer, gives w * w: a
    folded slot sums p products of at most 2 * 2, so none carries while
    4p < 2^(8b), which b = 2 meets below 2^14 and b = 4 below 2^30.  w * w is
    even like w, so only its slots 0..m are folded, and

        N = ww(0) w(k) + sum_{j=1..m} ww(j) (w(k + j) + w(k - j)),

    half the multiply-adds of the full dot product; the pair sums come from
    one integer addition of two byte strings, each slot at most 4."""
    if k % p == 0:
        raise ValueError(f"p={p} divides k={k}")
    if p >= 1 << 30:
        raise ValueError(f"p={p}: w * w overflows 32-bit slots from p = 2^30")
    k %= p
    b = 2 if p < 1 << 14 else 4
    m = p // 2
    chi1 = bytearray(p)             # chi + 1
    sq = [t * t % p for t in range(m + 1)]
    for s in sq:
        chi1[s] = 2
    chi1[0] = 1
    chi1 = chi1[-4 % p:] + chi1[:-4 % p]    # chi(s - 4) + 1 at s
    w = bytes(itemgetter(*sq)(chi1))
    w += w[:0:-1]
    slots = bytearray(b * p)        # little-endian b-byte slots
    slots[::b] = w
    c = int.from_bytes(slots, "little") ** 2
    half = (1 << 8 * b * (m + 1)) - 1
    ww = array("H" if b == 2 else "I",
               ((c & half) + (c >> 8 * b * p & half)).to_bytes(b * (m + 1), "little"))
    if sys.byteorder == "big":
        ww.byteswap()
    # sum_c w(c) ww(k - c) = sum_j w(k + j) ww(j), and ww(j) = ww(p - j):
    # slot j of `pair` is w(k + j) + w(k - j) for j = 1..m, slot 0 is w(k)
    w = w[k:] + w[:k]
    pair = int.from_bytes(w[:m + 1], "little") + (int.from_bytes(w[:m:-1], "little") << 8)
    return sum(map(mul, pair.to_bytes(m + 1, "little"), ww))


# ---------------------------------------------------------------------------
# A_p
# ---------------------------------------------------------------------------

def A_p(k: int, p: int) -> int:
    """Transcendental L-coefficient A_p from the torus count N = N_k(p), for
    k in {3, 6, 18} with the rank and section field of the k's Surface record:

        A_p = N - p^2 + 3p - 5 - 2 chi(k^2 - 4) p,

    minus (d/p) p at rank 1, when the infinite section lives over Q(sqrt(d)).
    Raises at bad primes (those dividing the matched newform level, plus 2
    and 3), which include every prime dividing k.

    A_p is minus the sum of a_p(s) = p + 1 - #E(F_p) over the fibers E of the
    elliptic fibration y^2 + (u+1)xy = x(x-1)(x+u), u = s^2 - ks, over s in
    P^1(F_p), singular fibers included (the convention that reproduces the
    published A_p tables; the fiber scan is the tests' oracle).  Write
    a_p(u) for the fiber over u; a_p(0) = chi(-3), as (2y+x)^2 = x^2 (4x-3),
    and the fiber at s = infinity, 4x^3 + x^2 completed, has a_p = 1.
    Proof of N = p^2 - 3p + 5 + 2 chi(k^2 - 4) p - sum_s a_p(s) for p >= 5,
    p not dividing k, with e1, e2, e3 the elementary symmetric functions of
    (x, y, z) and of (X, Y, Z):

    1. Fiber the torus points by s = x + y + z = e1.  As 1/x + 1/y + 1/z =
       e2/e3, the surface is e2 = (k - s) e3.
    2. s != 0: (x, y, z) = s (X, Y, Z), X + Y + Z = 1, maps the fiber one to
       one onto the points of C_u : (X+Y+Z)(XY+YZ+ZX) + uXYZ = 0 in P^2(F_p)
       with XYZ(X+Y+Z) != 0; call their number T(u).
       - u != 0, -1: (-u(X+Y) : u(u+1)X : X+Y+(u+1)Z) is an isomorphism of
         C_u onto the projective fiber over u, so #C_u = p + 1 - a_p(u).  C_u
         has six points with XYZ = 0, (1:0:0), (0:1:0), (0:0:1), (0:1:-1),
         (1:0:-1), (1:-1:0), and none with X+Y+Z = 0 != XYZ, where it reads
         uXYZ = 0.  So T(u) = p - 5 - a_p(u).
       - u = -1: C_u is the triangle (X+Y)(Y+Z)(Z+X), 3p points, the same six
         off the torus; the fiber y^2 = x(x-1)^2 has a_p = 1.  So T(-1) =
         3p - 6 = p - 5 - a_p(-1) + 2p.
       - u = 0: C_u is the line X+Y+Z = 0 and the conic e2 = 0.  The conic's
         p + 1 points less (1:0:0), (0:1:0), (0:0:1) and the 1 + chi(-3)
         points (1:w:w^2), w^2 + w + 1 = 0, on the line give T(0) =
         p - 3 - chi(-3) = p - 5 - a_p(0) + 2.
    3. s = 0 is a cone: e1 = 0 and e2 = k e3 != 0.  The line X+Y+Z = 0 has
       p - 2 points with XYZ != 0; all but the 1 + chi(-3) points (1:w:w^2)
       have e2 != 0, and over each of those lies exactly one point of the
       fiber, l (X, Y, Z) with l = e2/(k e3).  That makes p - 3 - chi(-3).
    4. Sum: u = 0 at s = k only and u = -1 at the 1 + chi(k^2 - 4) roots of
       s^2 - ks + 1, while s = 0 and s = infinity carry a_p = chi(-3) and 1:
       N = (p-1)(p-5) - (sum_s a_p(s) - chi(-3) - 1) + 2
           + 2p (1 + chi(k^2 - 4)) + p - 3 - chi(-3),
       which is the identity.  At p | k the cone has (1 + chi(-3))(p - 1)
       points and s = k is the cone, so N is off by chi(-3) p.
    """
    surf = _surface(k)
    if p in surf.bad_primes:
        raise ValueError(f"p={p} is a bad prime for k={k}: "
                         f"excluded set {sorted(surf.bad_primes)}")
    if not is_prime(p):
        raise ValueError(f"p={p} is not prime")
    return _ap(surf, p)


def ap_scan(k: int, pmax: int) -> dict[int, int]:
    """A_p for all good primes p <= pmax, in increasing order."""
    surf = _surface(k)
    bad = surf.bad_primes
    return {p: _ap(surf, p) for p in primes_up_to(pmax) if p not in bad}


def _surface(k: int):
    """The Surface record of k, which must carry the rank A_p reads."""
    surf = SURFACES.get(k)
    if surf is None or surf.rank is None:
        raise ValueError(f"k={k} has no tabulated surface")
    return surf


def _ap(surf, p: int) -> int:
    """A_p from N_k(p) (see `A_p`), for a good prime p the caller has checked."""
    k = surf.k
    value = _torus_count(k, p) - p * p + 3 * p - 5 - 2 * _euler(k * k - 4, p) * p
    if surf.rank == 1:
        value -= _euler(surf.section_disc, p) * p
    return value
