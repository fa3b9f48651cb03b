"""Finite-field point counting on the fibers of the K3 pencil and assembly of
the transcendental L-coefficients A_p.

A_p is assembled from the Weierstrass fibers over all s in P^1(F_p),
singular fibers included.  With u = s^2 - ks each fiber's value is
a_p(s) = -chi(A) H(-u/A^2), A = (u^2+6u-3)/4, read from one table
H(r) = sum_y chi(y(y^2+y+r)), the cyclic convolution of a bincount with the
Legendre symbol; at most two fibers with A = 0 are summed directly.  So all
p + 1 fibers of one prime cost O(p log p) together (see
`weierstrass_fiber_ap_values`).  Two kernels compute the convolution, chosen
by p alone: below _NUMPY_FROM one exact big-integer (Kronecker) product in
pure Python, so small primes, and `verify` at its default pmax, never import
numpy; from _NUMPY_FROM on one numpy FFT, whose rounding is checked.

A_p = -sum_s a_p(s) for rank 0, with an extra -(d/p) p for rank 1 when the
infinite section lives over Q(sqrt(d))."""

from __future__ import annotations

import math
from typing import Iterable

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
    a %= p
    if a == 0:
        return 0
    return 1 if pow(a, (p - 1) // 2, p) == 1 else -1


def _legendre_list(p: int) -> list[int]:
    """chi[t] = (t/p) for t in 0..p-1."""
    chi = [-1] * p
    chi[0] = 0
    for x in range(1, p // 2 + 1):
        chi[x * x % p] = 1
    return chi


def _legendre_table(p: int):
    """chi[t] = (t/p) for t in 0..p-1, as a numpy array."""
    import numpy as np

    chi = -np.ones(p, dtype=np.int64)
    chi[0] = 0
    sq = (np.arange(1, p, dtype=np.int64) ** 2) % p
    chi[sq] = 1
    return chi


# ---------------------------------------------------------------------------
# Fiber scan
# ---------------------------------------------------------------------------

# Primes below this are scanned in pure Python, the rest by numpy's FFT; with
# numpy already loaded the two take equal time at p = 110-150 (2-core x86-64).
_NUMPY_FROM = 150


def weierstrass_fiber_ap_values(k: int, p: int) -> list[int]:
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
    `_cubic_character_list`).  At the at most two roots of A (they exist
    when p = +-1 mod 12) G(u) = sum_x chi(x^3 - ux) is summed directly.  The
    s = infinity fiber, 4x^3 + x^2 = 4(x^3 + x^2/4), is the case A = 1/4,
    B = 0, so its value is -H(0).  Every step is a bijection of F_p or a
    factorisation of the same character sum, so the values are exact on
    singular fibers too.  Cost: O(p log p) time and O(p) memory per prime,
    in pure Python below _NUMPY_FROM and in numpy from there on.
    """
    if p in (2, 3) or not is_prime(p):
        raise ValueError("p must be a prime not dividing 6")
    return (_fiber_values_fft if p >= _NUMPY_FROM else _fiber_values_small)(k, p)


def _fiber_values_small(k: int, p: int) -> list[int]:
    """weierstrass_fiber_ap_values in pure Python."""
    chi = _legendre_list(p)
    H = _cubic_character_list(p, chi)
    inv4 = pow(4, -1, p)
    values = []
    for s in range(p):
        u = s * (s - k) % p
        A = (u * u + 6 * u - 3) * inv4 % p
        if A:
            A_inv = pow(A, -1, p)
            values.append(-chi[A] * H[(p - u) * A_inv * A_inv % p])
        else:   # y^2 = x^3 - ux is smooth here: u = 0 would make A = -3/4
            values.append(p + 1 - count_weierstrass((0, 0, 0, -u, 0), p))
    return values + [-H[0]]


def _cubic_character_list(p: int, chi: list[int]) -> list[int]:
    """H[r] = sum_y chi(y (y^2 + y + r)) for every r in F_p.

    With w = -y^2 - y, chi(y^2 + y + r) = chi(r - w), so H is the cyclic
    convolution of h(w) = sum_{y: -y^2-y = w} chi(y) with chi.  It is taken
    as one exact integer (Kronecker) product of h + 2 and chi + 1, packed in
    slots wide enough for their coefficients (at most 4 * 2 * p), and folded
    mod p: sum h = sum chi = 0, so the shifts add exactly 2p to each entry.
    """
    h = [2] * p
    for y in range(p):
        h[-y * (y + 1) % p] += chi[y]
    width = ((8 * p).bit_length() + 7) // 8

    def pack(values):    # little-endian slots of `width` bytes; values < 256
        slots = bytearray(width * p)
        slots[::width] = bytes(values)
        return int.from_bytes(slots, "little")

    buf = (pack(h) * pack([c + 1 for c in chi])).to_bytes(2 * p * width, "little")
    conv = list(buf[::width])
    for j in range(1, width):
        conv = [c + (b << 8 * j) for c, b in zip(conv, buf[j::width])]
    return [conv[r] + conv[r + p] - 2 * p for r in range(p)]


def _fiber_values_fft(k: int, p: int) -> list[int]:
    """weierstrass_fiber_ap_values by numpy, with H from one real FFT."""
    import numpy as np

    chi = _legendre_table(p)
    H = _cubic_character_table(p, chi)
    s = np.arange(p, dtype=np.int64)
    u = s * (s - k % p) % p
    A = (u * u + 6 * u - 3) % p * pow(4, -1, p) % p
    # A^(p-2) mod p elementwise: the inverse of nonzero A, and 0 at A = 0
    A_inv, base, e = np.ones_like(A), A, p - 2
    while e:
        if e & 1:
            A_inv = A_inv * base % p
        base = base * base % p
        e >>= 1
    G = chi[A] * H[(p - u) * A_inv % p * A_inv % p]
    for i in np.flatnonzero(A == 0):   # G = sum_x chi(x^3 - ux), x over F_p as s
        G[i] = int(np.sum(chi[(s * s % p - u[i]) * s % p]))
    return (-np.append(G, H[0])).tolist()


def _cubic_character_table(p: int, chi):
    """H[r] = sum_y chi(y (y^2 + y + r)) for every r in F_p, by numpy.

    The convolution of `_cubic_character_list` is taken as one real FFT of
    length a power of two >= 2p - 1, folded mod p.  Since |h| <= 2 and
    |chi| <= 1, the floating-point error of each entry is of order
    eps * log2(n) * ||h||_2 ||chi||_2 <= eps * log2(n) * 2p, below 1e-8 for
    p < 10^6; an entry at least 0.1 from an integer raises ArithmeticError
    instead of being rounded.
    """
    import numpy as np

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
    value = -sum(weierstrass_fiber_ap_values(k, p))
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
    chi = _legendre_list(p)
    return sum(1 + chi[(((4 * x + b2) * x + 2 * b4) * x + b6) % p] for x in range(p)) + 1


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
