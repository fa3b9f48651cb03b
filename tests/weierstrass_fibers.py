"""The Weierstrass fiber scan that assembled A_p before the torus count,
kept unchanged as the test oracle for `pointcount.A_p`.

A_p is minus the sum of the Weierstrass fibers' a_p(s) over all s in
P^1(F_p), singular fibers included, with an extra -(d/p) p for rank 1 when
the infinite section lives over Q(sqrt(d)).  With u = s^2 - ks each fiber's
value is a_p(s) = -chi(A) H(-u/A^2), A = (u^2+6u-3)/4, read from one table
H(r) = sum_y chi(y(y^2+y+r)), a cyclic convolution with the Legendre symbol;
at most two fibers with A = 0 are summed directly, at p = 1 mod 12 only and
over half of F_p.  u is even in s - k/2, so (p + 3)/2 values, weighted 1, 2,
..., 2, 1, give all p + 1 fibers of one prime in O(p log p) (`_half_table`):
below _NUMPY_FROM by one exact big-integer (Kronecker) product and a few list
passes over the squares mod p in pure Python, from there on by one numpy FFT,
whose rounding is checked."""

import sys
from array import array
from operator import add

from k3mahler.surfaces import SURFACES
from k3mahler.pointcount import legendre


def fiber_A_p(k: int, p: int) -> int:
    """A_p from the fiber sum, for k in {3, 6, 18} and a good prime p."""
    surf = SURFACES[k]
    value = -_fiber_sum(k, p)
    if surf.rank == 1:
        value -= legendre(surf.section_disc, p) * p
    return value


# Primes below this are scanned in pure Python, the rest by numpy's FFT: the
# break-even prime of these kernels, measured while they served A_p (where
# the pure kernel's extra time over all smaller primes first exceeds numpy's
# import; see CHANGES.md).
_NUMPY_FROM = 2450


def _fiber_sum(k: int, p: int) -> int:
    """sum_s a_p(s) over P^1(F_p): the half table weighted 1, 2, ..., 2, 1."""
    half = _half_table(k, p)
    total = half.sum() if p >= _NUMPY_FROM else sum(half)
    return int(2 * total - half[0] - half[-1])


def _half_table(k: int, p: int):
    """a_p(s) = p + 1 - #(Weierstrass fiber) at s = k/2 + t for t = 0..(p-1)/2,
    then at s = infinity, for a prime p > 3 that the caller has checked.

    The fibers are y^2 + (s^2-ks+1)xy = x(x-1)(x+s^2-ks) for s in F_p, plus
    the s = infinity fiber read in the reciprocal chart.  Singular fibers are
    counted on the (one-component) Weierstrass model; this is the convention
    that reproduces the published A_p tables.

    With u = s^2 - ks the completed square is (2y + (u+1)x)^2 = f_s(x),
    f_s(x) = 4x^3 + (u^2+6u-3)x^2 - 4ux, so a_p(s) = -G(u) with
    G(u) = sum_x chi(x^3 + A x^2 + B x), A = (u^2+6u-3)/4, B = -u.  For
    A != 0 the substitution x = A y gives G(u) = chi(A) H(B/A^2), where
    H(r) = sum_y chi(y (y^2 + y + r)) is one table for all fibers (see
    `_cubic_character_list`).  At the at most two roots of A (they exist
    when p = +-1 mod 12) G(u) is summed directly (`_cubic_sum`).  The
    s = infinity fiber, 4x^3 + x^2 = 4(x^3 + x^2/4), is the case A = 1/4,
    B = 0, so its value is -H(0).  Every step is a bijection of F_p or a
    factorisation of the same character sum, so the values are exact on
    singular fibers too.  u = t^2 - k^2/4 is even in t, so s = k/2 +- t
    share a value.  O(p log p) time and O(p) memory per prime: a list in
    pure Python below _NUMPY_FROM, an array from numpy from there on."""
    return (_half_table_fft if p >= _NUMPY_FROM else _half_table_small)(k, p)


def _half_table_small(k: int, p: int) -> list[int]:
    """_half_table in pure Python, for p < 8192 (see `_cubic_character_list`)."""
    m = p // 2
    sq = [t * t % p for t in range(m + 1)]
    chi1 = bytearray(p)             # chi + 1
    for s in sq:
        chi1[s] = 2
    chi1[0] = 1
    Hn = _cubic_character_list(p, chi1, sq)     # H + 2p
    inv = [0, 1] + [0] * (m - 1)    # inv[i] = 1/i mod p for i <= (p-1)/2
    for i in range(2, m + 1):
        inv[i] = -(p // i) * inv[p % i] % p
    isq = [v * v % p for v in inv]  # 1/i^2, even in i
    isq += isq[:0:-1]
    c = (k * (m + 1)) ** 2 % p      # (k/2)^2, so u = t^2 - c
    c6, c16, p2 = 6 - c, 16 * c, 2 * p
    # 4A = u^2 + 6u - 3: chi(4A) = chi(A), -u/A^2 = 16(c - t^2)/(4A)^2;
    # at 4A = 0 the factor 1 - chi1[0] is 0
    a4 = [((s - c) * (s + c6) - 3) % p for s in sq]
    half = [(1 - chi1[a]) * (Hn[(c16 - 16 * s) * isq[a] % p] - p2) for s, a in zip(sq, a4)]
    if p % 12 == 1:     # 4A has roots only at p = +-1 mod 12, G = 0 at 11
        for t, a in enumerate(a4):
            if not a:   # y^2 = x^3 - ux is smooth: u = 0 would make 4A = -3
                half[t] = -_cubic_sum((sq[t] - c) % p, p, chi1)
    return half + [p2 - Hn[0]]


def _cubic_sum(u: int, p: int, chi1) -> int:
    """G(u) = sum_x chi(x^3 - ux), the fiber sum where A = 0, from chi + 1.

    x -> -x gives G = chi(-1) G: G is 0 at p = 3 mod 4, and twice the sum
    over x = 1..(p-1)/2 at p = 1 mod 4."""
    if p % 4 == 3:
        return 0
    return 2 * sum([chi1[(x * x - u) * x % p] for x in range(1, (p + 1) // 2)]) - (p - 1)


def _cubic_character_list(p: int, chi1, sq: list[int]) -> list[int]:
    """H[r] + 2p, H[r] = sum_y chi(y (y^2 + y + r)), for every r in F_p, from
    chi1 = chi + 1 and sq[z] = z^2 for z = 0..(p-1)/2; for p < 8192.

    With z = y + 1/2, H(r) = sum_v g(v) chi(v + r - 1/4), where g(z^2) =
    chi(z - 1/2) + chi(-z - 1/2), g(0) = chi(-1/2) and g = 0 off the squares:
    the cyclic convolution of g(-v) with chi(x - 1/4).  As -1/2 = (p-1)/2,
    g + 2 at z^2 is a sum of two slices of chi1.  One exact integer (Kronecker)
    product of g(-v) + 2 and chi(x - 1/4) + 1 in 16-bit slots, folded mod p in
    the integer, gives it: a folded slot sums p products of at most
    4 * 2 < 2^16 / p, so none carries, and as sum g = sum chi = 0 it is H + 2p.
    """
    m = p // 2
    g = bytearray(b"\2") * p
    for s, v in zip(sq, map(add, chi1[m:], chi1[m::-1])):
        g[s] = v
    g[0] = chi1[m] + 1
    slots = bytearray(2 * p)        # little-endian 16-bit slots
    slots[0], slots[2::2] = g[0], g[:0:-1]
    a = int.from_bytes(slots, "little")
    j = pow(4, -1, p)
    slots[::2] = chi1[-j:] + chi1[:-j]
    c = a * int.from_bytes(slots, "little")
    slots = array("H", ((c & ((1 << 16 * p) - 1)) + (c >> 16 * p)).to_bytes(2 * p, "little"))
    if sys.byteorder == "big":
        slots.byteswap()
    return slots.tolist()


def _half_table_fft(k: int, p: int):
    """_half_table by numpy, with H from one real FFT."""
    import numpy as np
    from fft_oracle import legendre_table

    chi = legendre_table(p)
    H = _cubic_character_table(p, chi)
    x = np.arange(p, dtype=np.int64)
    inv4 = pow(4, -1, p)
    u = (x[:(p + 1) // 2] ** 2 - k * k * inv4 % p) % p
    A = (u * u + 6 * u - 3) % p * inv4 % p
    # A^(p-2) mod p elementwise: the inverse of nonzero A, and 0 at A = 0
    A_inv, base, e = np.ones_like(A), A, p - 2
    while e:
        if e & 1:
            A_inv = A_inv * base % p
        base = base * base % p
        e >>= 1
    G = chi[A] * H[(p - u) * A_inv % p * A_inv % p]
    for i in np.flatnonzero(A == 0):   # G = sum_x chi(x^3 - ux)
        G[i] = int(np.sum(chi[(x * x % p - u[i]) * x % p]))
    return -np.append(G, H[0])


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
