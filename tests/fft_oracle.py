"""The torus count N_k(p) by one numpy FFT, the test oracle for
`pointcount._torus_count`, and the Legendre table that it and the other
numpy oracles (`weierstrass_fibers`, `test_pointcount`) read."""

import numpy as np


def legendre_table(p: int):
    """chi[t] = (t/p) for t in 0..p-1, as a numpy array."""
    chi = -np.ones(p, dtype=np.int64)
    chi[0] = 0
    sq = (np.arange(1, p, dtype=np.int64) ** 2) % p
    chi[sq] = 1
    return chi


def torus_count_fft(k: int, p: int) -> int:
    """N_k(p) for an odd prime p not dividing k: with w(a) = 1 + chi(a^2 - 4),
    sum_c w(c) (w * w)(k - c), w * w from one real FFT of length a power of
    two >= 2p - 1, folded mod p.

    Since 0 <= w <= 2, the floating-point error of each entry is of order
    eps * log2(n) * ||w||_2^2 <= eps * log2(n) * 4p, below 1e-8 for
    p < 10^6; an entry at least 0.1 from an integer raises ArithmeticError
    instead of being rounded."""
    a = np.arange(p, dtype=np.int64)
    w = 1 + legendre_table(p)[(a * a - 4) % p]
    n = 1 << (2 * p - 2).bit_length()
    f = np.fft.rfft(w, n)
    conv = np.fft.irfft(f * f, n)
    ww = conv[:p]
    ww[:p - 1] += conv[p:2 * p - 1]
    rounded = np.rint(ww)
    if np.max(np.abs(ww - rounded)) >= 0.1:
        raise ArithmeticError(f"FFT convolution at p={p} is not integral")
    return int(np.dot(np.roll(w, -(k % p)), rounded.astype(np.int64)))
