"""The Monte Carlo oracle as one pass over all samples, kept as a test reference.

``zetalab.verify.mc_integral`` draws and evaluates the samples in blocks of
``_MC_BLOCK // r`` rows.  This is the straightforward spelling: it draws
every sample at once, every numpy operation runs over all of them, and R is
evaluated one column of samples at a time.  Only the sums are taken over
consecutive slices of the same rows as the blocks.  The draws and the order
of every floating-point operation are the same, so the tests require ``==``
estimates.  R's coefficients in the shifted Chebyshev basis come from the
``Fraction`` Horner loop in ``fraction_reference``, not from the library.

The draws come from ``verify._draws``, looked up on the module at each run.
``stream_draws`` spells out, in Python integers, the draws it must return:
the SplitMix64 stream, one output per draw, each mapped to the midpoint of
one of 2**52 equal cells of [0, 1).
"""

from __future__ import annotations

import math

import numpy as np

from fraction_reference import shifted_chebyshev
from zetalab import verify
from zetalab.decomp import check_series_args


def splitmix64(x0: int, k: int) -> int:
    """Output k >= 1 of the SplitMix64 stream seeded with x0 (Steele, Lea & Flood 2014)."""
    z = (x0 + k * 0x9E3779B97F4A7C15) % 2**64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) % 2**64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) % 2**64
    return z ^ (z >> 31)


def stream_draws(seed: int, first: int, count: int) -> list[float]:
    """The draws of outputs first, first + 1, ..., first + count - 1 of the stream.

    Each is output k of the stream seeded with seed mod 2**64, its top 52
    bits, then a 1, scaled by 2**-53: an odd multiple of 2**-53 in
    [2**-53, 1 - 2**-53].
    """
    x0 = seed % 2**64
    return [((splitmix64(x0, k) >> 11) | 1) * 2.0**-53 for k in range(first, first + count)]


def clenshaw(c: np.ndarray, x: np.ndarray) -> np.ndarray:
    """sum_k c_k T_k(2x - 1) at every entry of x, by Clenshaw's recurrence."""
    y = 2.0 * x - 1.0
    b1 = np.zeros_like(y)
    b2 = np.zeros_like(y)
    for ck in c[:0:-1]:
        b1, b2 = ck + 2.0 * y * b1 - b2, b1
    return c[0] + y * b1 - b2


def mc_integral(poly, r: int, v: int, samples: int = 100_000, seed: int = 0):
    """verify.mc_integral's estimate, from one numpy pass over all samples."""
    poly = check_series_args(poly, r, v)
    if samples < 10**4:
        raise ValueError("samples must be >= 10**4")
    cheb = shifted_chebyshev(poly)
    u = verify._draws(seed % 2**64, 1, (samples, r))
    prod = u.prod(axis=1)
    weight = 1.0 / (1.0 - prod)
    if v:
        weight = weight * (-np.log(prod)) ** v
    fx = weight * math.prod(clenshaw(cheb, column) for column in u.T)
    rows = max(1, verify._MC_BLOCK // r)
    blocks = [fx[lo : lo + rows] for lo in range(0, samples, rows)]
    sums = [float(np.sum(b)) for b in blocks]
    sqs = [float(np.sum(b * b)) for b in blocks]
    s1 = math.fsum(sums)
    s2 = math.fsum(sqs)
    mean = s1 / samples
    var = max(0.0, (s2 - samples * mean * mean) / (samples - 1))
    return verify.MCEstimate(
        mean=mean,
        stderr=math.sqrt(var / samples),
        samples=samples,
        seed=seed,
        rejected=0,
    )
