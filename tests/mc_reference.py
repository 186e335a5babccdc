"""The Monte Carlo oracle as one pass over each sample chunk, kept as a test reference.

``zetalab.verify.mc_integral`` draws and evaluates each chunk in cache-sized
row blocks.  This is the straightforward spelling it replaced: every numpy
operation runs over the whole chunk, and R is evaluated one column of samples
at a time.  The draws and the order of every floating-point operation are
the same, so the tests require ``==`` estimates.

Each chunk's draws come from ``verify._draws``, looked up on the module at
each chunk.  ``chunk_draws`` spells out, in Python integers, the draws it
must return: the SplitMix64 stream, one output per draw, each mapped to the
midpoint of one of 2**52 equal cells of [0, 1).
"""

from __future__ import annotations

import math

import numpy as np

from zetalab import verify
from zetalab.moments import check_series_args


def splitmix64(x0: int, k: int) -> int:
    """Output k >= 1 of the SplitMix64 stream seeded with x0 (Steele, Lea & Flood 2014)."""
    z = (x0 + k * 0x9E3779B97F4A7C15) % 2**64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) % 2**64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) % 2**64
    return z ^ (z >> 31)


def chunk_draws(seed: int, chunk: int, start: int, count: int) -> list[float]:
    """Draws start, start + 1, ..., start + count - 1 (from 0) of a chunk.

    Draw i of chunk c is output c * 2**40 + 1 + i of the stream seeded with
    seed mod 2**64, its top 52 bits, then a 1, scaled by 2**-53: an odd
    multiple of 2**-53 in [2**-53, 1 - 2**-53].
    """
    x0, first = seed % 2**64, chunk * 2**40 + 1 + start
    return [((splitmix64(x0, k) >> 11) | 1) * 2.0**-53 for k in range(first, first + count)]


def clenshaw(c: np.ndarray, x: np.ndarray) -> np.ndarray:
    """sum_k c_k T_k(2x - 1) at every entry of x, by Clenshaw's recurrence."""
    y = 2.0 * x - 1.0
    b1 = np.zeros_like(y)
    b2 = np.zeros_like(y)
    for ck in c[:0:-1]:
        b1, b2 = ck + 2.0 * y * b1 - b2, b1
    return c[0] + y * b1 - b2


def mc_integral(poly, r: int, v: int, z: float = 0.0, samples: int = 100_000, seed: int = 0):
    """verify.mc_integral's estimate, one whole-chunk numpy pass per step."""
    poly = check_series_args(poly, r, v)
    z = float(z)
    if z < 0:
        raise ValueError("z must be >= 0 (negative z moves poles into range)")
    if samples < 10**4:
        raise ValueError("samples must be >= 10**4")
    cheb = verify._shifted_chebyshev(poly)
    sums: list[float] = []
    sqs: list[float] = []
    done = 0
    chunk = 0
    while done < samples:
        m = min(verify._MC_CHUNK, samples - done)
        u = verify._draws(seed % 2**64, chunk * 2**40 + 1, (m, r))
        prod = u.prod(axis=1)
        weight = 1.0 / (1.0 - prod)
        if v:
            weight = weight * (-np.log(prod)) ** v
        if z > 0:
            weight = weight * prod**z
        fx = weight * math.prod(clenshaw(cheb, column) for column in u.T)
        sums.append(float(np.sum(fx)))
        sqs.append(float(np.sum(fx * fx)))
        done += m
        chunk += 1
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
