"""The Monte Carlo oracle as one pass over each sample chunk, kept as a test reference.

``zetalab.verify.mc_integral`` walks each chunk in cache-sized row blocks.
This is the straightforward spelling it replaced: every numpy operation runs
over the whole chunk, and R is evaluated one column of samples at a time.
The draws, the rejection rule and the order of every floating-point
operation are the same, so the tests require ``==`` estimates.

The generator is looked up on the ``verify`` module at each chunk, so a test
that replaces ``verify._chunk_rng`` changes the draws of both spellings.
"""

from __future__ import annotations

import math

import numpy as np

from zetalab import verify
from zetalab.moments import check_series_args


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
    reject_faces = v >= 1
    sums: list[float] = []
    sqs: list[float] = []
    rejected = 0
    done = 0
    chunk = 0
    while done < samples:
        m = min(verify._MC_CHUNK, samples - done)
        rng = verify._chunk_rng(seed, chunk)
        u = rng.random((m, r))
        prod = u.prod(axis=1)
        for _ in range(100):
            bad = prod == 1.0
            if reject_faces:
                bad |= prod == 0.0
            nbad = int(bad.sum())
            if nbad == 0:
                break
            rejected += nbad
            u[bad] = rng.random((nbad, r))
            prod[bad] = u[bad].prod(axis=1)
        else:
            raise RuntimeError("singular-sample rejection did not settle")
        with np.errstate(divide="ignore"):
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
        rejected=rejected,
    )
