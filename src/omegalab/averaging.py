"""Cesaro and logarithmic averaging over finite index sets.

The two weightings are uniform weights on a finite set and 1/n weights
normalized by the harmonic mass.  cesaro_avg and log_avg sum with numpy's
pairwise summation, so their last bits depend on how the terms are
grouped.  harmonic_mass is the fsum of the profiles.CHUNK sums of 1/n,
the grouping of every 1/n pass in profiles, so a pass's mass equals it
bit for bit.  Reductions grouped differently agree only to rounding,
which a cancelling mean magnifies: at 10^7 the logarithmic parity mean
is 2.6e-11 relative off an fsum reference from a profile and 1.1e-12
from log_avg.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import profiles
from .errors import ContractError, EmptyDomainError
from .profiles import CESARO, LOGARITHMIC


@dataclass(frozen=True)
class WeightedAverage:
    weight_kind: str
    value: complex
    mass: float  # sum of weights: |A| for cesaro, sum 1/n for logarithmic
    count: int


def cesaro_avg(values) -> WeightedAverage:
    """Uniform average over a nonempty finite sequence."""
    arr = np.asarray(values)
    if arr.size == 0:
        raise EmptyDomainError("cesaro average over an empty set")
    total = complex(np.sum(arr.astype(np.complex128)))
    return WeightedAverage(CESARO, total / arr.size, float(arr.size), int(arr.size))


def log_avg(values, indices=None) -> WeightedAverage:
    """1/n-weighted average of values over the index set A.

    indices defaults to 1..len(values); every index must be >= 1.
    """
    arr = np.asarray(values, dtype=np.complex128)
    if arr.size == 0:
        raise EmptyDomainError("logarithmic average over an empty set")
    if indices is None:
        idx = np.arange(1, arr.size + 1, dtype=np.float64)
    else:
        idx = np.asarray(indices, dtype=np.float64)
        if idx.shape != arr.shape:
            raise ContractError("values and indices must have the same length")
        if idx.min() < 1:
            raise ContractError("logarithmic weights need indices >= 1")
    weights = 1.0 / idx
    mass = float(np.sum(weights))
    value = complex(np.sum(arr * weights)) / mass
    return WeightedAverage(LOGARITHMIC, value, mass, int(arr.size))


def harmonic_mass(n: int) -> float:
    """Sum of 1/k over 1 <= k <= n: the fsum of the chunk sums, as every 1/n pass."""
    if n < 1:
        raise EmptyDomainError("harmonic mass needs n >= 1")
    return math.fsum(float(inv_n.sum()) for _, _, inv_n in profiles.chunks(int(n)))


def cesaro_to_log_decompose(values, epsilon: float) -> dict:
    """Compare the log average on [N] with log-averaged Cesaro prefixes.

    values holds f(1), ..., f(N) for a 1-bounded f.  The comparison side
    averages the Cesaro means over prefixes [M] with N**epsilon < M < N,
    using 1/M weights.  Returns {lhs, rhs, residual}.
    """
    if not 0.0 < epsilon < 0.5:
        raise ContractError(f"epsilon must lie in (0, 1/2), got {epsilon}")
    arr = np.asarray(values, dtype=np.complex128)
    n_limit = arr.size
    if n_limit < 3:
        raise ContractError("decomposition needs N >= 3")
    lhs = log_avg(arr).value

    m_lo = int(math.floor(n_limit**epsilon)) + 1  # first integer > N**epsilon
    m_hi = n_limit - 1  # last integer < N
    if m_lo > m_hi:
        raise ContractError(
            f"no integers M with N**eps < M < N for N={n_limit}, eps={epsilon}"
        )
    prefix = np.cumsum(arr)
    m_range = np.arange(m_lo, m_hi + 1, dtype=np.float64)
    cesaro_means = prefix[m_lo - 1 : m_hi] / m_range
    weights = 1.0 / m_range
    rhs = complex(np.sum(cesaro_means * weights)) / float(np.sum(weights))
    return {"lhs": lhs, "rhs": rhs, "residual": abs(lhs - rhs)}
