"""Distribution of the prime-factor count over [N].

Densities of the level sets {n <= N : count(n) = ell} under both uniform
and 1/n weighting, the Gaussian model with mean and variance loglog N,
the typical range, a Kolmogorov-Smirnov audit of the central limit
behaviour, and the variance-type inequality for divisor-indicator sums
over arbitrary prime sets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import sieve
from .errors import ContractError, EmptyDomainError
from .profiles import CHUNK, NBINS, adopt_block, two_point_profile


@dataclass(frozen=True)
class GaussianModel:
    mu: float
    sigma: float


@dataclass(frozen=True)
class TypicalRange:
    A: float
    N: int
    lo: float
    hi: float
    members: tuple  # all integers in [lo, hi]


@dataclass(frozen=True)
class DensityTable:
    N: int
    counts: np.ndarray        # per-ell integer counts, index = ell
    pi_bar: np.ndarray        # counts / N
    pi_bar_log: np.ndarray    # (sum of 1/n over the level set) / harmonic mass
    gaussian: np.ndarray      # model density at each integer ell
    harmonic_mass: float


def gaussian_model(n_limit: int) -> GaussianModel:
    if n_limit < 3:
        raise ContractError("model needs n_limit >= 3 so loglog is positive")
    mu = math.log(math.log(n_limit))
    return GaussianModel(mu=mu, sigma=math.sqrt(mu))


def gaussian_density(x, model: GaussianModel):
    """Model density at x, a number or an array of levels."""
    if not model.sigma > 0:
        raise ContractError("gaussian density needs sigma > 0")
    z = (np.asarray(x, dtype=np.float64) - model.mu) / model.sigma
    return np.exp(-0.5 * z * z) / (model.sigma * math.sqrt(2.0 * math.pi))


def normal_cdf(x) -> np.ndarray:
    """Standard normal CDF via the complementary error function."""
    x = np.asarray(x, dtype=np.float64)
    return 0.5 * np.vectorize(math.erfc, otypes=[np.float64])(-x / math.sqrt(2.0))


def typical_range(A: float, n_limit: int) -> TypicalRange:
    if A < 1:
        raise ContractError("typical range needs A >= 1")
    model = gaussian_model(n_limit)
    lo = model.mu - A * model.sigma
    hi = model.mu + A * model.sigma
    members = tuple(range(math.ceil(lo), math.floor(hi) + 1))
    return TypicalRange(A=float(A), N=int(n_limit), lo=lo, hi=hi, members=members)


def density_table(n_limit: int, counts_block=None) -> DensityTable:
    """Level-set densities of the multiplicity count over [N].

    The ell=0 row (n=1 alone) is kept so the uniform densities partition
    exactly.  Read off the marginal (N, 0) profile of the shared block,
    which is the row sums of the (N, 1) profile and so reads count(N + 1);
    a prepared multiplicity FactorCountBlock covering [1, N + 1] (hi >= N + 2)
    is checked and adopted as that block, so its sieve run is reused.
    """
    if n_limit < 3:
        raise ContractError("density table needs N >= 3")
    if counts_block is not None:
        if counts_block.hi < n_limit + 2:
            raise ContractError("counts block must cover [1, N + 1]: "
                                "the (N, 1) pass reads count(N + 1)")
        adopt_block(counts_block)
    profile = two_point_profile(n_limit, 0)
    gauss = gaussian_density(np.arange(NBINS, dtype=np.float64), gaussian_model(n_limit))
    return DensityTable(
        N=int(n_limit),
        counts=profile.hist,
        pi_bar=profile.hist / float(n_limit),
        pi_bar_log=profile.log_hist / profile.harmonic_mass,
        gaussian=gauss,
        harmonic_mass=profile.harmonic_mass,
    )


def sathe_selberg_ratio_check(n_limit: int, A: float, counts_block=None) -> dict:
    """Ratios of measured level densities to the Gaussian model on T_{A,N}.

    Restricted to the positive integers of the typical range: the
    underlying estimate is stated for positive ell, and the ell=0 level
    holds the single integer 1, whose density 1/N says nothing about the
    model.  Returns the per-ell table and the max of |ratio - 1|.
    """
    window = typical_range(A, n_limit)
    members = [ell for ell in window.members if ell >= 1]
    if not members:
        raise EmptyDomainError(f"typical range T_({A},{n_limit}) has no positive integers")
    table = density_table(n_limit, counts_block=counts_block)
    rows = []
    max_dev = 0.0
    for ell in members:
        ratio = float(table.pi_bar[ell] / table.gaussian[ell])
        dev = abs(ratio - 1.0)
        max_dev = max(max_dev, dev)
        rows.append({"ell": ell, "pi_bar": float(table.pi_bar[ell]),
                     "gaussian": float(table.gaussian[ell]), "ratio": ratio,
                     "deviation": dev})
    return {"window": window, "rows": rows, "max_deviation": max_dev}


def erdos_kac_ks(n_limit: int, counts_block=None) -> dict:
    """Kolmogorov-Smirnov distance of the standardized count to N(0,1).

    The empirical CDF is right-continuous; the sup is scanned at the jump
    points, comparing the normal CDF against both the value at the jump
    and the left limit, which is where a jump-vs-continuous sup lives.
    """
    if n_limit < 10**4:
        raise ContractError("KS audit wants N >= 1e4")
    table = density_table(n_limit, counts_block=counts_block)
    model = gaussian_model(n_limit)
    cum = np.cumsum(table.pi_bar)
    x = (np.arange(NBINS) - model.mu) / model.sigma
    phi = normal_cdf(x)
    left = np.concatenate(([0.0], cum[:-1]))
    ks = float(np.max(np.maximum(np.abs(cum - phi), np.abs(left - phi))))
    return {"ks": ks, "normalized": ks * math.sqrt(model.mu)}


def count_histogram(counts: np.ndarray) -> np.ndarray:
    """np.bincount(counts) of a uint8 array, trimmed after its last nonzero bin.

    bincount casts its input to intp, eight bytes an entry; here only one
    profiles.CHUNK of it is cast at a time, so no copy of the array is made.
    """
    hist = np.zeros(256, dtype=np.int64)
    for a in range(0, counts.size, CHUNK):
        hist += np.bincount(counts[a : a + CHUNK], minlength=256)
    return np.trim_zeros(hist, "b")


def turan_kubilius_check(n_limit: int, prime_set) -> dict:
    """Exact variance-type inequality for a divisor-indicator sum.

    lhs = mean over n <= N of |sum_{p in P} [p | n] - sum_{p in P} 1/p|,
    rhs = 2 sqrt(sum_{p in P} 1/p); holds must be True for every prime set
    P inside [1, N].
    """
    p_arr = np.asarray(list(prime_set), dtype=np.int64)
    if p_arr.size == 0:
        return {"lhs": 0.0, "rhs": 0.0, "holds": True}
    p_arr = np.unique(p_arr)
    if p_arr[0] < 2 or p_arr[-1] > n_limit:
        raise ContractError("prime set must lie inside [2, N]")
    sieve.require_primes(p_arr, "prime set")
    indicator_sum = np.zeros(n_limit, dtype=np.uint8)   # index = n - 1
    for p in p_arr:
        indicator_sum[p - 1 :: p] += 1
    expected = float(np.sum(1.0 / p_arr.astype(np.float64)))
    hist = count_histogram(indicator_sum)
    lhs = float(hist @ np.abs(np.arange(hist.size) - expected)) / n_limit
    rhs = 2.0 * math.sqrt(expected)
    return {"lhs": lhs, "rhs": rhs, "holds": bool(lhs <= rhs)}


def density_l1_gap(n_limit: int, counts_block=None) -> float:
    """L1 distance between the uniform and logarithmic density columns."""
    if n_limit < 10**4:
        raise ContractError("density gap audit wants N >= 1e4")
    table = density_table(n_limit, counts_block=counts_block)
    return float(np.sum(np.abs(table.pi_bar - table.pi_bar_log)))


def write_density_csv(table: DensityTable, handle) -> None:
    """CSV rows `ell,pi_bar,pi_bar_log,gaussian,ratio` (17 digits) to an open file."""
    handle.write("ell,pi_bar,pi_bar_log,gaussian,ratio\n")
    for ell in range(NBINS):
        if table.counts[ell] == 0 and table.gaussian[ell] < 1e-300:
            continue
        ratio = table.pi_bar[ell] / table.gaussian[ell]
        handle.write("%d,%.17g,%.17g,%.17g,%.17g\n" % (
            ell, table.pi_bar[ell], table.pi_bar_log[ell],
            table.gaussian[ell], ratio))
