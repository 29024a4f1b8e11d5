"""Two-point correlation experiments for functions of the prime-factor count.

The central objects are averages of a(count(n)) * b(count(n+shift)) under
Cesaro or logarithmic weighting, their independence-style prediction (the
product of marginal means), level-set resolved discrepancy sums, the
prime-shift identity, and small exploratory k-point products.  Everything
is exact given the sieve output: the bounded functions only see count
values, so the joint level-set statistics of `profiles` are sufficient.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import CapacityError, ContractError
from .profiles import (CESARO, LOGARITHMIC, NBINS, check_weighting, joint_mean,
                       level_histograms, log_joints, two_point_profile)
from .sieve import require_primes

MODULUS_SLACK = 1e-12


@dataclass(frozen=True)
class BoundedFunction:
    """Complex function of a nonnegative integer level, capped in modulus.

    values maps levels to complex numbers; levels outside the map take
    default_value (0 unless stated), which is also what level -1 means in
    downshift constructions.
    """

    bound: float = 1.0
    values: dict = field(default_factory=dict)
    default_value: complex = 0.0

    def __post_init__(self):
        if not self.bound > 0:
            raise ContractError("bound must be positive")
        cap = self.bound + MODULUS_SLACK
        if abs(self.default_value) > cap:
            raise ContractError("default_value exceeds the stated bound")
        for ell, val in self.values.items():
            if ell < 0:
                raise ContractError("levels must be nonnegative")
            if abs(val) > cap:
                raise ContractError(f"value at level {ell} exceeds the bound")

    def __call__(self, ell: int) -> complex:
        return complex(self.values.get(int(ell), self.default_value))

    def table(self, length: int = NBINS) -> np.ndarray:
        out = np.full(length, complex(self.default_value), dtype=np.complex128)
        for ell, val in self.values.items():
            if ell < length:
                out[ell] = val
        return out

    def down_shifted(self) -> "BoundedFunction":
        """The function level -> self(level - 1), with self.default at 0."""
        vals = {ell + 1: val for ell, val in self.values.items() if ell + 1 < NBINS}
        vals[0] = self.default_value
        shifted = dict.fromkeys(range(1, NBINS), self.default_value)
        shifted.update(vals)
        return BoundedFunction(self.bound, shifted, self.default_value)


def constant_function(c) -> BoundedFunction:
    c = complex(c)
    return BoundedFunction(bound=max(abs(c), 1e-300), default_value=c)


def parity_function() -> BoundedFunction:
    return BoundedFunction(values={ell: (-1.0) ** ell for ell in range(NBINS)})


def indicator_function(level: int) -> BoundedFunction:
    if not 0 <= level < NBINS:
        raise ContractError(f"indicator level must be in [0, {NBINS})")
    return BoundedFunction(values={int(level): 1.0 + 0.0j})


def fourier_mode_function(xi: int, interval_size: int) -> BoundedFunction:
    """level -> e(xi * level / interval_size)."""
    if interval_size < 1:
        raise ContractError("interval size must be >= 1")
    theta = 2.0 * math.pi * xi / interval_size
    return BoundedFunction(values={
        ell: complex(math.cos(theta * ell), math.sin(theta * ell))
        for ell in range(NBINS)
    })


def random_bounded_function(seed: int) -> BoundedFunction:
    """Values drawn uniformly on the closed unit disc, reproducibly."""
    rng = np.random.default_rng(seed)
    radii = np.sqrt(rng.uniform(0.0, 1.0, NBINS))
    angles = rng.uniform(0.0, 2.0 * math.pi, NBINS)
    vals = radii * np.exp(1j * angles)
    return BoundedFunction(values={ell: complex(vals[ell]) for ell in range(NBINS)})


@dataclass(frozen=True)
class CorrelationReport:
    N: int
    lhs: complex
    prediction: complex
    error: float
    weighting: str
    metadata: dict


def two_point_lhs(a: BoundedFunction, b: BoundedFunction, n_limit: int,
                  shift: int = 1, weighting: str = LOGARITHMIC) -> complex:
    """Average of a(count(n)) * b(count(n+shift)) over n <= N."""
    if n_limit < 3:
        raise ContractError("two-point average needs N >= 3")
    if shift < 1:
        raise ContractError("shift must be >= 1")
    check_weighting(weighting)
    profile = two_point_profile(n_limit, shift)
    return profile.pair_mean(a.table(), b.table(), weighting)


def theorem_a_report(a: BoundedFunction, b: BoundedFunction,
                     n_limit: int) -> CorrelationReport:
    """Log-averaged two-point correlation against the product of Cesaro means."""
    if n_limit < 10**3:
        raise ContractError("correlation report wants N >= 1e3")
    profile = two_point_profile(n_limit, 1)
    lhs = profile.pair_mean(a.table(), b.table(), LOGARITHMIC)
    prediction = profile.mean(a.table(), CESARO) * profile.mean(b.table(), CESARO)
    return CorrelationReport(
        N=int(n_limit), lhs=lhs, prediction=prediction,
        error=abs(lhs - prediction), weighting=LOGARITHMIC,
        metadata={"shift": 1, "a_bound": a.bound, "b_bound": b.bound},
    )


def theorem_c_sum(a: BoundedFunction, n_limit: int) -> float:
    """Density-weighted sum of level-resolved correlation discrepancies.

    sum over ell of pi_bar_ell * |E^log over the ell-level set of
    a(count(n+1)) - cesaro mean of a(count(n))|; empty levels contribute 0.
    """
    if n_limit < 10**3:
        raise ContractError("discrepancy sum wants N >= 1e3")
    profile = two_point_profile(n_limit, 1)
    ta = a.table()
    with np.errstate(invalid="ignore", divide="ignore"):
        row_means = (profile.joint_log.astype(np.complex128) @ ta) / profile.log_hist
    disc = np.abs(row_means - profile.mean(ta, CESARO))
    disc[profile.log_hist == 0.0] = 0.0
    return float(np.sum(profile.hist / profile.n_limit * disc))


def prime_shift_identity(a: BoundedFunction, b: BoundedFunction, n_limit: int,
                         window) -> dict:
    """Compare the shift-1 correlation with its prime-shifted form.

    lhs log-averages a(count(n)) b(count(n+1)); rhs log-averages over
    window primes p the correlation of the down-shifted functions at shift
    p, weighted by 1/p.  Both contract the 1/n-weighted joints of
    profiles.log_joints with pair_mean's expression, so each is the bits of
    two_point_profile(N, h).pair_mean(.., LOGARITHMIC).  The shifts not in
    the profile cache share one pass with no Cesaro bincount, and nothing
    is cached.
    """
    p_arr = np.unique(np.asarray(list(window), dtype=np.int64))
    if p_arr.size == 0:
        raise ContractError("prime window is empty")
    if n_limit < 10 * int(p_arr[-1]):
        raise ContractError("need N >= 10 * max window prime")
    require_primes(p_arr, "window")
    (first, *shifted), mass = log_joints(n_limit, [1, *p_arr.tolist()])
    lhs = joint_mean(a.table(), first, b.table(), mass)
    ta = a.down_shifted().table()
    tb = b.down_shifted().table()
    inner = np.array([joint_mean(ta, joint, tb, mass) for joint in shifted])
    weights = 1.0 / p_arr.astype(np.float64)
    rhs = complex(np.sum(inner * weights) / np.sum(weights))
    return {"lhs": lhs, "rhs": rhs, "gap": abs(lhs - rhs)}


def k_point_explore(functions, n_limit: int, weighting: str = CESARO) -> dict:
    """Joint average of up to four consecutive-shift factors; EXPLORATORY.

    Returns the joint average, the product of marginal averages over [N],
    and their gap.  The joint average contracts the k tables with the level
    histogram of the offsets 0 .. k-1 in base L = (N+k).bit_length(), which
    bounds every level read since count(n) <= log2(n): L^k bins, about 5.3e5
    at k = 4 and N = 1e8.  The marginal of count(n) is that histogram summed
    over its trailing offsets, so one pass serves both.  Up to 2^16 bins
    (k <= 3 for N < 2^40) the pass indexes its bins in uint16.
    """
    functions = list(functions)
    k = len(functions)
    if k < 1:
        raise ContractError("need at least one function")
    if k > 4:
        raise CapacityError("k-point exploration is capped at k = 4")
    if n_limit < 10**3:
        raise ContractError("exploration wants N >= 1e3")
    check_weighting(weighting)
    base = (n_limit + k).bit_length()
    ((hist,),), mass = level_histograms(n_limit, [tuple(range(k))], base, (weighting,))
    total = n_limit if weighting == CESARO else mass
    # padded to NBINS levels, so a Cesaro mean is profile.mean's dot bit for bit
    marginal = np.zeros(NBINS, np.complex128)
    marginal[:base] = hist.reshape(base, -1).sum(axis=1)
    value = hist.astype(np.complex128)
    for fn in reversed(functions):   # the last factor is the fastest index
        value = value.reshape(-1, base) @ fn.table(base)
    joint = complex(value[0]) / total
    product = complex(np.prod([complex(fn.table() @ marginal) / total for fn in functions]))
    return {
        "label": "EXPLORATORY",
        "k": k,
        "weighting": weighting,
        "value": joint,
        "marginal_product": product,
        "independence_gap": abs(joint - product),
    }
