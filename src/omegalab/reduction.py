"""Fourier reduction experiments over prime windows.

This module turns a two-point correlation question about bounded level
functions into frequency-space quantities that can be measured directly:

* prime windows from the shrinking-window formulas or explicit edges,
  their work costed from the edges before any prime is sieved,
* discrete Fourier expansion of a bounded function over a symmetric
  integer interval, with a Parseval audit,
* the reduced mean-square sum that controls the correlation error, one
  term per frequency, averaged over shifts by primes from a window; each
  term contracts one |I| x |I| class covariance built in a streamed pass,
  the common count classes by a batched FFT, the rare ones scattered,
* Taylor truncation of the complex exponential with its factorial tail
  bound,
* exponential sums over prime windows and a grid estimate of the measure
  of the alpha set where they are large.

Throughout, e(x) means exp(2*pi*i*x).
"""

from __future__ import annotations

import csv
import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import CapacityError, ContractError, DegenerateWindowError
from . import profiles
from . import pretentious
from . import sieve
from .correlation import BoundedFunction

# Least FFT length of a reduced-sum row block (more than twice the largest
# window prime).  reduced_sum_terms at 10^7 with the rare classes scattered,
# 5 runs each on a 2-core x86 box: 2^11 2.06-2.74 s, 2^12 2.08-2.39 s,
# 2^13 2.46-2.59 s, 2^14 2.90-3.27 s.  With every class transformed, 2^12
# was also the fastest of 2^11 .. 2^16.
_BLOCK = 1 << 12
# A count class whose share of n <= N times the number |P| of window primes
# is below this is scattered, not transformed: its row then costs about
# share * |P| * fft_len bincount entries, where a transformed row costs an
# rfft and an irfft (at fft_len 2^12 on a 2-core x86 box, 45-60 us a row in
# the batch against 35-40 us for 2^12 scattered entries).  Covariance of
# 2 * 10^6 rows at n ~ 5 * 10^7 (|P| = 85): 0.65-0.74 s with every class
# transformed, 0.55-0.58 s at 1, 0.54-0.64 s at 2, 0.48-0.63 s at 3,
# 0.53-0.60 s at 4.  reduced_sum_terms at 10^7 (|P| = 66): 2.6-2.8 s with
# every class transformed, 1.8-2.5 s at 2 and at 4, 2.5-2.8 s at 6,
# 3.5-4.1 s at 16.
_SCATTER_SHARE = 3.0
# Most scattered entries per bincount, in units of fft_len.  An entry holds
# an intp target and a float64 weight, so 8 * fft_len entries take 128 bytes
# per FFT point, against about 41 for each row the FFT transforms.  At 10^7
# the scattered classes make about 5.4 * fft_len entries a block, at 10^8
# about 3.9: one bincount each.  At 10^7, a bound of 2 took 2.5-2.7 s, and
# 4, 8 and 16 took 2.0-2.5 s.
_SCATTER_ENTRIES = 8
# The most bytes one window may ask for before any work is done: its prime
# sieve, the covariance block of a reduced sum over it, or a circle grid
# (window_bytes).  A request past it is refused with CapacityError.
WINDOW_BYTE_LIMIT = 1 << 30


@dataclass(frozen=True)
class PrimeWindow:
    """Primes in [lower, upper] with harmonic weights.

    mass is the sum of 1/p over the window; formula_lower/formula_upper
    record what the shrinking-window formulas produced (None when the
    window came from explicit bounds without a reference limit).
    """

    lower: float
    upper: float
    primes: np.ndarray
    mass: float
    formula_lower: float | None = None
    formula_upper: float | None = None

    def __post_init__(self):
        if not self.lower < self.upper:
            raise ContractError("window needs lower < upper")
        if self.primes.size == 0 or self.mass <= 0.0:
            raise DegenerateWindowError(
                "empty prime window", lower=self.lower, upper=self.upper)

    @property
    def weights(self) -> np.ndarray:
        return 1.0 / self.primes.astype(np.float64)

    @property
    def max_prime(self) -> int:
        return int(self.primes[-1])


def window_formula_bounds(n_limit: int) -> tuple[float, float]:
    """Edges of the prime window for averaging shifts at scale n_limit.

    The upper edge is exp((log N)^(1/(loglog N)^(4/9))); the lower edge
    multiplies that exponent by exp(-(loglog N)^(1/3)), so the window
    carries total weight close to (loglog N)^(1/3).
    """
    n_limit = int(n_limit)
    if n_limit < 16:
        raise ContractError("window formulas need n_limit >= 16")
    loglog = math.log(math.log(n_limit))
    exponent = math.log(n_limit) ** (1.0 / loglog ** (4.0 / 9.0))
    upper = math.exp(exponent)
    lower = math.exp(math.exp(-loglog ** (1.0 / 3.0)) * exponent)
    return lower, upper


def window_edges(n_limit: int | None = None,
                 overrides: dict | None = None) -> tuple:
    """(lower, upper, formula_lower, formula_upper) of prime_window's window.

    Checks the edges as prime_window does, without sieving any prime.
    """
    formula_lower = formula_upper = None
    if n_limit is not None:
        formula_lower, formula_upper = window_formula_bounds(n_limit)
    if overrides is not None:
        unknown = set(overrides) - {"lower", "upper"}
        if unknown:
            raise ContractError(f"unknown window overrides: {sorted(unknown)}")
        lower = float(overrides.get("lower", formula_lower if formula_lower is not None else 0.0))
        upper = float(overrides.get("upper", formula_upper if formula_upper is not None else 0.0))
    else:
        if n_limit is None:
            raise ContractError("prime_window needs n_limit or overrides")
        if n_limit < 10 ** 4:
            raise ContractError(
                "formula window wants n_limit >= 10^4; pass overrides below that")
        lower, upper = formula_lower, formula_upper
    if not lower < upper:
        raise DegenerateWindowError(
            f"window edges collapsed: lower={lower!r} upper={upper!r}",
            lower=lower, upper=upper)
    if upper < 2.0:
        raise DegenerateWindowError(
            f"no primes at or below {upper!r}", lower=lower, upper=upper)
    return lower, upper, formula_lower, formula_upper


def _fft_len(top: int) -> int:
    """FFT length of the reduced-sum blocks for a window's largest prime top."""
    return max(_BLOCK, 1 << (2 * top).bit_length())


def window_bytes(upper: float, size: int | None = None,
                 resolution: int | None = None) -> dict:
    """Upper bounds, in bytes, of the work of a window with this upper edge.

    "sieve": one segment of sieve.prime_segments, 17 bytes an odd number
    (its mask, index and primes), and 24 bytes a prime (the primes kept
    from each segment, the joined window and its weights), for at most
    sieve.prime_count_bound(x) primes up to x; an upper bound, as only the
    window's primes are kept.  "covariance", given size classes: a
    reduced-sum block, 41 bytes a class and FFT point
    (indicator, float64 cast, half spectrum, irfft output, gap row and its
    1/n-weighted copy) and the scatter's index and weight arrays.  "grid",
    given a resolution: circle's alpha grid, 64 bytes a point (alphas,
    folded weights, their spectrum and magnitudes, and boolean masks).
    """
    top = max(2, math.floor(upper))
    segment = 17 * min(sieve.PRIME_SEGMENT, (top + 1) // 2)
    costs = {"sieve": segment + 24 * sieve.prime_count_bound(top)}
    if size is not None:
        costs["covariance"] = _fft_len(top) * (41 * size + 16 * _SCATTER_ENTRIES)
    if resolution is not None:
        costs["grid"] = 64 * resolution
    return costs


def require_window_bytes(upper: float, size: int | None = None,
                         resolution: int | None = None) -> None:
    """Refuse a window whose work passes WINDOW_BYTE_LIMIT, before any of it."""
    for what, cost in window_bytes(upper, size, resolution).items():
        if cost > WINDOW_BYTE_LIMIT:
            raise CapacityError(
                f"window upper edge {upper!r} needs {cost} bytes for its {what}, "
                f"past the limit of {WINDOW_BYTE_LIMIT}")


def prime_window(n_limit: int | None = None,
                 overrides: dict | None = None) -> PrimeWindow:
    """Prime window for shift averaging, by formula or explicit bounds.

    overrides, when given, is a mapping with keys "lower" and "upper"
    that replaces the formula edges; the formula values are still
    recorded when n_limit is supplied.  An empty window raises
    DegenerateWindowError carrying the offending edges, and a sieve past
    WINDOW_BYTE_LIMIT a CapacityError before any prime is sieved.
    """
    lower, upper, formula_lower, formula_upper = window_edges(n_limit, overrides)
    require_window_bytes(upper)
    # one segment at a time, keeping only its primes in the window
    kept = [segment[segment >= lower]
            for segment in sieve.prime_segments(math.floor(upper), int(max(lower, 0.0)))]
    primes = np.concatenate(kept)
    if primes.size == 0:
        raise DegenerateWindowError(
            f"no primes in [{lower!r}, {upper!r}]", lower=lower, upper=upper)
    mass = float((1.0 / primes.astype(np.float64)).sum())
    return PrimeWindow(lower=float(lower), upper=float(upper), primes=primes,
                       mass=mass, formula_lower=formula_lower,
                       formula_upper=formula_upper)


# ---------------------------------------------------------------------------
# Fourier expansion over a symmetric integer interval


@dataclass(frozen=True)
class FourierTable:
    """DFT coefficients of a bounded function sampled on an interval.

    Frequencies run over the interval itself; since the characters
    e(xi*n/|I|) only depend on xi mod |I|, any |I| consecutive integers
    index the full dual group.
    """

    members: tuple
    coefficients: dict = field(compare=False)

    @property
    def size(self) -> int:
        return len(self.members)

    def value_at(self, n: int) -> complex:
        size = self.size
        total = 0.0 + 0.0j
        for xi, coef in self.coefficients.items():
            total += coef * np.exp(2j * np.pi * xi * n / size)
        return complex(total)


def _interval_members(interval) -> np.ndarray:
    if isinstance(interval, pretentious.FrequencyFamily):
        members = np.asarray(interval.members, dtype=np.int64)
    else:
        members = np.asarray(list(interval), dtype=np.int64)
    if members.size == 0:
        raise ContractError("interval must be nonempty")
    if members.size > 1 and not np.all(np.diff(members) == 1):
        raise ContractError("interval must be consecutive integers")
    return members


def fourier_expand(b: BoundedFunction, interval) -> FourierTable:
    """Expand b over the interval so b(n) = sum over xi of b^(xi) e(xi n/|I|).

    The interval may be a FrequencyFamily, a range, or any sequence of
    consecutive integers; frequencies range over the same interval.
    """
    members = _interval_members(interval)
    size = members.size
    samples = np.array([b(int(n)) for n in members], dtype=np.complex128)
    # xi rows, n columns; direct DFT is fine at these interval sizes.
    phase = np.exp(-2j * np.pi * np.outer(members, members) / size)
    coefs = phase @ samples / size
    coefficients = {int(xi): complex(c) for xi, c in zip(members, coefs)}
    return FourierTable(members=tuple(int(m) for m in members),
                        coefficients=coefficients)


def parseval_audit(table: FourierTable, b: BoundedFunction) -> dict:
    """Compare coefficient energy with sample energy over the interval."""
    coef_energy = sum(abs(c) ** 2 for c in table.coefficients.values())
    sample_energy = sum(abs(b(int(n))) ** 2 for n in table.members) / table.size
    scale = max(sample_energy, 1e-300)
    return {
        "coefficient_energy": float(coef_energy),
        "sample_energy": float(sample_energy),
        "relative_gap": abs(coef_energy - sample_energy) / scale,
    }


# ---------------------------------------------------------------------------
# Reduced mean-square sums


def _class_covariance(sweep, window: PrimeWindow, size: int) -> np.ndarray:
    """The 1/n-weighted mean over n <= N of (H(n) - pi)(H(n) - pi)^T, in one pass.

    sweep is a profiles.sweep over n <= N reaching window.max_prime past
    each chunk.  H_r(n) is the window average of 1[count(n+p) = r mod size]
    and pi[r] the 1/n-weighted share of n <= N in class r.  The pass sums
    W pi (a weighted bincount), the CHUNK sums of 1/n (their fsum is the
    harmonic mass W) and S2 = sum of H H^T/n, whose row sums are
    S1 = sum of H/n as the classes of H sum to 1; the mean is
    (S2 - S1 pi^T - pi S1^T + W pi pi^T) / W, which costs about a digit
    against centring first.  Each chunk splits its classes by its own
    counts: its most common class is 1 minus the others, and a class whose
    chunk share times |P| is below _SCATTER_SHARE is scattered, each
    occurrence at block offset m adding kappa_p to H_r(m - p) for every
    window prime p, by bincount.  The other classes go in blocks through
    one batched rfft against the kernel transform.
    """
    top = window.max_prime
    fft_len = _fft_len(top)
    rows = fft_len - top   # a block's rows n read counts up to n + top: no wrap-around
    kappa = window.weights / window.mass
    kernel = np.zeros(top + 1, dtype=np.float64)
    kernel[window.primes] = kappa
    # conjugate: correlation, out[j] = sum over p of kernel[p] * x[j + p]
    kernel_hat = np.conj(np.fft.rfft(kernel, n=fft_len))
    # a scattered occurrence's target n = m - p, padded by top on both sides
    stride = rows + 2 * top
    per_call = _SCATTER_ENTRIES * fft_len // window.primes.size
    gap = np.empty((size, rows), dtype=np.float64)
    masses = []
    weighted = np.zeros(size)
    s2 = np.zeros((size, size))
    for _, levels, inv_n in sweep:
        cls = levels % size
        length = inv_n.size
        masses.append(float(inv_n.sum()))
        index = cls[:length].astype(np.intp)   # bincount's cast, made once for both
        weighted += np.bincount(index, inv_n, size)
        share = np.bincount(index, minlength=size) / length
        del index   # not held through the blocks
        derived = int(np.argmax(share))
        rest = [r for r in range(size) if r != derived]
        scattered = [r for r in rest if share[r] * window.primes.size < _SCATTER_SHARE]
        transformed = [r for r in rest if r not in scattered]
        order = transformed + scattered + [derived]   # the rows of this chunk's sums
        classes = np.array(transformed, dtype=np.uint8)[:, None]
        slot = np.full(size, -1, dtype=np.intp)
        slot[scattered] = np.arange(len(scattered)) * stride + top
        rare = slot >= 0
        t = len(transformed)
        sums = np.zeros((size, size))
        for b in range(0, length, rows):
            k = min(rows, length - b)
            span = cls[b : b + k + top]
            d = gap[:, :k]
            if t:
                spectrum = np.fft.rfft(span == classes, n=fft_len)
                spectrum *= kernel_hat
                d[:t] = np.fft.irfft(spectrum, n=fft_len)[:, :k]
            if scattered:
                # occurrence m of class r adds kappa_p at slot[r] + m - p,
                # per_call occurrences (|P| entries each) at most a bincount
                at = np.flatnonzero(rare[span])
                base = slot[span[at]] + at
                hist = functools.reduce(np.add, (
                    np.bincount(np.subtract.outer(part, window.primes).ravel(),
                                np.tile(kappa, part.size), len(scattered) * stride)
                    for part in np.split(base, range(per_call, base.size, per_call))))
                d[t:-1] = hist.reshape(-1, stride)[:, top : top + k]
            np.subtract(1.0, d[:-1].sum(axis=0), out=d[-1])
            sums += (d * inv_n[b : b + k]) @ d.T
        s2[np.ix_(order, order)] += sums
    mass = math.fsum(masses)
    pi = weighted / mass
    cross = np.outer(s2.sum(axis=1), pi)
    return (s2 - cross - cross.T + mass * np.outer(pi, pi)) / mass


def reduced_sum_terms(n_limit: int, window: PrimeWindow, xi_set) -> dict:
    """Per-frequency terms of the reduced sum.

    Each term is the log-weighted mean over n <= N of
    |E over window primes p of e(xi*count(n+p)/|I|) - inner log mean|^2,
    the inner mean taken over n <= N.  Frequencies must lie in
    the symmetric interval for scale N; xi = 0 contributes exactly 0.
    One pass over the counts, streamed unless a held block covers it.
    """
    n_limit = int(n_limit)
    family = pretentious.frequency_family(n_limit)
    allowed = set(family.members)
    xi_list = [int(x) for x in xi_set]
    for xi in xi_list:
        if xi not in allowed:
            raise ContractError(
                f"frequency {xi} outside the interval for n_limit={n_limit}")
    size = family.size
    cov = _class_covariance(profiles.sweep(n_limit, window.max_prime), window, size)
    terms: dict = {}
    for xi in xi_list:
        mode = np.exp(2j * np.pi * xi * np.arange(size) / size)
        # the classes of H and of pi both sum to 1: xi = 0 is 0, not a rounding
        terms[xi] = 0.0 if xi % size == 0 else float((mode.conj() @ cov @ mode).real)
    return terms


# ---------------------------------------------------------------------------
# Taylor truncation of e(x)


def taylor_truncation(x: float, order: int) -> dict:
    """Degree-order Taylor approximation of e(x) with its tail bound.

    approx = sum over k <= order of (2 pi i x)^k / k!; the guarantee is
    |e(x) - approx| <= (2 pi |x|)^(order+1) / (order+1)!.
    """
    order = int(order)
    if order < 0:
        raise ContractError("order must be nonnegative")
    if order > 10 ** 4:
        raise ContractError("order capped at 10^4")
    x = float(x)
    arg = 2j * math.pi * x
    term = 1.0 + 0.0j
    total = 1.0 + 0.0j
    for k in range(1, order + 1):
        term *= arg / k
        total += term
    if x == 0.0:
        bound = 0.0
    else:
        log_bound = (order + 1) * math.log(2.0 * math.pi * abs(x)) \
            - math.lgamma(order + 2)
        try:
            bound = math.exp(log_bound)
        except OverflowError:
            bound = math.inf
    return {"approx": complex(total), "bound": bound}


# ---------------------------------------------------------------------------
# Prime exponential sums and major arcs


def prime_exponential_sum(window: PrimeWindow, alpha: float) -> complex:
    """Harmonically weighted mean of e(p*alpha) over the window primes."""
    phases = np.exp(2j * np.pi * window.primes.astype(np.float64) * alpha)
    return complex((window.weights @ phases) / window.mass)


def _abs_sum_grid(window: PrimeWindow, resolution: int) -> np.ndarray:
    """|prime_exponential_sum| at every alpha = j/R, j = 0 .. R-1.

    e(p j/R) depends on p mod R only, so the sum over the window is the
    length-R DFT of the weights folded mod R: O(R log R), exact up to
    rounding.
    """
    folded = np.bincount(window.primes % resolution, weights=window.weights,
                         minlength=resolution)
    return np.abs(np.fft.fft(folded)) / window.mass


def require_grid_resolution(grid_resolution, max_prime) -> None:
    """Refuse a grid of fewer than 10 * max_prime points.

    A lower bound of the window's largest prime, such as its lower edge,
    refuses a grid before the window is built.
    """
    if grid_resolution < 10 * max_prime:
        raise ContractError(
            "grid_resolution must be at least 10 * max window prime")


def major_arc_measure(window: PrimeWindow, epsilon: float,
                      grid_resolution: int) -> float:
    """Grid estimate of the measure of {alpha in [0,1): |sum| > epsilon}.

    The grid must have at least 10 * max(window prime) points so that
    cells are shorter than a tenth of the Lipschitz scale of the sum;
    cells where the threshold is crossed are refined by bisection.
    """
    if not epsilon > 0.0:
        raise ContractError("epsilon must be positive")
    grid_resolution = int(grid_resolution)
    require_grid_resolution(grid_resolution, window.max_prime)
    spacing = 1.0 / grid_resolution
    alphas = np.arange(grid_resolution, dtype=np.float64) * spacing
    values = _abs_sum_grid(window, grid_resolution)
    above = values > epsilon
    nxt = np.roll(above, -1)
    measure = spacing * float(np.count_nonzero(above & nxt))
    mixed = np.nonzero(above != nxt)[0]

    def crossing(lo: float, hi: float, lo_above: bool) -> float:
        # Bisect |sum|(alpha) - epsilon; 30 steps pin the root well past
        # the grid accuracy.
        for _ in range(30):
            mid = 0.5 * (lo + hi)
            mid_above = abs(prime_exponential_sum(window, mid)) > epsilon
            if mid_above == lo_above:
                lo = mid
            else:
                hi = mid
        return 0.5 * (lo + hi)

    for j in mixed:
        lo = alphas[j]
        hi = lo + spacing
        root = crossing(lo, hi, bool(above[j]))
        # Count the sub-interval lying on the "above" side.
        measure += (root - lo) if above[j] else (lo + spacing - root)
    return measure


# ---------------------------------------------------------------------------
# CSV sweeps


def write_xi_sweep_csv(handle, terms: dict) -> None:
    """Write frequency/term rows to an open file, frequencies ascending."""
    writer = csv.writer(handle, lineterminator="\n")
    writer.writerow(["xi", "term"])
    for xi in sorted(terms):
        writer.writerow([xi, format(terms[xi], ".17g")])


def write_alpha_sweep_csv(handle, window: PrimeWindow, resolution: int) -> None:
    """Write alpha/abs_sum rows of the window exponential sum at j/R to an open file."""
    resolution = int(resolution)
    if resolution < 1:
        raise ContractError("resolution must be positive")
    alphas = np.arange(resolution, dtype=np.float64) / resolution
    magnitudes = _abs_sum_grid(window, resolution)
    writer = csv.writer(handle, lineterminator="\n")
    writer.writerow(["alpha", "abs_sum"])
    for alpha, mag in zip(alphas, magnitudes):
        writer.writerow([format(alpha, ".17g"), format(mag, ".17g")])
