"""Pretentious distance machinery for 1-bounded multiplicative functions.

Distances are prime sums D(f,g;N)^2 = sum_{p<=N} (1 - Re f(p) conj(g(p)))/p,
here to the Archimedean twists g(n) = n^{it}.  The module covers the
distance at one t, grid infima over t, a Halasz-type mean-value audit, the
frequency family of completely multiplicative modes in the factor-count
variable, and residual checks of the closed-form distance formula for the
frequency family.

A distance at one t is an exact sum over the primes.  Distances along a t
grid, and the grid infimum, read one set of binned Taylor moments of f(p)/p
instead (PrimeTrigSums): one pass over the primes, then O(#bins) per t,
with a certified truncation bound.
Every prime sum reads log p, 1/p and f(p) of one segment of
sieve.prime_segments at a time and holds no prime past its segment.

Frequencies are identified modulo the family size: e(xi*n/|I|) with integer
n depends only on xi mod |I|, so callers may pass any real xi (large
frequency labels land outside the canonical window at desk scale) and it is
folded exactly.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .correlation import MODULUS_SLACK
from .errors import ContractError
from .profiles import CESARO, NBINS, sweep, two_point_profile
from .sieve import prime_segments, require_primes


# ---------------------------------------------------------------------------
# multiplicative function specs

@dataclass(frozen=True)
class MultFunSpec:
    """Completely multiplicative, 1-bounded, via prime values.

    Primes not listed in prime_values take default_prime_value; the two
    workhorse specs (Liouville-like and the frequency modes) are constant
    on primes, which downstream code exploits.  Every override key must be
    an integer >= 2, and a prime when it is at most the N of a computation.
    """

    default_prime_value: complex = 1.0 + 0.0j
    prime_values: dict = field(default_factory=dict)

    def __post_init__(self):
        if abs(self.default_prime_value) > 1.0 + MODULUS_SLACK:
            raise ContractError("default prime value must have modulus <= 1")
        for p, v in self.prime_values.items():
            if abs(v) > 1.0 + MODULUS_SLACK:
                raise ContractError(f"prime value at {p} must have modulus <= 1")

    def value_at_prime(self, p: int) -> complex:
        return complex(self.prime_values.get(int(p), self.default_prime_value))

    def overrides_upto(self, n_limit: int) -> list:
        """(p, f(p)) for the override keys p <= N, after checking every key;
        keys above N divide no n <= N and are not tested for primality."""
        for p in self.prime_values:
            if not isinstance(p, numbers.Integral) or p < 2:
                raise ContractError(f"override key {p!r} is not an integer >= 2")
        keys = [int(p) for p in self.prime_values if p <= n_limit]
        require_primes(np.array(keys, dtype=np.int64), "override keys")
        return [(p, complex(self.prime_values[p])) for p in keys]

    def values_on(self, primes: np.ndarray, overrides: list) -> np.ndarray:
        """f(p) for one ascending segment of primes p <= N, given
        overrides = overrides_upto(N): each is placed where the segment
        holds its key."""
        out = np.full(primes.size, complex(self.default_prime_value),
                      dtype=np.complex128)
        if overrides and primes.size:
            keys = np.array([p for p, _ in overrides], dtype=np.int64)
            at = np.minimum(np.searchsorted(primes, keys), primes.size - 1)
            held = primes[at] == keys
            out[at[held]] = np.array([v for _, v in overrides])[held]
        return out

    def constant_prime_value(self):
        """The shared prime value, or None when overrides exist."""
        return None if self.prime_values else complex(self.default_prime_value)


def liouville_spec() -> MultFunSpec:
    return MultFunSpec(default_prime_value=-1.0 + 0.0j)


# ---------------------------------------------------------------------------
# frequency family

@dataclass(frozen=True)
class FrequencyFamily:
    N: int
    A: float
    radius: float        # A * sqrt(loglog N); the interval is (-radius, radius]
    members: tuple       # the integers of the interval
    size: int

    def fold(self, xi: float) -> float:
        """Reduce a frequency into the canonical window (exact identification)."""
        half = self.size / 2.0
        folded = math.fmod(xi, self.size)
        if folded > half:
            folded -= self.size
        elif folded <= -half:
            folded += self.size
        return folded


def frequency_family(n_limit: int) -> FrequencyFamily:
    if n_limit < 16:
        raise ContractError("frequency family needs loglog N > 0")
    loglog = math.log(math.log(n_limit))
    A = 4.0 * loglog ** (1.0 / 9.0)
    radius = A * math.sqrt(loglog)
    members = tuple(range(math.floor(-radius) + 1, math.floor(radius) + 1))
    return FrequencyFamily(N=int(n_limit), A=A, radius=radius,
                           members=members, size=len(members))


def mode_spec(family: FrequencyFamily, xi: float) -> MultFunSpec:
    """The completely multiplicative mode with prime value e(xi / |I|)."""
    theta = 2.0 * math.pi * xi / family.size
    return MultFunSpec(default_prime_value=complex(math.cos(theta), math.sin(theta)))


# ---------------------------------------------------------------------------
# prime sums and distances

def _prime_columns(f: MultFunSpec, n_limit: int):
    """(log p, 1/p, f(p)) of one segment of prime_segments(N) at a time,
    held by the caller alone; N and the override keys are checked now."""
    overrides = f.overrides_upto(n_limit)

    def columns(primes):
        as_float = primes.astype(np.float64)
        return (np.log(as_float), np.divide(1.0, as_float, out=as_float),
                f.values_on(primes, overrides))

    return map(columns, prime_segments(n_limit))


def distance_sq_to_twist(f: MultFunSpec, n_limit: int, t: float) -> float:
    """D(f, n -> n^{it}; N)^2 = sum_{p<=N} (1 - Re f(p) p^{-it})/p for one t,
    summed one segment of primes at a time."""
    total = 0.0
    for logs, invp, fp in _prime_columns(f, n_limit):
        gp = np.exp(1j * t * logs)
        del logs   # not held while the complex columns are multiplied
        total += float(np.sum((1.0 - (fp * np.conj(gp)).real) * invp))
        del invp, fp, gp   # not held while the next segment is sieved
    return total


# ---------------------------------------------------------------------------
# certified binned prime trig sums

# Bins of log p are at most this wide, and narrower when the t range reaches
# past 1/_BIN_WIDTH, so that |t| h / 2 <= 1/2 for every t evaluated.
_BIN_WIDTH = 1e-2
# The Taylor order is the least one whose certified bound is at most this.
_TAIL_TARGET = 1e-15
# t x bin cells evaluated at once; bounds the complex temporaries.
_BLOCK_CELLS = 1 << 16
# Above the Meissel-Mertens constant B = 0.26149...
_MERTENS_B = 0.2615


@dataclass(frozen=True)
class PrimeTrigSums:
    """Binned Taylor moments of w_p = f(p)/p over the primes p <= N.

    log p is binned on cells of width h = 2 s with centres c_b (occupied
    cells only) and moments[k, b] = sum_{p in b} w_p ((log p - c_b)/s)^k for
    k < K.  Then F(t) = sum_p w_p p^{-it}
    = sum_b e^{-i t c_b} sum_k (-i t s)^k / k! moments[k, b], and
    D(f, n -> n^{it}; N)^2 = sum 1/p - Re F(t) for |t| <= t_max, with
    truncation error at most tail_bound = x^K / K! e^x sum |w_p|,
    x = t_max max |log p - c_b| <= t_max h / 2.
    """

    t_max: float
    half_width: float
    centres: np.ndarray
    moments: np.ndarray
    harmonic: float
    tail_bound: float

    def distance_sq(self, t_grid) -> np.ndarray:
        """D(f, n -> n^{it}; N)^2 for each t, in blocks of t."""
        t = np.asarray(t_grid, dtype=np.float64).ravel()
        if not np.all(np.abs(t) <= self.t_max):
            raise ContractError("t outside the range the sums were built for")
        order = np.arange(self.moments.shape[0])
        inv_fact = np.array([1.0 / math.factorial(k) for k in order])
        out = np.empty(t.size)
        step = max(1, _BLOCK_CELLS // max(self.centres.size, 1))
        for lo in range(0, t.size, step):
            tb = t[lo : lo + step]
            taylor = (-1j * self.half_width * tb[:, None]) ** order * inv_fact
            phases = np.exp(-1j * np.multiply.outer(tb, self.centres))
            # einsum, not a BLAS product: the same bits at any BLAS thread count
            shifted = (taylor * np.einsum("tc,kc->tk", phases, self.moments)).sum(axis=1)
            out[lo : lo + step] = self.harmonic - shifted.real
        return out


def _tail(order: int, x: float, mass: float) -> float:
    """The truncation bound x^K / K! e^x sum |w_p| at order K."""
    if x == 0.0 or mass == 0.0:
        return 0.0
    return math.exp(order * math.log(x) - math.lgamma(order + 1) + x) * mass


def _least_order(x: float, mass: float, most: float = math.inf) -> int:
    """The least order K >= 1 whose bound is at most _TAIL_TARGET."""
    order = 1
    while _tail(order, x, mass) > _TAIL_TARGET:
        if order >= most:
            raise AssertionError("prime sums past their a-priori Taylor order")
        order += 1
    return order


def _cell_moments(logs, weights, width, rows):
    """Centres and moment rows of the cells of one segment's log p, and
    max |scaled|; logs and weights are overwritten."""
    cell = np.floor((logs - math.log(2.0)) / width)
    starts = np.flatnonzero(np.diff(cell, prepend=-1.0))
    centres = math.log(2.0) + (cell[starts] + 0.5) * width
    del cell
    scaled = np.subtract(logs, np.repeat(centres, np.diff(starts, append=logs.size)), out=logs)
    scaled /= width / 2.0
    moments = np.empty((rows, starts.size), dtype=np.complex128)
    for k in range(rows):
        moments[k] = np.add.reduceat(weights, starts)
        weights *= scaled
    return centres, moments, float(np.abs(scaled).max())


def prime_trig_sums(f: MultFunSpec, n_limit: int, t_max: float) -> PrimeTrigSums:
    """Moments of f(p)/p over p <= N certified for every |t| <= t_max.

    One segment of primes at a time: each cell is summed over the segment
    alone, and a cell that goes on from the last segment adds the column it
    had there.  Rows are computed up to an a-priori order, from x <= t_max
    (h/2 + rounding) and sum |w_p| <= the Rosser-Schoenfeld bound on
    sum_{p<=N} 1/p, and cut to the least order whose bound meets _TAIL_TARGET.
    """
    t_max = float(t_max)
    if not (math.isfinite(t_max) and t_max >= 0.0):
        raise ContractError("t range must be finite")
    width = min(_BIN_WIDTH, 1.0 / t_max) if t_max > 0.0 else _BIN_WIDTH
    half = width / 2.0
    columns = _prime_columns(f, n_limit)
    log_n = math.log(n_limit)
    # |log p - c_b| <= h/2 up to a few units in the last place of log N
    x_cap = min(1.0, t_max * (half + 16.0 * math.ulp(log_n)) * (1.0 + 2.0**-40))
    # Rosser & Schoenfeld (1962), (3.20): sum_{p<=x} 1/p < loglog x + B + 1/log^2 x
    mass_cap = (1.0 + 1e-9) * (math.log(log_n) + _MERTENS_B + 1.0 / log_n**2)
    rows = _least_order(x_cap, mass_cap)

    parts = []   # (centres, moments) of the cells so far, in O(log #cells) runs
    harmonic = mass = widest = 0.0
    for logs, invp, weights in columns:
        if not logs.size:
            continue
        harmonic += float(np.sum(invp))
        weights *= invp   # w_p = f(p)/p
        del invp   # only logs and weights are held while the cells are summed
        mass += float(np.abs(weights).sum())
        centres, moments, most = _cell_moments(logs, weights, width, rows)
        del logs, weights   # not held while the next segment is sieved
        widest = max(widest, most)
        if parts and centres[0] == parts[-1][0][-1]:   # the last cell goes on:
            moments[:, 0] += parts[-1][1][:, -1]   # its columns added in segment order
            parts[-1] = (parts[-1][0][:-1], parts[-1][1][:, :-1])
        parts.append((centres, moments))
        while len(parts) > 1 and parts[-2][0].size <= parts[-1][0].size:   # merge runs
            parts[-2:] = [tuple(np.concatenate(pair, axis=-1) for pair in zip(*parts[-2:]))]

    x = t_max * half * widest
    if x > 1.0:
        # cells narrower than the rounding of log p: the moments cannot bin it
        raise ContractError("t range too wide for binned prime sums")
    order = _least_order(x, mass, most=rows)
    return PrimeTrigSums(t_max=t_max, half_width=half,
                         centres=np.concatenate([c for c, _ in parts]),
                         moments=np.concatenate([m[:order] for _, m in parts], axis=1),
                         harmonic=harmonic, tail_bound=_tail(order, x, mass))


def log_t_grid(t_max: float, points: int = 10**4) -> np.ndarray:
    """Symmetric grid on [-t_max, t_max]: 0 plus log-spaced magnitudes from 1e-6."""
    if not t_max > 0:
        raise ContractError("t_max must be positive")
    if points < 3:
        raise ContractError("t grid needs points >= 3")
    half = points // 2
    # geomspace of one point is [1e-6]: every grid reaches +-t_max
    mags = np.geomspace(1e-6, t_max, half) if half > 1 else np.array([float(t_max)])
    return np.concatenate((-mags[::-1], [0.0], mags))


def m0(f: MultFunSpec, n_limit: int, t_grid) -> dict:
    """Grid minimum of the squared distance to Archimedean twists.

    The dips of the squared distance are about 1/log N wide, so the grid
    is joined by a uniform one of spacing 1/(2 log N) over its span.  The
    argmin is refined by golden-section search on the bracketing interval;
    the squared distance is slowly varying in t (each prime term is
    Lipschitz with constant log p / p), so this pins the infimum to far
    below the audit tolerances.  Grid and refinement evaluate the same
    binned trig sums; tail_bound is their certified truncation bound.
    """
    t_grid = np.asarray(t_grid, dtype=np.float64)
    if t_grid.size == 0:
        raise ContractError("empty t grid")
    sums = prime_trig_sums(f, n_limit, np.abs(t_grid).max())
    lo, hi = float(t_grid.min()), float(t_grid.max())
    steps = math.ceil(2.0 * math.log(n_limit) * (hi - lo))
    t_grid = np.union1d(t_grid, np.linspace(lo, hi, steps + 1))
    values = sums.distance_sq(t_grid)
    i = int(np.argmin(values))
    best_t, best_v = float(t_grid[i]), float(values[i])

    lo = t_grid[max(i - 1, 0)]
    hi = t_grid[min(i + 1, t_grid.size - 1)]
    if hi > lo:
        def d2(t):
            return float(sums.distance_sq(t)[0])
        phi = (math.sqrt(5.0) - 1.0) / 2.0
        a, b = float(lo), float(hi)
        c = b - phi * (b - a)
        d = a + phi * (b - a)
        fc, fd = d2(c), d2(d)
        for _ in range(40):
            if fc <= fd:
                b, d, fd = d, c, fc
                c = b - phi * (b - a)
                fc = d2(c)
            else:
                a, c, fc = c, d, fd
                d = a + phi * (b - a)
                fd = d2(d)
            if b - a < 1e-12 * max(1.0, abs(a)):
                break
        for t, v in ((c, fc), (d, fd)):
            if v < best_v:
                best_t, best_v = float(t), float(v)
    return {"value": best_v, "argmin_t": best_t, "tail_bound": sums.tail_bound}


def dist_formula_residual(xi: float, n_limit: int, t: float) -> float:
    """Gap between the mode distance and its two-term closed form.

    Measured: D(mode_xi, n -> n^{it}; N)^2.  Closed form:
    (1 - cos(2 pi xi/|I|)) loglog N + cos(2 pi xi/|I|) log(1 + |t| log N).
    """
    if abs(t) > 10.0:
        raise ContractError("residual audit covers |t| <= 10")
    family = frequency_family(n_limit)
    if not math.isfinite(xi):
        raise ContractError("xi must be finite")
    folded = family.fold(xi)
    theta = 2.0 * math.pi * folded / family.size
    measured = distance_sq_to_twist(mode_spec(family, folded), n_limit, t)
    loglog = math.log(math.log(n_limit))
    formula = ((1.0 - math.cos(theta)) * loglog
               + math.cos(theta) * math.log(1.0 + abs(t) * math.log(n_limit)))
    return abs(measured - formula)


# ---------------------------------------------------------------------------
# mean values and the Halasz audit

def mean_over_range(spec: MultFunSpec, n_limit: int) -> complex:
    """Cesaro mean of f over [N].

    Constant specs contract the (N, 0) level histogram; specs with prime
    overrides sum f(n) chunk by chunk, each override's ratio applied where
    p^k | n, so no array of length N is built.
    """
    base = complex(spec.default_prime_value)
    table = np.array([base**k for k in range(NBINS)], dtype=np.complex128)
    if spec.constant_prime_value() is not None:
        return two_point_profile(n_limit, 0).mean(table, CESARO)
    if abs(base) == 0.0:
        raise ContractError("override fixup needs a nonzero default value")
    ratios = [(p, v / base) for p, v in spec.overrides_upto(n_limit)]
    total = 0.0 + 0.0j
    for start, levels, _ in sweep(n_limit, weighted=False):
        values = table[levels]
        stop = start + levels.size
        for p, ratio in ratios:
            q = p
            while q <= stop:
                # n = start + 1 + i is a multiple of q
                values[(q - 1 - start) % q :: q] *= ratio
                q *= p
        total += complex(values.sum())
        del values   # freed before the next chunk's values are built
    return total / n_limit


def halasz_audit(f: MultFunSpec, n_limit: int, t_grid) -> dict:
    """Mean value against the distance-based decay bound.

    bound = exp(-(1/16) * min over the grid of D(f, n^{it}; N)^2); the
    grid should cover |t| <= log N.  ratio = |mean| / bound.  The m0
    entry carries the certified tail_bound of the binned trig sums.
    """
    if n_limit < 10**4:
        raise ContractError("mean-value audit wants N >= 1e4")
    mean = mean_over_range(f, n_limit)
    infimum = m0(f, n_limit, t_grid)
    bound = math.exp(-infimum["value"] / 16.0)
    return {"mean": mean, "bound": bound, "ratio": abs(mean) / bound,
            "m0": infimum}
