"""The benchmark's own arithmetic, written apart from the program.

Nothing here imports omegalab.  Prime lists come from a plain boolean
sieve, factor counts of sampled n from trial division by numpy remainders,
and every average from a chunked numpy pass written for this file.  Where
a value is derived from a counts block the program produced (Liouville
signs, level histograms), the block itself is checked on a seeded sample
against trial division.
"""

from __future__ import annotations

import math

import numpy as np

CHUNK = 1 << 22


def primes_upto(limit: int) -> np.ndarray:
    """All primes <= limit, ascending, as int64."""
    mask = np.ones(limit + 1, dtype=bool)
    mask[:2] = False
    mask[4::2] = False
    for p in range(3, math.isqrt(limit) + 1, 2):
        if mask[p]:
            mask[p * p :: 2 * p] = False
    return np.flatnonzero(mask).astype(np.int64)


def factor_counts_of(n: int, primes: np.ndarray, limit: int, cutoff=math.inf):
    """(Omega(n), omega(n), distinct primes <= cutoff) by trial division.

    primes must hold every prime <= limit, and n < (limit + 1)**2: then the
    cofactor left after dividing out those primes is 1 or a single prime.
    """
    if n >= (limit + 1) ** 2:
        raise ValueError(f"n={n} too large for trial division to {limit}")
    divisors = primes[n % primes == 0].tolist()
    m, big = n, 0
    for p in divisors:
        while m % p == 0:
            m //= p
            big += 1
    small = len(divisors)
    truncated = sum(1 for p in divisors if p <= cutoff)
    if m > 1:
        big, small = big + 1, small + 1
        truncated += m <= cutoff
    return big, small, truncated


def liouville(counts: np.ndarray) -> np.ndarray:
    return 1 - 2 * (counts & 1).astype(np.int8)


def stats_sums(counts: np.ndarray, n_limit: int, prime_shifts) -> dict:
    """Level histograms and Liouville correlation sums over n <= N.

    counts[i] is Omega(i + 1) and must reach n = N + max(2, prime_shifts).
    """
    hist = np.zeros(64, dtype=np.int64)
    log_hist = np.zeros(64)
    next_sign_log = np.zeros(64)   # per level of Omega(n): sum lambda(n+1)/n
    harmonic = 0.0
    lam_sum = triple = 0
    pair_log = 0.0
    shifted = dict.fromkeys(prime_shifts, 0.0)
    for start in range(0, n_limit, CHUNK):
        stop = min(start + CHUNK, n_limit)
        c0 = counts[start:stop]
        inv = 1.0 / np.arange(start + 1, stop + 1, dtype=np.float64)
        lam0 = liouville(c0)
        lam1 = liouville(counts[start + 1 : stop + 1])
        lam2 = liouville(counts[start + 2 : stop + 2])
        harmonic += float(inv.sum())
        hist += np.bincount(c0, minlength=64)
        log_hist += np.bincount(c0, weights=inv, minlength=64)
        next_sign_log += np.bincount(c0, weights=lam1 * inv, minlength=64)
        lam_sum += int(lam0.sum(dtype=np.int64))
        lam01 = lam0 * lam1
        triple += int((lam01 * lam2).sum(dtype=np.int64))
        pair_log += float(lam01 @ inv)
        if start == 0:
            inv[0] = 0.0   # the down-shifted functions vanish at n = 1
        for p in prime_shifts:
            shifted[p] += float((lam0 * liouville(counts[start + p : stop + p])) @ inv)
    return {"hist": hist, "log_hist": log_hist, "next_sign_log": next_sign_log,
            "harmonic": harmonic, "lam_sum": lam_sum, "triple": triple,
            "pair_log": pair_log, "shifted": shifted}


def gaussian_levels(n_limit: int):
    """(mu, sigma, Gaussian density at ell = 0..63) with mu = loglog N."""
    mu = math.log(math.log(n_limit))
    sigma = math.sqrt(mu)
    dens = np.array([math.exp(-0.5 * ((ell - mu) / sigma) ** 2)
                     / (sigma * math.sqrt(2.0 * math.pi)) for ell in range(64)])
    return mu, sigma, dens


def ks_distance(hist: np.ndarray, n_limit: int) -> float:
    """Kolmogorov-Smirnov distance of the standardized level law to N(0, 1)."""
    mu = math.log(math.log(n_limit))
    sigma = math.sqrt(mu)
    cum, worst = 0, 0.0
    for ell in range(64):
        phi = 0.5 * math.erfc(-((ell - mu) / sigma) / math.sqrt(2.0))
        left = cum / n_limit
        cum += int(hist[ell])
        worst = max(worst, abs(cum / n_limit - phi), abs(left - phi))
    return worst


def window_edges(n_limit: int):
    """Prime-window edges exp(E * exp(-(loglog N)^(1/3))) and exp(E),
    E = (log N)^(1/(loglog N)^(4/9))."""
    loglog = math.log(math.log(n_limit))
    exponent = math.log(n_limit) ** (1.0 / loglog ** (4.0 / 9.0))
    return math.exp(math.exp(-loglog ** (1.0 / 3.0)) * exponent), math.exp(exponent)


def frequency_members(n_limit: int) -> list:
    """The integers of (-R, R], R = 4 (loglog N)^(1/9) sqrt(loglog N)."""
    loglog = math.log(math.log(n_limit))
    radius = 4.0 * loglog ** (1.0 / 9.0) * math.sqrt(loglog)
    return list(range(math.floor(-radius) + 1, math.floor(radius) + 1))


def reduced_term(counts: np.ndarray, n_limit: int, primes: np.ndarray,
                 xi: int, size: int) -> float:
    """One reduced-sum term by per-prime gathers, chunked over n.

    The log-weighted mean over n <= N of |sum_p w_p e(xi Omega(n+p)/size)
    - inner|^2, w_p = (1/p) / sum 1/p over the window, and inner the
    log-weighted mean of e(xi Omega(m)/size) over m <= N.
    """
    levels = np.arange(64)
    phase = np.exp(2j * math.pi * xi * levels / size)
    weights = 1.0 / primes.astype(np.float64)
    weights /= weights.sum()
    harmonic = inner = 0.0
    for start in range(0, n_limit, CHUNK):
        stop = min(start + CHUNK, n_limit)
        inv = 1.0 / np.arange(start + 1, stop + 1, dtype=np.float64)
        harmonic += float(inv.sum())
        inner += complex(np.bincount(counts[start:stop], weights=inv,
                                     minlength=64) @ phase)
    inner /= harmonic
    total = 0.0
    step = 1 << 16   # small enough for the per-prime sums to stay in cache
    top = int(primes[-1])
    for start in range(0, n_limit, step):
        stop = min(start + step, n_limit)
        values = phase[counts[start : stop + top]]   # index j: n = start + j + 1
        acc = np.full(stop - start, -inner, dtype=np.complex128)
        for p, w in zip(primes.tolist(), weights.tolist()):
            acc += w * values[p : p + stop - start]
        inv = 1.0 / np.arange(start + 1, stop + 1, dtype=np.float64)
        total += float((acc.real ** 2 + acc.imag ** 2) @ inv)
    return total / harmonic


def multiplicative_sum(counts: np.ndarray, n_limit: int, overrides: dict) -> complex:
    """sum_{n <= N} f(n) for f completely multiplicative, f(p) = -1 except
    at the override primes; override values must be powers of i."""
    values = liouville(counts[:n_limit]).astype(np.complex128)
    for p, v in overrides.items():
        ratio = -complex(v)   # f(p) / lambda(p); its powers stay exact
        powers = np.array([ratio ** k for k in range(64)])
        valuation = np.zeros(n_limit, dtype=np.int8)
        q = p
        while q <= n_limit:
            valuation[q - 1 :: q] += 1
            q *= p
        values *= powers[valuation]
    return complex(values.sum())
