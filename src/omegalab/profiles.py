"""The one path from a factor-count block to its sufficient statistics.

Correlation averages and level-set densities only see the count values of
n and n+shift, never n itself beyond its weight.  One chunked pass over a
multiplicity counts block therefore compresses everything the downstream
operations need into 64-vectors and a 64x64 joint matrix per (N, shift):

  hist[l]        count of {n <= N : count(n) = l}
  log_hist[l]    sum of 1/n over that level set
  joint[k,l]     count of {n <= N : count(n) = k, count(n+shift) = l}
  joint_log[k,l] same pairs, 1/n-weighted

hist and log_hist are the row sums of the pair's own joint matrices.  For
shift 0 the joints are diagonal, so the (N, 0) profile is the marginal one.

One pass serves any set of shifts, 0 included: each chunk builds its 1/n
and its level cast once, and every shift adds one pair index and two
bincounts (plain and 1/n-weighted).  A value for (N, shift) is therefore
the same whichever other shifts shared its pass.

Every 1/n-weighted reduction over n <= N walks `chunks`, the only place
that builds 1/n, so no float array over the full range is materialized.
Chunks are cache-sized (CHUNK entries), so the per-chunk temporaries are
reused from the heap instead of being mapped and faulted in afresh.

Every average of a level table is a profile method, `mean` or
`pair_mean`: CESARO divides by N, LOGARITHMIC by the harmonic mass.

Counts reach a profile only through the shared block: the largest
multiplicity block sieved (`shared_counts`) or adopted (`adopt_block`) so
far, whose smaller ranges are served as views of it, so a 1e8 sieve is
paid for once per process.  Every quantity here is a function of Omega
alone, so no caller supplies counts of its own.  The prime table follows
the same rule: the largest limit asked for so far (at least 1e5) is kept,
and smaller limits are prefix views of it.  Every profile is read from and
stored in one bounded (N, shift) cache that drops its oldest entry when
full; `two_point_profiles` fills every missing shift of one N in one pass
and stores each under its own key.
`invalidate_cache` empties the block, the profiles and the prime table.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import sieve
from .errors import ContractError

# level sets above 63 are empty for any n < 2**64
NBINS = 64
# Entries per chunk of every pass.  A pass allocates a float64 1/n array and
# intp level and pair-index arrays per chunk; at 2^22 entries (32 MiB each)
# they sit at glibc's largest mmap threshold, so every chunk mapped fresh
# pages and faulted them in again.  One shift-1 pass at N = 10^8 on a 2-core
# x86 box: 2^22, 2.3 s and 25 000-38 000 minor faults; 2^20, 1.6 s and 2 700;
# 2^18, 0.95 s and 1 500; 2^16, 0.90 s and 250.  2^16 was also the fastest
# for the multi-shift pass and the k = 3 histogram of k_point_explore; only
# its k = 4 histogram ran faster at 2^18 (1.4 s against 2.0 s).
CHUNK = 1 << 16
_CACHE_LIMIT = 64

CESARO = "cesaro"
LOGARITHMIC = "logarithmic"


def check_weighting(weighting: str) -> None:
    """Refuse anything but CESARO or LOGARITHMIC, before any work is done."""
    if weighting not in (CESARO, LOGARITHMIC):
        raise ContractError(f"unknown weighting {weighting!r}")


@dataclass(frozen=True)
class TwoPointProfile:
    n_limit: int
    shift: int
    hist: np.ndarray
    log_hist: np.ndarray
    joint: np.ndarray
    joint_log: np.ndarray
    harmonic_mass: float

    def _weighted(self, weighting: str):
        """(level histogram, joint matrix, total weight) under the weighting."""
        check_weighting(weighting)
        if weighting == CESARO:
            return self.hist, self.joint, self.n_limit
        return self.log_hist, self.joint_log, self.harmonic_mass

    def mean(self, table: np.ndarray, weighting: str) -> complex:
        """Average of table[count(n)] over n <= N."""
        hist, _, total = self._weighted(weighting)
        return complex(table @ hist.astype(np.complex128)) / total

    def pair_mean(self, ta: np.ndarray, tb: np.ndarray, weighting: str) -> complex:
        """Average of ta[count(n)] * tb[count(n+shift)] over n <= N."""
        _, joint, total = self._weighted(weighting)
        return complex(ta @ joint.astype(np.complex128) @ tb) / total


_cached_block: sieve.FactorCountBlock | None = None
_profile_cache: dict = {}
_prime_table: sieve.PrimeTable | None = None


def invalidate_cache() -> None:
    global _cached_block, _prime_table
    _cached_block = None
    _profile_cache.clear()
    _prime_table = None


def primes_upto(limit: int) -> np.ndarray:
    """The primes p <= limit, ascending int64, a prefix view of the table."""
    global _prime_table
    limit = int(limit)
    if _prime_table is None or _prime_table.limit < limit:
        _prime_table = sieve.enumerate_primes(max(limit, 10**5))
        _prime_table.primes.flags.writeable = False   # callers hold views of it
    primes = _prime_table.primes
    return primes[: int(np.searchsorted(primes, limit, side="right"))]


def require_primes(values: np.ndarray, what: str) -> None:
    """Raise ContractError unless every entry of values is a prime."""
    values = np.asarray(values, dtype=np.int64)
    if values.size and np.setdiff1d(values, primes_upto(int(values.max()))).size:
        raise ContractError(f"{what} contains a number that is not prime")


def adopt_block(block: sieve.FactorCountBlock) -> None:
    """Install an existing multiplicity block as the shared cache."""
    global _cached_block
    if block.mode.kind != "big" or block.lo != 1:
        raise ContractError("shared cache wants a multiplicity block starting at 1")
    if _cached_block is None or block.hi > _cached_block.hi:
        _cached_block = block


def shared_counts(hi: int) -> np.ndarray:
    """Multiplicity counts for n in [1, hi), index n-1, served from cache."""
    if _cached_block is None or _cached_block.hi < hi:
        adopt_block(sieve.factor_counts(1, hi, sieve.BigOmega))
    return _cached_block.counts[: hi - 1]


def chunks(n_limit: int, weighted: bool = True):
    """Yield (start, stop, inv_n) covering n = start+1 .. stop for n <= N.

    inv_n holds 1/n for that stretch (None unless weighted); indices into a
    counts array with index n-1 are start:stop.
    """
    for start in range(0, n_limit, CHUNK):
        stop = min(start + CHUNK, n_limit)
        if not weighted:
            yield start, stop, None
            continue
        # in place: no second full-chunk float array
        inv_n = np.arange(start + 1, stop + 1, dtype=np.float64)
        yield start, stop, np.divide(1.0, inv_n, out=inv_n)


def _profile_pass(counts: np.ndarray, n_limit: int, shifts) -> list[TwoPointProfile]:
    """One profile per shift, all from one chunked pass over counts."""
    joints = np.zeros((len(shifts), NBINS * NBINS), dtype=np.int64)
    joint_logs = np.zeros((len(shifts), NBINS * NBINS), dtype=np.float64)
    mass = 0.0
    for start, stop, inv_n in chunks(n_limit):
        mass += float(inv_n.sum())
        row = counts[start:stop].astype(np.intp)
        row *= NBINS
        pair = np.empty_like(row)
        for joint, joint_log, shift in zip(joints, joint_logs, shifts):
            # pair index count(n) * NBINS + count(n+shift)
            np.add(row, counts[start + shift : stop + shift], out=pair)
            joint += np.bincount(pair, minlength=NBINS * NBINS)
            joint_log += np.bincount(pair, weights=inv_n, minlength=NBINS * NBINS)
    out = []
    for joint, joint_log, shift in zip(joints, joint_logs, shifts):
        joint, joint_log = joint.reshape(NBINS, NBINS), joint_log.reshape(NBINS, NBINS)
        out.append(TwoPointProfile(n_limit=n_limit, shift=shift, hist=joint.sum(axis=1),
                                   log_hist=joint_log.sum(axis=1), joint=joint,
                                   joint_log=joint_log, harmonic_mass=mass))
    return out


def two_point_profiles(n_limit: int, shifts) -> list[TwoPointProfile]:
    """Sufficient statistics for two-point averages over n <= N, per shift.

    Every shift missing from the cache is filled by one pass over the
    shared block, and the profiles come back in the order of shifts.
    """
    n_limit, shifts = int(n_limit), [int(h) for h in shifts]
    if n_limit < 3:
        raise ContractError("profile needs N >= 3")
    if not shifts or min(shifts) < 0:
        raise ContractError("profile needs shifts >= 0")
    found = {h: _profile_cache[(n_limit, h)] for h in shifts
             if (n_limit, h) in _profile_cache}
    missing = [h for h in dict.fromkeys(shifts) if h not in found]
    if missing:
        counts = shared_counts(n_limit + max(missing) + 1)
        for profile in _profile_pass(counts, n_limit, missing):
            found[profile.shift] = profile
            if len(_profile_cache) >= _CACHE_LIMIT:
                del _profile_cache[next(iter(_profile_cache))]
            _profile_cache[(n_limit, profile.shift)] = profile
    return [found[h] for h in shifts]


def two_point_profile(n_limit: int, shift: int = 1) -> TwoPointProfile:
    """The profile of one shift: two_point_profiles(n_limit, [shift])."""
    return two_point_profiles(n_limit, [shift])[0]
