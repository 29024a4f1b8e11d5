"""The one path from the factor counts to their statistics.

Every average over n <= N here, plain or 1/n-weighted, is a contraction
of level histograms of count(n), count(n+o_1), ....  `sweep(N, reach)` is
the only reader of the counts: chunk by chunk (a whole number of CHUNKs,
cut by `chunks` alone) it yields 1/n, built from one ramp of n per call,
with the counts of the chunk plus `reach` more.  `level_histograms` is the
one histogram kernel on it, its bin indices uint16 up to 2^16 bins and
intp above; harmonic masses are the fsum of the CHUNK sums of 1/n.

A TwoPointProfile per (N, shift) is the kernel on the offsets (0, shift)
in base NBINS:

  hist[l]        count of {n <= N : count(n) = l}
  log_hist[l]    sum of 1/n over that level set
  joint[k,l]     count of {n <= N : count(n) = k, count(n+shift) = l}
  joint_log[k,l] same pairs, 1/n-weighted

hist and log_hist are the joint row sums.  The (N, 0) profile is the
marginal one, and it is defined as the (N, 1) profile's row sums: it
shares their arrays and harmonic mass, its joints are their diagonals,
and it never sweeps on its own, so every reader of the marginal sees the
same bits in whatever order the calls come.  Its methods `mean` and
`pair_mean` average level tables: CESARO divides by N, LOGARITHMIC by the
harmonic mass.  One pass fills every missing shift of one N, each the
same whichever shifts shared it, into one (N, shift) cache that drops its
oldest entry when full.  `log_joints` serves readers of joint_log alone
(the prime-shift identity): cached shifts are read from their profiles,
the rest share one pass with no Cesaro bincount, and nothing is cached.

A sweep reads its chunks, each with its reach, from one carry.  A held
block that covers n <= N + reach is the carry, already filled to its end,
so every chunk is a view of it; otherwise one `sieve.range_filler` fills
the carry a segment at a time, and nothing is kept after the pass.
Either way a chunk sees the same counts, so every result is the same bits.
The block is the largest multiplicity block sieved (`shared_counts`) or
adopted (`adopt_block`); smaller ranges are views of it.
`invalidate_cache` empties the block and the profiles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import sieve
from .errors import ContractError

# level sets above 63 are empty for any n < 2**64
NBINS = 64
# Entries per chunk of every pass.  A pass allocates a float64 1/n array and
# level and pair-index arrays per chunk; at 2^22 entries (32 MiB each)
# they sit at glibc's largest mmap threshold, so every chunk mapped fresh
# pages and faulted them in again.  One shift-1 pass at N = 10^8 on a 2-core
# x86 box: 2^22, 2.3 s and 25 000-38 000 minor faults; 2^20, 1.6 s and 2 700;
# 2^18, 0.95 s and 1 500; 2^16, 0.90 s and 250.  2^16 was also the fastest
# for the multi-shift pass and the k = 3 histogram of k_point_explore.  A
# histogram with more bins than CHUNK takes chunks of whole CHUNKs instead
# (level_histograms): k = 4, 531 441 bins at 10^8, ran faster at 2^18 than
# at 2^16 (1.4 s against 2.0 s) and takes 9 CHUNKs.
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
        return joint_mean(ta, joint, tb, total)


def joint_mean(ta: np.ndarray, joint: np.ndarray, tb: np.ndarray, total) -> complex:
    """The sum of ta[k] tb[l] joint[k, l] divided by total: pair_mean's contraction."""
    return complex(ta @ joint.astype(np.complex128) @ tb) / total


_cached_block: sieve.FactorCountBlock | None = None
_profile_cache: dict = {}


def invalidate_cache() -> None:
    global _cached_block
    _cached_block = None
    _profile_cache.clear()


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


def chunks(n_limit: int, weighted: bool = True, multiple: int = 1):
    """Yield (start, stop, inv_n): n = start+1 .. stop <= N, inv_n 1/n there or None.

    A chunk is multiple * CHUNK entries, the last one fewer.  Its n are one
    float64 ramp 1, 2, .. made per call plus start, divided in place: exact
    integers below 2^53, so inv_n is np.arange(start + 1, stop + 1) inverted,
    bit for bit.
    """
    size = multiple * CHUNK
    # a float arange of 2^16 entries takes 103 us, the add 22 us, against
    # about 475 us for a whole shift-1 chunk of both weightings (2-core x86 box)
    ramp = np.arange(1, min(size, n_limit) + 1, dtype=np.float64) if weighted else None
    for start in range(0, n_limit, size):
        stop = min(start + size, n_limit)
        if not weighted:
            yield start, stop, None
            continue
        inv_n = ramp[: stop - start] + start
        yield start, stop, np.divide(1.0, inv_n, out=inv_n)


def sweep(n_limit: int, reach: int = 0, weighted: bool = True, multiple: int = 1):
    """Iterate (start, levels, inv_n) chunk by chunk over n = start+1 .. start+m.

    levels[o : o + m], o <= reach, are the counts of n + o, and inv_n the m
    values 1/n (None unless weighted).  carry[: end - first] holds the
    counts of n = first + 1 .. end: the held block, filled to its end, if
    it covers n <= N + reach at the call; else a buffer allocated here (a
    reach no machine holds fails at once) that one range_filler fills a
    segment at a time behind the counts moved up from each chunk's start,
    so levels is valid until the next chunk is drawn.
    """
    last, parts = n_limit + reach, chunks(n_limit, weighted, multiple)
    if _cached_block is not None and _cached_block.hi > last:
        carry, end, fill = _cached_block.counts, _cached_block.hi - 1, None
    else:
        carry = np.empty(min(multiple * CHUNK + reach + sieve.SEGMENT, last), np.uint8)
        end, fill = 0, sieve.range_filler(last + 1, sieve.BigOmega)

    def carried(first, end):
        for start, stop, inv_n in parts:
            while end < stop + reach:
                carry[: end - start] = carry[start - first : end - first]
                first, top = start, min(end + sieve.SEGMENT, last)
                fill(end + 1, carry[end - first : top - first])
                end = top
            yield start, carry[start - first : stop + reach - first], inv_n
    return carried(0, end)


def level_histograms(n_limit: int, offsets, base: int, weightings):
    """Histograms over n <= N of the index sum of count(n + o_i) base^(k-1-i).

    Per offset tuple (o_0, .., o_{k-1}), a list of base^k-bin histograms in
    the order of weightings: int64 counts (CESARO), sums of 1/n (LOGARITHMIC).
    Counts must lie below base.  Tuples share their leading offsets' index,
    so each costs one add and a bincount per weighting a chunk; a chunk is
    the fewest whole CHUNKs that hold base^k entries, k the longest tuple's
    length, and carries nothing to the next.  Also returns the harmonic
    mass, None unless LOGARITHMIC is among the weightings.
    """
    weighted = LOGARITHMIC in weightings
    hists = [[np.zeros(base ** len(offs), np.float64 if w == LOGARITHMIC else np.int64)
              for w in weightings] for offs in offsets]
    chunk_masses = []
    reach = max(max(offs) for offs in offsets)
    # With more bins than CHUNK, zero-filling and adding a histogram per CHUNK
    # outweighs the elements (k = 4: 531 441 bins), so a chunk holds as many
    # CHUNKs as it takes to hold the bins.
    bins = max(h[0].size for h in hists)
    multiple = -(-bins // CHUNK)
    # The narrowest index that holds the bins: uint16 cuts the k = 3 Cesaro
    # histogram at 10^8 from 0.43-0.53 s to 0.27-0.34 s (2-core x86 box);
    # above 2^16 bins intp, as uint32 ran the k = 4 logarithmic pass slower
    # (0.96-1.02 s against 1.14-1.17 s).
    index = np.uint16 if bins <= 1 << 16 else np.intp
    row = np.empty(multiple * CHUNK, index)
    for _, levels, inv_n in sweep(n_limit, reach, weighted, multiple):
        m = levels.size - reach
        if weighted:   # per CHUNK: the same mass bits for every multiple
            chunk_masses += [float(inv_n[i : i + CHUNK].sum()) for i in range(0, m, CHUNK)]
        heads = {(): 0}
        for offs, out in zip(offsets, hists):
            lead = offs[:-1]
            if lead not in heads:   # in place: a temporary per step ran k = 4 ~10% slower
                head = heads[lead] = levels[lead[0] : lead[0] + m].astype(index)
                for o in lead[1:]:
                    head *= base
                    head += levels[o : o + m]
                head *= base
            np.add(heads[lead], levels[offs[-1] : offs[-1] + m], out=row[:m])
            for hist, w in zip(out, weightings):
                hist += np.bincount(row[:m], weights=inv_n if w == LOGARITHMIC else None,
                                    minlength=hist.size)
    return hists, math.fsum(chunk_masses) if weighted else None


def two_point_profiles(n_limit: int, shifts) -> list[TwoPointProfile]:
    """Sufficient statistics for two-point averages over n <= N, per shift.

    Every shift missing from the cache is filled by one pass over the
    shared block, and the profiles come back in the order of shifts.  The
    (N, 0) profile is the (N, 1) profile's hist, log_hist and harmonic
    mass, with diagonal joints.
    """
    n_limit, shifts = int(n_limit), [int(h) for h in shifts]
    if n_limit < 3:
        raise ContractError("profile needs N >= 3")
    if not shifts or min(shifts) < 0:
        raise ContractError("profile needs shifts >= 0")
    found = {h: _profile_cache[(n_limit, h)] for h in shifts
             if (n_limit, h) in _profile_cache}
    missing = [h for h in dict.fromkeys(shifts) if h not in found]
    one = _profile_cache.get((n_limit, 1))
    # shift 0 never sweeps: it puts shift 1 in the pass unless (N, 1) is cached
    swept = list(dict.fromkeys(1 if h == 0 else h for h in missing if h or one is None))
    made = {}
    if swept:
        hists, mass = level_histograms(n_limit, [(0, h) for h in swept], NBINS,
                                       (CESARO, LOGARITHMIC))
        for shift, (joint, joint_log) in zip(swept, hists):
            joint, joint_log = joint.reshape(NBINS, NBINS), joint_log.reshape(NBINS, NBINS)
            made[shift] = TwoPointProfile(n_limit, shift, joint.sum(axis=1),
                                          joint_log.sum(axis=1), joint, joint_log, mass)
    if 0 in missing:
        # the marginal is the (N, 1) profile's row sums, the same arrays
        one = made.get(1, one)
        made[0] = TwoPointProfile(n_limit, 0, one.hist, one.log_hist, np.diag(one.hist),
                                  np.diag(one.log_hist), one.harmonic_mass)
    for shift in dict.fromkeys([*missing, *made]):   # the order asked, then shift 1
        if len(_profile_cache) >= _CACHE_LIMIT:
            del _profile_cache[next(iter(_profile_cache))]
        _profile_cache[(n_limit, shift)] = found[shift] = made[shift]
    return [found[h] for h in shifts]


def two_point_profile(n_limit: int, shift: int = 1) -> TwoPointProfile:
    """The profile of one shift: two_point_profiles(n_limit, [shift])."""
    return two_point_profiles(n_limit, [shift])[0]


def log_joints(n_limit: int, shifts) -> tuple[list[np.ndarray], float]:
    """The 1/n-weighted NBINS x NBINS joint of each shift h >= 1, and the harmonic mass.

    A shift whose (N, h) profile is cached is read from its joint_log; every
    other shift is filled by one LOGARITHMIC pass, which makes no Cesaro
    bincount.  The joints are the bits of the profiles' joint_log, and
    nothing is written to the profile cache.
    """
    n_limit, shifts = int(n_limit), [int(h) for h in shifts]
    if n_limit < 3:
        raise ContractError("profile needs N >= 3")
    if not shifts or min(shifts) < 1:
        raise ContractError("log joints need shifts >= 1")
    cached = {h: _profile_cache[(n_limit, h)] for h in shifts if (n_limit, h) in _profile_cache}
    joints = {h: profile.joint_log for h, profile in cached.items()}
    missing = [h for h in dict.fromkeys(shifts) if h not in joints]
    if missing:
        hists, mass = level_histograms(n_limit, [(0, h) for h in missing], NBINS,
                                       (LOGARITHMIC,))
        joints.update((h, hist.reshape(NBINS, NBINS)) for h, (hist,) in zip(missing, hists))
    else:
        mass = next(iter(cached.values())).harmonic_mass
    return [joints[h] for h in shifts], mass
