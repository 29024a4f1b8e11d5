"""Segmented counting of prime factors over integer ranges.

The kernels count prime factors with multiplicity (the completely additive
count), distinct prime factors, or distinct prime factors up to a cutoff,
for every n in a half-open range [lo, hi).  Ranges are processed in fixed
segments of SEGMENT integers, one after another, so memory stays bounded
and results are identical no matter how the range is split; each n
belongs to exactly one segment and each segment writes only its own slice
of the output.

Each segment strips every base prime up to its square root, with all of
its powers q = p, p**2, ... that divide some n in the segment (summing the
indicators of q | n gives the exact exponent of p).  A segment keeps one
packed uint16 word per n: the count in the top c bits, and in the low
16 - c bits the log units of the prime powers found, the sum of
floor(S log2 p) over them (the packed word and its scale S are fixed per
range, see _layout).  Each prime power adds one increment to the word,
(1 << (16 - c)) + floor(S log2 p) where it counts and floor(S log2 p)
where it does not (a power past p in the distinct modes).

The segment starts from a pattern of period 5040 = 2**4 * 3**2 * 5 * 7
(pre-sieving, as in Oliveira e Silva, Herzog and Pardi, Math. Comp. 83
(2014)): each n starts at the word of the powers of 2, 3, 5 and 7 that
divide gcd(n, 5040), copied once at the offset lo mod 5040 and then
doubled in place.  The other base primes, and the powers of the tile
primes past the tile (32, 27, 25, 49, ...), take one of two paths:

- small primes, p <= (segment length) / 128: one strided pass
  word[s::q] += increment per prime power;
- large primes, which hit a segment at most 128 times: one vectorised
  pass per power round expands the hits of a batch of primes, at most
  2**14 hits, and adds their increments with np.add.at (the bucket idea
  of the same paper).

After the strip, n is the product of the prime powers found times a rest
that is 1 or the one prime factor of n above the root.  Big and small
counts add one where the rest is a prime, which the log units decide
exactly (the approximate-log test of sieving, made exact by a proven
margin; see _residual_threshold).  A truncated count whose cutoff reaches
past the root must decide 1 < rest <= cutoff, which no fixed-point log
decides, so that mode alone also keeps the exact product of the prime
powers found, its smooth part (uint32 on a segment that ends at or below
2**32, int64 above), and divides; a cutoff below the root needs neither.
A segment that keeps the smooth part is cut so that word and smooth part
fit the 2 MiB of a whole segment's word.

A range is set up once (range_filler: base primes, word layout, tiles)
and then filled piece by piece, segment after segment; factor_counts is
one fill of a fresh block.  A fill holds its output, one segment's word
(and smooth part) and a batch of hits, and the range its base primes, as
uint32: every range end below 2**63 puts them below 2**32.  A caller that
fills a long range into one reused buffer (factor_count_pieces, a streamed
sweep) holds one piece: the sieve command writes each piece to its file
with write_block(append=True) or write_block_csv(append=True) before the
next is filled.
"""

from __future__ import annotations

import functools
import math
import os
import struct
from dataclasses import dataclass
from math import isqrt

import numpy as np

from .errors import CapacityError, ContractError, EmptyDomainError

# Largest exclusive range end the kernels accept: every n, and every prime
# power and smooth part that divides one, fits in int64.
MAX_RANGE_END = 2**63

# Integers per segment of factor_counts.  A segment's working array is its
# uint16 word, 2 MiB at 2**20 (a segment that keeps a truncated smooth part
# is cut to fit both in that; see _segments).  factor_counts(1, 10**8 + 16)
# with the packed word, medians [quartiles] of 7 alternated fresh processes
# on a 2-core x86 box: 2**19, 0.93 s [0.84, 1.02]; 2**20, 0.75 s [0.73,
# 0.81]; 2**21, 0.73 s [0.70, 0.75], inside the spread of 2**20.  Earlier
# kernels: at 2**22 the int64 smooth part was 32 MiB, glibc's largest mmap
# threshold, and every segment faulted in fresh pages (stats_1e8 set-up
# 4.42 s against 2.91 s at 2**20).
SEGMENT = 1 << 20

# Odd numbers per segment of prime_segments: a segment holds a boolean mask
# of this many bytes, its index and its primes, and a prime sum holds float
# and complex columns over the segment's primes.  enumerate_primes(10**8),
# two fresh processes each on a 2-core x86 box: 2**16, 0.42-0.55 s; 2**17,
# 0.38-0.43 s; 2**18, 0.22-0.27 s; 2**19, 0.20-0.27 s; 2**20, 0.18-0.19 s;
# 2**21, 0.21-0.27 s.  The tracemalloc peak of distance_sq_to_twist at 10**7
# is 3.0 MiB at 2**18, 5.6 MiB at 2**19 and 10.7 MiB at 2**20.  2**19 odd
# numbers reach 2**20, so a prime sum at N <= 10**6 is one segment and the
# same bits as a pass over the whole table.
PRIME_SEGMENT = 1 << 19

# Base primes p <= (segment length) >> _STRIDED_SHIFT take one strided pass
# per prime power; larger ones, which hit a segment at most 2**_STRIDED_SHIFT
# times, take the bucketed pass.  Shifts 6 to 9 ran within 25% of each other
# (about the run-to-run noise) on 10^6-wide windows at 10^12 and 10^14, on a
# 2-core x86 box.  With 2**20 segments a range below 2**26 is all strided.
_STRIDED_SHIFT = 7
# Hits expanded at once on the bucketed pass.  The tracemalloc peak of one
# segment's bucketed pass (2**20 at 10^14, primes to 10^7) is one batch's
# temporaries: 0.30 MiB at 2**12, 0.57 at 2**13, 1.06 at 2**14, 1.85 at
# 2**15, 3.01 at 2**16.  10^6-wide windows at 10^12 (big), 10^14 and 10^16
# (small), medians of 5 in two processes on a 2-core x86 box: 2**12, 0.03 /
# 0.10 / 0.53 s; 2**13, 0.02 / 0.07 / 0.39-0.44 s; 2**14, 0.02 / 0.07 /
# 0.40 s; 2**16, 0.02 / 0.07-0.08 / 0.41-0.43 s.
_HIT_BATCH = 1 << 14
_RESIDUAL_BLOCK = 1 << 16  # integers whose rest is decided at once
# Log units any float rounding can move a bound of _residual_threshold by;
# the rounding itself stays below 2**-25 units (see there).
_ROUNDING = 2.0 ** -16

# Every segment starts from a pattern of period _TILE, which holds the
# powers of the primes 2, 3, 5, 7 up to their exponents in _TILE.  A
# 720720 period (adding 11 and 13) and a 151200 one (2**5 * 3**3 * 5**2 * 7)
# were no faster at N = 10^8 on a 2-core x86 box.
_TILE_POWERS = {2: 16, 3: 9, 5: 5, 7: 7}   # each tile prime's power in _TILE
_TILE = math.prod(_TILE_POWERS.values())   # 5040
# a truncated mode's smooth part divides n < hi, so below 2**32 it fits in 32 bits
_SMOOTH32_END = 2**32


@dataclass(frozen=True)
class CountMode:
    """How prime factors are counted.

    kind is one of "big" (with multiplicity), "small" (distinct) or
    "truncated" (distinct, primes <= cutoff only).
    """

    kind: str
    cutoff: float = math.inf

    def __post_init__(self):
        if self.kind not in ("big", "small", "truncated"):
            raise ContractError(f"unknown count mode {self.kind!r}")
        if self.kind == "truncated":
            if not math.isfinite(self.cutoff) or self.cutoff < 2:
                raise ContractError(
                    "truncated mode needs a finite prime cutoff >= 2, "
                    f"got {self.cutoff!r}"
                )


BigOmega = CountMode("big")
SmallOmega = CountMode("small")


def TruncatedOmega(cutoff) -> CountMode:  # noqa: N802 - reads as a constructor
    """Distinct-prime counting restricted to primes p <= cutoff (inclusive)."""
    return CountMode("truncated", float(cutoff))


@dataclass(frozen=True)
class SieveConfig:
    """How many segments a factor_count_pieces piece holds.  Every
    worker_count gives the same bits."""

    worker_count: int = 1

    def __post_init__(self):
        if self.worker_count < 1:
            raise ContractError("worker_count must be >= 1")


@dataclass(frozen=True)
class FactorCountBlock:
    lo: int
    hi: int  # exclusive
    mode: CountMode
    counts: np.ndarray  # uint8, counts[n - lo] for n in [lo, hi)


def prime_segments(limit: int, lo: int = 0):
    """The primes <= limit, ascending, as one int64 array per segment,
    from the segment that holds lo on (primes below lo in it included).

    Segment j sieves the odd numbers 2i + 1 with i in [j L, (j + 1) L),
    L = PRIME_SEGMENT, striking the odd multiples of every odd base prime
    p <= isqrt(limit) from p**2 on; 2 leads the first segment.  The base
    primes are enumerate_primes(isqrt(limit)); a segment is made when it is
    drawn and then held by the caller alone.  The limit is checked when
    this is called, not when the first segment is drawn.
    """
    limit, lo = int(limit), int(lo)
    if limit < 2:
        raise EmptyDomainError(f"no primes below 2 (limit={limit})")
    if limit >= MAX_RANGE_END:
        raise CapacityError(f"limit {limit} exceeds 64-bit sieve capacity")
    if lo < 0:
        raise ContractError(f"prime segments need lo >= 0, got {lo}")
    return _odd_segments(limit, lo // 2 // PRIME_SEGMENT * PRIME_SEGMENT)


def _odd_segments(limit, first):
    """The segments of prime_segments for a checked limit, from odd index first."""
    root = isqrt(limit)
    base = enumerate_primes(root)[1:] if root >= 3 else np.empty(0, np.int64)
    squares = base * base // 2   # the index i of p**2 = 2i + 1
    end = (limit + 1) // 2       # the odd numbers up to limit are i < end

    def segment(lo):
        hi = min(lo + PRIME_SEGMENT, end)
        odd = np.ones(hi - lo, dtype=bool)   # odd[i - lo]: is 2i + 1 prime
        if lo == 0:
            odd[0] = False
        k = int(np.searchsorted(squares, hi))   # the primes whose square is in reach
        # the first i >= lo with p | 2i + 1, and not below the square
        starts = np.maximum(squares[:k], lo + (squares[:k] - lo) % base[:k]) - lo
        for s, p in zip(starts.tolist(), base[:k].tolist()):
            odd[s::p] = False
        index = np.flatnonzero(odd)
        del odd
        two = int(lo == 0)
        primes = np.empty(two + index.size, dtype=np.int64)
        primes[:two] = 2
        np.multiply(index, 2, out=primes[two:])
        del index   # not held while the segment is read
        primes[two:] += 2 * lo + 1
        return primes

    return map(segment, range(first, end, PRIME_SEGMENT))


def prime_count_bound(x: float) -> int:
    """ceil(1.25506 x / log x), above pi(x) for every x > 1 (Rosser and
    Schoenfeld, 1962)."""
    return math.ceil(1.25506 * x / math.log(x))


def enumerate_primes(limit: int, dtype=np.int64) -> np.ndarray:
    """All primes <= limit, ascending: the segments of prime_segments copied
    into one array of prime_count_bound(limit) + 1 entries of dtype, which
    is then cut to length in place (a narrower dtype makes no wide copy)."""
    segments = prime_segments(limit)
    out = np.empty(prime_count_bound(limit) + 1, dtype=dtype)
    size = 0
    for primes in segments:
        out[size : size + primes.size] = primes
        size += primes.size
    out.resize(size, refcheck=False)
    return out


def truncation_cutoff(n_limit: int) -> float:
    """Default truncated-count cutoff N**(1/(loglog N)**8).

    Degenerates below 2 for every desk-scale N; callers that need a usable
    cutoff must override it and may treat a value < 2 as degenerate.
    """
    if n_limit < 3:
        raise ContractError("cutoff formula needs n_limit >= 3")
    loglog = math.log(math.log(n_limit))
    if loglog <= 0:
        raise ContractError("cutoff formula needs loglog(n_limit) > 0")
    return n_limit ** (1.0 / loglog**8)


def _base_primes(hi: int) -> np.ndarray:
    # sieved afresh, never kept: the primes below the square root of a far
    # window (10^7 at 10^14), retained, would add to every later memory peak.
    # hi <= 2**63 puts the root below 2**32, so uint32 holds them at half
    # the bytes of int64 (2.7 MB at 10^14)
    root = isqrt(hi - 1)
    if root < 2:
        return np.empty(0, dtype=np.uint32)
    return enumerate_primes(root, np.uint32)


@dataclass(frozen=True)
class _Layout:
    """The packed uint16 word of one range.

    The count sits above bit shift, the log units below it; a prime power
    of p adds floor(scale * log2 p) log units.  Truncated mode has scale 0:
    its word holds the count alone.
    """

    shift: int
    scale: int


def _layout(hi, mode) -> _Layout:
    """The word for a range ending at hi: as many log units as fit.

    With top = max(hi, 2 * _TILE), a count of at most floor(log2(top - 1))
    needs c = bit_length(floor(log2(top - 1))) bits: 4 up to 2**16, 5 up to
    2**32, 6 above.  The scale is the largest S with S log2 top + _ROUNDING
    <= 2**(16 - c), so the log units of every n < hi, at most S log2 n plus
    the rounding of _residual_threshold, stay below 2**(16 - c); so do those
    of every tile entry, whose gcd divides 5040 < top / 2.
    """
    top = max(hi, 2 * _TILE)
    shift = 16 - ((top - 1).bit_length() - 1).bit_length()
    if mode.kind == "truncated":
        return _Layout(shift, 0)
    return _Layout(shift, math.floor(((1 << shift) - _ROUNDING) / math.log2(top)))


def _log_units(primes, scale) -> np.ndarray:
    """floor(scale * log2 p) for each prime, as uint16 (all 0 at scale 0)."""
    if not scale:
        return np.zeros(primes.size, np.uint16)
    return np.floor(scale * np.log2(primes)).astype(np.uint16)


def _residual_threshold(a, b, root, layout):
    """T with: n in [a, b) has a prime factor above root iff its log units < T.

    Let S be the scale, U(n) the log units of n (the sum of floor(S log2 p)
    over the m prime powers found, m <= floor(log2(b - 1))) and
    D(n) = S log2 n - U(n) its deficit.  Each floor loses less than one
    unit, so

    - rest 1 (n is the product of the powers found): 0 <= D(n) < m, so
      U(n) > S log2 a - m;
    - rest a prime P > root: D(n) >= S log2 P >= S log2(root + 1), so
      U(n) <= S log2(b - 1) - S log2(root + 1).

    Float rounding: each floor(S log2 p) is taken of S log2 p computed to
    within 2**-32 units (S log2 p < 2**12, numpy's log2 within a few ulp),
    so it may be one unit off the true floor only where S log2 p lies
    within 2**-32 of an integer, and then still within 2**-32 of the true
    value; the m <= 63 terms and the float bounds below add up to less
    than 2**-25 units, far inside _ROUNDING.  With above and below the two
    bounds widened by _ROUNDING, T = floor(above) + 1 separates the cases
    when floor(above) <= floor(below).  The gap is S log2(root + 1) - m -
    S log2((b - 1) / a), and _fill_segment cuts blocks with b <= 2a, so
    log2((b - 1) / a) < 1 leaves it above a unit on every block
    (tests/test_sieve.py checks these margins for range ends of every bit
    length); bounds that cross are an internal error.
    """
    scale, m = layout.scale, (b - 1).bit_length() - 1
    above = scale * math.log2(b - 1) - scale * math.log2(root + 1) + _ROUNDING
    below = scale * math.log2(a) - m - _ROUNDING
    if math.floor(above) > math.floor(below):
        raise AssertionError(f"no residual threshold on [{a}, {b}) with root {root}")
    # T <= 0 adds to no n, T = 2**shift to every n; both clamp exactly
    return min(max(math.floor(above) + 1, 0), 1 << layout.shift)


def _add_residual(a, root, word, out, layout):
    """out = count of word, plus one where n = a + i has a factor above root.

    ((word ^ mask) + T) >> shift, T the threshold of _residual_threshold,
    carries one into the count exactly where the log units are below T.
    """
    word ^= (1 << layout.shift) - 1
    word += _residual_threshold(a, a + word.size, root, layout)
    np.right_shift(word, layout.shift, out=out, casting="unsafe")


def _strided(lo, hi, primes, word, smooth, layout, distinct, powers):
    """Small base primes: one strided pass per prime power that hits [lo, hi).

    A tile prime starts at its first power past the tile.  Without powers
    each prime takes its first pass only.
    """
    one = 1 << layout.shift
    for p, units in zip(primes.tolist(), _log_units(primes, layout.scale).tolist()):
        q = p * _TILE_POWERS.get(p, 1)   # a tile prime resumes past the tile
        while q < hi:
            s = (-lo) % q   # lo >= 1, so the first multiple >= lo is >= q
            if s >= hi - lo:
                break
            increment = units + (one if q == p or not distinct else 0)
            if increment:
                word[s::q] += increment
            if smooth is not None:
                smooth[s::q] *= p
            if not powers:
                break
            q *= p


def _bucketed(lo, hi, primes, word, smooth, layout, distinct, powers):
    """Large base primes: the hits of many primes expanded in one pass.

    A prime p hits the segment about (hi - lo) / p times, so each round
    takes the first offset (-lo) mod q of every prime power q in play,
    expands the hits with a repeat and a ragged arange, and adds their
    increments by np.add.at.  Primes go in chunks whose hits are at most
    _HIT_BATCH.
    """
    length = hi - lo
    one = np.uint16(1 << layout.shift)
    i = 0
    while i < primes.size:
        per_prime = length // int(primes[i]) + 1   # primes ascend: the most hits
        j = min(primes.size, i + max(1, _HIT_BATCH // per_prime))
        # int64, as (-lo) % q with lo past 2**32 needs it (uint32 would overflow)
        p = q = primes[i:j].astype(np.int64)
        units = _log_units(p, layout.scale)
        i = j
        count = True   # powers past p count with multiplicity only
        while p.size:
            first = (-lo) % q
            hit = first < length
            first, step = first[hit], q[hit]
            hits = (length - 1 - first) // step + 1
            rank = np.arange(int(hits.sum())) - np.repeat(np.cumsum(hits) - hits, hits)
            offsets = np.repeat(first, hits) + rank * np.repeat(step, hits)
            if layout.scale:
                increment = units[hit] + one if count else units[hit]
                np.add.at(word, offsets, np.repeat(increment, hits))
            elif count:
                np.add.at(word, offsets, one)
            if smooth is not None:
                np.multiply.at(smooth, offsets, np.repeat(p[hit], hits))
            if not powers:
                break
            # a power that misses the segment takes its multiples q * p along;
            # q * p <= hi - 1 < 2**63 for every prime kept, so no overflow
            keep = hit & (q <= (hi - 1) // p)
            p, units = p[keep], units[keep]
            q = q[keep] * p
            count = not distinct


def _tiles(mode, layout):
    """Tile patterns over two periods, for the first k tile primes, k = 0 .. 4.

    Entry k is (word, smooth): at r, the packed word of the tile prime
    powers among the first k that divide gcd(r, _TILE), and in truncated
    mode the part of that gcd they make up (None in the other modes).
    Read-only, so every segment of one range reads the same patterns.
    """
    truncated = mode.kind == "truncated"
    word = np.zeros(2 * _TILE, np.uint16)
    smooth = np.ones(2 * _TILE, np.uint32) if truncated else None
    tiles = [(word, smooth)]
    units = _log_units(np.array(list(_TILE_POWERS)), layout.scale).tolist()
    for (p, power), p_units in zip(_TILE_POWERS.items(), units):
        word = word.copy()
        smooth = smooth.copy() if truncated else None
        q = p
        while q <= power:   # q divides the period, so r = 0 starts every stride
            counted = q == p or mode.kind == "big"
            word[::q] += (counted << layout.shift) + p_units
            if truncated:
                smooth[::q] *= p
            q *= p
        tiles.append((word, smooth))
    for pattern in (a for tile in tiles for a in tile if a is not None):
        pattern.flags.writeable = False
    return tiles


def _tile_fill(pattern, lo, out):
    """out[i] = pattern[(lo + i) % _TILE]: one offset copy, then doubling copies."""
    start, filled = lo % _TILE, min(out.size, _TILE)
    out[:filled] = pattern[start : start + filled]
    while filled < out.size:   # filled is a multiple of the period
        step = min(filled, out.size - filled)
        out[filled : filled + step] = out[:step]
        filled += step


def _rank(primes, x) -> int:
    """The number of entries <= x of the ascending uint32 primes, x < 2**32.

    x goes in as a uint32 scalar: searchsorted with a Python int makes an
    int64 copy of the whole array (5.3 MB for the primes up to 10^7).
    """
    return int(np.searchsorted(primes, np.uint32(x), side="right"))


def _segments(lo, hi, mode):
    """The segments [a, b) of [lo, hi), each of SEGMENT entries but the last.

    A segment that keeps the smooth part (truncated, cutoff past its root)
    is cut to 2 * SEGMENT // (2 + w) entries, w the smooth part's bytes an
    entry, so that its word and smooth part fit the word's 2 * SEGMENT
    bytes: 349 525 entries below 2**32 and 209 715 above at 2**20, where a
    whole segment held a 4 or 8 MiB smooth part.
    """
    cutoff = math.floor(mode.cutoff) if mode.kind == "truncated" else 0
    a = lo
    while a < hi:
        b = min(a + SEGMENT, hi)
        if cutoff > isqrt(b - 1):
            smooth_bytes = 4 if b <= _SMOOTH32_END else 8
            b = min(a + max(1, 2 * SEGMENT // (2 + smooth_bytes)), hi)
        yield a, b
        a = b


def _fill_segment(lo, hi, base, out, mode, layout, tiles):
    """Counts on one segment [lo, hi) into out.

    Every base prime up to the segment root (or up to the cutoff when that
    is lower) is counted exactly.  The word (and in truncated mode the
    smooth part) starts from the tile of the tile primes among them.  When
    a factor above the root may count, every power of every base prime is
    found, so the rest of n is 1 or that one factor.
    """
    root = isqrt(hi - 1)
    truncated = mode.kind == "truncated"
    cutoff = math.floor(mode.cutoff) if truncated else 0
    residual = not truncated or cutoff > root
    primes = base[: _rank(base, root if residual else cutoff)]
    tiled = _rank(primes, max(_TILE_POWERS))   # the tile primes in play
    tile_word, tile_smooth = tiles[tiled]
    word = np.empty(hi - lo, np.uint16)
    _tile_fill(tile_word, lo, word)
    smooth = None
    if truncated and residual:
        smooth = np.empty(hi - lo, np.uint32 if hi <= _SMOOTH32_END else np.int64)
        _tile_fill(tile_smooth, lo, smooth)
    distinct = mode.kind != "big"
    # tile primes always take the strided pass, from their first power past the tile
    split = max(tiled, _rank(primes, min((hi - lo) >> _STRIDED_SHIFT, root)))
    _strided(lo, hi, primes[:split], word, smooth, layout, distinct, residual)
    _bucketed(lo, hi, primes[split:], word, smooth, layout, distinct, residual)
    if not residual:
        np.right_shift(word, layout.shift, out=out, casting="unsafe")
        return
    # blocks [a, b) with b <= 2a, so each has one threshold: from 1 they
    # double up to _RESIDUAL_BLOCK
    a = lo
    while a < hi:
        b = min(a + _RESIDUAL_BLOCK, 2 * a, hi)
        block = slice(a - lo, b - lo)
        if smooth is None:
            _add_residual(a, root, word[block], out[block], layout)
        else:
            # smooth divides n, so both fit in smooth's dtype
            part = smooth[block]
            rest = np.arange(a, b, dtype=part.dtype) // part
            np.right_shift(word[block], layout.shift, out=out[block], casting="unsafe")
            out[block] += (rest > 1) & (rest <= cutoff)
        a = b


def _check_range(lo: int, hi: int) -> tuple[int, int]:
    """(lo, hi) as ints, once 1 <= lo < hi <= MAX_RANGE_END holds."""
    lo, hi = int(lo), int(hi)
    if not 1 <= lo < hi:
        raise ContractError(f"need 1 <= lo < hi, got [{lo}, {hi})")
    if hi > MAX_RANGE_END:
        raise CapacityError(f"range end {hi} exceeds 64-bit sieve capacity")
    return lo, hi


def range_filler(hi: int, mode: CountMode):
    """fill(lo, out), which writes the counts of n = lo .. lo + out.size - 1
    into the 1-D uint8 array out, for 1 <= lo and lo + out.size <= hi.

    hi is checked, and the base primes up to isqrt(hi - 1), _layout(hi,
    mode) and the tiles are made, here, once for every fill: a 2 * 10^7-wide
    range at 10^14 re-enumerated its base primes a piece in 0.43 s of 2.1 s.
    The log units are proven below hi only, so a fill past it is refused.
    """
    hi = _check_range(1, hi)[1]
    base = _base_primes(hi)
    layout = _layout(hi, mode)
    tiles = _tiles(mode, layout)

    def fill(lo, out):
        lo = int(lo)
        if not (isinstance(out, np.ndarray) and out.dtype == np.uint8 and out.ndim == 1):
            raise ContractError(f"out must be a 1-D uint8 array, got "
                                f"{getattr(out, 'dtype', type(out))} of shape {np.shape(out)}")
        if not 1 <= lo <= hi - out.size:
            raise ContractError(f"fill needs 1 <= lo and lo + out.size <= {hi}, "
                                f"got [{lo}, {lo + out.size})")
        for a, b in _segments(lo, lo + out.size, mode):
            _fill_segment(a, b, base, out[a - lo : b - lo], mode, layout, tiles)
    return fill


def factor_counts(lo: int, hi: int, mode: CountMode = BigOmega,
                  config: SieveConfig | None = None) -> FactorCountBlock:
    """Exact per-n prime-factor counts on [lo, hi) under the given mode, in
    one block that one range_filler(hi, mode) fills.  config is taken for
    its worker_count, which sets only the pieces of factor_count_pieces.
    """
    lo, hi = _check_range(lo, hi)
    out = np.empty(hi - lo, dtype=np.uint8)
    range_filler(hi, mode)(lo, out)
    return FactorCountBlock(lo=lo, hi=hi, mode=mode, counts=out)


def factor_count_pieces(lo: int, hi: int, mode: CountMode, config: SieveConfig):
    """The counts of [lo, hi) as consecutive blocks of config.worker_count
    segments, which one range_filler(hi, mode) fills into one reused
    buffer: read a block before drawing the next.  The range is checked and
    set up when this is called, not when the first block is drawn.
    """
    lo, hi = _check_range(lo, hi)
    fill, step = range_filler(hi, mode), config.worker_count * SEGMENT
    buffer = np.empty(min(step, hi - lo), dtype=np.uint8)

    def piece(a):
        counts = buffer[: min(step, hi - a)]
        fill(a, counts)
        return FactorCountBlock(lo=a, hi=a + counts.size, mode=mode, counts=counts)
    return map(piece, range(lo, hi, step))


def liouville(block: FactorCountBlock) -> np.ndarray:
    """Per-n values (-1)**count for a multiplicity-counted block."""
    if block.mode.kind != "big":
        raise ContractError("liouville needs a multiplicity-counted block")
    return (1 - 2 * (block.counts.astype(np.int8) & 1)).astype(np.int8)


def factorize(n: int):
    """Trial division over the 6k +- 1 wheel: [(p, exponent), ...], p ascending.

    The one factoriser of the package, independent of the segment kernel.
    """
    n = int(n)
    if n < 1:
        raise ContractError(f"factorization needs n >= 1, got {n}")
    out = []
    for p in (2, 3):
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            out.append((p, e))
    d = 5
    while d * d <= n:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            out.append((d, e))
        d += 2 if d % 6 == 5 else 4
    if n > 1:
        out.append((n, 1))
    return out


# One step of factorize's trial division (a Python loop step) costs about as
# much as 35 mask bytes of prime_segments: 119-122 ns a division for primes
# near 10^8 and 10^9, against 3.4 ns a byte for the segments up to 10^8
# (2-core x86 box).
_DIVISION_BYTES = 35


def require_primes(values, what: str) -> None:
    """Raise ContractError unless every entry of values is a prime.

    The cheaper of two checks is taken for each call.  Trial division
    (factorize) costs about isqrt(v) / 3 divisions a value v, the sieve
    about max(values) / 2 mask bytes, and one division is weighed as
    _DIVISION_BYTES bytes.  The sieve looks the distinct values up, in
    ascending order, by binary search in the segment of prime_segments that
    holds each, so one segment of primes, not every prime up to the
    largest value, is held at once.
    """
    values = np.unique(np.asarray(values, dtype=np.int64))
    if not values.size:
        return
    bad = ContractError(f"{what} contains a number that is not prime")
    if values[0] < 2:
        raise bad
    divisions = float(np.sqrt(values).sum()) / 3
    if _DIVISION_BYTES * divisions < int(values[-1]) / 2:
        if any(factorize(v) != [(v, 1)] for v in values.tolist()):
            raise bad
        return
    done = 0
    for primes in prime_segments(int(values[-1])):
        if not primes.size:
            continue
        # the values up to this segment's last prime are prime iff it holds them
        stop = int(np.searchsorted(values, primes[-1], side="right"))
        held = values[done:stop]
        if np.any(primes[np.searchsorted(primes, held)] != held):
            raise bad
        done = stop
    if done < values.size:   # past the last prime up to the largest value
        raise bad


def omega_oracle(n: int) -> int:
    """Prime factors of n with multiplicity, by trial division; test reference."""
    return sum(e for _, e in factorize(n))


# ---------------------------------------------------------------------------
# interchange formats

_HEADER = struct.Struct("<QQBd")  # lo, hi, mode code, cutoff
_MODE_CODE = {"big": 0, "small": 1, "truncated": 2}
_CODE_MODE = {v: k for k, v in _MODE_CODE.items()}
# CSV rows rendered and written at once.  write_block_csv of the block of
# [1, 10**6 + 1) to a file, medians of 7 in each of four runs on a shared
# 2-core x86 box: 2**14 to 2**16 rows, 0.028-0.046 s; 2**17, 0.036-0.053 s;
# 2**18, 0.042-0.058 s (a batch's byte matrices outgrow the cache).  One
# f-string per row, in batches of 2**12: 0.30-0.39 s.
_CSV_ROWS = 1 << 16
_GROUP = 10**4   # n // _GROUP is one string per group, n % _GROUP a table word


@functools.cache
def _csv_words() -> tuple[np.ndarray, np.ndarray]:
    """The digit words and count words of the CSV rows, read-only.

    Digit word k < 10**4: the four ASCII digits of k, leading zeros kept,
    in text order.  Count word c < 100: ",tu\\n" for c = 10t + u (t = 0 is
    dropped later).  Built on the first CSV write, not at import: building
    them raised the resident set of every command by 0.3-0.4 MB.
    """
    k = np.arange(_GROUP, dtype=np.uint32)
    digits = (0x30303030 + k // 1000 + ((k // 100 % 10) << 8)
              + ((k // 10 % 10) << 16) + ((k % 10) << 24)).astype("<u4")
    counts = (0x0A00002C | ((digits[:100] >> 16) << 8)).astype("<u4")
    digits.flags.writeable = counts.flags.writeable = False
    return digits, counts


def write_block(block: FactorCountBlock, path, append: bool = False) -> None:
    """Binary dump: little-endian header {lo,hi,mode,cutoff} + raw bytes.

    append extends the block file at path, which must end where block
    starts and hold its mode: block's counts go after its body and its
    header's hi becomes block.hi.  A sieve streamed piece by piece so
    writes the bytes of one dump of the whole block.
    """
    code = _MODE_CODE[block.mode.kind]
    cutoff = block.mode.cutoff if block.mode.kind == "truncated" else 0.0
    with open(path, "r+b" if append else "wb") as fh:
        lo = block.lo
        if append:
            raw = fh.read(_HEADER.size)
            held = _HEADER.unpack(raw) if len(raw) == _HEADER.size else None
            if held is None or held[1:] != (block.lo, code, cutoff):
                raise ContractError(f"{path} is not a block file that block "
                                    f"[{block.lo}, {block.hi}) continues")
            lo = held[0]
        # the body first: a header never promises counts that are not written
        fh.seek(_HEADER.size + block.lo - lo)
        fh.write(np.ascontiguousarray(block.counts).data)   # the buffer itself, no copy
        fh.seek(0)
        fh.write(_HEADER.pack(lo, block.hi, code, cutoff))


def read_block(path) -> FactorCountBlock:
    """The block write_block wrote to the regular file at path.

    The body is read into the block's own array, after its length is
    checked against the header from the file size.
    """
    with open(path, "rb") as fh:
        raw = fh.read(_HEADER.size)
        if len(raw) != _HEADER.size:
            raise ContractError(f"truncated block header in {path}")
        lo, hi, code, cutoff = _HEADER.unpack(raw)
        if hi > MAX_RANGE_END:
            raise CapacityError(
                f"block header in {path}: range end {hi} exceeds 64-bit capacity")
        if not 1 <= lo < hi:
            raise ContractError(
                f"block header in {path}: need 1 <= lo < hi, got [{lo}, {hi})")
        if code not in _CODE_MODE:
            raise ContractError(f"unknown mode code {code} in {path}")
        body = os.fstat(fh.fileno()).st_size - _HEADER.size
        if body != hi - lo:
            raise ContractError(
                f"block body has {body} bytes, header promises {hi - lo}"
            )
        counts = np.empty(hi - lo, dtype=np.uint8)
        if fh.readinto(counts) != counts.size or fh.read(1):
            raise ContractError(f"block body of {path} changed while it was read")
    kind = _CODE_MODE[code]
    mode = CountMode(kind, cutoff) if kind == "truncated" else CountMode(kind)
    return FactorCountBlock(lo=int(lo), hi=int(hi), mode=mode, counts=counts)


def write_block_csv(block: FactorCountBlock, handle, append: bool = False) -> None:
    """CSV export to an open text file: the header `n,count`, then one row
    per integer in the block, byte for byte f"{n},{count}\\n".  append
    leaves out the header, for a block whose rows continue those written.

    The rows are rendered by numpy in batches of _CSV_ROWS, each batch cut
    where n gains a digit (see _csv_run); no Python runs per row.  A block
    of 10**6 rows takes 0.03-0.05 s, against 0.30-0.39 s for one f-string
    per row, and the memory of one batch, not of the block.  Counts above
    99 raise ContractError (no n < 2**63 has more than 62 prime factors).
    """
    counts = block.counts
    top = int(counts.max(initial=0))
    if top > 99:
        raise ContractError(f"CSV counts must be below 100, got {top}")
    if not append:
        handle.write("n,count\n")
    n, hi = block.lo, block.lo + counts.size
    while n < hi:
        width = len(str(n))
        end = min(hi, n + _CSV_ROWS, 10**width)
        rows = _csv_run(n, counts[n - block.lo : end - block.lo], width)
        handle.write(str(rows, "ascii"))
        n = end


def _csv_run(lo: int, counts: np.ndarray, width: int) -> np.ndarray:
    """The ASCII bytes of the rows f"{n},{c}\\n" for n = lo, lo + 1, ... with
    c = counts[n - lo], every n of `width` digits, at most _CSV_ROWS rows.

    Each row is first a fixed record: the digits of n // 10**4, the four
    digits of n % 10**4 and the word ",tu\\n" of its count.  Over a group
    of 10**4 rows the first are one string and the second one slice of the
    digit words.  One boolean mask then drops the tens digit of a count below
    10, and the leading zeros of the low digits where n has fewer than four.
    """
    digit_words, count_words = _csv_words()
    rows, head = counts.size, max(width - 4, 0)
    record = np.empty((rows, head + 8), dtype=np.uint8)
    low_words = record[:, head : head + 4].view("<u4")[:, 0]
    for g in range(lo - lo % _GROUP, lo + rows, _GROUP):
        a, b = max(g - lo, 0), min(g + _GROUP - lo, rows)   # the group's rows
        low_words[a:b] = digit_words[lo + a - g : lo + b - g]
        if head:
            record[a:b, :head] = np.frombuffer(str(g // _GROUP).encode(), dtype=np.uint8)
    np.take(count_words, counts, out=record[:, head + 4 :].view("<u4")[:, 0])
    keep = np.ones(record.shape, dtype=bool)
    np.greater_equal(counts, 10, out=keep[:, head + 5])
    keep[:, : max(4 - width, 0)] = False
    return record[keep]
