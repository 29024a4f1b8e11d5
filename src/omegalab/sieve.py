"""Segmented counting of prime factors over integer ranges.

The kernels count prime factors with multiplicity (the completely additive
count), distinct prime factors, or distinct prime factors up to a cutoff,
for every n in a half-open range [lo, hi).  Ranges are processed in fixed
segments so memory stays bounded and results are identical no matter how
the range is split or how many workers run; each n belongs to exactly one
segment and each segment writes only its own slice of the output.

Each segment strips every base prime up to its square root, with all of
its powers q = p, p**2, ... that divide some n in the segment (summing the
indicators of q | n gives the exact exponent of p).  The segment starts
from a pattern of period 5040 = 2**4 * 3**2 * 5 * 7 (pre-sieving, as in
Oliveira e Silva, Herzog and Pardi, Math. Comp. 83 (2014)): each n starts
at the count of the powers of 2, 3, 5 and 7 that divide gcd(n, 5040),
with that gcd as its smooth part, copied once at the offset lo mod 5040
and then doubled in place.  The other base primes, and the powers of the
tile primes past the tile (32, 27, 25, 49, ...), take one of two paths:

- small primes, p <= (segment length) / 128: one strided pass out[s::q]
  per prime power;
- large primes, which hit a segment at most 128 times: one vectorised
  pass per power round expands the hits of a batch of primes and adds
  them with np.add.at (the bucket idea of the same paper).

The factor of n above the root is found exactly in integers: smooth
collects the product of the prime powers found, so it divides n and
n // smooth is 1 or the single prime factor of n above the root; it is
uint32 on a segment that ends at or below 2**32, int64 above.  Big and
small counts add one where n != smooth; a truncated count whose cutoff
reaches past the root adds one where 1 < n // smooth <= cutoff, and one
below the root needs no smooth part at all.
"""

from __future__ import annotations

import math
import struct
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from math import isqrt

import numpy as np

from .errors import CapacityError, ContractError, EmptyDomainError

# Largest exclusive range end the kernels accept: every n, and every prime
# power and smooth part that divides one, fits in int64.
MAX_RANGE_END = 2**63

# Base primes p <= (segment length) >> _STRIDED_SHIFT take one strided pass
# per prime power; larger ones, which hit a segment at most 2**_STRIDED_SHIFT
# times, take the bucketed pass.  Shifts 6 to 9 ran within 25% of each other
# (about the run-to-run noise) on 10^6-wide windows at 10^12 and 10^14, on a
# 2-core x86 box.  With the default 2**20 segments a range below 2**26 is
# all strided.
_STRIDED_SHIFT = 7
_HIT_BATCH = 1 << 16       # hits expanded at once on the bucketed pass
_RESIDUAL_BLOCK = 1 << 16  # integers compared with their smooth part at once

# Every segment starts from a pattern of period _TILE, which holds the
# powers of the primes 2, 3, 5, 7 up to their exponents in _TILE.  A
# 720720 period (adding 11 and 13) and a 151200 one (2**5 * 3**3 * 5**2 * 7)
# were no faster at N = 10^8 on a 2-core x86 box.
_TILE_POWERS = {2: 16, 3: 9, 5: 5, 7: 7}   # each tile prime's power in _TILE
_TILE = math.prod(_TILE_POWERS.values())   # 5040
# a smooth part divides n < hi, so below 2**32 it fits in 32 bits
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
    # At 2**22 entries a segment's int64 smooth part is 32 MiB, glibc's
    # largest mmap threshold, so every segment mapped and faulted in fresh
    # pages (a process sieving [1, 10**8 + 16) took 25 554 minor faults at
    # 2**22, 9 288 at 2**20).  perfbench stats_1e8 set-up_s, medians of 8
    # alternated fresh processes on a 2-core x86 box, before the tile:
    # 2**22, 4.42 s; 2**20, 2.91 s; 2**18, 2.97 s.  With the tile and the
    # 32-bit smooth part, factor_counts(1, 10**8 + 16), medians of 5
    # alternated fresh processes on the same box: 2**19, 2.58 s; 2**20,
    # 1.67 s; 2**21, 1.59 s, inside the spread of 2**20 (1.53-1.80 s).
    segment_length: int = 1 << 20
    worker_count: int = 1

    def __post_init__(self):
        if self.segment_length < 2:
            raise ContractError("segment_length must be >= 2")
        if self.worker_count < 1:
            raise ContractError("worker_count must be >= 1")


@dataclass(frozen=True)
class PrimeTable:
    limit: int
    primes: np.ndarray  # ascending int64


@dataclass(frozen=True)
class FactorCountBlock:
    lo: int
    hi: int  # exclusive
    mode: CountMode
    counts: np.ndarray  # uint8, counts[n - lo] for n in [lo, hi)

    def count_at(self, n: int) -> int:
        if not self.lo <= n < self.hi:
            raise ContractError(f"n={n} outside block [{self.lo}, {self.hi})")
        return int(self.counts[n - self.lo])


def enumerate_primes(limit: int) -> PrimeTable:
    """All primes <= limit, ascending, by a boolean sieve of the odd numbers."""
    limit = int(limit)
    if limit < 2:
        raise EmptyDomainError(f"no primes below 2 (limit={limit})")
    if limit >= MAX_RANGE_END:
        raise CapacityError(f"limit {limit} exceeds 64-bit sieve capacity")
    odd = np.ones((limit + 1) // 2, dtype=bool)   # odd[i]: is 2i + 1 prime
    odd[0] = False
    for i in range(1, (isqrt(limit) - 1) // 2 + 1):
        if odd[i]:
            p = 2 * i + 1
            odd[p * p // 2 :: p] = False
    index = np.flatnonzero(odd)
    del odd
    primes = np.empty(index.size + 1, dtype=np.int64)
    primes[0] = 2
    np.multiply(index, 2, out=primes[1:])
    primes[1:] += 1
    return PrimeTable(limit=limit, primes=primes)


def truncation_cutoff(n_limit: int, exponent: float = 8.0) -> float:
    """Default truncated-count cutoff N**(1/(loglog N)**exponent).

    Degenerates below 2 for every desk-scale N; callers that need a usable
    cutoff must override it and may treat a value < 2 as degenerate.
    """
    if n_limit < 3:
        raise ContractError("cutoff formula needs n_limit >= 3")
    loglog = math.log(math.log(n_limit))
    if loglog <= 0:
        raise ContractError("cutoff formula needs loglog(n_limit) > 0")
    return n_limit ** (1.0 / loglog**exponent)


def _base_primes(hi: int) -> np.ndarray:
    # sieved afresh, never kept: the primes below the square root of a far
    # window (10^7 at 10^14), retained, would add to every later memory peak
    root = isqrt(hi - 1)
    if root < 2:
        return np.empty(0, dtype=np.int64)
    return enumerate_primes(root).primes


def _strided(lo, hi, primes, out, smooth, distinct):
    """Small base primes: one strided pass per prime power that hits [lo, hi).

    A tile prime starts at its first power past the tile.
    """
    for p in primes.tolist():
        q = p * _TILE_POWERS.get(p, 1)   # a tile prime resumes past the tile
        while q < hi:
            s = (-lo) % q   # lo >= 1, so the first multiple >= lo is >= q
            if s >= hi - lo:
                break
            if q == p or not distinct:
                out[s::q] += 1
            if smooth is None:
                break
            smooth[s::q] *= p
            q *= p


def _bucketed(lo, hi, primes, out, smooth, distinct):
    """Large base primes: the hits of many primes expanded in one pass.

    A prime p hits the segment about (hi - lo) / p times, so each round
    takes the first offset (-lo) mod q of every prime power q in play,
    expands the hits with a repeat and a ragged arange, and adds them by
    np.add.at.  Primes go in chunks whose hits are at most _HIT_BATCH.
    """
    length = hi - lo
    one = np.uint8(1)
    i = 0
    while i < primes.size:
        per_prime = length // int(primes[i]) + 1   # primes ascend: the most hits
        j = min(primes.size, i + max(1, _HIT_BATCH // per_prime))
        p = q = primes[i:j]
        i = j
        count = True   # powers past p count with multiplicity only
        while p.size:
            first = (-lo) % q
            hit = first < length
            first, step = first[hit], q[hit]
            hits = (length - 1 - first) // step + 1
            rank = np.arange(int(hits.sum())) - np.repeat(np.cumsum(hits) - hits, hits)
            offsets = np.repeat(first, hits) + rank * np.repeat(step, hits)
            if count:
                np.add.at(out, offsets, one)
            if smooth is None:
                break
            np.multiply.at(smooth, offsets, np.repeat(p[hit], hits))
            # q * p <= hi - 1 < 2**63 for every prime kept, so no overflow
            keep = q <= (hi - 1) // p
            p = p[keep]
            q = q[keep] * p
            count = not distinct


def _tiles(mode):
    """Tile patterns over two periods, for the first k tile primes, k = 0 .. 4.

    Entry k is (counts, smooth): at r, the count of the tile prime powers
    (big mode) or tile primes (distinct modes) among the first k dividing
    gcd(r, _TILE), and the part of that gcd they make up.  Read-only, so
    the worker threads of one call share them.
    """
    counts, smooth = np.zeros(2 * _TILE, np.uint8), np.ones(2 * _TILE, np.uint32)
    tiles = [(counts, smooth)]
    for p, power in _TILE_POWERS.items():
        counts, smooth = counts.copy(), smooth.copy()
        q = p
        while q <= power:   # q divides the period, so r = 0 starts every stride
            if q == p or mode.kind == "big":
                counts[::q] += 1
            smooth[::q] *= p
            q *= p
        tiles.append((counts, smooth))
    for pattern in (a for tile in tiles for a in tile):
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


def _fill_segment(lo, hi, base, out, mode, tiles):
    """Counts on one segment [lo, hi) into out.

    Every base prime up to the segment root (or up to the cutoff when that
    is lower) is counted exactly.  out and smooth start from the tile of
    the tile primes among them; smooth collects the prime powers found, so
    n // smooth is 1 or the one prime factor above the root.
    """
    root = isqrt(hi - 1)
    truncated = mode.kind == "truncated"
    cutoff = math.floor(mode.cutoff) if truncated else 0
    residual = not truncated or cutoff > root
    primes = base[: np.searchsorted(base, root if residual else cutoff, side="right")]
    # the tile primes in play
    tiled = int(np.searchsorted(primes, max(_TILE_POWERS), side="right"))
    _tile_fill(tiles[tiled][0], lo, out)
    smooth = None
    if residual:
        smooth = np.empty(hi - lo, np.uint32 if hi <= _SMOOTH32_END else np.int64)
        _tile_fill(tiles[tiled][1], lo, smooth)
    distinct = mode.kind != "big"
    # tile primes always take the strided pass, from their first power past the tile
    split = max(tiled, np.searchsorted(primes, (hi - lo) >> _STRIDED_SHIFT, side="right"))
    _strided(lo, hi, primes[:split], out, smooth, distinct)
    _bucketed(lo, hi, primes[split:], out, smooth, distinct)
    if not residual:
        return
    # smooth divides n, so both fit in smooth's dtype; compared a block at a time
    for a in range(0, hi - lo, _RESIDUAL_BLOCK):
        n = np.arange(lo + a, min(lo + a + _RESIDUAL_BLOCK, hi), dtype=smooth.dtype)
        part = smooth[a : a + n.size]
        if truncated:
            rest = n // part
            out[a : a + n.size] += (rest > 1) & (rest <= cutoff)
        else:
            out[a : a + n.size] += n != part


def factor_counts(lo: int, hi: int, mode: CountMode = BigOmega,
                  config: SieveConfig | None = None) -> FactorCountBlock:
    """Exact per-n prime-factor counts on [lo, hi) under the given mode.

    Deterministic for any segment_length / worker_count split.
    """
    lo, hi = int(lo), int(hi)
    if not 1 <= lo < hi:
        raise ContractError(f"need 1 <= lo < hi, got [{lo}, {hi})")
    if hi > MAX_RANGE_END:
        raise CapacityError(f"range end {hi} exceeds 64-bit sieve capacity")
    if config is None:
        config = SieveConfig()
    base = _base_primes(hi)
    tiles = _tiles(mode)
    out = np.empty(hi - lo, dtype=np.uint8)

    def run_segment(seg_lo):
        seg_hi = min(seg_lo + config.segment_length, hi)
        _fill_segment(seg_lo, seg_hi, base, out[seg_lo - lo : seg_hi - lo], mode, tiles)

    seg_starts = range(lo, hi, config.segment_length)
    if config.worker_count == 1:
        for seg_lo in seg_starts:
            run_segment(seg_lo)
    else:
        # numpy strided kernels release the GIL; disjoint slices make the
        # result independent of scheduling
        with ThreadPoolExecutor(max_workers=config.worker_count) as pool:
            list(pool.map(run_segment, seg_starts))
    return FactorCountBlock(lo=lo, hi=hi, mode=mode, counts=out)


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


def omega_oracle(n: int) -> int:
    """Prime factors of n with multiplicity, by trial division; test reference."""
    return sum(e for _, e in factorize(n))


# ---------------------------------------------------------------------------
# interchange formats

_HEADER = struct.Struct("<QQBd")  # lo, hi, mode code, cutoff
_MODE_CODE = {"big": 0, "small": 1, "truncated": 2}
_CODE_MODE = {v: k for k, v in _MODE_CODE.items()}
_CSV_ROWS = 1 << 12   # CSV rows formatted and written at once


def write_block(block: FactorCountBlock, path) -> None:
    """Binary dump: little-endian header {lo,hi,mode,cutoff} + raw bytes."""
    cutoff = block.mode.cutoff if block.mode.kind == "truncated" else 0.0
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(block.lo, block.hi, _MODE_CODE[block.mode.kind], cutoff))
        fh.write(block.counts.tobytes())


def read_block(path) -> FactorCountBlock:
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
        body = fh.read()
    if code not in _CODE_MODE:
        raise ContractError(f"unknown mode code {code} in {path}")
    if len(body) != hi - lo:
        raise ContractError(
            f"block body has {len(body)} bytes, header promises {hi - lo}"
        )
    kind = _CODE_MODE[code]
    mode = CountMode(kind, cutoff) if kind == "truncated" else CountMode(kind)
    counts = np.frombuffer(body, dtype=np.uint8).copy()
    return FactorCountBlock(lo=int(lo), hi=int(hi), mode=mode, counts=counts)


def write_block_csv(block: FactorCountBlock, path) -> None:
    """CSV export with one `n,count` row per integer in the block."""
    with open(path, "w", newline="") as fh:
        fh.write("n,count\n")
        for a in range(0, block.counts.size, _CSV_ROWS):
            values = block.counts[a : a + _CSV_ROWS].tolist()
            ns = range(block.lo + a, block.lo + a + len(values))
            fh.write("".join([f"{n},{v}\n" for n, v in zip(ns, values)]))
