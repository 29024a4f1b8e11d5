"""Segmented counting of prime factors over integer ranges.

The kernels count prime factors with multiplicity (the completely additive
count), distinct prime factors, or distinct prime factors up to a cutoff,
for every n in a half-open range [lo, hi).  Ranges are processed in fixed
segments so memory stays bounded and results are identical no matter how
the range is split or how many workers run; each n belongs to exactly one
segment and each segment writes only its own slice of the output.

Multiplicity counting uses one strided pass per prime power q = p, p**2, ...
(summing the indicators of q | n gives the exact exponent of p) plus a
log-residual array that detects the at-most-one prime factor above the
segment's square root.  The residual threshold 0.5 is safe: a surviving
prime contributes at least log 2 ~ 0.69 while rounding error stays below
1e-12 for n < 2**63.
"""

from __future__ import annotations

import math
import struct
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from math import isqrt

import numpy as np

from .errors import CapacityError, ContractError, EmptyDomainError

# Largest exclusive range end the kernels accept.  Beyond this the int64
# arange and the log-residual margin are no longer trustworthy.
MAX_RANGE_END = 2**63

_LOG_RESIDUAL_THRESHOLD = 0.5


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
    segment_length: int = 1 << 22
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
    """All primes <= limit, ascending, by a boolean array sieve."""
    limit = int(limit)
    if limit < 2:
        raise EmptyDomainError(f"no primes below 2 (limit={limit})")
    if limit >= MAX_RANGE_END:
        raise CapacityError(f"limit {limit} exceeds 64-bit sieve capacity")
    mask = np.ones(limit + 1, dtype=bool)
    mask[:2] = False
    for p in range(2, isqrt(limit) + 1):
        if mask[p]:
            mask[p * p :: p] = False
    return PrimeTable(limit=limit, primes=np.flatnonzero(mask).astype(np.int64))


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


def _strided_start(lo: int, q: int) -> int:
    # first multiple of q that is >= max(lo, q)
    return max(((lo + q - 1) // q) * q, q)


def _fill_omega(lo, hi, base, out, distinct):
    """Multiplicity counts, or distinct-prime counts when distinct is set."""
    out[:] = 0
    rem_log = np.log(np.arange(lo, hi, dtype=np.float64))
    for p in base:
        p = int(p)
        logp = math.log(p)
        q = p
        while q < hi:
            start = _strided_start(lo, q)
            if start >= hi:
                break
            s = start - lo
            if not distinct or q == p:
                out[s::q] += 1
            rem_log[s::q] -= logp
            q *= p
    out[rem_log > _LOG_RESIDUAL_THRESHOLD] += 1


def _fill_truncated(lo, hi, base, out, cutoff_int):
    out[:] = 0
    if cutoff_int <= isqrt(hi - 1):
        # no prime above the segment root can be <= cutoff, so indicator
        # passes over the small primes are the whole job
        for p in base:
            p = int(p)
            if p > cutoff_int:
                break
            start = _strided_start(lo, p)
            if start < hi:
                out[start - lo :: p] += 1
        return
    # cutoff reaches past sqrt(hi): strip small primes exactly and test the
    # surviving cofactor (1 or a single prime) against the cutoff
    rem = np.arange(lo, hi, dtype=np.int64)
    for p in base:
        p = int(p)
        start = _strided_start(lo, p)
        if start < hi:
            out[start - lo :: p] += 1
        q = p
        while q < hi:
            start = _strided_start(lo, q)
            if start >= hi:
                break
            rem[start - lo :: q] //= p
            q *= p
    out[(rem > 1) & (rem <= cutoff_int)] += 1


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
    out = np.zeros(hi - lo, dtype=np.uint8)
    cutoff_int = int(math.floor(mode.cutoff)) if mode.kind == "truncated" else 0

    def run_segment(seg_lo):
        seg_hi = min(seg_lo + config.segment_length, hi)
        view = out[seg_lo - lo : seg_hi - lo]
        if mode.kind == "truncated":
            _fill_truncated(seg_lo, seg_hi, base, view, cutoff_int)
        else:
            _fill_omega(seg_lo, seg_hi, base, view, mode.kind == "small")

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


def omega_oracle(n: int) -> int:
    """Prime factors of n with multiplicity, by plain trial division.

    Test / small-range reference only; quadratic-feeling and proud of it.
    """
    n = int(n)
    if n < 1:
        raise ContractError(f"n must be >= 1, got {n}")
    count = 0
    while n % 2 == 0:
        n //= 2
        count += 1
    d = 3
    while d * d <= n:
        while n % d == 0:
            n //= d
            count += 1
        d += 2
    if n > 1:
        count += 1
    return count


# ---------------------------------------------------------------------------
# interchange formats

_HEADER = struct.Struct("<QQBd")  # lo, hi, mode code, cutoff
_MODE_CODE = {"big": 0, "small": 1, "truncated": 2}
_CODE_MODE = {v: k for k, v in _MODE_CODE.items()}


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
        for offset, value in enumerate(block.counts):
            fh.write(f"{block.lo + offset},{int(value)}\n")
