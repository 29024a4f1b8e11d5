"""Sieve kernels against trial division and their own contracts."""

import hashlib
import io
import math
import struct
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from omegalab import (BigOmega, CapacityError, ContractError, CountMode,
                      EmptyDomainError, SieveConfig, SmallOmega,
                      TruncatedOmega, cli, enumerate_primes, factor_counts,
                      liouville, omega_oracle, read_block, sieve,
                      truncation_cutoff, write_block, write_block_csv)


def _trial_counts(lo, hi, *, distinct=False, cutoff=None):
    """Reference by plain trial division, one integer at a time."""
    out = []
    for n in range(lo, hi):
        m, total, d = n, 0, 2
        while d * d <= m:
            mult = 0
            while m % d == 0:
                m //= d
                mult += 1
            if mult and (cutoff is None or d <= cutoff):
                total += 1 if distinct else mult
            d += 1
        if m > 1 and (cutoff is None or m <= cutoff):
            total += 1
        out.append(total)
    return out


# --- frozen small examples -------------------------------------------------

def test_multiplicity_first_dozen():
    block = factor_counts(1, 13)
    # n = 12 has three prime factors with multiplicity (2, 2, 3).
    assert list(block.counts) == [0, 1, 1, 2, 1, 2, 1, 3, 2, 2, 1, 3]


def test_distinct_first_dozen():
    block = factor_counts(1, 13, SmallOmega)
    assert list(block.counts) == [0, 1, 1, 1, 1, 2, 1, 1, 1, 2, 1, 2]


def test_truncated_examples():
    block = factor_counts(1, 13, TruncatedOmega(3.0))
    assert block.counts[10 - block.lo] == 1   # only 2 <= 3 divides 10
    assert block.counts[12 - block.lo] == 2   # 2 and 3
    assert block.counts[7 - block.lo] == 0


def test_liouville_first_values():
    block = factor_counts(1, 12)
    lam = liouville(block)
    assert list(lam) == [1, -1, -1, 1, -1, 1, -1, -1, 1, 1, -1]
    assert lam.dtype == np.int8


def test_liouville_needs_multiplicity():
    with pytest.raises(ContractError):
        liouville(factor_counts(1, 10, SmallOmega))


def test_oracle_values():
    assert omega_oracle(1) == 0
    assert omega_oracle(2 ** 10) == 10
    assert omega_oracle(9699690) == 8  # product of the first eight primes
    assert omega_oracle(97) == 1


# --- agreement with trial division ----------------------------------------

@pytest.mark.parametrize("mode,kwargs", [
    (BigOmega, {}),
    (SmallOmega, {"distinct": True}),
    (TruncatedOmega(2.0), {"distinct": True, "cutoff": 2}),
    (TruncatedOmega(13.0), {"distinct": True, "cutoff": 13}),
])
def test_modes_match_trial_division_on_window(mode, kwargs):
    lo, hi = 9990, 10500
    block = factor_counts(lo, hi, mode)
    assert list(block.counts) == _trial_counts(lo, hi, **kwargs)


@given(lo=st.integers(min_value=1, max_value=10 ** 6))
@settings(max_examples=25)
def test_multiplicity_matches_oracle_on_random_windows(lo):
    block = factor_counts(lo, lo + 64)
    for offset in (0, 17, 63):
        n = lo + offset
        assert block.counts[n - block.lo] == omega_oracle(n)


@given(a=st.integers(min_value=1, max_value=10 ** 5),
       b=st.integers(min_value=1, max_value=10 ** 5))
@settings(max_examples=60)
def test_oracle_complete_additivity(a, b):
    assert omega_oracle(a * b) == omega_oracle(a) + omega_oracle(b)


@given(n=st.integers(min_value=2, max_value=10 ** 6))
@settings(max_examples=40)
def test_count_bounds(n):
    block = factor_counts(n, n + 1)
    om = factor_counts(n, n + 1, SmallOmega)
    assert om.counts[0] <= block.counts[0] <= math.log2(n)
    assert block.counts[0] >= 1


# --- the two prime paths and the integer residual -----------------------

# 211 and 37 lie above the strided/bucketed split of both segment lengths
# used here (64 >> 7 = 0 and 2**12 >> 7 = 32).  The segment roots are about
# 211, 225 and 3064 around 211**2, 37**3 and 211**3, so the truncated
# cutoffs fall on both sides of each of them; 233 and 3079 are themselves
# the prime factor above the root of some n in those windows.
@pytest.mark.parametrize("segment", [64, 1 << 12])
@pytest.mark.parametrize("center", [211 ** 2, 37 ** 3, 211 ** 3])
@pytest.mark.parametrize("mode,kwargs", [
    (BigOmega, {}),
    (SmallOmega, {"distinct": True}),
    *((TruncatedOmega(c), {"distinct": True, "cutoff": c}) for c in (199, 233, 3061, 3079, 10 ** 8)),
])
def test_kernel_matches_trial_division_around_prime_powers(monkeypatch, segment, center,
                                                           mode, kwargs):
    monkeypatch.setattr(sieve, "SEGMENT", segment)
    lo, hi = center - 150, center + 150
    block = factor_counts(lo, hi, mode)
    assert list(block.counts) == _trial_counts(lo, hi, **kwargs)


def _reference_primes(limit):
    """Primes <= limit by a plain boolean sieve over every integer."""
    mask = np.ones(limit + 1, dtype=bool)
    mask[:2] = False
    for p in range(2, math.isqrt(limit) + 1):
        if mask[p]:
            mask[p * p :: p] = False
    return np.flatnonzero(mask)


def _numpy_trial_counts(ns, hi, cutoff):
    """(Omega, omega, omega up to cutoff) of each n, dividing by the primes to sqrt(hi)."""
    primes = _reference_primes(math.isqrt(hi - 1))
    rows = []
    for n in ns:
        m, big, small, truncated = n, 0, 0, 0
        for p in primes[n % primes == 0].tolist():
            while m % p == 0:
                m //= p
                big += 1
            small += 1
            truncated += p <= cutoff
        if m > 1:
            big, small, truncated = big + 1, small + 1, truncated + (m <= cutoff)
        rows.append((big, small, truncated))
    return np.array(rows)


# sha256 of the counts on [lo, lo + 2**15), computed by the float-residual
# kernel that the integer residual replaced
_FAR_WIDTH = 1 << 15
_FAR_CUTOFF = 10 ** 7
_FAR_DIGESTS = {
    10 ** 12: ("d06444e62529061618e8aa9733e5ee0cdf7953a02291ccd6a511a25d542c957a",
               "53b4b38aac99bd204ed9ced26debc3f070d314f3b80ae83d0005d8eebd2cd172",
               "978aaddd2ac3dd9abc0429b18352a5a096b3f4ab49be380704b353298b805691"),
    10 ** 14: ("18a413f380eaaebd176f3fcead1b01fad2a8d7edc61a9b5b182e759164feb497",
               "e6296d4f0296e0078150e696bff70cc256f288b0b82b4a67bed73a133ae2a565",
               "41c183642eade66de69d8ce7d8afbff94d84db8535b2479cce77caae735ee727"),
    10 ** 15: ("8f3e0681f2aee7e6719d6203aaa9453478c7a02a4002e1967781eb207031df74",
               "ab8b057c2e1a0c4c148ba8107942a3cc152bfc4bd127782e736bd94b6a32fecd",
               "42e1d6cdc5a7914fa511dc8c5eebec73eb11296474de936a4cc3c71bd8cdef02"),
}


@pytest.mark.parametrize("lo", sorted(_FAR_DIGESTS))
def test_far_windows_match_pinned_digests_and_trial_division(lo):
    hi = lo + _FAR_WIDTH
    modes = (BigOmega, SmallOmega, TruncatedOmega(_FAR_CUTOFF))
    blocks = [factor_counts(lo, hi, mode) for mode in modes]
    digests = tuple(hashlib.sha256(b.counts.tobytes()).hexdigest() for b in blocks)
    assert digests == _FAR_DIGESTS[lo]
    rng = np.random.default_rng(lo % 1000003)
    ns = sorted({lo, hi - 1, *(lo + int(k) for k in rng.integers(0, _FAR_WIDTH, 40))})
    sieved = np.array([[int(b.counts[n - lo]) for b in blocks] for n in ns])
    assert np.array_equal(sieved, _numpy_trial_counts(ns, hi, _FAR_CUTOFF))


@pytest.mark.parametrize("mode", [BigOmega, SmallOmega, TruncatedOmega(_FAR_CUTOFF)])
def test_far_window_independent_of_workers_and_segments(monkeypatch, mode):
    lo, hi = 10 ** 14 + 12345, 10 ** 14 + 12345 + _FAR_WIDTH
    base = factor_counts(lo, hi, mode)
    for segment, workers in ((sieve.SEGMENT, 2), (1 << 12, 1), (1 << 12, 2)):
        monkeypatch.setattr(sieve, "SEGMENT", segment)
        config = SieveConfig(worker_count=workers)
        assert np.array_equal(factor_counts(lo, hi, mode, config).counts, base.counts)


# --- the tile of the primes 2, 3, 5, 7 -----------------------------------

_TILE = 5040   # 2**4 * 3**2 * 5 * 7, the period every segment starts from


def _modes_and_references(cutoff):
    return ((BigOmega, {}), (SmallOmega, {"distinct": True}),
            (TruncatedOmega(cutoff), {"distinct": True, "cutoff": cutoff}))


def test_tiny_ranges_whose_root_shrinks_the_tile():
    # roots below 7 hold only part of the tile primes, or none of them
    for mode, kwargs in _modes_and_references(5):
        for hi in range(2, 61):
            expected = _trial_counts(1, hi, **kwargs)
            for lo in range(1, hi):
                block = factor_counts(lo, hi, mode)
                assert list(block.counts) == expected[lo - 1 :], (mode, lo, hi)


@pytest.mark.parametrize("cutoff", [2, 3, 5, 6, 7, 8])
def test_truncated_cutoffs_among_the_tile_primes(monkeypatch, cutoff):
    kwargs = {"distinct": True, "cutoff": cutoff}
    for segment in (sieve.SEGMENT, 64):
        monkeypatch.setattr(sieve, "SEGMENT", segment)
        block = factor_counts(1, 5000, TruncatedOmega(cutoff))
        assert list(block.counts) == _trial_counts(1, 5000, **kwargs)
    monkeypatch.undo()
    lo, hi = 10 ** 12 - 256, 10 ** 12 + 256
    block = factor_counts(lo, hi, TruncatedOmega(cutoff))
    assert np.array_equal(block.counts, _numpy_trial_counts(range(lo, hi), hi, cutoff)[:, 2])


def test_segments_on_both_sides_of_the_32_bit_smooth_part(monkeypatch):
    lo, hi = 2 ** 32 - 2 ** 14, 2 ** 32 + 2 ** 14
    modes = (BigOmega, SmallOmega, TruncatedOmega(_FAR_CUTOFF))
    monkeypatch.setattr(sieve, "SEGMENT", 1 << 12)
    blocks = [factor_counts(lo, hi, mode) for mode in modes]
    monkeypatch.undo()
    for mode, block in zip(modes, blocks):
        assert np.array_equal(block.counts, factor_counts(lo, hi, mode).counts)
    # both ends of every segment, and a sample between them
    rng = np.random.default_rng(2 ** 32 % 1000003)
    edges = [s + d for s in range(lo, hi, 1 << 12) for d in (0, (1 << 12) - 1)]
    ns = sorted({*edges, *(lo + int(k) for k in rng.integers(0, hi - lo, 200))})
    sieved = np.array([[int(b.counts[n - lo]) for b in blocks] for n in ns])
    assert np.array_equal(sieved, _numpy_trial_counts(ns, hi, _FAR_CUTOFF))


def test_segments_shorter_than_the_tile_period(monkeypatch):
    lo = 3 * _TILE - 1
    hi = lo + _TILE + 200
    monkeypatch.setattr(sieve, "SEGMENT", 64)
    for mode, kwargs in _modes_and_references(50):
        block = factor_counts(lo, hi, mode)
        assert list(block.counts) == _trial_counts(lo, hi, **kwargs)


# sha256 of factor_counts(1, 10**6 + 1) per mode, computed by the kernel that
# struck 2, 3, 5 and 7 one strided pass at a time
_DENSE_DIGESTS = {
    "big": "2979fdde5562a8a414cb695bae4d79099a12ff2092e2b96233123c9922c554dc",
    "small": "1f6d7068237713ccbc32e791d3f7cbe52ebd33f0751b0cb607713aa17a358797",
    "truncated": "ba61ecb35dbf10308a447125f492f005d2d7e793ac1db200707878df8623a8df",
}


@pytest.mark.parametrize("mode", [BigOmega, SmallOmega, TruncatedOmega(5000)])
def test_dense_block_matches_pinned_digest(mode):
    counts = factor_counts(1, 10 ** 6 + 1, mode).counts
    assert hashlib.sha256(counts.tobytes()).hexdigest() == _DENSE_DIGESTS[mode.kind]


def _traced_peak(fn, *args):
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_memory_peaks_of_far_window_and_dense_sieve():
    # the float-residual kernel peaked at 21.3 MiB and 73.5 MiB here.  A far
    # window holds its output, one segment's word, a batch of at most 2**14
    # hits and the uint32 base primes (2.7 MB up to 10^7); a truncated one
    # cuts its smooth-part segments to the word's 2 MiB.  With int64 base
    # primes, 2**16-hit batches and whole smooth-part segments the small
    # window peaked at 10.5 MiB and the truncated one at 13.7 MiB.
    far = _traced_peak(factor_counts, 10 ** 14, 10 ** 14 + 10 ** 6, SmallOmega)
    assert far <= 8 * 2 ** 20
    truncated = _traced_peak(factor_counts, 10 ** 12, 10 ** 12 + 10 ** 6,
                             TruncatedOmega(_FAR_CUTOFF))
    assert truncated <= 6 * 2 ** 20
    dense = _traced_peak(factor_counts, 1, 10 ** 7 + 1)
    assert dense <= 73.5 * 2 ** 20


# sha256 of the counts on [lo, lo + 10**6) (big, small, truncated at 10**7),
# computed by the kernel with int64 base primes, 2**16-hit batches and
# smooth-part segments of 2**20 entries
_WIDE_DIGESTS = {
    2 ** 32 - 500_000: ("96415064a0743ac8667488a46c255bc4117b517b61baa1e58962b94cdd80684b",
                        "52392b60537bb977615bd7e29b7a3b8d69fb8e44a6a64963396c5d3981fdd715",
                        "62c0bd735e1ab55941fd62ed5620ca024f0762f5b06a589cc5c0b343c6de0992"),
    10 ** 12: ("c892b829b35b4d718d90106566d90b517863463fcdbe906551501b98721757ea",
               "2046b01d133d0d68536d51bae5681ae939c39cd104e3829a483f817129c6fd3f",
               "cb3bd56e3cd0aa6edd16eb67d933e84674036a52c91c1eb7016da1176a593a26"),
    10 ** 14: ("0e28709d3b2fc9661ba059c26e0c8119b3a439925d7086252066151dfb8090fe",
               "e52477592992adb45cad17be4c060feccba61c25e528699590f446e7068f786e",
               "e158a514d0aacf516abcc5ac668196fbe29af4651b48e0b4e982471fa61fcf64"),
}


@pytest.mark.parametrize("lo", sorted(_WIDE_DIGESTS))
def test_wide_far_windows_match_pinned_digests(lo):
    # below 2**32 and at 10^12 the truncated window keeps a smooth part, so
    # its segments are cut; at 10^14 the cutoff is the root and nothing is
    modes = (BigOmega, SmallOmega, TruncatedOmega(_FAR_CUTOFF))
    digests = tuple(hashlib.sha256(factor_counts(lo, lo + 10 ** 6, mode).counts).hexdigest()
                    for mode in modes)
    assert digests == _WIDE_DIGESTS[lo]


def test_smooth_part_segments_fit_the_word_budget():
    # a segment that keeps the smooth part holds 2 + 4 or 2 + 8 bytes an
    # entry, so it is cut to 2 * L // 6 or 2 * L // 10 entries
    cut = TruncatedOmega(_FAR_CUTOFF)
    length = sieve.SEGMENT
    below = list(sieve._segments(2 ** 32 - 10 ** 6, 2 ** 32, cut))
    above = list(sieve._segments(10 ** 12, 10 ** 12 + 10 ** 6, cut))
    assert {b - a for a, b in below[:-1]} == {2 * length // 6}
    assert {b - a for a, b in above[:-1]} == {2 * length // 10}
    # no smooth part: whole segments, in every other mode and past the cutoff's square
    for mode, lo in ((BigOmega, 10 ** 12), (SmallOmega, 10 ** 12), (cut, 10 ** 14 + 10 ** 7)):
        assert list(sieve._segments(lo, lo + 3 * length, mode)) == [
            (lo + k * length, lo + (k + 1) * length) for k in range(3)]
    for segments in (below, above):
        assert [a for a, _ in segments[1:]] == [b for _, b in segments[:-1]]


# --- the packed word: count bits above, log units below --------------------

def _range_ends():
    """Range ends of every bit length 2 .. 63 (both extremes), the tile floor and 2**63."""
    ends = {2 * _TILE, 2 ** 63}
    for bits in range(2, 64):
        ends |= {1 << (bits - 1), (1 << bits) - 1}
    return sorted(ends)


def test_packed_word_margins_for_every_range_end():
    # arithmetic only: for each layout the count and the log units fit, the
    # deficit test has a gap, and every residual block gets one integer
    # threshold: the doubling blocks [2^j, 2^(j+1)) that a range from 1
    # starts with (cut at hi), a full block and the last one below hi
    budget = 2 * sieve._ROUNDING   # float rounding, once on each side
    block = sieve._RESIDUAL_BLOCK
    for hi in _range_ends():
        layout = sieve._layout(hi, BigOmega)
        scale, shift = layout.scale, layout.shift
        top = max(hi, 2 * _TILE)
        assert (top - 1).bit_length() - 1 < 1 << (16 - shift), hi   # the largest count
        assert scale * math.log2(top) + sieve._ROUNDING <= 1 << shift, hi   # the log units
        assert sieve._layout(hi, TruncatedOmega(7)) == sieve._Layout(shift, 0)
        # a segment ending at hi: rest 1 leaves a deficit below m, rest P at least S log2(root + 1)
        root, m = math.isqrt(hi - 1), (hi - 1).bit_length() - 1
        assert scale * math.log2(root + 1) >= m + budget + 1, hi
        blocks = [(1 << j, min(2 << j, hi)) for j in range(16) if 1 << j < hi]
        blocks.append((block + 1, 2 * block + 1))
        if hi > 2 * block:
            blocks.append((hi - block, hi))
        for a, b in blocks:
            root = math.isqrt(b - 1)   # the smallest root a segment holding [a, b) has
            m = (b - 1).bit_length() - 1
            slack = scale * math.log2((b - 1) / a)
            assert scale * math.log2(root + 1) >= m + budget + slack + 1, (hi, a)
            threshold = sieve._residual_threshold(a, b, root, layout)
            # above every rest-P total of log units, at or below every rest-1 total
            assert threshold > scale * math.log2(b - 1) - scale * math.log2(root + 1), (hi, a)
            assert threshold <= scale * math.log2(a) - m + 1, (hi, a)


def test_windows_near_2_44_in_the_6_count_bit_layout(monkeypatch):
    lo, hi = 2 ** 44 - 2 ** 11, 2 ** 44 + 2 ** 11
    assert sieve._layout(hi, BigOmega).shift == 10
    expected = _numpy_trial_counts(range(lo, hi), hi, 0)
    for segment in (sieve.SEGMENT, 1 << 9):
        monkeypatch.setattr(sieve, "SEGMENT", segment)
        for column, mode in enumerate((BigOmega, SmallOmega)):
            counts = factor_counts(lo, hi, mode).counts
            assert np.array_equal(counts, expected[:, column]), (mode, segment)


def test_ranges_from_small_lo_take_doubling_residual_blocks(monkeypatch):
    # a range from a small lo starts with residual blocks [a, 2a), each of
    # which gets one threshold, and the tile copies start at lo mod 5040 = lo
    thresholds, threshold = [], sieve._residual_threshold

    def spy(*args):
        found = threshold(*args)
        thresholds.append(found)
        return found
    monkeypatch.setattr(sieve, "_residual_threshold", spy)
    hi, cutoff = 2 ** 17, 1000   # the cutoff lies above the root of every segment but the first
    expected = _numpy_trial_counts(range(1, hi), hi, cutoff)
    modes = (BigOmega, SmallOmega, TruncatedOmega(cutoff))
    for segment in (64, 1 << 12, 1 << 20):
        monkeypatch.setattr(sieve, "SEGMENT", segment)
        for lo in range(1, 9):
            for column, mode in enumerate(modes):
                counts = factor_counts(lo, hi, mode).counts
                assert np.array_equal(counts, expected[lo - 1 :, column]), (segment, lo, mode)
    assert thresholds and None not in thresholds


def test_counts_agree_across_the_32_bit_layouts():
    below = (2 ** 32 - 2 ** 13, 2 ** 32)
    above = (2 ** 32 - 2 ** 13, 2 ** 32 + 2 ** 13)
    assert sieve._layout(below[1], BigOmega).shift == 11
    assert sieve._layout(above[1], BigOmega).shift == 10
    for mode in (BigOmega, SmallOmega, TruncatedOmega(_FAR_CUTOFF)):
        short = factor_counts(*below, mode).counts
        long = factor_counts(*above, mode).counts
        assert np.array_equal(short, long[: short.size]), mode


@pytest.mark.parametrize("k", [1, 2, 4, 8, 16])
def test_fermat_products_sit_on_the_threshold_edge(monkeypatch, k):
    # n = 2**k * P with P = 2**k + 1 prime ends its segment, whose root is
    # 2**k: its rest P = root + 1 leaves it exactly S log2(n / P) log units,
    # the most a rest-P n can have, one below the threshold
    n = (1 << k) * ((1 << k) + 1)
    for length in (2, 64):
        lo = max(1, n + 1 - length)
        monkeypatch.setattr(sieve, "SEGMENT", length)
        assert factor_counts(lo, n + 1, BigOmega).counts[n - lo] == k + 1
        assert factor_counts(lo, n + 1, SmallOmega).counts[n - lo] == 2


def test_block_io_and_cli_digest_make_no_copy_of_the_body(tmp_path):
    body = 1 << 22
    rng = np.random.default_rng(22)
    block = sieve.FactorCountBlock(1, body + 1, BigOmega,
                                   rng.integers(0, 27, body, dtype=np.uint8))
    path = tmp_path / "block.bin"
    assert _traced_peak(write_block, block, path) < 1.25 * body
    assert _traced_peak(read_block, path) < 1.25 * body
    assert np.array_equal(read_block(path).counts, block.counts)
    # the command hashes and bins each streamed piece of the counts in place
    params = {"n": body, "hi": None, "lo": 1, "workers": 1, "mode": "big",
              "cutoff": None, "format": "bin", "out": None}
    assert _traced_peak(cli._run_sieve, params) < 1.25 * body
    _, results = cli._run_sieve(params)
    counts = factor_counts(1, body + 1).counts
    assert results["digest"] == hashlib.sha256(counts.tobytes()).hexdigest()
    assert np.array_equal(results["histogram"], np.bincount(counts))


# --- configuration and determinism ----------------------------------------

def test_worker_counts_bit_identical():
    base = factor_counts(1, 200001, config=SieveConfig(worker_count=1))
    for workers in (2, 3, 8):
        other = factor_counts(1, 200001, config=SieveConfig(worker_count=workers))
        assert np.array_equal(base.counts, other.counts)


def test_segment_length_invariance(monkeypatch):
    base = factor_counts(50, 5000)
    monkeypatch.setattr(sieve, "SEGMENT", 64)
    tiny = factor_counts(50, 5000)
    assert np.array_equal(base.counts, tiny.counts)


def test_counts_written_into_a_given_buffer():
    # a slice of a caller's buffer is filled in place and is the block's counts
    buf = np.full(6000, 255, np.uint8)
    for mode in (BigOmega, SmallOmega, TruncatedOmega(100)):
        block = factor_counts(50, 5000, mode, None, buf[7 : 7 + 4950])
        assert np.shares_memory(block.counts, buf)
        assert np.array_equal(buf[7 : 7 + 4950], factor_counts(50, 5000, mode).counts)
        assert (buf[:7] == 255).all() and (buf[7 + 4950 :] == 255).all()
    for bad in (buf[:4949], buf[:4950].view(np.int8), np.zeros((2, 4950), np.uint8)):
        with pytest.raises(ContractError):
            factor_counts(50, 5000, out=bad)


def test_range_validation():
    with pytest.raises(ContractError):
        factor_counts(0, 10)
    with pytest.raises(ContractError):
        factor_counts(10, 10)
    with pytest.raises(CapacityError):
        factor_counts(1, 2 ** 63 + 1)


def test_mode_validation():
    with pytest.raises(ContractError):
        CountMode(kind="median")
    with pytest.raises(ContractError):
        TruncatedOmega(1.5)
    with pytest.raises(ContractError):
        CountMode(kind="truncated")  # missing cutoff


def test_config_validation():
    with pytest.raises(ContractError):
        SieveConfig(worker_count=0)


# --- primes and cutoff ------------------------------------------------------

def test_enumerate_primes():
    table = enumerate_primes(10 ** 6)
    assert table.size == 78498
    assert table[0] == 2 and table[-1] == 999983
    for limit in [*range(2, 130), 10 ** 5 + 3]:
        primes = enumerate_primes(limit)
        assert primes.dtype == np.int64
        assert np.array_equal(primes, _reference_primes(limit))
    with pytest.raises(EmptyDomainError):
        enumerate_primes(1)


@pytest.mark.parametrize("segment", [None, 97, 64])
def test_prime_segments_join_to_the_primes(monkeypatch, segment):
    # segment j holds the odd numbers below 2 (j + 1) L: limits on and either
    # side of its edges, with L the default, odd and a power of two
    if segment is not None:
        monkeypatch.setattr(sieve, "PRIME_SEGMENT", segment)
    length = sieve.PRIME_SEGMENT
    edges = [2 * j * length + d for j in (1, 2, 3) for d in (-2, -1, 0, 1, 2)]
    limits = [2, 3, 4, 9, 10, 25, 10**4 + 7, *edges]
    if segment is None:
        limits.append(10**6)
    for limit in limits:
        segments = list(sieve.prime_segments(limit))
        assert len(segments) == -(-((limit + 1) // 2) // length), limit
        assert all(s.dtype == np.int64 for s in segments)
        joined = np.concatenate(segments)
        assert np.array_equal(joined, _reference_primes(limit)), limit
        assert np.array_equal(enumerate_primes(limit), joined)
    with pytest.raises(EmptyDomainError):
        sieve.prime_segments(1)   # refused on the call, before a segment is drawn


@pytest.mark.parametrize("segment", [None, 97, 64])
def test_prime_segments_start_at_the_segment_of_lo(monkeypatch, segment):
    # from lo on and either side of a segment edge, the segments are the
    # tail of those from 0, starting with the one that holds lo
    if segment is not None:
        monkeypatch.setattr(sieve, "PRIME_SEGMENT", segment)
    length = sieve.PRIME_SEGMENT
    limit = 8 * length + 5
    whole = list(sieve.prime_segments(limit))
    edges = [2 * j * length + d for j in (1, 2, 4) for d in (-2, -1, 0, 1, 2)]
    for lo in [0, 1, 2, 3, *edges, limit, limit + 1, 10 * limit]:
        tail = list(sieve.prime_segments(limit, lo))
        first = lo // 2 // length
        assert len(tail) == max(0, len(whole) - first), lo
        assert all(np.array_equal(a, b) for a, b in zip(tail, whole[first:])), lo
    with pytest.raises(ContractError):
        sieve.prime_segments(limit, -1)


def test_require_primes_checks_each_value_in_its_segment(monkeypatch):
    # segments of 97 odd numbers: primes and odd composites on either side
    # of a segment edge, and a composite past the last prime below it
    monkeypatch.setattr(sieve, "PRIME_SEGMENT", 97)
    primes = set(_reference_primes(10**4).tolist())
    edges = [n for j in range(1, 52) for n in (2 * 97 * j - 1, 2 * 97 * j + 1)]
    on_edges = [n for n in edges if n in primes]
    composites = [n for n in edges if n not in primes]
    assert on_edges and composites
    sieve.require_primes(on_edges, "primes")
    sieve.require_primes([*on_edges[::-1], 2, 2], "primes")
    for n in composites:
        with pytest.raises(ContractError, match="not prime"):
            sieve.require_primes([*on_edges, n], "primes")
    with pytest.raises(ContractError, match="not prime"):
        sieve.require_primes([2, 9973, 9999], "primes")   # 9973: the last prime below 9999


def test_require_primes_searches_without_hashing_the_primes():
    # the values are looked up one segment of primes at a time, and no set
    # of the primes is built
    tracemalloc.start()
    try:
        sieve.require_primes([9999991], "primes")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20
    sieve.require_primes([2, 3, 2, 97, 9999991], "primes")
    sieve.require_primes([], "primes")
    for bad in ([1], [0], [-3], [4], [9999991, 39999964]):
        with pytest.raises(ContractError, match="keys contains a number that is not prime"):
            sieve.require_primes(bad, "keys")


def test_require_primes_takes_the_cheaper_check(monkeypatch):
    # one value near 10^9 is trial-divided, not sieved past 5 * 10^8 mask
    # bytes; the primes up to 200 007 are looked up in the sieve
    def unreachable(*args):
        raise AssertionError(f"unexpected call with {args}")
    monkeypatch.setattr(sieve, "prime_segments", unreachable)
    start = time.perf_counter()
    sieve.require_primes([999999937], "keys")
    assert time.perf_counter() - start < 1.0
    with pytest.raises(ContractError, match="not prime"):
        sieve.require_primes([999999937 * 3], "keys")
    monkeypatch.undo()
    primes = enumerate_primes(200007)
    monkeypatch.setattr(sieve, "factorize", unreachable)
    sieve.require_primes(primes, "primes")
    with pytest.raises(ContractError, match="not prime"):   # past the last prime below it
        sieve.require_primes([*primes, int(primes[-1]) + 1], "primes")


def test_truncation_cutoff_degenerates_at_desk_scale():
    # The shrinking cutoff stays below 2 for every 64-bit range, which is
    # why the truncated mode demands an explicit cutoff >= 2.
    assert truncation_cutoff(10 ** 6) < 2.0
    assert truncation_cutoff(10 ** 8) < 2.0


# --- serialization -----------------------------------------------------------

def test_binary_roundtrip(tmp_path):
    for mode in (BigOmega, SmallOmega, TruncatedOmega(7.0)):
        block = factor_counts(3, 500, mode)
        path = tmp_path / "block.bin"
        write_block(block, path)
        back = read_block(path)
        assert back.lo == block.lo and back.hi == block.hi
        assert back.mode == block.mode
        assert np.array_equal(back.counts, block.counts)


def test_binary_rejects_corruption(tmp_path):
    block = factor_counts(1, 100)
    path = tmp_path / "block.bin"
    write_block(block, path)
    data = path.read_bytes()
    path.write_bytes(data[:-3])
    with pytest.raises(ContractError):
        read_block(path)
    # hand-packed headers {lo, hi, mode code, cutoff} whose body length matches
    for lo, hi, error in [(0, 5, ContractError), (5, 5, ContractError),
                          (7, 5, ContractError), (2**63, 2**63 + 5, CapacityError),
                          (1, 2**64 - 1, CapacityError)]:
        body = bytes(max(0, min(hi - lo, 8)))
        path.write_bytes(struct.pack("<QQBd", lo, hi, 0, 0.0) + body)
        with pytest.raises(error):
            read_block(path)


def test_appended_pieces_make_the_file_of_the_whole_block(tmp_path):
    mode = TruncatedOmega(50)
    whole = factor_counts(1000, 1300, mode)
    pieces = [factor_counts(a, b, mode) for a, b in ((1000, 1001), (1001, 1200), (1200, 1300))]
    path, csv_path = tmp_path / "pieces.bin", tmp_path / "pieces.csv"
    with open(csv_path, "w", newline="") as fh:
        for k, piece in enumerate(pieces):
            write_block(piece, path, append=k > 0)
            write_block_csv(piece, fh, append=k > 0)
    write_block(whole, tmp_path / "whole.bin")
    with open(tmp_path / "whole.csv", "w", newline="") as fh:
        write_block_csv(whole, fh)
    assert path.read_bytes() == (tmp_path / "whole.bin").read_bytes()
    assert csv_path.read_bytes() == (tmp_path / "whole.csv").read_bytes()
    # a piece that does not start where the file ends, or has another mode
    for piece in (factor_counts(1301, 1400, mode), factor_counts(1300, 1400, BigOmega),
                  factor_counts(1300, 1400, TruncatedOmega(60))):
        with pytest.raises(ContractError):
            write_block(piece, path, append=True)
    path.write_bytes(b"\0" * 10)   # no header
    with pytest.raises(ContractError):
        write_block(pieces[1], path, append=True)


def test_csv_bytes_match_row_by_row_format(tmp_path):
    lo = 10 ** 6 + 7
    block = factor_counts(lo, lo + (1 << 16) + 100)   # crosses chunk boundaries
    path = tmp_path / "block.csv"
    with open(path, "w", newline="") as fh:
        write_block_csv(block, fh)
    rows = "".join(f"{lo + i},{int(v)}\n" for i, v in enumerate(block.counts))
    assert path.read_bytes() == ("n,count\n" + rows).encode()


def test_csv_export(tmp_path):
    block = factor_counts(1, 13)
    path = tmp_path / "block.csv"
    with open(path, "w", newline="") as fh:
        write_block_csv(block, fh)
    lines = path.read_text().splitlines()
    assert lines[0] == "n,count"
    assert lines[1] == "1,0"
    assert lines[12] == "12,3"


def _synthetic_block(lo, size, seed):
    # seeded counts in 0..63, so counts of 10 and above are common; sieving
    # this far out would enumerate base primes up to 3 * 10**9
    counts = np.random.default_rng(seed).integers(0, 64, size=size, dtype=np.uint8)
    return sieve.FactorCountBlock(lo, lo + size, BigOmega, counts)


_CSV_BLOCKS = {
    "from 1": lambda: factor_counts(1, 10 ** 6 + 1),   # widths 1 to 7
    "across 10^7": lambda: factor_counts(9_999_990, 10_000_010),
    "one row": lambda: factor_counts(12, 13),
    "2^63 - 5000": lambda: _synthetic_block(2 ** 63 - 5000, 5000, 1),
    "across 10^18": lambda: _synthetic_block(10 ** 18 - 23_456, 34_567, 2),
}
for _e in (12, 14):
    for _mode in (BigOmega, SmallOmega, TruncatedOmega(10 ** 5)):
        _CSV_BLOCKS[f"10^{_e} {_mode.kind}"] = (
            lambda e=_e, mode=_mode: factor_counts(10 ** e - 3000, 10 ** e + 17_000, mode))


@pytest.mark.parametrize("batch", [None, 997])
@pytest.mark.parametrize("name", list(_CSV_BLOCKS))
def test_csv_bytes_match_row_format_across_widths_and_batches(name, batch, tmp_path,
                                                              monkeypatch):
    # a batch of 997 rows cuts decade runs and groups of 10**4 rows mid-way
    if batch is not None:
        monkeypatch.setattr(sieve, "_CSV_ROWS", batch)
    block = _CSV_BLOCKS[name]()
    path = tmp_path / "block.csv"
    with open(path, "w", newline="") as fh:
        write_block_csv(block, fh)
    rows = "".join(f"{block.lo + i},{c}\n" for i, c in enumerate(block.counts.tolist()))
    assert path.read_bytes() == ("n,count\n" + rows).encode()


def test_csv_refuses_counts_of_three_digits():
    block = sieve.FactorCountBlock(1, 3, BigOmega, np.array([99, 100], dtype=np.uint8))
    with pytest.raises(ContractError, match="below 100"):
        write_block_csv(block, io.StringIO())


def test_csv_writer_memory_is_of_a_batch_not_of_the_block(tmp_path):
    # the body of these 10**6 rows is 8.9 MB; the writer holds one batch of
    # 2**16 rows at a time (its records, their mask, the rows as bytes and as
    # text) and peaked at 2.4 MiB
    block = factor_counts(1, 10 ** 6 + 1)
    with open(tmp_path / "block.csv", "w", newline="") as fh:
        peak = _traced_peak(write_block_csv, block, fh)
    assert peak < 4 * 2 ** 20
