"""Sieve kernels against trial division and their own contracts."""

import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from omegalab import (BigOmega, CapacityError, ContractError, CountMode,
                      EmptyDomainError, SieveConfig, SmallOmega,
                      TruncatedOmega, enumerate_primes, factor_counts,
                      liouville, omega_oracle, read_block, truncation_cutoff,
                      write_block, write_block_csv)


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
    assert block.count_at(10) == 1   # only 2 <= 3 divides 10
    assert block.count_at(12) == 2   # 2 and 3
    assert block.count_at(7) == 0


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
        assert block.count_at(n) == omega_oracle(n)


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


# --- configuration and determinism ----------------------------------------

def test_worker_counts_bit_identical():
    base = factor_counts(1, 200001, config=SieveConfig(worker_count=1))
    for workers in (2, 3, 8):
        other = factor_counts(1, 200001, config=SieveConfig(worker_count=workers))
        assert np.array_equal(base.counts, other.counts)


def test_segment_length_invariance():
    base = factor_counts(50, 5000)
    tiny = factor_counts(50, 5000, config=SieveConfig(segment_length=64))
    assert np.array_equal(base.counts, tiny.counts)


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
        SieveConfig(segment_length=0)
    with pytest.raises(ContractError):
        SieveConfig(worker_count=0)


# --- primes and cutoff ------------------------------------------------------

def test_enumerate_primes():
    table = enumerate_primes(10 ** 6)
    assert table.primes.size == 78498
    assert table.primes[0] == 2 and table.primes[-1] == 999983
    with pytest.raises(EmptyDomainError):
        enumerate_primes(1)


def test_truncation_cutoff_degenerates_at_desk_scale():
    # The shrinking cutoff stays below 2 for every 64-bit range, which is
    # why the truncated mode demands an explicit cutoff >= 2.
    assert truncation_cutoff(10 ** 6) < 2.0
    assert truncation_cutoff(10 ** 8) < 2.0
    assert truncation_cutoff(10 ** 6, exponent=1.0) > 2.0


def test_block_count_at_bounds():
    block = factor_counts(5, 25)
    assert block.count_at(5) == 1
    with pytest.raises(ContractError):
        block.count_at(25)
    with pytest.raises(ContractError):
        block.count_at(4)


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


def test_csv_export(tmp_path):
    block = factor_counts(1, 13)
    path = tmp_path / "block.csv"
    write_block_csv(block, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "n,count"
    assert lines[1] == "1,0"
    assert lines[12] == "12,3"
