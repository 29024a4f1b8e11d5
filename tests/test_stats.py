"""Level-set densities, Gaussian comparison, and the two exact inequalities."""

import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from omegalab import profiles, sieve, stats
from omegalab import (ContractError, SmallOmega, density_l1_gap, density_table,
                      enumerate_primes, erdos_kac_ks, factor_counts,
                      gaussian_density, gaussian_model, normal_cdf,
                      sathe_selberg_ratio_check, turan_kubilius_check,
                      typical_range, write_density_csv)


def test_gaussian_model_fields():
    model = gaussian_model(10 ** 6)
    assert model.mu == math.log(math.log(10 ** 6))
    assert model.sigma == math.sqrt(model.mu)
    with pytest.raises(ContractError):
        gaussian_model(2)


def test_gaussian_density_peak():
    model = gaussian_model(10 ** 6)
    peak = gaussian_density(model.mu, model)
    assert math.isclose(peak, 0.3989422804014327 / model.sigma, rel_tol=1e-12)
    # an array of levels gives the same values as one call per level
    levels = np.array([0.0, 1.0, 2.5, model.mu, 9.0])
    np.testing.assert_array_equal(gaussian_density(levels, model),
                                  [gaussian_density(x, model) for x in levels])


def test_normal_cdf():
    assert math.isclose(normal_cdf(0.0), 0.5, abs_tol=1e-15)
    for x in (0.3, 1.7, 2.9):
        assert math.isclose(normal_cdf(x) + normal_cdf(-x), 1.0, abs_tol=1e-12)
    assert normal_cdf(8.0) > 1 - 1e-14


def test_typical_range_members():
    window = typical_range(2.0, 10 ** 6)
    assert window.members == tuple(range(0, 6))
    window8 = typical_range(2.0, 10 ** 8)
    assert window8.members == tuple(range(0, 7))
    with pytest.raises(ContractError):
        typical_range(0.5, 10 ** 6)


def test_density_table_at_100():
    table = density_table(100)
    assert table.counts[0] == 1           # n = 1
    assert table.counts[1] == 25          # primes up to 100
    assert table.pi_bar[1] == 0.25
    assert table.counts.sum() == 100


def test_partition_identity_exact_rationally():
    for n in (10 ** 3, 10 ** 4):
        table = density_table(n)
        assert int(table.counts.sum()) == n
        assert sum(Fraction(int(c), n) for c in table.counts) == 1


def test_density_log_column_uses_harmonic_mass():
    table = density_table(100)
    # level 0 is n = 1 alone: log weight 1 / H(100)
    expected = 1.0 / sum(1.0 / k for k in range(1, 101))
    assert math.isclose(table.pi_bar_log[0], expected, rel_tol=1e-12)


def test_density_table_adopts_a_valid_block_and_refuses_others(monkeypatch):
    n = 5000
    profiles.invalidate_cache()
    profiles.shared_counts(100)
    before = profiles._cached_block
    for bad in (factor_counts(1, n + 2, SmallOmega),   # distinct counts
                factor_counts(5, n + 2),               # not starting at n = 1
                factor_counts(1, n),                   # stops short of N
                factor_counts(1, n + 1)):              # ends at N: no count(N + 1)
        with pytest.raises(ContractError):
            density_table(n, bad)
        assert profiles._cached_block is before
    block = factor_counts(1, n + 2)

    def no_second_sieve(*args, **kwargs):
        raise AssertionError("the adopted block was sieved again")
    monkeypatch.setattr(sieve, "factor_counts", no_second_sieve)
    table = density_table(n, block)
    assert profiles._cached_block is block
    np.testing.assert_array_equal(table.counts,
                                  np.bincount(block.counts[:n], minlength=profiles.NBINS))


def test_turan_kubilius_frozen_example():
    out = turan_kubilius_check(10, np.array([2]))
    assert out["lhs"] == 0.5
    assert math.isclose(out["rhs"], 2.0 * math.sqrt(0.5), rel_tol=1e-15)
    assert out["holds"] is True


def test_turan_kubilius_matches_direct_float_sum():
    n = 10 ** 4
    primes = [int(p) for p in enumerate_primes(n) if p <= 100 or p > 9000]
    expected = sum(1.0 / p for p in primes)
    direct = sum(abs(sum(1 for p in primes if k % p == 0) - expected)
                 for k in range(1, n + 1)) / n
    assert turan_kubilius_check(n, primes)["lhs"] == pytest.approx(direct, rel=0, abs=1e-12)


def test_count_histogram_is_bincount_trimmed():
    rng = np.random.default_rng(5)
    for values in (rng.integers(0, 9, 3 * profiles.CHUNK + 5).astype(np.uint8),
                   np.zeros(7, dtype=np.uint8), np.full(profiles.CHUNK + 1, 255, np.uint8)):
        np.testing.assert_array_equal(stats.count_histogram(values), np.bincount(values))


def test_turan_kubilius_copies_no_indicator_array():
    # bincount of the whole N-byte indicator sum cast it to intp, about 9N
    # bytes at its peak; chunk by chunk the peak stays near the N bytes
    n = 2 * 10**6
    primes = enumerate_primes(1000)
    tracemalloc.start()
    try:
        turan_kubilius_check(n, primes)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * n


def test_turan_kubilius_rejects_composites():
    with pytest.raises(ContractError):
        turan_kubilius_check(100, np.array([4]))


def test_turan_kubilius_empty_set():
    out = turan_kubilius_check(100, np.array([], dtype=np.int64))
    assert out["lhs"] == 0.0 and out["holds"] is True


@given(n=st.integers(min_value=10, max_value=3000),
       mask=st.integers(min_value=1, max_value=2 ** 25 - 1))
@settings(max_examples=50)
def test_turan_kubilius_exact_inequality_random_sets(n, mask):
    # Any subset of the first 25 primes that fits below N: exact inequality.
    first = enumerate_primes(100)
    subset = first[[i for i in range(25) if mask >> i & 1]]
    subset = subset[subset <= n]
    out = turan_kubilius_check(n, subset)
    assert out["holds"] is True
    assert out["lhs"] <= out["rhs"]


def test_erdos_kac_ks_matches_direct_computation():
    n = 10 ** 4
    out = erdos_kac_ks(n)
    counts = factor_counts(1, n + 1).counts
    model = gaussian_model(n)
    standardized = np.sort((counts - model.mu) / model.sigma)
    cdf_hi = np.arange(1, n + 1) / n
    cdf_lo = np.arange(0, n) / n
    phi = np.array([normal_cdf(x) for x in standardized])
    direct = max(np.abs(cdf_hi - phi).max(), np.abs(cdf_lo - phi).max())
    assert math.isclose(out["ks"], direct, rel_tol=1e-12)
    assert math.isclose(out["normalized"], direct * math.sqrt(model.mu),
                        rel_tol=1e-12)


def test_erdos_kac_ks_shrinks():
    small = erdos_kac_ks(10 ** 4)["ks"]
    large = erdos_kac_ks(10 ** 6)["ks"]
    assert large < small


def test_ratio_check_positive_levels_only():
    out = sathe_selberg_ratio_check(10 ** 4, 2.0)
    assert all(row["ell"] >= 1 for row in out["rows"])
    assert out["max_deviation"] == max(abs(r["ratio"] - 1.0) for r in out["rows"])


def test_density_l1_gap_small():
    gap = density_l1_gap(10 ** 4)
    assert 0.0 <= gap < 0.5
    with pytest.raises(ContractError):
        density_l1_gap(100)


def test_density_csv(tmp_path):
    table = density_table(1000)
    path = tmp_path / "density.csv"
    with open(path, "w", newline="") as fh:
        write_density_csv(table, fh)
    lines = path.read_text().splitlines()
    assert lines[0] == "ell,pi_bar,pi_bar_log,gaussian,ratio"
    first = lines[1].split(",")
    assert first[0] == "0" and float(first[1]) == 0.001
