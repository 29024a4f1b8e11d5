"""Acceptance gate: the thirteen pinned criteria, one test each.

Each test asserts a frozen tolerance or an exact identity; run with -v
to get one pass/fail line per criterion.
"""

import hashlib
import json
import math
import os
import time
from fractions import Fraction

import numpy as np
import pytest

from omegalab.correlation import (
    parity_function,
    random_bounded_function,
    theorem_a_report,
    theorem_c_sum,
)
from omegalab.oracle import PeriodicCombo, PeriodicTerm, indicator_combo, \
    periodic_independence_check
from omegalab.pretentious import (
    dist_formula_residual,
    frequency_family,
    halasz_audit,
    liouville_spec,
    log_t_grid,
    mode_spec,
)
from omegalab.reduction import fourier_expand, parseval_audit, taylor_truncation
from omegalab.sieve import (
    BigOmega,
    SieveConfig,
    SmallOmega,
    TruncatedOmega,
    enumerate_primes,
    factor_counts,
    liouville,
)
from omegalab.stats import (
    density_table,
    erdos_kac_ks,
    sathe_selberg_ratio_check,
    turan_kubilius_check,
)


# --- independent oracle helpers (no shared arithmetic with the package) ----

def _plain_primes(limit: float) -> list:
    out = []
    n = 2
    while n <= limit:
        if all(n % p for p in out if p * p <= n):
            out.append(n)
        n += 1
    return out


def _oracle_factor_tables(n_limit: int):
    """Vectorized trial division: multiplicity and distinct counts."""
    rem = np.arange(1, n_limit + 1, dtype=np.int64)
    big = np.zeros(n_limit, dtype=np.int64)
    small = np.zeros(n_limit, dtype=np.int64)
    for p in _plain_primes(math.isqrt(n_limit)):
        idx = np.nonzero(rem % p == 0)[0]
        small[idx] += 1
        while idx.size:
            big[idx] += 1
            rem[idx] //= p
            idx = idx[rem[idx] % p == 0]
    left = rem > 1
    big[left] += 1
    small[left] += 1
    return big, small


def _oracle_truncated_table(n_limit: int, cutoff: float) -> np.ndarray:
    out = np.zeros(n_limit, dtype=np.int64)
    base = np.arange(1, n_limit + 1, dtype=np.int64)
    for p in _plain_primes(cutoff):
        out[base % p == 0] += 1
    return out


# --- criteria ---------------------------------------------------------------

def test_criterion_01_sieve_matches_trial_division_to_1e6():
    n = 10**6
    start = time.perf_counter()
    config = SieveConfig(worker_count=1)

    want_big, want_small = _oracle_factor_tables(n)
    block_big = factor_counts(1, n + 1, BigOmega, config)
    block_small = factor_counts(1, n + 1, SmallOmega, config)
    np.testing.assert_array_equal(block_big.counts, want_big)
    np.testing.assert_array_equal(block_small.counts, want_small)

    # the formula cutoff sits below 2 at every reachable scale, which the
    # truncated mode rejects by contract; admissible cutoffs stand in
    for cutoff in (2.0, 3.0, 97.0, 1000.0):
        block = factor_counts(1, n + 1, TruncatedOmega(cutoff), config)
        np.testing.assert_array_equal(block.counts,
                                      _oracle_truncated_table(n, cutoff))

    signs = liouville(block_big)
    want_signs = np.where(want_big % 2 == 0, 1, -1)
    np.testing.assert_array_equal(signs, want_signs)

    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"oracle equivalence run took {elapsed:.1f}s"


def test_criterion_02_turan_kubilius_exact_on_grid():
    for n in (10**4, 10**5, 10**6):
        for limit in (math.isqrt(n), n):
            prime_set = enumerate_primes(limit)
            out = turan_kubilius_check(n, prime_set)
            assert out["holds"] is True, (n, limit, out)
            assert out["lhs"] <= out["rhs"]


def test_criterion_03_taylor_truncation_bound_in_high_precision():
    mp = pytest.importorskip("mpmath").mp
    # The tightest grid point has a tail bound near 1e-111; precision must
    # leave that far above the arithmetic noise floor.
    mp.dps = 200
    orders = (1, 2, 3, 5, 8, 13, 21, 34)
    xs = np.linspace(-1.5, 1.5, 1000)
    for i, x in enumerate(xs):
        order = orders[i % len(orders)]
        out = taylor_truncation(float(x), order)
        z = 2j * mp.pi * mp.mpf(float(x))
        partial = mp.mpc(0)
        term = mp.mpc(1)
        for k in range(order + 1):
            partial += term
            term = term * z / (k + 1)
        exact_err = abs(mp.expjpi(2 * mp.mpf(float(x))) - partial)
        exact_bound = (2 * mp.pi * abs(mp.mpf(float(x)))) ** (order + 1) \
            / mp.factorial(order + 1)
        assert exact_err <= exact_bound, (float(x), order)
        # the float64 path reproduces the certified partial sum
        assert abs(complex(partial) - out["approx"]) <= 1e-10 * max(
            1.0, abs(complex(partial)))
        assert out["bound"] == pytest.approx(float(exact_bound), rel=1e-11)


def test_criterion_04_parseval_identity_statistical_sweep():
    for size in (8, 32, 129):
        for seed in range(100):
            b = random_bounded_function(seed)
            table = fourier_expand(b, range(0, size))
            audit = parseval_audit(table, b)
            assert audit["relative_gap"] < 1e-10, (size, seed, audit)


def test_criterion_05_level_densities_partition_exactly(big_block):
    for n in (10**4, 10**6, 10**8):
        table = density_table(n, counts_block=big_block)
        assert int(table.counts.sum()) == n
        assert sum(Fraction(int(c), n) for c in table.counts) == 1


def test_criterion_06_theorem_a_error_shrinks_with_scale(big_block):
    start = time.perf_counter()
    par = parity_function()
    err4 = theorem_a_report(par, par, 10**4).error
    err8 = theorem_a_report(par, par, 10**8).error
    assert err8 <= 0.05, f"parity error at 1e8 is {err8:.5f}"
    assert err8 <= err4, (err8, err4)

    means = {}
    for n in (10**6, 10**8):
        errs = [theorem_a_report(random_bounded_function(1000 + i),
                                 random_bounded_function(2000 + i), n).error
                for i in range(20)]
        means[n] = float(np.mean(errs))
    assert means[10**8] <= means[10**6], means
    elapsed = time.perf_counter() - start
    assert elapsed <= 900.0, f"theorem A sweep took {elapsed:.0f}s"


def test_criterion_07_erdos_kac_ks_distance(big_block):
    ks6 = erdos_kac_ks(10**6, counts_block=big_block)
    ks8 = erdos_kac_ks(10**8, counts_block=big_block)
    assert ks8["ks"] < ks6["ks"], (ks8, ks6)
    assert ks8["normalized"] <= 3.0


def test_criterion_08_gaussian_pointwise_ratio_in_typical_range(big_block):
    # The pointwise law pi_bar_ell ~ gaussian_ell holds only up to a
    # (1 + o(1)) factor with o(1) = O((loglog N)^(-1/2)) and no explicit
    # constant, so no pointwise bound is asserted.  The ell = 1 row alone
    # shows why: its ratio is about sqrt(2 pi L) exp(-L/2 - 1 + 1/(2L)) with
    # L = loglog N, which falls as N grows, and ell = 1 stays in T_{2,N}
    # until L > (1 + sqrt 2)^2, i.e. N near 10^147.  Instead every row is
    # recomputed independently, anchored to pi(N), and the calibration
    # values are pinned.
    chunk = 1 << 22
    # N: (pi(N), level of the worst ratio, its deviation)
    calibration = {10**6: (78_498, 5, 0.4788), 10**8: (5_761_455, 6, 0.8639)}
    for n, (prime_count, worst_ell, worst_dev) in calibration.items():
        out = sathe_selberg_ratio_check(n, 2.0, counts_block=big_block)
        rows = out["rows"]

        # (a) window membership: positive integers of [L - 2 sqrt L, L + 2 sqrt L]
        L = math.log(math.log(n))
        assert out["window"].lo == pytest.approx(L - 2.0 * math.sqrt(L), rel=1e-12)
        assert out["window"].hi == pytest.approx(L + 2.0 * math.sqrt(L), rel=1e-12)
        assert [row["ell"] for row in rows] == list(range(1, worst_ell + 1)), n

        # (b) every row recomputed from the raw counts and the closed form
        hist = np.zeros(64, dtype=np.int64)
        for start in range(0, n, chunk):
            hist += np.bincount(big_block.counts[start : min(start + chunk, n)],
                                minlength=64)
        assert int(hist.sum()) == n
        devs = []
        for row in rows:
            ell = row["ell"]
            pi_bar = int(hist[ell]) / n
            gauss = math.exp(-((ell - L) ** 2) / (2.0 * L)) / math.sqrt(2.0 * math.pi * L)
            ratio = pi_bar / gauss
            devs.append(abs(ratio - 1.0))
            assert row["pi_bar"] == pytest.approx(pi_bar, rel=1e-12), (n, row)
            assert row["gaussian"] == pytest.approx(gauss, rel=1e-12), (n, row)
            assert row["ratio"] == pytest.approx(ratio, rel=1e-12), (n, row)
            assert row["deviation"] == pytest.approx(devs[-1], rel=1e-12), (n, row)
        assert out["max_deviation"] == pytest.approx(max(devs), rel=1e-12), n

        # (c) the ell = 1 row is the prime density pi(N) / N
        assert int(hist[1]) == prime_count
        assert rows[0]["pi_bar"] == pytest.approx(prime_count / n, rel=1e-12)

        # (d) the calibration values and where they are reached
        assert out["max_deviation"] == pytest.approx(worst_dev, abs=5e-5), (
            f"max |density/gaussian - 1| over T_(2,{n}) is "
            f"{out['max_deviation']:.5f}, calibrated at {worst_dev}")
        assert max(rows, key=lambda row: row["deviation"])["ell"] == worst_ell


def test_criterion_09_theorem_c_sum_non_increasing(big_block, regression_dir):
    par = parity_function()
    values = {str(n): theorem_c_sum(par, n) for n in (10**6, 10**7, 10**8)}
    seq = [values[str(n)] for n in (10**6, 10**7, 10**8)]
    assert seq[0] >= seq[1] >= seq[2], seq

    # compare-only, so a passing run cannot move its own baseline; set
    # OMEGALAB_UPDATE_REGRESSION=1 to record fresh values on purpose
    path = regression_dir / "theorem_c.json"
    if os.environ.get("OMEGALAB_UPDATE_REGRESSION") == "1":
        path.write_text(json.dumps(values, indent=2, sort_keys=True) + "\n")
        return
    recorded = json.loads(path.read_text())
    assert recorded.keys() == values.keys(), sorted(recorded)
    for key, val in recorded.items():
        assert values[key] == pytest.approx(val, rel=1e-9), (key, val)


def test_criterion_10_periodic_independence_audit():
    # named pair from the contract
    named = periodic_independence_check(indicator_combo(2, 0),
                                        indicator_combo(3, 1), 10**4)
    assert named["scaled_error"] <= 10.0

    # full-period runs are exact
    f = indicator_combo(4, 1)
    g = indicator_combo(9, 2)
    for m in (1, 5, 28):
        out = periodic_independence_check(f, g, 36 * m)
        assert out["scaled_error"] == 0.0

    # seeded random combos, three terms each, coprime prime-power periods
    rng = np.random.default_rng(20240817)
    for _ in range(6):
        def draw(pool):
            terms = []
            for _ in range(3):
                a = int(rng.choice(pool))
                b = int(rng.integers(0, a))
                c = float(rng.uniform(-1.0, 1.0))
                terms.append(PeriodicTerm(c, a, b))
            return PeriodicCombo(terms=tuple(terms))
        fc = draw([2, 4, 8, 16])
        gc = draw([3, 9, 27])
        for n in (10**3, 10**4, 10**5):
            out = periodic_independence_check(fc, gc, n)
            assert out["scaled_error"] <= 10.0, (n, out)


def test_criterion_11_distance_formula_residual_grid():
    for n in (10**4, 10**5, 10**6, 10**7):
        A = frequency_family(n).A
        for xi in (0.0, A, A**2.5):
            for t in (0.0, 0.5, 1.0):
                residual = dist_formula_residual(xi, n, t)
                assert residual <= 5.0, (n, xi, t, residual)


def test_criterion_12_halasz_mean_value_bound():
    for n in (10**6, 10**7):
        grid = log_t_grid(math.log(n), points=201)
        family = frequency_family(n)
        specs = [liouville_spec()] + [mode_spec(family, xi) for xi in (1, 3, 5)]
        for spec in specs:
            out = halasz_audit(spec, n, grid)
            assert abs(out["mean"]) <= 10.0 * out["bound"], (n, out)


def test_criterion_13_sieve_throughput_and_worker_identity():
    n = 10**8
    start = time.perf_counter()
    single = factor_counts(1, n + 1, BigOmega, SieveConfig(worker_count=1))
    single_time = time.perf_counter() - start
    assert single_time <= 60.0, f"single-worker sieve took {single_time:.1f}s"

    digest_one = hashlib.sha256(single.counts.tobytes()).hexdigest()
    del single

    start = time.perf_counter()
    eight = factor_counts(1, n + 1, BigOmega, SieveConfig(worker_count=8))
    eight_time = time.perf_counter() - start
    digest_eight = hashlib.sha256(eight.counts.tobytes()).hexdigest()
    del eight

    assert digest_one == digest_eight
    if (os.cpu_count() or 1) >= 8:
        assert eight_time <= 10.0, f"8-worker sieve took {eight_time:.1f}s"
