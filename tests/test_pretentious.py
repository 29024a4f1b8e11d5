"""Distance machinery and mean-value audits."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from omegalab.errors import ContractError
from omegalab.pretentious import (
    MultFunSpec,
    dist_formula_residual,
    distance_sq_to_twist,
    frequency_family,
    halasz_audit,
    liouville_spec,
    log_t_grid,
    m0,
    mean_over_range,
    mode_spec,
    prime_trig_sums,
)
from omegalab import pretentious, profiles
from omegalab.sieve import enumerate_primes, factor_counts, factorize


def _plain_primes(limit):
    out = []
    for n in range(2, limit + 1):
        if all(n % d for d in range(2, int(n**0.5) + 1)):
            out.append(n)
    return out


def _pointwise(spec, n_limit):
    """f(n) for n = 1..N, the product of f(p)^e over the trial-division factors."""
    out = np.ones(n_limit, dtype=np.complex128)
    for n in range(2, n_limit + 1):
        for p, e in factorize(n):
            out[n - 1] *= spec.value_at_prime(p) ** e
    return out


def _loop_distance_sq(f, g_at, n_limit):
    # Independent route: prime-by-prime sum with trial-division primes.
    total = 0.0
    for p in _plain_primes(n_limit):
        total += (1.0 - (f.value_at_prime(p) * g_at(p).conjugate()).real) / p
    return total


def test_spec_validation_and_prime_values():
    with pytest.raises(ContractError):
        MultFunSpec(default_prime_value=1.5)
    with pytest.raises(ContractError):
        MultFunSpec(prime_values={3: 2.0})
    spec = MultFunSpec(default_prime_value=-1.0, prime_values={3: 1j})
    assert spec.value_at_prime(3) == 1j
    assert spec.value_at_prime(5) == -1.0
    assert spec.constant_prime_value() is None
    assert liouville_spec().constant_prime_value() == -1.0


def test_factorize_small_values():
    assert factorize(1) == []
    assert factorize(12) == [(2, 2), (3, 1)]
    assert factorize(97) == [(97, 1)]
    assert factorize(360) == [(2, 3), (3, 2), (5, 1)]


def _distance(f, n_limit):
    """D(f, 1; N): the distance to the unit function, the twist at t = 0."""
    return math.sqrt(max(distance_sq_to_twist(f, n_limit, 0.0), 0.0))


def _profile(f, n_limit, grid):
    """D(f, n -> n^{it}; N)^2 along a grid, from sums built for its max |t|."""
    return prime_trig_sums(f, n_limit, np.abs(grid).max()).distance_sq(grid)


def test_distance_matches_plain_loop():
    d = _distance(liouville_spec(), 500)
    want = math.sqrt(_loop_distance_sq(liouville_spec(), lambda p: 1.0 + 0.0j, 500))
    assert d == pytest.approx(want, abs=1e-12)


def test_distance_liouville_frozen():
    assert _distance(liouville_spec(), 10**4) == pytest.approx(
        2.2284792784468785, abs=1e-12)
    assert _distance(liouville_spec(), 10**6) == pytest.approx(
        2.403051434974987, abs=1e-12)


def test_twist_distance_matches_plain_loop():
    t = 0.7
    d2 = distance_sq_to_twist(liouville_spec(), 500, t)
    want = _loop_distance_sq(liouville_spec(),
                             lambda p: cmath.exp(1j * t * math.log(p)), 500)
    assert d2 == pytest.approx(want, abs=1e-12)


def test_distance_profile_matches_per_point_values():
    grid = np.array([-2.0, -0.5, 0.0, 0.5, 2.0])
    prof = _profile(liouville_spec(), 10**4, grid)
    for i, t in enumerate(grid):
        assert prof[i] == pytest.approx(
            distance_sq_to_twist(liouville_spec(), 10**4, float(t)), abs=1e-10)
    # non-constant spec goes through the generic path
    spec = MultFunSpec(default_prime_value=-1.0, prime_values={2: 1.0})
    prof2 = _profile(spec, 10**4, grid)
    for i, t in enumerate(grid):
        assert prof2[i] == pytest.approx(
            distance_sq_to_twist(spec, 10**4, float(t)), abs=1e-10)


def test_frequency_family_shape():
    fam = frequency_family(10**6)
    assert fam.size == 15
    assert fam.members == tuple(range(-7, 8))
    assert fam.size == len(fam.members)
    assert fam.radius == pytest.approx(7.215636108397721, abs=1e-12)
    with pytest.raises(ContractError):
        frequency_family(10)


def test_frequency_folding_is_exact_identification():
    fam = frequency_family(10**6)
    assert fam.fold(0.0) == 0.0
    assert fam.fold(fam.size) == 0.0
    assert fam.fold(3.0) == 3.0
    assert fam.fold(3.0 + 2 * fam.size) == 3.0
    assert fam.fold(-fam.size / 2.0) == fam.size / 2.0   # half-open fold
    # folding never changes the induced mode
    for xi in (-31.0, -7.2, 0.3, 11.0, 44.9):
        a = mode_spec(fam, xi).default_prime_value
        b = mode_spec(fam, fam.fold(xi)).default_prime_value
        assert abs(a - b) < 1e-9


def test_mode_spec_is_unimodular():
    fam = frequency_family(10**6)
    for xi in fam.members:
        z = mode_spec(fam, xi).default_prime_value
        assert abs(abs(z) - 1.0) < 1e-12
    assert mode_spec(fam, 0).default_prime_value == 1.0 + 0.0j


def test_log_t_grid_contains_zero_and_is_symmetric():
    grid = log_t_grid(5.0, points=101)
    assert 0.0 in grid
    np.testing.assert_allclose(grid, -grid[::-1], atol=0)
    assert grid.max() == pytest.approx(5.0)
    with pytest.raises(ContractError):
        log_t_grid(0.0)


def test_log_t_grid_refuses_fewer_than_three_points():
    # below 3 points there is no room for 0 and a magnitude on each side
    for points in (-3, 0, 1, 2):
        with pytest.raises(ContractError):
            log_t_grid(5.0, points=points)
    assert log_t_grid(5.0, points=3).size == 3


def test_log_t_grid_reaches_t_max_at_every_size():
    assert log_t_grid(5.0, points=3).tolist() == [-5.0, 0.0, 5.0]
    # from 4 points on, the grid is the log-spaced one, bit for bit
    for t_max, points in [(5.0, 4), (5.0, 5), (5.0, 101), (math.log(10**7), 201),
                          (math.log(10**7), 2001)]:
        mags = np.geomspace(1e-6, t_max, points // 2)
        np.testing.assert_array_equal(log_t_grid(t_max, points),
                                      np.concatenate((-mags[::-1], [0.0], mags)))
        assert log_t_grid(t_max, points).max() == t_max


def test_m0_finds_the_grid_minimum_or_better():
    grid = log_t_grid(math.log(10**4), points=201)
    out = m0(liouville_spec(), 10**4, grid)
    prof = _profile(liouville_spec(), 10**4, np.sort(grid))
    assert out["value"] <= float(prof.min()) + 1e-12
    assert out["value"] == pytest.approx(1.980203900727766, abs=1e-9)
    # the unit function pretends to n^{i0}: the infimum sits at t = 0 and is 0
    out0 = m0(MultFunSpec(), 10**4, grid)
    assert out0["value"] == pytest.approx(0.0, abs=1e-12)
    assert abs(out0["argmin_t"]) < 1e-9


def test_override_keys_that_are_not_primes_raise_before_any_pass(monkeypatch):
    def no_pass(*args, **kwargs):
        raise AssertionError("a pass over n <= N started")
    monkeypatch.setattr(pretentious, "sweep", no_pass)
    # key 1 never advanced p^k, key 0 divided by zero, and key 4 counted as a
    # prime in the mean while the distance skipped it
    for key in (1, 0, 4):
        spec = MultFunSpec(default_prime_value=-1.0, prime_values={key: 1j})
        with pytest.raises(ContractError):
            mean_over_range(spec, 1000)
        with pytest.raises(ContractError):
            distance_sq_to_twist(spec, 1000, 0.5)
    # a zero default value cannot carry an override ratio
    with pytest.raises(ContractError):
        mean_over_range(MultFunSpec(default_prime_value=0.0, prime_values={2: 1j}), 1000)
    monkeypatch.undo()
    # a key above N divides no n <= N: it is not tested for primality
    above = MultFunSpec(default_prime_value=-1.0, prime_values={10**6: 1j})
    assert (distance_sq_to_twist(above, 1000, 0.5)
            == distance_sq_to_twist(liouville_spec(), 1000, 0.5))
    assert mean_over_range(above, 1000) == mean_over_range(liouville_spec(), 1000)


def test_mean_over_range_matches_pointwise_products():
    spec = MultFunSpec(default_prime_value=-1.0, prime_values={3: 1j})
    vals = _pointwise(spec, 50)
    for n in range(1, 51):
        assert abs(mean_over_range(spec, n) - complex(np.sum(vals[:n])) / n) < 1e-12


def test_mean_over_range_agrees_with_sieved_signs():
    n = 10**4
    counts = factor_counts(1, n + 1).counts
    signs = np.where(counts % 2 == 0, 1.0, -1.0)
    want = float(signs.mean())
    got = mean_over_range(liouville_spec(), n)
    assert got.real == pytest.approx(want, abs=1e-12)
    assert got.imag == 0.0
    # override path takes the generic evaluator
    spec = MultFunSpec(default_prime_value=-1.0, prime_values={2: -1.0})
    assert mean_over_range(spec, n) == pytest.approx(got, abs=1e-12)


@settings(max_examples=10)
@given(xi=st.floats(-20.0, 20.0, allow_nan=False), t=st.sampled_from([0.0, 0.5, 1.0]))
def test_dist_formula_residual_stays_small(xi, t):
    assert dist_formula_residual(xi, 10**4, t) <= 5.0


def test_dist_formula_residual_frozen_and_validated():
    assert dist_formula_residual(0, 10**6, 1.0) == pytest.approx(
        0.048424448858015445, abs=1e-12)
    with pytest.raises(ContractError):
        dist_formula_residual(0, 10**6, 11.0)
    with pytest.raises(ContractError):
        dist_formula_residual(math.nan, 10**6, 0.0)


def test_halasz_audit_liouville():
    grid = log_t_grid(math.log(10**4), points=201)
    out = halasz_audit(liouville_spec(), 10**4, grid)
    assert out["ratio"] == abs(out["mean"]) / out["bound"]
    assert out["ratio"] <= 10.0
    assert out["bound"] == pytest.approx(
        math.exp(-out["m0"]["value"] / 16.0), abs=1e-15)
    with pytest.raises(ContractError):
        halasz_audit(liouville_spec(), 100, grid)


def test_halasz_audit_unit_spec_mean_near_one():
    # unit function: mean 1, infimum 0, so the bound is 1 and holds exactly
    grid = log_t_grid(math.log(10**4), points=101)
    out = halasz_audit(MultFunSpec(), 10**4, grid)
    assert out["mean"] == pytest.approx(1.0, abs=1e-12)
    assert out["bound"] == pytest.approx(1.0, abs=1e-9)
    assert out["ratio"] <= 10.0


# --- certified binned trig sums ---------------------------------------------

def _exact_profile(spec, n_limit, grid):
    # Oracle: one full pass over the primes per t, no binning.
    primes = enumerate_primes(n_limit)
    logs = np.log(primes.astype(np.float64))
    invp = 1.0 / primes.astype(np.float64)
    fp = np.array([spec.value_at_prime(p) for p in primes.tolist()])
    return np.array([float(np.sum((1.0 - (fp * np.exp(-1j * t * logs)).real) * invp))
                     for t in grid])


_BINNED_SPECS = {
    "liouville": liouville_spec(),
    "override": MultFunSpec(default_prime_value=-1.0,
                            prime_values={2: 1j, 3: 1.0, 97: 0.6 - 0.8j}),
    "zero": MultFunSpec(default_prime_value=0.0),
}
_BINNED_GRIDS = {
    # 301 points span several evaluation blocks at both N
    "unsorted": np.random.default_rng(7).permutation(log_t_grid(16.0, points=301)),
    "single": np.array([1.7]),
    "wide": np.concatenate((np.linspace(-1e3, 1e3, 15), [999.9, -0.3])),
}


@pytest.mark.parametrize("grid_name", list(_BINNED_GRIDS))
@pytest.mark.parametrize("n_limit", [10**4, 10**6])
@pytest.mark.parametrize("spec_name", list(_BINNED_SPECS))
def test_binned_profile_matches_exact_loop(spec_name, n_limit, grid_name):
    spec, grid = _BINNED_SPECS[spec_name], _BINNED_GRIDS[grid_name]
    got = _profile(spec, n_limit, grid)
    bound = prime_trig_sums(spec, n_limit, np.abs(grid).max()).tail_bound
    want = _exact_profile(spec, n_limit, grid)
    assert got.shape == grid.shape
    assert np.max(np.abs(got - want)) <= bound + 1e-12
    if spec_name == "zero":
        # f(p) = 0 everywhere: no truncation at all, D^2 = sum 1/p
        assert bound == 0.0
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


def test_binned_sums_rule_for_width_and_order():
    sums = prime_trig_sums(liouville_spec(), 10**6, 1e3)
    # |t| h/2 <= 1/2: the bin width shrinks to 1/t_max past t_max = 100
    assert sums.half_width == pytest.approx(0.5e-3, rel=1e-15)
    assert sums.tail_bound <= 1e-15
    narrow = prime_trig_sums(liouville_spec(), 10**6, 5.0)
    assert narrow.half_width == pytest.approx(0.5e-2, rel=1e-15)
    assert narrow.moments.shape[0] < sums.moments.shape[0]
    # the bound is certified only inside the range the moments were built for
    with pytest.raises(ContractError):
        narrow.distance_sq([5.5])
    for bad in ([0.0, math.nan], [0.0, math.inf]):
        with pytest.raises(ContractError):
            _profile(liouville_spec(), 10**4, bad)
        with pytest.raises(ContractError):
            m0(liouville_spec(), 10**4, bad)
    # cells finer than the rounding of log p cannot be certified
    with pytest.raises(ContractError):
        _profile(liouville_spec(), 10**4, [1e16])


def test_tail_bound_on_the_cli_default_grid_at_1e7():
    grid = log_t_grid(math.log(10**7), points=2001)
    out = m0(liouville_spec(), 10**7, grid)
    assert out["tail_bound"] <= 1e-13
    # the reported infimum is the exact distance at the reported argmin
    exact = distance_sq_to_twist(liouville_spec(), 10**7, out["argmin_t"])
    assert out["value"] == pytest.approx(exact, abs=out["tail_bound"] + 1e-12)


def test_m0_finds_the_deepest_dip_on_a_coarse_grid():
    # 101 log-spaced points over |t| <= log N miss the dips near |t| = 14
    # at 10^7 (they gave 2.5447 for Liouville and 2.287 for mode 5)
    n = 10**7
    coarse = log_t_grid(math.log(n), points=101)
    fine = np.linspace(-math.log(n), math.log(n), 20001)
    liouville = m0(liouville_spec(), n, coarse)
    assert liouville["value"] == pytest.approx(1.802379, abs=1e-6)
    assert abs(liouville["argmin_t"]) == pytest.approx(14.1003, abs=1e-4)
    assert liouville["value"] == pytest.approx(
        m0(liouville_spec(), n, log_t_grid(math.log(n), points=2001))["value"], abs=1e-12)
    mode5 = mode_spec(frequency_family(n), 5)
    out = m0(mode5, n, coarse)
    assert out["value"] == pytest.approx(1.907675, abs=1e-6)
    for spec, found in ((liouville_spec(), liouville), (mode5, out)):
        assert found["value"] <= float(_profile(spec, n, fine).min()) + 1e-12


@pytest.mark.parametrize("spec", [
    liouville_spec(),
    MultFunSpec(default_prime_value=-1.0, prime_values={2: 1j, 5: 1.0}),
    mode_spec(frequency_family(10**5), 3),
], ids=["liouville", "override", "mode3"])
def test_m0_matches_exact_grid_and_exact_refinement(spec):
    n = 10**5
    grid = log_t_grid(math.log(n), points=101)
    out = m0(spec, n, grid)
    exact_grid = _exact_profile(spec, n, grid)
    slack = out["tail_bound"] + 1e-12
    assert out["value"] <= float(exact_grid.min()) + slack
    assert out["value"] == pytest.approx(
        distance_sq_to_twist(spec, n, out["argmin_t"]), abs=slack)


def test_streamed_override_mean_matches_full_range_oracle(monkeypatch):
    # Small odd chunks put prime-power multiples on both sides of each cut;
    # the prime 997 is the last n of the first chunk.
    monkeypatch.setattr(profiles, "CHUNK", 997)
    n = 10**4
    spec = MultFunSpec(default_prime_value=-1.0 + 0.0j,
                       prime_values={2: 0.6 + 0.8j, 3: 1j, 97: -0.28 + 0.96j,
                                     997: 0.8 - 0.6j})
    want = complex(np.sum(_pointwise(spec, n))) / n
    got = mean_over_range(spec, n)
    assert abs(got - want) <= 1e-12
    # unit values sum exactly, so the chunked mean is bit-identical
    units = MultFunSpec(default_prime_value=-1.0 + 0.0j,
                        prime_values={2: 1j, 7: 1.0 + 0.0j, 97: -1j})
    assert mean_over_range(units, n) == complex(np.sum(_pointwise(units, n))) / n
