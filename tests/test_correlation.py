"""Bounded level functions and shifted correlation averages."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from omegalab import correlation, profiles
from omegalab.correlation import (
    CESARO,
    LOGARITHMIC,
    NBINS,
    BoundedFunction,
    constant_function,
    fourier_mode_function,
    indicator_function,
    k_point_explore,
    parity_function,
    prime_shift_identity,
    random_bounded_function,
    theorem_a_report,
    theorem_c_sum,
    two_point_lhs,
)
from omegalab.errors import CapacityError, ContractError
from omegalab.oracle import brute_correlation


def test_bounded_function_basics():
    f = BoundedFunction(values={0: 1.0, 3: -0.5j}, default_value=0.25)
    assert f(0) == 1.0
    assert f(3) == -0.5j
    assert f(17) == 0.25
    tab = f.table(5)
    assert tab[0] == 1.0 and tab[3] == -0.5j and tab[4] == 0.25


def test_bounded_function_rejects_bad_inputs():
    with pytest.raises(ContractError):
        BoundedFunction(bound=0.0)
    with pytest.raises(ContractError):
        BoundedFunction(values={2: 1.5})
    with pytest.raises(ContractError):
        BoundedFunction(values={-1: 0.5})
    with pytest.raises(ContractError):
        BoundedFunction(default_value=2.0)


def test_down_shifted_moves_levels_up():
    f = BoundedFunction(values={0: 0.5, 1: -1.0}, default_value=0.125)
    g = f.down_shifted()
    assert g(0) == 0.125        # level -1 of f means the default
    assert g(1) == 0.5
    assert g(2) == -1.0
    assert g(3) == 0.125


def test_parity_and_indicator_factories():
    par = parity_function()
    assert par(0) == 1.0 and par(1) == -1.0 and par(7) == -1.0
    ind = indicator_function(4)
    assert ind(4) == 1.0 and ind(3) == 0.0
    with pytest.raises(ContractError):
        indicator_function(NBINS)
    with pytest.raises(ContractError):
        indicator_function(-1)


def test_fourier_mode_is_unimodular_and_periodic():
    f = fourier_mode_function(3, 8)
    for ell in range(16):
        assert abs(abs(f(ell)) - 1.0) < 1e-12
    assert f(8) == pytest.approx(f(0), abs=1e-12)
    assert f(0) == 1.0
    with pytest.raises(ContractError):
        fourier_mode_function(1, 0)


def test_random_bounded_function_reproducible_and_on_disc():
    f = random_bounded_function(42)
    g = random_bounded_function(42)
    h = random_bounded_function(43)
    assert all(f(ell) == g(ell) for ell in range(NBINS))
    assert any(f(ell) != h(ell) for ell in range(NBINS))
    assert max(abs(f(ell)) for ell in range(NBINS)) <= 1.0 + 1e-12


def test_parity_pair_correlation_small_n():
    # Hand-checkable: multiplicities of 1..11 give products summing to -4.
    par = parity_function()
    assert two_point_lhs(par, par, 10, 1, CESARO) == pytest.approx(-0.4, abs=1e-15)
    assert two_point_lhs(par, par, 20, 1, CESARO) == pytest.approx(0.0, abs=1e-15)


def test_two_point_log_matches_brute_oracle():
    par = parity_function()
    fast = two_point_lhs(par, par, 100, 1, LOGARITHMIC)
    slow = brute_correlation(par, par, 100, 1, "logarithmic")
    assert abs(fast - slow) < 1e-12


@settings(max_examples=12)
@given(seed_a=st.integers(0, 10**6), seed_b=st.integers(0, 10**6),
       shift=st.integers(1, 5),
       weighting=st.sampled_from([CESARO, LOGARITHMIC]))
def test_two_point_matches_oracle_random_functions(seed_a, seed_b, shift, weighting):
    a = random_bounded_function(seed_a)
    b = random_bounded_function(seed_b)
    fast = two_point_lhs(a, b, 300, shift, weighting)
    slow = brute_correlation(a, b, 300, shift, weighting)
    assert abs(fast - slow) < 1e-12


def test_two_point_validation():
    par = parity_function()
    with pytest.raises(ContractError):
        two_point_lhs(par, par, 2)
    with pytest.raises(ContractError):
        two_point_lhs(par, par, 100, 0)
    with pytest.raises(ContractError):
        two_point_lhs(par, par, 100, 1, "uniform")


def test_theorem_a_report_parity_frozen():
    rep = theorem_a_report(parity_function(), parity_function(), 10**4)
    assert rep.N == 10**4
    assert rep.weighting == LOGARITHMIC
    assert rep.lhs.real == pytest.approx(-0.08524761383309358, abs=1e-14)
    assert rep.error == pytest.approx(0.08533597383309358, abs=1e-13)
    assert rep.error == pytest.approx(abs(rep.lhs - rep.prediction), abs=1e-16)


def test_theorem_a_constant_functions_have_tiny_error():
    # Constants factor exactly; only the log-vs-Cesaro weighting gap remains.
    c = constant_function(0.5)
    rep = theorem_a_report(c, c, 10**4)
    assert rep.lhs == pytest.approx(0.25, abs=1e-12)
    assert rep.prediction == pytest.approx(0.25, abs=1e-12)
    assert rep.error < 1e-12


def test_theorem_c_sum_parity_frozen_and_shrinking():
    par = parity_function()
    at4 = theorem_c_sum(par, 10**4)
    at5 = theorem_c_sum(par, 10**5)
    assert at4 == pytest.approx(0.0679527380473429, abs=1e-13)
    assert at5 == pytest.approx(0.053140328162814374, abs=1e-13)
    assert at5 < at4


def test_theorem_c_sum_vanishes_for_constants():
    assert theorem_c_sum(constant_function(0.7), 10**4) < 1e-14


def test_prime_shift_identity_reports_gap():
    par = parity_function()
    out = prime_shift_identity(par, par, 10**4, [3, 5, 7])
    assert out["gap"] == pytest.approx(abs(out["lhs"] - out["rhs"]), abs=1e-16)
    assert out["gap"] == pytest.approx(0.0705557130325044, abs=1e-12)


def test_prime_shift_identity_validation():
    par = parity_function()
    with pytest.raises(ContractError):
        prime_shift_identity(par, par, 10**4, [])
    with pytest.raises(ContractError):
        prime_shift_identity(par, par, 10**4, [4])
    with pytest.raises(ContractError):
        prime_shift_identity(par, par, 100, [31])


def test_k_point_explore_matches_two_point_at_k2():
    a = random_bounded_function(3)
    b = random_bounded_function(4)
    out = k_point_explore([a, b], 2000, LOGARITHMIC)
    direct = two_point_lhs(a, b, 2000, 1, LOGARITHMIC)
    assert abs(out["value"] - direct) < 1e-12
    assert out["label"] == "EXPLORATORY"
    assert out["k"] == 2


def test_k_point_explore_k3_frozen():
    par = parity_function()
    out = k_point_explore([par, par, par], 2000, CESARO)
    assert out["value"].real == pytest.approx(0.062, abs=1e-15)
    assert out["independence_gap"] == pytest.approx(0.062001331, abs=1e-12)


def test_k_point_marginals_come_from_its_own_pass(monkeypatch):
    n = 2 * 10**4
    functions = [random_bounded_function(seed) for seed in range(4)]
    passes = []
    chunks = profiles.chunks
    monkeypatch.setattr(profiles, "chunks", lambda *args: passes.append(args) or chunks(*args))
    for k in range(1, 5):
        for weighting in (CESARO, LOGARITHMIC):
            profiles.invalidate_cache()
            passes.clear()
            got = k_point_explore(functions[:k], n, weighting)["marginal_product"]
            assert len(passes) == 1
            marginal = profiles.two_point_profile(n, 0)
            want = complex(np.prod([marginal.mean(fn.table(), weighting)
                                    for fn in functions[:k]]))
            if weighting == CESARO:
                assert got == want
            else:
                assert abs(got - want) <= 1e-12 * abs(want)
    profiles.invalidate_cache()


def _k_point_gather(functions, n_limit, weighting):
    # the per-n gather loop of the old k_point_explore: one product per n
    counts = profiles.shared_counts(n_limit + len(functions))
    tables = [fn.table() for fn in functions]
    prod = tables[0][counts[:n_limit]]
    for i in range(1, len(tables)):
        prod = prod * tables[i][counts[i : n_limit + i]]
    if weighting == CESARO:
        return complex(np.sum(prod)) / n_limit
    inv_n = 1.0 / np.arange(1, n_limit + 1, dtype=np.float64)
    return complex(np.sum(prod * inv_n)) / float(np.sum(inv_n))


@pytest.mark.parametrize("n_limit", [2000, 10**5])
@pytest.mark.parametrize("weighting", [CESARO, LOGARITHMIC])
@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_k_point_histogram_matches_gather_oracle(monkeypatch, k, weighting, n_limit):
    monkeypatch.setattr(profiles, "CHUNK", 997)
    functions = [random_bounded_function(10 * k + i) for i in range(k)]
    out = k_point_explore(functions, n_limit, weighting)
    assert out["value"] == pytest.approx(_k_point_gather(functions, n_limit, weighting),
                                         abs=1e-13)


def test_k_point_explore_capacity_and_validation():
    par = parity_function()
    with pytest.raises(CapacityError):
        k_point_explore([par] * 5, 2000)
    with pytest.raises(ContractError):
        k_point_explore([], 2000)
    with pytest.raises(ContractError):
        k_point_explore([par], 100)
    with pytest.raises(ContractError):
        k_point_explore([par], 2000, "uniform")


def test_unknown_weighting_is_refused_before_any_pass(monkeypatch):
    def reached(*args, **kwargs):
        raise AssertionError("counts were read before the weighting was checked")
    for module, name in ((correlation, "two_point_profile"),
                         (correlation, "level_histograms"), (profiles, "sweep")):
        monkeypatch.setattr(module, name, reached)
    par = parity_function()
    with pytest.raises(ContractError, match="bogus"):
        two_point_lhs(par, par, 5000, 1, "bogus")
    with pytest.raises(ContractError, match="bogus"):
        k_point_explore([par, par], 5000, "bogus")
