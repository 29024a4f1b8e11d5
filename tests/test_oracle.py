"""The brute-force reference implementations, checked against themselves
and against the fast path they exist to audit."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from omegalab.correlation import (
    constant_function,
    parity_function,
    random_bounded_function,
    two_point_lhs,
)
from omegalab.errors import CapacityError, ContractError
from omegalab.oracle import (
    PeriodicCombo,
    PeriodicTerm,
    brute_correlation,
    indicator_combo,
    periodic_independence_check,
)
from omegalab.sieve import factor_counts, omega_oracle


def test_count_with_multiplicity_examples():
    assert omega_oracle(1) == 0
    assert omega_oracle(2) == 1
    assert omega_oracle(360) == 6       # 2^3 * 3^2 * 5
    assert omega_oracle(2**20) == 20
    assert omega_oracle(9699690) == 8   # primorial of 19
    with pytest.raises(ContractError):
        omega_oracle(0)


def test_count_matches_sieve_on_a_block():
    counts = factor_counts(1, 2001).counts
    for n in range(1, 2001):
        assert omega_oracle(n) == counts[n - 1]


def test_brute_correlation_constants_give_one():
    one = constant_function(1.0)
    assert brute_correlation(one, one, 100, 1) == pytest.approx(1.0, abs=1e-15)


def test_brute_correlation_parity_hand_value():
    par = parity_function()
    assert brute_correlation(par, par, 10, 1, "cesaro") == pytest.approx(
        -0.4, abs=1e-15)


def test_brute_correlation_validation():
    par = parity_function()
    with pytest.raises(CapacityError):
        brute_correlation(par, par, 10**6 + 1, 1)
    with pytest.raises(ContractError):
        brute_correlation(par, par, 0, 1)
    with pytest.raises(ContractError):
        brute_correlation(par, par, 100, -1)
    with pytest.raises(ContractError):
        brute_correlation(par, par, 100, 1, "uniform")


def test_brute_matches_fast_path_fifty_random_pairs():
    # Cross-run agreement at N = 1e4 for 50 seeded function pairs.
    worst = 0.0
    for i in range(50):
        a = random_bounded_function(1000 + i)
        b = random_bounded_function(2000 + i)
        weighting = "cesaro" if i % 2 == 0 else "logarithmic"
        slow = brute_correlation(a, b, 10**4, 1, weighting)
        fast = two_point_lhs(a, b, 10**4, 1, weighting)
        worst = max(worst, abs(slow - fast))
    assert worst <= 1e-12


def test_periodic_term_validation():
    with pytest.raises(ContractError):
        PeriodicTerm(1.5, 2, 0)
    with pytest.raises(ContractError):
        PeriodicTerm(1.0, 0, 0)
    with pytest.raises(ContractError):
        PeriodicTerm(1.0, 3, 3)
    with pytest.raises(ContractError):
        PeriodicCombo(terms=())


def test_periodic_combo_evaluation_and_period():
    combo = PeriodicCombo(terms=(
        PeriodicTerm(1.0, 2, 0), PeriodicTerm(0.5j, 3, 1)))
    assert combo.period == 6
    assert combo.evaluate(4) == 1.0 + 0.5j        # even and 1 mod 3
    assert combo.evaluate(3) == 0.0
    assert combo.period_mean() == pytest.approx(0.5 + 0.5j / 3, abs=1e-15)


def test_periodic_independence_exact_at_full_periods():
    f = indicator_combo(2, 0)
    g = indicator_combo(3, 0)
    for m in (1, 7, 100):
        out = periodic_independence_check(f, g, 6 * m)
        assert out["lhs"] == pytest.approx(1.0 / 6.0, abs=1e-15)
        assert out["scaled_error"] == 0.0


def test_periodic_independence_spec_example():
    out = periodic_independence_check(indicator_combo(2, 0),
                                      indicator_combo(3, 1), 10**4)
    assert out["scaled_error"] <= 10.0


def test_periodic_independence_requires_coprime_periods():
    with pytest.raises(ContractError):
        periodic_independence_check(indicator_combo(4), indicator_combo(6), 100)


@settings(max_examples=15)
@given(data=st.data())
def test_periodic_independence_scaled_error_bounded(data):
    # combos with 3 terms each; coprime prime-power period pools
    def combo(pool, seed_data, tag):
        terms = []
        for i in range(3):
            a = seed_data.draw(st.sampled_from(pool), label=f"{tag}{i}a")
            b = seed_data.draw(st.integers(0, a - 1), label=f"{tag}{i}b")
            c = seed_data.draw(st.floats(-1.0, 1.0), label=f"{tag}{i}c")
            terms.append(PeriodicTerm(c, a, b))
        return PeriodicCombo(terms=tuple(terms))

    f = combo([2, 4, 8, 16], data, "f")
    g = combo([3, 9, 27], data, "g")
    for n in (10**3, 10**4):
        out = periodic_independence_check(f, g, n)
        assert out["scaled_error"] <= 10.0
