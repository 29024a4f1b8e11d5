"""Prime windows, Fourier expansion, reduced sums, circle-method pieces."""

import cmath
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from omegalab import profiles, reduction, sieve
from omegalab.correlation import (
    parity_function,
    random_bounded_function,
)
from omegalab.errors import CapacityError, ContractError, DegenerateWindowError
from omegalab.pretentious import frequency_family
from omegalab.profiles import NBINS, shared_counts
from omegalab.reduction import (
    fourier_expand,
    major_arc_measure,
    parseval_audit,
    prime_exponential_sum,
    prime_window,
    reduced_sum_terms,
    taylor_truncation,
    window_formula_bounds,
    write_alpha_sweep_csv,
    write_xi_sweep_csv,
)


# --- prime windows ---------------------------------------------------------

def test_override_window_brackets_and_mass():
    w = prime_window(overrides={"lower": 10, "upper": 100})
    assert w.primes.size == 21
    assert w.primes.min() == 11 and w.primes.max() == 97
    # independent route: sum 1/p over the 21 primes by hand
    want = sum(1.0 / p for p in (11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47,
                                 53, 59, 61, 67, 71, 73, 79, 83, 89, 97))
    assert w.mass == pytest.approx(0.6266267248583948, abs=1e-15)
    assert w.mass == pytest.approx(want, abs=1e-15)


def test_tiny_override_window():
    w = prime_window(overrides={"lower": 2, "upper": 3})
    assert list(w.primes) == [2, 3]
    assert w.mass == pytest.approx(5.0 / 6.0, abs=1e-15)
    assert w.max_prime == 3
    np.testing.assert_allclose(w.weights, [0.5, 1.0 / 3.0], atol=1e-16)


def test_formula_window_at_desk_scales():
    lo, hi = window_formula_bounds(10**4)
    assert lo == pytest.approx(3.625141008922502, abs=1e-12)
    assert hi == pytest.approx(115.28161329613903, abs=1e-9)
    w = prime_window(10**4)
    assert w.primes.size == 28
    assert w.primes.min() == 5 and w.primes.max() == 113
    assert w.mass == pytest.approx(1.016463259519878, abs=1e-12)
    assert w.formula_lower == pytest.approx(lo)
    # edges grow with N and never leave the window empty at desk scale
    for n in (10**4, 10**6, 10**8):
        assert prime_window(n).primes.size > 0


def test_degenerate_windows_raise_with_edges():
    with pytest.raises(DegenerateWindowError) as info:
        prime_window(overrides={"lower": 24, "upper": 28})
    assert info.value.lower == 24.0
    assert info.value.upper == 28.0
    with pytest.raises(DegenerateWindowError):
        prime_window(overrides={"lower": 5, "upper": 5})
    with pytest.raises(DegenerateWindowError):
        prime_window(overrides={"lower": 0.1, "upper": 1.5})


def test_window_validation():
    with pytest.raises(ContractError):
        prime_window()
    with pytest.raises(ContractError):
        prime_window(overrides={"lower": 2, "upper": 50, "junk": 1})
    with pytest.raises(ContractError):
        prime_window(10**3)             # formula needs 1e4, overrides do not
    assert prime_window(10**3, overrides={"lower": 2, "upper": 50}).primes.size == 15


# --- Fourier expansion on an integer interval ------------------------------

def test_fourier_expansion_reconstructs_samples():
    b = random_bounded_function(5)
    table = fourier_expand(b, range(0, 16))
    for n in range(16):
        assert abs(table.value_at(n) - b(n)) < 1e-10


def test_fourier_constant_concentrates_at_zero():
    from omegalab.correlation import constant_function
    table = fourier_expand(constant_function(0.75), range(0, 8))
    assert table.coefficients[0] == pytest.approx(0.75, abs=1e-12)
    others = [abs(c) for xi, c in table.coefficients.items() if xi != 0]
    assert max(others) < 1e-12


def test_fourier_pure_mode_concentrates_at_its_frequency():
    size = 32
    vals = {n: cmath.exp(2j * cmath.pi * 5 * n / size) for n in range(size)}
    from omegalab.correlation import BoundedFunction
    b = BoundedFunction(values=vals)
    table = fourier_expand(b, range(0, size))
    assert abs(table.coefficients[5] - 1.0) < 1e-10
    rest = [abs(c) for xi, c in table.coefficients.items() if xi != 5]
    assert max(rest) < 1e-10


@settings(max_examples=30)
@given(seed=st.integers(0, 10**6), size=st.sampled_from([8, 32, 129]),
       start=st.integers(0, 20))
def test_parseval_identity_random_functions(seed, size, start):
    b = random_bounded_function(seed)
    table = fourier_expand(b, range(start, start + size))
    audit = parseval_audit(table, b)
    assert audit["relative_gap"] < 1e-10


def test_fourier_interval_validation():
    b = parity_function()
    with pytest.raises(ContractError):
        fourier_expand(b, [])
    with pytest.raises(ContractError):
        fourier_expand(b, [0, 2, 3])


def test_fourier_accepts_frequency_family_members():
    fam = frequency_family(10**4)
    b = random_bounded_function(9)
    # the family is symmetric around 0; shift it into the level domain
    interval = range(0, fam.size)
    table = fourier_expand(b, interval)
    assert table.size == fam.size
    audit = parseval_audit(table, b)
    assert audit["relative_gap"] < 1e-10


# --- reduced sums ----------------------------------------------------------

def test_reduced_sum_zero_frequency_vanishes():
    w = prime_window(overrides={"lower": 2, "upper": 10})
    terms = reduced_sum_terms(10**3, w, [0])
    assert terms[0] == 0.0


def test_reduced_term_single_prime_window_frozen():
    w = prime_window(overrides={"lower": 2, "upper": 2.5})
    terms = reduced_sum_terms(10**4, w, [3])
    assert terms[3] == pytest.approx(0.9294332901592743, abs=1e-12)


def test_reduced_sum_formula_window_frozen():
    fam = frequency_family(10**4)
    w = prime_window(10**4)
    total = sum(reduced_sum_terms(10**4, w, fam.members).values())
    assert total == pytest.approx(1.956258330517151, abs=1e-10)


def test_reduced_terms_match_direct_loop():
    # Independent route: explicit python loop over n for a small case.
    n_limit = 400
    w = prime_window(overrides={"lower": 2, "upper": 12})
    fam_size = frequency_family(n_limit).size
    xi = 2
    counts = shared_counts(n_limit + int(w.max_prime) + 1)

    inner_num = 0.0 + 0.0j
    inner_mass = 0.0
    for m in range(1, n_limit + 1):
        inner_num += cmath.exp(2j * cmath.pi * xi * int(counts[m - 1]) / fam_size) / m
        inner_mass += 1.0 / m
    inner = inner_num / inner_mass

    total = 0.0
    mass = 0.0
    for n in range(1, n_limit + 1):
        avg = 0.0 + 0.0j
        for p in w.primes:
            avg += (1.0 / p) * cmath.exp(
                2j * cmath.pi * xi * int(counts[n + p - 1]) / fam_size)
        avg /= w.mass
        total += abs(avg - inner) ** 2 / n
        mass += 1.0 / n
    want = total / mass

    got = reduced_sum_terms(n_limit, w, [xi])[xi]
    assert got == pytest.approx(want, abs=1e-12)


def test_reduced_terms_gather_and_convolution_branches_agree():
    # 16 primes is the gather limit; [2, 59] holds 17, forcing convolution.
    small = prime_window(overrides={"lower": 2, "upper": 53})
    assert small.primes.size == 16
    big = prime_window(overrides={"lower": 2, "upper": 59})
    assert big.primes.size == 17
    t_small = reduced_sum_terms(2000, small, [1, 2, 3])
    t_big = reduced_sum_terms(2000, big, [1, 2, 3])
    # Same machinery, different windows; both must be finite and positive.
    assert all(v > 0 for v in t_small.values())
    assert all(v > 0 for v in t_big.values())
    # Direct agreement check: run the big window against a python loop at xi=1.
    counts = shared_counts(2000 + int(big.max_prime) + 1)
    fam_size = frequency_family(2000).size
    inner_num = sum(cmath.exp(2j * cmath.pi * int(counts[m - 1]) / fam_size) / m
                    for m in range(1, 2001))
    inner = inner_num / sum(1.0 / m for m in range(1, 2001))
    total = mass = 0.0
    for n in range(1, 2001):
        avg = sum(cmath.exp(2j * cmath.pi * int(counts[n + p - 1]) / fam_size) / p
                  for p in big.primes) / big.mass
        total += abs(avg - inner) ** 2 / n
        mass += 1.0 / n
    assert t_big[1] == pytest.approx(total / mass, abs=1e-12)


def _gather_terms(n_limit, window, xi_list, counts):
    # Independent numpy route: per-prime gathers of e(xi*count/|I|), one
    # length-N complex array per frequency.
    size = frequency_family(n_limit).size
    inv_n = 1.0 / np.arange(1, n_limit + 1, dtype=np.float64)
    weights = window.weights / window.mass
    terms = {}
    for xi in xi_list:
        table = np.exp(2j * np.pi * xi * np.arange(NBINS) / size)
        values = table[counts[: n_limit + window.max_prime]]
        inner = sum(w * values[p : p + n_limit] for p, w in zip(window.primes, weights))
        inner -= (values[:n_limit] @ inv_n) / inv_n.sum()
        terms[xi] = float((np.abs(inner) ** 2) @ inv_n / inv_n.sum())
    return terms


def _scattered_classes(n_limit, window):
    # the classes _class_covariance scatters in each sweep chunk, by chunk
    # index: chunk share * |P| below the rule's constant, the chunk's most
    # common class (1 minus the others) excepted
    size = frequency_family(n_limit).size
    cls = shared_counts(n_limit + 1) % size
    scattered = []
    for start in range(0, n_limit, profiles.CHUNK):
        chunk = cls[start : start + profiles.CHUNK]
        share = np.bincount(chunk, minlength=size) / chunk.size
        rare = share * window.primes.size < reduction._SCATTER_SHARE
        rare[np.argmax(share)] = False
        scattered.append(np.flatnonzero(rare))
    return scattered


def _block_edges(n_limit, window):
    # first rows of the covariance blocks: each sweep chunk starts a block
    rows = reduction._fft_len(window.max_prime) - window.max_prime
    return [c + b for c in range(0, n_limit, profiles.CHUNK)
            for b in range(0, min(profiles.CHUNK, n_limit - c), rows)]


@pytest.mark.parametrize("window", [
    "formula",
    {"lower": 2, "upper": 100},          # 25 primes
    {"lower": 39000, "upper": 40000},    # max prime past half a block: longer FFT
    {"lower": 2, "upper": 2.5},          # one prime: every class scattered
    {"lower": 2, "upper": 2000},         # 303 primes, blocks of 2097 rows
    {"lower": 2, "upper": 40},           # 12 primes: a block's scatter takes two bincounts
])
def test_reduced_terms_match_gather_oracle_across_blocks(window):
    n_limit = 200_000
    assert n_limit > 2 * reduction._BLOCK     # at least three row blocks
    w = prime_window(n_limit) if window == "formula" else prime_window(overrides=window)
    scattered = _scattered_classes(n_limit, w)
    chunk = profiles.CHUNK
    if w.primes.size == 1:
        assert all(s.size == frequency_family(n_limit).size - 1 for s in scattered)
    if w.primes.size == 12:
        # scattered entries per FFT point, |P| per occurrence, past one bincount's bound
        cls = shared_counts(n_limit + 1) % frequency_family(n_limit).size
        assert any(np.isin(cls[i * chunk : (i + 1) * chunk], s).mean() * w.primes.size
                   > reduction._SCATTER_ENTRIES for i, s in enumerate(scattered))
    if window == {"lower": 2, "upper": 2000}:
        # a scattered class within the largest prime of a block edge, on both
        # sides, each side scattered by the chunk that holds it
        cls = shared_counts(n_limit + w.max_prime + 1) % frequency_family(n_limit).size
        top = w.max_prime
        assert any(np.isin(cls[e - top : e], scattered[(e - 1) // chunk]).any()
                   and np.isin(cls[e : e + top], scattered[e // chunk]).any()
                   for e in _block_edges(n_limit, w)[1:])
    xi_list = [5, 0, -6, 1, -2]
    assert set(xi_list) < set(frequency_family(n_limit).members)
    got = reduced_sum_terms(n_limit, w, xi_list)
    assert list(got) == xi_list
    assert got[0] == 0.0
    want = _gather_terms(n_limit, w, xi_list, shared_counts(n_limit + w.max_prime + 1))
    for xi in xi_list:
        if xi:
            assert got[xi] == pytest.approx(want[xi], rel=1e-12, abs=0)


def test_reduced_sum_over_the_family_is_the_class_trace():
    # Parseval: over the whole family the terms add up to |I| * tr(M) / H,
    # M the 1/n-weighted covariance of the window-averaged class histogram.
    n_limit = 2000
    w = prime_window(overrides={"lower": 2, "upper": 60})
    fam = frequency_family(n_limit)
    cls = shared_counts(n_limit + w.max_prime + 1).astype(np.int64) % fam.size
    inv_n = 1.0 / np.arange(1, n_limit + 1, dtype=np.float64)
    pi = np.bincount(cls[:n_limit], weights=inv_n, minlength=fam.size) / inv_n.sum()
    hist = np.zeros((n_limit, fam.size))
    for p, weight in zip(w.primes, w.weights / w.mass):
        hist[np.arange(n_limit), cls[p : p + n_limit]] += weight
    trace = float(((hist - pi) ** 2).sum(axis=1) @ inv_n) / inv_n.sum()
    total = sum(reduced_sum_terms(n_limit, w, fam.members).values())
    assert total == pytest.approx(fam.size * trace, rel=1e-12)


def test_reduced_terms_do_not_depend_on_the_cache():
    # the scattered classes come from (N, window) alone: a cold cache, a
    # warm one and a wider block give the same terms, bit for bit
    n_limit = 50_000
    w = prime_window(n_limit)
    members = frequency_family(n_limit).members
    assert any(s.size for s in _scattered_classes(n_limit, w))
    profiles.invalidate_cache()
    cold = reduced_sum_terms(n_limit, w, members)
    warm = reduced_sum_terms(n_limit, w, members)
    profiles.invalidate_cache()
    shared_counts(4 * n_limit)
    profiles.two_point_profiles(n_limit, [0, 1])
    wide = reduced_sum_terms(n_limit, w, members)
    profiles.invalidate_cache()
    again = reduced_sum_terms(n_limit, w, members)
    assert cold == warm == wide == again


@pytest.mark.parametrize("upper", [10**5, 10**6])
def test_window_sieve_cost_bounds_its_traced_peak(upper):
    tracemalloc.start()
    try:
        prime_window(overrides={"lower": 2, "upper": upper})
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= reduction.window_bytes(upper)["sieve"]


@pytest.mark.parametrize("window", [
    {"lower": 2, "upper": 2.5},
    {"lower": 2, "upper": 2000},
    {"lower": 39000, "upper": 40000},
])
def test_covariance_cost_bounds_its_traced_peak(window):
    n_limit = 200_000
    w = prime_window(overrides=window)
    size = frequency_family(n_limit).size
    shared_counts(n_limit + w.max_prime + 1)       # block and profile outside the trace
    profiles.two_point_profile(n_limit, 0)
    tracemalloc.start()
    try:
        reduced_sum_terms(n_limit, w, [1])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= reduction.window_bytes(window["upper"], size=size)["covariance"]


def test_grid_cost_bounds_its_traced_peak():
    w = prime_window(overrides={"lower": 2, "upper": 1000})
    resolution = 10**6
    tracemalloc.start()
    try:
        major_arc_measure(w, 0.5, resolution)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= reduction.window_bytes(1000, resolution=resolution)["grid"]


def test_window_holds_one_segment_of_primes():
    # the window keeps its primes from each segment, never the 5.76 million
    # primes below its upper edge
    tracemalloc.start()
    try:
        window = prime_window(overrides={"lower": 9.9e7, "upper": 1e8})
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 17 * sieve.PRIME_SEGMENT   # the costed bytes of one segment
    primes = sieve.enumerate_primes(10**8)
    np.testing.assert_array_equal(window.primes, primes[primes >= 9.9e7])
    assert window.primes.size == 54332


def test_window_sieves_from_its_lower_edge(monkeypatch):
    # [9.9e7, 1e8] lies in the last 2 of the 96 segments up to 10^8 (the
    # base primes up to 10^4 are drawn by calls of their own)
    drawn = []
    segments = sieve.prime_segments

    def counted(limit, lo=0):
        for primes in segments(limit, lo):
            drawn.append(limit)
            yield primes
    monkeypatch.setattr(reduction.sieve, "prime_segments", counted)
    assert prime_window(overrides={"lower": 9.9e7, "upper": 1e8}).primes.size == 54332
    assert drawn.count(10**8) == 2


def test_window_edges_on_segment_edges_keep_their_primes(monkeypatch):
    # segments of 97 odd numbers end at 2 * 97 j: edges on and either side
    monkeypatch.setattr(sieve, "PRIME_SEGMENT", 97)
    primes = sieve.enumerate_primes(2000)
    edges = [0.5, 2, 3, *(2 * 97 * j + d for j in (1, 3, 5) for d in (-1, 0, 1, 0.5))]
    for lower in edges:
        for upper in (2 * 97 * 7 - 1, 2 * 97 * 7, 2 * 97 * 7 + 1.5):
            w = prime_window(overrides={"lower": lower, "upper": upper})
            want = primes[(primes >= lower) & (primes <= upper)]
            np.testing.assert_array_equal(w.primes, want)


def test_window_sieve_past_the_limit_is_refused_before_sieving(monkeypatch):
    def unreachable(limit):
        raise AssertionError(f"primes sieved up to {limit}")
    monkeypatch.setattr(reduction.sieve, "prime_segments", unreachable)
    with pytest.raises(CapacityError):
        prime_window(overrides={"lower": 2, "upper": 1e10})


def test_reduced_terms_peak_memory_at_1e6():
    n_limit = 10**6
    w = prime_window(n_limit)
    members = frequency_family(n_limit).members
    profiles.invalidate_cache()
    tracemalloc.start()
    try:
        reduced_sum_terms(n_limit, w, members)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100 * 2**20


def test_reduced_terms_sieve_the_block_once(monkeypatch):
    # the covariance reaches past N: its block is sieved before the profile's
    profiles.invalidate_cache()
    sieved = []
    factor_counts = reduction.sieve.factor_counts
    monkeypatch.setattr(reduction.sieve, "factor_counts",
                        lambda lo, hi, *args: sieved.append(hi) or factor_counts(lo, hi, *args))
    w = prime_window(10**5)
    reduced_sum_terms(10**5, w, [1])
    assert sieved == [10**5 + w.max_prime + 1]


def test_reduced_terms_stream_one_pass_below_the_block(monkeypatch):
    # a cold cache and N past one sieve segment: one pass, its counts
    # streamed a segment at a time, nothing held after it, and a peak below
    # the N bytes of the counts block a held pass would read
    n_limit = 10**7
    assert n_limit > sieve.SEGMENT
    w = prime_window(n_limit)
    passes = []
    chunks = profiles.chunks
    monkeypatch.setattr(profiles, "chunks", lambda *args: passes.append(args) or chunks(*args))
    profiles.invalidate_cache()
    tracemalloc.start()
    try:
        reduced_sum_terms(n_limit, w, [1])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(passes) == 1
    assert profiles._cached_block is None
    assert peak < n_limit


def test_reduced_sum_rejects_foreign_frequencies():
    w = prime_window(overrides={"lower": 2, "upper": 10})
    fam = frequency_family(10**3)
    outside = max(fam.members) + 1
    with pytest.raises(ContractError):
        reduced_sum_terms(10**3, w, [outside])


# --- Taylor truncation -----------------------------------------------------

def test_taylor_truncation_examples():
    out = taylor_truncation(0.0, 5)
    assert out["approx"] == 1.0 + 0.0j
    assert out["bound"] == 0.0
    out = taylor_truncation(1.0, 10)
    assert out["bound"] == pytest.approx((2 * math.pi) ** 11 / math.factorial(11),
                                         rel=1e-12)
    assert abs(cmath.exp(2j * cmath.pi * 1.0) - out["approx"]) <= out["bound"]


def test_taylor_truncation_converges_in_order():
    x = 0.3
    exact = cmath.exp(2j * cmath.pi * x)
    errs = [abs(exact - taylor_truncation(x, k)["approx"]) for k in (2, 6, 12, 20)]
    assert errs[-1] < 1e-12
    assert all(errs[i + 1] < errs[i] for i in range(len(errs) - 1))


def test_taylor_truncation_bound_holds_on_grid():
    # float64 check at moderate orders; the acceptance gate reruns this in
    # high precision where rounding noise cannot mask the true tail.
    for x in np.linspace(-1.0, 1.0, 41):
        for order in (1, 3, 8):
            out = taylor_truncation(float(x), order)
            err = abs(cmath.exp(2j * cmath.pi * x) - out["approx"])
            assert err <= out["bound"] + 1e-12


def test_taylor_truncation_large_order_and_validation():
    with pytest.raises(ContractError):
        taylor_truncation(1.0, -1)
    with pytest.raises(ContractError):
        taylor_truncation(1.0, 10**4 + 1)
    out = taylor_truncation(50.0, 2)
    assert out["bound"] > 1.0          # useless but well defined
    assert math.isfinite(out["bound"])


# --- circle-method pieces --------------------------------------------------

def test_prime_exponential_sum_single_prime_is_pure_phase():
    w = prime_window(overrides={"lower": 2, "upper": 2.5})
    got = prime_exponential_sum(w, 0.2)
    want = cmath.exp(2j * cmath.pi * 2 * 0.2)
    assert abs(got - want) < 1e-15


def test_prime_exponential_sum_alpha_zero_and_conjugacy():
    w = prime_window(overrides={"lower": 2, "upper": 30})
    assert prime_exponential_sum(w, 0.0) == pytest.approx(1.0, abs=1e-15)
    plus = prime_exponential_sum(w, 0.37)
    minus = prime_exponential_sum(w, -0.37)
    assert abs(plus - minus.conjugate()) < 1e-14
    assert abs(plus) <= 1.0 + 1e-12


def _loop_abs_sums(window, alphas):
    # Oracle: one pass over the alpha grid per window prime.
    weights = window.weights / window.mass
    acc = np.zeros(alphas.size, dtype=np.complex128)
    for p, w in zip(window.primes.astype(np.float64), weights):
        acc += w * np.exp(2j * np.pi * p * alphas)
    return np.abs(acc)


@pytest.mark.parametrize("edges,resolution", [
    ((2, 3), 30),
    ((2, 2000), None),
    ((500, 1000), None),
    ((2, 30), 17),          # primes past R fold onto p mod R
])
def test_abs_sum_grid_matches_loop_oracle(edges, resolution):
    w = prime_window(overrides={"lower": edges[0], "upper": edges[1]})
    res = resolution or 10 * w.max_prime
    got = reduction._abs_sum_grid(w, res)
    want = _loop_abs_sums(w, np.arange(res, dtype=np.float64) / res)
    assert got.shape == (res,)
    assert np.max(np.abs(got - want)) <= 1e-12


@pytest.mark.parametrize("edges", [(2, 2000), (500, 1000)])
def test_major_arc_measure_matches_loop_oracle(monkeypatch, edges):
    w = prime_window(overrides={"lower": edges[0], "upper": edges[1]})
    res = 10 * w.max_prime
    eps_grid = (0.2, 0.5, 0.8)
    fast = [major_arc_measure(w, eps, res) for eps in eps_grid]
    monkeypatch.setattr(reduction, "_abs_sum_grid", lambda window, r: _loop_abs_sums(
        window, np.arange(r, dtype=np.float64) / r))
    slow = [major_arc_measure(w, eps, res) for eps in eps_grid]
    np.testing.assert_allclose(fast, slow, rtol=0, atol=1e-12)


def test_alpha_sweep_csv_rows_match_loop_oracle(tmp_path):
    w = prime_window(overrides={"lower": 2, "upper": 30})
    path = tmp_path / "alpha.csv"
    with open(path, "w", newline="") as fh:
        write_alpha_sweep_csv(fh, w, 290)
    rows = np.loadtxt(path, delimiter=",", skiprows=1)
    np.testing.assert_array_equal(rows[:, 0], np.arange(290) / 290)
    np.testing.assert_allclose(rows[:, 1], _loop_abs_sums(w, rows[:, 0]), rtol=0, atol=1e-12)
    with open(tmp_path / "empty.csv", "w", newline="") as fh, pytest.raises(ContractError):
        write_alpha_sweep_csv(fh, w, 0)


def test_major_arc_measure_limits():
    w = prime_window(overrides={"lower": 2, "upper": 3})
    # threshold below the minimum modulus: the whole circle qualifies
    assert major_arc_measure(w, 1e-6, 100) == 1.0
    # threshold just under the peak at alpha = 0: only slivers survive
    tight = major_arc_measure(w, 0.999, 100)
    assert 0.0 < tight < 0.05
    assert tight == pytest.approx(0.02906041017733521, abs=1e-9)


def test_major_arc_measure_moderate_window_frozen():
    w = prime_window(overrides={"lower": 500, "upper": 1000})
    res = 10 * int(w.max_prime)
    got = major_arc_measure(w, 0.5, res)
    assert got == pytest.approx(0.005660882878604754, abs=1e-9)


def test_major_arc_measure_monotone_in_epsilon():
    w = prime_window(overrides={"lower": 2, "upper": 30})
    res = 10 * int(w.max_prime)
    eps_grid = [0.1, 0.3, 0.5, 0.7, 0.9]
    vals = [major_arc_measure(w, e, res) for e in eps_grid]
    assert all(vals[i + 1] <= vals[i] + 1e-12 for i in range(len(vals) - 1))


def test_major_arc_measure_validation():
    w = prime_window(overrides={"lower": 2, "upper": 30})
    with pytest.raises(ContractError):
        major_arc_measure(w, 0.0, 1000)
    with pytest.raises(ContractError):
        major_arc_measure(w, 0.5, 10)      # grid too coarse for the window


# --- CSV writers -----------------------------------------------------------

def test_xi_sweep_csv(tmp_path):
    path = tmp_path / "sweep.csv"
    with open(path, "w", newline="") as fh:
        write_xi_sweep_csv(fh, {2: 0.5, -1: 0.25, 0: 0.0})
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "xi,term"
    assert lines[1].startswith("-1,")
    assert lines[2].startswith("0,")
    assert lines[3].startswith("2,")


def test_alpha_sweep_csv(tmp_path):
    w = prime_window(overrides={"lower": 2, "upper": 3})
    path = tmp_path / "alpha.csv"
    with open(path, "w", newline="") as fh:
        write_alpha_sweep_csv(fh, w, 3)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "alpha,abs_sum"
    assert lines[1].split(",")[1] == "1"          # alpha = 0 gives |sum| = 1
    assert len(lines) == 4
