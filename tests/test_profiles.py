"""Two-point profile construction against direct per-n loops."""

import ast
import json
import math
import os
import pathlib
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from omegalab import correlation, pretentious, profiles, reduction, sieve, stats
from omegalab.errors import ContractError
from omegalab.profiles import (CESARO, LOGARITHMIC, TwoPointProfile, shared_counts,
                               two_point_profile, two_point_profiles)
from omegalab.sieve import (BigOmega, SmallOmega, enumerate_primes, factor_counts,
                            require_primes)
from omegalab.stats import density_table


def _harmonic_mass(n_limit: int) -> float:
    """Sum of 1/n over n <= N, grouped as every 1/n pass groups it: the fsum
    of the profiles.CHUNK sums of 1/n."""
    return math.fsum(float(inv_n.sum()) for _, _, inv_n in profiles.chunks(n_limit))


def _direct_profile(n_limit: int, shift: int) -> TwoPointProfile:
    # Same statistics assembled one n at a time, no bincount tricks.
    counts = factor_counts(1, n_limit + shift + 1).counts
    hist = np.zeros(profiles.NBINS, dtype=np.int64)
    log_hist = np.zeros(profiles.NBINS, dtype=np.float64)
    joint = np.zeros((profiles.NBINS, profiles.NBINS), dtype=np.int64)
    joint_log = np.zeros((profiles.NBINS, profiles.NBINS), dtype=np.float64)
    mass = 0.0
    for n in range(1, n_limit + 1):
        c0 = int(counts[n - 1])
        c1 = int(counts[n - 1 + shift])
        hist[c0] += 1
        log_hist[c0] += 1.0 / n
        joint[c0, c1] += 1
        joint_log[c0, c1] += 1.0 / n
        mass += 1.0 / n
    return TwoPointProfile(n_limit, shift, hist, log_hist, joint, joint_log, mass)


@pytest.mark.parametrize("n_limit,shift",
                         [(50, 1), (500, 1), (500, 7), (1000, 2), (1000, 0)])
def test_profile_matches_direct_loop(n_limit, shift):
    got = two_point_profile(n_limit, shift)
    want = _direct_profile(n_limit, shift)
    np.testing.assert_array_equal(got.hist, want.hist)
    np.testing.assert_array_equal(got.joint, want.joint)
    np.testing.assert_allclose(got.log_hist, want.log_hist, rtol=0, atol=1e-12)
    np.testing.assert_allclose(got.joint_log, want.joint_log, rtol=0, atol=1e-12)
    assert got.harmonic_mass == pytest.approx(want.harmonic_mass, abs=1e-12)


@pytest.mark.parametrize("shift", [0, 1, 3])
def test_profile_means_match_direct_sums(shift):
    n_limit = 700
    counts = factor_counts(1, n_limit + shift + 1).counts
    rng = np.random.default_rng(shift)
    shape = (2, profiles.NBINS)
    ta, tb = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    prof = two_point_profile(n_limit, shift)
    n = np.arange(1, n_limit + 1)
    a, b = ta[counts[:n_limit]], tb[counts[shift : n_limit + shift]]
    for weighting, w in ((CESARO, np.ones(n_limit)), (LOGARITHMIC, 1.0 / n)):
        assert prof.mean(ta, weighting) == pytest.approx(np.sum(a * w) / w.sum(), abs=1e-12)
        assert prof.pair_mean(ta, tb, weighting) == pytest.approx(
            np.sum(a * b * w) / w.sum(), abs=1e-12)
    with pytest.raises(ContractError):
        prof.mean(ta, "uniform")
    with pytest.raises(ContractError):
        prof.pair_mean(ta, tb, "uniform")


def test_profile_marginals_are_consistent():
    prof = two_point_profile(2000, 3)
    # Joint row sums reproduce the marginal histogram on the first factor.
    np.testing.assert_array_equal(prof.joint.sum(axis=1), prof.hist)
    np.testing.assert_allclose(prof.joint_log.sum(axis=1), prof.log_hist,
                               rtol=0, atol=1e-12)
    assert int(prof.hist.sum()) == 2000
    assert prof.joint_log.sum() == pytest.approx(prof.harmonic_mass, abs=1e-12)


def test_shared_counts_are_reused_and_grow():
    profiles.invalidate_cache()
    small = shared_counts(100)
    assert small.shape == (99,)
    big = shared_counts(1000)
    assert big.shape == (999,)
    np.testing.assert_array_equal(big[:99], small)
    # A smaller request after a big one slices the cached block.
    again = shared_counts(50)
    np.testing.assert_array_equal(again, big[:49])


def test_profile_cache_returns_same_object():
    profiles.invalidate_cache()
    first = two_point_profile(400, 1)
    second = two_point_profile(400, 1)
    assert first is second


def test_adopt_block_rejects_wrong_mode_or_origin():
    distinct = factor_counts(1, 100, mode=SmallOmega)
    with pytest.raises(ContractError):
        profiles.adopt_block(distinct)
    shifted = factor_counts(5, 100, mode=BigOmega)
    with pytest.raises(ContractError):
        profiles.adopt_block(shifted)


def test_profile_validation():
    with pytest.raises(ContractError):
        two_point_profile(2, 1)
    with pytest.raises(ContractError):
        two_point_profile(100, -1)


def _assert_same_profile(got: TwoPointProfile, want: TwoPointProfile):
    assert (got.n_limit, got.shift) == (want.n_limit, want.shift)
    np.testing.assert_array_equal(got.hist, want.hist)
    np.testing.assert_array_equal(got.joint, want.joint)
    np.testing.assert_allclose(got.log_hist, want.log_hist, rtol=0, atol=1e-12)
    np.testing.assert_allclose(got.joint_log, want.joint_log, rtol=0, atol=1e-12)
    assert got.harmonic_mass == pytest.approx(want.harmonic_mass, abs=1e-12)


def _assert_identical(got: TwoPointProfile, want: TwoPointProfile):
    assert (got.n_limit, got.shift) == (want.n_limit, want.shift)
    for name in ("hist", "log_hist", "joint", "joint_log"):
        np.testing.assert_array_equal(getattr(got, name), getattr(want, name))
    assert got.harmonic_mass == want.harmonic_mass


def _kernel_profiles(n_limit: int, shifts) -> list[TwoPointProfile]:
    # one level_histograms pass over the shared block, outside the profile
    # cache; shift 0 is the row sums of the (0, 1) histogram, with diagonal joints
    hists, mass = profiles.level_histograms(n_limit, [(0, h or 1) for h in shifts],
                                            profiles.NBINS, (CESARO, LOGARITHMIC))
    out = []
    for h, (joint, joint_log) in zip(shifts, hists):
        joint = joint.reshape(profiles.NBINS, profiles.NBINS)
        joint_log = joint_log.reshape(profiles.NBINS, profiles.NBINS)
        hist, log_hist = joint.sum(axis=1), joint_log.sum(axis=1)
        if h == 0:
            joint, joint_log = np.diag(hist), np.diag(log_hist)
        out.append(TwoPointProfile(n_limit, h, hist, log_hist, joint, joint_log, mass))
    return out


def test_multi_shift_pass_matches_single_shift_passes(monkeypatch):
    monkeypatch.setattr(profiles, "CHUNK", 997)
    profiles.invalidate_cache()
    n_limit, shifts = 5000, [0, 1, 7, 13]
    singles = [_kernel_profiles(n_limit, [h])[0] for h in shifts]
    for together in (_kernel_profiles(n_limit, shifts), two_point_profiles(n_limit, shifts)):
        for got, want in zip(together, singles):
            _assert_identical(got, want)
    # the shared pass stored each profile under its own key
    assert list(profiles._profile_cache) == [(n_limit, h) for h in shifts]
    assert all(two_point_profile(n_limit, h) is p for h, p in zip(shifts, together))
    _assert_same_profile(singles[2], _direct_profile(n_limit, 7))


def _count_passes(monkeypatch) -> dict:
    # passes through profiles.chunks and sieves through sieve.range_filler,
    # one range set-up a sieve
    seen = {"passes": 0, "sieves": 0}
    chunks, range_filler = profiles.chunks, sieve.range_filler

    def counted_chunks(*args, **kwargs):
        seen["passes"] += 1
        return chunks(*args, **kwargs)

    def counted_filler(*args):
        seen["sieves"] += 1
        return range_filler(*args)
    monkeypatch.setattr(profiles, "chunks", counted_chunks)
    monkeypatch.setattr(sieve, "range_filler", counted_filler)
    return seen


@pytest.mark.parametrize("order", ["zero first", "one first", "together", "density table",
                                   "after invalidate_cache"])
def test_marginal_profile_is_the_shift_one_row_sums(monkeypatch, order):
    # (N, 0) is defined as the (N, 1) row sums: the same bits whatever the order
    n_limit = 3000
    profiles.invalidate_cache()
    seen = _count_passes(monkeypatch)
    if order == "zero first":
        zero, one = two_point_profile(n_limit, 0), two_point_profile(n_limit, 1)
    elif order == "one first":
        one, zero = two_point_profile(n_limit, 1), two_point_profile(n_limit, 0)
    elif order == "together":
        zero, one = two_point_profiles(n_limit, [0, 1])
    elif order == "density table":
        table = density_table(n_limit)
        zero, one = two_point_profile(n_limit, 0), two_point_profile(n_limit, 1)
        np.testing.assert_array_equal(table.counts, one.hist)
        np.testing.assert_array_equal(table.pi_bar_log, one.log_hist / one.harmonic_mass)
        assert table.harmonic_mass == one.harmonic_mass
    else:
        zero = two_point_profile(n_limit, 0)
        profiles.invalidate_cache()
        one = two_point_profile(n_limit, 1)
    profiles.invalidate_cache()
    assert seen["passes"] == (2 if order == "after invalidate_cache" else 1)
    assert (zero.n_limit, zero.shift, one.shift) == (n_limit, 0, 1)
    for name in ("hist", "log_hist"):
        np.testing.assert_array_equal(getattr(zero, name), getattr(one, name))
    assert zero.harmonic_mass == one.harmonic_mass
    np.testing.assert_array_equal(zero.joint, np.diag(zero.hist))
    np.testing.assert_array_equal(zero.joint_log, np.diag(zero.log_hist))


def test_level_histograms_match_direct_bincounts(monkeypatch):
    # tuples that share leading offsets and tuples that do not, over chunk edges
    monkeypatch.setattr(profiles, "CHUNK", 997)
    n_limit, base = 5000, 13          # count(n) <= 12 for n < 2^13
    offsets = [(0, 2), (3,), (0, 5), (1, 0, 4), (1, 0, 2)]
    counts = factor_counts(1, n_limit + 6).counts.astype(np.int64)
    inv_n = 1.0 / np.arange(1, n_limit + 1, dtype=np.float64)
    hists, mass = profiles.level_histograms(n_limit, offsets, base, (LOGARITHMIC, CESARO))
    for offs, (log_hist, hist) in zip(offsets, hists):
        index = sum(counts[o : o + n_limit] * base ** (len(offs) - 1 - i)
                    for i, o in enumerate(offs))
        bins = base ** len(offs)
        np.testing.assert_array_equal(hist, np.bincount(index, minlength=bins))
        np.testing.assert_allclose(log_hist, np.bincount(index, weights=inv_n, minlength=bins),
                                   rtol=0, atol=1e-12)
    assert mass == _harmonic_mass(n_limit)
    assert profiles.level_histograms(n_limit, offsets, base, (CESARO,))[1] is None


def test_histograms_with_more_bins_than_a_chunk_take_whole_chunks(monkeypatch):
    # 17^4 = 83 521 bins take chunks of 84 CHUNKs of 997, so 10^5 entries
    # take two bincounts, the second one short, added in order
    n_limit, base, offsets = 10**5, 17, [(0, 1, 2, 3)]
    counts = factor_counts(1, n_limit + 4).counts.astype(np.int64)
    index = sum(counts[o : o + n_limit] * base ** (3 - o) for o in offsets[0])
    inv_n = 1.0 / np.arange(1, n_limit + 1, dtype=np.float64)
    for chunk in (997, 1 << 20):
        monkeypatch.setattr(profiles, "CHUNK", chunk)
        ((hist, log_hist),), mass = profiles.level_histograms(n_limit, offsets, base,
                                                              (CESARO, LOGARITHMIC))
        np.testing.assert_array_equal(hist, np.bincount(index, minlength=base ** 4))
        group = -(-base ** 4 // chunk) * chunk
        expected = np.zeros(base ** 4)
        for start in range(0, n_limit, group):
            expected += np.bincount(index[start : start + group],
                                    weights=inv_n[start : start + group], minlength=base ** 4)
        np.testing.assert_array_equal(log_hist, expected)
        assert mass == _harmonic_mass(n_limit)


@pytest.mark.parametrize("chunk", [997, 1 << 16])
@pytest.mark.parametrize("base,n_limit", [(16, 2**16 - 4), (17, 10**5)])
def test_level_histograms_at_the_index_type_boundary(monkeypatch, chunk, base, n_limit):
    # 16^4 = 2^16 bins is the widest histogram indexed in uint16, 17^4 the
    # narrowest in intp; count(n) < base for every n + 3 < 2^16 (or 2^17)
    monkeypatch.setattr(profiles, "CHUNK", chunk)
    offsets = [(0, 1, 2, 3)]
    counts = factor_counts(1, n_limit + 4).counts.astype(np.int64)
    assert counts.max() < base
    index = sum(counts[o : o + n_limit] * base ** (3 - o) for o in offsets[0])
    # the range holds n = 2^15 (or 2^14) leading the index: top bins under
    # uint16, and bins above 2^16 that a uint16 row would wrap
    assert index.max() >= (15 * 16**3 if base == 16 else 2**16)
    inv_n = 1.0 / np.arange(1, n_limit + 1, dtype=np.float64)
    ((hist, log_hist),), mass = profiles.level_histograms(n_limit, offsets, base,
                                                          (CESARO, LOGARITHMIC))
    np.testing.assert_array_equal(hist, np.bincount(index, minlength=base ** 4))
    np.testing.assert_allclose(log_hist, np.bincount(index, weights=inv_n, minlength=base ** 4),
                               rtol=1e-14, atol=0)
    assert mass == _harmonic_mass(n_limit)


@pytest.mark.parametrize("chunk", [997, 1 << 16, 1 << 20])
def test_harmonic_mass_is_within_an_ulp_whatever_the_chunk(monkeypatch, chunk):
    # chunk sums of 1/n added by fsum: the profile mass is _harmonic_mass(N)
    # bit for bit and at most 1 ulp from the fsum of all N terms
    monkeypatch.setattr(profiles, "CHUNK", chunk)
    n_limit = 10**6
    profiles.invalidate_cache()
    try:
        mass = two_point_profile(n_limit, 0).harmonic_mass
    finally:
        profiles.invalidate_cache()   # no profile of a patched CHUNK outlives the test
    assert mass == _harmonic_mass(n_limit)
    exact = math.fsum(1.0 / np.arange(1, n_limit + 1, dtype=np.float64))
    assert abs(mass - exact) <= math.ulp(exact)


def test_harmonic_mass_frozen():
    assert _harmonic_mass(1) == 1.0
    assert math.isclose(two_point_profile(10, 0).harmonic_mass, 2.9289682539682538,
                        abs_tol=1e-15)
    # grows like log n
    assert abs(two_point_profile(10**6, 0).harmonic_mass
               - math.log(10**6) - 0.5772156649) < 1e-3


def _names(tree) -> set:
    """Every identifier a module names in code."""
    fields = {ast.Name: "id", ast.Attribute: "attr", ast.alias: "name"}
    return {getattr(node, fields[type(node)]) for node in ast.walk(tree)
            if type(node) in fields}


def test_only_profiles_reads_the_shared_block():
    # every other module reads counts through sweep, level_histograms or a
    # profile, and only sieve and profiles sieve counts: no command holds N
    # bytes of them (the package's re-export of factor_counts is no call)
    sieving = {"factor_counts", "range_filler"}
    for path in sorted(pathlib.Path(profiles.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        if path.stem not in ("sieve", "profiles"):
            called = set().union(*(_names(node.func) for node in ast.walk(tree)
                                   if isinstance(node, ast.Call)))
            assert not sieving & called, path.name
        if path.stem != "profiles":
            assert not {"shared_counts", "_cached_block", "chunks"} & _names(tree), path.name


def test_profile_pass_memory_is_bounded():
    # the pass holds one chunk's 1/n, level and pair arrays at a time, a few
    # MiB whatever N is (2.1 MiB measured), never arrays as long as the block
    profiles.invalidate_cache()
    shared_counts(10**7 + 2)
    tracemalloc.start()
    try:
        two_point_profile(10**7, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


def test_library_sequence_makes_three_passes_and_one_sieve(monkeypatch):
    # the stats_1e8 call order on one adopted block: the (N, 1) pass serves
    # the densities, both profiles and theorems A and C; then the k-point
    # pass and the prime-shift pass
    n = 2 * 10**4
    profiles.invalidate_cache()
    seen = _count_passes(monkeypatch)
    block = sieve.factor_counts(1, n + 16)
    profiles.adopt_block(block)
    par = correlation.parity_function()
    density_table(n, block)
    stats.sathe_selberg_ratio_check(n, 2, block)
    stats.erdos_kac_ks(n, block)
    stats.density_l1_gap(n, block)
    two_point_profile(n, 0)
    two_point_profile(n, 1)
    correlation.theorem_a_report(par, par, n)
    correlation.theorem_c_sum(par, n)
    correlation.k_point_explore([par, par, par], n)
    correlation.prime_shift_identity(par, par, n, [3, 7])
    profiles.invalidate_cache()
    assert seen == {"passes": 3, "sieves": 1}


def _sweep_statistics(n_limit, window, spec):
    """Every kind of sweep: profile, k = 3 histogram, override mean, terms."""
    profile = two_point_profile(n_limit, 1)
    k3 = profiles.level_histograms(n_limit, [(0, 1, 2)], 20, (CESARO, LOGARITHMIC))
    return (profile.joint, profile.joint_log, profile.harmonic_mass, k3,
            pretentious.mean_over_range(spec, n_limit),
            reduction.reduced_sum_terms(n_limit, window,
                                        pretentious.frequency_family(n_limit).members))


def test_streamed_and_held_sweeps_give_the_same_bits(monkeypatch, range_fills):
    # segments of 70 001 counts: five a pass, off the CHUNK grid, so chunks
    # and their reach run across segment edges
    monkeypatch.setattr(sieve, "SEGMENT", 70_001)
    n_limit = 300_000
    window = reduction.prime_window(n_limit)
    spec = pretentious.MultFunSpec(-1.0, {2: 1j, 101: 0.5, 65537: -1j})
    profiles.invalidate_cache()
    streamed = _sweep_statistics(n_limit, window, spec)
    assert profiles._cached_block is None
    segments = [size for _, size in range_fills.fills]
    assert len(segments) > 5 and max(segments) <= 70_001
    profiles.invalidate_cache()
    range_fills.setups.clear()
    range_fills.fills.clear()
    shared_counts(n_limit + window.max_prime + 1)
    held = _sweep_statistics(n_limit, window, spec)
    profiles.invalidate_cache()
    # one sieve: one set-up and one fill, of the held block
    assert len(range_fills.setups) == len(range_fills.fills) == 1
    for a, b in zip(streamed[:3], held[:3]):
        np.testing.assert_array_equal(a, b)
    (k3_streamed, mass_streamed), (k3_held, mass_held) = streamed[3], held[3]
    for a, b in zip(k3_streamed[0], k3_held[0]):
        np.testing.assert_array_equal(a, b)
    assert mass_streamed == mass_held
    assert streamed[4:] == held[4:]


def test_streamed_pass_enumerates_its_base_primes_once(monkeypatch):
    # a pass over several segments sets its range up once: the base primes
    # are enumerated for the pass, not for each segment
    monkeypatch.setattr(sieve, "SEGMENT", 70_001)
    enumerated, base_primes = [], sieve._base_primes
    monkeypatch.setattr(sieve, "_base_primes",
                        lambda hi: enumerated.append(hi) or base_primes(hi))
    profiles.invalidate_cache()
    table = density_table(350_000)
    assert enumerated == [350_002] and profiles._cached_block is None
    counts = factor_counts(1, 350_001).counts
    np.testing.assert_array_equal(table.counts, np.bincount(counts, minlength=profiles.NBINS))


def test_density_table_streams_below_the_block():
    # with no block held, the pass sieves one segment at a time: its peak
    # stays below the 10 MB block of the counts of n <= 10^7
    profiles.invalidate_cache()
    tracemalloc.start()
    try:
        density_table(10**7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert profiles._cached_block is None
    profiles.invalidate_cache()
    assert peak < 10**7


def _prime_shift_oracle(a, b, n_limit, window):
    # lhs and rhs summed over n directly, one shift at a time
    counts = factor_counts(1, n_limit + max(window) + 1).counts
    inv_n = 1.0 / np.arange(1, n_limit + 1, dtype=np.float64)
    mass = float(np.sum(inv_n))

    def pair(ta, tb, shift):
        return complex(np.sum(ta[counts[:n_limit]] * tb[counts[shift : n_limit + shift]]
                              * inv_n)) / mass
    ta, tb = a.down_shifted().table(), b.down_shifted().table()
    weights = [1.0 / p for p in window]
    rhs = sum(w * pair(ta, tb, p) for w, p in zip(weights, window)) / sum(weights)
    return pair(a.table(), b.table(), 1), rhs


def test_prime_shift_window_beyond_the_cache_limit():
    profiles.invalidate_cache()
    window = enumerate_primes(400)
    assert window.size > profiles._CACHE_LIMIT
    a, b = correlation.random_bounded_function(1), correlation.random_bounded_function(2)
    out = correlation.prime_shift_identity(a, b, 4000, window)
    lhs, rhs = _prime_shift_oracle(a, b, 4000, window.tolist())
    assert out["lhs"] == pytest.approx(lhs, abs=1e-13)
    assert out["rhs"] == pytest.approx(rhs, abs=1e-13)
    assert not profiles._profile_cache   # prime shifts write nothing to the cache


@pytest.mark.parametrize("cached", ["none", "shifts 1 and 7", "window beyond the cache"])
def test_prime_shift_identity_is_the_profile_path_bit_for_bit(cached):
    # cached joints and those of the log-only pass both give the bits of
    # two_point_profile(N, h).pair_mean under LOGARITHMIC
    n_limit = 4000
    window = enumerate_primes(400) if cached == "window beyond the cache" else [3, 7, 11]
    a, b = correlation.random_bounded_function(1), correlation.random_bounded_function(2)
    profiles.invalidate_cache()
    if cached == "shifts 1 and 7":
        two_point_profiles(n_limit, [1, 7])
    out = correlation.prime_shift_identity(a, b, n_limit, window)
    profiles.invalidate_cache()
    lhs = two_point_profile(n_limit, 1).pair_mean(a.table(), b.table(), LOGARITHMIC)
    ta, tb = a.down_shifted().table(), b.down_shifted().table()
    inner = np.array([two_point_profile(n_limit, int(p)).pair_mean(ta, tb, LOGARITHMIC)
                      for p in window])
    weights = 1.0 / np.asarray(window, dtype=np.float64)
    assert out["lhs"] == lhs
    assert out["rhs"] == complex(np.sum(inner * weights) / np.sum(weights))


def test_prime_shift_pass_makes_only_weighted_bincounts(monkeypatch):
    # with (N, 1) cached, one pass over 4 chunks bins the 1/n-weighted joint
    # of each window prime, one bincount a prime a chunk, and no plain joint
    n_limit, window = 3 * profiles.CHUNK + 5, [3, 7]
    profiles.invalidate_cache()
    shared_counts(n_limit + 8)
    two_point_profile(n_limit, 1)
    seen = _count_passes(monkeypatch)
    weighted = []
    bincount = np.bincount

    def counted_bincount(x, weights=None, minlength=0):
        weighted.append(weights is not None)
        return bincount(x, weights=weights, minlength=minlength)
    monkeypatch.setattr(np, "bincount", counted_bincount)
    correlation.prime_shift_identity(correlation.parity_function(),
                                     correlation.parity_function(), n_limit, window)
    monkeypatch.undo()
    profiles.invalidate_cache()
    assert seen == {"passes": 1, "sieves": 0}
    assert weighted == [True] * (len(window) * 4)


@pytest.mark.parametrize("multiple", [1, 9])
def test_chunks_invert_the_integers_bit_for_bit(multiple):
    n_limit = 10 * profiles.CHUNK + 4321
    size = multiple * profiles.CHUNK
    edges = [(start, min(start + size, n_limit)) for start in range(0, n_limit, size)]
    got = list(profiles.chunks(n_limit, multiple=multiple))
    assert [(start, stop) for start, stop, _ in got] == edges
    for start, stop, inv_n in got:
        np.testing.assert_array_equal(inv_n, 1.0 / np.arange(start + 1, stop + 1))
    assert list(profiles.chunks(n_limit, False, multiple)) == [(*e, None) for e in edges]


# few (N, shift) keys, so that calls in one sequence meet in the cache
_OPS = st.lists(st.tuples(st.sampled_from(["cached", "fresh", "kernel", "window",
                                           "distance", "require", "prime_shift"]),
                          st.sampled_from([3, 64, 1000, 2000]), st.integers(0, 7)),
                min_size=1, max_size=12)


def _check_prime_shift(n_limit, shift):
    window = [p for p in (2, 3, 5, 7, 11) if 10 * p <= n_limit][: shift + 1]
    par = correlation.parity_function()
    if not window:
        with pytest.raises(ContractError):
            correlation.prime_shift_identity(par, par, n_limit, window)
        return
    out = correlation.prime_shift_identity(par, par, n_limit, window)
    lhs, rhs = _prime_shift_oracle(par, par, n_limit, window)
    assert out["lhs"] == pytest.approx(lhs, abs=1e-13)
    assert out["rhs"] == pytest.approx(rhs, abs=1e-13)
    # what the multi-shift pass cached is what a single-shift pass gives
    for h in [1, *window]:
        _assert_identical(two_point_profile(n_limit, h), _kernel_profiles(n_limit, [h])[0])


def _check_prime_read(op, limit):
    # enumerate_primes at the limit is the oracle for each prime read
    want = enumerate_primes(limit)
    if op == "window":
        window = reduction.prime_window(overrides={"lower": 2, "upper": limit})
        np.testing.assert_array_equal(window.primes, want)
    elif op == "distance":
        got = math.sqrt(pretentious.distance_sq_to_twist(pretentious.liouville_spec(),
                                                         limit, 0.0))
        assert got == pytest.approx(math.sqrt(np.sum(2.0 / want)), rel=1e-14)
    else:
        require_primes(want, "primes")
        for bad in ([1], [want[-1], 4 * want[-1]]):
            with pytest.raises(ContractError):
                require_primes(np.array(bad), "primes")


@settings(max_examples=40)
@given(ops=_OPS)
@example(ops=[("prime_shift", 1000, 1), ("cached", 1000, 1), ("fresh", 1000, 1),
              ("kernel", 1000, 3), ("prime_shift", 1000, 2), ("cached", 1000, 5)])
def test_results_do_not_depend_on_call_order(ops):
    profiles.invalidate_cache()
    for op, n_limit, shift in ops:
        if op in ("window", "distance", "require"):
            # limits from 300 to 200 007, each read enumerating its own primes
            _check_prime_read(op, 100 * n_limit + shift)
            continue
        if op == "prime_shift":
            _check_prime_shift(n_limit, shift)
            continue
        if op == "fresh":
            profiles.invalidate_cache()
        if op == "kernel":
            # a kernel pass, outside the profile cache
            got = _kernel_profiles(n_limit, [shift])[0]
        else:
            got = two_point_profile(n_limit, shift)
        _assert_same_profile(got, _direct_profile(n_limit, shift))
        # cached, fresh and kernel results come from the same pass
        _assert_identical(got, two_point_profile(n_limit, shift))
    n_limit = ops[-1][1]
    block = factor_counts(1, n_limit + 2)
    with_block, shared = density_table(n_limit, block), density_table(n_limit)
    for name in ("counts", "pi_bar", "pi_bar_log", "gaussian"):
        np.testing.assert_array_equal(getattr(with_block, name), getattr(shared, name))
    assert with_block.harmonic_mass == shared.harmonic_mass


_CACHE_PROBE = """
import contextlib, io, json, math, sys
from omegalab import cli, correlation, pretentious, profiles, reduction, stats

def state():
    # every module-level value of the package, containers by their contents
    out = {}
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] != "omegalab":
            continue
        for key, value in vars(module).items():
            if isinstance(value, dict):
                value = [(k, id(v)) for k, v in value.items()]
            elif isinstance(value, (list, set)):
                value = [id(v) for v in value]
            else:
                value = id(value)
            out[name + "." + key] = value
    return out

before = state()
par = correlation.parity_function()
grid = pretentious.log_t_grid(math.log(10**4), points=21)
pretentious.halasz_audit(pretentious.liouville_spec(), 10**4, grid)
pretentious.distance_sq_to_twist(pretentious.liouville_spec(), 2 * 10**5, 0.0)
correlation.prime_shift_identity(par, par, 10**4, [3, 5])
correlation.k_point_explore([par, par], 10**4)
stats.turan_kubilius_check(100, [2, 3])
stats.density_table(10**4)
reduction.reduced_sum_terms(10**4, reduction.prime_window(10**4), [1])
with contextlib.redirect_stdout(io.StringIO()):
    cli.main(["correlate", "--n", "5000"])
profiles.invalidate_cache()
after = state()
print(json.dumps(sorted(k for k in set(before) | set(after)
                        if before.get(k) != after.get(k))))
"""


def test_invalidate_cache_leaves_no_module_level_cache():
    # A fresh process, so that no earlier test has filled a cache: after a
    # run through every module and invalidate_cache(), each module-level
    # value of the package is what it was at import.
    src = os.path.dirname(os.path.dirname(profiles.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", _CACHE_PROBE], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": path})
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == []
