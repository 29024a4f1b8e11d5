"""Prime sums: bit-identical values, one N < 2 contract, nothing kept after a call."""

import cmath
import hashlib
import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import omegalab
from omegalab import pretentious, sieve
from omegalab.errors import ContractError
from omegalab.pretentious import (MultFunSpec, dist_formula_residual, distance_sq_to_twist,
                                  frequency_family, halasz_audit, liouville_spec,
                                  log_t_grid, m0, mode_spec, prime_trig_sums)
from omegalab.reduction import prime_window
from test_pretentious import _loop_distance_sq


def _feed(digest, value):
    """Hash a value by the exact bits of its floats (float.hex)."""
    if isinstance(value, dict):
        for key in sorted(value):
            digest.update(key.encode())
            _feed(digest, value[key])
    elif isinstance(value, (list, tuple, np.ndarray)):
        for item in value:
            _feed(digest, item)
    elif isinstance(value, (complex, np.complexfloating)):
        _feed(digest, value.real)
        _feed(digest, value.imag)
    elif isinstance(value, (float, np.floating)):
        digest.update(float(value).hex().encode())
    else:
        digest.update(str(int(value)).encode())


def _prime_sum_values(n_limit):
    """Every prime sum of the package at one N, in a fixed order."""
    override = MultFunSpec(default_prime_value=-1.0, prime_values={3: 1j, 7: 0.6 - 0.8j})
    specs = [liouville_spec(), override, mode_spec(frequency_family(n_limit), 2.0)]
    grid = log_t_grid(math.log(n_limit), points=101)
    values = []
    for f in specs:
        values.append(math.sqrt(max(distance_sq_to_twist(f, n_limit, 0.0), 0.0)))
        values.append([distance_sq_to_twist(f, n_limit, t) for t in (0.0, 0.5, -3.0)])
        values.append(m0(f, n_limit, grid))
        values.append(prime_trig_sums(f, n_limit, np.abs(grid).max()).distance_sq(grid))
        sums = prime_trig_sums(f, n_limit, 7.0)
        values.append([sums.centres, sums.moments, sums.harmonic, sums.tail_bound])
        if n_limit >= 10**4:
            values.append(halasz_audit(f, n_limit, grid))
    values.append([dist_formula_residual(xi, n_limit, t)
                   for xi in (0.0, 1.5, -4.0) for t in (0.0, 2.0)])
    window = (prime_window(n_limit) if n_limit >= 10**4
              else prime_window(overrides={"lower": 10, "upper": 200}))
    values.append([window.primes, window.mass])
    return values


# sha256 of the float.hex bits of _prime_sum_values at each N.  A change of
# summation order (dividing by p in place of multiplying by 1/p, say) moves
# last bits that the tolerance checks elsewhere let through.
_PRIME_SUM_DIGESTS = {
    10**3: "9663592ebe6c1008ccd570d1e3a38d9ac789293cbba0f9024ad3e754dac82a70",
    10**5: "f251b5b1158aab95ee9d0228efee1ea973ca52d9afd1993c5d0af91ced178cdd",
    10**6: "153f64536a2735fac829e9202dfe1e710a3c0f9c2b7419dc33e9143705b9e893",
}


@pytest.mark.parametrize("n_limit", sorted(_PRIME_SUM_DIGESTS))
def test_prime_sums_bit_identical(n_limit):
    digest = hashlib.sha256()
    _feed(digest, _prime_sum_values(n_limit))
    assert digest.hexdigest() == _PRIME_SUM_DIGESTS[n_limit]


_DIGEST_PROBE = """
import hashlib, sys
from test_prime_sums import _feed, _prime_sum_values
for n_limit in map(int, sys.argv[1:]):
    digest = hashlib.sha256()
    _feed(digest, _prime_sum_values(n_limit))
    print(digest.hexdigest())
"""


def test_prime_sums_bit_identical_on_one_blas_thread():
    # the digests hold whatever the BLAS thread count: a fresh process,
    # as OpenBLAS reads its thread count when numpy is imported
    tests = os.path.dirname(os.path.abspath(__file__))
    src = os.path.dirname(os.path.dirname(omegalab.__file__))
    path = os.pathsep.join(filter(None, [src, tests, os.environ.get("PYTHONPATH")]))
    n_limits = sorted(_PRIME_SUM_DIGESTS)
    done = subprocess.run([sys.executable, "-c", _DIGEST_PROBE, *map(str, n_limits)],
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path, "OPENBLAS_NUM_THREADS": "1"})
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == [_PRIME_SUM_DIGESTS[n] for n in n_limits]


@pytest.mark.parametrize("n_limit", [1, 0])
def test_every_prime_sum_refuses_n_below_two(n_limit):
    f, grid = liouville_spec(), log_t_grid(5.0, points=11)
    calls = [lambda: distance_sq_to_twist(f, n_limit, 0.5),
             lambda: m0(f, n_limit, grid),
             lambda: prime_trig_sums(f, n_limit, 5.0)]
    for call in calls:
        with pytest.raises(ContractError):
            call()


_OUTLIVE_PROBE = """
import tracemalloc
from omegalab.pretentious import distance_sq_to_twist, liouville_spec
from omegalab.reduction import prime_window
from omegalab.sieve import require_primes

# warm-up: first-call allocations are not what is measured
distance_sq_to_twist(liouville_spec(), 10**3, 0.5)
prime_window(10**4)
require_primes([97], "primes")
tracemalloc.start()
distance_sq_to_twist(liouville_spec(), 10**7, 0.5)
prime_window(10**7)
require_primes([9999991], "primes")
print(tracemalloc.get_traced_memory()[0])
"""


def test_nothing_about_primes_outlives_a_call():
    # A fresh process, so that no earlier test's allocations are counted:
    # what the three calls leave allocated is what outlives them.
    src = os.path.dirname(os.path.dirname(omegalab.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", _OUTLIVE_PROBE], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": path})
    assert done.returncode == 0, done.stderr
    assert int(done.stdout) < 1 << 20


def _binned(f, primes, width, order):
    """The cell of each prime, the centres, moments and absolute moments
    sum |w_p scaled_p^k| of the cells of these primes alone, max |scaled|
    and sum |w_p|."""
    as_float = primes.astype(np.float64)
    logs = np.log(as_float)
    cell = np.floor((logs - math.log(2.0)) / width)
    starts = np.flatnonzero(np.diff(cell, prepend=-1.0))
    centres = math.log(2.0) + (cell[starts] + 0.5) * width
    scaled = (logs - np.repeat(centres, np.diff(starts, append=logs.size))) / (width / 2.0)
    weights = np.array([f.value_at_prime(p) for p in primes.tolist()]) * (1.0 / as_float)
    mass = float(np.abs(weights).sum())
    moments = np.empty((order, starts.size), dtype=np.complex128)
    absolute = np.empty((order, starts.size))
    for k in range(order):
        moments[k] = np.add.reduceat(weights, starts)
        absolute[k] = np.add.reduceat(np.abs(weights), starts)
        weights *= scaled
    return cell, centres, moments, absolute, float(np.abs(scaled).max()), mass


def _whole_table_sums(f, primes, t_max):
    """The binned moments over the whole table of primes at once, cut to
    the least order that the whole table's x and sum |w_p| certify."""
    width = min(pretentious._BIN_WIDTH, 1.0 / t_max)
    *_, widest, mass = _binned(f, primes, width, 1)
    x = t_max * width / 2.0 * widest
    order = 1
    while x ** order / math.factorial(order) * math.exp(x) * mass > pretentious._TAIL_TARGET:
        order += 1
    return _binned(f, primes, width, order)[:4]


def _segment_fold(f, segments, width, order):
    """Each segment's cells summed over that segment alone, and a cell's
    columns then added one by one in segment order."""
    cells, columns = [], []
    for primes in segments:
        cell, _, moments, *_ = _binned(f, primes, width, order)
        for c, column in zip(np.unique(cell), moments.T):
            if cells and cells[-1] == c:
                columns[-1] = columns[-1] + column
            else:
                cells.append(c)
                columns.append(column)
    return np.array(columns).T


@pytest.mark.parametrize("t_max", [5.0, math.log(3 * 10**4)])
def test_cells_spanning_segments_fold_their_columns_in_segment_order(monkeypatch, t_max):
    # segments of 31 odd numbers: cells of width 10^-2 near 3 x 10^4 span
    # about five of them, and override keys sit on segment edges
    n_limit = 3 * 10**4
    monkeypatch.setattr(sieve, "PRIME_SEGMENT", 31)
    segments = list(sieve.prime_segments(n_limit))
    primes = np.concatenate(segments)
    keys = [int(segments[200][0]), int(segments[300][-1]), int(segments[-1][-1])]
    f = MultFunSpec(default_prime_value=-1.0,
                    prime_values=dict(zip(keys, (1j, 0.6 - 0.8j, 0.0))))
    cell, centres, moments, absolute = _whole_table_sums(f, primes, t_max)
    held_by = np.repeat(np.arange(len(segments)), [s.size for s in segments])
    spans = [np.unique(held_by[cell == c]).size for c in np.unique(cell)]
    assert max(spans) >= 3
    sums = prime_trig_sums(f, n_limit, t_max)
    assert np.array_equal(sums.centres, centres)
    assert sums.moments.shape == moments.shape
    width = 2.0 * sums.half_width
    assert np.array_equal(sums.moments, _segment_fold(f, segments, width, moments.shape[0]))
    # any order of summing a cell's n terms is within gamma_{n-1} sum |term|
    # of the exact sum in the real and in the imaginary part, so two orders
    # differ by at most 2 sqrt(2) gamma_{n-1} sum |term| < 2 n eps sum |term|
    count = np.unique(cell, return_counts=True)[1]
    bound = 2.0 * count * np.finfo(float).eps * absolute
    assert np.all(np.abs(sums.moments - moments) <= bound)
    assert sums.harmonic == pytest.approx(float(np.sum(1.0 / primes)), rel=1e-14)
    for t in (0.0, 0.5, -3.0):
        want = _loop_distance_sq(f, lambda p: cmath.exp(1j * t * math.log(p)), n_limit)
        assert distance_sq_to_twist(f, n_limit, t) == pytest.approx(want, rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("call", ["prime_trig_sums", "distance_sq_to_twist"])
def test_prime_sums_hold_one_segment_of_primes(call):
    # the 664 579 primes up to 10^7 take 5.1 MiB as int64 alone, and their
    # float and complex columns took 40-46 MiB; a segment takes under 6 MiB
    n_limit = 10**7
    run = {"prime_trig_sums": lambda: prime_trig_sums(liouville_spec(), n_limit,
                                                      math.log(n_limit)),
           "distance_sq_to_twist": lambda: distance_sq_to_twist(liouville_spec(),
                                                                n_limit, 0.5)}[call]
    run()   # warm-up: first-call allocations are not what is measured
    tracemalloc.start()
    try:
        run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


def test_prime_trig_sums_working_set_does_not_grow_with_n(monkeypatch):
    # segments of 64 odd numbers: the top cell (1% of N wide) spans 2 of
    # them at N = 25 600 and 20 at N = 256 000.  The occupied cells go from
    # 465 to 695 and the sums return them, so the traced peak is taken per
    # byte of the centres and moments returned: a sum that held the primes
    # of a cell, or a column per segment, grows past the cells it returns
    monkeypatch.setattr(sieve, "PRIME_SEGMENT", 64)
    n_limits = (25_600, 256_000)
    for n_limit in n_limits:   # warm-up: first-call allocations are not what is measured
        prime_trig_sums(liouville_spec(), n_limit, 0.0)
    per_byte = []
    for n_limit in n_limits:
        tracemalloc.start()
        try:
            sums = prime_trig_sums(liouville_spec(), n_limit, 0.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        per_byte.append(peak / (sums.centres.nbytes + sums.moments.nbytes))
    assert per_byte[1] <= 1.25 * per_byte[0], per_byte
