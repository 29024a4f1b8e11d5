import pathlib
import types

import pytest
from hypothesis import HealthCheck, settings

from omegalab import profiles, sieve

settings.register_profile(
    "suite",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")

REGRESSION_DIR = pathlib.Path(__file__).parent / "regression"


@pytest.fixture(scope="session")
def big_block():
    """Multiplicity counts for n = 1 .. 10^8 + 1, sieved once and shared.

    Covers shift-1 two-point profiles at n_limit = 10^8.  Building it
    costs a few seconds; every large-scale check reuses it through the
    profile cache.
    """
    block = sieve.factor_counts(1, 10 ** 8 + 2)
    profiles.adopt_block(block)
    return block


@pytest.fixture
def range_fills(monkeypatch):
    """Record every sieve.range_filler call as (hi, mode kind) in .setups and
    every fill of the fillers it makes as (lo, size) in .fills; the fills
    still write their counts."""
    record = types.SimpleNamespace(setups=[], fills=[])
    range_filler = sieve.range_filler

    def recorded(hi, mode):
        record.setups.append((hi, mode.kind))
        fill = range_filler(hi, mode)

        def recorded_fill(lo, out):
            record.fills.append((lo, out.size))
            fill(lo, out)
        return recorded_fill
    monkeypatch.setattr(sieve, "range_filler", recorded)
    return record


@pytest.fixture(scope="session")
def regression_dir():
    REGRESSION_DIR.mkdir(exist_ok=True)
    return REGRESSION_DIR
