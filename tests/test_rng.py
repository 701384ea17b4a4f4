"""Counter-based RNG: determinism, broadcasting, stream separation."""

import warnings

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from ocrslab._rng import ACTIVE, ARRIVAL, COIN, PRICE, hash_uniform

U64 = st.integers(min_value=0, max_value=2**64 - 1)


@given(seed=U64, trial=U64, unit=U64, purpose=st.sampled_from([ARRIVAL, ACTIVE, COIN, PRICE]))
def test_unit_interval_and_deterministic(seed, trial, unit, purpose):
    a = float(hash_uniform(seed, trial, unit, purpose))
    b = float(hash_uniform(seed, trial, unit, purpose))
    assert a == b
    assert 0.0 <= a < 1.0


def test_key_components_separate_streams():
    base = float(hash_uniform(7, 3, 5, ARRIVAL))
    assert base != float(hash_uniform(8, 3, 5, ARRIVAL))
    assert base != float(hash_uniform(7, 4, 5, ARRIVAL))
    assert base != float(hash_uniform(7, 3, 6, ARRIVAL))
    assert base != float(hash_uniform(7, 3, 5, ACTIVE))


def test_purposes_decorrelated():
    vals = {p: float(hash_uniform(123, 456, 789, p)) for p in (ARRIVAL, ACTIVE, COIN, PRICE)}
    assert len(set(vals.values())) == 4


def test_broadcast_matches_pointwise():
    seed = 99
    trials = np.arange(50, dtype=np.uint64)
    units = np.arange(7, dtype=np.uint64)
    mat = hash_uniform(seed, trials[:, None], units[None, :], COIN)
    assert mat.shape == (50, 7)
    for t in (0, 13, 49):
        for u in (0, 3, 6):
            assert mat[t, u] == float(hash_uniform(seed, t, u, COIN))


def test_no_overflow_warnings_at_boundary_keys():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        hash_uniform(2**64 - 1, 2**64 - 1, 2**64 - 1, PRICE)
        hash_uniform(0, np.arange(4, dtype=np.uint64), 2**63, ACTIVE)


def test_uniformity_sanity():
    trials = np.arange(100_000, dtype=np.uint64)
    vals = hash_uniform(42, trials, 0, ARRIVAL)
    assert abs(vals.mean() - 0.5) < 0.005
    assert abs(np.mean(vals < 0.25) - 0.25) < 0.005
    assert vals.min() >= 0.0 and vals.max() < 1.0

