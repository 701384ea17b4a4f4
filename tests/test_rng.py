"""Counter-based RNG: determinism, broadcasting, stream separation."""

import warnings

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from ocrslab._rng import ACTIVE, ARRIVAL, COIN, PRICE, gate_limit, gate_uniforms, hash_uniform

U64 = st.integers(min_value=0, max_value=2**64 - 1)
PURPOSES = (ARRIVAL, ACTIVE, COIN, PRICE)


def _mix(z):
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def reference_hash(seed, trial, unit, purpose):
    """The hash written out once per purpose: three full splitmix64 mixes."""
    gamma = np.uint64(0x9E3779B97F4A7C15)
    key = lambda x: np.asarray(x, dtype=np.uint64)  # noqa: E731
    with np.errstate(over="ignore"):
        h = _mix((key(seed) + gamma) ^ (key(trial) * np.uint64(0xBF58476D1CE4E5B9)))
        h = _mix(h ^ (key(unit) * np.uint64(0x94D049BB133111EB)))
        h = _mix(h ^ (key(purpose) * gamma))
        return (h >> np.uint64(11)).astype(np.float64) * 2.0**-53


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



@given(
    seed=U64,
    trial=U64,
    unit=U64,
    purposes=st.permutations(PURPOSES).flatmap(lambda p: st.integers(1, 4).map(lambda k: tuple(p[:k]))),
)
def test_purpose_tuple_stacks_the_scalar_purpose_draws(seed, trial, unit, purposes):
    stacked = hash_uniform(seed, trial, unit, purposes)
    assert stacked.shape == (len(purposes),)
    for k, p in enumerate(purposes):
        want = float(reference_hash(seed, trial, unit, p))
        assert stacked[k] == float(hash_uniform(seed, trial, unit, p)) == want


def test_purpose_tuple_matches_the_reference_on_matrices_and_boundary_keys():
    top = 2**64 - 1
    trials = np.array([0, 1, 2**63, top - 1, top], dtype=np.uint64)[:, None]
    units = np.array([*range(40), 2**32, top], dtype=np.uint64)[None, :]
    for seed in (0, 5, top):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            stacked = hash_uniform(seed, trials, units, (ARRIVAL, PRICE, ACTIVE, COIN))
        assert stacked.shape == (4, 5, 42) and stacked.dtype == np.float64
        for k, p in enumerate((ARRIVAL, PRICE, ACTIVE, COIN)):
            single = hash_uniform(seed, trials, units, p)
            want = reference_hash(seed, trials, units, p)
            assert np.array_equal(single, want) and np.array_equal(stacked[k], want)


# the bound kinds a gate must handle, per unit: "drawn" is a uniform of the
# unit's own column, and "k_edge" puts K = ceil(bound * 2**53) on a multiple
# of 2**22 (or one past it), where the limit's top 31 bits step
BOUND_KINDS = ("zero", "one", "below_one", "subnormal", "drawn", "k_edge", "k_edge_plus", "float")


def _bound(kind, frac, column):
    return {
        "zero": 0.0,
        "one": 1.0,
        "below_one": float(np.nextafter(1.0, 0.0)),
        "subnormal": 5e-324,
        "drawn": float(column[int(frac * column.size) % column.size]),
        "k_edge": float(np.ldexp(max(1, int(frac * 2**31)), -31)),
        "k_edge_plus": float(np.ldexp(max(1, int(frac * 2**31)) * 2**22 + 1, -53)),
        "float": frac,
    }[kind]


@settings(max_examples=200, deadline=None)
@given(
    seed=U64,
    start=st.integers(0, 2**64 - 64),
    rows=st.integers(1, 40),
    unit0=st.integers(0, 2**32),
    kinds=st.lists(st.tuples(st.sampled_from(BOUND_KINDS), st.floats(0.0, 1.0)), min_size=1, max_size=12),
    purpose=st.sampled_from(PURPOSES),
    spare=st.integers(0, 50),
)
def test_gate_keeps_every_cell_below_its_bound_with_its_uniform(
    seed, start, rows, unit0, kinds, purpose, spare
):
    trials = np.arange(start, start + rows, dtype=np.uint64)
    units = np.arange(unit0, unit0 + len(kinds), dtype=np.uint64)
    full = hash_uniform(seed, trials[:, None], units[None, :], purpose)
    bound = np.array([_bound(kind, frac, full[:, j]) for j, (kind, frac) in enumerate(kinds)])
    limit = gate_limit(bound)
    # a scratch larger than the block, as a chunk's last, short block sees
    scratch = np.empty((2, full.size + spare), dtype=np.uint64)
    cells, u = gate_uniforms(seed, trials, units, purpose, limit, scratch)
    assert (np.diff(cells) > 0).all()
    below = np.flatnonzero(full < bound)
    assert np.isin(below, cells).all()
    # the very same uniforms, bit for bit
    assert np.array_equal(u.view(np.uint64), full.ravel()[cells].view(np.uint64))
    # a kept cell at or above its bound ties its limit in the top 31 bits,
    # which are those of the 53-bit integer under its uniform
    extra = np.setdiff1d(cells, below)
    top = (full.ravel()[extra] * 2.0**53).astype(np.uint64) >> np.uint64(22)
    assert np.array_equal(top, limit[extra % units.size] >> np.uint64(33))
    # the all-ones limit keeps every cell
    ones = np.full(units.size, 2**64 - 1, dtype=np.uint64)
    every, u_all = gate_uniforms(seed, trials, units, purpose, ones, scratch)
    assert np.array_equal(every, np.arange(full.size)) and np.array_equal(u_all, full.ravel())


def test_gate_limits_at_the_ends_of_the_unit_interval():
    top = np.uint64(2**64 - 1)
    limit = gate_limit(np.array([0.0, 5e-324, 2.0**-31, 1.0, 2.0]))
    assert limit.tolist() == [2**33 - 1, 2**33 - 1, 2**33 - 1, int(top), int(top)]
