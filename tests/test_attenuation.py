"""Attenuation functions: exact values, domination ordering, monotonicity."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from reference import attenuation_value

from ocrslab.attenuation import AttenuationSpec, attenuation_profile
from ocrslab.graphcore import EdgeStats


def _stats(s: float, d: float = 0.0, m: float = 0.0) -> EdgeStats:
    return EdgeStats(d=d, s=s, m=m)


def test_exact_values():
    triv, a1 = AttenuationSpec("trivial"), AttenuationSpec("a1")
    a2 = AttenuationSpec("a2", alpha=0.171)
    st_ = _stats(s=2.0)
    assert attenuation_value(triv, 0.7, st_, 0.3) == 1.0
    assert attenuation_value(a1, 0.5, st_, 0.4) == math.exp(-0.5 * 0.4)
    # x = 0 kills the exponential factor; only the slack factor remains
    assert math.isclose(attenuation_value(a2, 1.0, st_, 0.0), 1.0 - 0.171 * 2.0)
    assert math.isclose(
        attenuation_value(a2, 0.5, _stats(s=1.0), 0.6),
        math.exp(-0.3) * (1.0 - 0.171),
    )


def test_spec_validation():
    with pytest.raises(ValueError):
        AttenuationSpec("a3")
    with pytest.raises(ValueError):
        AttenuationSpec("a2", alpha=0.6)
    with pytest.raises(ValueError):
        attenuation_value(AttenuationSpec("a1"), 1.5, _stats(1.0), 0.5)
    with pytest.raises(ValueError):
        attenuation_value(AttenuationSpec("a1"), 0.5, _stats(1.0), 2.0)
    with pytest.raises(ValueError):
        attenuation_value(AttenuationSpec("a2", alpha=0.1), 0.5, _stats(3.0), 0.5)


@given(
    t=st.floats(0.0, 1.0),
    x=st.floats(0.0, 1.0),
    s=st.floats(0.0, 2.0),
    alpha=st.floats(0.0, 0.5),
)
def test_domination_chain(t, x, s, alpha):
    st_ = _stats(s=s)
    v2 = attenuation_value(AttenuationSpec("a2", alpha=alpha), t, st_, x)
    v1 = attenuation_value(AttenuationSpec("a1"), t, st_, x)
    assert 0.0 <= v2 <= v1 <= 1.0


def test_monotone_nonincreasing_in_time():
    spec = AttenuationSpec("a2", alpha=0.2)
    st_ = _stats(s=1.2)
    ts = np.linspace(0, 1, 101)
    vals = [attenuation_value(spec, float(t), st_, 0.7) for t in ts]
    assert all(b <= a + 1e-15 for a, b in zip(vals, vals[1:]))


def test_profile_matches_scalar():
    spec = AttenuationSpec("a2", alpha=0.171)
    rng = np.random.default_rng(0)
    t = rng.uniform(0, 1, size=(5, 3))
    x = np.array([0.2, 0.6, 0.9])
    s = np.array([1.5, 0.8, 0.1])
    prof = attenuation_profile(spec, t, x, s)
    for i in range(5):
        for j in range(3):
            tij, xj, sj = float(t[i, j]), float(x[j]), float(s[j])
            # the scalar form is the profile itself; the formula is written out here
            assert attenuation_value(spec, tij, _stats(s=sj), xj) == prof[i, j]
            assert math.isclose(prof[i, j], math.exp(-tij * xj) * (1.0 - 0.171 * sj))
    assert np.all(attenuation_profile(AttenuationSpec("trivial"), t, x, s) == 1.0)
