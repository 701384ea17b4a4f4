"""Attenuation functions.

An attenuated scheme flips one extra coin per arriving edge, dampening the
match probability as a function of the arrival time t, the edge's own mass
x_e, and its slack s_e.  Three shapes:

    trivial          a(t, x, s) = 1
    a1               a(t, x, s) = exp(-t*x)
    a2 (alpha)       a(t, x, s) = exp(-t*x) * (1 - alpha*s)

alpha in [0, 0.5] keeps a2 in [0, 1] because s ranges over [0, 2].
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graphcore import EdgeStats

__all__ = ["AttenuationSpec", "attenuation_value", "attenuation_profile"]

KINDS = ("trivial", "a1", "a2")


@dataclass(frozen=True)
class AttenuationSpec:
    kind: str
    alpha: float = 0.0  # used by a2 only

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown attenuation kind {self.kind!r}; known: {KINDS}")
        if not (0.0 <= self.alpha <= 0.5):
            raise ValueError(f"alpha must lie in [0, 0.5], got {self.alpha}")


def attenuation_value(spec: AttenuationSpec, t: float, stats: EdgeStats, x_e: float) -> float:
    """Attenuation coin bias for one edge at arrival time t: the range-checked
    scalar form of :func:`attenuation_profile`."""
    if not (0.0 <= t <= 1.0):
        raise ValueError(f"t must lie in [0, 1], got {t}")
    if not (0.0 <= x_e <= 1.0):
        raise ValueError(f"x_e must lie in [0, 1], got {x_e}")
    if spec.kind != "trivial" and not (0.0 <= stats.s <= 2.0):
        raise ValueError(f"s_e must lie in [0, 2], got {stats.s}")
    return float(attenuation_profile(spec, t, x_e, stats.s))


def attenuation_profile(
    spec: AttenuationSpec, t: np.ndarray, x: np.ndarray, s: np.ndarray
) -> np.ndarray:
    """Vectorized attenuation for trial engines: t is (trials, edges), x and s
    are per-edge rows.  No per-call validation; callers pass checked inputs."""
    if spec.kind == "trivial":
        return np.ones_like(t)
    base = np.exp(-t * x)
    if spec.kind == "a1":
        return base
    return base * (1.0 - spec.alpha * s)
