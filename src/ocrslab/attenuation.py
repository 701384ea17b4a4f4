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

__all__ = ["AttenuationSpec", "attenuation_profile"]

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
