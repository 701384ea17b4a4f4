"""Counter-based uniform random streams.

Every random quantity in a simulation is addressed by the key
(master_seed, trial, unit, purpose) and produced by hashing that key with the
splitmix64 finalizer.  There is no sequential state: trial t of a million-trial
run reads the same uniforms whether it is computed alone, in a batch, or on a
different worker, which is what makes reports reproducible under any chunking.

Units are small integers local to the engine (edge positions; online-vertex
positions are offset by the edge count).  Purposes separate the independent
coins an engine needs for one unit.

``gate_uniforms`` draws one purpose over a (trials, units) block and returns
only the cells whose uniform may lie below a per-unit bound, with their
uniforms: the test runs on the hash word before its last step, so no float
array of the whole block is formed.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "ARRIVAL",
    "ACTIVE",
    "COIN",
    "PRICE",
    "gate_limit",
    "gate_uniforms",
    "hash_uniform",
]

# Purpose tags.  ARRIVAL: arrival time in [0,1).  ACTIVE: the value/acceptance
# coin.  COIN: the attenuation (or probe-intent) coin.  PRICE: the price draw.
ARRIVAL = 0
ACTIVE = 1
COIN = 2
PRICE = 3

_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_S30 = np.uint64(30)
_S27 = np.uint64(27)
_S31 = np.uint64(31)
_S11 = np.uint64(11)
_INV53 = 2.0**-53


def _mix(z: np.ndarray, tmp: np.ndarray, last: bool = True) -> np.ndarray:
    """splitmix64 finalizer (Stafford mix13), in place on `z`; `tmp` is scratch.
    Without `last` it stops before the final ``z ^= z >> 31``."""
    for shift, mult in ((_S30, _MIX1), (_S27, _MIX2)):
        np.right_shift(z, shift, out=tmp)
        z ^= tmp
        z *= mult
    if last:
        np.right_shift(z, _S31, out=tmp)
        z ^= tmp
    return z


def _key(x) -> np.ndarray:
    return np.asarray(x, dtype=np.uint64)


def hash_uniform(seed: int, trial, unit, purpose) -> np.ndarray:
    """Uniforms in [0, 1) for the keys (seed, trial, unit, purpose).

    `trial` and `unit` may be arrays; they broadcast, so
    ``hash_uniform(s, trials[:, None], units[None, :], p)`` fills a matrix.
    Returns a float64 array of the broadcast shape (0-d for scalar inputs).

    `purpose` may also be a tuple of purposes.  The (seed, trial, unit)
    prefix is then mixed once and each purpose finishes it with one more mix,
    and the result stacks one array per purpose: shape
    ``(len(purpose), *broadcast shape)``, each slice bit-identical to the
    scalar-purpose call.
    """
    purposes = purpose if isinstance(purpose, tuple) else (purpose,)
    # the hash wants plain mod-2^64 wraparound; stop numpy flagging it
    with np.errstate(over="ignore"):
        h = (_key(seed) + _GAMMA) ^ (_key(trial) * _MIX1)
        h = _mix(h, np.empty_like(h)) ^ (_key(unit) * _MIX2)
        tmp = np.empty_like(h)
        h = _mix(h, tmp)
        out = np.empty((len(purposes), *h.shape))
        for k, p in enumerate(purposes):
            # purpose k mixes in output slot k + 1, not yet written, and the
            # last purpose in the prefix, no longer needed: the working set
            # stays the prefix, the scratch and the output
            z = out[k + 1, ...].view(np.uint64) if k + 1 < len(purposes) else np.asarray(h)
            np.bitwise_xor(h, _key(p) * _GAMMA, out=z)
            z = _mix(z, tmp)
            z >>= _S11
            # a 53-bit integer times 2**-53 is exact
            np.multiply(z, _INV53, out=out[k, ...])
    return out if isinstance(purpose, tuple) else out[0, ...]


def gate_limit(bound) -> np.ndarray:
    """Per-unit limits on the hash word before its last mixing step, for
    ``gate_uniforms``: every key whose uniform lies below `bound` has its
    word at or below the limit.

    A uniform is m * 2**-53 with m = h >> 11, so it lies below the bound
    exactly when m <= K - 1 with K = ceil(bound * 2**53).  The last step,
    ``h = z ^ (z >> 31)``, leaves the top 31 bits of z as they are, and those
    are the top 31 bits of m; so m <= K - 1 implies that z's top 31 bits are
    at most those of K - 1, which is ``z <= (((K - 1) >> 22) << 33) | (2**33 - 1)``.
    K is clipped to [1, 2**53]: a bound of 1 or more keeps every key.
    """
    k = np.ceil(np.clip(np.asarray(bound, dtype=float) * 2.0**53, 1.0, 2.0**53)).astype(np.uint64)
    return ((k - np.uint64(1)) >> np.uint64(22) << np.uint64(33)) | np.uint64(2**33 - 1)


def gate_uniforms(
    seed: int, trials: np.ndarray, units: np.ndarray, purpose: int, limit: np.ndarray, scratch: np.ndarray
):
    """The cells of the block (trials x units) whose `purpose` word is at
    most its unit's `limit`, and their uniforms.

    Returns ``(cells, u)``: the flat row-major indices of the kept cells in
    the block, ascending, and ``u``, bit for bit
    ``hash_uniform(seed, trials[:, None], units[None, :], purpose).ravel()[cells]``.
    With ``limit = gate_limit(bound)`` every cell whose uniform lies below
    its unit's bound is kept; a kept cell at or above it ties the limit in
    the top 31 bits of its word.  `limit` holds one word per unit, or one
    for every unit; ``gate_limit(1.0)``, 2**64 - 1, keeps every cell.
    `scratch` is a (2, n) uint64 array with n >= trials.size * units.size,
    which the block overwrites, so one buffer serves many blocks.
    """
    shape = (trials.size, units.size)
    n = shape[0] * shape[1]
    z, tmp = scratch[0, :n].reshape(shape), scratch[1, :n].reshape(shape)
    with np.errstate(over="ignore"):
        h = (_key(seed) + _GAMMA) ^ (_key(trials) * _MIX1)
        h = _mix(h, np.empty_like(h))
        np.bitwise_xor(h[:, None], _key(units) * _MIX2, out=z)
        _mix(z, tmp)
        z ^= _key(purpose) * _GAMMA
        _mix(z, tmp, last=False)
        cells = np.flatnonzero(z <= limit)
        w = z.ravel().take(cells)
        w ^= w >> _S31
        w >>= _S11
        return cells, w * _INV53
