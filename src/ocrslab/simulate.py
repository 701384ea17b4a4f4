"""Trial engines, Monte-Carlo aggregation, and exact small-instance oracles.

The four online schemes are one attenuated greedy walk that differs only in
its coins.  Each engine draws every random quantity of a chunk up front from
the counter-based stream, in one call for all its edge purposes (so worker
count can never change a trial), sets up its own coins and arrival order,
and hands them to ``_walk``: an edge proposes when its coins allow and both
endpoints are free (and patient), and is matched when the proposal is
accepted.  The walk also counts Q(e), the realized neighbours that arrive
before e in its own arrival order, as it goes; on multigraphs it recounts
them from arrival positions.  Arrival order is a stable sort of the arrival
times, taken as one sort of packed uint64 keys (53-bit time, 11-bit edge
position) by ``_arrival_order``; vertex arrival sorts that order once more,
stably by the arrival rank of each edge's online vertex.  The per-chunk
reduction is shared too.  ``monte_carlo`` aggregates chunks into a report,
summing revenue in fixed blocks of trials; one trial replays as row 0 of
``engine.run_chunk(seed, trial, 1, detail=True)``.

The exact oracles (``exact_trivial_oracle``, ``optimal_policy_dp``,
``greedy_baseline``) are memoized bitmask recursions over tiny instances and
serve as ground truth for the statistical engines.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from ._rng import ACTIVE, ARRIVAL, COIN, PRICE, hash_uniform
from .attenuation import AttenuationSpec, attenuation_profile
from .graphcore import (
    EdgeStats,
    FractionalPoint,
    PricingInstance,
    fractional_point_violations,
    marginals,
)
from .lp import auto_objective, objective_coefficients

# 99% two-sided normal quantile, used for every interval in the reports.
Z99 = 2.5758293035489004

# trials x edges x purposes cells per chunk: a stacked draw of up to four
# purposes, and so every float64 chunk array, stays <= 64 MiB
_CHUNK_CELLS = 2**23

# the block of absolute trial indices whose revenues are summed together, so
# that chunking never changes a revenue sum
_BLOCK_TRIALS = 16384

# edge positions take the low bits of an arrival-order sort key
_POS_BITS = 11


# --------------------------------------------------------------------------
# result containers
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class EdgeReport:
    edge_id: str
    x_ref: float
    matched: int
    r0: int
    r1: int
    freq: float
    ci_lo: float
    ci_hi: float
    freq_r0: float
    freq_r1: float
    ratio: float


@dataclass(frozen=True)
class SimulationReport:
    trials: int
    master_seed: int
    edges: tuple[EdgeReport, ...]
    min_ratio: float
    revenue_mean: float
    revenue_ci: float


def wilson_interval(successes: int, trials: int, z: float = Z99) -> tuple[float, float]:
    """Wilson score interval; well behaved at frequencies near 0 and 1."""
    if trials <= 0:
        raise ValueError("trials must be positive")
    phat = successes / trials
    z2n = z * z / trials
    denom = 1.0 + z2n
    center = (phat + z2n / 2.0) / denom
    hw = z * math.sqrt(phat * (1.0 - phat) / trials + z2n / (4.0 * trials)) / denom
    # clamp to [0, 1] and to phat: the interval is analytically inside both,
    # but sqrt rounding can leave an endpoint a few ulps on the wrong side
    return (max(0.0, min(center - hw, phat)), min(1.0, max(center + hw, phat)))


# --------------------------------------------------------------------------
# shared instance precomputation
# --------------------------------------------------------------------------

def _count_dtype(widest: int):
    """int16 when it holds every Q-count, else int32.

    A Q-count is at most `widest`, the largest neighbour count; the walk's
    per-vertex counters reach a vertex's degree, at most `widest` + 1.
    """
    return np.int16 if widest + 1 <= np.iinfo(np.int16).max else np.int32


class _Topology:
    """Index arrays shared by all chunk kernels."""

    def __init__(self, inst: PricingInstance):
        self.inst = inst
        self.n_edges = len(inst.edges)
        self.n_vertices = len(inst.vertices)
        vpos = inst.vertex_pos
        self.u_idx = np.array([vpos[e.u] for e in inst.edges], dtype=np.intp)
        self.v_idx = np.array([vpos[e.v] for e in inst.edges], dtype=np.intp)
        self.edge_ids = tuple(e.id for e in inst.edges)
        self.neighbors = inst.neighbors
        widths = np.array([nb.size for nb in self.neighbors], dtype=np.intp)
        self.q_dtype = _count_dtype(int(widths.max(initial=0)))
        # without self-loops and parallel edges, e's neighbours are the other
        # edges at u plus the other edges at v, each counted once, so Q(e) is
        # a sum of per-vertex counts
        degree = np.bincount(np.concatenate([self.u_idx, self.v_idx]), minlength=self.n_vertices)
        self.simple = bool(np.array_equal(widths, degree[self.u_idx] + degree[self.v_idx] - 2))
        # a vertex spends at most one patience unit per incident edge, so a
        # budget of its degree never binds: unbounded and huge budgets store
        # the degree, and every budget fits the int32 walk counters
        cap = degree.tolist()
        self.patience = np.array(
            [c if v.patience is None else min(v.patience, c) for v, c in zip(inst.vertices, cap)],
            dtype=np.int32,
        )

    def x_vector(self, x: dict[str, float]) -> np.ndarray:
        return np.array([x.get(eid, 0.0) for eid in self.edge_ids], dtype=float)


def _q_counts(realized: np.ndarray, position: np.ndarray, topo: _Topology) -> np.ndarray:
    """|Q(e)| per trial: realized neighbors at an earlier arrival position."""
    t, e = realized.shape
    q = np.zeros((t, e), dtype=topo.q_dtype)
    for i in range(e):
        nb = topo.neighbors[i]
        if nb.size == 0:
            continue
        before = position[:, nb] < position[:, i : i + 1]
        q[:, i] = (realized[:, nb] & before).sum(axis=1)
    return q


class _ChunkCounts(NamedTuple):
    matched: np.ndarray  # int64 per edge
    r0: np.ndarray
    r1: np.ndarray
    revenue: np.ndarray  # per trial


class _ChunkDetail(NamedTuple):
    active: np.ndarray
    realized: np.ndarray
    probed: np.ndarray
    matched: np.ndarray
    q: np.ndarray
    revenue: np.ndarray
    probes_used: np.ndarray  # per vertex


class _Walk(NamedTuple):
    matched: np.ndarray
    probed: np.ndarray
    revenue: np.ndarray
    probes_used: np.ndarray  # per vertex


def _reduce_chunk(matched, q, revenue) -> _ChunkCounts:
    r0 = matched & (q == 0)
    r1 = matched & (q == 1)
    return _ChunkCounts(
        matched.sum(axis=0, dtype=np.int64),
        r0.sum(axis=0, dtype=np.int64),
        r1.sum(axis=0, dtype=np.int64),
        revenue,
    )


def _walk(topo: _Topology, order, go, accept, patience=None, reward=None):
    """The greedy walk every scheme shares, over (trials, edges) coin arrays.

    Edges arrive in `order`.  An arriving edge proposes when `go` holds and
    both endpoints are free.  Given per-vertex `patience`, it also needs
    patience left at both endpoints, and its proposal spends one unit at each
    and is marked probed.  A proposal is matched when `accept` also holds,
    and a match adds its `reward` to the trial's revenue.

    Also returns Q(e), the number of e's neighbours that arrive before e in
    `order` and are realized (`go` and `accept` both hold).  A per-(trial,
    vertex) counter of realized arrivals, read at both endpoints before e
    adds its own, counts them as the walk goes.  With parallel edges or
    self-loops an edge is not one neighbour per endpoint, so `_q_counts`
    counts them from arrival positions instead.  Arrays are read and written
    through flat (trial * width + column) indices.
    """
    count, e = go.shape
    nv = topo.n_vertices
    base_e = np.arange(count) * e
    base_v = np.arange(count) * nv
    go_f, accept_f = go.ravel(), accept.ravel()
    reward_f = None if reward is None else reward.ravel()
    matched = np.zeros((count, e), dtype=bool)
    probed = np.zeros((count, e), dtype=bool)
    q = np.zeros((count, e), dtype=topo.q_dtype)
    matched_f, probed_f, q_f = matched.ravel(), probed.ravel(), q.ravel()
    revenue = np.zeros(count)
    taken = np.zeros(count * nv, dtype=bool)  # matched vertices
    arrived = np.zeros(count * nv, dtype=topo.q_dtype) if topo.simple else None
    if patience is not None:
        pat = np.tile(patience, count)
    for j in range(e):
        ep = order[:, j]
        fe = base_e + ep
        fu = base_v + topo.u_idx[ep]
        fv = base_v + topo.v_idx[ep]
        g, acc = go_f[fe], accept_f[fe]
        if arrived is not None:
            q_f[fe] = arrived[fu] + arrived[fv]
            here = g & acc
            arrived[fu[here]] += 1
            arrived[fv[here]] += 1
        propose = g & ~taken[fu] & ~taken[fv]
        if patience is not None:
            propose &= (pat[fu] > 0) & (pat[fv] > 0)
            probed_f[fe[propose]] = True
            pat[fu[propose]] -= 1
            pat[fv[propose]] -= 1
        win = propose & acc
        matched_f[fe[win]] = True
        taken[fu[win]] = True
        taken[fv[win]] = True
        if reward is not None:
            revenue[win] += reward_f[fe[win]]

    if arrived is None:
        positions = np.empty_like(order)
        np.put_along_axis(positions, order, np.arange(e), axis=1)
        q = _q_counts(go & accept, positions, topo)
    if patience is None:
        probes = np.zeros((count, nv), dtype=np.int32)
    else:
        probes = (patience[None, :] - pat.reshape(count, nv)).astype(np.int32)
    return _Walk(matched, probed, revenue, probes), q


def _arrival_order(t: np.ndarray) -> np.ndarray:
    """``np.argsort(t, axis=1, kind="stable")`` for arrival times from the stream.

    Each time is k * 2**-53 with k a 53-bit integer, so on rows of at most
    2**11 edges it packs with its edge position into the unique uint64 key
    (k << 11) | position.  One plain in-place sort of the keys then orders
    by time, ties by position, and the low bits are the order.  Wider rows
    take the stable argsort.
    """
    e = t.shape[1]
    if e > 1 << _POS_BITS:
        return np.argsort(t, axis=1, kind="stable")
    key = (t * 2.0**53).astype(np.uint64)
    key <<= np.uint64(_POS_BITS)
    key |= np.arange(e, dtype=np.uint64)
    key.sort(axis=1)
    key &= np.uint64((1 << _POS_BITS) - 1)
    return key.view(np.int64)


def _chunk_result(walk: _Walk, active, realized, q, detail: bool):
    if detail:
        return _ChunkDetail(
            active, realized, walk.probed, walk.matched, q, walk.revenue, walk.probes_used
        )
    return _reduce_chunk(walk.matched, q, walk.revenue)


# --------------------------------------------------------------------------
# engines
# --------------------------------------------------------------------------

class RoOcrsEngine:
    """Random-order contention resolution on edge arrivals.

    Every edge draws an arrival time; an edge is active with probability
    x_e and survives its attenuation coin with probability a(t_e).  An
    active+surviving ("realized") edge is matched iff both endpoints are
    free when it arrives.
    """

    def __init__(
        self,
        inst: PricingInstance,
        x: dict[str, float],
        stats: dict[str, EdgeStats],
        spec: AttenuationSpec,
    ):
        self.topo = _Topology(inst)
        self.x = self.topo.x_vector(x)
        self.s = np.array([stats[eid].s for eid in self.topo.edge_ids], dtype=float)
        self.spec = spec

    def run_chunk(self, seed: int, start: int, count: int, detail: bool = False):
        e = self.topo.n_edges
        trials = np.arange(start, start + count, dtype=np.uint64)[:, None]
        units = np.arange(e, dtype=np.uint64)[None, :]
        t, u_active, u_coin = hash_uniform(seed, trials, units, (ARRIVAL, ACTIVE, COIN))
        active = u_active < self.x[None, :]
        realized = active & (
            u_coin < attenuation_profile(self.spec, t, self.x[None, :], self.s[None, :])
        )

        order = _arrival_order(t)
        walk, q = _walk(self.topo, order, realized, active)
        return _chunk_result(walk, active, realized, q, detail)


class StochasticOcrsEngine:
    """Probe-commit contention resolution.

    Each arriving edge whose endpoints are free and still have patience is
    probed with probability y_e * a(e); a probe spends one patience unit at
    both endpoints, and a probed edge turns out active with probability p_e,
    in which case it must be matched.  Attenuation is evaluated at the
    effective marginal x = y * p.
    """

    def __init__(
        self,
        inst: PricingInstance,
        y: dict[str, float],
        p: dict[str, float],
        stats: dict[str, EdgeStats],
        spec: AttenuationSpec,
    ):
        self.topo = _Topology(inst)
        self.y = self.topo.x_vector(y)
        self.p = self.topo.x_vector(p)
        if np.any(self.y < 0) or np.any(self.y > 1) or np.any(self.p < 0) or np.any(self.p > 1):
            raise ValueError("y and p must lie in [0, 1]")
        loads_x = np.zeros(self.topo.n_vertices)
        np.add.at(loads_x, self.topo.u_idx, self.y * self.p)
        np.add.at(loads_x, self.topo.v_idx, self.y * self.p)
        if np.any(loads_x > 1.0 + 1e-9):
            raise ValueError("marginal load exceeds 1 at a vertex")
        # The per-vertex probe budget sum(y) <= patience is the analysis-side
        # feasibility condition, not a runtime requirement: the engine caps
        # probes dynamically, and overloaded inputs are legitimate ways to
        # exercise exactly that cap.  Only the marginal load is hard-checked.
        self.x = self.y * self.p
        self.s = np.array([stats[eid].s for eid in self.topo.edge_ids], dtype=float)
        self.spec = spec

    def run_chunk(self, seed: int, start: int, count: int, detail: bool = False):
        e = self.topo.n_edges
        trials = np.arange(start, start + count, dtype=np.uint64)[:, None]
        units = np.arange(e, dtype=np.uint64)[None, :]
        t, u_active, u_coin = hash_uniform(seed, trials, units, (ARRIVAL, ACTIVE, COIN))
        active = u_active < self.p[None, :]
        probe_ok = u_coin < (
            self.y[None, :] * attenuation_profile(self.spec, t, self.x[None, :], self.s[None, :])
        )
        realized = active & probe_ok

        order = _arrival_order(t)
        walk, q = _walk(self.topo, order, probe_ok, active, self.topo.patience)
        return _chunk_result(walk, active, realized, q, detail)


def _vertex_order(t_e: np.ndarray, t_v: np.ndarray, online: np.ndarray) -> np.ndarray:
    """Edge arrival order per trial when online vertices arrive.

    Sorts by the online endpoint's time, then its position, then the edge's
    time, then the edge's position.  The edges are put in arrival order, and
    then stably in the arrival rank of their online endpoint, which breaks
    vertex-time ties by position; that rank has the narrowest unsigned dtype,
    so its stable sort is a radix sort.  As in every scheme, the walk
    matches in this order and counts Q(e) by it.
    """
    nv = t_v.shape[1]
    rank_dtype = np.min_scalar_type(max(nv - 1, 0))
    rank = np.empty(t_v.shape, dtype=rank_dtype)
    np.put_along_axis(rank, _arrival_order(t_v), np.arange(nv, dtype=rank_dtype)[None, :], axis=1)
    by_edge = _arrival_order(t_e)
    by_vertex = np.argsort(np.take_along_axis(rank, online[by_edge], axis=1), axis=1, kind="stable")
    return np.take_along_axis(by_edge, by_vertex, axis=1)


class VertexArrivalEngine:
    """Edge arrivals grouped by online-vertex arrival.

    Processes edges in lexicographic order of (online endpoint's arrival
    time, edge arrival time); the acceptance coin uses exp(-x_e * t_e),
    independent of the vertex time.
    """

    def __init__(self, inst: PricingInstance, x: dict[str, float]):
        self.topo = _Topology(inst)
        sides = {v.id: v.side for v in inst.vertices}
        if any(s not in ("offline", "online") for s in sides.values()):
            raise ValueError("vertex-arrival engine needs side tags on every vertex")
        for edg in inst.edges:
            if {sides[edg.u], sides[edg.v]} != {"offline", "online"}:
                raise ValueError(f"edge {edg.id} does not cross the bipartition")
        self.online_of_edge = np.array(
            [
                self.topo.inst.vertex_pos[edg.u if sides[edg.u] == "online" else edg.v]
                for edg in inst.edges
            ],
            dtype=np.intp,
        )
        self.x = self.topo.x_vector(x)

    def run_chunk(self, seed: int, start: int, count: int, detail: bool = False):
        e, nv = self.topo.n_edges, self.topo.n_vertices
        trials = np.arange(start, start + count, dtype=np.uint64)[:, None]
        units = np.arange(e, dtype=np.uint64)[None, :]
        vunits = (np.arange(nv, dtype=np.uint64) + np.uint64(e))[None, :]
        t_e, u_active, u_coin = hash_uniform(seed, trials, units, (ARRIVAL, ACTIVE, COIN))
        t_v = hash_uniform(seed, trials, vunits, ARRIVAL)
        active = u_active < self.x[None, :]
        realized = active & (u_coin < np.exp(-self.x[None, :] * t_e))

        order = _vertex_order(t_e, t_v, self.online_of_edge)
        walk, q = _walk(self.topo, order, realized, active)
        return _chunk_result(walk, active, realized, q, detail)


class SequentialPricingEngine:
    """Price-posting walk over a fractional menu solution.

    Each edge samples one price from its menu distribution up front (or no
    offer, with the leftover mass).  An arriving edge with a price proposes
    when both endpoints are free and patient and its attenuation coin
    succeeds; the proposal spends patience on both sides and is accepted
    with the menu probability of the sampled price.
    """

    def __init__(
        self,
        inst: PricingInstance,
        point: FractionalPoint,
        spec: AttenuationSpec,
        objective: str = "revenue",
    ):
        bad = fractional_point_violations(point, inst)
        if bad:
            raise ValueError(f"infeasible menu solution: {bad[0]}")
        self.topo = _Topology(inst)
        e = self.topo.n_edges
        coeffs = objective_coefficients(inst, objective)
        width = max((len(edg.menu) for edg in inst.edges), default=1)
        self.menu_y = np.zeros((e, width))
        self.menu_p = np.zeros((e, width))
        self.menu_r = np.zeros((e, width))  # reward paid on acceptance
        for i, edg in enumerate(inst.edges):
            for k, entry in enumerate(edg.menu):
                self.menu_y[i, k] = point.y.get((edg.id, entry.w), 0.0)
                self.menu_p[i, k] = entry.p
                c = coeffs[edg.id][k]
                self.menu_r[i, k] = c / entry.p if entry.p > 0 else 0.0
        self.x = self.topo.x_vector(marginals(point, inst)[0])
        self.spec = spec
        # s_e from the induced marginals, for the a2 profile
        d = np.array([self.x[nb].sum() if nb.size else 0.0 for nb in inst.neighbors])
        self.s = 2.0 - d - self.x

    def run_chunk(self, seed: int, start: int, count: int, detail: bool = False):
        e = self.topo.n_edges
        trials = np.arange(start, start + count, dtype=np.uint64)[:, None]
        units = np.arange(e, dtype=np.uint64)[None, :]
        t, u_price, u_accept, u_coin = hash_uniform(
            seed, trials, units, (ARRIVAL, PRICE, ACTIVE, COIN)
        )
        propose_ok = u_coin < attenuation_profile(self.spec, t, self.x[None, :], self.s[None, :])

        # inverse-CDF menu draw; a draw at or beyond the total menu mass
        # means no offer this trial
        cum = np.cumsum(self.menu_y, axis=1)
        have = u_price < cum[:, -1][None, :]
        acc_p = np.zeros((count, e))
        reward = np.zeros((count, e))
        for i in range(e):
            pos = np.searchsorted(cum[i], u_price[:, i], side="right")
            pos = np.minimum(pos, self.menu_y.shape[1] - 1)
            acc_p[:, i] = np.where(have[:, i], self.menu_p[i, pos], 0.0)
            reward[:, i] = np.where(have[:, i], self.menu_r[i, pos], 0.0)

        would_accept = u_accept < acc_p
        go = have & propose_ok
        realized = go & would_accept

        order = _arrival_order(t)
        walk, q = _walk(self.topo, order, go, would_accept, self.topo.patience, reward)
        return _chunk_result(walk, realized, realized, q, detail)


# --------------------------------------------------------------------------
# Monte-Carlo aggregation
# --------------------------------------------------------------------------

def monte_carlo(
    engine,
    trials: int,
    master_seed: int,
    chunk_size: int = 2048,
    workers: int | None = None,
) -> SimulationReport:
    """Aggregate `trials` independent trials into a report.

    Per-trial streams are keyed by the absolute trial index, and reduction
    walks chunks in index order with integer counters.  Revenue is summed
    over fixed blocks of `_BLOCK_TRIALS` trial indices (numpy's sum within a
    block, `math.fsum` across blocks), so the report is bit-identical for
    any worker count or chunk size.  The sums are taken in units of a power
    of two at or above the largest menu reward, which is exact and keeps
    every square finite; a sum that still overflows raises ValueError.

    A chunk holds at most `chunk_size` trials (2048 by default, which keeps
    a chunk's arrays near the cache), and fewer on wide instances, so that
    no stacked draw of four (trials, edges) float arrays passes 64 MiB.
    `workers=None` means 1.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    n_edges = len(engine.topo.edge_ids)
    chunk = max(1, min(chunk_size, _CHUNK_CELLS // (4 * max(n_edges, 1))))
    # revenue is summed in units of 2**shift, at or above the largest menu
    # reward (only the pricing engine pays any)
    shift = math.frexp(float(np.max(np.abs(getattr(engine, "menu_r", 0.0)), initial=0.0)))[1]
    jobs = [(s, min(chunk, trials - s)) for s in range(0, trials, chunk)]

    def work(job):
        s, n = job
        return engine.run_chunk(master_seed, s, n)

    matched = np.zeros(n_edges, dtype=np.int64)
    r0 = np.zeros(n_edges, dtype=np.int64)
    r1 = np.zeros(n_edges, dtype=np.int64)
    block = np.empty(min(trials, _BLOCK_TRIALS))  # revenues of the block being filled
    filled, sums, sqsums = 0, [], []
    parallel = workers is not None and workers > 1 and len(jobs) > 1
    with ThreadPoolExecutor(max_workers=workers) if parallel else nullcontext() as pool:
        for res in pool.map(work, jobs) if parallel else map(work, jobs):
            matched += res.matched
            r0 += res.r0
            r1 += res.r1
            rev = res.revenue
            while rev.size:
                size = min(block.size, trials - _BLOCK_TRIALS * len(sums))
                take = min(size - filled, rev.size)
                block[filled : filled + take] = rev[:take]
                filled, rev = filled + take, rev[take:]
                if filled == size:
                    full = np.ldexp(block[:size], -shift)
                    sums.append(float(full.sum()))
                    sqsums.append(float((full * full).sum()))
                    filled = 0
    rev_sum, rev_sqsum = math.fsum(sums), math.fsum(sqsums)
    if not (math.isfinite(rev_sum) and math.isfinite(rev_sqsum)):
        raise ValueError("a trial's revenue is not a finite number")

    edges = []
    min_ratio = math.inf
    for i, eid in enumerate(engine.topo.edge_ids):
        freq = matched[i] / trials
        lo, hi = wilson_interval(int(matched[i]), trials)
        xr = float(engine.x[i])
        ratio = freq / xr if xr > 0 else math.nan
        if xr > 0:
            min_ratio = min(min_ratio, ratio)
        edges.append(
            EdgeReport(
                edge_id=eid,
                x_ref=xr,
                matched=int(matched[i]),
                r0=int(r0[i]),
                r1=int(r1[i]),
                freq=freq,
                ci_lo=lo,
                ci_hi=hi,
                freq_r0=r0[i] / trials,
                freq_r1=r1[i] / trials,
                ratio=ratio,
            )
        )
    mean = rev_sum / trials
    if trials > 1:
        var = max(0.0, (rev_sqsum - trials * mean * mean) / (trials - 1))
        rev_ci = Z99 * math.sqrt(var / trials)
    else:
        rev_ci = 0.0
    try:
        mean, rev_ci = math.ldexp(mean, shift), math.ldexp(rev_ci, shift)
    except OverflowError:
        raise ValueError("the revenue interval overflows the float range") from None
    return SimulationReport(
        trials=trials,
        master_seed=master_seed,
        edges=tuple(edges),
        min_ratio=min_ratio if min_ratio < math.inf else math.nan,
        revenue_mean=mean,
        revenue_ci=rev_ci,
    )


# --------------------------------------------------------------------------
# exact oracles
# --------------------------------------------------------------------------

def exact_trivial_oracle(x: dict[str, float], inst: PricingInstance) -> dict[str, float]:
    """Exact match probabilities for the no-attenuation scheme.

    Equivalent to summing over every arrival order and active subset: the
    recursion draws the first arrival uniformly among remaining edges and
    branches on its activity.
    """
    edges = inst.edges
    m = len(edges)
    if m > 10:
        raise ValueError(f"exact oracle supports at most 10 edges, got {m}")
    vpos = inst.vertex_pos
    uv = [(vpos[e.u], vpos[e.v]) for e in edges]
    xs = [float(x.get(e.id, 0.0)) for e in edges]
    full = (1 << m) - 1

    @lru_cache(maxsize=None)
    def rec(rem: int, matched_v: int) -> tuple[float, ...]:
        if rem == 0:
            return (0.0,) * m
        k = bin(rem).count("1")
        acc = [0.0] * m
        w = 1.0 / k
        r = rem
        while r:
            low = r & -r
            i = low.bit_length() - 1
            r ^= low
            ui, vi = uv[i]
            free = not (matched_v >> ui & 1) and not (matched_v >> vi & 1)
            # inactive branch
            sub = rec(rem ^ low, matched_v)
            pi = xs[i]
            if pi < 1.0:
                wq = w * (1.0 - pi)
                for j in range(m):
                    acc[j] += wq * sub[j]
            if pi > 0.0:
                if free:
                    sub_a = rec(rem ^ low, matched_v | 1 << ui | 1 << vi)
                    wa = w * pi
                    acc[i] += wa
                    for j in range(m):
                        acc[j] += wa * sub_a[j]
                else:
                    wa = w * pi
                    for j in range(m):
                        acc[j] += wa * sub[j]
        return tuple(acc)

    probs = rec(full, 0)
    rec.cache_clear()
    return {e.id: probs[i] for i, e in enumerate(edges)}


def optimal_policy_dp(inst: PricingInstance, objective: str | None = None) -> float:
    """Exact optimum over adaptive probe policies (order, prices, stopping).

    State is (set of probed edges, set of matched vertices); patience used
    at a vertex equals its probed incident edges, since a policy only ever
    probes edges whose endpoints are currently free.
    """
    if objective is None:
        objective = auto_objective(inst)
    options = [(i, k) for i, e in enumerate(inst.edges) for k in range(len(e.menu))]
    if len(options) > 12:
        est = 2 ** len(inst.edges) * 2 ** len(inst.vertices)
        raise ValueError(
            f"instance too large for exact policy optimum: {len(options)} probe "
            f"options, state space on the order of {est}"
        )
    coeffs = objective_coefficients(inst, objective)
    vpos = inst.vertex_pos
    edges = inst.edges
    uv = [(vpos[e.u], vpos[e.v]) for e in edges]
    inc_mask = [0] * len(inst.vertices)
    for i, e in enumerate(edges):
        inc_mask[vpos[e.u]] |= 1 << i
        inc_mask[vpos[e.v]] |= 1 << i
    pat = [v.patience for v in inst.vertices]

    @lru_cache(maxsize=None)
    def value(offered: int, matched_v: int) -> float:
        best = 0.0
        for i, e in enumerate(edges):
            if offered >> i & 1:
                continue
            ui, vi = uv[i]
            if matched_v >> ui & 1 or matched_v >> vi & 1:
                continue
            used_u = bin(offered & inc_mask[ui]).count("1")
            used_v = bin(offered & inc_mask[vi]).count("1")
            if pat[ui] is not None and used_u >= pat[ui]:
                continue
            if pat[vi] is not None and used_v >= pat[vi]:
                continue
            for k, entry in enumerate(e.menu):
                c = coeffs[e.id][k]
                r = c / entry.p if entry.p > 0 else 0.0
                nxt_offered = offered | 1 << i
                val = entry.p * (r + value(nxt_offered, matched_v | 1 << ui | 1 << vi))
                val += (1.0 - entry.p) * value(nxt_offered, matched_v)
                if val > best:
                    best = val
        return best

    out = value(0, 0)
    value.cache_clear()
    return out


def greedy_baseline(
    inst: PricingInstance, rule: str, objective: str | None = None
) -> float:
    """Expected value of probing (edge, price) options in a fixed sorted order.

    ``by_weight`` sorts by price descending, ``by_expected_weight`` by
    price*probability descending; ties break on edge id then menu position.
    A probe spends its edge — later options on the same edge are skipped.
    """
    if rule not in ("by_weight", "by_expected_weight"):
        raise ValueError(f"unknown greedy rule: {rule!r}")
    if objective is None:
        objective = auto_objective(inst)
    coeffs = objective_coefficients(inst, objective)
    vpos = inst.vertex_pos
    edges = inst.edges
    options = []
    for i, e in enumerate(edges):
        for k, entry in enumerate(e.menu):
            sort_key = entry.w if rule == "by_weight" else entry.w * entry.p
            options.append((-sort_key, e.id, k, i))
    options.sort()
    inc_mask = [0] * len(inst.vertices)
    for i, e in enumerate(edges):
        inc_mask[vpos[e.u]] |= 1 << i
        inc_mask[vpos[e.v]] |= 1 << i
    pat = [v.patience for v in inst.vertices]
    uv = [(vpos[e.u], vpos[e.v]) for e in edges]

    @lru_cache(maxsize=None)
    def walk(pos: int, spent: int, matched_v: int) -> float:
        if pos == len(options):
            return 0.0
        _, _, k, i = options[pos]
        e = edges[i]
        ui, vi = uv[i]
        feasible = not (spent >> i & 1)
        feasible &= not (matched_v >> ui & 1) and not (matched_v >> vi & 1)
        if feasible and pat[ui] is not None:
            feasible &= bin(spent & inc_mask[ui]).count("1") < pat[ui]
        if feasible and pat[vi] is not None:
            feasible &= bin(spent & inc_mask[vi]).count("1") < pat[vi]
        if not feasible:
            return walk(pos + 1, spent, matched_v)
        entry = e.menu[k]
        c = coeffs[e.id][k]
        r = c / entry.p if entry.p > 0 else 0.0
        nxt = spent | 1 << i
        val = entry.p * (r + walk(pos + 1, nxt, matched_v | 1 << ui | 1 << vi))
        val += (1.0 - entry.p) * walk(pos + 1, nxt, matched_v)
        return val

    out = walk(0, 0, 0)
    walk.cache_clear()
    return out
