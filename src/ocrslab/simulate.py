"""Trial engines, Monte-Carlo aggregation, and exact small-instance oracles.

The four online schemes are one attenuated greedy walk that differs only in
its coins, and an engine only draws them.  ``_draw`` is the one front end.
An engine names a gating coin and a per-edge bound that every go cell's
gating draw lies below: the activity coin for RO and vertex arrival, the
probe coin (below y * a(0)) for probing, the price draw (below the menu
mass) for pricing.  A chunk is drawn in two passes.  The gate pass hashes
only the gating purpose, one row block of about ``_BLOCK_CELLS`` (trial,
edge) cells at a time, into two uint64 scratch arrays of one block; it
compares the hash word, before its last mixing step, with a per-edge limit
derived from the bound, and forms uniforms on the kept candidate cells
alone.  The coin pass pools consecutive blocks' candidates into batches of
up to ``_BLOCK_CELLS // 4`` cells, and draws the engine's other purposes, its
coins and, for vertex arrival, the online vertex's time once per batch, so
a wide chunk whose gate fails on most cells makes few numpy calls on few
cells.  The counter-based stream keys every draw by (seed, trial, unit,
purpose), so neither the blocks, the batches nor the worker count can
change a trial.  A reduced chunk keeps its go cells, the only ones that can
change the walk; a detail chunk gates every cell in, so the same code yields
all its per-cell arrays.  The kept cells are sorted once by trial and
arrival: a plain sort of packed uint64 keys (53-bit time, 11-bit edge
position), then stable sorts of the online vertex's position and time for
vertex arrival, and of the trial.
One tail, ``_walk``, walks the sorted cells and reduces the chunk or
returns its per-cell arrays: each trial's cells are its steps, and an edge
proposes when its coins allow ("go") and both endpoints are free (and
patient), and is matched when the proposal is accepted.  A trial's walk
state takes one of two forms, fixed by the instance.  With E <= 64 edges it
is uint64 words, the trial's realized, matched and probed edge sets, tested
against static per-edge neighbour masks and per-vertex incidence masks;
wider instances keep per-(trial, vertex) arrays.  A form only walks: it
returns the q, matched and probed records of the steps, and ``_walk``
derives revenue, the reduction (one ``bincount`` of the matched steps) and
a detail chunk's per-cell arrays and per-vertex probes from them, one rule
each.  The walk counts Q(e), the realized neighbours that arrive before e
in its own order, on every cell it visits: the word walk from its realized
edge set, the array walk (``_q_counts``) from counters of realized
arrivals per (trial, vertex) and, on a multigraph, per (trial, endpoint
pair).  The engines refuse an instance with a self-loop, as
``validate_instance`` does.
``monte_carlo`` aggregates chunks into a report.  By default a chunk is
sized by cells, about one front-end row block (2048 to 16384 trials, more
on fewer edges).  It cuts its chunks at the boundaries of fixed blocks of
trials and sums revenue block by block, so no report depends on the chunk
size.  A
report stores counts: each frequency, Wilson interval, half-width and ratio,
and the report's ``min_ratio``, derives from them in ``EdgeReport`` and
``SimulationReport``.  One trial replays as row 0 of
``engine.run_chunk(seed, trial, 1, detail=True)``.

The exact oracles are memoized bitmask recursions over tiny instances and
serve as ground truth for the statistical engines.  ``exact_trivial_oracle``
sums over arrival orders.  ``optimal_policy_dp`` and ``greedy_baseline`` share
one probe recursion, ``_probe_value``: the DP probes the best open option,
greedy the first open one in its sorted order.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import NamedTuple

import numpy as np

from ._rng import ACTIVE, ARRIVAL, COIN, PRICE, gate_limit, gate_uniforms, hash_uniform
from .attenuation import AttenuationSpec, attenuation_profile
from .graphcore import (
    EdgeStats,
    FractionalPoint,
    PricingInstance,
    check_polytope,
    fractional_point_violations,
    marginals,
    _neighbor_mass,
)
from .lp import auto_objective, objective_coefficients

# 99% two-sided normal quantile, used for every interval in the reports.
Z99 = 2.5758293035489004

# trials x (edges + vertices) x 4 <= _CHUNK_CELLS: a detail chunk's (trials,
# edges) arrays of 8-byte items stay <= 16 MiB, and the walk's per-(trial,
# vertex) arrays smaller
_CHUNK_CELLS = 2**23

# (trial, edge) cells per row block of the front end, whose gate words and
# hash temporaries stay near the L2 cache; a batch of the coin pass holds at
# most a quarter as many candidate cells (more only when one block does),
# so that its hash and coin temporaries take no more than a block's gate
_BLOCK_CELLS = 2**16

# the block of absolute trial indices whose revenues are summed together, so
# that chunking never changes a revenue sum
_BLOCK_TRIALS = 16384

# the fewest trials a derived chunk holds: each walk step is a few numpy
# calls over the chunk's trials, so a wide instance's chunk keeps this many
# although its row blocks hold fewer
_MIN_CHUNK = 2048

# edge positions take the low bits of an arrival sort key
_POS_BITS = 11


# --------------------------------------------------------------------------
# result containers
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class EdgeReport:
    """One edge's counts over `trials` trials: `matched`, and `r0` and `r1`,
    the matches with no and with exactly one realized neighbour arriving
    first.  Frequencies, the 99% Wilson interval and the ratio to `x_ref`
    derive from the counts."""

    edge_id: str
    x_ref: float
    trials: int
    matched: int
    r0: int
    r1: int

    @property
    def freq(self) -> float:
        return self.matched / self.trials

    @property
    def freq_r0(self) -> float:
        return self.r0 / self.trials

    @property
    def freq_r1(self) -> float:
        return self.r1 / self.trials

    @cached_property
    def _ci(self) -> tuple[float, float]:
        return wilson_interval(self.matched, self.trials)

    @property
    def ci_lo(self) -> float:
        return self._ci[0]

    @property
    def ci_hi(self) -> float:
        return self._ci[1]

    @property
    def ratio(self) -> float:
        """freq / x_ref; nan when x_ref is 0."""
        return self.freq / self.x_ref if self.x_ref > 0 else math.nan

    def half_width(self, field: str = "matched") -> float:
        """Half the Wilson interval of the count `field`."""
        lo, hi = self._ci if field == "matched" else wilson_interval(getattr(self, field), self.trials)
        return (hi - lo) / 2.0


@dataclass(frozen=True)
class SimulationReport:
    trials: int
    master_seed: int
    edges: tuple[EdgeReport, ...]
    revenue_mean: float
    revenue_ci: float

    @property
    def min_ratio(self) -> float:
        """The least edge ratio over edges with x_ref > 0; nan when there are none."""
        return min((er.ratio for er in self.edges if er.x_ref > 0), default=math.nan)


def wilson_interval(successes: int, trials: int) -> tuple[float, float]:
    """The 99% Wilson score interval; well behaved at frequencies near 0 and 1."""
    if trials <= 0:
        raise ValueError("trials must be positive")
    phat = successes / trials
    z2n = Z99 * Z99 / trials
    denom = 1.0 + z2n
    center = (phat + z2n / 2.0) / denom
    hw = Z99 * math.sqrt(phat * (1.0 - phat) / trials + z2n / (4.0 * trials)) / denom
    # clamp to [0, 1] and to phat: the interval is analytically inside both,
    # but sqrt rounding can leave an endpoint a few ulps on the wrong side
    return (max(0.0, min(center - hw, phat)), min(1.0, max(center + hw, phat)))


# --------------------------------------------------------------------------
# shared instance precomputation
# --------------------------------------------------------------------------

def _count_dtype(widest: int):
    """int16 when it holds every Q-count, else int32.

    A Q-count is at most `widest`, the largest deg_u + deg_v − 2; the walk's
    per-vertex and per-pair counters reach at most a vertex's degree, at most
    `widest` + 1.
    """
    return np.int16 if widest + 1 <= np.iinfo(np.int16).max else np.int32


class _Topology:
    """Index arrays shared by all chunk kernels, each of size O(E + |V|)."""

    def __init__(self, inst: PricingInstance):
        self.n_edges = len(inst.edges)
        self.n_vertices = len(inst.vertices)
        vpos = inst.vertex_pos
        self.u_idx = np.array([vpos[e.u] for e in inst.edges], dtype=np.intp)
        self.v_idx = np.array([vpos[e.v] for e in inst.edges], dtype=np.intp)
        self.edge_ids = tuple(e.id for e in inst.edges)
        ends = np.concatenate([self.u_idx, self.v_idx])
        self.degree = degree = np.bincount(ends, minlength=self.n_vertices)
        self.q_dtype = _count_dtype(int((degree[self.u_idx] + degree[self.v_idx] - 2).max(initial=0)))
        lo, hi = np.minimum(self.u_idx, self.v_idx), np.maximum(self.u_idx, self.v_idx)
        loops = np.flatnonzero(lo == hi)
        if loops.size:
            raise ValueError(f"edge {self.edge_ids[loops[0]]}: self-loop")
        # pair[e] indexes e's endpoint pair; None when no two edges share one
        pairs, self.pair = np.unique(lo * self.n_vertices + hi, return_inverse=True)
        if pairs.size == self.n_edges:
            self.pair = None
        # a vertex spends at most one patience unit per incident edge, so a
        # budget of its degree never binds: unbounded and huge budgets store
        # the degree, and every budget fits the int32 walk counters
        cap = degree.tolist()
        self.patience = np.array(
            [c if v.patience is None else min(v.patience, c) for v, c in zip(inst.vertices, cap)],
            dtype=np.int32,
        )
        # with at most 64 edges a trial's edge sets fit one uint64 word:
        # nbr_bits[e] holds e's neighbours and inc_bits[v] the edges at v
        self.nbr_bits = self.inc_bits = None
        if self.n_edges <= 64:
            bits = np.left_shift(np.uint64(1), np.arange(self.n_edges, dtype=np.uint64))
            self.inc_bits = np.zeros(self.n_vertices, dtype=np.uint64)
            np.bitwise_or.at(self.inc_bits, ends, np.tile(bits, 2))
            self.nbr_bits = (self.inc_bits[self.u_idx] | self.inc_bits[self.v_idx]) & ~bits

    def x_vector(self, x: dict[str, float]) -> np.ndarray:
        return np.array([x.get(eid, 0.0) for eid in self.edge_ids], dtype=float)


def _rewards(inst: PricingInstance, objective: str) -> list[list[float]]:
    """What an accepted offer pays, c/p per menu entry of each edge (0 when p = 0)."""
    coeffs = objective_coefficients(inst, objective)
    return [
        [c / entry.p if entry.p > 0 else 0.0 for c, entry in zip(coeffs[e.id], e.menu)]
        for e in inst.edges
    ]

def _q_counts(arrived: np.ndarray, fu, fv, fp, here) -> np.ndarray:
    """One step of the array walk's Q rule, on flat indices into `arrived`:
    returns the step's Q(e), then adds its realized arrivals (`here`).

    `arrived` counts the realized arrivals so far at each (trial, vertex)
    at `fu` and `fv`, and on a multigraph at each (trial, endpoint pair) at
    `fp` (None on a simple graph).  Q(e) is the count at u − the count of
    e's pair + the count at v: a parallel copy of e sits at both endpoints,
    so it is counted twice and taken back once.  Every partial sum stays at
    most Q(e), so the `q_dtype` counts cannot wrap."""
    q = arrived[fu]
    if fp is not None:
        q -= arrived[fp]
        arrived[fp[here]] += 1
    q += arrived[fv]
    arrived[fu[here]] += 1
    arrived[fv[here]] += 1
    return q


class _Cells(NamedTuple):
    """A chunk's kept cells in walk order: by trial (its row in the chunk),
    then by arrival."""

    trial: np.ndarray
    edge: np.ndarray
    go: np.ndarray
    accept: np.ndarray
    reward: np.ndarray | None


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


def _reduce_chunk(e: int, steps, q, matched, revenue) -> _ChunkCounts:
    """A reduced chunk of `e` edges from its walk's (steps, trials) records:
    each match counted under its edge and its class, r0, r1 or neither
    (boolean indexing of 2-d arrays is slow)."""
    cells = np.flatnonzero(matched)
    key = steps.ravel().take(cells) + np.minimum(q.ravel().take(cells), 2).astype(np.intp) * e
    r0, r1, rest = np.bincount(key, minlength=3 * e).reshape(3, e)
    return _ChunkCounts(r0 + r1 + rest, r0, r1, revenue)


def _walk(topo: _Topology, cells: _Cells, count: int, detail: bool, patience=None):
    """The greedy walk every scheme shares, over a chunk's kept cells: the
    chunk's `_ChunkCounts`, or with `detail` its `_ChunkDetail`.

    Trial i's cells are its steps, in order: an arriving edge proposes when
    its `go` holds and both endpoints are free.  Given per-vertex
    `patience`, it also needs patience left at both endpoints, and its
    proposal spends one unit at each and is marked probed.  A proposal is
    matched when `accept` also holds, and a match adds its `reward` to the
    trial's revenue.  An edge whose go fails never proposes, spends nothing
    and is never realized, so a reduced chunk keeps its go cells alone; a
    trial with fewer than the busiest trial's k steps is padded with steps
    whose go fails.

    The walk also counts Q(e) on the cells it visits: the number of e's
    neighbours that are realized (`go` and `accept` both hold) and visited
    before e, a parallel edge counted once.  Realized cells are go cells, so
    Q is exact on every kept cell.

    A trial's state takes one of two forms, chosen by the instance alone.
    With at most 64 edges, `_walk_bits` keeps each trial's realized, matched
    and probed edges as the bits of uint64 words; otherwise `_walk_bools`
    keeps per-(trial, vertex) arrays.  A form only walks: it takes (k,
    trials) step arrays, step j of trial i being edge steps[j, i], and
    returns q, matched and probed as step arrays of the same shape.  Here
    revenue is summed step by step, a reduced chunk goes to
    `_reduce_chunk`, and a detail chunk keeps every cell, so its step
    records scatter into (trials, edges) arrays.  Its active cells are its
    accepted ones, its realized cells those where `go` and `accept` both
    hold, and a vertex's probes are the kept probed cells at it.
    """
    per = np.bincount(cells.trial, minlength=count)
    k = int(per.max(initial=0))
    rank = np.arange(cells.trial.size) - np.repeat(np.cumsum(per) - per, per)
    at = rank * count + cells.trial

    def steps_of(a):
        s = np.zeros((k, count), dtype=a.dtype)
        s.ravel()[at] = a
        return s

    steps = steps_of(cells.edge)
    form = _walk_bits if topo.nbr_bits is not None else _walk_bools
    q, matched, probed = form(topo, steps, steps_of(cells.go), steps_of(cells.accept), patience, detail)
    revenue = np.zeros(count)
    if cells.reward is not None:
        # adding 0.0 leaves every sum as it was, since one that starts at
        # +0.0 is never -0.0, so this is the walk's sum in arrival order
        for win, r in zip(matched, steps_of(cells.reward)):
            revenue += np.where(win, r, 0.0)
    if not detail:
        return _reduce_chunk(topo.n_edges, steps, q, matched, revenue)
    e, nv = topo.n_edges, topo.n_vertices
    flat = cells.trial * e + cells.edge

    def dense(a, dtype=None):
        out = np.empty(count * e, dtype=dtype or a.dtype)
        out[flat] = a
        return out.reshape(count, e)

    # a padded step is no kept cell, so only kept cells count probes
    probed = probed.ravel().take(at)
    edge, trial = cells.edge[probed], cells.trial[probed] * nv
    ends = np.concatenate([trial + topo.u_idx.take(edge), trial + topo.v_idx.take(edge)])
    probes = np.bincount(ends, minlength=count * nv).astype(np.int32).reshape(count, nv)
    return _ChunkDetail(
        dense(cells.accept), dense(cells.go & cells.accept), dense(probed),
        dense(matched.ravel().take(at)), dense(q.ravel().take(at), topo.q_dtype), revenue, probes,
    )


def _walk_bits(topo: _Topology, steps, go, accept, patience, detail: bool):
    """The walk over edge sets held as uint64 words, one word per trial.

    Bit f of a word is edge f, so a step gathers only its edges' static
    masks.  An edge is free when none of its neighbours is matched,
    ``matched_b & nbr_bits[e] == 0``, and a vertex has patience left while
    fewer of its edges are probed than its budget,
    ``bitwise_count(probed_b & inc_bits[v]) < patience[v]``.  A word takes a
    step's bit after the step's masks have cleared it (``bit *= mask``), a
    third of the cost of a ``where=`` ufunc (5 against 18 us per 2048 trials
    on a 2-vCPU x86-64 host).  Q(e) is
    ``bitwise_count(realized_b & nbr_bits[e])`` over the realized edges of
    the earlier steps; it is exact on every visited cell, parallel edges
    included, since a neighbour is one bit.  Each step gathers its masks
    afresh rather than all of them up front: whole (steps, trials) uint64
    arrays grew the heap past glibc's trim threshold, and every chunk then
    paid its page faults again.  Returns (q, matched, probed) step arrays;
    probed, each step's edge's bit of the final probed word, is None unless
    `detail` is set.
    """
    count = steps.shape[1]
    bits = np.left_shift(np.uint64(1), np.arange(topo.n_edges, dtype=np.uint64))
    # a budget of at least its vertex's degree never binds, so each endpoint
    # side is checked only if one of its budgets can; without `detail` no
    # probed edges are returned, so without a binding budget the walk runs
    # as if unbounded
    ends = []
    if patience is not None:
        binds = patience < topo.degree
        ends = [(topo.inc_bits[x], patience[x]) for x in (topo.u_idx, topo.v_idx) if binds[x].any()]
    probe = patience is not None and (ends or detail)
    real = go & accept
    realized_b, matched_b, probed_b = np.zeros((3, count), dtype=np.uint64)
    q_s = np.empty(steps.shape, dtype=np.uint8)
    win_s = np.empty(steps.shape, dtype=bool)
    for j, ep in enumerate(steps):
        # `bit` is this step's edge's bit while the edge is still in the
        # running (realized; goes, proposes, accepted) and 0 once it is not
        nb, bit = topo.nbr_bits.take(ep), bits.take(ep)
        np.bitwise_count(realized_b & nb, out=q_s[j])
        free = (matched_b & nb) == 0  # both endpoints are
        if probe:
            realized_b |= bit * real[j]
            for inc, budget in ends:
                free &= np.bitwise_count(probed_b & inc.take(ep)) < budget.take(ep)
            bit *= free & go[j]
            probed_b |= bit
            bit *= accept[j]
        else:
            bit *= real[j]
            realized_b |= bit
            bit *= free
        matched_b |= bit
        np.not_equal(bit, 0, out=win_s[j])
    return q_s, win_s, (probed_b & bits.take(steps)) != 0 if detail else None


def _walk_bools(topo: _Topology, steps, go, accept, patience, detail: bool):
    """The walk over per-(trial, vertex) arrays, for instances wider than a word.

    Counters of realized arrivals per (trial, vertex), and on a multigraph
    per (trial, endpoint pair) after them in the same array, give Q(e) at
    each step (`_q_counts`).  Vertex arrays are read and written through
    flat (trial * |V| + vertex) indices.  Returns (q, matched, probed) step
    arrays.
    """
    count = steps.shape[1]
    nv = topo.n_vertices
    base_v = np.arange(count) * nv
    win_s = np.zeros(steps.shape, dtype=bool)
    probed_s = np.zeros(steps.shape, dtype=bool)
    q = np.empty(steps.shape, dtype=topo.q_dtype)
    taken = np.zeros(count * nv, dtype=bool)  # matched vertices
    n_pairs = 0 if topo.pair is None else int(topo.pair.max()) + 1
    arrived = np.zeros(count * (nv + n_pairs), dtype=topo.q_dtype)
    base_p = count * nv + np.arange(count) * n_pairs
    if patience is not None:
        pat = np.tile(patience, count)
    for j, ep in enumerate(steps):
        fu = base_v + topo.u_idx[ep]
        fv = base_v + topo.v_idx[ep]
        g, acc = go[j], accept[j]
        fp = None if topo.pair is None else base_p + topo.pair[ep]
        q[j] = _q_counts(arrived, fu, fv, fp, g & acc)
        propose = g & ~taken[fu] & ~taken[fv]
        if patience is not None:
            propose &= (pat[fu] > 0) & (pat[fv] > 0)
            probed_s[j] = propose
            pat[fu[propose]] -= 1
            pat[fv[propose]] -= 1
        win = np.logical_and(propose, acc, out=win_s[j])
        taken[fu[win]] = True
        taken[fv[win]] = True
    return q, win_s, probed_s


def _draw(engine, seed: int, start: int, count: int, detail: bool) -> _Cells:
    """The engine's go cells of trials start .. start + count (every cell,
    with `detail`), sorted into walk order.

    Two passes draw them.  The gate pass runs once per row block of
    ``_BLOCK_CELLS // E`` trials: with ``engine.gate = (purpose, bound)``,
    ``gate_uniforms`` hashes that purpose on every cell of the block, into
    scratch words allocated once per chunk, and keeps a candidate wherever
    the word is at most ``gate_limit(bound)``, with its uniform.  Every cell
    whose uniform lies below its edge's bound is a candidate; every cell of
    a detail chunk is one.  The coin pass runs once per batch: consecutive
    blocks' candidates are pooled until the next block would push the batch
    past ``_BLOCK_CELLS // 4`` cells, and a block over that on its own is a
    batch alone.  It draws the engine's other `purposes` on the batch, and
    ``engine._coins(seed, trial, edge, u_gate, *u)`` turns them, with each
    cell's absolute uint64 trial and its edge, into ``(go, accept, reward,
    keys)`` per cell; reward may be None.  A gate holds on every go cell,
    so a reduced chunk keeps its go cells and loses none, and a candidate
    whose gating uniform is not below its bound never goes.  The kept cells
    are sorted once by trial and then by `keys`, most significant first;
    the last key is the edge's arrival time, whose ties break by edge
    position.
    """
    n_edges = engine.topo.n_edges
    width = max(n_edges, 1)
    purpose, bound = engine.gate
    # a bound of 1 keeps every cell, as a detail chunk does
    limit = gate_limit(1.0 if detail else bound)
    units = np.arange(n_edges, dtype=np.uint64)
    block = max(1, _BLOCK_CELLS // width)
    scratch = np.empty((2, min(block, count) * n_edges), dtype=np.uint64)
    parts, batch = [], []

    def coin_pass():
        # the batch's lists are freed before its coins are drawn, and a
        # one-block batch is not copied
        flat, u_gate = (a[0] if len(a) == 1 else np.concatenate(a) for a in zip(*batch))
        batch.clear()
        rows, edge = np.divmod(flat, width)
        trial = rows.astype(np.uint64) + np.uint64(start)
        go, accept, reward, keys = engine._coins(
            seed, trial, edge, u_gate, *hash_uniform(seed, trial, edge, engine.purposes)
        )
        keep = slice(None) if detail else np.flatnonzero(go)
        parts.append([a if a is None else a[keep] for a in (rows, edge, go, accept, reward, *keys)])

    for s in range(0, count, block):
        trials = np.arange(start + s, start + min(s + block, count), dtype=np.uint64)
        cells, u = gate_uniforms(seed, trials, units, purpose, limit, scratch)
        if batch and sum(f.size for f, _ in batch) + cells.size > _BLOCK_CELLS // 4:
            coin_pass()
        batch.append((cells + s * width, u))
    del scratch  # the last batch and the sort run without the gate words
    coin_pass()
    trial, edge, go, accept, reward, *keys = (
        f[0] if f[0] is None or len(f) == 1 else np.concatenate(f) for f in zip(*parts)
    )
    *major, t = keys
    if n_edges <= 1 << _POS_BITS:
        # each time is k * 2**-53 with k a 53-bit integer, so it packs with
        # its edge position into the key (k << 11) | position, unique within
        # a trial: a plain sort of the keys orders by time, ties by position
        key = (t * 2.0**53).astype(np.uint64)
        key <<= np.uint64(_POS_BITS)
        key |= edge.astype(np.uint64)
        by = np.argsort(key)
    else:
        # the cells are listed by trial, then edge, so a stable sort breaks
        # time ties by position
        by = np.argsort(t, kind="stable")
    for k in reversed(major):
        by = by.take(np.argsort(k.take(by), kind="stable"))
    # a stable sort of the trials in their narrowest dtype is a radix sort
    narrow = trial.astype(np.min_scalar_type(max(count - 1, 0)))
    by = by.take(np.argsort(narrow.take(by), kind="stable"))
    return _Cells(*(a if a is None else a.take(by) for a in (trial, edge, go, accept, reward)))


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
        fit = check_polytope(x, inst)
        if not fit.ok:
            raise ValueError(f"x lies outside the matching polytope at {fit.worst} (excess {fit.excess:.3g})")
        self.topo = _Topology(inst)
        self.x = self.topo.x_vector(x)
        self.s = np.array([stats[eid].s for eid in self.topo.edge_ids], dtype=float)
        self.spec = spec
        # a go cell is active: its activity coin gates it
        self.gate = (ACTIVE, self.x)

    purposes = (ARRIVAL, COIN)

    def run_chunk(self, seed: int, start: int, count: int, detail: bool = False):
        return _walk(self.topo, _draw(self, seed, start, count, detail), count, detail)

    def _coins(self, seed, trial, edge, u_active, t, u_coin):
        x = self.x.take(edge)
        active = u_active < x
        realized = active & (u_coin < attenuation_profile(self.spec, t, x, self.s.take(edge)))
        return realized, active, None, (t,)


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
        if not ((self.y >= 0) & (self.y <= 1) & (self.p >= 0) & (self.p <= 1)).all():
            raise ValueError("y and p must lie in [0, 1]")
        # The per-vertex probe budget sum(y) <= patience is the analysis-side
        # feasibility condition, not a runtime requirement: the engine caps
        # probes dynamically, and overloaded inputs are legitimate ways to
        # exercise exactly that cap.  Only the marginal load is hard-checked.
        self.x = self.y * self.p
        fit = check_polytope(dict(zip(self.topo.edge_ids, self.x.tolist())), inst)
        if not fit.ok:
            raise ValueError(f"vertex {fit.worst}: marginal load exceeds 1 by {fit.excess:.3g}")
        self.s = np.array([stats[eid].s for eid in self.topo.edge_ids], dtype=float)
        self.spec = spec
        # a go cell's probe coin lies below y * a(t) <= y * a(0): exp(-t*x)
        # is at most 1.0 = exp(-0*x), and rounding a product is monotone in
        # each non-negative factor, so every factor and product at t keeps
        # at or below its value at t = 0
        self.gate = (COIN, self.y * attenuation_profile(spec, np.zeros_like(self.x), self.x, self.s))

    purposes = (ARRIVAL, ACTIVE)

    def run_chunk(self, seed: int, start: int, count: int, detail: bool = False):
        cells = _draw(self, seed, start, count, detail)
        return _walk(self.topo, cells, count, detail, self.topo.patience)

    def _coins(self, seed, trial, edge, u_coin, t, u_active):
        probe_ok = u_coin < (
            self.y.take(edge) * attenuation_profile(self.spec, t, self.x.take(edge), self.s.take(edge))
        )
        return probe_ok, u_active < self.p.take(edge), None, (t,)


class VertexArrivalEngine:
    """Edge arrivals grouped by online-vertex arrival.

    Processes edges in lexicographic order of (online endpoint's arrival
    time, its position, edge arrival time, edge position); the acceptance
    coin uses exp(-x_e * t_e), independent of the vertex time.
    """

    def __init__(self, inst: PricingInstance, x: dict[str, float]):
        fit = check_polytope(x, inst)
        if not fit.ok:
            raise ValueError(f"x lies outside the matching polytope at {fit.worst} (excess {fit.excess:.3g})")
        self.topo = _Topology(inst)
        sides = {v.id: v.side for v in inst.vertices}
        if any(s not in ("offline", "online") for s in sides.values()):
            raise ValueError("vertex-arrival engine needs side tags on every vertex")
        for edg in inst.edges:
            if {sides[edg.u], sides[edg.v]} != {"offline", "online"}:
                raise ValueError(f"edge {edg.id} does not cross the bipartition")
        vpos = inst.vertex_pos
        # in the narrowest dtype, whose stable sort is a radix sort
        self.online_of_edge = np.array(
            [vpos[edg.u if sides[edg.u] == "online" else edg.v] for edg in inst.edges],
            dtype=np.min_scalar_type(max(len(inst.vertices) - 1, 0)),
        )
        self.x = self.topo.x_vector(x)
        # a go cell is active: its activity coin gates it
        self.gate = (ACTIVE, self.x)

    purposes = (ARRIVAL, COIN)

    def run_chunk(self, seed: int, start: int, count: int, detail: bool = False):
        return _walk(self.topo, _draw(self, seed, start, count, detail), count, detail)

    def _coins(self, seed, trial, edge, u_active, t_e, u_coin):
        x = self.x.take(edge)
        active = u_active < x
        realized = active & (u_coin < np.exp(-x * t_e))
        # online vertices arrive at the units after the edges
        online = self.online_of_edge.take(edge)
        t_v = hash_uniform(seed, trial, online + np.uint64(self.topo.n_edges), ARRIVAL)
        return realized, active, None, (t_v, online, t_e)


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
        rewards = _rewards(inst, objective)
        width = max((len(edg.menu) for edg in inst.edges), default=1)
        self.menu_y = np.zeros((e, width))
        self.menu_p = np.zeros((e, width))
        self.menu_r = np.zeros((e, width))  # reward paid on acceptance
        for i, edg in enumerate(inst.edges):
            for k, entry in enumerate(edg.menu):
                self.menu_y[i, k] = point.y.get((edg.id, entry.w), 0.0)
                self.menu_p[i, k] = entry.p
                self.menu_r[i, k] = rewards[i][k]
        self.menu_cum = np.cumsum(self.menu_y, axis=1)
        self.x = self.topo.x_vector(marginals(point, inst)[0])
        self.spec = spec
        self.s = _neighbor_mass(self.x, inst)[1]  # s_e from the induced marginals, for a2
        # a go cell has an offer: its price draw lies below the menu mass
        self.gate = (PRICE, self.menu_cum[:, -1])

    purposes = (ARRIVAL, ACTIVE, COIN)

    def run_chunk(self, seed: int, start: int, count: int, detail: bool = False):
        res = _walk(self.topo, _draw(self, seed, start, count, detail), count, detail, self.topo.patience)
        # no activity coin of its own: a detail chunk's active cells are the realized ones
        return res._replace(active=res.realized) if detail else res

    def _coins(self, seed, trial, edge, u_price, t, u_accept, u_coin):
        propose_ok = u_coin < attenuation_profile(self.spec, t, self.x.take(edge), self.s.take(edge))
        # inverse-CDF menu draw: a cell takes the first entry whose cumulative
        # mass exceeds its draw, so a draw at or beyond the total menu mass
        # takes none and means no offer this trial
        cum = self.menu_cum
        acc_p = np.zeros(t.shape)
        reward = np.zeros(t.shape)
        for k in range(cum.shape[1] - 1, -1, -1):
            below = u_price < cum[:, k].take(edge)
            np.copyto(acc_p, self.menu_p[:, k].take(edge), where=below)
            np.copyto(reward, self.menu_r[:, k].take(edge), where=below)
        go = (u_price < cum[:, -1].take(edge)) & propose_ok
        return go, u_accept < acc_p, reward, (t,)

# --------------------------------------------------------------------------
# Monte-Carlo aggregation
# --------------------------------------------------------------------------

def monte_carlo(
    engine,
    trials: int,
    master_seed: int,
    chunk_size: int | None = None,
    workers: int | None = None,
) -> SimulationReport:
    """Aggregate `trials` independent trials into a report.

    Per-trial streams are keyed by the absolute trial index, and reduction
    walks chunks in index order with integer counters.  Chunks are cut at
    the boundaries of fixed blocks of `_BLOCK_TRIALS` trial indices, and
    revenue is summed block by block (numpy's sum over the concatenation of
    a block's chunks, `math.fsum` across blocks), so the report is
    bit-identical for any worker count or chunk size.  The sums are taken in
    units of a power of two at or above the largest menu reward, which is
    exact and keeps every square finite; a sum that still overflows raises
    ValueError.  The report stores the counts, from which its frequencies,
    intervals and ratios derive.

    A chunk holds at most `chunk_size` trials.  `chunk_size=None` derives
    it from the E edges: the largest power of two at most
    ``_BLOCK_CELLS // E`` trials, so that a chunk is about one row block of
    the front end, kept within [`_MIN_CHUNK`, `_BLOCK_TRIALS`] = [2048,
    16384].  So an instance of at most 4 edges runs a whole revenue block
    per chunk, one of 11 edges 4096 trials, and any of 17 or more edges
    2048.  Any chunk holds fewer trials on large instances, so that
    4 * trials * (edges + vertices) stays within `_CHUNK_CELLS`.  The cap
    bounds what a chunk holds whole: the walk's per-(trial, vertex) arrays,
    which grow with the vertices, and a detail chunk's per-cell arrays.  A
    reduced chunk holds its go cells and their walk steps; the gate's hash
    words are held one row block at a time, and the other draws one batch
    of candidate cells at a time (`_draw`).  A revenue
    block's last chunk is cut short when `chunk` does not divide
    `_BLOCK_TRIALS`.  A `chunk_size` below 1 is refused.
    `workers=None` means 1, and fewer than 1 is refused.  The master seed
    is a uint64 stream key, so it must lie in [0, 2**64).
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if workers is not None and workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    if chunk_size is not None and chunk_size < 1:
        raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
    if not 0 <= master_seed < 2**64:
        raise ValueError(f"seed must lie in [0, 2**64), got {master_seed}")
    n_edges = len(engine.topo.edge_ids)
    if chunk_size is None:
        # _BLOCK_CELLS >> ceil(log2 E) is the largest power of two at most
        # _BLOCK_CELLS // E; a power of two divides _BLOCK_TRIALS, so a
        # revenue block holds no short chunk
        fit = _BLOCK_CELLS >> (max(n_edges, 1) - 1).bit_length()
        chunk_size = min(max(fit, _MIN_CHUNK), _BLOCK_TRIALS)
    cells = 4 * max(n_edges + engine.topo.n_vertices, 1)
    chunk = max(1, min(chunk_size, _CHUNK_CELLS // cells))
    # revenue is summed in units of 2**shift, at or above the largest menu
    # reward (only the pricing engine pays any)
    shift = math.frexp(float(np.max(np.abs(getattr(engine, "menu_r", 0.0)), initial=0.0)))[1]
    # no chunk crosses a block boundary, so a block's revenues are its chunks'
    jobs = [
        (s, min(chunk, trials - s, b + _BLOCK_TRIALS - s))
        for b in range(0, trials, _BLOCK_TRIALS)
        for s in range(b, min(b + _BLOCK_TRIALS, trials), chunk)
    ]

    def work(job):
        return engine.run_chunk(master_seed, *job)

    counts = np.zeros((3, n_edges), dtype=np.int64)  # matched, r0, r1 per edge
    block, sums, sqsums = [], [], []  # block: revenues of the block being filled
    parallel = workers is not None and workers > 1 and len(jobs) > 1
    with ThreadPoolExecutor(max_workers=workers) if parallel else nullcontext() as pool:
        for (s, n), res in zip(jobs, pool.map(work, jobs) if parallel else map(work, jobs)):
            counts += res[:3]
            block.append(res.revenue)
            if (s + n) % _BLOCK_TRIALS == 0 or s + n == trials:
                full = np.ldexp(np.concatenate(block), -shift)
                sums.append(float(full.sum()))
                sqsums.append(float((full * full).sum()))
                block = []
    rev_sum, rev_sqsum = math.fsum(sums), math.fsum(sqsums)
    if not (math.isfinite(rev_sum) and math.isfinite(rev_sqsum)):
        raise ValueError("a trial's revenue is not a finite number")
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
        edges=tuple(
            EdgeReport(eid, x, trials, m, a, b)
            for eid, x, m, a, b in zip(engine.topo.edge_ids, engine.x.tolist(), *counts.tolist())
        ),
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
    m = len(inst.edges)
    if m > 10:
        raise ValueError(f"exact oracle supports at most 10 edges, got {m}")
    topo = _Topology(inst)
    uv = list(zip(topo.u_idx.tolist(), topo.v_idx.tolist()))
    xs = topo.x_vector(x).tolist()

    @lru_cache(maxsize=None)
    def rec(rem: int, matched_v: int) -> tuple[float, ...]:
        if rem == 0:
            return (0.0,) * m
        k = rem.bit_count()
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

    probs = rec((1 << m) - 1, 0)
    rec.cache_clear()
    return dict(zip(topo.edge_ids, probs))


def _probe_value(inst: PricingInstance, objective: str, options: list, first_open: bool) -> float:
    """Expected reward of a probe policy over (edge i, menu entry k) `options`.

    The state is (probed edges, matched vertices), as bitmasks.  An option is
    open when its edge is unprobed and both endpoints are unmatched with
    patience left (one unit spent per probed incident edge).  A probe spends
    the edge; with the entry's p it is accepted, pays c/p and matches both
    endpoints.  The policy probes the best open option or stops for 0; with
    `first_open` it probes the first open option in `options` order.  An
    option that closes never reopens, so a walk down that order reaches the
    same option next.
    """
    topo = _Topology(inst)
    uv = list(zip(topo.u_idx.tolist(), topo.v_idx.tolist()))
    # the incident-edge bitmask of each vertex
    inc = [sum(1 << i for i in set(inst.incident[v.id].tolist())) for v in inst.vertices]
    pat = topo.patience.tolist()
    rewards = _rewards(inst, objective)
    opts = [(i, *uv[i], inst.edges[i].menu[k].p, rewards[i][k]) for i, k in options]

    @lru_cache(maxsize=None)
    def value(probed: int, matched: int) -> float:
        best = 0.0
        for i, u, v, p, r in opts:
            ends = 1 << u | 1 << v
            if probed >> i & 1 or matched & ends:
                continue
            if (probed & inc[u]).bit_count() >= pat[u] or (probed & inc[v]).bit_count() >= pat[v]:
                continue
            nxt = probed | 1 << i
            val = p * (r + value(nxt, matched | ends))
            val += (1.0 - p) * value(nxt, matched)
            if first_open:
                return val
            if val > best:
                best = val
        return best

    out = value(0, 0)
    value.cache_clear()
    return out


def optimal_policy_dp(inst: PricingInstance, objective: str | None = None) -> float:
    """Exact optimum over adaptive probe policies (order, prices, stopping)."""
    if objective is None:
        objective = auto_objective(inst)
    options = [(i, k) for i, e in enumerate(inst.edges) for k in range(len(e.menu))]
    if len(options) > 12:
        est = 2 ** len(inst.edges) * 2 ** len(inst.vertices)
        raise ValueError(
            f"instance too large for exact policy optimum: {len(options)} probe "
            f"options, state space on the order of {est}"
        )
    return _probe_value(inst, objective, options, first_open=False)


def greedy_baseline(inst: PricingInstance, rule: str, objective: str | None = None) -> float:
    """Expected value of probing (edge, price) options in a fixed sorted order.

    ``by_weight`` sorts by price descending, ``by_expected_weight`` by
    price*probability descending; ties break on edge id then menu position.
    Each step probes the first option still open, so a probe spends its
    edge and later options on the same edge are skipped.
    """
    if rule not in ("by_weight", "by_expected_weight"):
        raise ValueError(f"unknown greedy rule: {rule!r}")
    if objective is None:
        objective = auto_objective(inst)
    ranked = sorted(
        (-(entry.w if rule == "by_weight" else entry.w * entry.p), e.id, k, i)
        for i, e in enumerate(inst.edges)
        for k, entry in enumerate(e.menu)
    )
    return _probe_value(inst, objective, [(i, k) for _, _, k, i in ranked], first_open=True)
