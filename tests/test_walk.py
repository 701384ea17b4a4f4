"""The shared walk kernel against a step-by-step reference.

`reference_walk` is the walk written the plain way: one (trial, column) pair
per array access, over every edge in arrival order, and Q-counts straight
from their definition, with "before" meaning an earlier position in the
walk's arrival order.  Every engine must hand `_walk` cells on which the
kernel and the reference agree on every output, on suite instances, with
patience, with rewards, with parallel edges and with tied arrival keys.  A
detail chunk walks every cell and a reduced chunk its go cells alone, padded
to the busiest trial's count, so each case is checked both ways: the reduced
chunk must keep exactly the detail chunk's go cells, in the same order.
Instances of at most 64 edges walk on uint64 words and wider ones on
per-vertex arrays; the walk cases at 64, 65 and 69 edges check both forms.
"""

import dataclasses
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
import reference as ref

from ocrslab import bounds, simulate, suite
from ocrslab._rng import ARRIVAL
from ocrslab.attenuation import AttenuationSpec
from ocrslab.graphcore import (
    Edge,
    FractionalPoint,
    MenuEntry,
    PricingInstance,
    Vertex,
    edge_neighbors,
    edge_stats,
    generate_family,
)
from ocrslab.lp import build_lp_pricing, solve_lp

A1 = AttenuationSpec("a1")
A2 = AttenuationSpec("a2", alpha=0.171)


def reference_q(topo, realized, position):
    """Q(e): edges sharing an endpoint with e, realized, at an earlier position."""
    u, v = topo.u_idx, topo.v_idx
    q = np.zeros(realized.shape, dtype=np.int64)
    for i in range(len(u)):
        nb = (u == u[i]) | (u == v[i]) | (v == u[i]) | (v == v[i])
        nb[i] = False
        q[:, i] = (realized[:, nb] & (position[:, nb] < position[:, [i]])).sum(axis=1)
    return q


def reference_walk(topo, order, go, accept, patience=None, reward=None):
    count, e = go.shape
    rows = np.arange(count)
    matched_v = np.zeros((count, topo.n_vertices), dtype=bool)
    matched_e = np.zeros((count, e), dtype=bool)
    probed_e = np.zeros((count, e), dtype=bool)
    revenue = np.zeros(count)
    if patience is not None:
        pat = np.broadcast_to(patience, (count, topo.n_vertices)).copy()
    for j in range(e):
        ep = order[:, j]
        uu, vv = topo.u_idx[ep], topo.v_idx[ep]
        propose = go[rows, ep] & ~matched_v[rows, uu] & ~matched_v[rows, vv]
        if patience is not None:
            propose &= (pat[rows, uu] > 0) & (pat[rows, vv] > 0)
            probed_e[rows, ep] |= propose
            pr = rows[propose]
            pat[pr, uu[propose]] -= 1
            pat[pr, vv[propose]] -= 1
        win = propose & accept[rows, ep]
        matched_e[rows, ep] |= win
        matched_v[rows[win], uu[win]] = True
        matched_v[rows[win], vv[win]] = True
        if reward is not None:
            revenue[win] += reward[rows[win], ep[win]]
    if patience is None:
        probes = np.zeros((count, topo.n_vertices), dtype=np.int32)
    else:
        probes = (patience[None, :] - pat).astype(np.int32)
    position = np.empty_like(order)
    np.put_along_axis(position, order, np.arange(e), axis=1)
    q = reference_q(topo, go & accept, position)
    return simulate._Walk(q, matched_e, probed_e, revenue, probes)


def kept_cells(order, go, accept, reward=None, every=False):
    """The `_Cells` of dense coins: each trial's go cells (every cell, with
    `every`) in `order`."""
    rows, cols = np.nonzero(np.take_along_axis(go, order, axis=1) | every)
    edge = order[rows, cols]
    pick = (rows, edge)
    return simulate._Cells(rows, edge, go[pick], accept[pick], None if reward is None else reward[pick])


def dense_coins(cells, count, e):
    """(order, go, accept, reward) of a chunk whose cells are all kept."""
    order = cells.edge.reshape(count, e)
    dense = []
    for a in (cells.go, cells.accept, cells.reward):
        if a is not None:
            d = np.zeros((count, e), dtype=a.dtype)
            d[cells.trial, cells.edge] = a
            a = d
        dense.append(a)
    return (order, *dense)


def assert_walk_is_the_reference(got, cells, want):
    """`_walk`'s per-cell records against the reference's dense outputs.  A
    cell's q is defined when it is kept and its go holds: on every go cell
    of a reduced chunk and on every cell of a detail chunk, which the
    detail arrays check."""
    at = (cells.trial, cells.edge)
    for field in ("matched", "probed"):
        assert np.array_equal(getattr(got, field), getattr(want, field)[at]), field
        # a matched or probed cell is a go cell, so the kept cells hold them all
        assert getattr(got, field).sum() == getattr(want, field).sum(), field
    for field in ("revenue", "probes_used"):
        a, b = getattr(got, field), getattr(want, field)
        assert a.dtype == b.dtype and np.array_equal(a, b), field
    assert np.array_equal(got.q[cells.go], want.q[at][cells.go])


def check_walk(topo, order, go, accept, patience=None, reward=None):
    """Walks the go cells of dense coins, then every cell, each against the
    reference; returns the reference outputs and the go-cell walk."""
    want = reference_walk(topo, order, go, accept, patience, reward)
    walks = []
    for every in (False, True):
        cells = kept_cells(order, go, accept, reward, every)
        walks.append(simulate._walk(topo, cells, go.shape[0], patience))
        assert_walk_is_the_reference(walks[-1], cells, want)
    return want, walks[0]


@pytest.fixture
def walk_steps(monkeypatch):
    """The step count k of every walk."""
    ks = []
    for name in ("_walk_bits", "_walk_bools"):
        real = getattr(simulate, name)

        def spy(topo, steps, *args, _real=real, **kwargs):
            ks.append(steps.shape[0])
            return _real(topo, steps, *args, **kwargs)

        monkeypatch.setattr(simulate, name, spy)
    return ks


@pytest.fixture
def word_walks(monkeypatch):
    """One entry per walk: True for the word walk, False for the array walk."""
    forms = []
    for name, word in (("_walk_bits", True), ("_walk_bools", False)):
        real = getattr(simulate, name)

        def spy(*args, _real=real, _word=word, **kwargs):
            forms.append(_word)
            return _real(*args, **kwargs)

        monkeypatch.setattr(simulate, name, spy)
    return forms


def run_against_reference(engine, monkeypatch, seed=7, count=1500):
    """Runs a detail chunk and a reduced chunk of the same trials.

    The detail chunk's arrays must be the reference walk's on every cell, the
    reduced chunk must keep the detail chunk's go cells in the same order,
    and the walk over those cells alone must be the reference's on them.
    Returns the detail chunk and the reduced walk's step count."""
    real = simulate._walk
    seen = []

    def spy(topo, cells, n, *args, **kwargs):
        seen.append((topo, cells, args[0] if args else None))
        return real(topo, cells, n, *args, **kwargs)

    monkeypatch.setattr(simulate, "_walk", spy)
    det = engine.run_chunk(seed, 100, count, detail=True)
    engine.run_chunk(seed, 100, count)
    (topo, every, patience), (_, kept, _) = seen
    assert every.trial.size == count * topo.n_edges
    for a, b in zip(kept, every):
        assert (a is None) == (b is None) and (a is None or np.array_equal(a, b[every.go]))
    order, go, accept, reward = dense_coins(every, count, topo.n_edges)
    want = reference_walk(topo, order, go, accept, patience, reward)
    for field in ("matched", "probed", "q", "revenue", "probes_used"):
        assert np.array_equal(getattr(det, field), getattr(want, field)), field
    # the walk counts `go & accept` as realized; every engine reports the same
    assert np.array_equal(det.realized, go & accept)
    assert det.matched.any() and det.q.any()
    assert_walk_is_the_reference(real(topo, kept, count, patience), kept, want)
    per = np.bincount(kept.trial, minlength=count)
    return det, int(per.max(initial=0))


def _entry(name):
    return next(e for e in suite.build_suite() if e.name == name)


def _ro(name):
    e = _entry(name)
    return simulate.RoOcrsEngine(e.instance, e.x, edge_stats(e.x, e.instance), A2)


def _stochastic(name, ell):
    e = _entry(name)
    inst, y, p = suite.stochastic_variant(e, ell)
    return simulate.StochasticOcrsEngine(inst, y, p, edge_stats(e.x, e.instance), A2)


def _one_sided(name):
    e = _entry(name)
    inst, y, p = suite.one_sided_variant(e)
    return simulate.StochasticOcrsEngine(inst, y, p, edge_stats(e.x, e.instance), A1)


def _vertex(name):
    e = _entry(name)
    return simulate.VertexArrivalEngine(suite.vertex_variant(e), e.x)


def _pricing(name, patience):
    inst = _entry(name).instance
    inst = dataclasses.replace(
        inst, vertices=tuple(dataclasses.replace(v, patience=patience) for v in inst.vertices)
    )
    point = solve_lp(build_lp_pricing(inst, "revenue")).point
    return simulate.SequentialPricingEngine(inst, point, A2)


ENGINES = {
    "ro-gen_6d": lambda: _ro("gen_6d"),
    "ro-star_5": lambda: _ro("star_5"),
    "stochastic-bip_4x4-patience1": lambda: _stochastic("bip_4x4", 1),
    "stochastic-gen_7-patience2": lambda: _stochastic("gen_7", 2),
    "one-sided-bip_5x5": lambda: _one_sided("bip_5x5"),
    "vertex-bip_4x3": lambda: _vertex("bip_4x3"),
    "vertex-bip_5x5": lambda: _vertex("bip_5x5"),
    "pricing-bip_3x3": lambda: _pricing("bip_3x3", None),
    "pricing-bip_4x4-patience1": lambda: _pricing("bip_4x4", 1),
}


@pytest.mark.parametrize("name", sorted(ENGINES))
def test_engines_walk_like_the_reference(name, monkeypatch):
    det, _ = run_against_reference(ENGINES[name](), monkeypatch)
    if name.startswith("pricing"):
        assert det.revenue.any()
    if "patience" in name or name.startswith("one-sided"):
        assert det.probed.any() and det.probes_used.any()


def _parallel_instance():
    # e0 and e1 join the same pair; e2 hangs off b, e3 off a
    vs = (
        Vertex("a", side="offline", patience=2),
        Vertex("b", side="online"),
        Vertex("c", side="offline"),
        Vertex("d", side="online"),
    )
    es = tuple(
        Edge(eid, u, v, (MenuEntry(0.0, 0.3, c=0.3),))
        for eid, u, v in (("e0", "a", "b"), ("e1", "a", "b"), ("e2", "c", "b"), ("e3", "a", "d"))
    )
    return PricingInstance(vs, es, mode="bipartite"), {eid: 0.3 for eid in ("e0", "e1", "e2", "e3")}


@pytest.mark.parametrize("scheme", ["ro", "stochastic", "vertex"])
def test_parallel_edges_count_once_in_q(scheme, monkeypatch):
    inst, x = _parallel_instance()
    assert simulate._Topology(inst).pair is not None
    assert simulate._Topology(_entry("bip_4x4").instance).pair is None
    stats = edge_stats(x, inst)
    engine = {
        "ro": lambda: simulate.RoOcrsEngine(inst, x, stats, A2),
        "stochastic": lambda: simulate.StochasticOcrsEngine(inst, dict.fromkeys(x, 1.0), x, stats, A2),
        "vertex": lambda: simulate.VertexArrivalEngine(inst, x),
    }[scheme]()
    run_against_reference(engine, monkeypatch, count=4000)


def _multigraph(pairs, patience=None):
    """Bipartite multigraph on offline a, c, e and online b, d, f; edge i
    joins `pairs[i]`."""
    vs = tuple(
        Vertex(v, side="offline" if v in "ace" else "online", patience=(patience or {}).get(v))
        for v in "abcdef"
    )
    es = tuple(
        Edge(f"e{i}", u, v, (MenuEntry(0.0, 0.3, c=0.3),)) for i, (u, v) in enumerate(pairs)
    )
    return PricingInstance(vs, es, mode="bipartite")


def _multigraph_engine(scheme, copies=2, xe=0.04):
    """One engine on every offline-online pair `copies` times: 9 * copies
    edges, 3 * copies at each vertex, each at x = `xe`."""
    pairs = [(u, v) for u in "ace" for v in "bdf"] * copies
    inst = _multigraph(pairs, patience={"a": 1, "d": 1})
    x = {e.id: xe for e in inst.edges}
    stats = edge_stats(x, inst)
    return {
        "ro": lambda: simulate.RoOcrsEngine(inst, x, stats, A2),
        "stochastic": lambda: simulate.StochasticOcrsEngine(
            inst, dict.fromkeys(x, 0.1), dict.fromkeys(x, 0.4), stats, A2
        ),
        "vertex": lambda: simulate.VertexArrivalEngine(inst, x),
    }[scheme]()


# 18 edges walk on words and 72 on arrays, where a parallel copy of an edge
# is counted at both endpoints and taken back once by its pair's counter
@pytest.mark.parametrize(
    "scheme,copies",
    [(s, c) for c in (2, 8) for s in ("ro", "stochastic", "vertex")],
    ids=["ro", "stochastic", "vertex", "ro-72-edges", "stochastic-72-edges", "vertex-72-edges"],
)
def test_parallel_edges_on_the_compacted_walk(scheme, copies, monkeypatch, word_walks):
    engine = _multigraph_engine(scheme, copies)
    assert engine.topo.pair is not None
    det, k = run_against_reference(engine, monkeypatch, count=4000)
    assert word_walks == [copies == 2] * 3
    assert 0 < k < engine.topo.n_edges
    if scheme == "stochastic":
        assert det.probed.any() and (det.probes_used[:, [0, 3]] == 1).any()


@pytest.mark.parametrize("scheme", ["ro", "stochastic", "vertex"])
def test_a_multigraph_counts_q_once_per_chunk(scheme, word_walks):
    # each chunk is one walk, which counts Q(e) as it goes: a multigraph of
    # 18 edges walks on words and one of 72 edges on arrays, detail and
    # reduced chunks alike
    for copies, word in ((2, True), (8, False)):
        engine = _multigraph_engine(scheme, copies)
        assert engine.topo.pair is not None
        for detail in (True, False):
            word_walks.clear()
            engine.run_chunk(7, 100, 500, detail=detail)
            assert word_walks == [word], (copies, detail)


@pytest.mark.parametrize("scheme", ["ro", "vertex"])
def test_a_wide_multigraph_chunk_holds_no_array_per_cell(scheme):
    # 900 edges on 9 pairs: the array walk counts Q with 9 pair counters per
    # trial, beside 6 vertex counters, where (trials, edges) arrays of
    # positions would take about 14 MiB per 2048-trial chunk
    engine = _multigraph_engine(scheme, copies=100, xe=0.003)
    engine.run_chunk(3, 0, 2048)
    tracemalloc.start()
    try:
        engine.run_chunk(3, 2048, 2048)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


def _mc_large_engine(scheme):
    """One of the four engines on the benchmark's E = 479 instance."""
    gen = generate_family("random_bipartite", n=40, m=40, density=0.3, seed=7)
    entry = suite.SuiteEntry("mc_large", gen.instance, gen.x, True)
    stats = edge_stats(entry.x, entry.instance)
    if scheme == "ro":
        return simulate.RoOcrsEngine(entry.instance, entry.x, stats, A2)
    if scheme == "vertex":
        return simulate.VertexArrivalEngine(suite.vertex_variant(entry), entry.x)
    if scheme == "pricing":
        # each edge's first menu price, offered at the rate x_e of the point
        point = FractionalPoint({(e.id, e.menu[0].w): gen.x[e.id] for e in gen.instance.edges})
        return simulate.SequentialPricingEngine(gen.instance, point, A2)
    variant = suite.stochastic_variant if scheme == "stochastic" else suite.one_sided_variant
    inst, y, p = variant(entry)
    return simulate.StochasticOcrsEngine(inst, y, p, stats, A2)


@pytest.mark.parametrize("scheme", ["ro", "stochastic", "one-sided", "vertex"])
def test_wide_engines_walk_only_their_go_cells(scheme, monkeypatch):
    det, k = run_against_reference(_mc_large_engine(scheme), monkeypatch, seed=3, count=120)
    assert det.matched.shape[1] == 479
    # a few dozen go cells at most per trial, out of 479
    assert 0 < k < 60
    if scheme in ("stochastic", "one-sided"):
        assert det.probed.any() and det.probes_used.any()


# one engine per scheme whose suite chunk walks every edge
DENSE = {
    "ro": "ro-gen_6d",
    "stochastic": "stochastic-gen_7-patience2",
    "vertex": "vertex-bip_5x5",
    "pricing": "pricing-bip_3x3",
}


@pytest.mark.parametrize("wide", [False, True])
@pytest.mark.parametrize("scheme", sorted(DENSE))
def test_reduced_chunks_are_the_column_sums_of_detail_chunks(scheme, wide, walk_steps):
    if not wide:
        engine, seed, count = ENGINES[DENSE[scheme]](), 7, 1500
    else:
        engine, seed, count = _mc_large_engine(scheme), 3, 120
    counts = engine.run_chunk(seed, 100, count)
    det = engine.run_chunk(seed, 100, count, detail=True)
    # the reduced chunk walks its go cells alone, the detail chunk every cell
    assert walk_steps[0] < walk_steps[1] == engine.topo.n_edges
    m = det.matched
    sums = (m, m & (det.q == 0), m & (det.q == 1))
    for got, want in zip((counts.matched, counts.r0, counts.r1), sums):
        assert got.dtype == np.int64 and np.array_equal(got, want.sum(axis=0, dtype=np.int64))
    assert np.array_equal(counts.revenue, det.revenue)
    assert counts.r0.any() and counts.r1.any()
    assert counts.revenue.any() == (scheme == "pricing")


def _walk_case(rng, n_edges, count, n_go, n=9):
    """Topology of a random graph on `n` vertices cut to `n_edges` edges, a
    random arrival order and coins, and a go mask with `n_go[i]` go cells in
    trial i."""
    inst = generate_family("random_general", n=n, density=0.8, seed=4).instance
    inst = PricingInstance(
        tuple(dataclasses.replace(v, patience=1) for v in inst.vertices),
        inst.edges[:n_edges],
        mode=inst.mode,
    )
    topo = simulate._Topology(inst)
    assert topo.n_edges == n_edges and topo.pair is None
    order = np.argsort(rng.random((count, n_edges)), axis=1)
    go = np.argsort(rng.random((count, n_edges)), axis=1) < np.asarray(n_go)[:, None]
    accept = rng.random((count, n_edges)) < 0.5
    reward = rng.random((count, n_edges))
    return topo, order, go, accept, reward


def _check_walk(topo, order, go, accept, reward):
    """The walk without patience, then with patience 1 and rewards, each on
    the go cells and on every cell; returns the second reference walk."""
    for patience, pay in ((None, None), (topo.patience, reward)):
        want, _ = check_walk(topo, order, go, accept, patience, pay)
    return want


def test_a_chunk_without_go_cells_takes_no_step(walk_steps):
    topo, order, go, accept, reward = _walk_case(np.random.default_rng(1), 20, 50, [0] * 50)
    walk = _check_walk(topo, order, go, accept, reward)
    # the go cells alone take no step; every cell takes all 20
    assert walk_steps == [0, 20, 0, 20]
    assert not walk.matched.any() and not walk.probed.any() and not walk.revenue.any()


@pytest.mark.parametrize("busy", [7, 20])  # of 20 edges
def test_trials_without_go_cells_beside_busy_trials(busy, walk_steps):
    count = 300
    n_go = np.where(np.arange(count) % 3 == 0, 0, busy)
    n_go[1::3] = np.random.default_rng(busy).integers(0, busy + 1, len(n_go[1::3]))
    case = _walk_case(np.random.default_rng(2), 20, count, n_go)
    walk = _check_walk(*case)
    assert walk_steps[::2] == [busy, busy]
    assert walk.matched[1::3].any() and walk.probed.any() and walk.revenue.any()
    assert walk.q[case[2]].any() and not walk.matched[::3].any()


# the busiest trial has about half its edges go: 2k = E - 1, E, E + 1
@pytest.mark.parametrize("n_edges,busy", [(21, 10), (20, 10), (21, 11)])
def test_both_sides_of_the_compaction_threshold(n_edges, busy, walk_steps):
    count = 400
    rng = np.random.default_rng(n_edges + busy)
    n_go = rng.integers(0, busy + 1, count)
    n_go[rng.integers(count)] = busy  # the busiest trial sets k
    walk = _check_walk(*_walk_case(rng, n_edges, count, n_go))
    assert walk_steps[::2] == [busy, busy]
    assert walk.probed.any() and walk.q.any()


# the n = 14 graph has 69 edges: cut to 64 it walks on words, to 65 or more
# on arrays; the busiest trial has about half its edges go
@pytest.mark.parametrize(
    "n_edges,busy", [(64, 31), (64, 32), (65, 32), (65, 33), (69, 34), (69, 35)]
)
def test_words_and_arrays_on_both_sides_of_64_edges(n_edges, busy, word_walks):
    count = 300
    rng = np.random.default_rng(n_edges * busy)
    n_go = rng.integers(0, busy + 1, count)
    n_go[rng.integers(count)] = busy
    walk = _check_walk(*_walk_case(rng, n_edges, count, n_go, n=14))
    assert word_walks == [n_edges <= 64] * 4
    assert walk.matched.any() and walk.probed.any() and walk.revenue.any() and walk.q.any()


def _loop_instance():
    """Two self-loops on a triangle, at a and at c."""
    vs = tuple(Vertex(v, patience=3) for v in "abc")
    es = tuple(
        Edge(f"e{i}", u, v, (MenuEntry(0.0, 0.5),))
        for i, (u, v) in enumerate([("a", "a"), ("a", "b"), ("b", "c"), ("a", "c"), ("c", "c")])
    )
    return PricingInstance(vs, es)


def test_a_self_loop_is_refused():
    # as `validate_instance` refuses it, naming the first loop edge
    inst = _loop_instance()
    x = {e.id: 0.05 for e in inst.edges}
    stats = edge_stats(x, inst)
    point = FractionalPoint({(e.id, 0.0): 0.05 for e in inst.edges})
    builds = (
        lambda: simulate._Topology(inst),
        lambda: simulate.RoOcrsEngine(inst, x, stats, A2),
        lambda: simulate.StochasticOcrsEngine(inst, dict.fromkeys(x, 0.1), dict.fromkeys(x, 0.5), stats, A2),
        lambda: simulate.VertexArrivalEngine(inst, x),
        lambda: simulate.SequentialPricingEngine(inst, point, A2),
        lambda: simulate.exact_trivial_oracle(x, inst),
    )
    for build in builds:
        with pytest.raises(ValueError, match="^edge e0: self-loop$"):
            build()


def _topology_cases():
    """(name, instance, x) for the neighbourhood reference checks."""
    cases = [(e.name, e.instance, e.x) for e in suite.build_suite()]
    for name, params in (
        ("mc_large", {"n": 40, "m": 40, "density": 0.3, "seed": 7}),
        ("pricing_bip20", {"n": 20, "m": 20, "density": 0.35, "seed": 7}),
        ("pricing_bip25", {"n": 25, "m": 25, "density": 0.3, "seed": 7}),
    ):
        gen = generate_family("random_bipartite", **params)
        cases.append((name, gen.instance, gen.x))
    multigraph = _multigraph([(u, v) for u in "ace" for v in "bdf"] * 8)
    cases.append(("multigraph_72", multigraph, {e.id: 0.04 for e in multigraph.edges}))
    # a triangle whose a-b and c-a pairs are each joined twice
    pairs = [("a", "b"), ("a", "b"), ("b", "c"), ("c", "a"), ("c", "a")]
    xs = [0.2, 0.3, 0.1, 0.25, 0.15]
    es = tuple(Edge(f"e{i}", u, v, (MenuEntry(0.0, 0.5),)) for i, (u, v) in enumerate(pairs))
    cases.append((
        "parallel_triangle",
        PricingInstance(tuple(Vertex(v) for v in "abc"), es),
        {e.id: xe for e, xe in zip(es, xs)},
    ))
    star = generate_family("star", k=300)
    cases.append(("star_300", star.instance, star.x))
    return cases


def _assert_neighbors_match_reference(inst):
    for i, nb in enumerate(ref.reference_neighbors(inst)):
        got = edge_neighbors(inst, i)
        assert got.dtype == nb.dtype and np.array_equal(got, nb), i


def test_neighbourhoods_derived_from_the_incidence_match_the_stored_lists():
    # d, s and m bit for bit, N_e, and the walk topology, against the lists
    # of every edge's neighbours stored whole
    for name, inst, x in _topology_cases():
        stats, want = edge_stats(x, inst), ref.reference_edge_stats(x, inst)
        for k, field in enumerate("dsm"):
            got = np.array([getattr(stats[e.id], field) for e in inst.edges])
            assert got.tobytes() == np.array([want[e.id][k] for e in inst.edges]).tobytes(), (name, field)
        # the (x_f, s_f) pairs of the r0/r1 floors, in the order of N_e
        for i, (eid, pairs) in enumerate(bounds.neighbor_pairs(inst, x, stats)):
            assert tuple(inst.edges[f].id for f in edge_neighbors(inst, i)) == want[eid][3]
            assert pairs.tobytes() == np.array(want[eid][4], dtype=float).reshape(-1, 2).tobytes(), (name, eid)
        _assert_neighbors_match_reference(inst)
        topo = simulate._Topology(inst)
        parallel, q_dtype, nbr_bits = ref.reference_topology(inst)
        assert (topo.pair is not None) is parallel and topo.q_dtype is q_dtype, name
        if nbr_bits is None:
            assert topo.nbr_bits is None
        else:
            assert topo.nbr_bits.dtype == np.uint64 and np.array_equal(topo.nbr_bits, nbr_bits)
    # `validate_instance` and the engines refuse loops, so a loop's m and walk
    # topology are not defined; its neighbourhoods are
    _assert_neighbors_match_reference(_loop_instance())


def _tie_arrival_times(monkeypatch, every, levels):
    """Every `every`-th trial draws its edge and vertex arrival times from
    multiples of 1 / `levels`."""
    real = simulate.hash_uniform

    def tied(seed, trials, units, purpose):
        u = real(seed, trials, units, purpose)
        if purpose == ARRIVAL or isinstance(purpose, tuple) and ARRIVAL in purpose:
            t = u[purpose.index(ARRIVAL)] if isinstance(purpose, tuple) else u
            t[...] = np.where(trials % every == 0, np.floor(t * levels) / levels, t)
        return u

    monkeypatch.setattr(simulate, "hash_uniform", tied)


def test_q_follows_the_arrival_order_under_tied_keys(monkeypatch):
    gen = generate_family("random_general", n=7, density=0.5, seed=5)
    topo = simulate._Topology(gen.instance)
    rng = np.random.default_rng(3)
    count, e = 600, topo.n_edges
    key = rng.random((count, e))
    key[::3] = rng.integers(0, 4, (len(key[::3]), e))  # every third trial is full of ties
    go = rng.random((count, e)) < 0.7
    accept = rng.random((count, e)) < 0.6
    order = np.argsort(key, axis=1, kind="stable")
    patience = np.full(topo.n_vertices, 2, dtype=np.int32)
    reward = rng.random((count, e))
    check_walk(topo, order, go, accept, patience, reward)
    # RO coins: a realized edge with no realized earlier neighbour finds both
    # endpoints free, so the r0 event implies a match on every trial
    realized = go & accept
    walk, _ = check_walk(topo, order, realized, accept)
    assert walk.q[::3].any() and not (realized & (walk.q == 0) & ~walk.matched).any()
    # the same through the engine, whose arrival times tie on every third
    # trial, at {0, 1/4, 1/2, 3/4}
    _tie_arrival_times(monkeypatch, 3, 4)
    engine = simulate.RoOcrsEngine(gen.instance, gen.x, edge_stats(gen.x, gen.instance), A2)
    det = engine.run_chunk(9, 0, count, detail=True)
    assert det.q[::3].any() and not (det.realized & (det.q == 0) & ~det.matched).any()


def rank_key_order(t_e, t_v, online):
    """Vertex-arrival order from integer ranks: stable ranks of the vertex
    and edge times, combined into one key and argsorted stably."""
    e = t_e.shape[1]
    rank_v = np.argsort(np.argsort(t_v, axis=1, kind="stable"), axis=1, kind="stable")
    rank_e = np.argsort(np.argsort(t_e, axis=1, kind="stable"), axis=1, kind="stable")
    key = rank_v[:, online] * (e + 1) + rank_e
    return np.argsort(key, axis=1, kind="stable")


def lexsort_order(t_e, t_v, online):
    """Vertex-arrival order as one lexsort: online endpoint's time, its
    position, the edge's time, and (lexsort is stable) the edge's position."""
    return np.lexsort((t_e, np.broadcast_to(online, t_e.shape), t_v[:, online]), axis=1)


def sorted_go_cells(go, t_e, t_v=None, online=None):
    """The (trial, edge) lists `_draw` sorts the `go` cells into, for given
    arrival times: an engine whose gate every cell passes and whose coins
    and sort keys are read from the arrays."""
    count, e = go.shape

    def coins(seed, trial, edge, u_gate):
        row = trial.astype(np.intp)
        if t_v is None:
            return go[row, edge], go[row, edge], None, (t_e[row, edge],)
        return go[row, edge], go[row, edge], None, (t_v[row, online[edge]], online[edge], t_e[row, edge])

    engine = SimpleNamespace(topo=SimpleNamespace(n_edges=e), gate=(ARRIVAL, np.ones(e)), purposes=(), _coins=coins)
    cells = simulate._draw(engine, 0, 0, count, False)
    assert cells.go.all()
    return cells.trial, cells.edge


def go_list(order, go):
    """Each trial's go edges in `order`, listed trial by trial."""
    rows, cols = np.nonzero(np.take_along_axis(go, order, axis=1))
    return rows, order[rows, cols]


def assert_lists_equal(got, want):
    assert all(np.array_equal(a, b) for a, b in zip(got, want))


@pytest.mark.parametrize("dtype", [np.uint8, np.intp])
def test_vertex_order_matches_the_rank_key_under_time_ties(dtype):
    rng = np.random.default_rng(11)
    count, e, nv = 400, 12, 6
    online = rng.choice([1, 3, 4], size=e).astype(dtype)
    t_e = rng.integers(0, 3, (count, e)) / 4.0  # edge-time ties too
    t_v = rng.random((count, nv))
    t_v[:, 3] = t_v[:, 1]  # two online vertices arrive together in every trial
    t_v[::2, 4] = t_v[::2, 1]
    go = rng.random((count, e)) < 0.6
    go[0] = True
    got = sorted_go_cells(go, t_e, t_v, online)
    assert_lists_equal(got, go_list(rank_key_order(t_e, t_v, online), go))


# one-byte and two-byte vertex positions, and positions past 11 bits
@pytest.mark.parametrize("nv", [6, 300, 2500])
def test_vertex_order_matches_the_lexsort_under_time_ties(nv, monkeypatch):
    rng = np.random.default_rng(nv)
    count, e = (300 if nv < 2048 else 40), 2 * nv
    online = rng.integers(nv // 2, nv, size=e).astype(np.min_scalar_type(nv - 1))
    t_e = np.floor(rng.random((count, e)) * 8) / 8
    t_v = np.floor(rng.random((count, nv)) * 4) / 4  # vertex-time ties in every trial
    t_v[::3] = rng.random((len(t_v[::3]), nv))
    go = rng.random((count, e)) < 0.5
    got = sorted_go_cells(go, t_e, t_v, online)
    assert_lists_equal(got, go_list(lexsort_order(t_e, t_v, online), go))
    # the engine's draws, with equal vertex and edge times forced in every
    # other trial: a detail chunk's order is the lexsort's, and a reduced
    # chunk keeps its go cells in that order
    engine = _vertex("bip_5x5")
    e, nv = engine.topo.n_edges, engine.topo.n_vertices
    units = np.arange(e + nv, dtype=np.uint64)[None, :]
    draw = simulate.hash_uniform(3, np.arange(500, dtype=np.uint64)[:, None], units, ARRIVAL)
    draw[::2] = np.floor(draw[::2] * 3) / 3
    order = lexsort_order(draw[:, :e], draw[:, e:], engine.online_of_edge)
    _tie_arrival_times(monkeypatch, 2, 3)
    seen = []
    real = simulate._finish
    monkeypatch.setattr(simulate, "_finish", lambda topo, cells, *a: seen.append(cells) or real(topo, cells, *a))
    engine.run_chunk(3, 0, 500, detail=True)
    engine.run_chunk(3, 0, 500)
    every, kept = seen
    assert np.array_equal(every.edge.reshape(500, e), order)
    go = np.zeros((500, e), dtype=bool)
    go[every.trial, every.edge] = every.go
    assert_lists_equal((kept.trial, kept.edge), go_list(order, go))
    assert 0 < kept.trial.size < every.trial.size


@pytest.mark.parametrize("e", [1, 7, 479, 2048, 2049])  # 2048 edges is the widest packed key
def test_arrival_order_is_the_stable_argsort(e):
    rng = np.random.default_rng(e)
    count = 64
    t = simulate.hash_uniform(e, np.arange(count, dtype=np.uint64)[:, None],
                              np.arange(e, dtype=np.uint64)[None, :], ARRIVAL)
    t[::2] = np.floor(t[::2] * 5) / 5  # ties in every other trial
    t[1, :] = 0.0  # a trial where every edge arrives at once
    t[3, :] = t[3, :].max()
    if e > 1:
        t[5, -2:] = t[5, 0]  # a tie between the first and last positions
    t[7] = rng.random(e)
    t[9] = (2**40 + np.arange(e)[::-1]) * 2.0**-53  # times one step of 2**-53 apart
    go = rng.random((count, e)) < 0.7
    go[1::2] = True  # every edge goes in every other trial
    got = sorted_go_cells(go, t)
    assert_lists_equal(got, go_list(np.argsort(t, axis=1, kind="stable"), go))


def test_q_dtype_follows_the_widest_neighbourhood(monkeypatch):
    assert simulate._count_dtype(0) is np.int16
    assert simulate._count_dtype(32766) is np.int16
    assert simulate._count_dtype(32767) is np.int32
    assert simulate._count_dtype(10**6) is np.int32
    engine = _ro("gen_6d")
    assert engine.topo.q_dtype is np.int16
    narrow = engine.run_chunk(5, 0, 2000, detail=True)
    assert narrow.q.dtype == np.int16
    # a wide dtype changes no count
    monkeypatch.setattr(simulate, "_count_dtype", lambda widest: np.int32)
    wide = _ro("gen_6d").run_chunk(5, 0, 2000, detail=True)
    assert wide.q.dtype == np.int32 and np.array_equal(wide.q, narrow.q)
