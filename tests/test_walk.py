"""The shared walk kernel against a step-by-step reference.

`reference_walk` is the walk written the plain way: one (trial, column) pair
per array access, over every edge in arrival order, and Q-counts straight
from their definition, with "before" meaning an earlier position in the
walk's arrival order.  Every engine must hand `_walk` coins on which the
kernel and the reference agree on every output, on suite instances, with
patience, with rewards, with parallel edges and with tied arrival keys.  The
kernel steps through only the go cells when the busiest trial has fewer than
half the edges go, so each of those cases is checked on both sides of that
choice.  Instances of at most 64 edges walk on uint64 words and wider ones on
per-vertex arrays; the walk cases at 64, 65 and 69 edges check both forms,
each on both sides of the compaction threshold.
"""

import dataclasses

import numpy as np
import pytest

from ocrslab import simulate, suite
from ocrslab._rng import ARRIVAL
from ocrslab.attenuation import AttenuationSpec
from ocrslab.graphcore import (
    Edge,
    FractionalPoint,
    MenuEntry,
    PricingInstance,
    Vertex,
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
    return simulate._Walk(matched_e, probed_e, revenue, probes), q


def assert_walks_equal(got, want, go):
    """The kernel's q is defined on go cells only; `run_against_reference`
    checks the detail chunk's q on every cell."""
    (walk, q), (ref, ref_q) = got, want
    for field in simulate._Walk._fields:
        a, b = getattr(walk, field), getattr(ref, field)
        assert a.dtype == b.dtype and np.array_equal(a, b), field
    assert np.array_equal(q[go], ref_q[go])


@pytest.fixture
def compacted(monkeypatch):
    """The k of every walk that steps through its go cells only."""
    ks = []
    real = simulate._go_steps

    def spy(order, go, n_go, k):
        ks.append(k)
        return real(order, go, n_go, k)

    monkeypatch.setattr(simulate, "_go_steps", spy)
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
    """Runs one detail chunk, checking every `_walk` call against the reference."""
    real = simulate._walk
    calls = []

    def spy(*args):
        out = real(*args)
        calls.append((args, out))
        return out

    monkeypatch.setattr(simulate, "_walk", spy)
    det = engine.run_chunk(seed, 100, count, detail=True)
    ((args, out),) = calls
    _, _, go, accept = args[:4]
    ref = reference_walk(*args)
    assert_walks_equal(out, ref, go)
    # the walk counts `go & accept` as realized; every engine reports the same
    assert np.array_equal(det.realized, go & accept)
    assert np.array_equal(det.matched, out[0].matched) and np.array_equal(det.q, ref[1])
    assert det.matched.any() and det.q.any()
    return det


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
    det = run_against_reference(ENGINES[name](), monkeypatch)
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
    assert not simulate._Topology(inst).simple
    assert simulate._Topology(_entry("bip_4x4").instance).simple
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


def _multigraph_engine(scheme, copies=2):
    """One engine on every offline-online pair `copies` times: 9 * copies
    edges, 3 * copies at each vertex."""
    pairs = [(u, v) for u in "ace" for v in "bdf"] * copies
    inst = _multigraph(pairs, patience={"a": 1, "d": 1})
    x = {e.id: 0.04 for e in inst.edges}
    stats = edge_stats(x, inst)
    return {
        "ro": lambda: simulate.RoOcrsEngine(inst, x, stats, A2),
        "stochastic": lambda: simulate.StochasticOcrsEngine(
            inst, dict.fromkeys(x, 0.1), dict.fromkeys(x, 0.4), stats, A2
        ),
        "vertex": lambda: simulate.VertexArrivalEngine(inst, x),
    }[scheme]()


@pytest.mark.parametrize("scheme", ["ro", "stochastic", "vertex"])
def test_parallel_edges_on_the_compacted_walk(scheme, monkeypatch, compacted):
    engine = _multigraph_engine(scheme)
    assert not engine.topo.simple
    det = run_against_reference(engine, monkeypatch, count=4000)
    assert len(compacted) == 1 and 2 * compacted[0] < engine.topo.n_edges
    if scheme == "stochastic":
        assert det.probed.any() and (det.probes_used[:, [0, 3]] == 1).any()


@pytest.mark.parametrize("scheme", ["ro", "stochastic", "vertex"])
def test_a_multigraph_counts_q_once_per_chunk(scheme, monkeypatch, word_walks):
    # the word walk counts Q(e) itself on the cells it visits, so only a
    # detail chunk counts it from arrival positions, on every cell; the array
    # walk counts it that way on every cell of a multigraph already, and a
    # detail chunk reuses it instead of counting it again
    real = simulate._q_counts
    calls = []

    def spy(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(simulate, "_q_counts", spy)
    for copies, word in ((2, True), (8, False)):  # 18 and 72 edges
        engine = _multigraph_engine(scheme, copies)
        assert not engine.topo.simple
        for detail in (True, False):
            calls.clear()
            word_walks.clear()
            engine.run_chunk(7, 100, 500, detail=detail)
            assert word_walks == [word], (copies, detail)
            assert len(calls) == (1 if detail or not word else 0), (copies, detail)


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
def test_wide_engines_walk_only_their_go_cells(scheme, monkeypatch, compacted):
    det = run_against_reference(_mc_large_engine(scheme), monkeypatch, seed=3, count=120)
    assert det.matched.shape[1] == 479
    # a few dozen go cells at most per trial, out of 479
    assert len(compacted) == 1 and 0 < compacted[0] < 60
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
def test_reduced_chunks_are_the_column_sums_of_detail_chunks(scheme, wide, compacted):
    if not wide:
        engine, seed, count = ENGINES[DENSE[scheme]](), 7, 1500
    else:
        engine, seed, count = _mc_large_engine(scheme), 3, 120
    counts = engine.run_chunk(seed, 100, count)
    det = engine.run_chunk(seed, 100, count, detail=True)
    # both chunks walk the same coins: compacted on the wide instance only
    assert len(compacted) == (2 if wide else 0)
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
    assert topo.n_edges == n_edges and topo.simple
    order = np.argsort(rng.random((count, n_edges)), axis=1)
    go = np.argsort(rng.random((count, n_edges)), axis=1) < np.asarray(n_go)[:, None]
    accept = rng.random((count, n_edges)) < 0.5
    reward = rng.random((count, n_edges))
    return topo, order, go, accept, reward


def _check_walk(topo, order, go, accept, reward):
    """The walk without patience, then with patience 1 and rewards; returns the second."""
    for patience, pay in ((None, None), (topo.patience, reward)):
        got = simulate._walk(topo, order, go, accept, patience, pay)
        assert_walks_equal(got, reference_walk(topo, order, go, accept, patience, pay), go)
    return got


def test_a_chunk_without_go_cells_takes_no_step(compacted):
    topo, order, go, accept, reward = _walk_case(np.random.default_rng(1), 20, 50, [0] * 50)
    walk, _ = _check_walk(topo, order, go, accept, reward)
    assert compacted == [0, 0]
    assert not walk.matched.any() and not walk.probed.any() and not walk.revenue.any()


@pytest.mark.parametrize("busy", [7, 20])  # compacted at 7 of 20 go cells, not at 20
def test_trials_without_go_cells_beside_busy_trials(busy, compacted):
    count = 300
    n_go = np.where(np.arange(count) % 3 == 0, 0, busy)
    n_go[1::3] = np.random.default_rng(busy).integers(0, busy + 1, len(n_go[1::3]))
    case = _walk_case(np.random.default_rng(2), 20, count, n_go)
    walk, q = _check_walk(*case)
    assert bool(compacted) == (2 * busy < 20)
    assert walk.matched[1::3].any() and walk.probed.any() and walk.revenue.any()
    assert q[case[2]].any() and not walk.matched[::3].any()


@pytest.mark.parametrize("n_edges,busy", [(21, 10), (20, 10), (21, 11)])  # 2k = E - 1, E, E + 1
def test_both_sides_of_the_compaction_threshold(n_edges, busy, compacted):
    count = 400
    rng = np.random.default_rng(n_edges + busy)
    n_go = rng.integers(0, busy + 1, count)
    n_go[rng.integers(count)] = busy  # the busiest trial sets k
    walk, q = _check_walk(*_walk_case(rng, n_edges, count, n_go))
    assert bool(compacted) == (2 * busy < n_edges)
    assert walk.probed.any() and q.any()


# the n = 14 graph has 69 edges: cut to 64 it walks on words, to 65 or more
# on arrays; of each pair of busy values the first compacts and the second,
# ceil(E / 2), walks every edge
@pytest.mark.parametrize(
    "n_edges,busy", [(64, 31), (64, 32), (65, 32), (65, 33), (69, 34), (69, 35)]
)
def test_words_and_arrays_on_both_sides_of_64_edges(n_edges, busy, compacted, word_walks):
    count = 300
    rng = np.random.default_rng(n_edges * busy)
    n_go = rng.integers(0, busy + 1, count)
    n_go[rng.integers(count)] = busy
    walk, q = _check_walk(*_walk_case(rng, n_edges, count, n_go, n=14))
    assert word_walks == [n_edges <= 64] * 2
    assert bool(compacted) == (2 * busy < n_edges)
    assert walk.matched.any() and walk.probed.any() and walk.revenue.any() and q.any()


def test_a_self_loop_walks_on_arrays(word_walks):
    # a loop spends its vertex's patience twice per proposal, which a set of
    # probed edges cannot count; `validate_instance` refuses such an
    # instance, but the walk stays exact on one
    vs = tuple(Vertex(v, patience=3) for v in "abc")
    es = tuple(
        Edge(f"e{i}", u, v, (MenuEntry(0.0, 0.5),))
        for i, (u, v) in enumerate([("a", "a"), ("a", "b"), ("b", "c"), ("a", "c"), ("c", "c")])
    )
    topo = simulate._Topology(PricingInstance(vs, es))
    assert topo.nbr_bits is None and not topo.simple
    rng = np.random.default_rng(5)
    count, e = 400, topo.n_edges
    order = np.argsort(rng.random((count, e)), axis=1)
    go, accept = rng.random((count, e)) < 0.8, rng.random((count, e)) < 0.5
    got = simulate._walk(topo, order, go, accept, topo.patience)
    assert_walks_equal(got, reference_walk(topo, order, go, accept, topo.patience), go)
    assert word_walks == [False] and (got[0].probes_used == 3).any()


def _tie_every_third_trial(monkeypatch):
    """Every third trial draws its arrival times from {0, 1/4, 1/2, 3/4}."""
    real = simulate.hash_uniform

    def tied(seed, trials, units, purpose):
        u = real(seed, trials, units, purpose)
        k = purpose.index(ARRIVAL)
        u[k] = np.where(trials % 3 == 0, np.floor(u[k] * 4) / 4, u[k])
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
    got = simulate._walk(topo, order, go, accept, patience, reward)
    assert_walks_equal(got, reference_walk(topo, order, go, accept, patience, reward), go)
    # RO coins: a realized edge with no realized earlier neighbour finds both
    # endpoints free, so the r0 event implies a match on every trial
    realized = go & accept
    walk, q = simulate._walk(topo, order, realized, accept)
    assert q[::3].any() and not (realized & (q == 0) & ~walk.matched).any()
    # the same through the engine, whose arrival times tie on every third trial
    _tie_every_third_trial(monkeypatch)
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


@pytest.mark.parametrize("dtype", [np.uint8, np.intp])
def test_vertex_order_matches_the_rank_key_under_time_ties(dtype):
    rng = np.random.default_rng(11)
    count, e, nv = 400, 12, 6
    online = rng.choice([1, 3, 4], size=e).astype(dtype)
    t_e = rng.integers(0, 3, (count, e)) / 4.0  # edge-time ties too
    t_v = rng.random((count, nv))
    t_v[:, 3] = t_v[:, 1]  # two online vertices arrive together in every trial
    t_v[::2, 4] = t_v[::2, 1]
    assert np.array_equal(simulate._vertex_order(t_e, t_v, online), rank_key_order(t_e, t_v, online))


@pytest.mark.parametrize("nv", [6, 300])  # one-byte and two-byte vertex ranks
def test_vertex_order_matches_the_lexsort_under_time_ties(nv):
    rng = np.random.default_rng(nv)
    count, e = 300, 2 * nv
    online = rng.integers(nv // 2, nv, size=e)
    t_e = np.floor(rng.random((count, e)) * 8) / 8
    t_v = np.floor(rng.random((count, nv)) * 4) / 4  # vertex-time ties in every trial
    t_v[::3] = rng.random((len(t_v[::3]), nv))
    order = simulate._vertex_order(t_e, t_v, online)
    assert np.array_equal(order, lexsort_order(t_e, t_v, online))
    # the engine's draws, with equal vertex and edge times forced in every
    # other trial, keep the order a lexsort gives
    engine = _vertex("bip_5x5")
    e, nv = engine.topo.n_edges, engine.topo.n_vertices
    units = np.arange(e + nv, dtype=np.uint64)[None, :]
    draw = simulate.hash_uniform(3, np.arange(500, dtype=np.uint64)[:, None], units, ARRIVAL)
    draw[::2] = np.floor(draw[::2] * 3) / 3
    t_e, t_v = draw[:, :e], draw[:, e:]
    online = engine.online_of_edge
    assert np.array_equal(simulate._vertex_order(t_e, t_v, online), lexsort_order(t_e, t_v, online))


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
    got = simulate._arrival_order(t)
    want = np.argsort(t, axis=1, kind="stable")
    assert got.dtype == np.int64 and got.shape == t.shape
    assert np.array_equal(got, want)


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
