"""Trial engines, Monte-Carlo aggregation, exact small-instance baselines.

Statistical assertions use the reports' own 99% intervals (or wider), so the
fixed seeds below are not load-bearing: any seed passes with overwhelming
probability, and the pinned ones make failures reproducible.
"""

import dataclasses
import math
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
import reference as ref
from hypothesis import given, settings
from hypothesis import strategies as st

from ocrslab import simulate, suite
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
    fractional_point_violations,
    generate_family,
)
from ocrslab.lp import auto_objective, build_lp_pricing, solve_lp
from ocrslab.simulate import (
    RoOcrsEngine,
    SequentialPricingEngine,
    StochasticOcrsEngine,
    VertexArrivalEngine,
    _ChunkCounts,
    exact_trivial_oracle,
    greedy_baseline,
    monte_carlo,
    optimal_policy_dp,
    wilson_interval,
)
from ocrslab.suite import build_suite

TRIV = AttenuationSpec("trivial")
A1 = AttenuationSpec("a1")
A2 = AttenuationSpec("a2", alpha=0.171)


def _ocrs_instance(xs, edges_spec, vertices, mode="general", patience=None):
    vs = tuple(
        Vertex(vid, patience=patience.get(vid) if patience else None)
        for vid in vertices
    )
    es = tuple(
        Edge(eid, u, v, (MenuEntry(0.0, xs[eid], c=xs[eid]),))
        for eid, u, v in edges_spec
    )
    return PricingInstance(vs, es, mode=mode), dict(xs)


def _two_path(x0=0.5, x1=0.5):
    return _ocrs_instance(
        {"e0": x0, "e1": x1},
        [("e0", "v0", "v1"), ("e1", "v1", "v2")],
        ["v0", "v1", "v2"],
    )


def assert_matching(inst, matched_row):
    """The edges flagged in one trial's row share no vertex."""
    used = set()
    for e, m in zip(inst.edges, matched_row):
        if m:
            assert e.u not in used and e.v not in used
            used.update((e.u, e.v))


# ---------------------------------------------------------------------------
# Wilson intervals


@given(n=st.integers(1, 10**7), k=st.integers(0, 10**7))
def test_wilson_interval_brackets(n, k):
    k = min(k, n)
    lo, hi = wilson_interval(k, n)
    assert 0.0 <= lo <= k / n <= hi <= 1.0


def test_wilson_interval_errors():
    with pytest.raises(ValueError):
        wilson_interval(0, 0)


# ---------------------------------------------------------------------------
# exact oracle


def test_oracle_single_edge():
    inst, x = _ocrs_instance({"e0": 0.7}, [("e0", "a", "b")], ["a", "b"])
    assert exact_trivial_oracle(x, inst) == {"e0": 0.7}


def test_oracle_two_path():
    inst, x = _two_path()
    oracle = exact_trivial_oracle(x, inst)
    # blocked only when the other edge is active (1/2) and earlier (1/2)
    assert math.isclose(oracle["e0"], 0.5 * (1 - 0.25))
    assert math.isclose(oracle["e1"], 0.375)


def test_oracle_triangle_symmetric():
    gen = generate_family("triangle")
    oracle = exact_trivial_oracle(gen.x, gen.instance)
    vals = list(oracle.values())
    assert all(math.isclose(v, vals[0]) for v in vals)
    assert vals[0] >= (1 / 3) ** 2  # grossly above the worst-case floor


def test_oracle_size_guard():
    gen = generate_family("star", k=11)
    with pytest.raises(ValueError):
        exact_trivial_oracle(gen.x, gen.instance)


def _refused_as_by_the_engines(x, inst, message):
    # the oracle's refusal is the engines' refusal, word for word
    for build in (lambda: VertexArrivalEngine(inst, x), lambda: exact_trivial_oracle(x, inst)):
        with pytest.raises(ValueError) as err:
            build()
        assert str(err.value) == message


def test_oracle_refuses_an_x_off_the_polytope():
    # branch weights 1 − x_e would go negative at x_e > 1
    inst = generate_family("star", k=2).instance
    _refused_as_by_the_engines(
        {"e0": 1.5, "e1": 0.9}, inst, "x lies outside the matching polytope at c (excess 1.4)"
    )


def test_oracle_refuses_an_unknown_edge():
    inst = generate_family("star", k=2).instance
    _refused_as_by_the_engines({"zz": 0.5}, inst, "unknown edge id in x: 'zz'")


# ---------------------------------------------------------------------------
# random-order engine


def test_mc_matches_oracle_within_ci():
    inst, x = _two_path()
    rep = monte_carlo(RoOcrsEngine(inst, x, edge_stats(x, inst), TRIV), 200_000, 7)
    oracle = exact_trivial_oracle(x, inst)
    for er in rep.edges:
        assert er.ci_lo <= oracle[er.edge_id] <= er.ci_hi
        assert er.x_ref == x[er.edge_id]


def test_report_bookkeeping():
    inst, x = _two_path(0.4, 0.6)
    rep = monte_carlo(RoOcrsEngine(inst, x, edge_stats(x, inst), TRIV), 50_000, 3)
    assert rep.trials == 50_000 and rep.master_seed == 3
    ratios = []
    for er in rep.edges:
        assert er.freq == er.matched / rep.trials
        assert er.r0 + er.r1 <= er.matched
        assert er.freq_r0 == er.r0 / rep.trials
        lo, hi = wilson_interval(er.matched, rep.trials)
        assert (er.ci_lo, er.ci_hi) == (lo, hi)
        assert er.half_width() == er.half_width("matched") == (hi - lo) / 2.0
        for field in ("r0", "r1"):
            lo_k, hi_k = wilson_interval(getattr(er, field), rep.trials)
            assert er.half_width(field) == (hi_k - lo_k) / 2.0
        assert math.isclose(er.ratio, er.freq / er.x_ref)
        ratios.append(er.ratio)
    assert rep.min_ratio == min(ratios)
    assert rep.revenue_mean == 0.0 and rep.revenue_ci == 0.0


def test_min_ratio_skips_edges_without_mass():
    inst, _ = _two_path()
    x = {"e0": 0.0, "e1": 0.5}
    rep = monte_carlo(RoOcrsEngine(inst, x, edge_stats(x, inst), TRIV), 2_000, 3)
    assert math.isnan(rep.edges[0].ratio)
    assert rep.min_ratio == rep.edges[1].ratio
    x = {"e0": 0.0, "e1": 0.0}
    assert math.isnan(monte_carlo(RoOcrsEngine(inst, x, edge_stats(x, inst), TRIV), 10, 3).min_ratio)


def test_deterministic_and_seed_sensitive():
    inst, x = _two_path()
    eng = RoOcrsEngine(inst, x, edge_stats(x, inst), A2)
    a = monte_carlo(eng, 20_000, 11)
    b = monte_carlo(eng, 20_000, 11)
    c = monte_carlo(eng, 20_000, 12)
    assert a == b
    assert a != c


@pytest.mark.parametrize("workers", [0, -2])
def test_monte_carlo_refuses_fewer_than_one_worker(workers):
    # these used to run serially without a word
    inst, x = _two_path()
    eng = RoOcrsEngine(inst, x, edge_stats(x, inst), A2)
    with pytest.raises(ValueError, match=f"workers must be >= 1, got {workers}"):
        monte_carlo(eng, 100, 0, workers=workers)


@pytest.mark.parametrize("chunk_size", [0, -5])
def test_monte_carlo_refuses_a_chunk_below_one_trial(chunk_size):
    # these used to run one trial per chunk without a word
    inst, x = _two_path()
    eng = RoOcrsEngine(inst, x, edge_stats(x, inst), A2)
    with pytest.raises(ValueError, match=f"chunk_size must be >= 1, got {chunk_size}"):
        monte_carlo(eng, 50, 1, chunk_size=chunk_size)


def test_chunking_and_workers_do_not_change_results():
    gen = generate_family("random_general", n=6, density=0.4, seed=22)
    ro = RoOcrsEngine(gen.instance, gen.x, edge_stats(gen.x, gen.instance), A2)
    # revenue sums are floats, so they must not follow the chunk boundaries
    bip = generate_family("random_bipartite", n=4, m=4, density=0.5, seed=3).instance
    pricing = SequentialPricingEngine(bip, solve_lp(build_lp_pricing(bip, "revenue")).point, A2)
    # E = 3: the derived chunk is a whole revenue block
    tiny = generate_family("random_bipartite", n=2, m=2, density=0.6, seed=3).instance
    tiny_pricing = SequentialPricingEngine(tiny, solve_lp(build_lp_pricing(tiny, "revenue")).point, A2)
    assert tiny_pricing.topo.n_edges == 3
    for eng in (ro, pricing, tiny_pricing):
        base = monte_carlo(eng, 30_000, 5)
        assert monte_carlo(eng, 30_000, 5, chunk_size=999) == base
        assert monte_carlo(eng, 30_000, 5, workers=4) == base
        assert monte_carlo(eng, 30_000, 5, chunk_size=1234, workers=3) == base
        assert (base.revenue_mean > 0.0) == (eng is not ro)


def _four_engines(gen):
    """The four engines on a generated bipartite instance; the stochastic and
    pricing engines with patience 1 on every vertex."""
    inst, x = gen.instance, gen.x
    stats = edge_stats(x, inst)
    patient = dataclasses.replace(
        inst, vertices=tuple(dataclasses.replace(v, patience=1) for v in inst.vertices)
    )
    y, p = dict.fromkeys(x, 0.9), {k: v / 0.9 for k, v in x.items()}
    return {
        "ro": RoOcrsEngine(inst, x, stats, A2),
        "stochastic": StochasticOcrsEngine(patient, y, p, stats, A1),
        "vertex": VertexArrivalEngine(inst, x),
        "pricing": SequentialPricingEngine(patient, solve_lp(build_lp_pricing(patient, "revenue")).point, A2),
    }


def test_reports_agree_across_chunk_sizes_and_workers_for_every_engine():
    engines = _four_engines(generate_family("random_bipartite", n=6, m=6, density=0.5, seed=4))
    for name, eng in engines.items():
        base = monte_carlo(eng, 40_000, 6)
        for chunk_size in (2048, 16384, 999):
            for workers in (1, 2):
                assert monte_carlo(eng, 40_000, 6, chunk_size=chunk_size, workers=workers) == base, name
        assert base.min_ratio > 0
    assert base.revenue_mean > 0.0


def test_reports_agree_across_chunk_sizes_and_workers_on_a_wide_instance():
    # E = 276: a 2048-trial chunk is drawn in nine row blocks of 237 trials,
    # a 37-trial one in one
    engines = _four_engines(generate_family("random_bipartite", n=30, m=30, density=0.3, seed=7))
    assert engines["ro"].topo.n_edges == 276
    assert 2048 > simulate._BLOCK_CELLS // 276 > 37
    for name, eng in engines.items():
        base = monte_carlo(eng, 5000, 6)
        for chunk_size, workers in ((2048, 2), (999, 1), (999, 2), (37, 1), (37, 2)):
            assert monte_carlo(eng, 5000, 6, chunk_size=chunk_size, workers=workers) == base, name
        assert base.min_ratio > 0
    assert base.revenue_mean > 0.0


def _cut_engines(n_edges):
    """The four engines on the first `n_edges` edges of a random bipartite
    graph and their endpoints, the point scaled to load some vertex fully;
    the stochastic and pricing engines with patience 2 on every vertex."""
    gen = generate_family("random_bipartite", n=300, m=300, density=0.025, seed=7)
    edges = gen.instance.edges[:n_edges]
    ends = {v for e in edges for v in (e.u, e.v)}
    load = dict.fromkeys(ends, 0.0)
    for e in edges:
        load[e.u] += gen.x[e.id]
        load[e.v] += gen.x[e.id]
    x = {e.id: gen.x[e.id] / max(load.values()) for e in edges}
    inst = PricingInstance(tuple(v for v in gen.instance.vertices if v.id in ends), edges, mode="bipartite")
    entry = suite.SuiteEntry("cut", inst, x, True)
    patient, y, p = suite.stochastic_variant(entry)
    point = FractionalPoint({(e.id, m.w): x[e.id] / len(e.menu) for e in edges for m in e.menu})
    stats = edge_stats(x, inst)
    return {
        "ro": RoOcrsEngine(inst, x, stats, A2),
        "stochastic": StochasticOcrsEngine(patient, y, p, stats, A1),
        "vertex": VertexArrivalEngine(suite.vertex_variant(entry), x),
        "pricing": SequentialPricingEngine(patient, point, A2),
    }


def _dense(cells, count, e, a):
    """A per-cell array of a chunk that keeps every cell, at (trial, edge)."""
    out = np.zeros((count, e), dtype=a.dtype)
    out[cells.trial, cells.edge] = a
    return out


# 2049 edges sort by time stably, not by packed (time, position) keys
@pytest.mark.parametrize("n_edges", [1, 11, 64, 65, 479, 2049])
def test_row_blocks_draw_what_one_whole_chunk_draw_does(n_edges, monkeypatch):
    engines = _cut_engines(n_edges)
    block = max(1, simulate._BLOCK_CELLS // n_edges)
    cells_seen, steps_seen = [], []
    real = simulate._walk

    def spy(topo, cells, *args):
        cells_seen.append(cells)
        return real(topo, cells, *args)

    monkeypatch.setattr(simulate, "_walk", spy)
    for name in ("_walk_bits", "_walk_bools"):
        walk = getattr(simulate, name)

        def walk_spy(topo, steps, go, accept, *args, _walk=walk):
            steps_seen.append((steps, go, accept))
            return _walk(topo, steps, go, accept, *args)

        monkeypatch.setattr(simulate, name, walk_spy)
    for name, eng in engines.items():
        assert eng.topo.n_edges == n_edges
        # one trial and a ragged last block in detail, and a default chunk
        # reduced, as monte_carlo runs it
        for count, detail in ((1, True), (block + block // 2 + 1, True), (2048, False)):
            order, go, accept, active, reward = ref.whole_chunk_coins(eng, 13, 5000, count)
            res = eng.run_chunk(13, 5000, count, detail=detail)
            cells = cells_seen.pop()
            steps, go_s, accept_s = steps_seen.pop()
            assert (reward is None) == (cells.reward is None), name
            if detail:
                # every cell, in the reference's arrival order
                assert np.array_equal(cells.edge.reshape(count, n_edges), order), (name, count)
                for a, b in ((cells.go, go), (cells.accept, accept), (cells.reward, reward)):
                    assert b is None or np.array_equal(_dense(cells, count, n_edges, a), b), (name, count)
                assert np.array_equal(res.active, active) and np.array_equal(res.realized, go & accept)
                continue
            # the reduced chunk walks each trial's go cells in arrival order
            want = ref.reference_steps(order, go)
            rows = np.arange(count)
            assert steps.shape == want.shape, name
            assert np.array_equal(go_s, go[rows, want]), name
            assert np.array_equal(go_s & accept_s, (go & accept)[rows, want]), name
            assert np.array_equal(steps[go_s], want[go_s]), name
            if reward is not None:
                assert np.array_equal(cells.reward, reward[cells.trial, cells.edge]), name
        # the default chunk's coins are not all of one value
        assert go.any() and accept.any() and not go.all(), name


def test_row_blocks_cut_anywhere_keep_the_same_cells(monkeypatch):
    # E = 479: a 2048-trial chunk is hashed in 16 row blocks, or in one
    engines = _cut_engines(479)
    for name, eng in engines.items():
        for detail, count in ((False, 2048), (True, 300)):
            many = simulate._draw(eng, 5, 77, count, detail)
            monkeypatch.setattr(simulate, "_BLOCK_CELLS", 2**30)
            one = simulate._draw(eng, 5, 77, count, detail)
            monkeypatch.undo()
            assert count > simulate._BLOCK_CELLS // 479, name
            for a, b in zip(many, one):
                assert (a is None) == (b is None) and (a is None or np.array_equal(a, b)), name
            assert (np.diff(many.trial) >= 0).all(), name
            assert many.go.all() != detail, name


def test_a_wide_chunk_never_holds_its_whole_draw():
    # the mc-large benchmark instance (E = 479): the stacked (3, 2048, 479)
    # float draw of a chunk alone would be 22.5 MiB
    gen = generate_family("random_bipartite", n=40, m=40, density=0.3, seed=7)
    eng = RoOcrsEngine(gen.instance, gen.x, edge_stats(gen.x, gen.instance), A2)
    assert eng.topo.n_edges == 479
    tracemalloc.start()
    try:
        eng.run_chunk(3, 0, 2048)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 24 * 2**20


def test_batches_of_row_blocks_draw_what_one_block_and_the_dense_draw_do(monkeypatch):
    # E = 479 and 8-trial row blocks of 3832 cells: a reduced chunk pools
    # 2-4 blocks' candidates into each batch of at most 1024, and a
    # detail chunk, every cell a candidate, takes one block per batch
    engines = _cut_engines(479)
    for name, eng in engines.items():
        for detail, count in ((False, 1024), (True, 40)):
            monkeypatch.setattr(simulate, "_BLOCK_CELLS", 2**30)
            one = simulate._draw(eng, 9, 300, count, detail)
            monkeypatch.setattr(simulate, "_BLOCK_CELLS", 4096)
            calls = _count_draw_calls(monkeypatch)
            many = simulate._draw(eng, 9, 300, count, detail)
            monkeypatch.undo()
            assert calls["gate"] == count // 8, (name, detail)
            if detail:
                assert calls["coins"] == calls["gate"], name
            else:
                assert 3 <= calls["coins"] <= calls["gate"] // 2, (name, calls)
            for a, b in zip(many, one):
                assert (a is None) == (b is None) and (a is None or np.array_equal(a, b)), (name, detail)
            # the dense draw's go cells (every cell, in detail), trial by
            # trial in arrival order
            order, go, accept, _, reward = ref.whole_chunk_coins(eng, 9, 300, count)
            sel = np.ones(order.shape, dtype=bool) if detail else np.take_along_axis(go, order, axis=1)
            trial = np.nonzero(sel)[0]
            edge = order[sel]
            at = (trial, edge)
            want = (trial, edge, go[at], accept[at], None if reward is None else reward[at])
            for a, b in zip(many, want):
                assert (a is None) == (b is None) and (a is None or np.array_equal(a, b)), (name, detail)


def _count_draw_calls(monkeypatch):
    """Counts, from now on, the gate passes and the coin-pass hashes (the
    calls of ``hash_uniform`` with a tuple of purposes) of `simulate`."""
    calls = {"gate": 0, "coins": 0}
    gate, hash_u = simulate.gate_uniforms, simulate.hash_uniform

    def gate_spy(*args):
        calls["gate"] += 1
        return gate(*args)

    def hash_spy(seed, trial, unit, purpose):
        calls["coins"] += isinstance(purpose, tuple)
        return hash_u(seed, trial, unit, purpose)

    monkeypatch.setattr(simulate, "gate_uniforms", gate_spy)
    monkeypatch.setattr(simulate, "hash_uniform", hash_spy)
    return calls


def _mc_large_engines():
    """The four engines of the mc-large benchmark instance (E = 479)."""
    gen = generate_family("random_bipartite", n=40, m=40, density=0.3, seed=7)
    stats = edge_stats(gen.x, gen.instance)
    entry = suite.SuiteEntry("mc_large", gen.instance, gen.x, True)
    inst_p, y, p = suite.stochastic_variant(entry)
    inst_o, y_o, p_o = suite.one_sided_variant(entry)
    return {
        "ro": RoOcrsEngine(gen.instance, gen.x, stats, A2),
        "stochastic": StochasticOcrsEngine(inst_p, y, p, stats, AttenuationSpec("a2", alpha=0.16)),
        "one-sided": StochasticOcrsEngine(inst_o, y_o, p_o, stats, AttenuationSpec("a2", alpha=0.162)),
        "vertex": VertexArrivalEngine(suite.vertex_variant(entry), gen.x),
    }


def test_a_wide_chunk_draws_its_other_coins_in_a_few_batches(monkeypatch):
    # a 2048-trial chunk of 479 edges is gated in 16 row blocks of 136
    # trials; its candidates, 4.7-6.2% of the cells, are pooled into batches of
    # at most 2**14, so the other purposes are hashed 3 or 4 times, not 16
    calls = _count_draw_calls(monkeypatch)
    for name, eng in _mc_large_engines().items():
        assert eng.topo.n_edges == 479
        calls.update(gate=0, coins=0)
        eng.run_chunk(2, 4096, 2048)
        assert calls["gate"] == 16 and 3 <= calls["coins"] <= 4, (name, calls)


def test_a_wide_chunk_of_every_engine_stays_small():
    # one 2048-trial chunk of each mc-large engine: its gate words are one
    # row block's, and its coin pass holds one batch of at most 2**14
    # candidates
    for name, eng in _mc_large_engines().items():
        eng.run_chunk(3, 0, 2048)
        tracemalloc.start()
        try:
            eng.run_chunk(3, 2048, 2048)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10 * 2**20, name


def test_a_vertex_chunk_draws_online_times_on_its_candidate_cells_alone():
    # E = 45 edges among |V| = 5002 vertices: a (415, 5002) float draw of
    # every online vertex's time would be 15.8 MiB on its own
    gen = generate_family("random_bipartite", n=2, m=5000, density=0.004, seed=1)
    eng = VertexArrivalEngine(gen.instance, gen.x)
    assert (eng.topo.n_edges, eng.topo.n_vertices) == (45, 5002)
    count = simulate._CHUNK_CELLS // (4 * (45 + 5002))
    assert count == 415
    eng.run_chunk(3, 0, count)
    tracemalloc.start()
    try:
        eng.run_chunk(3, count, count)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 20 * 2**20


def test_set_up_and_runs_on_a_ten_thousand_edge_star_stay_in_bounded_memory():
    # the hub has degree 10**4, so per-edge neighbour lists would hold 10**8
    # positions; the peak, about 100 MiB, is the dense pricing chunk's
    gen = generate_family("star", k=10_000)
    inst, x = gen.instance, gen.x
    tracemalloc.start()
    try:
        stats = edge_stats(x, inst)
        engines = [
            RoOcrsEngine(inst, x, stats, A2),
            VertexArrivalEngine(dataclasses.replace(inst, mode="vertex-arrival"), x),
            StochasticOcrsEngine(inst, x, dict.fromkeys(x, 1.0), stats, A2),
            # y = 1 on every edge's single offer: every cell proposes
            SequentialPricingEngine(
                inst, FractionalPoint({(e.id, e.menu[0].w): 1.0 for e in inst.edges}), A2, "custom"
            ),
        ]
        chunk = simulate._CHUNK_CELLS // (4 * (10_000 + 10_001))
        reports = [monte_carlo(eng, 2048, 1) for eng in engines[:3]]
        # the pricing walk steps through all 10**4 cells of every trial, so
        # it runs one chunk: the peak is a chunk's, whatever the trial count
        reports.append(monte_carlo(engines[3], chunk, 1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert all(0 < sum(er.matched for er in rep.edges) <= rep.trials for rep in reports)
    assert peak < 160 * 2**20


def test_revenue_sums_scale_exactly_by_powers_of_two():
    # the same draws with every reward scaled by 2**511: the sum of squared
    # revenues would pass the float range, yet the report scales exactly
    inst = generate_family("star", k=3).instance
    objective = auto_objective(inst)
    point = solve_lp(build_lp_pricing(inst, objective)).point
    eng = SequentialPricingEngine(inst, point, A2, objective)
    base = monte_carlo(eng, 300, 2)
    eng.menu_r = np.ldexp(eng.menu_r, 511)
    with np.errstate(over="raise"):
        big = monte_carlo(eng, 300, 2, chunk_size=100)
    assert 0.0 < base.revenue_ci < base.revenue_mean
    assert big.revenue_mean == math.ldexp(base.revenue_mean, 511)
    assert big.revenue_ci == math.ldexp(base.revenue_ci, 511)
    assert big.edges == base.edges
    # a revenue beyond the float range raises
    eng.menu_r[0, 0] = math.inf
    with pytest.raises(ValueError, match="not a finite number"), np.errstate(over="ignore"):
        monte_carlo(eng, 300, 2)


class _WideEngine:
    """Stands in for an engine on `n_edges` edges and `n_vertices` vertices
    and records its chunk starts and sizes."""

    def __init__(self, n_edges: int, n_vertices: int = 0):
        self.topo = SimpleNamespace(
            edge_ids=tuple(f"e{i}" for i in range(n_edges)), n_vertices=n_vertices
        )
        self.x = np.zeros(n_edges)
        self.starts = []
        self.counts = []

    def run_chunk(self, seed, start, count, detail=False):
        self.starts.append(start)
        self.counts.append(count)
        zeros = np.zeros(len(self.x), dtype=np.int64)
        return _ChunkCounts(zeros, zeros, zeros, np.zeros(count))


def test_chunks_are_capped_by_memory_on_wide_instances():
    eng = _WideEngine(100_000)
    rep = monte_carlo(eng, 200, 1)
    assert rep.trials == 200
    assert sum(eng.counts) == 200
    # a (trials, edges) array of 8-byte items, such as the arrival order,
    # stays at or below 16 MiB
    assert max(eng.counts) * 100_000 * 8 <= 16 * 2**20
    assert eng.counts == [20] * 10
    # a narrow instance keeps the default chunk size
    narrow = _WideEngine(479)
    monte_carlo(narrow, 40_000, 1)
    assert narrow.counts == [2048] * 19 + [1088]


def test_chunks_tile_the_trials_and_never_straddle_a_revenue_block():
    # an explicit chunk size is kept, also where the derived one is larger
    for n_edges in (479, 3):
        eng = _WideEngine(n_edges)
        monte_carlo(eng, 40_000, 1, chunk_size=999)
        ends = [s + n for s, n in zip(eng.starts, eng.counts)]
        # in order and without gaps or overlaps from 0 to 40000
        assert eng.starts == [0] + ends[:-1]
        assert ends[-1] == 40_000
        # 16 chunks of 999 and one of 400 fill each revenue block
        assert eng.counts == ([999] * 16 + [400]) * 2 + [999] * 7 + [239]
        # every multiple of the 16384-trial revenue block is a chunk boundary
        assert all(s // 16384 == (e - 1) // 16384 for s, e in zip(eng.starts, ends))
        assert {16384, 32768} <= set(ends)


def _layout_engine(name):
    """An engine on a suite instance, on the E = 27 bipartite instance of
    CI, or on the instance of the benchmark's `mc-large` or of one of its
    `pricing` LPs (with a zero point: the chunk layout reads only the
    topology)."""
    entries = {entry.name: entry for entry in build_suite()}
    if name in entries:
        inst, x = entries[name].instance, entries[name].x
        return RoOcrsEngine(inst, x, edge_stats(x, inst), A2)
    params = {
        "bip_8x8": (8, 0.5, 3),
        "mc_large": (40, 0.3, 7),
        "pricing_20x20": (20, 0.35, 7),
        "pricing_25x25": (25, 0.3, 7),
    }
    n, density, seed = params[name]
    gen = generate_family("random_bipartite", n=n, m=n, density=density, seed=seed)
    if name.startswith("pricing"):
        return SequentialPricingEngine(gen.instance, FractionalPoint({}), A2)
    return RoOcrsEngine(gen.instance, gen.x, edge_stats(gen.x, gen.instance), A2)


@pytest.mark.parametrize(
    "name, n_edges, chunk",
    [
        ("tight_path3_10", 3, 16384),
        ("star_2", 2, 16384),
        ("bip_4x4", 11, 4096),
        ("bip_8x8", 27, 2048),
        ("mc_large", 479, 2048),
        ("pricing_20x20", 140, 2048),
        ("pricing_25x25", 177, 2048),
    ],
)
def test_default_chunks_hold_about_one_row_block(name, n_edges, chunk, monkeypatch):
    eng = _layout_engine(name)
    assert eng.topo.n_edges == n_edges
    jobs = []

    def spy(seed, start, count, detail=False):
        # records the chunk and runs no trial
        jobs.append((start, count))
        zeros = np.zeros(n_edges, dtype=np.int64)
        return _ChunkCounts(zeros, zeros, zeros, np.zeros(count))

    monkeypatch.setattr(eng, "run_chunk", spy)
    monte_carlo(eng, 40_000, 1)
    # a power of two divides the revenue block, so only the last chunk is short
    assert jobs == [(s, min(chunk, 40_000 - s)) for s in range(0, 40_000, chunk)]
    if chunk > 2048:
        assert chunk * n_edges <= simulate._BLOCK_CELLS
    assert all(s // 16384 == (s + n - 1) // 16384 for s, n in jobs)


def test_chunks_are_capped_by_memory_on_instances_with_many_vertices():
    # one edge among a million vertices: the walk's per-(trial, vertex)
    # arrays and the vertex arrival draws set the chunk, not the edge
    eng = _WideEngine(1, 10**6)
    monte_carlo(eng, 10, 1)
    assert eng.counts == [2] * 5
    assert 4 * max(eng.counts) * (1 + 10**6) * 8 <= 64 * 2**20


@settings(max_examples=60, deadline=None)
@given(trial=st.integers(0, 10**6))
def test_trial_outcomes_form_matchings(trial):
    gen = generate_family("random_general", n=6, density=0.5, seed=3)
    stats = edge_stats(gen.x, gen.instance)
    eng = RoOcrsEngine(gen.instance, gen.x, stats, A2)
    det = eng.run_chunk(17, trial, 1, detail=True)  # row 0 is the trial
    assert_matching(gen.instance, det.matched[0])
    assert np.all(det.realized[0] | ~det.matched[0])  # matched => realized
    assert np.all(det.active[0] | ~det.realized[0])  # realized => active
    n_nbrs = [edge_neighbors(gen.instance, i).size for i in range(len(gen.instance.edges))]
    assert np.all((det.q[0] >= 0) & (det.q[0] <= n_nbrs))


def test_matched_iff_realized_and_q_zero_on_disjoint_edges():
    # two vertex-disjoint edges can never block each other
    inst, x = _ocrs_instance(
        {"e0": 0.9, "e1": 0.9},
        [("e0", "a", "b"), ("e1", "c", "d")],
        ["a", "b", "c", "d"],
    )
    rep = monte_carlo(RoOcrsEngine(inst, x, edge_stats(x, inst), TRIV), 20_000, 1)
    for er in rep.edges:
        assert er.r0 == er.matched  # no neighbors, so every match has q = 0
        assert er.r1 == 0


# ---------------------------------------------------------------------------
# stochastic probing engine


def test_stochastic_single_edge():
    inst, _ = _ocrs_instance({"e0": 0.7}, [("e0", "a", "b")], ["a", "b"])
    stats = edge_stats({"e0": 0.7}, inst)
    rep = monte_carlo(
        StochasticOcrsEngine(inst, {"e0": 1.0}, {"e0": 0.7}, stats, TRIV), 100_000, 2
    )
    (er,) = rep.edges
    assert er.x_ref == 0.7
    assert er.ci_lo <= 0.7 <= er.ci_hi


def test_stochastic_validation():
    inst, _ = _ocrs_instance({"e0": 0.7}, [("e0", "a", "b")], ["a", "b"])
    stats = edge_stats({"e0": 0.7}, inst)
    with pytest.raises(ValueError):
        StochasticOcrsEngine(inst, {"e0": 1.2}, {"e0": 0.7}, stats, TRIV)
    with pytest.raises(ValueError):
        StochasticOcrsEngine(inst, {"e0": 1.0}, {"e0": 1.2}, stats, TRIV)
    # marginal overload: two unit-probability edges at one vertex
    inst2, _ = _ocrs_instance(
        {"e0": 0.8, "e1": 0.8},
        [("e0", "a", "b"), ("e1", "a", "c")],
        ["a", "b", "c"],
    )
    stats2 = edge_stats({"e0": 0.8, "e1": 0.8}, inst2)
    with pytest.raises(ValueError, match="vertex a: marginal load exceeds 1"):
        StochasticOcrsEngine(
            inst2, {"e0": 0.8, "e1": 0.8}, {"e0": 1.0, "e1": 1.0}, stats2, TRIV
        )


def test_stochastic_refuses_a_nan_offer_rate():
    gen = generate_family("star", k=3)
    stats = edge_stats(gen.x, gen.instance)
    y = {eid: 0.5 for eid in gen.x}
    p = {eid: 0.5 for eid in gen.x}
    with pytest.raises(ValueError, match=r"y and p must lie in \[0, 1\]"):
        StochasticOcrsEngine(gen.instance, {**y, "e0": math.nan}, p, stats, A2)
    with pytest.raises(ValueError, match=r"y and p must lie in \[0, 1\]"):
        StochasticOcrsEngine(gen.instance, y, {**p, "e0": math.nan}, stats, A2)


@pytest.mark.parametrize("value", [math.nan, 1.7])
@pytest.mark.parametrize("scheme", ["ro", "vertex"])
def test_ro_and_vertex_engines_refuse_points_outside_the_polytope(scheme, value):
    gen = generate_family("star", k=3)
    x = {**gen.x, "e0": value}
    with pytest.raises(ValueError, match="x lies outside the matching polytope"):
        if scheme == "ro":
            RoOcrsEngine(gen.instance, x, edge_stats(gen.x, gen.instance), A2)
        else:
            VertexArrivalEngine(dataclasses.replace(gen.instance, mode="vertex-arrival"), x)


@settings(max_examples=60, deadline=None)
@given(trial=st.integers(0, 10**6))
def test_stochastic_probe_semantics(trial):
    # overloaded center with patience 1: probes are capped dynamically
    gen = generate_family("star", k=2)
    center = [v.id for v in gen.instance.vertices if v.side == "offline"][0]
    verts = tuple(
        Vertex(v.id, side=v.side, value=v.value, patience=1)
        for v in gen.instance.vertices
    )
    inst = PricingInstance(verts, gen.instance.edges, mode=gen.instance.mode)
    stats = edge_stats(gen.x, inst)
    y = {e.id: 1.0 for e in inst.edges}
    p = {e.id: 0.5 for e in inst.edges}
    eng = StochasticOcrsEngine(inst, y, p, stats, TRIV)
    det = eng.run_chunk(23, trial, 1, detail=True)
    assert det.probes_used[0, inst.vertex_pos[center]] <= 1
    probed, active, matched = det.probed[0], det.active[0], det.matched[0]
    assert np.all(matched | ~(probed & active))  # an active probe commits
    assert np.all(probed | ~matched)


# ---------------------------------------------------------------------------
# vertex-arrival engine


def test_vertex_single_edge():
    inst, x = _ocrs_instance(
        {"e0": 1.0}, [("e0", "w", "j")], ["w", "j"], mode="vertex-arrival"
    )
    inst = PricingInstance(
        (Vertex("w", side="offline"), Vertex("j", side="online")),
        inst.edges,
        mode="vertex-arrival",
    )
    rep = monte_carlo(VertexArrivalEngine(inst, x), 200_000, 4)
    (er,) = rep.edges
    # always active; survives the time-decay coin with probability 1 - 1/e
    assert er.ci_lo <= 1 - 1 / math.e <= er.ci_hi


def test_vertex_needs_bipartition():
    inst, x = _ocrs_instance({"e0": 1.0}, [("e0", "a", "b")], ["a", "b"])
    with pytest.raises(ValueError):
        VertexArrivalEngine(inst, x)


@settings(max_examples=40, deadline=None)
@given(trial=st.integers(0, 10**6))
def test_vertex_trials_form_matchings(trial):
    gen = generate_family("random_bipartite", n=4, m=4, density=0.5, seed=12)
    import dataclasses

    inst = dataclasses.replace(gen.instance, mode="vertex-arrival")
    det = VertexArrivalEngine(inst, gen.x).run_chunk(29, trial, 1, detail=True)
    assert_matching(inst, det.matched[0])


# ---------------------------------------------------------------------------
# sequential pricing engine


def test_pricing_deterministic_revenue():
    # single edge, sure offer at price 1 accepted with probability 1
    vs = (Vertex("w0"), Vertex("j0", value=2.0))
    es = (Edge("e0", "w0", "j0", (MenuEntry(1.0, 1.0),)),)
    inst = PricingInstance(vs, es)
    point = FractionalPoint(y={("e0", 1.0): 1.0})
    rep = monte_carlo(SequentialPricingEngine(inst, point, TRIV), 5_000, 6)
    assert rep.revenue_mean == 1.0
    assert rep.revenue_ci == 0.0
    (er,) = rep.edges
    assert er.freq == 1.0


def test_pricing_rejects_infeasible_point():
    vs = (Vertex("w0"), Vertex("j0", value=2.0))
    es = (Edge("e0", "w0", "j0", (MenuEntry(1.0, 1.0),)),)
    inst = PricingInstance(vs, es)
    bad = FractionalPoint(y={("e0", 1.0): 1.4})
    with pytest.raises(ValueError):
        SequentialPricingEngine(inst, bad, TRIV)


def test_pricing_rejects_a_point_that_overloads_a_vertex():
    # each edge is within its offer budget, but the sure offers put a
    # marginal load of 2 on the centre
    vs = (Vertex("c"), Vertex("a", value=2.0), Vertex("b", value=2.0))
    es = (
        Edge("e0", "c", "a", (MenuEntry(1.0, 1.0),)),
        Edge("e1", "c", "b", (MenuEntry(1.0, 1.0),)),
    )
    inst = PricingInstance(vs, es)
    point = FractionalPoint(y={("e0", 1.0): 1.0, ("e1", 1.0): 1.0})
    assert fractional_point_violations(point, inst) == ["vertex c: marginal load 2.0 exceeds 1"]
    with pytest.raises(ValueError, match="vertex c: marginal load 2.0 exceeds 1"):
        SequentialPricingEngine(inst, point, TRIV)


def test_pricing_refuses_a_nan_offer_rate():
    inst = generate_family("star", k=3).instance
    point = solve_lp(build_lp_pricing(inst, auto_objective(inst))).point
    key = ("e0", inst.edges[0].menu[0].w)
    nan_point = FractionalPoint(y={**point.y, key: math.nan})
    assert fractional_point_violations(nan_point, inst) == [f"y[e0,{key[1]}]: non-finite entry nan"]
    with pytest.raises(ValueError, match="non-finite entry nan"):
        SequentialPricingEngine(inst, nan_point, A2)


def test_pricing_respects_patience():
    # hub with patience 1 and two sure edges: at most one proposal per trial
    vs = (Vertex("hub", patience=1), Vertex("a", value=1.0), Vertex("b", value=1.0))
    es = (
        Edge("e0", "hub", "a", (MenuEntry(0.5, 1.0),)),
        Edge("e1", "hub", "b", (MenuEntry(0.5, 1.0),)),
    )
    inst = PricingInstance(vs, es)
    point = FractionalPoint(y={("e0", 0.5): 0.5, ("e1", 0.5): 0.5})
    eng = SequentialPricingEngine(inst, point, TRIV)
    rep = monte_carlo(eng, 20_000, 8)
    total_matched = sum(er.matched for er in rep.edges)
    assert total_matched <= rep.trials  # never both edges in one trial
    det = eng.run_chunk(8, 0, 200, detail=True)  # row k is trial k
    assert np.all(det.probes_used[:, inst.vertex_pos["hub"]] <= 1)
    assert np.all(det.matched.sum(axis=1) <= 1)


def test_pricing_offers_from_menus_wider_than_127_entries():
    # all offer mass on menu[200]: a menu index stored in 8 bits would wrap
    # negative and read as "no offer", so the edge would never match
    inst = generate_family("single_edge_hard", k=400, grid=range(300)).instance
    w = inst.edges[0].menu[200].w
    point = FractionalPoint(y={("e0", w): 1.0})
    rep = monte_carlo(SequentialPricingEngine(inst, point, TRIV), 200_000, 4)
    (er,) = rep.edges
    assert er.freq > 0
    assert er.ci_lo <= 0.005 <= er.ci_hi


# ---------------------------------------------------------------------------
# gates: a reduced chunk draws its other coins only where the gate holds


def _one_edge_engines(x, y, s, spec):
    """The four engines on one edge whose attenuation slack is `s`: RO and
    vertex at x, stochastic offering at y with success x, pricing offering
    its one price (accepted with 1/2) at y."""
    vs = (Vertex("a", side="offline"), Vertex("b", side="online"))
    inst = PricingInstance(vs, (Edge("e0", "a", "b", (MenuEntry(1.0, 0.5, c=0.5),)),), mode="bipartite")
    stats = {"e0": SimpleNamespace(s=s)}
    pricing = SequentialPricingEngine(inst, FractionalPoint({("e0", 1.0): y}), spec, "custom")
    pricing.s = np.array([s])  # its slack is the graph's; the gate ignores it
    return {
        "ro": RoOcrsEngine(inst, {"e0": x}, stats, spec),
        "stochastic": StochasticOcrsEngine(inst, {"e0": y}, {"e0": x}, stats, spec),
        "vertex": VertexArrivalEngine(inst, {"e0": x}),
        "pricing": pricing,
    }


HALF = st.floats(0.0, 0.5)


@settings(max_examples=300, deadline=None)
@given(x=HALF, y=HALF, s=HALF, alpha=HALF, kind=st.sampled_from(["trivial", "a1", "a2"]))
def test_a_cell_that_goes_passes_its_gate(x, y, s, alpha, kind):
    # arrival at 0, at the smallest positive draw and at the largest draw;
    # every other coin at 0.0, where it holds whenever it can
    t = np.array([0.0, 2.0**-53, 1.0 - 2.0**-53])
    zeros, edge, trial = np.zeros(3), np.zeros(3, dtype=np.intp), np.arange(3, dtype=np.uint64)
    for name, eng in _one_edge_engines(x, y, s, AttenuationSpec(kind, alpha=alpha)).items():
        bound = eng.gate[1][0]
        rest = [t if p == ARRIVAL else zeros for p in eng.purposes]
        # gate draws just below the bound, at it and just above it
        for u in (np.nextafter(bound, 0.0), bound, np.nextafter(bound, 1.0)):
            go = eng._coins(7, trial, edge, np.full(3, u), *rest)[0]
            assert u < bound or not go.any(), (name, u, bound)


# ---------------------------------------------------------------------------
# one walk for every scheme


def test_ro_walk_is_the_stochastic_walk_with_sure_probes():
    # without patience, probing every edge (y = 1) that turns out active with
    # p = x draws the same coins as RO-OCRS at x and walks the same way
    gen = generate_family("random_general", n=7, density=0.5, seed=5)
    stats = edge_stats(gen.x, gen.instance)
    ones = {eid: 1.0 for eid in gen.x}
    ro = RoOcrsEngine(gen.instance, gen.x, stats, A2)
    sto = StochasticOcrsEngine(gen.instance, ones, gen.x, stats, A2)
    a, b = ro.run_chunk(13, 100, 4000), sto.run_chunk(13, 100, 4000)
    assert a.matched.sum() > 0
    for field in ("matched", "r0", "r1"):
        assert np.array_equal(getattr(a, field), getattr(b, field)), field


# ---------------------------------------------------------------------------
# exact baselines


def test_dp_and_greedy_separations():
    d1 = generate_family("greedy_counterexample_d1", eps=0.01).instance
    assert greedy_baseline(d1, "by_weight") == 0.02
    assert greedy_baseline(d1, "by_expected_weight") == 1.0
    assert optimal_policy_dp(d1) == 1.0

    d2_3 = generate_family("greedy_counterexample_d2", N=10, k=3).instance
    d2_6 = generate_family("greedy_counterexample_d2", N=10, k=6).instance
    bew = greedy_baseline(d2_6, "by_expected_weight")
    assert bew == 1.0 + 0.01
    hi3 = greedy_baseline(d2_3, "by_weight")
    hi6 = greedy_baseline(d2_6, "by_weight")
    assert hi6 >= 5.0
    assert hi6 > hi3 + 2.5  # the separation grows with the star size
    assert optimal_policy_dp(d2_6) >= hi6 - 1e-12


def test_dp_exact_two_path():
    # probe e0 (p = 1/2, reward 1); if it fails, probe e1 (p = 1/2, reward 1):
    # value = 1/2 + 1/2 * 1/2 = 3/4 (edges share a vertex, so no double match)
    inst, _ = _two_path()
    assert math.isclose(optimal_policy_dp(inst, "custom"), 0.75)


def test_dp_guard():
    big = generate_family("star", k=13).instance
    with pytest.raises(ValueError):
        optimal_policy_dp(big)


def test_greedy_unknown_rule():
    d1 = generate_family("greedy_counterexample_d1", eps=0.01).instance
    with pytest.raises(ValueError):
        greedy_baseline(d1, "by_luck")


def test_dp_dominates_greedy_on_random_menus():
    inst = generate_family("random_bipartite", n=3, m=3, density=0.6, seed=11).instance
    if sum(len(e.menu) for e in inst.edges) <= 12:
        dp = optimal_policy_dp(inst)
        for rule in ("by_weight", "by_expected_weight"):
            assert dp >= greedy_baseline(inst, rule) - 1e-12


def _baseline_pool():
    """Small instances with patience unbounded, 1 and 2 at every vertex."""
    insts = [entry.instance for entry in build_suite()]
    insts.append(generate_family("greedy_counterexample_d1", eps=0.01).instance)
    insts += [generate_family("greedy_counterexample_d2", N=10, k=k).instance for k in range(1, 7)]
    insts.append(generate_family("single_edge_hard", k=10, grid=range(9)).instance)
    insts.append(generate_family("single_edge_hard", k=7.5, grid=(0, 1, 2.5)).instance)
    for n in (2, 3):
        for density in (0.5, 0.8, 1.0):
            insts += [
                generate_family("random_bipartite", n=n, m=n, density=density, seed=seed).instance
                for seed in range(13)
            ]
    insts += [generate_family("random_general", n=5, density=0.5, seed=s).instance for s in range(19)]
    for inst in insts:
        for ell in (None, 1, 2):
            verts = tuple(dataclasses.replace(v, patience=ell) for v in inst.vertices)
            yield dataclasses.replace(inst, vertices=verts)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except ValueError as exc:
        return f"ValueError: {exc}"


def test_baselines_match_the_separate_recursions():
    # one probe recursion serves both baselines; it must give the same bits
    # and the same errors as the optimal DP and the position-walking greedy
    values = 0
    for inst in _baseline_pool():
        for objective in (None, "revenue", "custom"):
            got = _outcome(optimal_policy_dp, inst, objective)
            assert got == _outcome(ref.optimal_policy_dp, inst, objective)
            values += isinstance(got, float)
            for rule in ("by_weight", "by_expected_weight"):
                got = _outcome(greedy_baseline, inst, rule, objective)
                assert got == _outcome(ref.greedy_baseline, inst, rule, objective)
                values += isinstance(got, float)
    assert values > 2000  # most rows are values, not guard or objective errors


@pytest.mark.parametrize("rule", ["by_weight", "by_expected_weight"])
def test_greedy_on_a_long_menu(rule):
    # 1500 prices on one edge: the first probe spends the edge and is worth 1
    # in expectation, so no option after it may cost a level of recursion
    inst = generate_family("single_edge_hard", k=3000, grid=range(1500)).instance
    assert math.isclose(greedy_baseline(inst, rule), 1.0)
