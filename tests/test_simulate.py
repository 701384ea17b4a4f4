"""Trial engines, Monte-Carlo aggregation, exact small-instance baselines.

Statistical assertions use the reports' own 99% intervals (or wider), so the
fixed seeds below are not load-bearing: any seed passes with overwhelming
probability, and the pinned ones make failures reproducible.
"""

import dataclasses
import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ocrslab.attenuation import AttenuationSpec
from ocrslab.graphcore import (
    Edge,
    FractionalPoint,
    MenuEntry,
    PricingInstance,
    Vertex,
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
        assert math.isclose(er.ratio, er.freq / er.x_ref)
        ratios.append(er.ratio)
    assert rep.min_ratio == min(ratios)
    assert rep.revenue_mean == 0.0 and rep.revenue_ci == 0.0


def test_deterministic_and_seed_sensitive():
    inst, x = _two_path()
    eng = RoOcrsEngine(inst, x, edge_stats(x, inst), A2)
    a = monte_carlo(eng, 20_000, 11)
    b = monte_carlo(eng, 20_000, 11)
    c = monte_carlo(eng, 20_000, 12)
    assert a == b
    assert a != c


def test_chunking_and_workers_do_not_change_results():
    gen = generate_family("random_general", n=6, density=0.4, seed=22)
    ro = RoOcrsEngine(gen.instance, gen.x, edge_stats(gen.x, gen.instance), A2)
    # revenue sums are floats, so they must not follow the chunk boundaries
    bip = generate_family("random_bipartite", n=4, m=4, density=0.5, seed=3).instance
    pricing = SequentialPricingEngine(bip, solve_lp(build_lp_pricing(bip, "revenue")).point, A2)
    for eng in (ro, pricing):
        base = monte_carlo(eng, 30_000, 5)
        assert monte_carlo(eng, 30_000, 5, chunk_size=999) == base
        assert monte_carlo(eng, 30_000, 5, workers=4) == base
        assert monte_carlo(eng, 30_000, 5, chunk_size=1234, workers=3) == base
    assert base.revenue_mean > 0.0


def test_reports_agree_across_chunk_sizes_and_workers_for_every_engine():
    gen = generate_family("random_bipartite", n=6, m=6, density=0.5, seed=4)
    inst, x = gen.instance, gen.x
    stats = edge_stats(x, inst)
    patient = dataclasses.replace(
        inst, vertices=tuple(dataclasses.replace(v, patience=1) for v in inst.vertices)
    )
    y, p = dict.fromkeys(x, 0.9), {k: v / 0.9 for k, v in x.items()}
    engines = {
        "ro": RoOcrsEngine(inst, x, stats, A2),
        "stochastic": StochasticOcrsEngine(patient, y, p, stats, A1),
        "vertex": VertexArrivalEngine(inst, x),
        "pricing": SequentialPricingEngine(patient, solve_lp(build_lp_pricing(patient, "revenue")).point, A2),
    }
    for name, eng in engines.items():
        base = monte_carlo(eng, 40_000, 6)
        for chunk_size in (2048, 16384, 999):
            for workers in (1, 2):
                assert monte_carlo(eng, 40_000, 6, chunk_size=chunk_size, workers=workers) == base, name
        assert base.min_ratio > 0
    assert base.revenue_mean > 0.0


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
    """Stands in for an engine on `n_edges` edges and records its chunk sizes."""

    def __init__(self, n_edges: int):
        self.topo = SimpleNamespace(edge_ids=tuple(f"e{i}" for i in range(n_edges)))
        self.x = np.zeros(n_edges)
        self.counts = []

    def run_chunk(self, seed, start, count, detail=False):
        self.counts.append(count)
        zeros = np.zeros(len(self.x), dtype=np.int64)
        return _ChunkCounts(zeros, zeros, zeros, np.zeros(count))


def test_chunks_are_capped_by_memory_on_wide_instances():
    eng = _WideEngine(100_000)
    rep = monte_carlo(eng, 200, 1)
    assert rep.trials == 200
    assert sum(eng.counts) == 200
    # a stacked draw of four (trials, edges) float64 arrays stays at or below 64 MiB
    assert 4 * max(eng.counts) * 100_000 * 8 <= 64 * 2**20
    assert eng.counts == [20] * 10
    # a narrow instance keeps the default chunk size
    narrow = _WideEngine(479)
    monte_carlo(narrow, 40_000, 1)
    assert narrow.counts == [2048] * 19 + [1088]


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
    n_nbrs = [len(stats[e.id].neighbors) for e in gen.instance.edges]
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
    with pytest.raises(ValueError):
        StochasticOcrsEngine(
            inst2, {"e0": 0.8, "e1": 0.8}, {"e0": 1.0, "e1": 1.0}, stats2, TRIV
        )


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
