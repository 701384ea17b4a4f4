"""Instance model: validation, polytope membership, neighborhood statistics,
and the deterministic instance families."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ocrslab.graphcore import (
    Edge,
    FractionalPoint,
    MenuEntry,
    PricingInstance,
    Vertex,
    check_polytope,
    edge_neighbors,
    edge_stats,
    fractional_point_violations,
    generate_family,
    validate_instance,
)


def _simple_path(x0=0.5, x1=0.5):
    """v0 - e0 - v1 - e1 - v2 with single-entry menus."""
    vs = (Vertex("v0"), Vertex("v1"), Vertex("v2"))
    es = (
        Edge("e0", "v0", "v1", (MenuEntry(0.0, x0, c=x0),)),
        Edge("e1", "v1", "v2", (MenuEntry(0.0, x1, c=x1),)),
    )
    return PricingInstance(vs, es), {"e0": x0, "e1": x1}


# ---------------------------------------------------------------------------
# validation


def test_valid_instance_has_no_violations():
    inst, _ = _simple_path()
    assert validate_instance(inst) == []


def test_validation_catches_structural_problems():
    vs = (Vertex("a"), Vertex("a"), Vertex("b", side="nowhere", value=-1.0, patience=0))
    es = (
        Edge("e", "a", "missing", (MenuEntry(1.0, 0.5), MenuEntry(1.0, 1.5))),
        Edge("e", "a", "a", ()),
    )
    bad = validate_instance(PricingInstance(vs, es, mode="weird"))
    assert any("unknown mode" in b for b in bad)
    assert any("duplicate id" in b for b in bad)
    assert any("side tag" in b for b in bad)
    assert any("negative value" in b for b in bad)
    assert any("patience" in b for b in bad)
    assert any("endpoint not in vertex set" in b for b in bad)
    assert any("self-loop" in b for b in bad)
    assert any("empty weight menu" in b for b in bad)


def test_bipartite_mode_needs_opposite_sides():
    vs = (Vertex("a", side="offline"), Vertex("b", side="offline"))
    es = (Edge("e", "a", "b", (MenuEntry(0.0, 0.5),)),)
    bad = validate_instance(PricingInstance(vs, es, mode="bipartite"))
    assert any("opposite sides" in b for b in bad)


def test_one_sided_mode_needs_an_unbounded_side():
    vs = (
        Vertex("a", side="offline", patience=1),
        Vertex("b", side="online", patience=1),
    )
    es = (Edge("e", "a", "b", (MenuEntry(0.0, 0.5),)),)
    bad = validate_instance(
        PricingInstance(vs, es, mode="bipartite-one-sided-patience")
    )
    assert any("unbounded patience" in b for b in bad)


def test_vertex_arrival_mode_needs_sides_everywhere():
    vs = (Vertex("a", side="offline"), Vertex("b"))
    es = (Edge("e", "a", "b", (MenuEntry(0.0, 0.5),)),)
    bad = validate_instance(PricingInstance(vs, es, mode="vertex-arrival"))
    assert any("requires a side tag" in b for b in bad)


# ---------------------------------------------------------------------------
# polytope


def test_polytope_accepts_feasible_point():
    inst, x = _simple_path(0.4, 0.6)
    chk = check_polytope(x, inst)
    assert chk.ok and chk.worst is None and chk.excess == 0.0


def test_polytope_flags_overloaded_vertex():
    inst, _ = _simple_path()
    chk = check_polytope({"e0": 0.7, "e1": 0.7}, inst)
    assert not chk.ok
    assert chk.worst == "v1"
    assert math.isclose(chk.excess, 0.4)


def test_polytope_flags_negative_mass_and_unknown_edge():
    inst, _ = _simple_path()
    assert not check_polytope({"e0": -0.2}, inst).ok
    with pytest.raises(ValueError):
        check_polytope({"nope": 0.1}, inst)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_polytope_flags_a_non_finite_entry_at_its_edge(value):
    inst, _ = _simple_path()
    assert check_polytope({"e0": 0.2, "e1": value}, inst) == (False, "e1", math.inf)


def test_fractional_point_violations_roundtrip():
    inst, _ = _simple_path(0.4, 0.5)
    fp = FractionalPoint(y={("e0", 0.0): 0.4, ("e1", 0.0): 0.5})
    assert fractional_point_violations(fp, inst) == []
    over = FractionalPoint(y={("e0", 0.0): 1.4})
    assert fractional_point_violations(over, inst) != []


def test_fractional_point_entries_must_name_menu_offers():
    inst, _ = _simple_path(0.4, 0.5)
    y = {("e0", 0.0): 0.4, ("e0", 0.5): -1.0, ("e9", 0.0): 0.1, ("e1", 0.0): -0.5}
    assert fractional_point_violations(FractionalPoint(y), inst) == [
        "y[e0,0.5]: price not on the edge's menu",
        "y[e9,0.0]: unknown edge id",
        "y[e1,0.0]: negative entry -0.5",
    ]


# ---------------------------------------------------------------------------
# edge statistics


def test_edge_stats_on_path():
    inst, x = _simple_path(0.3, 0.6)
    st_ = edge_stats(x, inst)
    assert math.isclose(st_["e0"].d, 0.6)
    assert math.isclose(st_["e0"].s, 2.0 - 0.6 - 0.3)
    assert st_["e0"].m == 0.0  # no triangle
    assert edge_neighbors(inst, 0).tolist() == [1]
    assert math.isclose(st_["e1"].d, 0.3)


def test_edge_stats_triangle_m():
    gen = generate_family("triangle", x=(0.5, 0.25, 0.25))
    st_ = edge_stats(gen.x, gen.instance)
    e0 = gen.instance.edges[0].id
    # both neighbors close the triangle; m is the larger neighbor mass
    assert math.isclose(st_[e0].m, 0.25)
    other = [e.id for e in gen.instance.edges if gen.x[e.id] == 0.25][0]
    assert math.isclose(st_[other].m, 0.5)
    for i, (eid, s) in enumerate(st_.items()):
        assert math.isclose(s.s, 2.0 - s.d - gen.x[eid])
        assert edge_neighbors(gen.instance, i).tolist() == sorted({0, 1, 2} - {i})


@given(
    x0=st.floats(0.0, 1.0),
    x1=st.floats(0.0, 1.0),
)
def test_edge_stats_identity_holds(x0, x1):
    if x0 + x1 > 1.0:  # keep the shared vertex feasible
        x0, x1 = x0 / 2, x1 / 2
    inst, x = _simple_path(x0, x1)
    st_ = edge_stats(x, inst)
    for i, (eid, s) in enumerate(st_.items()):
        assert abs(s.s - (2.0 - s.d - x[eid])) < 1e-12
        assert s.d == sum(x[inst.edges[f].id] for f in edge_neighbors(inst, i))


# ---------------------------------------------------------------------------
# families


def test_tight_path3_shape():
    gen = generate_family("tight_path3", n=100)
    inst = gen.instance
    assert len(inst.vertices) == 4 and len(inst.edges) == 3
    xs = [gen.x[e.id] for e in inst.edges]
    assert xs == [0.99, 0.01, 0.99]
    assert check_polytope(gen.x, inst).ok
    assert validate_instance(inst) == []


def test_star_shape():
    gen = generate_family("star", k=4)
    inst = gen.instance
    assert inst.mode == "bipartite"
    assert len(inst.edges) == 4
    assert all(math.isclose(gen.x[e.id], 0.25) for e in inst.edges)
    center = [v for v in inst.vertices if v.side == "offline"]
    assert len(center) == 1
    assert all(e.u == center[0].id or e.v == center[0].id for e in inst.edges)


def test_triangle_rejects_infeasible_point():
    with pytest.raises(ValueError):
        generate_family("triangle", x=(0.8, 0.8, 0.8))


def test_greedy_counterexample_d1_menu():
    inst = generate_family("greedy_counterexample_d1", eps=0.01).instance
    (edge,) = inst.edges
    assert [(m.w, m.p) for m in edge.menu] == [(1.0, 1.0), (2.0, 0.01)]
    assert edge.menu[1].c == 2.0 * 0.01


def test_greedy_counterexample_d2_menu():
    inst = generate_family("greedy_counterexample_d2", N=10, k=3).instance
    assert len(inst.edges) == 4
    assert inst.edges[0].menu[0].w == 1.01
    for i, e in enumerate(inst.edges[1:], start=1):
        (entry,) = e.menu
        assert entry.w == 10.0**i
        assert math.isclose(entry.w * entry.p, 1.0)


def test_single_edge_hard_menu():
    inst = generate_family("single_edge_hard", k=10, grid=[0, 4, 8]).instance
    (edge,) = inst.edges
    assert [m.w for m in edge.menu] == [0.0, 4.0, 8.0]
    assert [m.p for m in edge.menu] == [1.0 / 10.0, 1.0 / 6.0, 1.0 / 2.0]
    with pytest.raises(ValueError):
        generate_family("single_edge_hard", k=10, grid=[9.5])


@pytest.mark.parametrize(
    "family,params",
    [
        ("random_bipartite", {"n": 4, "m": 4, "density": 0.5, "seed": 12}),
        ("random_general", {"n": 6, "density": 0.4, "seed": 22}),
    ],
)
def test_random_families_deterministic_and_feasible(family, params):
    a = generate_family(family, **params)
    b = generate_family(family, **params)
    assert a.instance == b.instance and a.x == b.x
    assert validate_instance(a.instance) == []
    assert check_polytope(a.x, a.instance).ok
    c = generate_family(family, **{**params, "seed": params["seed"] + 1})
    assert c.instance != a.instance or c.x != a.x


def test_family_dash_alias_and_unknown():
    assert (
        generate_family("tight-path3", n=4).instance
        == generate_family("tight_path3", n=4).instance
    )
    with pytest.raises(ValueError):
        generate_family("no_such_family")


@pytest.mark.parametrize(
    "family,params,message",
    [
        ("star", {}, r"family star: missing parameter\(s\) k$"),
        ("random_bipartite", {"n": 3}, r"missing parameter\(s\) m, density, seed$"),
        ("star", {"k": 3, "n": 5}, r"family star: unexpected parameter\(s\) n$"),
        ("greedy_counterexample_d2", {"k": 3, "seed": 1},
         r"missing parameter\(s\) N; unexpected parameter\(s\) seed$"),
    ],
)
def test_family_parameters_are_checked_against_the_builder(family, params, message):
    # these escaped the builder call as a TypeError
    with pytest.raises(ValueError, match=message):
        generate_family(family, **params)
