"""Pricing relaxation: objective coefficients, simplex correctness,
menu-thinning reductions."""

import dataclasses
import itertools
import math

import numpy as np
import pytest
import reference as ref

from ocrslab.graphcore import (
    Edge,
    FractionalPoint,
    MenuEntry,
    PricingInstance,
    Vertex,
    fractional_point_violations,
    generate_family,
)
from ocrslab.lp import (
    PIVOT_TOL,
    _simplex_max,
    build_lp_pricing,
    job_endpoint,
    marginals,
    objective_coefficients,
    single_weight_selection,
    solve_lp,
    two_weight_reduction,
)
from ocrslab.suite import build_suite


def _single_edge(value=2.0, menu=((1.0, 1.0),)):
    vs = (Vertex("w0"), Vertex("j0", value=value))
    entries = tuple(MenuEntry(w=w, p=p) for w, p in menu)
    return PricingInstance(vs, (Edge("e0", "w0", "j0", entries),))


# ---------------------------------------------------------------------------
# objectives


def test_job_endpoint_resolution():
    inst = _single_edge()
    assert job_endpoint(inst, inst.edges[0]).id == "j0"
    both = PricingInstance(
        (Vertex("a", value=1.0), Vertex("b", value=2.0)),
        (Edge("e", "a", "b", (MenuEntry(0.0, 1.0),)),),
    )
    with pytest.raises(ValueError):
        job_endpoint(both, both.edges[0])
    neither = PricingInstance(
        (Vertex("a"), Vertex("b")), (Edge("e", "a", "b", (MenuEntry(0.0, 1.0),)),)
    )
    with pytest.raises(ValueError):
        job_endpoint(neither, neither.edges[0])


def test_revenue_coefficients():
    inst = _single_edge(value=2.0, menu=((1.0, 1.0), (1.5, 0.4)))
    coeffs = objective_coefficients(inst, "revenue")
    assert coeffs["e0"] == [1.0 * (2.0 - 1.0), 0.4 * (2.0 - 1.5)]


def test_custom_objective_requires_coefficients():
    inst = _single_edge()
    with pytest.raises(ValueError):
        objective_coefficients(inst, "custom")
    d1 = generate_family("greedy_counterexample_d1", eps=0.01).instance
    assert objective_coefficients(d1, "custom")["e0"] == [1.0, 0.02]


# ---------------------------------------------------------------------------
# solving


def test_single_edge_objective_is_one():
    sol = solve_lp(build_lp_pricing(_single_edge(), "revenue"))
    assert math.isclose(sol.objective, 1.0, abs_tol=1e-12)
    assert math.isclose(sol.point.y[("e0", 1.0)], 1.0, abs_tol=1e-12)


def test_zero_value_job_yields_zero():
    sol = solve_lp(build_lp_pricing(_single_edge(value=0.0), "revenue"))
    assert sol.objective == 0.0


def test_patience_rows_cap_offer_load():
    # two edges at a patience-1 hub with p = 1/2: marginal caps alone would
    # allow offer load 2, the patience row caps it at 1
    vs = (Vertex("hub", patience=1), Vertex("a"), Vertex("b"))
    es = (
        Edge("e0", "hub", "a", (MenuEntry(0.0, 0.5, c=1.0),)),
        Edge("e1", "hub", "b", (MenuEntry(0.0, 0.5, c=1.0),)),
    )
    sol = solve_lp(build_lp_pricing(PricingInstance(vs, es), "custom"))
    assert math.isclose(sol.objective, 1.0, abs_tol=1e-9)


def test_solutions_are_feasible_points():
    for family, params in [
        ("random_bipartite", {"n": 4, "m": 4, "density": 0.5, "seed": 12}),
        ("random_bipartite", {"n": 3, "m": 3, "density": 0.6, "seed": 11}),
    ]:
        inst = generate_family(family, **params).instance
        sol = solve_lp(build_lp_pricing(inst, "revenue"))
        assert fractional_point_violations(sol.point, inst) == []


def reference_simplex(A, b, c, tol=PIVOT_TOL):
    """Bland's-rule simplex with both scans and the pivot update as row loops."""
    m, n = A.shape
    T = np.zeros((m + 1, n + m + 1))
    T[:m, :n] = A
    T[:m, n : n + m] = np.eye(m)
    T[:m, -1] = b
    T[m, :n] = -c
    basis = list(range(n, n + m))
    while True:
        entering = next((j for j in range(n + m) if T[m, j] < -tol), -1)
        if entering < 0:
            break
        col = T[:m, entering]
        best_ratio, leave = np.inf, -1
        for i in range(m):
            if col[i] > tol:
                ratio = T[i, -1] / col[i]
                if ratio < best_ratio - 1e-15 or (
                    abs(ratio - best_ratio) <= 1e-15 and (leave < 0 or basis[i] < basis[leave])
                ):
                    best_ratio, leave = ratio, i
        T[leave] /= T[leave, entering]
        for i in range(m + 1):
            if i != leave and T[i, entering] != 0.0:
                T[i] -= T[i, entering] * T[leave]
        basis[leave] = entering
    x = np.zeros(n + m)
    for i, bi in enumerate(basis):
        x[bi] = T[i, -1]
    return x[:n], float(c @ x[:n])


def test_simplex_pivots_like_the_row_loop_reference():
    for params in (
        {"n": 6, "m": 6, "density": 0.5, "seed": 7},
        {"n": 4, "m": 4, "density": 0.5, "seed": 12},
        {"n": 8, "m": 5, "density": 0.4, "seed": 3},
    ):
        inst = generate_family("random_bipartite", **params).instance
        patient = dataclasses.replace(
            inst, vertices=tuple(dataclasses.replace(v, patience=2) for v in inst.vertices)
        )
        for variant in (inst, patient):
            lp = build_lp_pricing(variant, "revenue")
            x, obj = _simplex_max(lp.A, lp.b, lp.c)
            x_ref, obj_ref = reference_simplex(lp.A, lp.b, lp.c)
            # bit for bit, signed zeros included
            assert x.tobytes() == x_ref.tobytes() and repr(obj) == repr(obj_ref)


def _patient(inst, ell=2):
    return dataclasses.replace(
        inst, vertices=tuple(dataclasses.replace(v, patience=ell) for v in inst.vertices)
    )


def test_build_lp_matches_the_row_loop_reference():
    pool = [e.instance for e in build_suite()]
    pool += [
        generate_family("random_bipartite", n=n, m=n, density=d, seed=7).instance
        for n, d in ((20, 0.35), (25, 0.3))
    ]
    pool += [_patient(inst) for inst in pool]
    pool += [
        generate_family("greedy_counterexample_d1", eps=0.01).instance,
        generate_family("greedy_counterexample_d2", N=10, k=3).instance,
        generate_family("greedy_counterexample_d2", N=10, k=6).instance,
        generate_family("single_edge_hard", k=10, grid=range(9)).instance,
    ]
    built = 0
    for inst in pool:
        for objective in ("revenue", "custom"):
            try:
                c, A, b, var_keys = ref.build_lp_rows(inst, objective)
            except ValueError:
                with pytest.raises(ValueError):
                    build_lp_pricing(inst, objective)
                continue
            lp = build_lp_pricing(inst, objective)
            assert lp.c.tobytes() == c.tobytes()
            assert lp.A.shape == A.shape and lp.A.tobytes() == A.tobytes()
            assert lp.b.tobytes() == b.tobytes()
            assert lp.var_keys == var_keys
            built += 1
    # the valued families build under revenue, the rest under custom
    assert built == len(pool)


def test_lp_dominates_feasible_grid_points():
    inst = generate_family(
        "random_bipartite", n=3, m=3, density=0.6, seed=11
    ).instance
    coeffs = objective_coefficients(inst, "revenue")
    sol = solve_lp(build_lp_pricing(inst, "revenue"))
    keys = [(e.id, k) for e in inst.edges for k in range(len(e.menu))]
    # coarse random feasible points must never beat the LP optimum
    import random

    rnd = random.Random(7)
    for _ in range(200):
        y = {}
        for e in inst.edges:
            raw = [rnd.random() for _ in e.menu]
            scale = rnd.random() / max(1e-9, sum(raw))
            for k, entry in enumerate(e.menu):
                y[(e.id, entry.w)] = raw[k] * scale
        fp = FractionalPoint(y=y)
        if fractional_point_violations(fp, inst):
            continue
        val = sum(
            y[(e.id, en.w)] * coeffs[e.id][k]
            for e in inst.edges
            for k, en in enumerate(e.menu)
        )
        assert val <= sol.objective + 1e-9


def test_marginals_hand_check():
    inst = _single_edge(menu=((1.0, 1.0), (1.5, 0.4)))
    x, y_e, p_e = marginals(FractionalPoint({("e0", 1.0): 0.3, ("e0", 1.5): 0.5}), inst)
    assert math.isclose(x["e0"], 0.3 + 0.5 * 0.4)
    assert math.isclose(y_e["e0"], 0.8)
    assert math.isclose(p_e["e0"], x["e0"] / 0.8)


# ---------------------------------------------------------------------------
# menu-thinning reductions


def _three_price_edge():
    vs = (Vertex("w0"), Vertex("j0", value=4.0))
    menu = (MenuEntry(1.0, 0.9), MenuEntry(2.0, 0.5), MenuEntry(3.0, 0.2))
    return PricingInstance(vs, (Edge("e0", "w0", "j0", menu),))


def _edge_optimum_two_prices(inst, x, objective="revenue"):
    """Enumerate basic solutions of the per-edge restricted program."""
    e = inst.edges[0]
    coeffs = objective_coefficients(inst, objective)["e0"]
    ps = [en.p for en in e.menu]
    best = 0.0
    n = len(ps)
    for k in range(n):
        yk = min(1.0, x / ps[k]) if ps[k] > 0 else 1.0
        best = max(best, yk * coeffs[k])
    for k, l in itertools.combinations(range(n), 2):
        if ps[k] == ps[l]:
            continue
        yk = (x - ps[l]) / (ps[k] - ps[l])
        yl = 1.0 - yk
        if yk >= -1e-12 and yl >= -1e-12:
            best = max(best, max(0.0, yk) * coeffs[k] + max(0.0, yl) * coeffs[l])
    return best


def test_two_weight_reduction_matches_enumeration():
    inst = _three_price_edge()
    y = {("e0", 1.0): 0.3, ("e0", 2.0): 0.3, ("e0", 3.0): 0.3}
    x, _, _ = marginals(FractionalPoint(y), inst)
    red = two_weight_reduction(FractionalPoint(y), inst, "revenue")
    support = [k for k in red.y.values() if k > 1e-9]
    assert len(support) <= 2
    coeffs = objective_coefficients(inst, "revenue")["e0"]
    val = sum(
        red.y[("e0", en.w)] * coeffs[k] for k, en in enumerate(inst.edges[0].menu)
    )
    assert math.isclose(val, _edge_optimum_two_prices(inst, x["e0"]), abs_tol=1e-9)
    # never drops the objective, never grows the marginal
    orig = sum(
        y[("e0", en.w)] * coeffs[k] for k, en in enumerate(inst.edges[0].menu)
    )
    assert val >= orig - 1e-9
    assert marginals(red, inst)[0]["e0"] <= x["e0"] + 1e-9


def test_two_weight_reduction_keeps_small_support_unchanged():
    inst = _three_price_edge()
    y = {("e0", 1.0): 0.4, ("e0", 3.0): 0.2}
    red = two_weight_reduction(FractionalPoint(y), inst, "revenue")
    assert math.isclose(red.y[("e0", 1.0)], 0.4)
    assert math.isclose(red.y[("e0", 3.0)], 0.2)
    assert red.y[("e0", 2.0)] == 0.0


def test_single_weight_selection_keeps_at_least_half():
    inst = _three_price_edge()
    y = {("e0", 1.0): 0.3, ("e0", 2.0): 0.3, ("e0", 3.0): 0.3}
    red = two_weight_reduction(FractionalPoint(y), inst, "revenue")
    one = single_weight_selection(red, inst, "revenue")
    coeffs = objective_coefficients(inst, "revenue")["e0"]

    def value(fp):
        return sum(
            fp.y[("e0", en.w)] * coeffs[k]
            for k, en in enumerate(inst.edges[0].menu)
        )

    assert sum(v > 1e-9 for v in one.y.values()) <= 1
    assert value(one) >= 0.5 * value(red) - 1e-9


def test_single_weight_selection_requires_thin_support():
    inst = _three_price_edge()
    y = {("e0", 1.0): 0.3, ("e0", 2.0): 0.3, ("e0", 3.0): 0.3}
    with pytest.raises(ValueError):
        single_weight_selection(FractionalPoint(y), inst, "revenue")
