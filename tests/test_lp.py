"""Pricing relaxation: objective coefficients, simplex correctness,
menu-thinning reductions."""

import dataclasses
import hashlib
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
            x_ref, _ = reference_simplex(lp.A, lp.b, lp.c)
            # bit for bit, signed zeros included; the objective is fsum's
            assert x.tobytes() == x_ref.tobytes()
            assert obj.hex() == math.fsum(lp.c * x_ref).hex()


def _patient(inst, ell=2):
    return dataclasses.replace(
        inst, vertices=tuple(dataclasses.replace(v, patience=ell) for v in inst.vertices)
    )


def test_compact_tableau_pivots_like_the_full_tableau():
    # the pricing benchmark's bip20 LP: 180×281, and 220×281 with patience
    inst = generate_family("random_bipartite", n=20, m=20, density=0.35, seed=7).instance
    for variant in (inst, _patient(inst)):
        lp = build_lp_pricing(variant, "revenue")
        x, obj = _simplex_max(lp.A, lp.b, lp.c)
        x_ref, _ = ref.full_tableau_pivots(lp.A, lp.b, lp.c, PIVOT_TOL)
        # bit for bit, signed zeros included; the objective is fsum's
        assert x.tobytes() == x_ref.tobytes()
        assert obj.hex() == math.fsum(lp.c * x_ref).hex()


# sha256 of x.tobytes() and the objective's hex for the pricing benchmark's
# four LPs; x dates from the masked-update pivots, the objective is fsum's
PRICING_LP_GOLDEN = {
    ("bip20", None): (
        "e77125128d37c1c25eb24e770b23cb0e98b903e98c89673b3e081e6cf44f8468",
        "0x1.87bdebe85f5f4p+4",
    ),
    ("bip20", 2): (
        "a78dc7c910fd8b77323e28a1bb8e378928c4ae90eee21ea41dd6c1723548ea10",
        "0x1.85a96df3e80a8p+4",
    ),
    ("bip25", None): (
        "87dd7ebb48ded643189f6989f9e6aaa9aaf8b405f7c7facb2436218e94aba70d",
        "0x1.ceddb2361845fp+4",
    ),
    ("bip25", 2): (
        "912ce5ce7005219f9072ee9c24c0fc35a1c174613d332029a6ae8bc7361789ca",
        "0x1.cdd61aa2adadbp+4",
    ),
}
PRICING_LP_PARAMS = {
    "bip20": {"n": 20, "m": 20, "density": 0.35, "seed": 7},
    "bip25": {"n": 25, "m": 25, "density": 0.3, "seed": 7},
}


@pytest.mark.parametrize("label, patience", sorted(PRICING_LP_GOLDEN, key=str))
def test_pricing_lps_keep_their_golden_bits(label, patience):
    inst = generate_family("random_bipartite", **PRICING_LP_PARAMS[label]).instance
    lp = build_lp_pricing(_patient(inst, patience) if patience else inst, "revenue")
    x, obj = _simplex_max(lp.A, lp.b, lp.c)
    assert (hashlib.sha256(x.tobytes()).hexdigest(), obj.hex()) == PRICING_LP_GOLDEN[
        (label, patience)
    ]


def test_simplex_overflow_in_a_pivot_product_is_a_clean_error():
    # the first pivot multiplies row 1's entering entry 1e200 by the pivot
    # row's 1e200: the product overflows before any subtract could
    A = np.array([[1.0, 1e200], [1e200, 1.0]])
    with pytest.raises(
        ValueError, match=r"^simplex: overflow encountered in multiply \(coefficients too large\)$"
    ):
        _simplex_max(A, np.array([1.0, 1e300]), np.array([1.0, 1.0]))


def test_simplex_huge_entries_in_a_row_the_pivot_skips_do_not_raise():
    # the first pivot's entering column is 1e10 in row 2 but zero in the
    # 1e300 row, so no product overflows although max|a| times the tableau's
    # largest entry would; the second pivot scales the 1e300 row down to 1
    A = np.array([[1.0, 0.0], [0.0, 1e300], [1e10, 1.0]])
    x, obj = _simplex_max(A, np.array([1.0, 1e300, 1e10 + 1.0]), np.array([1.0, 1.0]))
    assert x.tolist() == [1.0, 1.0] and obj == 2.0


def test_simplex_objective_overflow_is_a_clean_error(monkeypatch):
    # the tableau's own objective entry overflows first on every program
    # tried, so fsum's OverflowError is forced here
    def fsum(_):
        raise OverflowError("intermediate overflow in fsum")

    monkeypatch.setattr(math, "fsum", fsum)
    with pytest.raises(
        ValueError, match=r"^simplex: intermediate overflow in fsum \(coefficients too large\)$"
    ):
        _simplex_max(np.array([[1.0]]), np.array([1.0]), np.array([1.0]))


def test_signed_zero_inputs_give_the_bits_of_positive_zeros():
    inst = generate_family("random_bipartite", n=6, m=6, density=0.5, seed=7).instance
    lp = build_lp_pricing(inst, "revenue")
    A, b, c = lp.A.copy(), lp.b.copy(), lp.c.copy()
    c[::3] = 0.0
    b[1] = 0.0  # a degenerate row, so a zero rhs is pivoted on
    A_neg, b_neg, c_neg = (np.where(v == 0.0, -0.0, v) for v in (A, b, c))
    assert np.signbit(A_neg[A_neg == 0.0]).all() and np.signbit(b_neg[1])
    x, obj = _simplex_max(A, b, c)
    x_neg, obj_neg = _simplex_max(A_neg, b_neg, c_neg)
    assert x_neg.tobytes() == x.tobytes() and obj_neg.hex() == obj.hex()
    assert not np.signbit(x).any()


def test_a_negative_zero_rhs_no_longer_reaches_x():
    # the masked-update pivots copied b's -0.0 into x; the tableau is now
    # built with +0.0 there (solve_lp's drift guard cleared it before too)
    A = np.array([[1.0, -0.0, 1.0], [0.0, 1.0, 1.0]])
    x, obj = _simplex_max(A, np.array([1.0, -0.0]), np.array([1.0, 0.0, 2.0]))
    assert x.tolist() == [1.0, 0.0, 0.0] and not np.signbit(x).any() and obj == 1.0
    x_ref, _ = ref.full_tableau_pivots(A, np.array([1.0, -0.0]), np.array([1.0, 0.0, 2.0]), PIVOT_TOL)
    assert np.signbit(x_ref).tolist() == [False, False, True]


def test_simplex_refuses_a_negative_rhs():
    with pytest.raises(ValueError, match="simplex start requires b ≥ 0"):
        _simplex_max(np.array([[1.0]]), np.array([-1.0]), np.array([1.0]))


@pytest.mark.parametrize("where", ["A", "b", "c"])
def test_simplex_refuses_a_non_finite_coefficient(where):
    args = {"A": np.array([[1.0, 1.0]]), "b": np.array([1.0]), "c": np.array([1.0, 2.0])}
    args[where] = args[where].copy()
    args[where][0] = np.nan if where == "b" else np.inf
    with pytest.raises(ValueError, match="^simplex: non-finite coefficient$"):
        _simplex_max(args["A"], args["b"], args["c"])


def test_simplex_refuses_an_unbounded_direction():
    # x1 - x2 ≤ 1 leaves x2 free to grow, and c rewards it
    with pytest.raises(ValueError, match=r"^simplex: unbounded direction \(malformed program\)$"):
        _simplex_max(np.array([[1.0, -1.0]]), np.array([1.0]), np.array([0.0, 1.0]))


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
