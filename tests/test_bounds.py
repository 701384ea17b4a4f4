"""Kernel functions, lemma bound formulas, fact battery, and the
five-variable minimization certificates.

Frozen constants below were computed once with an independent high-precision
quadrature and are asserted at tolerances far above that reference's error.
The adaptive quadrature in ``reference`` is the scalar oracle the library's
closed-form and vectorized kernels are compared against.
"""

import math
import tracemalloc

import numpy as np
import pytest
import reference as ref

from ocrslab import bounds
from ocrslab.attenuation import AttenuationSpec
from ocrslab.graphcore import EdgeStats, edge_stats
from ocrslab.suite import build_suite

H2 = 0.43233235838169365  # h(2) = (1 - e^{-2})/2
Z0 = 0.05504290352060187  # 1/8 - 1/(8 e^4) - 1/(2 e^2)
Z1 = 0.07088837759678558


def _stats(s: float, d: float = 0.0, m: float = 0.0) -> EdgeStats:
    return EdgeStats(d=d, s=s, m=m)


# ---------------------------------------------------------------------------
# kernels


def test_h_values():
    assert math.isclose(bounds.h(2.0), H2, rel_tol=0, abs_tol=1e-15)
    assert bounds.h(0.0) == 1.0
    assert math.isclose(bounds.h(1.0), 1.0 - 1.0 / math.e, abs_tol=1e-15)
    with pytest.raises(ValueError):
        bounds.h(-0.1)


def test_quadrature_closed_forms():
    assert math.isclose(
        ref.quadrature(lambda y: math.exp(-2 * y), 0, 1, 1e-10), H2, abs_tol=1e-9
    )
    assert math.isclose(
        ref.quadrature(lambda z: (1 - z) ** 2, 0, 1, 1e-10), 1 / 3, abs_tol=1e-10
    )
    val = ref.quadrature(lambda y: math.exp(-4 * y) * (1 + y) ** 2, 0, 1, 1e-10)
    assert val >= 0.382


def test_quadrature_tolerance_self_consistency():
    f = lambda a: math.exp(-3 * a + 0.4 * a) * (1 + a)
    coarse = ref.quadrature(f, 0, 1, 1e-6)
    fine = ref.quadrature(f, 0, 1, 1e-12)
    assert abs(coarse - fine) < 1e-6


def test_quadrature_rejects_non_finite():
    with pytest.raises(ArithmeticError):
        ref.quadrature(lambda a: float("inf"), 0, 1, 1e-8)


def test_h1_adaptive_matches_closed_form():
    for a in (0.1, 0.5, 1.0):
        for x in (0.0, 0.4, 1.0):
            closed = float(bounds.h1(a, x))
            assert math.isclose(ref.h1(a, x), closed, abs_tol=1e-9)


def test_z_values_and_shape():
    assert ref.z(0.0) == ref.Z0 == Z0
    assert Z0 == 1 / 8 - 1 / (8 * math.e**4) - 1 / (2 * math.e**2)
    assert math.isclose(ref.z(1.0), Z1, abs_tol=1e-9)
    grid = np.linspace(0, 1, 201)
    vals = [ref.z(float(x)) for x in grid]
    # the kernel never dips below its x = 0 value, which carries the 0.055 floor
    assert min(vals) >= 0.055
    assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))  # nondecreasing
    with pytest.raises(ValueError):
        ref.z(1.5)


def test_decomposition_term_is_decreasing():
    # the monotone piece of the closed-form decomposition behind the 0.055
    # floor: (2e^2(x^2-4) + 8e^{x+2}) / (4e^4 x (x^2-4)) decreases on (0, 1]
    def term(x):
        return (2 * math.e**2 * (x * x - 4) + 8 * math.exp(x + 2)) / (
            4 * math.e**4 * x * (x * x - 4)
        )

    xs = np.linspace(1e-6, 1, 2001)
    vals = [term(float(x)) for x in xs]
    assert all(b <= a + 1e-12 for a, b in zip(vals, vals[1:]))
    assert math.isclose(vals[0], -1 / (2 * math.e**2), abs_tol=1e-5)


def test_h1_values_and_floors():
    assert bounds.h1(0.0, 0.3) == 0.0
    with pytest.raises(ValueError):
        bounds.h1(1.2, 0.3)
    for x in np.linspace(0, 1, 21):
        v45 = ref.quadrature(
            lambda a: math.exp(-4 * a + a * x) * ref.h1(a, float(x)) * (1 + a) ** 2,
            0,
            1,
            1e-9,
        )
        assert v45 >= 0.181
        vc4 = ref.quadrature(
            lambda a: math.exp(-3 * a + a * x) * ref.h1(a, float(x)) * (1 + a),
            0,
            1,
            1e-9,
        )
        assert vc4 >= 0.209


def test_phi_values():
    for y in np.linspace(0, 1, 11):
        assert math.isclose(bounds.phi(2, float(y)), math.exp(-y) * (1 + y), abs_tol=1e-12)
        assert bounds.phi(1, float(y)) == 1.0
        assert bounds.phi(None, float(y)) == 1.0
    assert bounds.phi(7, 0.0) == 1.0
    with pytest.raises(ValueError):
        bounds.phi(0, 0.5)
    with pytest.raises(ValueError):
        bounds.phi(2, 1.5)


def test_kernels_take_arrays():
    x = np.linspace(0.0, 2.0, 9)
    assert np.array_equal(bounds.h(x), [bounds.h(float(v)) for v in x])
    a, y = np.meshgrid(np.linspace(0, 1, 5), np.linspace(0, 1, 7))
    closed = bounds.h1(a, y)
    assert closed.shape == a.shape
    for i, j in np.ndindex(a.shape):
        assert closed[i, j] == bounds.h1(float(a[i, j]), float(y[i, j]))
        assert math.isclose(closed[i, j], ref.h1(float(a[i, j]), float(y[i, j])), abs_tol=1e-9)
    # bit for bit against the closed form evaluated term by term: at x = 0,
    # at a = 0, and on rows of the fact battery's own (y, x) grid
    for av, xv in ((0.0, 0.0), (0.0, 0.3), (0.7, 0.0), (1.0, 0.0), (0.0, 1.0)):
        assert bounds.h1(av, xv).tobytes() == ref.reference_h1(np.float64(av), np.float64(xv)).tobytes()
    yg = np.linspace(0.0, 1.0, 2001)
    xg = np.linspace(0.0, 1.0, 10_001)[[0, 1, 2, 17, 500, 501, 5000, 9999, 10_000], None]
    assert bounds.h1(yg, xg).tobytes() == ref.reference_h1(yg, xg).tobytes()
    ys = np.linspace(0.0, 1.0, 11)
    for ell in (None, 1, 2, 5):
        vals = bounds.phi(ell, ys)
        assert vals.shape == ys.shape
        assert np.array_equal(vals, [bounds.phi(ell, float(v)) for v in ys])
    # every element is range-checked
    with pytest.raises(ValueError):
        bounds.h(np.array([1.0, -0.1]))
    with pytest.raises(ValueError):
        bounds.h1(np.array([0.5, 1.2]), 0.3)
    with pytest.raises(ValueError):
        bounds.phi(2, np.array([0.5, 1.5]))


# ---------------------------------------------------------------------------
# lemma bound formulas


def test_r0_bound_isolated_edge():
    st = _stats(s=1.0)
    assert math.isclose(bounds.r0_bound("general", st, (), 1.0, 0.0), H2 + 0.14, abs_tol=1e-12)
    assert math.isclose(bounds.r0_bound("patience_general", st, (), 1.0, 0.0), 0.382 + 0.117, abs_tol=1e-12)


def test_one_sided_r0_at_zero_slack():
    st = _stats(s=0.0)
    for alpha in (0.0, 0.162, 0.3):
        assert math.isclose(bounds.r0_bound("patience_one_sided", st, (), 0.7, alpha), 0.405 * 0.7, abs_tol=1e-12)


def test_r1_bound_alpha_zero_reduction():
    st, pairs = _stats(s=0.5, d=0.8, m=0.1), ((0.5, 0.2), (0.3, 0.6))
    tail = sum(xf * max(0.0, 1.0 - 0.1 - xf - sf) for xf, sf in pairs)
    assert math.isclose(bounds.r1_bound("general", st, pairs, 0.4, 0.0), 0.0275 * tail * 0.4, abs_tol=1e-12)
    assert math.isclose(bounds.r1_bound("patience_general", st, pairs, 0.4, 0.0), 0.02 * tail * 0.4, abs_tol=1e-12)
    # one-sided tail ignores the triangle mass m
    tail_os = sum(xf * max(0.0, 1.0 - xf - sf) for xf, sf in pairs)
    assert math.isclose(
        bounds.r1_bound("patience_one_sided", st, pairs, 0.4, 0.0), 0.023 * tail_os * 0.4, abs_tol=1e-12
    )


def test_bounds_scale_linearly_in_x():
    st, pairs = _stats(s=0.6, d=1.0, m=0.0), ((0.5, 0.5), (0.5, 0.9))
    for setting in ("general", "patience_general", "patience_one_sided"):
        for fn in (bounds.r0_bound, bounds.r1_bound):
            assert math.isclose(
                fn(setting, st, pairs, 0.4, 0.171), 2.0 * fn(setting, st, pairs, 0.2, 0.171), abs_tol=1e-12
            )


def test_bounds_reject_unknown_setting():
    for fn in (bounds.r0_bound, bounds.r1_bound):
        with pytest.raises(ValueError, match="known: .*'patience_general'"):
            fn("lemma", _stats(s=0.5), (), 0.4, 0.171)


# ---------------------------------------------------------------------------
# fact battery


@pytest.fixture(scope="module")
def battery():
    """One run of the fact battery under tracemalloc: its rows and its peak
    traced bytes."""
    tracemalloc.start()
    try:
        rows = bounds.verify_facts()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return rows, peak


def test_verify_facts_all_hold(battery):
    rows, _ = battery
    assert len(rows) == 12
    for r in rows:
        assert r.holds, f"{r.fact_id}: margin {r.margin}"
        assert r.margin >= 0.0


def test_verify_facts_covers_expected_rows(battery):
    ids = {r.fact_id for r in battery[0]}
    assert {
        "coupling_concavity",
        "union_bound_product",
        "h_linear_underestimate",
        "z_kernel_floor",
        "patience_r0_floor_at_2",
        "one_sided_r0_floor_at_2",
        "ell2_argmin_r0_pair",
        "ell2_argmin_r0_single",
    } <= ids


def test_union_bound_product_row_is_the_least_sampled_value(battery):
    # the row is f = ∏(1−R_i) − (1 − ΣR_i) at its proven minimiser, n = 2 and
    # R = (0.01, 0.01); no draw over [0.01, 0.99]ⁿ, n = 2..8, falls below it
    row = next(r for r in battery[0] if r.fact_id == "union_bound_product")
    assert row.margin == 9.999999999998899e-05
    rng = np.random.default_rng(20260819)
    for _ in range(10_000):
        r = rng.uniform(0.01, 0.99, size=int(rng.integers(2, 9)))
        assert float(np.prod(1.0 - r) - (1.0 - r.sum())) >= row.margin


def test_verify_facts_matches_reference_bits(battery):
    # both sides sum each block of 16 rows from each chunk's start with one
    # BLAS gemv of the same shape, so every margin agrees to the bit on any
    # machine
    got = [(r.fact_id, r.holds, r.margin.hex()) for r in battery[0]]
    assert got == [(r.fact_id, r.holds, r.margin.hex()) for r in ref.reference_verify_facts()]


def test_fused_rows_match_each_integrand_on_its_own():
    # a margin is the minimum over 10,001 row sums, so it can hide a changed
    # integrand; the first and last chunks hold x = 0 and short tail blocks
    y = np.linspace(0.0, 1.0, 2001)
    scratch = np.full((5, bounds._BLOCK_ROWS, y.size), np.nan)
    for grid, fill, reference in (
        (np.linspace(0.0, 1.0, 10_001), bounds._x_rows, ref.reference_x_integrands),
        (np.linspace(0.0, 2.0, 10_001), bounds._k_rows, ref.reference_k_integrands),
    ):
        for chunk in np.array_split(grid, 20)[::19]:
            want = reference(chunk)
            covered = 0
            for rows, *got in fill(chunk, y, scratch):
                assert rows.start == covered
                covered = min(rows.stop, len(chunk))
                assert len(got) == len(want)
                for g, w in zip(got, want):
                    assert g.shape == w[rows].shape
                    assert g.tobytes() == w[rows].tobytes()
            assert covered == len(chunk)
            assert len(chunk) % bounds._BLOCK_ROWS != 0  # a short tail block ran


def test_verify_facts_memory_is_bounded(battery):
    # one (5, 16, 2001) scratch array is 1.3 MB; holding three integrands
    # over a whole 501-row chunk takes 24 MB
    assert battery[1] <= 4 * 2**20


# ---------------------------------------------------------------------------
# five-variable certificates


@pytest.fixture(scope="module")
def certs():
    settings = {
        "general": 0.171,
        "bipartite": 0.171,
        "patience_general": 0.16,
        "patience_one_sided": 0.162,
    }
    return {s: bounds.five_var_minimize(s, a) for s, a in settings.items()}


def test_certified_minima(certs):
    assert abs(certs["general"].minimum - 0.450) <= 2e-3
    assert abs(certs["bipartite"].minimum - 0.456) <= 2e-3
    assert abs(certs["patience_general"].minimum - 0.395) <= 2e-3
    assert abs(certs["patience_one_sided"].minimum - 0.426) <= 2e-3


def test_minimizers_satisfy_constraints(certs):
    for cert in certs.values():
        s, d, dbig, x, m = cert.minimizer
        assert s >= -1e-9 and x >= -1e-9
        assert abs(s + d - (2 - x)) < 1e-6
        assert d <= 2 * (1 - x) + 1e-9
        assert -1e-9 <= dbig <= d + 1e-9
        assert -1e-9 <= m <= 1 + 1e-9
    for setting in ("bipartite", "patience_one_sided"):
        assert certs[setting].minimizer[4] == 0.0  # m pinned


# minima from the grid, zoom and Nelder–Mead search this exact reduction
# replaced; the last four pin the dbig* = d branch, c1·α = 0, and the s = 2
# corner (where 1 − α·s vanishes at α = 1/2)
SEARCHED_MINIMA = [
    ("general", 0.171, 0.45022370000324896),
    ("bipartite", 0.171, 0.45614537838169367),
    ("patience_general", 0.16, 0.39592732991453006),
    ("patience_one_sided", 0.162, 0.42602089600000004),
    ("general", 0.12, 0.44493235838169365),
    ("patience_general", 0.0, 0.382),
    ("patience_one_sided", 0.4, 0.1334),
    ("general", 0.5, 0.0),
]


@pytest.mark.parametrize("setting, alpha, minimum", SEARCHED_MINIMA)
def test_minimum_matches_searched_value(setting, alpha, minimum):
    cert = bounds.five_var_minimize(setting, alpha)
    assert abs(cert.minimum - minimum) <= 1e-12
    # the reported minimizer attains the reported minimum
    s, d, dbig, x, m = cert.minimizer
    assert bounds._objective_arrays(setting, alpha, x, d, dbig, m) == cert.minimum


@pytest.mark.parametrize("setting, alpha, minimum", SEARCHED_MINIMA)
def test_no_sampled_point_below_minimum(setting, alpha, minimum):
    cert = bounds.five_var_minimize(setting, alpha)
    u = np.random.default_rng(20261018).random((100_000, 4))
    x = u[:, 0]
    d = u[:, 1] * (2.0 - 2.0 * x)
    dbig = u[:, 2] * d
    m = u[:, 3] if bounds.FIVE_VAR_SETTINGS[setting][3] else 0.0
    vals = bounds._objective_arrays(setting, alpha, x, d, dbig, m)
    assert vals.min() >= cert.minimum - 1e-12


def test_certificate_equality_invariant(certs):
    for setting, cert in certs.items():
        st, pairs, x_e = ref.synthetic_stats_at(cert.minimizer)
        r0 = bounds.r0_bound(setting, st, pairs, x_e, cert.alpha)
        r1 = bounds.r1_bound(setting, st, pairs, x_e, cert.alpha)
        assert abs((r0 + r1) / x_e - cert.minimum) < 1e-6, setting


def test_cross_validation_on_suite_instances(certs):
    floor = certs["general"].minimum - 1e-6
    for entry in build_suite():
        stats = edge_stats(entry.x, entry.instance)
        for eid, pairs in bounds.neighbor_pairs(entry.instance, entry.x, stats):
            xe = entry.x[eid]
            if xe <= 0:
                continue
            total = bounds.r0_bound("general", stats[eid], pairs, xe, 0.171) + bounds.r1_bound(
                "general", stats[eid], pairs, xe, 0.171
            )
            assert total / xe >= floor, (entry.name, eid)


def test_sign_conditions_reported(certs):
    for cert in certs.values():
        assert cert.sign_conditions
        assert all(v >= 0 for v in cert.sign_conditions.values())
