"""Independent scalar references for library code written in vector form.

Adaptive Simpson quadrature and the integrals z and h1 evaluated with it, one
point at a time, for the special functions in ``ocrslab.bounds``; h1's
closed form with every term evaluated in full, and the fact battery with each
grid integrand evaluated on its own over whole chunks, for the fused row
blocks of ``bounds.verify_facts``; the pricing LP built one constraint row at
a time, for ``lp.build_lp_pricing``; the simplex pivoted on the full tableau
with its slack identity block, for the compact tableau of
``lp._bland_pivots``; and the optimal-policy DP and
the fixed-order greedy as two separate recursions, for
``simulate.optimal_policy_dp`` and ``greedy_baseline``; each engine's coins
and arrival order from one draw over every cell of the whole chunk, for the
gated row blocks of ``simulate._draw``; and each trial's go edges gathered
out of that arrival order, for the walk steps that ``simulate._walk`` lays
out from the sorted go cells; and every edge's neighbour list stored whole,
with the statistics and walk topology read from those lists, for
``graphcore.edge_neighbors``, ``edge_stats`` and ``simulate._Topology``,
which derive them from the vertex incidence.  The tests compare the library
against these references.  Two helpers only the tests need live here too:
``attenuation_value``, the range-checked scalar attenuation coin, and
``synthetic_stats_at``, a neighbourhood that realizes a certificate's
minimizer in the lemma bounds.
"""

import math
from functools import lru_cache

import numpy as np

from ocrslab._rng import ACTIVE, ARRIVAL, COIN, PRICE, hash_uniform
from ocrslab.attenuation import AttenuationSpec, attenuation_profile
from ocrslab.bounds import (
    _ELLS,
    FIVE_VAR_SETTINGS,
    FactCheck,
    _ell_scan_matrices,
    _simpson_weights,
    h,
    phi,
)
from ocrslab.graphcore import EdgeStats, PricingInstance
from ocrslab.lp import auto_objective, objective_coefficients
from ocrslab.simulate import (
    SequentialPricingEngine,
    StochasticOcrsEngine,
    VertexArrivalEngine,
    _count_dtype,
)

QUAD_TOL = 1e-10

# z(0) analytic limit: 1/8 - 1/(8 e^4) - 1/(2 e^2)
Z0 = 0.125 - 0.125 * math.exp(-4.0) - 0.5 * math.exp(-2.0)


def quadrature(f, a: float, b: float, tol: float = QUAD_TOL) -> float:
    """Adaptive Simpson integral of f over [a, b], absolute tolerance tol."""
    if not tol > 0:
        raise ValueError("quadrature: tol must be positive")

    def _eval(t: float) -> float:
        v = f(t)
        if not math.isfinite(v):
            raise ArithmeticError(f"quadrature: non-finite sample f({t}) = {v}")
        return v

    def _simpson(x0, f0, x2, f2):
        x1 = 0.5 * (x0 + x2)
        f1 = _eval(x1)
        return x1, f1, (x2 - x0) / 6.0 * (f0 + 4.0 * f1 + f2)

    def _recurse(x0, f0, x2, f2, whole, x1, f1, eps, depth):
        lm, flm, left = _simpson(x0, f0, x1, f1)
        rm, frm, right = _simpson(x1, f1, x2, f2)
        err = left + right - whole
        if depth > 60 or abs(err) <= 15.0 * eps:
            return left + right + err / 15.0
        return _recurse(x0, f0, x1, f1, left, lm, flm, eps / 2.0, depth + 1) + _recurse(
            x1, f1, x2, f2, right, rm, frm, eps / 2.0, depth + 1
        )

    if a == b:
        return 0.0
    fa, fb = _eval(a), _eval(b)
    mid, fmid, whole = _simpson(a, fa, b, fb)
    return _recurse(a, fa, b, fb, whole, mid, fmid, tol, 0)


def z(x: float, tol: float = QUAD_TOL) -> float:
    """∫₀¹ e^{-2a+ax}·((1-e^{-xa})/x − (1-e^{-a(x+2)})/(x+2)) da, with the
    removable x = 0 singularity handled by its analytic limit."""
    if not (0.0 <= x <= 1.0):
        raise ValueError(f"z: x must lie in [0, 1], got {x}")
    if x == 0.0:
        return Z0

    def integrand(a: float) -> float:
        return math.exp(-2.0 * a + a * x) * (
            -math.expm1(-x * a) / x + math.expm1(-a * (x + 2.0)) / (x + 2.0)
        )

    return quadrature(integrand, 0.0, 1.0, tol)


def h1(a: float, x: float, tol: float = QUAD_TOL) -> float:
    """∫₀^a e^{-bx}·(4 − (3b+4)e^{-3b}) db."""
    if not (0.0 <= a <= 1.0) or not (0.0 <= x <= 1.0):
        raise ValueError(f"h1: need a, x in [0, 1], got a={a}, x={x}")
    if a == 0.0:
        return 0.0
    return quadrature(
        lambda b: math.exp(-b * x) * (4.0 - (3.0 * b + 4.0) * math.exp(-3.0 * b)), 0.0, a, tol
    )


def reference_h1(a, x):
    """h1 in closed form, each term evaluated in full, for `bounds.h1` and the
    blocked r1 rows of `bounds.verify_facts`."""
    c = x + 3.0
    pos = x > 0.0
    xs = np.where(pos, x, 1.0)
    first = np.where(pos, 4.0 * -np.expm1(-a * xs) / xs, 4.0 * a)
    eca = np.exp(-c * a)
    second = (4.0 - (3.0 * a + 4.0) * eca) / c + 3.0 * -np.expm1(-c * a) / (c * c)
    return first - second


def reference_x_integrands(xc):
    """The z kernel and the two r1-floor integrands on the x-grid rows xc over
    the 2001 y nodes, each evaluated on its own, for `bounds._x_rows`."""
    y = np.linspace(0.0, 1.0, 2001)
    xc2 = xc[:, None]
    an = y[None, :]
    first = np.where(
        xc2 > 0.0, -np.expm1(-np.where(xc2 > 0.0, xc2, 1.0) * an) / np.where(xc2 > 0.0, xc2, 1.0), an
    )
    second = -np.expm1(-an * (xc2 + 2.0)) / (xc2 + 2.0)
    z = np.exp(-2.0 * an + an * xc2) * (first - second)
    h1v = reference_h1(an, xc2)
    g22 = np.exp(-4.0 * an + an * xc2) * h1v * (1.0 + an) ** 2
    g2 = np.exp(-3.0 * an + an * xc2) * h1v * (1.0 + an)
    return z, g22, g2


def reference_k_integrands(kc):
    """The two r0-floor integrands on the k-grid rows kc over the 2001 y
    nodes, each evaluated on its own, for `bounds._k_rows`."""
    y = np.linspace(0.0, 1.0, 2001)[None, :]
    karr = kc[:, None]
    return np.exp(-y * (4.0 - karr)) * (1.0 + y) ** 2, np.exp(-y * (3.0 - karr)) * (1.0 + y)


def reference_verify_facts() -> list[FactCheck]:
    """The fact battery with each grid integrand evaluated on its own over a
    whole chunk of the 20-chunk split at a time, for the fused row blocks of
    `bounds.verify_facts`; the rows without a grid integrand are the
    library's, repeated so that the list compares whole.  Each chunk's
    integrands are summed in blocks of 16 rows from the chunk's start, one
    gemv per block as in the library, so the two agree bit for bit on any
    machine by construction: BLAS rounds a row sum according to the shape of
    its call and, above a size, the number of threads it splits the rows
    over, while a 16-row gemv runs on one thread."""
    rows: list[FactCheck] = []

    def add(fact_id: str, margin: float) -> None:
        rows.append(FactCheck(fact_id=fact_id, holds=bool(margin >= 0.0), margin=float(margin)))

    def block_sums(integrand):
        return np.concatenate([integrand[i : i + 16] @ wy for i in range(0, len(integrand), 16)])

    a = np.linspace(0.0, 1.0, 101)[:, None]
    xg = np.linspace(0.0, 1.0, 101)[None, :]
    add("coupling_concavity", float(np.min(-np.expm1(-a * xg) - xg * -np.expm1(-a))))

    rng = np.random.default_rng(20260819)
    worst = np.inf
    for _ in range(10_000):
        r = rng.uniform(0.01, 0.99, size=int(rng.integers(2, 9)))
        worst = min(worst, float(np.prod(1.0 - r) - (1.0 - r.sum())))
    add("union_bound_product", worst)

    c0, c1, _, _ = FIVE_VAR_SETTINGS["general"]
    xs = np.linspace(0.0, 2.0, 20_001)
    add("h_linear_underestimate", float(np.min(h(2.0 - xs) - (c0 + c1 * xs))))

    pc0, pc1, _, _ = FIVE_VAR_SETTINGS["patience_general"]
    oc0, oc1, _, _ = FIVE_VAR_SETTINGS["patience_one_sided"]
    y = np.linspace(0.0, 1.0, 2001)
    wy = _simpson_weights(2001, 0.0, 1.0)
    zmin = g22_m = g2_m = np.inf
    for xc in np.array_split(np.linspace(0.0, 1.0, 10_001), 20):
        z, g22, g2 = reference_x_integrands(xc)
        zmin = min(zmin, float(np.min(block_sums(z))))
        g22_m = min(g22_m, float(np.min(block_sums(g22))))
        g2_m = min(g2_m, float(np.min(block_sums(g2))))
    f22_m = f2_m = np.inf
    for kc in np.array_split(np.linspace(0.0, 2.0, 10_001), 20):
        f22, f2 = reference_k_integrands(kc)
        f22_m = min(f22_m, float(np.min(block_sums(f22) - (pc0 + pc1 * kc))))
        f2_m = min(f2_m, float(np.min(block_sums(f2) - (oc0 + oc1 * kc))))
    add("z_kernel_floor", zmin - 0.055)
    add("patience_r0_floor_at_2", f22_m)
    add("one_sided_r0_floor_at_2", f2_m)
    add("patience_r1_floor_at_2", g22_m - 0.181)
    add("one_sided_r1_floor_at_2", g2_m - 0.209)

    phis = np.vstack([phi(ell, y) for ell in _ELLS])
    i2 = _ELLS.index(2)
    pair_m = np.inf
    for kk in np.linspace(0.0, 1.0, 5):
        mat = _ell_scan_matrices(np.exp(-y * (2.0 - kk)), phis, wy)
        ref = mat[i2, i2]
        mat[i2, i2] = np.inf
        pair_m = min(pair_m, float(mat.min() - ref))
    add("ell2_argmin_r0_pair", pair_m)
    single_m = np.inf
    for kk in np.linspace(0.0, 0.5, 5):
        vals = (phis * (np.exp(-y * (2.0 - kk)) * wy)).sum(axis=1)
        ref = vals[i2]
        vals[i2] = np.inf
        single_m = min(single_m, float(vals.min() - ref))
    add("ell2_argmin_r0_single", single_m)

    worst_pair = worst_single = np.inf
    for kk in np.linspace(0.0, 2.0, 201):
        kernel = np.exp(-y * (2.0 - kk))
        mat = _ell_scan_matrices(kernel, phis, wy)
        worst_pair = min(worst_pair, float(mat.min() - (pc0 + pc1 * kk)))
        vals = (phis * (kernel * wy)).sum(axis=1)
        worst_single = min(worst_single, float(vals.min() - (oc0 + oc1 * kk)))
    add("patience_r0_floor_all_ell", worst_pair)
    add("one_sided_r0_floor_all_ell", worst_single)
    return rows


def build_lp_rows(inst, objective="revenue"):
    """(c, A, b, var_keys) of the pricing LP: one column per menu entry, and
    rows for the edge budgets, the vertex capacities and the patience caps,
    each built by a loop over the edges it touches."""
    coeffs = objective_coefficients(inst, objective)
    var_keys = []
    col_of = {}
    c = []
    for e in inst.edges:
        for k, entry in enumerate(e.menu):
            col_of[(e.id, k)] = len(var_keys)
            var_keys.append((e.id, entry.w))
            c.append(coeffs[e.id][k])

    n = len(var_keys)
    rows = []
    b = []

    for e in inst.edges:
        row = np.zeros(n)
        for k in range(len(e.menu)):
            row[col_of[(e.id, k)]] = 1.0
        rows.append(row)
        b.append(1.0)

    for v in inst.vertices:
        row = np.zeros(n)
        for i in inst.incident[v.id]:
            e = inst.edges[i]
            for k, entry in enumerate(e.menu):
                row[col_of[(e.id, k)]] += entry.p
        rows.append(row)
        b.append(1.0)

    for v in inst.vertices:
        if v.patience is None:
            continue
        row = np.zeros(n)
        for i in inst.incident[v.id]:
            e = inst.edges[i]
            for k in range(len(e.menu)):
                row[col_of[(e.id, k)]] += 1.0
        rows.append(row)
        b.append(float(v.patience))

    A = np.vstack(rows) if rows else np.zeros((0, n))
    return np.array(c), A, np.array(b), tuple(var_keys)


def full_tableau_pivots(A: np.ndarray, b: np.ndarray, c: np.ndarray, tol: float):
    """Bland's-rule simplex on the full (m+1)×(n+m+1) tableau, slack identity
    block included, for ``lp._bland_pivots``'s compact tableau.  It keeps the
    masked row update (only rows with a nonzero entering entry change), which
    ``lp._bland_pivots`` replaced by one unmasked rank-1 update.  Returns
    (x, objective)."""
    m, n = A.shape
    # tableau: columns = n structural + m slack + rhs
    T = np.zeros((m + 1, n + m + 1))
    T[:m, :n] = A
    T[:m, n : n + m] = np.eye(m)
    T[:m, -1] = b
    T[m, :n] = -c
    basis = np.arange(n, n + m)

    max_iter = 50 * (m + n + 10)
    for _ in range(max_iter):
        improving = np.flatnonzero(T[m, : n + m] < -tol)
        if improving.size == 0:
            break
        entering = improving[0]  # Bland: first improving column
        col = T[:m, entering]
        eligible = np.flatnonzero(col > tol)
        if eligible.size == 0:
            raise ValueError("simplex: unbounded direction (malformed program)")
        # Bland: among the (near-)minimum ratios, the smallest basic index
        ratio = T[eligible, -1] / col[eligible]
        tied = eligible[ratio <= ratio.min() + 1e-15]
        leave = tied[np.argmin(basis[tied])]
        piv = T[leave, entering]
        T[leave] /= piv
        # only rows with a nonzero entry change, so no other row's zeros flip
        # sign; the temporary keeps one shape for the whole solve, so the
        # allocator reuses it instead of mapping fresh pages every pivot
        rows = T[:, entering] != 0.0
        rows[leave] = False
        np.subtract(T, np.outer(T[:, entering], T[leave]), out=T, where=rows[:, None])
        basis[leave] = entering
    else:
        raise ValueError("simplex: iteration limit hit (malformed program)")

    x = np.zeros(n + m)
    x[basis] = T[:m, -1]
    sol = x[:n]

    # optimality + feasibility certificate
    if np.any(T[m, : n + m] < -10 * tol):
        raise ValueError("simplex: left with an improving pivot")
    if np.any(sol < -1e-9) or np.any(A @ sol > b + 1e-9):
        raise ValueError("simplex: infeasible output")
    return sol, float(c @ sol)


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


def whole_chunk_coins(engine, seed: int, start: int, count: int):
    """(order, go, accept, active, reward) of trials start .. start + count,
    from one ``hash_uniform`` over every cell of the chunk.

    `active` is what a detail chunk reports as active (the realized cells
    for the pricing engine, which has no activity coin) and `reward` is None
    but for the pricing engine.  The order is the stable argsort of the
    arrival times; under vertex arrival, a lexsort by the online endpoint's
    time, its position, then the edge's time and position.
    """
    e, nv = engine.topo.n_edges, engine.topo.n_vertices
    trials = np.arange(start, start + count, dtype=np.uint64)[:, None]
    units = np.arange(e + nv, dtype=np.uint64)[None, :]
    x, reward = engine.x[None, :], None
    if isinstance(engine, SequentialPricingEngine):
        t, u_price, u_accept, u_coin = hash_uniform(seed, trials, units[:, :e], (ARRIVAL, PRICE, ACTIVE, COIN))
        # each cell takes the first menu entry whose cumulative mass exceeds its draw
        below = u_price[:, :, None] < np.cumsum(engine.menu_y, axis=1)[None, :, :]
        have, k, edge = below[:, :, -1], below.argmax(axis=2), np.arange(e)
        reward = np.where(have, engine.menu_r[edge, k], 0.0)
        accept = u_accept < np.where(have, engine.menu_p[edge, k], 0.0)
        go = have & (u_coin < attenuation_profile(engine.spec, t, x, engine.s[None, :]))
        active = go & accept
    else:
        t, u_active, u_coin = hash_uniform(seed, trials, units[:, :e], (ARRIVAL, ACTIVE, COIN))
        if isinstance(engine, StochasticOcrsEngine):
            accept = u_active < engine.p[None, :]
            go = u_coin < engine.y[None, :] * attenuation_profile(engine.spec, t, x, engine.s[None, :])
        elif isinstance(engine, VertexArrivalEngine):
            accept = u_active < x
            go = accept & (u_coin < np.exp(-x * t))
        else:
            accept = u_active < x
            go = accept & (u_coin < attenuation_profile(engine.spec, t, x, engine.s[None, :]))
        active = accept
    if isinstance(engine, VertexArrivalEngine):
        t_v = hash_uniform(seed, trials, units[:, e:], ARRIVAL)
        online = engine.online_of_edge
        order = np.lexsort((t, np.broadcast_to(online, t.shape), t_v[:, online]), axis=1)
    else:
        order = np.argsort(t, axis=1, kind="stable")
    return order, go, accept, active, reward


def reference_steps(order: np.ndarray, go: np.ndarray) -> np.ndarray:
    """Each trial's `go` edges in arrival order, as a (k, trials) array of
    edges, k the busiest trial's go count.

    The go mask is gathered into arrival order; its row-major nonzero cells
    are then each trial's go cells in order, so a cell's step is its rank
    within its row.  A trial with fewer than k go cells is padded with its
    first non-go edge, which never proposes.
    """
    count = order.shape[0]
    go_ord = np.take_along_axis(go, order, axis=1)
    n_go = go_ord.sum(axis=1)
    k = int(n_go.max(initial=0))
    steps = np.repeat(order[np.arange(count), np.argmin(go_ord, axis=1)][None, :], k, axis=0)
    rows, cols = np.nonzero(go_ord)
    rank = np.arange(rows.size) - (np.cumsum(n_go) - n_go)[rows]
    steps[rank, rows] = order[rows, cols]
    return steps


def attenuation_value(spec: AttenuationSpec, t: float, stats: EdgeStats, x_e: float) -> float:
    """Attenuation coin bias for one edge at arrival time t: the range-checked
    scalar form of :func:`attenuation_profile`."""
    if not (0.0 <= t <= 1.0):
        raise ValueError(f"t must lie in [0, 1], got {t}")
    if not (0.0 <= x_e <= 1.0):
        raise ValueError(f"x_e must lie in [0, 1], got {x_e}")
    if spec.kind != "trivial" and not (0.0 <= stats.s <= 2.0):
        raise ValueError(f"s_e must lie in [0, 2], got {stats.s}")
    return float(attenuation_profile(spec, t, x_e, stats.s))


def synthetic_stats_at(
    minimizer: tuple[float, float, float, float, float],
    n_small: int = 1_000_000,
) -> tuple[EdgeStats, list[tuple[float, float]], float]:
    """EdgeStats and (x_f, s_f) pairs whose lemma-bound evaluation realizes a
    program point.

    Returns (stats, pairs, x_e).  The neighborhood mirrors the substitutions
    behind the program: a triangle partner (m, m) when m > 0; "big" pieces of size
    ≥ (1−m)/2 with slack (1−m)/2 carrying mass dbig (their tail term vanishes
    and x_f·s_f sums to dbig·(1−m)/2 exactly); and n_small light pieces
    (ε, 0) carrying mass d − dbig, whose tail term approaches (d−dbig)(1−m)
    with O(mass²/n_small) error.  Realizable when m = 0 or m ≥ 1/3 and when
    dbig is 0 or ≥ (1−m)/2 — both hold at the certified minimizers.  The pair
    list is synthetic (not derived from a graph); only the bound formulas
    consume it.
    """
    s, d, dbig, x, m = minimizer
    pairs: list[tuple[float, float]] = []
    if m > 0.0:
        if m < 1.0 / 3.0 - 1e-12:
            raise ValueError("synthetic neighborhood needs m = 0 or m ≥ 1/3")
        pairs.append((m, m))
    if dbig > 0.0:
        half = (1.0 - m) / 2.0
        if half <= 0.0:
            raise ValueError("dbig > 0 needs m < 1")
        n_big = max(1, int(math.floor(dbig / half)))
        if dbig / n_big < half - 1e-12:
            raise ValueError("synthetic neighborhood needs dbig = 0 or ≥ (1−m)/2")
        pairs.extend([(dbig / n_big, half)] * n_big)
    light = d - dbig
    if light > 1e-15:
        eps = light / n_small
        pairs.extend([(eps, 0.0)] * n_small)
    x_e = x if x > 0.0 else 1e-9  # both bounds scale linearly in x_e
    return EdgeStats(d=d, s=s, m=m), pairs, x_e


def reference_neighbors(inst: PricingInstance) -> tuple[np.ndarray, ...]:
    """Edge position → sorted positions of the edges sharing an endpoint with
    it (itself excluded, a parallel edge counted once), every list stored."""
    out = []
    for i, e in enumerate(inst.edges):
        nb = set(inst.incident[e.u].tolist()) | set(inst.incident[e.v].tolist())
        nb.discard(i)
        out.append(np.array(sorted(nb), dtype=np.intp))
    return tuple(out)


def reference_edge_stats(x, inst: PricingInstance) -> dict[str, tuple]:
    """Per edge id, (d, s, m, neighbour ids, (x_f, s_f) per neighbour): d
    summed over the stored neighbour lists, and m from a scan of every
    neighbour for the triangles it closes."""
    edges = inst.edges
    xv = np.array([float(x.get(e.id, 0.0)) for e in edges])
    neighbor_idx = reference_neighbors(inst)
    d = np.array([xv[nb].sum() if nb.size else 0.0 for nb in neighbor_idx])
    s = 2.0 - d - xv
    pair_present = {frozenset((e.u, e.v)) for e in edges}
    out = {}
    for i, e in enumerate(edges):
        m = 0.0
        for j in neighbor_idx[i]:
            f = edges[j]
            shared = {e.u, e.v} & {f.u, f.v}
            if len(shared) != 1:
                continue  # parallel edge: no third vertex
            (z,) = shared
            far_e = e.v if z == e.u else e.u
            far_f = f.v if z == f.u else f.u
            if frozenset((far_e, far_f)) in pair_present:
                m = max(m, float(xv[j]))
        out[e.id] = (
            float(d[i]),
            float(s[i]),
            m,
            tuple(edges[j].id for j in neighbor_idx[i]),
            tuple((float(xv[j]), float(s[j])) for j in neighbor_idx[i]),
        )
    return out


def reference_topology(inst: PricingInstance) -> tuple[bool, type, np.ndarray | None]:
    """(has parallel edges, q_dtype, nbr_bits) of ``simulate._Topology``,
    on an instance without self-loops, from the stored neighbour lists: an
    edge has a parallel copy when it has fewer than deg_u + deg_v − 2
    distinct neighbours, the Q-count dtype follows the widest list, and each
    list is a bit mask when there are at most 64 edges."""
    vpos = inst.vertex_pos
    u = np.array([vpos[e.u] for e in inst.edges], dtype=np.intp)
    v = np.array([vpos[e.v] for e in inst.edges], dtype=np.intp)
    neighbors = reference_neighbors(inst)
    widths = np.array([nb.size for nb in neighbors], dtype=np.intp)
    degree = np.bincount(np.concatenate([u, v]), minlength=len(inst.vertices))
    parallel = not np.array_equal(widths, degree[u] + degree[v] - 2)
    nbr_bits = None
    if len(inst.edges) <= 64:
        nbr_bits = np.array([sum(1 << f for f in nb.tolist()) for nb in neighbors], dtype=np.uint64)
    return parallel, _count_dtype(int(widths.max(initial=0))), nbr_bits
