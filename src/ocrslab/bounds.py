"""Numeric certification layer.

Four jobs:
  * the special functions h, h1, phi used by the analysis, vectorized;
  * evaluators for the per-edge lower-bound formulas (the probability that an
    edge is matched jointly with seeing zero / one realized earlier neighbor);
  * five-variable minimization certificates for the headline balancedness
    constants (0.450 general / 0.456 bipartite / 0.395 patience / 0.426
    one-sided patience);
  * a battery of grid-verified inequalities ("facts") that the bound
    derivations lean on, each reported with its worst-case margin.

Everything here is deterministic, pure, and numpy-vectorized where grids get
large.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .graphcore import EdgeStats

__all__ = [
    "H2",
    "h",
    "h1",
    "phi",
    "lemma_r0_bound",
    "lemma_r1_bound",
    "patience_r0_bound",
    "patience_r1_bound",
    "one_sided_r0_bound",
    "one_sided_r1_bound",
    "BoundCertificate",
    "five_var_minimize",
    "FIVE_VAR_SETTINGS",
    "synthetic_stats_at",
    "FactCheck",
    "verify_facts",
]

# h(2) = (1 - e^-2)/2, kept in exact form rather than the 4-digit decimal some
# derivations quote; the certified minima agree to the stated tolerance either way.
H2 = 0.5 * -math.expm1(-2.0)

# setting → (c0, c1, c2, m free?): the r0 constants c0 + c1·(…), the r1
# coefficient c2, and whether the triangle mass m enters the r1 tail
FIVE_VAR_SETTINGS: dict[str, tuple[float, float, float, bool]] = {
    "general": (H2, 0.14, 0.0275, True),
    "bipartite": (H2, 0.14, 0.0275, False),
    "patience_general": (0.382, 0.117, 0.02, True),
    "patience_one_sided": (0.405, 0.131, 0.023, False),
}


def h(x):
    """(1 - e^{-x})/x elementwise, continuously extended by h(0) = 1."""
    x = np.asarray(x, dtype=float)
    if not np.all(x >= 0.0):
        raise ValueError(f"h: x must be ≥ 0, got {x}")
    pos = x > 0.0
    return np.where(pos, -np.expm1(-x) / np.where(pos, x, 1.0), 1.0)[()]


def h1(a, x):
    """∫₀^a e^{-bx}·(4 − (3b+4)e^{-3b}) db elementwise, in closed form.

    4·∫e^{-bx}db − ∫(3b+4)e^{-b(x+3)}db over [0, a], from elementary
    antiderivatives.
    """
    a = np.asarray(a, dtype=float)
    x = np.asarray(x, dtype=float)
    if not (np.all((a >= 0.0) & (a <= 1.0)) and np.all((x >= 0.0) & (x <= 1.0))):
        raise ValueError(f"h1: need a, x in [0, 1], got a={a}, x={x}")
    c = x + 3.0
    pos = x > 0.0
    xs = np.where(pos, x, 1.0)
    first = np.where(pos, 4.0 * -np.expm1(-a * xs) / xs, 4.0 * a)
    eca = np.exp(-c * a)
    second = (4.0 - (3.0 * a + 4.0) * eca) / c + 3.0 * -np.expm1(-c * a) / (c * c)
    return (first - second)[()]


def phi(ell: int | None, y):
    """Pr[Pois(y·(ell−1)) ≤ ell−1] elementwise; 1 for ell = 1 and for
    unbounded ell (None)."""
    y = np.asarray(y, dtype=float)
    if not np.all((y >= 0.0) & (y <= 1.0)):
        raise ValueError(f"phi: y must lie in [0, 1], got {y}")
    if ell is None:
        return np.ones_like(y)[()]
    if not isinstance(ell, int) or ell < 1:
        raise ValueError(f"phi: ell must be a positive integer or None, got {ell}")
    lam = y * (ell - 1)
    term = np.exp(-lam)
    total = term.copy()
    for k in range(1, ell):
        term = term * lam / k
        total += term
    return np.minimum(total, 1.0)[()]


# ---------------------------------------------------------------------------
# per-edge lower-bound formulas


def _neighbor_arrays(stats: EdgeStats) -> tuple[np.ndarray, np.ndarray]:
    if not stats.neighbor_xs:
        return np.zeros(0), np.zeros(0)
    arr = np.asarray(stats.neighbor_xs, dtype=float)
    return arr[:, 0], arr[:, 1]


def _r0_formula(setting: str, stats: EdgeStats, x_e: float, alpha: float) -> float:
    c0, c1, _, _ = FIVE_VAR_SETTINGS[setting]
    xf, sf = _neighbor_arrays(stats)
    coupling = float(np.dot(xf, sf))
    return (1.0 - alpha * stats.s) * (c0 + c1 * (stats.s + alpha * coupling)) * x_e


def _r1_formula(setting: str, stats: EdgeStats, x_e: float, alpha: float) -> float:
    _, _, c2, use_m = FIVE_VAR_SETTINGS[setting]
    xf, sf = _neighbor_arrays(stats)
    m = stats.m if use_m else 0.0
    tail = np.maximum(1.0 - m - xf - sf, 0.0)
    total = float(np.dot(xf, tail))
    return (1.0 - alpha * stats.s) * (1.0 - 2.0 * alpha) ** 2 * total * c2 * x_e


def lemma_r0_bound(stats: EdgeStats, x_e: float, alpha: float) -> float:
    """(1 − α·s_e)·(c0 + c1(s_e + α·Σ x_f s_f))·x_e with the "general"
    constants (c0 = h(2)) — floor on Pr[e matched ∧ no realized earlier
    neighbor], no patience."""
    return _r0_formula("general", stats, x_e, alpha)


def lemma_r1_bound(stats: EdgeStats, x_e: float, alpha: float) -> float:
    """(1 − α·s_e)(1 − 2α)²·Σ x_f(1 − m_e − x_f − s_f)⁺·c2·x_e with the
    "general" c2 — floor on Pr[e matched ∧ exactly one realized earlier
    neighbor], no patience."""
    return _r1_formula("general", stats, x_e, alpha)


def patience_r0_bound(stats: EdgeStats, x_e: float, alpha: float) -> float:
    """Patience-constrained analogue of lemma_r0_bound ("patience_general")."""
    return _r0_formula("patience_general", stats, x_e, alpha)


def patience_r1_bound(stats: EdgeStats, x_e: float, alpha: float) -> float:
    """Patience-constrained analogue of lemma_r1_bound ("patience_general")."""
    return _r1_formula("patience_general", stats, x_e, alpha)


def one_sided_r0_bound(stats: EdgeStats, x_e: float, alpha: float) -> float:
    """One-sided-patience bipartite analogue ("patience_one_sided")."""
    return _r0_formula("patience_one_sided", stats, x_e, alpha)


def one_sided_r1_bound(stats: EdgeStats, x_e: float, alpha: float) -> float:
    """One-sided-patience bipartite analogue ("patience_one_sided", no m term)."""
    return _r1_formula("patience_one_sided", stats, x_e, alpha)


# ---------------------------------------------------------------------------
# five-variable certificates

@dataclass(frozen=True)
class BoundCertificate:
    setting: str
    alpha: float
    minimizer: tuple[float, float, float, float, float]  # (s, d, dbig, x, m)
    minimum: float
    grid_resolution: int
    refinements: int
    quadrature_tol: float  # 0.0: the objective is closed-form
    sign_conditions: dict[str, float]


def _objective_arrays(setting: str, alpha: float, x, d, dbig, m):
    """The program objective, broadcasting over numpy arrays.

    (1 − α·s)·(c0 + c1·(s + α·m² + α·(1−m)·dbig/2) + c2·(1−2α)²·(d−dbig)·(1−m))
    with s = 2 − x − d eliminated.
    """
    c0, c1, c2, _ = FIVE_VAR_SETTINGS[setting]
    s = 2.0 - x - d
    inner = (
        c0
        + c1 * (s + alpha * m**2 + alpha * (1.0 - m) * dbig * 0.5)
        + c2 * (1.0 - 2.0 * alpha) ** 2 * (d - dbig) * (1.0 - m)
    )
    return (1.0 - alpha * s) * inner


def _map_u(u: np.ndarray, free_m: bool):
    """Scaled coordinates u ∈ [0,1]^k → feasible (x, d, dbig, m).

    x = u0, d = u1·(2−2x), dbig = u2·d, m = u3 (or 0), so the feasible wedge
    s + d = 2 − x, d ≤ 2(1−x), 0 ≤ dbig ≤ d becomes a static unit box.
    """
    x = u[..., 0]
    d = u[..., 1] * (2.0 - 2.0 * x)
    dbig = u[..., 2] * d
    m = u[..., 3] if free_m else np.zeros_like(x)
    return x, d, dbig, m


def _nelder_mead(fun, u0: np.ndarray, max_iter: int = 600, ftol: float = 1e-13):
    """Minimize fun over the unit box (fun clips internally). Deterministic."""
    k = u0.size
    pts = [np.clip(u0, 0.0, 1.0)]
    for i in range(k):
        p = pts[0].copy()
        p[i] = p[i] + 0.02 if p[i] <= 0.98 else p[i] - 0.02
        pts.append(p)
    simplex = np.array(pts)
    fvals = np.array([fun(p) for p in simplex])

    for _ in range(max_iter):
        order = np.argsort(fvals, kind="stable")
        simplex, fvals = simplex[order], fvals[order]
        if fvals[-1] - fvals[0] < ftol:
            break
        centroid = simplex[:-1].mean(axis=0)
        worst = simplex[-1]
        refl = centroid + (centroid - worst)
        f_refl = fun(refl)
        if f_refl < fvals[0]:
            expd = centroid + 2.0 * (centroid - worst)
            f_expd = fun(expd)
            if f_expd < f_refl:
                simplex[-1], fvals[-1] = expd, f_expd
            else:
                simplex[-1], fvals[-1] = refl, f_refl
        elif f_refl < fvals[-2]:
            simplex[-1], fvals[-1] = refl, f_refl
        else:
            contr = centroid + 0.5 * (worst - centroid)
            f_contr = fun(contr)
            if f_contr < fvals[-1]:
                simplex[-1], fvals[-1] = contr, f_contr
            else:  # shrink toward the best vertex
                for i in range(1, k + 1):
                    simplex[i] = simplex[0] + 0.5 * (simplex[i] - simplex[0])
                    fvals[i] = fun(simplex[i])
    best = int(np.argmin(fvals))
    return simplex[best], float(fvals[best])


def five_var_minimize(
    setting: str,
    alpha: float,
    grid_resolution: int = 81,
    refinements: int = 3,
) -> BoundCertificate:
    """Certify the minimum of the five-variable program for one setting.

    Dense grid over the scaled unit box, `refinements` zoom rounds around the
    incumbent (window = ±2 grid steps per round), then Nelder–Mead polish from
    the best grid cells.  Ties broken toward lexicographically smaller scaled
    coordinates, so results are bit-reproducible.
    """
    if setting not in FIVE_VAR_SETTINGS:
        raise ValueError(f"unknown setting {setting!r}; known: {sorted(FIVE_VAR_SETTINGS)}")
    c0, c1, c2, free_m = FIVE_VAR_SETTINGS[setting]
    if setting in ("general", "bipartite") and not (0.12 <= alpha <= 0.5):
        raise ValueError(
            f"{setting}: alpha must lie in [0.12, 0.5] (the bound derivation's "
            f"sign conditions), got {alpha}"
        )
    if not (0.0 <= alpha <= 0.5):
        raise ValueError(f"alpha must lie in [0, 0.5], got {alpha}")
    n = int(grid_resolution)
    if n < 3:
        raise ValueError("grid_resolution must be ≥ 3")

    k = 4 if free_m else 3

    def fun_point(u: np.ndarray) -> float:
        uu = np.clip(u, 0.0, 1.0)
        full = np.concatenate([uu, [0.0]]) if k == 3 else uu
        x, d, dbig, m = _map_u(full.reshape(1, -1), free_m)
        return float(_objective_arrays(setting, alpha, x, d, dbig, m)[0])

    lo = np.zeros(k)
    hi = np.ones(k)
    best_val = np.inf
    best_u: np.ndarray | None = None
    nm_seeds: list[np.ndarray] = []

    for rnd in range(refinements + 1):
        axes = [np.linspace(lo[i], hi[i], n) for i in range(k)]
        if k == 4:
            g1, g2, g3 = np.meshgrid(axes[1], axes[2], axes[3], indexing="ij")
        else:
            g1, g2 = np.meshgrid(axes[1], axes[2], indexing="ij")
            g3 = np.zeros_like(g1)
        slice_bests: list[tuple[float, np.ndarray]] = []
        for i0 in range(n):  # chunk over the first coordinate to bound memory
            x0 = axes[0][i0]
            d = g1 * (2.0 - 2.0 * x0)
            dbig = g2 * d
            vals = _objective_arrays(setting, alpha, x0, d, dbig, g3)
            flat = vals.reshape(-1)
            j = int(np.argmin(flat))  # first minimum in C order = lexicographic
            v = float(flat[j])
            idx = np.unravel_index(j, vals.shape)
            cand = np.array([x0] + [axes[i + 1][idx[i]] for i in range(k - 1)])
            slice_bests.append((v, cand))
            if v < best_val:
                best_val, best_u = v, cand
        if rnd == 0:
            for v, cand in sorted(slice_bests, key=lambda t: t[0])[:8]:
                nm_seeds.append(cand)
        nm_seeds.append(best_u.copy())
        step = (hi - lo) / (n - 1)
        lo = np.clip(best_u - 2.0 * step, 0.0, 1.0)
        hi = np.clip(best_u + 2.0 * step, 0.0, 1.0)

    for seed in nm_seeds:
        u_pol, v_pol = _nelder_mead(fun_point, seed)
        if v_pol < best_val - 1e-15:
            best_val, best_u = v_pol, np.clip(u_pol, 0.0, 1.0)

    full = np.concatenate([best_u, [0.0]]) if k == 3 else best_u
    x_, d_, dbig_, m_ = _map_u(full.reshape(1, -1), free_m)
    x_, d_, dbig_, m_ = float(x_[0]), float(d_[0]), float(dbig_[0]), float(m_[0])
    s_ = 2.0 - x_ - d_

    # feasibility of the reported minimizer
    checks = [
        abs(s_ + d_ - (2.0 - x_)) <= 1e-9,
        d_ <= 2.0 * (1.0 - x_) + 1e-9,
        -1e-12 <= dbig_ <= d_ + 1e-12,
        -1e-12 <= m_ <= 1.0 + 1e-12,
        x_ >= -1e-12,
        s_ >= -1e-12,
    ]
    if not all(checks):
        raise RuntimeError(f"certificate minimizer violates constraints: {(s_, d_, dbig_, x_, m_)}")

    q = (1.0 - 2.0 * alpha) ** 2
    sign_conditions = {
        "neighbor_slack_coefficient": c1 * alpha - c2 * q,
        "neighbor_mass_squared_coefficient": c1 * alpha - 2.0 * c2 * q,
    }

    return BoundCertificate(
        setting=setting,
        alpha=alpha,
        minimizer=(s_, d_, dbig_, x_, m_),
        minimum=best_val,
        grid_resolution=n,
        refinements=refinements,
        quadrature_tol=0.0,
        sign_conditions=sign_conditions,
    )


def synthetic_stats_at(
    minimizer: tuple[float, float, float, float, float],
    n_small: int = 1_000_000,
) -> tuple[EdgeStats, float]:
    """EdgeStats whose lemma-bound evaluation realizes a program point.

    Returns (stats, x_e).  The neighborhood mirrors the substitutions behind
    the program: a triangle partner (m, m) when m > 0; "big" pieces of size
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
    stats = EdgeStats(
        d=d,
        s=s,
        m=m,
        neighbors=tuple(f"n{i}" for i in range(len(pairs))),
        neighbor_xs=tuple(pairs),
    )
    return stats, x_e


# ---------------------------------------------------------------------------
# fact battery


@dataclass(frozen=True)
class FactCheck:
    fact_id: str
    holds: bool
    margin: float


def _simpson_weights(n_nodes: int, a: float, b: float) -> np.ndarray:
    """Composite-Simpson weights on n_nodes (odd) uniform nodes over [a, b]."""
    if n_nodes % 2 == 0:
        raise ValueError("composite Simpson needs an odd node count")
    w = np.ones(n_nodes)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return w * ((b - a) / (n_nodes - 1) / 3.0)


_ELLS: list[int | None] = list(range(1, 21)) + [None]


def _ell_scan_matrices(kernel: np.ndarray, phis: np.ndarray, w: np.ndarray) -> np.ndarray:
    """All pairwise integrals ∫ kernel·φ_a·φ_b for φ rows; returns (L, L)."""
    weighted = phis * (kernel * w)  # rows scaled by kernel and weights
    return weighted @ phis.T


def verify_facts() -> list[FactCheck]:
    """Check every inequality the bound derivations rely on, on dense grids.

    Each row reports the worst-case margin over its grid; every margin must be
    nonnegative for the certification chain to stand.
    """
    rows: list[FactCheck] = []

    def add(fact_id: str, margin: float) -> None:
        rows.append(FactCheck(fact_id=fact_id, holds=bool(margin >= 0.0), margin=float(margin)))

    # -- coupling inequality: x(1−e^{−a}) ≤ 1−e^{−ax} on [0,1]² ---------------
    a = np.linspace(0.0, 1.0, 101)[:, None]
    xg = np.linspace(0.0, 1.0, 101)[None, :]
    add("coupling_concavity", float(np.min(-np.expm1(-a * xg) - xg * -np.expm1(-a))))

    # -- product vs complement: ∏(1−R_i) ≥ 1 − ΣR_i --------------------------
    rng = np.random.default_rng(20260819)
    worst = np.inf
    for _ in range(10_000):
        r = rng.uniform(0.01, 0.99, size=int(rng.integers(2, 9)))
        worst = min(worst, float(np.prod(1.0 - r) - (1.0 - r.sum())))
    add("union_bound_product", worst)

    # -- linear underestimate: h(2−x) ≥ c0 + c1·x on [0,2] (c0 = h(2)) -------
    c0, c1, _, _ = FIVE_VAR_SETTINGS["general"]
    xs = np.linspace(0.0, 2.0, 20_001)
    add("h_linear_underestimate", float(np.min(h(2.0 - xs) - (c0 + c1 * xs))))

    # -- light-neighbor kernel floor: z(x) ≥ 0.055 on [0,1] ------------------
    anodes = np.linspace(0.0, 1.0, 2001)
    wa = _simpson_weights(2001, 0.0, 1.0)
    zmin = np.inf
    for xc in np.array_split(np.linspace(0.0, 1.0, 10_001), 10):
        xc2 = xc[:, None]
        an = anodes[None, :]
        first = np.where(
            xc2 > 0.0, -np.expm1(-np.where(xc2 > 0.0, xc2, 1.0) * an) / np.where(xc2 > 0.0, xc2, 1.0), an
        )
        second = -np.expm1(-an * (xc2 + 2.0)) / (xc2 + 2.0)
        integrand = np.exp(-2.0 * an + an * xc2) * (first - second)
        zmin = min(zmin, float(np.min(integrand @ wa)))
    add("z_kernel_floor", zmin - 0.055)

    # -- r0 integral floors (patience pair / one-sided single form) ----------
    # floors c0 + c1·k with the patience and one-sided constants
    pc0, pc1, _, _ = FIVE_VAR_SETTINGS["patience_general"]
    oc0, oc1, _, _ = FIVE_VAR_SETTINGS["patience_one_sided"]
    # (chunked over the 10,001-point axis, as above, to bound memory)
    y = np.linspace(0.0, 1.0, 2001)
    wy = _simpson_weights(2001, 0.0, 1.0)
    f22_m = f2_m = np.inf
    for kc in np.array_split(np.linspace(0.0, 2.0, 10_001), 10):
        karr = kc[:, None]
        f22 = (np.exp(-y[None, :] * (4.0 - karr)) * (1.0 + y[None, :]) ** 2) @ wy
        f22_m = min(f22_m, float(np.min(f22 - (pc0 + pc1 * kc))))
        f2 = (np.exp(-y[None, :] * (3.0 - karr)) * (1.0 + y[None, :])) @ wy
        f2_m = min(f2_m, float(np.min(f2 - (oc0 + oc1 * kc))))
    add("patience_r0_floor_at_2", f22_m)
    add("one_sided_r0_floor_at_2", f2_m)

    # -- r1 integral floors over x ∈ [0,1] ------------------------------------
    g22_m = g2_m = np.inf
    for xc in np.array_split(np.linspace(0.0, 1.0, 10_001), 10):
        xcol = xc[:, None]
        h1v = h1(y[None, :], xcol)
        g22 = (np.exp(-4.0 * y[None, :] + y[None, :] * xcol) * h1v * (1.0 + y[None, :]) ** 2) @ wy
        g22_m = min(g22_m, float(np.min(g22)))
        g2 = (np.exp(-3.0 * y[None, :] + y[None, :] * xcol) * h1v * (1.0 + y[None, :])) @ wy
        g2_m = min(g2_m, float(np.min(g2)))
    add("patience_r1_floor_at_2", g22_m - 0.181)
    add("one_sided_r1_floor_at_2", g2_m - 0.209)

    # -- patience-2 minimality scans over ℓ ∈ {1..20, ∞} ----------------------
    phis = np.vstack([phi(ell, y) for ell in _ELLS])
    i2 = _ELLS.index(2)

    def pair_margin(kernel: np.ndarray) -> float:
        mat = _ell_scan_matrices(kernel, phis, wy)
        ref = mat[i2, i2]
        mat = mat.copy()
        mat[i2, i2] = np.inf
        return float(mat.min() - ref)

    def single_margin(kernel: np.ndarray) -> float:
        vals = (phis * (kernel * wy)).sum(axis=1)
        ref = vals[i2]
        vals = vals.copy()
        vals[i2] = np.inf
        return float(vals.min() - ref)

    # Level-2 minimality is a numerical claim with a limited range of validity.
    # Measured crossovers (confirmed with 30-digit quadrature): the pair form
    # stays minimal at (2, 2) for K up to ~1.05, the single form for K up to
    # ~0.69 (level 3 wins beyond).  The rows below scan the subranges on which
    # the claim is true; the floors-over-every-level rows further down are the
    # statements the lemma chain actually consumes on the full K range.
    pair_m = np.inf
    for kk in np.linspace(0.0, 1.0, 5):
        pair_m = min(pair_m, pair_margin(np.exp(-y * (2.0 - kk))))
    add("ell2_argmin_r0_pair", pair_m)

    single_m = np.inf
    for kk in np.linspace(0.0, 0.5, 5):
        single_m = min(single_m, single_margin(np.exp(-y * (2.0 - kk))))
    add("ell2_argmin_r0_single", single_m)

    # No minimality row is emitted for the blocked-neighbor kernel
    # e^(-2a+ax)·h1(a,x): its minimum over the scanned levels sits at the
    # (3, 3) pair (resp. level 3) for every x in [0,1], about 2% below the
    # level-2 value — e.g. 0.177829 vs 0.181429 at x = 0.  The level-2
    # integrals themselves are covered by the r1 floor rows above.

    # -- floors uniform over every patience level (what the chain consumes) --
    kgrid = np.linspace(0.0, 2.0, 201)
    worst_pair = np.inf
    worst_single = np.inf
    for kk in kgrid:
        kernel = np.exp(-y * (2.0 - kk))
        mat = _ell_scan_matrices(kernel, phis, wy)
        worst_pair = min(worst_pair, float(mat.min() - (pc0 + pc1 * kk)))
        vals = (phis * (kernel * wy)).sum(axis=1)
        worst_single = min(worst_single, float(vals.min() - (oc0 + oc1 * kk)))
    add("patience_r0_floor_all_ell", worst_pair)
    add("one_sided_r0_floor_all_ell", worst_single)

    return rows
