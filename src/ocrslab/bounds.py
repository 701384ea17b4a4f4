"""Numeric certification layer.

Four jobs:
  * the special functions h, h1, phi used by the analysis, vectorized;
  * evaluators for the per-edge lower-bound formulas (the probability that an
    edge is matched jointly with seeing zero / one realized earlier neighbor);
  * five-variable minimization certificates for the headline balancedness
    constants (general, bipartite, patience and one-sided patience, whose α
    and constant `suite.CERTIFIED` lists), each the exact minimum of the
    program: a reduction proved in `five_var_minimize` leaves a piecewise
    cubic in one variable, minimized over its piece ends and stationary
    points;
  * a battery of grid-verified inequalities ("facts") that the bound
    derivations lean on, each reported with its worst-case margin.

Everything here is deterministic, pure, and numpy-vectorized where grids get
large.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .graphcore import EdgeStats, PricingInstance, edge_neighbors

__all__ = [
    "H2",
    "h",
    "h1",
    "phi",
    "neighbor_pairs",
    "r0_bound",
    "r1_bound",
    "BoundCertificate",
    "five_var_minimize",
    "FIVE_VAR_SETTINGS",
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
    pos = x > 0.0
    xs = np.where(pos, x, 1.0)
    first = np.where(pos, 4.0 * -np.expm1(-a * xs) / xs, 4.0 * a)
    return _h1_terms(a, x, first, np.empty_like(first), np.empty_like(first))[()]


def _h1_terms(a, x, first, n, t):
    """h1(a, x) from its first term, first = 4·(1 − e^{-ax})/x (4a at x = 0):
    first − ∫₀^a (3b+4)e^{-bc} db with c = x + 3, written over `first` and
    returned.  n and t are temporaries of first's shape.  Unchecked; `h1`
    and the fact battery's r1 rows both evaluate h1 here."""
    c = x + 3.0
    np.multiply(a, -c, out=n)  # −ca
    np.exp(n, out=t)
    np.multiply(3.0 * a + 4.0, t, out=t)
    np.subtract(4.0, t, out=t)
    np.divide(t, c, out=t)
    np.expm1(n, out=n)
    np.multiply(n, -3.0, out=n)
    np.divide(n, c * c, out=n)
    np.add(t, n, out=t)  # the integral
    return np.subtract(first, t, out=first)


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


def _constants(setting: str) -> tuple[float, float, float, bool]:
    try:
        return FIVE_VAR_SETTINGS[setting]
    except KeyError:
        raise ValueError(f"unknown setting {setting!r}; known: {sorted(FIVE_VAR_SETTINGS)}") from None


def neighbor_pairs(inst: PricingInstance, x: dict[str, float], stats: dict[str, EdgeStats]):
    """Yields (edge id, pairs) per edge in edge order: the (|N_e|, 2) array of
    (x_f, s_f) over f ∈ N_e that `r0_bound` and `r1_bound` read."""
    xs = np.array([float(x.get(e.id, 0.0)) for e in inst.edges])
    ss = np.array([stats[e.id].s for e in inst.edges])
    for i, e in enumerate(inst.edges):
        nb = edge_neighbors(inst, i)
        yield e.id, np.column_stack((xs.take(nb), ss.take(nb)))


def r0_bound(setting: str, stats: EdgeStats, pairs, x_e: float, alpha: float) -> float:
    """(1 − α·s_e)·(c0 + c1(s_e + α·Σ x_f s_f))·x_e with the constants of
    `setting` — floor on Pr[e matched ∧ no realized earlier neighbor].
    `pairs` holds (x_f, s_f) for each f ∈ N_e."""
    c0, c1, _, _ = _constants(setting)
    xf, sf = np.asarray(pairs, dtype=float).reshape(-1, 2).T
    coupling = float(np.dot(xf, sf))
    return (1.0 - alpha * stats.s) * (c0 + c1 * (stats.s + alpha * coupling)) * x_e


def r1_bound(setting: str, stats: EdgeStats, pairs, x_e: float, alpha: float) -> float:
    """(1 − α·s_e)(1 − 2α)²·Σ x_f(1 − m_e − x_f − s_f)⁺·c2·x_e with the c2 of
    `setting`, and m_e = 0 where the setting does not free m — floor on
    Pr[e matched ∧ exactly one realized earlier neighbor].  `pairs` holds
    (x_f, s_f) for each f ∈ N_e."""
    _, _, c2, use_m = _constants(setting)
    xf, sf = np.asarray(pairs, dtype=float).reshape(-1, 2).T
    m = stats.m if use_m else 0.0
    tail = np.maximum(1.0 - m - xf - sf, 0.0)
    total = float(np.dot(xf, tail))
    return (1.0 - alpha * stats.s) * (1.0 - 2.0 * alpha) ** 2 * total * c2 * x_e


# ---------------------------------------------------------------------------
# five-variable certificates

@dataclass(frozen=True)
class BoundCertificate:
    setting: str
    alpha: float
    minimizer: tuple[float, float, float, float, float]  # (s, d, dbig, x, m)
    minimum: float
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


def five_var_minimize(setting: str, alpha: float) -> BoundCertificate:
    """The exact minimum of the five-variable program for one setting.

    The feasible set is x ∈ [0, 1], 0 ≤ d ≤ 2(1 − x), 0 ≤ dbig ≤ d and
    m ∈ [0, 1] (m = 0 when the setting does not free it), with s = 2 − x − d.
    Write the objective as f = (1 − αs)·B, with q = (1 − 2α)².  For a fixed
    s ∈ [0, 2], d ranges over [max(0, 2 − 2s), 2 − s] and x = 2 − s − d.

    * The factor 1 − αs ≥ 0 depends on s alone, so it is enough to minimize B.
    * B is linear in dbig with slope (1 − m)(c1α/2 − c2q).  So dbig* = 0 when
      the slope is ≥ 0 and dbig* = d otherwise, which leaves
      B = c0 + c1s + c1αm² + (1 − m)κd with κ = min(c2q, c1α/2) ≥ 0.
    * That B is nondecreasing in d for every m, so d* = max(0, 2 − 2s) and
      x* = min(s, 2 − s).
    * B is convex in m.  When m is free, m* = κd/(2c1α) ≤ d/4 ≤ 1/2, since
      κ ≤ c1α/2, so the clip to [0, 1] never binds.  If c1α = 0 then κ = 0,
      every m ties, and m* = 0.

    What is left is f(s), a polynomial of degree ≤ 3 on each of [0, 1] and
    [1, 2] (where d* = m* = 0).  Its minimum lies at a piece end s ∈ {0, 1, 2}
    or at a real root of a piece's derivative inside that piece.  The
    objective is evaluated at every candidate's reduced point, and the
    smallest value wins, at the smallest s on a tie.
    """
    c0, c1, c2, free_m = _constants(setting)
    if setting in ("general", "bipartite") and not (0.12 <= alpha <= 0.5):
        raise ValueError(
            f"{setting}: alpha must lie in [0.12, 0.5] (the bound derivation's "
            f"sign conditions), got {alpha}"
        )
    if not (0.0 <= alpha <= 0.5):
        raise ValueError(f"alpha must lie in [0, 0.5], got {alpha}")

    q = (1.0 - 2.0 * alpha) ** 2
    ca = c1 * alpha
    kappa = min(c2 * q, ca / 2.0)
    k = kappa / (2.0 * ca) if free_m and ca > 0.0 else 0.0  # m* = k·d*

    S = np.polynomial.Polynomial([0.0, 1.0])
    d1 = 2.0 - 2.0 * S
    pieces = (
        (c0 + c1 * S + ca * (k * d1) ** 2 + (1.0 - k * d1) * kappa * d1, 0.0, 1.0),
        (c0 + c1 * S, 1.0, 2.0),
    )
    cands = [0.0, 1.0, 2.0]
    for b, lo, hi in pieces:
        roots = ((1.0 - alpha * S) * b).deriv().roots()
        cands += [float(r.real) for r in roots if r.imag == 0.0 and lo <= r.real <= hi]
    s = np.array(sorted(cands))
    d = np.maximum(0.0, 2.0 - 2.0 * s)
    x = np.minimum(s, 2.0 - s)
    dbig = d if ca / 2.0 < c2 * q else np.zeros_like(d)
    vals = _objective_arrays(setting, alpha, x, d, dbig, k * d)
    i = int(np.argmin(vals))  # the first minimum has the smallest s
    x_, d_ = float(x[i]), float(d[i])

    return BoundCertificate(
        setting=setting,
        alpha=alpha,
        minimizer=(2.0 - x_ - d_, d_, float(dbig[i]), x_, float(k * d[i])),
        minimum=float(vals[i]),
        sign_conditions={
            "neighbor_slack_coefficient": ca - c2 * q,
            "neighbor_mass_squared_coefficient": ca - 2.0 * c2 * q,
        },
    )


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


# Grid rows computed at once: 16 rows of 2001 nodes are 256 KiB per
# integrand, so a block's five scratch rows (1.3 MB) stay in a 2 MB L2
# between its steps, and a 16-row gemv runs on one BLAS thread.
_BLOCK_ROWS = 16


def _x_rows(x, y, scratch):
    """Yield (rows, z, g22, g2) for each block of `_BLOCK_ROWS` x-grid rows
    from the start of `x`: the integrands over y of the z kernel
    e^{-2y+yx}·((1 − e^{-yx})/x − (1 − e^{-y(x+2)})/(x+2)) and the r1 floors
    e^{-4y+yx}·h1(y,x)·(1+y)² and e^{-3y+yx}·h1(y,x)·(1+y) on x[rows].

    Each block is filled in place into `scratch`, a (5, `_BLOCK_ROWS`, len(y))
    array that the next block overwrites.  A block shares −y·x, e^{-yx} − 1
    and the quotient (1 − e^{-yx})/x, which is h1's first term over 4.
    Every value is bit-identical to evaluating each integrand on its own: the
    rewrites are sign flips and a scaling by 4, which round the same, and
    each `out=` step is the operation, in the operand order, of the plain
    expression.
    """
    one_y = 1.0 + y
    sq = one_y**2
    m2y, m3y, m4y = -2.0 * y, -3.0 * y, -4.0 * y
    for i in range(0, len(x), _BLOCK_ROWS):
        rows = slice(i, i + _BLOCK_ROWS)
        xb = x[rows, None]
        z, g22, g2, nyx, q = scratch[:, : len(xb)]
        np.multiply(y, -xb, out=nyx)
        np.expm1(nyx, out=q)
        np.divide(q, -np.where(xb > 0.0, xb, 1.0), out=q)
        q[xb[:, 0] == 0.0] = y  # its limit at x = 0
        nc = -(xb + 2.0)
        np.multiply(y, nc, out=g22)  # g22 and g2 hold temporaries until filled
        np.expm1(g22, out=g22)
        np.divide(g22, nc, out=g22)
        np.subtract(q, g22, out=g22)
        np.subtract(m2y, nyx, out=z)
        np.exp(z, out=z)
        np.multiply(z, g22, out=z)
        h1v = _h1_terms(y, xb, np.multiply(q, 4.0, out=q), g22, g2)
        for out, my, factor in ((g22, m4y, sq), (g2, m3y, one_y)):
            np.subtract(my, nyx, out=out)
            np.exp(out, out=out)
            np.multiply(out, h1v, out=out)
            np.multiply(out, factor, out=out)
        yield rows, z, g22, g2


def _k_rows(k, y, scratch):
    """Yield (rows, f22, f2) for each block of `_BLOCK_ROWS` k-grid rows from
    the start of `k`: the r0-floor integrands over y, e^{-y(4-k)}·(1+y)² and
    e^{-y(3-k)}·(1+y) on k[rows], filled in place into `scratch` as in
    `_x_rows`."""
    ny = -y
    one_y = 1.0 + y
    sq = one_y**2
    for i in range(0, len(k), _BLOCK_ROWS):
        rows = slice(i, i + _BLOCK_ROWS)
        kb = k[rows, None]
        f22, f2 = scratch[:2, : len(kb)]
        for out, top, factor in ((f22, 4.0, sq), (f2, 3.0, one_y)):
            np.multiply(ny, top - kb, out=out)
            np.exp(out, out=out)
            np.multiply(out, factor, out=out)
        yield rows, f22, f2


def verify_facts() -> list[FactCheck]:
    """Check every inequality the bound derivations rely on, on dense grids.

    Each row reports the worst-case margin over its grid; every margin must be
    nonnegative for the certification chain to stand.

    The five integral floors are the bulk of the work: a Simpson integral
    over y at each point of a 10,001-point grid.  Two fused passes fill
    their integrands in blocks of `_BLOCK_ROWS` grid rows, one over the
    x-grid for the z kernel and both r1 floors (`_x_rows`), one over the
    k-grid for both r0 floors (`_k_rows`), into one (5, 16, 2001) scratch
    array, and each block is summed (one gemv per integrand) before the next
    is filled; the battery's memory is that 1.3 MB and a few small
    temporaries.  Every integrand value has the bits it has when evaluated
    on its own.
    """
    rows: list[FactCheck] = []

    def add(fact_id: str, margin: float) -> None:
        rows.append(FactCheck(fact_id=fact_id, holds=bool(margin >= 0.0), margin=float(margin)))

    # -- coupling inequality: x(1−e^{−a}) ≤ 1−e^{−ax} on [0,1]² ---------------
    a = np.linspace(0.0, 1.0, 101)[:, None]
    xg = np.linspace(0.0, 1.0, 101)[None, :]
    add("coupling_concavity", float(np.min(-np.expm1(-a * xg) - xg * -np.expm1(-a))))

    # -- product vs complement: ∏(1−R_i) ≥ 1 − ΣR_i on [0.01, 0.99]ⁿ, n = 2..8
    # f = ∏(1−R_i) − (1 − ΣR_i) has ∂f/∂R_j = 1 − ∏_{i≠j}(1−R_i) ≥ 0, and a
    # further term R adds R·(1 − ∏(1−R_i)) ≥ 0, so f is least at n = 2 and
    # R = (0.01, 0.01)
    r = np.array([0.01, 0.01])
    add("union_bound_product", float(np.prod(1.0 - r) - (1.0 - r.sum())))

    # -- linear underestimate: h(2−x) ≥ c0 + c1·x on [0,2] (c0 = h(2)) -------
    c0, c1, _, _ = FIVE_VAR_SETTINGS["general"]
    xs = np.linspace(0.0, 2.0, 20_001)
    add("h_linear_underestimate", float(np.min(h(2.0 - xs) - (c0 + c1 * xs))))

    # -- integral floors on the x- and k-grids -------------------------------
    # Over x ∈ [0,1]: the light-neighbor kernel z(x) ≥ 0.055, and the r1
    # floors ∫e^{-4y+yx}h1(y,x)(1+y)² ≥ 0.181 and ∫e^{-3y+yx}h1(y,x)(1+y) ≥
    # 0.209.  Over k ∈ [0,2]: the r0 floors c0 + c1·k with the patience and
    # one-sided constants.  Each grid keeps its 20-chunk split, and the
    # blocks start at each chunk's start: BLAS rounds a gemv row sum
    # according to the shape of the call (40 chunks moved 93 of the 10,001
    # patience r0 sums), so the chunk and block shapes fix every margin's
    # bits.  A 16-row gemv runs on one thread, so the sums do not depend on
    # how many threads BLAS may use either.
    pc0, pc1, _, _ = FIVE_VAR_SETTINGS["patience_general"]
    oc0, oc1, _, _ = FIVE_VAR_SETTINGS["patience_one_sided"]
    y = np.linspace(0.0, 1.0, 2001)
    wy = _simpson_weights(2001, 0.0, 1.0)
    scratch = np.empty((5, _BLOCK_ROWS, y.size))
    zmin = g22_m = g2_m = np.inf
    for xc in np.array_split(np.linspace(0.0, 1.0, 10_001), 20):
        for _, z, g22, g2 in _x_rows(xc, y, scratch):
            zmin = min(zmin, float(np.min(z @ wy)))
            g22_m = min(g22_m, float(np.min(g22 @ wy)))
            g2_m = min(g2_m, float(np.min(g2 @ wy)))
    f22_m = f2_m = np.inf
    for kc in np.array_split(np.linspace(0.0, 2.0, 10_001), 20):
        for blk, f22, f2 in _k_rows(kc, y, scratch):
            kb = kc[blk]
            f22_m = min(f22_m, float(np.min(f22 @ wy - (pc0 + pc1 * kb))))
            f2_m = min(f2_m, float(np.min(f2 @ wy - (oc0 + oc1 * kb))))
    add("z_kernel_floor", zmin - 0.055)
    add("patience_r0_floor_at_2", f22_m)
    add("one_sided_r0_floor_at_2", f2_m)
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
        # the weighted rows serve both forms: the pair matrix and the single sums
        weighted = phis * (np.exp(-y * (2.0 - kk)) * wy)
        worst_pair = min(worst_pair, float((weighted @ phis.T).min() - (pc0 + pc1 * kk)))
        worst_single = min(worst_single, float(weighted.sum(axis=1).min() - (oc0 + oc1 * kk)))
    add("patience_r0_floor_all_ell", worst_pair)
    add("one_sided_r0_floor_all_ell", worst_single)

    return rows
