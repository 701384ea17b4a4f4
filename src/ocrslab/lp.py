"""The pricing relaxation: LP construction, a simplex solver on a compact
tableau, and the menu-thinning reductions.

The LP has one variable y_ew per menu entry and maximizes the expected
objective of making offer (e, w) at rate y_ew:

    max  Σ_ew  y_ew · coeff_ew
    s.t. Σ_w   y_ew           ≤ 1     for every edge         (offer budget)
         Σ_e∋v Σ_w y_ew·p_ew  ≤ 1     for every vertex       (matching capacity)
         Σ_e∋v Σ_w y_ew       ≤ ℓ_v   for finite-patience v  (offer capacity)
         y ≥ 0

With the revenue objective coeff_ew = p_ew·(v_j − w) where v_j is the value of
the edge's job endpoint; the custom objective takes coeff_ew = c_ew from the
menu (which also covers welfare-style objectives).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .graphcore import Edge, FractionalPoint, PricingInstance, Vertex, marginals

__all__ = [
    "LinearProgram",
    "LpSolution",
    "PIVOT_TOL",
    "build_lp_pricing",
    "solve_lp",
    "marginals",
    "two_weight_reduction",
    "single_weight_selection",
    "job_endpoint",
    "objective_coefficients",
    "auto_objective",
]

PIVOT_TOL = 1e-10


@dataclass(frozen=True)
class LinearProgram:
    """max c·y  s.t.  A y ≤ b,  y ≥ 0."""

    c: np.ndarray  # (n,)
    A: np.ndarray  # (m, n) dense
    b: np.ndarray  # (m,)
    var_keys: tuple[tuple[str, float], ...]  # (edge id, price) per column


@dataclass(frozen=True)
class LpSolution:
    point: FractionalPoint
    objective: float


def job_endpoint(inst: PricingInstance, edge: Edge) -> Vertex:
    """The unique endpoint carrying a job value; error if absent or ambiguous."""
    u, v = inst.vertex_by_id[edge.u], inst.vertex_by_id[edge.v]
    with_value = [w for w in (u, v) if w.value is not None]
    if len(with_value) != 1:
        raise ValueError(
            f"edge {edge.id}: revenue objective needs exactly one valued endpoint, "
            f"found {len(with_value)}"
        )
    return with_value[0]


def objective_coefficients(inst: PricingInstance, objective: str) -> dict[str, list[float]]:
    """Per-edge objective coefficient of each menu entry."""
    if objective not in ("revenue", "custom"):
        raise ValueError(f"objective must be 'revenue' or 'custom', got {objective!r}")
    out: dict[str, list[float]] = {}
    for e in inst.edges:
        if objective == "revenue":
            vj = job_endpoint(inst, e).value
            out[e.id] = [entry.p * (vj - entry.w) for entry in e.menu]
        else:
            for k, entry in enumerate(e.menu):
                if entry.c is None:
                    raise ValueError(f"edge {e.id} menu[{k}]: custom objective needs c")
            out[e.id] = [entry.c for entry in e.menu]
    return out


def auto_objective(inst: PricingInstance) -> str:
    """"custom" when every menu entry carries a coefficient c, else "revenue"."""
    every_c = all(entry.c is not None for e in inst.edges for entry in e.menu)
    return "custom" if every_c else "revenue"


def build_lp_pricing(inst: PricingInstance, objective: str = "revenue") -> LinearProgram:
    coeffs = objective_coefficients(inst, objective)
    # one column per menu entry, in edge and menu order
    cols = [(i, e, k) for i, e in enumerate(inst.edges) for k in range(len(e.menu))]
    n, n_e, n_v = len(cols), len(inst.edges), len(inst.vertices)
    col = np.arange(n)
    edge = np.array([i for i, _, _ in cols], dtype=np.intp)
    p = np.array([e.menu[k].p for _, e, k in cols])
    patient = [v for v in inst.vertices if v.patience is not None]
    # rows: offer budget per edge, matching capacity per vertex, offer
    # capacity per finite-patience vertex (-1: no such row)
    patience_row = np.full(n_v, -1, dtype=np.intp)
    patience_row[[inst.vertex_pos[v.id] for v in patient]] = n_e + n_v + np.arange(len(patient))
    A = np.zeros((n_e + n_v + len(patient), n))
    A[edge, col] = 1.0
    for side in ("u", "v"):
        end = np.array([inst.vertex_pos[getattr(e, side)] for _, e, _ in cols], dtype=np.intp)
        np.add.at(A, (n_e + end, col), p)
        has = patience_row[end] >= 0
        np.add.at(A, (patience_row[end][has], col[has]), 1.0)
    b = [1.0] * (n_e + n_v) + [float(v.patience) for v in patient]
    return LinearProgram(
        c=np.array([coeffs[e.id][k] for _, e, k in cols]),
        A=A,
        b=np.array(b),
        var_keys=tuple((e.id, e.menu[k].w) for _, e, k in cols),
    )


def _simplex_max(A: np.ndarray, b: np.ndarray, c: np.ndarray):
    """Primal simplex on max c·x, Ax ≤ b, x ≥ 0, with b ≥ 0 (slack start).

    Bland's rule on both the entering and the leaving choice, so the walk
    terminates even on degenerate vertices.  The tableau is the compact
    (dictionary) form: (m+1)×(n+1), one column per nonbasic variable plus the
    rhs, with the variable of each column and of each row named by a label.
    A basic column of the full (m+1)×(n+m+1) tableau stays a unit vector and
    its update is a no-op, so it is left out.  Each pivot is one unmasked
    rank-1 update into a buffer allocated once per solve.  The tableau holds
    no −0.0, so the zero products of rows the pivot leaves alone change no
    entry: x and the pivot at which an overflow is raised are the full
    tableau's, bit for bit.  `einsum` reports no overflow, so the product of
    the two factors' largest magnitudes is checked first; it is inf exactly
    when some product overflows.  The objective is c·x summed by `math.fsum`,
    correctly rounded, so it does not depend on the BLAS kernel.  Returns
    (x, objective).  Every failure raises ValueError: a negative b or a
    non-finite coefficient, a pivot or objective that overflows, and a walk
    that ends unbounded, at the iteration limit, short of optimal or
    infeasible.
    """
    # menu values may be integers too wide for int64, which make object arrays
    A, b, c = (np.asarray(v, dtype=float) for v in (A, b, c))
    if not (np.isfinite(A).all() and np.isfinite(b).all() and np.isfinite(c).all()):
        raise ValueError("simplex: non-finite coefficient")
    if np.any(b < 0):
        raise ValueError("simplex start requires b ≥ 0")
    try:
        with np.errstate(over="raise", invalid="raise"):
            return _bland_pivots(A, b, c)
    except (FloatingPointError, OverflowError) as exc:
        raise ValueError(f"simplex: {exc} (coefficients too large)") from None


def _bland_pivots(A: np.ndarray, b: np.ndarray, c: np.ndarray):
    m, n = A.shape
    # compact tableau: one column per nonbasic variable, then the rhs.  The
    # variables are 0..n-1 structural and n..n+m-1 slack; label[j] names the
    # variable of column j and basis[i] the variable basic in row i.
    # No entry is −0.0: `+ 0.0` and `0.0 -` turn a signed zero into +0.0, and
    # no pivot makes one (a difference is −0.0 only when its first operand
    # is, the pivot row is divided by piv > PIVOT_TOL, and every assignment
    # writes +0.0 or a nonzero), short of a division that underflows a
    # negative subnormal.  So the zero products of the rank-1 update, of either sign,
    # change no entry, and rows whose entering entry is zero need no mask.
    T = np.zeros((m + 1, n + 1))
    T[:m, :n] = A + 0.0
    T[:m, -1] = b + 0.0
    T[m, :n] = 0.0 - c
    label = np.arange(n)
    basis = np.arange(n, n + m)
    buf = np.empty_like(T)

    max_iter = 50 * (m + n + 10)
    for _ in range(max_iter):
        improving = np.flatnonzero(T[m, :n] < -PIVOT_TOL)
        if improving.size == 0:
            break
        # Bland: the improving variable with the smallest label
        entering = improving[np.argmin(label[improving])]
        col = T[:m, entering]
        eligible = np.flatnonzero(col > PIVOT_TOL)
        if eligible.size == 0:
            raise ValueError("simplex: unbounded direction (malformed program)")
        # Bland: among the (near-)minimum ratios, the smallest basic variable
        ratio = T[eligible, -1] / col[eligible]
        tied = eligible[ratio <= ratio.min() + 1e-15]
        leave = tied[np.argmin(basis[tied])]
        piv = T[leave, entering]
        T[leave] /= piv
        # column `entering` becomes the leaving variable's: its full-tableau
        # column is a unit vector at the pivot row, which the pivot turns into
        # 1.0/piv there and 0.0 - a·(1.0/piv) on every other row
        a = T[:, entering].copy()
        a[leave] = 0.0
        T[:, entering] = 0.0
        T[leave, entering] = 1.0 / piv
        # einsum reports no overflow, and the largest product is the maxima's
        if math.isinf(float(np.abs(a).max()) * float(np.abs(T[leave]).max())):
            raise FloatingPointError("overflow encountered in multiply")
        np.einsum("i,j->ij", a, T[leave], out=buf)
        T -= buf
        label[entering], basis[leave] = basis[leave], label[entering]
    else:
        raise ValueError("simplex: iteration limit hit (malformed program)")

    x = np.zeros(n + m)
    x[basis] = T[:m, -1]
    sol = x[:n]

    # optimality + feasibility certificate; a basic column's reduced cost is 0
    if np.any(T[m, :n] < -10 * PIVOT_TOL):
        raise ValueError("simplex: left with an improving pivot")
    if np.any(sol < -1e-9) or np.any(A @ sol > b + 1e-9):
        raise ValueError("simplex: infeasible output")
    return sol, math.fsum(c * sol)


def solve_lp(lp: LinearProgram) -> LpSolution:
    """The optimal menu point and its objective: c·y of the returned point,
    after the drift guard, summed by `math.fsum`."""
    sol, _ = _simplex_max(lp.A, lp.b, lp.c)
    # drift guard: a clean pivot sequence keeps entries in [-1e-12, 1+1e-12];
    # max keeps its first argument on a tie, so -0.0 becomes 0.0 too
    y = [max(0.0, float(val)) for val in sol]
    point = FractionalPoint(y=dict(zip(lp.var_keys, y)))
    return LpSolution(point=point, objective=math.fsum(lp.c * y))


def two_weight_reduction(
    point: FractionalPoint, inst: PricingInstance, objective: str = "revenue"
) -> FractionalPoint:
    """Thin each edge's offer distribution to at most two prices.

    Per edge, re-optimizes the restricted program
        max Σ_w y'_ew·coeff_ew   s.t.  Σ_w y'_ew ≤ 1,  Σ_w y'_ew·p_ew ≤ x_e
    whose extreme points carry at most two nonzero prices (two rows).  The
    original restriction of y is feasible for it, so the objective never
    drops, and the marginal cap keeps every x_e from growing.  Intended for
    instances without patience limits: the unit budget may exceed the
    original per-vertex offer load when patience rows were binding.
    """
    coeffs = objective_coefficients(inst, objective)
    x, _, _ = marginals(point, inst)

    new_y: dict[tuple[str, float], float] = {}
    for e in inst.edges:
        cur = [point.y.get((e.id, entry.w), 0.0) for entry in e.menu]
        if sum(1 for v in cur if v > PIVOT_TOL) <= 2:
            kept = cur
        else:
            A = np.array([[1.0] * len(e.menu), [entry.p for entry in e.menu]])
            b = np.array([1.0, x[e.id]])
            kept, _ = _simplex_max(A, b, np.array(coeffs[e.id]))
            kept = [0.0 if v < PIVOT_TOL else float(v) for v in kept]
        for entry, val in zip(e.menu, kept):
            new_y[(e.id, entry.w)] = val
    return FractionalPoint(y=new_y)


def single_weight_selection(
    point: FractionalPoint, inst: PricingInstance, objective: str = "revenue"
) -> FractionalPoint:
    """Keep, per edge, only the price with the largest objective contribution.

    Requires per-edge support ≤ 2 (run two_weight_reduction first).  The kept
    contribution is the max of at most two nonnegative terms, hence at least
    half their sum — the reduction loses no more than half the objective.
    """
    coeffs = objective_coefficients(inst, objective)

    new_y: dict[tuple[str, float], float] = {}
    for e in inst.edges:
        cur = [point.y.get((e.id, entry.w), 0.0) for entry in e.menu]
        support = [k for k, v in enumerate(cur) if v > PIVOT_TOL]
        if len(support) > 2:
            raise ValueError(
                f"edge {e.id}: support {len(support)} > 2; apply two_weight_reduction first"
            )
        best, best_contrib = None, -np.inf
        for k in support:
            contrib = cur[k] * coeffs[e.id][k]
            if contrib > best_contrib:
                best, best_contrib = k, contrib
        for k, entry in enumerate(e.menu):
            new_y[(e.id, entry.w)] = cur[k] if k == best else 0.0
    return FractionalPoint(y=new_y)
