"""The pricing relaxation: LP construction, a dense simplex solver, marginal
extraction, and the menu-thinning reductions.

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

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .graphcore import (
    Edge,
    FractionalPoint,
    PricingInstance,
    Vertex,
    fractional_point_violations,
)

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
    var_p: tuple[float, ...]  # acceptance probability per column


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
    var_keys: list[tuple[str, float]] = []
    var_p: list[float] = []
    col_of: dict[tuple[str, int], int] = {}
    c: list[float] = []
    for e in inst.edges:
        for k, entry in enumerate(e.menu):
            col_of[(e.id, k)] = len(var_keys)
            var_keys.append((e.id, entry.w))
            var_p.append(entry.p)
            c.append(coeffs[e.id][k])

    n = len(var_keys)
    rows: list[np.ndarray] = []
    b: list[float] = []

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

    return LinearProgram(
        c=np.array(c),
        A=np.vstack(rows) if rows else np.zeros((0, n)),
        b=np.array(b),
        var_keys=tuple(var_keys),
        var_p=tuple(var_p),
    )


def _simplex_max(A: np.ndarray, b: np.ndarray, c: np.ndarray, tol: float = PIVOT_TOL):
    """Primal simplex on max c·x, Ax ≤ b, x ≥ 0, with b ≥ 0 (slack start).

    Bland's rule on both the entering and the leaving choice, so the walk
    terminates even on degenerate vertices.  Returns (x, objective).
    """
    m, n = A.shape
    if np.any(b < 0):
        raise ValueError("simplex start requires b ≥ 0")
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
            raise RuntimeError("simplex: unbounded direction (malformed program)")
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
        raise RuntimeError("simplex: iteration limit hit (malformed program)")

    x = np.zeros(n + m)
    x[basis] = T[:m, -1]
    sol = x[:n]

    # optimality + feasibility certificate
    if np.any(T[m, : n + m] < -10 * tol):
        raise RuntimeError("simplex: left with an improving pivot")
    if np.any(sol < -1e-9) or np.any(A @ sol > b + 1e-9):
        raise RuntimeError("simplex: infeasible output")
    return sol, float(c @ sol)


def solve_lp(lp: LinearProgram) -> LpSolution:
    sol, obj = _simplex_max(lp.A, lp.b, lp.c)
    y: dict[tuple[str, float], float] = {}
    x: dict[str, float] = {}
    for key, p, val in zip(lp.var_keys, lp.var_p, sol):
        y[key] = y.get(key, 0.0) + float(val)
        x[key[0]] = x.get(key[0], 0.0) + float(val) * p
    # drift guard: a clean pivot sequence keeps entries in [-1e-12, 1+1e-12]
    y = {k: (0.0 if v < 0.0 else v) for k, v in y.items()}
    x = {k: (0.0 if v < 0.0 else v) for k, v in x.items()}
    return LpSolution(point=FractionalPoint(y=y, x=x), objective=obj)


def marginals(
    y: FractionalPoint | Mapping[tuple[str, float], float], inst: PricingInstance
) -> tuple[dict[str, float], dict[str, float], dict[str, float]]:
    """(x_e, y_e, p_e) per edge: x_e = Σ_w y_ew·p_ew, y_e = Σ_w y_ew,
    p_e = x_e / y_e (0 when the edge is never offered)."""
    ymap = y.y if isinstance(y, FractionalPoint) else y
    x: dict[str, float] = {}
    y_e: dict[str, float] = {}
    for e in inst.edges:
        xe = ye = 0.0
        for entry in e.menu:
            val = ymap.get((e.id, entry.w), 0.0)
            ye += val
            xe += val * entry.p
        x[e.id] = xe
        y_e[e.id] = ye
    p_e = {eid: (x[eid] / y_e[eid] if y_e[eid] > 0.0 else 0.0) for eid in x}
    return x, y_e, p_e


def two_weight_reduction(
    y: FractionalPoint | Mapping[tuple[str, float], float],
    inst: PricingInstance,
    objective: str = "revenue",
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
    ymap = y.y if isinstance(y, FractionalPoint) else dict(y)
    coeffs = objective_coefficients(inst, objective)
    x, _, _ = marginals(ymap, inst)

    new_y: dict[tuple[str, float], float] = {}
    new_x: dict[str, float] = {}
    for e in inst.edges:
        cur = [ymap.get((e.id, entry.w), 0.0) for entry in e.menu]
        if sum(1 for v in cur if v > PIVOT_TOL) <= 2:
            kept = cur
        else:
            A = np.array([[1.0] * len(e.menu), [entry.p for entry in e.menu]])
            b = np.array([1.0, x[e.id]])
            kept, _ = _simplex_max(A, b, np.array(coeffs[e.id]))
            kept = [0.0 if v < PIVOT_TOL else float(v) for v in kept]
        xe = 0.0
        for entry, val in zip(e.menu, kept):
            new_y[(e.id, entry.w)] = val
            xe += val * entry.p
        new_x[e.id] = xe
    return FractionalPoint(y=new_y, x=new_x)


def single_weight_selection(
    y: FractionalPoint | Mapping[tuple[str, float], float],
    inst: PricingInstance,
    objective: str = "revenue",
) -> FractionalPoint:
    """Keep, per edge, only the price with the largest objective contribution.

    Requires per-edge support ≤ 2 (run two_weight_reduction first).  The kept
    contribution is the max of at most two nonnegative terms, hence at least
    half their sum — the reduction loses no more than half the objective.
    """
    ymap = y.y if isinstance(y, FractionalPoint) else dict(y)
    coeffs = objective_coefficients(inst, objective)

    new_y: dict[tuple[str, float], float] = {}
    new_x: dict[str, float] = {}
    for e in inst.edges:
        cur = [ymap.get((e.id, entry.w), 0.0) for entry in e.menu]
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
        xe = 0.0
        for k, entry in enumerate(e.menu):
            val = cur[k] if k == best else 0.0
            new_y[(e.id, entry.w)] = val
            xe += val * entry.p
        new_x[e.id] = xe
    return FractionalPoint(y=new_y, x=new_x)
