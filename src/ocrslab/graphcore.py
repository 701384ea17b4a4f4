"""Instance model: graphs whose edges carry price menus, plus the fractional
matching polytope, per-edge neighborhood statistics, and instance generators.

An instance is a (multi)graph G = (V, E).  Each edge e = (u, v) carries a
finite weight menu: offers (w, p_ew) meaning "at price w, the pair accepts
with probability p_ew", optionally with an explicit objective coefficient
c_ew.  Vertices may carry a side tag (offline/online), a job value v_j, and a
patience budget ℓ_v (None = unbounded).

The polytope P(G) = {x ≥ 0 : Σ_{e∋v} x_e ≤ 1 ∀v} is the home of every
fractional point the schemes consume.  A menu point stores only its offer
rates y_ew; ``marginals`` derives its x_e = Σ_w y_ew·p_ew.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Mapping, NamedTuple

import numpy as np

__all__ = [
    "MenuEntry",
    "Vertex",
    "Edge",
    "PricingInstance",
    "FractionalPoint",
    "EdgeStats",
    "PolytopeCheck",
    "GeneratedInstance",
    "MODES",
    "POLYTOPE_TOL",
    "validate_instance",
    "check_polytope",
    "fractional_point_violations",
    "marginals",
    "edge_stats",
    "generate_family",
    "FAMILIES",
]

MODES = ("general", "bipartite", "bipartite-one-sided-patience", "vertex-arrival")
_BIPARTITE_MODES = ("bipartite", "bipartite-one-sided-patience", "vertex-arrival")

POLYTOPE_TOL = 1e-9


@dataclass(frozen=True)
class MenuEntry:
    """One take-it-or-leave-it offer: price w, acceptance probability p."""

    w: float
    p: float
    c: float | None = None  # optional objective coefficient


@dataclass(frozen=True)
class Vertex:
    id: str
    side: str | None = None  # "offline" | "online" | None
    value: float | None = None  # job value, if this vertex is a job
    patience: int | None = None  # None = unbounded


@dataclass(frozen=True)
class Edge:
    id: str
    u: str
    v: str
    menu: tuple[MenuEntry, ...]


@dataclass(frozen=True)
class PricingInstance:
    vertices: tuple[Vertex, ...]
    edges: tuple[Edge, ...]
    mode: str = "general"

    @cached_property
    def vertex_by_id(self) -> dict[str, Vertex]:
        return {v.id: v for v in self.vertices}

    @cached_property
    def edge_by_id(self) -> dict[str, Edge]:
        return {e.id: e for e in self.edges}

    @cached_property
    def vertex_pos(self) -> dict[str, int]:
        return {v.id: i for i, v in enumerate(self.vertices)}

    @cached_property
    def incident(self) -> dict[str, tuple[int, ...]]:
        """vertex id → positions of incident edges, in edge order."""
        inc: dict[str, list[int]] = {v.id: [] for v in self.vertices}
        for i, e in enumerate(self.edges):
            if e.u in inc:
                inc[e.u].append(i)
            if e.v in inc:
                inc[e.v].append(i)
        return {k: tuple(v) for k, v in inc.items()}

    @cached_property
    def neighbors(self) -> tuple[np.ndarray, ...]:
        """edge position → sorted positions of the edges sharing an endpoint
        with it (itself excluded, a parallel edge counted once)."""
        out = []
        for i, e in enumerate(self.edges):
            nb = set(self.incident[e.u]) | set(self.incident[e.v])
            nb.discard(i)
            out.append(np.array(sorted(nb), dtype=np.intp))
        return tuple(out)


@dataclass(frozen=True)
class FractionalPoint:
    """A point of the pricing relaxation: y maps (edge id, price) to the rate
    at which that offer is made.  Everything else derives from y through
    ``marginals``."""

    y: dict[tuple[str, float], float]


def marginals(
    point: FractionalPoint, inst: PricingInstance
) -> tuple[dict[str, float], dict[str, float], dict[str, float]]:
    """(x_e, y_e, p_e) per edge: x_e = Σ_w y_ew·p_ew, the mass with which e
    joins the matching in the fractional view; y_e = Σ_w y_ew; p_e = x_e / y_e
    (0 when the edge is never offered)."""
    x: dict[str, float] = {}
    y_e: dict[str, float] = {}
    for e in inst.edges:
        xe = ye = 0.0
        for entry in e.menu:
            val = point.y.get((e.id, entry.w), 0.0)
            ye += val
            xe += val * entry.p
        x[e.id] = xe
        y_e[e.id] = ye
    p_e = {eid: (x[eid] / y_e[eid] if y_e[eid] > 0.0 else 0.0) for eid in x}
    return x, y_e, p_e


def fractional_point_violations(
    fp: FractionalPoint, inst: PricingInstance, tol: float = POLYTOPE_TOL
) -> list[str]:
    """Check the pricing-relaxation constraints at tolerance tol.

    Every y entry names a menu offer and is nonnegative; offer budget
    Σ_w y_ew ≤ 1 per edge; marginal load Σ_{e∋v} x_e ≤ 1 and offer load
    Σ_{e∋v} Σ_w y_ew ≤ ℓ_v per vertex (finite ℓ_v only), with x and the
    offer sums derived from y by ``marginals``.
    """
    bad: list[str] = []
    for (eid, w), val in fp.y.items():
        edge = inst.edge_by_id.get(eid)
        if edge is None:
            bad.append(f"y[{eid},{w}]: unknown edge id")
        elif all(entry.w != w for entry in edge.menu):
            bad.append(f"y[{eid},{w}]: price not on the edge's menu")
        elif val < -tol:
            bad.append(f"y[{eid},{w}]: negative entry {val}")
    x, y_e, _ = marginals(fp, inst)
    for eid, tot in y_e.items():
        if tot > 1.0 + tol:
            bad.append(f"edge {eid}: offer budget {tot} exceeds 1")
    for v in inst.vertices:
        inc = [inst.edges[i].id for i in inst.incident[v.id]]
        load = sum(x[eid] for eid in inc)
        if load > 1.0 + tol:
            bad.append(f"vertex {v.id}: marginal load {load} exceeds 1")
        if v.patience is not None:
            offers = sum(y_e[eid] for eid in inc)
            if offers > v.patience + tol:
                bad.append(f"vertex {v.id}: offer load {offers} exceeds patience {v.patience}")
    return bad


@dataclass(frozen=True)
class EdgeStats:
    """Neighborhood statistics of one edge under a fractional point x.

    d: mass Σ_{f ∈ N_e} x_f on edges sharing an endpoint with e.
    s: slack 2 − d − x_e (in the polytope, s ≥ x_e ≥ 0).
    m: max x_f over neighbors f that close a triangle with e (0 if none).
    neighbors: ids of the edges in N_e.
    neighbor_xs: per neighbor (x_f, s_f), aligned with `neighbors`.
    """

    d: float
    s: float
    m: float
    neighbors: tuple[str, ...]
    neighbor_xs: tuple[tuple[float, float], ...]


class PolytopeCheck(NamedTuple):
    ok: bool
    worst: str | None  # vertex/edge id of the worst violation, None if ok
    excess: float  # size of the worst violation (0.0 if none)


@dataclass(frozen=True)
class GeneratedInstance:
    instance: PricingInstance
    x: dict[str, float] | None  # embedded polytope point, when the family has one


# ---------------------------------------------------------------------------
# validation


def validate_instance(inst: PricingInstance) -> list[str]:
    """Every invariant violation, as human-readable strings. Empty = valid."""
    bad: list[str] = []
    if inst.mode not in MODES:
        bad.append(f"mode: unknown mode {inst.mode!r}")

    seen_v: set[str] = set()
    for v in inst.vertices:
        if v.id in seen_v:
            bad.append(f"vertex {v.id}: duplicate id")
        seen_v.add(v.id)
        if v.side not in (None, "offline", "online"):
            bad.append(f"vertex {v.id}: unknown side tag {v.side!r}")
        if v.value is not None and not (v.value >= 0):
            bad.append(f"vertex {v.id}: negative value {v.value}")
        if v.patience is not None and (not isinstance(v.patience, int) or v.patience < 1):
            bad.append(f"vertex {v.id}: patience must be a positive integer or unbounded")

    by_id = {v.id: v for v in inst.vertices}
    seen_e: set[str] = set()
    for e in inst.edges:
        if e.id in seen_e:
            bad.append(f"edge {e.id}: duplicate id")
        seen_e.add(e.id)
        if e.u not in by_id or e.v not in by_id:
            bad.append(f"edge {e.id}: endpoint not in vertex set")
            continue
        if e.u == e.v:
            bad.append(f"edge {e.id}: self-loop")
        if inst.mode in _BIPARTITE_MODES:
            su, sv = by_id[e.u].side, by_id[e.v].side
            if {su, sv} != {"offline", "online"}:
                bad.append(f"edge {e.id}: endpoints must lie on opposite sides, got {su}/{sv}")
        if not e.menu:
            bad.append(f"edge {e.id}: empty weight menu")
        weights = set()
        for k, entry in enumerate(e.menu):
            if not (0.0 <= entry.p <= 1.0):
                bad.append(f"edge {e.id} menu[{k}]: acceptance probability {entry.p} outside [0,1]")
            if entry.w in weights:
                bad.append(f"edge {e.id} menu[{k}]: duplicate price {entry.w}")
            weights.add(entry.w)

    if inst.mode == "bipartite-one-sided-patience":
        for side in ("offline", "online"):
            if all(v.patience is None for v in inst.vertices if v.side == side):
                break
        else:
            bad.append("mode: no side has uniformly unbounded patience")

    if inst.mode == "vertex-arrival":
        for v in inst.vertices:
            if v.side not in ("offline", "online"):
                bad.append(f"vertex {v.id}: vertex-arrival mode requires a side tag")

    return bad


def check_polytope(
    x: Mapping[str, float], inst: PricingInstance, tol: float = POLYTOPE_TOL
) -> PolytopeCheck:
    """Is x in P(G)?  Missing edges count as 0; unknown edge ids are an error."""
    known = inst.edge_by_id
    for eid in x:
        if eid not in known:
            raise ValueError(f"unknown edge id in x: {eid!r}")

    worst: str | None = None
    excess = 0.0
    for eid, val in x.items():
        if -val > excess:
            worst, excess = eid, -val
    for v in inst.vertices:
        load = sum(x.get(inst.edges[i].id, 0.0) for i in inst.incident[v.id])
        if load - 1.0 > excess:
            worst, excess = v.id, load - 1.0
    if excess <= tol:
        return PolytopeCheck(True, None, 0.0)
    return PolytopeCheck(False, worst, excess)


# ---------------------------------------------------------------------------
# neighborhood statistics


def edge_stats(x: Mapping[str, float], inst: PricingInstance) -> dict[str, EdgeStats]:
    """d, s, m and the neighbor lists of every edge under the point x.

    Neighbors are ``inst.neighbors``.  A neighbor contributes to m only when
    the pair closes a triangle: f must meet e in exactly one vertex and some
    third edge must join the two far endpoints — parallel edges never qualify.
    """
    edges = inst.edges
    xv = np.array([float(x.get(e.id, 0.0)) for e in edges])
    neighbor_idx = inst.neighbors

    d = np.array([xv[idx].sum() if idx.size else 0.0 for idx in neighbor_idx])
    s = 2.0 - d - xv

    pair_present = {frozenset((e.u, e.v)) for e in edges}

    out: dict[str, EdgeStats] = {}
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
        out[e.id] = EdgeStats(
            d=float(d[i]),
            s=float(s[i]),
            m=m,
            neighbors=tuple(edges[j].id for j in neighbor_idx[i]),
            neighbor_xs=tuple((float(xv[j]), float(s[j])) for j in neighbor_idx[i]),
        )
    return out


# ---------------------------------------------------------------------------
# generators


def _ocrs_menu(xe: float) -> tuple[MenuEntry, ...]:
    # Families defined by a fractional point rather than by prices record the
    # point in a degenerate menu (single free offer accepted w.p. x_e, with
    # c = x_e) so the custom-objective LP reproduces the embedded x.
    return (MenuEntry(w=0.0, p=xe, c=xe),)


def _gen_tight_path3(n: int) -> GeneratedInstance:
    if not isinstance(n, int) or n < 2:
        raise ValueError("tight_path3: n must be an integer ≥ 2")
    vs = tuple(Vertex(id=f"v{i}") for i in range(4))
    xs = [1.0 - 1.0 / n, 1.0 / n, 1.0 - 1.0 / n]
    es = tuple(
        Edge(id=f"e{i}", u=f"v{i}", v=f"v{i+1}", menu=_ocrs_menu(xs[i])) for i in range(3)
    )
    inst = PricingInstance(vertices=vs, edges=es, mode="general")
    return GeneratedInstance(inst, {f"e{i}": xs[i] for i in range(3)})


def _gen_star(k: int) -> GeneratedInstance:
    if not isinstance(k, int) or k < 1:
        raise ValueError("star: k must be an integer ≥ 1")
    xe = 1.0 / k
    vs = (Vertex(id="c", side="offline"),) + tuple(
        Vertex(id=f"l{i}", side="online") for i in range(k)
    )
    es = tuple(Edge(id=f"e{i}", u="c", v=f"l{i}", menu=_ocrs_menu(xe)) for i in range(k))
    inst = PricingInstance(vertices=vs, edges=es, mode="bipartite")
    return GeneratedInstance(inst, {e.id: xe for e in es})


def _gen_triangle(x: Iterable[float] = (1.0 / 3, 1.0 / 3, 1.0 / 3)) -> GeneratedInstance:
    xs = [float(v) for v in x]
    if len(xs) != 3:
        raise ValueError("triangle: x must have exactly 3 entries")
    vs = tuple(Vertex(id=f"v{i}") for i in range(3))
    es = tuple(
        Edge(id=f"e{i}", u=f"v{i}", v=f"v{(i+1)%3}", menu=_ocrs_menu(xs[i])) for i in range(3)
    )
    inst = PricingInstance(vertices=vs, edges=es, mode="general")
    gen = GeneratedInstance(inst, {f"e{i}": xs[i] for i in range(3)})
    if not check_polytope(gen.x, inst).ok:
        raise ValueError("triangle: x is not in the polytope")
    return gen


def _scaled_point(rng: np.random.Generator, inst: PricingInstance) -> dict[str, float]:
    raw = rng.uniform(0.2, 1.0, size=len(inst.edges))
    load = {v.id: 0.0 for v in inst.vertices}
    for g, e in zip(raw, inst.edges):
        load[e.u] += g
        load[e.v] += g
    scale = max(1.0, max(load.values()))
    return {e.id: float(g / scale) for g, e in zip(raw, inst.edges)}


def _gen_random_bipartite(n: int, m: int, density: float, seed: int) -> GeneratedInstance:
    if not isinstance(n, int) or n < 2 or not isinstance(m, int) or m < 2:
        raise ValueError("random_bipartite: n and m must be integers ≥ 2")
    if not (0.0 < density <= 1.0):
        raise ValueError("random_bipartite: density must lie in (0, 1]")
    rng = np.random.default_rng(seed)
    values = rng.uniform(1.0, 2.0, size=m)
    vs = tuple(Vertex(id=f"w{i}", side="offline") for i in range(n)) + tuple(
        Vertex(id=f"j{j}", side="online", value=float(values[j])) for j in range(m)
    )
    pairs = [(i, j) for i in range(n) for j in range(m) if rng.random() < density]
    if not pairs:
        pairs = [(0, 0)]
    es = []
    for k, (i, j) in enumerate(pairs):
        vj = float(values[j])
        nw = int(rng.integers(1, 4))
        prices = np.sort(rng.uniform(0.1 * vj, 0.9 * vj, size=nw))
        probs = np.sort(rng.uniform(0.1, 1.0, size=nw))[::-1]  # cheaper offers accepted more
        menu = tuple(MenuEntry(w=float(w), p=float(p)) for w, p in zip(prices, probs))
        es.append(Edge(id=f"e{k}", u=f"w{i}", v=f"j{j}", menu=menu))
    inst = PricingInstance(vertices=vs, edges=tuple(es), mode="bipartite")
    return GeneratedInstance(inst, _scaled_point(rng, inst))


def _gen_random_general(n: int, density: float, seed: int) -> GeneratedInstance:
    if not isinstance(n, int) or n < 2:
        raise ValueError("random_general: n must be an integer ≥ 2")
    if not (0.0 < density <= 1.0):
        raise ValueError("random_general: density must lie in (0, 1]")
    rng = np.random.default_rng(seed)
    vs = tuple(Vertex(id=f"v{i}") for i in range(n))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < density]
    if not pairs:
        pairs = [(0, 1)]
    es = tuple(Edge(id=f"e{k}", u=f"v{i}", v=f"v{j}", menu=()) for k, (i, j) in enumerate(pairs))
    x = _scaled_point(rng, PricingInstance(vertices=vs, edges=es))  # the menus record x
    es = tuple(Edge(id=e.id, u=e.u, v=e.v, menu=_ocrs_menu(x[e.id])) for e in es)
    inst = PricingInstance(vertices=vs, edges=es, mode="general")
    return GeneratedInstance(inst, x)


def _gen_greedy_counterexample_d1(eps: float) -> GeneratedInstance:
    if not (0.0 < eps <= 1.0):
        raise ValueError("greedy_counterexample_d1: eps must lie in (0, 1]")
    vs = (Vertex(id="v0"), Vertex(id="v1"))
    menu = (MenuEntry(w=1.0, p=1.0, c=1.0), MenuEntry(w=2.0, p=eps, c=2.0 * eps))
    inst = PricingInstance(vertices=vs, edges=(Edge(id="e0", u="v0", v="v1", menu=menu),))
    return GeneratedInstance(inst, None)


def _gen_greedy_counterexample_d2(N: int, k: int, eps: float = 0.01) -> GeneratedInstance:
    if not isinstance(N, int) or N < 2 or not isinstance(k, int) or k < 1:
        raise ValueError("greedy_counterexample_d2: need integers N ≥ 2, k ≥ 1")
    if not (0.0 < eps <= 1.0):
        raise ValueError("greedy_counterexample_d2: eps must lie in (0, 1]")
    vs = (Vertex(id="hub"),) + tuple(Vertex(id=f"u{i}") for i in range(k + 1))
    es = [Edge(id="e0", u="hub", v="u0", menu=(MenuEntry(w=1.0 + eps, p=1.0, c=1.0 + eps),))]
    for i in range(1, k + 1):
        w = float(N) ** i
        p = 1.0 / w
        es.append(Edge(id=f"e{i}", u="hub", v=f"u{i}", menu=(MenuEntry(w=w, p=p, c=w * p),)))
    inst = PricingInstance(vertices=vs, edges=tuple(es))
    return GeneratedInstance(inst, None)


def _gen_single_edge_hard(k: float, grid: Iterable[float]) -> GeneratedInstance:
    prices = sorted(float(w) for w in grid)
    if k < 2:
        raise ValueError("single_edge_hard: k must be ≥ 2")
    if not prices:
        raise ValueError("single_edge_hard: price grid is empty")
    if prices[0] < 0 or prices[-1] > k - 1:
        raise ValueError("single_edge_hard: prices must lie in [0, k-1]")
    menu = tuple(MenuEntry(w=w, p=1.0 / (k - w)) for w in prices)
    vs = (Vertex(id="v0"), Vertex(id="v1", value=float(k)))
    inst = PricingInstance(vertices=vs, edges=(Edge(id="e0", u="v0", v="v1", menu=menu),))
    return GeneratedInstance(inst, None)


FAMILIES = {
    "tight_path3": _gen_tight_path3,
    "star": _gen_star,
    "triangle": _gen_triangle,
    "random_bipartite": _gen_random_bipartite,
    "random_general": _gen_random_general,
    "greedy_counterexample_d1": _gen_greedy_counterexample_d1,
    "greedy_counterexample_d2": _gen_greedy_counterexample_d2,
    "single_edge_hard": _gen_single_edge_hard,
}


def generate_family(family: str, **params) -> GeneratedInstance:
    """Build a named instance family; deterministic in (family, params)."""
    key = family.replace("-", "_")
    if key not in FAMILIES:
        raise ValueError(f"unknown family {family!r}; known: {sorted(FAMILIES)}")
    return FAMILIES[key](**params)
