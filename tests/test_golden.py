"""Golden reports: each engine's Monte Carlo report, pinned by its sha256.

The digests were computed before the front end drew only the cells that can
go, and every speedup since must leave them as they are.  The instances
cover each walk form: `bip_5x5` walks on uint64 words, the E = 276 instance
(`ocrslab gen --family random_bipartite --n 30 --m 30 --density 0.3 --seed
7`) on per-vertex arrays, the 72-edge multigraph on arrays with Q-counts
from arrival positions, and the E = 2049 instance on arrays with arrival
keys too wide to pack with their edge position.
"""

import dataclasses
import hashlib

import pytest

from ocrslab import suite
from ocrslab.attenuation import AttenuationSpec
from ocrslab.graphcore import (
    Edge,
    FractionalPoint,
    MenuEntry,
    PricingInstance,
    Vertex,
    edge_stats,
    generate_family,
)
from ocrslab.simulate import (
    RoOcrsEngine,
    SequentialPricingEngine,
    StochasticOcrsEngine,
    VertexArrivalEngine,
    monte_carlo,
)

A1 = AttenuationSpec("a1")
A2 = AttenuationSpec("a2", alpha=0.171)


def digest(report) -> str:
    """sha256 over each edge's counts and the revenue mean and interval."""
    h = hashlib.sha256()
    for er in report.edges:
        h.update(f"{er.edge_id}|{er.trials}|{er.matched}|{er.r0}|{er.r1}|{er.x_ref!r}\n".encode())
    h.update(f"{report.revenue_mean!r}|{report.revenue_ci!r}\n".encode())
    return h.hexdigest()[:16]


def _engines(inst, x, patience):
    """RO, stochastic (offers at 0.9, success x / 0.9), vertex and pricing
    (each menu entry of e offered at x_e / its menu length) on one bipartite
    instance; stochastic and pricing with `patience` on every vertex."""
    stats = edge_stats(x, inst)
    patient = dataclasses.replace(
        inst, vertices=tuple(dataclasses.replace(v, patience=patience) for v in inst.vertices)
    )
    y, p = dict.fromkeys(x, 0.9), {k: v / 0.9 for k, v in x.items()}
    point = FractionalPoint({(e.id, m.w): x[e.id] / len(e.menu) for e in inst.edges for m in e.menu})
    return {
        "ro": lambda: RoOcrsEngine(inst, x, stats, A2),
        "stochastic": lambda: StochasticOcrsEngine(patient, y, p, stats, A1),
        "vertex": lambda: VertexArrivalEngine(inst, x),
        "pricing": lambda: SequentialPricingEngine(patient, point, A2),
    }


def _bip_5x5():
    entry = next(e for e in suite.build_suite() if e.name == "bip_5x5")
    return _engines(entry.instance, entry.x, 1)


def _wide():
    gen = generate_family("random_bipartite", n=30, m=30, density=0.3, seed=7)
    return _engines(gen.instance, gen.x, 2)


def _multigraph():
    # every offline-online pair of a 3 x 3 bipartite graph joined eight
    # times: 72 edges, 24 at each vertex
    vs = tuple(
        Vertex(v, side="offline" if v in "ace" else "online", patience={"a": 1, "d": 1}.get(v))
        for v in "abcdef"
    )
    pairs = [(u, v) for u in "ace" for v in "bdf"] * 8
    es = tuple(Edge(f"e{i}", u, v, (MenuEntry(0.0, 0.3, c=0.3),)) for i, (u, v) in enumerate(pairs))
    inst = PricingInstance(vs, es, mode="bipartite")
    x = {e.id: 0.04 for e in es}
    stats = edge_stats(x, inst)
    return {
        "ro": lambda: RoOcrsEngine(inst, x, stats, A2),
        "stochastic": lambda: StochasticOcrsEngine(
            inst, dict.fromkeys(x, 0.1), dict.fromkeys(x, 0.4), stats, A2
        ),
        "vertex": lambda: VertexArrivalEngine(inst, x),
    }


def _e2049():
    # the first 2049 edges of a sparse random bipartite graph, the point
    # scaled to load its busiest vertex fully
    gen = generate_family("random_bipartite", n=300, m=300, density=0.025, seed=7)
    edges = gen.instance.edges[:2049]
    ends = {v for e in edges for v in (e.u, e.v)}
    load = dict.fromkeys(ends, 0.0)
    for e in edges:
        load[e.u] += gen.x[e.id]
        load[e.v] += gen.x[e.id]
    x = {e.id: gen.x[e.id] / max(load.values()) for e in edges}
    inst = PricingInstance(tuple(v for v in gen.instance.vertices if v.id in ends), edges, mode="bipartite")
    return _engines(inst, x, 2)


INSTANCES = {
    "bip_5x5": (_bip_5x5, 40_000),
    "wide276": (_wide, 6_000),
    "multigraph72": (_multigraph, 6_000),
    "e2049": (_e2049, 600),
}

GOLDEN = {
    ("bip_5x5", "ro"): "03188cede01cbde1",
    ("bip_5x5", "stochastic"): "a8d776f71443813b",
    ("bip_5x5", "vertex"): "e15b6b7c4c533f6d",
    ("bip_5x5", "pricing"): "f274df16bbad8769",
    ("wide276", "ro"): "dedcbde2b0a1e450",
    ("wide276", "stochastic"): "1ef33c72fdf3838c",
    ("wide276", "vertex"): "2dd8cc779e1eb851",
    ("wide276", "pricing"): "0912f8f6fc9cf347",
    ("multigraph72", "ro"): "60f337845b265025",
    ("multigraph72", "stochastic"): "11abad5b2a49b4f7",
    ("multigraph72", "vertex"): "f79ad28cbc4ca9b1",
    ("e2049", "ro"): "7c0728e5ff8c8fec",
    ("e2049", "stochastic"): "4e60a511e991d4b0",
    ("e2049", "vertex"): "cc1d1a2cbc2d8d88",
    ("e2049", "pricing"): "b4cc13e9ad00a026",
}


@pytest.mark.parametrize("instance", sorted(INSTANCES))
def test_reports_match_their_golden_digests(instance):
    build, trials = INSTANCES[instance]
    for scheme, make in build().items():
        report = monte_carlo(make(), trials, 11)
        assert digest(report) == GOLDEN[instance, scheme], (instance, scheme)
