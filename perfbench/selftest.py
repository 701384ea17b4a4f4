"""Self-test of the benchmark's own instrumentation.

    python3 perfbench/selftest.py

Checks, in a few seconds, that

* installing a traced probe replaces every wrapped name and removing it puts
  back the identical original objects;
* traced and untraced runs give the same report digests, with two workers;
* spans from pool threads hang under their ``monte_carlo`` span and none is
  lost when more threads than cores append at once;
* self times are per thread, spans that do not nest are caught, and self
  times plus the untraced remainder add up to the threads' wall time, on
  hand-made span sets and on a real traced run.

Exits 0 and prints "selftest ok" when every check holds.
"""

from __future__ import annotations

import math
import sys
import time

from run import SRC, Library
from spans import Probe, Span, self_times
from workloads import report_digest


def expect(cond: bool, msg: str) -> None:
    if not cond:
        raise SystemExit(f"selftest FAILED: {msg}")


def synthetic_self_times() -> None:
    # parent on thread 0 waits while two pool threads run one child each
    spans = [
        Span(0, None, "mc", "mc", "p", 0, 0.0, 10.0),
        Span(1, 0, "chunk", "a", "p", 1, 1.0, 5.0),
        Span(2, 0, "chunk", "b", "p", 2, 2.0, 6.0),
        Span(3, 1, "rng", "r", "p", 1, 1.0, 2.0),
    ]
    t = self_times(spans, -1.0, 12.0)
    expect(not t.problems, f"problems {t.problems}")
    expect(math.isclose(t.self_by_layer["mc"], 10.0), f"mc self {t.self_by_layer}")
    expect(math.isclose(t.self_by_layer["rng"], 1.0), f"rng self {t.self_by_layer}")
    expect(math.isclose(t.self_by_layer["chunk"], 7.0), f"chunk self {t.self_by_layer}")
    expect(math.isclose(t.thread_wall, 13.0 + 10.0 + 10.0), f"thread wall {t.thread_wall}")
    expect(math.isclose(t.untraced, 3.0 + 6.0 + 6.0), f"untraced {t.untraced}")
    expect(math.isclose(sum(t.self_by_layer.values()) + t.untraced, t.thread_wall), "additivity")

    # a chunk overlapping its sibling on one thread, an rng call outside its chunk
    bad = spans + [Span(4, 0, "chunk", "c", "p", 1, 4.0, 7.0), Span(5, 1, "rng", "r", "p", 1, 4.5, 5.5)]
    t = self_times(bad, -1.0, 12.0)
    expect(len(t.problems) == 2, f"problems {t.problems}")


def mini_job(lib, workers: int) -> list[str]:
    sim, suite = lib.simulate, lib.suite
    spec = lib.attenuation.AttenuationSpec("a2", alpha=0.171)
    entries = {e.name: e for e in suite.build_suite()}
    reports = []
    for name in ("gen_7", "bip_4x4", "tight_path3_100"):
        e = entries[name]
        st = lib.graphcore.edge_stats(e.x, e.instance)
        reports.append(sim.monte_carlo(sim.RoOcrsEngine(e.instance, e.x, st, spec), 3000, 11,
                                       chunk_size=512, workers=workers))
        inst_p, y, p = suite.stochastic_variant(e)
        reports.append(sim.monte_carlo(sim.StochasticOcrsEngine(inst_p, y, p, st, spec), 3000, 12,
                                       chunk_size=512, workers=workers))
    bip = entries["bip_4x4"]
    reports.append(sim.monte_carlo(sim.VertexArrivalEngine(suite.vertex_variant(bip), bip.x), 3000, 13,
                                   chunk_size=512, workers=workers))
    sol = lib.lp.solve_lp(lib.lp.build_lp_pricing(bip.instance, "revenue"))
    one = lib.lp.single_weight_selection(lib.lp.two_weight_reduction(sol.point, bip.instance), bip.instance)
    reports.append(sim.monte_carlo(sim.SequentialPricingEngine(bip.instance, one, spec), 3000, 14,
                                   chunk_size=512, workers=workers))
    return [report_digest(r) for r in reports]


def main() -> int:
    if not (SRC / "ocrslab" / "__init__.py").is_file():
        print(f"no ocrslab sources under {SRC}", file=sys.stderr)
        return 2
    synthetic_self_times()
    lib = Library()

    # wrappers replace every name and removal restores the originals
    probe = Probe(lib.modules, trace=True)
    probe.install()
    patched = probe.patched()
    expect(len(patched) > 30, f"only {len(patched)} names patched")
    for owner, name, orig in patched:
        expect(owner.__dict__[name] is not orig, f"{name} not wrapped")
    probe.remove()
    for owner, name, orig in patched:
        expect(owner.__dict__[name] is orig, f"{name} not restored")

    plain = mini_job(lib, workers=2)

    probe = Probe(lib.modules, trace=False)
    probe.install()
    try:
        untraced = mini_job(lib, workers=2)
    finally:
        probe.remove()
    expect(untraced == plain, "untraced probe changed a report")

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # interleave the pool threads as often as possible
    probe = Probe(lib.modules, trace=True)
    probe.install()
    try:
        t0 = time.perf_counter()
        traced = mini_job(lib, workers=4)
        t1 = time.perf_counter()
    finally:
        probe.remove()
        sys.setswitchinterval(switch)
    expect(traced == plain, "traced run changed a report")

    mc = {sp.sid for sp in probe.spans if sp.layer == "mc"}
    chunks = [sp for sp in probe.spans if sp.layer == "chunk"]
    expected = sum(math.ceil(c.trials / c.chunk_size) for c in probe.mc_calls)
    expect(len(chunks) == expected, f"{len(chunks)} chunk spans for {expected} chunks")
    expect(all(sp.parent in mc for sp in chunks), "a chunk span is not under its monte_carlo span")
    expect(len({sp.thread for sp in chunks}) > 1, "chunks never ran on a pool thread")
    times = self_times(probe.spans, t0, t1)
    expect(not times.problems, f"spans do not nest: {times.problems[:3]}")
    expect(times.thread_wall > times.wall, "no pool thread time counted")
    total = sum(times.self_by_layer.values()) + times.untraced
    expect(math.isclose(total, times.thread_wall, rel_tol=1e-9),
           f"self times add to {total}, threads' wall {times.thread_wall}")
    print("selftest ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
