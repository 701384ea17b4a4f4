"""The three benchmark workloads: set-up, one job, and the checks of a job.

Each workload is a batch job run to completion, never an arrival loop.  The
workload seed is reduced to a seed class (``seed % SEED_CLASSES``) that sets
every Monte Carlo master seed, so that every report has a committed
reference digest in ``references.json``.  Instance generator seeds are fixed:
the instances, and so the work per job, are the same for every seed.

The library is reached only through its modules (``lib.suite.run_criteria``
and so on), looked up at call time, so that the probe's wrappers see every
call.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
import os
from dataclasses import dataclass
from typing import Callable

SEED_CLASSES = 16


@dataclass(frozen=True)
class Check:
    name: str
    ok: bool
    detail: str
    # "digest" and "invariant" checks decide `correct`; "criterion" checks are
    # acceptance verdicts, counted in `failed` but allowed to fail on a seed
    kind: str = "invariant"


@dataclass(frozen=True)
class Workload:
    name: str
    trials: int
    workers: int
    setup: Callable  # (lib) -> state
    job: Callable  # (lib, state, seed_class) -> list[Check]


def report_digest(report) -> str:
    """sha256 over the values of the report fields that exist today.

    Counts are hashed as ``int`` and floats as ``repr(float(...))``, so the
    digest covers the numbers, not whether the library returns them as Python
    or numpy scalars.
    """
    h = hashlib.sha256()
    for er in report.edges:
        counts = (er.matched, er.r0, er.r1)
        floats = (er.x_ref, er.freq, er.ci_lo, er.ci_hi, er.ratio)
        fields = [str(er.edge_id), *(str(int(c)) for c in counts), *(repr(float(f)) for f in floats)]
        h.update(("|".join(fields) + "\n").encode())
    h.update(f"{float(report.revenue_mean)!r}|{float(report.revenue_ci)!r}\n".encode())
    return h.hexdigest()[:16]


def _floor_margin(report, floor: float) -> float:
    """Worst over edges of (freq + 3 * half-width) / x_e - floor (criterion 5)."""
    worst = math.inf
    for er in report.edges:
        if er.x_ref > 0:
            hw = (er.ci_hi - er.ci_lo) / 2.0
            worst = min(worst, (er.freq + 3.0 * hw) / er.x_ref - floor)
    return worst


# --------------------------------------------------------------------------
# battery: the acceptance suite on the fixed 20-instance battery
# --------------------------------------------------------------------------

BATTERY_TRIALS = 32768
BATTERY_GRID = 81
BATTERY_REFINEMENTS = 3


def battery_setup(lib):
    lib.suite.build_suite.cache_clear()
    entries = lib.suite.build_suite()
    return [lib.graphcore.edge_stats(e.x, e.instance) for e in entries]


def battery_job(lib, state, seed_class: int) -> list[Check]:
    rows = lib.suite.run_criteria(
        trials=BATTERY_TRIALS,
        master_seed=seed_class,
        grid_resolution=BATTERY_GRID,
        refinements=BATTERY_REFINEMENTS,
        workers=1,
    )
    return [Check(f"criterion {r.ident}", r.passed, r.line(), "criterion") for r in rows]


# --------------------------------------------------------------------------
# mc-large: the four arrival schemes on one E=479 bipartite instance
# --------------------------------------------------------------------------

MC_LARGE_TRIALS = 32768
MC_LARGE_WORKERS = max(1, min(2, len(os.sched_getaffinity(0))))
MC_LARGE_INSTANCE = {"n": 40, "m": 40, "density": 0.3, "seed": 7}


def mc_large_setup(lib):
    gen = lib.graphcore.generate_family("random_bipartite", **MC_LARGE_INSTANCE)
    stats = lib.graphcore.edge_stats(gen.x, gen.instance)
    entry = lib.suite.SuiteEntry("mc_large", gen.instance, gen.x, True)
    spec = lib.attenuation.AttenuationSpec
    sim = lib.simulate
    inst_p, y, p = lib.suite.stochastic_variant(entry)
    inst_o, y_o, p_o = lib.suite.one_sided_variant(entry)
    return [
        ("ro", sim.RoOcrsEngine(gen.instance, gen.x, stats, spec("a2", alpha=0.171)), 0.456),
        ("stochastic", sim.StochasticOcrsEngine(inst_p, y, p, stats, spec("a2", alpha=0.16)), 0.395),
        ("one-sided", sim.StochasticOcrsEngine(inst_o, y_o, p_o, stats, spec("a2", alpha=0.162)), 0.426),
        ("vertex", sim.VertexArrivalEngine(lib.suite.vertex_variant(entry), gen.x), 0.399),
    ]


def mc_large_job(lib, state, seed_class: int) -> list[Check]:
    checks = []
    for k, (label, engine, floor) in enumerate(state):
        rep = lib.simulate.monte_carlo(
            engine, MC_LARGE_TRIALS, 1000 * seed_class + k, workers=MC_LARGE_WORKERS
        )
        margin = _floor_margin(rep, floor)
        checks.append(Check(f"floor {label}", margin >= 0,
                            f"{label}: worst (freq+3hw)/x - {floor} = {margin:+.4f}"))
    return checks


# --------------------------------------------------------------------------
# pricing: LP, menu reductions, then the sequential pricing engine
# --------------------------------------------------------------------------

PRICING_TRIALS = 8192
# small enough that a run holds several jobs; the interpreter-bound simplex
# is the noisiest part of the job, so the Monte Carlo keeps about 40% of it
PRICING_INSTANCES = (
    ("bip20", {"n": 20, "m": 20, "density": 0.35, "seed": 7}),
    ("bip25", {"n": 25, "m": 25, "density": 0.3, "seed": 7}),
)
# relative float slack on "the reduction never loses objective"
OBJ_RTOL = 1e-9


def pricing_setup(lib):
    out = []
    for label, params in PRICING_INSTANCES:
        inst = lib.graphcore.generate_family("random_bipartite", **params).instance
        patient = dataclasses.replace(
            inst, vertices=tuple(dataclasses.replace(v, patience=2) for v in inst.vertices)
        )
        for tag, variant in ((label, inst), (label + "_patience2", patient)):
            out.append((tag, variant, lib.lp.build_lp_pricing(variant, "revenue")))
    return out


def _point_objective(lib, inst, point) -> float:
    coeffs = lib.lp.objective_coefficients(inst, "revenue")
    return math.fsum(
        point.y.get((e.id, entry.w), 0.0) * coeffs[e.id][k]
        for e in inst.edges
        for k, entry in enumerate(e.menu)
    )


def pricing_job(lib, state, seed_class: int) -> list[Check]:
    lp = lib.lp
    violations = lib.graphcore.fractional_point_violations
    spec = lib.attenuation.AttenuationSpec("a2", alpha=0.171)
    checks = []
    for k, (tag, inst, program) in enumerate(state):
        sol = lp.solve_lp(program)
        two = lp.two_weight_reduction(sol.point, inst, "revenue")
        one = lp.single_weight_selection(two, inst, "revenue")
        slack = OBJ_RTOL * max(1.0, abs(sol.objective))
        obj_two = _point_objective(lib, inst, two)
        obj_one = _point_objective(lib, inst, one)
        bad_lp, bad_one = violations(sol.point, inst), violations(one, inst)
        checks += [
            Check(f"{tag} lp point feasible", not bad_lp, f"{tag}: {bad_lp[:1]}"),
            Check(f"{tag} single-weight feasible", not bad_one, f"{tag}: {bad_one[:1]}"),
            Check(f"{tag} two-weight >= lp", obj_two >= sol.objective - slack,
                  f"{tag}: two-weight {obj_two:.6f} vs lp {sol.objective:.6f}"),
            Check(f"{tag} single-weight >= lp/2", obj_one >= 0.5 * sol.objective - slack,
                  f"{tag}: single-weight {obj_one:.6f} vs lp {sol.objective:.6f}"),
        ]
        engine = lib.simulate.SequentialPricingEngine(inst, one, spec, objective="revenue")
        rep = lib.simulate.monte_carlo(engine, PRICING_TRIALS, 1000 * seed_class + k, workers=1)
        ratio = (rep.revenue_mean + 3.0 * rep.revenue_ci) / sol.objective
        checks.append(Check(f"{tag} revenue >= 0.45 lp", ratio >= 0.45,
                            f"{tag}: (revenue + 3 ci) / lp = {ratio:.4f}"))
    return checks


WORKLOADS = {
    "battery": Workload("battery", BATTERY_TRIALS, 1, battery_setup, battery_job),
    "mc-large": Workload("mc-large", MC_LARGE_TRIALS, MC_LARGE_WORKERS, mc_large_setup, mc_large_job),
    "pricing": Workload("pricing", PRICING_TRIALS, 1, pricing_setup, pricing_job),
}
