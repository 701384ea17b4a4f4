"""Command-line front end.

Subcommands: ``gen`` (instance files), ``lp`` (solve the pricing relaxation,
optionally thin the offer menus), ``simulate`` (Monte Carlo for all four
schemes), ``bounds`` (minimization certificates), ``verify-facts`` (the
inequality battery), and ``suite`` (the full acceptance battery).  Every
command is deterministic given its flags; reruns produce byte-identical files.
This module is the only reader/writer of instance files.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import math
import sys
from pathlib import Path

from . import bounds
from .attenuation import AttenuationSpec
from .graphcore import (
    Edge,
    FractionalPoint,
    MenuEntry,
    PricingInstance,
    Vertex,
    edge_stats,
    generate_family,
    marginals,
    validate_instance,
)
from .lp import (
    auto_objective,
    build_lp_pricing,
    objective_coefficients,
    single_weight_selection,
    solve_lp,
    two_weight_reduction,
)
from .simulate import (
    RoOcrsEngine,
    SequentialPricingEngine,
    StochasticOcrsEngine,
    VertexArrivalEngine,
    monte_carlo,
)
from .suite import DEFAULT_SEED, DEFAULT_TRIALS, run_criteria

_FAMILY_ALIASES = {"d1": "greedy_counterexample_d1", "d2": "greedy_counterexample_d2"}

_SETTING_ALIASES = {
    "general": "general",
    "bipartite": "bipartite",
    "patience": "patience_general",
    "patience_general": "patience_general",
    "one-sided": "patience_one_sided",
    "one_sided": "patience_one_sided",
    "patience_one_sided": "patience_one_sided",
}


# ---------------------------------------------------------------------------
# instance file format


def instance_to_dict(inst: PricingInstance, x: dict[str, float] | None) -> dict:
    vertices = []
    for v in inst.vertices:
        row: dict = {"id": v.id}
        if v.side is not None:
            row["side"] = v.side
        if v.value is not None:
            row["value"] = v.value
        if v.patience is not None:
            row["patience"] = v.patience
        vertices.append(row)
    edges = []
    for e in inst.edges:
        menu = []
        for entry in e.menu:
            m: dict = {"w": entry.w, "p": entry.p}
            if entry.c is not None:
                m["c"] = entry.c
            menu.append(m)
        edges.append({"id": e.id, "u": e.u, "v": e.v, "menu": menu})
    doc: dict = {"mode": inst.mode, "vertices": vertices, "edges": edges}
    if x is not None:
        doc["x"] = [{"edge": e.id, "value": x[e.id]} for e in inst.edges]
    return doc


_NUMBER = (int, float)
_REQUIRED = object()


def _field(row, key: str, kind, where: str, default=_REQUIRED):
    """row[key] checked against `kind`; a ValueError naming the key otherwise.

    An absent or null key gives `default`, or is an error without one.
    """
    if not isinstance(row, dict):
        raise ValueError(f"{where}: expected an object")
    val = row.get(key)
    if val is None:
        if default is _REQUIRED:
            raise ValueError(f"{where}: missing key {key!r}")
        return default
    if isinstance(val, bool) or not isinstance(val, kind):
        raise ValueError(f"{where}: {key!r} has the wrong type {type(val).__name__}")
    if isinstance(val, _NUMBER):
        try:
            finite = math.isfinite(val)
        except OverflowError:  # an int beyond the float range
            finite = False
        if not finite:
            raise ValueError(f"{where}: {key!r} is not a finite number in the float range")
    return val


def instance_from_dict(doc: dict) -> tuple[PricingInstance, dict[str, float] | None]:
    vertices = tuple(
        Vertex(
            id=_field(row, "id", str, f"vertices[{k}]"),
            side=_field(row, "side", str, f"vertices[{k}]", None),
            value=_field(row, "value", _NUMBER, f"vertices[{k}]", None),
            patience=_field(row, "patience", int, f"vertices[{k}]", None),
        )
        for k, row in enumerate(_field(doc, "vertices", list, "instance"))
    )
    edges = tuple(
        Edge(
            id=_field(row, "id", str, f"edges[{k}]"),
            u=_field(row, "u", str, f"edges[{k}]"),
            v=_field(row, "v", str, f"edges[{k}]"),
            menu=tuple(
                MenuEntry(
                    w=_field(m, "w", _NUMBER, f"edges[{k}].menu[{j}]"),
                    p=_field(m, "p", _NUMBER, f"edges[{k}].menu[{j}]"),
                    c=_field(m, "c", _NUMBER, f"edges[{k}].menu[{j}]", None),
                )
                for j, m in enumerate(_field(row, "menu", list, f"edges[{k}]"))
            ),
        )
        for k, row in enumerate(_field(doc, "edges", list, "instance"))
    )
    mode = _field(doc, "mode", str, "instance", "general")
    inst = PricingInstance(vertices=vertices, edges=edges, mode=mode)
    problems = validate_instance(inst)
    if problems:
        raise ValueError("invalid instance: " + "; ".join(problems))
    x = None
    if "x" in doc:
        x = {}
        for k, row in enumerate(_field(doc, "x", list, "instance")):
            eid = _field(row, "edge", str, f"x[{k}]")
            if eid in x or eid not in inst.edge_by_id:
                what = "a second entry for" if eid in x else "unknown"
                raise ValueError(f"x[{k}]: {what} edge {eid!r}")
            x[eid] = float(_field(row, "value", _NUMBER, f"x[{k}]"))
        missing = [e.id for e in edges if e.id not in x]
        if missing:
            raise ValueError(f"x is missing edges: {missing}")
    return inst, x


def load_instance(path: str) -> tuple[PricingInstance, dict[str, float] | None]:
    with open(path, encoding="utf-8") as fh:
        return instance_from_dict(json.load(fh))


def _json_default(o):
    item = getattr(o, "item", None)  # numpy scalars
    if callable(item):
        return item()
    raise TypeError(f"not JSON serializable: {type(o).__name__}")


def _write_json(path: str, doc) -> None:
    """Write strict JSON: a NaN or infinity is a ValueError, and no file is written."""
    text = json.dumps(doc, indent=2, default=_json_default, allow_nan=False)
    Path(path).write_text(text + "\n", encoding="utf-8")


# ---------------------------------------------------------------------------
# subcommands


def _cmd_gen(args) -> int:
    family = _FAMILY_ALIASES.get(args.family, args.family)
    params = {}
    for name in ("n", "m", "N", "eps", "density", "seed"):
        val = getattr(args, name)
        if val is not None:
            params[name] = val
    if args.k is not None:
        params["k"] = int(args.k) if args.k.is_integer() else args.k
    if args.x is not None:
        params["x"] = tuple(float(t) for t in args.x.split(","))
    if args.grid is not None:
        params["grid"] = tuple(float(t) for t in args.grid.split(","))
    gen = generate_family(family, **params)
    out = args.out or f"{family.replace('-', '_')}.json"
    _write_json(out, instance_to_dict(gen.instance, gen.x))
    inst = gen.instance
    print(f"|V|={len(inst.vertices)} |E|={len(inst.edges)} mode={inst.mode} -> {out}")
    return 0


def _point_to_doc(point: FractionalPoint, inst: PricingInstance, objective_value: float) -> dict:
    triples = []
    for e in inst.edges:
        for entry in e.menu:
            mass = point.y.get((e.id, entry.w), 0.0)
            if mass != 0.0:
                triples.append({"edge": e.id, "weight": entry.w, "y": mass})
    x, _, _ = marginals(point, inst)
    return {
        "objective": objective_value,
        "y": triples,
        "x": [{"edge": eid, "value": val} for eid, val in x.items()],
    }


def _objective_value(point: FractionalPoint, inst: PricingInstance, objective: str) -> float:
    coeffs = objective_coefficients(inst, objective)
    # summed as `LpSolution.objective` is, so the LP's own point reads its objective
    return math.fsum(
        point.y.get((e.id, entry.w), 0.0) * coeffs[e.id][k]
        for e in inst.edges
        for k, entry in enumerate(e.menu)
    )


def _cmd_lp(args) -> int:
    inst, _ = load_instance(args.instance)
    objective = args.objective
    if objective == "auto":
        objective = auto_objective(inst)
    sol = solve_lp(build_lp_pricing(inst, objective))
    point, value = sol.point, sol.objective
    print(f"objective {value:.6f} ({objective})")
    if args.reduce != "none":
        point = two_weight_reduction(point, inst, objective)
        if args.reduce == "single-weight":
            point = single_weight_selection(point, inst, objective)
        value = _objective_value(point, inst, objective)
        retained = 1.0 if sol.objective == 0 else value / sol.objective
        print(f"reduced objective {value:.6f}, retained fraction {retained:.6f}")
    out = args.out or str(Path(args.instance).with_suffix(".point.json"))
    _write_json(out, _point_to_doc(point, inst, value))
    print(f"-> {out}")
    return 0


def _build_engine(args, inst: PricingInstance, x: dict[str, float] | None):
    spec = AttenuationSpec(args.attenuation, alpha=args.alpha)
    if args.scheme == "pricing":
        objective = auto_objective(inst)
        sol = solve_lp(build_lp_pricing(inst, objective))
        return SequentialPricingEngine(inst, sol.point, spec, objective=objective), sol
    if x is None:
        raise ValueError(f"scheme {args.scheme!r} needs an embedded x in the instance file")
    if args.scheme == "ro-ocrs":
        return RoOcrsEngine(inst, x, edge_stats(x, inst), spec), None
    if args.scheme == "vertex":
        return VertexArrivalEngine(inst, x), None
    # stochastic: single-entry menus carry the success probabilities
    y: dict[str, float] = {}
    p: dict[str, float] = {}
    for e in inst.edges:
        if len(e.menu) != 1:
            raise ValueError(
                f"scheme 'stochastic' needs single-entry menus; edge {e.id} has {len(e.menu)}"
            )
        pe = e.menu[0].p
        if pe < x[e.id] - 1e-12:
            raise ValueError(f"edge {e.id}: menu probability {pe} < x_e {x[e.id]}")
        p[e.id] = pe
        y[e.id] = min(1.0, x[e.id] / pe) if pe > 0 else 0.0
    return StochasticOcrsEngine(inst, y, p, edge_stats(x, inst), spec), None


def _csv_cell(v: float) -> str:
    return repr(float(v))


def _cmd_simulate(args) -> int:
    inst, x = load_instance(args.instance)
    engine, sol = _build_engine(args, inst, x)
    rep = monte_carlo(engine, args.trials, args.seed, workers=args.workers)
    prefix = args.out or str(Path(args.instance).with_suffix("")) + ".sim"
    with open(prefix + ".csv", "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(
            ["edge_id", "x_e", "freq", "ci_lo", "ci_hi", "freq_r0", "freq_r1", "ratio"]
        )
        for er in rep.edges:
            w.writerow(
                [er.edge_id]
                + [
                    _csv_cell(v)
                    for v in (
                        er.x_ref,
                        er.freq,
                        er.ci_lo,
                        er.ci_hi,
                        er.freq_r0,
                        er.freq_r1,
                        er.ratio,
                    )
                ]
            )
    summary = {
        "min_ratio": None if math.isnan(rep.min_ratio) else rep.min_ratio,
        "revenue_mean": rep.revenue_mean,
        "revenue_ci": rep.revenue_ci,
        "trials": rep.trials,
        "seed": rep.master_seed,
    }
    _write_json(prefix + ".json", summary)
    if math.isnan(rep.min_ratio):
        print("min ratio n/a (no positive-mass edges)")
    else:
        print(f"min ratio {rep.min_ratio:.4f}")
    print(f"revenue {rep.revenue_mean:.6f} ± {rep.revenue_ci:.6f}")
    if sol is not None and sol.objective > 0:
        print(f"revenue / LP objective = {rep.revenue_mean / sol.objective:.4f}")
    print(f"-> {prefix}.csv, {prefix}.json")
    return 0


def _cmd_bounds(args) -> int:
    setting = _SETTING_ALIASES.get(args.setting)
    if setting is None:
        raise ValueError(
            f"unknown setting {args.setting!r}; known: {sorted(_SETTING_ALIASES)}"
        )
    cert = bounds.five_var_minimize(setting, args.alpha)
    print(f"{setting} alpha={args.alpha}: certified minimum {cert.minimum:.6f}")
    out = args.out or f"cert_{setting}.json"
    _write_json(out, dataclasses.asdict(cert))
    print(f"-> {out}")
    return 0


def _cmd_verify_facts(args) -> int:
    rows = bounds.verify_facts()
    out = args.out or "facts.csv"
    with open(out, "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["fact_id", "holds", "margin"])
        for r in rows:
            w.writerow([r.fact_id, str(r.holds).lower(), repr(r.margin)])
    held = sum(r.holds for r in rows)
    print(f"{held}/{len(rows)} facts hold -> {out}")
    for r in rows:
        if not r.holds:
            print(f"FAIL {r.fact_id}: margin {r.margin:+.3e}")
    return 0 if held == len(rows) else 1


def _cmd_suite(args) -> int:
    results = run_criteria(
        trials=args.trials,
        master_seed=args.seed,
        workers=args.workers,
    )
    for r in results:
        print(r.line())
    passed = sum(r.passed for r in results)
    print(f"{'PASS' if passed == len(results) else 'FAIL'} ({passed}/{len(results)} criteria)")
    if args.out:
        _write_json(args.out, [dataclasses.asdict(r) for r in results])
    return 0 if passed == len(results) else 1


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="ocrslab", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate an instance file")
    p.add_argument("--family", required=True)
    p.add_argument("--n", type=int)
    p.add_argument("--m", type=int)
    p.add_argument("--k", type=float)
    p.add_argument("--N", type=int)
    p.add_argument("--eps", type=float)
    p.add_argument("--density", type=float)
    p.add_argument("--seed", type=int)
    p.add_argument("--x", help="comma-separated marginals (triangle)")
    p.add_argument("--grid", help="comma-separated weights (single-edge family)")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("lp", help="solve the pricing relaxation")
    p.add_argument("--instance", required=True)
    p.add_argument("--objective", choices=["auto", "revenue", "custom"], default="auto")
    p.add_argument(
        "--reduce", choices=["none", "two-weight", "single-weight"], default="none"
    )
    p.add_argument("--out")
    p.set_defaults(func=_cmd_lp)

    p = sub.add_parser("simulate", help="Monte Carlo for one scheme")
    p.add_argument("--instance", required=True)
    p.add_argument(
        "--scheme", choices=["ro-ocrs", "stochastic", "vertex", "pricing"], required=True
    )
    p.add_argument("--attenuation", choices=["trivial", "a1", "a2"], default="trivial")
    p.add_argument("--alpha", type=float, default=0.0)
    p.add_argument("--trials", type=int, default=100_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--workers", type=int, default=None)
    p.add_argument("--out", help="output path prefix")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("bounds", help="certify a balancedness constant")
    p.add_argument("--setting", required=True)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_bounds)

    p = sub.add_parser("verify-facts", help="run the inequality battery")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_verify_facts)

    p = sub.add_parser("suite", help="run the full acceptance battery")
    p.add_argument("--trials", type=int, default=DEFAULT_TRIALS)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--workers", type=int, default=None)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_suite)

    return ap


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "simulate" and args.trials < 1:
        print("error: --trials must be ≥ 1", file=sys.stderr)
        return 2
    try:
        return args.func(args)
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
