"""ocrslab benchmark: one workload per process, metrics as one JSON line.

    python3 perfbench/run.py --workload battery --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the library is imported from ``src/``.
With ``--trace 0`` the run prints the end-to-end metrics, with ``--trace 1``
the per-layer metrics of a traced pass.  ``--workload all`` runs each
workload in its own process and prints one table.  The result file and, for
traced runs, the spans go to ``perfbench/results/``.  See README.md.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

from spans import SCHEMES, PassTimes, Probe, self_times
from workloads import SEED_CLASSES, WORKLOADS, Check, report_digest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
REFERENCES = HERE / "references.json"

SETUP_REPEATS = 15
IMPORT_REPEATS = 10  # fresh interpreters timing the import, besides this one
MODULES = ("simulate", "suite", "graphcore", "lp", "bounds", "attenuation", "_rng")

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "edge_trials_per_s": "1/s",
    "peak_rss_mb": "MB",
}

PER_LAYER_UNITS = {
    "rng.busy_s": "s",
    "rng.calls": "count",
    "rng.uniforms": "count",
    "attenuation.busy_s": "s",
    "attenuation.calls": "count",
    "simulate.walk_self_s": "s",
    "simulate.qcount_s": "s",
    "simulate.reduce_s": "s",
    "simulate.mc_self_s": "s",
    "simulate.chunks": "count",
    **{f"simulate.chunk_ms.{s}": "ms" for s in SCHEMES},
    "simulate.parallel_eff": "ratio",
    "simulate.engine_init_s": "s",
    "simulate.oracle_s": "s",
    "graphcore.edge_stats_s": "s",
    "graphcore.generate_s": "s",
    "lp.build_s": "s",
    "lp.solve_s": "s",
    "lp.reduce_s": "s",
    "lp.rows": "count",
    "lp.cols": "count",
    "bounds.facts_s": "s",
    "bounds.cert_s": "s",
    "bounds.fact_rows": "count",
    "bounds.cert_calls": "count",
    "trace.wall_s": "s",
    "trace.thread_wall_s": "s",
    "trace.untraced_s": "s",
    "trace.overhead_s": "s",
}

# self-time metric -> span layer
SELF_TIME_LAYERS = {
    "rng.busy_s": "rng",
    "attenuation.busy_s": "attenuation",
    "simulate.walk_self_s": "chunk",
    "simulate.qcount_s": "qcount",
    "simulate.reduce_s": "reduce",
    "simulate.mc_self_s": "mc",
    "simulate.engine_init_s": "engine_init",
    "simulate.oracle_s": "oracle",
    "graphcore.edge_stats_s": "edge_stats",
    "graphcore.generate_s": "generate",
    "lp.build_s": "lp.build",
    "lp.solve_s": "lp.solve",
    "lp.reduce_s": "lp.reduce",
    "bounds.facts_s": "bounds.facts",
    "bounds.cert_s": "bounds.cert",
}


class Library:
    """The ocrslab modules, imported from this checkout's ``src/``."""

    def __init__(self):
        t0 = time.perf_counter()
        sys.path.insert(0, str(SRC))
        pkg = importlib.import_module("ocrslab")
        self.modules = {m: importlib.import_module(f"ocrslab.{m}") for m in MODULES}
        self.import_s = time.perf_counter() - t0
        if Path(pkg.__file__).resolve().parent != SRC / "ocrslab":
            raise SystemExit(f"ocrslab imported from {pkg.__file__}, not from {SRC}")
        self.numpy_version = importlib.import_module("numpy").__version__
        for name, mod in self.modules.items():
            setattr(self, name, mod)


IMPORT_PROBE = """
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import ocrslab
for m in sys.argv[2:]:
    __import__("ocrslab." + m)
print(time.perf_counter() - t0)
"""


def import_seconds() -> float:
    """Import time of ocrslab (numpy included) in a fresh interpreter."""
    out = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC), *MODULES],
                         capture_output=True, text=True, timeout=60, check=True)
    return float(out.stdout)


# --------------------------------------------------------------------------
# one pass: set-up then job, under a probe
# --------------------------------------------------------------------------

@dataclass
class Pass:
    kind: str  # "untraced" or "traced"
    setup_s: float
    wall_s: float  # the job alone
    t0: float  # start of set-up
    t1: float  # end of job
    checks: list[Check]
    probe: Probe

    @cached_property
    def digests(self) -> list[str]:
        return [report_digest(c.report) for c in self.probe.mc_calls]


def run_pass(lib, wl, seed_class: int, trace: bool, pass_id: str, state=None) -> Pass:
    """Set up (unless `state` is given) and run one job under a fresh probe."""
    probe = Probe(lib.modules, trace=trace)
    probe.pass_id = pass_id
    probe.install()
    try:
        t0 = time.perf_counter()
        if state is None:
            state = wl.setup(lib)
        t1 = time.perf_counter()
        checks = wl.job(lib, state, seed_class)
        t2 = time.perf_counter()
    finally:
        probe.remove()
    return Pass("traced" if trace else "untraced", t1 - t0, t2 - t1, t0, t2, checks, probe)


def digest_checks(digests: list[str], reference: list[str] | None) -> list[Check]:
    if reference is None:
        return [Check("digest reference", False, "no committed reference digests", "digest")]
    if len(reference) != len(digests):
        return [Check("digest count", False,
                      f"{len(digests)} monte_carlo reports vs {len(reference)} references", "digest")]
    return [Check(f"digest mc[{i}]", d == r, f"mc[{i}] {d} vs reference {r}", "digest")
            for i, (d, r) in enumerate(zip(digests, reference))]


def load_reference(workload: str, seed_class: int) -> list[str] | None:
    try:
        refs = json.loads(REFERENCES.read_text())
    except FileNotFoundError:
        return None
    return refs.get(workload, {}).get(str(seed_class))


# --------------------------------------------------------------------------
# metrics
# --------------------------------------------------------------------------

def end_to_end(import_times: list[float], setup_times: list[float],
               passes: list[Pass]) -> dict[str, float]:
    calls = [c for p in passes for c in p.probe.mc_calls]
    edge_trials = sum(c.trials * len(c.report.edges) for c in calls)
    mc_seconds = sum(c.seconds for c in calls)
    return {
        "setup_s": statistics.median(import_times) + statistics.median(setup_times),
        "wall_s": statistics.median(p.wall_s for p in passes),
        "edge_trials_per_s": edge_trials / mc_seconds if mc_seconds > 0 else 0.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(traced: Pass, overhead_s: float) -> tuple[dict[str, float], PassTimes]:
    spans = traced.probe.spans
    times = self_times(spans, traced.t0, traced.t1)
    by_layer: dict[str, list] = {}
    for sp in spans:
        by_layer.setdefault(sp.layer, []).append(sp)

    def count(layer):
        return float(len(by_layer.get(layer, ())))

    def total(layer, attr):
        return float(sum(getattr(sp, attr) for sp in by_layer.get(layer, ())))

    out = {name: times.self_by_layer.get(layer, 0.0) for name, layer in SELF_TIME_LAYERS.items()}
    chunks = by_layer.get("chunk", [])
    for scheme in SCHEMES:
        durations = [sp.t1 - sp.t0 for sp in chunks if sp.scheme == scheme]
        out[f"simulate.chunk_ms.{scheme}"] = 1000.0 * statistics.median(durations) if durations else 0.0
    busy = sum(sp.t1 - sp.t0 for sp in chunks)
    capacity = sum(c.workers * c.seconds for c in traced.probe.mc_calls)
    out.update({
        "rng.calls": count("rng"),
        "rng.uniforms": total("rng", "n"),
        "attenuation.calls": count("attenuation"),
        "simulate.chunks": float(len(chunks)),
        "simulate.parallel_eff": busy / capacity if capacity > 0 else 0.0,
        "lp.rows": total("lp.build", "n"),
        "lp.cols": total("lp.build", "m"),
        "bounds.fact_rows": total("bounds.facts", "n"),
        "bounds.cert_calls": count("bounds.cert"),
        "trace.wall_s": times.wall,
        "trace.thread_wall_s": times.thread_wall,
        "trace.untraced_s": times.untraced,
        "trace.overhead_s": overhead_s,
    })
    return out, times


# --------------------------------------------------------------------------
# manifest
# --------------------------------------------------------------------------

def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def cache_sizes() -> dict[str, str | None]:
    out = {"l2": None, "l3": None}
    try:
        text = subprocess.run(["lscpu"], capture_output=True, text=True, timeout=20).stdout
    except (OSError, subprocess.SubprocessError):
        return out
    for line in text.splitlines():
        key, _, value = line.partition(":")
        if key.strip() in ("L2 cache", "L3 cache"):
            out[key.strip()[:2].lower()] = value.strip()
    return out


def manifest(lib, wl, seed: int, seed_class: int, passes: list[Pass]) -> dict:
    layouts = sorted({
        (c.trials, c.chunk_size, math.ceil(c.trials / c.chunk_size) if c.chunk_size else None)
        for p in passes for c in p.probe.mc_calls
    }, key=str)
    return {
        "git_commit": git_commit(),
        "python": platform.python_version(),
        "numpy": lib.numpy_version,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        **cache_sizes(),
        "workload": wl.name,
        "seed": seed,
        "seed_class": seed_class,
        "trials": wl.trials,
        "workers": wl.workers,
        "chunk_layout": [{"trials": t, "chunk_size": c, "chunks": n} for t, c, n in layouts],
    }


# --------------------------------------------------------------------------
# one workload
# --------------------------------------------------------------------------

def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    wl = WORKLOADS[name]
    seed_class = seed % SEED_CLASSES
    lib = Library()
    reference = load_reference(name, seed_class)

    import_times = [lib.import_s]
    setup_times = []
    passes: list[Pass] = []
    start = time.perf_counter()
    if not trace:
        import_times += [import_seconds() for _ in range(IMPORT_REPEATS)]
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            state = wl.setup(lib)
            setup_times.append(time.perf_counter() - t0)
        while True:
            passes.append(run_pass(lib, wl, seed_class, False, f"job{len(passes)}", state))
            typical = statistics.median(p.wall_s for p in passes)
            if time.perf_counter() - start + typical > seconds:
                break
    else:
        # untraced and traced passes (set-up + job) alternate, at least one each
        while True:
            k = len(passes) // 2
            passes.append(run_pass(lib, wl, seed_class, False, f"untraced{k}"))
            passes.append(run_pass(lib, wl, seed_class, True, f"traced{k}"))
            pair = passes[-1].t1 - passes[-2].t0
            if time.perf_counter() - start + pair > seconds:
                break

    # every pass repeats the same job on the same inputs, so its checks are
    # counted once: `attempted` and `failed` depend on the workload and seed alone
    first = passes[0]
    checks = first.checks + digest_checks(first.digests, reference)
    verdicts = [(c.name, c.ok) for c in first.checks]
    differ = [p.probe.pass_id for p in passes[1:]
              if p.digests != first.digests or [(c.name, c.ok) for c in p.checks] != verdicts]
    checks.append(Check("repeats reproduce the first job", not differ,
                        f"{len(passes) - 1} repeats; differing: {differ[:3]}", "digest"))
    untraced = [p for p in passes if p.kind == "untraced"]
    traced = [p for p in passes if p.kind == "traced"]
    extra: dict = {}
    if trace:
        overhead = (statistics.median(p.t1 - p.t0 for p in traced)
                    - statistics.median(p.t1 - p.t0 for p in untraced))
        rep = sorted(traced, key=lambda p: p.t1 - p.t0)[(len(traced) - 1) // 2]
        metrics, times = per_layer(rep, overhead)
        units = PER_LAYER_UNITS
        extra["traced_pass"] = {"wall_s": times.wall, "thread_wall_s": times.thread_wall,
                                "untraced_s": times.untraced, "self_s": times.self_by_layer}
        # spans that do not nest would make self times negative or double-count
        checks.append(Check("trace spans nest", not times.problems,
                            "; ".join(times.problems[:3]) + f" ({len(times.problems)} spans)"))
    else:
        metrics = end_to_end(import_times, setup_times, passes)
        units = END_TO_END_UNITS

    failed = [c for c in checks if not c.ok]
    result = {
        "correct": not any(c.kind in ("digest", "invariant") for c in failed),
        "attempted": len(checks),
        "failed": len(failed),
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }
    record = {
        "schema": 1,
        "workload": name,
        "trace": int(trace),
        "manifest": manifest(lib, wl, seed, seed_class, passes),
        **result,
        "fail_frac": len(failed) / len(checks),
        "failures": [{"name": c.name, "kind": c.kind, "detail": c.detail} for c in failed],
        "import_s": import_times,
        "setup_repeats_s": setup_times,
        "passes": [{"id": p.probe.pass_id, "kind": p.kind, "setup_s": p.setup_s, "wall_s": p.wall_s,
                    "mc_calls": len(p.probe.mc_calls), "digests": p.digests}
                   for p in passes],
        **extra,
    }
    write_results(record, [sp for p in traced for sp in p.probe.spans])
    return record


def write_results(record: dict, spans: list) -> None:
    RESULTS.mkdir(exist_ok=True)
    stem = f"{record['workload']}-seed{record['manifest']['seed']}-trace{record['trace']}"
    (RESULTS / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if spans:
        with open(RESULTS / f"{stem}-spans.jsonl", "w") as fh:
            for sp in spans:
                fh.write(json.dumps({
                    "id": sp.sid, "parent": sp.parent, "layer": sp.layer, "name": sp.name,
                    "run": sp.pass_id, "thread": sp.thread, "start": sp.t0, "end": sp.t1,
                    "n": sp.n, "m": sp.m, "scheme": sp.scheme,
                }) + "\n")


def print_record(record: dict) -> None:
    m = record["manifest"]
    print(f"workload {record['workload']}  seed {m['seed']} (class {m['seed_class']})  "
          f"trials {m['trials']}  workers {m['workers']}  trace {record['trace']}")
    for name, v in record["metrics"].items():
        print(f"  {name:<28} {v['value']:>16.6g} {v['unit']}")
    print(f"  {'fail_frac':<28} {record['fail_frac']:>16.6g} ratio  "
          f"({record['failed']}/{record['attempted']} checks failed)")
    for f in record["failures"]:
        print(f"  FAILED [{f['kind']}] {f['detail']}")


# --------------------------------------------------------------------------
# all workloads, each in its own process
# --------------------------------------------------------------------------

def run_all(seed: int, seconds: float, trace: int) -> dict:
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    rows = []
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise SystemExit(f"workload {name} exited with {proc.returncode}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, v in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = v
        rows.append((name, result))
    names = list(rows[0][1]["metrics"])
    print(f"{'metric':<28}" + "".join(f"{n:>16}" for n, _ in rows) + "  unit")
    for metric in names + ["fail_frac"]:
        cells = []
        for _, r in rows:
            value = r["failed"] / r["attempted"] if metric == "fail_frac" else r["metrics"][metric]["value"]
            cells.append(f"{value:>16.6g}")
        unit = "ratio" if metric == "fail_frac" else rows[0][1]["metrics"][metric]["unit"]
        print(f"{metric:<28}" + "".join(cells) + f"  {unit}")
    return combined


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "ocrslab" / "__init__.py").is_file():
        print(f"no ocrslab sources under {SRC}: run from the root of a checkout", file=sys.stderr)
        return 2
    if args.workload == "all":
        result = run_all(args.seed, args.seconds, args.trace)
    else:
        record = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
        print_record(record)
        result = {k: record[k] for k in ("correct", "attempted", "failed", "metrics")}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
