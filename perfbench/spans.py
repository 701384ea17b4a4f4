"""Outside-in instrumentation of the ocrslab layers.

A :class:`Probe` replaces module-level functions and engine methods of the
library with thin wrappers, from the benchmark's side only, and puts every
original back on :meth:`Probe.remove`.  Nothing under ``src/`` is edited.

Two kinds of wrapper exist:

* ``monte_carlo`` is always wrapped, traced or not, so that every report can
  be digested and every call timed for ``edge_trials_per_s``;
* with ``trace=True`` each layer boundary of the table in README.md is
  wrapped too, and each call becomes a span (name, start, end, parent span,
  pass id) kept in memory until the run writes it out.

Spans from the ``workers`` threads of ``monte_carlo`` are appended under a
lock; a span opened on a pool thread takes the span open on the main thread
(the ``monte_carlo`` call waiting for it) as its parent.  Thread 0 is the
thread that made the probe.
"""

from __future__ import annotations

import functools
import inspect
import threading
import time
from dataclasses import dataclass, field

# (module attribute path, layer).  The same function is wrapped under every
# name the library calls it by, since `from x import f` copies the binding.
FUNCTION_LAYERS = (
    ("simulate", "hash_uniform", "rng"),
    ("_rng", "hash_uniform", "rng"),
    ("simulate", "attenuation_profile", "attenuation"),
    ("attenuation", "attenuation_profile", "attenuation"),
    ("simulate", "_q_counts", "qcount"),
    ("simulate", "_reduce_chunk", "reduce"),
    ("graphcore", "edge_stats", "edge_stats"),
    ("suite", "edge_stats", "edge_stats"),
    ("graphcore", "generate_family", "generate"),
    ("suite", "generate_family", "generate"),
    ("simulate", "exact_trivial_oracle", "oracle"),
    ("suite", "exact_trivial_oracle", "oracle"),
    ("simulate", "optimal_policy_dp", "oracle"),
    ("suite", "optimal_policy_dp", "oracle"),
    ("simulate", "greedy_baseline", "oracle"),
    ("suite", "greedy_baseline", "oracle"),
    ("lp", "build_lp_pricing", "lp.build"),
    ("suite", "build_lp_pricing", "lp.build"),
    ("lp", "solve_lp", "lp.solve"),
    ("suite", "solve_lp", "lp.solve"),
    ("lp", "two_weight_reduction", "lp.reduce"),
    ("lp", "single_weight_selection", "lp.reduce"),
    ("bounds", "verify_facts", "bounds.facts"),
    ("bounds", "five_var_minimize", "bounds.cert"),
)

MC_NAMES = (("simulate", "monte_carlo"), ("suite", "monte_carlo"))

# engine class -> scheme label of its chunks
ENGINE_SCHEMES = {
    "RoOcrsEngine": "ro",
    "StochasticOcrsEngine": "stochastic",
    "VertexArrivalEngine": "vertex",
    "SequentialPricingEngine": "pricing",
}

SCHEMES = tuple(ENGINE_SCHEMES.values())


@dataclass
class Span:
    sid: int
    parent: int | None
    layer: str
    name: str
    pass_id: str
    thread: int
    t0: float
    t1: float = 0.0
    n: int = 0  # work count: uniforms drawn, LP rows, fact rows
    m: int = 0  # second count: LP columns
    scheme: str = ""


@dataclass
class McCall:
    """One monte_carlo call as seen from outside: its report and wall time."""

    report: object
    trials: int
    workers: int  # as passed; every workload passes it
    chunk_size: int | None
    seconds: float


def _count_of(layer: str, out) -> tuple[int, int]:
    if layer == "rng":
        return int(getattr(out, "size", 1)), 0
    if layer == "lp.build":
        rows, cols = out.A.shape
        return int(rows), int(cols)
    if layer == "bounds.facts":
        return len(out), 0
    return 0, 0


class Probe:
    """Installs the wrappers on import-resolved ocrslab modules."""

    def __init__(self, modules: dict, trace: bool):
        self.modules = modules
        self.trace = trace
        self.spans: list[Span] = []
        self.mc_calls: list[McCall] = []
        self.pass_id = "-"
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._main_thread = threading.get_ident()
        self._next_sid = 0
        self._threads: dict[int, int] = {self._main_thread: 0}
        self._saved: list[tuple[object, str, object]] = []

    # ---- patching ------------------------------------------------------

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("probe already installed")
        for mod, name in MC_NAMES:
            self._patch(self.modules[mod], name, self._mc_wrapper)
        if not self.trace:
            return
        for mod, name, layer in FUNCTION_LAYERS:
            self._patch(self.modules[mod], name, self._span_wrapper(layer))
        simulate = self.modules["simulate"]
        for cls_name, scheme in ENGINE_SCHEMES.items():
            cls = getattr(simulate, cls_name)
            self._patch(cls, "run_chunk", self._span_wrapper("chunk", scheme))
            self._patch(cls, "__init__", self._span_wrapper("engine_init"))

    def remove(self) -> None:
        while self._saved:
            owner, name, orig = self._saved.pop()
            setattr(owner, name, orig)

    def patched(self) -> list[tuple[object, str, object]]:
        return list(self._saved)

    def _patch(self, owner, name: str, make) -> None:
        orig = owner.__dict__[name]
        self._saved.append((owner, name, orig))
        setattr(owner, name, functools.wraps(orig)(make(orig)))

    # ---- wrappers --------------------------------------------------------

    def _mc_wrapper(self, orig):
        probe = self
        sig = inspect.signature(orig)

        def wrapper(*args, **kwargs):
            call = sig.bind(*args, **kwargs)
            call.apply_defaults()
            span = probe._open("mc", orig.__qualname__) if probe.trace else None
            t0 = time.perf_counter()
            try:
                report = orig(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                if span is not None:
                    probe._close(span)
            given = call.arguments
            with probe._lock:
                probe.mc_calls.append(
                    McCall(report, given["trials"], given.get("workers"), given.get("chunk_size"), dt)
                )
            return report

        return wrapper

    def _span_wrapper(self, layer: str, scheme: str = ""):
        probe = self

        def make(orig):
            def wrapper(*args, **kwargs):
                span = probe._open(layer, orig.__qualname__, scheme)
                try:
                    out = orig(*args, **kwargs)
                    span.n, span.m = _count_of(layer, out)
                    return out
                finally:
                    probe._close(span)

            return wrapper

        return make

    # ---- span bookkeeping ------------------------------------------------

    def _stack(self) -> list[int]:
        if threading.get_ident() == self._main_thread:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, layer: str, name: str, scheme: str = "") -> Span:
        stack = self._stack()
        parent = stack[-1] if stack else None
        if parent is None and stack is not self._main_stack and self._main_stack:
            # a pool thread: its caller is whatever the main thread has open
            parent = self._main_stack[-1]
        ident = threading.get_ident()
        with self._lock:
            sid = self._next_sid
            self._next_sid += 1
            thread = self._threads.setdefault(ident, len(self._threads))
        span = Span(sid, parent, layer, name, self.pass_id, thread, 0.0, scheme=scheme)
        stack.append(sid)
        span.t0 = time.perf_counter()
        return span

    def _close(self, span: Span) -> None:
        span.t1 = time.perf_counter()
        self._stack().pop()
        with self._lock:
            self.spans.append(span)


# --------------------------------------------------------------------------
# self time
# --------------------------------------------------------------------------

@dataclass
class PassTimes:
    wall: float  # the pass, on the main thread
    thread_wall: float  # summed over threads, see self_times
    untraced: float  # summed over threads
    self_by_layer: dict[str, float] = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)


def self_times(spans: list[Span], t_start: float, t_end: float) -> PassTimes:
    """Busy time per layer, summed over threads, for the pass [t_start, t_end].

    A span's self time is its duration minus the durations of its children on
    the same thread.  A thread's wall time is the pass for the main thread,
    and for a pool thread the duration of the ``monte_carlo`` calls it ran
    chunks for.  The part of a thread's wall time that its top-level spans do
    not cover is untraced.  Per thread, self times plus untraced time then
    equal its wall time, provided the spans nest: each inside its parent (or
    its thread's wall time) and apart from its siblings.  Every span that does
    not is named in ``problems``.
    """
    by_sid = {sp.sid: sp for sp in spans}
    self_s = {sp.sid: sp.t1 - sp.t0 for sp in spans}
    # (thread, enclosing span or None for the pass) -> its spans on that thread
    groups: dict[tuple[int, int | None], list[Span]] = {}
    problems = []
    for sp in spans:
        parent = by_sid.get(sp.parent)
        if parent is not None and parent.thread == sp.thread:
            self_s[parent.sid] -= sp.t1 - sp.t0
        elif sp.thread != 0 and parent is None:
            problems.append(f"span {sp.sid} ({sp.name}) on pool thread {sp.thread} has no caller")
            continue
        groups.setdefault((sp.thread, parent.sid if parent else None), []).append(sp)

    wall = t_end - t_start
    out = PassTimes(wall=wall, thread_wall=wall, untraced=wall, problems=problems)
    for (thread, outer), group in groups.items():
        lo, hi = (t_start, t_end) if outer is None else (by_sid[outer].t0, by_sid[outer].t1)
        group.sort(key=lambda sp: sp.t0)
        end = lo
        for sp in group:
            if sp.t0 < end or sp.t1 > hi:
                problems.append(f"span {sp.sid} ({sp.name}) on thread {thread} "
                                f"overlaps a sibling or leaves its parent")
            end = max(end, sp.t1)
        covered = sum(sp.t1 - sp.t0 for sp in group)
        if outer is None:  # top level of the main thread
            out.untraced -= covered
        elif by_sid[outer].thread != thread:  # top level of a pool thread
            out.thread_wall += hi - lo
            out.untraced += hi - lo - covered
    for sp in spans:
        out.self_by_layer[sp.layer] = out.self_by_layer.get(sp.layer, 0.0) + self_s[sp.sid]
    return out
