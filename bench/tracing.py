"""In-process traced runs: timing wrappers on each layer's public functions.

No library file is edited. Each wrapper replaces a function at the module
attribute its caller looks it up through (for example
`edge_maps.is_k_connected`, which `reconstruct_vertex_isomorphism` calls),
and records a span: name, start, end, parent span and invocation id.
Spans stay in memory until the run ends. A span's self time is its
duration minus the durations of its child spans.
"""

from __future__ import annotations

import functools
import importlib
import io
import signal
import traceback
from contextlib import contextmanager, redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from time import perf_counter

# (caller module, attribute, span name). The span name is the defining
# module and function, so one layer reads the same from every caller.
WRAPPED = [
    ("cli", "graph_from_json", "graph.graph_from_json"),
    ("cli", "edge_map_from_json", "edge_maps.edge_map_from_json"),
    ("cli", "edge_set_from_pairs", "graph.edge_set_from_pairs"),
    ("cli", "graph_to_json", "graph.graph_to_json"),
    ("cli", "check_circuit_injection", "edge_maps.check_circuit_injection"),
    ("cli", "reconstruct_vertex_isomorphism", "edge_maps.reconstruct_vertex_isomorphism"),
    ("cli", "find_crossing_structure", "structure.find_crossing_structure"),
    ("cli", "random_three_connected", "generators.random_three_connected"),
    ("edge_maps", "enumerate_circuits", "circuits.enumerate_circuits"),
    ("edge_maps", "is_k_connected", "connectivity.is_k_connected"),
    ("edge_maps", "_sampled_circuits", "edge_maps.sampled_circuits"),
    ("generators", "is_k_connected", "connectivity.is_k_connected"),
    ("generators", "random_three_connected", "generators.random_three_connected"),
    ("generators", "random_two_connected", "generators.random_two_connected"),
    ("structure", "is_k_connected", "connectivity.is_k_connected"),
    ("structure", "cutpoints", "connectivity.cutpoints"),
    ("structure", "two_disjoint_paths", "connectivity.two_disjoint_paths"),
    ("structure", "circuit_and_attached_path", "circuits.circuit_and_attached_path"),
    ("circuits", "is_k_connected", "connectivity.is_k_connected"),
    ("circuits", "two_disjoint_paths", "connectivity.two_disjoint_paths"),
]


@dataclass(slots=True)
class Span:
    sid: int
    parent: int | None
    name: str
    invocation: str
    start: float
    end: float = 0.0
    attrs: dict = field(default_factory=dict)


class Recorder:
    """Collects spans; the open-span stack gives each new span its parent."""

    def __init__(self):
        self.spans: list[Span] = []
        self.stack: list[Span] = []
        self.invocation = "-"

    def open(self, name: str, **attrs) -> Span:
        parent = self.stack[-1].sid if self.stack else None
        span = Span(len(self.spans), parent, name, self.invocation, perf_counter(), attrs=attrs)
        self.spans.append(span)
        self.stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = perf_counter()
        self.stack.pop()

    @contextmanager
    def span(self, name: str, **attrs):
        s = self.open(name, **attrs)
        try:
            yield s
        finally:
            self.close(s)


def _timed(rec: Recorder, name: str, fn):
    @functools.wraps(fn)
    def call(*args, **kwargs):
        span = rec.open(name)
        if name == "connectivity.is_k_connected":
            span.attrs["k"] = args[1] if len(args) > 1 else kwargs.get("k")
        try:
            result = fn(*args, **kwargs)
        except BaseException as err:
            span.attrs["error"] = type(err).__name__
            raise
        finally:
            rec.close(span)
        if name == "circuits.enumerate_circuits":
            span.attrs["count"] = len(result)
        return result
    return call


def _timed_generator(rec: Recorder, name: str, fn):
    """Each step of the generator is a span of its own, so sampling time is
    separated from the loop that consumes the samples."""
    @functools.wraps(fn)
    def stream(*args, **kwargs):
        attrs = {"requested": args[1] if len(args) > 1 else kwargs.get("samples")}
        inner = fn(*args, **kwargs)
        while True:
            span = rec.open(name, **attrs)
            attrs = {}
            try:
                item = next(inner)
            except StopIteration:
                return
            finally:
                rec.close(span)
            span.attrs["drawn"] = 1
            yield item
    return stream


@contextmanager
def instrumented(rec: Recorder):
    """Install every wrapper for the duration of the block."""
    saved = []
    for mod_name, attr, name in WRAPPED:
        module = importlib.import_module(f"circuitmap.{mod_name}")
        fn = getattr(module, attr, None)
        if fn is None:
            continue
        wrap = _timed_generator if name == "edge_maps.sampled_circuits" else _timed
        saved.append((module, attr, fn))
        setattr(module, attr, wrap(rec, name, fn))
    try:
        yield
    finally:
        for module, attr, fn in reversed(saved):
            setattr(module, attr, fn)


class InvocationTimeout(BaseException):
    """Raised by the alarm; a BaseException so the CLI's handlers let it pass."""


def _alarm(signum, frame):
    raise InvocationTimeout


def call_cli(main, argv: list[str], timeout: float) -> tuple[int | None, str, str, bool]:
    """Run cli.main(argv) in this process: (exit code, stdout, stderr, timed out)."""
    out, err = io.StringIO(), io.StringIO()
    previous = signal.signal(signal.SIGALRM, _alarm)
    signal.setitimer(signal.ITIMER_REAL, timeout)
    code, timed_out = None, False
    try:
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exit_:
                code = exit_.code
            except InvocationTimeout:
                timed_out = True
            except Exception:
                traceback.print_exc()
                code = 1
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    return code, out.getvalue(), err.getvalue(), timed_out


# -- per-layer metrics -----------------------------------------------------------


def self_times(spans: list[Span]) -> dict[int, float]:
    child = [0.0] * len(spans)
    for s in spans:
        if s.parent is not None:
            child[s.parent] += s.end - s.start
    return {s.sid: (s.end - s.start) - child[s.sid] for s in spans}


def layer_totals(spans: list[Span]) -> dict[str, float]:
    """Counts and times (ms) of one pass, keyed by per-layer metric name.
    Set-up spans are kept apart under "setup."; only generators.* read them."""
    selfs = self_times(spans)
    t: dict[str, float] = {}

    def add(name, value):
        t[name] = t.get(name, 0.0) + value

    for s in spans:
        ms, self_ms = (s.end - s.start) * 1e3, selfs[s.sid] * 1e3
        if (s.name == "connectivity.is_k_connected" and s.parent is not None
                and spans[s.parent].name == "generators.random_three_connected"):
            add("generators.guard_ms", ms)
            add("generators.guard_calls", 1)
        prefix = "setup." if s.invocation == "setup" else ""
        add(prefix + s.name + ".total_ms", ms)
        add(prefix + s.name + ".self_ms", self_ms)
        add(prefix + s.name + ".calls", 1)
        if prefix:
            continue
        if s.name == "connectivity.is_k_connected":
            add(f"connectivity.is_k_connected.k{s.attrs.get('k')}_ms", ms)
        elif s.name == "circuits.enumerate_circuits" and "count" in s.attrs:
            add("circuits.enumerated", s.attrs["count"])
            add("circuits.enumerated_ms", ms)
        elif s.name == "edge_maps.sampled_circuits":
            add("edge_maps.sampled.drawn", s.attrs.get("drawn", 0))
            add("edge_maps.sampled.requested", s.attrs.get("requested", 0))
    return t


def enumerated_by_invocation(spans: list[Span]) -> dict[str, int]:
    out: dict[str, int] = {}
    for s in spans:
        if s.name == "circuits.enumerate_circuits" and "count" in s.attrs:
            out[s.invocation] = out.get(s.invocation, 0) + s.attrs["count"]
    return out


# Per-layer metric -> the pass total it reads. "_ms" metrics are inclusive
# span time, ".self_ms" ones exclude the wrapped callees.
DIRECT = {
    "cli.self_ms": "cli.main.self_ms",
    "graph.graph_from_json_ms": "graph.graph_from_json.total_ms",
    "graph.graph_from_json.calls": "graph.graph_from_json.calls",
    "edge_maps.edge_map_from_json_ms": "edge_maps.edge_map_from_json.total_ms",
    "edge_maps.edge_map_from_json.calls": "edge_maps.edge_map_from_json.calls",
    "edge_maps.check_circuit_injection.self_ms": "edge_maps.check_circuit_injection.self_ms",
    "edge_maps.sampled_circuits_ms": "edge_maps.sampled_circuits.total_ms",
    "edge_maps.reconstruct_vertex_isomorphism.self_ms":
        "edge_maps.reconstruct_vertex_isomorphism.self_ms",
    "connectivity.is_k_connected.k3_ms": "connectivity.is_k_connected.k3_ms",
    "connectivity.is_k_connected.k2_ms": "connectivity.is_k_connected.k2_ms",
    "connectivity.is_k_connected.calls": "connectivity.is_k_connected.calls",
    "connectivity.two_disjoint_paths_ms": "connectivity.two_disjoint_paths.total_ms",
    "connectivity.two_disjoint_paths.calls": "connectivity.two_disjoint_paths.calls",
    "connectivity.cutpoints_ms": "connectivity.cutpoints.total_ms",
    "connectivity.cutpoints.calls": "connectivity.cutpoints.calls",
    "circuits.circuit_and_attached_path_ms": "circuits.circuit_and_attached_path.total_ms",
    "circuits.circuit_and_attached_path.calls": "circuits.circuit_and_attached_path.calls",
    "circuits.enumerate_circuits_ms": "circuits.enumerate_circuits.total_ms",
    "circuits.enumerated": "circuits.enumerated",
    "structure.find_crossing_structure.self_ms": "structure.find_crossing_structure.self_ms",
    "generators.guard_ms": "generators.guard_ms",
}


def per_layer(t: dict[str, float], checked: int, misses: int) -> dict[str, float]:
    """Map one pass's totals onto the per-layer metrics of BENCHMARK.json."""
    def g(name):
        return t.get(name, 0.0)

    def both(name):  # set-up plus CLI invocations
        return g(name) + g("setup." + name)

    def ratio(a, b):
        return a / b if b else 0.0

    out = {name: g(key) for name, key in DIRECT.items()}
    out.update({
        "edge_maps.circuits_checked": checked,
        "edge_maps.sampled.drawn_ratio":
            ratio(g("edge_maps.sampled.drawn"), g("edge_maps.sampled.requested")),
        "edge_maps.sampled.misses": misses,
        "circuits.us_per_circuit":
            ratio(g("circuits.enumerated_ms") * 1e3, g("circuits.enumerated")),
        "generators.random_three_connected.self_ms":
            both("generators.random_three_connected.self_ms"),
        "generators.guard_calls":
            ratio(g("generators.guard_calls"), both("generators.random_three_connected.calls")),
        "generators.random_two_connected_ms": both("generators.random_two_connected.total_ms"),
    })
    return out
