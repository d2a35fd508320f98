"""Command-line front end.

Subcommands: verify, reconstruct, generate, enumerate, classify,
decompose, crossing. All reports are JSON on stdout (suppress with
--quiet); parse and validation problems go to stderr. Exit codes are a
stable interface:

    0  pass / success
    1  input error (unreadable or malformed files, bad parameters)
    2  verification failed (a witness shows the map breaks circuits)
    3  no vertex isomorphism induces the map (reconstruct: its source is
       3-connected, so by the paper's theorem the map breaks a circuit)
    4  precondition failed: a refused connectivity guard reports
       not_two_connected or not_three_connected with its separator; any
       other precondition (desk-scale bounds) is an error: line
    5  internal error (a result failed the library's own check: a bug)

main(argv) returns the exit code, for callers in process, and leaves
their garbage collector as it found it. run(), the entry point of
`python -m circuitmap` and of the `circuitmap` script, turns the cyclic
garbage collector off for the run, flushes the output and leaves with
os._exit, skipping the interpreter's teardown.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
import time

from . import __version__
from .circuits import DEFAULT_MAX_CIRCUITS, enumerate_circuits
from .edge_maps import (
    EdgeMap,
    IndependentEdges,
    StarAt,
    StarViolation,
    _require_covered_target,
    check_circuit_injection,
    classify_star_image,
    classify_star_preimage,
    edge_map_from_json,
    edge_map_to_json,
    reconstruct_vertex_isomorphism,
)
from .errors import (
    DecompositionViolationError,
    InputError,
    InternalError,
    NotInducedError,
    PreconditionError,
)
from .graph import (
    Graph,
    edge_set_from_pairs,
    graph_from_json,
    graph_to_json,
)
from .structure import LinkedCircuitPair, decompose_by_star_preimage, find_crossing_structure

EXIT_PASS = 0
EXIT_INPUT = 1
EXIT_FAIL = 2
EXIT_NOT_INDUCED = 3
EXIT_PRECONDITION = 4
EXIT_INTERNAL = 5

_NOT_CONNECTED = {2: "not_two_connected", 3: "not_three_connected"}


def _file_error(path, err: Exception) -> InputError:
    """A file that cannot be read, decoded, parsed or written, by name."""
    reason = err.strerror if isinstance(err, OSError) and err.strerror else err
    return InputError(f"{path}: {reason}")


def _load(path: str, parse):
    """Parse the JSON file at path; any InputError, the parser's too, names it."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, ValueError, RecursionError) as err:
        # ValueError: undecodable bytes, malformed JSON or an integer literal past
        # the int-conversion limit. RecursionError: JSON nested too deep to follow.
        raise _file_error(path, err) from None
    try:
        return parse(data)
    except InputError as err:
        raise InputError(f"{path}: {err}") from None


def _load_map_files(args) -> EdgeMap:
    """The edge map of args.map between the graphs of args.source and args.target.
    A target with an isolated vertex is refused by its own path."""
    source = _load(args.source, graph_from_json)
    target = _load(args.target, lambda data: _require_covered_target(graph_from_json(data)))
    return _load(args.map, lambda data: edge_map_from_json(source, target, data))


def _pairs(graph: Graph, edge_ids) -> list[list[str]]:
    return [list(graph.endpoints(i)) for i in sorted(edge_ids)]


def _star_class_json(graph: Graph, kind) -> dict:
    if isinstance(kind, StarAt):
        return {"kind": "star", "vertex": kind.vertex}
    if isinstance(kind, IndependentEdges):
        return {"kind": "independent"}
    assert isinstance(kind, StarViolation)
    out = {"kind": "violation", "variant": kind.kind,
           "edges": _pairs(graph, kind.edges)}
    if kind.vertex is not None:
        out["vertex"] = kind.vertex
    return out


def _witness_json(witness) -> dict:
    home = witness.circuit.host
    other = witness.mapped.host
    return {
        "direction": witness.direction,
        "circuit": _pairs(home, witness.circuit.edges),
        "image": _pairs(other, witness.mapped.members),
    }


def _linked_pair_json(graph: Graph, witness: LinkedCircuitPair) -> dict:
    return {
        "kind": "linked_pair",
        "circuit_a": _pairs(graph, witness.circuit_a.edges),
        "circuit_b": _pairs(graph, witness.circuit_b.edges),
        "bridges": _pairs(graph, (witness.bridge_a, witness.bridge_b)),
        "path_vertices": list(witness.path.vertices),
        "path_edge": list(graph.endpoints(witness.path_edge)),
        "anchors_a": list(witness.anchors_a()),
        "anchors_b": list(witness.anchors_b()),
    }


# -- subcommand handlers ------------------------------------------------------
#
# Each handler returns (report, exit code); main times the run and prints.


def _cmd_verify(args) -> tuple[dict, int]:
    verdict = check_circuit_injection(
        _load_map_files(args), mode=args.mode, samples=args.samples,
        seed=args.seed, max_count=args.max_circuits)
    report = {
        "result": "pass" if verdict.passed else "fail",
        "mode": verdict.mode,
        "circuits_checked": verdict.circuits_checked,
    }
    if verdict.stop_reason is not None:
        report["samples_requested"] = verdict.samples_requested
        report["attempts"] = verdict.attempts
        report["stop_reason"] = verdict.stop_reason
    report["witness"] = _witness_json(verdict.witness) if verdict.witness else None
    return report, EXIT_PASS if verdict.passed else EXIT_FAIL


def _cmd_reconstruct(args) -> tuple[dict, int]:
    edge_map = _load_map_files(args)
    try:
        iso = reconstruct_vertex_isomorphism(edge_map)
    except NotInducedError as err:
        witness = {"vertex": err.vertex}
        if err.star_class is not None:
            witness["class"] = _star_class_json(edge_map.target, err.star_class)
        return ({"result": "not_induced", "detail": str(err), "witness": witness},
                EXIT_NOT_INDUCED)
    return {"result": "induced", "vertex_map": {u: w for u, w in iso.pairs}}, EXIT_PASS


def _cmd_generate(args) -> tuple[dict, int]:
    # Imported here, so the other subcommands never load the generators.
    from .generators import build_counterexample, named_graph, random_three_connected

    if args.kind == "counterexample":
        prefix = args.out or f"counterexample_p{args.p}"
        source, target, edge_map = build_counterexample(args.p)
        files = {
            f"{prefix}.source.json": graph_to_json(source),
            f"{prefix}.target.json": graph_to_json(target),
            f"{prefix}.map.json": edge_map_to_json(edge_map),
        }
    elif args.kind == "named":
        graph = named_graph(args.name, args.size)
        prefix = args.out or args.name
        files = {f"{prefix}.json": graph_to_json(graph)}
    else:  # random3c
        graph = random_three_connected(args.n, args.seed)
        prefix = args.out or f"random3c_n{args.n}_s{args.seed}"
        files = {f"{prefix}.json": graph_to_json(graph)}
    for name, data in files.items():
        try:
            with open(name, "w", encoding="utf-8") as fh:
                fh.write(json.dumps(data, indent=2) + "\n")
        except OSError as err:
            raise _file_error(name, err) from None
    return {"result": "ok", "files": sorted(files)}, EXIT_PASS


def _cmd_enumerate(args) -> tuple[dict, int]:
    graph = _load(args.graph, graph_from_json)
    circuits = enumerate_circuits(graph, args.max_circuits)
    report = {
        "result": "ok",
        "count": len(circuits),
        "circuits": [_pairs(graph, ids) for ids in circuits.edge_ids()],
    }
    return report, EXIT_PASS


def _cmd_classify(args) -> tuple[dict, int]:
    edge_map = _load_map_files(args)
    source, target = edge_map.source, edge_map.target
    try:
        images = {v: _star_class_json(target, classify_star_image(edge_map, v))
                  for v in source.vertices}
    except InputError as err:  # an isolated source vertex
        raise InputError(f"{args.source}: {err}") from None
    report = {
        "result": "ok",
        "star_images": images,
        "star_preimages": {
            w: _star_class_json(source, classify_star_preimage(edge_map, w))
            for w in target.vertices},
    }
    return report, EXIT_PASS


def _cmd_decompose(args) -> tuple[dict, int]:
    edge_map = _load_map_files(args)
    try:
        side_a, side_b, crossing = decompose_by_star_preimage(edge_map, args.vertex)
    except DecompositionViolationError as err:
        return {"result": "decomposition_violation", "detail": str(err)}, EXIT_FAIL
    report = {
        "result": "ok",
        "vertex": args.vertex,
        "side_a": list(side_a),
        "side_b": list(side_b),
        "crossing": _pairs(edge_map.source, crossing.members),
    }
    return report, EXIT_PASS


def _cmd_crossing(args) -> tuple[dict, int]:
    graph = _load(args.graph, graph_from_json)
    crossing = _load(args.cut, lambda pairs: edge_set_from_pairs(graph, pairs))
    outcome = find_crossing_structure(graph, crossing)
    if isinstance(outcome, LinkedCircuitPair):
        report = {"result": "linked_pair",
                  "witness": _linked_pair_json(graph, outcome)}
    else:
        report = {"result": "circuit",
                  "circuit": _pairs(graph, outcome.edges),
                  "crossing_edges_used":
                      len(set(outcome.edges) & crossing.members)}
    return report, EXIT_PASS


# -- parser -------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """Usage errors are bad parameters: exit 1, not argparse's 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_INPUT, f"error: {message}\n")


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be positive, got {value}")
    return value


_MAP_FILES = ("source", "target", "map")
_FILE_HELP = {"source": "source graph JSON file", "target": "target graph JSON file",
              "map": "edge map JSON file", "graph": "graph JSON file",
              "cut": "JSON list of endpoint pairs"}


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="circuitmap",
        description="Verify circuit-preserving edge maps between finite "
                    "graphs, reconstruct inducing vertex isomorphisms, and "
                    "generate reference instances.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def command(group, name, handler, help, *files):
        p = group.add_parser(name, help=help)
        for file in files:
            p.add_argument(file, help=_FILE_HELP[file])
        p.add_argument("--quiet", action="store_true", help="suppress the JSON report")
        p.set_defaults(handler=handler)
        return p

    p = command(sub, "verify", _cmd_verify, "check that a map preserves circuits",
                *_MAP_FILES)
    p.add_argument("--mode", choices=("exhaustive", "sampled"), default="exhaustive")
    p.add_argument("--samples", type=_positive_int, default=500,
                   help="circuits to draw in sampled mode")
    p.add_argument("--seed", type=int, default=1, help="seed for sampled mode")
    p.add_argument("--max-circuits", type=_positive_int, default=DEFAULT_MAX_CIRCUITS)

    command(sub, "reconstruct", _cmd_reconstruct,
            "recover the vertex isomorphism inducing a map", *_MAP_FILES)

    kinds = sub.add_parser("generate", help="write reference instances to files"
                           ).add_subparsers(dest="kind", required=True)
    g = command(kinds, "counterexample", _cmd_generate,
                "the non-induced circuit injection family")
    g.add_argument("--p", type=int, required=True, help="prime parameter, greater than 2")
    g.add_argument("--out", help="output file prefix")
    g = command(kinds, "named", _cmd_generate, "catalog graph")
    g.add_argument("--name", required=True)
    g.add_argument("--size", type=int)
    g.add_argument("--out")
    g = command(kinds, "random3c", _cmd_generate, "seeded random 3-connected graph")
    g.add_argument("--n", type=int, required=True)
    g.add_argument("--seed", type=int, default=1)
    g.add_argument("--out")

    p = command(sub, "enumerate", _cmd_enumerate, "list every circuit of a graph", "graph")
    p.add_argument("--max-circuits", type=_positive_int, default=DEFAULT_MAX_CIRCUITS)

    command(sub, "classify", _cmd_classify,
            "star image and preimage classes under a map", *_MAP_FILES)

    p = command(sub, "decompose", _cmd_decompose,
                "split the source along an independent star preimage", *_MAP_FILES)
    p.add_argument("--vertex", required=True,
                   help="target vertex whose star preimage to delete")

    command(sub, "crossing", _cmd_crossing,
            "certify an independent crossing edge family", "graph", "cut")

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    started = time.perf_counter()
    try:
        report, code = args.handler(args)
    except InputError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_INPUT
    except PreconditionError as err:
        if err.k is None:
            print(f"error: {err}", file=sys.stderr)
            return EXIT_PRECONDITION
        report = {"result": _NOT_CONNECTED[err.k], "detail": str(err),
                  "separator": err.separator}
        code = EXIT_PRECONDITION
    except Exception as err:  # InternalError, or a fault no check anticipated
        from traceback import extract_tb

        detail = err if isinstance(err, InternalError) else f"{type(err).__name__}: {err}"
        where = extract_tb(err.__traceback__)[-1]
        print(f"error: internal error: {detail} "
              f"(raised at {os.path.basename(where.filename)}:{where.lineno})",
              file=sys.stderr)
        return EXIT_INTERNAL
    report["elapsed_ms"] = int(round((time.perf_counter() - started) * 1000))
    if not args.quiet:
        try:
            print(json.dumps(report, indent=2))
        except BrokenPipeError:
            pass  # the reader left; the exit code stands
    return code


def run():
    """Entry point of `python -m circuitmap` and of the `circuitmap` script.

    Runs main, or takes the status of argparse's SystemExit (--version,
    --help, usage errors) under the interpreter's rule, flushes stdout and
    stderr and leaves with os._exit, never returning: the interpreter's
    teardown, which frees every object, costs a run about as much as the
    library's own work. A reader that has closed stdout loses the rest of
    the output, --version and --help included, but not the exit code, and
    stderr stays empty. The cyclic garbage collector is off for the run:
    the process is short-lived, and its collections only cost time, since
    whatever a reference cycle holds is freed when the process ends.
    """
    gc.disable()
    try:
        code = main()
    except SystemExit as done:
        code = done.code
    if code is None:
        code = 0
    elif not isinstance(code, int):  # the interpreter prints such a status, exits 1
        print(code, file=sys.stderr)
        code = 1
    for stream in (sys.stdout, sys.stderr):
        if stream is not None:  # None: the descriptor was closed at start-up
            try:
                stream.flush()
            except BrokenPipeError:
                pass
    os._exit(code)
