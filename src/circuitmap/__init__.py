"""Verification and reconstruction for circuit-preserving edge maps.

A one-to-one edge map between finite simple graphs is a circuit injection
when it sends the edge set of every circuit of the source onto a circuit
of the target. This package checks that property (with witnesses on
failure), classifies how vertex stars travel under such maps, and, for
3-connected sources, reconstructs the unique vertex isomorphism inducing
the map. It also generates the family of 2-connected counterexamples
showing the 3-connectivity requirement is sharp.

Submodules load on first use (PEP 562): `from circuitmap import Graph`
imports `circuitmap.graph` only. A CLI run imports every submodule but
`generators` (only `generate` loads it), because `cli` and `edge_maps`
bind at import the names the benchmark's tracer wraps.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

# Each public name, keyed to the submodule that defines it.
_HOME = {name: module for module, names in (
    ("circuits", "DEFAULT_MAX_CIRCUITS circuit_and_attached_path enumerate_circuits"
                 " is_circuit validate_attached_path"),
    ("connectivity", "cutpoints is_k_connected two_disjoint_paths"),
    ("edge_maps", "EdgeMap IndependentEdges MapWitness StarAt StarImageClass"
                  " StarViolation Verdict VertexIso check_circuit_injection"
                  " check_circuit_isomorphism classify_star_image classify_star_preimage"
                  " edge_map_from_json edge_map_to_json is_induced_by"
                  " reconstruct_vertex_isomorphism"),
    ("errors", "CircuitMapError DecompositionViolationError InputError InternalError"
               " NotInducedError PreconditionError"),
    ("generators", "build_counterexample complete_bipartite named_graph permuted_edge_map"
                   " random_three_connected random_two_connected theta_graph"),
    ("graph", "Circuit EdgeSet Graph Path build_graph edge_set_from_pairs"
              " graph_from_json graph_to_json induced_subgraph"),
    ("structure", "LinkedCircuitPair decompose_by_star_preimage find_crossing_structure"
                  " validate_linked_pair"),
) for name in names.split()}
_SUBMODULES = frozenset(_HOME.values()) | {"cli", "rng"}
__all__ = ["__version__", *_HOME]


def __getattr__(name):
    if name in _SUBMODULES:
        return _import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(_import_module(f"{__name__}.{_HOME[name]}"), name)
    return value


def __dir__():
    return sorted(set(globals()) | set(_HOME) | _SUBMODULES)
