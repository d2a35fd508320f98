"""Verification and reconstruction for circuit-preserving edge maps.

A one-to-one edge map between finite simple graphs is a circuit injection
when it sends the edge set of every circuit of the source onto a circuit
of the target. This package checks that property (with witnesses on
failure), classifies how vertex stars travel under such maps, and, for
3-connected sources, reconstructs the unique vertex isomorphism inducing
the map. It also generates the family of 2-connected counterexamples
showing the 3-connectivity requirement is sharp.
"""

from .circuits import (
    DEFAULT_MAX_CIRCUITS,
    circuit_and_attached_path,
    enumerate_circuits,
    is_circuit,
    validate_attached_path,
)
from .connectivity import cutpoints, is_k_connected, two_disjoint_paths
from .edge_maps import (
    EdgeMap,
    IndependentEdges,
    MapWitness,
    StarAt,
    StarImageClass,
    StarViolation,
    Verdict,
    VertexIso,
    check_circuit_injection,
    check_circuit_isomorphism,
    classify_star_image,
    classify_star_preimage,
    decompose_by_star_preimage,
    edge_map_from_json,
    edge_map_to_json,
    is_induced_by,
    reconstruct_vertex_isomorphism,
)
from .errors import (
    CircuitMapError,
    DecompositionViolationError,
    InputError,
    InternalError,
    NotInducedError,
    PreconditionError,
)
from .generators import (
    build_counterexample,
    complete_bipartite,
    named_graph,
    permuted_edge_map,
    random_three_connected,
    random_two_connected,
    theta_graph,
)
from .graph import (
    Circuit,
    EdgeSet,
    Graph,
    Path,
    build_graph,
    components,
    delete_edges,
    edge_set_from_pairs,
    graph_from_json,
    graph_to_json,
    induced_subgraph,
    star,
)
from .structure import (
    LinkedCircuitPair,
    connector_images_nonadjacent,
    find_crossing_structure,
    validate_linked_pair,
)

__version__ = "0.1.0"
