"""Circuit recognition, enumeration, and constructive circuit-plus-path search.

A circuit is the edge set of a simple cycle: nonempty, connected, every
touched vertex of degree exactly 2. Enumeration returns every distinct
circuit in canonical order (sorted edge-id tuples compared
lexicographically) and refuses instances beyond a configurable count, since
the exhaustive checks built on top of it are meant for desk-scale graphs.
"""

from __future__ import annotations

from .connectivity import is_k_connected, two_disjoint_paths
from .errors import InputError, InternalError, PreconditionError
from .graph import (
    Circuit,
    EdgeSet,
    Graph,
    Path,
    _edge_ids_form_circuit,
    require_same_host,
)

DEFAULT_MAX_CIRCUITS = 100_000


def is_circuit(graph: Graph, edge_set: EdgeSet) -> bool:
    """Recognize the edge set of a simple cycle inside graph."""
    require_same_host(graph, edge_set)
    return _edge_ids_form_circuit(graph, edge_set.members)


def enumerate_circuits(graph: Graph, max_count: int = DEFAULT_MAX_CIRCUITS) -> list[Circuit]:
    """All distinct circuits of the graph in canonical order.

    Elementary-cycle search on an explicit stack: each circuit is
    discovered exactly once from its smallest vertex (by vertex index),
    walking only through live vertices, with one of the two traversal
    directions kept. A vertex is live while it is no smaller than the
    current root and has at least two live neighbours: once a root is
    done it is peeled, together with every vertex whose live degree then
    drops to 1 or less, since none of them lies on a circuit left to find.
    Peeling costs O(n + m) over the whole run, and the search depth is
    bounded by memory, not by the interpreter's recursion limit.

    Circuits are held as edge-id tuples while searching; PreconditionError
    fires as soon as the count would exceed max_count, before any Circuit
    is built.
    """
    if max_count < 1:
        raise InputError("max_count must be positive")
    adjacency = graph._adjacency
    n = len(adjacency)
    live = [True] * n
    degree = [len(nbrs) for nbrs in adjacency]
    on_path = [False] * n
    found: list[tuple[int, ...]] = []

    def peel(doomed: list[int]) -> None:
        while doomed:
            v = doomed.pop()
            if live[v]:
                live[v] = False
                for w, _ in adjacency[v]:
                    if live[w]:
                        degree[w] -= 1
                        if degree[w] <= 1:
                            doomed.append(w)

    peel([v for v in range(n) if degree[v] <= 1])
    for root in range(n):
        if not live[root]:
            continue
        path_vertices = [root]
        path_edges: list[int] = []
        pending = [iter(adjacency[root])]
        on_path[root] = True
        while pending:
            for nbr, eid in pending[-1]:
                if nbr == root:
                    # Close the cycle; need length >= 3 and one fixed direction.
                    if len(path_edges) >= 2 and path_vertices[1] < path_vertices[-1]:
                        if len(found) >= max_count:
                            raise PreconditionError(
                                f"more than {max_count} circuits")
                        found.append((*path_edges, eid))
                elif live[nbr] and not on_path[nbr]:
                    on_path[nbr] = True
                    path_vertices.append(nbr)
                    path_edges.append(eid)
                    pending.append(iter(adjacency[nbr]))
                    break
            else:
                pending.pop()
                on_path[path_vertices.pop()] = False
                if path_edges:
                    path_edges.pop()
        peel([root])
    found.sort(key=sorted)
    return [Circuit(graph, frozenset(ids)) for ids in found]


def circuit_and_attached_path(graph: Graph, a: str, b: str, c: str
                              ) -> tuple[Circuit, Path, str]:
    """Circuit through a and b, plus a path hanging c onto it.

    For distinct vertices a, b, c of a 2-connected graph, returns
    (C, P, t) where C is a circuit containing a and b, t is a vertex of C,
    and P is a path from c to t sharing only t with C. When c already lies
    on C, P is empty and t = c; otherwise t avoids both a and b.
    """
    for v in (a, b, c):
        graph.require_vertex(v)
    if len({a, b, c}) != 3:
        raise InputError("a, b, c must be distinct")
    if not is_k_connected(graph, 2):
        raise PreconditionError("attachment search needs a 2-connected graph")

    first, second = two_disjoint_paths(graph, a, b)
    circuit = Circuit(graph, frozenset(first.edges) | frozenset(second.edges))
    on_circuit = circuit.vertex_set()
    if c in on_circuit:
        result = (circuit, Path.empty(graph, c), c)
    else:
        # Attach c: route two disjoint paths from c to some circuit vertex v
        # other than a, b and cut each at its first contact with the circuit.
        v = min(on_circuit - {a, b})
        toward_1, toward_2 = two_disjoint_paths(graph, c, v)
        prefix_1, t1 = _cut_at_first_contact(toward_1, on_circuit)
        prefix_2, t2 = _cut_at_first_contact(toward_2, on_circuit)
        if {t1, t2} == {a, b}:
            # Both probes pass through a and b, so the two full probe paths
            # close into a circuit through a and b that already contains c.
            joined = Circuit(graph, frozenset(toward_1.edges) | frozenset(toward_2.edges))
            result = (joined, Path.empty(graph, c), c)
        elif t1 not in (a, b):
            result = (circuit, prefix_1, t1)
        else:
            result = (circuit, prefix_2, t2)
    validate_attached_path(graph, a, b, c, *result)
    return result


def _cut_at_first_contact(path: Path, targets: frozenset[str]) -> tuple[Path, str]:
    """Truncate a path (walking from its start) at its first vertex in targets."""
    for k, v in enumerate(path.vertices):
        if k > 0 and v in targets:
            return Path(path.host, path.vertices[:k + 1], path.edges[:k]), v
    raise InternalError("path never meets the target set")


def validate_attached_path(graph: Graph, a: str, b: str, c: str,
                           circuit: Circuit, path: Path, t: str) -> None:
    """Assert the circuit-plus-attached-path postcondition; InternalError if broken."""
    on_circuit = circuit.vertex_set()
    if circuit.host != graph or path.host != graph:
        raise InternalError("result hosted on the wrong graph")
    if a not in on_circuit or b not in on_circuit:
        raise InternalError("circuit misses a or b")
    if t not in on_circuit:
        raise InternalError("attachment vertex is not on the circuit")
    if path.is_empty():
        if t != c or c not in on_circuit:
            raise InternalError("empty path requires t = c on the circuit")
        return
    if t in (a, b):
        raise InternalError("nonempty path may not attach at a or b")
    if path.ends() != (c, t):
        raise InternalError("path must run from c to t")
    overlap = set(path.vertices) & on_circuit
    if overlap != {t}:
        raise InternalError(f"path meets the circuit at {sorted(overlap)}, not only t")
