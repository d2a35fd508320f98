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

    Elementary-cycle search on an explicit stack over a copy of the
    adjacency that only shrinks. First every vertex with one edge left is
    peeled by removing that edge, repeatedly, since such an edge lies on
    no circuit. Roots are then taken in decreasing degree after that peel,
    ties by vertex index. While a root has two or more edges, its edge to
    its least remaining neighbour a is removed and every simple path from
    a back to the root over the remaining edges is walked: each arrival
    at the root closes one circuit, one whose first removed root edge was
    (root, a), and whose closing edge is still present. So every circuit
    is closed exactly once, by its first root in that order, with no
    direction test. Once a root has one edge left it is peeled, and so is
    every vertex that a removal leaves with one edge. Removed edges never
    come back, so the walk tests no vertex for liveness.

    Cost: one closure per circuit and one push per simple path walked
    from the far end of a removed root edge, so exponential in general,
    as the output can be; edge removals cost O(sum of squared degrees)
    over the whole run. The search depth is bounded by memory, not by the
    interpreter's recursion limit.

    Circuits are held as edge-id tuples while searching; PreconditionError
    fires as soon as the count would exceed max_count, before any Circuit
    is built.
    """
    if max_count < 1:
        raise InputError("max_count must be positive")
    adjacency = [list(nbrs) for nbrs in graph._adjacency]
    on_path = [False] * len(adjacency)
    found: list[tuple[int, ...]] = []

    def peel(doomed: list[int]) -> None:
        while doomed:
            v = doomed.pop()
            if len(adjacency[v]) == 1:
                w, eid = adjacency[v].pop()
                adjacency[w].remove((v, eid))
                if len(adjacency[w]) == 1:
                    doomed.append(w)

    peel(list(range(len(adjacency))))
    for root in sorted(range(len(adjacency)), key=lambda v: -len(adjacency[v])):
        while len(adjacency[root]) >= 2:
            start, first = adjacency[root].pop(0)
            adjacency[start].remove((root, first))
            path_vertices = [start]
            path_edges = [first]
            pending = [iter(adjacency[start])]
            on_path[start] = True
            while pending:
                for nbr, eid in pending[-1]:
                    if nbr == root:
                        if len(found) >= max_count:
                            raise PreconditionError(f"more than {max_count} circuits")
                        found.append((*path_edges, eid))
                    elif not on_path[nbr]:
                        on_path[nbr] = True
                        path_vertices.append(nbr)
                        path_edges.append(eid)
                        pending.append(iter(adjacency[nbr]))
                        break
                else:
                    pending.pop()
                    on_path[path_vertices.pop()] = False
                    path_edges.pop()
            peel([start])
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
