"""Circuit recognition, enumeration, and constructive circuit-plus-path search.

A circuit is the edge set of a simple cycle: nonempty, connected, every
touched vertex of degree exactly 2. Enumeration returns every distinct
circuit in canonical order (sorted edge-id tuples compared
lexicographically) and refuses instances beyond a configurable count, since
the exhaustive checks built on top of it are meant for desk-scale graphs.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence

from .connectivity import _refusal, is_k_connected, two_disjoint_paths
from .errors import InputError, InternalError, PreconditionError, _require_int
from .graph import (
    Circuit,
    EdgeSet,
    Graph,
    Path,
    _edge_ids_form_circuit,
)

DEFAULT_MAX_CIRCUITS = 100_000


def is_circuit(graph: Graph, edge_set: EdgeSet) -> bool:
    """Recognize the edge set of a simple cycle inside graph."""
    if edge_set.host != graph:
        raise InputError("edge set is hosted on a different graph")
    return _edge_ids_form_circuit(graph, edge_set.members)


def enumerate_circuits(graph: Graph, max_count: int = DEFAULT_MAX_CIRCUITS) -> _CircuitMasks:
    """All distinct circuits of the graph in canonical order.

    The result is a read-only sequence of Circuit: its length is the
    circuit count, and indexing, slicing and iteration build each
    validated Circuit as it is read. Its edge_ids() yields each circuit's
    edge ids as a list instead, building no Circuit, which is how the
    exhaustive check and the enumerate subcommand read it.

    Elementary-cycle search on an explicit stack over a contracted copy
    of the graph that only shrinks. First every vertex with one edge left
    is peeled by removing that edge, repeatedly, since such an edge lies
    on no circuit. What is left, the 2-core, is cut into its K chains: a
    chain is a maximal path whose inner vertices have degree 2, or a whole
    component that is a bare cycle. A chain that returns to its own start,
    and a bare cycle, is a circuit by itself and is stored at once. Every
    other chain becomes one edge of the skeleton, a multigraph on the
    vertices of degree 3 or more, which may join two of them by parallel
    edges; every circuit of the graph outside those is a circuit of the
    skeleton, chain by chain.

    The search runs on the skeleton, peeled in the same way. Roots are
    taken in decreasing skeleton degree, ties by vertex index. While a
    root has two or more edges, its edge to its least remaining neighbour
    a is removed and every simple path from a back to the root over the
    remaining edges is walked: each arrival at the root closes one
    circuit, one whose first removed root edge was (root, a), and whose
    closing edge is still present. So every circuit is closed exactly
    once, by its first root in that order, with no direction test. Once a
    root has one edge left it is peeled, and so is every vertex that a
    removal leaves with one edge. Removed edges never come back, so the
    walk tests no vertex for liveness.

    A circuit is stored as an integer mask over the chains: the chain of
    rank r by least edge id takes bit K-1-r, each stack entry (vertex,
    mask, neighbour iterator) carries the mask of the chains on the path
    up to its vertex, and each closure stores one int. Sorting the masks in
    decreasing order gives canonical order. Two circuits are never
    nested, so A's sorted edge ids come first iff the least id in A △ B
    lies in A; that id is the least id of a chain in A △ B, the chain of
    least rank, which is the highest bit where the two masks differ.

    Cost: one closure per circuit and one push per simple path walked
    from the far end of a removed root edge, so exponential in general,
    as the output can be. Each push and closure costs O(K/30) digit
    operations on the skeleton, not the graph, and a stored circuit takes
    about K/8 + 36 bytes (an int and its list slot) where an edge-id tuple
    of it would take 8·|C| + 72. The peel and the contraction are linear
    in the graph, edge removals cost O(sum of squared skeleton degrees)
    over the whole run, and the search depth is bounded by memory, not by
    the interpreter's recursion limit. Nothing is expanded here: a mask
    is expanded to edge ids when read (a K-bit shift per chain in it,
    and |C| ids), and a Circuit built from them costs O(|C|) more to
    validate, so a reader that stops early pays for no later circuit.

    PreconditionError fires as soon as the count would exceed max_count,
    during the search, when no mask has been expanded and no Circuit built.
    """
    _require_int(max_count, 1, "max_count must be positive", "max_count")
    n = len(graph._adjacency)
    adjacency = [list(nbrs) for nbrs in graph._adjacency]
    _peel(adjacency, range(n))

    # Chains as (least id, ids, start, end). They are walked from every
    # vertex of degree 3 or more first, so a walk from a vertex of degree 2
    # only starts on a bare cycle, and runs round it back to its start.
    chains = []
    walked = [False] * len(graph.edges)
    for v in sorted(range(n), key=lambda v: len(adjacency[v]) < 3):
        for w, eid in adjacency[v]:
            if walked[eid]:
                continue
            ids = [eid]
            walked[eid] = True
            end, last = w, eid
            while end != v and len(adjacency[end]) == 2:
                (x, e), (y, f) = adjacency[end]
                end, last = (y, f) if e == last else (x, e)
                ids.append(last)
                walked[last] = True
            chains.append((min(ids), ids, v, end))
    chains.sort()

    found: list[int] = []
    skeleton: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for rank, (_, _, v, w) in enumerate(chains):
        bit = 1 << (len(chains) - 1 - rank)
        if v == w:
            found.append(bit)
        else:
            skeleton[v].append((w, bit))
            skeleton[w].append((v, bit))
    if len(found) > max_count:
        raise PreconditionError(f"more than {max_count} circuits")
    for nbrs in skeleton:
        nbrs.sort()
    _peel(skeleton, range(n))

    on_path = [False] * n
    for root in sorted(range(n), key=lambda v: -len(skeleton[v])):
        while len(skeleton[root]) >= 2:
            start, first = skeleton[root].pop(0)
            skeleton[start].remove((root, first))
            on_path[start] = True
            stack = [(start, first, iter(skeleton[start]))]
            while stack:
                x, mask, pending = stack[-1]
                for nbr, bit in pending:
                    if nbr == root:
                        if len(found) >= max_count:
                            raise PreconditionError(f"more than {max_count} circuits")
                        found.append(mask | bit)
                    elif not on_path[nbr]:
                        on_path[nbr] = True
                        stack.append((nbr, mask | bit, iter(skeleton[nbr])))
                        break
                else:
                    stack.pop()
                    on_path[x] = False
            _peel(skeleton, [start])
        _peel(skeleton, [root])

    found.sort(reverse=True)
    return _CircuitMasks(graph, [ids for _, ids, _, _ in chains], found)


class _CircuitMasks(Sequence):
    """The read-only result of enumerate_circuits: the chain masks in
    canonical order, each built into a validated Circuit when it is read.

    by_rank[r] lists the edge ids of the chain of rank r, which a mask
    holds at bit K-1-r. Indexing and iteration build one Circuit per
    circuit read, and a slice a list of them; edge_ids() expands the masks
    without building any.
    """

    __slots__ = ("_graph", "_by_rank", "_masks")

    def __init__(self, graph: Graph, by_rank: list[list[int]], masks: list[int]):
        self._graph, self._by_rank, self._masks = graph, by_rank, masks

    def __len__(self) -> int:
        return len(self._masks)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self._built(mask) for mask in self._masks[index]]
        return self._built(self._masks[index])

    def __iter__(self) -> Iterator[Circuit]:
        return map(self._built, self._masks)

    def edge_ids(self) -> Iterator[list[int]]:
        """Each circuit's edge ids, circuits in canonical order, expanded
        from its mask only when the iterator reaches it."""
        return map(self._expanded, self._masks)

    def _expanded(self, mask: int) -> list[int]:
        """Its chains' id lists from the highest set bit (least rank) down:
        one K-bit shift per chain in the circuit, and |C| ids."""
        ids, top = [], len(self._by_rank) - 1
        while mask:
            bit = mask.bit_length() - 1
            ids.extend(self._by_rank[top - bit])
            mask ^= 1 << bit
        return ids

    def _built(self, mask: int) -> Circuit:
        return Circuit(self._graph, self._expanded(mask))


def _peel(adjacency: list[list[tuple[int, int]]], doomed) -> None:
    """Remove the edge of every vertex left with one, repeatedly."""
    doomed = list(doomed)
    while doomed:
        v = doomed.pop()
        if len(adjacency[v]) == 1:
            w, edge = adjacency[v].pop()
            adjacency[w].remove((v, edge))
            if len(adjacency[w]) == 1:
                doomed.append(w)


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
        raise _refusal(graph, 2, "attachment search needs a 2-connected graph")

    first, second = two_disjoint_paths(graph, a, b)
    circuit = Circuit(graph, first.edges + second.edges)
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
            joined = Circuit(graph, toward_1.edges + toward_2.edges)
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
        if t != c:
            raise InternalError("empty path requires t = c on the circuit")
        return
    if t in (a, b):
        raise InternalError("nonempty path may not attach at a or b")
    if path.ends() != (c, t):
        raise InternalError("path must run from c to t")
    overlap = set(path.vertices) & on_circuit
    if overlap != {t}:
        raise InternalError(f"path meets the circuit at {sorted(overlap)}, not only t")
