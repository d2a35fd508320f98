"""Vertex connectivity checks and internally disjoint path pairs.

Cutpoints, and k-connectivity for k <= 3, are read off the parents, depths
and lowpoints of graph._rooted_forest, the package's one depth-first
search: one search for k <= 2, and for k = 3 one search per deleted hub
(a vertex with a child in one breadth-first spanning tree), O((h + 1) *
(n + m)) in all for h <= n hubs. Disjoint paths, and k-connectivity for
k >= 4, run on one engine: augmenting paths in the unit-capacity
vertex-split network. Vertex v is the arc in_v -> out_v and edge {u, w}
the arcs out_u -> in_w and out_w -> in_u, so disjoint units of flow from
out_s to in_t are internally disjoint s-t paths. k >= 4 takes local
flows bounded at k (Esfahanian and Hakimi, "On computing the
connectivities of graphs and digraphs", Networks 14(2), 1984),
O((n + delta^2) * k * m) in all. Every search runs in index order, so
results are deterministic for a given graph.
"""

from __future__ import annotations

from collections.abc import Collection
from itertools import combinations

from .errors import InputError, InternalError, PreconditionError
from .graph import Graph, Path, _rooted_forest


def _augment(graph: Graph, s: int, t: int, limit: int,
             banned: Collection[int] = ()) -> tuple[int, dict[int, set[int]]]:
    """Push up to `limit` units from s to t avoiding banned; node v is in_v,
    node n + v is out_v. Returns the units pushed and the flow as `into`:
    node -> nodes sending it a unit, which are its residual reverse arcs."""
    n = graph.vertex_count()
    adjacency = graph._adjacency
    source, sink = n + s, t
    into: dict[int, set[int]] = {}
    for count in range(limit):
        # Depth-first search in the residual network, smallest node first;
        # a node's parent is fixed when it is pushed.
        parent = {source: source}
        stack = [source]
        while stack and sink not in parent:
            node = stack.pop()
            if node < n:
                forward = ([] if node in (s, t) or node in into.get(node + n, ())
                           else [node + n])
            else:
                forward = [w for w, _ in adjacency[node - n]
                           if w not in banned and node not in into.get(w, ())]
            for nxt in sorted(forward + list(into.get(node, ())), reverse=True):
                if nxt not in parent:
                    parent[nxt] = node
                    stack.append(nxt)
        if sink not in parent:
            return count, into
        x = sink
        while x != source:
            p = parent[x]
            if x in into.get(p, ()):
                into[p].discard(x)  # cancel a unit flowing x -> p
            else:
                into.setdefault(x, set()).add(p)
            x = p
    return limit, into


def is_k_connected(graph: Graph, k: int) -> bool:
    """True iff the graph has more than k vertices and no set of fewer than
    k vertices disconnects it. Under this convention K_n is (n-1)-connected
    but not n-connected.

    For k <= 2 the depth-first forest answers: one root, and for k = 2 no
    cutpoint. For k >= 3 a vertex of degree below k fails at once: its
    neighbours cut it off from the n - 1 - deg > 0 others.

    For k = 3 (so n >= 4) one breadth-first scan from a vertex of greatest
    degree (ties to the least index) either misses a vertex, and G is
    disconnected, or builds a spanning tree T. Call a vertex with a child in
    T a hub. G is 3-connected iff, for every hub a, G - a is connected and
    has no cutpoint; one forest search decides each hub, O((h + 1) *
    (n + m)) in all for h <= n hubs. Why: if G is 3-connected, a cutpoint b
    of G - a, or G - a itself disconnected, would give a separator {a, b}
    or {a}. Conversely, a non-hub is a leaf of T, and deleting one or two
    leaves from a tree on n >= 4 vertices leaves a tree, so deleting one or
    two non-hubs leaves G connected: every separator of one or two vertices
    holds a hub a. Then G - a is disconnected, or the separator's other
    vertex is a cutpoint of G - a. A cutpoint of G is a hub of every
    spanning tree, so no search of the whole graph is needed.

    For k >= 4 let v be a vertex of least degree. The graph is k-connected
    iff deg(v) >= k, every w not adjacent to v is joined to v by k
    internally disjoint paths, and so is every non-adjacent pair of v's
    neighbours. Why: take a minimum separator S with |S| < k. If v is not in
    S, a vertex w in another component of G - S is not adjacent to v. If v
    is in S, minimality gives v neighbours x and y in two components of
    G - S, which are not adjacent. S separates either pair.
    """
    if k < 1:
        raise InputError("k must be a positive integer")
    n = graph.vertex_count()
    if n <= k:
        return False
    if k <= 2:
        cut, components = _cuts_and_count(graph)
        return components == 1 and (k == 1 or not cut)
    adjacency = graph._adjacency
    v = min(range(n), key=lambda i: len(adjacency[i]))
    if len(adjacency[v]) < k:
        return False
    if k == 3:
        hubs = _breadth_first_hubs(adjacency)
        return hubs is not None and all(
            _cuts_and_count(graph, x) == (set(), 1) for x in hubs)
    near = {w for w, _ in adjacency[v]}
    pairs = [(v, w) for w in range(n) if w != v and w not in near]
    pairs += [(x, y) for x, y in combinations(sorted(near), 2)
              if not any(w == y for w, _ in adjacency[x])]
    return all(_augment(graph, s, t, k)[0] == k for s, t in pairs)


def _breadth_first_hubs(adjacency) -> list[int] | None:
    """The vertices that claim a new neighbour in one breadth-first scan from
    a vertex of greatest degree (ties to the least index), in scan order;
    None when the scan misses a vertex."""
    n = len(adjacency)
    start = max(range(n), key=lambda i: len(adjacency[i]))
    seen = [False] * n
    seen[start] = True
    order = [start]
    hubs = []
    for x in order:  # grows while it is read: a queue without pops
        reached = len(order)
        for y, _ in adjacency[x]:
            if not seen[y]:
                seen[y] = True
                order.append(y)
        if len(order) > reached:
            hubs.append(x)
    return hubs if len(order) == n else None


def cutpoints(graph: Graph) -> tuple[str, ...]:
    """Vertices whose removal increases the number of components, sorted."""
    return tuple(sorted(graph.vertices[i] for i in _cuts_and_count(graph)[0]))


def _cuts_and_count(graph: Graph, skip: int = -1) -> tuple[set[int], int]:
    """Cutpoint indices and component count from the depth-first forest,
    of the graph less vertex index `skip` when one is given.

    A vertex is a cutpoint when it has a child u with low[u] >= its depth,
    or, at a root, where every child qualifies, two children. The skipped
    vertex has no children, so it is never a cutpoint; it is no root either.
    """
    up, _, depth, _, low = _rooted_forest(graph._adjacency, skip)
    need = [1 if p >= 0 else 2 for p in up]  # qualifying children still needed
    for u, p in enumerate(up):
        if p >= 0 and low[u] >= depth[p]:
            need[p] -= 1
    return ({x for x, left in enumerate(need) if left <= 0},
            up.count(-1) - (skip >= 0))


def two_disjoint_paths(graph: Graph, a: str, b: str,
                       forbidden: Collection[str] = ()) -> tuple[Path, Path]:
    """Two internally vertex-disjoint paths from a to b avoiding forbidden.

    Raises PreconditionError when no such pair exists (that is, when a and b
    are not 2-connected to each other in the graph minus forbidden).
    """
    graph.require_vertex(a)
    graph.require_vertex(b)
    if a == b:
        raise InputError("endpoints must be distinct")
    banned = {graph.require_vertex(v) for v in forbidden}
    if a in banned or b in banned:
        raise InputError("endpoints may not be forbidden")

    index = graph._index
    ai, bi = index[a], index[b]
    count, into = _augment(graph, ai, bi, 2, {index[v] for v in banned})
    if count < 2:
        raise PreconditionError(
            f"no two internally disjoint paths join {a!r} and {b!r}")

    # Decompose the flow: from each out-node take the first saturated arc in
    # index order that no earlier walk used; integral flow means one exists.
    n = graph.vertex_count()

    def walk() -> list[str]:
        sequence = [ai]
        u = ai
        while u != bi:
            step = next((w for w, _ in graph._adjacency[u]
                         if n + u in into.get(w, ())), None)
            if step is None:
                raise InternalError("flow decomposition failed")
            into[step].discard(n + u)
            sequence.append(step)
            u = step
        return [graph.vertices[i] for i in sequence]

    first = Path.from_vertices(graph, walk())
    second = Path.from_vertices(graph, walk())
    _validate_disjoint_pair(a, b, first, second)
    return first, second


def _validate_disjoint_pair(a: str, b: str, first: Path, second: Path) -> None:
    if first.ends() != (a, b) or second.ends() != (a, b):
        raise InternalError("internal check failed: wrong endpoints")
    shared = set(first.vertices) & set(second.vertices)
    if shared != {a, b}:
        raise InternalError(
            f"internal check failed: paths share {sorted(shared)}")
    if set(first.edges) & set(second.edges):
        raise InternalError("internal check failed: paths share an edge")
