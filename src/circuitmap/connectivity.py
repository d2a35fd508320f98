"""Vertex connectivity checks and internally disjoint path pairs.

Cutpoints, and k-connectivity for k <= 3, are read off the parents, depths
and lowpoints of graph._rooted_forest, the package's one depth-first
search: one search for k <= 2, and for k = 3 one search of the graph and
one per deleted candidate, a vertex that is a hub (has a child) in more
than half of t spanning trees grown by linear-time scans, O((t + c) *
(n + m)) in all for c candidates. Disjoint paths, and k-connectivity for
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

from collections import deque
from collections.abc import Collection
from itertools import combinations

from .errors import InputError, InternalError, PreconditionError, _require_int
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

    For k <= 3 _small_separator answers. For k >= 4 let v be a vertex of
    least degree. If deg(v) < k, its neighbours cut it off from the
    n - 1 - deg > 0 others. Otherwise the graph is k-connected iff every w
    not adjacent to v is joined to v by k internally disjoint paths, and so
    is every non-adjacent pair of v's neighbours. Why: take a minimum
    separator S with |S| < k. If v is not in S, a vertex w in another
    component of G - S is not adjacent to v. If v is in S, minimality gives
    v neighbours x and y in two components of G - S, which are not
    adjacent. S separates either pair.
    """
    _require_int(k, 1, "k must be a positive integer")
    n = graph.vertex_count()
    if n <= k:
        return False
    if k <= 3:
        return _small_separator(graph, k) is None
    adjacency = graph._adjacency
    v = min(range(n), key=lambda i: len(adjacency[i]))
    if len(adjacency[v]) < k:
        return False
    near = {w for w, _ in adjacency[v]}
    pairs = [(v, w) for w in range(n) if w != v and w not in near]
    pairs += [(x, y) for x, y in combinations(sorted(near), 2)
              if not any(w == y for w, _ in adjacency[x])]
    return all(_augment(graph, s, t, k)[0] == k for s, t in pairs)


def _small_separator(graph: Graph, k: int) -> tuple[str, ...] | None:
    """The first set of fewer than k <= 3 vertices whose deletion
    disconnects a graph of more than k vertices, as sorted labels, or None.

    For k = 3 a vertex of least degree, if that degree is below 3, gives its
    neighbours, which cut it off from the n - 1 - deg > 0 others. Then the
    search of G gives () when G is disconnected and, for k >= 2, (b,) for
    its cutpoint b of least index. For k = 3 (so n >= 4) any spanning tree
    T of the connected graph then decides the rest. Call a vertex with a
    child in T a hub. A non-hub is a leaf of T, and deleting one or two
    leaves from a tree on n >= 4 vertices leaves a tree, so every separator
    S of one or two vertices holds a hub of every spanning tree. Over an odd
    number t of trees the hub counts of S's vertices add up to at least t,
    so one of them is a hub of more than t/2 trees: a candidate. Each
    candidate a, heaviest first, gives (a,) when G - a is disconnected, or
    (a, b) for the cutpoint b of G - a of least index. Nothing is missed: a
    separator holds a candidate a, and then G - a is disconnected or the
    separator's other vertex is a cutpoint of G - a.

    The first tree is breadth-first from a vertex of greatest degree, and
    later scans route around earlier hubs (see _breadth_first_hubs); they
    are added two at a time while the candidates outnumber t and keep
    falling. That is one search, t scans and c searches, O((t + c) *
    (n + m)), with t <= h + 1 and c <= h for the h hubs of the first tree:
    never more than searching every hub of that tree.

    A separator found by search is kept in the graph's __dict__, keyed by
    k, as Graph._adjacency is, so a refused guard that then names its
    separator searches once. None is never kept: a guard that passes leaves
    the next one to search again.
    """
    known = graph.__dict__.get("_separators", {}).get(k)
    if known is not None:
        return known
    adjacency = graph._adjacency
    labels = graph.vertices
    if k == 3:
        v = min(range(len(adjacency)), key=lambda i: len(adjacency[i]))
        if len(adjacency[v]) < 3:
            return tuple(sorted(labels[w] for w, _ in adjacency[v]))

    def deleted():  # G itself, then, once G passes, each candidate
        yield -1
        if k == 3:
            yield from _hub_candidates(adjacency)

    for a in deleted():
        cut, components = _cuts_and_count(graph, a)
        if components == 1 and (k == 1 or not cut):
            continue
        found = [a] if components > 1 else [a, min(cut)]
        known = tuple(sorted(labels[x] for x in found if x >= 0))
        graph.__dict__.setdefault("_separators", {})[k] = known
        return known
    return None


def _refusal(graph: Graph, k: int, message: str) -> PreconditionError:
    """The refusal of a k-connectivity guard (k <= 3) that graph failed:
    its separator is the one _small_separator found, a lookup once the
    guard has searched, or None when n <= k."""
    separator = _small_separator(graph, k) if graph.vertex_count() > k else None
    return PreconditionError(message, separator=separator, k=k)


def _hub_candidates(adjacency) -> list[int]:
    """The vertices that are hubs of more than half of t scans of a
    connected graph, heaviest first (ties to the least index).

    Scans are added two at a time, so t stays odd, until there are at most
    t candidates or two more scans fail to lower their number; then the
    earlier, smaller list is kept.
    """
    n = len(adjacency)
    counts = [0] * n
    best = None
    trees = 0
    while True:
        trees += 1
        for x in _breadth_first_hubs(adjacency, counts):
            counts[x] += 1
        if trees % 2 == 0:
            continue
        heavy = sorted((x for x in range(n) if 2 * counts[x] > trees),
                       key=lambda x: (-counts[x], x))
        if best is not None and len(heavy) >= len(best):
            return best
        best = heavy
        if len(best) <= trees:
            return best


def _breadth_first_hubs(adjacency, counts: list[int]) -> list[int]:
    """The vertices that claim a new neighbour in one scan of a connected
    graph, in scan order.

    The scan starts at a vertex of least count, of greatest degree among
    those (ties to the least index), and expands the reached vertex of
    least count next, first reached first among equal counts; with all
    counts equal it is a breadth-first scan.
    """
    n = len(adjacency)
    start = min(range(n), key=lambda i: (counts[i], -len(adjacency[i])))
    seen = [False] * n
    seen[start] = True
    queues = [deque() for _ in range(max(counts) + 1)]  # one per count
    queues[counts[start]].append(start)
    low = counts[start]  # no queue below this one holds a vertex
    hubs = []
    while low < len(queues):
        if not queues[low]:
            low += 1
            continue
        x = queues[low].popleft()
        claimed = False
        for y, _ in adjacency[x]:
            if not seen[y]:
                seen[y] = claimed = True
                c = counts[y]
                queues[c].append(y)
                if c < low:
                    low = c
        if claimed:
            hubs.append(x)
    return hubs


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
