"""Core graph types and operations.

Graphs here are finite, simple and undirected: string vertex labels, no
loops, no parallel edges. Edges are identified by dense integer ids given
by their position in the edge tuple, and every derived object (EdgeSet,
Path, Circuit) pins the graph it lives on, so ids never migrate silently
between graphs.
"""

from __future__ import annotations

from collections.abc import Collection, Iterable, Iterator, Sequence
from functools import cached_property

from .errors import InputError


class Frozen:
    """Base of the package's immutable value objects.

    The fields are the class-body annotations, base classes' first, in
    order; a class attribute gives a field its default. The constructor
    binds the declared fields: positional arguments in field order, then
    keywords, then class defaults for the fields left out. It raises
    TypeError for extra positionals, an unknown name, a name given twice
    or a field with no value. A subclass that validates writes its own
    __init__, which first makes each container field a tuple or frozenset
    of whatever iterable it gets, so no caller freezes an argument. Either
    stores the fields with one self.__dict__.update call, since the
    instance __setattr__ refuses every assignment. Instances are equal when
    they have the same class and equal fields, hash by their fields and
    repr like a dataclass. functools.cached_property works as well: it,
    too, writes to the instance __dict__.
    """

    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls):
        cls._fields = (*cls._fields, *cls.__dict__.get("__annotations__", ()))

    def __init__(self, *args, **kwargs):
        name = type(self).__qualname__
        fields = self._fields
        if len(args) > len(fields):
            raise TypeError(f"{name}() got too many positional arguments: "
                            f"{len(args)} for fields {fields}")
        values = dict(zip(fields, args))
        for field, value in kwargs.items():
            if field not in fields:
                raise TypeError(f"{name}() got an unexpected field {field!r}")
            if field in values:
                raise TypeError(f"{name}() got field {field!r} twice")
            values[field] = value
        for field in fields:
            if field not in values:
                try:
                    values[field] = getattr(type(self), field)
                except AttributeError:
                    raise TypeError(f"{name}() is missing field {field!r}") from None
        self.__dict__.update(values)

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self is other or self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"


def _is_string_pair(value) -> bool:
    """Is value an endpoint pair: a list or a tuple of two strings?"""
    return (isinstance(value, (list, tuple)) and len(value) == 2
            and isinstance(value[0], str) and isinstance(value[1], str))


class Graph(Frozen):
    """Immutable simple graph.

    vertices: any iterable of distinct string labels, kept as a tuple.
    edges: any iterable of endpoint pairs, lists or tuples of two labels,
    kept as a tuple of tuples; a pair's position is its edge id. The first
    faulty pair in order raises InputError.
    """

    vertices: tuple[str, ...]
    edges: tuple[tuple[str, str], ...]

    def __init__(self, vertices: Iterable[str], edges: Iterable[Sequence[str]]):
        vertices = tuple(vertices)
        # The lookups are built by the loops that validate: label -> index,
        # sorted pair -> edge id, and per edge id its endpoint indices.
        index: dict[str, int] = {}
        for i, v in enumerate(vertices):
            if not isinstance(v, str):
                raise InputError(f"vertex label {v!r} is not a string")
            if v in index:
                raise InputError(f"duplicate vertex label {v!r}")
            index[v] = i
        pair_ids: dict[tuple[str, str], int] = {}
        pairs = []
        ends = []
        for i, e in enumerate(edges):
            if not _is_string_pair(e):
                raise InputError(f"edge entry {i} must be a pair of strings")
            u, v = pair = tuple(e)
            if u == v:
                raise InputError(f"edge {i} is a loop at {u!r}")
            ui, vi = index.get(u), index.get(v)
            if ui is None or vi is None:
                raise InputError(f"edge {i} uses unknown vertex {u if ui is None else v!r}")
            key = pair if u < v else (v, u)
            if key in pair_ids:
                raise InputError(f"edge {i} repeats pair {key!r}")
            pair_ids[key] = i
            pairs.append(pair)
            ends.append((ui, vi))
        self.__dict__.update(vertices=vertices, edges=tuple(pairs), _index=index,
                             _pair_ids=pair_ids, _ends=tuple(ends))

    @cached_property
    def _adjacency(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """Per vertex index: (neighbor index, edge id) pairs sorted by neighbor."""
        lists: list[list[tuple[int, int]]] = [[] for _ in self.vertices]
        for i, (ui, vi) in enumerate(self._ends):
            lists[ui].append((vi, i))
            lists[vi].append((ui, i))
        return tuple(tuple(sorted(l)) for l in lists)

    # -- queries --

    def vertex_count(self) -> int:
        return len(self.vertices)

    def edge_count(self) -> int:
        return len(self.edges)

    def require_vertex(self, v) -> str:
        if not isinstance(v, str) or v not in self._index:
            raise InputError(f"unknown vertex {v!r}")
        return v

    def endpoints(self, edge_id: int) -> tuple[str, str]:
        return self.edges[edge_id]

    def edge_id(self, u: str, v: str) -> int:
        """Resolve an unordered endpoint pair to its edge id."""
        try:
            return self._pair_ids[(u, v) if u < v else (v, u)]
        except (KeyError, TypeError):
            raise InputError(f"no edge joins {u!r} and {v!r}") from None

    def incident_edges(self, v: str) -> tuple[int, ...]:
        """Edge ids at v, in id order."""
        row = self._adjacency[self._index[self.require_vertex(v)]]
        return tuple(sorted(eid for _, eid in row))


def build_graph(vertices: Iterable, edges: Iterable[Sequence]) -> Graph:
    """Build a Graph from labels and endpoint pairs.

    Labels are coerced to strings; vertex order follows first appearance in
    the input, duplicates are dropped, and edge ids follow input order, so
    the result is deterministic for any ordered input.
    """
    labels = dict.fromkeys(v if isinstance(v, str) else str(v) for v in vertices)
    pairs = [(u if isinstance(u, str) else str(u), v if isinstance(v, str) else str(v))
             for u, v in edges]
    return Graph(labels, pairs)


class EdgeSet(Frozen):
    """A subset of a specific graph's edges, by id, kept as a frozenset."""

    host: Graph
    members: frozenset[int]

    def __init__(self, host: Graph, members: Iterable[int]):
        members = frozenset(members)
        _require_edge_ids(host, members)
        self.__dict__.update(host=host, members=members)

    def __len__(self) -> int:
        return len(self.members)

    def __iter__(self) -> Iterator[int]:
        return iter(sorted(self.members))

    def __contains__(self, edge_id: int) -> bool:
        return edge_id in self.members


def _require_edge_ids(host: Graph, ids: Iterable[int]) -> None:
    """Refuse any id that is not an int (a bool is not) in range(host.edge_count())."""
    m = len(host.edges)
    for i in ids:
        if type(i) is not int or not 0 <= i < m:
            raise InputError(f"invalid edge id {i!r} for host with {m} edges")


def edge_set_from_pairs(graph: Graph, pairs: Sequence[Sequence[str]]) -> EdgeSet:
    """Resolve a list or tuple of endpoint pairs (either way round) to an EdgeSet;
    any other container, or the first entry not a pair of strings, is an InputError."""
    if not isinstance(pairs, (list, tuple)):
        raise InputError("edge set must be a list of endpoint pairs")
    ids = set()
    for k, pair in enumerate(pairs):
        if not _is_string_pair(pair):
            raise InputError(f"edge set entry {k} must be a pair of strings")
        ids.add(graph.edge_id(*pair))
    return EdgeSet(graph, ids)


class Path(Frozen):
    """A simple path, stored as its vertex sequence and matching edge ids, as tuples.

    A path may be empty: a single vertex and no edges.
    """

    host: Graph
    vertices: tuple[str, ...]
    edges: tuple[int, ...]

    def __init__(self, host: Graph, vertices: Iterable[str], edges: Iterable[int]):
        vertices, edges = tuple(vertices), tuple(edges)
        _require_edge_ids(host, edges)
        self.__dict__.update(host=host, vertices=vertices, edges=edges)
        if len(self.vertices) != len(self.edges) + 1:
            raise InputError("path needs exactly one more vertex than edges")
        if len(set(self.vertices)) != len(self.vertices):
            raise InputError("path repeats a vertex")
        for v in self.vertices:
            self.host.require_vertex(v)
        for k, eid in enumerate(self.edges):
            if frozenset(self.host.endpoints(eid)) != \
                    frozenset((self.vertices[k], self.vertices[k + 1])):
                raise InputError(f"edge {eid} does not join step {k} of the path")

    @classmethod
    def empty(cls, graph: Graph, at: str) -> "Path":
        return cls(graph, (graph.require_vertex(at),), ())

    @classmethod
    def from_vertices(cls, graph: Graph, vertices: Sequence[str]) -> "Path":
        ids = [graph.edge_id(vertices[k], vertices[k + 1])
               for k in range(len(vertices) - 1)]
        return cls(graph, vertices, ids)

    def is_empty(self) -> bool:
        return not self.edges

    def ends(self) -> tuple[str, str]:
        return self.vertices[0], self.vertices[-1]


def _edge_ids_form_circuit(graph: Graph, ids: Collection[int]) -> bool:
    """True iff the edge subset is the edge set of one simple cycle:
    nonempty, every touched vertex has degree exactly 2, and the touched
    vertices form a single connected piece. Simplicity then forces size >= 3.
    The ids must be distinct: a set, or a list that holds no id twice.

    Works on vertex indices in O(|ids|): record the first and second
    neighbour of each touched vertex, giving up at a third incidence, then
    walk the cycle once along the last edge read. The set is a circuit iff
    the walk closes after visiting every touched vertex.
    """
    if not ids:
        return False
    ends = graph._ends
    first: dict[int, int] = {}
    second: dict[int, int] = {}
    for i in ids:
        u, v = ends[i]
        if u not in first:
            first[u] = v
        elif u not in second:
            second[u] = v
        else:
            return False
        if v not in first:
            first[v] = u
        elif v not in second:
            second[v] = u
        else:
            return False
    if len(second) != len(first):
        return False
    # The graph is simple, so a vertex's two neighbours differ and each
    # step leaves by the edge it did not arrive on.
    prev, x = u, v
    visited = 1
    while x != u:
        y = first[x]
        prev, x = x, (second[x] if y == prev else y)
        visited += 1
    return visited == len(first)


class Circuit(Frozen):
    """The edge set of a simple cycle, as a frozenset. Construction validates it."""

    host: Graph
    edges: frozenset[int]

    def __init__(self, host: Graph, edges: Iterable[int]):
        edges = frozenset(edges)
        _require_edge_ids(host, edges)
        self.__dict__.update(host=host, edges=edges)
        if not _edge_ids_form_circuit(host, edges):
            raise InputError("edge set is not a circuit")

    def __len__(self) -> int:
        return len(self.edges)

    def vertex_set(self) -> frozenset[str]:
        return frozenset([v for i in self.edges for v in self.host.edges[i]])


# -- whole-graph operations --


def _rooted_forest(adjacency, skip: int = -1
                   ) -> tuple[list[int], list[int], list[int], list[int], list[int]]:
    """Root every component of an index graph with one iterative depth-first
    search, the package's only forest traversal.

    adjacency[x] lists (neighbour index, edge id) pairs of vertex index x.
    Returns per vertex its parent, parent edge (both -1 at a root), depth,
    root and low: the least depth that x's subtree reaches by one edge, its
    parent edge included (Tarjan's lowpoint, SIAM J. Comput. 1(2), 1972).
    Roots are the least index of each component. A tree has one rooting per
    root, so on a forest parent, edge and depth do not depend on the order
    of the search.

    A vertex index `skip` is searched as if deleted: it starts with depth
    and low n, so the search never enters it, never roots at it, and no
    edge to it lowers a lowpoint. Its parent, edge and root stay -1.
    """
    n = len(adjacency)
    up = [-1] * n
    up_edge = [-1] * n
    depth = [-1] * n
    root = [-1] * n
    low = [-1] * n
    if skip >= 0:
        depth[skip] = low[skip] = n
    for r in range(n):
        if depth[r] >= 0:
            continue
        depth[r] = low[r] = 0
        root[r] = r
        stack = [(r, iter(adjacency[r]))]
        while stack:
            x, pending = stack[-1]
            for y, eid in pending:
                if depth[y] < 0:
                    depth[y] = low[y] = depth[x] + 1
                    up[y], up_edge[y], root[y] = x, eid, r
                    stack.append((y, iter(adjacency[y])))
                    break
                if depth[y] < low[x]:
                    low[x] = depth[y]
            else:
                stack.pop()
                p = up[x]
                if p >= 0 and low[x] < low[p]:
                    low[p] = low[x]
    return up, up_edge, depth, root, low


def _fundamental_circuits(graph: Graph, order: Iterable[int]):
    """Kruskal forest over an edge order, and its fundamental circuits.

    Walks the edge ids in `order`: an edge joining two trees of the forest
    built so far joins the forest (list union-find on vertex indices with
    path halving), any other is a chord. _rooted_forest roots every tree;
    circuit_of(chord) reads the chord's fundamental circuit by lifting the
    deeper end to the other's depth and both ends together until they meet
    (Paton, CACM 12(9), 1969), in time linear in the circuit's length.
    Returns (forest edge ids, chord ids, circuit_of), both lists in `order`;
    circuit_of returns the circuit's edge ids, the chord first.
    """
    ends = graph._ends
    n = graph.vertex_count()
    leader = list(range(n))
    tree_adj: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    forest_ids = []
    chords = []
    for eid in order:
        u, v = ru, rv = ends[eid]
        while leader[ru] != ru:
            leader[ru] = ru = leader[leader[ru]]
        while leader[rv] != rv:
            leader[rv] = rv = leader[leader[rv]]
        if ru == rv:
            chords.append(eid)
        else:
            leader[ru] = rv
            forest_ids.append(eid)
            tree_adj[u].append((v, eid))
            tree_adj[v].append((u, eid))
    up, up_edge, depth, _, _ = _rooted_forest(tree_adj)

    def circuit_of(chord: int) -> list[int]:
        u, v = ends[chord]
        ids = [chord]
        while depth[u] > depth[v]:
            ids.append(up_edge[u])
            u = up[u]
        while depth[v] > depth[u]:
            ids.append(up_edge[v])
            v = up[v]
        while u != v:
            ids.append(up_edge[u])
            ids.append(up_edge[v])
            u, v = up[u], up[v]
        return ids

    return forest_ids, chords, circuit_of


def _components(adjacency, labels, skip: int = -1) -> tuple[tuple[str, ...], ...]:
    """Components of an index graph (adjacency as in _rooted_forest), read off
    its forest roots: sorted label tuples, ordered by least label. Deleted
    edges are left out of adjacency; the vertex index `skip` is in no tuple."""
    blocks: dict[int, list[str]] = {}
    for v, r in zip(labels, _rooted_forest(adjacency, skip)[3]):
        if r >= 0:
            blocks.setdefault(r, []).append(v)
    return tuple(sorted(tuple(sorted(b)) for b in blocks.values()))


def induced_subgraph(graph: Graph, vertices: Iterable[str]) -> tuple[Graph, tuple[int, ...]]:
    """Subgraph induced on a vertex subset, keeping the host's vertex order.

    Returns the subgraph and the table mapping each of its edge ids back to
    the host edge id.
    """
    wanted = set()
    for v in vertices:
        wanted.add(graph.require_vertex(v))
    kept_vertices = [v for v in graph.vertices if v in wanted]
    keep = [i for i, (u, v) in enumerate(graph.edges)
            if u in wanted and v in wanted]
    sub = Graph(kept_vertices, [graph.edges[i] for i in keep])
    return sub, tuple(keep)


# -- JSON wire format --


def graph_to_json(graph: Graph) -> dict:
    """Plain-dict form: vertices sorted, edges as endpoint pairs in id order."""
    return {
        "vertices": sorted(graph.vertices),
        "edges": [[u, v] for u, v in graph.edges],
    }


def graph_from_json(data) -> Graph:
    """Parse the wire format, accepting vertices and edges in any order;
    Graph checks the labels and the edge entries, so the first fault in
    order is reported."""
    if not isinstance(data, dict):
        raise InputError("graph document must be a JSON object")
    if "vertices" not in data or "edges" not in data:
        raise InputError("graph document needs 'vertices' and 'edges'")
    vertices, edges = data["vertices"], data["edges"]
    if not isinstance(vertices, list):
        raise InputError("'vertices' must be a list of strings")
    if not isinstance(edges, list):
        raise InputError("'edges' must be a list of endpoint pairs")
    return Graph(vertices, edges)
