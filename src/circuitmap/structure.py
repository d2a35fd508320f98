"""The proof's two splits: a source cut along an independent star
preimage, and the certificates for such crossing edge families.

decompose_by_star_preimage deletes the preimage of a target vertex's star
when it is an independent set; on a 2-connected source of a circuit
injection that leaves exactly two sides, every preimage edge crossing
between them (_two_sides checks both splits for this shape).

Given a 3-connected graph and an independent edge set A whose deletion
leaves exactly two components (every A edge crossing between them), one of
two configurations always exists and is constructed here:

* a linked circuit pair: vertex-disjoint circuits, one per side, joined by
  two bridge edges and a third connector edge sitting on a path between
  the circuits, all three connectors drawn from A; or
* a single circuit through at least four edges of A.

The first arises when both sides are 2-connected; the second when a side
has a cutpoint, by routing two disjoint paths around it through the other
side. Downstream, the bridge edges of a linked pair are exactly the pairs
whose images under a circuit injection can never share an endpoint.
"""

from __future__ import annotations

from .circuits import circuit_and_attached_path
from .connectivity import _refusal, cutpoints, is_k_connected, two_disjoint_paths
from .edge_maps import EdgeMap, IndependentEdges, classify_star_preimage
from .errors import DecompositionViolationError, InputError, InternalError, PreconditionError
from .graph import Circuit, EdgeSet, Frozen, Graph, Path, _components, induced_subgraph, star


def decompose_by_star_preimage(edge_map: EdgeMap, w: str
                               ) -> tuple[tuple[str, ...], tuple[str, ...], EdgeSet]:
    """Split the source along the preimage of w's star.

    For a verified circuit injection from a 2-connected source whose star
    preimage at w is an independent set, deleting that preimage leaves
    exactly two components, with every preimage edge crossing between
    them. Returns (side containing the least label, other side, crossing
    edges). Guard failures raise PreconditionError; a wrong
    component structure raises DecompositionViolationError and means the
    map was not actually a circuit injection.
    """
    if not is_k_connected(edge_map.source, 2):
        raise _refusal(edge_map.source, 2, "decomposition needs a 2-connected source")
    kind = classify_star_preimage(edge_map, w)
    if not isinstance(kind, IndependentEdges):
        raise PreconditionError(
            f"star preimage of {w!r} is {type(kind).__name__}, not independent")
    crossing = EdgeSet(edge_map.source,
                       edge_map.preimage(star(edge_map.target, w).members))
    side_a, side_b = _two_sides(edge_map.source, crossing,
                                DecompositionViolationError, "preimage")
    return side_a, side_b, crossing


def _two_sides(graph: Graph, cut: EdgeSet, error: type[Exception], what: str
               ) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """The two components left by deleting `cut`, every cut edge joining
    them; otherwise raise `error`, naming the cut as `what`. No graph is built."""
    kept = [[p for p in row if p[1] not in cut.members] for row in graph._adjacency]
    blocks = _components(kept, graph.vertices)
    if len(blocks) != 2:
        raise error(f"deleting the {what} left {len(blocks)} components, not 2")
    side_a = set(blocks[0])
    for eid in cut:
        u, v = graph.endpoints(eid)
        if (u in side_a) == (v in side_a):
            raise error(f"{what} edge ({u!r}, {v!r}) does not cross the split")
    return blocks


class LinkedCircuitPair(Frozen):
    """Two disjoint circuits tied together by three connectors.

    bridge_a and bridge_b each join a circuit_a vertex to a circuit_b
    vertex; path runs from a third circuit_a vertex to a third circuit_b
    vertex, meeting the circuits only at its ends, and path_edge is the
    designated connector edge on it.
    """

    circuit_a: Circuit
    circuit_b: Circuit
    bridge_a: int
    bridge_b: int
    path: Path
    path_edge: int

    def connectors(self) -> tuple[int, int, int]:
        return self.bridge_a, self.bridge_b, self.path_edge

    def anchors_a(self) -> tuple[str, str, str]:
        """The three designated vertices on circuit_a, bridge ends first."""
        return self._anchors(self.circuit_a, self.path.vertices[0])

    def anchors_b(self) -> tuple[str, str, str]:
        return self._anchors(self.circuit_b, self.path.vertices[-1])

    def _anchors(self, circuit: Circuit, path_end: str) -> tuple[str, str, str]:
        on = circuit.vertex_set()
        ends = []
        for eid in (self.bridge_a, self.bridge_b):
            u, v = circuit.host.endpoints(eid)
            ends.append(u if u in on else v)
        return ends[0], ends[1], path_end


def validate_linked_pair(graph: Graph, witness: LinkedCircuitPair,
                         connectors_from: EdgeSet | None = None) -> None:
    """Check every structural requirement; raise InternalError if broken."""

    def fail(reason: str):
        raise InternalError(f"linked circuit pair invalid: {reason}")

    if witness.circuit_a.host != graph or witness.circuit_b.host != graph \
            or witness.path.host != graph:
        fail("parts hosted on the wrong graph")
    va = witness.circuit_a.vertex_set()
    vb = witness.circuit_b.vertex_set()
    if va & vb:
        fail("circuits share a vertex")

    if witness.bridge_a == witness.bridge_b:
        fail("bridges are the same edge")
    for eid in (witness.bridge_a, witness.bridge_b):
        u, v = graph.endpoints(eid)
        if not ((u in va and v in vb) or (u in vb and v in va)):
            fail(f"bridge ({u!r}, {v!r}) does not join the circuits")

    if witness.path.is_empty():
        fail("connector path has no edges")
    path_vs = witness.path.vertices
    if path_vs[0] not in va or path_vs[-1] not in vb:
        fail("path must run from circuit_a to circuit_b")
    if set(path_vs) & va != {path_vs[0]}:
        fail("path reenters circuit_a")
    if set(path_vs) & vb != {path_vs[-1]}:
        fail("path reenters circuit_b")
    if witness.path_edge not in witness.path.edges:
        fail("designated connector is not on the path")

    a1, a2, a3 = witness.anchors_a()
    b1, b2, b3 = witness.anchors_b()
    if len({a1, a2, a3}) != 3:
        fail("designated circuit_a vertices are not distinct")
    if len({b1, b2, b3}) != 3:
        fail("designated circuit_b vertices are not distinct")

    if connectors_from is not None:
        if connectors_from.host != graph:
            raise InputError("connector edge set hosted elsewhere")
        for eid in witness.connectors():
            if eid not in connectors_from.members:
                u, v = graph.endpoints(eid)
                fail(f"connector ({u!r}, {v!r}) is not in the crossing set")


def find_crossing_structure(graph: Graph, crossing: EdgeSet
                            ) -> LinkedCircuitPair | Circuit:
    """Certify an independent crossing family with one of the two witnesses.

    Preconditions, all checked here: graph is 3-connected; crossing is an
    independent edge set; deleting it leaves exactly two components with
    every crossing edge between them. Violations raise PreconditionError.

    Returns a validated LinkedCircuitPair whose connectors come from
    `crossing` when both sides are 2-connected, and otherwise a validated
    Circuit containing at least four crossing edges.
    """
    if crossing.host != graph:
        raise InputError("crossing set is hosted on a different graph")
    if not is_k_connected(graph, 3):
        raise _refusal(graph, 3, "graph is not 3-connected")

    touched = set()
    for eid in crossing:
        for v in graph.endpoints(eid):
            if v in touched:
                raise PreconditionError(
                    f"crossing set is not independent at {v!r}")
            touched.add(v)

    # A 3-connected graph is 3-edge-connected, so a cut that splits it has
    # three edges or more. With independence each connected side then has
    # three vertices or more, and is 2-connected iff it has no cutpoint.
    sides = [induced_subgraph(graph, block)
             for block in _two_sides(graph, crossing, PreconditionError, "crossing set")]
    for sub, _ in sides:
        cut = cutpoints(sub)
        if cut:
            return _circuit_around_cutpoint(graph, crossing, sub, cut[0])
    return _linked_pair_from_two_connected_sides(graph, crossing, *sides[0], *sides[1])


def _linked_pair_from_two_connected_sides(graph: Graph, crossing: EdgeSet,
                                          sub_a: Graph, ids_a: tuple[int, ...],
                                          sub_b: Graph, ids_b: tuple[int, ...]
                                          ) -> LinkedCircuitPair:
    """Both sides 2-connected: anchor circuits with two connectors each
    and thread the third connector into the joining path."""
    e1, e2, e3 = sorted(crossing.members)[:3]

    def split(eid: int) -> tuple[str, str]:
        u, v = graph.endpoints(eid)
        return (u, v) if u in sub_a._index else (v, u)

    a1, b1 = split(e1)
    a2, b2 = split(e2)
    a3, b3 = split(e3)

    circ_a, tail_a, attach_a = circuit_and_attached_path(sub_a, a1, a2, a3)
    circ_b, tail_b, attach_b = circuit_and_attached_path(sub_b, b1, b2, b3)

    circuit_a = Circuit(graph, [ids_a[i] for i in circ_a.edges])
    circuit_b = Circuit(graph, [ids_b[i] for i in circ_b.edges])

    # Joining path: attach_a .. a3, the crossing edge e3, b3 .. attach_b.
    path = Path(graph, tail_a.vertices[::-1] + tail_b.vertices,
                (*(ids_a[i] for i in reversed(tail_a.edges)), e3,
                 *(ids_b[i] for i in tail_b.edges)))

    witness = LinkedCircuitPair(circuit_a, circuit_b, e1, e2, path, e3)
    validate_linked_pair(graph, witness, crossing)
    return witness


def _circuit_around_cutpoint(graph: Graph, crossing: EdgeSet,
                             weak: Graph, v: str) -> Circuit:
    """Side `weak` has cutpoint v: join two of its split components by two
    disjoint paths through the whole graph avoiding v, and return the
    resulting circuit, which must use four crossing edges. a and b are the
    least labels of the first two components of weak - v."""
    a, b = [c[0] for c in _components(weak._adjacency, weak.vertices, weak._index[v])[:2]]
    first, second = two_disjoint_paths(graph, a, b, forbidden=(v,))
    circuit = Circuit(graph, first.edges + second.edges)
    used = len(circuit.edges & crossing.members)
    if used < 4:
        raise InternalError(
            f"constructed circuit uses {used} crossing edges, expected >= 4")
    return circuit


def connector_images_nonadjacent(edge_map: EdgeMap,
                                 witness: LinkedCircuitPair) -> bool:
    """Do the images of the two bridge connectors avoid sharing an endpoint?

    For a verified circuit injection whose source carries the witness this
    is always true; the check validates the witness first and then simply
    compares image endpoints.
    """
    validate_linked_pair(edge_map.source, witness)
    u, v = edge_map.target.endpoints(edge_map.image_of(witness.bridge_a))
    x, y = edge_map.target.endpoints(edge_map.image_of(witness.bridge_b))
    return not ({u, v} & {x, y})
