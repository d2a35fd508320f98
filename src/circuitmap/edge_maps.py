"""One-to-one edge maps between graphs: verification, star classification
and reconstruction of the inducing vertex isomorphism.

The central objects are EdgeMap (a bijection between the edge sets of two
graphs, by id) and the checks built on it:

* check_circuit_injection / check_circuit_isomorphism return a Verdict,
  carrying a concrete witness circuit on failure (isomorphism is exact
  from one spanning forest of the source);
* classify_star_image / classify_star_preimage sort the mapped star of a
  vertex into exactly-a-star, independent set, or a violation witness;
* reconstruct_vertex_isomorphism recovers, for a 3-connected source, the
  unique vertex isomorphism inducing a verified circuit injection.
"""

from __future__ import annotations

from collections.abc import Iterable
from itertools import chain, filterfalse
from types import MappingProxyType

from .circuits import DEFAULT_MAX_CIRCUITS, enumerate_circuits
from .connectivity import _refusal, is_k_connected
from .errors import (
    InputError,
    InternalError,
    NotInducedError,
    _require_int,
)
from .graph import (
    Circuit,
    EdgeSet,
    Frozen,
    Graph,
    _edge_ids_form_circuit,
    _fundamental_circuits,
    _is_string_pair,
    star,
)
from .rng import XorShift64Star


class EdgeMap(Frozen):
    """A one-to-one correspondence between the edges of two graphs.

    assignment[i] is the target edge id of source edge i, kept as a tuple of
    any iterable. Construction rejects anything that is not a bijection
    between the full edge sets; a bool is not an edge id.
    """

    source: Graph
    target: Graph
    assignment: tuple[int, ...]

    def __init__(self, source: Graph, target: Graph, assignment: Iterable[int]):
        assignment = tuple(assignment)
        m_src = source.edge_count()
        m_tgt = target.edge_count()
        if m_src != m_tgt:
            raise InputError(
                f"source has {m_src} edges but target has {m_tgt}")
        if len(assignment) != m_src:
            raise InputError(
                f"assignment covers {len(assignment)} of {m_src} edges")
        inverse: list[int | None] = [None] * m_tgt
        for i, j in enumerate(assignment):
            if type(j) is not int or not 0 <= j < m_tgt:
                raise InputError(f"edge {i} maps to invalid id {j!r}")
            if inverse[j] is not None:
                raise InputError(f"target edge {j} has two preimages")
            inverse[j] = i
        self.__dict__.update(source=source, target=target, assignment=assignment,
                             _inverse=tuple(inverse))

    def image_of(self, edge_id: int) -> int:
        return self.assignment[edge_id]

    def image(self, edge_ids) -> frozenset[int]:
        return frozenset(self.assignment[i] for i in edge_ids)

    def preimage(self, edge_ids) -> frozenset[int]:
        return frozenset(self._inverse[j] for j in edge_ids)

    def inverted(self) -> "EdgeMap":
        return EdgeMap(self.target, self.source, self._inverse)


def edge_map_to_json(edge_map: EdgeMap) -> dict:
    """Wire form: one [[source pair], [target pair]] entry per source edge id."""
    entries = []
    for i in range(edge_map.source.edge_count()):
        u, v = edge_map.source.endpoints(i)
        x, y = edge_map.target.endpoints(edge_map.image_of(i))
        entries.append([[u, v], [x, y]])
    return {"map": entries}


def edge_map_from_json(source: Graph, target: Graph, data) -> EdgeMap:
    """Parse the wire format against two already-loaded graphs.

    Endpoint order inside a pair does not matter. Rejects pairs naming no
    edge, repeated or missing source edges, repeated target edges, and
    target graphs with isolated vertices (the map must be onto a graph
    that its edges fully cover).
    """
    if not isinstance(data, dict) or "map" not in data:
        raise InputError("map document needs a 'map' entry")
    entries = data["map"]
    if not isinstance(entries, list):
        raise InputError("'map' must be a list of pair-of-pairs entries")
    _require_covered_target(target)
    assignment: list[int | None] = [None] * source.edge_count()
    for k, entry in enumerate(entries):
        if (not isinstance(entry, list) or len(entry) != 2
                or not all(map(_is_string_pair, entry))):
            raise InputError(f"map entry {k} must be [[u, v], [x, y]]")
        (u, v), (x, y) = entry
        i = source.edge_id(u, v)
        j = target.edge_id(x, y)
        if assignment[i] is not None:
            raise InputError(
                f"source edge ({u!r}, {v!r}) appears twice in the map")
        assignment[i] = j
    if len(entries) != len(assignment):  # each entry filled a slot of its own
        raise InputError(f"map covers {len(entries)} of {len(assignment)} source edges")
    return EdgeMap(source, target, assignment)


def _require_covered_target(target: Graph) -> Graph:
    """target, unless a vertex of it is isolated: no edge map is onto that."""
    isolated = set(range(target.vertex_count())).difference(*target._ends)
    if isolated:
        v = target.vertices[min(isolated)]
        raise InputError(f"target vertex {v!r} is isolated; the map cannot be onto")
    return target


# -- verification -------------------------------------------------------------


class MapWitness(Frozen):
    """A circuit whose mapped edge set is not a circuit.

    direction "forward": circuit lives in the source, mapped in the target.
    direction "reverse": circuit lives in the target, mapped in the source.
    """

    direction: str
    circuit: Circuit
    mapped: EdgeSet


class Verdict(Frozen):
    """Outcome of a verification run. Truthy iff the check passed. mode is
    "exhaustive", "sampled", or "basis" from check_circuit_isomorphism."""

    passed: bool
    mode: str
    circuits_checked: int
    witness: MapWitness | None = None
    # Sampled mode only: why the run stopped (see check_circuit_injection).
    samples_requested: int | None = None
    attempts: int | None = None
    stop_reason: str | None = None

    def __bool__(self) -> bool:
        return self.passed


def check_circuit_injection(edge_map: EdgeMap, mode: str = "exhaustive",
                            samples: int = 500, seed: int = 1,
                            max_count: int = DEFAULT_MAX_CIRCUITS) -> Verdict:
    """Does the map send every circuit of the source to a circuit of the target?

    In either mode, InputError refuses budgets `samples` and `max_count`
    that are not positive ints, and a `seed` that is not an int (a bool is
    neither). mode "exhaustive" enumerates every circuit under the
    max_count budget. With more circuits than edges, it first runs
    check_circuit_isomorphism's basis test (a step per edge against at least
    one per circuit): a map that passes is a circuit isomorphism, so it
    passes with circuits_checked counting the enumerated circuits, each
    proven through the basis, none expanded or tested. Otherwise every
    circuit is tested in canonical order, so the witness of a failing map is
    the canonically first counterexample.

    mode "sampled" first asks reconstruct_vertex_isomorphism, guard off,
    for a vertex map φ inducing the map (by the paper's converse, every
    circuit injection from a 3-connected source has one). Then f(C) = φ(C)
    is a circuit for every circuit C, so the run stops there: it passes
    with stop_reason "induced", no attempts and circuits_checked
    min(samples, μ), for the cycle rank μ = m − n + c of a source with c
    components, which counts the fundamental circuits of any spanning
    forest, each certified by φ. A map the read refuses is tested on up to
    `samples` circuits drawn from a seeded generator: fundamental circuits
    of a random spanning tree, then random symmetric differences of known
    circuits filtered back to circuits. A sampled Pass of a refused map is
    evidence, not proof; a sampled Fail is always genuine.

    Each circuit is tested in time linear in its length, so a sampled run
    costs O(n + m) plus time linear in the circuits drawn and the pairs
    mixed (see _sampled_circuits). Its verdict also carries
    samples_requested, attempts (mixes tried) and stop_reason, decided
    here: "induced", "witness", "samples", "attempt_limit" or
    "too_few_circuits".
    """
    _require_int(samples, 1, "samples must be positive", "samples")
    _require_int(max_count, 1, "max_count must be positive", "max_count")
    _require_int(seed, name="seed")
    if mode == "exhaustive":
        circuits = enumerate_circuits(edge_map.source, max_count)
        if len(circuits) > edge_map.source.edge_count() and _basis_test(edge_map)[1] is None:
            return Verdict(True, mode, len(circuits))
        checked, broken = _first_broken(edge_map, circuits.edge_ids())
        return Verdict(broken is None, mode, checked, _witness(edge_map, "forward", broken))
    if mode != "sampled":
        raise InputError(f"unknown mode {mode!r}")
    source, stats = edge_map.source, {"attempts": 0}
    try:
        reconstruct_vertex_isomorphism(edge_map, check_connectivity=False)
    except NotInducedError:
        checked, broken = _first_broken(
            edge_map, _sampled_circuits(source, samples, seed, stats=stats))
    else:  # induced: no image is tested
        m, checked = source.edge_count(), samples
        if m - source.vertex_count() < samples:  # μ = m − n + c may be below samples
            checked = min(samples, len(_fundamental_circuits(source, range(m))[1]))
        return Verdict(True, mode, checked, samples_requested=samples, attempts=0,
                       stop_reason="induced")
    if broken is not None:
        reason = "witness"
    elif checked >= samples:  # the stream ran dry: checked is its whole pool
        reason = "samples"
    elif checked < 2:
        reason = "too_few_circuits"
    else:
        reason = "attempt_limit"
    return Verdict(broken is None, mode, checked, _witness(edge_map, "forward", broken),
                   samples_requested=samples, attempts=stats["attempts"], stop_reason=reason)


def _first_broken(edge_map: EdgeMap, pool) -> tuple[int, list[int] | None]:
    """Test the source circuits in `pool` (collections of distinct edge ids)
    in turn: how many were tested, and the ids of the first whose image is
    not a circuit, after which no later one is drawn.

    Each image is tested as a list of target ids, which are distinct as the
    map is a bijection, so the loop builds no Circuit and no witness."""
    assignment, target = edge_map.assignment, edge_map.target
    checked = 0
    for ids in pool:
        checked += 1
        if not _edge_ids_form_circuit(target, [assignment[i] for i in ids]):
            return checked, ids
    return checked, None


def _witness(edge_map: EdgeMap, direction: str, ids) -> MapWitness | None:
    """The witness for a broken circuit of the source ("forward") or of the
    target ("reverse") given by its edge ids; None when ids is None."""
    if ids is None:
        return None
    if direction == "forward":
        home, other, mapped = edge_map.source, edge_map.target, edge_map.image(ids)
    else:
        home, other, mapped = edge_map.target, edge_map.source, edge_map.preimage(ids)
    return MapWitness(direction, Circuit(home, ids), EdgeSet(other, mapped))


def check_circuit_isomorphism(edge_map: EdgeMap) -> Verdict:
    """Do circuits correspond in both directions under the map?

    Exact from one spanning forest F of the source (Kruskal over a fixed
    seeded shuffle), as a graphic matroid is binary and so fixed by one
    basis and its fundamental circuits (Whitney, Amer. J. Math. 55, 1933;
    Oxley, Matroid Theory, ch. 6). f is a circuit isomorphism iff every
    fundamental circuit C(e, F) maps to a circuit ("forward" witness
    otherwise) and a Kruskal pass over f(F) finds no circuit, whose
    preimage would lie in the acyclic F ("reverse" witness). circuits_checked
    counts the fundamental circuits tested. Costs O(n + m) plus their total
    length; there is no budget.
    """
    checked, direction, ids = _basis_test(edge_map)
    return Verdict(ids is None, "basis", checked, _witness(edge_map, direction, ids))


def _basis_test(edge_map: EdgeMap) -> tuple[int, str | None, list[int] | None]:
    """check_circuit_isomorphism's two tests, building no witness: the
    fundamental circuits tested, then the direction and edge ids of the
    first broken circuit, or (None, None) when the map passes both."""
    forest, chords, circuit_of = _shuffled_forest(edge_map.source, XorShift64Star(1))
    checked, broken = _first_broken(edge_map, map(circuit_of, chords))
    if broken is not None:
        return checked, "forward", broken
    _, cycles, image_circuit_of = _fundamental_circuits(
        edge_map.target, [edge_map.image_of(eid) for eid in forest])
    if cycles:
        return checked, "reverse", image_circuit_of(cycles[0])
    return checked, None, None


def _shuffled_forest(graph: Graph, rng: XorShift64Star):
    """_fundamental_circuits over the edge ids in an order shuffled by rng."""
    order = list(range(graph.edge_count()))
    rng.shuffle(order)
    return _fundamental_circuits(graph, order)


def _sampled_circuits(graph: Graph, samples: int, seed: int, *, stats: dict):
    """Seeded stream of distinct circuits: spanning-tree fundamental circuits,
    then random pairwise symmetric differences kept when they are circuits.

    _shuffled_forest picks the spanning forest from a seeded shuffle of
    the edges and reads each chord's circuit. Mixing draws random
    pairs from the pool; edge-disjoint pairs are skipped, since their
    symmetric difference is never a circuit.
    Cost: O(n + m) for the forest plus time linear in the circuits found
    and in the pairs mixed, of which there are at most 20 × samples.

    The stream only draws: stats["attempts"] counts the mixes tried while
    it runs, and check_circuit_injection decides why the stream stopped.
    """
    stats["attempts"] = 0
    rng = XorShift64Star(seed)
    _, chords, circuit_of = _shuffled_forest(graph, rng)

    # Every circuit drawn joins the pool; fundamental circuits are distinct,
    # each holding its own chord.
    emitted: set[frozenset[int]] = set()
    pool: list[frozenset[int]] = []
    for eid in chords[:samples]:
        ids = frozenset(circuit_of(eid))
        emitted.add(ids)
        pool.append(ids)
        yield ids

    limit = samples * 20
    while 2 <= len(pool) < samples and stats["attempts"] < limit:
        stats["attempts"] += 1
        i = rng.randrange(len(pool))
        j = rng.randrange(len(pool))
        if i == j or pool[i].isdisjoint(pool[j]):
            continue
        mix = pool[i] ^ pool[j]
        if mix not in emitted and _edge_ids_form_circuit(graph, mix):
            emitted.add(mix)
            pool.append(mix)
            yield mix


# -- star classification ------------------------------------------------------


class StarAt(Frozen):
    """The mapped star is exactly the star of one vertex."""

    vertex: str


class IndependentEdges(Frozen):
    """The mapped star is pairwise nonadjacent."""


class StarViolation(Frozen):
    """The mapped star is neither a full star nor independent.

    kind "no_common_vertex": edges holds two adjacent members plus one
    missing their shared vertex. kind "partial_star": every member passes
    through `vertex` but edges holds one edge of that star left uncovered.
    """

    kind: str
    edges: tuple[int, ...]
    vertex: str | None = None


StarImageClass = StarAt | IndependentEdges | StarViolation


def _classify_edge_ids(graph: Graph, ids: frozenset[int]) -> StarImageClass:
    """Class of a nonempty edge-id set, read from one walk of its members.

    at[v] lists the positions (in id order) of the members at v. Vertices
    holding every member, both ends of a single edge and otherwise at most
    one, are tried as star centers in label order. A pair x < y meeting at
    s has at[s][0] <= x, and at[s][1] <= y when at[s][0] == x, so the least
    adjacent pair is the least (at[s][0], at[s][1]) over every such s.
    """
    ordered = sorted(ids)
    at: dict[str, list[int]] = {}
    for k, i in enumerate(ordered):
        for v in graph.edges[i]:
            at.setdefault(v, []).append(k)
    common = sorted(v for v, ks in at.items() if len(ks) == len(ordered))
    for w in common:
        star_ids = set(graph.incident_edges(w))
        if star_ids == ids:
            return StarAt(w)
    meets = [(ks[0], ks[1], s) for s, ks in at.items() if len(ks) > 1]
    if not meets:
        return IndependentEdges()
    if common:  # common == [w], and its star holds more than ids
        return StarViolation("partial_star", (min(star_ids - ids),), w)
    x, y, shared = min(meets)
    third = next(i for i in ordered if shared not in graph.edges[i])
    return StarViolation("no_common_vertex", (ordered[x], ordered[y], third))


def classify_star_image(edge_map: EdgeMap, v: str) -> StarImageClass:
    """Classify the image of v's star in the target (target edge ids)."""
    ids = star(edge_map.source, v).members
    if not ids:
        raise InputError(f"source vertex {v!r} has no incident edges")
    return _classify_edge_ids(edge_map.target, edge_map.image(ids))


def classify_star_preimage(edge_map: EdgeMap, w: str) -> StarImageClass:
    """Classify the preimage of w's star in the source (source edge ids)."""
    ids = star(edge_map.target, w).members
    if not ids:
        raise InputError(f"target vertex {w!r} has no incident edges")
    return _classify_edge_ids(edge_map.source, edge_map.preimage(ids))


# -- reconstruction -----------------------------------------------------------


class VertexIso(Frozen):
    """A bijective relabeling of string vertex labels, stored as a tuple of
    (source, target) pairs."""

    pairs: tuple[tuple[str, str], ...]

    def __init__(self, pairs: Iterable[tuple[str, str]]):
        try:
            pairs = tuple(map(tuple, pairs))
            table = dict(pairs)
            repeats = len(table) != len(pairs) or len(set(table.values())) != len(pairs)
        except (TypeError, ValueError):
            raise InputError("vertex map must be (source, target) pairs") from None
        if not all(map(str.__instancecheck__, chain(table, table.values()))):
            label = next(filterfalse(str.__instancecheck__, chain.from_iterable(pairs)))
            raise InputError(f"vertex label {label!r} is not a string")
        if repeats:
            raise InputError("vertex map repeats a source or target")
        self.__dict__.update(pairs=pairs, _table=table)

    @property
    def as_dict(self) -> MappingProxyType:
        """The relabeling as a read-only source -> target mapping."""
        return MappingProxyType(self._table)


def is_induced_by(edge_map: EdgeMap, iso: VertexIso) -> bool:
    """Does the edge map act exactly as the vertex relabeling iso?

    True iff for every source edge (u, v), the image edge's endpoints are
    precisely {iso(u), iso(v)}, compared as target indices (-1: not a target
    label).
    """
    table = iso._table
    source, target = edge_map.source, edge_map.target
    if set(table) != set(source.vertices):
        return False
    index, image_ends = target._index, target._ends
    phi = [index.get(table[v], -1) for v in source.vertices]
    for (u, v), j in zip(source._ends, edge_map.assignment):
        x, y = image_ends[j]
        if not ((phi[u] == x and phi[v] == y) or (phi[u] == y and phi[v] == x)):
            return False
    return True


def reconstruct_vertex_isomorphism(edge_map: EdgeMap,
                                   check_connectivity: bool = True) -> VertexIso:
    """Recover the vertex isomorphism inducing a circuit injection.

    For a verified circuit injection whose source is 3-connected, every
    star maps onto exactly one target star, and reading off those centers
    yields the unique inducing vertex isomorphism. Raises
    PreconditionError with a separator of the source when the source guard
    fails (suppress with check_connectivity=False to probe other maps), and
    NotInducedError at the first vertex whose star image is not a full
    star, or when the collected centers fail to be a bijection. The center
    of v is an end of v's first image that lies on all deg(v) images of its
    edges and has degree deg(v), the least label first. Only the two ends
    of a one-edge component can share a center, as f is injective; when its
    image is a one-edge component too, the second end takes the image's
    other end. Each edge uv then maps into star(c(u)) ∩ star(c(v)), the one
    edge c(u)c(v), so a map that `is_induced_by` still rejects is a library
    fault: InternalError. With the guard off this costs O(n + m); a star
    class (classify_star_image) is built only for the refused vertex.
    """
    source, target = edge_map.source, edge_map.target
    if check_connectivity and not is_k_connected(source, 3):
        raise _refusal(source, 3, "reconstruction requires a 3-connected source")
    image_ends, names = target._ends, target.vertices
    # Per source vertex, the endpoint indices of its edges' images, two per
    # edge in id order; and per target vertex, its degree.
    ends_at: list[list[int]] = [[] for _ in source.vertices]
    for (u, v), j in zip(source._ends, edge_map.assignment):
        ends_at[u] += image_ends[j]
        ends_at[v] += image_ends[j]
    degree = [0] * target.vertex_count()
    for x, y in image_ends:
        degree[x] += 1
        degree[y] += 1
    pairs, centers = [], set()
    for v, ends in zip(source.vertices, ends_at):
        if not ends:
            raise NotInducedError(
                f"source vertex {v!r} is isolated", vertex=v)
        # An end c of the first image is on all d images iff ends holds it d
        # times; ends.count is 2x faster than testing each image.
        d = len(ends) // 2
        found = []
        for c in ends[0], ends[1]:
            if degree[c] == d == ends.count(c):
                found.append(names[c])
        if not found:
            kind = classify_star_image(edge_map, v)
            raise NotInducedError(
                f"star image of {v!r} is {type(kind).__name__}, not a star",
                vertex=v, star_class=kind)
        found.sort()
        # found[0] is taken only by the other end of v's one-edge component
        w = found[-1] if found[0] in centers else found[0]
        centers.add(w)
        pairs.append((v, w))
    if len(centers) != len(pairs) or centers != set(target.vertices):
        raise NotInducedError("star centers do not form a vertex bijection")
    iso = VertexIso(pairs)
    if not is_induced_by(edge_map, iso):
        raise InternalError("collected star centers do not induce the map")
    return iso
