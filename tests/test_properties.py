"""Randomized invariants, checked with hypothesis on small graphs."""

from unittest.mock import patch

import pytest
from hypothesis import example, given, settings, strategies as st

from circuitmap import (
    Circuit,
    EdgeMap,
    EdgeSet,
    IndependentEdges,
    InputError,
    MapWitness,
    NotInducedError,
    PreconditionError,
    build_counterexample,
    build_graph,
    check_circuit_injection,
    check_circuit_isomorphism,
    circuit_and_attached_path,
    classify_star_image,
    classify_star_preimage,
    complete_bipartite,
    components,
    cutpoints,
    decompose_by_star_preimage,
    enumerate_circuits,
    find_crossing_structure,
    graph_from_json,
    graph_to_json,
    is_circuit,
    is_k_connected,
    named_graph,
    permuted_edge_map,
    random_three_connected,
    random_two_connected,
    reconstruct_vertex_isomorphism,
    star,
    StarAt,
    theta_graph,
    two_disjoint_paths,
    validate_attached_path,
    Verdict,
)
from circuitmap import circuits as circuits_module, edge_maps
from circuitmap.connectivity import _cuts_and_count, _small_separator
from circuitmap.graph import _components
from circuitmap.rng import XorShift64Star
from conftest import (CORPUS, blocks_and_trees, complete, cycle_graph, ladder,
                      seeded_relabel, whitney_twist)
from oracle import (
    _connected_on,
    brute_circuits,
    brute_components,
    brute_cutpoints,
    brute_inducing_maps,
    brute_is_circuit,
    brute_is_k_connected,
    brute_star_class,
    cycle_space_circuits,
)


@st.composite
def graphs(draw, max_vertices=7, max_edges=10):
    n = draw(st.integers(1, max_vertices))
    labels = [f"v{i}" for i in range(n)]
    possible = [(labels[i], labels[j])
                for i in range(n) for j in range(i + 1, n)]
    if possible:
        edges = draw(st.lists(st.sampled_from(possible), unique=True,
                              max_size=min(len(possible), max_edges)))
    else:
        edges = []
    return build_graph(labels, edges)


@settings(max_examples=60, deadline=None)
@given(graphs())
def test_each_edge_sits_in_exactly_its_two_endpoint_stars(g):
    for eid in range(g.edge_count()):
        u, v = g.endpoints(eid)
        holders = [x for x in g.vertices if eid in star(g, x).members]
        assert sorted(holders) == sorted((u, v))


@settings(max_examples=60, deadline=None)
@given(graphs())
def test_json_round_trip(g):
    import json

    payload = graph_to_json(g)
    assert graph_from_json(payload) == g
    assert json.dumps(graph_to_json(graph_from_json(payload))) == json.dumps(payload)


@settings(max_examples=100, deadline=None)
@given(graphs(max_vertices=7, max_edges=10))
def test_enumeration_matches_powerset_oracle(g):
    # The whole list, order included: canonical order is the sorted edge ids.
    expected = sorted(brute_circuits(g), key=sorted)
    assert [c.edges for c in enumerate_circuits(g)] == expected


@st.composite
def subdivided_graphs(draw):
    """graphs(6, 9) with up to 3 edges replaced by paths, at most 14 edges in
    all, in a drawn edge order: chains of several edges for the enumeration
    to contract, with their least ids anywhere along them."""
    g = draw(graphs(max_vertices=6, max_edges=9))
    vertices, edges = list(g.vertices), list(g.edges)
    picked = draw(st.lists(st.sampled_from(range(len(edges))), unique=True,
                           max_size=3)) if edges else []
    for eid in picked:
        room = 14 - len(edges)
        if room == 0:
            break
        inner = [f"s{eid}_{k}" for k in range(draw(st.integers(1, room)))]
        path = [edges[eid][0], *inner, edges[eid][1]]
        vertices += inner
        edges[eid] = (path[0], path[1])
        edges += zip(path[1:-1], path[2:])
    return build_graph(vertices, draw(st.permutations(edges)))


@st.composite
def ladders(draw):
    """ladder(2-8) in a drawn edge order, with an optional pendant path:
    the longest multi-chain masks of any small graph."""
    g = ladder(draw(st.integers(2, 8)))
    vertices, edges = list(g.vertices), list(g.edges)
    pendant = [f"p{k}" for k in range(draw(st.integers(0, 3)))]
    if pendant:
        path = [draw(st.sampled_from(vertices)), *pendant]
        vertices += pendant
        edges += zip(path, path[1:])
    return build_graph(vertices, draw(st.permutations(edges)))


# A bare cycle beside a K4, and a theta whose three paths have 1, 2 and 3
# edges: a component with no vertex of degree 3, and a chain of one edge
# parallel to longer ones.
_CYCLE_BESIDE_K4 = build_graph(
    [f"c{i}" for i in range(5)] + [f"k{i}" for i in range(4)],
    [(f"c{i}", f"c{(i + 1) % 5}") for i in range(5)]
    + [(f"k{i}", f"k{j}") for i in range(4) for j in range(i + 1, 4)])
_THETA_WITH_DIRECT_EDGE = build_graph(
    ["u", "w", "a", "b", "c"],
    [("b", "c"), ("u", "a"), ("c", "w"), ("a", "w"), ("u", "w"), ("u", "b")])


@settings(max_examples=150, deadline=None)
@given(st.one_of(subdivided_graphs(), ladders()))
@example(blocks_and_trees())  # a chain that returns to its start at a cutpoint
@example(_CYCLE_BESIDE_K4)
@example(_THETA_WITH_DIRECT_EDGE)
@example(build_counterexample(5)[0])
def test_enumeration_matches_oracle_on_subdivided_graphs(g):
    # The powerset oracle is out of reach past about 17 edges (2^25 subsets
    # for the p = 5 source); the cycle-space oracle filters 2^4 sums there.
    # A ladder (rail a0, ...) of r rungs has cycle rank r - 1 on 3r - 2
    # edges or more, so it always goes to the cycle-space oracle.
    oracle = (brute_circuits if g.edge_count() <= 17 and "a0" not in g.vertices
              else cycle_space_circuits)
    expected = sorted(oracle(g), key=sorted)
    assert [c.edges for c in enumerate_circuits(g)] == expected


@settings(max_examples=200, deadline=None)
@given(graphs(max_vertices=7, max_edges=14), st.data())
def test_circuit_test_matches_oracle_on_arbitrary_subsets(g, data):
    edge = st.integers(0, max(g.edge_count() - 1, 0))
    circuits = [c.edges for c in enumerate_circuits(g)]
    if circuits and data.draw(st.booleans()):
        # Circuits, unions of two and near misses are rare among arbitrary
        # subsets: build them from up to two circuits and a few toggles.
        picks = data.draw(st.lists(st.sampled_from(circuits), min_size=1, max_size=2))
        ids = frozenset().union(*picks)
        ids ^= data.draw(st.frozensets(edge, max_size=2))
    else:
        ids = data.draw(st.frozensets(edge, max_size=g.edge_count()))
    assert is_circuit(g, EdgeSet(g, ids)) is brute_is_circuit(g, ids)


def _circuit_test_case(name):
    """(host graph, edge ids) for the named shape."""
    if name == "isolated_vertices":
        g = build_graph(["a", "b", "c", "x", "y"],
                        [("a", "b"), ("b", "c"), ("a", "c")])
        return g, range(3)
    if name in ("two_triangles", "bowtie"):
        shared = name == "bowtie"
        second = ["a", "d", "e"] if shared else ["d", "e", "f"]
        vertices = ["a", "b", "c"] + second[shared:]
        edges = [("a", "b"), ("b", "c"), ("a", "c"),
                 (second[0], second[1]), (second[1], second[2]),
                 (second[0], second[2])]
        return build_graph(vertices, edges), range(6)
    g = named_graph("prism")   # a0 a1 a2 / b0 b1 b2, rungs a_i b_i
    ids = {"empty": [], "single_edge": [0], "path": [0, 1, 6]}[name]
    return g, ids


@pytest.mark.parametrize("name,expected", [
    ("empty", False), ("single_edge", False), ("path", False),
    ("two_triangles", False), ("bowtie", False), ("isolated_vertices", True),
])
def test_circuit_test_on_edge_cases(name, expected):
    g, ids = _circuit_test_case(name)
    ids = frozenset(ids)
    assert brute_is_circuit(g, ids) is expected
    assert is_circuit(g, EdgeSet(g, ids)) is expected


@settings(max_examples=40, deadline=None)
@given(graphs(max_vertices=6, max_edges=9))
def test_circuit_symmetric_differences_stay_even(g):
    circuits = enumerate_circuits(g)
    for a in circuits[:6]:
        for b in circuits[:6]:
            mix = a.edges ^ b.edges
            degree = {}
            for eid in mix:
                for v in g.endpoints(eid):
                    degree[v] = degree.get(v, 0) + 1
            assert all(d % 2 == 0 for d in degree.values())
            # an even edge set is a circuit only if the library agrees
            if mix:
                is_circuit(g, EdgeSet(g, mix))


@settings(max_examples=30, deadline=None)
@given(graphs(max_vertices=6, max_edges=9), st.integers(1, 4))
def test_connectivity_matches_oracle(g, k):
    assert is_k_connected(g, k) is brute_is_k_connected(g, k)
    if k <= 3 and g.vertex_count() > k:
        assert_small_separator_matches_oracle(g, k, _small_separator(g, k))
    if k in (2, 3):
        assert_guard_refusals_match_oracle(g, k)


def assert_small_separator_matches_oracle(g, k, separator):
    """separator, found for g and k, is None iff the oracle calls g
    k-connected; otherwise it is fewer than k sorted labels whose deletion
    leaves g disconnected."""
    assert (separator is None) is brute_is_k_connected(g, k), (g, k, separator)
    if separator is not None:
        assert len(separator) < k and list(separator) == sorted(separator)
        assert not _connected_on(g, set(g.vertices) - set(separator)), (g, separator)


def _identity(g):
    return EdgeMap(g, g, range(g.edge_count()))


# The four k-connectivity guards, as (k, fewest vertices the call takes,
# a call on g that reaches the guard before any other check of g).
CONNECTIVITY_GUARDS = [
    (3, 1, lambda g: reconstruct_vertex_isomorphism(_identity(g))),
    (3, 1, lambda g: find_crossing_structure(g, EdgeSet(g, ()))),
    (2, 1, lambda g: decompose_by_star_preimage(_identity(g), g.vertices[0])),
    (2, 3, lambda g: circuit_and_attached_path(g, *g.vertices[:3])),
]


def assert_guard_refusals_match_oracle(g, k=None):
    """Each k-connectivity guard (every guard when k is None) refuses g iff
    the oracle says g is not k-connected. A refusal carries k, and its
    separator is None exactly when n <= k; otherwise the separator passes
    assert_small_separator_matches_oracle."""
    n = g.vertex_count()
    for guard_k, least, guard in CONNECTIVITY_GUARDS:
        if k not in (None, guard_k) or n < least:
            continue
        refusal = None
        try:
            guard(g)
        except PreconditionError as err:
            if err.k is not None:
                refusal = err
        assert refusal is None or refusal.k == guard_k, (g, guard_k)
        if n <= guard_k:
            assert refusal is not None and refusal.separator is None, (g, guard_k)
        else:
            separator = None if refusal is None else refusal.separator
            assert (refusal is None) is (separator is None), (g, guard_k)
            assert_small_separator_matches_oracle(g, guard_k, separator)


@settings(max_examples=40, deadline=None)
@given(graphs(max_vertices=6, max_edges=9))
def test_two_connected_iff_connected_without_cutpoints(g):
    expected = (g.vertex_count() >= 3 and is_k_connected(g, 1)
                and not cutpoints(g))
    assert is_k_connected(g, 2) is expected


@st.composite
def sparse_graphs(draw, max_vertices=9):
    """Graphs with shuffled labels and edge order: forests (each vertex hangs
    from at most one earlier one), or arbitrary edges inside consecutive
    pieces, so isolated vertices and several components are common."""
    n = draw(st.integers(1, max_vertices))
    labels = draw(st.permutations([f"v{i}" for i in range(n)]))
    if draw(st.booleans()):
        parents = [draw(st.integers(-1, i - 1)) for i in range(n)]
        edges = [(labels[i], labels[p]) for i, p in enumerate(parents) if p >= 0]
    else:
        inner = sorted(draw(st.sets(st.integers(1, n - 1), max_size=3))) if n > 1 else []
        bounds = [0, *inner, n]
        pairs = [(labels[i], labels[j]) for lo, hi in zip(bounds, bounds[1:])
                 for i in range(lo, hi) for j in range(i + 1, hi)]
        edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    return build_graph(labels, draw(st.permutations(edges)))


@settings(max_examples=200, deadline=None)
@given(sparse_graphs())
def test_traversal_answers_match_oracle(g):
    assert cutpoints(g) == brute_cutpoints(g)
    assert [set(b) for b in components(g)] == brute_components(g)
    for k in (1, 2):
        assert is_k_connected(g, k) is brute_is_k_connected(g, k)


@settings(max_examples=150, deadline=None)
@given(st.one_of(sparse_graphs(), graphs()))
def test_search_with_a_skipped_vertex_matches_oracle(g):
    # _cuts_and_count(g, skip=x) and _components(..., skip=x) must describe
    # g - x, which the oracle reads off the subgraph built without x.
    for x, label in enumerate(g.vertices):
        rest = build_graph([v for v in g.vertices if v != label],
                           [e for e in g.edges if label not in e])
        cut, count = _cuts_and_count(g, skip=x)
        assert tuple(sorted(g.vertices[i] for i in cut)) == brute_cutpoints(rest)
        assert count == len(brute_components(rest))
        assert _components(g._adjacency, g.vertices, x) == tuple(
            sorted(tuple(sorted(b)) for b in brute_components(rest)))


# Roots are taken by degree, not by index: here the highest-degree vertex
# has the highest index. Sparse graphs are cut to 12 edges for the powerset
# oracle.
_WHEEL_HUB_LAST = build_graph([f"r{i}" for i in range(5)] + ["hub"],
                              [(f"r{i}", f"r{(i + 1) % 5}") for i in range(5)]
                              + [("hub", f"r{i}") for i in range(5)])


@settings(max_examples=100, deadline=None)
@given(st.one_of(graphs(), sparse_graphs().map(
    lambda g: build_graph(g.vertices, g.edges[:12])), subdivided_graphs()))
@example(_WHEEL_HUB_LAST)
@example(blocks_and_trees())
def test_budget_boundary_matches_oracle_count(g):
    c = len(brute_circuits(g))
    assert len(enumerate_circuits(g, max_count=max(c, 1))) == c
    if c >= 2:
        with pytest.raises(PreconditionError, match=rf"^more than {c - 1} circuits$"):
            enumerate_circuits(g, max_count=c - 1)


@st.composite
def small_edge_maps(draw):
    """A relabelled copy of a graph with up to two image swaps, or any
    bijection from a sparse graph onto a second graph, both cut to the same
    edge count; a forest source fails in reverse only."""
    if draw(st.booleans()):
        return _relabelled_with_swaps(draw, draw(graphs(max_vertices=6, max_edges=9)))
    g = draw(sparse_graphs(max_vertices=7))
    h = draw(graphs(max_vertices=6, max_edges=9))
    m = min(g.edge_count(), h.edge_count())
    g = build_graph(g.vertices, g.edges[:m])
    h = build_graph(h.vertices, h.edges[:m])
    return EdgeMap(g, h, tuple(draw(st.permutations(range(m)))))


def _relabelled_with_swaps(draw, g) -> EdgeMap:
    """A relabelled copy of g with up to two image swaps."""
    f = permuted_edge_map(g, seeded_relabel(g, draw(st.integers(0, 2**32))))
    images = list(f.assignment)
    for _ in range(draw(st.integers(0, 2)) if images else 0):
        i = draw(st.integers(0, len(images) - 1))
        j = draw(st.integers(0, len(images) - 1))
        images[i], images[j] = images[j], images[i]
    return EdgeMap(g, f.target, tuple(images))


@st.composite
def subdivided_edge_maps(draw):
    """A relabelled subdivided graph with up to two image swaps: circuits
    that run along chains, whose edge ids are read back from chain masks."""
    return _relabelled_with_swaps(draw, draw(subdivided_graphs()))


@settings(max_examples=150, deadline=None)
@given(st.one_of(small_edge_maps(), subdivided_edge_maps()))
def test_exhaustive_check_matches_oracle(f):
    # Canonical order is the sorted edge ids; the witness is the first
    # circuit of the source, in that order, whose image is no circuit.
    ordered = sorted(brute_circuits(f.source), key=sorted)
    broken = [c for c in ordered if not brute_is_circuit(f.target, f.image(c))]
    verdict = check_circuit_injection(f)
    assert verdict.passed is (not broken)
    if not broken:
        assert verdict.witness is None and verdict.circuits_checked == len(ordered)
        return
    w = verdict.witness
    assert w.direction == "forward" and w.circuit.host == f.source
    assert w.circuit.edges == min(broken, key=sorted)
    assert verdict.circuits_checked == 1 + ordered.index(w.circuit.edges)
    assert w.mapped.host == f.target and w.mapped.members == f.image(w.circuit.edges)


@settings(max_examples=150, deadline=None)
@given(small_edge_maps())
def test_isomorphism_matches_oracle(f):
    images = {f.image(c) for c in brute_circuits(f.source)}
    verdict = check_circuit_isomorphism(f)
    assert verdict.passed is (images == brute_circuits(f.target))
    if not verdict.passed:
        w = verdict.witness
        own, other = ((f.source, f.target) if w.direction == "forward"
                      else (f.target, f.source))
        assert w.circuit.host == own and w.mapped.host == other
        assert is_circuit(own, EdgeSet(own, w.circuit.edges))
        assert not is_circuit(other, w.mapped)


def _side_by_side(f: EdgeMap, g: EdgeMap) -> EdgeMap:
    """f and g on disjoint copies of their graphs; each circuit of the
    union lies on one side."""
    def union(a, b):
        return build_graph([f"a{v}" for v in a.vertices] + [f"b{v}" for v in b.vertices],
                           [(f"a{u}", f"a{v}") for u, v in a.edges]
                           + [(f"b{u}", f"b{v}") for u, v in b.edges])

    m = f.source.edge_count()
    return EdgeMap(union(f.source, g.source), union(f.target, g.target),
                   f.assignment + tuple(m + j for j in g.assignment))


@st.composite
def exhaustive_branch_cases(draw):
    """(branch, map): a map built to take one branch of the exhaustive check.

    "proved": the basis test passes, on relabelled 3-connected graphs and on
    Whitney twists, which are 2-connected and not induced. "disproved": the
    counterexample injection, p <= 13, beside a relabelled K6 (the
    counterexample alone has fewer circuits than edges), so the basis test
    runs and fails while every circuit maps to a circuit. "both_fail": a
    relabelled 3-connected graph with two images swapped, which no vertex
    map induces and so, by the paper's theorem, breaks a circuit; and the
    inverse p = 3 counterexample. "skipped": at most as many circuits as
    edges (cycles, bowties, theta graphs with up to 5 paths, the
    counterexamples), relabelled with up to two swaps.
    """
    branch = draw(st.sampled_from(["proved", "disproved", "both_fail", "skipped"]))
    seed = draw(st.integers(0, 2**32))
    if branch == "proved":
        if draw(st.booleans()):
            return branch, whitney_twist(draw(st.integers(4, 6)), draw(st.integers(6, 7)),
                                         draw(st.integers(0, 200)))
        g = random_three_connected(draw(st.integers(4, 8)), seed)
        return branch, permuted_edge_map(g, seeded_relabel(g, seed))
    if branch == "disproved":
        k6 = complete(6)
        return branch, _side_by_side(build_counterexample(draw(st.sampled_from(_PRIMES)))[2],
                                     permuted_edge_map(k6, seeded_relabel(k6, seed)))
    if branch == "both_fail":
        if draw(st.integers(0, 9)) == 0:
            return branch, build_counterexample(3)[2].inverted()
        g = random_three_connected(draw(st.integers(4, 8)), seed)
        f = permuted_edge_map(g, seeded_relabel(g, seed))
        i, j = draw(st.lists(st.integers(0, g.edge_count() - 1), min_size=2, max_size=2,
                             unique=True))
        images = list(f.assignment)
        images[i], images[j] = images[j], images[i]
        return branch, EdgeMap(g, f.target, tuple(images))
    kind = draw(st.sampled_from(["theta", "cycle", "bowtie", "counterexample"]))
    if kind == "theta":
        g = named_graph("theta", draw(st.integers(2, 5)))
    elif kind == "cycle":
        g = cycle_graph(draw(st.integers(3, 30)))
    elif kind == "bowtie":
        g = _BOWTIE
    else:
        g = build_counterexample(draw(st.sampled_from(_PRIMES)))[0]
    return branch, _relabelled_with_swaps(draw, g)


_PRIMES = (3, 5, 7, 11, 13)
_BOWTIE = build_graph("abcde", ["ab", "ac", "bc", "cd", "ce", "de"])


@settings(max_examples=120, deadline=None)
@given(exhaustive_branch_cases())
def test_exhaustive_verdict_is_the_loops_on_every_branch(case):
    # The verdict is the one-circuit-at-a-time loop's over the whole
    # enumeration; the basis test and mask expansions show the branch.
    branch, f = case
    circuits = enumerate_circuits(f.source)
    checked, broken = edge_maps._first_broken(f, circuits.edge_ids())
    witness = broken and MapWitness("forward", Circuit(f.source, frozenset(broken)),
                                    EdgeSet(f.target, f.image(broken)))
    basis_runs, expanded = [], []
    basis_test, expand = edge_maps._basis_test, circuits_module._CircuitMasks._expanded
    with (patch.object(edge_maps, "_basis_test",
                       lambda f: basis_runs.append(f) or basis_test(f)),
          patch.object(circuits_module._CircuitMasks, "_expanded",
                       lambda self, mask: expanded.append(mask) or expand(self, mask))):
        verdict = check_circuit_injection(f)
    assert verdict == Verdict(broken is None, "exhaustive", checked, witness)
    proof_runs = len(circuits) > f.source.edge_count()
    assert proof_runs == (branch != "skipped") and len(basis_runs) == int(proof_runs)
    proved = proof_runs and check_circuit_isomorphism(f).passed
    assert proved == (branch == "proved")
    if proof_runs:
        assert verdict.passed == (branch in ("proved", "disproved"))
    assert len(expanded) == (0 if proved else checked)


def _star_class_tuple(kind) -> tuple:
    if isinstance(kind, StarAt):
        return ("star", kind.vertex)
    if isinstance(kind, IndependentEdges):
        return ("independent",)
    return (kind.kind, kind.edges) + (() if kind.vertex is None else (kind.vertex,))


# A K2 component and a path on both sides: single-edge stars at degree-1
# vertices, a single edge that is no star, and a two-edge independent image.
_K2_AND_PATH = EdgeMap(build_graph("abcde", [("a", "b"), ("c", "d"), ("d", "e")]),
                       build_graph("xyuvw", [("x", "y"), ("u", "v"), ("v", "w")]),
                       (1, 0, 2))


def _shuffled_theta6_onto_k66() -> EdgeMap:
    """Seeded bijection: among its stars of 6 edges (hub images, every
    preimage) 12 are no_common_vertex violations and 2 independent."""
    images = list(range(36))
    XorShift64Star(1).shuffle(images)
    return EdgeMap(theta_graph(6), complete_bipartite(6), tuple(images))


# The star of s maps onto ab, bc, ad: the least adjacent pair (ab, bc)
# meets at b, but the walk in id order touches a first, and a holds the
# pair (ab, ad).
_LEAST_PAIR_AWAY_FROM_FIRST_VERTEX = EdgeMap(
    build_graph("spqr", [("s", "p"), ("s", "q"), ("s", "r")]),
    build_graph("abcd", [("a", "b"), ("b", "c"), ("a", "d")]),
    (0, 1, 2))


@settings(max_examples=200, deadline=None)
@given(small_edge_maps())
@example(_K2_AND_PATH)
@example(build_counterexample(5)[2])  # independent 5-edge preimages onto K_{5,5}
@example(_shuffled_theta6_onto_k66())
@example(_LEAST_PAIR_AWAY_FROM_FIRST_VERTEX)
def test_star_classes_match_oracle(f):
    for v in f.source.vertices:
        ids = f.image(star(f.source, v).members)
        if not ids:
            with pytest.raises(InputError, match="has no incident edges$"):
                classify_star_image(f, v)
            continue
        assert (_star_class_tuple(classify_star_image(f, v))
                == brute_star_class(f.target, ids))
    for w in f.target.vertices:
        ids = f.preimage(star(f.target, w).members)
        if not ids:
            with pytest.raises(InputError, match="has no incident edges$"):
                classify_star_preimage(f, w)
            continue
        assert (_star_class_tuple(classify_star_preimage(f, w))
                == brute_star_class(f.source, ids))


@st.composite
def vertex_map_cases(draw):
    """Maps between graphs of at most 6 vertices, sparse or denser: a
    relabelled copy with up to two image swaps, or any bijection onto a
    second graph with as many edges. Pendant vertices and one-edge
    components are common; the source keeps its isolated vertices in about
    half the cases."""
    some_graph = st.one_of(sparse_graphs(max_vertices=6), graphs(max_vertices=6, max_edges=9))
    g = draw(some_graph)
    if draw(st.booleans()):
        return _relabelled_with_swaps(draw, _some_isolated(draw, g))
    h = draw(some_graph)
    m = min(g.edge_count(), h.edge_count())
    g = _some_isolated(draw, build_graph(g.vertices, g.edges[:m]))
    h = build_graph(h.vertices, h.edges[:m])
    return EdgeMap(g, h, tuple(draw(st.permutations(range(m)))))


def _some_isolated(draw, g):
    """g, or g without its isolated vertices."""
    if draw(st.booleans()):
        return g
    return build_graph([v for v in g.vertices if g.incident_edges(v)], g.edges)


def _identity(g):
    return EdgeMap(g, g, tuple(range(g.edge_count())))


@settings(max_examples=300, deadline=None)
@given(vertex_map_cases())
@example(_K2_AND_PATH)
@example(_identity(build_graph("abcd", [("a", "b"), ("c", "d")])))  # two one-edge components
@example(permuted_edge_map(build_graph("abcd", [("a", "b"), ("c", "d")]),
                           dict(zip("abcd", "dcab"))))
@example(_identity(build_graph("01234", named_graph("K4").edges + (("3", "4"),))))  # pendant
@example(_identity(build_graph("0123z", named_graph("K4").edges)))  # isolated
@example(EdgeMap(build_graph("uvpq", [("u", "v"), ("p", "q")]),
                 build_graph("xyz", [("x", "y"), ("y", "z")]), (0, 1)))
def test_reconstruct_matches_brute_force_vertex_maps(f):
    # Refused at the first source vertex whose star image is not a star
    # (an isolated vertex has none), else for the bijection; otherwise the
    # map read is one of the oracle's. Only an isolated vertex refuses a
    # map that some vertex bijection induces.
    maps = brute_inducing_maps(f)
    classes = {v: brute_star_class(f.target, f.image(star(f.source, v).members))
               for v in f.source.vertices if f.source.incident_edges(v)}
    first = next((v for v in f.source.vertices
                  if v not in classes or classes[v][0] != "star"), None)
    try:
        iso = reconstruct_vertex_isomorphism(f, check_connectivity=False)
    except NotInducedError as err:
        assert err.vertex == first
        if first is None:
            assert str(err) == "star centers do not form a vertex bijection"
            assert err.star_class is None
        elif first in classes:
            assert _star_class_tuple(err.star_class) == classes[first]
        else:
            assert str(err) == f"source vertex {first!r} is isolated"
        assert not maps or len(classes) < f.source.vertex_count()
    else:
        assert dict(iso.as_dict) in maps


@settings(max_examples=60, deadline=None)
@given(graphs(), st.data())
def test_components_partition_and_translation(g, data):
    ids = data.draw(st.sets(st.sampled_from(range(g.edge_count())))
                    if g.edge_count() else st.just(set()))
    # structure._two_sides reads the sides of a cut this way: the cut's
    # edges are left out of the adjacency.
    adjacency = [[(y, eid) for y, eid in row if eid not in ids] for row in g._adjacency]
    blocks = _components(adjacency, g.vertices)
    assert sorted(v for b in blocks for v in b) == sorted(g.vertices)
    kept = build_graph(g.vertices, [e for i, e in enumerate(g.edges) if i not in ids])
    assert [set(b) for b in blocks] == brute_components(kept)


@settings(max_examples=30, deadline=None)
@given(st.integers(4, 9), st.integers(0, 2**32), st.data())
def test_disjoint_paths_on_random_two_connected(n, seed, data):
    g = random_two_connected(n, seed)
    a = data.draw(st.sampled_from(g.vertices))
    b = data.draw(st.sampled_from([v for v in g.vertices if v != a]))
    p, q = two_disjoint_paths(g, a, b)
    assert p.ends() == (a, b) and q.ends() == (a, b)
    assert set(p.vertices) & set(q.vertices) == {a, b}
    assert not set(p.edges) & set(q.edges)


@settings(max_examples=30, deadline=None)
@given(st.integers(4, 9), st.integers(0, 2**32), st.data())
def test_attached_path_postcondition(n, seed, data):
    g = random_two_connected(n, seed)
    a = data.draw(st.sampled_from(g.vertices))
    b = data.draw(st.sampled_from([v for v in g.vertices if v != a]))
    c = data.draw(st.sampled_from([v for v in g.vertices if v not in (a, b)]))
    circuit, path, t = circuit_and_attached_path(g, a, b, c)
    validate_attached_path(g, a, b, c, circuit, path, t)


@settings(max_examples=25, deadline=None)
@given(st.sampled_from(CORPUS), st.integers(0, 2**32))
def test_relabeling_round_trip(name, seed):
    g = named_graph(name)
    relabel = seeded_relabel(g, seed)
    f = permuted_edge_map(g, relabel)
    assert reconstruct_vertex_isomorphism(f).as_dict == relabel
    for v in g.vertices:
        assert classify_star_image(f, v) == StarAt(relabel[v])
    inverse = {w: v for v, w in relabel.items()}
    for w in f.target.vertices:
        assert classify_star_preimage(f, w) == StarAt(inverse[w])


@settings(max_examples=25, deadline=None)
@given(st.integers(4, 7), st.integers(0, 2**32), st.integers(0, 2**32))
def test_sampled_failures_are_sound(n, seed, shuffle_seed):
    g = random_two_connected(n, seed)
    images = list(range(g.edge_count()))
    XorShift64Star(shuffle_seed).shuffle(images)
    f = EdgeMap(g, g, tuple(images))
    sampled = check_circuit_injection(f, mode="sampled", samples=40,
                                      seed=seed + 1)
    exhaustive = check_circuit_injection(f)
    if not sampled.passed:
        assert not exhaustive.passed  # sampling may miss, never invent
        assert is_circuit(g, EdgeSet(g, sampled.witness.circuit.edges))
        assert not is_circuit(g, sampled.witness.mapped)


@settings(max_examples=150, deadline=None)
@given(graphs(), st.one_of(st.none(), st.integers(0, 2**32)), st.integers(1, 30),
       st.sampled_from([1, 2, 7]))
def test_sampled_stop_reason_follows_from_the_count(g, shuffle_seed, samples, seed):
    # A map the vertex read accepts stops there, reporting the cycle rank
    # capped at samples. The stream ends by itself only at `samples`
    # circuits, with fewer than two to mix, or after 20 × samples mixes, so
    # without a witness the number checked alone decides the reason.
    images = list(range(g.edge_count()))
    if shuffle_seed is not None:
        XorShift64Star(shuffle_seed).shuffle(images)
    f = EdgeMap(g, g, tuple(images))
    v = check_circuit_injection(f, mode="sampled", samples=samples, seed=seed)
    assert v.samples_requested == samples
    try:
        reconstruct_vertex_isomorphism(f, check_connectivity=False)
    except NotInducedError:
        assert v.stop_reason != "induced"
    else:
        rank = g.edge_count() - g.vertex_count() + len(components(g))
        assert (v.passed, v.circuits_checked, v.attempts, v.stop_reason) == (
            True, min(samples, rank), 0, "induced")
        return
    if v.witness:
        assert not v.passed and v.stop_reason == "witness"
        return
    checked = v.circuits_checked
    assert (v.stop_reason == "samples") is (checked >= samples)
    assert (v.stop_reason == "too_few_circuits") is (checked < min(2, samples))
    assert (v.stop_reason == "attempt_limit") is (
        2 <= checked < samples and v.attempts == 20 * samples)
