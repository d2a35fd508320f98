import itertools
import json
from pathlib import Path as FilePath

import pytest

from circuitmap import (
    Circuit,
    EdgeMap,
    EdgeSet,
    Graph,
    InputError,
    InternalError,
    LinkedCircuitPair,
    PreconditionError,
    Path,
    build_counterexample,
    build_graph,
    cutpoints,
    decompose_by_star_preimage,
    edge_set_from_pairs,
    find_crossing_structure,
    induced_subgraph,
    named_graph,
    random_three_connected,
    validate_attached_path,
    validate_linked_pair,
)
from circuitmap import structure
from circuitmap.rng import XorShift64Star
from circuitmap.structure import _two_sides
from oracle import brute_is_k_connected, connector_images_nonadjacent

# One record per case of crossing_cases(): the witness's kind, circuits,
# bridges, path vertices, path edge and anchors, recorded from the search
# that asked each side for 2-connectivity before looking for a cutpoint.
GOLDEN_WITNESSES = FilePath(__file__).parent / "data" / "crossing_golden.json"


def prism_matching(prism):
    return edge_set_from_pairs(prism, [("a0", "b0"), ("a1", "b1"), ("a2", "b2")])


def test_prism_matching_yields_linked_pair(prism):
    w = find_crossing_structure(prism, prism_matching(prism))
    assert isinstance(w, LinkedCircuitPair)
    assert sorted(w.circuit_a.edges) == [0, 1, 2]
    assert sorted(w.circuit_b.edges) == [3, 4, 5]
    assert (w.bridge_a, w.bridge_b, w.path_edge) == (6, 7, 8)
    assert w.path.vertices == ("a2", "b2")
    assert w.connectors() == (6, 7, 8)
    assert w.anchors_a() == ("a0", "a1", "a2")
    assert w.anchors_b() == ("b0", "b1", "b2")
    validate_linked_pair(prism, w, connectors_from=prism_matching(prism))


def test_cube_four_cut_uses_three_connectors():
    q3 = named_graph("Q3")
    cut = edge_set_from_pairs(
        q3, [("000", "100"), ("001", "101"), ("010", "110"), ("011", "111")])
    w = find_crossing_structure(q3, cut)
    assert isinstance(w, LinkedCircuitPair)
    assert w.connectors() == (2, 4, 6)
    assert set(w.connectors()) < set(cut.members)
    assert w.path.vertices == ("010", "110")
    assert sorted(w.circuit_a.edges) == [0, 1, 3, 5]
    assert sorted(w.circuit_b.edges) == [8, 9, 10, 11]
    validate_linked_pair(q3, w, connectors_from=cut)


def test_double_bowtie_fires_circuit_branch():
    g = named_graph("double_bowtie")
    # the acceptance suite leans on this graph being genuinely 3-connected
    assert brute_is_k_connected(g, 3)
    cut = edge_set_from_pairs(
        g, [("p1", "q1"), ("p2", "q3"), ("p3", "q2"), ("p4", "q4")])
    w = find_crossing_structure(g, cut)
    assert isinstance(w, Circuit)
    assert len(w.edges & cut.members) >= 4


def tagged(graph, tag):
    """(vertices, edges) of a copy of graph with every label prefixed by tag."""
    return ([tag + v for v in graph.vertices],
            [(tag + u, tag + v) for u, v in graph.edges])


def glued(seed, tag_1, tag_2, rng):
    """Two random 3-connected 20-vertex blocks sharing one vertex: the
    (vertices, edges) of the side, and each block's vertices but the shared
    one."""
    vs_1, es_1 = tagged(random_three_connected(20, seed), tag_1)
    vs_2, es_2 = tagged(random_three_connected(20, seed + 1), tag_2)
    glue_1, glue_2 = (vs[rng.randrange(len(vs))] for vs in (vs_1, vs_2))
    rename = {glue_2: glue_1}
    es_2 = [(rename.get(u, u), rename.get(v, v)) for u, v in es_2]
    groups = [[v for v in vs_1 if v != glue_1], [v for v in vs_2 if v != glue_2]]
    return (vs_1 + groups[1], es_1 + es_2), groups


def joined(side_a, groups, side_b, rng):
    """side_a and side_b joined by a 4-edge matching spread evenly over the
    vertex groups of side_a: the graph and the matching."""

    def sample(group, k):
        picks = list(group)
        rng.shuffle(picks)
        return picks[:k]

    ends_a = [v for group in groups for v in sample(group, 4 // len(groups))]
    cut = list(zip(ends_a, sample(side_b[0], 4)))
    graph = build_graph(side_a[0] + side_b[0], side_a[1] + side_b[1] + cut)
    return graph, edge_set_from_pairs(graph, cut)


def crossing_cases():
    """(case name, graph, crossing set, expected kind) for every golden case.

    "linked" joins two random 3-connected sides; "glued" puts two blocks
    sharing a cutpoint on side A, the side holding the least label; "glued_b"
    puts them on side B instead.
    """
    q3 = named_graph("Q3")
    bowtie = named_graph("double_bowtie")
    prism = named_graph("prism")
    cases = [
        ("prism", prism, prism_matching(prism), "linked_pair"),
        ("Q3", q3, edge_set_from_pairs(q3, [("000", "100"), ("001", "101"),
                                            ("010", "110"), ("011", "111")]),
         "linked_pair"),
        ("double_bowtie", bowtie, edge_set_from_pairs(
            bowtie, [("p1", "q1"), ("p2", "q3"), ("p3", "q2"), ("p4", "q4")]),
         "circuit"),
    ]
    for seed in (1, 2, 3):
        rng = XorShift64Star(seed)
        side_a = tagged(random_three_connected(60, seed), "a")
        side_b = tagged(random_three_connected(60, seed + 1), "b")
        cases.append((f"linked/s{seed}",
                      *joined(side_a, [side_a[0]], side_b, rng), "linked_pair"))
        side_a, groups = glued(seed, "a", "c", rng)
        side_b = tagged(random_three_connected(45, seed + 2), "b")
        cases.append((f"glued/s{seed}",
                      *joined(side_a, groups, side_b, rng), "circuit"))
        weak, groups = glued(seed, "x", "y", rng)
        strong = tagged(random_three_connected(45, seed + 2), "b")
        cases.append((f"glued_b/s{seed}",
                      *joined(weak, groups, strong, rng), "circuit"))
    return cases


def witness_record(witness) -> dict:
    if isinstance(witness, Circuit):
        return {"kind": "circuit", "circuit": sorted(witness.edges)}
    return {"kind": "linked_pair",
            "circuit_a": sorted(witness.circuit_a.edges),
            "circuit_b": sorted(witness.circuit_b.edges),
            "bridges": [witness.bridge_a, witness.bridge_b],
            "path_vertices": list(witness.path.vertices),
            "path_edge": witness.path_edge,
            "anchors_a": list(witness.anchors_a()),
            "anchors_b": list(witness.anchors_b())}


def test_crossing_witnesses_reproduce_recorded_output():
    golden = json.loads(GOLDEN_WITNESSES.read_text())
    cases = crossing_cases()
    assert [name for name, *_ in cases] == list(golden)
    for name, graph, cut, kind in cases:
        record = witness_record(find_crossing_structure(graph, cut))
        assert record["kind"] == kind, name
        assert record == golden[name], name


def test_two_sides_checks_count_and_crossing():
    # A triangle 0-1-2 with a pendant edge 2-3.
    g = build_graph("0123", [("0", "1"), ("1", "2"), ("2", "0"), ("2", "3")])
    assert _two_sides(g, edge_set_from_pairs(g, [("2", "3")]), ValueError,
                      "cut") == (("0", "1", "2"), ("3",))
    with pytest.raises(ValueError, match="left 1 components, not 2"):
        _two_sides(g, edge_set_from_pairs(g, [("0", "1")]), ValueError, "cut")
    with pytest.raises(ValueError, match="left 3 components, not 2"):
        _two_sides(g, edge_set_from_pairs(g, [("0", "1"), ("1", "2"), ("2", "3")]),
                   ValueError, "cut")
    # Two sides remain, but the cut edge 0-1 lies inside one of them.
    with pytest.raises(ValueError, match=r"cut edge \('0', '1'\) does not cross"):
        _two_sides(g, edge_set_from_pairs(g, [("0", "1"), ("2", "3")]),
                   ValueError, "cut")


def test_cutpoint_split_builds_only_the_two_sides(monkeypatch):
    # The weak side's components without its cutpoint come from its own
    # forest, and a cut's components from the source's adjacency with the
    # cut left out, so the double bowtie builds its two sides and no third
    # graph, and the split of the p = 3 counterexample builds none.
    calls = []
    built = []
    graph_init = Graph.__init__

    def counted(graph, vertices):
        calls.append(graph)
        return induced_subgraph(graph, vertices)

    def counted_init(self, vertices, edges):
        built.append(vertices)
        graph_init(self, vertices, edges)

    g = named_graph("double_bowtie")
    cut = edge_set_from_pairs(
        g, [("p1", "q1"), ("p2", "q3"), ("p3", "q2"), ("p4", "q4")])
    _, _, f = build_counterexample(3)
    monkeypatch.setattr(structure, "induced_subgraph", counted)
    monkeypatch.setattr(Graph, "__init__", counted_init)
    record = witness_record(find_crossing_structure(g, cut))
    assert (len(calls), len(built)) == (2, 2)
    assert record == json.loads(GOLDEN_WITNESSES.read_text())["double_bowtie"]
    built.clear()
    assert decompose_by_star_preimage(f, "c0")[:2] == (
        ("u", "x_1_1", "x_1_2", "x_2_1"), ("w", "x_0_1", "x_0_2", "x_2_2"))
    assert built == []


def test_glued_cases_put_the_cutpoint_on_the_named_side():
    for name, graph, cut, _ in crossing_cases():
        if name.startswith("glued"):
            sides = _two_sides(graph, cut, PreconditionError, "crossing set")
            weak = [bool(cutpoints(induced_subgraph(graph, side)[0])) for side in sides]
            assert weak == ([True, False] if name.startswith("glued/") else [False, True])


class TestHypothesisGuards:
    def test_not_three_connected(self, theta3):
        cut = edge_set_from_pairs(theta3, [("u", "x_0_1"), ("u", "x_1_1"),
                                           ("u", "x_2_1")])
        with pytest.raises(PreconditionError, match="^graph is not 3-connected$"):
            find_crossing_structure(theta3, cut)

    def test_cut_must_be_independent(self, k4):
        cut = edge_set_from_pairs(k4, [("0", "1"), ("0", "2"), ("2", "3")])
        with pytest.raises(PreconditionError,
                           match="^crossing set is not independent at '0'$"):
            find_crossing_structure(k4, cut)

    def test_cut_must_disconnect(self, k4):
        cut = edge_set_from_pairs(k4, [("0", "1"), ("2", "3")])
        with pytest.raises(PreconditionError,
                           match="^deleting the crossing set left 1 components, not 2$"):
            find_crossing_structure(k4, cut)

    def test_cut_must_have_three_edges(self, prism):
        cut = edge_set_from_pairs(prism, [("a0", "b0"), ("a1", "b1")])
        with pytest.raises(PreconditionError,
                           match="^deleting the crossing set left 1 components, not 2$"):
            find_crossing_structure(prism, cut)

    @pytest.mark.parametrize("name", [
        "K4", "K5", "K33", "prism", "Q3", "W4", "W5", "W6", "W7",
        *(f"random3c_n{n}_s{seed}" for n in range(6, 11) for seed in (1, 2))])
    def test_small_cuts_refused_before_the_split_is_used(self, name):
        # A 3-connected graph is 3-edge-connected, so no cut of one or two
        # edges gets past the independence check or the side split.
        if name.startswith("random3c"):
            n, seed = (int(part[1:]) for part in name.split("_")[1:])
            graph = random_three_connected(n, seed)
        else:
            graph = named_graph(name)
        assert brute_is_k_connected(graph, 3)
        refusal = (r"^(crossing set is not independent at '[^']+'"
                   r"|deleting the crossing set left 1 components, not 2)$")
        m = graph.edge_count()
        for size in (1, 2):
            for ids in itertools.combinations(range(m), size):
                with pytest.raises(PreconditionError, match=refusal):
                    find_crossing_structure(graph, EdgeSet(graph, frozenset(ids)))

    def test_foreign_cut(self, prism, k4):
        cut = edge_set_from_pairs(k4, [("0", "1"), ("2", "3")])
        with pytest.raises(InputError,
                           match="^crossing set is hosted on a different graph$"):
            find_crossing_structure(prism, cut)


class TestWitnessValidation:
    def test_tampered_path_rejected(self, prism):
        w = find_crossing_structure(prism, prism_matching(prism))
        bent = LinkedCircuitPair(w.circuit_a, w.circuit_b, w.bridge_a,
                                 w.bridge_b, Path.empty(prism, "a2"), w.path_edge)
        with pytest.raises(InternalError, match="^linked circuit pair invalid: connector path has no edges$"):
            validate_linked_pair(prism, bent)

    def test_overlapping_circuits_rejected(self, prism):
        w = find_crossing_structure(prism, prism_matching(prism))
        clash = LinkedCircuitPair(w.circuit_a, w.circuit_a, w.bridge_a,
                                  w.bridge_b, w.path, w.path_edge)
        with pytest.raises(InternalError, match="^linked circuit pair invalid: circuits share a vertex$"):
            validate_linked_pair(prism, clash)

    def test_connector_restriction_enforced(self, prism, k4):
        w = find_crossing_structure(prism, prism_matching(prism))
        narrow = edge_set_from_pairs(prism, [("a0", "b0"), ("a1", "b1"),
                                             ("a0", "a1")])
        with pytest.raises(InternalError,
                           match=r"^linked circuit pair invalid: connector \('a2', 'b2'\) is not in the crossing set$"):
            validate_linked_pair(prism, w, connectors_from=narrow)
        with pytest.raises(InputError, match="^connector edge set hosted elsewhere$"):
            validate_linked_pair(prism, w, connectors_from=EdgeSet(k4, frozenset({0})))

    # One change each to the prism's certificate: triangles a0a1a2 and
    # b0b1b2 (edges 0-2 and 3-5), bridges a0b0 and a1b1 (6, 7), path a2b2
    # (8). A bridge must also lie off both circuits and the path; two earlier
    # checks catch that. A bridge on a circuit joins it to the other circuit
    # ("circuits share a vertex"), and one on the path runs between its
    # ends, which makes a bridge end a circuit_a anchor twice (anchors-a).
    @pytest.mark.parametrize("change,message", [
        (lambda g, w: {"bridge_b": 6}, "bridges are the same edge"),
        (lambda g, w: {"bridge_b": 0}, r"bridge \('a0', 'a1'\) does not join the circuits"),
        (lambda g, w: {"path": Path(g, w.path.vertices[::-1], w.path.edges[::-1])},
         "path must run from circuit_a to circuit_b"),
        (lambda g, w: {"path": Path.from_vertices(g, ["a2", "a0", "b0"])},
         "path reenters circuit_a"),
        (lambda g, w: {"path": Path.from_vertices(g, ["a2", "b2", "b0"])},
         "path reenters circuit_b"),
        (lambda g, w: {"path_edge": 0}, "designated connector is not on the path"),
        (lambda g, w: {"bridge_a": 8}, "designated circuit_a vertices are not distinct"),
    ], ids=["same-bridge", "bridge-off", "path-reversed", "reenters-a", "reenters-b",
            "connector-off-path", "anchors-a"])
    def test_each_broken_requirement_is_named(self, prism, change, message):
        w = find_crossing_structure(prism, prism_matching(prism))
        broken = LinkedCircuitPair(**{**vars(w), **change(prism, w)})
        with pytest.raises(InternalError, match=f"^linked circuit pair invalid: {message}$"):
            validate_linked_pair(prism, broken)

    def test_repeated_circuit_b_anchor_rejected(self, prism):
        # The prism's rungs form a matching, so on the prism a repeated
        # circuit_b anchor repeats a circuit_a anchor, which is found first.
        # Here the certificate's path runs from a2 through a new vertex x to
        # b0, the end of a bridge.
        w = find_crossing_structure(prism, prism_matching(prism))
        g = build_graph([*prism.vertices, "x"], [*prism.edges, ("a2", "x"), ("x", "b0")])
        rerouted = LinkedCircuitPair(
            Circuit(g, w.circuit_a.edges), Circuit(g, w.circuit_b.edges), w.bridge_a,
            w.bridge_b, Path.from_vertices(g, ["a2", "x", "b0"]), g.edge_id("x", "b0"))
        with pytest.raises(InternalError, match="^linked circuit pair invalid: "
                                                "designated circuit_b vertices are not distinct$"):
            validate_linked_pair(g, rerouted)

    @pytest.mark.parametrize("change,message", [
        (lambda g: {"graph": named_graph("K4")}, "result hosted on the wrong graph"),
        (lambda g: {"t": "b2"}, "attachment vertex is not on the circuit"),
        (lambda g: {"path": Path.empty(g, "a2")}, "empty path requires t = c on the circuit"),
        (lambda g: {"a": "a2"}, "nonempty path may not attach at a or b"),
        (lambda g: {"path": Path.from_vertices(g, ["b2", "b0", "a0", "a2"])},
         r"path meets the circuit at \['a0', 'a2'\], not only t"),
    ], ids=["host", "t-off-circuit", "empty-path", "attached-at-a", "path-meets-circuit"])
    def test_attached_path_requirements(self, prism, change, message):
        # circuit_a of the prism's certificate, its bridge ends as a and b,
        # and its path, reversed, hanging c = b2 onto t = a2.
        w = find_crossing_structure(prism, prism_matching(prism))
        a, b, t = w.anchors_a()
        back = Path(prism, w.path.vertices[::-1], w.path.edges[::-1])
        parts = {"graph": prism, "a": a, "b": b, "c": w.path.vertices[-1],
                 "circuit": w.circuit_a, "path": back, "t": t}
        validate_attached_path(**parts)
        with pytest.raises(InternalError, match=f"^{message}$"):
            validate_attached_path(**{**parts, **change(prism)})

    def test_wrong_host_rejected(self, prism, k4):
        w = find_crossing_structure(prism, prism_matching(prism))
        with pytest.raises(InternalError, match="^linked circuit pair invalid: parts hosted on the wrong graph$"):
            validate_linked_pair(k4, w)


class TestConnectorImages:
    def test_identity_map_keeps_images_apart(self, prism):
        w = find_crossing_structure(prism, prism_matching(prism))
        f = EdgeMap(prism, prism, tuple(range(9)))
        assert connector_images_nonadjacent(f, w)

    def test_relabeling_map_keeps_images_apart(self, prism):
        from circuitmap import permuted_edge_map

        w = find_crossing_structure(prism, prism_matching(prism))
        f = permuted_edge_map(prism, {"a0": "b1", "a1": "b2", "a2": "b0",
                                      "b0": "a1", "b1": "a2", "b2": "a0"})
        assert connector_images_nonadjacent(f, w)

    def test_adjacent_images_detected(self, prism):
        w = find_crossing_structure(prism, prism_matching(prism))
        # send both bridges onto edges sharing vertex a1
        f = EdgeMap(prism, prism, (6, 7, 2, 3, 4, 5, 0, 1, 8))
        assert not connector_images_nonadjacent(f, w)

    def test_witness_must_match_source(self, prism, k4):
        w = find_crossing_structure(prism, prism_matching(prism))
        f = EdgeMap(k4, k4, tuple(range(6)))
        with pytest.raises(InternalError, match="^linked circuit pair invalid: parts hosted on the wrong graph$"):
            connector_images_nonadjacent(f, w)
