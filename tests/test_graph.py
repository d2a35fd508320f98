import json
import re

import pytest
from hypothesis import given, settings, strategies as st

from circuitmap import (
    Circuit,
    EdgeSet,
    Graph,
    InputError,
    Path,
    build_graph,
    circuit_and_attached_path,
    components,
    edge_set_from_pairs,
    graph_from_json,
    graph_to_json,
    induced_subgraph,
    named_graph,
    star,
    two_disjoint_paths,
)


def test_build_graph_coerces_and_orders():
    g = build_graph([0, 1, 2], [(0, 1), (1, 2), (2, 0)])
    assert g.vertices == ("0", "1", "2")
    assert g.edges == (("0", "1"), ("1", "2"), ("2", "0"))
    assert g.edge_id("1", "0") == 0
    assert g.edge_id("0", "2") == 2


def test_loop_edge_rejected():
    with pytest.raises(InputError, match=r"^edge 0 is a loop at 'a'$"):
        build_graph(["a"], [("a", "a")])


def test_duplicate_edge_rejected_either_orientation():
    with pytest.raises(InputError, match=r"^edge 1 repeats pair \('a', 'b'\)$"):
        build_graph(["a", "b"], [("a", "b"), ("b", "a")])


def test_unknown_endpoint_rejected():
    with pytest.raises(InputError, match=r"^edge 0 uses unknown vertex 'c'$"):
        build_graph(["a", "b"], [("a", "c")])


def test_duplicate_vertex_label_rejected():
    with pytest.raises(InputError, match=r"^duplicate vertex label 'a'$"):
        Graph(("a", "a"), ())


def test_accessors(k4):
    assert k4.vertex_count() == 4
    assert k4.edge_count() == 6
    assert k4.endpoints(0) == ("0", "1")
    assert len(k4.incident_edges("0")) == 3
    assert tuple(k4.vertices[ni] for ni, _ in k4._adjacency[k4._index["0"]]) == ("1", "2", "3")
    assert k4.incident_edges("3") == (2, 4, 5)
    assert ("2", "3") in k4._pair_ids and ("0", "0") not in k4._pair_ids
    with pytest.raises(InputError, match=r"^no edge joins '0' and '0'$"):
        k4.edge_id("0", "0")
    with pytest.raises(InputError, match=r"^unknown vertex 'z'$"):
        k4.require_vertex("z")


@pytest.mark.parametrize("call,expected", [
    (lambda g: g.edge_id("0", 1), "no edge joins '0' and 1"),
    (lambda g: induced_subgraph(g, [["0"]]), "unknown vertex ['0']"),
    (lambda g: two_disjoint_paths(g, "0", "1", forbidden=[["2"]]), "unknown vertex ['2']"),
    (lambda g: circuit_and_attached_path(g, ["0"], "1", "2"), "unknown vertex ['0']"),
], ids=["edge-id", "induced-subgraph", "two-disjoint-paths", "attached-path"])
def test_labels_that_are_not_strings_are_refused(k4, call, expected):
    # A label that is not a string names no vertex: an InputError with this
    # message, never a TypeError from comparing or hashing it.
    with pytest.raises(InputError) as err:
        call(k4)
    assert str(err.value) == expected


def test_star_is_incident_edge_set(k4):
    s = star(k4, "0")
    assert sorted(s.members) == [0, 1, 2]
    assert all("0" in k4.endpoints(e) for e in s.members)


def test_star_of_isolated_vertex_is_empty():
    g = build_graph(["a", "b", "c"], [("a", "b")])
    assert star(g, "c").members == frozenset()


def test_star_on_triangle():
    g = build_graph("012", [("0", "1"), ("1", "2"), ("2", "0")])
    assert tuple(map(g.endpoints, star(g, "1"))) == (("0", "1"), ("1", "2"))


def test_edge_set_iterates_in_id_order(k4):
    s = EdgeSet(k4, frozenset({5, 0, 3}))
    assert list(s) == [0, 3, 5]
    assert tuple(map(k4.endpoints, s)) == (("0", "1"), ("1", "2"), ("2", "3"))
    assert s.vertex_set() == frozenset({"0", "1", "2", "3"})


def test_edge_set_from_pairs_rejects_unknown(k4):
    with pytest.raises(InputError, match=r"^no edge joins '0' and '0'$"):
        edge_set_from_pairs(k4, [("0", "1"), ("0", "0")])


def test_components_of_connected_graph_is_one_block():
    g = build_graph("012", [("0", "1"), ("1", "2"), ("2", "0")])
    assert components(g) == (("0", "1", "2"),)


def test_components_orders_by_least_label():
    g = build_graph(["x", "m", "a"], [])
    assert components(g) == (("a",), ("m",), ("x",))


def test_induced_subgraph(prism):
    sub, old_id = induced_subgraph(prism, {"a0", "a1", "a2"})
    assert sub.vertices == ("a0", "a1", "a2")
    assert sub.edge_count() == 3
    assert old_id == (0, 1, 2)
    with pytest.raises(InputError, match=r"^unknown vertex 'zz'$"):
        induced_subgraph(prism, {"a0", "zz"})


class TestPath:
    def test_from_vertices(self, k4):
        p = Path.from_vertices(k4, ["0", "1", "2"])
        assert p.edges == (0, 3)
        assert p.ends() == ("0", "2")
        assert tuple(map(k4.endpoints, p.edges)) == (("0", "1"), ("1", "2"))

    def test_empty(self, k4):
        p = Path.empty(k4, "3")
        assert p.is_empty() and p.vertices == ("3",) and p.edges == ()

    def test_missing_edge_rejected(self, k4):
        with pytest.raises(InputError, match=r"^edge 1 does not join step 0 of the path$"):
            Path(k4, ("0", "1"), (1,))  # edge 1 is (0, 2)

    def test_revisited_vertex_rejected(self, k4):
        with pytest.raises(InputError, match=r"^path repeats a vertex$"):
            Path.from_vertices(k4, ["0", "1", "0"])


class TestCircuit:
    def test_triangle(self, k4):
        c = Circuit(k4, frozenset({0, 1, 3}))
        assert tuple(sorted(c.edges)) == (0, 1, 3)

    def test_path_shape_rejected(self, k4):
        with pytest.raises(InputError, match=r"^edge set is not a circuit$"):
            Circuit(k4, frozenset({0, 3}))

    def test_disconnected_union_rejected(self, prism):
        # two vertex-disjoint triangles: all degrees 2 but two components
        with pytest.raises(InputError, match=r"^edge set is not a circuit$"):
            Circuit(prism, frozenset({0, 1, 2, 3, 4, 5}))

    def test_empty_rejected(self, k4):
        with pytest.raises(InputError, match=r"^edge set is not a circuit$"):
            Circuit(k4, frozenset())


def test_json_round_trip_is_byte_stable(prism):
    blob = json.dumps(graph_to_json(prism))
    again = graph_from_json(json.loads(blob))
    assert again == prism
    assert json.dumps(graph_to_json(again)) == blob


def test_json_vertices_sorted_edges_in_id_order():
    g = build_graph(["b", "a"], [("b", "a")])
    assert graph_to_json(g) == {"vertices": ["a", "b"], "edges": [["b", "a"]]}


@pytest.mark.parametrize(
    "payload, message",
    [
        ([], "graph document must be a JSON object"),
        ({"vertices": ["a"]}, "graph document needs 'vertices' and 'edges'"),
        ({"edges": []}, "graph document needs 'vertices' and 'edges'"),
        ({"vertices": "ab", "edges": []}, "'vertices' must be a list of strings"),
        ({"vertices": ["a", "b"], "edges": [["a", "b", "c"]]},
         "edge entry 0 must be a pair of strings"),
        ({"vertices": ["a", 1], "edges": []}, "vertex label 1 is not a string"),
        ({"vertices": ["a", "b"], "edges": ["ab"]},
         "edge entry 0 must be a pair of strings"),
    ],
    ids=[f"payload{k}" for k in range(7)],
)
def test_json_shape_errors(payload, message):
    with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
        graph_from_json(payload)


def test_json_loader_keeps_graph_validation():
    with pytest.raises(InputError, match=r"^edge 0 is a loop at 'a'$"):
        graph_from_json({"vertices": ["a"], "edges": [["a", "a"]]})


def test_json_loader_reports_the_first_faulty_entry():
    # Graph reads the entries in one loop: the loop at entry 0 is reported
    # before the malformed entry 1.
    with pytest.raises(InputError, match=r"^edge 0 is a loop at 'a'$"):
        graph_from_json({"vertices": ["a", "b"], "edges": [["a", "a"], ["a", "b", "c"]]})


def test_named_graph_equality_is_structural():
    assert named_graph("K4") == named_graph("k4")


@st.composite
def build_graph_inputs(draw, max_vertices=7):
    """Labels in any order, and edges in any order and orientation."""
    n = draw(st.integers(0, max_vertices))
    labels = draw(st.permutations([f"v{i}" for i in range(n)]))
    pairs = [(a, b) for k, a in enumerate(labels) for b in labels[k + 1:]]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    return labels, [(b, a) if draw(st.booleans()) else (a, b) for a, b in edges]


@settings(max_examples=100, deadline=None)
@given(build_graph_inputs())
def test_lookups_match_vertices_and_edges(inputs):
    g = build_graph(*inputs)
    position = g.vertices.index
    assert g._index == {v: position(v) for v in g.vertices}
    assert g._pair_ids == {tuple(sorted(e)): i for i, e in enumerate(g.edges)}
    assert g._ends == tuple((position(u), position(v)) for u, v in g.edges)
    for v in g.vertices:
        ids = tuple(i for i, e in enumerate(g.edges) if v in e)
        others = [e[1] if e[0] == v else e[0] for e in g.edges if v in e]
        assert g.incident_edges(v) == ids
        assert tuple(g.vertices[ni] for ni, _ in g._adjacency[g._index[v]]) \
            == tuple(sorted(others, key=position))


def test_incident_edges_keep_id_order_when_neighbours_do_not():
    g = build_graph("abc", [("a", "c"), ("a", "b")])
    assert g.incident_edges("a") == (0, 1)
    assert tuple(g.vertices[ni] for ni, _ in g._adjacency[g._index["a"]]) == ("b", "c")
    assert g.incident_edges("b") == (1,)
