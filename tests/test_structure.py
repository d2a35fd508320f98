import pytest

from circuitmap import (
    Circuit,
    EdgeMap,
    InputError,
    InternalError,
    LinkedCircuitPair,
    PreconditionError,
    Path,
    connector_images_nonadjacent,
    edge_set_from_pairs,
    find_crossing_structure,
    named_graph,
    validate_linked_pair,
)
from oracle import brute_is_k_connected


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

    def test_connector_restriction_enforced(self, prism):
        w = find_crossing_structure(prism, prism_matching(prism))
        narrow = edge_set_from_pairs(prism, [("a0", "b0"), ("a1", "b1"),
                                             ("a0", "a1")])
        with pytest.raises(InternalError,
                           match=r"^linked circuit pair invalid: connector \('a2', 'b2'\) is not in the crossing set$"):
            validate_linked_pair(prism, w, connectors_from=narrow)

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
