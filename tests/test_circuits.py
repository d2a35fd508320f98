from collections import Counter

import pytest

from circuitmap import (
    Circuit,
    EdgeSet,
    NotTwoConnectedError,
    TooManyCircuitsError,
    build_graph,
    circuit_and_attached_path,
    enumerate_circuits,
    is_circuit,
    named_graph,
    validate_attached_path,
)
from oracle import brute_circuits

# Counts checked once against the powerset oracle, then pinned here so a
# regression in either enumerator or oracle shows up as a plain mismatch.
KNOWN_COUNTS = {
    "K4": 7,
    "K5": 37,
    "W5": 21,
    "W6": 31,
    "prism": 14,
    "Q3": 28,
    "K33": 15,
    "double_bowtie": 77,
}


def test_is_circuit_accepts_triangle(k4):
    assert is_circuit(k4, EdgeSet(k4, frozenset({0, 1, 3})))


def test_is_circuit_rejects_path(k4):
    assert not is_circuit(k4, EdgeSet(k4, frozenset({0, 3})))


def test_is_circuit_rejects_disjoint_triangles(prism):
    assert not is_circuit(prism, EdgeSet(prism, frozenset({0, 1, 2, 3, 4, 5})))


def test_is_circuit_rejects_empty(k4):
    assert not is_circuit(k4, EdgeSet(k4, frozenset()))


@pytest.mark.parametrize("name,count", sorted(KNOWN_COUNTS.items()))
def test_known_circuit_counts(name, count):
    assert len(enumerate_circuits(named_graph(name))) == count


def test_enumeration_matches_oracle_on_k4_and_prism():
    for name in ("K4", "prism"):
        g = named_graph(name)
        assert {c.edges for c in enumerate_circuits(g)} == brute_circuits(g)


def test_k33_circuit_lengths():
    lengths = Counter(len(c.edges) for c in enumerate_circuits(named_graph("K33")))
    assert lengths == {4: 9, 6: 6}


def test_triangle_has_one_circuit():
    g = build_graph("012", [("0", "1"), ("1", "2"), ("2", "0")])
    assert len(enumerate_circuits(g)) == 1


def test_theta_has_three_circuits_no_squares(theta3):
    circuits = enumerate_circuits(theta3)
    assert len(circuits) == 3
    assert all(len(c.edges) == 6 for c in circuits)


def test_enumeration_order_is_canonical(k4):
    keys = [c.key() for c in enumerate_circuits(k4)]
    assert keys == sorted(keys)
    assert keys[0] == (0, 1, 3)


def test_enumeration_deterministic(k4):
    a = [c.key() for c in enumerate_circuits(k4)]
    b = [c.key() for c in enumerate_circuits(k4)]
    assert a == b


def test_max_count_guard(k4):
    with pytest.raises(TooManyCircuitsError):
        enumerate_circuits(k4, max_count=3)
    assert len(enumerate_circuits(k4, max_count=7)) == 7


class TestAttachedPath:
    def test_theta_vertex_already_on_circuit(self, theta3):
        c, p, t = circuit_and_attached_path(theta3, "u", "w", "x_2_1")
        assert sorted(c.edges) == [0, 1, 2, 6, 7, 8]
        assert p.is_empty() and t == "x_2_1"
        validate_attached_path(theta3, "u", "w", "x_2_1", c, p, t)

    def test_theta_interior_triple(self, theta3):
        c, p, t = circuit_and_attached_path(theta3, "x_0_1", "x_1_1", "x_2_2")
        assert len(c.edges) == 6
        assert p.vertices == ("x_2_2", "w") and t == "w"
        validate_attached_path(theta3, "x_0_1", "x_1_1", "x_2_2", c, p, t)

    def test_all_k4_triples_validate(self, k4):
        from itertools import permutations

        for a, b, c_v in permutations(k4.vertices, 3):
            circ, path, t = circuit_and_attached_path(k4, a, b, c_v)
            validate_attached_path(k4, a, b, c_v, circ, path, t)

    def test_k4_absorbs_third_vertex(self, k4):
        # the first circuit through 0 and 1 is a triangle that contains 2
        circ, path, t = circuit_and_attached_path(k4, "0", "1", "2")
        assert path.is_empty() and t == "2"

    def test_square_has_unique_answer(self):
        g = build_graph("0123", [("0", "1"), ("1", "2"), ("2", "3"), ("3", "0")])
        circ, path, t = circuit_and_attached_path(g, "0", "2", "1")
        assert circ.edges == frozenset({0, 1, 2, 3})
        assert path.is_empty() and t == "1"

    def test_rejects_repeated_inputs(self, k4):
        with pytest.raises(ValueError):
            circuit_and_attached_path(k4, "0", "0", "1")

    def test_requires_two_connected(self):
        p3 = build_graph(["a", "b", "c"], [("a", "b"), ("b", "c")])
        with pytest.raises(NotTwoConnectedError):
            circuit_and_attached_path(p3, "a", "b", "c")

    def test_validator_rejects_tampering(self, theta3):
        c, p, t = circuit_and_attached_path(theta3, "x_0_1", "x_1_1", "x_2_2")
        with pytest.raises(ValueError):
            validate_attached_path(theta3, "x_0_1", "x_1_1", "x_2_2", c, p, "u")
        # a circuit that misses b entirely cannot carry the same attachment
        other = Circuit(theta3, frozenset({0, 1, 2, 6, 7, 8}))
        with pytest.raises(ValueError):
            validate_attached_path(theta3, "x_0_1", "x_1_1", "x_2_2", other, p, t)
