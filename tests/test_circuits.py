import json
import re
import time
import tracemalloc
from collections import Counter
from math import comb
from pathlib import Path

import pytest

from circuitmap import (
    Circuit,
    EdgeMap,
    EdgeSet,
    InputError,
    InternalError,
    PreconditionError,
    build_counterexample,
    build_graph,
    check_circuit_injection,
    check_circuit_isomorphism,
    circuit_and_attached_path,
    enumerate_circuits,
    graph_to_json,
    is_circuit,
    named_graph,
    permuted_edge_map,
    random_three_connected,
    random_two_connected,
    theta_graph,
    validate_attached_path,
)
from circuitmap import circuits as circuits_module
from circuitmap.cli import main
from circuitmap.rng import XorShift64Star
from conftest import blocks_and_trees, complete, cycle_graph, ladder, seeded_relabel
from oracle import brute_circuits

GOLDEN_LISTS = Path(__file__).parent / "data" / "enumerated_circuits_golden.json"
CATALOG = ("K4", "K5", "K33", "prism", "Q3", "double_bowtie",
           "W5", "W6", "theta3", "theta5")

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


def test_is_circuit_rejects_foreign_set(k4, prism):
    with pytest.raises(InputError, match=r"^edge set is hosted on a different graph$"):
        is_circuit(prism, EdgeSet(k4, frozenset({0, 1, 3})))


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
    keys = [tuple(sorted(c.edges)) for c in enumerate_circuits(k4)]
    assert keys == sorted(keys)
    assert keys[0] == (0, 1, 3)


def test_enumeration_deterministic(k4):
    a = [tuple(sorted(c.edges)) for c in enumerate_circuits(k4)]
    b = [tuple(sorted(c.edges)) for c in enumerate_circuits(k4)]
    assert a == b


def enumeration_cases():
    """(case name, graph) for every case of the golden file."""
    cases = [(name, named_graph(name)) for name in CATALOG]
    cases.append(("K7", complete(7)))
    cases += [(f"random3c_n{n}_s{seed}", random_three_connected(n, seed))
              for n, seed in ((8, 1), (10, 3), (12, 1))]
    cases += [(f"random2c_n{n}_s{seed}", random_two_connected(n, seed))
              for n, seed in ((16, 2), (24, 1), (40, 1))]
    cases.append(("blocks_and_trees", blocks_and_trees()))
    return cases


def enumerated_lists() -> dict[str, list[list[int]]]:
    """Each case's circuits as sorted edge-id lists, in returned order."""
    return {name: [sorted(c.edges) for c in enumerate_circuits(graph)]
            for name, graph in enumeration_cases()}


def test_enumeration_reproduces_recorded_lists():
    assert enumerated_lists() == json.loads(GOLDEN_LISTS.read_text())


def test_enumerate_subcommand_reports_the_recorded_lists(tmp_path, capsys):
    # The subcommand reads the expanded id lists, not built circuits; each
    # report entry is the circuit's endpoint pairs in edge-id order.
    golden = json.loads(GOLDEN_LISTS.read_text())
    for name, graph in enumeration_cases():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(graph_to_json(graph)), encoding="utf-8")
        assert main(["enumerate", str(path)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["count"] == len(golden[name])
        assert report["circuits"] == [[list(graph.endpoints(i)) for i in ids]
                                      for ids in golden[name]]
        assert report["circuits"] == [[list(pair) for pair in map(graph.endpoints, sorted(c.edges))]
                                      for c in enumerate_circuits(graph)]


@pytest.mark.parametrize("graph", [
    complete(7), build_counterexample(5)[0], blocks_and_trees(), cycle_graph(5),
    build_graph("abc", [("a", "b"), ("b", "c")]),
], ids=["K7", "cx5", "blocks_and_trees", "cycle5", "path"])
def test_result_reads_like_its_list(graph):
    circuits = enumerate_circuits(graph)
    listed = list(circuits)
    n = len(listed)
    assert len(circuits) == n
    assert list(iter(circuits)) == listed
    assert [frozenset(ids) for ids in circuits.edge_ids()] == [c.edges for c in listed]
    for k in range(-n, n):
        assert circuits[k] == listed[k]
    for window in (slice(None), slice(2, 5), slice(-3, None), slice(None, None, -2),
                   slice(1, -1, 3), slice(n, None)):
        assert circuits[window] == listed[window]
    for k in (n, -n - 1):
        with pytest.raises(IndexError):
            circuits[k]
    with pytest.raises(TypeError):
        circuits[0] = None


@pytest.mark.parametrize("graph", [
    complete(8), random_three_connected(15, 3), ladder(18), build_counterexample(31)[0],
    blocks_and_trees(), cycle_graph(1500),
], ids=["K8", "rc15", "ladder18", "cx31", "blocks_and_trees", "cycle1500"])
def test_masks_expand_to_their_chains_in_rank_order(graph):
    # Chains are ranked by least edge id and the chain of rank r sits at
    # bit K-1-r: each mask reads back as the id lists of its set bits,
    # each bit tested on its own, in rank order.
    circuits = enumerate_circuits(graph)
    by_rank = circuits._by_rank
    k = len(by_rank)
    assert [min(ids) for ids in by_rank] == sorted(min(ids) for ids in by_rank)
    for mask, ids in zip(circuits._masks, circuits.edge_ids(), strict=True):
        assert ids == [eid for r in range(k) if mask >> (k - 1 - r) & 1
                       for eid in by_rank[r]]


@pytest.mark.parametrize("swapped", [False, True], ids=["relabelled", "swapped"])
def test_exhaustive_check_builds_only_the_witness(monkeypatch, swapped):
    # A circuit isomorphism passes on the basis test: no circuit is expanded
    # or built. A fail tests circuits as expanded id lists, builds its
    # witness alone and expands no circuit after it.
    g = complete(7)
    images = list(permuted_edge_map(g, seeded_relabel(g, 7)).assignment)
    if swapped:
        images[0], images[20] = images[20], images[0]
    f = EdgeMap(g, g, tuple(images))
    built, expanded = [], []
    build, expand = Circuit.__init__, circuits_module._CircuitMasks._expanded
    monkeypatch.setattr(Circuit, "__init__",
                        lambda self, *args: built.append(args) or build(self, *args))
    monkeypatch.setattr(circuits_module._CircuitMasks, "_expanded",
                        lambda self, mask: expanded.append(mask) or expand(self, mask))
    verdict = check_circuit_injection(f)
    assert verdict.passed is (not swapped)
    assert len(built) == (1 if swapped else 0)
    assert len(expanded) == (1 if swapped else 0)
    assert verdict.circuits_checked == (1 if swapped else 1172)


def test_max_count_guard(k4):
    with pytest.raises(PreconditionError, match=r"^more than 3 circuits$"):
        enumerate_circuits(k4, max_count=3)
    assert len(enumerate_circuits(k4, max_count=7)) == 7


def three_triangles():
    """Three disjoint triangles: bare cycles, found before the search."""
    return build_graph("abcdefghi", [(x, y) for t in ("abc", "def", "ghi")
                                     for x, y in (t[:2], t[1:], t[::2])])


def test_budget_boundary(bowtie):
    # K7 has exactly 1,172 circuits: a budget of that many passes, one less
    # is refused with the budget in the message. The bowtie's two chains
    # close on themselves and the triangles are bare cycles, so their
    # circuits are all counted, and refused, before the search starts.
    for graph, count in ((complete(7), 1172), (bowtie, 2), (three_triangles(), 3)):
        assert len(enumerate_circuits(graph, max_count=count)) == count
        with pytest.raises(PreconditionError, match=rf"^more than {count - 1} circuits$"):
            enumerate_circuits(graph, max_count=count - 1)


@pytest.mark.parametrize("max_count", [0, -1])
def test_budget_must_be_positive(k4, max_count):
    with pytest.raises(InputError, match="^max_count must be positive$"):
        enumerate_circuits(k4, max_count=max_count)


@pytest.mark.parametrize("max_count", [True, 2.5, "5"])
def test_budget_must_be_an_int(k4, max_count):
    # A bool is an int to Python, so True would otherwise pass as a budget of 1.
    message = f"^max_count must be an integer, got {re.escape(repr(max_count))}$"
    with pytest.raises(InputError, match=message):
        enumerate_circuits(k4, max_count=max_count)


def test_refusal_builds_no_circuit(monkeypatch, bowtie):
    def refuse(*args):
        raise AssertionError("Circuit built before the budget was settled")

    monkeypatch.setattr(Circuit, "__init__", refuse)
    for graph, max_count in ((complete(7), 1171), (random_three_connected(20, 25), 1000),
                             (theta_graph(30), 434), (bowtie, 1), (three_triangles(), 2)):
        with pytest.raises(PreconditionError, match=rf"^more than {max_count} circuits$"):
            enumerate_circuits(graph, max_count=max_count)
        # A failing map is refused too, before its witness is built.
        images = list(range(graph.edge_count()))
        images[0], images[-1] = images[-1], images[0]
        with pytest.raises(PreconditionError, match=rf"^more than {max_count} circuits$"):
            check_circuit_injection(EdgeMap(graph, graph, tuple(images)), max_count=max_count)


@pytest.mark.parametrize("build,n,seed,max_count,bytes_per_circuit", [
    (random_three_connected, 20, 25, 5_000, 80),
    (random_two_connected, 300, 1, 2_000, 400),
])
def test_refusal_memory_per_budgeted_circuit(build, n, seed, max_count, bytes_per_circuit):
    # Circuits found before the budget runs out are held as one chain mask
    # each; as edge-id tuples they would take 163 and 1,410 bytes apiece.
    graph = build(n, seed)
    tracemalloc.start()
    try:
        with pytest.raises(PreconditionError, match=rf"^more than {max_count} circuits$"):
            enumerate_circuits(graph, max_count=max_count)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < bytes_per_circuit * max_count


def cycle_with_chords(n: int, chords: int, seed: int):
    """An n-vertex cycle plus seeded chords: long chains between few
    vertices of degree 3 or more."""
    labels = [f"v{i}" for i in range(n)]
    edges = {tuple(sorted((i, (i + 1) % n))) for i in range(n)}
    rng = XorShift64Star(seed)
    while len(edges) < n + chords:
        i, j = rng.randrange(n), rng.randrange(n)
        if i != j:
            edges.add((min(i, j), max(i, j)))
    return build_graph(labels, [(labels[i], labels[j]) for i, j in sorted(edges)])


def shuffled_k4s(copies: int, seed: int):
    """Disjoint copies of K4, edge ids in a seeded order: 7 circuits per
    copy, one chain per edge."""
    edges = [(f"{c}.{i}", f"{c}.{j}") for c in range(copies)
             for i in range(4) for j in range(i + 1, 4)]
    XorShift64Star(seed).shuffle(edges)
    return build_graph([f"{c}.{i}" for c in range(copies) for i in range(4)], edges)


@pytest.mark.parametrize("graph,count", [
    (build_counterexample(13)[0], comb(13, 2)),
    (build_counterexample(31)[0], comb(31, 2)),  # 31 chains: masks of two digits
    (shuffled_k4s(16, 3), 7 * 16),                # 96 chains: masks of four digits
], ids=["cx13", "cx31", "k4x16"])
def test_canonical_order_past_one_machine_word(graph, count):
    keys = [tuple(sorted(c.edges)) for c in enumerate_circuits(graph)]
    assert len(keys) == count
    assert keys == sorted(keys)


def test_canonical_order_on_long_chains():
    keys = [tuple(sorted(c.edges)) for c in enumerate_circuits(cycle_with_chords(3000, 6, 7))]
    assert keys == sorted(keys)


def test_long_cycle_under_default_recursion_limit(default_recursion_limit):
    g = cycle_graph(1500)
    (only,) = enumerate_circuits(g)
    assert only.edges == frozenset(range(1500))


def test_3000_vertex_cycle_in_linear_time():
    # Peeling after the first root leaves one walk round the cycle. A search
    # that walks the rest of the cycle from every root is quadratic here
    # (about 2.7 s on a 2-vCPU VM) and, if recursive, overflows the default
    # recursion limit.
    g = cycle_graph(3000)
    started = time.perf_counter()
    assert len(enumerate_circuits(g)) == 1
    assert time.perf_counter() - started < 0.5


def test_isomorphism_check_on_relabelled_long_cycle(default_recursion_limit):
    g = cycle_graph(1500)
    f = permuted_edge_map(g, seeded_relabel(g, 5))
    verdict = check_circuit_isomorphism(f)
    assert verdict.passed and verdict.circuits_checked == 1


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
        with pytest.raises(InputError, match="^a, b, c must be distinct$"):
            circuit_and_attached_path(k4, "0", "0", "1")

    def test_requires_two_connected(self):
        p3 = build_graph(["a", "b", "c"], [("a", "b"), ("b", "c")])
        with pytest.raises(PreconditionError,
                           match="^attachment search needs a 2-connected graph$"):
            circuit_and_attached_path(p3, "a", "b", "c")

    def test_validator_rejects_tampering(self, theta3):
        c, p, t = circuit_and_attached_path(theta3, "x_0_1", "x_1_1", "x_2_2")
        with pytest.raises(InternalError, match="^path must run from c to t$"):
            validate_attached_path(theta3, "x_0_1", "x_1_1", "x_2_2", c, p, "u")
        # a circuit that misses b entirely cannot carry the same attachment
        other = Circuit(theta3, frozenset({0, 1, 2, 6, 7, 8}))
        with pytest.raises(InternalError, match="^circuit misses a or b$"):
            validate_attached_path(theta3, "x_0_1", "x_1_1", "x_2_2", other, p, t)
