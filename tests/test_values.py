"""Semantics of the immutable value objects: Graph, EdgeSet, Path, Circuit,
EdgeMap, MapWitness, Verdict, StarAt, IndependentEdges, StarViolation,
VertexIso and LinkedCircuitPair.

They compare and hash by their fields, refuse assignment and deletion,
repr in the dataclass style and validate in their constructors.
"""

import pytest

from circuitmap import (
    Circuit,
    EdgeMap,
    EdgeSet,
    Graph,
    IndependentEdges,
    InputError,
    LinkedCircuitPair,
    MapWitness,
    Path,
    StarAt,
    StarViolation,
    Verdict,
    VertexIso,
    build_graph,
    check_circuit_injection,
    edge_set_from_pairs,
    is_induced_by,
    named_graph,
)

G = "Graph(vertices=('a', 'b', 'c'), edges=(('a', 'b'), ('b', 'c'), ('c', 'a')))"
C = f"Circuit(host={G}, edges=frozenset({{0, 1, 2}}))"
E = f"EdgeSet(host={G}, members=frozenset({{0}}))"
P = f"Path(host={G}, vertices=('a', 'b'), edges=(0,))"


def triangle():
    return build_graph("abc", [("a", "b"), ("b", "c"), ("c", "a")])


def circuit():
    return Circuit(triangle(), frozenset({0, 1, 2}))


# (class, constructor arguments built afresh on each call, repr)
CASES = [
    (Graph, lambda: (("a", "b", "c"), (("a", "b"), ("b", "c"), ("c", "a"))), G),
    (EdgeSet, lambda: (triangle(), frozenset({0})), E),
    (Path, lambda: (triangle(), ("a", "b"), (0,)), P),
    (Circuit, lambda: (triangle(), frozenset({0, 1, 2})), C),
    (EdgeMap, lambda: (triangle(), triangle(), (1, 2, 0)),
     f"EdgeMap(source={G}, target={G}, assignment=(1, 2, 0))"),
    (MapWitness, lambda: ("forward", circuit(), EdgeSet(triangle(), frozenset({0}))),
     f"MapWitness(direction='forward', circuit={C}, mapped={E})"),
    (Verdict, lambda: (True, "sampled", 3, None, 5, 7, "samples"),
     "Verdict(passed=True, mode='sampled', circuits_checked=3, witness=None, "
     "samples_requested=5, attempts=7, stop_reason='samples')"),
    (StarAt, lambda: ("a",), "StarAt(vertex='a')"),
    (IndependentEdges, lambda: (), "IndependentEdges()"),
    (StarViolation, lambda: ("partial_star", (1,), "a"),
     "StarViolation(kind='partial_star', edges=(1,), vertex='a')"),
    (VertexIso, lambda: ((("a", "b"), ("b", "a")),),
     "VertexIso(pairs=(('a', 'b'), ('b', 'a')))"),
    (LinkedCircuitPair, lambda: (circuit(), circuit(), 0, 1,
                                 Path(triangle(), ("a", "b"), (0,)), 0),
     f"LinkedCircuitPair(circuit_a={C}, circuit_b={C}, bridge_a=0, bridge_b=1, "
     f"path={P}, path_edge=0)"),
]
IDS = [cls.__name__ for cls, _, _ in CASES]


def test_every_value_class_is_covered():
    assert len({cls for cls, _, _ in CASES}) == 12


@pytest.mark.parametrize("cls,args,text", CASES, ids=IDS)
def test_equal_fields_compare_and_hash_equal(cls, args, text):
    first, second = cls(*args()), cls(*args())
    assert first is not second
    assert first == second and not first != second
    assert hash(first) == hash(second)
    assert len({first, second}) == 1


@pytest.mark.parametrize("cls,args,text", CASES, ids=IDS)
def test_other_class_with_same_fields_is_unequal(cls, args, text):
    twin = type(cls.__name__, (cls,), {})
    assert twin(*args()) != cls(*args())
    assert cls(*args()) != twin(*args())
    assert repr(twin(*args())) == text


@pytest.mark.parametrize("cls,args,text", CASES, ids=IDS)
def test_fields_refuse_assignment_and_deletion(cls, args, text):
    value = cls(*args())
    for name in list(vars(value)) + ["new_attribute"]:
        with pytest.raises(AttributeError):
            setattr(value, name, None)
    for name in vars(value):
        with pytest.raises(AttributeError):
            delattr(value, name)
    assert repr(value) == text


@pytest.mark.parametrize("cls,args,text", CASES, ids=IDS)
def test_repr_is_dataclass_style(cls, args, text):
    assert repr(cls(*args())) == text


def test_unequal_fields_compare_unequal():
    assert StarAt("a") != StarAt("b")
    assert EdgeSet(triangle(), frozenset({0})) != EdgeSet(triangle(), frozenset({1}))
    assert StarAt("a") != "a" and StarAt("a").__eq__("a") is NotImplemented


def test_verdict_keywords_and_defaults():
    plain = Verdict(False, "exhaustive", 4)
    assert (plain.witness, plain.samples_requested, plain.attempts, plain.stop_reason) \
        == (None, None, None, None)
    assert not plain and Verdict(True, "basis", 0)
    keyed = Verdict(passed=True, mode="sampled", circuits_checked=2,
                    samples_requested=2, attempts=0, stop_reason="samples")
    assert keyed == Verdict(True, "sampled", 2, None, 2, 0, "samples")
    with pytest.raises(TypeError):
        Verdict(True, "sampled")


@pytest.mark.parametrize("build,message", [
    (lambda: StarAt(vertex="a", center="b"), r"^StarAt\(\) got an unexpected field 'center'$"),
    (lambda: StarViolation("partial_star", (1,), kind="no_common_vertex"),
     r"^StarViolation\(\) got field 'kind' twice$"),
    (lambda: StarAt("a", "b"),
     r"^StarAt\(\) got too many positional arguments: 2 for fields \('vertex',\)$"),
    (lambda: IndependentEdges(1),
     r"^IndependentEdges\(\) got too many positional arguments: 1 for fields \(\)$"),
    (lambda: MapWitness("forward", circuit()), r"^MapWitness\(\) is missing field 'mapped'$"),
    (lambda: LinkedCircuitPair(circuit(), circuit(), bridge_b=1, path=None, path_edge=0),
     r"^LinkedCircuitPair\(\) is missing field 'bridge_a'$"),
], ids=["unknown", "twice", "too-many", "none-taken", "missing", "missing-between"])
def test_constructor_binds_declared_fields(build, message):
    with pytest.raises(TypeError, match=message):
        build()


def test_class_defaults_fill_fields_left_out():
    assert vars(StarViolation("partial_star", (1,))) \
        == {"kind": "partial_star", "edges": (1,), "vertex": None}
    assert StarViolation(edges=(1,), kind="partial_star", vertex="a") \
        == StarViolation("partial_star", (1,), "a")
    assert Verdict(True, "sampled", 3, stop_reason="samples") \
        == Verdict(True, "sampled", 3, None, None, None, "samples")
    assert vars(IndependentEdges()) == {} and IndependentEdges() == IndependentEdges()


def test_cached_lookups_on_frozen_instances():
    graph = triangle()
    assert tuple(graph.vertices[ni] for ni, _ in graph._adjacency[graph._index["a"]]) \
        == ("b", "c")
    assert graph._adjacency is graph._adjacency
    assert graph.edge_id("c", "b") == 1
    assert graph == triangle() and hash(graph) == hash(triangle())
    assert len(circuit()) == 3
    star_at_a = EdgeSet(graph, frozenset({0, 2}))
    assert 2 in star_at_a and 1 not in star_at_a

    edge_map = EdgeMap(graph, triangle(), (1, 2, 0))
    assert edge_map._inverse == (2, 0, 1)
    assert edge_map._inverse is edge_map._inverse
    assert edge_map._inverse[0] == 2
    assert edge_map.inverted() == EdgeMap(triangle(), triangle(), (2, 0, 1))

    iso = VertexIso(sorted({"b": "a", "a": "b"}.items()))
    assert iso.as_dict == {"a": "b", "b": "a"}
    assert iso == VertexIso((("a", "b"), ("b", "a")))


@pytest.mark.parametrize("build,message", [
    (lambda: Graph(("a", "a"), ()), r"^duplicate vertex label 'a'$"),
    (lambda: Graph(("a", "b"), (("a", "c"),)), r"^edge 0 uses unknown vertex 'c'$"),
    (lambda: EdgeSet(triangle(), frozenset({3})),
     r"^invalid edge id 3 for host with 3 edges$"),
    (lambda: Path(triangle(), ("a", "b"), ()),
     r"^path needs exactly one more vertex than edges$"),
    (lambda: Path(triangle(), (), ()),
     r"^path needs exactly one more vertex than edges$"),
    (lambda: Path(triangle(), ("a", "b"), (1,)), r"^edge 1 does not join step 0 of the path$"),
    (lambda: Circuit(triangle(), frozenset({0, 1})), r"^edge set is not a circuit$"),
    (lambda: EdgeMap(triangle(), triangle(), (0, 0, 1)), r"^target edge 0 has two preimages$"),
    (lambda: EdgeMap(triangle(), triangle(), (0, 1)), r"^assignment covers 2 of 3 edges$"),
    (lambda: VertexIso((("a", "b"), ("c", "b"))), r"^vertex map repeats a source or target$"),
    (lambda: VertexIso([1, 2]), r"^vertex map must be \(source, target\) pairs$"),
    (lambda: VertexIso([("a",)]), r"^vertex map must be \(source, target\) pairs$"),
    (lambda: VertexIso([("a", ["b"])]), r"^vertex map must be \(source, target\) pairs$"),
    (lambda: VertexIso(["abc"]), r"^vertex map must be \(source, target\) pairs$"),
    (lambda: Graph(("a", "b"), (("a", "b"), ("b", "a"))),
     r"^edge 1 repeats pair \('a', 'b'\)$"),
    (lambda: Graph(("a", "b"), (("b", "b"), ("a", "b"))), r"^edge 0 is a loop at 'b'$"),
    (lambda: Graph(("a", 1, 1), ()), r"^vertex label 1 is not a string$"),
    (lambda: Graph(("a", "b"), (("a", "b"), ("x", "y"))),
     r"^edge 1 uses unknown vertex 'x'$"),
    (lambda: Circuit(triangle(), frozenset({-1, 0, 1})),
     r"^invalid edge id -1 for host with 3 edges$"),
    (lambda: Circuit(triangle(), frozenset({1, 2, 3})),
     r"^invalid edge id 3 for host with 3 edges$"),
    (lambda: Circuit(triangle(), frozenset({"0", 1, 2})),
     r"^invalid edge id '0' for host with 3 edges$"),
    (lambda: Path(triangle(), ("c", "a"), (-1,)),
     r"^invalid edge id -1 for host with 3 edges$"),
    (lambda: Graph(("a", "b"), ("ab",)), r"^edge entry 0 must be a pair of strings$"),
    (lambda: Graph(("a", "b", "c"), (("a", "b"), ("a", "b", "c"))),
     r"^edge entry 1 must be a pair of strings$"),
    (lambda: edge_set_from_pairs(named_graph("K4"), [("0", "1", "2")]),
     r"^edge set entry 0 must be a pair of strings$"),
    (lambda: edge_set_from_pairs(named_graph("K4"), ["01"]),
     r"^edge set entry 0 must be a pair of strings$"),
    *[(lambda pairs=pairs: edge_set_from_pairs(named_graph("K4"), pairs),
       r"^edge set must be a list of endpoint pairs$") for pairs in ({}, 5, None, "01")],
    (lambda: VertexIso([(1, 2)]), r"^vertex label 1 is not a string$"),
    (lambda: VertexIso([("a", "b"), ("c", 4)]), r"^vertex label 4 is not a string$"),
    (lambda: VertexIso([("a", None), (3, "b")]), r"^vertex label None is not a string$"),
], ids=["graph-duplicate", "graph-unknown", "edge-set", "path-length", "path-empty",
        "path-step",
        "circuit", "edge-map-repeat", "edge-map-short", "vertex-iso",
        "vertex-iso-not-pairs", "vertex-iso-short-pair", "vertex-iso-unhashable-target",
        "vertex-iso-three-letter-entry",
        "graph-repeat", "graph-loop", "graph-non-string", "graph-unknown-first",
        "circuit-negative-id", "circuit-id-past-end", "circuit-string-id",
        "path-negative-id", "graph-string-entry", "graph-three-labels",
        "edge-set-three-labels", "edge-set-string-entry", "edge-set-dict",
        "edge-set-int", "edge-set-none", "edge-set-string", "vertex-iso-int-labels",
        "vertex-iso-int-target", "vertex-iso-first-bad-label"])
def test_constructor_validation(build, message):
    with pytest.raises(InputError, match=message):
        build()


def test_list_and_tuple_pairs_build_the_same_graph():
    from_lists = Graph(("a", "b", "c"), [["a", "b"], ["b", "c"], ["c", "a"]])
    assert from_lists.edges == (("a", "b"), ("b", "c"), ("c", "a"))
    assert from_lists == triangle() and hash(from_lists) == hash(triangle())


@pytest.mark.parametrize("build,message", [
    (lambda: EdgeSet(triangle(), {True}), r"^invalid edge id True for host with 3 edges$"),
    (lambda: Path(triangle(), ("b", "c"), (True,)),
     r"^invalid edge id True for host with 3 edges$"),
    (lambda: Circuit(triangle(), {True, 0, 2}), r"^invalid edge id True for host with 3 edges$"),
    (lambda: EdgeMap(triangle(), triangle(), (True, 0, 2)), r"^edge 0 maps to invalid id True$"),
], ids=["edge-set", "path", "circuit", "edge-map"])
def test_edge_ids_refuse_a_bool(build, message):
    with pytest.raises(InputError, match=message):
        build()


# (class, leading arguments, container arguments as the object stores them)
CONTAINERS = [
    (Graph, lambda: (), (("a", "b", "c"), (("a", "b"), ("b", "c"), ("c", "a")))),
    (EdgeSet, lambda: (triangle(),), (frozenset({0, 2}),)),
    (Path, lambda: (triangle(),), (("a", "b", "c"), (0, 1))),
    (Circuit, lambda: (triangle(),), (frozenset({0, 1, 2}),)),
    (EdgeMap, lambda: (triangle(), triangle()), ((1, 2, 0),)),
    (VertexIso, lambda: (), ((("a", "b"), ("b", "a")),)),
]


GIVEN_AS = {"list": list, "set": set, "generator": lambda value: (x for x in value)}


@pytest.mark.parametrize("cls,head,stored,kind", [
    pytest.param(cls, head, stored, kind, id=f"{cls.__name__}-{kind}")
    for cls, head, stored in CONTAINERS
    for kind in ("list", "generator", "set")
    if kind != "set" or isinstance(stored[0], frozenset)
])
def test_constructors_freeze_any_iterable(cls, head, stored, kind):
    # Built from a list, a set or a generator, the object equals and hashes
    # like its twin built from tuples or frozensets, and the caller's later
    # edits of its own list or set do not reach it.
    given = [GIVEN_AS[kind](value) for value in stored]
    built = cls(*head(), *given)
    for value in given:
        if isinstance(value, (list, set)):
            value.clear()
    twin = cls(*head(), *stored)
    assert built == twin and hash(built) == hash(twin)


def test_edge_map_keeps_its_bijection_when_the_caller_edits_its_list():
    square = build_graph("abcd", [("a", "b"), ("b", "c"), ("c", "d"), ("d", "a")])
    assignment = [0, 1, 2, 3]
    edge_map = EdgeMap(square, square, assignment)
    assignment[3] = 0
    assert edge_map.assignment == (0, 1, 2, 3) and edge_map._inverse == (0, 1, 2, 3)
    assert is_induced_by(edge_map, VertexIso(sorted({v: v for v in "abcd"}.items())))
    for mode in ("exhaustive", "sampled"):
        verdict = check_circuit_injection(edge_map, mode)
        assert verdict.passed and verdict.circuits_checked == 1


def test_vertex_iso_stores_list_entries_as_tuples():
    built = VertexIso([["a", "b"], ["b", "a"]])
    twin = VertexIso((("a", "b"), ("b", "a")))
    assert built == twin and hash(built) == hash(twin)


def test_vertex_iso_stores_the_pairs_its_table_holds():
    iso = VertexIso(["ab"])
    assert iso.pairs == (("a", "b"),) and dict(iso.pairs) == iso.as_dict
