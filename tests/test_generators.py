import hashlib
import importlib.util
import json
import re
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from circuitmap import (
    InputError,
    PreconditionError,
    build_counterexample,
    build_graph,
    check_circuit_injection,
    complete_bipartite,
    enumerate_circuits,
    graph_to_json,
    is_k_connected,
    named_graph,
    permuted_edge_map,
    random_three_connected,
    random_two_connected,
    reconstruct_vertex_isomorphism,
    theta_graph,
)
from circuitmap import generators
from circuitmap.generators import _AbsentPairs
from circuitmap.rng import XorShift64Star
from oracle import brute_is_k_connected

ROOT = Path(__file__).resolve().parent.parent
GOLDEN_GRAPHS = Path(__file__).parent / "data" / "random_graphs_golden.json"
RANDOM_GRAPHS = {"random2c": random_two_connected, "random3c": random_three_connected}


class TestTheta:
    def test_shape(self, theta3):
        assert theta3.vertices[:2] == ("u", "w")
        assert theta3.vertex_count() == 8
        assert theta3.edge_count() == 9
        assert theta3.endpoints(0) == ("u", "x_0_1")
        assert theta3.endpoints(2) == ("x_0_2", "w")
        assert len(theta3.incident_edges("u")) == 3 and len(theta3.incident_edges("x_1_1")) == 2

    def test_path_edge_ids_are_contiguous(self):
        g = theta_graph(5)
        # path i occupies ids i*5 .. i*5+4
        assert g.endpoints(5) == ("u", "x_1_1")
        assert g.endpoints(9) == ("x_1_4", "w")

    def test_small_sizes_rejected(self):
        with pytest.raises(InputError, match="^theta graph needs at least 2 edges per path$"):
            theta_graph(1)


class TestCompleteBipartite:
    def test_shape(self):
        g = complete_bipartite(3)
        assert g.vertices == ("b0", "b1", "b2", "c0", "c1", "c2")
        assert g.edge_count() == 9
        assert g.endpoints(0) == ("b0", "c0")
        assert g.endpoints(5) == ("b1", "c2")
        assert g == named_graph("K33")

    def test_empty_part_rejected(self):
        with pytest.raises(InputError,
                           match="^complete bipartite part size must be positive$"):
            complete_bipartite(0)


class TestCounterexample:
    def test_p3_shapes(self):
        src, tgt, f = build_counterexample(3)
        assert (src.vertex_count(), src.edge_count()) == (8, 9)
        assert tgt == complete_bipartite(3)
        # image of the edge at position j on path i is (b_j, c_{(i+j) mod p})
        assert tgt.endpoints(f.image_of(0)) == ("b0", "c0")
        assert tgt.endpoints(f.image_of(5)) == ("b2", "c0")
        assert tgt.endpoints(f.image_of(7)) == ("b1", "c0")

    def test_p5_shapes(self):
        src, tgt, _ = build_counterexample(5)
        assert (src.vertex_count(), src.edge_count()) == (22, 25)
        assert (tgt.vertex_count(), tgt.edge_count()) == (10, 25)
        assert len(enumerate_circuits(src)) == 10

    @pytest.mark.parametrize("p", [2, 4, 6, 9, 1, 0, -5])
    def test_bad_sizes_rejected(self, p):
        with pytest.raises(InputError,
                           match=f"^parameter must be a prime greater than 2, got {p}$"):
            build_counterexample(p)

    def test_non_integer_rejected(self):
        with pytest.raises(InputError,
                           match=r"^parameter must be a prime greater than 2, got 3\.0$"):
            build_counterexample(3.0)


class TestPermutedEdgeMap:
    def test_identity_relabeling(self, k4):
        f = permuted_edge_map(k4, {v: v for v in k4.vertices})
        assert f.assignment == tuple(range(6))
        assert f.target == k4

    def test_round_trip(self):
        g = named_graph("W5")
        relabel = dict(zip(sorted(g.vertices), ["r2", "r0", "hub", "r4", "r1", "r3"]))
        f = permuted_edge_map(g, relabel)
        assert check_circuit_injection(f).passed
        assert reconstruct_vertex_isomorphism(f).as_dict == relabel

    def test_hub_fixing_rotation_round_trip(self):
        g = named_graph("W5")
        rotation = {"hub": "hub", "r0": "r1", "r1": "r2", "r2": "r3",
                    "r3": "r4", "r4": "r0"}
        f = permuted_edge_map(g, rotation)
        assert reconstruct_vertex_isomorphism(f).as_dict == rotation

    def test_triangle_transposition_still_injects(self):
        tri = build_graph("abc", [("a", "b"), ("b", "c"), ("c", "a")])
        f = permuted_edge_map(tri, {"a": "b", "b": "a", "c": "c"})
        assert check_circuit_injection(f).passed

    def test_bad_relabelings(self, k4):
        with pytest.raises(InputError, match="^relabeling must cover exactly the vertices$"):
            permuted_edge_map(k4, {"0": "a", "1": "b", "2": "c"})
        with pytest.raises(InputError, match="^relabeling repeats a target label$"):
            permuted_edge_map(k4, {"0": "a", "1": "a", "2": "b", "3": "c"})
        # A label that is not a string is refused before it is compared or hashed.
        with pytest.raises(InputError, match="^vertex label 1 is not a string$"):
            permuted_edge_map(k4, {"0": 1, "1": "x", "2": "y", "3": "z"})
        with pytest.raises(InputError, match=r"^vertex label \[1\] is not a string$"):
            permuted_edge_map(k4, {"0": "w", "1": [1], "2": "y", "3": "z"})
        with pytest.raises(InputError, match="^vertex label 0 is not a string$"):
            permuted_edge_map(k4, {"0": 0, "1": 1, "2": 2, "3": 3})


class TestNamedCatalog:
    @pytest.mark.parametrize(
        "name,vertices,edges",
        [
            ("K4", 4, 6), ("K5", 5, 10), ("K33", 6, 9), ("prism", 6, 9),
            ("Q3", 8, 12), ("cube", 8, 12), ("W5", 6, 10), ("W6", 7, 12),
            ("double_bowtie", 10, 16),
        ],
    )
    def test_catalog_shapes(self, name, vertices, edges):
        g = named_graph(name)
        assert (g.vertex_count(), g.edge_count()) == (vertices, edges)

    def test_catalog_is_three_connected(self):
        for name in ("K4", "K5", "K33", "prism", "Q3", "W5", "W6",
                     "double_bowtie"):
            assert is_k_connected(named_graph(name), 3), name

    def test_name_forms(self):
        assert named_graph("wheel", 5) == named_graph("W5") == named_graph("w5")
        assert named_graph("theta", 3) == named_graph("theta3")
        assert named_graph("Q3") == named_graph("cube")
        assert named_graph("double-bowtie") == named_graph("double_bowtie")

    @pytest.mark.parametrize(
        "name,size,message",
        [("nope", None, "no catalog entry named 'nope'"),
         ("K4", 5, "'K4' does not take a size parameter"),
         ("wheel", None, "'wheel' needs a size parameter"),
         ("wheel", 2, "wheel rim needs at least 3 vertices"),
         ("theta", None, "'theta' needs a size parameter"),
         ("w", None, "'w' needs a size parameter"),
         (5, None, "catalog name 5 is not a string")],
        ids=["nope-None", "K4-5", "wheel-None", "wheel-2", "theta-None", "w-None", "5-None"],
    )
    def test_bad_names(self, name, size, message):
        with pytest.raises(InputError, match=f"^{message}$"):
            named_graph(name, size)

    def test_size_suffix_too_long_to_convert(self):
        # int() refuses more than 4,300 digits; no graph is built.
        with pytest.raises(InputError, match="^size suffix of 4400 digits is too long$"):
            named_graph("theta" + "1" * 4400)


class TestRandomGraphs:
    def test_two_connected_deterministic(self):
        a = random_two_connected(8, seed=11)
        b = random_two_connected(8, seed=11)
        assert a == b
        assert is_k_connected(a, 2)

    def test_two_connected_varies_with_seed(self):
        outs = {random_two_connected(8, seed=s).edges for s in range(6)}
        assert len(outs) > 1

    def test_three_connected(self):
        g = random_three_connected(7, seed=4)
        assert g == random_three_connected(7, seed=4)
        assert min(len(g.incident_edges(v)) for v in g.vertices) >= 3
        assert is_k_connected(g, 3)
        assert brute_is_k_connected(g, 3)

    def test_three_connected_minimum_is_complete(self):
        g = random_three_connected(4, seed=1)
        assert g.edge_count() == 6

    def test_sizes_too_small(self):
        with pytest.raises(InputError,
                           match="^3-connected graphs need at least 4 vertices$"):
            random_three_connected(3, seed=1)
        with pytest.raises(InputError,
                           match="^2-connected graphs need at least 3 vertices$"):
            random_two_connected(2, seed=1)

    @pytest.mark.parametrize("n", [0, -4])
    def test_three_connected_size_below_range_is_input_error(self, n):
        with pytest.raises(InputError,
                           match="^3-connected graphs need at least 4 vertices$"):
            random_three_connected(n, seed=1)

    @pytest.mark.parametrize("n", [0, -4])
    def test_two_connected_size_below_range_is_input_error(self, n):
        with pytest.raises(InputError,
                           match="^2-connected graphs need at least 3 vertices$"):
            random_two_connected(n, seed=1)


@pytest.mark.parametrize("value", [True, 2.5, "5"])
@pytest.mark.parametrize("build, name", [
    pytest.param(theta_graph, "p", id="theta_graph-p"),
    pytest.param(complete_bipartite, "p", id="complete_bipartite-p"),
    pytest.param(lambda n: named_graph("wheel", n), "n", id="wheel-n"),
    pytest.param(lambda n: random_two_connected(n, 1), "n", id="random_two_connected-n"),
    pytest.param(lambda seed: random_two_connected(8, seed), "seed",
                 id="random_two_connected-seed"),
    pytest.param(lambda n: random_three_connected(n, 1), "n", id="random_three_connected-n"),
    pytest.param(lambda seed: random_three_connected(8, seed), "seed",
                 id="random_three_connected-seed"),
])
def test_size_and_seed_must_be_ints(build, name, value):
    # A bool is an int to Python: complete_bipartite(True) would build K_{1,1}.
    message = f"^{name} must be an integer, got {re.escape(repr(value))}$"
    with pytest.raises(InputError, match=message):
        build(value)


@pytest.mark.parametrize("build, largest, past", [
    pytest.param(theta_graph, 5, 6, id="theta_graph"),
    pytest.param(complete_bipartite, 5, 6, id="complete_bipartite"),
    pytest.param(build_counterexample, 5, 7, id="build_counterexample"),
    pytest.param(lambda n: named_graph("wheel", n), 12, 13, id="wheel"),
    pytest.param(lambda n: random_two_connected(n, 1), 25, 26, id="random_two_connected"),
    pytest.param(lambda n: random_three_connected(n, 1), 25, 26, id="random_three_connected"),
])
def test_sizes_past_the_edge_bound_are_refused(monkeypatch, build, largest, past):
    # The bound counts p² edges for theta and K_{p,p}, 2n for a wheel and n
    # for the random graphs.
    monkeypatch.setattr(generators, "MAX_EDGES", 25)
    build(largest)
    with pytest.raises(PreconditionError, match="exceeds the bound of 25 edges$"):
        build(past)


def fingerprint(graph):
    """The edge list of a graph on at most 12 vertices, else the SHA-256 of
    that list as compact JSON."""
    edges = [list(e) for e in graph.edges]
    if len(graph.vertices) <= 12:
        return edges
    return hashlib.sha256(json.dumps(edges, separators=(",", ":")).encode()).hexdigest()


@pytest.mark.parametrize("family", sorted(RANDOM_GRAPHS))
def test_random_graphs_reproduce_recorded_output(family):
    # Keys are "<family>/n<n>/seed<seed>"; the file was recorded from the
    # list-based chord draw that the rank-based one replaced.
    cases = {key: want for key, want in json.loads(GOLDEN_GRAPHS.read_text()).items()
             if key.startswith(family + "/")}
    assert cases
    for key, want in cases.items():
        _, n, seed = key.split("/")
        graph = RANDOM_GRAPHS[family](int(n[1:]), int(seed[4:]))
        assert fingerprint(graph) == want, key


@pytest.mark.parametrize("n,digest", [
    (400, "46152e64e1999c7e7dd10d4a31cddd2a31e10c52c7272d60726724706757e27e"),
    (1000, "33407fd7dbd73cbacf42c1de5976deb5f18bfb149864c951dce63c8e6ed5cccf"),
])
def test_large_random_three_connected_reproduce_recorded_output(n, digest):
    # SHA-256 of the file `generate random3c --n <n> --seed 7` writes,
    # recorded while the 3-connectivity guard still searched from every
    # vertex; the golden file stops at n = 120.
    text = json.dumps(graph_to_json(random_three_connected(n, 7)), indent=2) + "\n"
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_pool_rows_reproduce(tmp_path):
    """bench/pool.json pins generator output; read it, never rewrite it."""
    spec = importlib.util.spec_from_file_location("pin", ROOT / "bench" / "pin.py")
    pin = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(pin)
    digests = 0
    for key, rows in json.loads((ROOT / "bench" / "pool.json").read_text()).items():
        family, n = key.split("/")[:2]
        for row in rows:
            if family == "random2c":
                g = random_two_connected(int(n), row["seed"])
                assert (g.edge_count(), g.edge_count() - int(n) + 1) == (
                    row["m"], row["rank"]), (key, row["seed"])
            elif "sha256" in row:
                assert pin.artifact_digest(int(n), row["seed"], tmp_path) == \
                    row["sha256"], (key, row["seed"])
                digests += 1
    assert digests == 24   # random3c/{40,80,120}, eight seeds each


def test_two_connected_memory_is_linear():
    # The seed with the most chords among 1..20; listing every absent pair
    # at this size would take about 50 million tuples.
    n = 10_000
    seed = max(range(1, 21), key=lambda s: XorShift64Star(s).randrange(n + 1))
    tracemalloc.start()
    try:
        g = random_two_connected(n, seed)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert g.edge_count() > 1.9 * n
    assert peak < 32 * 2**20


@st.composite
def absent_pair_scripts(draw):
    """n, a set of present pairs in either orientation, and pop indices
    for a random number of pops (each index taken modulo the length left)."""
    n = draw(st.integers(3, 12))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    present = draw(st.sets(st.sampled_from(pairs)))
    flipped = [(j, i) if draw(st.booleans()) else (i, j) for i, j in sorted(present)]
    picks = draw(st.lists(st.integers(0, 10**6), max_size=len(pairs)))
    return n, flipped, picks


@settings(max_examples=200, deadline=None)
@given(absent_pair_scripts())
@example((3, [(0, 1), (2, 1), (0, 2)], [0]))
@example((4, [], list(range(6))))
def test_absent_pairs_pop_like_the_listed_pairs(script):
    n, present, picks = script
    used = {frozenset(p) for p in present}
    listed = [(i, j) for i in range(n) for j in range(i + 1, n)
              if frozenset((i, j)) not in used]
    absent = _AbsentPairs(n, present)
    assert len(absent) == len(listed)
    for pick in picks:
        if not listed:
            with pytest.raises(IndexError):
                absent.pop(0)
            break
        k = pick % len(listed)
        assert absent.pop(k) == listed.pop(k)
        assert len(absent) == len(listed)


class TestRng:
    def test_pinned_stream(self):
        r = XorShift64Star(1)
        assert [r.next_u64() for _ in range(3)] == [
            5180492295206395165,
            12380297144915551517,
            13389498078930870103,
        ]

    def test_zero_seed_escapes(self):
        assert XorShift64Star(0).next_u64() == 973819730272012410

    def test_randrange_bounds(self):
        r = XorShift64Star(99)
        draws = [r.randrange(7) for _ in range(200)]
        assert set(draws) <= set(range(7))
        assert len(set(draws)) == 7

    @pytest.mark.parametrize("call, message", [
        (lambda: XorShift64Star(1).randrange(0), "randrange needs a positive bound"),
    ], ids=["randrange_0"])
    def test_empty_ranges_are_input_errors(self, call, message):
        with pytest.raises(InputError, match=f"^{message}$"):
            call()

    def test_shuffle_is_permutation(self):
        items = list(range(10))
        r = XorShift64Star(5)
        r.shuffle(items)
        assert sorted(items) == list(range(10))
        assert items != list(range(10))
