import json
import re
from collections import Counter
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import given, settings

from circuitmap import (
    InputError,
    PreconditionError,
    build_counterexample,
    build_graph,
    complete_bipartite,
    cutpoints,
    is_k_connected,
    named_graph,
    random_three_connected,
    two_disjoint_paths,
)
from circuitmap import connectivity
from circuitmap.rng import XorShift64Star
from conftest import CORPUS, complete
from oracle import _connected_on, brute_is_k_connected
from test_properties import (CONNECTIVITY_GUARDS, assert_guard_refusals_match_oracle,
                             assert_small_separator_matches_oracle, graphs)

# Rows [graph name, a, b, forbidden vertex or null, [path, path] or
# "NoTwoPathsError"], recorded from the earlier two_disjoint_paths that kept
# its flow in one dict: every catalog graph, its first 40 vertex pairs in
# order, each without and with one forbidden vertex. "NoTwoPathsError" was
# the refusal's class name then; it is now the PreconditionError below.
GOLDEN_PATHS = Path(__file__).parent / "data" / "two_disjoint_paths_golden.json"
NO_TWO_PATHS = r"^no two internally disjoint paths join '[^']+' and '[^']+'$"


def path_graph(n):
    return build_graph([str(i) for i in range(n)],
                       [(str(i), str(i + 1)) for i in range(n - 1)])


@pytest.mark.parametrize(
    "name,k,expected",
    [
        ("K4", 1, True), ("K4", 2, True), ("K4", 3, True), ("K4", 4, False),
        ("K5", 4, True), ("K5", 5, False),
        ("K33", 3, True), ("K33", 4, False),
        ("prism", 3, True), ("Q3", 3, True),
        ("W5", 3, True), ("double_bowtie", 3, True),
    ],
)
def test_catalog_connectivity(name, k, expected):
    assert is_k_connected(named_graph(name), k) is expected


def test_theta_is_two_but_not_three_connected(theta3):
    assert is_k_connected(theta3, 2)
    assert not is_k_connected(theta3, 3)


def test_path_and_degenerate_cases():
    assert is_k_connected(path_graph(3), 1)
    assert not is_k_connected(path_graph(3), 2)
    assert not is_k_connected(path_graph(1), 1)  # needs more than k vertices
    g = build_graph(["a", "b"], [])
    assert not is_k_connected(g, 1)
    with pytest.raises(InputError, match="^k must be a positive integer$"):
        is_k_connected(path_graph(3), 0)


@pytest.mark.parametrize("k", ["3", 2.5, 3.0, True, None])
def test_k_must_be_an_int(k):
    # A bool is an int to Python, so True would otherwise pass as k = 1.
    with pytest.raises(InputError, match="^k must be a positive integer$"):
        is_k_connected(named_graph("K5"), k)


def test_connectivity_matches_oracle_on_catalog():
    for name in ("K4", "prism", "K33", "double_bowtie"):
        g = named_graph(name)
        for k in range(1, 5):
            assert is_k_connected(g, k) is brute_is_k_connected(g, k)


def test_connectivity_is_monotone_in_k():
    for name in ("K5", "prism", "W6"):
        g = named_graph(name)
        levels = [is_k_connected(g, k) for k in range(1, 6)]
        assert levels == sorted(levels, reverse=True)


def test_cutpoints(bowtie):
    assert cutpoints(bowtie) == ("c",)
    assert cutpoints(path_graph(4)) == ("1", "2")
    assert cutpoints(named_graph("K4")) == ()


def test_cutpoints_on_a_path_deeper_than_the_recursion_limit():
    n = 3000
    assert cutpoints(path_graph(n)) == tuple(sorted(str(i) for i in range(1, n - 1)))


def test_separator_through_the_least_degree_vertex():
    # v has least degree and every vertex not adjacent to it is joined to
    # it by four disjoint paths, yet {v, t1, t2} separates the x side from
    # the y side: only the pairs of v's neighbours expose the separator.
    sides = ("x1", "x2", "y1", "y2")
    edges = [("x1", "x2"), ("y1", "y2"), ("t1", "t2")]
    edges += [(s, c) for s in ("v", "t1", "t2") for c in sides]
    g = build_graph(["v", "t1", "t2", *sides], edges)
    for k in (3, 4):
        assert is_k_connected(g, k) is brute_is_k_connected(g, k) is (k == 3)


@pytest.mark.parametrize("p", range(3, 12))
def test_complete_bipartite_connectivity_is_exact(p):
    g = complete_bipartite(p)
    assert is_k_connected(g, p)
    assert not is_k_connected(g, p + 1)


def test_connectivity_matches_networkx_beyond_oracle_sizes():
    nx = pytest.importorskip("networkx")
    answers = set()
    for n in (20, 40, 80, 120):
        for seed in range(1, 6):
            base = random_three_connected(n, seed)
            for deleted in range(4):
                rng = XorShift64Star(100 * seed + deleted)
                edges = list(base.edges)
                for _ in range(deleted):
                    edges.pop(rng.randrange(len(edges)))
                g = build_graph(base.vertices, edges)
                nx_graph = nx.Graph(edges)
                nx_graph.add_nodes_from(g.vertices)
                kappa = nx.node_connectivity(nx_graph)
                for k in range(1, 5):
                    got = is_k_connected(g, k)
                    assert got is (kappa >= k and n > k), (n, seed, deleted, k)
                    if k == 3:
                        answers.add(got)
    assert answers == {True, False}


def glued_blocks(seed, shared, chord):
    """Two random 3-connected blocks (5-12 vertices) sharing `shared` of 0-2
    vertices, which separate them; with `chord`, plus one edge between the
    two blocks' own vertices."""
    rng = XorShift64Star(seed)
    sides = []
    for tag in "ab":
        block = random_three_connected(5 + rng.randrange(8), rng.randrange(1000))
        i = rng.randrange(block.vertex_count())
        j = rng.randrange(block.vertex_count() - 1)
        glue = [block.vertices[i], block.vertices[j + (j >= i)]][:shared]
        name = {v: f"g{glue.index(v)}" if v in glue else f"{tag}{v}"
                for v in block.vertices}
        sides.append([(name[u], name[v]) for u, v in block.edges])
    edges = sides[0] + [e for e in sides[1]
                        if e not in sides[0] and e[::-1] not in sides[0]]
    if chord:
        own = [[v for e in side for v in e if v[0] != "g"] for side in sides]
        edges.append(tuple(vs[rng.randrange(len(vs))] for vs in own))
    return build_graph([v for e in edges for v in e], edges)


def three_connected_instances():
    for seed in range(12):
        for shared in (0, 1, 2):
            yield glued_blocks(seed, shared, chord=False)
        yield glued_blocks(seed, 2, chord=True)
    for name in (*CORPUS, "double_bowtie", "W4", "W7", "theta3", "theta4"):
        yield named_graph(name)
    for n in (4, 5, 6, 8, 12, 16, 20, 24):
        for seed in range(1, 4):
            base = random_three_connected(n, seed)
            for deleted in range(3):
                rng = XorShift64Star(100 * seed + deleted)
                edges = list(base.edges)
                for _ in range(deleted):
                    edges.pop(rng.randrange(len(edges)))
                yield build_graph(base.vertices, edges)


def test_three_connectivity_matches_oracle_at_least_degree_three(k23_onto_k4):
    # The hypothesis differential stops at six vertices and the networkx one
    # needs networkx; these families reach 24 vertices and, unlike random
    # small graphs, mostly pass the least-degree exit, so the searches of G
    # and of its candidates decide them: a separator of 1 or 2 vertices
    # leaves G - a disconnected for some candidate a, or with a cutpoint.
    # The separator the guard finds for k <= 3 agrees with the oracle too,
    # here and on the 2-connected sources of K_{2,3} onto K4 and of the
    # counterexamples for p = 3 and 5.
    extra = [k23_onto_k4.source, build_counterexample(3)[0], build_counterexample(5)[0]]
    for g in [*three_connected_instances(), *extra]:
        assert is_k_connected(g, 3) is brute_is_k_connected(g, 3), g
        for k in range(1, min(4, g.vertex_count())):
            assert_small_separator_matches_oracle(g, k, connectivity._small_separator(g, k))
    assert not any(is_k_connected(glued_blocks(seed, shared, False), 3)
                   for seed in range(12) for shared in (0, 1, 2))
    assert all(is_k_connected(glued_blocks(seed, 2, True), 3) for seed in range(12))


def two_disjoint_k4s():
    return build_graph([f"{t}{i}" for t in "ab" for i in range(4)],
                       [(f"{t}{i}", f"{t}{j}") for t in "ab"
                        for i, j in combinations(range(4), 2)])


def test_every_guard_refusal_names_an_oracle_separator(k23_onto_k4, bowtie):
    # All four guards, reconstruction's, the crossing search's (k = 3),
    # decomposition's and the attachment search's (k = 2), on the instances
    # above, the sources of K_{2,3} onto K4 and of the counterexamples for
    # p = 3 and 5, a bowtie (cutpoint c), two disjoint K4s (the empty
    # separator) and a triangle, too small for k = 3 to name a separator.
    extra = [k23_onto_k4.source, build_counterexample(3)[0], build_counterexample(5)[0],
             bowtie, two_disjoint_k4s(), complete(3)]
    for g in [*three_connected_instances(), *extra]:
        assert_guard_refusals_match_oracle(g)


def assert_separators_hold(g, chosen):
    """Every set of one or two vertices whose deletion disconnects the
    connected graph g holds a vertex of index in `chosen`, found by brute
    force."""
    names = {g.vertices[i] for i in chosen}
    everyone = set(g.vertices)
    for size in (1, 2):
        for cut in combinations(g.vertices, size):
            if not _connected_on(g, everyone - set(cut)):
                assert names & set(cut), (g, cut)


def first_scan_hubs(g):
    """The hubs of the guard's first scan, a breadth-first one."""
    return connectivity._breadth_first_hubs(g._adjacency, [0] * g.vertex_count())


def test_separating_pairs_hold_a_hub():
    # The instances hold every catalog family, glued blocks and random
    # 3-connected graphs less a few edges; blocks sharing no vertex are
    # disconnected and skipped.
    for g in three_connected_instances():
        if brute_is_k_connected(g, 1):
            assert_separators_hold(g, first_scan_hubs(g))


def test_separating_pairs_hold_a_candidate():
    # A separator holds a hub of every scan, so over an odd number t of
    # scans one of its vertices is a hub of more than t/2 of them.
    for g in three_connected_instances():
        if brute_is_k_connected(g, 1):
            assert_separators_hold(g, connectivity._hub_candidates(g._adjacency))


def test_glued_blocks_start_the_scan_inside_and_outside_the_shared_pair():
    # Among the blocks glued at {g0, g1} in three_connected_instances, which
    # the tests above check, the scan's start (a vertex of greatest degree)
    # lies inside the glued pair on some seeds and outside it on others.
    starts = set()
    for seed in range(12):
        for chord in (False, True):
            g = glued_blocks(seed, 2, chord)
            adjacency = g._adjacency
            start = max(range(len(adjacency)), key=lambda i: len(adjacency[i]))
            starts.add(g.vertices[start] in ("g0", "g1"))
    assert starts == {True, False}


@settings(max_examples=150, deadline=None)
@given(graphs(max_vertices=7, max_edges=21))
def test_separating_pairs_hold_a_hub_on_small_graphs(g):
    if g.vertex_count() >= 3 and brute_is_k_connected(g, 1):
        assert_separators_hold(g, first_scan_hubs(g))


@settings(max_examples=150, deadline=None)
@given(graphs(max_vertices=7, max_edges=21))
def test_separating_pairs_hold_a_candidate_on_small_graphs(g):
    if g.vertex_count() >= 3 and brute_is_k_connected(g, 1):
        assert_separators_hold(g, connectivity._hub_candidates(g._adjacency))


@pytest.fixture
def guard_work(monkeypatch):
    """check(g), by default is_k_connected(g, 3), as (its value, scans,
    lowpoint searches)."""
    calls = Counter()
    for name in ("_breadth_first_hubs", "_rooted_forest"):
        def counted(*args, name=name, real=getattr(connectivity, name)):
            calls[name] += 1
            return real(*args)
        monkeypatch.setattr(connectivity, name, counted)

    def run(g, check=lambda g: is_k_connected(g, 3)):
        calls.clear()
        verdict = check(g)
        return verdict, calls["_breadth_first_hubs"], calls["_rooted_forest"]
    return run


def test_three_connectivity_searches_only_candidates(guard_work):
    # One search of G itself, then the first scan of K5 and of W7 has one
    # hub, the start, which claims every other vertex: one candidate.
    assert guard_work(named_graph("K5")) == guard_work(named_graph("W7")) == (True, 1, 2)
    # theta3 fails the least-degree exit, two K4s the search of G.
    assert guard_work(named_graph("theta3")) == (False, 0, 0)
    assert guard_work(two_disjoint_k4s()) == (False, 0, 1)
    # 26 searches here where one breadth-first tree's hubs gave 41-45.
    verdict, scans, searches = guard_work(random_three_connected(120, 1))
    assert verdict and scans <= 7 and searches <= 30
    verdict, scans, searches = guard_work(random_three_connected(1000, 7))
    assert verdict and scans + searches <= 8


def block_chain(seed, shared):
    """Random 3-connected blocks of 5-12 vertices in a row, each sharing
    `shared` of its vertices with the next, to at least 1,000 vertices; the
    shared vertices separate the chain."""
    rng = XorShift64Star(seed)
    edges, glue, size = {}, [], 0
    while size < 1000:
        block = random_three_connected(5 + rng.randrange(8), rng.randrange(1000))
        name = {v: f"c{size}_{v}" for v in block.vertices}
        name.update(zip(block.vertices, glue))
        for u, v in block.edges:
            edges.setdefault(frozenset((name[u], name[v])), (name[u], name[v]))
        size += block.vertex_count() - len(glue)
        glue = [name[v] for v in block.vertices[-shared:]]
    return build_graph(sorted({v for e in edges.values() for v in e}),
                       list(edges.values()))


def test_chains_of_blocks_fail_within_few_searches(guard_work):
    # A cutpoint fails the search of G itself, before any scan. A pair of
    # shared vertices holds a candidate; heaviest first, one comes early.
    for seed in range(1, 4):
        one, two = block_chain(seed, 1), block_chain(seed, 2)
        assert 1000 <= min(one.vertex_count(), two.vertex_count())
        assert guard_work(one) == (False, 0, 1)
        verdict, scans, searches = guard_work(two)
        assert not verdict and scans + searches <= 8, (seed, scans, searches)


def refused_separator(call):
    """A check for guard_work: the separator that the connectivity guard
    refusing call(g) names."""
    def check(g):
        with pytest.raises(PreconditionError) as refusal:
            call(g)
        assert refusal.value.k is not None
        return refusal.value.separator
    return check


@pytest.mark.parametrize("seed, separator", [
    (1, ("c0_v5", "c0_v6")), (2, ("c108_v5", "c108_v6")), (3, ("c0_v10", "c0_v9"))])
def test_a_refused_reconstruction_runs_one_guard(guard_work, seed, separator):
    # A guard keeps the separator it found on the graph, so each of the four
    # refusals names it without a second scan or search. Blocks sharing two
    # vertices refuse the k = 3 guards (the chain is 2-connected), blocks
    # sharing one the k = 2 guards.
    for k, _, call in CONNECTIVITY_GUARDS:
        chain = block_chain(seed, k - 1)
        alone = guard_work(chain, lambda g: connectivity._small_separator(g, k))
        refused = guard_work(build_graph(chain.vertices, chain.edges),
                             refused_separator(call))
        assert alone[0] is not None and refused == alone, (k, call)
        if k == 3:
            assert refused[0] == separator


def test_three_connectivity_runs_no_flow(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("k = 3 must not run a flow")

    monkeypatch.setattr(connectivity, "_augment", refuse)
    for g in (named_graph("K4"), named_graph("prism"), random_three_connected(40, 1)):
        assert is_k_connected(g, 3)
    assert not is_k_connected(named_graph("theta3"), 3)
    with pytest.raises(AssertionError, match="must not run a flow"):
        is_k_connected(complete_bipartite(4), 4)


class TestTwoDisjointPaths:
    def test_square_opposite_corners(self):
        g = build_graph(list("0123"), [("0", "1"), ("1", "2"), ("2", "3"), ("3", "0")])
        p, q = two_disjoint_paths(g, "0", "2")
        assert p.vertices == ("0", "1", "2")
        assert q.vertices == ("0", "3", "2")

    def test_theta_hubs(self, theta3):
        p, q = two_disjoint_paths(theta3, "u", "w")
        assert p.vertices == ("u", "x_0_1", "x_0_2", "w")
        assert q.vertices == ("u", "x_1_1", "x_1_2", "w")

    def test_adjacent_endpoints(self, k4):
        p, q = two_disjoint_paths(k4, "0", "1")
        shared = set(p.vertices) & set(q.vertices)
        assert shared == {"0", "1"}
        assert not set(p.edges) & set(q.edges)

    def test_forbidden_vertex_respected(self, prism):
        p, q = two_disjoint_paths(prism, "a0", "b2", forbidden=("a2",))
        assert "a2" not in p.vertices and "a2" not in q.vertices

    def test_k4_around_forbidden_vertex(self, k4):
        p, q = two_disjoint_paths(k4, "0", "1", forbidden=("2",))
        assert {p.vertices, q.vertices} == {("0", "1"), ("0", "3", "1")}

    def test_no_second_path(self, bowtie):
        with pytest.raises(PreconditionError, match=NO_TWO_PATHS):
            two_disjoint_paths(bowtie, "a", "d")  # everything funnels through c
        with pytest.raises(PreconditionError, match=NO_TWO_PATHS):
            two_disjoint_paths(path_graph(3), "0", "2")

    def test_forbidden_can_destroy_both_paths(self, bowtie):
        with pytest.raises(PreconditionError, match=NO_TWO_PATHS):
            two_disjoint_paths(bowtie, "a", "b", forbidden=("c",))

    def test_input_validation(self, k4):
        with pytest.raises(InputError, match="^endpoints must be distinct$"):
            two_disjoint_paths(k4, "0", "0")
        with pytest.raises(InputError, match="^endpoints may not be forbidden$"):
            two_disjoint_paths(k4, "0", "1", forbidden=("0",))


def test_two_disjoint_paths_reproduce_recorded_output():
    for name, a, b, forbidden, expected in json.loads(GOLDEN_PATHS.read_text()):
        g = named_graph(name)
        try:
            p, q = two_disjoint_paths(g, a, b, () if forbidden is None else (forbidden,))
            got = [list(p.vertices), list(q.vertices)]
        except PreconditionError as err:
            assert re.match(NO_TWO_PATHS, str(err)), str(err)
            got = "NoTwoPathsError"
        assert got == expected, (name, a, b, forbidden)
