from __future__ import annotations

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from circuitmap import EdgeMap, build_graph, named_graph, random_three_connected
from circuitmap.rng import XorShift64Star

# Small 3-connected graphs used throughout; name -> constructor args.
CORPUS = ("K4", "K5", "W5", "W6", "prism", "Q3", "K33")

# One verdict line per acceptance criterion, filled in by test_acceptance
# and echoed after the run so the verdicts survive output capture.
ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


def corpus_graphs():
    return [(name, named_graph(name)) for name in CORPUS]


def complete(n: int):
    labels = [str(i) for i in range(n)]
    return build_graph(labels, [(u, v) for i, u in enumerate(labels)
                                for v in labels[i + 1:]])


def cycle_graph(n: int):
    labels = [f"v{i}" for i in range(n)]
    return build_graph(labels, [(labels[i], labels[(i + 1) % n]) for i in range(n)])


def ladder(rungs: int):
    """Rails a0..a(r-1) and b0..b(r-1) joined by the rungs ai bi: C(r, 2)
    circuits over 3r - 6 chains once the four corners are contracted."""
    a, b = [f"a{i}" for i in range(rungs)], [f"b{i}" for i in range(rungs)]
    edges = [*zip(a, b), *zip(a, a[1:]), *zip(b, b[1:])]
    return build_graph(a + b, edges)


def blocks_and_trees():
    """Bowtie with a pendant path, a separate K4, a small tree and an
    isolated vertex: cutpoints, bridges and circuit-free parts together."""
    edges = [("a", "b"), ("a", "c"), ("b", "c"), ("c", "d"), ("c", "e"),
             ("d", "e"), ("e", "p0"), ("p0", "p1"),
             ("k0", "k1"), ("k0", "k2"), ("k0", "k3"), ("k1", "k2"),
             ("k1", "k3"), ("k2", "k3"),
             ("t0", "t1"), ("t0", "t2"), ("t2", "t3")]
    vertices = sorted({v for e in edges for v in e} | {"z"})
    return build_graph(vertices, edges)


def seeded_relabel(graph, seed: int) -> dict[str, str]:
    """Deterministic vertex permutation within the graph's own label set."""
    labels = sorted(graph.vertices)
    shuffled = list(labels)
    XorShift64Star(seed).shuffle(shuffled)
    return dict(zip(labels, shuffled))


def whitney_twist(n_a, n_b, seed):
    """Two random 3-connected blocks glued at two vertices, mapped edge for
    edge onto the same blocks glued with the second block's pair swapped.

    The second block's gluing pair is a non-edge, so neither gluing doubles
    an edge. The map is a circuit isomorphism (a Whitney twist), and no
    vertex relabeling induces it.
    """
    a = random_three_connected(n_a, seed)
    b = random_three_connected(n_b, seed + 1)
    y1, y2 = next((y1, y2) for y1 in b.vertices for y2 in b.vertices
                  if y1 < y2 and (y1, y2) not in b._pair_ids)
    x1, x2 = "a" + a.vertices[0], "a" + a.vertices[1]

    def glue(onto):
        name = {y: onto[k] for k, y in enumerate((y1, y2))}
        vertices = (["a" + v for v in a.vertices]
                    + ["b" + v for v in b.vertices if v not in name])
        edges = ([("a" + u, "a" + v) for u, v in a.edges]
                 + [(name.get(u, "b" + u), name.get(v, "b" + v)) for u, v in b.edges])
        return build_graph(vertices, edges)

    source, target = glue((x1, x2)), glue((x2, x1))
    return EdgeMap(source, target, tuple(range(source.edge_count())))


@pytest.fixture
def default_recursion_limit():
    """Run a test under CPython's default recursion limit."""
    saved = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    yield
    sys.setrecursionlimit(saved)


@pytest.fixture
def k4():
    return named_graph("K4")


@pytest.fixture
def prism():
    return named_graph("prism")


@pytest.fixture
def theta3():
    return named_graph("theta", 3)


@pytest.fixture
def bowtie():
    # two triangles glued at c; the one cutpoint in the corpus
    return build_graph(
        ["a", "b", "c", "d", "e"],
        [("a", "b"), ("a", "c"), ("b", "c"), ("c", "d"), ("c", "e"), ("d", "e")],
    )


@pytest.fixture
def k23_onto_k4():
    return k23_onto_k4_map()


def k23_onto_k4_map():
    """The smallest passing map that no vertex map induces: K_{2,3}, the
    theta graph of three 2-edge paths, onto K4 by the perfect
    1-factorization of K4. Each path goes onto one factor, so its three
    circuits go onto the three Hamiltonian circuits of K4."""
    source = build_graph(
        ["u", "w", "x0", "x1", "x2"],
        [("u", "x0"), ("x0", "w"), ("u", "x1"), ("x1", "w"), ("u", "x2"), ("x2", "w")],
    )
    target = build_graph(
        ["inf", "0", "1", "2"],
        [("inf", "0"), ("1", "2"), ("inf", "1"), ("0", "2"), ("inf", "2"), ("0", "1")],
    )
    return EdgeMap(source, target, tuple(range(6)))
