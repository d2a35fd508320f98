"""Instance builders: the counterexample family, a catalog of named graphs,
permuted edge maps, and seeded random graphs.

The counterexample family is the reason 3-connectivity cannot be weakened
in reconstruction: for any prime p > 2 it yields a circuit injection from
a 2-connected source onto a p-connected complete bipartite graph that is
not induced by any vertex relabeling.
"""

from __future__ import annotations

from bisect import bisect_right
from math import isqrt

from .connectivity import is_k_connected
from .edge_maps import EdgeMap
from .errors import InputError, InternalError, PreconditionError, _require_int
from .graph import Graph, build_graph
from .rng import XorShift64Star

# The most edges a generator is asked for: p² for theta and K_{p,p}, 2n
# for a wheel, n for the random graphs. A desk-scale bound, above every
# size the tests, the benchmark and the roadmap's baselines build (the
# largest is random2c at n = 512k); a larger request is refused before
# anything is allocated.
MAX_EDGES = 1_000_000


def _require_edges(edges: int, what: str) -> None:
    if edges > MAX_EDGES:
        raise PreconditionError(f"{what} exceeds the bound of {MAX_EDGES} edges")


# -- the counterexample family ------------------------------------------------


def theta_graph(p: int) -> Graph:
    """Two hubs u and w joined by p internally disjoint paths of p edges.

    Vertices: "u", "w", and interiors "x_{i}_{k}" for path i, position k
    (1 <= k <= p-1). Edge ids run path-major: edge (i, j) is i*p + j, with
    j = 0 incident to hub u and j = p-1 incident to hub w.
    """
    _require_int(p, 2, "theta graph needs at least 2 edges per path", "p")
    _require_edges(p * p, "theta graph")
    vertices = ["u", "w"]
    for i in range(p):
        for k in range(1, p):
            vertices.append(f"x_{i}_{k}")
    edges = []
    for i in range(p):
        for j in range(p):
            lo = "u" if j == 0 else f"x_{i}_{j}"
            hi = "w" if j == p - 1 else f"x_{i}_{j + 1}"
            edges.append((lo, hi))
    return build_graph(vertices, edges)


def complete_bipartite(p: int) -> Graph:
    """K_{p,p} on sides b0..b{p-1} and c0..c{p-1}; edge (j, t) has id j*p + t."""
    _require_int(p, 1, "complete bipartite part size must be positive", "p")
    _require_edges(p * p, "complete bipartite graph")
    vertices = [f"b{j}" for j in range(p)] + [f"c{t}" for t in range(p)]
    edges = [(f"b{j}", f"c{t}") for j in range(p) for t in range(p)]
    return build_graph(vertices, edges)


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


def build_counterexample(p: int) -> tuple[Graph, Graph, EdgeMap]:
    """The circuit injection that no vertex isomorphism induces.

    For prime p > 2: source is the theta graph with p paths of p edges,
    target is K_{p,p}, and edge (i, j) of the source maps to the target
    edge (b_j, c_{(i+j) mod p}). Every source circuit (a union of two
    hub-to-hub paths) lands on a circuit of the target, but the map is not
    a circuit isomorphism and the source is 2- but not 3-connected.
    """
    if isinstance(p, int) and p > 2:  # before _is_prime divides up to √p
        _require_edges(p * p, "counterexample")
    if not isinstance(p, int) or not _is_prime(p) or p <= 2:
        raise InputError(f"parameter must be a prime greater than 2, got {p!r}")
    source = theta_graph(p)
    target = complete_bipartite(p)
    assignment = [0] * source.edge_count()
    for i in range(p):
        for j in range(p):
            assignment[i * p + j] = j * p + (i + j) % p
    return source, target, EdgeMap(source, target, assignment)


# -- permuted maps ------------------------------------------------------------


def permuted_edge_map(graph: Graph, relabel: dict[str, str]) -> EdgeMap:
    """Edge map of the vertex relabeling `relabel` applied to graph.

    The target is the relabeled copy with vertices sorted and edges stored
    as sorted pairs in sorted order, so the edge-id assignment is a
    nontrivial permutation in general. By construction the result is
    induced by the relabeling.
    """
    if set(relabel) != set(graph.vertices):
        raise InputError("relabeling must cover exactly the vertices")
    for label in relabel.values():
        if not isinstance(label, str):
            raise InputError(f"vertex label {label!r} is not a string")
    if len(set(relabel.values())) != len(relabel):
        raise InputError("relabeling repeats a target label")
    mapped = []
    for u, v in graph.edges:
        x, y = relabel[u], relabel[v]
        mapped.append((x, y) if x < y else (y, x))
    target_edges = sorted(mapped)
    target = Graph(sorted(relabel.values()), target_edges)
    position = {pair: j for j, pair in enumerate(target_edges)}
    return EdgeMap(graph, target, [position[pair] for pair in mapped])


# -- named catalog ------------------------------------------------------------


def _complete(n: int) -> Graph:
    vertices = [str(i) for i in range(n)]
    edges = [(str(i), str(j)) for i in range(n) for j in range(i + 1, n)]
    return build_graph(vertices, edges)


def _wheel(n: int) -> Graph:
    _require_int(n, 3, "wheel rim needs at least 3 vertices", "n")
    _require_edges(2 * n, "wheel")
    rim = [f"r{i}" for i in range(n)]
    edges = [(rim[i], rim[(i + 1) % n]) for i in range(n)]
    edges += [("hub", r) for r in rim]
    return build_graph(["hub"] + rim, edges)


def _prism() -> Graph:
    edges = [("a0", "a1"), ("a1", "a2"), ("a2", "a0"),
             ("b0", "b1"), ("b1", "b2"), ("b2", "b0"),
             ("a0", "b0"), ("a1", "b1"), ("a2", "b2")]
    return build_graph(["a0", "a1", "a2", "b0", "b1", "b2"], edges)


def _cube() -> Graph:
    vertices = [f"{i:03b}" for i in range(8)]
    edges = []
    for i in range(8):
        for bit in range(3):
            j = i ^ (1 << bit)
            if j > i:
                edges.append((vertices[i], vertices[j]))
    return build_graph(vertices, edges)


def _double_bowtie() -> Graph:
    """Two bowties joined by a 4-edge matching, cross-wired so the whole
    graph is 3-connected even though each side has a cutpoint."""
    edges = [("p0", "p1"), ("p0", "p2"), ("p1", "p2"),
             ("p0", "p3"), ("p0", "p4"), ("p3", "p4"),
             ("q0", "q1"), ("q0", "q2"), ("q1", "q2"),
             ("q0", "q3"), ("q0", "q4"), ("q3", "q4"),
             ("p1", "q1"), ("p2", "q3"), ("p3", "q2"), ("p4", "q4")]
    vertices = [f"p{i}" for i in range(5)] + [f"q{i}" for i in range(5)]
    return build_graph(vertices, edges)


def named_graph(name: str, size: int | None = None) -> Graph:
    """Catalog lookup. Recognized: K4, K5, K33, prism, Q3, double_bowtie
    (no size), wheel (rim size, or compact W5 / W6 forms), theta (path
    count, or compact theta3 forms).
    """
    if not isinstance(name, str):
        raise InputError(f"catalog name {name!r} is not a string")
    key = name.strip().lower().replace("-", "_")
    plain = {
        "k4": lambda: _complete(4),
        "k5": lambda: _complete(5),
        "k33": lambda: complete_bipartite(3),
        "prism": _prism,
        "q3": _cube,
        "cube": _cube,
        "double_bowtie": _double_bowtie,
    }
    if key in plain:
        if size is not None:
            raise InputError(f"{name!r} does not take a size parameter")
        return plain[key]()
    for prefix, builder in (("w", _wheel), ("wheel", _wheel),
                            ("theta", theta_graph)):
        if key == prefix:
            if size is None:
                raise InputError(f"{name!r} needs a size parameter")
            return builder(size)
        suffix = key[len(prefix):]
        if key.startswith(prefix) and suffix.isdecimal():
            if size is not None:
                raise InputError(
                    f"{name!r} already carries its size parameter")
            try:
                size = int(suffix)
            except ValueError:  # more digits than int() converts
                raise InputError(
                    f"size suffix of {len(suffix)} digits is too long") from None
            return builder(size)
    raise InputError(f"no catalog entry named {name!r}")


# -- seeded random graphs -----------------------------------------------------


class _AbsentPairs:
    """The vertex-index pairs (i, j), i < j, that are not edges yet, in
    lexicographic order, without listing them.

    `pop(k)` removes and returns the k-th remaining pair, exactly as
    `list.pop(k)` would on the materialised list. Pair (i, j) has rank
    i*(2n-i-1)/2 + (j-i-1); only the sorted ranks of removed pairs are
    stored, so memory is O(n + removed) instead of Theta(n^2).
    """

    def __init__(self, n: int, present) -> None:
        """`present`: distinct index pairs (either order) already in use."""
        self._n = n
        pairs = (sorted(pair) for pair in present)
        self._removed = sorted(i * (2 * n - i - 1) // 2 + (j - i - 1) for i, j in pairs)

    def __len__(self) -> int:
        return self._n * (self._n - 1) // 2 - len(self._removed)

    def pop(self, k: int) -> tuple[int, int]:
        """Remove and return the k-th absent pair.

        removed[t] - t is nondecreasing, and the k-th absent rank is k plus
        the number of t with removed[t] - t <= k. `bisect_right` on that key
        finds the count, which is also where the new rank goes in the sorted
        list; the rank is then unranked in closed form.
        """
        if not 0 <= k < len(self):
            raise IndexError("pop index out of range")
        removed = self._removed
        at = bisect_right(range(len(removed)), k, key=lambda t: removed[t] - t)
        rank = k + at
        removed.insert(at, rank)
        # Unrank by counting from the last pair: rows i = n-2, n-3, ... hold
        # 1, 2, ... pairs, so the reversed rank's row follows from isqrt.
        back = self._n * (self._n - 1) // 2 - 1 - rank
        row = (isqrt(8 * back + 1) - 1) // 2
        i = self._n - 2 - row
        return i, self._n - 1 - (back - row * (row + 1) // 2)


def _random_cycle_with_chords(
        n: int, rng: XorShift64Star, chords: int,
) -> tuple[list[str], list[tuple[str, str]], _AbsentPairs]:
    """A random Hamiltonian cycle on v0..v{n-1} plus up to `chords` random
    chords; also returns the pairs still absent."""
    labels = [f"v{i}" for i in range(n)]
    order = list(range(n))
    rng.shuffle(order)
    cycle = [(order[k], order[(k + 1) % n]) for k in range(n)]
    absent = _AbsentPairs(n, cycle)
    edges = [(labels[a], labels[b]) for a, b in cycle]
    for _ in range(min(chords, len(absent))):
        i, j = absent.pop(rng.randrange(len(absent)))
        edges.append((labels[i], labels[j]))
    return labels, edges, absent


def random_two_connected(n: int, seed: int) -> Graph:
    """Random Hamiltonian cycle plus a seeded number of chords; always
    2-connected since chords never break the cycle.

    Costs O((n + chords) * log n), for sorting the cycle's pair ranks and
    one binary search per chord, plus the shifts of one sorted list of at
    most 2n integers; no structure of size Theta(n^2) is built.
    """
    _require_int(n, 3, "2-connected graphs need at least 3 vertices", "n")
    _require_edges(n, "random 2-connected graph")
    rng = XorShift64Star(seed)
    labels, edges, _ = _random_cycle_with_chords(n, rng, rng.randrange(n + 1))
    return build_graph(labels, edges)


def random_three_connected(n: int, seed: int) -> Graph:
    """Seeded random 3-connected graph on n >= 4 vertices.

    Start from a random Hamiltonian cycle, add random chords until the
    minimum degree reaches 3, then keep adding chords until the
    3-connectivity check passes. Densifying toward the complete graph makes
    success certain, but a retry bound guards the loop anyway.

    Drawing the chords costs O((n + chords) * log n) plus the shifts of
    one sorted list of the used pair ranks; the 3-connectivity checks come
    on top, O((t + c) * (n + m)) each for t scans and c candidates (see
    connectivity._small_separator): 1-4 ms at n = 120 and 5-8 ms at
    n = 1000 on a 2-vCPU VM.
    """
    _require_int(n, 4, "3-connected graphs need at least 4 vertices", "n")
    _require_edges(n, "random 3-connected graph")
    rng = XorShift64Star(seed)
    labels, edges, absent = _random_cycle_with_chords(n, rng, 0)

    degree = [2] * n
    below_three = n
    for _ in range(len(absent) + 1):
        if below_three == 0:
            graph = build_graph(labels, edges)
            if is_k_connected(graph, 3):
                return graph
        if not absent:
            break
        i, j = absent.pop(rng.randrange(len(absent)))
        edges.append((labels[i], labels[j]))
        for v in (i, j):
            degree[v] += 1
            if degree[v] == 3:
                below_three -= 1
    raise InternalError(
        f"could not reach a 3-connected graph on {n} vertices")
