"""Independent reference implementations used to cross-check the library.

Everything here is written from scratch against the definitions, on purpose:
no calls into circuitmap beyond reading Graph's public accessors. Slow is
fine; these only run on small graphs. One exception:
connector_images_nonadjacent, the reference for the paper's claim that the
two bridge connectors of a linked circuit pair keep nonadjacent images
(acceptance criterion 6), validates its witness with the library's
validate_linked_pair before it compares endpoints.
"""

from __future__ import annotations

import itertools

from circuitmap import validate_linked_pair


def _degree_and_adjacency(graph, edge_ids):
    deg: dict[str, int] = {}
    adj: dict[str, list[str]] = {}
    for eid in edge_ids:
        u, v = graph.endpoints(eid)
        deg[u] = deg.get(u, 0) + 1
        deg[v] = deg.get(v, 0) + 1
        adj.setdefault(u, []).append(v)
        adj.setdefault(v, []).append(u)
    return deg, adj


def brute_is_circuit(graph, edge_ids) -> bool:
    """Nonempty, every touched vertex has degree 2, and one component."""
    edge_ids = set(edge_ids)
    if not edge_ids:
        return False
    deg, adj = _degree_and_adjacency(graph, edge_ids)
    if any(d != 2 for d in deg.values()):
        return False
    start = next(iter(deg))
    seen = {start}
    stack = [start]
    while stack:
        x = stack.pop()
        for y in adj[x]:
            if y not in seen:
                seen.add(y)
                stack.append(y)
    return len(seen) == len(deg)


def brute_circuits(graph) -> set[frozenset[int]]:
    """All circuits by powerset filtering. Only sane for <= 16 edges or so."""
    m = graph.edge_count()
    found = set()
    for r in range(3, m + 1):
        for combo in itertools.combinations(range(m), r):
            if brute_is_circuit(graph, combo):
                found.add(frozenset(combo))
    return found


def cycle_space_circuits(graph) -> set[frozenset[int]]:
    """All circuits as the circuits among the sums of fundamental cycles.

    Every circuit lies in the cycle space, which the fundamental cycles of
    a spanning forest span, so filtering their 2^(m - n + c) sums finds
    them all. Sane for a cycle rank up to about 12, on any number of edges.
    """
    m = graph.edge_count()
    parent: dict[str, tuple[str, int] | None] = {}
    depth: dict[str, int] = {}
    for root in graph.vertices:
        if root in depth:
            continue
        parent[root], depth[root] = None, 0
        queue = [root]
        for x in queue:
            for eid in range(m):
                u, v = graph.endpoints(eid)
                y = v if u == x else u if v == x else None
                if y is not None and y not in depth:
                    parent[y], depth[y] = (x, eid), depth[x] + 1
                    queue.append(y)
    tree = {p[1] for p in parent.values() if p is not None}
    fundamental = []
    for eid in range(m):
        if eid in tree:
            continue
        u, v = graph.endpoints(eid)
        cycle = {eid}
        while u != v:
            if depth[u] < depth[v]:
                u, v = v, u
            u, e = parent[u]
            cycle.add(e)
        fundamental.append(frozenset(cycle))
    found = set()
    for r in range(1, len(fundamental) + 1):
        for combo in itertools.combinations(fundamental, r):
            total = frozenset()
            for c in combo:
                total ^= c
            if brute_is_circuit(graph, total):
                found.add(total)
    return found


def _connected_on(graph, keep: set[str]) -> bool:
    if not keep:
        return False
    start = next(iter(keep))
    seen = {start}
    stack = [start]
    while stack:
        x = stack.pop()
        for eid in range(graph.edge_count()):
            u, v = graph.endpoints(eid)
            if u == x and v in keep and v not in seen:
                seen.add(v)
                stack.append(v)
            elif v == x and u in keep and u not in seen:
                seen.add(u)
                stack.append(u)
    return seen == keep


def brute_is_k_connected(graph, k: int) -> bool:
    """More than k vertices and no cut set of fewer than k vertices."""
    n = graph.vertex_count()
    if n <= k:
        return False
    labels = list(graph.vertices)
    for r in range(k):
        for cut in itertools.combinations(labels, r):
            if not _connected_on(graph, set(labels) - set(cut)):
                return False
    return True


def brute_star_class(graph, ids) -> tuple:
    """Classify a nonempty edge-id set against the stars of graph.

    ("star", v) when it is the full star of v, the first such v in label
    order; else ("independent",) when its members are pairwise disjoint;
    else ("partial_star", (e,), w) when every member passes through w, e
    being the least edge of star(w) left out; else ("no_common_vertex",
    (x, y, z)) with x, y the least adjacent pair by id and z the least
    member missing their shared vertex.
    """
    ids = set(ids)
    ends = {i: set(graph.endpoints(i)) for i in ids}

    def star_of(v):
        return {i for i in range(graph.edge_count()) if v in graph.endpoints(i)}

    for v in sorted(graph.vertices):
        if star_of(v) == ids:
            return ("star", v)
    ordered = sorted(ids)
    adjacent = [(x, y) for x, y in itertools.combinations(ordered, 2)
                if ends[x] & ends[y]]
    if not adjacent:
        return ("independent",)
    common = set.intersection(*ends.values())
    if common:
        (w,) = common
        return ("partial_star", (min(star_of(w) - ids),), w)
    x, y = adjacent[0]
    (shared,) = ends[x] & ends[y]
    z = min(i for i in ordered if shared not in ends[i])
    return ("no_common_vertex", (x, y, z))


def brute_inducing_maps(edge_map) -> list[dict[str, str]]:
    """Every vertex bijection phi under which each source edge uv maps to
    the target edge phi(u)phi(v), found by trying all of them. Only sane
    for up to 6 vertices a side."""
    source, target = edge_map.source, edge_map.target
    if len(source.vertices) != len(target.vertices):
        return []
    ids = range(source.edge_count())
    edges = [source.endpoints(i) for i in ids]
    images = [set(target.endpoints(edge_map.image_of(i))) for i in ids]
    found = []
    for labels in itertools.permutations(target.vertices):
        phi = dict(zip(source.vertices, labels))
        if all({phi[u], phi[v]} == image for (u, v), image in zip(edges, images)):
            found.append(phi)
    return found


def brute_components(graph) -> list[set[str]]:
    remaining = set(graph.vertices)
    out = []
    while remaining:
        start = min(remaining)
        seen = {start}
        stack = [start]
        while stack:
            x = stack.pop()
            for eid in range(graph.edge_count()):
                u, v = graph.endpoints(eid)
                y = v if u == x else u if v == x else None
                if y is not None and y not in seen:
                    seen.add(y)
                    stack.append(y)
        out.append(seen)
        remaining -= seen
    return sorted(out, key=min)


def _component_count(graph, keep: set[str]) -> int:
    """Components of the subgraph induced on keep."""
    remaining = set(keep)
    count = 0
    while remaining:
        count += 1
        stack = [remaining.pop()]
        while stack:
            x = stack.pop()
            for eid in range(graph.edge_count()):
                u, v = graph.endpoints(eid)
                y = v if u == x else u if v == x else None
                if y in remaining:
                    remaining.discard(y)
                    stack.append(y)
    return count


def brute_cutpoints(graph) -> tuple[str, ...]:
    """Vertices whose deletion raises the component count, sorted."""
    everyone = set(graph.vertices)
    before = _component_count(graph, everyone)
    return tuple(sorted(v for v in graph.vertices
                        if _component_count(graph, everyone - {v}) > before))


def connector_images_nonadjacent(edge_map, witness) -> bool:
    """Do the images of the two bridge connectors avoid sharing an endpoint?

    For a verified circuit injection whose source carries the witness this
    is always true; the check validates the witness first and then simply
    compares image endpoints.
    """
    validate_linked_pair(edge_map.source, witness)
    u, v = edge_map.target.endpoints(edge_map.image_of(witness.bridge_a))
    x, y = edge_map.target.endpoints(edge_map.image_of(witness.bridge_b))
    return not ({u, v} & {x, y})
