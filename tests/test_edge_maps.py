import json
import pickle
import re

import pytest
from hypothesis import given, settings, strategies as st

from circuitmap import (
    DecompositionViolationError,
    EdgeMap,
    IndependentEdges,
    InputError,
    InternalError,
    NotInducedError,
    PreconditionError,
    StarAt,
    StarViolation,
    VertexIso,
    build_counterexample,
    build_graph,
    check_circuit_injection,
    check_circuit_isomorphism,
    classify_star_image,
    classify_star_preimage,
    decompose_by_star_preimage,
    edge_map_from_json,
    edge_map_to_json,
    is_circuit,
    EdgeSet,
    is_induced_by,
    is_k_connected,
    named_graph,
    permuted_edge_map,
    random_three_connected,
    random_two_connected,
    reconstruct_vertex_isomorphism,
)
from circuitmap import edge_maps
from circuitmap.graph import _components
from circuitmap.rng import XorShift64Star
from conftest import complete, corpus_graphs, seeded_relabel, whitney_twist
from oracle import brute_circuits, brute_is_circuit


def identity_map(g):
    return EdgeMap(g, g, tuple(range(g.edge_count())))


def swapped_k4_map():
    """K4 self-map exchanging the images of edges (0,1) and (2,3).

    Kills triangles through either edge, so it is not a circuit injection.
    """
    g = named_graph("K4")
    return EdgeMap(g, g, (5, 1, 2, 3, 4, 0))


class TestEdgeMapValidation:
    def test_identity_ok(self, k4):
        f = identity_map(k4)
        assert f.image_of(3) == 3 and f._inverse[3] == 3

    def test_wrong_length(self, k4):
        with pytest.raises(InputError, match="^assignment covers 3 of 6 edges$"):
            EdgeMap(k4, k4, (0, 1, 2))

    def test_repeated_target(self, k4):
        with pytest.raises(InputError, match="^target edge 0 has two preimages$"):
            EdgeMap(k4, k4, (0, 0, 2, 3, 4, 5))

    def test_out_of_range_target(self, k4):
        with pytest.raises(InputError, match="^edge 5 maps to invalid id 6$"):
            EdgeMap(k4, k4, (0, 1, 2, 3, 4, 6))

    def test_mismatched_edge_counts(self, k4, prism):
        with pytest.raises(InputError, match="^source has 6 edges but target has 9$"):
            EdgeMap(k4, prism, tuple(range(6)))

    def test_images_and_preimages_of_sets(self, k4):
        f = EdgeMap(k4, k4, (1, 0, 2, 3, 4, 5))
        assert f.image({0, 2}) == frozenset({1, 2})
        assert f.preimage({0, 1}) == frozenset({0, 1})
        assert EdgeMap(f.target, f.source, f._inverse).image_of(1) == 0


class TestEdgeMapJson:
    def test_round_trip(self):
        src, tgt, f = build_counterexample(3)
        blob = json.dumps(edge_map_to_json(f))
        again = edge_map_from_json(src, tgt, json.loads(blob))
        assert again == f
        assert json.dumps(edge_map_to_json(again)) == blob

    def test_pair_orientation_is_insensitive(self, k4):
        data = edge_map_to_json(identity_map(k4))
        data["map"][0] = [list(reversed(data["map"][0][0])),
                          list(reversed(data["map"][0][1]))]
        assert edge_map_from_json(k4, k4, data) == identity_map(k4)

    def test_unknown_source_edge(self, k4):
        data = edge_map_to_json(identity_map(k4))
        data["map"][0][0] = ["0", "99"]
        with pytest.raises(InputError, match="^no edge joins '0' and '99'$"):
            edge_map_from_json(k4, k4, data)

    def test_duplicate_source_entry(self, k4):
        data = edge_map_to_json(identity_map(k4))
        data["map"][1][0] = data["map"][0][0]
        with pytest.raises(InputError,
                           match=r"^source edge \('0', '1'\) appears twice in the map$"):
            edge_map_from_json(k4, k4, data)

    def test_missing_entry(self, k4):
        data = edge_map_to_json(identity_map(k4))
        del data["map"][0]
        with pytest.raises(InputError, match="^map covers 5 of 6 source edges$"):
            edge_map_from_json(k4, k4, data)

    def test_duplicate_target(self, k4):
        data = edge_map_to_json(identity_map(k4))
        data["map"][1][1] = data["map"][0][1]
        with pytest.raises(InputError, match="^target edge 0 has two preimages$"):
            edge_map_from_json(k4, k4, data)

    def test_isolated_target_vertex_rejected(self):
        src = build_graph(["a", "b"], [("a", "b")])
        tgt = build_graph(["x", "y", "z"], [("x", "y")])
        data = {"map": [[["a", "b"], ["x", "y"]]]}
        with pytest.raises(InputError,
                           match="^target vertex 'z' is isolated; the map cannot be onto$"):
            edge_map_from_json(src, tgt, data)

    @pytest.mark.parametrize("payload, message", [
        ([], "map document needs a 'map' entry"),
        ({}, "map document needs a 'map' entry"),
        ({"map": "x"}, "'map' must be a list of pair-of-pairs entries"),
        ({"map": [["a"]]}, "map entry 0 must be [[u, v], [x, y]]"),
    ], ids=[f"payload{k}" for k in range(4)])
    def test_shape_errors(self, k4, payload, message):
        with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
            edge_map_from_json(k4, k4, payload)


class TestInjectionCheck:
    def test_identity_passes(self, k4):
        v = check_circuit_injection(identity_map(k4))
        assert v.passed and bool(v)
        assert v.mode == "exhaustive" and v.circuits_checked == 7
        assert v.witness is None
        assert check_circuit_isomorphism(identity_map(k4)).passed

    def test_swapped_pair_fails_with_first_witness(self, k4):
        v = check_circuit_injection(swapped_k4_map())
        assert not v.passed and not bool(v)
        # first circuit in canonical order that breaks: triangle {0,1,3}
        assert v.witness.direction == "forward"
        assert tuple(sorted(v.witness.circuit.edges)) == (0, 1, 3)
        assert not is_circuit(k4, v.witness.mapped)

    def test_counterexample_injects_but_does_not_reflect(self):
        _, tgt, f = build_counterexample(3)
        inj = check_circuit_injection(f)
        assert inj.passed and inj.circuits_checked == 3
        iso = check_circuit_isomorphism(f)
        assert not iso.passed
        assert iso.witness.direction == "reverse"
        # a 4-circuit of the target; the source has no 4-circuits at all
        assert len(iso.witness.circuit.edges) == 4
        assert is_circuit(tgt, EdgeSet(tgt, iso.witness.circuit.edges))

    def test_isomorphism_passes_on_relabeling(self, prism):
        f = permuted_edge_map(prism, {"a0": "b1", "a1": "b2", "a2": "b0",
                                      "b0": "a1", "b1": "a2", "b2": "a0"})
        assert check_circuit_isomorphism(f).passed

    def test_sampled_mode_finds_swapped_pair(self):
        v = check_circuit_injection(swapped_k4_map(), mode="sampled",
                                    samples=20, seed=1)
        assert v.mode == "sampled"
        assert not v.passed
        # any sampled witness must be a genuine failure
        g = named_graph("K4")
        assert is_circuit(g, EdgeSet(g, v.witness.circuit.edges))
        assert not is_circuit(g, v.witness.mapped)

    def test_sampled_mode_passes_identity(self, prism):
        v = check_circuit_injection(identity_map(prism), mode="sampled",
                                    samples=50, seed=7)
        assert v.passed and v.circuits_checked > 0

    def test_sampled_mode_deterministic(self):
        a = check_circuit_injection(swapped_k4_map(), mode="sampled",
                                    samples=20, seed=3)
        b = check_circuit_injection(swapped_k4_map(), mode="sampled",
                                    samples=20, seed=3)
        assert a.circuits_checked == b.circuits_checked
        assert a.witness.circuit.edges == b.witness.circuit.edges

    def test_budget_is_settled_before_a_failing_map_is_tested(self):
        # The swap breaks K7's first circuit in canonical order, but the
        # budget refuses the whole enumeration before any circuit is tested.
        g = complete(7)
        images = list(range(21))
        images[0], images[20] = images[20], images[0]
        f = EdgeMap(g, g, tuple(images))
        with pytest.raises(PreconditionError, match=r"^more than 1171 circuits$"):
            check_circuit_injection(f, max_count=1171)
        v = check_circuit_injection(f, max_count=1172)
        assert v.circuits_checked == 1 and tuple(sorted(v.witness.circuit.edges)) == (0, 1, 6)

    def test_unknown_mode(self, k4):
        with pytest.raises(InputError, match="^unknown mode 'guess'$"):
            check_circuit_injection(identity_map(k4), mode="guess")


def with_swaps(f, swaps, seed):
    """f with `swaps` seeded exchanges of two edges' images."""
    images = list(f.assignment)
    rng = XorShift64Star(seed)
    for _ in range(swaps):
        i, j = rng.randrange(len(images)), rng.randrange(len(images))
        images[i], images[j] = images[j], images[i]
    return EdgeMap(f.source, f.target, tuple(images))


def assert_witness_checks(f, verdict):
    """The witness is a circuit of its own graph whose mapped edge set is
    its image, or preimage, and fails the circuit test in the other graph."""
    w = verdict.witness
    if w.direction == "forward":
        own, other, mapped = f.source, f.target, f.image(w.circuit.edges)
    else:
        own, other, mapped = f.target, f.source, f.preimage(w.circuit.edges)
    assert w.circuit.host == own and w.mapped == EdgeSet(other, mapped)
    assert is_circuit(own, EdgeSet(own, w.circuit.edges))
    assert not is_circuit(other, w.mapped)


def differential_instances():
    """Edge maps with ids: relabelled complete graphs and random 2- and
    3-connected graphs with 0-2 swapped images, the p = 3 and p = 5
    counterexamples and their inverses, and Whitney twists."""
    cases = []
    for n in (5, 6, 7):
        g = complete(n)
        f = permuted_edge_map(g, seeded_relabel(g, n))
        cases += [pytest.param(with_swaps(f, k, n), id=f"K{n}/swaps{k}")
                  for k in range(3)]
    for name, build in (("random3c", random_three_connected),
                        ("random2c", random_two_connected)):
        for n in range(5, 13):
            g = build(n, n)
            f = permuted_edge_map(g, seeded_relabel(g, n))
            cases += [pytest.param(with_swaps(f, k, n), id=f"{name}_n{n}/swaps{k}")
                      for k in range(3)]
    for p in (3, 5):
        f = build_counterexample(p)[2]
        cases += [pytest.param(f, id=f"counterexample_p{p}"),
                  pytest.param(EdgeMap(f.target, f.source, f._inverse), id=f"inverse_p{p}")]
    for seed in range(10):
        f = whitney_twist(4 + seed % 4, 6 + seed % 3, seed)
        cases += [pytest.param(f, id=f"twist/seed{seed}"),
                  pytest.param(with_swaps(f, 1, seed), id=f"twist/seed{seed}/swaps1")]
    return cases


@st.composite
def equal_size_maps(draw):
    """A bijection between two random graphs on at most 8 vertices with the
    same m <= 12 edges, or a relabelled copy of one with up to one image
    swap, so that targets of equal rank with circuits are drawn too."""
    m = draw(st.integers(0, 12))

    def graph():
        n = draw(st.integers(next(n for n in range(1, 9) if n * (n - 1) // 2 >= m), 8))
        pairs = [(str(i), str(j)) for i in range(n) for j in range(i + 1, n)]
        return build_graph(map(str, range(n)), draw(st.permutations(pairs))[:m])

    g = graph()
    if draw(st.booleans()):
        seed = draw(st.integers(0, 2**32))
        return with_swaps(permuted_edge_map(g, seeded_relabel(g, seed)),
                          draw(st.integers(0, min(m, 1))), seed)
    return EdgeMap(g, graph(), tuple(draw(st.permutations(range(m)))))


class TestIsomorphismByBasis:
    @pytest.mark.parametrize("p", [7, 11, 13, 31])
    def test_counterexample_has_reverse_witness(self, p, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the basis check enumerated circuits")

        monkeypatch.setattr(edge_maps, "enumerate_circuits", refuse)
        monkeypatch.setattr(edge_maps, "check_circuit_injection", refuse)
        f = build_counterexample(p)[2]
        verdict = check_circuit_isomorphism(f)
        assert not verdict.passed and verdict.mode == "basis"
        # a circuit of K_{p,p} whose preimage fails the circuit test
        assert verdict.witness.direction == "reverse"
        assert_witness_checks(f, verdict)

    @pytest.mark.parametrize("seed", range(5))
    def test_whitney_twist_is_isomorphism_but_not_induced(self, seed):
        f = whitney_twist(5, 6, seed)
        verdict = check_circuit_isomorphism(f)
        # a pass tests m - n + 1 fundamental circuits on a connected source
        assert verdict.passed and verdict.circuits_checked == (
            f.source.edge_count() - f.source.vertex_count() + 1)
        with pytest.raises(NotInducedError):
            reconstruct_vertex_isomorphism(f, check_connectivity=False)

    def test_k23_onto_k4_injects_but_is_neither_isomorphism_nor_induced(self,
                                                                        k23_onto_k4):
        f = k23_onto_k4
        assert (len(brute_circuits(f.source)), len(brute_circuits(f.target))) == (3, 7)
        verdict = check_circuit_injection(f)
        assert verdict.passed and verdict.circuits_checked == 3
        sampled = check_circuit_injection(f, mode="sampled", samples=5, seed=1)
        assert (sampled.passed, sampled.circuits_checked, sampled.attempts,
                sampled.stop_reason) == (True, 3, 100, "attempt_limit")
        verdict = check_circuit_isomorphism(f)
        assert (verdict.passed, verdict.circuits_checked, verdict.witness.direction) == (
            False, 2, "reverse")
        assert_witness_checks(f, verdict)
        with pytest.raises(NotInducedError) as refused:
            reconstruct_vertex_isomorphism(f, check_connectivity=False)
        assert refused.value.vertex == "w"
        assert refused.value.star_class.kind == "no_common_vertex"
        # The guard refuses the 2-connected source, though the target is 3-connected.
        assert is_k_connected(f.target, 3)
        with pytest.raises(PreconditionError):
            reconstruct_vertex_isomorphism(f)
        # Beyond the p family and induced maps the preimage dichotomy fails:
        # one preimage is a star, the other three neither a star nor
        # independent, so no target vertex splits the source.
        assert [classify_star_preimage(f, w) for w in f.target.vertices] == [
            StarAt("u"), *(StarViolation("no_common_vertex", edges)
                           for edges in ((3, 5, 0), (1, 5, 2), (1, 3, 4)))]
        for w in f.target.vertices:
            with pytest.raises(PreconditionError):
                decompose_by_star_preimage(f, w)

    @pytest.mark.parametrize("f", differential_instances())
    def test_matches_two_way_exhaustive(self, f):
        verdict = check_circuit_isomorphism(f)
        inverse = EdgeMap(f.target, f.source, f._inverse)
        exhaustive = (check_circuit_injection(f).passed
                      and check_circuit_injection(inverse).passed)
        assert verdict.passed is exhaustive
        if not verdict.passed:
            assert_witness_checks(f, verdict)

    @settings(max_examples=300, deadline=None)
    @given(equal_size_maps())
    def test_reverse_pass_decides_by_rank(self, f):
        # A forward pass over one spanning forest carries the cycle space of
        # G into that of H. So equal rank makes the map a circuit isomorphism,
        # lower rank leaves a circuit in f(F) for the reverse pass to find,
        # and a target of higher rank always breaks a fundamental circuit.
        _, chords, circuit_of = edge_maps._shuffled_forest(f.source, XorShift64Star(1))
        forward = all(brute_is_circuit(f.target, f.image(circuit_of(e))) for e in chords)
        direction = edge_maps._basis_test(f)[1]
        r_g, r_h = (g.vertex_count() - len(_components(g._adjacency, g.vertices))
                    for g in (f.source, f.target))
        assert (direction is None) is (forward and r_h == r_g)
        assert (direction == "reverse") is (forward and r_h < r_g)
        assert not (forward and r_h > r_g)  # so a target of higher rank gives "forward"
        if direction is None:
            assert check_circuit_injection(f).passed
            assert all(brute_is_circuit(f.target, f.image(c)) for c in brute_circuits(f.source))


class TestStarClassification:
    def test_identity_centers(self, k4):
        f = identity_map(k4)
        assert classify_star_image(f, "2") == StarAt("2")
        assert classify_star_preimage(f, "2") == StarAt("2")

    def test_counterexample_hub_and_interior(self):
        src, _, f = build_counterexample(3)
        assert classify_star_image(f, "u") == StarAt("b0")
        assert classify_star_image(f, "x_0_1") == IndependentEdges()
        assert classify_star_preimage(f, "b0") == StarAt("u")
        assert classify_star_preimage(f, "c0") == IndependentEdges()

    def test_partial_star_violation(self):
        square = build_graph("0123", [("0", "1"), ("1", "2"), ("2", "3"), ("3", "0")])
        paw = build_graph("abcd", [("a", "b"), ("b", "c"), ("c", "a"), ("c", "d")])
        f = EdgeMap(square, paw, (0, 1, 2, 3))
        assert classify_star_image(f, "1") == StarAt("b")
        v = classify_star_image(f, "2")
        assert v == StarViolation("partial_star", (3,), "c")

    def test_no_common_vertex_violation(self):
        v = classify_star_image(swapped_k4_map(), "0")
        assert isinstance(v, StarViolation)
        assert v.kind == "no_common_vertex"
        assert v.edges == (1, 2, 5)

    def test_isolated_vertex_rejected(self):
        src = build_graph(["a", "b", "c"], [("a", "b")])
        tgt = build_graph(["x", "y"], [("x", "y")])
        f = EdgeMap(src, tgt, (0,))
        with pytest.raises(InputError, match="^source vertex 'c' has no incident edges$"):
            classify_star_image(f, "c")


class TestDecomposition:
    def test_counterexample_split(self):
        _, _, f = build_counterexample(3)
        side_a, side_b, crossing = decompose_by_star_preimage(f, "c0")
        assert side_a == ("u", "x_1_1", "x_1_2", "x_2_1")
        assert side_b == ("w", "x_0_1", "x_0_2", "x_2_2")
        assert sorted(crossing.members) == [0, 5, 7]
        for u, v in map(crossing.host.endpoints, crossing):
            assert (u in side_a) != (v in side_a)

    def test_p5_split_crosses_five_edges(self):
        _, _, f = build_counterexample(5)
        side_a, side_b, crossing = decompose_by_star_preimage(f, "c2")
        assert len(crossing.members) == 5
        assert len(side_a) + len(side_b) == 22
        for u, v in map(crossing.host.endpoints, crossing):
            assert (u in side_a) != (v in side_a)

    def test_star_preimage_guard(self):
        _, _, f = build_counterexample(3)
        with pytest.raises(PreconditionError,
                           match="^star preimage of 'b0' is StarAt, not independent$"):
            decompose_by_star_preimage(f, "b0")  # preimage is a star, not independent

    def test_two_connected_guard(self):
        src = build_graph("ab", [("a", "b")])
        tgt = build_graph("xy", [("x", "y")])
        with pytest.raises(PreconditionError,
                           match="^decomposition needs a 2-connected source$"):
            decompose_by_star_preimage(EdgeMap(src, tgt, (0,)), "x")

    def test_reports_bad_split(self, k4, bowtie):
        # not a circuit injection: the independent preimage of star(a)
        # fails to disconnect K4, which the decomposition must report
        f = EdgeMap(k4, bowtie, (0, 2, 3, 4, 5, 1))
        assert classify_star_preimage(f, "a") == IndependentEdges()
        with pytest.raises(DecompositionViolationError):
            decompose_by_star_preimage(f, "a")


class TestReconstruction:
    def test_identity(self, k4):
        iso = reconstruct_vertex_isomorphism(identity_map(k4))
        assert iso.as_dict == {v: v for v in k4.vertices}

    def test_round_trip_on_wheel(self):
        g = named_graph("W6")
        relabel = dict(zip(sorted(g.vertices),
                           ["r3", "hub", "r1", "r5", "r2", "r4", "r6"]))
        f = permuted_edge_map(g, relabel)
        iso = reconstruct_vertex_isomorphism(f)
        assert iso.as_dict == relabel
        assert is_induced_by(f, iso)

    def test_wrong_iso_not_induced(self, k4):
        f = identity_map(k4)
        twisted = VertexIso((("0", "1"), ("1", "0"), ("2", "2"), ("3", "3")))
        assert not is_induced_by(f, twisted)

    def test_iso_on_other_vertices_is_not_induced(self, k4):
        iso = VertexIso((("0", "0"), ("1", "1"), ("2", "2"), ("x", "3")))
        assert not is_induced_by(identity_map(k4), iso)

    def test_iso_onto_a_label_the_target_lacks_is_not_induced(self, k4):
        iso = VertexIso((("0", "0"), ("1", "1"), ("2", "2"), ("3", "x")))
        assert not is_induced_by(identity_map(k4), iso)

    def test_star_class_is_built_only_for_the_refused_vertex(self, monkeypatch):
        calls = []
        classify = edge_maps.classify_star_image
        monkeypatch.setattr(edge_maps, "classify_star_image",
                            lambda f, v: calls.append(v) or classify(f, v))
        g = random_three_connected(40, 40)
        assert reconstruct_vertex_isomorphism(permuted_edge_map(g, seeded_relabel(g, 3)))
        assert calls == []
        with pytest.raises(NotInducedError) as info:
            reconstruct_vertex_isomorphism(swapped_k4_map())
        assert calls == ["0"] and isinstance(info.value.star_class, StarViolation)

    @pytest.mark.parametrize("f", [
        EdgeMap(build_graph("uv", [("u", "v")]), build_graph("xy", [("x", "y")]), (0,)),
        permuted_edge_map(
            build_graph("0123ab", named_graph("K4").edges + (("a", "b"),)),
            dict(zip("0123ab", "b1a302"))),
    ], ids=["K2", "K4_and_K2"])
    def test_one_edge_component_maps_onto_both_ends_of_its_image(self, f):
        # Both ends of a one-edge image are star centers of the same edge.
        iso = reconstruct_vertex_isomorphism(f, check_connectivity=False)
        assert is_induced_by(f, iso)

    def test_one_edge_component_takes_the_least_label_first(self):
        # The target lists y before x, so index order is not label order.
        f = EdgeMap(build_graph("uv", [("u", "v")]), build_graph("yx", [("y", "x")]), (0,))
        iso = reconstruct_vertex_isomorphism(f, check_connectivity=False)
        assert iso.as_dict == {"u": "x", "v": "y"}

    def test_one_edge_component_onto_a_longer_path_is_not_induced(self):
        f = EdgeMap(build_graph("uvpq", [("u", "v"), ("p", "q")]),
                    build_graph("xyz", [("x", "y"), ("y", "z")]), (0, 1))
        with pytest.raises(NotInducedError,
                           match="^star centers do not form a vertex bijection$"):
            reconstruct_vertex_isomorphism(f, check_connectivity=False)

    def test_guard_off_reports_isolated_source_vertex(self):
        triangle = [("a", "b"), ("b", "c"), ("a", "c")]
        f = EdgeMap(build_graph("abcz", triangle), build_graph("abc", triangle),
                    (0, 1, 2))
        with pytest.raises(NotInducedError,
                           match="^source vertex 'z' is isolated$") as info:
            reconstruct_vertex_isomorphism(f, check_connectivity=False)
        assert info.value.vertex == "z"

    def test_refuses_weakly_connected_source(self):
        _, _, f = build_counterexample(3)
        with pytest.raises(PreconditionError,
                           match="^reconstruction requires a 3-connected source$"):
            reconstruct_vertex_isomorphism(f)

    def test_guard_off_reports_interior_vertex(self):
        _, _, f = build_counterexample(3)
        with pytest.raises(NotInducedError) as info:
            reconstruct_vertex_isomorphism(f, check_connectivity=False)
        err = info.value
        assert err.vertex not in ("u", "w")
        assert isinstance(err.star_class, IndependentEdges)

    def test_three_connected_but_not_induced(self):
        with pytest.raises(NotInducedError) as info:
            reconstruct_vertex_isomorphism(swapped_k4_map())
        assert info.value.vertex == "0"
        assert isinstance(info.value.star_class, StarViolation)

    def test_failed_induction_check_is_internal(self, monkeypatch):
        # Full stars at distinct centres always induce the map, so a final
        # is_induced_by failure is a library fault, not a verdict.
        g = named_graph("W5")
        f = permuted_edge_map(g, seeded_relabel(g, 3))
        assert reconstruct_vertex_isomorphism(f)
        monkeypatch.setattr(edge_maps, "is_induced_by", lambda *args: False)
        with pytest.raises(InternalError,
                           match="^collected star centers do not induce the map$"):
            reconstruct_vertex_isomorphism(f)


def relabelled_maps():
    """permuted_edge_map of the catalog and of random 2- and 3-connected
    graphs, under a seeded relabeling."""
    graphs = corpus_graphs() + [(name, named_graph(name))
                                for name in ("double_bowtie", "theta3", "theta5")]
    graphs += [(f"random2c_n{n}", random_two_connected(n, n)) for n in (5, 12, 60, 300)]
    graphs += [(f"random3c_n{n}", random_three_connected(n, n)) for n in (5, 12, 40)]
    return [pytest.param(permuted_edge_map(g, seeded_relabel(g, 3)), id=name)
            for name, g in graphs]


class TestInducedReader:
    """reconstruct_vertex_isomorphism with the guard off, the one reader of
    an inducing vertex map: "true" returns the map, "false" raises
    NotInducedError."""

    @staticmethod
    def read(f):
        return reconstruct_vertex_isomorphism(f, check_connectivity=False)

    @pytest.mark.parametrize("f", relabelled_maps())
    def test_true_on_relabelled_maps(self, f):
        assert self.read(f).as_dict == seeded_relabel(f.source, 3)

    @pytest.mark.parametrize("p", [3, 5, 7])
    def test_false_on_counterexample_and_inverse(self, p):
        f = build_counterexample(p)[2]
        for g in (f, EdgeMap(f.target, f.source, f._inverse)):
            with pytest.raises(NotInducedError) as info:
                self.read(g)
            assert info.value.star_class is not None

    @pytest.mark.parametrize("seed", range(5))
    def test_false_on_whitney_twist(self, seed):
        f = whitney_twist(5, 6, seed)
        assert check_circuit_isomorphism(f).passed
        with pytest.raises(NotInducedError):
            self.read(f)

    @pytest.mark.parametrize("g", [pytest.param(g, id=name) for name, g in corpus_graphs()]
                             + [pytest.param(random_three_connected(n, n), id=f"random3c_n{n}")
                                for n in (6, 20)])
    def test_false_with_two_images_swapped(self, g):
        # At least degree three everywhere, a vertex map inducing the
        # swapped map would agree with the relabeling at every vertex, and
        # so could not swap two images.
        relabelled = permuted_edge_map(g, seeded_relabel(g, 5))
        images = list(relabelled.assignment)
        images[0], images[-1] = images[-1], images[0]
        f = EdgeMap(g, relabelled.target, tuple(images))
        with pytest.raises(NotInducedError):
            self.read(f)
        with pytest.raises(NotInducedError):
            reconstruct_vertex_isomorphism(f)

    @pytest.mark.parametrize("vertices,edges,induced", [
        ("01234", named_graph("K4").edges + (("3", "4"),), True),
        ("0123z", named_graph("K4").edges, False),
        ("ab", [("a", "b")], True),
    ], ids=["pendant", "isolated", "K2"])
    def test_vertex_of_fewer_than_two_edges(self, vertices, edges, induced):
        # Each identity map is induced; only the isolated vertex has no
        # star to read, so it is refused.
        f = identity_map(build_graph(vertices, edges))
        assert is_induced_by(f, VertexIso(sorted({v: v for v in vertices}.items())))
        if induced:
            assert self.read(f).as_dict == {v: v for v in vertices}
        else:
            with pytest.raises(NotInducedError,
                               match="^source vertex 'z' is isolated$"):
                self.read(f)


class TestVertexIso:
    def test_dict_round_trip(self):
        iso = VertexIso((("a", "x"), ("b", "y")))
        assert VertexIso(sorted({"b": "y", "a": "x"}.items())) == iso
        assert iso.as_dict == {"a": "x", "b": "y"}

    def test_as_dict_is_read_only(self, k4):
        f = identity_map(k4)
        iso = reconstruct_vertex_isomorphism(f)
        with pytest.raises(TypeError):
            iso.as_dict["0"] = "1"
        with pytest.raises(TypeError):
            del iso.as_dict["0"]
        assert is_induced_by(f, iso)
        assert iso.as_dict == {v: v for v in k4.vertices}

    def test_pickle_round_trip(self):
        iso = VertexIso((("a", "x"), ("b", "y")))
        copy = pickle.loads(pickle.dumps(iso))
        assert copy == iso and hash(copy) == hash(iso)
        assert copy.as_dict == {"a": "x", "b": "y"}

    def test_duplicate_target_rejected(self):
        with pytest.raises(InputError, match="^vertex map repeats a source or target$"):
            VertexIso((("a", "x"), ("b", "x")))

    def test_duplicate_source_rejected(self):
        with pytest.raises(InputError, match="^vertex map repeats a source or target$"):
            VertexIso((("a", "x"), ("a", "y")))
