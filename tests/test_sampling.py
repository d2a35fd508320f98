"""Sampled verification: the seeded circuit stream and why a run stops."""

import json
from pathlib import Path

import pytest

from circuitmap import (
    EdgeMap,
    EdgeSet,
    InputError,
    NotInducedError,
    build_counterexample,
    build_graph,
    check_circuit_injection,
    is_circuit,
    named_graph,
    permuted_edge_map,
    random_three_connected,
    random_two_connected,
    reconstruct_vertex_isomorphism,
    theta_graph,
)
from circuitmap import edge_maps
from circuitmap.cli import EXIT_PASS, main
from circuitmap.edge_maps import _sampled_circuits
from conftest import complete, cycle_graph, seeded_relabel, whitney_twist
from test_edge_maps import with_swaps

GOLDEN_STREAMS = Path(__file__).parent / "data" / "sampled_circuits_golden.json"
CATALOG = ("K4", "K5", "K33", "prism", "Q3", "double_bowtie",
           "W5", "W6", "theta3", "theta5")
SEEDS = (1, 2, 7)
SAMPLES = 50


def _prefixed(graph, prefix):
    return ([prefix + v for v in graph.vertices],
            [(prefix + u, prefix + v) for u, v in graph.edges])


def disconnected_source():
    """K4 and the prism side by side, with a small tree hanging off K4."""
    va, ea = _prefixed(named_graph("K4"), "a")
    vb, eb = _prefixed(named_graph("prism"), "b")
    tree = [("a0", "t0"), ("t0", "t1"), ("t0", "t2"), ("t2", "t3")]
    return build_graph(va + vb + ["t0", "t1", "t2", "t3"], ea + eb + tree)


def stream_cases():
    """(case name, source graph) for every case of the golden file."""
    cases = [(name, named_graph(name)) for name in CATALOG]
    cases += [(f"random2c_n{n}", random_two_connected(n, 11)) for n in (30, 200)]
    cases.append(("disconnected", disconnected_source()))
    return cases


def draw_streams() -> dict[str, list[list[int]]]:
    """Sorted edge-id lists in draw order, keyed "<case>/seed<k>"."""
    out = {}
    for name, graph in stream_cases():
        for seed in SEEDS:
            out[f"{name}/seed{seed}"] = [
                sorted(ids) for ids in _sampled_circuits(graph, SAMPLES, seed, stats={})]
    return out


def test_sampled_streams_reproduce_recorded_output():
    assert draw_streams() == json.loads(GOLDEN_STREAMS.read_text())


def test_every_drawn_set_is_a_distinct_circuit():
    for name, graph in stream_cases():
        drawn = [frozenset(ids) for ids in _sampled_circuits(graph, SAMPLES, 2, stats={})]
        assert len(set(drawn)) == len(drawn), name
        assert all(is_circuit(graph, EdgeSet(graph, ids)) for ids in drawn), name


# -- stop reasons -------------------------------------------------------------


def identity(graph):
    return permuted_edge_map(graph, {v: v for v in graph.vertices})


def test_stop_reason_samples():
    v = check_circuit_injection(identity(named_graph("K5")), mode="sampled",
                                samples=20, seed=3)
    assert v.passed and v.stop_reason == "samples"
    assert v.samples_requested == 20 and v.circuits_checked == 20
    assert v.attempts >= 20 - 6   # K5 has 6 fundamental circuits


def test_stop_reason_witness():
    g = named_graph("K4")
    swapped = list(identity(g).assignment)
    swapped[0], swapped[5] = swapped[5], swapped[0]   # 01 and 23 trade images
    v = check_circuit_injection(EdgeMap(g, g, tuple(swapped)), mode="sampled",
                                samples=20, seed=1)
    assert not v.passed and v.stop_reason == "witness"
    assert v.samples_requested == 20


def test_stop_reason_attempt_limit():
    v = check_circuit_injection(identity(theta_graph(3)), mode="sampled",
                                samples=50, seed=1)
    assert v.passed and v.stop_reason == "attempt_limit"
    assert v.circuits_checked == 3 and v.attempts == 20 * 50


def test_stop_reason_too_few_circuits():
    v = check_circuit_injection(identity(cycle_graph(9)), mode="sampled",
                                samples=50, seed=1)
    assert v.passed and v.stop_reason == "too_few_circuits"
    assert v.circuits_checked == 1 and v.attempts == 0


def test_exhaustive_verdict_has_no_sampling_fields(k4):
    v = check_circuit_injection(identity(k4))
    assert (v.samples_requested, v.attempts, v.stop_reason) == (None, None, None)


def test_stats_keyword_leaves_the_stream_unchanged():
    g = named_graph("double_bowtie")
    stats = {}
    with_stats = list(_sampled_circuits(g, SAMPLES, 7, stats=stats))
    assert with_stats == list(_sampled_circuits(g, SAMPLES, 7, stats={}))
    assert set(stats) == {"attempts"}


def _write(path, data):
    Path(path).write_text(json.dumps(data), encoding="utf-8")


def test_cli_reports_sampling_keys_only_in_sampled_mode(tmp_path, monkeypatch, capsys):
    from circuitmap import edge_map_to_json, graph_to_json

    monkeypatch.chdir(tmp_path)
    f = permuted_edge_map(theta_graph(3), seeded_relabel(theta_graph(3), 4))
    _write("s.json", graph_to_json(f.source))
    _write("t.json", graph_to_json(f.target))
    _write("m.json", edge_map_to_json(f))
    assert main(["verify", "s.json", "t.json", "m.json", "--mode", "sampled",
                 "--samples", "50"]) == EXIT_PASS
    report = json.loads(capsys.readouterr().out)
    assert report["samples_requested"] == 50
    assert report["attempts"] == 1000
    assert report["stop_reason"] == "attempt_limit"
    assert main(["verify", "s.json", "t.json", "m.json"]) == EXIT_PASS
    report = json.loads(capsys.readouterr().out)
    assert set(report) == {"result", "mode", "circuits_checked", "witness",
                           "elapsed_ms"}


@pytest.mark.parametrize("samples", [1, 2])
def test_tiny_sample_counts_stop_on_samples(samples):
    v = check_circuit_injection(identity(named_graph("prism")), mode="sampled",
                                samples=samples, seed=5)
    assert v.circuits_checked == samples and v.stop_reason == "samples"


@pytest.mark.parametrize("samples", [0, -3])
def test_non_positive_sample_counts_are_refused(samples):
    # A count below one would draw no circuit and pass any map vacuously:
    # this one, K5 with the images of 01 and 34 exchanged, fails its first
    # exhaustively tested circuit.
    g = named_graph("K5")
    f = permuted_edge_map(g, seeded_relabel(g, 3))
    images = list(f.assignment)
    images[0], images[9] = images[9], images[0]
    swapped = EdgeMap(f.source, f.target, tuple(images))
    exhaustive = check_circuit_injection(swapped)
    assert not exhaustive.passed and exhaustive.circuits_checked == 1
    with pytest.raises(InputError, match="^samples must be positive$"):
        check_circuit_injection(swapped, mode="sampled", samples=samples)


@pytest.mark.parametrize("mode, budgets, message", [
    pytest.param("sampled", {"max_count": 0}, "max_count", id="sampled-max_count0"),
    pytest.param("exhaustive", {"samples": -4}, "samples", id="exhaustive-samples-4"),
])
def test_each_budget_is_refused_in_the_mode_that_does_not_read_it(mode, budgets, message):
    with pytest.raises(InputError, match=f"^{message} must be positive$"):
        check_circuit_injection(identity(named_graph("prism")), mode=mode, **budgets)


# -- induced maps: the shortcut that tests no drawn circuit --------------------


DIFFERENTIAL_SAMPLES = (1, 5, 50, 500)


def relabelled(graph, seed=3):
    return permuted_edge_map(graph, seeded_relabel(graph, seed))


def differential_maps():
    """(id, edge map): relabelled catalog and random graphs, whose cycle
    ranks fall on both sides of the sample counts, with none, one and two
    swapped image pairs; the counterexamples and their inverses; Whitney
    twists; and the disconnected source with its pendant tree."""
    graphs = [(name, named_graph(name)) for name in CATALOG]
    graphs += [(f"random2c_n{n}", random_two_connected(n, 11)) for n in (30, 200)]
    graphs += [("random3c_n30", random_three_connected(30, 4)), ("K8", complete(8))]
    cases = []
    for name, g in graphs:
        f = relabelled(g)
        cases += [(name, f), (f"{name}/swap1", with_swaps(f, 1, 1)),
                  (f"{name}/swap2", with_swaps(f, 2, 3))]
    for p in (3, 5, 7):
        f = build_counterexample(p)[2]
        cases += [(f"counterexample_p{p}", f), (f"inverse_p{p}", f.inverted())]
    cases += [(f"twist/seed{seed}", whitney_twist(5, 6, seed)) for seed in range(3)]
    cases.append(("disconnected", relabelled(disconnected_source())))
    return cases


def shortcut_taken(f, samples):
    """How a sampled run treats f: "tested" when the vertex-map read refuses
    it, else "counted" when m − n ≥ samples (the count needs no stream) and
    "drained" below that count threshold."""
    try:
        reconstruct_vertex_isomorphism(f, check_connectivity=False)
    except NotInducedError:
        return "tested"
    source = f.source
    return "counted" if source.edge_count() - source.vertex_count() >= samples else "drained"


def _refuse(f, check_connectivity=True):
    raise NotInducedError("refused")


@pytest.mark.parametrize("f", [pytest.param(f, id=name) for name, f in differential_maps()])
def test_shortcut_leaves_every_verdict_unchanged(f, monkeypatch):
    fast = {(samples, seed): check_circuit_injection(f, mode="sampled",
                                                     samples=samples, seed=seed)
            for samples in DIFFERENTIAL_SAMPLES for seed in (1, 2, 3)}
    monkeypatch.setattr(edge_maps, "reconstruct_vertex_isomorphism", _refuse)
    for (samples, seed), verdict in fast.items():
        assert verdict == check_circuit_injection(f, mode="sampled",
                                                  samples=samples, seed=seed), (samples, seed)


def test_differential_maps_fall_on_both_sides_of_the_count_threshold():
    taken = {(name, samples): shortcut_taken(f, samples)
             for name, f in differential_maps() for samples in DIFFERENTIAL_SAMPLES}
    # The pendant tree of the disconnected source is read like any vertex.
    unswapped = [*CATALOG, "random2c_n30", "random2c_n200", "random3c_n30", "K8",
                 "disconnected"]
    assert all(taken[(name, 500)] == "drained" for name in unswapped)
    assert taken[("K5", 50)] == "drained"
    assert taken[("K5", 5)] == taken[("K8", 5)] == taken[("random3c_n30", 5)] == "counted"
    assert all(taken[(name, 500)] == "tested" for name in (
        "counterexample_p3", "inverse_p7", "twist/seed0", "K5/swap1"))


def _count_reads(monkeypatch):
    calls = []
    read = edge_maps.reconstruct_vertex_isomorphism
    monkeypatch.setattr(edge_maps, "reconstruct_vertex_isomorphism",
                        lambda f, **kwargs: calls.append(kwargs) or read(f, **kwargs))
    return calls


def test_induced_is_read_once_when_the_rank_is_within_samples(monkeypatch):
    calls = _count_reads(monkeypatch)
    v = check_circuit_injection(identity(theta_graph(20)), mode="sampled", samples=500)
    assert calls == [{"check_connectivity": False}]
    assert (v.passed, v.circuits_checked, v.attempts, v.stop_reason) == (
        True, 190, 10000, "attempt_limit")


def test_induced_is_read_once_per_sampled_run_and_never_in_exhaustive_mode(monkeypatch):
    calls = _count_reads(monkeypatch)
    f = relabelled(complete(8))
    # K8 has m - n = 20 and K5 has 5: both sides of the count threshold.
    runs = [(f, 5), (f, 500), (identity(named_graph("K5")), 5),
            (identity(named_graph("K5")), 50), (with_swaps(f, 1, 1), 5)]
    for g, samples in runs:
        check_circuit_injection(g, mode="sampled", samples=samples)
    assert calls == [{"check_connectivity": False}] * len(runs)
    assert check_circuit_injection(f).passed
    assert check_circuit_injection(identity(theta_graph(20))).passed
    assert len(calls) == len(runs)


def _no_stream(graph, samples, seed, *, stats):
    raise AssertionError("the stream was advanced")
    yield


@pytest.mark.parametrize("f", [
    pytest.param(relabelled(complete(8)), id="K8"),
    pytest.param(identity(named_graph("K5")), id="K5"),
    pytest.param(relabelled(random_three_connected(30, 4)), id="random3c_n30"),
])
def test_induced_map_at_the_count_threshold_draws_no_circuit(f, monkeypatch):
    monkeypatch.setattr(edge_maps, "_sampled_circuits", _no_stream)
    v = check_circuit_injection(f, mode="sampled", samples=5, seed=2)
    assert (v.passed, v.circuits_checked, v.attempts, v.stop_reason) == (
        True, 5, 0, "samples")
    assert v.samples_requested == 5 and v.witness is None
