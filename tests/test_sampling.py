"""Sampled verification: the seeded circuit stream and why a run stops."""

import json
from pathlib import Path

import pytest

from circuitmap import (
    EdgeMap,
    EdgeSet,
    build_graph,
    check_circuit_injection,
    is_circuit,
    named_graph,
    permuted_edge_map,
    random_two_connected,
    theta_graph,
)
from circuitmap.cli import EXIT_PASS, main
from circuitmap.edge_maps import _sampled_circuits
from conftest import cycle_graph, seeded_relabel

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


@pytest.mark.parametrize("samples", [0, 1])
def test_tiny_sample_counts_stop_on_samples(samples):
    v = check_circuit_injection(identity(named_graph("prism")), mode="sampled",
                                samples=samples, seed=5)
    assert v.circuits_checked == samples and v.stop_reason == "samples"
