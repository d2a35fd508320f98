"""Acceptance gate: seven end-to-end criteria, one reported line each.

Each criterion records a single PASS/FAIL verdict line; conftest echoes the
lines in a terminal section after the run, where pytest's capture cannot
swallow them. A tripped assertion still fails the test normally.
"""

from __future__ import annotations

import functools
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import circuitmap
from circuitmap import (
    Circuit,
    EdgeSet,
    IndependentEdges,
    InternalError,
    LinkedCircuitPair,
    NotInducedError,
    PreconditionError,
    StarViolation,
    build_counterexample,
    check_circuit_injection,
    check_circuit_isomorphism,
    circuit_and_attached_path,
    classify_star_image,
    classify_star_preimage,
    decompose_by_star_preimage,
    edge_set_from_pairs,
    enumerate_circuits,
    is_circuit,
    is_k_connected,
    named_graph,
    permuted_edge_map,
    random_two_connected,
    reconstruct_vertex_isomorphism,
    validate_attached_path,
    validate_linked_pair,
)
from circuitmap.rng import XorShift64Star
from conftest import ACCEPTANCE_LINES, CORPUS, seeded_relabel
from oracle import brute_circuits, brute_is_k_connected, connector_images_nonadjacent

TRIALS_RELABEL = 100
TRIALS_ATTACH = 200


def criterion(number, label, bound=None):
    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            started = time.perf_counter()
            try:
                fn(*args, **kwargs)
                elapsed = time.perf_counter() - started
                if bound is not None and elapsed >= bound:
                    raise AssertionError(
                        f"took {elapsed:.1f}s, budget {bound}s")
            except BaseException:
                elapsed = time.perf_counter() - started
                _record(f"criterion {number} [{label}]: FAIL ({elapsed:.1f}s)")
                raise
            _record(f"criterion {number} [{label}]: PASS ({elapsed:.1f}s)")
        return run
    return wrap


def _record(line):
    print(line)
    ACCEPTANCE_LINES.append(line)


def relabel_trials():
    """The 100 seeded relabeling round trips shared by criteria 2 and 6."""
    for i in range(TRIALS_RELABEL):
        g = named_graph(CORPUS[i % len(CORPUS)])
        relabel = seeded_relabel(g, 1000 + i)
        yield g, relabel, permuted_edge_map(g, relabel)


@criterion(1, "counterexample suite", bound=10.0)
def test_criterion_1_counterexample_suite():
    for p in (3, 5):
        source, target, f = build_counterexample(p)
        assert is_k_connected(source, 2)
        assert not is_k_connected(source, 3)
        assert is_k_connected(target, p)

        verdict = check_circuit_injection(f)
        assert verdict.passed and verdict.mode == "exhaustive"
        assert verdict.circuits_checked == len(enumerate_circuits(source))

        iso = check_circuit_isomorphism(f)
        assert not iso.passed
        witness = iso.witness
        assert witness.direction == "reverse"
        assert witness.circuit.host == target
        assert is_circuit(target, EdgeSet(target, witness.circuit.edges))
        assert not is_circuit(source, witness.mapped)

        try:
            reconstruct_vertex_isomorphism(f)
            raise AssertionError("reconstruction accepted a 2-connected source")
        except PreconditionError as err:
            assert "3-connected" in str(err)

        try:
            reconstruct_vertex_isomorphism(f, check_connectivity=False)
            raise AssertionError("reconstruction missed the non-induced map")
        except NotInducedError as err:
            assert err.vertex.startswith("x_")  # interior path vertex
            assert isinstance(err.star_class, IndependentEdges)


@criterion(2, "relabeling round trips", bound=30.0)
def test_criterion_2_relabel_round_trip():
    count = 0
    for g, relabel, f in relabel_trials():
        assert reconstruct_vertex_isomorphism(f).as_dict == relabel
        assert check_circuit_injection(f).passed
        count += 1
    assert count == TRIALS_RELABEL


@criterion(3, "enumeration vs oracle", bound=60.0)
def test_criterion_3_oracle_equivalence():
    names = ("K4", "K5", "K33", "W5", "W6", "prism", "Q3", "theta3",
             "double_bowtie")
    for name in names:
        g = named_graph(name)
        assert g.edge_count() <= 16
        assert {c.edges for c in enumerate_circuits(g)} == brute_circuits(g)
    assert len(enumerate_circuits(named_graph("K4"))) == 7
    assert len(enumerate_circuits(named_graph("K33"))) == 15


@criterion(4, "attached-path postcondition")
def test_criterion_4_attached_path_suite():
    failures = 0
    for i in range(TRIALS_ATTACH):
        g = random_two_connected(4 + i % 7, seed=5000 + i)
        rng = XorShift64Star(i)
        picks = list(g.vertices)
        rng.shuffle(picks)
        a, b, c = picks[:3]
        circuit, path, t = circuit_and_attached_path(g, a, b, c)
        try:
            validate_attached_path(g, a, b, c, circuit, path, t)
        except InternalError:
            failures += 1
    assert failures == 0


@criterion(5, "crossing structures")
def test_criterion_5_crossing_structures():
    prism = named_graph("prism")
    cut = edge_set_from_pairs(prism, [("a0", "b0"), ("a1", "b1"), ("a2", "b2")])
    witness = _checked_crossing(prism, cut)
    assert isinstance(witness, LinkedCircuitPair)

    q3 = named_graph("Q3")
    cut = edge_set_from_pairs(q3, [("000", "100"), ("001", "101"),
                                   ("010", "110"), ("011", "111")])
    _checked_crossing(q3, cut)

    db = named_graph("double_bowtie")
    assert brute_is_k_connected(db, 3)
    cut = edge_set_from_pairs(db, [("p1", "q1"), ("p2", "q3"),
                                   ("p3", "q2"), ("p4", "q4")])
    witness = _checked_crossing(db, cut)
    assert isinstance(witness, Circuit)


def _checked_crossing(graph, cut):
    from circuitmap import find_crossing_structure

    witness = find_crossing_structure(graph, cut)
    if isinstance(witness, LinkedCircuitPair):
        validate_linked_pair(graph, witness, connectors_from=cut)
    else:
        assert is_circuit(graph, EdgeSet(graph, witness.edges))
        assert len(witness.edges & cut.members) >= 4
    return witness


@criterion(6, "dichotomy sweeps")
def test_criterion_6_dichotomy_sweeps():
    # counterexample maps from criterion 1
    for p in (3, 5):
        source, target, f = build_counterexample(p)
        assert check_circuit_injection(f).passed
        for v in source.vertices:
            assert not isinstance(classify_star_image(f, v), StarViolation)
        for w in target.vertices:
            kind = classify_star_preimage(f, w)
            assert not isinstance(kind, StarViolation)
            if isinstance(kind, IndependentEdges):
                side_a, side_b, crossing = decompose_by_star_preimage(f, w)
                assert sorted(side_a + side_b) == sorted(source.vertices)
                for x, y in map(crossing.host.endpoints, crossing):
                    assert (x in side_a) != (y in side_a)

    # relabeling maps from criterion 2
    linked = {}
    for name, pairs in (
        ("prism", [("a0", "b0"), ("a1", "b1"), ("a2", "b2")]),
        ("Q3", [("000", "100"), ("001", "101"), ("010", "110"),
                ("011", "111")]),
    ):
        g = named_graph(name)
        cut = edge_set_from_pairs(g, pairs)
        witness = _checked_crossing(g, cut)
        assert isinstance(witness, LinkedCircuitPair)
        linked[name] = witness

    for g, relabel, f in relabel_trials():
        for v in g.vertices:
            assert not isinstance(classify_star_image(f, v), StarViolation)
        for w in f.target.vertices:
            assert not isinstance(classify_star_preimage(f, w), StarViolation)
        for name, witness in linked.items():
            if g == named_graph(name):
                assert connector_images_nonadjacent(f, witness)


@criterion(7, "command line round trip")
def test_criterion_7_cli(tmp_path):
    # the child runs in tmp_path, where a relative PYTHONPATH (e.g. `src`)
    # no longer resolves; point it at the copy of circuitmap imported here
    env = dict(os.environ)
    package_root = str(Path(circuitmap.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root,
                                                      env.get("PYTHONPATH")]))

    def run(*argv):
        return subprocess.run([sys.executable, "-m", "circuitmap", *argv],
                              cwd=tmp_path, env=env, capture_output=True,
                              text=True, timeout=60)

    assert run("generate", "counterexample", "--p", "3").returncode == 0
    files = ("counterexample_p3.source.json", "counterexample_p3.target.json",
             "counterexample_p3.map.json")
    assert run("verify", *files).returncode == 0
    assert run("reconstruct", *files).returncode == 4

    # regenerate under another prefix: byte-identical artifacts
    assert run("generate", "counterexample", "--p", "3", "--out",
               "again").returncode == 0
    for part in ("source", "target", "map"):
        assert (tmp_path / f"again.{part}.json").read_bytes() == \
               (tmp_path / f"counterexample_p3.{part}.json").read_bytes()

    broken = json.loads((tmp_path / files[2]).read_text(encoding="utf-8"))
    broken["map"][1][1] = broken["map"][0][1]
    (tmp_path / files[2]).write_text(json.dumps(broken), encoding="utf-8")
    bad = run("verify", *files)
    assert bad.returncode == 1
    assert "error" in bad.stderr
