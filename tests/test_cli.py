"""End-to-end coverage of the command line entry points.

Every behaviour of the CLI is checked here, driving circuitmap.cli.main
directly, except in the closed-pipe tests, which need a real pipe, and the
entry-point tests, which compare `python -m circuitmap` (cli.run) with
cli.main and check that run turns the cyclic garbage collector off; one
more subprocess smoke test lives in the acceptance suite.
"""

import gc
import hashlib
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

import circuitmap
from circuitmap import InternalError, graph_from_json, graph_to_json, named_graph
from circuitmap.cli import (
    EXIT_FAIL,
    EXIT_INPUT,
    EXIT_INTERNAL,
    EXIT_NOT_INDUCED,
    EXIT_PASS,
    EXIT_PRECONDITION,
    _build_parser,
    main,
)
from circuitmap.circuits import DEFAULT_MAX_CIRCUITS
from conftest import complete, cycle_graph, seeded_relabel


@pytest.fixture(autouse=True)
def in_tmp(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return tmp_path


def read_json(path):
    return json.loads(path.read_text(encoding="utf-8"))


def last_report(capsys):
    return json.loads(capsys.readouterr().out)


def generate_counterexample(p=3):
    assert main(["generate", "counterexample", "--p", str(p), "--quiet"]) == EXIT_PASS
    base = f"counterexample_p{p}"
    return (f"{base}.source.json", f"{base}.target.json", f"{base}.map.json")


def write_graph(path, name):
    path.write_text(json.dumps(graph_to_json(named_graph(name))), encoding="utf-8")


def write_json(path, data):
    path.write_text(json.dumps(data), encoding="utf-8")


def write_map(path, graph, image=lambda edge: edge):
    """The map sending each edge of graph to image(edge), in edge order."""
    write_json(path, {"map": [[list(e), list(image(e))] for e in graph.edges]})


def spawn_python(args, env=None, **popen):
    """Start the interpreter on args, importing the circuitmap imported here."""
    env = dict(os.environ if env is None else env)
    package_root = str(Path(circuitmap.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    return subprocess.Popen([sys.executable, *args], env=env, **popen)


def spawn_module(argv, env=None, **popen):
    """Start `python -m circuitmap *argv` on the circuitmap imported here."""
    return spawn_python(["-m", "circuitmap", *argv], env, **popen)


@pytest.fixture
def theta20(in_tmp, bowtie):
    """theta20.json with its identity map theta20.map.json, and bowtie.json:
    190 and 2 circuits."""
    g = named_graph("theta20")
    write_json(in_tmp / "theta20.json", graph_to_json(g))
    write_map(in_tmp / "theta20.map.json", g)
    write_json(in_tmp / "bowtie.json", graph_to_json(bowtie))
    return in_tmp


@pytest.fixture
def bowtie_files(in_tmp, bowtie):
    """bowtie.json with its identity map bowtie.map.json, and cut.json: two
    edges at the cutpoint c."""
    write_json(in_tmp / "bowtie.json", graph_to_json(bowtie))
    write_map(in_tmp / "bowtie.map.json", bowtie)
    write_json(in_tmp / "cut.json", [["c", "d"], ["c", "e"]])
    return in_tmp


# The reports of the two bowtie refusals: decompose's 2-connectivity guard
# names the cutpoint, crossing's 3-connectivity guard the neighbours of a,
# the first vertex of degree 2.
BOWTIE_REFUSALS = [
    (["decompose", "bowtie.json", "bowtie.json", "bowtie.map.json", "--vertex", "a"],
     "not_two_connected", "decomposition needs a 2-connected source", ["c"]),
    (["crossing", "bowtie.json", "cut.json"],
     "not_three_connected", "graph is not 3-connected", ["b", "c"]),
]


# K5 onto itself by the relabelling 0 1 2 3 4 -> 3 1 4 0 2.
K5_RELABEL = dict(zip("01234", "31402"))


@pytest.fixture
def k5_maps(in_tmp):
    """K5.json, the relabelling map k5.map.json, and swapped.map.json, that
    map with the images of its first and last edges exchanged."""
    g = named_graph("K5")
    write_json(in_tmp / "K5.json", graph_to_json(g))
    write_map(in_tmp / "k5.map.json", g, lambda e: [K5_RELABEL[v] for v in e])
    pairs = read_json(in_tmp / "k5.map.json")["map"]
    pairs[0][1], pairs[9][1] = pairs[9][1], pairs[0][1]
    write_json(in_tmp / "swapped.map.json", {"map": pairs})
    return in_tmp


class TestGenerate:
    def test_counterexample_files(self, in_tmp, capsys):
        code = main(["generate", "counterexample", "--p", "3"])
        assert code == EXIT_PASS
        report = last_report(capsys)
        assert report["result"] == "ok"
        assert sorted(report["files"]) == [
            "counterexample_p3.map.json",
            "counterexample_p3.source.json",
            "counterexample_p3.target.json",
        ]
        src = read_json(in_tmp / "counterexample_p3.source.json")
        assert len(src["vertices"]) == 8 and len(src["edges"]) == 9

    def test_byte_stable_across_runs(self, in_tmp):
        main(["generate", "counterexample", "--p", "3", "--out", "a", "--quiet"])
        main(["generate", "counterexample", "--p", "3", "--out", "b", "--quiet"])
        for part in ("source", "target", "map"):
            assert (in_tmp / f"a.{part}.json").read_bytes() == \
                   (in_tmp / f"b.{part}.json").read_bytes()

    def test_named_and_random(self, in_tmp):
        from circuitmap import is_k_connected

        assert main(["generate", "named", "--name", "prism", "--quiet"]) == EXIT_PASS
        assert read_json(in_tmp / "prism.json") == graph_to_json(named_graph("prism"))
        assert main(["generate", "random3c", "--n", "8", "--seed", "7",
                     "--quiet"]) == EXIT_PASS
        path = in_tmp / "random3c_n8_s7.json"
        first = path.read_bytes()
        assert is_k_connected(graph_from_json(read_json(path)), 3)
        assert main(["generate", "random3c", "--n", "8", "--seed", "7",
                     "--quiet"]) == EXIT_PASS
        assert path.read_bytes() == first

    def test_bad_prime_is_input_error(self):
        assert main(["generate", "counterexample", "--p", "4", "--quiet"]) == EXIT_INPUT

    def test_bad_name_is_input_error(self):
        assert main(["generate", "named", "--name", "nope", "--quiet"]) == EXIT_INPUT

    def test_size_given_twice_is_input_error(self, capsys):
        assert main(["generate", "named", "--name", "theta3", "--size", "4"]) == EXIT_INPUT
        assert capsys.readouterr().err == \
            "error: 'theta3' already carries its size parameter\n"

    def test_non_decimal_size_suffix_is_unknown_name(self, capsys):
        # "²" is a digit to str.isdigit but not to int().
        assert main(["generate", "named", "--name", "theta²", "--quiet"]) == EXIT_INPUT
        assert capsys.readouterr().err == "error: no catalog entry named 'theta²'\n"

    def test_size_suffix_too_long_is_input_error(self, capsys):
        name = "theta" + "1" * 4400
        assert main(["generate", "named", "--name", name, "--quiet"]) == EXIT_INPUT
        assert capsys.readouterr().err == "error: size suffix of 4400 digits is too long\n"

    def test_random3c_below_four_vertices_is_input_error(self, in_tmp, capsys):
        assert main(["generate", "random3c", "--n", "3"]) == EXIT_INPUT
        assert capsys.readouterr().err == \
            "error: 3-connected graphs need at least 4 vertices\n"
        assert list(in_tmp.iterdir()) == []

    @pytest.mark.parametrize("argv, graph", [
        (["named", "--name", "theta99999999999999999999"], "theta graph"),
        (["named", "--name", "theta", "--size", "9" * 30], "theta graph"),
        # 2^89 - 1 is prime: trial division up to its square root never ends.
        (["counterexample", "--p", str(2**89 - 1)], "counterexample"),
        (["random3c", "--n", "9" * 30], "random 3-connected graph"),
    ], ids=["theta-suffix", "theta-size", "counterexample", "random3c"])
    def test_size_past_the_edge_bound_is_refused_before_building(
            self, in_tmp, capsys, argv, graph):
        started = time.perf_counter()
        assert main(["generate", *argv]) == EXIT_PRECONDITION
        assert time.perf_counter() - started < 1
        assert capsys.readouterr().err == \
            f"error: {graph} exceeds the bound of 1000000 edges\n"
        assert list(in_tmp.iterdir()) == []

    def test_out_prefix_in_missing_directory_is_input_error(self, in_tmp, capsys):
        assert main(["generate", "named", "--name", "K4",
                     "--out", "absent/k4"]) == EXIT_INPUT
        assert capsys.readouterr().err == \
            "error: absent/k4.json: No such file or directory\n"


class TestVerify:
    def test_counterexample_passes(self, capsys):
        src, tgt, fmap = generate_counterexample()
        assert main(["verify", src, tgt, fmap]) == EXIT_PASS
        report = last_report(capsys)
        assert report["result"] == "pass"
        assert report["mode"] == "exhaustive"
        assert report["circuits_checked"] == 3
        assert report["witness"] is None
        assert isinstance(report["elapsed_ms"], int)

    def test_sampled_mode(self, capsys):
        src, tgt, fmap = generate_counterexample()
        assert main(["verify", src, tgt, fmap, "--mode", "sampled",
                     "--samples", "30", "--seed", "9"]) == EXIT_PASS
        assert last_report(capsys)["mode"] == "sampled"

    @pytest.mark.parametrize("argv,counts", [
        # The p = 3 source has only 3 circuits, so 50 samples hit the mix limit.
        (["counterexample_p3.source.json", "counterexample_p3.target.json",
          "counterexample_p3.map.json", "--samples", "50"], (3, 1000, "attempt_limit")),
        # An induced map stops at the vertex read: with m - n = 5 it reports
        # the 5 samples, each a fundamental circuit the vertex map certifies.
        (["K5.json", "K5.json", "k5.map.json", "--samples", "5"], (5, 0, "induced")),
        # Cycle rank 19 < 500: no circuit is drawn, and the report counts the
        # 19 fundamental circuits of a spanning tree.
        (["theta20.json", "theta20.json", "theta20.map.json", "--samples", "500"],
         (19, 0, "induced")),
    ], ids=["p3", "K5-relabelled", "theta20-identity"])
    def test_sampled_report_counts(self, theta20, k5_maps, capsys, argv, counts):
        generate_counterexample()
        assert main(["verify", *argv, "--mode", "sampled"]) == EXIT_PASS
        report = last_report(capsys)
        assert report["result"] == "pass"
        assert (report["circuits_checked"], report["attempts"],
                report["stop_reason"]) == counts

    @pytest.mark.parametrize("graph,circuits", [
        # K_{3,3} passes on the spanning-forest basis alone.
        ("counterexample_p3.target.json", 15),
        ("theta20.json", 190),
    ], ids=["K33", "theta20"])
    def test_identity_map_reports_every_circuit(self, theta20, capsys, graph, circuits):
        generate_counterexample()
        write_map(theta20 / "id.json", graph_from_json(read_json(theta20 / graph)))
        assert main(["verify", graph, graph, "id.json"]) == EXIT_PASS
        report = last_report(capsys)
        assert (report["result"], report["circuits_checked"]) == ("pass", circuits)

    def test_inverse_counterexample_fails_at_the_four_cycle(self, in_tmp, capsys):
        # K_{3,3} onto the theta graph: its first circuit in canonical order,
        # the 4-cycle b0-c0-b1-c1, already maps onto no circuit.
        src, tgt, fmap = generate_counterexample()
        write_json(in_tmp / "inverse.json",
                   {"map": [[t, s] for s, t in read_json(in_tmp / fmap)["map"]]})
        assert main(["verify", tgt, src, "inverse.json"]) == EXIT_FAIL
        report = last_report(capsys)
        assert (report["circuits_checked"], report["witness"]["direction"]) == (1, "forward")
        assert report["witness"]["circuit"] == [
            ["b0", "c0"], ["b0", "c1"], ["b1", "c0"], ["b1", "c1"]]

    def test_broken_map_fails_with_witness(self, in_tmp, capsys):
        src, tgt, fmap = generate_counterexample()
        data = read_json(in_tmp / fmap)
        # swap images across two different source paths; swapping inside a
        # single path would permute a circuit image onto itself
        data["map"][0][1], data["map"][3][1] = data["map"][3][1], data["map"][0][1]
        (in_tmp / "broken.json").write_text(json.dumps(data), encoding="utf-8")
        assert main(["verify", src, tgt, "broken.json"]) == EXIT_FAIL
        report = last_report(capsys)
        assert report["result"] == "fail"
        assert report["witness"]["direction"] == "forward"
        assert report["witness"]["circuit"]

    def test_swapped_k4_map_exits_2_with_triangle_witness(self, in_tmp, capsys):
        write_graph(in_tmp / "k4.json", "K4")
        g = named_graph("K4")
        pairs = [[list(g.edges[i]), list(g.edges[j])]
                 for i, j in zip(range(6), (5, 1, 2, 3, 4, 0))]
        (in_tmp / "swap.json").write_text(json.dumps({"map": pairs}),
                                          encoding="utf-8")
        assert main(["verify", "k4.json", "k4.json", "swap.json"]) == EXIT_FAIL
        report = last_report(capsys)
        assert report["witness"]["circuit"] == [["0", "1"], ["0", "2"], ["1", "2"]]

    def test_corrupt_map_is_input_error(self, in_tmp, capsys):
        src, tgt, fmap = generate_counterexample()
        data = read_json(in_tmp / fmap)
        data["map"][1][1] = data["map"][0][1]  # duplicate target edge
        (in_tmp / fmap).write_text(json.dumps(data), encoding="utf-8")
        assert main(["verify", src, tgt, fmap]) == EXIT_INPUT
        assert "error" in capsys.readouterr().err

    def test_missing_file(self, capsys):
        assert main(["verify", "no.json", "no.json", "no.json"]) == EXIT_INPUT
        assert capsys.readouterr().err == "error: no.json: No such file or directory\n"

    def test_malformed_json(self, in_tmp):
        (in_tmp / "bad.json").write_text("{", encoding="utf-8")
        assert main(["verify", "bad.json", "bad.json", "bad.json"]) == EXIT_INPUT

    def test_truncated_map_file_is_named(self, in_tmp, capsys):
        src, tgt, fmap = generate_counterexample()
        text = (in_tmp / fmap).read_text(encoding="utf-8")
        (in_tmp / fmap).write_text(text[:len(text) // 2], encoding="utf-8")
        assert main(["verify", src, tgt, fmap]) == EXIT_INPUT
        assert capsys.readouterr().err.startswith(f"error: {fmap}: Expecting ")

    def test_non_utf8_graph_file_is_named(self, in_tmp, capsys):
        (in_tmp / "latin1.json").write_bytes(b'{"vertices": ["\xe9"], "edges": []}')
        assert main(["enumerate", "latin1.json"]) == EXIT_INPUT
        assert capsys.readouterr().err.startswith(
            "error: latin1.json: 'utf-8' codec can't decode byte 0xe9")

    def test_deeply_nested_json_is_input_error(self, in_tmp, capsys):
        (in_tmp / "deep.json").write_text("[" * 100_000, encoding="utf-8")
        assert main(["enumerate", "deep.json"]) == EXIT_INPUT
        assert capsys.readouterr().err.startswith("error: deep.json: maximum recursion")

    @pytest.mark.parametrize("argv", [
        ["enumerate", "graph.json"],
        ["verify", "k4.json", "k4.json", "map.json"],
        ["crossing", "k4.json", "cut.json"],
    ], ids=["graph", "map", "cut"])
    def test_over_long_integer_is_input_error(self, in_tmp, capsys, argv):
        # Past the interpreter's int-conversion limit (4,300 digits) the JSON
        # decoder raises a plain ValueError, which is still a bad file.
        big = "9" * 5000
        write_graph(in_tmp / "k4.json", "K4")
        (in_tmp / "graph.json").write_text(f'{{"vertices": [{big}], "edges": []}}')
        (in_tmp / "map.json").write_text(f'{{"map": [[["0", "1"], [{big}, "1"]]]}}')
        (in_tmp / "cut.json").write_text(f'[["0", {big}]]')
        assert main(argv) == EXIT_INPUT
        assert capsys.readouterr().err.startswith(f"error: {argv[-1]}: ")

    def test_bad_target_graph_file_is_named(self, in_tmp, capsys):
        write_graph(in_tmp / "k4.json", "K4")
        write_json(in_tmp / "bad.json", {"vertices": ["a", "b"], "edges": "ab"})
        write_map(in_tmp / "id.json", named_graph("K4"))
        assert main(["verify", "k4.json", "bad.json", "id.json"]) == EXIT_INPUT
        assert capsys.readouterr().err == \
            "error: bad.json: 'edges' must be a list of endpoint pairs\n"

    @pytest.mark.parametrize("budget,code", [("1171", EXIT_PRECONDITION),
                                             ("1172", EXIT_FAIL)])
    def test_budget_is_settled_before_a_failing_map_is_tested(self, in_tmp, capsys,
                                                              budget, code):
        # K7 has 1,172 circuits. Swapping the images of 0-1 and 5-6 breaks the
        # first circuit in canonical order, yet a budget one short is refused.
        g = complete(7)
        images = list(g.edges)
        images[0], images[20] = images[20], images[0]
        write_json(in_tmp / "k7.json", graph_to_json(g))
        write_json(in_tmp / "swap.json",
                   {"map": [[list(e), list(x)] for e, x in zip(g.edges, images)]})
        assert main(["verify", "k7.json", "k7.json", "swap.json",
                     "--max-circuits", budget]) == code
        out, err = capsys.readouterr()
        if code == EXIT_PRECONDITION:
            assert (out, err) == ("", "error: more than 1171 circuits\n")
            return
        report = json.loads(out)
        assert report["circuits_checked"] == 1
        assert report["witness"] == {
            "direction": "forward",
            "circuit": [["0", "1"], ["0", "2"], ["1", "2"]],
            "image": [["0", "2"], ["1", "2"], ["5", "6"]],
        }

    def test_non_string_map_endpoint_is_input_error(self, in_tmp, capsys):
        write_graph(in_tmp / "k4.json", "K4")
        pairs = [[list(e), list(e)] for e in named_graph("K4").edges]
        pairs[0] = [["0", 7], ["0", "1"]]
        (in_tmp / "map.json").write_text(json.dumps({"map": pairs}), encoding="utf-8")
        assert main(["verify", "k4.json", "k4.json", "map.json"]) == EXIT_INPUT
        assert capsys.readouterr().err.startswith("error: map.json: map entry 0")

    @pytest.mark.parametrize("target,edit,message", [
        ("k4.json", lambda ids: [ids[0][:1], *ids[1:]], "map entry 0 must be [[u, v], [x, y]]"),
        ("k4.json", lambda ids: [[["0", "1"], ["1", "zz"]], *ids[1:]],
         "no edge joins '1' and 'zz'"),
        ("k4.json", lambda ids: [*ids[:-1], [ids[0][0], ids[-1][1]]],
         "source edge ('0', '1') appears twice in the map"),
        ("k4x.json", lambda ids: ids, "source has 6 edges but target has 7"),
    ], ids=["malformed-entry", "no-such-edge", "repeated-source", "edge-count"])
    def test_map_file_errors_name_the_map(self, in_tmp, capsys, target, edit, message):
        k4 = graph_to_json(named_graph("K4"))
        write_json(in_tmp / "k4.json", k4)
        write_json(in_tmp / "k4x.json", {"vertices": [*k4["vertices"], "4"],
                                         "edges": [*k4["edges"], ["0", "4"]]})
        write_json(in_tmp / "map.json", {"map": edit([[e, e] for e in k4["edges"]])})
        assert main(["verify", "k4.json", target, "map.json"]) == EXIT_INPUT
        assert capsys.readouterr().err == f"error: map.json: {message}\n"

    def test_quiet_suppresses_report(self, capsys):
        src, tgt, fmap = generate_counterexample()
        assert main(["verify", src, tgt, fmap, "--quiet"]) == EXIT_PASS
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("argv", [
        ["verify", "a.json", "b.json"],
        ["verify", "a.json", "b.json", "m.json", "--samples", "abc"],
        ["verify", "a.json", "b.json", "m.json", "--mode", "sampled", "--samples", "0"],
        ["verify", "a.json", "b.json", "m.json", "--mode", "sampled", "--samples", "-5"],
    ], ids=["missing_map", "samples_not_integer", "samples_zero", "samples_negative"])
    def test_usage_error_is_input_error(self, capsys, argv):
        # Exit 2 means a refuted map, so a usage error must not produce it.
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == EXIT_INPUT
        assert "error: " in capsys.readouterr().err

    @pytest.mark.parametrize("mode", ["exhaustive", "sampled"])
    @pytest.mark.parametrize("budget", ["0", "-1"])
    def test_non_positive_max_circuits_is_input_error(self, in_tmp, capsys,
                                                      mode, budget):
        # The parser refuses the budget before check_circuit_injection can,
        # and its message names the flag.
        write_graph(in_tmp / "k4.json", "K4")
        write_map(in_tmp / "id.json", named_graph("K4"))
        with pytest.raises(SystemExit) as exit_info:
            main(["verify", "k4.json", "k4.json", "id.json", "--mode", mode,
                  "--max-circuits", budget])
        assert exit_info.value.code == EXIT_INPUT
        assert "must be positive" in capsys.readouterr().err

    def test_isolated_target_vertex_is_input_error(self, in_tmp, capsys):
        write_json(in_tmp / "s.json", {"vertices": ["x", "y"], "edges": [["x", "y"]]})
        write_json(in_tmp / "t.json", {"vertices": ["a", "b", "c"], "edges": [["a", "b"]]})
        write_json(in_tmp / "m.json", {"map": [[["x", "y"], ["a", "b"]]]})
        assert main(["verify", "s.json", "t.json", "m.json"]) == EXIT_INPUT
        assert capsys.readouterr().err.startswith(
            "error: t.json: target vertex 'c' is isolated")

    def test_relabelled_long_cycle_has_one_circuit(self, in_tmp, capsys,
                                                   default_recursion_limit):
        from circuitmap import edge_map_to_json, permuted_edge_map

        g = cycle_graph(1500)
        f = permuted_edge_map(g, seeded_relabel(g, 3))
        write_json(in_tmp / "s.json", graph_to_json(f.source))
        write_json(in_tmp / "t.json", graph_to_json(f.target))
        write_json(in_tmp / "m.json", edge_map_to_json(f))
        assert main(["verify", "s.json", "t.json", "m.json"]) == EXIT_PASS
        report = last_report(capsys)
        assert report["result"] == "pass" and report["circuits_checked"] == 1


class TestReconstruct:
    def test_counterexample_hits_guard(self, capsys):
        src, tgt, fmap = generate_counterexample()
        assert main(["reconstruct", src, tgt, fmap]) == EXIT_PRECONDITION
        report = last_report(capsys)
        assert list(report) == ["result", "detail", "separator", "elapsed_ms"]
        assert report["result"] == "not_three_connected"
        # The neighbours of x_0_1, the first vertex of degree 2.
        assert report["separator"] == ["u", "x_0_2"]

    @pytest.mark.parametrize("graph,separator", [
        # A triangle has too few vertices for a separator to be named.
        ({"vertices": ["a", "b", "c"], "edges": [["a", "b"], ["b", "c"], ["a", "c"]]},
         None),
        # Two K4s: least degree 3, so the search of G finds it disconnected.
        ({"vertices": [f"{t}{i}" for t in "ab" for i in range(4)],
          "edges": [[f"{t}{i}", f"{t}{j}"] for t in "ab"
                    for i in range(4) for j in range(i + 1, 4)]},
         []),
    ])
    def test_guard_names_its_separator(self, in_tmp, capsys, graph, separator):
        write_json(in_tmp / "g.json", graph)
        write_map(in_tmp / "id.json", graph_from_json(graph))
        assert main(["reconstruct", "g.json", "g.json", "id.json"]) == EXIT_PRECONDITION
        assert last_report(capsys)["separator"] == separator

    def test_identity_on_k4(self, in_tmp, capsys):
        write_graph(in_tmp / "k4.json", "K4")
        write_map(in_tmp / "id.json", named_graph("K4"))
        assert main(["reconstruct", "k4.json", "k4.json", "id.json"]) == EXIT_PASS
        report = last_report(capsys)
        assert report["result"] == "induced"
        assert report["vertex_map"] == {v: v for v in "0123"}

    def test_relabeled_wheel_recovers_permutation(self, in_tmp, capsys):
        from circuitmap import edge_map_to_json, permuted_edge_map

        g = named_graph("W5")
        rotation = {"hub": "hub", "r0": "r1", "r1": "r2", "r2": "r3",
                    "r3": "r4", "r4": "r0"}
        f = permuted_edge_map(g, rotation)
        (in_tmp / "src.json").write_text(json.dumps(graph_to_json(g)),
                                         encoding="utf-8")
        (in_tmp / "tgt.json").write_text(json.dumps(graph_to_json(f.target)),
                                         encoding="utf-8")
        (in_tmp / "map.json").write_text(json.dumps(edge_map_to_json(f)),
                                         encoding="utf-8")
        assert main(["reconstruct", "src.json", "tgt.json",
                     "map.json"]) == EXIT_PASS
        assert last_report(capsys)["vertex_map"] == rotation

    def test_swapped_map_not_induced(self, in_tmp, capsys):
        write_graph(in_tmp / "k4.json", "K4")
        g = named_graph("K4")
        pairs = [[list(g.edges[i]), list(g.edges[j])]
                 for i, j in zip(range(6), (5, 1, 2, 3, 4, 0))]
        (in_tmp / "swap.json").write_text(json.dumps({"map": pairs}),
                                          encoding="utf-8")
        assert main(["reconstruct", "k4.json", "k4.json",
                     "swap.json"]) == EXIT_NOT_INDUCED
        report = last_report(capsys)
        assert report["result"] == "not_induced"
        assert report["witness"]["vertex"] == "0"
        assert report["witness"]["class"]["kind"] == "violation"

    def test_relabelled_k5_recovers_the_relabelling(self, k5_maps, capsys):
        assert main(["reconstruct", "K5.json", "K5.json", "k5.map.json"]) == EXIT_PASS
        report = last_report(capsys)
        assert (report["result"], report["vertex_map"]) == ("induced", K5_RELABEL)

    def test_swapped_k5_is_refused_at_vertex_0(self, k5_maps, capsys):
        assert main(["reconstruct", "K5.json", "K5.json",
                     "swapped.map.json"]) == EXIT_NOT_INDUCED
        assert last_report(capsys)["witness"] == {"vertex": "0", "class": {
            "kind": "violation", "variant": "no_common_vertex",
            "edges": [["0", "2"], ["0", "3"], ["2", "3"]]}}

    def test_generated_random3c_n1000_and_its_label_reversal(self, in_tmp, capsys):
        # Both runs pass the 3-connectivity guard at n = 1000.
        assert main(["generate", "random3c", "--n", "1000", "--seed", "7",
                     "--quiet"]) == EXIT_PASS
        text = (in_tmp / "random3c_n1000_s7.json").read_bytes()
        assert hashlib.sha256(text).hexdigest() == \
            "33407fd7dbd73cbacf42c1de5976deb5f18bfb149864c951dce63c8e6ed5cccf"
        g = graph_from_json(json.loads(text))
        reverse = dict(zip(g.vertices, reversed(g.vertices)))
        write_json(in_tmp / "reversed.json", {
            "vertices": list(g.vertices),
            "edges": [[reverse[u], reverse[v]] for u, v in g.edges]})
        write_map(in_tmp / "reversed.map.json", g, lambda e: [reverse[v] for v in e])
        assert main(["reconstruct", "random3c_n1000_s7.json", "reversed.json",
                     "reversed.map.json"]) == EXIT_PASS
        report = last_report(capsys)
        assert (report["result"], report["vertex_map"]) == ("induced", reverse)


class TestEnumerate:
    def test_counts(self, in_tmp, capsys):
        write_graph(in_tmp / "k4.json", "K4")
        assert main(["enumerate", "k4.json"]) == EXIT_PASS
        report = last_report(capsys)
        assert report["count"] == 7 and len(report["circuits"]) == 7

    def test_long_cycle(self, in_tmp, capsys, default_recursion_limit):
        write_json(in_tmp / "cycle.json", graph_to_json(cycle_graph(1500)))
        assert main(["enumerate", "cycle.json"]) == EXIT_PASS
        report = last_report(capsys)
        assert report["count"] == 1 and len(report["circuits"][0]) == 1500

    def test_edges_not_a_list_is_input_error(self, in_tmp, capsys):
        write_json(in_tmp / "g.json", {"vertices": ["a", "b"], "edges": "ab"})
        assert main(["enumerate", "g.json"]) == EXIT_INPUT
        assert capsys.readouterr().err == \
            "error: g.json: 'edges' must be a list of endpoint pairs\n"

    def test_malformed_edge_entry_names_the_file(self, in_tmp, capsys):
        write_json(in_tmp / "three.json", {"vertices": ["a", "b", "c"],
                                           "edges": [["a", "b", "c"], ["b", "c"]]})
        assert main(["enumerate", "three.json"]) == EXIT_INPUT
        assert capsys.readouterr().err == \
            "error: three.json: edge entry 0 must be a pair of strings\n"

    def test_budget_exhaustion_is_precondition_exit(self, in_tmp):
        write_graph(in_tmp / "k4.json", "K4")
        assert main(["enumerate", "k4.json", "--max-circuits",
                     "2"]) == EXIT_PRECONDITION

    @pytest.mark.parametrize("argv,budget,code", [
        (["enumerate", "theta20.json"], "189", EXIT_PRECONDITION),
        (["enumerate", "theta20.json"], "190", EXIT_PASS),
        (["verify", "theta20.json", "theta20.json", "theta20.map.json"], "189",
         EXIT_PRECONDITION),
        (["enumerate", "bowtie.json"], "1", EXIT_PRECONDITION),
        (["enumerate", "bowtie.json"], "2", EXIT_PASS),
    ], ids=["theta20-189", "theta20-190", "verify-theta20-189", "bowtie-1", "bowtie-2"])
    def test_budget_one_short_of_the_count_is_refused(self, theta20, capsys,
                                                      argv, budget, code):
        assert main([*argv, "--max-circuits", budget]) == code
        out, err = capsys.readouterr()
        if code == EXIT_PASS:
            assert (json.loads(out)["count"], err) == (int(budget), "")
        else:
            assert (out, err) == ("", f"error: more than {budget} circuits\n")

    @pytest.mark.parametrize("budget", ["0", "-1"])
    def test_non_positive_max_circuits_is_input_error(self, in_tmp, capsys, budget):
        write_graph(in_tmp / "k4.json", "K4")
        with pytest.raises(SystemExit) as exit_info:
            main(["enumerate", "k4.json", "--max-circuits", budget])
        assert exit_info.value.code == EXIT_INPUT
        assert "must be positive" in capsys.readouterr().err

    def test_reader_closing_the_pipe_early_keeps_the_exit_code(self, in_tmp):
        # About 394 KB of report, far past a pipe buffer: the child is still
        # writing when the reader goes away.
        write_graph(in_tmp / "theta.json", "theta20")
        child = spawn_module(["enumerate", "theta.json"],
                             stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        assert child.stdout.read(1) == b"{"
        child.stdout.close()
        err = child.stderr.read().decode()
        child.stderr.close()
        assert child.wait(timeout=60) == EXIT_PASS
        assert err == ""


class TestClassifyDecomposeCrossing:
    def test_classify_counterexample(self, capsys):
        src, tgt, fmap = generate_counterexample()
        assert main(["classify", src, tgt, fmap]) == EXIT_PASS
        report = last_report(capsys)
        assert report["star_images"]["u"] == {"kind": "star", "vertex": "b0"}
        assert report["star_images"]["x_0_1"] == {"kind": "independent"}
        assert report["star_preimages"]["b0"] == {"kind": "star", "vertex": "u"}
        assert report["star_preimages"]["c0"] == {"kind": "independent"}

    def test_classify_isolated_source_vertex_is_input_error(self, in_tmp, capsys):
        write_json(in_tmp / "s.json", {"vertices": ["a", "b", "c"], "edges": [["a", "b"]]})
        write_json(in_tmp / "t.json", {"vertices": ["x", "y"], "edges": [["x", "y"]]})
        write_json(in_tmp / "m.json", {"map": [[["a", "b"], ["x", "y"]]]})
        assert main(["classify", "s.json", "t.json", "m.json"]) == EXIT_INPUT
        err = capsys.readouterr().err
        assert err.startswith("error: s.json: ") and "'c' has no incident edges" in err

    def test_decompose_counterexample(self, capsys):
        src, tgt, fmap = generate_counterexample()
        assert main(["decompose", src, tgt, fmap, "--vertex", "c0"]) == EXIT_PASS
        report = last_report(capsys)
        assert report["side_a"] == ["u", "x_1_1", "x_1_2", "x_2_1"]
        assert report["side_b"] == ["w", "x_0_1", "x_0_2", "x_2_2"]
        assert len(report["crossing"]) == 3

    def test_decompose_guard_is_precondition_exit(self, capsys):
        src, tgt, fmap = generate_counterexample()
        assert main(["decompose", src, tgt, fmap,
                     "--vertex", "b0"]) == EXIT_PRECONDITION
        assert capsys.readouterr() == (
            "", "error: star preimage of 'b0' is StarAt, not independent\n")

    def test_crossing_prism(self, in_tmp, capsys):
        write_graph(in_tmp / "prism.json", "prism")
        cut = [["a0", "b0"], ["a1", "b1"], ["a2", "b2"]]
        (in_tmp / "cut.json").write_text(json.dumps(cut), encoding="utf-8")
        assert main(["crossing", "prism.json", "cut.json"]) == EXIT_PASS
        report = last_report(capsys)
        assert report["result"] == "linked_pair"
        assert report["witness"]["path_vertices"] == ["a2", "b2"]
        assert report["witness"]["anchors_a"] == ["a0", "a1", "a2"]

    def test_crossing_double_bowtie_finds_a_circuit_through_the_matching(self, in_tmp,
                                                                         capsys):
        write_graph(in_tmp / "double_bowtie.json", "double_bowtie")
        write_json(in_tmp / "cut.json", [["p1", "q1"], ["p2", "q3"], ["p3", "q2"],
                                         ["p4", "q4"]])
        assert main(["crossing", "double_bowtie.json", "cut.json"]) == EXIT_PASS
        report = last_report(capsys)
        assert (report["result"], report["crossing_edges_used"]) == ("circuit", 4)

    def test_crossing_guard_violation(self, in_tmp, capsys):
        write_graph(in_tmp / "theta.json", "theta3")
        cut = [["u", "x_0_1"], ["u", "x_1_1"], ["u", "x_2_1"]]
        (in_tmp / "cut.json").write_text(json.dumps(cut), encoding="utf-8")
        assert main(["crossing", "theta.json", "cut.json"]) == EXIT_PRECONDITION
        report = last_report(capsys)
        assert list(report) == ["result", "detail", "separator", "elapsed_ms"]
        assert report["result"] == "not_three_connected"
        # The neighbours of x_0_1, the first vertex of degree 2.
        assert report["separator"] == ["u", "x_0_2"]

    @pytest.mark.parametrize("argv,result,detail,separator", BOWTIE_REFUSALS,
                             ids=["decompose", "crossing"])
    def test_guard_refusal_names_its_separator(self, bowtie_files, capsys,
                                               argv, result, detail, separator):
        assert main(argv) == EXIT_PRECONDITION
        out, err = capsys.readouterr()
        report = json.loads(out)
        assert list(report) == ["result", "detail", "separator", "elapsed_ms"]
        assert (report["result"], report["detail"], report["separator"], err) == (
            result, detail, separator, "")
        assert main([*argv, "--quiet"]) == EXIT_PRECONDITION
        assert capsys.readouterr() == ("", "")

    def test_decompose_violation_exits_2(self, in_tmp, capsys):
        # The matching {a0a1, b0b1, a2b2} of the prism goes onto the star of
        # b0 in K33; deleting it leaves the prism connected.
        write_graph(in_tmp / "prism.json", "prism")
        write_graph(in_tmp / "k33.json", "K33")
        onto_star = {("a0", "a1"): 0, ("b0", "b1"): 1, ("a2", "b2"): 2}
        k33 = named_graph("K33").edges
        rest = iter(k33[3:])
        pairs = [[list(e), list(k33[onto_star[e]] if e in onto_star else next(rest))]
                 for e in named_graph("prism").edges]
        (in_tmp / "map.json").write_text(json.dumps({"map": pairs}), encoding="utf-8")
        assert main(["decompose", "prism.json", "k33.json", "map.json",
                     "--vertex", "b0"]) == EXIT_FAIL
        report = last_report(capsys)
        assert report["result"] == "decomposition_violation"
        assert report["detail"] == "deleting the preimage left 1 components, not 2"

    @pytest.mark.parametrize("text", ["{}", "5", "null", '"ab"'],
                             ids=["object", "number", "null", "string"])
    def test_crossing_cut_must_be_list(self, in_tmp, capsys, text):
        write_graph(in_tmp / "prism.json", "prism")
        (in_tmp / "cut.json").write_text(text, encoding="utf-8")
        assert main(["crossing", "prism.json", "cut.json"]) == EXIT_INPUT
        assert capsys.readouterr().err == \
            "error: cut.json: edge set must be a list of endpoint pairs\n"

    @pytest.mark.parametrize("cut", [[1, 2], [["0", 5]],
                                     [["a0", "b0", "a1"], ["a1", "b1"]]])
    def test_malformed_cut_entry_is_input_error(self, in_tmp, capsys, cut):
        write_graph(in_tmp / "prism.json", "prism")
        (in_tmp / "cut.json").write_text(json.dumps(cut), encoding="utf-8")
        assert main(["crossing", "prism.json", "cut.json"]) == EXIT_INPUT
        # The pair is refused where edge_set_from_pairs reads it, by position.
        assert capsys.readouterr().err == \
            "error: cut.json: edge set entry 0 must be a pair of strings\n"

    def test_cut_pair_naming_no_edge_names_the_cut(self, in_tmp, capsys):
        write_graph(in_tmp / "prism.json", "prism")
        write_json(in_tmp / "cut.json", [["a0", "b0"], ["a0", "b1"]])
        assert main(["crossing", "prism.json", "cut.json"]) == EXIT_INPUT
        assert capsys.readouterr().err == "error: cut.json: no edge joins 'a0' and 'b1'\n"


def test_parsers_are_read_from_the_module_at_each_load(in_tmp, capsys, monkeypatch):
    # The benchmark's tracer wraps these three by their cli attribute names,
    # so a loader that bound them at import would lose its spans.
    from circuitmap import cli

    calls = []
    for name in ("graph_from_json", "edge_map_from_json", "edge_set_from_pairs"):
        def counted(*args, _name=name, _real=getattr(cli, name)):
            calls.append(_name)
            return _real(*args)
        monkeypatch.setattr(cli, name, counted)
    src, tgt, fmap = generate_counterexample()
    assert main(["verify", src, tgt, fmap, "--quiet"]) == EXIT_PASS
    assert calls == ["graph_from_json", "graph_from_json", "edge_map_from_json"]
    calls.clear()
    write_graph(in_tmp / "prism.json", "prism")
    write_json(in_tmp / "cut.json", [["a0", "b0"], ["a1", "b1"], ["a2", "b2"]])
    assert main(["crossing", "prism.json", "cut.json", "--quiet"]) == EXIT_PASS
    assert calls == ["graph_from_json", "edge_set_from_pairs"]


# argv prefix -> the positionals its --help names
COMMANDS = {
    ("verify",): ("source", "target", "map"),
    ("reconstruct",): ("source", "target", "map"),
    ("generate", "counterexample"): (),
    ("generate", "named"): (),
    ("generate", "random3c"): (),
    ("enumerate",): ("graph",),
    ("classify",): ("source", "target", "map"),
    ("decompose",): ("source", "target", "map"),
    ("crossing",): ("graph", "cut"),
}


class TestParser:
    def test_every_command_is_listed(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["--help"])
        assert exit_info.value.code == EXIT_PASS
        out = capsys.readouterr().out
        assert all(prefix[0] in out for prefix in COMMANDS)
        with pytest.raises(SystemExit) as exit_info:
            main(["generate", "--help"])
        assert exit_info.value.code == EXIT_PASS
        out = capsys.readouterr().out
        assert all(prefix[1] in out for prefix in COMMANDS if len(prefix) == 2)

    @pytest.mark.parametrize("prefix", COMMANDS, ids=" ".join)
    def test_help_names_positionals_and_quiet(self, capsys, prefix):
        with pytest.raises(SystemExit) as exit_info:
            main([*prefix, "--help"])
        assert exit_info.value.code == EXIT_PASS
        out = capsys.readouterr().out
        assert re.search(r"^  --quiet\b", out, re.M)
        for name in COMMANDS[prefix]:
            assert re.search(rf"^  {name}\b", out, re.M), name

    def test_parsed_defaults(self):
        parse = _build_parser().parse_args
        args = parse(["verify", "s.json", "t.json", "m.json"])
        assert (args.mode, args.samples, args.seed, args.max_circuits, args.quiet) == \
            ("exhaustive", 500, 1, DEFAULT_MAX_CIRCUITS, False)
        assert (args.source, args.target, args.map) == ("s.json", "t.json", "m.json")
        assert parse(["enumerate", "g.json"]).max_circuits == DEFAULT_MAX_CIRCUITS
        args = parse(["generate", "random3c", "--n", "8"])
        assert (args.n, args.seed, args.out, args.quiet) == (8, 1, None, False)

    @pytest.mark.parametrize("argv", [
        ["verify", "s.json", "t.json", "m.json", "--bogus"],
        ["enumerate", "g.json", "--bogus"],
        ["generate", "random3c", "--n", "8", "--bogus"],
    ], ids=["verify", "enumerate", "generate"])
    def test_unknown_option_is_input_error(self, capsys, argv):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == EXIT_INPUT
        assert "error: unrecognized arguments: --bogus" in capsys.readouterr().err


class TestInternalFaults:
    """A broken postcondition is a bug: exit 5, never 1 or 4, no traceback."""

    @pytest.fixture
    def prism_cut(self, in_tmp):
        write_graph(in_tmp / "prism.json", "prism")
        write_json(in_tmp / "cut.json", [["a0", "b0"], ["a1", "b1"], ["a2", "b2"]])
        return ["crossing", "prism.json", "cut.json"]

    def test_failed_postcondition_exits_5(self, prism_cut, capsys, monkeypatch):
        from circuitmap import circuits

        def broken(*args):
            raise InternalError("circuit misses a or b")

        monkeypatch.setattr(circuits, "validate_attached_path", broken)
        assert main(prism_cut) == EXIT_INTERNAL
        out, err = capsys.readouterr()
        assert out == ""
        assert re.fullmatch(r"error: internal error: circuit misses a or b "
                            r"\(raised at test_cli\.py:\d+\)\n", err)

    def test_failed_reconstruction_check_exits_5(self, in_tmp, capsys, monkeypatch):
        from circuitmap import edge_map_to_json, edge_maps, permuted_edge_map

        g = named_graph("W5")
        f = permuted_edge_map(g, seeded_relabel(g, 3))
        write_json(in_tmp / "src.json", graph_to_json(g))
        write_json(in_tmp / "tgt.json", graph_to_json(f.target))
        write_json(in_tmp / "map.json", edge_map_to_json(f))
        monkeypatch.setattr(edge_maps, "is_induced_by", lambda *args: False)
        assert main(["reconstruct", "src.json", "tgt.json", "map.json"]) == EXIT_INTERNAL
        out, err = capsys.readouterr()
        assert out == ""
        assert re.fullmatch(r"error: internal error: collected star centers do not "
                            r"induce the map \(raised at edge_maps\.py:\d+\)\n", err)

    def test_unexpected_exception_exits_5(self, prism_cut, capsys, monkeypatch):
        from circuitmap import structure

        def broken(*args):
            raise KeyError("v9")

        monkeypatch.setattr(structure, "circuit_and_attached_path", broken)
        assert main(prism_cut) == EXIT_INTERNAL
        out, err = capsys.readouterr()
        assert out == ""
        assert re.fullmatch(r"error: internal error: KeyError: 'v9' "
                            r"\(raised at test_cli\.py:\d+\)\n", err)


ELAPSED = re.compile(r'"elapsed_ms": \d+')


class TestEntryPoints:
    @pytest.mark.parametrize("argv,code", [
        (["--version"], EXIT_PASS),
        (["--help"], EXIT_PASS),
        (["nope"], EXIT_INPUT),
    ], ids=["version", "help", "unknown-command"])
    def test_argparse_output_into_a_closed_pipe_keeps_the_exit_code(self, argv, code):
        # Buffered stdout, as wherever PYTHONUNBUFFERED is unset: argparse's
        # text meets the closed pipe only at the final flush.
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            child = spawn_module(argv, env, stdout=write_end, stderr=subprocess.PIPE)
        finally:
            os.close(write_end)
        err = child.communicate(timeout=60)[1].decode()
        assert child.returncode == code
        if code == EXIT_PASS:
            assert err == ""
        else:
            assert err.endswith("error: argument command: invalid choice: 'nope' "
                                "(choose from 'verify', 'reconstruct', 'generate', "
                                "'enumerate', 'classify', 'decompose', 'crossing')\n")

    def test_run_turns_the_cyclic_collector_off(self):
        # main, called in process, leaves its caller's collector as it was.
        assert main(["enumerate", "absent.json"]) == EXIT_INPUT
        assert gc.isenabled()
        child = spawn_python(["-c", "import gc\n"
                                    "from circuitmap import cli\n"
                                    "cli.main = lambda: print(gc.isenabled())\n"
                                    "cli.run()\n"],
                             stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        assert child.communicate(timeout=60) == ("False\n", "")
        assert child.returncode == EXIT_PASS

    def test_stdout_closed_at_start_up_keeps_the_exit_code(self, in_tmp):
        # With descriptor 1 closed, sys.stdout is None and print drops the report.
        write_graph(in_tmp / "k4.json", "K4")
        child = spawn_module(["enumerate", "k4.json"], stderr=subprocess.PIPE,
                             preexec_fn=lambda: os.close(1))
        assert child.communicate(timeout=60)[1] == b""
        assert child.returncode == EXIT_PASS

    @pytest.fixture
    def instances(self, in_tmp, bowtie_files):
        generate_counterexample()
        write_graph(in_tmp / "k4.json", "K4")
        g = named_graph("K4")
        write_json(in_tmp / "swap.json", {"map": [
            [list(g.edges[i]), list(g.edges[j])]
            for i, j in zip(range(6), (5, 1, 2, 3, 4, 0))]})
        return in_tmp

    P3 = ["counterexample_p3.source.json", "counterexample_p3.target.json",
          "counterexample_p3.map.json"]

    @pytest.mark.parametrize("argv,code", [
        (["verify", *P3], EXIT_PASS),
        (["verify", "k4.json", "k4.json", "swap.json"], EXIT_FAIL),
        (["reconstruct", "k4.json", "k4.json", "swap.json"], EXIT_NOT_INDUCED),
        (["reconstruct", *P3], EXIT_PRECONDITION),
        (BOWTIE_REFUSALS[0][0], EXIT_PRECONDITION),
        (["enumerate", "k4.json", "--max-circuits", "2"], EXIT_PRECONDITION),
        (["enumerate", "absent.json"], EXIT_INPUT),
        (["verify", "k4.json"], EXIT_INPUT),
        (["--version"], EXIT_PASS),
    ], ids=["pass", "fail", "not-induced", "not-3-connected", "not-2-connected", "budget",
            "missing-file", "usage", "version"])
    def test_module_run_matches_main(self, instances, capsys, argv, code):
        child = spawn_module(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                             cwd=instances, text=True)
        out, err = child.communicate(timeout=60)
        try:
            in_process = main(argv)
        except SystemExit as done:  # argparse: usage errors and --version
            in_process = done.code
        captured = capsys.readouterr()
        assert child.returncode == in_process == code
        assert ELAPSED.sub("", out) == ELAPSED.sub("", captured.out)
        assert err == captured.err

    def test_module_run_writes_the_same_files_as_main(self, in_tmp, capsys):
        argv = ["generate", "random3c", "--n", "120", "--seed", "1"]
        (in_tmp / "spawned").mkdir()
        child = spawn_module(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                             cwd=in_tmp / "spawned", text=True)
        out, err = child.communicate(timeout=60)
        assert (child.returncode, err) == (main(argv), "") == (EXIT_PASS, "")
        assert ELAPSED.sub("", out) == ELAPSED.sub("", capsys.readouterr().out)
        name = "random3c_n120_s1.json"
        assert (in_tmp / "spawned" / name).read_bytes() == (in_tmp / name).read_bytes()
