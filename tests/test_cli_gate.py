"""Property gate for the command line: random argv over every subcommand.

Drives circuitmap.cli.main in process on valid, malformed and non-UTF-8
graph, map and cut files, on hypothesis-built documents, and on K7 under a
small --max-circuits. Whatever the input:

* nothing escapes main except argparse's SystemExit, with code 0 (help)
  or 1 (usage);
* every exit code is one of the documented 0-5, and none of these inputs
  reaches 5 (an internal fault);
* a report on stdout, or an `error:` line on stderr, explains every exit;
* exit 2 comes only with a `fail` report whose witness is a source circuit
  (checked with is_circuit) whose image is not a target circuit, or with
  a `decomposition_violation` report.
"""

from __future__ import annotations

import io
import json
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import HealthCheck, event, given, settings, strategies as st

from circuitmap import (
    build_counterexample,
    build_graph,
    edge_map_from_json,
    edge_map_to_json,
    edge_set_from_pairs,
    graph_from_json,
    graph_to_json,
    is_circuit,
    named_graph,
    permuted_edge_map,
)
from circuitmap.cli import EXIT_FAIL, EXIT_INTERNAL, main

LABELS = ["0", "1", "2", "3", "4", "5", "6"]
COMMANDS = ("verify", "reconstruct", "generate", "enumerate", "classify",
            "decompose", "crossing")


def k7():
    return build_graph(LABELS, [(u, v) for i, u in enumerate(LABELS)
                                for v in LABELS[i + 1:]])


def swapped_k4_doc():
    g = named_graph("K4")
    return {"map": [[list(g.edges[i]), list(g.edges[j])]
                    for i, j in zip(range(6), (5, 1, 2, 3, 4, 0))]}


def prism_onto_star_doc():
    """Prism to K33 sending the matching {a0a1, b0b1, a2b2} onto the star
    of b0: decompose at b0 reports a decomposition violation."""
    onto_star = {("a0", "a1"): 0, ("b0", "b1"): 1, ("a2", "b2"): 2}
    k33 = named_graph("K33").edges
    rest = iter(k33[3:])
    return {"map": [[list(e), list(k33[onto_star[e]] if e in onto_star else next(rest))]
                    for e in named_graph("prism").edges]}


def identity_doc(graph):
    return {"map": [[list(e), list(e)] for e in graph.edges]}


THETA, K33, CX = build_counterexample(3)
W5_ROTATION = permuted_edge_map(named_graph("W5"), {
    "hub": "hub", "r0": "r1", "r1": "r2", "r2": "r3", "r3": "r4", "r4": "r0"})
GRAPHS = {
    "k4": named_graph("K4"), "prism": named_graph("prism"), "k7": k7(),
    "k33": K33, "theta3": THETA, "w5": named_graph("W5"), "w5rot": W5_ROTATION.target,
    "q3": named_graph("Q3"), "bowtie2": named_graph("double_bowtie"),
    "c5": build_graph("01234", [(str(i), str((i + 1) % 5)) for i in range(5)]),
    "isolated": build_graph("abc", [("a", "b")]),
    "empty": build_graph([], []),
}


def fixed_documents():
    """name -> (kind, file bytes) for the fixed pool."""
    graphs = GRAPHS
    maps = {
        "k4_id": identity_doc(graphs["k4"]), "k4_swap": swapped_k4_doc(),
        "prism_id": identity_doc(graphs["prism"]), "k7_id": identity_doc(graphs["k7"]),
        "cx": edge_map_to_json(CX), "prism_star": prism_onto_star_doc(),
        "w5_rot": edge_map_to_json(W5_ROTATION), "empty_map": {"map": []},
    }
    cuts = {
        "prism_cut": [["a0", "b0"], ["a1", "b1"], ["a2", "b2"]],
        "theta_cut": [["u", "x_0_1"], ["u", "x_1_1"], ["u", "x_2_1"]],
        "k4_cut": [["0", "1"], ["2", "3"]],
        "bowtie2_cut": [["p1", "q1"], ["p2", "q3"], ["p3", "q2"], ["p4", "q4"]],
        "cut_bad_entry": [["0", 5]],
        "cut_not_list": {"cut": []},
    }
    docs = {}
    for kind, table in (("graph", {k: graph_to_json(g) for k, g in graphs.items()}),
                        ("map", maps), ("cut", cuts)):
        for name, data in table.items():
            text = json.dumps(data).encode("utf-8")
            docs[name] = (kind, text)
            docs[name + "_truncated"] = (kind, text[:len(text) // 2])
    docs.update({
        "not_utf8": ("any", b'{"vertices": ["\xe9"], "edges": []}'),
        "empty_file": ("any", b""),
        "open_brace": ("any", b"{"),
        "deep": ("any", b"[" * 50_000),
        "loop": ("graph", b'{"vertices": ["a"], "edges": [["a", "a"]]}'),
        "dup_edge": ("graph", b'{"vertices": ["a", "b"], "edges": [["a", "b"], ["b", "a"]]}'),
        "dup_vertex": ("graph", b'{"vertices": ["a", "a"], "edges": []}'),
        "unknown_end": ("graph", b'{"vertices": ["a"], "edges": [["a", "z"]]}'),
        "scalar": ("any", b"5"),
        "null": ("any", b"null"),
    })
    return docs


# (source, target, map) triples that belong together.
BUNDLES = [("k4", "k4", "k4_id"), ("k4", "k4", "k4_swap"),
           ("prism", "prism", "prism_id"), ("k7", "k7", "k7_id"),
           ("theta3", "k33", "cx"), ("prism", "k33", "prism_star"),
           ("w5", "w5rot", "w5_rot"), ("empty", "empty", "empty_map")]
# (graph, cut) pairs that belong together.
CUT_BUNDLES = [("prism", "prism_cut"), ("theta3", "theta_cut"), ("k4", "k4_cut"),
               ("bowtie2", "bowtie2_cut")]
# Graphs that take a hypothesis-built edge permutation or cut.
PERMUTABLE = ("k4", "prism", "w5", "k33", "c5", "theta3", "q3", "bowtie2")

DOCS = fixed_documents()


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli_gate")
    for name, (_, content) in DOCS.items():
        (root / f"{name}.json").write_bytes(content)
    (root / "a_directory.json").mkdir()
    return root


@pytest.fixture(scope="module")
def monkeypatch_chdir(workdir):
    """Run every example inside the pool directory, so relative paths and
    generated files stay there."""
    with pytest.MonkeyPatch.context() as patch:
        patch.chdir(workdir)
        yield


json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3) | st.sampled_from(LABELS[:4]),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(["vertices", "edges", "map"]), inner, max_size=3),
    max_leaves=12)
label = st.sampled_from(LABELS[:5])
pair = st.lists(label, min_size=2, max_size=2)
graph_docs = st.fixed_dictionaries({
    "vertices": st.lists(label, max_size=5, unique=True),
    "edges": st.lists(pair, max_size=8),
})
map_docs = st.fixed_dictionaries({"map": st.lists(st.lists(pair, min_size=2, max_size=2),
                                                  max_size=8)})


@st.composite
def file_arg(draw, kind, slot, root):
    """A path for one positional argument, writing a fresh document when
    hypothesis builds one."""
    choice = draw(st.sampled_from(["pool", "pool", "pool", "generated", "any", "missing"]))
    if choice == "missing":
        return draw(st.sampled_from(["missing.json", "a_directory.json"]))
    if choice == "generated":
        data = draw({"graph": graph_docs, "map": map_docs,
                     "cut": st.lists(pair, max_size=4)}[kind] | json_values)
        return write_doc(root, slot, data)
    names = sorted(n for n, (k, _) in DOCS.items()
                   if choice == "any" or k in (kind, "any"))
    return draw(st.sampled_from(names)) + ".json"


def write_doc(root, slot, data):
    (root / f"slot{slot}.json").write_text(json.dumps(data), encoding="utf-8")
    return f"slot{slot}.json"


@st.composite
def map_files(draw, root):
    """SOURCE TARGET MAP: a matching bundle, a graph with a hypothesis-built
    permutation of its edges as the map, or three independent files."""
    how = draw(st.sampled_from(["bundle", "permuted", "permuted", "files"]))
    if how == "bundle":
        return [f"{name}.json" for name in draw(st.sampled_from(BUNDLES))]
    if how == "permuted":
        name = draw(st.sampled_from(PERMUTABLE))
        edges = GRAPHS[name].edges
        order = draw(st.permutations(range(len(edges))))
        pairs = [[list(edges[i]), list(edges[j])] for i, j in enumerate(order)]
        return [f"{name}.json", f"{name}.json", write_doc(root, 2, {"map": pairs})]
    return [draw(file_arg(kind, slot, root))
            for slot, kind in enumerate(("graph", "graph", "map"))]


@st.composite
def cut_files(draw, root):
    """GRAPH CUT: a matching bundle, a graph with a hypothesis-built subset
    of its edges as the cut, or two independent files."""
    how = draw(st.sampled_from(["bundle", "subset", "subset", "files"]))
    if how == "bundle":
        return [f"{name}.json" for name in draw(st.sampled_from(CUT_BUNDLES))]
    if how == "subset":
        name = draw(st.sampled_from(PERMUTABLE))
        edges = GRAPHS[name].edges
        ids = draw(st.lists(st.integers(0, len(edges) - 1), min_size=1, max_size=5))
        return [f"{name}.json", write_doc(root, 1, [list(edges[i]) for i in ids])]
    return [draw(file_arg("graph", 0, root)), draw(file_arg("cut", 1, root))]


@st.composite
def argv_for(draw, root):
    command = draw(st.sampled_from(COMMANDS))
    argv = [command]
    if command == "generate":
        kind = draw(st.sampled_from(["counterexample", "named", "random3c"]))
        argv.append(kind)
        if kind == "counterexample":
            argv += ["--p", str(draw(st.integers(-2, 9)))]
        elif kind == "named":
            name = draw(st.sampled_from(["K4", "prism", "Q3", "W5", "wheel", "theta",
                                         "theta3", "nope", "w"]))
            argv += ["--name", name + draw(st.text("0123²x-", max_size=2))]
            if draw(st.booleans()):
                argv += ["--size", str(draw(st.integers(-1, 6)))]
        else:
            argv += ["--n", str(draw(st.integers(-2, 12)))]
            argv += ["--seed", str(draw(st.integers(-2, 5)))]
        argv += ["--out", draw(st.sampled_from(["out", "absent/out"]))]
    elif command == "crossing":
        argv += draw(cut_files(root))
    elif command == "enumerate":
        argv.append(draw(st.sampled_from(["k7.json", "q3.json"]) | file_arg("graph", 0, root)))
        if draw(st.booleans()):
            argv += ["--max-circuits", str(draw(st.sampled_from([1, 5, 50, 1171, 1172])))]
    else:
        argv += draw(map_files(root))
        if command == "verify":
            if draw(st.booleans()):
                argv += ["--mode", draw(st.sampled_from(["exhaustive", "sampled"]))]
            if draw(st.booleans()):
                argv += ["--samples", str(draw(st.integers(1, 60)))]
                argv += ["--seed", str(draw(st.integers(-3, 9)))]
            if draw(st.booleans()):
                argv += ["--max-circuits", str(draw(st.sampled_from([1, 5, 50, 1171])))]
        elif command == "decompose":
            argv += ["--vertex", draw(st.sampled_from(
                ["b0", "c0", "c1", "0", "1", "a0", "b1", "a", "nope", "hub", "r2", "p0"]))]
    argv += draw(st.sampled_from([[]] * 8 + [["--quiet"]]))
    argv += draw(st.sampled_from([[]] * 20 + [["--help"], ["--bogus"], ["--version"]]))
    return argv


def run_main(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as stop:
            assert stop.code in (0, 1), (argv, stop.code)
            code = None
    return code, out.getvalue(), err.getvalue()


def read_doc(root, name):
    return json.loads((root / name).read_text(encoding="utf-8"))


def check_fail_witness(root, argv, report):
    witness = report["witness"]
    assert witness is not None and witness["direction"] == "forward", report
    source = graph_from_json(read_doc(root, argv[1]))
    target = graph_from_json(read_doc(root, argv[2]))
    edge_map = edge_map_from_json(source, target, read_doc(root, argv[3]))
    circuit = edge_set_from_pairs(source, witness["circuit"])
    image = edge_set_from_pairs(target, witness["image"])
    assert is_circuit(source, circuit), report
    assert edge_map.image(circuit.members) == image.members, report
    assert not is_circuit(target, image), report


@settings(max_examples=500, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(data=st.data())
def test_every_argv_gets_a_documented_exit(workdir, monkeypatch_chdir, data):
    argv = data.draw(argv_for(workdir), label="argv")
    code, out, err = run_main(argv)
    event(f"{argv[0]} exit {code}")
    if code is None:  # argparse: help, version or a usage error
        return
    assert code in range(6), (argv, code)
    assert code != EXIT_INTERNAL, (argv, err)
    if out:
        report = json.loads(out)
        assert isinstance(report["elapsed_ms"], int)
        if code == EXIT_FAIL:
            assert report["result"] in ("fail", "decomposition_violation"), report
            if report["result"] == "fail":
                check_fail_witness(workdir, argv, report)
    elif err:
        assert code in (1, 4), (argv, code)
        assert err.startswith("error: ") and err.count("\n") == 1, (argv, err)
    else:  # a report suppressed by --quiet
        assert "--quiet" in argv, (argv, code)


def test_k7_under_small_budget_is_refused(workdir, monkeypatch_chdir):
    code, out, err = run_main(["verify", "k7.json", "k7.json", "k7_id.json",
                               "--max-circuits", "1171"])
    assert (code, out) == (4, "")
    assert err == "error: more than 1171 circuits\n"
