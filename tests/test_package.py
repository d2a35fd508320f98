"""The package surface and the CLI's start-up cost.

circuitmap loads its submodules on first use, and the CLI imports the
generators only for `generate`. These tests pin the public names, check
that every name the benchmark's tracer wraps is bound where it looks and
that the package imports nothing outside the standard library, and check
in fresh interpreters which modules a CLI run loads. The last test runs the
README's library example and quick start.
"""

import ast
import importlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import circuitmap
from circuitmap import (
    IndependentEdges,
    NotInducedError,
    build_counterexample,
    edge_map_to_json,
    graph_to_json,
    reconstruct_vertex_isomorphism,
)
from circuitmap.cli import main

SRC = str(Path(circuitmap.__file__).resolve().parent.parent)
ROOT = Path(__file__).resolve().parent.parent
TRACING = ROOT / "bench" / "tracing.py"

# Every public name, by the submodule that defines it.
PUBLIC = {
    "circuits": ["DEFAULT_MAX_CIRCUITS", "circuit_and_attached_path", "enumerate_circuits",
                 "is_circuit", "validate_attached_path"],
    "connectivity": ["cutpoints", "is_k_connected", "two_disjoint_paths"],
    "edge_maps": ["EdgeMap", "IndependentEdges", "MapWitness", "StarAt", "StarImageClass",
                  "StarViolation", "Verdict", "VertexIso", "check_circuit_injection",
                  "check_circuit_isomorphism", "classify_star_image",
                  "classify_star_preimage", "edge_map_from_json", "edge_map_to_json",
                  "is_induced_by", "reconstruct_vertex_isomorphism"],
    "errors": ["CircuitMapError", "DecompositionViolationError", "InputError",
               "InternalError", "NotInducedError", "PreconditionError"],
    "generators": ["build_counterexample", "complete_bipartite", "named_graph",
                   "permuted_edge_map", "random_three_connected", "random_two_connected",
                   "theta_graph"],
    "graph": ["Circuit", "EdgeSet", "Graph", "Path", "build_graph", "edge_set_from_pairs",
              "graph_from_json", "graph_to_json", "induced_subgraph"],
    "structure": ["LinkedCircuitPair", "decompose_by_star_preimage",
                  "find_crossing_structure", "validate_linked_pair"],
}
NAMES = [(module, name) for module, names in PUBLIC.items() for name in names]
SUBMODULES = ["circuits", "cli", "connectivity", "edge_maps", "errors", "generators",
              "graph", "rng", "structure"]


def test_public_surface_has_50_names():
    assert len(NAMES) == 50
    assert len({name for _, name in NAMES}) == 50


@pytest.mark.parametrize("module,name", NAMES)
def test_public_name_is_its_home_object(module, name):
    namespace = {}
    exec(f"from circuitmap import {name}", namespace)
    assert namespace[name] is getattr(sys.modules[f"circuitmap.{module}"], name)
    assert name in dir(circuitmap)


def test_star_import_serves_every_name():
    namespace = {}
    exec("from circuitmap import *", namespace)
    assert {name for _, name in NAMES} | {"__version__"} <= set(namespace)


def test_version_is_a_plain_global():
    assert "__version__" in vars(circuitmap)
    assert circuitmap.__version__ == "0.1.0"
    assert "__version__" in dir(circuitmap)


def pyproject_table(name: str) -> dict[str, str]:
    """The `key = value` lines of one table of pyproject.toml, values unparsed
    (tomllib is not in the standard library before Python 3.11)."""
    lines = (ROOT / "pyproject.toml").read_text(encoding="utf-8").splitlines()
    table = {}
    for line in lines[lines.index(f"[{name}]") + 1:]:
        if line.startswith("["):
            break
        if line.strip():
            key, _, value = line.partition("=")
            table[key.strip()] = value.strip()
    return table


def test_console_script_is_cli_run_and_reports_the_project_version():
    # The installed `circuitmap` script reaches the same entry function as
    # `python -m circuitmap`, and --version prints the project's version.
    assert pyproject_table("project.scripts") == {"circuitmap": '"circuitmap.cli:run"'}
    assert pyproject_table("project")["version"] == f'"{circuitmap.__version__}"'


@pytest.mark.parametrize("path", sorted(Path(circuitmap.__file__).parent.glob("*.py")),
                         ids=lambda path: path.name)
def test_package_imports_only_the_standard_library(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                for alias in node.names]
    imported += [node.module for node in ast.walk(tree)
                 if isinstance(node, ast.ImportFrom) and node.level == 0]
    assert {name.partition(".")[0] for name in imported} <= sys.stdlib_module_names


FREEZING_CONSTRUCTORS = {"Graph", "EdgeSet", "Path", "Circuit", "EdgeMap", "VertexIso", "cls"}


@pytest.mark.parametrize("path", sorted(Path(circuitmap.__file__).parent.glob("*.py")),
                         ids=lambda path: path.name)
def test_no_caller_freezes_a_value_constructor_argument(path):
    # Each validating constructor stores its containers as tuples or
    # frozensets itself, so no call to one wraps an argument in tuple() or
    # frozenset().
    tree = ast.parse(path.read_text(encoding="utf-8"))
    frozen = [
        f"line {node.lineno}: {node.func.id}({arg.func.id}(...))"
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
        and node.func.id in FREEZING_CONSTRUCTORS
        for arg in [*node.args, *(k.value for k in node.keywords)]
        if isinstance(arg, ast.Call) and isinstance(arg.func, ast.Name)
        and arg.func.id in ("tuple", "frozenset")
    ]
    assert frozen == []


def test_unknown_name_is_an_attribute_error():
    assert not hasattr(circuitmap, "no_such_name")
    with pytest.raises(AttributeError, match="no_such_name"):
        circuitmap.no_such_name
    with pytest.raises(ImportError):
        exec("from circuitmap import no_such_name", {})


def tracer_bindings():
    """(module, attribute) of every wrapper the benchmark's tracer installs,
    read from the WRAPPED literal without importing the tracer."""
    wrapped = next(node.value for node in ast.parse(TRACING.read_text()).body
                   if isinstance(node, ast.Assign)
                   and [t.id for t in node.targets] == ["WRAPPED"])
    return [(module, attr) for module, attr, _ in ast.literal_eval(wrapped)]


@pytest.mark.parametrize("module,attr", [
    pytest.param(*binding, id=".".join(binding)) for binding in tracer_bindings()
    # The CLI imports the generators only for `generate`; the tracer skips
    # this entry and times the generator through its own module.
    if binding != ("cli", "random_three_connected")])
def test_tracer_wraps_a_bound_name(module, attr):
    assert callable(getattr(importlib.import_module(f"circuitmap.{module}"), attr))


def run_fresh(code: str, *argv: str, site: bool = True) -> str:
    """Run code in a fresh interpreter that compiles every module it imports;
    site=False starts it under -S, with no site hooks."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
               PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    flags = [] if site else ["-S"]
    done = subprocess.run([sys.executable, *flags, "-c", code, *argv], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_bare_import_loads_no_submodule_and_reaches_all():
    out = run_fresh(
        "import sys, circuitmap\n"
        "print(*sorted(m for m in sys.modules if m.startswith('circuitmap.')))\n"
        f"for name in {SUBMODULES!r}:\n"
        "    assert getattr(circuitmap, name) is sys.modules['circuitmap.' + name], name\n"
        "print('ok')\n")
    assert out.splitlines() == ["", "ok"]


def test_cli_start_up_skips_dataclasses_typing_and_generators(tmp_path):
    source, target, edge_map = build_counterexample(3)
    files = {"source.json": graph_to_json(source), "target.json": graph_to_json(target),
             "map.json": edge_map_to_json(edge_map)}
    for name, data in files.items():
        (tmp_path / name).write_text(json.dumps(data), encoding="utf-8")
    paths = [str(tmp_path / name) for name in files]

    # Compared with a bare interpreter, so a site hook that imports one of
    # these modules itself cannot make the test fail.
    bare = set(run_fresh("import sys; print(*sys.modules)").split())
    out = run_fresh(
        "import sys\n"
        "import circuitmap.cli\n"
        "print(*sys.modules)\n"
        "codes = [circuitmap.cli.main([command, *sys.argv[1:4], '--quiet'])\n"
        "         for command in ('verify', 'reconstruct', 'classify')]\n"
        "print(*codes, 'circuitmap.generators' in sys.modules)\n", *paths)
    loaded, outcome = out.splitlines()
    added = set(loaded.split()) - bare
    assert "circuitmap.cli" in added
    assert not added & {"dataclasses", "inspect", "typing", "circuitmap.generators"}
    # verify passes, reconstruct refuses the 2-connected source, classify runs.
    assert outcome == "0 4 0 False"


def test_cli_import_loads_neither_pathlib_nor_generators():
    # Under -S, so that no site hook has loaded pathlib before the CLI does.
    out = run_fresh("import sys, circuitmap.cli\n"
                    "print(*sorted({'pathlib', 'circuitmap.generators'} & set(sys.modules)))\n",
                    site=False)
    assert out == "\n"


def test_readme_examples_hold(tmp_path, monkeypatch, capsys):
    readme = (ROOT / "README.md").read_text()
    library = re.search(r"^## Library\n.*?^```python\n(.*?)^```$", readme, re.M | re.S)[1]
    transcript = re.search(r"^## Quick start\n.*?^```sh\n(.*?)^```$", readme, re.M | re.S)[1]
    # The library example, with each line commented # True or # False asserted.
    code, claims = re.subn(r"^(.+?)\s+# (True|False)$", r"assert (\1) is \2", library,
                           flags=re.M)
    assert claims
    exec(code, {})
    # The quick start transcript, run in process: each command prints the
    # README's report up to elapsed_ms and exits with the status it echoes.
    monkeypatch.chdir(tmp_path)
    statuses = []
    for command, printed in re.findall(r"^\$ ((?:.*\\\n)*.*)\n((?:(?!\$ ).*\n)*)",
                                       transcript, re.M):
        argv = command.replace("\\\n", " ").split()
        if argv == ["echo", "$?"]:
            assert statuses[-1] == int(printed)
            continue
        assert argv[0] == "circuitmap"
        statuses.append(main(argv[1:]))
        report, expected = json.loads(capsys.readouterr().out), json.loads(printed)
        assert report.pop("elapsed_ms") >= 0 and expected.pop("elapsed_ms") >= 0
        assert report == expected
    assert statuses == [0, 0, 4]
    # The prose under it: without the guard, reconstruction names the vertex
    # whose star image has no common center.
    _, _, f = build_counterexample(3)
    with pytest.raises(NotInducedError) as refused:
        reconstruct_vertex_isomorphism(f, check_connectivity=False)
    assert refused.value.vertex == "x_0_1"
    assert refused.value.star_class == IndependentEdges()
