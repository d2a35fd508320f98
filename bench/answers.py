"""Judge one CLI invocation against its instance's known answer.

Every check here is the benchmark's own: witnesses are tested with a
circuit test written below (every touched vertex has degree 2 and the
edges are connected), never with the library's.
"""

from __future__ import annotations

import hashlib
import json
import re
from pathlib import Path

DOCUMENTED_EXITS = {0, 1, 2, 3, 4}
BUDGET_REFUSAL = re.compile(r"^error: more than \d+ circuits", re.MULTILINE)

# Outcome statuses. ok and miss are correct; undecided is a documented
# refusal; wrong, crash and timeout are failures.
FAILED = ("wrong", "crash", "timeout")


def key(pair) -> frozenset:
    return frozenset(pair)


def is_circuit(pairs) -> bool:
    """Does this list of endpoint pairs form exactly one simple cycle?"""
    keys = [key(p) for p in pairs]
    if not keys or len(set(keys)) != len(keys) or any(len(k) != 2 for k in keys):
        return False
    adj: dict[str, list[str]] = {}
    for u, v in pairs:
        adj.setdefault(u, []).append(v)
        adj.setdefault(v, []).append(u)
    if any(len(nbrs) != 2 for nbrs in adj.values()):
        return False
    start = next(iter(adj))
    seen, stack = {start}, [start]
    while stack:
        for y in adj[stack.pop()]:
            if y not in seen:
                seen.add(y)
                stack.append(y)
    return len(seen) == len(adj)


def edge_keys(graph: dict) -> set:
    return {key(e) for e in graph["edges"]}


def judge(inst, code: int | None, out: str, err: str, timed_out: bool) -> tuple[str, str]:
    """Return (status, detail) for one finished invocation."""
    if timed_out:
        return "timeout", "timeout"
    if "Traceback (most recent call last)" in err or code not in DOCUMENTED_EXITS:
        lines = [ln for ln in err.strip().splitlines() if ln.strip()]
        return "crash", lines[-1].split(":")[0] if lines else f"exit {code}"
    if (code == 4 and inst.expect in ("pass", "fail") and "sampled" not in inst.argv
            and BUDGET_REFUSAL.search(err)):
        return "undecided", "circuit budget"
    try:
        report = json.loads(out)
    except json.JSONDecodeError:
        return "wrong", f"exit {code} without a JSON report: {err.strip()[:120]}"
    problem = CHECKS[inst.expect](inst, code, report)
    if problem == "miss":
        return "miss", "sampled pass on a known non-injection"
    return ("wrong", problem) if problem else ("ok", "")


def expect_exit(code, report, want_code, want_result):
    if code != want_code or report.get("result") != want_result:
        return f"expected exit {want_code} {want_result}, got exit {code} {report.get('result')}"
    return None


def check_induced(inst, code, report):
    problem = expect_exit(code, report, 0, "induced")
    if problem:
        return problem
    vmap = report.get("vertex_map")
    if not isinstance(vmap, dict) or set(vmap) != set(inst.source["vertices"]):
        return "vertex_map does not cover the source vertices"
    if sorted(vmap.values()) != sorted(inst.target["vertices"]):
        return "vertex_map is not a bijection onto the target vertices"
    for (u, v), image in inst.mapping:
        if key((vmap[u], vmap[v])) != key(image):
            return f"vertex_map does not induce the image of {u}-{v}"
    return None


def check_not_induced(inst, code, report):
    return expect_exit(code, report, 3, "not_induced")


def check_not_three_connected(inst, code, report):
    return expect_exit(code, report, 4, "not_three_connected")


def check_pass(inst, code, report):
    problem = expect_exit(code, report, 0, "pass")
    if problem:
        return problem
    checked = report.get("circuits_checked")
    if "sampled" in inst.argv:
        if not isinstance(checked, int) or not 1 <= checked <= sampled_limit(inst):
            return f"sampled pass checked {checked} circuits"
    elif inst.circuits is not None and checked != inst.circuits:
        return f"checked {checked} circuits, the source has {inst.circuits}"
    elif not isinstance(checked, int) or checked < 1:
        return f"exhaustive pass checked {checked} circuits"
    return None


def sampled_limit(inst) -> int:
    return int(inst.argv[inst.argv.index("--samples") + 1])


def check_fail(inst, code, report):
    problem = expect_exit(code, report, 2, "fail")
    return problem or check_witness(inst, report.get("witness"))


def check_fail_or_miss(inst, code, report):
    if code == 0 and report.get("result") == "pass":
        return check_pass(inst, code, report) or "miss"
    return check_fail(inst, code, report)


def check_witness(inst, witness):
    if not isinstance(witness, dict) or witness.get("direction") != "forward":
        return "fail without a forward witness"
    circuit, image = witness.get("circuit"), witness.get("image")
    source_edges = edge_keys(inst.source)
    if not circuit or any(key(p) not in source_edges for p in circuit):
        return "witness circuit uses edges the source lacks"
    if not is_circuit(circuit):
        return "witness circuit is not a circuit"
    forward = {key(e): key(img) for e, img in inst.mapping}
    if {forward[key(p)] for p in circuit} != {key(p) for p in image or ()}:
        return "witness image is not the image of the witness circuit"
    if is_circuit(image):
        return "witness image is a circuit"
    return None


def check_circuit_branch(inst, code, report):
    problem = expect_exit(code, report, 0, "circuit")
    if problem:
        return problem
    circuit = report.get("circuit") or []
    if any(key(p) not in edge_keys(inst.source) for p in circuit) or not is_circuit(circuit):
        return "reported circuit is not a circuit of the graph"
    used = len({key(p) for p in circuit} & {key(p) for p in inst.extra["cut"]})
    if used < 4 or report.get("crossing_edges_used") != used:
        return f"circuit uses {used} crossing edges, report says {report.get('crossing_edges_used')}"
    return None


def check_linked_pair(inst, code, report):
    problem = expect_exit(code, report, 0, "linked_pair")
    if problem:
        return problem
    w = report.get("witness") or {}
    edges = edge_keys(inst.source)
    cut = {key(p) for p in inst.extra["cut"]}
    circuits = [w.get("circuit_a") or [], w.get("circuit_b") or []]
    for c in circuits:
        if any(key(p) not in edges for p in c) or not is_circuit(c):
            return "a linked-pair circuit is not a circuit of the graph"
    va, vb = ({x for p in c for x in p} for c in circuits)
    if va & vb:
        return "the linked circuits share a vertex"
    bridges = [key(p) for p in w.get("bridges") or []]
    if len(set(bridges)) != 2 or not set(bridges) <= cut:
        return "bridges are not two crossing edges"
    if any(len(b & va) != 1 or len(b & vb) != 1 for b in bridges):
        return "a bridge does not join the two circuits"
    path = w.get("path_vertices") or []
    steps = [key(p) for p in zip(path, path[1:])]
    if len(steps) < 1 or any(s not in edges for s in steps) or len(set(path)) != len(path):
        return "connector path is not a path of the graph"
    if path[0] not in va or path[-1] not in vb or set(path[1:-1]) & (va | vb):
        return "connector path does not run between the circuits"
    if key(w.get("path_edge") or ()) not in cut or key(w.get("path_edge") or ()) not in steps:
        return "designated connector is not a crossing edge on the path"
    return None


def check_artifact(inst, code, report):
    problem = expect_exit(code, report, 0, "ok")
    if problem:
        return problem
    path = Path(inst.extra["path"])
    if report.get("files") != [str(path)] or not path.is_file():
        return f"generate reported {report.get('files')}"
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    if digest != inst.extra["sha256"]:
        return f"artifact digest {digest[:12]} differs from the pinned {inst.extra['sha256'][:12]}"
    return None


CHECKS = {
    "induced": check_induced,
    "not_induced": check_not_induced,
    "not_three_connected": check_not_three_connected,
    "pass": check_pass,
    "fail": check_fail,
    "fail_or_miss": check_fail_or_miss,
    "circuit": check_circuit_branch,
    "linked_pair": check_linked_pair,
    "artifact": check_artifact,
}
