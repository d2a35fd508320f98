"""Re-measure the ROADMAP "Baseline" table with in-process timings.

Usage: python3 bench/baseline.py

Each row times the same operation the table names, in this process
(median of several repeats, one repeat for the slow rows), or as a whole
CLI subprocess for the CLI rows. The output is a markdown table with the
ROADMAP's figure beside the measured one; BASELINE.md keeps a copy with
notes on the rows that differ.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

from circuitmap import connectivity, generators  # noqa: E402
from circuitmap.circuits import enumerate_circuits  # noqa: E402
from circuitmap.edge_maps import (  # noqa: E402
    check_circuit_injection,
    check_circuit_isomorphism,
    edge_map_to_json,
    reconstruct_vertex_isomorphism,
)
from circuitmap.errors import TooManyCircuitsError  # noqa: E402
from circuitmap.graph import graph_from_json, graph_to_json  # noqa: E402

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

GEN_SEED = 7  # gives the table's m = 96 / 236 at n = 40 / 80


def timed(fn, *args, repeats=5, **kwargs) -> float:
    """Median wall time in ms; an exception ends the call and is timed too."""
    times = []
    for _ in range(repeats):
        start = perf_counter()
        try:
            fn(*args, **kwargs)
        except TooManyCircuitsError:
            pass
        times.append((perf_counter() - start) * 1e3)
    return statistics.median(times)


def relabelled(graph):
    mapping = {v: f"t{v}" for v in graph.vertices}
    return generators.permuted_edge_map(graph, mapping)


def cli_ms(argv, repeats=5) -> tuple[float, int]:
    env = run.child_env()
    times, code = [], None
    for _ in range(repeats):
        start = perf_counter()
        code = subprocess.run([sys.executable, "-m", "circuitmap", *argv], env=env,
                              capture_output=True, check=False).returncode
        times.append((perf_counter() - start) * 1e3)
    return statistics.median(times), code


def write_instance(directory: Path, name: str, edge_map) -> list[str]:
    files = []
    for part, data in (("source", graph_to_json(edge_map.source)),
                       ("target", graph_to_json(edge_map.target)),
                       ("map", edge_map_to_json(edge_map))):
        path = directory / f"{name}.{part}.json"
        path.write_text(json.dumps(data))
        files.append(str(path))
    return files


def guard_calls(n: int, seed: int) -> int:
    rec = tracing.Recorder()
    with tracing.instrumented(rec):
        generators.random_three_connected(n, seed)
    return sum(1 for s in rec.spans if s.name == "connectivity.is_k_connected")


def main() -> None:
    rows = []
    graphs = {n: generators.random_three_connected(n, GEN_SEED) for n in (20, 40, 80)}
    maps = {n: relabelled(g) for n, g in graphs.items()}
    ms = "/".join(str(g.edge_count()) for g in graphs.values())
    rows.append(("`reconstruct_vertex_isomorphism`", f"random3c n=20/40/80 (m={ms})",
                 "1.6 / 12.7 / 114 ms",
                 " / ".join(f"{timed(reconstruct_vertex_isomorphism, maps[n]):.1f}"
                            for n in graphs) + " ms"))
    rows.append(("same, `check_connectivity=False`", "n=80", "0.8 ms",
                 f"{timed(reconstruct_vertex_isomorphism, maps[80], check_connectivity=False):.2f} ms"))
    rows.append(("`is_k_connected(g, 3)`", "n=80", "124 ms",
                 f"{timed(connectivity.is_k_connected, graphs[80], 3):.0f} ms"))
    kpp = {p: generators.complete_bipartite(p) for p in (7, 11)}
    rows.append(("`is_k_connected(K_{p,p}, p)`", "p=7 / 11", "22 ms / 6.3 s",
                 f"{timed(connectivity.is_k_connected, kpp[7], 7):.0f} ms / "
                 f"{timed(connectivity.is_k_connected, kpp[11], 11, repeats=1) / 1e3:.1f} s"))
    rows.append(("`random_three_connected`", f"n=80 / 120, seed {GEN_SEED}", "0.14 / 0.54 s",
                 f"{timed(generators.random_three_connected, 80, GEN_SEED, repeats=3) / 1e3:.2f} / "
                 f"{timed(generators.random_three_connected, 120, GEN_SEED, repeats=3) / 1e3:.2f} s"))
    k7_graph = graph_from_json(workloads.complete(7))
    rows.append(("`enumerate_circuits`", "K7 (1,172 circuits)", "8.9 ms",
                 f"{timed(enumerate_circuits, k7_graph):.1f} ms"))
    rows.append(("`check_circuit_isomorphism`", "K7", "30 ms",
                 f"{timed(check_circuit_isomorphism, relabelled(k7_graph)):.0f} ms"))
    _, _, cx7 = generators.build_counterexample(7)
    rows.append(("`check_circuit_isomorphism`", "p=7 counterexample",
                 "`TooManyCircuitsError` after 0.46 s",
                 f"`TooManyCircuitsError` after "
                 f"{timed(check_circuit_isomorphism, cx7, repeats=3) / 1e3:.2f} s"))
    rows.append(("sampled verify, 500 samples", "n=20 to 80", "23 to 31 ms, flat",
                 " / ".join(f"{timed(check_circuit_injection, maps[n], 'sampled'):.0f}"
                            for n in graphs) + " ms"))

    with tempfile.TemporaryDirectory(dir=ROOT / ".bench_work") as tmp:
        tmp = Path(tmp)
        cx5 = write_instance(tmp, "cx5", generators.build_counterexample(5)[2])
        rc80 = write_instance(tmp, "rc80", maps[80])
        t, code = cli_ms(["verify", *cx5])
        rows.append(("CLI `verify`", "counterexample p=5", "140 to 170 ms", f"{t:.0f} ms, exit {code}"))
        t, code = cli_ms(["reconstruct", *rc80])
        rows.append(("CLI `reconstruct`", "random3c n=80", "340 ms", f"{t:.0f} ms, exit {code}"))
        t, code = cli_ms(["verify", *rc80], repeats=1)
        rows.append(("CLI exhaustive `verify`", "random3c n=80, induced map",
                     "3.4 s, then exit 4 (circuit budget)", f"{t / 1e3:.1f} s, exit {code}"))
        rows.append(("`import circuitmap`", "—", "about 31 ms",
                     f"{run.import_ms(run.child_env(), tmp):.0f} ms (`circuitmap.cli`, "
                     "minus a bare interpreter start)"))

    print("| operation | size | ROADMAP | measured |")
    print("|---|---|---|---|")
    for row in rows:
        print("| " + " | ".join(row) + " |")
    print()
    print("guard calls per `random_three_connected` graph (seeds 1-10):")
    for n in (20, 40, 80, 120):
        print(f"  n={n}: {[guard_calls(n, s) for s in range(1, 11)]}")


if __name__ == "__main__":
    (ROOT / ".bench_work").mkdir(exist_ok=True)
    main()
