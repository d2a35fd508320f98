"""The benchmark's workloads: instances built from a seed, with known answers.

Each instance is a `python -m circuitmap` invocation on files written here,
plus the answer its construction implies. Answers never come from the
library under test:

* a map read off a vertex relabelling is induced, so `verify` passes and
  `reconstruct` returns that relabelling;
* swapping the images of two vertex-disjoint edges e1, e2 breaks every
  circuit through e1 that avoids e2 (its image is a path plus one edge not
  closing it), and such a circuit exists because e1's ends stay joined once
  e1 and e2 are deleted. When every vertex has degree at least 3, no vertex
  map induces the swapped map either;
* the theta graph onto K_{p,p} is a circuit injection from a 2-connected,
  not 3-connected source, so `verify` passes and `reconstruct` refuses;
* two 3-connected halves joined by a 4-edge matching are 3-connected and
  take the linked-pair branch of `crossing`; gluing two 3-connected blocks
  at a cutpoint on one side keeps the whole graph 3-connected (each block
  keeps two matching edges) and takes the circuit branch.

The random 3- and 2-connected graphs come from the library's generators,
with generator seeds drawn from the pinned pool in pool.json.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from math import comb, factorial
from pathlib import Path

POOL = json.loads(Path(__file__).with_name("pool.json").read_text())

SAMPLES = 500

# Passes an end-to-end run makes per 30 s of --seconds: enough whole passes
# to leave at least ten samples beyond the p90, taking 20 to 30 s on the
# 2-vCPU virtual machine the benchmark was sized on. A fixed count keeps the
# sample count, and so the tail's percentile, the same on every run of a
# workload, however fast or slow the machine is at the time.
PASSES_PER_30S = {"guard_3c": 8, "verify_exhaustive": 8, "verify_sampled": 9}


@dataclass
class Instance:
    """One CLI invocation and the answer it must produce.

    expect is one of: induced, not_induced, not_three_connected (reconstruct);
    pass, fail, fail_or_miss (verify); linked_pair, circuit (crossing);
    artifact (generate).
    """

    name: str
    argv: list[str]
    expect: str
    source: dict | None = None
    target: dict | None = None
    mapping: list | None = None
    circuits: int | None = None          # known source circuit count
    extra: dict = field(default_factory=dict)


# -- graph construction (plain dicts in the CLI's wire format) -----------------


def as_dict(graph) -> dict:
    return {"vertices": list(graph.vertices), "edges": [list(e) for e in graph.edges]}


def complete(n: int) -> dict:
    vs = [str(i) for i in range(n)]
    return {"vertices": vs, "edges": [[vs[i], vs[j]] for i in range(n) for j in range(i + 1, n)]}


def cycle(n: int) -> dict:
    vs = [f"v{i}" for i in range(n)]
    return {"vertices": vs, "edges": [[vs[i], vs[(i + 1) % n]] for i in range(n)]}


def counterexample(p: int) -> tuple[dict, dict, list]:
    """Theta graph with p paths of p edges onto K_{p,p}: edge j of path i
    goes to (b_j, c_{(i+j) mod p})."""
    theta = {"vertices": ["u", "w"] + [f"x_{i}_{k}" for i in range(p) for k in range(1, p)],
             "edges": []}
    kpp = {"vertices": [f"b{j}" for j in range(p)] + [f"c{t}" for t in range(p)],
           "edges": [[f"b{j}", f"c{t}"] for j in range(p) for t in range(p)]}
    mapping = []
    for i in range(p):
        for j in range(p):
            lo = "u" if j == 0 else f"x_{i}_{j}"
            hi = "w" if j == p - 1 else f"x_{i}_{j + 1}"
            theta["edges"].append([lo, hi])
            mapping.append([[lo, hi], [f"b{j}", f"c{(i + j) % p}"]])
    return theta, kpp, mapping


def complete_circuits(n: int) -> int:
    return sum(comb(n, k) * factorial(k - 1) // 2 for k in range(3, n + 1))


def relabel(graph: dict, rng: random.Random) -> tuple[dict, list]:
    """A relabelled copy with shuffled edge order, and the induced map."""
    names = [f"w{i}" for i in range(len(graph["vertices"]))]
    rng.shuffle(names)
    rename = dict(zip(graph["vertices"], names))
    images = []
    for u, v in graph["edges"]:
        pair = [rename[u], rename[v]]
        if rng.random() < 0.5:
            pair.reverse()
        images.append(pair)
    order = list(range(len(images)))
    rng.shuffle(order)
    target = {"vertices": sorted(names), "edges": [images[k] for k in order]}
    mapping = [[list(e), images[k]] for k, e in enumerate(graph["edges"])]
    return target, mapping


def joined_without(graph: dict, u: str, v: str, removed: set[int]) -> bool:
    adj: dict[str, list[str]] = {x: [] for x in graph["vertices"]}
    for k, (a, b) in enumerate(graph["edges"]):
        if k not in removed:
            adj[a].append(b)
            adj[b].append(a)
    seen, stack = {u}, [u]
    while stack:
        for y in adj[stack.pop()]:
            if y not in seen:
                seen.add(y)
                stack.append(y)
    return v in seen


def swap_two_images(graph: dict, mapping: list, rng: random.Random) -> list:
    """The map with the images of two vertex-disjoint edges exchanged, chosen
    so that some circuit holds the first edge and not the second."""
    edges = graph["edges"]
    while True:
        i, j = rng.sample(range(len(edges)), 2)
        if set(edges[i]) & set(edges[j]):
            continue
        if joined_without(graph, *edges[i], {i, j}):
            break
    out = [list(entry) for entry in mapping]
    out[i] = [mapping[i][0], mapping[j][1]]
    out[j] = [mapping[j][0], mapping[i][1]]
    return out


def tagged(graph: dict, tag: str) -> dict:
    return {"vertices": [tag + v for v in graph["vertices"]],
            "edges": [[tag + u, tag + v] for u, v in graph["edges"]]}


# -- workload builders -----------------------------------------------------------


class Builder:
    """Writes instance files into one directory and collects the instances."""

    def __init__(self, generators, seed: int, workdir: Path):
        self.gen = generators
        self.rng = random.Random(seed)
        self.dir = workdir
        self.instances: list[Instance] = []

    def pick(self, family: str) -> dict:
        return self.rng.choice(POOL[family])

    def random3c(self, n: int, pool: str = "") -> dict:
        row = self.pick(f"random3c/{n}{pool}")
        return as_dict(self.gen.random_three_connected(n, row["seed"]))

    def write(self, name: str, data) -> str:
        path = self.dir / f"{name}.json"
        path.write_text(json.dumps(data, indent=2) + "\n", encoding="utf-8")
        return str(path)

    def instance(self, command: str, label: str, kind: str | None, source: dict,
                 target: dict, mapping: list, expect: str, options=(), circuits=None) -> None:
        """One map between one pair of graphs, written to files."""
        argv = [command, self.write(f"{label}.source", source),
                self.write(f"{label}.target", target),
                self.write(f"{label}.{kind or 'given'}.map", {"map": mapping}), *options]
        name = f"{command}/{label}" + (f"/{kind}" if kind else "")
        self.add(name, argv, expect, source, target, mapping, circuits)

    def map_pair(self, command: str, label: str, graph: dict, expect_pass: str,
                 expect_swap: str, circuits=None) -> None:
        """The relabelled map and its two-image swap, on one pair of graphs."""
        target, mapping = relabel(graph, self.rng)
        self.instance(command, label, "relabelled", graph, target, mapping, expect_pass,
                      circuits=circuits)
        self.instance(command, label, "swapped", graph, target,
                      swap_two_images(graph, mapping, self.rng), expect_swap)

    def add(self, name, argv, expect, source=None, target=None, mapping=None,
            circuits=None, **extra) -> None:
        self.instances.append(Instance(name, argv, expect, source, target, mapping,
                                       circuits, extra))


def guard_3c(b: Builder) -> None:
    for n in (40, 80, 120):
        b.map_pair("reconstruct", f"rc{n}", b.random3c(n), "induced", "not_induced")
    for p in (5, 7):
        b.instance("reconstruct", f"cx{p}", None, *counterexample(p), "not_three_connected")

    # Linked-pair branch: both sides 3-connected.
    side_a, side_b = tagged(b.random3c(60), "a"), tagged(b.random3c(60), "b")
    crossing_instance(b, "linked", side_a, [side_a["vertices"]], side_b, "linked_pair")

    # Circuit branch: side A is two 3-connected blocks glued at a cutpoint.
    block_1, block_2 = tagged(b.random3c(20), "a"), tagged(b.random3c(20), "c")
    glue_1, glue_2 = b.rng.choice(block_1["vertices"]), b.rng.choice(block_2["vertices"])
    rename = {glue_2: glue_1}
    block_2 = {"vertices": [rename.get(v, v) for v in block_2["vertices"]],
               "edges": [[rename.get(u, u), rename.get(v, v)] for u, v in block_2["edges"]]}
    side_a = {"vertices": block_1["vertices"] + [v for v in block_2["vertices"] if v != glue_1],
              "edges": block_1["edges"] + block_2["edges"]}
    blocks = [[v for v in blk["vertices"] if v != glue_1] for blk in (block_1, block_2)]
    crossing_instance(b, "glued", side_a, blocks, tagged(b.random3c(45), "b"), "circuit")

    for n in (40, 80, 120):
        row = b.pick(f"random3c/{n}")
        prefix = b.dir / f"gen_n{n}"
        argv = ["generate", "random3c", "--n", str(n), "--seed", str(row["seed"]),
                "--out", str(prefix)]
        b.add(f"generate/rc{n}", argv, "artifact", path=f"{prefix}.json", sha256=row["sha256"])


def crossing_instance(b: Builder, label: str, side_a: dict, groups: list[list[str]],
                      side_b: dict, expect: str) -> None:
    """Join side_a to side_b by a 4-edge matching, spread evenly over the
    vertex groups of side_a, and certify the matching with `crossing`."""
    ends_a = [v for group in groups for v in b.rng.sample(group, 4 // len(groups))]
    ends_b = b.rng.sample(side_b["vertices"], 4)
    cut = [[a, z] for a, z in zip(ends_a, ends_b)]
    graph = {"vertices": side_a["vertices"] + side_b["vertices"],
             "edges": side_a["edges"] + side_b["edges"] + cut}
    argv = ["crossing", b.write(f"{label}.graph", graph), b.write(f"{label}.cut", cut)]
    b.add(f"crossing/{label}", argv, expect, graph, cut=cut)


def verify_exhaustive(b: Builder) -> None:
    for n in (7, 8):
        b.map_pair("verify", f"K{n}", complete(n), "pass", "fail",
                   circuits=complete_circuits(n))
    for n in (12, 14, 15):
        b.map_pair("verify", f"rc{n}", b.random3c(n), "pass", "fail")
    for p in (3, 5, 7, 11, 13):
        b.instance("verify", f"cx{p}", None, *counterexample(p), "pass", circuits=comb(p, 2))
    # Past the circuit budget: the known answer is a pass, and a refusal
    # (exit 4) counts as undecided.
    graph = b.random3c(20, "/refusal")
    b.instance("verify", "rc20", None, graph, *relabel(graph, b.rng), "pass")
    # One circuit, but deep enough to overflow a recursive search.
    graph = cycle(1500)
    b.instance("verify", "cycle1500", None, graph, *relabel(graph, b.rng), "pass", circuits=1)


def verify_sampled(b: Builder) -> None:
    # A sampled run on a swapped map stops at the first broken circuit it
    # draws, which may come early or never, so the relabelled maps (two
    # sampling seeds each) are the larger share and hold the median.
    for n in (1000, 2000):
        for rank in ("low", "high"):
            graph = as_dict(b.gen.random_two_connected(n, b.pick(f"random2c/{n}/{rank}")["seed"]))
            target, mapping = relabel(graph, b.rng)
            swapped = swap_two_images(graph, mapping, b.rng)
            for kind, m, expect in (("relabelled", mapping, "pass"), ("reseeded", mapping, "pass"),
                                    ("swapped", swapped, "fail_or_miss")):
                options = ["--mode", "sampled", "--samples", str(SAMPLES),
                           "--seed", str(b.rng.randrange(1, 2**31))]
                b.instance("verify", f"r2c{n}{rank}", kind, graph, target, m, expect, options)


WORKLOADS = {
    "guard_3c": guard_3c,
    "verify_exhaustive": verify_exhaustive,
    "verify_sampled": verify_sampled,
}


def build(workload: str, generators, seed: int, workdir: Path) -> list[Instance]:
    """Write the workload's instance files for this seed and return them."""
    workdir.mkdir(parents=True, exist_ok=True)
    b = Builder(generators, seed, workdir)
    WORKLOADS[workload](b)
    return b.instances
