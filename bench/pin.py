"""Regenerate bench/pool.json, the pinned pool of generator seeds.

Usage: python3 bench/pin.py

Random instances vary a lot in size from one generator seed to the next
(a random 3-connected graph on 15 vertices has anywhere from 500 to more
than 100,000 circuits), and that spread would swamp any run-to-run
comparison. So each workload seed picks its generator seeds from a pool of
seeds whose instances sit close to one size target. The pool also pins the
SHA-256 of the file that `circuitmap generate random3c` writes for each
seed, which the benchmark uses to check that artifacts stay byte-stable.

Rerun this only when the generators are meant to change their output; the
digests it records are what the benchmark checks against. The n = 20 pool
is chosen by measured memory, so a rerun may pick other seeds there.
"""

from __future__ import annotations

import hashlib
import io
import json
import shutil
import statistics
import sys
from contextlib import redirect_stdout
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

from circuitmap import cli, generators  # noqa: E402
from circuitmap.circuits import enumerate_circuits  # noqa: E402
from circuitmap.errors import TooManyCircuitsError  # noqa: E402
from circuitmap.rng import XorShift64Star  # noqa: E402

import run  # noqa: E402

POOL_SIZE = 8
POOL_FILE = Path(__file__).with_name("pool.json")

# Circuit-count targets for the exhaustive-verify sizes (about 1.3k to
# 4.5k circuits, a few hundred milliseconds of enumeration and checking).
CIRCUIT_TARGETS = {12: 1300, 14: 3000, 15: 4500}
# Sizes whose pool is the seeds with the median edge count.
EDGE_SIZES = (20, 40, 45, 60, 80, 120)
# Past the circuit budget at every seed; the pool is the seeds closest to
# the median peak memory on reaching the budget (which depends on more than m).
REFUSAL_SIZE = 20
# Generated by `circuitmap generate random3c` in the guard_3c workload.
DIGEST_SIZES = (40, 80, 120)
# Cycle-rank targets for random 2-connected graphs: below 500 the sampler
# runs its symmetric-difference mixing loop, above 500 it only draws
# fundamental circuits.
RANK_TARGETS = {"low": 250, "high": 750}


def nearest(rows, target, key):
    """The POOL_SIZE rows closest to target, then ordered by seed."""
    rows = sorted(rows, key=lambda r: (abs(key(r) - target), r["seed"]))
    return sorted(rows[:POOL_SIZE], key=lambda r: r["seed"])


def circuit_pool(n: int, target: int) -> list[dict]:
    rows = []
    for seed in range(1, 121):
        g = generators.random_three_connected(n, seed)
        try:
            count = len(enumerate_circuits(g, 4 * target))
        except TooManyCircuitsError:
            continue
        rows.append({"seed": seed, "m": g.edge_count(), "circuits": count})
    return nearest(rows, target, lambda r: r["circuits"])


REFUSAL_PROBE = """
import sys
from circuitmap.circuits import enumerate_circuits
from circuitmap.errors import TooManyCircuitsError
from circuitmap.generators import random_three_connected
try:
    enumerate_circuits(random_three_connected(int(sys.argv[1]), int(sys.argv[2])))
except TooManyCircuitsError:
    sys.exit(4)
"""


def refusal_pool(n: int, scratch: Path) -> list[dict]:
    """Seeds past the circuit budget whose peak memory on reaching it is
    closest to the median (this instance sets verify_exhaustive's peak RSS);
    the time to the budget is recorded beside it."""
    rows = []
    for seed in range(1, 41):
        times, rss = [], []
        for _ in range(3):
            wall, code, _, _, rss_kib, _ = run.spawn(
                [sys.executable, "-c", REFUSAL_PROBE, str(n), str(seed)],
                run.child_env(), scratch, 60)
            times.append(wall * 1e3)
            rss.append(rss_kib)
        if code == 4:
            rows.append({"seed": seed, "refusal_ms": round(min(times)), "rss_kib": min(rss)})
    return nearest(rows, statistics.median(r["rss_kib"] for r in rows), lambda r: r["rss_kib"])


def edge_pool(n: int) -> list[dict]:
    rows = [{"seed": s, "m": generators.random_three_connected(n, s).edge_count()}
            for s in range(1, 41)]
    target = statistics.median(r["m"] for r in rows)
    return nearest(rows, target, lambda r: r["m"])


def artifact_digest(n: int, seed: int, scratch: Path) -> str:
    prefix = scratch / f"n{n}_s{seed}"
    with redirect_stdout(io.StringIO()):
        code = cli.main(["generate", "random3c", "--n", str(n),
                         "--seed", str(seed), "--out", str(prefix), "--quiet"])
    if code != 0:
        raise SystemExit(f"generate random3c --n {n} --seed {seed} exited {code}")
    return hashlib.sha256(Path(f"{prefix}.json").read_bytes()).hexdigest()


def rank_pool(n: int, target: int) -> list[dict]:
    # random_two_connected draws its chord count first, so the cycle rank
    # (chords + 1) can be screened without building every graph; the
    # chosen graphs are then built to record their true rank.
    rows = [{"seed": s, "rank": XorShift64Star(s).randrange(n + 1) + 1}
            for s in range(1, 401)]
    pool = nearest(rows, target, lambda r: r["rank"])
    for row in pool:
        g = generators.random_two_connected(n, row["seed"])
        row["m"] = g.edge_count()
        row["rank"] = g.edge_count() - n + 1
    return pool


def main() -> None:
    scratch = ROOT / ".bench_work" / "pin"
    scratch.mkdir(parents=True, exist_ok=True)
    try:
        pool = {}
        for n, target in CIRCUIT_TARGETS.items():
            pool[f"random3c/{n}"] = circuit_pool(n, target)
        pool[f"random3c/{REFUSAL_SIZE}/refusal"] = refusal_pool(REFUSAL_SIZE, scratch)
        for n in EDGE_SIZES:
            rows = edge_pool(n)
            if n in DIGEST_SIZES:
                for row in rows:
                    row["sha256"] = artifact_digest(n, row["seed"], scratch)
            pool[f"random3c/{n}"] = rows
        for n in (1000, 2000):
            for label, target in RANK_TARGETS.items():
                pool[f"random2c/{n}/{label}"] = rank_pool(n, target)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    POOL_FILE.write_text(json.dumps(pool, indent=1, sort_keys=True) + "\n")
    print(f"wrote {POOL_FILE}")


if __name__ == "__main__":
    main()
