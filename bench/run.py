"""circuitmap benchmark: CLI time-to-verdict, checked against known answers.

Usage (from the repository root):

    python3 bench/run.py --workload guard_3c --seed 1 --seconds 20 --trace 0

--trace 0: a single closed-loop client runs whole `python -m circuitmap`
invocations as subprocesses, one at a time, times each from spawn to exit
and checks every report. It makes a fixed number of whole passes over the
workload's instances, scaled from --seconds (workloads.PASSES_PER_30S), so
a run takes about --seconds on the machine the benchmark was sized on.
Prints the end-to-end metrics.

--trace 1: runs the same invocations in this process through cli.main,
with timing wrappers on each layer (see tracing.py), and prints the
per-layer metrics.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics. The lines before it give every metric by
name and unit, the failure breakdown and the run's provenance; a fuller
record, with the spans of a traced run, goes to .bench_results/.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

import answers
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RESULTS = ROOT / ".bench_results"

INVOCATION_TIMEOUT_S = 20.0
RUN_BUDGET_S = 150.0  # no invocation runs past this, from the start of a run
TAIL_LADDER = (50, 75, 90, 95, 99, 99.9)
# Set-up is repeated (at least SETUP_MIN_REPS times, and enough times to
# spend about SETUP_MIN_S seconds) and its median reported.
SETUP_MIN_REPS, SETUP_MIN_S, SETUP_MAX_REPS = 3, 1.5, 50
IMPORT_PAIRS = 7


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def spawn(cmd: list[str], env: dict, workdir: Path, timeout: float):
    """Run one child to completion: (wall s, exit code, stdout, stderr,
    ru_maxrss KiB, timed out). The child is reaped with wait4 so its own
    resource usage is read; a timer kills it after `timeout` seconds."""
    with open(workdir / "stdout", "w+b") as fo, open(workdir / "stderr", "w+b") as fe:
        fired = []

        start = perf_counter()
        proc = subprocess.Popen(cmd, stdin=subprocess.DEVNULL, stdout=fo, stderr=fe,
                                cwd=workdir, env=env)

        def expire(signum, frame):
            fired.append(True)
            os.kill(proc.pid, signal.SIGKILL)

        previous = signal.signal(signal.SIGALRM, expire)
        signal.setitimer(signal.ITIMER_REAL, timeout)
        try:
            # WNOWAIT leaves the child unreaped, so the timer can never
            # signal a recycled pid.
            os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
            wall = perf_counter() - start
        except BaseException:
            os.kill(proc.pid, signal.SIGKILL)
            raise
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        fo.seek(0)
        fe.seek(0)
        out = fo.read().decode("utf-8", "replace")
        err = fe.read().decode("utf-8", "replace")
    timed_out = bool(fired) and proc.returncode == -signal.SIGKILL
    return wall, proc.returncode, out, err, usage.ru_maxrss, timed_out


def tail(values: list[float]) -> tuple[float, float, int]:
    """Highest ladder percentile with at least ten samples beyond it:
    (percentile, value, samples beyond)."""
    n = len(values)
    fit = [p for p in TAIL_LADDER if n * (100 - p) / 100 >= 10]
    if not fit:
        return 100.0, max(values), 0
    p = fit[-1]
    cuts = statistics.quantiles(values, n=1000, method="inclusive")
    value = cuts[round(p * 10) - 1]
    return p, value, sum(1 for v in values if v > value)


def outcome_summary(records) -> dict:
    counts = Counter(r["status"] for r in records)
    details = Counter((r["status"], r["detail"], r["name"]) for r in records
                      if r["status"] not in ("ok",))
    return {"counts": dict(counts),
            "details": [{"status": s, "detail": d, "instance": n, "times": k}
                        for (s, d, n), k in sorted(details.items())]}


# -- end-to-end run ------------------------------------------------------------


def measure(workload: str, seed: int, seconds: int, workdir: Path, deadline: float) -> dict:
    from circuitmap import generators

    def setup():
        start = perf_counter()
        built = workloads.build(workload, generators, seed, workdir / "inst")
        setup_times.append(perf_counter() - start)
        return built

    setup_times: list[float] = []
    instances = setup()
    env = child_env()
    cli = [sys.executable, "-m", "circuitmap"]
    for _ in range(2):  # warm the file cache for the interpreter and sources
        spawn(cli + ["--version"], env, workdir, INVOCATION_TIMEOUT_S)

    # Whole passes only, so every instance weighs the same in the percentiles.
    # The set-up repeats are spread over the passes, so their median samples
    # the machine across the run rather than in its first seconds.
    passes = max(1, round(seconds * workloads.PASSES_PER_30S[workload] / 30))
    reps = max(SETUP_MIN_REPS, min(SETUP_MAX_REPS, math.ceil(SETUP_MIN_S / setup_times[0])))
    setup_before = Counter(i * passes // reps for i in range(1, reps))
    records, loop_s = [], 0.0
    for k in range(passes):
        if deadline - perf_counter() < 1.0:
            break
        for _ in range(setup_before[k]):
            instances = setup()
        pass_start = perf_counter()
        for inst in instances:
            remaining = deadline - perf_counter()
            if remaining < 1.0:
                break
            wall, code, out, err, rss_kib, timed_out = spawn(
                cli + inst.argv, env, workdir, min(INVOCATION_TIMEOUT_S, remaining))
            status, detail = answers.judge(inst, code, out, err, timed_out)
            records.append({"name": inst.name, "ms": wall * 1e3, "status": status,
                            "detail": detail, "rss_kib": rss_kib})
        loop_s += perf_counter() - pass_start

    times = [r["ms"] for r in records]
    n = len(records)
    failed = sum(1 for r in records if r["status"] in answers.FAILED)
    undecided = sum(1 for r in records if r["status"] == "undecided")
    p, tail_ms, beyond = tail(times)
    metrics = {
        "verdict_ms.p50": (statistics.median(times), "ms"),
        "verdict_ms.tail": (tail_ms, "ms"),
        "instances_per_s": (n / loop_s, "1/s"),
        "failed_ratio": (failed / n, "ratio"),
        "undecided_ratio": (undecided / n, "ratio"),
        "peak_rss_mb": (max(r["rss_kib"] for r in records) / 1024, "MB"),
        "setup_s": (statistics.median(setup_times), "s"),
    }
    notes = {
        "verdict_ms.tail": f"p{p:g} of {n} samples, {beyond} beyond it",
        "failed_ratio": f"{failed} of {n} attempted",
        "undecided_ratio": f"{undecided} of {n} attempted",
        "setup_s": f"median of {len(setup_times)} set-ups",
        "instances_per_s": f"{n} invocations in {loop_s:.1f} s, {n // len(instances)} full passes",
    }
    return {"metrics": metrics, "notes": notes, "records": records,
            "attempted": n, "failed": failed,
            "correct": not any(r["status"] == "wrong" for r in records)}


# -- traced run ----------------------------------------------------------------


def import_ms(env: dict, workdir: Path) -> float:
    """Fresh-process `import circuitmap.cli` minus a bare interpreter start."""
    bare, full = [], []
    for _ in range(IMPORT_PAIRS):
        for cmd, into in (("pass", bare), ("import circuitmap.cli", full)):
            into.append(spawn([sys.executable, "-c", cmd], env, workdir,
                              INVOCATION_TIMEOUT_S)[0])
    return (statistics.median(full) - statistics.median(bare)) * 1e3


def run_cycle(cli, instances, rec, deadline):
    """One in-process pass over the instances; returns (wall s, outcomes)."""
    outcomes = []
    # Freeze the benchmark's own objects so the collector, like in a fresh
    # CLI process, only walks what the invocation allocates.
    gc.collect()
    gc.freeze()
    start = perf_counter()
    for k, inst in enumerate(instances):
        remaining = deadline - perf_counter()
        if remaining < 1.0:
            break
        if rec is None:
            result = tracing.call_cli(cli.main, inst.argv,
                                      min(INVOCATION_TIMEOUT_S, remaining))
        else:
            rec.invocation = f"{k}:{inst.name}"
            depth = len(rec.stack)
            with rec.span("cli.main"):
                result = tracing.call_cli(cli.main, inst.argv,
                                          min(INVOCATION_TIMEOUT_S, remaining))
            del rec.stack[depth:]
        code, out, err, timed_out = result
        outcomes.append((inst, out, *answers.judge(inst, code, out, err, timed_out)))
    wall = perf_counter() - start
    gc.unfreeze()
    return wall, outcomes


def traced(workload: str, seed: int, seconds: int, workdir: Path, deadline: float) -> dict:
    from circuitmap import cli, generators

    imports = import_ms(child_env(), workdir)
    instances = workloads.build(workload, generators, seed, workdir / "inst")

    passes, records, span_dump = [], [], []
    start, last_pass = perf_counter(), 0.0
    while not passes or perf_counter() - start + last_pass <= seconds:
        pass_start = perf_counter()
        # Alternate which side goes first, so neither always runs cold.
        plain_first = len(passes) % 2 == 0
        if plain_first:
            plain_s, _ = run_cycle(cli, instances, None, deadline)
        rec = tracing.Recorder()
        with tracing.instrumented(rec):
            rec.invocation = "setup"
            with rec.span("bench.setup"):
                instances = workloads.build(workload, generators, seed, workdir / "inst")
            traced_s, outcomes = run_cycle(cli, instances, rec, deadline)
        if not plain_first:
            plain_s, _ = run_cycle(cli, instances, None, deadline)
        if len(outcomes) < len(instances):
            break
        enumerated = tracing.enumerated_by_invocation(rec.spans)
        checked = 0
        for k, (inst, out, status, detail) in enumerate(outcomes):
            report = json.loads(out) if status in ("ok", "miss") else {}
            checked += report.get("circuits_checked", 0)
            if (status == "ok" and inst.expect == "pass" and "sampled" not in inst.argv
                    and enumerated.get(f"{k}:{inst.name}") != report["circuits_checked"]):
                status, detail = "wrong", (
                    f"enumerated {enumerated.get(f'{k}:{inst.name}')} circuits, "
                    f"report says {report['circuits_checked']} checked")
            records.append({"name": inst.name, "status": status, "detail": detail})
        misses = sum(1 for _, _, status, _ in outcomes if status == "miss")
        layer = tracing.per_layer(tracing.layer_totals(rec.spans), checked, misses)
        layer["trace.overhead_ratio"] = traced_s / plain_s - 1.0
        passes.append(layer)
        span_dump.append([[s.sid, s.parent, s.name, s.invocation, s.start, s.end, s.attrs]
                          for s in rec.spans])
        last_pass = perf_counter() - pass_start

    if not passes:
        raise SystemExit("error: the run budget ended before one traced pass")
    metrics = {"cli.import_ms": (imports, "ms")}
    for name in passes[0]:
        metrics[name] = (statistics.median(p[name] for p in passes), unit_of(name))
    failed = sum(1 for r in records if r["status"] in answers.FAILED)
    return {"metrics": metrics,
            "notes": {"trace.overhead_ratio": "traced over untraced in-process pass time, minus 1",
                      "edge_maps.sampled.drawn_ratio": "circuits drawn over samples requested",
                      "cli.import_ms": f"median of {IMPORT_PAIRS} fresh processes each",
                      "passes": f"{len(passes)} traced passes; medians reported"},
            "records": records, "attempted": len(records), "failed": failed,
            "correct": not any(r["status"] == "wrong" for r in records),
            "spans": span_dump}


def unit_of(name: str) -> str:
    for suffix, unit in (("_ms", "ms"), ("_ratio", "ratio"), ("us_per_circuit", "us")):
        if name.endswith(suffix):
            return unit
    return "count"


# -- provenance and output -------------------------------------------------------


def git_revision() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    loose = ROOT / ".git" / ref[5:]
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else ():
        if line.endswith(" " + ref[5:]):
            return line.split()[0]
    return None


def provenance(args) -> dict:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return {"git_revision": git_revision(), "src_sha256": digest.hexdigest(),
            "python": platform.python_version(), "platform": platform.platform(),
            "nproc": len(os.sched_getaffinity(0)), "workload": args.workload,
            "seed": args.seed, "seconds": args.seconds, "trace": args.trace}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "circuitmap" / "__init__.py").is_file():
        print(f"error: no circuitmap sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    started = perf_counter()
    workdir = ROOT / ".bench_work" / f"{args.workload}-s{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        run = (traced if args.trace else measure)(
            args.workload, args.seed, args.seconds, workdir, started + RUN_BUDGET_S)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    prov = provenance(args)
    print(f"circuitmap benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    print("provenance: " + " ".join(f"{k}={v}" for k, v in prov.items()))
    for name, (value, unit) in run["metrics"].items():
        note = run["notes"].get(name)
        print(f"  {name:48s} {value:14.4f} {unit:6s}" + (f"  ({note})" if note else ""))
    summary = outcome_summary(run["records"])
    print(f"outcomes: {summary['counts']}")
    for d in summary["details"]:
        print(f"  {d['status']}: {d['instance']} x{d['times']}: {d['detail']}")

    RESULTS.mkdir(exist_ok=True)
    stem = f"{'trace' if args.trace else 'e2e'}-{args.workload}-s{args.seed}"
    per_instance: dict[str, list[float]] = {}
    for r in run["records"]:
        if "ms" in r:
            per_instance.setdefault(r["name"], []).append(r["ms"])
    record = {"provenance": prov, "notes": run["notes"], "outcomes": summary,
              "instance_ms": {k: statistics.median(v) for k, v in per_instance.items()},
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in run["metrics"].items()},
              "spans": run.get("spans")}
    (RESULTS / f"{stem}.json").write_text(json.dumps(record) + "\n")

    reported = {k: v for k, v in run["metrics"].items()
                if k not in ("failed_ratio", "undecided_ratio")}
    print(json.dumps({"correct": run["correct"], "attempted": run["attempted"],
                      "failed": run["failed"],
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u) in reported.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
