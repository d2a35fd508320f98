"""Tests of the benchmark itself: its known-answer checks, its tracing and
its process handling. Run with `python3 -m pytest bench`."""

from __future__ import annotations

import json
import sys
from pathlib import Path
from time import perf_counter

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from circuitmap import cli, generators  # noqa: E402

import answers  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def judge_in_process(inst, rec=None):
    if rec is None:
        code, out, err, timed_out = tracing.call_cli(cli.main, inst.argv, 20)
    else:
        with rec.span("cli.main"):
            code, out, err, timed_out = tracing.call_cli(cli.main, inst.argv, 20)
    return answers.judge(inst, code, out, err, timed_out), out


@pytest.fixture(scope="module")
def exhaustive(tmp_path_factory):
    return workloads.build("verify_exhaustive", generators, 5, tmp_path_factory.mktemp("vx"))


def by_name(instances, name):
    return next(i for i in instances if i.name == name)


def test_own_circuit_test():
    assert answers.is_circuit([["a", "b"], ["b", "c"], ["c", "a"]])
    assert not answers.is_circuit([])
    assert not answers.is_circuit([["a", "b"], ["b", "c"]])
    assert not answers.is_circuit([["a", "b"], ["b", "a"], ["a", "b"]])
    two_triangles = [["a", "b"], ["b", "c"], ["c", "a"], ["x", "y"], ["y", "z"], ["z", "x"]]
    assert not answers.is_circuit(two_triangles)


def test_same_seed_same_inputs(tmp_path):
    first = workloads.build("verify_exhaustive", generators, 9, tmp_path / "a")
    second = workloads.build("verify_exhaustive", generators, 9, tmp_path / "b")
    assert [i.name for i in first] == [i.name for i in second]
    for a, b in zip(first, second):
        for fa, fb in zip(a.argv, b.argv):
            if fa.endswith(".json"):
                assert Path(fa).read_bytes() == Path(fb).read_bytes()


def test_exhaustive_workload_answers(exhaustive):
    statuses = {inst.name: judge_in_process(inst)[0][0] for inst in exhaustive
                if inst.name != "verify/cycle1500"}
    assert statuses.pop("verify/rc20") == "undecided"
    assert set(statuses.values()) == {"ok"}


def test_wrong_witness_is_caught(exhaustive):
    inst = by_name(exhaustive, "verify/K7/swapped")
    (status, _), out = judge_in_process(inst)
    assert status == "ok"
    report = json.loads(out)
    report["witness"]["image"] = report["witness"]["image"][:-1]
    assert answers.judge(inst, 2, json.dumps(report), "", False)[0] == "wrong"
    # A pass on a known non-injection is a wrong answer in exhaustive mode.
    fake = {"result": "pass", "mode": "exhaustive", "circuits_checked": 1172, "witness": None}
    assert answers.judge(inst, 0, json.dumps(fake), "", False)[0] == "wrong"


def test_crash_and_refusal_are_classified(exhaustive):
    inst = by_name(exhaustive, "verify/K7/relabelled")
    err = "Traceback (most recent call last):\n  ...\nRecursionError: maximum recursion depth\n"
    assert answers.judge(inst, 1, "", err, False) == ("crash", "RecursionError")
    assert answers.judge(inst, -9, "", "", False) == ("crash", "exit -9")
    assert answers.judge(inst, None, "", "", True) == ("timeout", "timeout")
    refusal = "error: more than 100000 circuits\n"
    assert answers.judge(inst, 4, "", refusal, False) == ("undecided", "circuit budget")
    assert answers.judge(inst, 1, "", "error: bad file\n", False)[0] == "wrong"


def test_counter_agreement(exhaustive):
    """On passing exhaustive runs the circuits enumerated under the trace
    equal the report's circuits_checked."""
    rec = tracing.Recorder()
    reports = {}
    with tracing.instrumented(rec):
        for inst in exhaustive:
            if inst.expect == "pass" and inst.circuits and inst.name != "verify/cycle1500":
                rec.invocation = inst.name
                (status, _), out = judge_in_process(inst, rec)
                assert status == "ok"
                reports[inst.name] = json.loads(out)["circuits_checked"]
    assert reports
    assert tracing.enumerated_by_invocation(rec.spans) == reports


def test_self_time_subtracts_children():
    rec = tracing.Recorder()
    with rec.span("outer"):
        with rec.span("inner"):
            pass
    outer, inner = rec.spans
    assert inner.parent == outer.sid
    selfs = tracing.self_times(rec.spans)
    assert selfs[outer.sid] == pytest.approx((outer.end - outer.start) - (inner.end - inner.start))


def test_wrappers_are_removed_afterwards():
    from circuitmap import edge_maps
    original = edge_maps.is_k_connected
    with tracing.instrumented(tracing.Recorder()):
        assert edge_maps.is_k_connected is not original
    assert edge_maps.is_k_connected is original


def test_artifact_digest_mismatch_is_wrong(tmp_path):
    path = tmp_path / "gen.json"
    path.write_text("{}\n")
    inst = workloads.Instance("generate/x", [], "artifact", extra={"path": str(path),
                                                                   "sha256": "0" * 64})
    report = json.dumps({"result": "ok", "files": [str(path)]})
    status, detail = answers.judge(inst, 0, report, "", False)
    assert status == "wrong" and "digest" in detail


def test_pinned_digest_matches_generate(tmp_path):
    row = workloads.POOL["random3c/40"][0]
    prefix = tmp_path / "gen"
    argv = ["generate", "random3c", "--n", "40", "--seed", str(row["seed"]), "--out", str(prefix)]
    inst = workloads.Instance("generate/rc40", argv, "artifact",
                              extra={"path": f"{prefix}.json", "sha256": row["sha256"]})
    assert judge_in_process(inst)[0] == ("ok", "")


def test_subprocess_timeout(tmp_path):
    start = perf_counter()
    wall, code, _, _, rss, timed_out = run.spawn(
        [sys.executable, "-c", "import time; time.sleep(30)"], run.child_env(), tmp_path, 0.5)
    assert timed_out and code < 0
    assert perf_counter() - start < 10
    wall, code, out, _, rss, timed_out = run.spawn(
        [sys.executable, "-c", "print('hi')"], run.child_env(), tmp_path, 10)
    assert not timed_out and code == 0 and out == "hi\n" and rss > 0


def test_in_process_timeout():
    def slow(argv):
        while True:
            pass
    code, out, err, timed_out = tracing.call_cli(slow, [], 0.2)
    assert timed_out and code is None


def test_tail_has_ten_samples_beyond():
    values = [float(v) for v in range(1, 151)]
    p, value, beyond = run.tail(values)
    assert p == 90 and beyond >= 10
    assert run.tail(values[:15])[0] == 100.0


def test_setup_spans_count_only_under_generators():
    rec = tracing.Recorder()
    rec.invocation = "setup"
    with rec.span("generators.random_three_connected"):
        with rec.span("connectivity.is_k_connected", k=3):
            pass
    rec.invocation = "0:reconstruct"
    with rec.span("cli.main"):
        with rec.span("connectivity.is_k_connected", k=3):
            pass
    layer = tracing.per_layer(tracing.layer_totals(rec.spans), 0, 0)
    assert layer["connectivity.is_k_connected.calls"] == 1
    assert layer["generators.guard_calls"] == 1.0
    assert layer["generators.guard_ms"] > 0
