"""Tests of the benchmark harness itself: its statistics, tracer and checks."""

import itertools
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import spans  # noqa: E402
import specfact.bounds  # noqa: E402
import specfact.cli  # noqa: E402
from stats import CAL_REF_S, Tally, Verdict, at_reference_speed, tail  # noqa: E402
from workloads import WORKLOADS, Result, Step, _sweep_op, run_step  # noqa: E402


def test_tail_is_highest_percentile_with_ten_beyond():
    values = list(range(1, 101))
    random.Random(0).shuffle(values)
    assert tail(values) == (90, 90.0, 10)
    assert tail(range(11)) == (0, 100.0 * 1 / 11, 10)
    # too few samples for any percentile: the maximum, nothing beyond
    assert tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 0)


def test_reference_speed_scales_by_the_calibration_ratio():
    # an op measured while the calibration kernel ran twice as slow as on
    # the reference machine is reported at half its wall time
    assert at_reference_speed(0.4, 2.0 * CAL_REF_S) == pytest.approx(0.2)


def test_self_time_is_duration_minus_children():
    # [name, start, end, parent, op, raised, outermost]
    sp = [
        ["op", 0.0, 10.0, -1, 0, False, True],
        ["a", 1.0, 4.0, 0, 0, False, True],
        ["a", 2.0, 3.0, 1, 0, False, False],
        ["b", 5.0, 9.0, 0, 0, True, True],
    ]
    assert spans.self_times(sp) == [3.0, 2.0, 1.0, 4.0]
    summary = spans.layer_summary(sp)
    # the nested "a" adds a call and self time but no second busy interval
    assert summary["a"] == {"calls": 2, "busy_s": 3.0, "self_s": 3.0, "failed": 0}
    assert summary["b"]["failed"] == 1
    assert spans.coverage(sp) == pytest.approx(0.7)


def test_tracer_records_nesting_and_failures():
    tracer = spans.Tracer()

    def inner():
        raise ValueError("refused")

    def outer():
        with pytest.raises(ValueError):
            tracer.call("inner", inner, (), {})
        return tracer.call("outer", lambda: 7, (), {})

    assert tracer.run_op(3, outer) == 7
    names = [(s[0], s[3], s[4], s[5], s[6]) for s in tracer.spans]
    assert names == [("op", -1, 3, False, True), ("inner", 0, 3, True, True),
                     ("outer", 0, 3, False, True)]


def test_tally_counts_failures_and_inconsistencies():
    tally = Tally()
    tally.add("a", Verdict(True), False)
    tally.add("b", Verdict(False, True, "refused"), True)
    assert tally.correct  # a fragile op's failure is counted, not fatal
    tally.add("c", Verdict(False, False, "contradiction"), True)
    assert (tally.attempted, tally.failed, tally.fatal) == (3, 2, 1)
    assert tally.fail_ratio == pytest.approx(2 / 3)
    assert not tally.correct
    assert tally.reasons == ["b: refused", "c: contradiction"]


def test_a_refusing_op_makes_the_run_incorrect():
    op = _sweep_op("t", [("thm2", 2, None, 5)])
    for result in (Result(3, "", "specfact: refused"),
                   Result(None, error="ValueError: x")):
        tally = Tally()
        tally.add(op.label, op.verdict([result]), op.fragile)
        assert (tally.failed, tally.correct) == (1, False)


def test_only_high_degree_series_ops_may_fail(tmp_path):
    ops = WORKLOADS["factorize"].cycle(1, 0, tmp_path)
    must_pass = {op.label.split("#")[0] for op in ops if not op.fragile}
    assert must_pass == {
        "fejer-riesz/d8", "boundary/d8", "herglotz/d8",
        "boundary/n16384", "herglotz/n16384", "boundary/n65536",
        "herglotz/n65536", "boundary/n262144"}


def test_op_verdicts_separate_refusals_from_contradictions():
    op = _sweep_op("t", [("thm2", 2, None, 5)])
    argv = op.steps[0].args + ["--n", "256"]
    good = run_step(Step("cli", argv))
    assert op.verdict([good]) == Verdict(True)

    refused = Result(3, "", "specfact: domain error: x")
    crashed = Result(None, error="KeyError: 'u_grid'")
    assert op.verdict([refused]).ok is False
    assert op.verdict([refused]).consistent is True
    assert op.verdict([crashed]).consistent is True

    lines = [json.loads(line) for line in good.out.splitlines()]
    lines[1]["pass"] = not lines[1]["pass"]
    forged = Result(0, "".join(json.dumps(r) + "\n" for r in lines), good.err)
    assert op.verdict([forged]).consistent is False


def test_tracing_changes_no_output_and_restores_functions():
    argv = ["bounds", "--check", "thm2", "--sweep", "3", "--n", "256", "--seed", "4"]
    plain = run_step(Step("cli", argv))
    original = specfact.bounds.factorize_boundary
    tracer = spans.Tracer()
    with tracer.installed():
        assert specfact.bounds.factorize_boundary is not original
        traced = tracer.run_op(0, lambda: run_step(Step("cli", argv)))
    assert specfact.bounds.factorize_boundary is original
    assert (traced.code, traced.out) == (plain.code, plain.out)
    summary = spans.layer_summary(tracer.spans)
    assert summary["bounds.random_density"]["calls"] == 6
    assert tracer.counters["factorization.factorize_boundary.fft_points"] == 6 * 256


def test_in_process_stdout_is_byte_identical_to_the_cli():
    argv = ["bounds", "--check", "thm2", "--sweep", "3", "--n", "256", "--seed", "9"]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-m", "specfact.cli", *argv],
                          capture_output=True, text=True, env=env, timeout=120)
    inproc = run_step(Step("cli", argv))
    assert (inproc.code, inproc.out) == (proc.returncode, proc.stdout)


def test_worker_shares_interleave_cycles(tmp_path):
    wl = WORKLOADS["family"]
    shares = [wl.share(3, 15, i, 3, tmp_path) for i in range(3)]
    assert [box for _, box in shares] == [5.0, 5.0, 5.0]
    labels = [[op.label for op in itertools.islice(ops, 3)] for ops, _ in shares]
    assert labels == [["family#0", "family#3", "family#6"],
                      ["family#1", "family#4", "family#7"],
                      ["family#2", "family#5", "family#8"]]


def test_traced_counts_repeat_at_one_seed(tmp_path):
    wl = WORKLOADS["family"]
    units = {m["name"]: m["unit"]
             for m in json.loads(run.MANIFEST.read_text())["per_layer"]}
    first = run.per_layer(wl, 11, 1, tmp_path, units)[0]
    second = run.per_layer(wl, 11, 1, tmp_path, units)[0]
    counts = {n for n, u in units.items() if u == "count"}
    assert first["counterexample.verify_theorem_1.calls"] > 0
    assert {n: first[n] for n in counts} == {n: second[n] for n in counts}

