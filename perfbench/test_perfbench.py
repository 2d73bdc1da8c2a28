"""Tests of the benchmark's own logic; run with ``python3 -m pytest perfbench``.

They need neither stablemix nor timing: spans come from a fake clock and ops
from a fake command-line entry point.
"""

import json
import random
import signal
import time
import types

import pytest

import hostspeed
import run
import spans


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_times_subtract_the_time_children_cover():
    # a [0, 10] holds b [1, 4] and d [5, 6]; b holds c [2, 3].
    recorded = [
        ("x.a", 0.0, 10.0, -1, 0, None),
        ("y.b", 1.0, 4.0, 0, 0, None),
        ("z.c", 2.0, 3.0, 1, 0, None),
        ("y.d", 5.0, 6.0, 0, 0, None),
    ]
    assert spans.self_times(recorded) == [6.0, 2.0, 1.0, 1.0]


def test_self_times_count_overlapping_children_once():
    recorded = [
        ("x.a", 0.0, 10.0, -1, 0, None),
        ("y.b", 1.0, 5.0, 0, 0, None),
        ("y.c", 3.0, 7.0, 0, 0, None),
        ("y.d", 9.0, 12.0, 0, 0, None),
    ]
    assert spans.self_times(recorded)[0] == pytest.approx(10.0 - 6.0 - 1.0)


def test_tracer_records_nesting_and_layer_self_time():
    clock = FakeClock()
    tracer = spans.Tracer(clock)

    def leaf():
        clock.now += 2.0

    module = types.SimpleNamespace(leaf=leaf)

    def middle():
        clock.now += 1.0
        module.leaf()
        clock.now += 3.0

    outer = tracer.wrap("cli.main", middle)
    tracer.patch(module, "leaf", "directing.leaf")
    tracer.op = "op0"
    outer()
    tracer.restore()
    assert module.leaf is leaf

    recorded = tracer.finished()
    assert [(s[0], s[3], s[4]) for s in recorded] == [("cli.main", -1, "op0"), ("directing.leaf", 0, "op0")]
    metrics = spans.layer_metrics(recorded, passes=1, traced_wall=6.0, plain_wall=5.0)
    assert metrics["cli.self_s"] == (4.0, "s")
    assert metrics["directing.self_s"] == (2.0, "s")
    assert metrics["trace.overhead"][0] == pytest.approx(0.2)


def test_patch_on_an_instance_shadows_its_method_until_restore():
    class Law:
        def cdf(self, x):
            return x / 2

    law = Law()
    tracer = spans.Tracer(FakeClock())
    tracer.patch(law, "cdf", "directing.levy_stable.cdf")
    assert law.cdf(4.0) == 2.0
    assert [s[0] for s in tracer.finished()] == ["directing.levy_stable.cdf"]
    tracer.restore()
    assert "cdf" not in vars(law) and law.cdf(4.0) == 2.0


def test_result_line_lists_the_per_layer_metrics_of_benchmark_json():
    listed = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["per_layer"]
    assert [m["name"] for m in listed] == list(spans.PER_LAYER)
    computed = spans.layer_metrics([("cli.main", 0.0, 1.0, -1, 0, None)], passes=1, traced_wall=1.0, plain_wall=1.0)
    assert set(spans.PER_LAYER) <= set(computed)
    assert all(computed[m["name"]][1] == m["unit"] for m in listed)


def test_fit_unique_ratio_counts_distinct_inputs_per_op():
    recorded = [
        ("characteristics.fit_spectrum", 0.0, 1.0, -1, "op0", 11),
        ("characteristics.fit_spectrum", 1.0, 2.0, -1, "op0", 11),
        ("characteristics.fit_spectrum", 2.0, 3.0, -1, "op0", 12),
        ("characteristics.fit_spectrum", 3.0, 4.0, -1, "op1", 11),
    ]
    metrics = spans.layer_metrics(recorded, passes=2, traced_wall=4.0, plain_wall=4.0)
    assert metrics["characteristics.fit_unique_ratio"][0] == pytest.approx(3 / 4)
    assert metrics["characteristics.fit_calls"][0] == 2.0
    assert metrics["characteristics.fit_ms"][0] == pytest.approx(1000.0)


def test_pass_count_depends_on_seconds_alone():
    assert run.pass_count(30.0, 6.5) == 3
    assert run.pass_count(30.0, 13.0) == 1
    assert run.pass_count(30.0, 28.0) == 1
    assert run.pass_count(40.0, 6.5) == 4
    assert run.pass_count(40.0, 13.0) == 2
    assert run.pass_count(60.0, 13.0) == 3


def test_op_latencies_report_median_maximum_and_counts():
    passes = [[3.0, 1.0, 2.0], [10.0, 1.5, 2.5], [4.0, 0.5, 1.0]]
    assert run.op_latencies(passes) == {"p50": 2.0, "max": 4.0, "ops": 9, "passes": 3}
    assert run.op_latencies([[7.0]]) == {"p50": 7.0, "max": 7.0, "ops": 1, "passes": 1}
    with pytest.raises(ValueError):
        run.op_latencies([])


def _report(seed, holds=True, re_value=0.5):
    return {
        "seed": seed,
        "cf_tables": [{"n": 256, "points": [{"t": 0.0, "re": 1.0, "im": 0.0}, {"t": 1.0, "re": re_value, "im": 0.1}]}],
        "sup_distance": [{"n": 256, "sup": 0.03}],
        "verdicts": [{"name": "uan", "holds": True}, {"name": "stable_mixture", "holds": holds}],
        "runtimes": {"total": 1.0},
    }


def _fake_main(text_for_seed):
    """A stand-in CLI that writes the report text chosen for each seed."""

    def main(argv):
        seed = int(argv[argv.index("--seed") + 1])
        out = argv[argv.index("--out") + 1]
        from pathlib import Path

        Path(out).mkdir(parents=True)
        (Path(out) / "demo.report.json").write_text(text_for_seed(seed), encoding="utf-8")
        return 0

    return main


def _spec(verdicts="pass"):
    return run.OpSpec("demo", {"scenario": "demo"}, verdicts=verdicts, sup_tol=0.15)


@pytest.mark.parametrize(
    "text, problem",
    [
        (lambda seed: json.dumps(_report(seed)), None),
        (lambda seed: json.dumps(_report(seed, re_value=float("nan"))), "malformed report"),
        (lambda seed: json.dumps(_report(seed, holds=False)), "verdict stable_mixture is False"),
        (lambda seed: json.dumps(_report(seed, holds=None)), "verdict stable_mixture is None"),
        (lambda seed: json.dumps(_report(seed, re_value=1.2)), "modulus above 1"),
        (lambda seed: json.dumps(_report(seed + 1)), "is not the op seed"),
    ],
)
def test_run_pass_counts_wrong_output_as_failed(tmp_path, text, problem):
    ops = run.prepare_pass([_spec()], random.Random(0), tmp_path / "pass0")
    run.run_pass(_fake_main(text), ops)
    (op,) = ops
    assert op.exit_code == 0
    if problem is None:
        assert op.problems == []
        assert op.runtimes == {"total": 1.0}
    else:
        assert len(op.problems) == 1 and problem in op.problems[0]


def test_inconclusive_verdicts_pass_where_allowed():
    assert run.check_report(_report(5, holds=None), _spec("not_false"), 5) == []
    assert run.check_report(_report(5, holds=False), _spec("not_false"), 5) != []


def test_sup_distance_above_tolerance_fails():
    report = _report(5)
    report["sup_distance"].append({"n": 4096, "sup": 0.16})
    assert "exceeds" in run.check_report(report, _spec(), 5)[0]


def test_strict_loads_rejects_non_finite_tokens():
    for token in ("NaN", "Infinity", "-Infinity"):
        with pytest.raises(ValueError):
            run.strict_loads('{"x": %s}' % token)


def test_raising_or_failing_op_is_failed(tmp_path):
    def raising(argv):
        raise RuntimeError("boom")

    ops = run.prepare_pass([_spec()], random.Random(0), tmp_path / "a")
    run.run_pass(raising, ops)
    assert ops[0].problems and "raised RuntimeError" in ops[0].problems[0]

    ops = run.prepare_pass([_spec()], random.Random(0), tmp_path / "b")
    run.run_pass(lambda argv: 4, ops)
    assert ops[0].problems == ["exit code 4"]


def test_same_seed_gives_same_inputs(tmp_path):
    workload, _ = run.WORKLOADS["builtin-suite"]
    first = run.prepare_pass(workload, random.Random(7), tmp_path / "a")
    second = run.prepare_pass(workload, random.Random(7), tmp_path / "b")
    assert [(op.seed, op.spec) for op in first] == [(op.seed, op.spec) for op in second]
    assert len({op.seed for op in first}) == len(first)


def test_each_op_of_a_pass_is_checked_against_its_own_spec(tmp_path):
    inconclusive = _fake_main(lambda seed: json.dumps(_report(seed, holds=None)))
    specs = [run.OpSpec("strict", {"scenario": "a"}), run.OpSpec("lenient", {"scenario": "b"}, "not_false")]
    ops = run.prepare_pass(specs, random.Random(0), tmp_path / "pass0")
    run.run_pass(inconclusive, ops)
    assert len(ops[0].problems) == 1 and "expected pass" in ops[0].problems[0]
    assert ops[1].problems == []


def test_probe_window_sums_handler_time_and_averages_timed_chunks():
    samples = [(0.5, 0.004, 0.002), (1.0, 0.006, 0.003), (2.0, 0.010, 0.005), (3.0, 0.1, 0.1)]
    spent, count, mean = hostspeed.window(samples, 1.0, 3.0)
    assert (spent, count) == (pytest.approx(0.016), 2)
    assert mean == pytest.approx(0.004)
    assert hostspeed.window(samples, 4.0, 5.0) == (0, 0, 0.0)


def test_to_reference_removes_probe_time_and_scales_by_slowness():
    # A host on which the chunk takes twice its reference time halves the time.
    assert hostspeed.to_reference(10.2, 0.2, 2e-4, ref_chunk=1e-4) == pytest.approx(5.0)
    assert hostspeed.to_reference(3.0, 0.0, 1e-4, ref_chunk=1e-4) == pytest.approx(3.0)
    with pytest.raises(ValueError):
        hostspeed.to_reference(1.0, 0.0, 0.0)


def test_scale_pass_scales_each_op_by_the_slowness_around_it():
    ref = hostspeed.REF_CHUNK_S
    ops = [run.Op(_spec(), 1, None, None, start=10.0, elapsed_s=0.2), run.Op(_spec(), 2, None, None, start=10.2, elapsed_s=3.0)]
    # The first op is widened to [9.85, 10.35]: two samples at twice the
    # reference time and one at the reference time; the second op holds its
    # own two samples at four times the reference time.
    samples = [(9.9, 0.01, 2 * ref), (10.1, 0.01, 2 * ref), (10.3, 0.02, ref), (12.0, 0.02, 4 * ref)]
    slowness = run.scale_pass(ops, samples)
    assert slowness == pytest.approx(7 / 3)
    assert ops[0].ref_s == pytest.approx((0.2 - 0.01) / (5 / 3))
    assert ops[1].ref_s == pytest.approx((3.0 - 0.04) / (5 / 2))


def test_probe_records_samples_and_restores_the_alarm_handler():
    previous = signal.getsignal(signal.SIGALRM)
    with hostspeed.Probe(interval=0.01) as probe:
        deadline = time.perf_counter() + 0.2
        while time.perf_counter() < deadline:
            pass
    assert signal.getsignal(signal.SIGALRM) is previous
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(probe.samples) >= 5
    assert all(spent >= timed > 0 for _, spent, timed in probe.samples)
