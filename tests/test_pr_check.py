"""The summary and exit code of ``tools/pr_check.py`` on small fake runs."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
TARGETS = ("X86_V3 X86_V4 AVX512_ICL AVX512_SPR", "X86_V3")
COUNTS = {"characteristics.fit_calls": 800, "characteristics.dsharp_calls": 800, "characteristics.lambda_calls": 200}


@pytest.fixture
def tool(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "tools"))
    spec = importlib.util.spec_from_file_location("pr_check", ROOT / "tools" / "pr_check.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _kept(root, holds=True, value=1.0, extra=False):
    """A --keep directory with one report of one verdict, and with ``extra`` a second file."""
    (root / "run@0").mkdir(parents=True)
    (root / "run@0" / "report.json").write_text(json.dumps({"verdicts": [{"holds": holds, "x": value}]}))
    if extra:
        (root / "run@0" / "cf.csv").write_text("t,re\n0.0,1.0\n")
    return root


def _side(tool, kept, lines=None, demos=None, reach="functions that never run: 1 of 2\n  a.py:3  a.f: pass\n"):
    lines = tool.CONTRACT_LINES if lines is None else lines
    contract = (0, "".join(f"{i:064x}  run@{i}/report.json\n" for i in range(lines)))
    demos = {"01_demo": (0, "one\n")} if demos is None else demos
    return tool.Side(contract, kept, demos, reach, {"src/stablemix/a.py": 10, "tests/test_a.py": 5})


def _bench_out(correct=True, counts=None):
    """The stdout of a ``perfbench/run.py`` run: a metric line, then its JSON summary, with ``counts`` as metrics."""
    metrics = {name: {"value": value, "unit": "count"} for name, value in (counts or {}).items()}
    return "wall_s 1.5 s\n" + json.dumps({"correct": correct, "attempted": 2, "failed": 0, "metrics": metrics}) + "\n"


def _bench(replaced=None):
    """Fake ``BENCH`` runs of two workloads, untraced and traced, all correct, with ``replaced`` runs by label."""
    fake = {f"{w} --trace {t}": (t, 0, _bench_out(counts=COUNTS if t else None)) for w in ("a", "b") for t in (0, 1)}
    return {**fake, **(replaced or {})}


def _summary(tool, capsys, head, base=None, reduced=None, streams=0, targets=TARGETS, perfbench=0, bench=None):
    tests = {"stream groups": streams, "perfbench tests": perfbench}
    code = tool.summarize(head, reduced or head, tests, targets, _bench() if bench is None else bench, base, "base")
    out = capsys.readouterr().out
    result = json.loads(out.splitlines()[-1])
    assert result["exit"] == code
    return code, out, result


def test_unchanged_exits_0_and_quotes_counts(tool, tmp_path, capsys):
    head, base = (_side(tool, _kept(tmp_path / name)) for name in ("head", "base"))
    code, out, result = _summary(tool, capsys, head, base)
    assert code == 0 and result["failed"] == [] and result["compare"] == 0 and result["reduced"] == 0
    assert f"contract against base: 0 of {tool.CONTRACT_LINES} lines move, --compare exits 0" in out
    assert "demo 01_demo: stdout unchanged" in out
    assert "reach scan, base: functions that never run: 1 of 2" in out
    assert "src/stablemix/a.py lines: head 10, base 10" in out and "tests lines: head 5, base 5" in out
    assert result["src/stablemix"] == {"head": 10, "base": 10}


def test_a_moved_number_exits_1(tool, tmp_path, capsys):
    head, base = _side(tool, _kept(tmp_path / "head", value=1.5)), _side(tool, _kept(tmp_path / "base"))
    code, out, _ = _summary(tool, capsys, head, base)
    assert code == 1 and "x: largest change 0.5" in out


def test_a_flipped_holds_exits_2(tool, tmp_path, capsys):
    head, base = _side(tool, _kept(tmp_path / "head", holds=False)), _side(tool, _kept(tmp_path / "base"))
    code, _, result = _summary(tool, capsys, head, base)
    assert code == 2 and result["failed"] == ["--compare against base exits 2"]


def test_a_file_on_one_side_only_exits_2(tool, tmp_path, capsys):
    head, base = _side(tool, _kept(tmp_path / "head", extra=True)), _side(tool, _kept(tmp_path / "base"))
    code, out, _ = _summary(tool, capsys, head, base)
    assert code == 2 and "run@0/cf.csv: only in" in out


def test_a_short_contract_run_exits_2(tool, tmp_path, capsys):
    lines = tool.CONTRACT_LINES
    head = _side(tool, _kept(tmp_path / "head"), lines=lines - 1)
    code, _, result = _summary(tool, capsys, head, reduced=_side(tool, head.kept))
    assert code == 2 and result["failed"] == [f"(exit, lines) of the contract runs: [(0, {lines - 1}), (0, {lines})]"]


def test_a_flipped_holds_under_reduced_dispatch_or_a_stream_failure_exits_2(tool, tmp_path, capsys):
    head, reduced = _side(tool, _kept(tmp_path / "head")), _side(tool, _kept(tmp_path / "low", holds=False))
    assert _summary(tool, capsys, head, reduced=reduced)[0] == 2
    assert _summary(tool, capsys, head, streams=1)[2]["failed"] == ["stream groups fail"]
    moved = _side(tool, _kept(tmp_path / "moved", value=2.0))
    assert _summary(tool, capsys, head, reduced=moved)[0] == 0, "numbers may move under reduced dispatch"


def test_an_inert_gate_warns_and_keeps_the_exit_code(tool, tmp_path, capsys):
    head, base = _side(tool, _kept(tmp_path / "head", value=1.5)), _side(tool, _kept(tmp_path / "base"))
    code, out, _ = _summary(tool, capsys, head, base, targets=("X86_V3", "X86_V3"))
    assert code == 1 and "::warning title=Reduced dispatch inert::" in out
    assert "::warning" not in _summary(tool, capsys, head, base)[1]


def test_a_demo_that_fails_on_the_head_exits_2(tool, tmp_path, capsys):
    head = _side(tool, _kept(tmp_path / "head"), demos={"01_demo": (1, "")})
    code, out, result = _summary(tool, capsys, head, _side(tool, _kept(tmp_path / "base")))
    assert code == 2 and result["failed"] == ["demo 01_demo fails"] and "demo 01_demo: fails on head" in out
    assert _summary(tool, capsys, head)[0] == 2, "without a base too"


def test_a_demo_that_fails_only_on_the_base_is_reported(tool, tmp_path, capsys):
    base = _side(tool, _kept(tmp_path / "base"), demos={"01_demo": (1, "")})
    code, out, _ = _summary(tool, capsys, _side(tool, _kept(tmp_path / "head")), base)
    assert code == 0 and "demo 01_demo: fails on base" in out


def test_a_demo_on_one_side_only_is_reported(tool, tmp_path, capsys):
    head = _side(tool, _kept(tmp_path / "head"), demos={"01_demo": (0, "one\n"), "02_new": (0, "")})
    code, out, _ = _summary(tool, capsys, head, _side(tool, _kept(tmp_path / "base")))
    assert code == 0 and "demo 02_new: missing on base" in out


def test_a_demo_whose_stdout_moved_prints_its_diff(tool, tmp_path, capsys):
    head = _side(tool, _kept(tmp_path / "head"), demos={"01_demo": (0, "two\n")})
    code, out, _ = _summary(tool, capsys, head, _side(tool, _kept(tmp_path / "base")))
    assert code == 0 and "demo 01_demo: stdout differs:" in out and "-one\n+two\n" in out


def test_the_reach_diff_ignores_line_numbers(tool, tmp_path, capsys):
    head = _side(tool, _kept(tmp_path / "head"), reach="functions that never run: 1 of 2\n  a.py:9  a.f: pass\n")
    base = _side(tool, _kept(tmp_path / "base"))
    out = _summary(tool, capsys, head, base)[1]
    assert "reach scan unchanged" in out
    moved = head._replace(reach="functions that never run: 1 of 2\n  a.py:9  a.g: pass\n")
    out = _summary(tool, capsys, moved, base)[1]
    assert "reach scan differs:" in out and "+  a.py  a.g: pass" in out


def test_a_base_with_a_failing_reach_scan_is_reported(tool, tmp_path, capsys):
    head = _side(tool, _kept(tmp_path / "head"))
    code, out, _ = _summary(tool, capsys, head, _side(tool, _kept(tmp_path / "base"), reach=None))
    assert code == 0 and "reach scan, base: fails" in out and "reach scan unchanged" not in out


def _checkout(tool, root, demo):
    """``side`` of a checkout that holds only ``demos/01_demo.py``: its contract fails and keeps nothing."""
    (root / "demos").mkdir(parents=True)
    (root / "demos" / "01_demo.py").write_text(demo)
    (root / "kept").mkdir()
    return tool.side(root, root / "kept")


def test_a_demo_that_raises_inside_the_side_run_fails_the_head_only(tool, tmp_path, capsys):
    raises = _checkout(tool, tmp_path / "raises", 'print("one")\nraise ValueError("demo fails")\n')
    assert raises.contract[0] == 1 and raises.demos == {"01_demo": [1, "one\n"]}
    assert raises.reach.startswith("functions that never run: 0 of 0\n")
    passes = _side(tool, tmp_path / "empty", demos={"01_demo": (0, "one\n")})
    passes.kept.mkdir()
    code, out, result = _summary(tool, capsys, raises, reduced=passes)
    assert code == 2 and "demo 01_demo fails" in result["failed"] and "demo 01_demo: fails on head" in out
    code, out, _ = _summary(tool, capsys, passes, base=raises)
    assert code == 0 and "demo 01_demo: fails on base" in out


def test_correct_benchmark_runs_with_counts_exit_0_and_print_one_line_each(tool, tmp_path, capsys):
    code, out, result = _summary(tool, capsys, _side(tool, _kept(tmp_path / "head")))
    assert code == 0 and result["failed"] == [] and "stream groups pass, perfbench tests pass" in out
    lines = [line for line in out.splitlines() if line.startswith("benchmark ")]
    assert lines == [
        "benchmark a --trace 0: correct True",
        "benchmark a --trace 1: correct True, characteristics.fit_calls 800, characteristics.dsharp_calls 800, "
        "characteristics.lambda_calls 200",
        "benchmark b --trace 0: correct True",
        "benchmark b --trace 1: correct True, characteristics.fit_calls 800, characteristics.dsharp_calls 800, "
        "characteristics.lambda_calls 200",
    ]
    assert result["bench"]["a --trace 0"] == [False, "correct True"]


@pytest.mark.parametrize("run, failure", [
    ((0, 0, _bench_out(correct=False)), "benchmark a --trace 0: correct False"),
    ((0, 1, "Traceback ...\nAttributeError: no levy_khintchine_psi\n"), "benchmark a --trace 0: exits 1"),
    ((0, 0, _bench_out() + "done\n"), "benchmark a --trace 0: its last line is not a JSON object"),
    ((0, 0, ""), "benchmark a --trace 0: its last line is not a JSON object"),
    ((0, 0, "[true]\n"), "benchmark a --trace 0: its last line is not a JSON object"),
])
def test_a_failing_untraced_benchmark_run_exits_2_and_is_named(tool, tmp_path, capsys, run, failure):
    head = _side(tool, _kept(tmp_path / "head"))
    code, out, result = _summary(tool, capsys, head, bench=_bench({"a --trace 0": run}))
    assert code == 2 and result["failed"] == [failure] and failure in out


@pytest.mark.parametrize("counts, shown", [
    ({**COUNTS, "characteristics.fit_calls": 0}, "characteristics.fit_calls 0"),
    ({k: v for k, v in COUNTS.items() if k != "characteristics.lambda_calls"}, "characteristics.lambda_calls None"),
    (None, "characteristics.dsharp_calls None"),
])
def test_a_traced_run_with_a_zero_or_missing_count_exits_2(tool, tmp_path, capsys, counts, shown):
    bench = _bench({"b --trace 1": (1, 0, _bench_out(counts=counts))})
    code, _, result = _summary(tool, capsys, _side(tool, _kept(tmp_path / "head")), bench=bench)
    assert code == 2 and len(result["failed"]) == 1
    assert result["failed"][0].startswith("benchmark b --trace 1: correct True, ") and shown in result["failed"][0]


def test_untraced_counts_do_not_gate_and_failing_perfbench_tests_exit_2(tool, tmp_path, capsys):
    head = _side(tool, _kept(tmp_path / "head"))
    zeros = _bench_out(counts={name: 0 for name in COUNTS})
    code, out, _ = _summary(tool, capsys, head, bench=_bench({"a --trace 0": (0, 0, zeros)}))
    assert code == 0 and "benchmark a --trace 0: correct True\n" in out
    code, out, result = _summary(tool, capsys, head, perfbench=1)
    assert code == 2 and result["failed"] == ["perfbench tests fail"] and "perfbench tests fail" in out
