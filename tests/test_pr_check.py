"""The summary and exit code of ``tools/pr_check.py`` on small fake runs."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
TARGETS = ("X86_V3 X86_V4 AVX512_ICL AVX512_SPR", "X86_V3")


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


def _side(tool, kept, lines=63, demos=None, reach=(0, "functions that never run: 1 of 2\n  a.py:3  a.f: pass\n")):
    contract = (0, "".join(f"{i:064x}  run@{i}/report.json\n" for i in range(lines)))
    demos = {"01_demo": (0, "one\n")} if demos is None else demos
    return tool.Side(contract, kept, demos, reach, {"src/stablemix/a.py": 10, "tests/test_a.py": 5})


def _summary(tool, capsys, head, base=None, reduced=None, streams=0, targets=TARGETS):
    code = tool.summarize(head, reduced or head, streams, targets, base, "base")
    out = capsys.readouterr().out
    result = json.loads(out.splitlines()[-1])
    assert result["exit"] == code
    return code, out, result


def test_unchanged_exits_0_and_quotes_counts(tool, tmp_path, capsys):
    head, base = (_side(tool, _kept(tmp_path / name)) for name in ("head", "base"))
    code, out, result = _summary(tool, capsys, head, base)
    assert code == 0 and result["failed"] == [] and result["compare"] == 0 and result["reduced"] == 0
    assert "contract against base: 0 of 63 lines move, --compare exits 0" in out
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
    head = _side(tool, _kept(tmp_path / "head"), lines=62)
    code, _, result = _summary(tool, capsys, head, reduced=_side(tool, head.kept))
    assert code == 2 and result["failed"] == ["(exit, lines) of the contract runs: [(0, 62), (0, 63)]"]


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
    head = _side(tool, _kept(tmp_path / "head"), reach=(0, "functions that never run: 1 of 2\n  a.py:9  a.f: pass\n"))
    base = _side(tool, _kept(tmp_path / "base"))
    out = _summary(tool, capsys, head, base)[1]
    assert "reach scan unchanged" in out
    moved = head._replace(reach=(0, "functions that never run: 1 of 2\n  a.py:9  a.g: pass\n"))
    out = _summary(tool, capsys, moved, base)[1]
    assert "reach scan differs:" in out and "+  a.py  a.g: pass" in out


def test_a_base_without_a_reach_scan_or_with_a_failing_one_is_reported(tool, tmp_path, capsys):
    head = _side(tool, _kept(tmp_path / "head"))
    for reach, note in (((None, ""), "no tools/reach.py"), ((1, ""), "fails")):
        code, out, _ = _summary(tool, capsys, head, _side(tool, _kept(tmp_path / note), reach=reach))
        assert code == 0 and f"reach scan, base: {note}" in out and "reach scan unchanged" not in out
