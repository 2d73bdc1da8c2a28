"""The reach scan of ``tools/reach.py``: what one run executes of the package."""

import importlib.util
import runpy
import sys
import types
from pathlib import Path

from stablemix.empirics import run_scenario

ROOT = Path(__file__).resolve().parent.parent


def _tool():
    spec = importlib.util.spec_from_file_location("reach", ROOT / "tools" / "reach.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_one_scenario_run_reaches_run_scenario_and_not_levy_khintchine_psi():
    tool = _tool()

    def profiler(frame, event, arg):
        return None

    sys.setprofile(profiler)
    try:
        trace = tool.traced(lambda: run_scenario("point-mass", 0))
        assert sys.getprofile() is profiler, "the scan must restore the profiler set before it"
    finally:
        sys.setprofile(None)
    found = tool.functions()
    names = {f.name for f in found}
    assert {"stable.levy_khintchine_psi", "empirics.run_scenario"} <= names
    missed = {f.name for f in tool.never_run(found, trace)}
    assert "stable.levy_khintchine_psi" in missed
    assert "empirics.run_scenario" not in missed
    assert tool.unrun_statements(found, trace), "a point-mass run leaves some statement of what it calls unrun"


def test_a_module_body_is_not_a_call_of_the_function_on_its_first_line(tmp_path):
    tool = _tool()
    package = tmp_path.resolve() / "stablemix"
    package.mkdir()
    (package / "m.py").write_text("def f():\n    return 1\n\n\nVALUE = 2\n")
    trace = tool.traced(lambda: runpy.run_path(str(package / "m.py")), package)
    found = tool.functions(package)
    assert [f.name for f in tool.never_run(found, trace)] == ["m.f"]
    assert tool.unrun_statements(found, trace) == []
    assert (str(package / "m.py"), 5) in trace.lines, "the module body still runs traced"


def test_a_failing_contract_or_demo_is_recorded_and_the_scan_goes_on(tmp_path, monkeypatch):
    tool = _tool()
    package = tmp_path.resolve() / "src" / "stablemix"
    package.mkdir(parents=True)
    (package / "m.py").write_text('"""A module."""\n\n\ndef reached():\n    return 1\n\n\ndef missed():\n    return 2\n')
    (tmp_path / "demos").mkdir()
    (tmp_path / "demos" / "01_raises.py").write_text('print("partial")\nraise ValueError("demo fails")\n')
    (tmp_path / "demos" / "02_runs.py").write_text(
        f'import runpy\nrunpy.run_path({str(package / "m.py")!r})["reached"]()\nprint("after")\n'
    )
    # The contract prints its arguments and exits 1.
    monkeypatch.setitem(sys.modules, "contract_outputs", types.SimpleNamespace(main=lambda argv: print(*argv) or 1))
    result = tool.scan(tmp_path, tmp_path / "kept")
    assert result["contract"] == (1, f"--root {tmp_path} --keep {tmp_path / 'kept'}\n")
    assert result["demos"] == {"01_raises": (1, "partial\n"), "02_runs": (0, "after\n")}
    assert result["reach"] == (
        "functions that never run: 1 of 2\n  m.py:8  m.missed: def missed():\n"
        "statements that never run inside functions that do: 0\n"
        "statements that only the demos reach: 1\n  m.py:5  m.reached: return 1\n"
    )
