"""The reach scan of ``tools/reach.py``: what one run executes of the package."""

import importlib.util
import sys
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
