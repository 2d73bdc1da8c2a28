"""The contract-output tool: which runs and bytes it hashes."""

import importlib.util
import json
import math
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _tool():
    spec = importlib.util.spec_from_file_location("contract_outputs", ROOT / "tools" / "contract_outputs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_sixty_outputs_from_twenty_runs(monkeypatch):
    monkeypatch.setattr(sys, "path", list(sys.path))
    tool = _tool()
    runs = tool.contract_runs(ROOT)
    assert len(runs) == 20 and len(runs) * len(tool.SUFFIXES) == 60
    assert len({label for label, _, _ in runs}) == 20
    assert [seed for _, _, seed in runs[-2:]] == [3, 5]


def test_report_bytes_ignore_runtimes_only():
    tool = _tool()
    report = {"seed": 1, "sup_distance": {"256": 0.1}, "runtimes": {"total": 1.5}}
    slower = dict(report, runtimes={"total": 2.5})
    other = dict(report, seed=2)
    digest = tool.contract_bytes("report.json", json.dumps(report).encode())
    assert tool.contract_bytes("report.json", json.dumps(slower).encode()) == digest
    assert tool.contract_bytes("report.json", json.dumps(other).encode()) != digest
    assert tool.contract_bytes("cf.csv", b"n,t\n") == b"n,t\n"


def test_residual_bytes_see_one_ulp():
    tool = _tool()
    fits = [(0.5, 0.25, 0.125), (1.0, 2.0, 0.0625)]
    moved = [fits[0], (1.0, 2.0, math.nextafter(0.0625, 1.0))]
    assert tool.residual_bytes(moved) != tool.residual_bytes(fits)
