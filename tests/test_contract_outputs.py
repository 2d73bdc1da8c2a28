"""The contract-output tool: which runs and bytes it hashes."""

import hashlib
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


# A cut-down Pareto config, small enough for a unit test; the tool's last two
# runs also get a residuals line, so both runs are of this config.
_SMALL = {
    "scenario": {
        "id": "small",
        "law": {
            "base": {"kind": "pareto_symmetric", "tail_index": 1.5, "scale": 1.0},
            "prior": {"kind": "scale_lognormal", "log_mean": 0.0, "log_sd": 0.5},
        },
        "norming": {"alpha": 1.5},
        "alpha": 1.5,
        "checkers": ["uan"],
        "checker_n_grid": [100, 1000],
        "checker_replicates": 100,
        "n_grid": [64],
        "replicates": 20,
    }
}


def test_keep_writes_the_bytes_behind_each_line(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(sys, "path", list(sys.path))
    tool = _tool()
    monkeypatch.setattr(tool, "contract_runs", lambda root: [("small@3", _SMALL, 3), ("small@4", _SMALL, 4)])
    kept = tmp_path / "kept"
    assert tool.main(["--keep", str(kept)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2 * len(tool.SUFFIXES) + 2
    assert sorted(str(p.relative_to(kept)) for p in kept.rglob("*") if p.is_file()) == sorted(
        line.split("  ")[1] for line in lines
    )
    for line in lines:
        digest, name = line.split("  ")
        assert hashlib.sha256((kept / name).read_bytes()).hexdigest() == digest
    assert tool.main(["--compare", str(kept), str(kept)]) == 0
    assert capsys.readouterr().out == "0 of 8 files differ\n"


def _write(root, files):
    for name, text in files.items():
        path = root / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")


def test_compare_prints_verdicts_and_largest_changes(tmp_path, capsys):
    tool = _tool()
    report = {
        "identity": {"residual": 0.5},
        "quantities": [{"n": 1, "m": 0.5}, {"n": 2, "m": 0.25}],
        "verdicts": [{"holds": True, "evidence": {"sub": {"holds": None}}}],
    }
    moved = json.loads(json.dumps(report))
    moved["quantities"][0]["m"] = 0.5625
    moved["quantities"][1]["m"] = 0.375
    moved["verdicts"][0]["holds"] = False
    moved["identity"]["label"] = "new"
    before, after = tmp_path / "before", tmp_path / "after"
    _write(before, {
        "a@0/report.json": json.dumps(report),
        "a@0/cf.csv": "n,t\n1,0.5\n",
        "a@0/quantities.csv": "n,m\n1,0.5\n2,0.25\n",
        "a@0/residuals": "(0.5, 0.25, 0.125)\n",
    })
    _write(after, {
        "a@0/report.json": json.dumps(moved),
        "a@0/cf.csv": "n,t\n1,0.5\n",
        "a@0/quantities.csv": "n,m\n1,0.5\n2,0.5\n",
        "a@0/residuals": "(0.5, 0.25, 0.0625)\n",
        "b@0/cf.csv": "n,t\n",
    })
    assert tool.main(["--compare", str(before), str(after)]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "a@0/quantities.csv",
        "  [*].m: largest change 0.25 at [1].m (0.25 -> 0.5)",
        "a@0/report.json",
        "  holds before: [true, null]",
        "  holds after:  [false, null]",
        "  identity.label: None -> 'new'",
        "  quantities[*].m: largest change 0.125 at quantities[1].m (0.25 -> 0.375)",
        "a@0/residuals",
        "  [*][*]: largest change 0.0625 at [0][2] (0.125 -> 0.0625)",
        f"b@0/cf.csv: only in {after}",
        "4 of 5 files differ",
    ]
