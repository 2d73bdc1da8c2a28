"""The contract-output tool: which runs and bytes it hashes."""

import hashlib
import importlib.util
import json
import math
import os
import subprocess
import sys
import textwrap
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _tool():
    spec = importlib.util.spec_from_file_location("contract_outputs", ROOT / "tools" / "contract_outputs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_sixty_six_outputs_from_twenty_two_runs(monkeypatch):
    monkeypatch.setattr(sys, "path", list(sys.path))
    tool = _tool()
    runs = tool.contract_runs(ROOT)
    assert len(runs) == 22 and len(runs) * len(tool.SUFFIXES) == 66
    assert len({label for label, _, _ in runs}) == 22
    assert [seed for _, _, seed in runs[-2:]] == [3, 5]


def test_a_run_samples_an_off_twin_stable_law_at_two_row_lengths_one_past_a_block(tmp_path, monkeypatch):
    """The run that puts the sampler's saved-state redraw and its multi-block fold under the contract."""
    from stablemix.cli import load_config
    from stablemix.directing import _BLOCK, StableLaw

    monkeypatch.setattr(sys, "path", list(sys.path))
    specs = []
    for label, config, _ in _tool().contract_runs(ROOT):
        path = tmp_path / f"{label}.json"
        path.write_text(json.dumps(config), encoding="utf-8")
        specs.append(load_config(str(path)).spec)
    assert any(
        isinstance(spec.law.base, StableLaw)
        and not spec.law.base.prefix_stable
        and len(spec.cf_n_grid) >= 2
        and max(spec.cf_n_grid) > _BLOCK
        for spec in specs
    )


def test_the_runs_parse_every_nested_config_object_and_scenario_key(monkeypatch):
    """The contract reads a location prior and every scenario key the CLI parses into an object, a grid or a
    tolerance, so a change to how the CLI reads one of them shows in the contract's lines."""
    monkeypatch.setattr(sys, "path", list(sys.path))
    scenarios = [config["scenario"] for _, config, _ in _tool().contract_runs(ROOT)]
    keys = set().union(*(s for s in scenarios if isinstance(s, dict)))
    assert {"target", "stat_config", "t_grid", "joint", "joint_grid", "tau", "checker_n_grid", "checker_replicates"} <= keys
    priors = {s["law"].get("prior", {}).get("kind") for s in scenarios if isinstance(s, dict) and "law" in s}
    assert {"location_atoms", "scale_lognormal"} <= priors

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


def test_functionals_line_sees_one_ulp_in_one_call(monkeypatch):
    from stablemix import directing

    tool = _tool()
    before = tool.functional_bytes().splitlines()
    assert len(tool.functional_laws()) == 36 and len(before) == 1836
    target = (directing.ParetoLaw(1.5, 0.5, 1.0), 3.0)
    formula = directing.ParetoLaw._truncated_second

    def moved(law, bound):
        value = formula(law, bound)
        return math.nextafter(value, math.inf) if (law, bound) == target else value

    monkeypatch.setattr(directing.ParetoLaw, "_truncated_second", moved)
    after = tool.functional_bytes().splitlines()
    call = b"ParetoLaw(tail_index=1.5, pscale=0.5, right_weight=1.0).truncated_second(3.0) = "
    value = formula(*target)
    assert [(old, new) for old, new in zip(before, after) if old != new] == [
        (call + repr(value).encode(), call + repr(math.nextafter(value, math.inf)).encode())
    ]


FUNCTIONALS_WITHOUT_SCIPY = textwrap.dedent(
    """
    import importlib.util
    import sys

    spec = importlib.util.spec_from_file_location("contract_outputs", sys.argv[1])
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    tool.functional_bytes()
    loaded = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
    assert not loaded, loaded[:5]
    """
)


def test_functionals_line_loads_no_scipy():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    script = [sys.executable, "-c", FUNCTIONALS_WITHOUT_SCIPY, str(ROOT / "tools" / "contract_outputs.py")]
    done = subprocess.run(script, env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr


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
    assert len(lines) == 2 * len(tool.SUFFIXES) + 3
    assert sorted(str(p.relative_to(kept)) for p in kept.rglob("*") if p.is_file()) == sorted(
        line.split("  ")[1] for line in lines
    )
    for line in lines:
        digest, name = line.split("  ")
        assert hashlib.sha256((kept / name).read_bytes()).hexdigest() == digest
    assert tool.main(["--compare", str(kept), str(kept)]) == 0
    assert capsys.readouterr().out == "0 of 9 files differ\n"


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
    assert tool.main(["--compare", str(before), str(after)]) == 2
    assert capsys.readouterr().out.splitlines() == [
        "a@0/quantities.csv",
        "  [*].m: largest change 0.25 at [1].m (0.25 -> 0.5), largest relative change 0.5 at [1].m",
        "a@0/report.json",
        "  holds before: [true, null]",
        "  holds after:  [false, null]",
        "  identity.label: None -> 'new'",
        "  quantities[*].m: largest change 0.125 at quantities[1].m (0.25 -> 0.375), "
        "largest relative change 0.333 at quantities[1].m",
        "a@0/residuals",
        "  [*][*]: largest change 0.0625 at [0][2] (0.125 -> 0.0625), largest relative change 0.5 at [0][2]",
        f"b@0/cf.csv: only in {after}",
        "4 of 5 files differ",
    ]


def test_compare_prints_the_largest_relative_change(tmp_path, capsys):
    # An ulp-sized move of a small residual is the field's largest relative
    # change, while a larger absolute move of a bigger value hides it.
    tool = _tool()
    small, large = 0.0016027092525066013, 0.75
    before = f"(0.5, 0.25, {small!r})\n(0.5, 0.25, {large!r})\n"
    after = f"(0.5, 0.25, {small + 2e-16!r})\n(0.5, 0.25, {large + 1e-15!r})\n"
    _write(tmp_path / "before", {"a@0/residuals": before})
    _write(tmp_path / "after", {"a@0/residuals": after})
    assert tool.main(["--compare", str(tmp_path / "before"), str(tmp_path / "after")]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "a@0/residuals",
        "  [*][*]: largest change 9.99e-16 at [1][2] (0.75 -> 0.750000000000001), "
        "largest relative change 1.25e-13 at [0][2]",
        "1 of 1 files differ",
    ]


def test_compare_prints_one_line_per_resized_list(tmp_path, capsys):
    tool = _tool()
    report = {"verdicts": [{"holds": True, "atoms": [{"c": 1.0, "w": 0.5}, {"c": 2.0, "w": 0.5}], "tag": "x"}]}
    moved = json.loads(json.dumps(report))
    moved["verdicts"][0]["atoms"] = [{"c": 1.5, "w": 0.25}, {"c": 2.0, "w": 0.25}, {"c": 3.0, "w": 0.5}]
    moved["verdicts"][0]["atoms"][0]["new"] = 1.0
    before, after = tmp_path / "before", tmp_path / "after"
    _write(before, {"a@0/report.json": json.dumps(report), "a@0/residuals": "(0.5, 0.25)\n(0.5, 0.5)\n"})
    _write(after, {"a@0/report.json": json.dumps(moved), "a@0/residuals": "(0.5, 0.25)\n"})
    assert tool.main(["--compare", str(before), str(after)]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "a@0/report.json",
        "  holds before: [true]",
        "  holds after:  [true]",
        "  verdicts[0].atoms: length 2 -> 3",
        "  verdicts[0].atoms[0].new: None -> 1.0",
        "  verdicts[*].atoms[*].c: largest change 0.5 at verdicts[0].atoms[0].c (1.0 -> 1.5), "
        "largest relative change 0.333 at verdicts[0].atoms[0].c",
        "  verdicts[*].atoms[*].w: largest change 0.25 at verdicts[0].atoms[0].w (0.5 -> 0.25), "
        "largest relative change 0.5 at verdicts[0].atoms[0].w",
        "a@0/residuals",
        "  (top level): length 2 -> 1",
        "2 of 2 files differ",
    ]


def test_compare_folds_the_functionals_by_law_and_functional(tmp_path, capsys):
    tool = _tool()
    law = "CauchyLaw(location=1.0, cscale=1.0)"
    before = f"{law}.smoothed_mean(0.5) = 0.25\n{law}.smoothed_mean(2.0) = 0.5\n{law}.cdf(0.0) = 0.25\n"
    after = before.replace("(2.0) = 0.5", "(2.0) = 0.625").replace("= 0.25\n", "= ZeroDivisionError\n", 1)
    _write(tmp_path / "before", {"functionals": before})
    _write(tmp_path / "after", {"functionals": after})
    assert tool.main(["--compare", str(tmp_path / "before"), str(tmp_path / "after")]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "functionals",
        f"  {law}.smoothed_mean[0]: 0.25 -> 'ZeroDivisionError'",
        f"  {law}.smoothed_mean[*]: largest change 0.125 at {law}.smoothed_mean[1] (0.5 -> 0.625), "
        f"largest relative change 0.2 at {law}.smoothed_mean[1]",
        "1 of 1 files differ",
    ]


def test_compare_prints_a_sign_of_zero_or_type_flip(tmp_path, capsys):
    # Equal values that differ in sign or type are changes, not silence.
    tool = _tool()
    _write(tmp_path / "before", {
        "a@0/report.json": json.dumps({"beta": 0.0, "n": 1, "c": 0.5}),
        "a@0/quantities.csv": "n,m\n1,0.0\n",
    })
    _write(tmp_path / "after", {
        "a@0/report.json": json.dumps({"beta": -0.0, "n": 1.0, "c": 0.5}),
        "a@0/quantities.csv": "n,m\n1,-0.0\n",
    })
    assert tool.main(["--compare", str(tmp_path / "before"), str(tmp_path / "after")]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "a@0/quantities.csv",
        "  [0].m: 0.0 -> -0.0",
        "a@0/report.json",
        "  beta: 0.0 -> -0.0",
        "  n: 1 -> 1.0",
        "2 of 2 files differ",
    ]


def test_compare_pairs_each_limit_atom_with_its_nearest(tmp_path, capsys):
    # The checkers list the atoms sorted by (gamma, c, beta), so a gamma that
    # moves from rounding noise to 0.0 reorders them. Paired by position, the
    # c of b@0 would read a change of 8.19 and its weights one of 0.005.
    tool = _tool()

    def atom(gamma, c, weight):
        return {"alpha": 1.5, "beta": 0.0, "c": c, "gamma": gamma, "weight": weight}

    def report(atoms):
        return json.dumps({"verdicts": [{"holds": True, "estimated_limit": {"atoms": atoms, "gamma": 0.0}}]})

    far, near = atom(-4.3e-11, 8.92, 0.085), atom(0.0, 0.73, 0.08)
    before, after = tmp_path / "before", tmp_path / "after"
    _write(before, {"a@0/report.json": report([far, near]), "b@0/report.json": report([far, near])})
    _write(after, {
        "a@0/report.json": report([near, far]),
        "b@0/report.json": report([near, atom(0.0, 8.92 + 2e-11, 0.085)]),
    })
    assert tool.main(["--compare", str(before), str(after)]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "a@0/report.json",
        "  holds before: [true]",
        "  holds after:  [true]",
        "  verdicts[0].estimated_limit.atoms: same atoms, reordered",
        "b@0/report.json",
        "  holds before: [true]",
        "  holds after:  [true]",
        "  verdicts[0].estimated_limit.atoms: atoms reordered",
        "  verdicts[*].estimated_limit.atoms[*].gamma: largest change 4.3e-11 at "
        "verdicts[0].estimated_limit.atoms[0].gamma (-4.3e-11 -> 0.0), "
        "largest relative change 1 at verdicts[0].estimated_limit.atoms[0].gamma",
        "  verdicts[*].estimated_limit.atoms[*].c: largest change 2e-11 at "
        "verdicts[0].estimated_limit.atoms[0].c (8.92 -> 8.92000000002), "
        "largest relative change 2.24e-12 at verdicts[0].estimated_limit.atoms[0].c",
        "2 of 2 files differ",
    ]


def test_compare_exits_2_only_when_a_verdict_changes(tmp_path):
    # 0 for equal directories, 1 when only numbers move, 2 when a verdict's
    # holds changes, also beside moved numbers in another file, and 2 when a
    # file or a whole directory is on one side only, so a failed run on
    # either side cannot pass for unchanged verdicts.
    tool = _tool()

    def report(holds, residual):
        return json.dumps({"verdicts": [{"holds": holds, "evidence": {"max_residual": residual}}]})

    base = {"a@0/report.json": report(None, 0.5), "b@0/report.json": report(True, 0.25)}
    cases = {
        "same": (base, 0),
        "moved": ({**base, "a@0/report.json": report(None, 0.5000000000001)}, 1),
        "flipped": ({**base, "b@0/report.json": report(None, 0.25)}, 2),
        "both": ({"a@0/report.json": report(None, 0.75), "b@0/report.json": report(False, 0.25)}, 2),
        "missing": ({"a@0/report.json": report(None, 0.5000000000001)}, 2),
        "added": ({**base, "c@0/report.json": report(True, 0.5)}, 2),
    }
    _write(tmp_path / "before", base)
    for name, (files, code) in cases.items():
        _write(tmp_path / name, files)
        assert tool.main(["--compare", str(tmp_path / "before"), str(tmp_path / name)]) == code, name
    assert tool.main(["--compare", str(tmp_path / "absent"), str(tmp_path / "before")]) == 2
    assert tool.main(["--compare", str(tmp_path / "before"), str(tmp_path / "absent")]) == 2
