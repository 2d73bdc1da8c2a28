#!/usr/bin/env python3
"""Run a change's contract, demos, reach scan and benchmark gates; ``--against REV`` compares them with REV.

Here and on a ``git archive`` copy of REV, one child under ``FLAGS`` runs this checkout's ``reach.scan`` (the contract,
then the demos); the line counts of ``src/stablemix`` and ``tests`` follow. Here only, the contract, ``STREAM_GROUPS``
and NumPy's dispatch targets run under ``REDUCED``, then ``pytest perfbench`` and ``BENCH`` per workload, untraced and
traced: a traced run exits nonzero when a name that ``perfbench/spans.py`` patches is renamed, and reads 0 in
``COUNTS`` when a wrapper stops firing. Exit 2: a contract run fails or is not ``CONTRACT_LINES`` lines; here a stream
group, a demo, a perfbench test or a ``BENCH`` run fails (exits nonzero, ends in no JSON object, is not ``correct``, or
reads a traced count missing or 0); ``--compare`` exits 2 under reduced dispatch or against REV (a flipped ``holds``,
a file on one side only). Else 1 when numbers moved against REV. All else, REV's failures too, is only reported:

    python3 tools/pr_check.py --against HEAD~1
"""

import argparse
import collections
import difflib
import json
import os
import re
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path
from typing import Dict, Optional, Sequence, Tuple

import bench_record
import contract_outputs

ROOT = Path(__file__).resolve().parent.parent
FLAGS = ("-W", "error::RuntimeWarning", "-W", "error::UserWarning")
CONTRACT_LINES = 69
REDUCED = {"NPY_DISABLE_CPU_FEATURES": "X86_V4 AVX512_ICL AVX512_SPR"}  # NumPy's AVX-512 kernels off
STREAM_GROUPS = (  # each rests on NumPy's sin being odd bit for bit under every dispatch target
    "tests/test_empirics.py::TestEmpiricalCfPairs",
    "tests/test_stable_functionals.py::TestSymmetricMirror",
)
TARGETS = "import bench_record; print(*bench_record.simd_targets()['dispatch_active'])"
SCAN = "import json, sys; sys.path.insert(0, {!r}); import reach; print(json.dumps(reach.scan({!r}, {!r})))"
BENCH = "perfbench/run.py --workload {} --seed 0 --seconds 1 --trace {}"
COUNTS = ("characteristics.fit_calls", "characteristics.dsharp_calls", "characteristics.lambda_calls")
UNLINED = re.compile(r"^(  [^ :]+):[0-9]+", re.MULTILINE)  # a reach-scan line's line number
Side = collections.namedtuple("Side", "contract kept demos reach lines", defaults=({}, None, {}))  # per checkout


def run(argv: Sequence[str], cwd: Path, reduced: bool = False) -> Tuple[int, str]:
    """Exit code and stdout of ``python argv`` in ``cwd`` with ``PYTHONPATH=src``; its stderr passes through."""
    env = {**os.environ, "PYTHONPATH": "src", **(REDUCED if reduced else {})}
    proc = subprocess.run([sys.executable, *argv], cwd=cwd, env=env, stdout=subprocess.PIPE, text=True)
    if proc.returncode:
        print(f"{' '.join(argv)} exited {proc.returncode} in {cwd}:\n{proc.stdout}", file=sys.stderr)
    return proc.returncode, proc.stdout


def side(root: Path, kept: Path) -> Side:
    """``reach.scan`` of ``root`` in one child, and its line counts; a failed child fails the contract and the scan."""
    code, out = run([*FLAGS, "-c", SCAN.format(str(ROOT / "tools"), str(root), str(kept))], root)
    scan = json.loads(out) if code == 0 else {"contract": (code, "")}
    files = [*root.glob("src/stablemix/*.py"), *root.glob("tests/*.py")]
    return Side(kept=kept, lines={str(f.relative_to(root)): f.read_bytes().count(b"\n") for f in files}, **scan)


def summarize(head: Side, reduced: Side, tests: Dict[str, int], targets: Sequence[str],
              bench: Dict[str, Tuple[int, int, str]], base: Optional[Side], rev: str) -> int:
    def compare(before: Side, after: Side, label: str) -> int:
        status = contract_outputs.compare(before.kept, after.kept)
        lines = [s.contract[1].splitlines() for s in (before, after)]
        print(f"{label}: {len(set(lines[1]) - set(lines[0]))} of {len(lines[1])} lines move, --compare exits {status}")
        return status
    def bench_run(trace: int, code: int, out: str) -> Tuple[bool, str]:
        """Whether a ``BENCH`` run at ``--trace trace`` fails, and what its exit code or last stdout line says."""
        try:
            record = json.loads(out.splitlines()[-1])
        except (IndexError, ValueError):
            record = None
        if code or not isinstance(record, dict):
            return True, f"exits {code}" if code else "its last line is not a JSON object"
        counts = {name: record.get("metrics", {}).get(name, {}).get("value") for name in COUNTS} if trace else {}
        text = f"correct {record.get('correct')}" + "".join(f", {name} {n}" for name, n in counts.items())
        return record.get("correct") is not True or not all(counts.values()), text
    runs = [(s.contract[0], len(s.contract[1].splitlines())) for s in (head, reduced)]
    checks = [(runs != [(0, CONTRACT_LINES)] * 2, f"(exit, lines) of the contract runs: {runs}")]
    checks += [(code, f"{name} fail") for name, code in tests.items()]
    print(", ".join(f"{name} {'fail' if code else 'pass'}" for name, code in tests.items()))
    print("active dispatch targets: default [{}], reduced [{}]".format(*targets))
    if targets[0] == targets[1]:
        print("::warning title=Reduced dispatch inert::no disabled target is active here, so the run checks nothing")
    result = {"reduced": compare(head, reduced, "contract under reduced dispatch")}
    checks.append((result["reduced"] == 2, "reduced dispatch changes a holds"))
    sides = {"head": head, **({rev: base} if base else {})}
    for name in sorted(set().union(*(s.demos for s in sides.values()))):
        codes = {label: s.demos.get(name, (None, ""))[0] for label, s in sides.items()}
        checks.append((codes["head"], f"demo {name} fails"))
        note = ", ".join(f"{'missing' if c is None else 'fails'} on {label}" for label, c in codes.items() if c != 0)
        if base and not note:
            diff = "".join(difflib.unified_diff(*(s.demos[name][1].splitlines(True) for s in (base, head))))
            note = "stdout differs:\n" + diff if diff else "stdout unchanged"
        print(f"demo {name}: {note or 'passes'}")
    for label, s in sides.items():
        counts = "fails" if s.reach is None else "; ".join(line for line in s.reach.splitlines() if line[:1] != " ")
        print(f"reach scan, {label}: {counts}")
    if base and None not in (base.reach, head.reach):
        diff = "".join(difflib.unified_diff(*(UNLINED.sub(r"\1", s.reach).splitlines(True) for s in (base, head))))
        print("reach scan differs:\n" + diff if diff else "reach scan unchanged")
    for path in sorted({p for s in sides.values() for p in s.lines if p[:4] == "src/"}) + ["src/stablemix", "tests"]:
        result[path] = {label: sum(n for p, n in s.lines.items() if p.startswith(path)) for label, s in sides.items()}
        print(f"{path} lines: " + ", ".join(f"{label} {n}" for label, n in result[path].items()))
    result["bench"] = {label: bench_run(*ran) for label, ran in bench.items()}
    checks += [(bad, f"benchmark {label}: {text}") for label, (bad, text) in result["bench"].items()]
    print(*(f"benchmark {label}: {text}" for label, (_, text) in result["bench"].items()), sep="\n")
    if base:
        result["compare"] = compare(base, head, f"contract against {rev}")
        checks.append((result["compare"] == 2, f"--compare against {rev} exits 2"))
    failed = [message for bad, message in checks if bad]
    code = 2 if failed else 1 if result.get("compare") else 0
    print(json.dumps({"exit": code, "failed": failed, **result}))
    return code


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--against", metavar="REV", help="also run a git archive copy of REV and compare with it")
    rev = parser.parse_args(argv).against
    with tempfile.TemporaryDirectory(prefix="pr-check-") as tmp:
        base = side(bench_record.export(rev, Path(tmp, "rev")), Path(tmp, "rev-kept")) if rev else None
        reduced = Side(run([*FLAGS, "tools/contract_outputs.py", "--keep", f"{tmp}/low"], ROOT, True), Path(tmp, "low"))
        streams = run(["-W", "ignore::ImportWarning", "-m", "pytest", "-q", *STREAM_GROUPS], ROOT, True)[0]
        targets = [run(["-W", "ignore::ImportWarning", "-c", TARGETS], ROOT / "tools", r)[1].strip() for r in (0, 1)]
        tests = {"stream groups": streams, "perfbench tests": run(["-m", "pytest", "-q", "perfbench"], ROOT)[0]}
        workloads = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
        bench = {f"{w} --trace {t}": (t, *run(BENCH.format(w, t).split(), ROOT)) for w in workloads for t in (0, 1)}
        return summarize(side(ROOT, Path(tmp, "head")), reduced, tests, targets, bench, base, rev)


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:  # a crash exits 2, since CI lets exit 1 (numbers moved) pass
        traceback.print_exc()
        sys.exit(2)
