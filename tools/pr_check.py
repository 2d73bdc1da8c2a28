#!/usr/bin/env python3
"""Run a change's behaviour contract, demos and reach scan; ``--against REV`` compares them with REV.

Here and on a ``git archive`` copy of REV it runs the contract (``--keep``) and the demos under ``FLAGS``, the
reach scan and the line counts of ``src/stablemix`` and ``tests``; here only, the contract, ``STREAM_GROUPS`` and
NumPy's active dispatch targets under ``REDUCED``. Exit 2: a contract run fails or is not 63 lines, a stream group
or a demo fails here, or ``--compare`` exits 2 under reduced dispatch or against REV (a flipped ``holds``, a file
on one side only); else 1 when numbers moved against REV. All else, REV's failures too, is only reported:

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
from typing import Optional, Sequence, Tuple

import bench_record
import contract_outputs

ROOT = Path(__file__).resolve().parent.parent
FLAGS = ("-W", "error::RuntimeWarning", "-W", "error::UserWarning")
REDUCED = {"NPY_DISABLE_CPU_FEATURES": "X86_V4 AVX512_ICL AVX512_SPR"}  # NumPy's AVX-512 kernels off
STREAM_GROUPS = ("tests/test_directing.py::TestSymmetricParetoHeads", "tests/test_directing.py::TestStreamFacts",
                 "tests/test_empirics.py::TestEmpiricalCfPairs")
TARGETS = "import bench_record; print(*bench_record.simd_targets()['dispatch_active'])"
UNLINED = re.compile(r"^(  [^ :]+):[0-9]+", re.MULTILINE)  # a reach-scan line's line number
Side = collections.namedtuple("Side", "contract kept demos reach lines", defaults=({}, (None, ""), {}))  # per checkout


def run(argv: Sequence[str], cwd: Path, reduced: bool = False) -> Tuple[Optional[int], str]:
    """Exit code and stdout of ``python argv`` in ``cwd`` with ``PYTHONPATH=src``; a failure prints to stderr."""
    env = {**os.environ, "PYTHONPATH": "src", **(REDUCED if reduced else {})}
    proc = subprocess.run([sys.executable, *argv], cwd=cwd, env=env, capture_output=True, text=True)
    if proc.returncode:
        print(f"{' '.join(argv)} exited {proc.returncode} in {cwd}:\n{proc.stdout}{proc.stderr}", file=sys.stderr)
    return proc.returncode, proc.stdout


def side(root: Path, kept: Path) -> Side:
    contract = run([*FLAGS, str(ROOT / "tools/contract_outputs.py"), "--root", str(root), "--keep", str(kept)], root)
    demos = {path.stem: run([*FLAGS, f"demos/{path.name}"], root) for path in sorted(root.glob("demos/*.py"))}
    reach = run(["tools/reach.py"], root) if (root / "tools/reach.py").is_file() else (None, "")
    files = [*root.glob("src/stablemix/*.py"), *root.glob("tests/*.py")]
    return Side(contract, kept, demos, reach, {str(f.relative_to(root)): f.read_bytes().count(b"\n") for f in files})


def summarize(head: Side, reduced: Side, streams: int, targets: Sequence[str], base: Optional[Side], rev: str) -> int:
    def compare(before: Side, after: Side, label: str) -> int:
        status = contract_outputs.compare(before.kept, after.kept)
        lines = [s.contract[1].splitlines() for s in (before, after)]
        print(f"{label}: {len(set(lines[1]) - set(lines[0]))} of {len(lines[1])} lines move, --compare exits {status}")
        return status
    runs = [(s.contract[0], len(s.contract[1].splitlines())) for s in (head, reduced)]
    checks = [(runs != [(0, 63)] * 2, f"(exit, lines) of the contract runs: {runs}"), (streams, "stream groups fail")]
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
        counts = "; ".join(line for line in s.reach[1].splitlines() if line[:1] != " ")
        print(f"reach scan, {label}: " + {None: "no tools/reach.py", 0: counts}.get(s.reach[0], "fails"))
    if base and base.reach[0] == head.reach[0] == 0:
        diff = "".join(difflib.unified_diff(*(UNLINED.sub(r"\1", s.reach[1]).splitlines(True) for s in (base, head))))
        print("reach scan differs:\n" + diff if diff else "reach scan unchanged")
    for path in sorted({p for s in sides.values() for p in s.lines if p[:4] == "src/"}) + ["src/stablemix", "tests"]:
        result[path] = {label: sum(n for p, n in s.lines.items() if p.startswith(path)) for label, s in sides.items()}
        print(f"{path} lines: " + ", ".join(f"{label} {n}" for label, n in result[path].items()))
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
        return summarize(side(ROOT, Path(tmp, "head")), reduced, streams, targets, base, rev)


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:  # a crash exits 2, since CI lets exit 1 (numbers moved) pass
        traceback.print_exc()
        sys.exit(2)
