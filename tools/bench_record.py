#!/usr/bin/env python3
"""Record the benchmark of HEAD in ``BENCH_<workload>.json``, one per workload.

For each workload of ``BENCHMARK.json`` and each seed s = 1..10 the script
exports HEAD with ``git archive`` into a fresh directory, runs

    python3 perfbench/run.py --workload <workload> --seed s --seconds 40 --trace 0

there, reads the run's record ``.perfbench_runs/<workload>-seed<s>-trace0.json``
and deletes the copy; the seconds are ``BENCHMARK.json``'s ``run_seconds``.
A fresh copy per run keeps ``peak_rss_mb`` independent of whatever an
earlier run or the working checkout left behind. The file it writes holds,
per end-to-end metric, the median, the quartiles and k = 10, then
the ops attempted and failed over all runs, the record's ``machine`` block
with the commit filled in (an archive copy has no ``.git``), and NumPy's
baseline and active dispatched SIMD targets, which decide the last bits of
its vectorized transcendental functions.

    python3 tools/bench_record.py
    python3 tools/bench_record.py --against HEAD~1

``--against REV`` runs REV as well, alternating which side goes first (HEAD
on even seeds, REV on odd ones), and prints for each metric both sides'
medians and quartiles and in how many of the 10 pairs HEAD was better, in
the direction ``BENCHMARK.json`` gives. After that table comes one verdict
line per metric on the gain rule: HEAD is better in at least 9 of the 10
pairs, and its median is better than REV's by more than REV's interquartile
range. Quartiles are the inclusive ones of ``statistics.quantiles``. The
exit code is 1 when any op failed its output checks on either side.
"""

from __future__ import annotations

import argparse
import json
import math
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Dict, List, Optional, Sequence

ROOT = Path(__file__).resolve().parent.parent
RUNS = 10  # seeds 1..RUNS; ten pairs is the fewest that can show a gain


def _git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True, text=True).stdout.strip()


def simd_targets() -> Dict[str, List[str]]:
    """NumPy's baseline SIMD targets and the dispatched ones active here
    (``NPY_DISABLE_CPU_FEATURES`` switches the latter off)."""
    from numpy._core import _multiarray_umath as umath

    features = umath.__cpu_features__
    return {
        "baseline": list(umath.__cpu_baseline__),
        "dispatch_active": [name for name in umath.__cpu_dispatch__ if features.get(name)],
    }


def export(commit: str, into: Path) -> Path:
    """Extract a ``git archive`` copy of ``commit`` into the directory ``into``, made if missing, and return it."""
    into.mkdir(parents=True, exist_ok=True)
    archive = subprocess.run(["git", "archive", commit], cwd=ROOT, check=True, capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(into)], input=archive, check=True)
    return into


def run_once(commit: str, workload: str, seed: int, seconds: float, scratch: Path) -> dict:
    """One benchmark run in a fresh archive copy of ``commit``; its record."""
    copy = Path(tempfile.mkdtemp(prefix=f"bench-{commit[:12]}-", dir=scratch))
    try:
        export(commit, copy)
        argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
                "--seconds", str(seconds), "--trace", "0"]
        proc = subprocess.run(argv, cwd=copy, capture_output=True, text=True)
        if proc.returncode != 0:
            raise RuntimeError(f"{' '.join(argv)} exited {proc.returncode} at {commit[:12]}:\n{proc.stderr}")
        record_path = copy / ".perfbench_runs" / f"{workload}-seed{seed}-trace0.json"
        return json.loads(record_path.read_text(encoding="utf-8"))
    finally:
        shutil.rmtree(copy, ignore_errors=True)


def summarize(records: Sequence[dict]) -> Dict[str, dict]:
    """Per metric: unit, median, quartiles and k over the runs."""
    out = {}
    for name, first in records[0]["metrics"].items():
        values = [record["metrics"][name]["value"] for record in records]
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
        out[name] = {
            "unit": first["unit"],
            "median": statistics.median(values),
            "q1": q1,
            "q3": q3,
            "k": len(values),
            "values": values,
        }
    return out


def bench_file(commit: str, workload: str, seconds: float, seeds: Sequence[int], records: Sequence[dict]) -> dict:
    machine = dict(records[0]["machine"], git_commit=commit)
    return {
        "workload": workload,
        "commit": commit,
        "command": f"perfbench/run.py --workload {workload} --seed <s> --seconds {seconds:g} --trace 0",
        "seeds": list(seeds),
        "metrics": summarize(records),
        "attempted": sum(record["attempted"] for record in records),
        "failed": sum(record["failed"] for record in records),
        "machine": machine,
        "numpy_simd": simd_targets(),
    }


def _paired(mine: Sequence[dict], theirs: Sequence[dict], lower: Dict[str, bool]):
    """Per metric: its name, HEAD's and REV's summaries, the sign that makes
    lower better, and in how many pairs HEAD was better."""
    ours, base = summarize(mine), summarize(theirs)
    for name, stats in ours.items():
        other = base[name]
        sign = 1.0 if lower.get(name, True) else -1.0
        better = sum(1 for a, b in zip(stats["values"], other["values"]) if sign * (a - b) < 0.0)
        yield name, stats, other, sign, better


def compare(mine: Sequence[dict], theirs: Sequence[dict], rev: str, lower: Dict[str, bool]) -> List[str]:
    """One line per metric: REV's and HEAD's median [q1, q3], and how many
    pairs HEAD was better in; ``lower`` says per metric whether lower is better."""
    return [
        f"{name} ({stats['unit']}): {rev} {other['median']:.4g} [{other['q1']:.4g}, {other['q3']:.4g}]"
        f" -> {stats['median']:.4g} [{stats['q1']:.4g}, {stats['q3']:.4g}], better in {better} of {stats['k']} pairs"
        for name, stats, other, _, better in _paired(mine, theirs, lower)
    ]


def gain_verdicts(mine: Sequence[dict], theirs: Sequence[dict], rev: str, lower: Dict[str, bool]) -> List[str]:
    """One line per metric: whether HEAD's gain over REV holds, i.e. HEAD is
    better in at least nine tenths of the pairs and its median is better by
    more than REV's interquartile range."""
    lines = []
    for name, stats, other, sign, better in _paired(mine, theirs, lower):
        needed = math.ceil(0.9 * stats["k"])
        gap, spread = sign * (other["median"] - stats["median"]), other["q3"] - other["q1"]
        verdict = "holds" if better >= needed and gap > spread else "does not hold"
        lines.append(
            f"{name}: gain over {rev} {verdict}: better in {better} of {stats['k']} pairs (needs {needed}),"
            f" median gap {gap:.4g} against {rev}'s IQR {spread:.4g}"
        )
    return lines


def record_workload(workload: str, other: Optional[str], seconds: float, lower: Dict[str, bool]) -> int:
    """Write ``BENCH_<workload>.json`` for HEAD and, with ``other``, print the
    comparison; the number of failed ops on either side."""
    commit = _git("rev-parse", "HEAD")
    seeds = range(1, RUNS + 1)
    mine: List[dict] = []
    theirs: List[dict] = []
    scratch = Path(tempfile.mkdtemp(prefix="bench-record-"))
    try:
        for seed in seeds:
            sides = [(commit, mine)] if other is None else [(commit, mine), (other, theirs)][:: 1 if seed % 2 == 0 else -1]
            for rev, records in sides:
                record = run_once(rev, workload, seed, seconds, scratch)
                records.append(record)
                wall = record["metrics"]["wall_s"]["value"]
                print(f"{workload} seed {seed} {rev[:12]}: wall_s {wall:.4g}, failed {record['failed']} of {record['attempted']}",
                      file=sys.stderr, flush=True)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    result = bench_file(commit, workload, seconds, seeds, mine)
    path = ROOT / f"BENCH_{workload}.json"
    path.write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {path.name}")
    if other is not None:
        for line in [*compare(mine, theirs, other[:12], lower), *gain_verdicts(mine, theirs, other[:12], lower)]:
            print(f"  {line}")
    return result["failed"] + sum(record["failed"] for record in theirs)


def main(argv: Optional[Sequence[str]] = None) -> int:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = [workload["name"] for workload in declared["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--against", metavar="REV", help="also run REV, alternating, and compare")
    args = parser.parse_args(argv)

    other = _git("rev-parse", "--verify", f"{args.against}^{{commit}}") if args.against else None
    lower = {metric["name"]: metric["better"] == "lower" for metric in declared["end_to_end"]}
    failed = 0
    for workload in workloads:
        failed += record_workload(workload, other, declared["run_seconds"], lower)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
