#!/usr/bin/env python3
"""Print the sha256 of every output of the behaviour contract.

The contract (ROADMAP.md, "Contracts") is three files per run of CLI
``simulate --threads 1``: ``report.json`` without its ``runtimes`` field,
``cf.csv`` and ``quantities.csv``. The runs are the 9 builtin scenarios at
seeds 0 and 1, the Pareto benchmark config at seed 3 and the stable
benchmark config at seed 5: 60 outputs. The two benchmark configs are read
from ``perfbench/run.py``.

A change that must keep the contract prints the same lines as its parent:

    python3 tools/contract_outputs.py > after.txt
    python3 tools/contract_outputs.py --root ../parent > before.txt
    diff before.txt after.txt

``--root`` names the source checkout whose ``src/`` and ``perfbench/`` are
imported (default: the checkout holding this script). Each line is
``<sha256>  <run>/<file>``; the exit code is 1 when a run fails.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path
from typing import Iterator, List, Optional, Sequence, Tuple

ROOT = Path(__file__).resolve().parent.parent
BUILTIN_SEEDS = (0, 1)
PARETO_SEED = 3
STABLE_SEED = 5
SUFFIXES = ("report.json", "cf.csv", "quantities.csv")


def contract_runs(root: Path) -> List[Tuple[str, dict, int]]:
    """(label, config, seed) of every contract run, importing from ``root``."""
    for path in (root / "src", root / "perfbench"):
        sys.path.insert(0, str(path))
    import run as perfbench
    from stablemix.empirics import builtin_scenarios

    runs = [
        (f"{name}@{seed}", {"scenario": {"builtin": name}}, seed)
        for seed in BUILTIN_SEEDS
        for name in builtin_scenarios()
    ]
    runs.append((f"{perfbench.LOGNORMAL_PARETO.label}@{PARETO_SEED}", perfbench.LOGNORMAL_PARETO.config, PARETO_SEED))
    runs.append((f"{perfbench.STABLE_LOGNORMAL.label}@{STABLE_SEED}", perfbench.STABLE_LOGNORMAL.config, STABLE_SEED))
    return runs


def contract_bytes(suffix: str, data: bytes) -> bytes:
    """The bytes of one output file that the contract covers."""
    if suffix != "report.json":
        return data
    report = json.loads(data)
    report.pop("runtimes", None)
    return json.dumps(report, allow_nan=False).encode("utf-8")


def run_digests(main, label: str, config: dict, seed: int, work: Path) -> Iterator[str]:
    """Run one config through ``simulate`` and yield its digest lines."""
    config_path = work / f"{label}.config.json"
    config_path.write_text(json.dumps(config), encoding="utf-8")
    out = work / label
    argv = ["simulate", "--config", str(config_path), "--seed", str(seed), "--out", str(out), "--threads", "1"]
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    if code != 0:
        raise RuntimeError(f"{label}: simulate exited {code}")
    for suffix in SUFFIXES:
        (path,) = out.glob(f"*.{suffix}")
        digest = hashlib.sha256(contract_bytes(suffix, path.read_bytes())).hexdigest()
        yield f"{digest}  {label}/{suffix}"


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", type=Path, default=ROOT, help="source checkout to run (default: this one)")
    args = parser.parse_args(argv)
    runs = contract_runs(args.root.resolve())
    from stablemix import cli

    with tempfile.TemporaryDirectory(prefix="contract-") as tmp:
        for label, config, seed in runs:
            try:
                for line in run_digests(cli.main, label, config, seed, Path(tmp)):
                    print(line, flush=True)
            except (RuntimeError, ValueError) as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
