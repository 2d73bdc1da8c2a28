#!/usr/bin/env python3
"""Print the sha256 of every output of the behaviour contract.

The contract (ROADMAP.md, "Contracts") is three files per run of CLI
``simulate``: ``report.json`` without its ``runtimes`` field,
``cf.csv`` and ``quantities.csv``. The runs are the 9 builtin scenarios at
seeds 0 and 1, the Pareto benchmark config at seed 3 and the stable
benchmark config at seed 5: 60 outputs. The two benchmark configs are read
from ``perfbench/run.py``. After those 60 lines come two more, one per
benchmark config, labelled ``<run>/residuals``: the spectral fits of every
distinct draw at every checker row length, which the reports summarize only
through their largest residual. The last line, ``functionals``, covers the
realized laws' functionals on a fixed grid (``functional_bytes``).

A change that must keep the contract prints the same lines as its parent:

    python3 tools/contract_outputs.py > after.txt
    python3 tools/contract_outputs.py --root ../parent > before.txt
    diff before.txt after.txt

``--root`` names the source checkout whose ``src/`` and ``perfbench/`` are
imported (default: the checkout holding this script). Each line is
``<sha256>  <run>/<file>``; the exit code is 1 when a run fails.

``--keep DIR`` also writes the bytes behind each line to ``DIR/<run>/<file>``,
and ``--compare BEFORE AFTER`` reads two such directories instead of running
anything. For each file that differs it prints the ``holds`` values of the
report's verdicts before and after, then every numeric field that moved
(list indices folded to ``[*]``) with its largest absolute change and where
that change is; its exit code is 1 when a file differs:

    python3 tools/contract_outputs.py --keep after > after.txt
    python3 tools/contract_outputs.py --root ../parent --keep before > before.txt
    python3 tools/contract_outputs.py --compare before after
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import csv
import hashlib
import io
import json
import re
import sys
import tempfile
from pathlib import Path
from typing import Any, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

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


def residual_bytes(fits: Iterable[Tuple[float, float, float]]) -> bytes:
    """The bytes of spectral fits that the contract covers: the repr of each
    ``(c_minus, c_plus, residual)``, one per line."""
    return "".join(f"{fit!r}\n" for fit in fits).encode("utf-8")


# The grid of the functionals line: each law's cdf and right tail at POINTS,
# its two-sided tail mass at TAIL_POINTS, and its truncated moments and
# smoothed mean at every bound or b of POSITIVE. The smoothed mean of an
# off-centre Gaussian law, the alpha = 2 twin included, is left out: it is
# quadrature, and the line loads no SciPy module.
POINTS = (-40.0, -2.5, -0.5, 0.0, 1.5, 30.0)
TAIL_POINTS = (0.0, 0.75, 4.0, 60.0)
POSITIVE = (1e-3, 0.1, 0.5, 0.9, 1.0, 1.5, 3.0, 7.5, 20.0, 100.0, 1e4, 1e6)


def functional_laws() -> list:
    """The 36 laws of the functionals line: the closed-form families at and
    off centre, Pareto at five tail indices, two scales and both weights,
    stable laws in the Fourier region and at each closed-form twin."""
    from stablemix.directing import CauchyLaw, GaussianLaw, ParetoLaw, PointMassLaw, StableLaw, UniformLaw
    from stablemix.stable import StableParams

    laws = [GaussianLaw(0.0, 1.5), GaussianLaw(0.7, 2.0), GaussianLaw(-3.0, 0.5), CauchyLaw(0.0, 0.5)]
    laws += [CauchyLaw(-1.2, 2.0), UniformLaw(-2.0, 2.0), UniformLaw(-1.0, 3.0), UniformLaw(0.5, 2.0)]
    laws += [PointMassLaw(0.0), PointMassLaw(-1.5)]
    laws += [ParetoLaw(a, s, w) for a in (0.5, 1.0, 1.5, 2.0, 2.5) for s in (0.5, 3.0) for w in (0.5, 1.0)]
    # Three in the Fourier region, then the alpha = 2, c = 0 and Cauchy twins.
    stable = [(1.5, 0.3, 1.0, 0.5), (1.1, 0.0, 1.0, 0.0), (1.9, -0.5, 0.7, -1.0)]
    stable += [(2.0, 0.3, 2.0, 0.0), (1.5, 0.3, 0.0, 0.5), (1.0, 0.3, 2.0, 0.0)]
    return laws + [StableLaw(StableParams(*params)) for params in stable]


def functional_bytes() -> bytes:
    """One line per call of the grid: the law, the call and the repr of its
    value, or the class of the error it raises."""
    from stablemix.directing import GaussianLaw, StableLaw

    lines = []
    for law in functional_laws():
        calls = [(name, x) for name in ("cdf", "right_tail") for x in POINTS]
        calls += [("tail_mass", x) for x in TAIL_POINTS]
        calls += [(name, x) for name in ("truncated_mean", "truncated_second") for x in POSITIVE]
        gaussian = isinstance(law, GaussianLaw) or isinstance(law, StableLaw) and law.params.alpha == 2.0
        if not (gaussian and not law.symmetric):
            calls += [("smoothed_mean", x) for x in POSITIVE]
        for name, x in calls:
            try:
                outcome = repr(getattr(law, name)(x))
            except (ArithmeticError, RuntimeError, TypeError, ValueError) as exc:
                outcome = type(exc).__name__
            lines.append(f"{law!r}.{name}({x!r}) = {outcome}\n")
    return "".join(lines).encode("utf-8")


def digest_line(name: str, data: bytes, keep: Optional[Path]) -> str:
    """The digest line of one contract file; with ``keep``, its bytes are
    written to ``keep/<name>`` too."""
    if keep is not None:
        path = keep / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(data)
    return f"{hashlib.sha256(data).hexdigest()}  {name}"


def residual_digest(label: str, seed: int, work: Path, keep: Optional[Path] = None) -> str:
    """The digest line of every fit that the checkers' panel of one run holds:
    its distinct draws, at each checker row length."""
    from stablemix.cli import load_config
    from stablemix.criteria import DrawPanel

    spec = load_config(str(work / f"{label}.config.json")).spec
    panel = DrawPanel(spec.law, spec.norming, spec.checker_ngrid, seed)
    fits = (
        (float(params.c_minus), float(params.c_plus), float(residual))
        for n in spec.checker_ngrid.values
        for params, residual in panel.fit_table(n, spec.alpha).values()
    )
    return digest_line(f"{label}/residuals", residual_bytes(fits), keep)


def run_digests(main, label: str, config: dict, seed: int, work: Path, keep: Optional[Path] = None) -> Iterator[str]:
    """Run one config through ``simulate`` and yield its digest lines."""
    config_path = work / f"{label}.config.json"
    config_path.write_text(json.dumps(config), encoding="utf-8")
    out = work / label
    argv = ["simulate", "--config", str(config_path), "--seed", str(seed), "--out", str(out)]
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    if code != 0:
        raise RuntimeError(f"{label}: simulate exited {code}")
    for suffix in SUFFIXES:
        (path,) = out.glob(f"*.{suffix}")
        yield digest_line(f"{label}/{suffix}", contract_bytes(suffix, path.read_bytes()), keep)


def _parsed(name: str, data: bytes) -> Any:
    """A kept contract file as nested lists and dicts of its values."""
    text = data.decode("utf-8")
    if name.endswith(".json"):
        return json.loads(text)
    if name.endswith(".csv"):
        return [{key: _number(value) for key, value in row.items()} for row in csv.DictReader(io.StringIO(text))]
    if name == "functionals":
        # Keyed by law and functional, so --compare folds the points of each.
        calls: Dict[str, List[Any]] = {}
        for line in text.splitlines():
            call, outcome = line.split(" = ")
            calls.setdefault(call.rsplit("(", 1)[0], []).append(_number(outcome))
        return calls
    return [ast.literal_eval(line) for line in text.splitlines()]


def _number(value: str) -> Any:
    try:
        return float(value)
    except ValueError:
        return value


def _leaves(value: Any, path: str = "") -> Iterator[Tuple[str, Any]]:
    if isinstance(value, dict):
        for key, item in value.items():
            yield from _leaves(item, f"{path}.{key}" if path else str(key))
    elif isinstance(value, (list, tuple)):
        for index, item in enumerate(value):
            yield from _leaves(item, f"{path}[{index}]")
    else:
        yield path, value


def _is_number(value: Any) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def file_changes(name: str, before: bytes, after: bytes) -> List[str]:
    """The lines ``--compare`` prints for one file that differs."""
    old, new = dict(_leaves(_parsed(name, before))), dict(_leaves(_parsed(name, after)))
    lines = []
    holds = [[value for path, value in leaves.items() if path.rsplit(".", 1)[-1] == "holds"] for leaves in (old, new)]
    if any(holds):
        lines.append(f"  holds before: {json.dumps(holds[0])}")
        lines.append(f"  holds after:  {json.dumps(holds[1])}")
    largest: Dict[str, Tuple[float, str, Any, Any]] = {}
    for path in sorted(old.keys() | new.keys()):
        a, b = old.get(path), new.get(path)
        if a == b or path.rsplit(".", 1)[-1] == "holds":
            continue
        if _is_number(a) and _is_number(b):
            field = re.sub(r"\[\d+\]", "[*]", path)
            change = abs(float(b) - float(a))
            if field not in largest or not change <= largest[field][0]:
                largest[field] = (change, path, a, b)
        else:
            lines.append(f"  {path}: {a!r} -> {b!r}")
    for field, (change, path, a, b) in sorted(largest.items(), key=lambda item: -item[1][0]):
        lines.append(f"  {field}: largest change {change:.3g} at {path} ({a!r} -> {b!r})")
    return lines


def compare(before: Path, after: Path) -> int:
    """Print how two ``--keep`` directories differ; 1 when a file does."""
    names = sorted(
        {str(path.relative_to(root)) for root in (before, after) for path in root.rglob("*") if path.is_file()}
    )
    differ = 0
    for name in names:
        old, new = before / name, after / name
        if not (old.is_file() and new.is_file()):
            differ += 1
            print(f"{name}: only in {before if old.is_file() else after}")
            continue
        old_bytes, new_bytes = old.read_bytes(), new.read_bytes()
        if old_bytes != new_bytes:
            differ += 1
            print(name)
            for line in file_changes(name, old_bytes, new_bytes):
                print(line)
    print(f"{differ} of {len(names)} files differ")
    return 1 if differ else 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", type=Path, default=ROOT, help="source checkout to run (default: this one)")
    parser.add_argument("--keep", type=Path, metavar="DIR", help="also write each contract file to DIR/<run>/<file>")
    parser.add_argument(
        "--compare", type=Path, nargs=2, metavar=("BEFORE", "AFTER"), help="compare two --keep directories and exit"
    )
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    runs = contract_runs(args.root.resolve())
    from stablemix import cli

    with tempfile.TemporaryDirectory(prefix="contract-") as tmp:
        try:
            for label, config, seed in runs:
                for line in run_digests(cli.main, label, config, seed, Path(tmp), args.keep):
                    print(line, flush=True)
            # The last two runs are the benchmark configs.
            for label, _, seed in runs[-2:]:
                print(residual_digest(label, seed, Path(tmp), args.keep), flush=True)
            print(digest_line("functionals", functional_bytes(), args.keep), flush=True)
        except (RuntimeError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
