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

A change that must keep the contract prints the same lines as its parent;
``tools/pr_check.py`` runs both sides and compares them (with the demos, the
reduced-dispatch run and the reach scan):

    python3 tools/pr_check.py --against REV

``--root`` names the source checkout whose ``src/`` and ``perfbench/`` are
imported (default: the checkout holding this script). Each line is
``<sha256>  <run>/<file>``; the exit code is 1 when a run fails.

``--keep DIR`` also writes the bytes behind each line to ``DIR/<run>/<file>``,
and ``--compare BEFORE AFTER`` reads two such directories instead of running
anything. For each file that differs it prints the ``holds`` values of the
report's verdicts before and after, one ``path: length a -> b`` line per list
whose length changed (in place of the leaves of its added or removed
elements), then every numeric field that moved (list indices folded to
``[*]``) with its largest absolute change and where that change is, and its
largest relative change |b - a| / max(|a|, |b|) and where that is. Any other
leaf that changed type or repr, a sign-of-zero flip such as 0.0 -> -0.0
included, prints as ``path: a -> b``. Each atom of an
``estimated_limit.atoms`` list is compared with its nearest atom on the
other side by (gamma, c, beta), not with the atom at its position: the
checkers list the atoms sorted by that key, so a rounding-level move of
gamma can reorder them. A list that holds the same atoms in another order
prints as ``path: same atoms, reordered``; otherwise a reordered list prints
as ``path: atoms reordered``, and each moved atom as the largest change of
its fields, at its position before. Its exit code is 2 when the ``holds``
of some report's verdicts differ or a file is on one side only (its
verdicts cannot be compared: a run failed or was cut short, or a directory
is missing), else 1 when a file differs, else 0:

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


def _nodes(value: Any, path: str = "") -> Iterator[Tuple[str, Any]]:
    """Every value in a parsed file with its path, containers included."""
    yield path, value
    if isinstance(value, dict):
        for key, item in value.items():
            yield from _nodes(item, f"{path}.{key}" if path else str(key))
    elif isinstance(value, (list, tuple)):
        for index, item in enumerate(value):
            yield from _nodes(item, f"{path}[{index}]")


def _in_resized_tail(path: str, resized: Dict[str, Tuple[int, int]]) -> bool:
    """Whether ``path`` lies in an element that only one side of a resized
    list holds."""
    for head, lengths in resized.items():
        head += "["
        if path.startswith(head) and int(path[len(head) : path.index("]", len(head))]) >= min(lengths):
            return True
    return False


def _is_number(value: Any) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


ATOM_KEY = ("gamma", "c", "beta")


def _atom_distance(a: Dict[str, float], b: Dict[str, float]) -> float:
    """How far apart two limit atoms are: the sum over (gamma, c, beta) of
    |a - b| / max(1, |a|, |b|), so that a rounding-level move is tiny next
    to the gap between two different atoms."""
    return sum(abs(a[key] - b[key]) / max(1.0, abs(a[key]), abs(b[key])) for key in ATOM_KEY)


def _pair_atoms(before: Any, after: Any) -> List[str]:
    """Reorder every ``estimated_limit.atoms`` list of ``after`` in place so
    that each atom sits at the position of its partner in ``before``: the
    closest pair under :func:`_atom_distance` is matched first, then the
    closest of the rest; unmatched atoms go last. Returns the paths of the
    lists that had to be reordered."""
    lists = [
        {
            path: value
            for path, value in _nodes(side)
            if path.endswith("estimated_limit.atoms") and isinstance(value, list)
        }
        for side in (before, after)
    ]
    reordered = []
    for path in sorted(lists[0].keys() & lists[1].keys()):
        old, new = lists[0][path], lists[1][path]
        distances = sorted((_atom_distance(a, b), i, j) for i, a in enumerate(old) for j, b in enumerate(new))
        partner: Dict[int, int] = {}
        for _, i, j in distances:
            if i not in partner and j not in partner.values():
                partner[i] = j
        order = [partner[i] for i in sorted(partner)]
        order += [j for j in range(len(new)) if j not in order]
        if order != sorted(order):
            reordered.append(path)
        new[:] = [new[j] for j in order]
    return reordered


def file_changes(name: str, before: bytes, after: bytes) -> Tuple[List[str], bool]:
    """The lines ``--compare`` prints for one file that differs, and whether
    the ``holds`` values of its verdicts differ."""
    parsed = [_parsed(name, data) for data in (before, after)]
    reordered = _pair_atoms(*parsed)
    nodes = [dict(_nodes(side)) for side in parsed]
    old, new = ({path: v for path, v in side.items() if not isinstance(v, (dict, list, tuple))} for side in nodes)
    lengths = [{path: len(v) for path, v in side.items() if isinstance(v, (list, tuple))} for side in nodes]
    resized = {
        path: (lengths[0][path], lengths[1][path])
        for path in sorted(lengths[0].keys() & lengths[1].keys())
        if lengths[0][path] != lengths[1][path]
    }
    lines = []
    holds = [
        {path: value for path, value in leaves.items() if path.rsplit(".", 1)[-1] == "holds"} for leaves in (old, new)
    ]
    if any(holds):
        lines.append(f"  holds before: {json.dumps(list(holds[0].values()))}")
        lines.append(f"  holds after:  {json.dumps(list(holds[1].values()))}")
    # An added or removed list element prints as its list's length change,
    # not as one line per leaf.
    lines += [f"  {path or '(top level)'}: length {a} -> {b}" for path, (a, b) in resized.items()]
    for path in reordered:
        same = repr(nodes[0][path]) == repr(nodes[1][path])
        lines.append(f"  {path}: {'same atoms, reordered' if same else 'atoms reordered'}")
    largest: Dict[str, Tuple[float, str, Any, Any]] = {}
    relative: Dict[str, Tuple[float, str]] = {}
    for path in sorted(old.keys() | new.keys()):
        a, b = old.get(path), new.get(path)
        # By type and repr, so that 0.0 -> -0.0 and 1 -> 1.0 count as changes.
        same = (type(a), repr(a)) == (type(b), repr(b))
        if same or path.rsplit(".", 1)[-1] == "holds" or _in_resized_tail(path, resized):
            continue
        if _is_number(a) and _is_number(b) and a != b:
            field = re.sub(r"\[\d+\]", "[*]", path)
            change = abs(float(b) - float(a))
            if field not in largest or not change <= largest[field][0]:
                largest[field] = (change, path, a, b)
            # Relative to the larger magnitude, so a move from 0 reads 1.
            ratio = change / max(abs(float(a)), abs(float(b)))
            if field not in relative or not ratio <= relative[field][0]:
                relative[field] = (ratio, path)
        else:
            lines.append(f"  {path}: {a!r} -> {b!r}")
    for field, (change, path, a, b) in sorted(largest.items(), key=lambda item: -item[1][0]):
        ratio, at = relative[field]
        lines.append(
            f"  {field}: largest change {change:.3g} at {path} ({a!r} -> {b!r}), "
            f"largest relative change {ratio:.3g} at {at}"
        )
    return lines, holds[0] != holds[1]


def compare(before: Path, after: Path) -> int:
    """Print how two ``--keep`` directories differ; 2 when a verdict's
    ``holds`` does or a file is on one side only, else 1 when a file
    differs."""
    for root in (before, after):
        if not root.is_dir():
            print(f"{root}: no such directory")
            return 2
    names = sorted(
        {str(path.relative_to(root)) for root in (before, after) for path in root.rglob("*") if path.is_file()}
    )
    differ = 0
    verdicts_differ = False
    for name in names:
        old, new = before / name, after / name
        if not (old.is_file() and new.is_file()):
            differ += 1
            verdicts_differ = True
            print(f"{name}: only in {before if old.is_file() else after}")
            continue
        old_bytes, new_bytes = old.read_bytes(), new.read_bytes()
        if old_bytes != new_bytes:
            differ += 1
            print(name)
            lines, holds_differ = file_changes(name, old_bytes, new_bytes)
            for line in lines:
                print(line)
            verdicts_differ |= holds_differ
    print(f"{differ} of {len(names)} files differ")
    return 2 if verdicts_differ else 1 if differ else 0


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
