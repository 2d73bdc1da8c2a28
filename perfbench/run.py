#!/usr/bin/env python3
"""End-to-end benchmark of stablemix through its command-line interface.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload builtin-suite --seed 0 --seconds 40 --trace 0

One op is one in-process call to ``stablemix.cli.main(["simulate", ...,
"--threads", "1"])`` on a config file this script generates; ops run back to
back in one process (a closed loop with one client). A pass runs each of the
workload's ops once, each with its own seed drawn from ``--seed``. The number
of passes follows from ``--seconds`` and the workload's nominal pass time
(see :func:`pass_count`), and every op's output is checked after its pass.

``--trace 0`` reports the end-to-end metrics (see README.md). Their times
are scaled to a reference host by the host-speed probe of ``hostspeed.py``,
which runs during the timed passes and the set-up imports. ``--trace 1``
runs pairs of passes over the same ops, one untraced and one with the
wrappers of ``spans.py`` installed, and reports per-layer metrics from the
traced passes. The last line of standard output is one JSON object; the full
record (machine, every op with its config, seed, exit code and runtimes) is
written to ``.perfbench_runs/`` in the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import hostspeed
import spans

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RUNS_DIR = ROOT / ".perfbench_runs"

SETUP_SAMPLES = 5
MODULUS_SLACK = 1.0 + 1e-12
# Largest sup distance to the target allowed at the suite's largest n (4096,
# 2000 replicates). Over 40 seeds per scenario the sup had mean 0.029-0.040
# and sd <= 0.012, except pareto-onesided, whose finite-n bias gives mean
# 0.052, sd 0.012 and a maximum of 0.093. The acceptance test's 0.05 would
# therefore reject correct output at many seeds, and even 0.1 is only 4 sd
# above the pareto-onesided mean. 0.15 is 8 sd above it and still far below
# the error of a wrong target or a broken sampler.
SUP_TOL = 0.15

BUILTINS = (
    "cauchy-fixed",
    "cauchy-scalemix",
    "example1",
    "gauss-expmix",
    "gauss-fixed",
    "pareto-mix",
    "pareto-onesided",
    "point-mass",
    "uniform-fixed",
)
@dataclass(frozen=True)
class OpSpec:
    """One op of a pass: its config, and what its report must show.

    ``verdicts`` is "pass" when every verdict must hold, "not_false" when
    inconclusive verdicts are allowed; ``sup_tol`` bounds the sup distance at
    the largest row length when set.
    """

    label: str
    config: dict
    verdicts: str = "pass"
    sup_tol: Optional[float] = None


LOGNORMAL_PARETO = OpSpec(
    "lognormal-pareto",
    {
        "scenario": {
            "id": "lognormal-pareto",
            "law": {
                "base": {"kind": "pareto_symmetric", "tail_index": 1.5, "scale": 1.0},
                "prior": {"kind": "scale_lognormal", "log_mean": 0.0, "log_sd": 0.5},
            },
            "norming": {"alpha": 1.5},
            "alpha": 1.5,
            "checkers": ["uan", "stable_mixture", "row_stable", "sec5"],
            "n_grid": [256],
            "replicates": 200,
        }
    },
)
# The ROADMAP stress case. The continuous prior makes every one of the 100
# draws per row length distinct, so memoizing equal draws does not help and
# the op pays quadrature and levy_stable calls for each draw.
STABLE_LOGNORMAL = OpSpec(
    "stable-lognormal",
    {
        "scenario": {
            "id": "stable-lognormal",
            "law": {
                "base": {"kind": "stable", "alpha": 1.5, "gamma": 0.0, "c": 1.0, "beta": 0.0},
                "prior": {"kind": "scale_lognormal", "log_mean": 0.0, "log_sd": 0.5},
            },
            "norming": {"alpha": 1.5},
            "alpha": 1.5,
            "checkers": ["stable_mixture"],
            "checker_n_grid": [100, 1000],
            "checker_replicates": 100,
            "n_grid": [256],
            "replicates": 200,
        }
    },
    verdicts="not_false",
)

# A workload is the ops of one pass, and the time one pass takes on the
# reference host of README.md. Each workload isolates one layer: sampling,
# spectral fits, quadrature.
WORKLOADS: Dict[str, Tuple[Tuple[OpSpec, ...], float]] = {
    "builtin-suite": (
        tuple(OpSpec(name, {"scenario": {"builtin": name}}, sup_tol=SUP_TOL) for name in BUILTINS),
        6.5,
    ),
    "lognormal-pareto-checks": ((LOGNORMAL_PARETO,), 13.0),
    "stable-scaleprior-check": ((STABLE_LOGNORMAL,), 28.0),
}
# Shortest stretch of time over which an op's host slowness is measured.
MIN_WINDOW_S = 0.5
# Seconds of a run spent before the first pass: the setup_s imports, the
# import of stablemix and the machine block.
SETUP_BUDGET_S = 9.0


def pass_count(seconds: float, pass_s: float) -> int:
    """Passes a run makes: as many nominal passes as fit in ``seconds`` after
    set-up, and at least one. The count depends on ``--seconds`` alone, so a
    slow host state lengthens a run but does not change its sample count."""
    return max(1, int((seconds - SETUP_BUDGET_S) // pass_s))


# ---------------------------------------------------------------- output checks


def _reject_constant(token: str):
    raise ValueError(f"non-JSON number {token}")


def strict_loads(text: str):
    """Parse RFC 8259 JSON, rejecting the NaN and Infinity tokens Python allows."""
    return json.loads(text, parse_constant=_reject_constant)


def check_report(report: dict, spec: OpSpec, seed: int) -> List[str]:
    """Problems found in one parsed report; an empty list means correct."""
    problems = []
    if report.get("seed") != seed:
        problems.append(f"report seed {report.get('seed')!r} is not the op seed {seed}")
    for table in report.get("cf_tables", []):
        for row in table["points"]:
            re_, im = row["re"], row["im"]
            if not (math.isfinite(re_) and math.isfinite(im)):
                problems.append(f"cf at n={table['n']} t={row['t']} is not finite")
            elif math.hypot(re_, im) > MODULUS_SLACK:
                problems.append(f"cf at n={table['n']} t={row['t']} has modulus above 1")
    if not report.get("cf_tables"):
        problems.append("report has no cf tables")
    verdicts = report.get("verdicts", [])
    if not verdicts:
        problems.append("report has no verdicts")
    for verdict in verdicts:
        holds = verdict["holds"]
        if holds is False or (spec.verdicts == "pass" and holds is not True):
            problems.append(f"verdict {verdict['name']} is {holds}, expected {spec.verdicts}")
    if spec.sup_tol is not None and report.get("sup_distance"):
        last = report["sup_distance"][-1]
        if not last["sup"] <= spec.sup_tol:
            problems.append(f"sup distance {last['sup']} at n={last['n']} exceeds {spec.sup_tol}")
    return problems


def check_output(exit_code: object, out_dir: Path, spec: OpSpec, seed: int) -> Tuple[List[str], Optional[dict]]:
    """Problems with one op's exit code and report, and the runtimes it reported."""
    if exit_code != 0:
        return [f"exit code {exit_code!r}"], None
    reports = sorted(out_dir.glob("*.report.json"))
    if len(reports) != 1:
        return [f"expected one report, found {len(reports)}"], None
    try:
        report = strict_loads(reports[0].read_text(encoding="utf-8"))
        return check_report(report, spec, seed), report.get("runtimes")
    except (ValueError, KeyError, TypeError) as exc:
        return [f"malformed report: {exc}"], None


# ---------------------------------------------------------------- statistics


def op_latencies(passes: Sequence[Sequence[float]]) -> Dict[str, float]:
    """Op latency figures of a run, given each pass's op latencies.

    ``p50`` is the median over every op; ``max`` is the slowest op of a pass,
    median over passes, because a pass has too few ops for a percentile to
    have ten samples beyond it. ``ops`` and ``passes`` are the sample counts.
    """
    if not passes or not all(passes):
        raise ValueError("no op latencies")
    every = [t for latencies in passes for t in latencies]
    return {
        "p50": statistics.median(every),
        "max": statistics.median(max(latencies) for latencies in passes),
        "ops": len(every),
        "passes": len(passes),
    }


# ---------------------------------------------------------------- running ops


@dataclass
class Op:
    spec: OpSpec
    seed: int
    config_path: Path
    out_dir: Path
    exit_code: object = None
    start: float = 0.0
    elapsed_s: float = 0.0
    ref_s: Optional[float] = None
    problems: List[str] = field(default_factory=list)
    runtimes: Optional[dict] = None

    def argv(self) -> List[str]:
        return [
            "simulate",
            "--config", str(self.config_path),
            "--seed", str(self.seed),
            "--out", str(self.out_dir),
            "--threads", "1",
        ]

    def record(self) -> dict:
        return {
            "label": self.spec.label,
            "seed": self.seed,
            "config": self.spec.config,
            "exit_code": self.exit_code,
            "elapsed_s": self.elapsed_s,
            "ref_s": self.ref_s,
            "problems": self.problems,
            "runtimes": self.runtimes,
            "replay": (
                "PYTHONPATH=src python3 -m stablemix.cli simulate --config config.json "
                f"--seed {self.seed} --out out --threads 1"
            ),
        }


def prepare_pass(workload: Sequence[OpSpec], rng: random.Random, work_dir: Path) -> List[Op]:
    """Write one pass's configs; seeds come from ``rng`` in op order."""
    work_dir.mkdir(parents=True)
    ops = []
    for index, spec in enumerate(workload):
        path = work_dir / f"op{index}.config.json"
        path.write_text(json.dumps(spec.config), encoding="utf-8")
        ops.append(Op(spec, rng.randrange(1, 2**31), path, work_dir / f"op{index}"))
    return ops


def call_main(main: Callable, argv: List[str]) -> object:
    """Run the CLI in process with its console output discarded; return the exit code."""
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        try:
            return main(argv)
        except SystemExit as exc:
            return exc.code
        except Exception as exc:  # noqa: BLE001 - a raising op is a failed op
            return f"raised {type(exc).__name__}: {exc}"


def run_pass(main: Callable, ops: List[Op], before_op=None) -> float:
    """Run the ops back to back, then check their outputs; return the pass wall time."""
    start = time.perf_counter()
    for index, op in enumerate(ops):
        if before_op is not None:
            before_op(index)
        op.start = time.perf_counter()
        op.exit_code = call_main(main, op.argv())
        op.elapsed_s = time.perf_counter() - op.start
    wall = time.perf_counter() - start
    for op in ops:
        op.problems, op.runtimes = check_output(op.exit_code, op.out_dir, op.spec, op.seed)
    return wall


def measure_setup(samples: int = SETUP_SAMPLES) -> List[Tuple[float, float]]:
    """Wall times of fresh interpreters that import stablemix.cli and exit, as
    (raw, scaled to the reference host by the probe in the interpreter)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    times = []
    for _ in range(samples):
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(Path(hostspeed.__file__)), "--import", "stablemix.cli"],
            cwd=ROOT, env=env, check=True, timeout=120,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        wall = time.perf_counter() - start
        probe = json.loads(proc.stdout.strip().splitlines()[-1])
        times.append((wall, hostspeed.to_reference(wall, probe["probe_s"], probe["mean_chunk_s"])))
    return times


def _read(path: str) -> Optional[str]:
    try:
        return Path(path).read_text(encoding="utf-8").strip()
    except OSError:
        return None


def machine_block() -> dict:
    """The hardware and software a result was measured on."""
    import numpy
    import scipy

    model = None
    cpuinfo = _read("/proc/cpuinfo") or ""
    for line in cpuinfo.splitlines():
        if line.startswith("model name"):
            model = line.split(":", 1)[1].strip()
            break
    caches = {}
    for index in range(8):
        base = f"/sys/devices/system/cpu/cpu0/cache/index{index}"
        level, size = _read(f"{base}/level"), _read(f"{base}/size")
        if level in ("2", "3") and size:
            caches[f"l{level}"] = size
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip() or None
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model or platform.processor() or None,
        "l2_cache": caches.get("l2"),
        "l3_cache": caches.get("l3"),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": commit,
    }


# ---------------------------------------------------------------- runs


def scale_pass(ops: Sequence[Op], samples: Sequence[hostspeed.Sample]) -> float:
    """Scale each op of a pass to the reference host and set its ``ref_s``;
    return the pass's slowness (mean chunk time over the reference chunk time).

    An op's slowness comes from the probe samples taken during it, its
    interval widened to at least MIN_WINDOW_S around its middle, because the
    host's speed changes within a pass and a short op holds few samples.
    """
    for op in ops:
        middle = op.start + op.elapsed_s / 2
        half = max(op.elapsed_s, MIN_WINDOW_S) / 2
        _, _, mean_chunk = hostspeed.window(samples, middle - half, middle + half)
        probe_s, _, _ = hostspeed.window(samples, op.start, op.start + op.elapsed_s)
        op.ref_s = hostspeed.to_reference(op.elapsed_s, probe_s, mean_chunk)
    end = ops[-1].start + ops[-1].elapsed_s
    return hostspeed.window(samples, ops[0].start, end)[2] / hostspeed.REF_CHUNK_S


def timed_run(main, workload: Sequence[OpSpec], passes: int, rng: random.Random, work_dir: Path):
    """Untraced passes under the host-speed probe; the end-to-end metrics,
    their notes and the op records."""
    walls, raw_walls, slowness, latencies, raw_latencies, ops_done = [], [], [], [], [], []
    for index in range(passes):
        ops = prepare_pass(workload, rng, work_dir / f"pass{index}")
        with hostspeed.Probe() as probe:
            raw_walls.append(run_pass(main, ops))
        slowness.append(scale_pass(ops, probe.samples))
        walls.append(sum(op.ref_s for op in ops))
        latencies.append([op.ref_s for op in ops])
        raw_latencies.append([op.elapsed_s for op in ops])
        ops_done.extend(ops)
    lat = op_latencies(latencies)
    raw = op_latencies(raw_latencies)
    metrics = {
        "wall_s": (statistics.median(walls), "s"),
        "op_p50_s": (lat["p50"], "s"),
        "op_max_s": (lat["max"], "s"),
    }
    notes = {
        "wall_s": f"median of {len(walls)} passes; raw {statistics.median(raw_walls):.4g} s, host slowness {statistics.median(slowness):.3g}",
        "op_p50_s": f"median of {lat['ops']} ops; raw {raw['p50']:.4g} s",
        "op_max_s": f"median over {lat['passes']} passes of the slowest op of {len(workload)}; raw {raw['max']:.4g} s",
    }
    return metrics, notes, ops_done


def traced_run(main, workload: Sequence[OpSpec], pairs: int, rng: random.Random, work_dir: Path):
    """Pairs of untraced and traced passes over the same ops; per-layer metrics."""
    tracer = spans.Tracer()
    traced_main = tracer.wrap("cli.main", main)
    plain_wall = traced_wall = 0.0
    ops_done = []
    for pair in range(pairs):
        state = rng.getstate()
        plain_ops = prepare_pass(workload, rng, work_dir / f"pass{pair}-plain")
        rng.setstate(state)
        traced_ops = prepare_pass(workload, rng, work_dir / f"pass{pair}-traced")
        plain_wall += run_pass(main, plain_ops)
        spans.install(tracer)
        try:
            traced_wall += run_pass(
                traced_main, traced_ops,
                before_op=lambda index: setattr(tracer, "op", (pair, index)),
            )
        finally:
            tracer.restore()
        ops_done.extend(plain_ops + traced_ops)
    metrics = spans.layer_metrics(tracer.finished(), pairs, traced_wall, plain_wall)
    notes = {"trace": f"{pairs} traced passes; values per pass unless a rate or mean"}
    return metrics, notes, ops_done, tracer


def _parse_args(argv: Optional[Sequence[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _parse_args(argv)
    if not (SRC / "stablemix" / "cli.py").is_file():
        print(f"error: no stablemix sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from stablemix import cli

    workload, pass_s = WORKLOADS[args.workload]
    passes = pass_count(args.seconds, pass_s)
    rng = random.Random(args.seed)
    RUNS_DIR.mkdir(exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(prefix="ops-", dir=RUNS_DIR))
    tracer = None
    try:
        if args.trace:
            # A pair runs every op twice, so a traced run makes about as many
            # passes as a timed one.
            pairs = max(1, passes // 2)
            metrics, notes, ops, tracer = traced_run(cli.main, workload, pairs, rng, work_dir)
        else:
            setup = measure_setup()
            metrics, notes, ops = timed_run(cli.main, workload, passes, rng, work_dir)
            metrics["setup_s"] = (statistics.median(ref for _, ref in setup), "s")
            notes["setup_s"] = (
                f"median of {len(setup)} fresh-process imports of stablemix.cli; "
                f"raw {statistics.median(raw for raw, _ in setup):.4g} s"
            )
            metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    failed = sum(1 for op in ops if op.problems)
    metric_values = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    result_path = RUNS_DIR / f"{stem}.json"
    result_path.write_text(
        json.dumps(
            {
                "workload": args.workload,
                "seed": args.seed,
                "seconds": args.seconds,
                "trace": args.trace,
                "machine": machine_block(),
                "probe": {"interval_s": hostspeed.INTERVAL_S, "ref_chunk_s": hostspeed.REF_CHUNK_S},
                "metrics": metric_values,
                "notes": notes,
                "attempted": len(ops),
                "failed": failed,
                "ops": [op.record() for op in ops],
            },
            indent=1,
        )
        + "\n",
        encoding="utf-8",
    )
    if tracer is not None:
        with (RUNS_DIR / f"{stem}.spans.jsonl").open("w", encoding="utf-8") as handle:
            for span in tracer.finished():
                handle.write(json.dumps(list(span[:5])) + "\n")

    for op in ops:
        for problem in op.problems:
            print(f"FAILED {op.spec.label} seed={op.seed}: {problem}")
    for name, (value, unit) in metrics.items():
        note = notes.get(name)
        print(f"{name} {value:.6g} {unit}" + (f" ({note})" if note else ""))
    print(f"error_rate {failed / len(ops):.6g} ratio ({failed} of {len(ops)} ops failed)")
    print(f"record {result_path.relative_to(ROOT)}")
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": len(ops),
                "failed": failed,
                "metrics": {k: v for k, v in metric_values.items() if not args.trace or k in spans.PER_LAYER},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
