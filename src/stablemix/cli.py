"""Command-line front end for scenario simulation and criterion checks.

The CLI is a thin shell over the library: every scenario key of a config,
the cf and joint grids and the test tolerances included, is parsed into the
ScenarioSpec the library runs; simulate/check delegate to run_scenario and
run_criterion, so every file written here can be rebuilt from
``run_scenario(load_config(path).spec, seed)`` and
``run_criterion(load_config(path).spec, criterion, seed)`` with identical
results (up to wall-clock runtime fields).

Exit codes form a stable contract:
    0  pass / success
    1  runtime failure (including a failed identity verification)
    2  configuration error, found before anything is simulated (schema,
       unknown keys, missing or negative seed, a count below 1, a NaN or
       infinite number (only the norming index may be Infinity), a tolerance
       or tau that is not finite and positive, a prob_bound or ks_tol of
       0.5 or more, a row length below 2 or repeated in n_grid, a grid over
       WORK_BUDGET with its cf and joint table entries and REPLICATE_COST
       per replicate, a prior the base family cannot take (a dispersion
       prior on a point mass or a stable base with c = 0), bad or repeated
       criterion, a criterion that needs a tail index the scenario lacks or
       has out of range, or, when sec5 runs, an x_grid that is not positive
       and increasing)
    3  criterion checked and failed
    4  criterion inconclusive at the configured sample sizes
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import re
import sys
from dataclasses import asdict, dataclass, replace
from pathlib import Path
from typing import Callable, Dict, Iterable, Optional, Sequence, Tuple

from .criteria import CRITERION_NAMES, StatTestConfig
from .directing import (
    CauchyLaw,
    DirectingLaw,
    GaussianLaw,
    LocationAtoms,
    LocationGaussian,
    ParetoLaw,
    PointMassLaw,
    ScaleAtoms,
    ScaleExponential,
    ScaleLogNormal,
    StableLaw,
    UniformLaw,
)
from .empirics import (
    ScenarioSpec,
    TGrid,
    _checker_args,
    builtin_scenarios,
    get_scenario,
    identity_residual,
    run_criterion,
    run_scenario,
)
from .mixtures import MixingMeasure
from .stable import NormingSequence, StableParams

__all__ = [
    "main",
    "cmd_simulate",
    "cmd_check",
    "cmd_verify_identity",
    "cmd_list_scenarios",
    "load_config",
    "ConfigError",
    "EXIT_PASS",
    "EXIT_RUNTIME",
    "EXIT_CONFIG",
    "EXIT_FAIL",
    "EXIT_INCONCLUSIVE",
    "SCHEMA_VERSION",
    "WORK_BUDGET",
    "REPLICATE_COST",
]

EXIT_PASS = 0
EXIT_RUNTIME = 1
EXIT_CONFIG = 2
EXIT_FAIL = 3
EXIT_INCONCLUSIVE = 4
# A verdict's ``holds`` -> its printed name and the exit code of ``check``.
_VERDICTS = {True: ("pass", EXIT_PASS), False: ("fail", EXIT_FAIL), None: ("inconclusive", EXIT_INCONCLUSIVE)}

SCHEMA_VERSION = 1

# Largest work one grid may ask for (see _check_budget): about a minute of
# sampling at 2e7 variates per second.
WORK_BUDGET = 10**9
# A replicate's fixed cost in entries: 44-122 us per replicate at n = 2 (Intel
# Xeon, Python 3.11, NumPy 2.4), 900-2,400 entries at 2e7 per second, when each
# replicate built its own generators. Deriving all streams in one pass brought
# it to 10-35 us; the constant is kept so that the same configs pass.
REPLICATE_COST = 2000

_SEED_ENV = "STABLEMIX_SEED"
_ID_PATTERN = re.compile(r"^[A-Za-z0-9._-]+$")


class ConfigError(ValueError):
    """A configuration problem with a field-path diagnostic."""


def _check_keys(obj: dict, path: str, required: Sequence[str], optional: Sequence[str]) -> None:
    allowed = set(required) | set(optional)
    unknown = sorted(set(obj) - allowed)
    if unknown:
        keys = ", ".join(repr(k) for k in unknown)
        raise ConfigError(
            f"{path}: unknown key(s) {keys}; allowed keys: {', '.join(sorted(allowed))}"
        )
    missing = sorted(set(required) - set(obj))
    if missing:
        raise ConfigError(f"{path}: missing required key(s) {', '.join(repr(k) for k in missing)}")


def _construct(path: str, make: Callable, *args, **kwargs):
    """``make(*args, **kwargs)``, with a ValueError or TypeError it raises
    reported as a ConfigError under ``path``."""
    try:
        return make(*args, **kwargs)
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def _as_number(value, path: str, finite: bool = True) -> float:
    """``value`` as a float. JSON's NaN and Infinity tokens are rejected
    unless ``finite`` is False, for a value whose own validator names them."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{path}: expected a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:  # an integer literal beyond the float range
        number = math.inf
    if finite and not math.isfinite(number):
        raise ConfigError(f"{path}: expected a finite number, got {number!r}")
    return number


def _as_int(value, path: str, least: int = 1) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{path}: expected an integer, got {value!r}")
    if value < least:
        raise ConfigError(f"{path}: must be at least {least}, got {value}")
    return value


def _as_pairs(value, path: str, label: str = "[value, weight]") -> Tuple[Tuple[float, float], ...]:
    if not isinstance(value, list) or not value:
        raise ConfigError(f"{path}: expected a nonempty list of {label} pairs")
    pairs = []
    for j, item in enumerate(value):
        if not isinstance(item, list) or len(item) != 2:
            raise ConfigError(f"{path}[{j}]: expected a {label} pair")
        pairs.append((_as_number(item[0], f"{path}[{j}][0]"), _as_number(item[1], f"{path}[{j}][1]")))
    return tuple(pairs)


# kind -> (constructor, fields in argument order). Fields named "atoms" are
# lists of [value, weight] pairs; all others are numbers.
_BASE_KINDS = {
    "point": (PointMassLaw, ("value",)),
    "gaussian": (GaussianLaw, ("mean", "sd")),
    "cauchy": (CauchyLaw, ("location", "scale")),
    "uniform": (UniformLaw, ("lo", "hi")),
    "pareto_symmetric": (lambda tail_index, scale: ParetoLaw(tail_index, scale, 0.5), ("tail_index", "scale")),
    "pareto_onesided": (lambda tail_index, scale: ParetoLaw(tail_index, scale, 1.0), ("tail_index", "scale")),
    "stable": (lambda *params: StableLaw(StableParams(*params)), ("alpha", "gamma", "c", "beta")),
}

_PRIOR_KINDS = {
    "scale_atoms": (ScaleAtoms, ("atoms",)),
    "scale_exponential": (ScaleExponential, ("rate",)),
    "scale_lognormal": (ScaleLogNormal, ("log_mean", "log_sd")),
    "location_atoms": (LocationAtoms, ("atoms",)),
    "location_gaussian": (LocationGaussian, ("mean", "sd")),
}


def _build_kind(obj, path: str, kinds: dict, noun: str):
    if not isinstance(obj, dict):
        raise ConfigError(f"{path}: expected an object with a 'kind' key")
    kind = obj.get("kind")
    if not isinstance(kind, str) or kind not in kinds:
        raise ConfigError(
            f"{path}.kind: unknown {noun} {kind!r}; known: {', '.join(sorted(kinds))}"
        )
    make, fields = kinds[kind]
    _check_keys(obj, path, required=("kind",) + fields, optional=())
    args = [(_as_pairs if f == "atoms" else _as_number)(obj[f], f"{path}.{f}") for f in fields]
    return _construct(path, make, *args)


def _build_law(obj, path: str) -> DirectingLaw:
    if not isinstance(obj, dict):
        raise ConfigError(f"{path}: expected an object with a 'base' key")
    _check_keys(obj, path, required=("base",), optional=("prior",))
    base = _build_kind(obj["base"], f"{path}.base", _BASE_KINDS, "family")
    prior = None
    if "prior" in obj:
        prior = _build_kind(obj["prior"], f"{path}.prior", _PRIOR_KINDS, "prior")
    return _construct(path, DirectingLaw, base, prior)


def _build_norming(obj, path: str) -> NormingSequence:
    if not isinstance(obj, dict):
        raise ConfigError(f"{path}: expected an object with an 'alpha' key")
    optional = ("slow_kind", "slow_power", "scale", "centering_kind", "centering_tau")
    _check_keys(obj, path, required=("alpha",), optional=optional)
    # The two *_kind fields are names that NormingSequence validates itself;
    # alpha may be Infinity, the constant norming.
    kwargs = {
        f: obj[f] if f.endswith("_kind") else _as_number(obj[f], f"{path}.{f}", finite=f != "alpha")
        for f in ("alpha",) + optional
        if f in obj
    }
    return _construct(path, NormingSequence, **kwargs)


def _build_stat_config(obj, path: str) -> StatTestConfig:
    if not isinstance(obj, dict):
        raise ConfigError(f"{path}: expected an object")
    fields = ("delta", "prob_bound", "ks_tol", "margin", "fit_tol")
    _check_keys(obj, path, required=(), optional=fields)
    kwargs = {f: _as_number(obj[f], f"{path}.{f}", finite=False) for f in fields if f in obj}
    return _construct(path, StatTestConfig, **kwargs)


def _build_target(obj, path: str) -> MixingMeasure:
    if not isinstance(obj, dict):
        raise ConfigError(f"{path}: expected an object with an 'atoms' key")
    _check_keys(obj, path, required=("atoms",), optional=())
    atoms = obj["atoms"]
    if not isinstance(atoms, list) or not atoms:
        raise ConfigError(f"{path}.atoms: expected a nonempty list")
    built = []
    for j, item in enumerate(atoms):
        if not isinstance(item, list) or len(item) != 5:
            raise ConfigError(
                f"{path}.atoms[{j}]: expected [alpha, gamma, c, beta, weight]"
            )
        nums = [_as_number(v, f"{path}.atoms[{j}][{k}]") for k, v in enumerate(item)]
        built.append((_construct(f"{path}.atoms[{j}]", StableParams, *nums[:4]), nums[4]))
    return _construct(path, MixingMeasure, tuple(built))


def _as_list(value, path: str, convert: Callable = _as_number, noun: str = "numbers") -> tuple:
    if not isinstance(value, list) or not value:
        raise ConfigError(f"{path}: expected a nonempty list of {noun}")
    return tuple(convert(v, f"{path}[{j}]") for j, v in enumerate(value))


def _as_bool(value, path: str) -> bool:
    if not isinstance(value, bool):
        raise ConfigError(f"{path}: expected true or false")
    return value


def _as_names(value, path: str) -> tuple:
    if not isinstance(value, list):
        raise ConfigError(f"{path}: expected a list of criterion names")
    return tuple(value)


def _as_ints(value, path: str) -> tuple:
    return _as_list(value, path, _as_int, "integers")


# Scenario key -> (ScenarioSpec field, parser taking the value and its path).
_SCENARIO_FIELDS: Dict[str, Tuple[str, Callable]] = {
    "n_grid": ("cf_n_grid", _as_ints),
    "replicates": ("cf_replicates", _as_int),
    "tau": ("tau", lambda v, p: _as_number(v, p, finite=False)),
    "alpha": ("alpha", _as_number),
    "x_grid": ("x_grid", _as_list),
    "checkers": ("checkers", _as_names),
    "joint": ("joint", _as_bool),
    "t_grid": ("t_grid", lambda v, p: _construct(p, TGrid, _as_list(v, p))),
    "joint_grid": ("joint_grid", lambda v, p: _construct(p, TGrid, _as_pairs(v, p, "[t, s]"))),
    "stat_config": ("stat_config", _build_stat_config),
}
# Scenario key -> (NGrid field of ScenarioSpec.checker_ngrid, parser).
_NGRID_FIELDS: Dict[str, Tuple[str, Callable]] = {
    "checker_n_grid": ("values", _as_ints),
    "checker_replicates": ("replicates", _as_int),
}
# The scenario seed is read by load_config, not stored in the spec.
_SCENARIO_OVERRIDES = tuple(_SCENARIO_FIELDS) + tuple(_NGRID_FIELDS) + ("seed",)


@dataclass(frozen=True)
class ResolvedConfig:
    """A validated configuration ready to execute."""

    spec: ScenarioSpec
    seed: Optional[int]
    out: Optional[str]


def _apply_overrides(spec: ScenarioSpec, obj: dict, path: str) -> ScenarioSpec:
    def parse(table: dict) -> dict:
        return {f: parse_value(obj[k], f"{path}.{k}") for k, (f, parse_value) in table.items() if k in obj}

    updates = parse(_SCENARIO_FIELDS)
    grid_updates = parse(_NGRID_FIELDS)
    if grid_updates:
        updates["checker_ngrid"] = _construct(path, replace, spec.checker_ngrid, **grid_updates)
    return _construct(path, replace, spec, **updates)


def _build_scenario(obj, path: str) -> ScenarioSpec:
    if isinstance(obj, str):
        return _construct(path, get_scenario, obj)
    if not isinstance(obj, dict):
        raise ConfigError(f"{path}: expected a builtin name or an object")
    if "builtin" in obj:
        _check_keys(obj, path, required=("builtin",), optional=_SCENARIO_OVERRIDES)
        spec = _construct(f"{path}.builtin", get_scenario, obj["builtin"])
        return _apply_overrides(spec, obj, path)
    _check_keys(
        obj,
        path,
        required=("id", "law", "norming"),
        optional=_SCENARIO_OVERRIDES + ("target",),
    )
    name = obj["id"]
    if not isinstance(name, str) or not _ID_PATTERN.match(name):
        raise ConfigError(
            f"{path}.id: scenario ids must match {_ID_PATTERN.pattern}, got {name!r}"
        )
    spec = ScenarioSpec(
        name=name,
        law=_build_law(obj["law"], f"{path}.law"),
        norming=_build_norming(obj["norming"], f"{path}.norming"),
    )
    if "target" in obj:
        target = _build_target(obj["target"], f"{path}.target")
        spec = replace(spec, target=target, target_label="inline mixture")
    return _apply_overrides(spec, obj, path)


def _check_budget(spec: ScenarioSpec) -> None:
    """Reject a grid whose replicates x (rows x summed row lengths + table
    entries + REPLICATE_COST) exceeds WORK_BUDGET, before anything is drawn.
    The cf grid's entries, each about one variate, are len(n_grid) x
    len(t_grid), plus len(joint_grid) when joint; the checker grid has one
    row and none."""
    tables = len(spec.cf_n_grid) * len(spec.t_grid.points)
    tables += len(spec.joint_grid.points) if spec.joint else 0
    grids = (
        ("config.scenario.n_grid", spec.cf_replicates, spec.rows, spec.cf_n_grid, tables),
        ("config.scenario.checker_n_grid", spec.checker_ngrid.replicates, 1, spec.checker_ngrid.values, 0),
    )
    for path, replicates, grid_rows, values, entries in grids:
        work = replicates * (grid_rows * sum(values) + entries + REPLICATE_COST)
        if work > WORK_BUDGET:
            raise ConfigError(
                f"{path}: {replicates} replicates x {grid_rows} row(s) x {sum(values)} summed row lengths"
                f" + {replicates} x ({entries} table entries + {REPLICATE_COST}) per replicate = {work}"
                f" exceeds the work budget of {WORK_BUDGET}"
            )


def load_config(path: str, seed_flag: Optional[int] = None) -> ResolvedConfig:
    """Parse and validate a JSON config file into a runnable configuration.

    Seed resolution order: --seed flag, then the STABLEMIX_SEED environment
    variable, then the config file (top level, then inside the scenario).
    """
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"{path}: invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: top level must be an object")
    _check_keys(raw, "config", required=("scenario",), optional=("seed", "out"))
    spec = _build_scenario(raw["scenario"], "config.scenario")
    _check_budget(spec)

    scenario_obj = raw["scenario"] if isinstance(raw["scenario"], dict) else {}
    seed: Optional[int] = None
    if seed_flag is not None:
        seed = _as_int(seed_flag, "--seed", least=0)
    elif os.environ.get(_SEED_ENV):
        try:
            seed = int(os.environ[_SEED_ENV])
        except ValueError as exc:
            raise ConfigError(f"{_SEED_ENV}: expected an integer, got {os.environ[_SEED_ENV]!r}") from exc
        _as_int(seed, _SEED_ENV, least=0)
    elif "seed" in raw:
        seed = _as_int(raw["seed"], "config.seed", least=0)
    elif "seed" in scenario_obj:
        seed = _as_int(scenario_obj["seed"], "config.scenario.seed", least=0)

    out = raw.get("out")
    if out is not None and not isinstance(out, str):
        raise ConfigError("config.out: expected a directory path string")

    return ResolvedConfig(spec, seed, out)


def _write_json(path: Path, payload: Dict[str, object]) -> None:
    path.write_text(
        json.dumps(payload, indent=2, sort_keys=True, ensure_ascii=False, allow_nan=False)
        + "\n",
        encoding="utf-8",
    )


_CF_COLUMNS = ("n", "t", "re", "im", "target_re", "target_im", "abs_error")
_QUANTITY_COLUMNS = ("n", "m_trunc", "m_smooth", "sigma2_trunc", "sigma2_bar_proxy", "q_eps", "spectral_mass")


def _write_csv(path: Path, columns: Sequence[str], rows: Iterable[dict]) -> None:
    """One line per row; a column the row lacks is an empty cell."""
    with path.open("w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(columns)
        for row in rows:
            writer.writerow([row.get(c, "") for c in columns])


def _resolve_out(config: ResolvedConfig, out_flag: Optional[str]) -> Path:
    out = Path(out_flag if out_flag is not None else (config.out or "."))
    out.mkdir(parents=True, exist_ok=True)
    return out


def _seeded_config(args: argparse.Namespace, criterion: Optional[str] = None) -> Optional[ResolvedConfig]:
    """The config the arguments name, or None after printing why it is unusable."""
    try:
        config = load_config(args.config, args.seed)
        if criterion is not None:
            _construct("check", _checker_args, config.spec, criterion)
        if config.seed is None:
            raise ConfigError(
                "no seed given: pass --seed, set STABLEMIX_SEED, or add 'seed' to the config"
            )
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return None
    return config


def cmd_simulate(args: argparse.Namespace) -> int:
    config = _seeded_config(args)
    if config is None:
        return EXIT_CONFIG
    try:
        report = run_scenario(config.spec, config.seed)
        out = _resolve_out(config, args.out)
        report_path = out / f"{report.scenario}.report.json"
        cf_path = out / f"{report.scenario}.cf.csv"
        quantities_path = out / f"{report.scenario}.quantities.csv"
        _write_json(report_path, {"schema_version": SCHEMA_VERSION, **asdict(report)})
        cf_rows = ({"n": table["n"], **row} for table in report.cf_tables for row in table["points"])
        _write_csv(cf_path, _CF_COLUMNS, cf_rows)
        _write_csv(quantities_path, _QUANTITY_COLUMNS, report.quantities)
    except Exception as exc:  # noqa: BLE001 - the exit-code contract wants 1 here
        print(f"runtime error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    print(f"wrote {report_path}")
    print(f"wrote {cf_path}")
    print(f"wrote {quantities_path}")
    if report.sup_distance:
        last = report.sup_distance[-1]
        print(f"sup distance to target at n={last['n']}: {last['sup']:.6f}")
    for verdict in report.verdicts:
        print(f"criterion {verdict['name']}: {_VERDICTS[verdict['holds']][0]}")
    return EXIT_PASS


def cmd_check(args: argparse.Namespace) -> int:
    config = _seeded_config(args, criterion=args.criterion)
    if config is None:
        return EXIT_CONFIG
    try:
        verdict = run_criterion(config.spec, args.criterion, config.seed)
        out = _resolve_out(config, args.out)
        verdict_path = out / f"{config.spec.name}.{args.criterion}.verdict.json"
        _write_json(
            verdict_path,
            {
                "schema_version": SCHEMA_VERSION,
                "scenario": config.spec.name,
                "criterion": verdict.name,
                "seed": config.seed,
                "holds": verdict.holds,
                "evidence": verdict.evidence,
                "estimated_limit": verdict.estimated_limit,
            },
        )
    except Exception as exc:  # noqa: BLE001 - the exit-code contract wants 1 here
        print(f"runtime error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    state, code = _VERDICTS[verdict.holds]
    print(f"criterion {verdict.name} on {config.spec.name}: {state}")
    print(f"wrote {verdict_path}")
    return code


def cmd_verify_identity(args: argparse.Namespace) -> int:
    try:
        residual = identity_residual(perturb=args.perturb)
    except Exception as exc:  # noqa: BLE001 - quadrature failure maps to exit 1
        print(f"runtime error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    print(f"identity residual over the standard grid: {residual:.3e} (tolerance {args.tol:.3e})")
    if math.isfinite(residual) and residual <= args.tol:
        return EXIT_PASS
    print("identity verification failed", file=sys.stderr)
    return EXIT_RUNTIME


def cmd_list_scenarios(_args: argparse.Namespace) -> int:
    for name in builtin_scenarios():
        spec = get_scenario(name)
        print(f"{name}: {spec.description}")
    return EXIT_PASS


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stablemix",
        description="Simulate exchangeable arrays and check stable-mixture convergence criteria.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    simulate = sub.add_parser("simulate", help="run a scenario and write report files")
    simulate.add_argument("--config", required=True, help="path to a JSON config file")
    simulate.add_argument("--seed", type=int, default=None, help="master seed (overrides config)")
    # Parsed and read by nothing: the benchmark runner still passes it.
    simulate.add_argument("--threads", type=int, default=None, help="ignored; sampling runs in one thread")
    simulate.add_argument("--out", default=None, help="output directory (default: config 'out' or cwd)")
    simulate.set_defaults(func=cmd_simulate)

    check = sub.add_parser("check", help="run one convergence criterion")
    check.add_argument("criterion", help=f"one of: {', '.join(CRITERION_NAMES)}")
    check.add_argument("--config", required=True, help="path to a JSON config file")
    check.add_argument("--seed", type=int, default=None, help="master seed (overrides config)")
    check.add_argument("--out", default=None, help="output directory (default: config 'out' or cwd)")
    check.set_defaults(func=cmd_check)

    verify = sub.add_parser(
        "verify-identity",
        help="verify the Cauchy transform against its scale-mixture quadrature",
    )
    verify.add_argument("--tol", type=float, default=1e-8, help="largest acceptable residual")
    verify.add_argument(
        "--perturb",
        type=float,
        default=1.0,
        help="multiply the quadrature value by this factor (negative-control hook)",
    )
    verify.set_defaults(func=cmd_verify_identity)

    listing = sub.add_parser("list-scenarios", help="list the builtin scenarios")
    listing.set_defaults(func=cmd_list_scenarios)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
