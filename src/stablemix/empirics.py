"""Empirical characteristic functions and scenario orchestration.

This module turns simulated row sums into empirical characteristic
function tables, compares them against registered analytic targets, and
bundles everything a desk-scale convergence study needs into one
self-describing report: characteristic-function tables per row length,
sup distances to the target, characteristic quantities of a sample
realization, criterion verdicts, and runtimes.

A small registry of builtin scenarios covers the package's designed
examples, one scenario per limit regime, each carrying its directing
law, norming sequence, analytic target, and the criterion checkers it
is expected to face. The analytic targets are registered here once so
that library calls, command-line runs, and acceptance tests all compare
against the same values.
"""

from __future__ import annotations

import math
import time
from dataclasses import asdict, dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from .characteristics import _require_alpha, char_quantities, proxy_window
from .criteria import (
    _CHECKERS,
    CRITERION_NAMES,
    NGrid,
    StatTestConfig,
    CriterionVerdict,
    DrawPanel,
    _require_levels,
    check_cauchy_mixture,
    check_degenerate,
    check_gaussian_mixture,
    check_sec5_conditions,
    check_single_row_cauchy,
    check_single_row_gaussian,
    check_single_row_stable,
    check_stable_mixture,
    check_uan,
    check_wlln,
)
from .directing import (
    CauchyLaw,
    DirectingLaw,
    GaussianLaw,
    ParetoLaw,
    PointMassLaw,
    ScaleAtoms,
    ScaleExponential,
    UniformLaw,
    _check_grid,
    draw_replicates,
    sample_array_sums,  # not called here; perfbench/spans.py patches this name
    sample_grid_sums,
)
from .mixtures import MixingMeasure, cauchy_from_gaussian_scale_mixture, joint_mixture_cf, mixture_cf
from .stable import NormingSequence, StableParams

__all__ = [
    "TGrid",
    "ScenarioSpec",
    "ScenarioReport",
    "empirical_cf",
    "empirical_joint_cf",
    "run_scenario",
    "run_criterion",
    "builtin_scenarios",
    "get_scenario",
    "identity_residual",
]

_SQRT_2PI = math.sqrt(2.0 * math.pi)
_MODULUS_SLACK = 1.0 + 1e-12


def _default_points() -> Tuple[float, ...]:
    return tuple(float(k) * 0.25 for k in range(-20, 21))


@dataclass(frozen=True)
class TGrid:
    """Evaluation grid for characteristic functions.

    One dimensional grids are tuples of reals and must contain 0; two
    dimensional grids are tuples of (t, s) pairs and must contain (0, 0).
    The default is the one dimensional grid from -5 to 5 in steps of
    0.25.
    """

    points: Tuple = field(default_factory=_default_points)

    def __post_init__(self) -> None:
        pts = tuple(self.points)
        if not pts:
            raise ValueError("the evaluation grid must not be empty")
        if isinstance(pts[0], (tuple, list)):
            pts = tuple((float(a), float(b)) for a, b in pts)
            flat = [v for pair in pts for v in pair]
            has_zero = (0.0, 0.0) in pts
        else:
            pts = tuple(float(t) for t in pts)
            flat = list(pts)
            has_zero = 0.0 in pts
        if not all(math.isfinite(v) for v in flat):
            raise ValueError("grid points must be finite")
        if not has_zero:
            raise ValueError("the grid must include the origin")
        object.__setattr__(self, "points", pts)

    @property
    def ndim(self) -> int:
        return 2 if isinstance(self.points[0], tuple) else 1


DEFAULT_JOINT_POINTS = (
    (0.0, 0.0),
    (0.5, 0.5),
    (1.0, 1.0),
    (1.0, -1.0),
    (2.0, 1.0),
)


def _mean_exp(phase: np.ndarray) -> complex:
    """The mean of exp(i * phase), as (mean cos, mean sin)."""
    return complex(np.mean(np.cos(phase)), np.mean(np.sin(phase)))


def empirical_cf(samples: Sequence[float], grid: TGrid) -> np.ndarray:
    """Empirical characteristic function (1/N) sum exp(i t x_j) per grid point.

    The value at t = 0 is exactly 1 and the table is conjugate symmetric
    on symmetric grids because cosine is even and sine is odd in t.
    """
    x = np.asarray(samples, dtype=float)
    if x.size == 0:
        raise ValueError("samples must be nonempty")
    if grid.ndim != 1:
        raise ValueError("empirical_cf expects a one dimensional grid")
    return np.array([_mean_exp(t * x) for t in grid.points], dtype=complex)


def empirical_joint_cf(values: np.ndarray, grid: TGrid) -> np.ndarray:
    """Empirical joint characteristic function of the first two row sums.

    ``values`` is the ``(replicates, rows)`` array of
    :func:`~stablemix.directing.sample_array_sums`: ``values[k]`` holds the
    row sums of replicate k, whose rows are i.i.d. given its directing
    realization ``draw_replicates(law, seed, replicates)[k]``. The result
    averages exp(i(t S_1 + s S_2)) over replicates for every
    (t, s) pair of the grid. Needs at least two rows per replicate.
    """
    if values.shape[1] < 2:
        raise ValueError(
            f"joint characteristic function needs at least 2 rows, got {values.shape[1]}"
        )
    if grid.ndim != 2:
        raise ValueError("empirical_joint_cf expects a grid of (t, s) pairs")
    s1, s2 = values[:, 0], values[:, 1]
    return np.array([_mean_exp(t * s1 + s * s2) for t, s in grid.points], dtype=complex)


_IDENTITY_GRID = tuple(0.25 * k for k in range(21))


def identity_residual(perturb: float = 1.0) -> float:
    """Largest gap between exp(-|t|) and its Gaussian scale mixture form.

    Evaluates the quadrature of the mixture representation on the identity
    grid (0 to 5 in steps of 0.25) and returns the maximal absolute
    difference from exp(-|t|). ``perturb`` scales the quadrature value
    and exists as a negative-control hook: any value other than 1 must
    push the residual far above the acceptance threshold, and a NaN gap
    makes the residual NaN.
    """
    gaps = [abs(perturb * cauchy_from_gaussian_scale_mixture(t) - math.exp(-abs(t))) for t in _IDENTITY_GRID]
    return float(np.max(gaps))


@dataclass(frozen=True)
class ScenarioSpec:
    """Complete description of one convergence scenario and how to run it.

    ``target`` is a finite stable mixture when the limit has that form;
    ``target_fn`` overrides it with a direct formula for limits outside
    the finite-mixture class (the exponential variance mixture). The
    checkers tuple lists criterion names from the criteria module;
    ``exclusive_pass`` names the one mixture-type checker the scenario
    is designed to satisfy. ``t_grid`` is the one dimensional grid of the
    cf tables, ``joint_grid`` the (t, s) grid of the joint table, and
    ``stat_config`` the tolerances every checker uses.

    The spec validates itself on construction, so a scenario that cannot
    run is a ValueError before anything is drawn: ``tau`` must be finite
    and positive; ``cf_n_grid`` must be nonempty, with each row length an
    integer of at least 2 that appears once, and ``cf_replicates`` a
    positive integer; each checker must be a known criterion that appears
    once, with the tail index it needs in (0, 1) or (1, 2) and, for
    ``sec5``, an ``x_grid`` that is positive and increasing.
    """

    name: str
    law: DirectingLaw
    norming: NormingSequence
    tau: float = 1.0
    alpha: Optional[float] = None
    checkers: Tuple[str, ...] = ()
    exclusive_pass: Optional[str] = None
    target: Optional[MixingMeasure] = None
    target_fn: Optional[Callable[[float], complex]] = None
    target_label: str = ""
    cf_n_grid: Tuple[int, ...] = (256, 1024, 4096)
    cf_replicates: int = 2000
    checker_ngrid: NGrid = field(default_factory=NGrid)
    x_grid: Tuple[float, ...] = (100.0, 1000.0, 10000.0)
    joint: bool = False
    identity_demo: bool = False
    description: str = ""
    t_grid: TGrid = field(default_factory=TGrid)
    joint_grid: TGrid = field(default_factory=lambda: TGrid(DEFAULT_JOINT_POINTS))
    stat_config: StatTestConfig = field(default_factory=StatTestConfig)

    def __post_init__(self) -> None:
        if not 0 < self.tau < math.inf:
            raise ValueError(f"tau must be finite and positive, got {self.tau}")
        if self.t_grid.ndim != 1:
            raise ValueError("the scenario grid must be one dimensional")
        if self.joint_grid.ndim != 2:
            raise ValueError("the joint grid must consist of (t, s) pairs")
        grid = _check_grid(self.cf_n_grid, self.rows, self.cf_replicates)
        for j, n in enumerate(grid):
            proxy_window(n)  # the quantities table needs n >= 2
            if n in grid[:j]:
                raise ValueError(f"scenario {self.name!r} repeats row length {n} in its grid")
        for j, criterion in enumerate(self.checkers):
            _checker_args(self, criterion)
            if criterion in self.checkers[:j]:
                raise ValueError(f"scenario {self.name!r} repeats checker {criterion!r}")

    @property
    def rows(self) -> int:
        """Rows per replicate of the cf grid: two for a joint scenario."""
        return 2 if self.joint else 1

    def target_cf(self, t: float) -> Optional[complex]:
        if self.target_fn is not None:
            return complex(self.target_fn(t))
        if self.target is not None:
            return complex(mixture_cf(t, self.target))
        return None


@dataclass(frozen=True)
class ScenarioReport:
    """Self-describing result bundle of one scenario run.

    All payload fields are plain JSON-serializable structures. Every
    empirical characteristic-function value is checked to have a finite
    modulus of at most 1 + 1e-12, and every quantity to be finite, on
    construction.
    """

    scenario: str
    seed: int
    config: Dict[str, object]
    cf_tables: List[Dict[str, object]]
    sup_distance: List[Dict[str, float]]
    joint_table: Optional[List[Dict[str, object]]]
    identity: Optional[Dict[str, float]]
    quantities: List[Dict[str, float]]
    verdicts: List[Dict[str, object]]
    runtimes: Dict[str, float]

    def __post_init__(self) -> None:
        for table in self.cf_tables:
            for row in table["points"]:
                modulus = math.hypot(row["re"], row["im"])
                # Written so that a NaN modulus is rejected too.
                if not modulus <= _MODULUS_SLACK:
                    raise ValueError(
                        f"empirical value at t={row['t']} has modulus {modulus}"
                    )
        for row in self.quantities:
            for key, value in row.items():
                if not math.isfinite(value):
                    raise ValueError(f"quantity {key} at n={row['n']} is not finite: {value}")


def _checker_args(spec: ScenarioSpec, criterion: str) -> list:
    """The scenario fields ``criterion`` takes after its panel. An unknown
    criterion, a tail index it needs that the scenario lacks or has outside
    (0, 1) or (1, 2), or an ``x_grid`` it reads that is not positive and
    increasing, is a ValueError."""
    if criterion not in CRITERION_NAMES:
        raise ValueError(f"unknown criterion {criterion!r}; known: {', '.join(CRITERION_NAMES)}")
    fields = _CHECKERS[criterion][1]
    if "alpha" in fields:
        if spec.alpha is None:
            raise ValueError(f"scenario {spec.name!r} does not define the tail index {criterion!r} needs")
        _require_alpha(spec.alpha)
    if "x_grid" in fields:
        _require_levels(spec.x_grid)
    return [getattr(spec, f) for f in fields]


def _gauss_expmix_cf(t: float) -> complex:
    return complex(1.0 / (1.0 + 0.5 * t * t))


def _single_atom(alpha: float, gamma: float, c: float, beta: float) -> MixingMeasure:
    return MixingMeasure(((StableParams(alpha, gamma, c, beta), 1.0),))


def _builtin_registry() -> Dict[str, ScenarioSpec]:
    sqrt_n = NormingSequence(alpha=2.0)
    linear = NormingSequence(alpha=1.0)
    two_thirds = NormingSequence(alpha=1.5)
    linear_mean = NormingSequence(alpha=1.0, centering_kind="n_times_mean")
    two_thirds_mean = NormingSequence(alpha=1.5, centering_kind="n_times_mean")

    cauchy_unit = _single_atom(1.0, 0.0, 1.0, 0.0)
    cauchy_scale_mix = MixingMeasure(
        (
            (StableParams(1.0, 0.0, 1.0, 0.0), 0.5),
            (StableParams(1.0, 0.0, 2.0, 0.0), 0.5),
        )
    )

    specs = [
        ScenarioSpec(
            name="example1",
            law=DirectingLaw(CauchyLaw(0.0, 1.0)),
            norming=linear,
            target=cauchy_unit,
            target_label="exp(-|t|)",
            checkers=("cauchy_mixture",),
            exclusive_pass="cauchy_mixture",
            joint=True,
            identity_demo=True,
            description=(
                "The standard Cauchy as a Gaussian scale mixture: quadrature "
                "identity residual plus the joint-factorization contrast "
                "between the degenerate and the mixed-scale array."
            ),
        ),
        ScenarioSpec(
            name="point-mass",
            law=DirectingLaw(PointMassLaw(0.75)),
            norming=linear_mean,
            target=_single_atom(1.0, 0.0, 0.0, 0.0),
            target_label="1 (point mass at 0)",
            checkers=("uan", "degenerate", "wlln"),
            exclusive_pass="degenerate",
            description="Deterministic entries, mean centering; degenerate limit.",
        ),
        ScenarioSpec(
            name="uniform-fixed",
            law=DirectingLaw(UniformLaw(-1.0, 1.0)),
            norming=sqrt_n,
            target=_single_atom(2.0, 0.0, 1.0 / 6.0, 0.0),
            target_label="exp(-t^2/6)",
            checkers=("uan", "gaussian_mixture", "row_gaussian"),
            exclusive_pass="gaussian_mixture",
            description="Fixed uniform directing law; Gaussian limit, variance 1/3.",
        ),
        ScenarioSpec(
            name="gauss-fixed",
            law=DirectingLaw(GaussianLaw(0.0, 1.0)),
            norming=sqrt_n,
            target=_single_atom(2.0, 0.0, 0.5, 0.0),
            target_label="exp(-t^2/2)",
            checkers=("uan", "gaussian_mixture", "row_gaussian"),
            exclusive_pass="gaussian_mixture",
            description="Fixed standard Gaussian; the classical CLT regime.",
        ),
        ScenarioSpec(
            name="gauss-expmix",
            law=DirectingLaw(GaussianLaw(0.0, 1.0), ScaleExponential(1.0)),
            norming=sqrt_n,
            target_fn=_gauss_expmix_cf,
            target_label="1/(1+t^2/2)",
            checkers=("uan", "gaussian_mixture", "row_gaussian"),
            exclusive_pass="gaussian_mixture",
            description=(
                "Gaussian entries with exponentially distributed variance; "
                "the limit is a Laplace-type variance mixture."
            ),
        ),
        ScenarioSpec(
            name="cauchy-fixed",
            law=DirectingLaw(CauchyLaw(0.0, 1.0)),
            norming=linear,
            target=cauchy_unit,
            target_label="exp(-|t|)",
            checkers=("uan", "cauchy_mixture", "row_cauchy"),
            exclusive_pass="cauchy_mixture",
            description="Fixed standard Cauchy; exact stability at every n.",
        ),
        ScenarioSpec(
            name="cauchy-scalemix",
            law=DirectingLaw(CauchyLaw(0.0, 1.0), ScaleAtoms(((1.0, 0.5), (2.0, 0.5)))),
            norming=linear,
            target=cauchy_scale_mix,
            target_label="(exp(-|t|)+exp(-2|t|))/2",
            checkers=("uan", "cauchy_mixture", "row_cauchy"),
            exclusive_pass="cauchy_mixture",
            joint=True,
            description=(
                "Cauchy entries with a two-atom scale prior; the limit mixes "
                "two Cauchy scales and the joint law does not factorize."
            ),
        ),
        ScenarioSpec(
            name="pareto-mix",
            law=DirectingLaw(
                ParetoLaw(1.5, 1.0, 0.5), ScaleAtoms(((1.0, 0.5), (2.0, 0.5)))
            ),
            norming=two_thirds,
            alpha=1.5,
            target=MixingMeasure(
                (
                    (StableParams(1.5, 0.0, _SQRT_2PI, 0.0), 0.5),
                    (StableParams(1.5, 0.0, _SQRT_2PI * 2.0**1.5, 0.0), 0.5),
                )
            ),
            target_label="stable(1.5) scale mixture",
            checkers=("uan", "stable_mixture", "row_stable", "sec5"),
            exclusive_pass="stable_mixture",
            description=(
                "Symmetric power tails with index 1.5 and a two-atom scale "
                "prior; the limit mixes two symmetric stable laws."
            ),
        ),
        ScenarioSpec(
            name="pareto-onesided",
            law=DirectingLaw(ParetoLaw(1.5, 1.0, 1.0)),
            norming=two_thirds_mean,
            alpha=1.5,
            target=_single_atom(1.5, 0.0, _SQRT_2PI, -1.0),
            target_label="skewed stable(1.5)",
            checkers=("uan", "stable_mixture"),
            exclusive_pass="stable_mixture",
            description=(
                "One-sided power tails with index 1.5, mean centering; the "
                "limit is a fully skewed stable law."
            ),
        ),
    ]
    return {spec.name: spec for spec in specs}


_REGISTRY = _builtin_registry()


def builtin_scenarios() -> Tuple[str, ...]:
    """Names of the registered builtin scenarios, sorted."""
    return tuple(sorted(_REGISTRY))


def get_scenario(name: str) -> ScenarioSpec:
    """Look up a builtin scenario by name."""
    try:
        return _REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY))
        raise ValueError(f"unknown scenario {name!r}; builtins: {known}") from None


def _run_checker(spec: ScenarioSpec, criterion: str, panel: DrawPanel) -> CriterionVerdict:
    # The checker is looked up by name in this module at call time, so a
    # replaced module attribute is the one that runs.
    args = _checker_args(spec, criterion)
    return globals()[_CHECKERS[criterion][0]](panel, *args, spec.stat_config)


def run_criterion(spec: ScenarioSpec, criterion: str, seed: int) -> CriterionVerdict:
    """Run one named criterion checker against a scenario, on a panel of
    its checker grid drawn from ``seed`` and under its ``stat_config``
    tolerances."""
    return _run_checker(spec, criterion, DrawPanel(spec.law, spec.norming, spec.checker_ngrid, seed))


def _config_echo(spec: ScenarioSpec, seed: int) -> Dict[str, object]:
    return {
        "scenario": spec.name,
        "description": spec.description,
        "law": repr(spec.law),
        "norming": repr(spec.norming),
        "tau": spec.tau,
        "alpha": spec.alpha,
        "target": spec.target_label,
        "cf_n_grid": list(spec.cf_n_grid),
        "cf_replicates": spec.cf_replicates,
        "checker_n_grid": list(spec.checker_ngrid.values),
        "checker_replicates": spec.checker_ngrid.replicates,
        "checkers": list(spec.checkers),
        "t_grid": list(spec.t_grid.points),
        "seed": seed,
    }


def run_scenario(spec: Union[ScenarioSpec, str], seed: int) -> ScenarioReport:
    """Execute one scenario end to end and assemble its report.

    Simulates row sums along the scenario's row-length grid with one
    :func:`~stablemix.directing.sample_grid_sums` call, so each replicate
    draws its directing measure once for the whole grid (the draws are
    seeded per replicate, so reports are deterministic for a given seed up
    to the wall-clock fields); then, per row length, tabulates empirical
    characteristic functions on ``spec.t_grid`` against the registered
    analytic target and computes characteristic quantities of replicate 0's
    realization ``draw_replicates(spec.law, seed, 1)[0]``. It runs the
    scenario's criterion checkers under ``spec.stat_config`` and, when the
    scenario asks for it, adds the joint-factorization table on
    ``spec.joint_grid`` and the quadrature identity residual. ``runtimes``
    holds ``sample`` (the sampler call), ``tables_n=<n>`` per row length,
    ``joint_table``, ``identity`` and ``check_<criterion>`` when they run,
    and ``total``.
    """
    if isinstance(spec, str):
        spec = get_scenario(spec)
    grid = spec.t_grid

    runtimes: Dict[str, float] = {}
    cf_tables: List[Dict[str, object]] = []
    sups: List[Dict[str, float]] = []
    quantities: List[Dict[str, float]] = []

    t_total = time.perf_counter()
    targets = [spec.target_cf(float(t)) for t in grid.points]
    first_draw = draw_replicates(spec.law, seed, 1)[0]
    t_start = time.perf_counter()
    grid_sums = sample_grid_sums(
        spec.law, spec.norming, spec.cf_n_grid, spec.rows, seed, spec.cf_replicates
    )
    runtimes["sample"] = time.perf_counter() - t_start
    for n, sums in zip(spec.cf_n_grid, grid_sums):
        t_start = time.perf_counter()
        emp = empirical_cf(sums[:, 0], grid)
        points = []
        worst = 0.0
        for t, z, target in zip(grid.points, emp, targets):
            row: Dict[str, float] = {"t": float(t), "re": float(z.real), "im": float(z.imag)}
            if target is not None:
                row["target_re"] = float(target.real)
                row["target_im"] = float(target.imag)
                gap = abs(z - target)
                row["abs_error"] = float(gap)
                worst = max(worst, float(gap))
            points.append(row)
        cf_tables.append({"n": int(n), "points": points})
        if None not in targets:
            sups.append({"n": int(n), "sup": worst})

        bundle = char_quantities(first_draw, spec.norming, n, spec.tau)
        quantities.append(
            {
                "n": int(n),
                "m_trunc": float(bundle.m_trunc),
                "m_smooth": float(bundle.m_smooth),
                "sigma2_trunc": float(bundle.sigma2_trunc),
                "sigma2_bar_proxy": float(bundle.sigma2_bar_proxy),
                "q_eps": float(bundle.q_eps),
                "spectral_mass": float(bundle.lambda_n.total_mass),
            }
        )
        runtimes[f"tables_n={n}"] = time.perf_counter() - t_start

    joint_table: Optional[List[Dict[str, object]]] = None
    if spec.joint:
        # The joint table reads the row sums at the last row length.
        t_start = time.perf_counter()
        jgrid = spec.joint_grid
        joint = empirical_joint_cf(sums, jgrid)
        joint_table = []
        for (t, s), z in zip(jgrid.points, joint):
            product = _mean_exp(t * sums[:, 0]) * _mean_exp(s * sums[:, 1])
            row = {
                "t": float(t),
                "s": float(s),
                "joint_re": float(z.real),
                "joint_im": float(z.imag),
                "product_re": float(product.real),
                "product_im": float(product.imag),
                "factorization_gap": float(abs(z - product)),
            }
            if spec.target is not None:
                target = joint_mixture_cf((t, s), spec.target)
                row["target_re"] = float(target.real)
                row["target_im"] = float(target.imag)
            joint_table.append(row)
        runtimes["joint_table"] = time.perf_counter() - t_start

    identity: Optional[Dict[str, float]] = None
    if spec.identity_demo:
        t_start = time.perf_counter()
        identity = {"residual": identity_residual(), "points": len(_IDENTITY_GRID)}
        runtimes["identity"] = time.perf_counter() - t_start

    # One panel for all checkers: draws and per-draw quantities are computed
    # once, on first use, and charged to the first checker that needs them.
    panel = DrawPanel(spec.law, spec.norming, spec.checker_ngrid, seed)
    verdicts: List[Dict[str, object]] = []
    for criterion in spec.checkers:
        t_start = time.perf_counter()
        verdict = _run_checker(spec, criterion, panel)
        verdicts.append(asdict(verdict))
        runtimes[f"check_{criterion}"] = time.perf_counter() - t_start

    runtimes["total"] = time.perf_counter() - t_total
    return ScenarioReport(
        scenario=spec.name,
        seed=seed,
        config=_config_echo(spec, seed),
        cf_tables=cf_tables,
        sup_distance=sups,
        joint_table=joint_table,
        identity=identity,
        quantities=quantities,
        verdicts=verdicts,
        runtimes=runtimes,
    )
