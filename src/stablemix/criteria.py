"""Numerical checkers for the limit behaviour of normalized row sums.

Every checker in this module follows the same recipe. It realizes the
directing law once per replicate (the draws are shared across the whole
grid of row lengths), computes deterministic per-realization quantities
such as truncated means, truncated variances, scaled tail masses, and
discretized spectral measures, and then turns the empirical behaviour of
those quantities along the grid into a three-state verdict:

* ``True``   every sub-check passed its statistical test,
* ``False``  at least one sub-check failed decisively,
* ``None``   the evidence is too ambiguous to call either way.

Every sub-check reaches its verdict through one rule, ``_tri``: a
decisive failure gives ``False``, else a pass gives ``True``, else
``None``. A fraction or distance is decisive at one half
(``_DECISIVE``), and ``StatTestConfig`` keeps ``prob_bound`` and
``ks_tol`` below it, so no statistic can both pass and fail.

Two statistical operationalizations are used throughout. Convergence in
probability of a statistic ``Z_n`` to a constant ``z`` is accepted when
the empirical exceedance fraction ``P(|Z_n - z| > delta)`` is below
``prob_bound`` at the largest row length and essentially non-increasing
along the grid; a decisive fraction at the largest length fails. When
the constant is unknown it is estimated by the median at the largest
length, and the median must additionally have stopped drifting between
the last two grid points. Convergence in distribution is accepted when a
slack-relaxed Kolmogorov-Smirnov distance between consecutive empirical
laws (paired draws, so the comparison is sharp) falls below ``ks_tol``;
a decisive distance fails.

Every checker takes a ``DrawPanel`` as its first argument: the directing
law, norming sequence, grid of row lengths and seed, together with the
draws and the memo of per-draw quantities. Several checkers handed the
same panel share its draws and compute each quantity once.

Checkers that look for heavy-tailed limits fit a two-sided power shape
to the discretized spectral measure of each draw and demand that the
restriction-metric residual of the fit stays small, which is what rules
out a wrong tail index or a wrong norming sequence. All checkers assume
a single shared tail index; laws whose draws mix different indices are
outside the contract of every checker here.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .characteristics import (
    _SYMMETRY_REL,
    SpectralParams,
    _require_alpha,
    fit_spectrum,
    proxy_window,
    pushforward_alpha,
    pushforward_one,
    sigma_bar_proxy,
    smooth_mean,
    spectral_measure_lambda,
    stable_mixing_constant,
    tail_mass_quantity,
    tail_moment_ratio,
    trunc_mean,
    trunc_variance,
)
from .directing import DirectingLaw, _check_grid, draw_replicates
from .stable import NormingSequence, norming_values

__all__ = [
    "NGrid",
    "StatTestConfig",
    "DrawPanel",
    "CriterionVerdict",
    "CRITERION_NAMES",
    "check_uan",
    "check_gaussian_mixture",
    "check_degenerate",
    "check_stable_mixture",
    "check_cauchy_mixture",
    "check_wlln",
    "check_single_row_gaussian",
    "check_single_row_stable",
    "check_single_row_cauchy",
    "check_sec5_conditions",
]

# Criterion name -> (checker in this module, ScenarioSpec fields passed
# between the panel and the config).
_CHECKERS = {
    "uan": ("check_uan", ()),
    "gaussian_mixture": ("check_gaussian_mixture", ("tau",)),
    "degenerate": ("check_degenerate", ("tau",)),
    "stable_mixture": ("check_stable_mixture", ("alpha",)),
    "cauchy_mixture": ("check_cauchy_mixture", ()),
    "wlln": ("check_wlln", ("tau",)),
    "row_gaussian": ("check_single_row_gaussian", ("tau",)),
    "row_stable": ("check_single_row_stable", ("alpha",)),
    "row_cauchy": ("check_single_row_cauchy", ()),
    "sec5": ("check_sec5_conditions", ("alpha", "x_grid")),
}
CRITERION_NAMES = tuple(_CHECKERS)

_TAIL_EPS = (0.1, 1.0)
# Limit atoms: a panel with at most this many distinct draws gives its own;
# a larger one gives this many groups of equal weight.
_LIMIT_ATOMS = 12
# A fraction or distance at or beyond this decides a sub-check.
_DECISIVE = 0.5


@dataclass(frozen=True)
class NGrid:
    """Grid of row lengths with a replicate count shared by all of them."""

    values: Tuple[int, ...] = (100, 1000, 10000, 100000)
    replicates: int = 200

    def __post_init__(self) -> None:
        # The sampler's positive-integer rule; the report echoes Python ints.
        vals = tuple(int(v) for v in _check_grid(self.values, 1, self.replicates))
        object.__setattr__(self, "values", vals)
        if len(vals) < 2:
            raise ValueError("the row-length grid needs at least two points")
        if vals[0] < 2:
            raise ValueError(f"row lengths must be at least 2, got {vals[0]}")
        if any(b <= a for a, b in zip(vals, vals[1:])):
            raise ValueError(f"row lengths must be strictly increasing, got {vals}")
        if self.replicates < 100:
            raise ValueError(
                f"at least 100 replicates are needed for stable fractions, got {self.replicates}"
            )


@dataclass(frozen=True)
class StatTestConfig:
    """Tolerances for the statistical tests behind every checker.

    :param delta: closeness radius for convergence in probability
    :param prob_bound: admissible exceedance fraction at the largest n
    :param ks_tol: admissible relaxed Kolmogorov-Smirnov distance
    :param margin: slack for distribution comparisons and degeneracy tests
    :param fit_tol: admissible restriction-metric residual of a spectral fit

    Every tolerance must be finite and positive, and ``prob_bound`` and
    ``ks_tol`` must stay below the decisive one half.
    """

    delta: float = 0.05
    prob_bound: float = 0.05
    ks_tol: float = 0.05
    margin: float = 0.01
    fit_tol: float = 0.05

    def __post_init__(self) -> None:
        for name in ("delta", "prob_bound", "ks_tol", "margin", "fit_tol"):
            value = getattr(self, name)
            if not 0 < value < np.inf:
                raise ValueError(f"{name} must be finite and positive, got {value}")
        for name in ("prob_bound", "ks_tol"):
            value = getattr(self, name)
            if value >= _DECISIVE:
                raise ValueError(f"{name} must be below {_DECISIVE}, got {value}")


@dataclass(frozen=True)
class CriterionVerdict:
    """Outcome of one criterion checker.

    ``holds`` is ``True`` on a pass, ``False`` on a decisive failure, and
    ``None`` when the evidence is inconclusive. ``evidence`` is a plain
    JSON-serializable dictionary with one entry per sub-check, and
    ``estimated_limit`` summarizes the inferred limit object when the
    checker produces one.
    """

    name: str
    holds: Optional[bool]
    evidence: Dict[str, object]
    estimated_limit: Optional[Dict[str, object]] = None


class DrawPanel:
    """The input of every checker: ``ngrid.replicates`` draws of ``law``
    from ``seed``, judged under ``norming`` along ``ngrid.values``, plus a
    memo of per-draw quantities, one table per quantity and n.

    Realizations are frozen dataclasses, hence hashable, so equal draws
    collapse to a single memo entry; an atom prior with two support
    points costs two quadratures per grid point no matter how many
    replicates are requested. Memo keys name the quantity and its
    parameters, so one panel can serve every checker of a scenario and
    each quantity is computed once. The draws are made on first use.
    """

    def __init__(
        self, law: DirectingLaw, norming: NormingSequence, ngrid: NGrid, seed: int
    ) -> None:
        self.law = law
        self.norming = norming
        self.ngrid = ngrid
        self.seed = seed
        self._memo: Dict[tuple, object] = {}

    @cached_property
    def draws(self) -> list:
        return draw_replicates(self.law, self.seed, self.ngrid.replicates)

    @cached_property
    def unique(self) -> list:
        return list(dict.fromkeys(self.draws))

    def _memoized(self, token: tuple, make: Callable[[], object]):
        if token not in self._memo:
            self._memo[token] = make()
        return self._memo[token]

    def table(self, key: tuple, n: int, fn: Callable) -> Dict[object, object]:
        """``fn(p, n)`` for each distinct draw p, built once per (key, n); no caller changes it."""
        return self._memoized((key, n), lambda: {p: fn(p, n) for p in self.unique})

    def values(self, key: tuple, n: int, fn: Callable) -> np.ndarray:
        table = self.table(key, n, fn)
        out = np.array([table[p] for p in self.draws], dtype=float)
        bad = int(np.count_nonzero(~np.isfinite(out)))
        if bad:
            raise RuntimeError(f"quantity {key} at n={n} is not finite for {bad} of {out.size} draws")
        return out

    def stream(self, key: tuple, fn: Callable) -> List[np.ndarray]:
        """``values`` at every grid length, in grid order."""
        return [self.values(key, n, fn) for n in self.ngrid.values]

    def unique_weights(self) -> List[Tuple[object, float]]:
        counts = Counter(self.draws)
        total = len(self.draws)
        return [(p, counts[p] / total) for p in self.unique]

    def norming_at(self, p, n: int) -> Tuple[float, float]:
        return self._memoized(("norming", n, p), lambda: norming_values(self.norming, n, p))

    # Per-draw quantity streams. Each returns one array per grid length,
    # holding one value per replicate.

    def loc_trunc(self, tau: float) -> List[np.ndarray]:
        def fn(p, m):
            return trunc_mean(p, self.norming, m, tau) - self.norming_at(p, m)[1]

        return self.stream(("m_trunc", tau), fn)

    def loc_smooth(self) -> List[np.ndarray]:
        def fn(p, m):
            return smooth_mean(p, self.norming, m) - self.norming_at(p, m)[1]

        return self.stream(("m_smooth",), fn)

    def disp(self, tau: float) -> List[np.ndarray]:
        def fn(p, m):
            return trunc_variance(p, self.norming, m, tau)

        return self.stream(("disp", tau), fn)

    def proxy(self) -> List[np.ndarray]:
        def fn(p, m):
            return sigma_bar_proxy(p, self.norming, proxy_window(m))

        return self.stream(("proxy",), fn)

    def qtail(self, eps: float) -> List[np.ndarray]:
        def fn(p, m):
            return tail_mass_quantity(p, self.norming, m, eps)

        return self.stream(("qtail", eps), fn)

    def uan_tail(self, eps: float) -> List[np.ndarray]:
        def fn(p, m):
            return p.tail_mass(eps * self.norming.b(m))

        return self.stream(("uan", eps), fn)

    def balance(self) -> List[np.ndarray]:
        def fn(p, m):
            b = self.norming.b(m)
            mass = p.tail_mass(b)
            if mass == 0.0:
                return 0.0
            return (p.right_tail(b) - p.cdf(-b)) / mass

        return self.stream(("balance",), fn)

    def ratio(self, x: float) -> np.ndarray:
        def fn(p, _):
            return tail_moment_ratio(p, x)

        return self.values(("ratio", x), 0, fn)

    def fit_table(self, n: int, alpha: float) -> Dict[object, object]:
        def fn(p, m):
            return fit_spectrum(spectral_measure_lambda(p, self.norming, m), alpha)

        return self.table(("fit", alpha), n, fn)


def _tri(fails: bool, passes: bool) -> Optional[bool]:
    """The verdict of one test: False on a decisive failure, else True on
    a pass, else None."""
    if fails:
        return False
    return True if passes else None


def _combine_list(statuses: Sequence[Optional[bool]]) -> Optional[bool]:
    return _tri(any(s is False for s in statuses), all(s is True for s in statuses))


# np.quantile and np.median load numpy.ma on their first call, 10-19 ms in a
# fresh process; these two give their values bit for bit without it. Where
# -0.0 and 0.0 both occur, a zero's sign may differ, as NumPy's follows its
# partition order.


def _sorted_values(values: np.ndarray) -> Optional[List[float]]:
    """The values sorted as a flat list, or None when one is NaN."""
    ordered = np.sort(values, axis=None).tolist()
    return None if math.isnan(ordered[-1]) else ordered


def _median(values: np.ndarray) -> float:
    """``np.median(values)``: the middle value, or (a + b) / 2 of the middle
    two, as ``np.mean`` takes it; NaN when ``values`` holds a NaN."""
    ordered = _sorted_values(values)
    if ordered is None:
        return math.nan
    half = len(ordered) // 2
    return ordered[half] if len(ordered) % 2 else (ordered[half - 1] + ordered[half]) / 2


def _linear_quantiles(values: np.ndarray, probs: Sequence[float]) -> List[float]:
    """``np.quantile(values, probs)`` by NumPy's default ``linear`` method;
    NaN for every quantile when ``values`` holds a NaN.

    The q-quantile lies at index (n - 1) * q of the sorted values, between
    the points a and b around it at fraction t, and is NumPy's ``_lerp``:
    a + (b - a) * t, or b - (b - a) * (1 - t) when t >= 0.5. From index
    n - 1 up, NumPy reads the last point at both ends, as index -1.
    """
    ordered = _sorted_values(values)
    if ordered is None:
        return [math.nan] * len(probs)
    last = len(ordered) - 1
    quantiles = []
    for q in probs:
        index = last * q
        below, above = (math.floor(index), math.floor(index) + 1) if index < last else (-1, -1)
        a, b, t = ordered[below], ordered[above], index - below
        quantiles.append(b - (b - a) * (1 - t) if t >= 0.5 else a + (b - a) * t)
    return quantiles


def _quantiles(values: np.ndarray) -> Dict[str, float]:
    q10, q50, q90 = _linear_quantiles(values, (0.1, 0.5, 0.9))
    return {
        "q10": q10,
        "q50": q50,
        "q90": q90,
        "mean": float(np.mean(values)),
    }


def _combine(subs: Dict[str, Dict[str, object]]) -> Optional[bool]:
    """The conjunction of the sub-check entries' ``holds``."""
    return _combine_list([s["holds"] for s in subs.values()])


def _fraction_verdict(
    fracs: Sequence[float], cfg: StatTestConfig
) -> Dict[str, object]:
    """Judge a sequence of exceedance fractions along the grid.

    Pass needs a final fraction at most ``prob_bound`` and an essentially
    non-increasing path: at most one upward step, no larger than a
    quarter of ``prob_bound``. A decisive final fraction fails.
    """
    last = fracs[-1]
    rises = [b - a for a, b in zip(fracs, fracs[1:]) if b > a + 1e-12]
    monotone = len(rises) <= 1 and all(r <= 0.25 * cfg.prob_bound + 1e-12 for r in rises)
    holds = _tri(last >= _DECISIVE, last <= cfg.prob_bound and monotone)
    return {"holds": holds, "fractions": [float(f) for f in fracs], "monotone": monotone}


def _in_probability(
    samples: Sequence[np.ndarray],
    cfg: StatTestConfig,
    target: Optional[float] = None,
) -> Dict[str, object]:
    """Test convergence in probability of paired samples along the grid.

    With ``target=None`` the limit is estimated by the median at the
    largest grid point, and the median must have stopped moving: a drift
    beyond ``delta`` between the last two grid points blocks a pass, and
    a drift beyond ten times ``delta`` fails decisively (a statistic
    that still moves by that much is going somewhere else).
    """
    last = samples[-1]
    est = float(target) if target is not None else _median(last)
    fracs = [float(np.mean(np.abs(s - est) > cfg.delta)) for s in samples]
    out = _fraction_verdict(fracs, cfg)
    out["limit"] = est
    if target is None and len(samples) >= 2:
        drift = abs(_median(samples[-2]) - est)
        out["drift"] = float(drift)
        holds = out["holds"]
        out["holds"] = _tri(holds is False or drift > 10.0 * cfg.delta, holds is True and drift <= cfg.delta)
    return out


def _relaxed_ks(a: np.ndarray, b: np.ndarray, slack: float) -> float:
    """Kolmogorov-Smirnov distance after allowing a horizontal slack.

    Computes sup over x of max(F_a(x - s) - F_b(x + s),
    F_b(x - s) - F_a(x + s), 0), which is zero whenever one sample is a
    translate of the other by less than ``s``. The supremum is attained
    at shifted sample points, so those are the only evaluation points.
    """
    a = np.sort(np.asarray(a, dtype=float))
    b = np.sort(np.asarray(b, dtype=float))
    grid = np.concatenate([a - slack, a + slack, b - slack, b + slack])
    f_a_left = np.searchsorted(a, grid - slack, side="right") / a.size
    f_a_right = np.searchsorted(a, grid + slack, side="right") / a.size
    f_b_left = np.searchsorted(b, grid - slack, side="right") / b.size
    f_b_right = np.searchsorted(b, grid + slack, side="right") / b.size
    d_one = float(np.max(f_a_left - f_b_right))
    d_two = float(np.max(f_b_left - f_a_right))
    return max(0.0, d_one, d_two)


def _weak_convergence(
    samples: Sequence[np.ndarray], cfg: StatTestConfig
) -> Dict[str, object]:
    """Accept when consecutive empirical laws stop moving in relaxed KS."""
    distances = [
        _relaxed_ks(s1, s2, cfg.margin) for s1, s2 in zip(samples, samples[1:])
    ]
    last = distances[-1]
    holds = _tri(last >= _DECISIVE, last <= cfg.ks_tol)
    return {"holds": holds, "ks_consecutive": [float(d) for d in distances]}


def _nondegenerate(
    values: np.ndarray, cfg: StatTestConfig
) -> Dict[str, object]:
    """Test that an empirical law is not concentrated at zero."""
    frac = float(np.mean(np.abs(values) > cfg.margin))
    holds = _tri(frac <= cfg.prob_bound, frac >= _DECISIVE)
    return {"holds": holds, "fraction_beyond_margin": frac}


def _spread(
    values: np.ndarray, cfg: StatTestConfig
) -> Dict[str, object]:
    """Test that an empirical law is not a single point (decile spread)."""
    q10, q90 = _linear_quantiles(values, (0.1, 0.9))
    spread = q90 - q10
    return {"holds": spread > cfg.margin, "decile_spread": spread}


def _tails_to_zero(
    panel: DrawPanel, cfg: StatTestConfig, scaled: bool
) -> Dict[str, object]:
    """Tail sub-check shared by several checkers.

    ``scaled=True`` tests n times the two-sided tail mass beyond
    eps * b_n (the negligible-tails requirement of light-tailed limits);
    ``scaled=False`` tests the raw per-element tail mass (the uniform
    asymptotic negligibility of single array entries).
    """
    per_eps = {}
    for eps in _TAIL_EPS:
        if scaled:
            entry = _in_probability(panel.qtail(eps), cfg, target=0.0)
        else:
            fracs = [float(np.mean(s > cfg.delta)) for s in panel.uan_tail(eps)]
            entry = _fraction_verdict(fracs, cfg)
        per_eps[f"eps={eps:g}"] = entry
    return {"holds": _combine(per_eps), "per_eps": per_eps}


def _variance_mixture_subchecks(
    loc: Sequence[np.ndarray], disp: Sequence[np.ndarray], cfg: StatTestConfig
) -> Dict[str, Dict[str, object]]:
    """The centered truncated mean concentrates and the truncated variance
    converges to a law that is not concentrated at zero."""
    return {
        "location_concentrates": _in_probability(loc, cfg),
        "dispersion_converges": _weak_convergence(disp, cfg),
        "dispersion_nondegenerate": _nondegenerate(disp[-1], cfg),
    }


def _evidence(panel: DrawPanel, subs: Dict[str, object], **extra) -> Dict[str, object]:
    out: Dict[str, object] = {
        "sub_checks": subs,
        "n_grid": [int(n) for n in panel.ngrid.values],
        "replicates": int(panel.ngrid.replicates),
        "distinct_draws": len(panel.unique),
    }
    out.update(extra)
    return out


def _verdict(
    name: str, panel: DrawPanel, subs: Dict[str, dict], limit: Optional[dict] = None, **extra
) -> CriterionVerdict:
    """The verdict that holds when every sub-check entry in ``subs`` holds."""
    return CriterionVerdict(name, _combine(subs), _evidence(panel, subs, **extra), limit)


# ---------------------------------------------------------------------------
# Spectral-fit machinery shared by the heavy-tailed checkers.
# ---------------------------------------------------------------------------


def _fit_streams(panel: DrawPanel, alpha: float):
    residuals, nulls, c_minus, c_plus = [], [], [], []
    for n in panel.ngrid.values:
        table = panel.fit_table(n, alpha)
        fits = [table[p] for p in panel.draws]
        residuals.append(np.array([res for _, res in fits], dtype=float))
        nulls.append(np.array([params.is_null for params, _ in fits], dtype=bool))
        c_minus.append(np.array([params.c_minus for params, _ in fits], dtype=float))
        c_plus.append(np.array([params.c_plus for params, _ in fits], dtype=float))
    return residuals, nulls, c_minus, c_plus


def _shape_subchecks(
    panel: DrawPanel, alpha: float, cfg: StatTestConfig, with_symmetry: bool
):
    """Sub-checks on per-draw spectral fits at tail index ``alpha``.

    shape_fit: the fit residual stays within ``fit_tol`` for almost all
    draws, which fails for a wrong tail index or a wrong norming.
    non_null: a positive fraction of draws carries actual tail weight.
    scale_stabilize: the fitted weights stop moving along the grid, the
    test that catches a norming sequence with the wrong growth rate.
    symmetry (optional): fitted weights are side-balanced per draw.
    """
    residuals, nulls, c_minus, c_plus = _fit_streams(panel, alpha)
    subs: Dict[str, Dict[str, object]] = {}

    res_fracs = [float(np.mean(res > cfg.fit_tol)) for res in residuals]
    subs["shape_fit"] = _fraction_verdict(res_fracs, cfg)
    subs["shape_fit"]["max_residual"] = float(np.max(residuals[-1]))

    non_null = float(np.mean(~nulls[-1]))
    nn_holds = _tri(non_null == 0.0, non_null >= cfg.prob_bound)
    subs["non_null"] = {"holds": nn_holds, "non_null_fraction": non_null}

    ks_minus = _weak_convergence(c_minus, cfg)
    ks_plus = _weak_convergence(c_plus, cfg)
    subs["scale_stabilize"] = {
        "holds": _combine_list([ks_minus.pop("holds"), ks_plus.pop("holds")]),
        "c_minus": ks_minus,
        "c_plus": ks_plus,
    }

    if with_symmetry:
        mask = ~nulls[-1]
        if mask.any():
            cm, cp = c_minus[-1][mask], c_plus[-1][mask]
            violations = np.abs(cp - cm) > _SYMMETRY_REL * (cp + cm)
            frac = float(np.mean(violations))
            sym_holds = _tri(frac >= _DECISIVE, frac <= cfg.prob_bound)
            subs["symmetry"] = {"holds": sym_holds, "violation_fraction": frac}
        else:
            subs["symmetry"] = {"holds": True, "non_null_draws": 0}

    return subs


def _limit_atoms(
    panel: DrawPanel, alpha: float, locations: np.ndarray
) -> List[Tuple[float, SpectralParams, float]]:
    """Per-draw (location, spectral shape, weight) triples at the largest n.

    ``locations`` holds each draw's smoothed location at the largest n.
    Distinct draws already collapse by equality, so an atom prior yields
    its atoms exactly. A crowded panel (a continuous prior) is sorted by
    fitted total weight and cut into ``_LIMIT_ATOMS`` runs of equal weight:
    each draw joins the run that holds the midpoint of its weight. Each run
    is weight-averaged, so the mean is kept.
    """
    fit_table = panel.fit_table(panel.ngrid.values[-1], alpha)
    loc_of = dict(zip(panel.draws, locations))
    entries = [
        (float(loc_of[p]), fit_table[p][0], weight)
        for p, weight in panel.unique_weights()
    ]
    if len(entries) <= _LIMIT_ATOMS:
        return entries
    runs: List[List[Tuple[float, SpectralParams, float]]] = [[] for _ in range(_LIMIT_ATOMS)]
    below = 0.0
    for entry in sorted(entries, key=lambda e: e[1].total_weight):
        runs[min(int(_LIMIT_ATOMS * (below + entry[2] / 2)), _LIMIT_ATOMS - 1)].append(entry)
        below += entry[2]
    grouped = []
    for run in filter(None, runs):
        weight = sum(e[2] for e in run)
        eta = sum(e[0] * e[2] for e in run) / weight
        cm = sum(e[1].c_minus * e[2] for e in run) / weight
        cp = sum(e[1].c_plus * e[2] for e in run) / weight
        grouped.append((eta, SpectralParams(alpha, cm, cp), weight))
    return grouped


def _stable_atom_dicts(mixing) -> List[Dict[str, float]]:
    return [
        {
            "alpha": float(sp.alpha),
            "gamma": float(sp.gamma),
            "c": float(sp.c),
            "beta": float(sp.beta),
            "weight": float(w),
        }
        for sp, w in mixing.atoms
    ]


def _mixing_summary(result) -> Dict[str, object]:
    return {
        "gamma": float(result.gamma),
        "gamma_consistent": bool(result.gamma_consistent),
        "gamma_values": [float(g) for g in result.gamma_values],
        "atoms": _stable_atom_dicts(result.mixing),
    }


def _rho_atoms(
    entries: List[Tuple[float, SpectralParams, float]], constant: float
) -> List[Dict[str, float]]:
    merged: Dict[float, float] = {}
    for _, params, weight in entries:
        c_value = round(constant * params.total_weight, 9)
        merged[c_value] = merged.get(c_value, 0.0) + weight
    return [
        {"c": float(c), "weight": float(w)} for c, w in sorted(merged.items())
    ]


def _mixture_verdict(
    name: str,
    panel: DrawPanel,
    alpha: float,
    config: StatTestConfig,
    limit_of: Callable[[list, np.ndarray], Dict[str, object]],
) -> CriterionVerdict:
    """Stable-mixture verdict at index ``alpha``; index one adds symmetry.

    ``limit_of`` maps the limit atoms and the smoothed locations at the
    largest n to the estimated limit; a ``ValueError`` it raises is
    reported as ``limit_error`` in the evidence.
    """
    subs = _shape_subchecks(panel, alpha, config, with_symmetry=alpha == 1.0)

    m1 = panel.loc_smooth()
    subs["location_stabilize"] = _weak_convergence(m1, config)
    subs["variance_proxy_vanishes"] = _in_probability(panel.proxy(), config, target=0.0)

    try:
        limit = limit_of(_limit_atoms(panel, alpha, m1[-1]), m1[-1])
    except ValueError as exc:
        return _verdict(name, panel, subs, limit_error=str(exc))
    return _verdict(name, panel, subs, limit)


def _row_stable_verdict(
    name: str, panel: DrawPanel, alpha: float, config: StatTestConfig
) -> CriterionVerdict:
    """Single-row symmetric stable verdict at index ``alpha``, one included."""
    subs = _shape_subchecks(panel, alpha, config, with_symmetry=True)
    if _combine(subs) is False:
        return _verdict(name, panel, subs, hypothesis_violated=True)

    m1 = panel.loc_smooth()
    subs["location_concentrates"] = _in_probability(m1, config)
    subs["variance_proxy_vanishes"] = _in_probability(panel.proxy(), config, target=0.0)

    entries = _limit_atoms(panel, alpha, m1[-1])
    limit = {
        "gamma": float(subs["location_concentrates"]["limit"]),
        "rho_atoms": _rho_atoms(entries, stable_mixing_constant(alpha)),
    }
    return _verdict(name, panel, subs, limit)


# ---------------------------------------------------------------------------
# Checkers.
# ---------------------------------------------------------------------------


def check_uan(panel: DrawPanel, config: StatTestConfig) -> CriterionVerdict:
    """Check uniform asymptotic negligibility of single array entries.

    For each draw of the directing law the per-element tail mass beyond
    eps * b_n must become negligible: the fraction of draws with mass
    above ``delta`` has to fall below ``prob_bound`` at the largest row
    length for eps in {0.1, 1}. A constant norming sequence under a
    heavy-tailed law is the canonical decisive failure.
    """
    subs = {"entry_tails_negligible": _tails_to_zero(panel, config, scaled=False)}
    return _verdict("uan", panel, subs)


def check_gaussian_mixture(
    panel: DrawPanel, tau: float, config: StatTestConfig
) -> CriterionVerdict:
    """Check convergence toward a mixture of Gaussian laws.

    Sub-checks: the centered truncated mean concentrates at a constant,
    the truncated variance converges in distribution to a limit that is
    not concentrated at zero, and n times the tail mass beyond
    eps * b_n vanishes. Emits the estimated location and a quantile
    summary of the limiting variance mixture.
    """
    loc = panel.loc_trunc(tau)
    disp = panel.disp(tau)

    subs = _variance_mixture_subchecks(loc, disp, config)
    subs["tails_negligible"] = _tails_to_zero(panel, config, scaled=True)

    limit = {
        "gamma": float(subs["location_concentrates"]["limit"]),
        "dispersion_law": _quantiles(disp[-1]),
    }
    return _verdict("gaussian_mixture", panel, subs, limit)


def check_degenerate(panel: DrawPanel, tau: float, config: StatTestConfig) -> CriterionVerdict:
    """Check convergence toward a single point mass.

    The centered truncated mean must concentrate at a constant while
    both the truncated variance and the scaled tail masses vanish in
    probability.
    """
    loc = panel.loc_trunc(tau)
    disp = panel.disp(tau)

    subs = {
        "location_concentrates": _in_probability(loc, config),
        "dispersion_vanishes": _in_probability(disp, config, target=0.0),
        "tails_negligible": _tails_to_zero(panel, config, scaled=True),
    }
    limit = {"gamma": float(subs["location_concentrates"]["limit"])}
    return _verdict("degenerate", panel, subs, limit)


def check_stable_mixture(
    panel: DrawPanel, alpha: float, config: StatTestConfig
) -> CriterionVerdict:
    """Check convergence toward a mixture of stable laws with index alpha.

    Requires alpha in (0, 1) or (1, 2). Sub-checks: per-draw spectral
    fits at index alpha with small residuals, a positive fraction of
    draws with actual tail weight, stabilization of fitted weights and
    smoothed locations along the grid, and a vanishing truncated
    variance proxy. On success the per-draw locations and fitted weights
    are pushed forward to a mixture of stable parameter atoms.
    """
    _require_alpha(alpha)
    return _mixture_verdict(
        "stable_mixture",
        panel,
        alpha,
        config,
        lambda atoms, _: _mixing_summary(pushforward_alpha(atoms, alpha)),
    )


def check_cauchy_mixture(panel: DrawPanel, config: StatTestConfig) -> CriterionVerdict:
    """Check convergence toward a mixture of symmetric Cauchy-type laws.

    Same structure as the stable-mixture checker at tail index one, with
    one extra requirement: every draw with tail weight must be
    side-balanced, since asymmetric spectra at index one cannot be
    pushed to the canonical form. Emits the location-and-scale mixture
    obtained from the per-draw fits.
    """
    return _mixture_verdict(
        "cauchy_mixture",
        panel,
        1.0,
        config,
        lambda atoms, locations: {
            "location_median": _median(locations),
            "atoms": _stable_atom_dicts(pushforward_one(atoms)),
        },
    )


def check_wlln(panel: DrawPanel, tau: float, config: StatTestConfig) -> CriterionVerdict:
    """Check the weak law of large numbers for the normalized row sums.

    Three displays must vanish in probability: the centered truncated
    mean, the truncated second moment net of the squared centering taken
    at matching scale, and n times the tail mass beyond eps * b_n.
    """
    loc = panel.loc_trunc(tau)

    def second_fn(p, m):
        b, c = panel.norming_at(p, m)
        return (m / (b * b)) * p.truncated_second(tau * b) - c * c / m

    second = panel.stream(("wlln_second", tau), second_fn)
    subs = {
        "truncated_mean_vanishes": _in_probability(loc, config, target=0.0),
        "second_moment_vanishes": _in_probability(second, config, target=0.0),
        "tails_negligible": _tails_to_zero(panel, config, scaled=True),
    }
    return _verdict("wlln", panel, subs)


def check_single_row_gaussian(
    panel: DrawPanel, tau: float, config: StatTestConfig
) -> CriterionVerdict:
    """Classify a light-tailed single-row limit into one of two branches.

    Hypothesis: n times the tail mass beyond eps * b_n vanishes. Under
    it, either the centered truncated mean concentrates while the
    truncated variance converges to a nondegenerate law (a variance
    mixture of centered Gaussians), or the truncated variance vanishes
    while the centered truncated mean itself converges to a spread-out
    law (a location mixture). A decisive failure of the hypothesis fails
    the verdict outright without branch classification.
    """
    subs = {"tails_negligible": _tails_to_zero(panel, config, scaled=True)}
    if _combine(subs) is False:
        return _verdict("row_gaussian", panel, subs, hypothesis_violated=True)

    loc = panel.loc_trunc(tau)
    disp = panel.disp(tau)

    variance = _variance_mixture_subchecks(loc, disp, config)
    branch_variance = _combine(variance)
    subs["variance_branch"] = {"holds": branch_variance, **variance}

    location = {
        "dispersion_vanishes": _in_probability(disp, config, target=0.0),
        "location_converges": _weak_convergence(loc, config),
        "location_spread": _spread(loc[-1], config),
    }
    branch_location = _combine(location)
    subs["location_branch"] = {"holds": branch_location, **location}

    limit: Optional[Dict[str, object]] = None
    if branch_variance is True:
        limit = {
            "branch": "variance_mixture",
            "gamma": float(variance["location_concentrates"]["limit"]),
            "dispersion_law": _quantiles(disp[-1]),
        }
    elif branch_location is True:
        limit = {
            "branch": "location_mixture",
            "location_law": _quantiles(loc[-1]),
        }
    branch = _tri(branch_variance is False and branch_location is False, limit is not None)

    # The hypothesis and either branch: not the conjunction of all entries.
    holds = _combine_list([subs["tails_negligible"]["holds"], branch])
    return CriterionVerdict("row_gaussian", holds, _evidence(panel, subs), limit)


def check_single_row_stable(
    panel: DrawPanel, alpha: float, config: StatTestConfig
) -> CriterionVerdict:
    """Check a single-row limit that mixes symmetric stable laws.

    Requires alpha in (0, 1) or (1, 2). Hypothesis: per-draw spectral
    fits at index alpha are side-balanced or null with small residuals,
    carry tail weight with positive frequency, and their fitted weights
    stabilize along the grid (a wrong norming rate shows up here as
    drifting weights). Pass additionally needs the centered smoothed
    mean to concentrate and the truncated variance proxy to vanish.
    Emits the scale mixture of the fitted tail weights.
    """
    _require_alpha(alpha)
    return _row_stable_verdict("row_stable", panel, alpha, config)


def check_single_row_cauchy(panel: DrawPanel, config: StatTestConfig) -> CriterionVerdict:
    """Check a single-row limit that mixes symmetric Cauchy-type laws.

    Tail-index-one version of the symmetric single-row checker: fits at
    index one must be side-balanced or null with small residuals and
    stable weights, some draws must carry tail weight, the centered
    smoothed mean must concentrate (its drift between the last two grid
    points is gated, which is what catches logarithmically divergent
    centerings), and the truncated variance proxy must vanish. Emits the
    scale mixture with the half-circle constant.
    """
    return _row_stable_verdict("row_cauchy", panel, 1.0, config)


def _require_levels(x_grid: Sequence[float]) -> List[float]:
    """The truncation levels of ``x_grid`` as floats: at least two, positive
    and increasing, else a ValueError; written so that a NaN is rejected too."""
    levels = [float(x) for x in x_grid]
    if len(levels) < 2:
        raise ValueError("x_grid needs at least two truncation levels")
    if not levels[0] > 0 or any(not b > a for a, b in zip(levels, levels[1:])):
        raise ValueError(f"x_grid must be positive and increasing, got {x_grid}")
    return levels


def check_sec5_conditions(
    panel: DrawPanel, alpha: float, x_grid: Sequence[float], config: StatTestConfig
) -> CriterionVerdict:
    """Run the experimental tail-diagnostic battery at index alpha.

    Requires alpha in (0, 1) or (1, 2) and an increasing positive grid
    of truncation levels. Four displays are tested: the tail-to-moment
    ratio approaches (2 - alpha)/alpha along the level grid, n times the
    tail mass at b_n converges to a law that is not concentrated at
    zero, the normalized tail imbalance vanishes, and the centered
    smoothed mean concentrates. The combined verdict is flagged as
    experimental in the evidence.
    """
    _require_alpha(alpha)
    levels = _require_levels(x_grid)

    target_ratio = (2.0 - alpha) / alpha

    ratio = _in_probability([panel.ratio(x) for x in levels], config, target=target_ratio)
    ratio["x_grid"] = levels
    ratio["target"] = float(target_ratio)

    tail_law = panel.qtail(1.0)
    subs = {
        "tail_moment_ratio": ratio,
        "tail_law_converges": _weak_convergence(tail_law, config),
        "tail_law_nondegenerate": _nondegenerate(tail_law[-1], config),
        "tail_balance_vanishes": _in_probability(panel.balance(), config, target=0.0),
        "location_concentrates": _in_probability(panel.loc_smooth(), config),
    }
    limit = {
        "gamma": float(subs["location_concentrates"]["limit"]),
        "tail_law": _quantiles(tail_law[-1]),
    }
    return _verdict("sec5", panel, subs, limit, experimental=True)
