"""Timing spans around the calls stablemix's layers make into each other.

The tracer replaces module attributes (and a few class and instance
attributes) with wrappers that record one span per call: name, start, end, parent span, op id
and an optional note computed from the call. Every wrapped callee is looked up
through its caller's module namespace at call time, so patching
``stablemix.empirics.sample_array_sums`` catches exactly the calls the
empirics layer makes into the directing layer. Nothing inside the package is
edited; :meth:`Tracer.restore` puts every original back.

Spans stay in memory; :func:`layer_metrics` turns them into per-layer
figures once a run ends. A span's layer is the part of its name before the
first dot.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Sequence, Tuple

# One span: (name, start, end, parent index or -1, op id, note).
Span = Tuple[str, float, float, int, object, object]

# Each checker's report name and its function in stablemix.empirics.
CHECKERS = {
    "uan": "check_uan",
    "gaussian_mixture": "check_gaussian_mixture",
    "degenerate": "check_degenerate",
    "stable_mixture": "check_stable_mixture",
    "cauchy_mixture": "check_cauchy_mixture",
    "wlln": "check_wlln",
    "row_gaussian": "check_single_row_gaussian",
    "row_stable": "check_single_row_stable",
    "row_cauchy": "check_single_row_cauchy",
    "sec5": "check_sec5_conditions",
}
# Directing base classes by the config "kind" a user writes.
FAMILIES = {
    "GaussianLaw": "gaussian",
    "CauchyLaw": "cauchy",
    "UniformLaw": "uniform",
    "SymmetricParetoLaw": "pareto_symmetric",
    "OneSidedParetoLaw": "pareto_onesided",
    "PointMassLaw": "point",
    "StableLaw": "stable",
}
_MISSING = object()
LAYERS = ("cli", "empirics", "criteria", "characteristics", "directing", "mixtures", "stable", "measures")
# The per-layer metrics of the result line, as in BENCHMARK.json: those that
# every workload exercises, so none reads 0 by construction. The others that
# layer_metrics computes (mixtures, which only the builtins' known targets
# call, one sampler family, quadrature, a checker other than stable_mixture,
# shares of the pass, trace.overhead) belong to one workload each; they are
# printed and recorded but left out of the result line.
PER_LAYER = tuple(f"{layer}.self_s" for layer in LAYERS if layer != "mixtures") + (
    "directing.variates",
    "directing.replicates",
    "directing.variates_per_s",
    "characteristics.fit_calls",
    "characteristics.fit_unique_ratio",
    "characteristics.fit_ms",
    "characteristics.dsharp_calls",
    "characteristics.dsharp_ms",
    "characteristics.lambda_calls",
    "characteristics.lambda_ms",
    "criteria.draws",
    "criteria.distinct_draws",
    "criteria.stable_mixture_s",
    "empirics.cf_calls",
    "empirics.cf_us",
)


class Tracer:
    """Records spans from wrappers it installs; single-threaded by design."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: List[Optional[Span]] = []
        self.op: object = None
        self._stack: List[int] = []
        self._undo: List[Tuple[object, str, object]] = []

    def wrap(self, name: str, fn: Callable, note: Optional[Callable] = None) -> Callable:
        """Return ``fn`` wrapped so that each call records a span called ``name``.

        ``note(result, *args, **kwargs)`` runs outside the timed interval and
        its value is stored with the span.
        """
        spans, stack, clock = self.spans, self._stack, self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, self.op, None)
            if note is not None:
                spans[index] = (name, start, end, parent, self.op, note(result, *args, **kwargs))
            return result

        return traced

    def patch(self, owner: object, attr: str, name: str, note: Optional[Callable] = None) -> None:
        """Replace ``owner.attr`` by a traced wrapper until :meth:`restore`.

        ``owner`` is a module, a class (whose classmethods stay classmethods)
        or an instance, whose method is then shadowed by an instance attribute.
        """
        own = vars(owner)
        raw = own[attr] if attr in own else getattr(owner, attr)
        if isinstance(raw, classmethod):
            replacement: object = classmethod(self.wrap(name, raw.__func__, note))
        else:
            replacement = self.wrap(name, raw, note)
        self._undo.append((owner, attr, own.get(attr, _MISSING)))
        setattr(owner, attr, replacement)

    def restore(self) -> None:
        while self._undo:
            owner, attr, raw = self._undo.pop()
            if raw is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, raw)

    def finished(self) -> List[Span]:
        """Spans of completed calls, in start order."""
        return [s for s in self.spans if s is not None]


def _sample_note(result, law, norming, n, rows, seed, replicates=1, threads=1):
    return (FAMILIES.get(type(law.base).__name__, type(law.base).__name__), n * rows * replicates, replicates)


def _draws_note(result, law, seed, replicates):
    return (len(result), len(set(result)))


def _fit_note(result, measure, alpha, *args, **kwargs):
    return hash((measure, alpha))


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary of the imported stablemix package."""
    from stablemix import characteristics, cli, criteria, directing, empirics, measures, mixtures

    tracer.patch(cli, "run_scenario", "empirics.run_scenario")
    tracer.patch(empirics, "empirical_cf", "empirics.empirical_cf")
    tracer.patch(empirics, "empirical_joint_cf", "empirics.empirical_joint_cf")
    tracer.patch(empirics, "sample_array_sums", "directing.sample_array_sums", _sample_note)
    tracer.patch(empirics, "char_quantities", "characteristics.char_quantities")
    for fn in ("mixture_cf", "joint_mixture_cf", "cauchy_from_gaussian_scale_mixture"):
        tracer.patch(empirics, fn, f"mixtures.{fn}")
    for checker, function in CHECKERS.items():
        tracer.patch(empirics, function, f"criteria.{checker}")

    tracer.patch(criteria, "draw_replicates", "directing.draw_replicates", _draws_note)
    tracer.patch(criteria, "fit_spectrum", "characteristics.fit_spectrum", _fit_note)
    tracer.patch(criteria, "spectral_measure_lambda", "characteristics.spectral_measure_lambda")
    for fn in (
        "trunc_mean",
        "smooth_mean",
        "trunc_variance",
        "sigma_bar_proxy",
        "tail_mass_quantity",
        "tail_moment_ratio",
        "pushforward_alpha",
        "pushforward_one",
    ):
        tracer.patch(criteria, fn, f"characteristics.{fn}")
    tracer.patch(characteristics, "dsharp", "characteristics.dsharp")

    # The sampler's per-replicate calls into stable (replicate_seed,
    # norming_values) stay unwrapped: they would add about 170,000 spans to
    # each builtin-suite pass. Their time counts as directing.
    for module in (criteria, characteristics):
        tracer.patch(module, "norming_values", "stable.norming_values")
    tracer.patch(directing, "sample_stable_with", "stable.sample_stable_with")
    tracer.patch(mixtures, "stable_cf", "stable.stable_cf")
    tracer.patch(mixtures, "levy_khintchine_psi", "stable.levy_khintchine_psi")

    tracer.patch(directing, "quad", "directing.quad")
    for method in ("pdf", "cdf", "sf"):
        tracer.patch(directing.levy_stable, method, f"directing.levy_stable.{method}")

    for method in ("__post_init__", "from_pairs", "mass_interval"):
        tracer.patch(measures.AtomicMeasure, method, f"measures.{method}")


def self_times(spans: Sequence[Span]) -> List[float]:
    """Each span's duration minus the part of it that its child spans cover."""
    children: Dict[int, List[int]] = defaultdict(list)
    for index, span in enumerate(spans):
        if span[3] >= 0:
            children[span[3]].append(index)
    out = []
    for index, (_, start, end, *_rest) in enumerate(spans):
        covered = 0.0
        reach = start
        for child in sorted(children.get(index, ()), key=lambda k: spans[k][1]):
            lo = max(spans[child][1], reach)
            hi = min(spans[child][2], end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((end - start) - covered)
    return out


def _layer(name: str) -> str:
    return name.split(".", 1)[0]


def layer_metrics(spans: Sequence[Span], passes: int, traced_wall: float, plain_wall: float) -> Dict[str, Tuple[float, str]]:
    """Per-layer metrics, as (value, unit), averaged over ``passes`` traced passes.

    ``traced_wall`` and ``plain_wall`` are the summed wall times of the traced
    passes and of untraced passes over the same ops; their ratio minus one is
    the tracing overhead.
    """
    selfs = self_times(spans)
    self_by_layer: Dict[str, float] = defaultdict(float)
    total: Dict[str, float] = defaultdict(float)
    calls: Dict[str, int] = defaultdict(int)
    for span, own in zip(spans, selfs):
        name = span[0]
        self_by_layer[_layer(name)] += own
        total[name] += span[2] - span[1]
        calls[name] += 1

    variates: Dict[str, int] = defaultdict(int)
    family_time: Dict[str, float] = defaultdict(float)
    replicates = 0
    point_time = 0.0
    point_replicates = 0
    draws = distinct = 0
    fit_keys = set()
    for span in spans:
        name, start, end, _, op, note = span
        if name == "directing.sample_array_sums":
            family, count, reps = note
            variates[family] += count
            family_time[family] += end - start
            replicates += reps
            if family == "point":
                point_time += end - start
                point_replicates += reps
        elif name == "directing.draw_replicates":
            draws += note[0]
            distinct += note[1]
        elif name == "characteristics.fit_spectrum":
            fit_keys.add((op, note))

    def per_pass(x: float) -> float:
        return x / passes

    def mean_ms(name: str) -> float:
        return 1e3 * total[name] / calls[name] if calls[name] else 0.0

    def share(x: float) -> float:
        return 100.0 * x / traced_wall if traced_wall > 0 else 0.0

    levy_names = [n for n in calls if n.startswith("directing.levy_stable.")]
    # levy_stable calls never nest inside each other, so their totals add.
    levy_time = sum(total[n] for n in levy_names)
    m: Dict[str, Tuple[float, str]] = {}
    for layer in LAYERS:
        m[f"{layer}.self_s"] = (per_pass(self_by_layer[layer]), "s")

    m["directing.variates"] = (per_pass(sum(variates.values())), "count")
    m["directing.replicates"] = (per_pass(replicates), "count")
    sampling_time = sum(family_time.values())
    m["directing.variates_per_s"] = (sum(variates.values()) / sampling_time if sampling_time > 0 else 0.0, "1/s")
    for family in FAMILIES.values():
        rate = variates[family] / family_time[family] if family_time[family] > 0 else 0.0
        m[f"directing.variates_per_s.{family}"] = (rate, "1/s")
    m["directing.replicate_us"] = (1e6 * point_time / point_replicates if point_replicates else 0.0, "us")
    m["directing.sampling_share"] = (share(total["directing.sample_array_sums"]), "%")
    m["directing.quad_calls"] = (per_pass(calls["directing.quad"]), "count")
    m["directing.quad_s"] = (per_pass(total["directing.quad"]), "s")
    m["directing.quad_ms"] = (mean_ms("directing.quad"), "ms")
    m["directing.quad_share"] = (share(total["directing.quad"]), "%")
    m["directing.levy_stable_calls"] = (per_pass(sum(calls[n] for n in levy_names)), "count")
    m["directing.levy_stable_s"] = (per_pass(levy_time), "s")

    fit_calls = calls["characteristics.fit_spectrum"]
    m["characteristics.fit_calls"] = (per_pass(fit_calls), "count")
    m["characteristics.fit_unique_ratio"] = (len(fit_keys) / fit_calls if fit_calls else 0.0, "ratio")
    m["characteristics.fit_ms"] = (mean_ms("characteristics.fit_spectrum"), "ms")
    m["characteristics.fit_share"] = (share(total["characteristics.fit_spectrum"]), "%")
    m["characteristics.dsharp_calls"] = (per_pass(calls["characteristics.dsharp"]), "count")
    m["characteristics.dsharp_ms"] = (mean_ms("characteristics.dsharp"), "ms")
    m["characteristics.lambda_calls"] = (per_pass(calls["characteristics.spectral_measure_lambda"]), "count")
    m["characteristics.lambda_ms"] = (mean_ms("characteristics.spectral_measure_lambda"), "ms")
    m["characteristics.lambda_share"] = (share(total["characteristics.spectral_measure_lambda"]), "%")

    m["criteria.draws"] = (per_pass(draws), "count")
    m["criteria.distinct_draws"] = (per_pass(distinct), "count")
    for checker in CHECKERS:
        m[f"criteria.{checker}_s"] = (per_pass(total[f"criteria.{checker}"]), "s")

    m["empirics.cf_calls"] = (per_pass(calls["empirics.empirical_cf"]), "count")
    m["empirics.cf_us"] = (1e3 * mean_ms("empirics.empirical_cf"), "us")
    m["trace.overhead"] = (traced_wall / plain_wall - 1.0 if plain_wall > 0 else 0.0, "ratio")
    return m
