"""SciPy loads on first use, and the tracer still sees the names it patches."""

import importlib.util
import os
import subprocess
import sys
import textwrap
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

FOOTPRINT = textwrap.dedent(
    """
    import dataclasses
    import sys

    import stablemix
    import stablemix.cli


    def scipy_modules():
        return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))


    assert not scipy_modules(), f"import: {scipy_modules()[:5]}"

    from stablemix.criteria import DrawPanel, NGrid, StatTestConfig, check_stable_mixture
    from stablemix.directing import DirectingLaw, ScaleLogNormal, StableLaw
    from stablemix.empirics import get_scenario, identity_residual, run_scenario
    from stablemix.stable import NormingSequence, StableParams

    law = DirectingLaw(StableLaw(StableParams(1.5, 0.0, 1.0, 0.0)), ScaleLogNormal(0.0, 0.5))
    panel = DrawPanel(law, NormingSequence(1.5), NGrid((100, 1000), 100), 5)
    check_stable_mixture(panel, 1.5, StatTestConfig())
    assert not scipy_modules(), f"check_stable_mixture: {scipy_modules()[:5]}"

    spec = dataclasses.replace(
        get_scenario("cauchy-fixed"),
        cf_n_grid=(64,),
        cf_replicates=50,
        checker_ngrid=NGrid((100, 1000), 100),
    )
    run_scenario(spec, seed=0)
    assert not scipy_modules(), f"run_scenario: {scipy_modules()[:5]}"

    # A Gaussian base with truncated-mean centering needs ndtr for its
    # norming constants; with two workers, no module may load off the main
    # thread.
    import threading

    from stablemix.directing import GaussianLaw, sample_array_sums

    off_main = []

    def audit(event, args):
        if event == "import" and threading.current_thread() is not threading.main_thread():
            off_main.append(args[0])

    sys.addaudithook(audit)
    centered = NormingSequence(2.0, centering_kind="n_times_truncated_mean", centering_tau=1.0)
    sample_array_sums(DirectingLaw(GaussianLaw(0.5, 1.0)), centered, 16, 2, 0, replicates=8, threads=2)
    assert "scipy.special" in sys.modules and not off_main, off_main[:5]

    assert identity_residual() <= 1e-8
    assert "scipy.integrate" in sys.modules
    """
)


def test_scipy_loads_on_first_use_only():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", FOOTPRINT], env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr


def _spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", ROOT / "perfbench" / "spans.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_sees_calls_through_the_lazy_names():
    from stablemix import directing
    from stablemix.directing import StableLaw
    from stablemix.stable import StableParams

    spans = _spans()
    own_quad = directing.quad
    law = StableLaw(StableParams(0.9, 0.0, 1.0, 0.0))
    untraced = (law.cdf(0.3), law.truncated_second(2.0))

    tracer = spans.Tracer()
    spans.install(tracer)
    try:
        traced = (law.cdf(0.3), law.truncated_second(2.0))
    finally:
        tracer.restore()

    calls = Counter(span[0] for span in tracer.finished())
    assert calls["directing.levy_stable.cdf"] == 1
    assert calls["directing.levy_stable.pdf"] > 0
    assert calls["directing.quad"] == 1
    assert traced == untraced
    assert vars(directing.levy_stable) == {}
    assert directing.quad is own_quad and own_quad.__module__ == "stablemix.directing"
