"""SciPy loads on first use, the builtins and benchmark configs never need
it, and the tracer still sees the names it patches."""

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
    assert "concurrent.futures" not in sys.modules

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

    # The Gaussian family's functionals and the quadrature identity are
    # closed-form or plain NumPy and load no SciPy module.
    from stablemix.directing import GaussianLaw, draw_replicates, sample_array_sums

    centered = NormingSequence(2.0, centering_kind="n_times_truncated_mean", centering_tau=1.0)
    sample_array_sums(DirectingLaw(GaussianLaw(0.5, 1.0)), centered, 16, 2, 0, replicates=8)
    assert not scipy_modules(), f"Gaussian sampling: {scipy_modules()[:5]}"
    assert identity_residual() <= 1e-8
    assert not scipy_modules(), f"identity_residual: {scipy_modules()[:5]}"

    # So is the smoothed mean of a Cauchy law off centre.
    from stablemix.characteristics import smooth_mean
    from stablemix.directing import CauchyLaw, LocationGaussian

    for p in draw_replicates(DirectingLaw(CauchyLaw(0.0, 1.0), LocationGaussian(0.0, 1.0)), 0, 4):
        smooth_mean(p, NormingSequence(1.0), 1000)
    assert not scipy_modules(), f"Cauchy location prior: {scipy_modules()[:5]}"

    # And so is that of a narrow Gaussian law far from 0.
    assert abs(GaussianLaw(40.0, 0.1).smoothed_mean(30.0) - 0.48) < 1e-4
    assert not scipy_modules(), f"off-centre Gaussian: {scipy_modules()[:5]}"
    """
)

# Every builtin, both benchmark configs and the identity check run with any
# import of SciPy refused.
BLOCKED = textwrap.dedent(
    """
    import contextlib
    import dataclasses
    import importlib.abc
    import io
    import json
    import sys
    import tempfile
    from pathlib import Path


    refused = []


    class RefuseSciPy(importlib.abc.MetaPathFinder):
        def find_spec(self, name, path=None, target=None):
            if name == "scipy" or name.startswith("scipy."):
                refused.append(name)
                raise ImportError(f"{name} is refused")
            return None


    sys.meta_path.insert(0, RefuseSciPy())
    sys.path.insert(0, sys.argv[1])

    import run as perfbench
    from stablemix import cli
    from stablemix.criteria import NGrid
    from stablemix.empirics import builtin_scenarios, get_scenario, run_scenario

    for name in builtin_scenarios():
        spec = dataclasses.replace(
            get_scenario(name),
            cf_n_grid=(64,),
            cf_replicates=50,
            checker_ngrid=NGrid((100, 1000), 100),
        )
        run_scenario(spec, seed=0)

    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()):
        for op, seed in ((perfbench.LOGNORMAL_PARETO, 3), (perfbench.STABLE_LOGNORMAL, 5)):
            config = Path(tmp) / f"{op.label}.json"
            config.write_text(json.dumps(op.config), encoding="utf-8")
            argv = ["simulate", "--config", str(config), "--seed", str(seed), "--out", tmp]
            assert cli.main(argv) == 0, op.label
        assert cli.main(["verify-identity"]) == 0
        assert cli.main(["verify-identity", "--perturb", "1.01"]) == 1
    # An ImportError that a caller swallowed would still show here.
    assert not refused, refused
    """
)


def _run(script, *args):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-c", script, *args], env=env, capture_output=True, text=True, timeout=120)


def test_scipy_loads_on_first_use_only():
    done = _run(FOOTPRINT)
    assert done.returncode == 0, done.stderr


def test_builtins_and_benchmark_configs_run_without_scipy():
    done = _run(BLOCKED, str(ROOT / "perfbench"))
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
