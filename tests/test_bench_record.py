"""The summary and the pairwise comparison of ``tools/bench_record.py``."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("bench_record", ROOT / "tools" / "bench_record.py")
bench_record = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_record)


def _records(walls, rss):
    return [
        {"metrics": {"wall_s": {"value": w, "unit": "s"}, "peak_rss_mb": {"value": r, "unit": "MB"}}}
        for w, r in zip(walls, rss)
    ]


def test_summary_holds_median_inclusive_quartiles_and_k():
    stats = bench_record.summarize(_records([5.0, 1.0, 3.0, 2.0, 4.0], [1.0] * 5))["wall_s"]
    assert (stats["median"], stats["q1"], stats["q3"], stats["k"], stats["unit"]) == (3.0, 2.0, 4.0, 5, "s")


def test_compare_counts_pairs_in_the_declared_direction():
    mine = _records([1.0, 2.0, 3.0], [10.0, 10.0, 9.0])
    theirs = _records([2.0, 2.0, 2.0], [9.0, 10.0, 10.0])
    lines = bench_record.compare(mine, theirs, "base", {"wall_s": True, "peak_rss_mb": False})
    # lower wall_s wins one pair and ties one; higher peak_rss_mb wins one
    assert lines[0].startswith("wall_s (s): base 2 [2, 2] -> 2 [1.5, 2.5]")
    assert lines[0].endswith("better in 1 of 3 pairs")
    assert lines[1].endswith("better in 1 of 3 pairs")


def test_gain_verdict_needs_nine_of_ten_pairs_and_a_gap_beyond_the_base_iqr():
    base = [1.0, 1.1, 1.2, 1.3, 1.4, 1.5, 1.6, 1.7, 1.8, 1.9]  # median 1.45, IQR 0.45
    rss = [40.0] * 10
    cases = [
        ([x - 0.5 for x in base], True),  # better in 10 of 10, gap 0.5 > 0.45
        ([x - 0.4 for x in base], False),  # better in 10 of 10, gap 0.4 within the IQR
        ([x - 0.6 for x in base[:8]] + [x + 0.1 for x in base[8:]], False),  # better in 8 of 10
        ([x - 0.6 for x in base[:9]] + [base[9]], True),  # better in 9 of 10, a tie in the last
    ]
    for walls, holds in cases:
        mine, theirs = _records(walls, rss), _records(base, rss)
        lines = bench_record.gain_verdicts(mine, theirs, "base", {"wall_s": True, "peak_rss_mb": True})
        assert lines[0].startswith("wall_s: gain over base " + ("holds" if holds else "does not hold")), lines[0]
        # equal values are never a gain
        assert lines[1].startswith("peak_rss_mb: gain over base does not hold: better in 0 of 10 pairs (needs 9)")


def test_simd_targets_are_names():
    targets = bench_record.simd_targets()
    assert set(targets) == {"baseline", "dispatch_active"}
    assert all(isinstance(name, str) for names in targets.values() for name in names)
