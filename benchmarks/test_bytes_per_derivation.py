"""Smoke test of ``python -m benchmarks.bytes_per_derivation``.

Two small plan-scale runs in child processes: both gates pass and the
slope stays below 2 300 bytes per derivation, under what a plan that
kept a dependency set and a step object per step read at these sizes
(2 635-2 734 B; the full-size figures are in docs/PERFORMANCE.md,
"Bytes per derivation").
"""

from benchmarks.bytes_per_derivation import child, slope


def test_slope_between_two_sizes():
    small, big = child(400, 7), child(1_600, 7)
    assert small["failures"] == big["failures"] == []
    assert small["nodes"] == 400 and big["nodes"] == 1_600
    assert 0 < slope(small, big) < 2_300
