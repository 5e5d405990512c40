"""End-to-end acceptance gate.

All twelve acceptance checks live in the check registry (qwavesim.checks):
operator symmetry, unitary conservation, the leapfrog cross-check, the box
basis against the thin SVD, exact and sampled estimation, the sliced
source pipeline, pre-simulation support under refinement, window
partitions, preparation-circuit fidelity, wall reflection polarity, and
constraint compatibility. This gate runs every
check of every suite, the same rows that `qwavesim verify SUITE` prints,
and each check prints a single [PASS]/[FAIL] line with the measured numbers
(run with -s to see them on success). Every check runs with np.linalg.eigh
refused: every H is chiral, held in the closed-form box basis or
decomposed by the real SVD of its block C, so no verified path calls eigh.
"""
import time

import numpy as np
import pytest

from qwavesim import checks

# wall-clock bounds in seconds; a check not listed has none
WALL_BOUNDS = {checks.symmetry: 10.0, checks.sliced_pipeline: 60.0}


def _check_rows(rows, label, ok=True, extra=""):
    """Assert value <= tol on every registry row, plus an optional extra condition."""
    misses = [name for name, value, tol in rows if not value <= tol]
    detail = ", ".join(f"{name} {value:.2e}" for name, value, _ in rows)
    if misses:
        detail = f"missed {'; '.join(misses)} -- {detail}"
    ok = ok and not misses
    print(f"[{'PASS' if ok else 'FAIL'}] {label}: {detail}{extra}")
    assert ok, f"{label}: {detail}{extra}"


@pytest.mark.parametrize(
    "check",
    [check for suite in checks.SUITES.values() for check in suite],
    ids=lambda check: check.__name__,
)
def test_registry_check(check, monkeypatch):
    def refused(*args, **kwargs):
        raise AssertionError("np.linalg.eigh called")

    monkeypatch.setattr(np.linalg, "eigh", refused)
    bound = WALL_BOUNDS.get(check, float("inf"))
    t0 = time.perf_counter()
    rows = check()
    elapsed = time.perf_counter() - t0
    _check_rows(rows, check.__name__, elapsed < bound, f", {elapsed:.2f}s")
