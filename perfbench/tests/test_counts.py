"""Exact-count test: two traced runs with one seed give identical counts.

A later change may rest a count claim only on counts shown here to repeat.
Run from the root of a checkout (about five minutes on two cores):

    python3 -m pytest perfbench/tests -q
"""

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
COUNTS = (
    "spectral.sl_spectrum.calls",
    "spectral.sl_spectrum.rows",
    "spectral.sl_spectrum.unique_ratio",
    "surface.coefficients.calls",
    "spectral.takahashi_residual.cells",
)


def _traced(workload: str, seed: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=180, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"], proc.stdout
    return {k: result["metrics"][k]["value"] for k in COUNTS}


@pytest.mark.parametrize("workload", ["cli", "census", "deep"])
def test_counts_repeat_exactly(workload):
    first = _traced(workload, 11)
    assert first["spectral.sl_spectrum.calls"] > 0
    assert _traced(workload, 11) == first
