"""Smoke test of scripts/sweep.py, run as a subprocess on a tiny archive."""

import subprocess
import sys
from pathlib import Path

import pytest

SWEEP = Path(__file__).resolve().parent.parent / "scripts" / "sweep.py"


def sweep_rows(*argv) -> list[list[str]]:
    proc = subprocess.run(
        [sys.executable, str(SWEEP), "--n", "40", "--f", "16", "--t", "16", *argv],
        capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    # a settings line, the column header and a rule come before the rows
    return [line.split() for line in proc.stdout.splitlines()[3:]]


@pytest.mark.parametrize("argv, first", [
    (("--vary", "method", "kmeans", "cs_sc"), ["kmeans", "cs_sc"]),
    (("--vary", "tau", "0.5", "0.99", "--k", "8"), ["0.5", "0.99"])],
    ids=["method", "tau"])
def test_one_row_per_value(argv, first):
    rows = sweep_rows(*argv)
    assert [row[0] for row in rows] == first
    # value, inliers, outliers, precision, recall and four metrics
    assert len(rows[0]) == 9
    if argv[1] == "tau":
        # at tau 0.99 too few inliers are left for K=8: the message is the row
        assert " ".join(rows[1][1:]) == "k=8 exceeds the 6 inliers at tau=0.99"
    else:
        assert len(rows[1]) == 9
