"""Smoke tests of scripts/sweep.py and scripts/compare_outputs.py, run as
subprocesses on tiny archives."""

import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SWEEP = ROOT / "scripts" / "sweep.py"
COMPARE = ROOT / "scripts" / "compare_outputs.py"


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


def compare(change: Path) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(COMPARE), "--base", str(ROOT), "--change", str(change),
         "--workload", "lasso_k5", "--segments", "20", "--seeds", "1..1"],
        capture_output=True, text=True, timeout=120)


def test_compare_outputs_finds_a_tree_identical_to_itself():
    proc = compare(ROOT)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == 1 and lines[0].startswith("seed 1: ") and lines[0].endswith(" identical")


def test_compare_outputs_names_the_file_whose_bytes_differ(tmp_path):
    shutil.copytree(ROOT / "src", tmp_path / "src",
                    ignore=shutil.ignore_patterns("__pycache__"))
    metrics = tmp_path / "src" / "usvclust" / "metrics.py"
    text = metrics.read_text()
    writer = "for line in rep.to_lines():"
    assert text.count(writer) == 1
    metrics.write_text(text.replace(writer, 'for line in [*rep.to_lines(), "altered"]:'))
    proc = compare(tmp_path)
    assert proc.returncode == 1, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0].endswith(" 1 differences")
    assert lines[1:] == ["  bytes differ: metrics.txt"]


@pytest.mark.parametrize("flag, value, refusal", [
    ("--tau", "1.5", "tau must lie in (-1, 1], got 1.5"),
    ("--lambda", "-1", "lambda must be positive and finite, got -1.0")],
    ids=["tau", "lambda"])
def test_compare_outputs_forwards_tau_and_lambda(flag, value, refusal):
    # the CLI sees the value, and refuses it; writers takes neither flag
    run = [sys.executable, str(COMPARE), "--base", str(ROOT), "--change", str(ROOT),
           "--seeds", "1..1", flag, value]
    proc = subprocess.run([*run, "--workload", "lasso_k5", "--segments", "20"],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 2 and refusal in proc.stderr, proc.stderr
    proc = subprocess.run([*run, "--workload", "writers"], capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode == 2 and f"{flag} takes a pipeline workload" in proc.stderr


def test_compare_outputs_forwards_the_kmeans_seed():
    # every pipeline command sees the seed, writers' kmeans run included,
    # and the CLI refuses a negative one; a 65-bit seed runs
    run = [sys.executable, str(COMPARE), "--base", str(ROOT), "--change", str(ROOT),
           "--seeds", "1..1", "--kmeans_seed"]
    for workload in (["--workload", "lasso_k5", "--segments", "20"], ["--workload", "writers"]):
        proc = subprocess.run([*run, "-1", *workload], capture_output=True, text=True,
                              timeout=120)
        assert proc.returncode == 2 and "seed must be >= 0, got -1" in proc.stderr, proc.stderr
    proc = subprocess.run([*run, str(2**64 + 5), "--workload", "kmeans_vectors",
                           "--segments", "40"], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.endswith(" identical\n")
