"""Each output check passes on a real pipeline output and fails on a
deliberately corrupted copy of it.

    PYTHONPATH=src python3 -m pytest -q perfbench/test_checks.py
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import checks  # noqa: E402
import traced  # noqa: E402
from usvclust import ingest  # noqa: E402
from usvclust.cli import main as cli_main  # noqa: E402
from usvclust.config import PipelineConfig  # noqa: E402
from usvclust.preprocess import PreprocessConfig, vectorize  # noqa: E402
from usvclust.sparse_coding import (SparseCodingConfig, kkt_violation,  # noqa: E402
                                    self_express)
from usvclust.synth import generate_segments  # noqa: E402

GRID = 16
TAU = 0.8
K = 3
BUDGET = 4


@pytest.fixture(scope="module")
def run(tmp_path_factory):
    """A small omp_ssc run with every optional output, read back in."""
    tmp = tmp_path_factory.mktemp("bench")
    archive, truth = generate_segments(45, 3, seed=4, outlier_frac=0.1)
    arch = tmp / "segs.ssca"
    ingest.write_archive(archive, arch)
    out = tmp / "out"
    assert cli_main(["pipeline", "--input", str(arch), "--output_dir", str(out),
                     "--method", "omp_ssc", "--k", str(K), "--tau", str(TAU),
                     "--f", str(GRID), "--t", str(GRID), "--seed", "0",
                     "--sparsity_k", str(BUDGET), "--export_embedding",
                     "--dump_coefficients"]) == 0
    ids, labels, flags = checks.read_labels(out / "labels.csv")
    emb_ids, emb = checks.read_table(out / "embedding.csv")
    return {
        "arch": arch, "out": out, "archive": archive, "truth": truth,
        "ids": ids, "labels": labels, "flags": flags, "emb": emb,
        "report": checks.read_metrics(out / "metrics.txt"),
        "triplets": checks.read_triplets(out / "coefficients.csv"),
        "program": vectorize(archive, PreprocessConfig(f=GRID, t=GRID)).data,
        "reference": checks.reference_features(
            [s.energy for s in archive.segments], GRID, GRID),
    }


# every check the benchmark runs, applied to the (possibly corrupted) outputs r
CHECKS = {
    "check_features": lambda r: checks.check_features(r["program"], r["reference"], r["ids"]),
    "check_ids": lambda r: checks.check_ids(r["ids"], list(r["archive"].ids)),
    "check_clusters": lambda r: checks.check_clusters(r["labels"], r["flags"], K),
    "check_outlier_split": lambda r: checks.check_outlier_split(
        r["reference"], r["flags"], TAU, r["ids"]),
    "check_outlier_assignment": lambda r: checks.check_outlier_assignment(
        r["reference"], r["labels"], r["flags"], K, r["ids"]),
    "check_metrics": lambda r: checks.check_metrics(
        r["reference"], r["labels"], r["flags"], K, r["report"]),
    "check_lloyd_fixed_point": lambda r: checks.check_lloyd_fixed_point(
        r["emb"], r["labels"][~r["flags"]], K),
    "check_coefficients": lambda r: checks.check_coefficients(
        *r["triplets"], int((~r["flags"]).sum()), BUDGET),
}


@pytest.mark.parametrize("name", CHECKS)
def test_clean_output_passes(run, name):
    assert run["flags"].any() and not run["flags"].all()
    CHECKS[name](run)


def test_purity_counts_majority_class_of_truth_labelled_inliers():
    labels = np.array([0, 0, 0, 1, 1, 1, 0])
    flags = np.array([False, False, False, False, False, False, True])
    truth = np.array([2, 2, 1, 0, 0, -1, 1])
    # cluster 0 keeps 2 of 3, cluster 1 keeps 2 of 2 truth-labelled inliers
    assert checks.purity(labels, flags, truth, 2) == pytest.approx(4 / 5)


def _first(mask):
    return int(np.flatnonzero(mask)[0])


def swap_inlier_labels(r):
    inl = np.flatnonzero(~r["flags"])
    a = inl[0]
    b = inl[_first(r["labels"][inl] != r["labels"][a])]
    r["labels"][[a, b]] = r["labels"][[b, a]]


def empty_cluster(r):
    r["labels"][r["labels"] == 0] = 1


def swap_ids(r):
    r["ids"][0], r["ids"][1] = r["ids"][1], r["ids"][0]


def drop_row(r):
    r["ids"].pop()


def flip_outlier_flag(r):
    r["flags"][_first(~r["flags"])] = True


def relabel_outlier(r):
    i = _first(r["flags"])
    r["labels"][i] = (r["labels"][i] + 1) % K


def perturb_metric(r):
    r["report"]["d_cos_std_full"] = repr(float(r["report"]["d_cos_std_full"]) + 1e-6)


def wrong_sizes(r):
    sizes = r["report"]["cluster_sizes"].split(",")
    sizes[0] = str(int(sizes[0]) + 1)
    r["report"]["cluster_sizes"] = ",".join(sizes)


def move_embedding_point(r):
    # push one inlier's coordinates onto another cluster's member
    inl_labels = r["labels"][~r["flags"]]
    other = _first(inl_labels != inl_labels[0])
    r["emb"][0] = r["emb"][other]


def diagonal_coefficient(r):
    rows, cols, vals = r["triplets"]
    r["triplets"] = (np.append(rows, 2), np.append(cols, 2), np.append(vals, 0.5))


def over_budget(r):
    rows, cols, vals = r["triplets"]
    n = int((~r["flags"]).sum())
    extra = np.array([i for i in range(n) if i != 0 and not np.any((rows == i) & (cols == 0))])
    extra = extra[:BUDGET + 1]
    r["triplets"] = (np.concatenate([rows, extra]), np.concatenate([cols, np.zeros_like(extra)]),
                     np.concatenate([vals, np.full(len(extra), 0.1)]))


def perturb_feature(r):
    r["program"][5, 3] += 1e-9


CORRUPTIONS = {
    "swapped inlier labels": (swap_inlier_labels, "check_metrics"),
    "swapped labels break the fixed point": (swap_inlier_labels, "check_lloyd_fixed_point"),
    "empty cluster": (empty_cluster, "check_clusters"),
    "swapped ids": (swap_ids, "check_ids"),
    "dropped row": (drop_row, "check_ids"),
    "flipped outlier flag": (flip_outlier_flag, "check_outlier_split"),
    "relabelled outlier": (relabel_outlier, "check_outlier_assignment"),
    "perturbed distance": (perturb_metric, "check_metrics"),
    "wrong cluster sizes": (wrong_sizes, "check_metrics"),
    "moved embedding point": (move_embedding_point, "check_lloyd_fixed_point"),
    "diagonal coefficient": (diagonal_coefficient, "check_coefficients"),
    "over the OMP budget": (over_budget, "check_coefficients"),
    "perturbed feature": (perturb_feature, "check_features"),
}


@pytest.mark.parametrize("name", CORRUPTIONS)
def test_corruption_is_caught(run, name):
    corrupt, check_name = CORRUPTIONS[name]
    r = {key: (list(v) if key == "ids" else dict(v) if key == "report"
               else v.copy() if isinstance(v, np.ndarray) else v)
         for key, v in run.items()}
    corrupt(r)
    with pytest.raises(checks.CheckFailed):
        CHECKS[check_name](r)


def test_traced_sequence_writes_the_cli_labels(run, tmp_path):
    cfg = PipelineConfig(input=str(run["arch"]), output_dir=str(tmp_path / "traced"),
                         method="omp_ssc", k=(K,), tau=TAU, f=GRID, t=GRID, seed=0,
                         sparsity_k=BUDGET, export_embedding=True, dump_coefficients=True)
    values, total = traced.traced_pipeline(cfg)
    cli_labels, traced_labels = run["out"] / "labels.csv", tmp_path / "traced" / "labels.csv"
    checks.check_same_bytes(cli_labels, traced_labels)
    text = traced_labels.read_text().splitlines()
    text[1], text[2] = text[2], text[1]
    traced_labels.write_text("\n".join(text) + "\n")
    with pytest.raises(checks.CheckFailed):
        checks.check_same_bytes(cli_labels, traced_labels)
    assert values["outlier_split.inliers"] + values["outlier_split.outliers"] == 45
    assert values["sparse_coding.nnz_per_column"] <= BUDGET
    assert total >= values["sparse_coding.self_express_s"] > 0.0


def test_kkt_max_matches_the_per_column_violation():
    rng = np.random.default_rng(0)
    x = rng.standard_normal((12, 8))
    x /= np.linalg.norm(x, axis=0)
    lam = 0.1
    cfg = SparseCodingConfig(method="lasso", lam=lam, max_iter=100000, tol=1e-13,
                             denoise_eps=0.0)
    y = self_express(x, cfg).y
    per_column = []
    for j in range(x.shape[1]):
        keep = [i for i in range(x.shape[1]) if i != j]
        per_column.append(kkt_violation(x[:, keep], x[:, j], y[keep, j], lam))
    assert traced.kkt_max(x, y, lam) == pytest.approx(max(per_column), abs=1e-15)
    assert traced.kkt_max(x, y, lam) < 1e-9
    y[1, 0] += 0.05
    assert traced.kkt_max(x, y, lam) > 1e-3


def test_run_reports_the_metrics_benchmark_json_lists():
    import json

    import run

    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == run.LAYER_UNITS
    assert sorted(w["name"] for w in bench["workloads"]) == sorted(run.WORKLOADS)
