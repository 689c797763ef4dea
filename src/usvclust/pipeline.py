"""End-to-end runs: preprocess, split, cluster per method, assign, measure.

All results for every requested K are computed before anything is written,
and the outputs are moved into place only once all of them are written, so
a failing run leaves no partial output directory behind.
"""

from __future__ import annotations

import shutil
import tempfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import ingest, metrics
from .assign import ClusterModel, assign_outliers, centroids
from .config import OUTPUT_NAMES, PipelineConfig, PreprocessConfig, _open_output
from .errors import FormatError, ParameterError, ValidationError
from .kmeans import kmeans, principal_axes
from .outlier_split import Partition, split
from .preprocess import FeatureMatrix, normalize_columns, vectorize
from .sparse_coding import self_express
from .spectral import (affinity_from_coefficients, affinity_from_cosine,
                       cosine_gram, embed)


def load_features(path, f: int = PreprocessConfig.f, t: int = PreprocessConfig.t):
    """Load features from a segment archive or a raw vector table.

    Archives (a directory, or a ``.ssca`` file) go through the full
    preprocessing to an f x t grid; a ``.csv`` vector table is only
    column-normalized. Returns (FeatureMatrix, grid shape or None).
    """
    p = Path(path)
    if p.is_dir() or p.suffix == ".ssca":
        archive = ingest.read_archive(p)
        return vectorize(archive, PreprocessConfig(f=f, t=t)), (f, t)
    if p.suffix == ".csv":
        ids, coords = ingest.read_vectors(p)
        ingest.check_unique_ids(ids, "vector")
        return normalize_columns(coords.T, ids), None
    raise FormatError(
        f"cannot tell the input kind of {p}: expected a directory, .ssca or .csv"
    )


@dataclass(frozen=True)
class KResult:
    """Everything produced for one value of K."""

    k: int
    model: ClusterModel
    report: metrics.MetricsReport
    embedding_ids: tuple[str, ...] | None = None
    embedding: np.ndarray | None = None
    coefficients: np.ndarray | None = None


def compute_coefficients(inliers: FeatureMatrix, cfg: PipelineConfig):
    return self_express(inliers.data, cfg.coding())


def _check_k(cfg: PipelineConfig, part: Partition, why: str = "") -> None:
    n_inliers = len(part.inlier_idx)
    if max(cfg.k) > n_inliers:
        raise ParameterError(
            f"k={max(cfg.k)} exceeds the {n_inliers} inliers at tau={cfg.tau}{why}"
        )


def run_pipeline(cfg: PipelineConfig) -> list[KResult]:
    """Run the full two-step protocol for every configured K."""
    features, shape = load_features(cfg.input, cfg.f, cfg.t)
    if features.n < 2:
        raise ValidationError("need at least 2 samples")
    gram = cosine_gram(features.data)
    part = split(features, cfg.tau, gram=gram)
    # the N x N Gram is not kept past its last reader, the cs_sc affinity
    affinity = (affinity_from_cosine(gram[np.ix_(part.inlier_idx, part.inlier_idx)])
                if cfg.method == "cs_sc" else None)
    del gram
    if len(part.inlier_idx) == 0:
        raise ValidationError(f"every sample is an outlier at tau={cfg.tau}")
    _check_k(cfg, part)
    embedding = coeffs = None
    if cfg.method == "kmeans":
        points = features.select(part.inlier_idx).data.T
        if cfg.export_embedding:
            # one SVD per run. Each K makes its own projection, as a slice
            # of a wider product may differ in the last bits
            centered, axes = principal_axes(points)
    else:
        if cfg.method != "cs_sc":
            # the inlier copy lives only while self-expression reads it, the
            # coefficients past the affinity only when they are dumped
            coeffs = compute_coefficients(features.select(part.inlier_idx), cfg).y
            affinity = affinity_from_coefficients(coeffs)
            coeffs = coeffs if cfg.dump_coefficients else None
        # an inlier with zero affinity degree has no edge in the graph: as
        # in the paper it becomes an outlier, assigned at the end. Its
        # affinity row and column are zero, so the rest is unchanged
        isolated = ~affinity.any(axis=1)
        if isolated.any():
            keep = np.flatnonzero(~isolated)
            is_outlier = part.is_outlier.copy()
            is_outlier[part.inlier_idx[isolated]] = True
            part = Partition(is_outlier)
            _check_k(cfg, part, f" after {int(isolated.sum())} zero-degree inliers "
                                "became outliers")
            affinity = affinity[np.ix_(keep, keep)]
            if coeffs is not None:
                coeffs = coeffs[np.ix_(keep, keep)]
        # one eigensolve per run; each K clusters the leading K columns
        embedding = embed(affinity, max(cfg.k)).coords
        del affinity
    ids = tuple(features.ids[i] for i in part.inlier_idx) if cfg.export_embedding else None
    results = []
    for k in cfg.k:
        if cfg.method == "kmeans":
            labels = kmeans(points, k, seed=cfg.seed).labels
            coords = centered @ axes[:k].T if cfg.export_embedding else None
        else:
            coords = embedding[:, :k]
            labels = kmeans(coords, k, seed=cfg.seed).labels
        model = assign_outliers(features, part, labels, k, cfg.method, feature_shape=shape)
        results.append(KResult(
            k=k, model=model, report=metrics.report(features, model),
            embedding_ids=ids, embedding=coords if cfg.export_embedding else None,
            coefficients=coeffs,
        ))
    return results


def write_outputs(cfg: PipelineConfig, results: list[KResult]) -> None:
    """Write labels, centroids, per-K reports and the sweep CSV.

    With a single K everything lands in output_dir; a K sweep gets one
    ``k_<K>/`` subdirectory per value. Everything is written to a staging
    directory next to output_dir first and moved in only once complete, so
    a failure leaves output_dir as it was. Before the move, every entry a
    run can write (``OUTPUT_NAMES``) is removed from output_dir, so no
    file of a previous run is left; entries of other names stay.
    """
    out = Path(cfg.output_dir).resolve()
    out.parent.mkdir(parents=True, exist_ok=True)
    # stage is made inside a private temporary directory, not as one, so
    # that it gets the usual permissions instead of mkdtemp's 0700
    with tempfile.TemporaryDirectory(prefix=f".{out.name}.", dir=out.parent,
                                     ignore_cleanup_errors=True) as holder:
        stage = Path(holder) / out.name
        stage.mkdir()
        coefficients = triplets = None
        for res in results:
            sub = stage if len(results) == 1 else stage / f"k_{res.k}"
            ingest.write_labels(res.model, sub / "labels.csv")
            ingest.write_centroids(res.model, sub / "centroids")
            metrics.write_report(res.report, sub / "metrics.txt")
            if res.embedding is not None:
                ingest.write_vectors(res.embedding_ids, res.embedding,
                                     sub / "embedding.csv")
            if res.coefficients is not None:
                # a sweep shares one matrix between its K: format it once
                if res.coefficients is not coefficients:
                    coefficients = res.coefficients
                    triplets = ingest.coefficient_triplets(coefficients)
                with _open_output(sub / "coefficients.csv", "wb") as fh:
                    fh.write(triplets)
        with _open_output(stage / "metrics.csv") as fh:
            fh.write(metrics.MetricsReport.csv_header())
            fh.write("\n")
            for res in results:
                fh.write(res.report.csv_row())
                fh.write("\n")
        # shutil.move renames, and copies where output_dir is a mount point
        if not out.exists():
            shutil.move(stage, out)
        else:
            for old in out.iterdir():
                if OUTPUT_NAMES.fullmatch(old.name):
                    if old.is_dir() and not old.is_symlink():
                        shutil.rmtree(old)
                    else:
                        old.unlink()
            for entry in stage.iterdir():
                shutil.move(entry, out / entry.name)


def evaluate(labels_path, input_path, f: int = PreprocessConfig.f,
             t: int = PreprocessConfig.t, method: str = "stored") -> metrics.MetricsReport:
    """Recompute the metrics report from a stored labels file.

    The features are rebuilt from the original input with the same grid, so
    the recomputed report matches the pipeline's byte for byte. The ids in
    the labels file must equal the input ids in order; the inlier labels give K.
    """
    ids, labels, flags = ingest.read_labels(labels_path)
    features, _ = load_features(input_path, f, t)
    if list(features.ids) != list(ids):
        raise ValidationError(
            f"labels file ids do not match input ids "
            f"({len(ids)} vs {features.n} samples)"
        )
    part = Partition(flags)
    if len(part.inlier_idx) == 0:
        raise ValidationError("labels file marks every sample as an outlier")
    inlier_labels = labels[part.inlier_idx]
    if inlier_labels.min() < 0:
        raise ValidationError(f"{labels_path}: inlier labels must be >= 0")
    k = int(inlier_labels.max()) + 1
    if k < 2:
        raise ValidationError(f"{labels_path}: the inliers form 1 cluster; metrics need 2 or more")
    missing = np.setdiff1d(np.arange(k), inlier_labels)
    if missing.size:
        raise ValidationError(f"{labels_path}: no inlier has label {missing[0]}")
    bad = labels[(labels < 0) | (labels >= k)]
    if bad.size:
        raise ValidationError(f"{labels_path}: outlier label {bad[0]} is not an inlier cluster")
    cents = centroids(features, np.where(part.is_outlier, -1, labels), k)
    model = ClusterModel(
        ids=features.ids, labels=labels, centroids=cents, partition=part,
        method=method, feature_shape=None,
    )
    return metrics.report(features, model)
