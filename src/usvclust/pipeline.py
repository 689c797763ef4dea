"""End-to-end runs: preprocess, split, cluster per method, assign, measure.

All results for every requested K are computed before anything is written,
so a failing run leaves no partial output directory behind.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import ingest, metrics
from .assign import ClusterModel, assign_outliers, centroids
from .config import PipelineConfig
from .errors import FormatError, ParameterError, ValidationError
from .kmeans import kmeans, pca_reduce
from .outlier_split import Partition, split
from .preprocess import FeatureMatrix, PreprocessConfig, normalize_columns, vectorize
from .sparse_coding import SparseCodingConfig, self_express
from .spectral import (affinity_from_coefficients, affinity_from_cosine,
                       cosine_gram, embed)


def load_features(path, f: int = 64, t: int = 64):
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


def cluster_inliers(inliers: FeatureMatrix, cfg: PipelineConfig, k: int,
                    gram: np.ndarray | None = None,
                    coeffs: np.ndarray | None = None):
    """Label the inlier columns with the configured method.

    Returns (labels, embedding coords or None). ``gram`` is the inlier
    cosine matrix for cs_sc; ``coeffs`` a precomputed coefficient matrix
    for the SSC methods.
    """
    if cfg.method == "kmeans":
        result = kmeans(inliers.data.T, k, seed=cfg.seed)
        coords = None
        if cfg.export_embedding:
            coords = pca_reduce(inliers.data.T, min(k, inliers.n, inliers.d))
        return result.labels, coords
    if cfg.method == "cs_sc":
        if gram is None:
            gram = cosine_gram(inliers.data)
        affinity = affinity_from_cosine(gram)
    else:
        if coeffs is None:
            coeffs = compute_coefficients(inliers, cfg).y
        affinity = affinity_from_coefficients(coeffs)
    emb = embed(affinity, k)
    result = kmeans(emb.coords, k, seed=cfg.seed)
    return result.labels, (emb.coords if cfg.export_embedding else None)


def compute_coefficients(inliers: FeatureMatrix, cfg: PipelineConfig):
    sc_cfg = SparseCodingConfig(
        method="lasso" if cfg.method == "lasso_ssc" else "omp",
        lam=cfg.lam, sparsity_k=cfg.sparsity_k,
        max_iter=cfg.max_iter, tol=cfg.tol, denoise_eps=cfg.denoise_eps,
    )
    return self_express(inliers.data, sc_cfg)


def run_pipeline(cfg: PipelineConfig) -> list[KResult]:
    """Run the full two-step protocol for every configured K."""
    features, shape = load_features(cfg.input, cfg.f, cfg.t)
    if features.n < 2:
        raise ValidationError("need at least 2 samples")
    gram = cosine_gram(features.data)
    part = split(features, cfg.tau, gram=gram)
    if len(part.inlier_idx) == 0:
        raise ValidationError(f"every sample is an outlier at tau={cfg.tau}")
    n_inliers = len(part.inlier_idx)
    if max(cfg.k) > n_inliers:
        raise ParameterError(
            f"k={max(cfg.k)} exceeds the {n_inliers} inliers at tau={cfg.tau}"
        )
    inliers = features.select(part.inlier_idx)
    inl_gram = gram[np.ix_(part.inlier_idx, part.inlier_idx)]
    coeffs = None
    if cfg.method in ("lasso_ssc", "omp_ssc"):
        coeffs = compute_coefficients(inliers, cfg).y
    results = []
    for k in cfg.k:
        labels, emb = cluster_inliers(inliers, cfg, k, gram=inl_gram, coeffs=coeffs)
        model = assign_outliers(features, part, labels, k, cfg.method,
                                feature_shape=shape)
        rep = metrics.report(features, model)
        results.append(KResult(
            k=k, model=model, report=rep,
            embedding_ids=inliers.ids if emb is not None else None,
            embedding=emb,
            coefficients=coeffs if cfg.dump_coefficients else None,
        ))
    return results


def write_outputs(cfg: PipelineConfig, results: list[KResult]) -> list[Path]:
    """Write labels, centroids, per-K reports and the sweep CSV.

    With a single K everything lands in output_dir; a K sweep gets one
    ``k_<K>/`` subdirectory per value. Any failure removes whatever was
    already created.
    """
    out = Path(cfg.output_dir)
    created: list[Path] = []
    out_preexisting = out.exists()
    try:
        out.mkdir(parents=True, exist_ok=True)
        for res in results:
            sub = out if len(results) == 1 else out / f"k_{res.k}"
            sub.mkdir(parents=True, exist_ok=True)
            if sub != out:
                created.append(sub)
            labels_path = sub / "labels.csv"
            ingest.write_labels(res.model, labels_path)
            created.append(labels_path)
            cent_dir = sub / "centroids"
            if res.model.feature_shape is not None:
                ingest.write_centroids(res.model, cent_dir)
            else:
                cent_dir.mkdir(parents=True, exist_ok=True)
                sizes = np.bincount(res.model.inlier_labels, minlength=res.model.k)
                order = np.argsort(-sizes, kind="stable")
                ingest.write_vectors(
                    [f"centroid_{r:02d}" for r in range(res.model.k)],
                    res.model.centroids[order],
                    cent_dir / "centroids.csv",
                )
            created.append(cent_dir)
            report_path = sub / "metrics.txt"
            metrics.write_report(res.report, report_path)
            created.append(report_path)
            if res.embedding is not None:
                emb_path = sub / "embedding.csv"
                ingest.write_vectors(res.embedding_ids, res.embedding, emb_path)
                created.append(emb_path)
            if res.coefficients is not None:
                coef_path = sub / "coefficients.csv"
                ingest.write_coefficient_triplets(res.coefficients, coef_path)
                created.append(coef_path)
        sweep_path = out / "metrics.csv"
        with open(sweep_path, "w", newline="") as fh:
            fh.write(metrics.MetricsReport.csv_header())
            fh.write("\n")
            for res in results:
                fh.write(res.report.csv_row())
                fh.write("\n")
        created.append(sweep_path)
    except BaseException:
        for path in reversed(created):
            if path.is_dir():
                for child in sorted(path.rglob("*"), reverse=True):
                    if child.is_file():
                        child.unlink()
                    else:
                        child.rmdir()
                path.rmdir()
            elif path.exists():
                path.unlink()
        if not out_preexisting and out.exists() and not any(out.iterdir()):
            out.rmdir()
        raise
    return created


def evaluate(labels_path, input_path, f: int = 64, t: int = 64,
             method: str = "stored") -> metrics.MetricsReport:
    """Recompute the metrics report from a stored labels file.

    The features are rebuilt from the original input with the same grid, so
    the recomputed report matches the pipeline's byte for byte. The ids in
    the labels file must equal the input ids in order.
    """
    ids, labels, flags = ingest.read_labels(labels_path)
    features, _ = load_features(input_path, f, t)
    if list(features.ids) != list(ids):
        raise ValidationError(
            f"labels file ids do not match input ids "
            f"({len(ids)} vs {features.n} samples)"
        )
    idx = np.arange(features.n)
    part = Partition(inlier_idx=idx[~flags], outlier_idx=idx[flags], tau=float("nan"))
    if len(part.inlier_idx) == 0:
        raise ValidationError("labels file marks every sample as an outlier")
    inlier_labels = labels[part.inlier_idx]
    if inlier_labels.min() < 0:
        raise ValidationError("inlier labels must be >= 0")
    k = int(labels.max()) + 1
    cents = centroids(features.select(part.inlier_idx), inlier_labels, k)
    model = ClusterModel(
        ids=features.ids, labels=labels, centroids=cents, partition=part,
        k=k, method=method, inlier_labels=inlier_labels, feature_shape=None,
    )
    return metrics.report(features, model)
