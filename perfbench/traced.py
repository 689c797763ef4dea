"""Traced in-process run: the pipeline's public calls, timed one by one.

``traced_pipeline`` calls the usvclust module functions in the order
``usvclust.pipeline.run_pipeline`` uses, with the same config, and times
each call from here. Counters are read from the objects the calls return.
The benchmark proves the call sequence is the same computation by
comparing the ``labels.csv`` it writes byte for byte with the CLI's.
"""

from __future__ import annotations

import time
import warnings
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from usvclust import ingest, metrics
from usvclust.assign import assign_outliers
from usvclust.kmeans import kmeans
from usvclust.outlier_split import split
from usvclust.pipeline import KResult, compute_coefficients, write_outputs
from usvclust.preprocess import PreprocessConfig, normalize_columns, vectorize
from usvclust.spectral import affinity_from_coefficients, cosine_gram, embed


def kkt_max(x: np.ndarray, y: np.ndarray, lam: float) -> float:
    """Worst LASSO optimality violation over all columns of ``y``.

    Column j codes x[:, j] against the other columns of x, so its gradient
    is x^T (x y_j - x_j) with the j-th entry left out.
    """
    g = x.T @ x
    grad = g @ y - g
    on = np.abs(grad + lam * np.sign(y))
    off = np.maximum(np.abs(grad) - lam, 0.0)
    viol = np.where(y != 0.0, on, off)
    np.fill_diagonal(viol, 0.0)
    return float(viol.max())


def traced_pipeline(cfg) -> tuple[dict, float]:
    """Run ``cfg`` (a usvclust PipelineConfig) and write its outputs.

    Returns ({per-layer metric name: value}, traced wall seconds). Span
    times are absent for layers the method does not run.
    """
    if cfg.method not in ("kmeans", "lasso_ssc", "omp_ssc") or (
            cfg.method == "kmeans" and cfg.export_embedding):
        raise ValueError(f"no traced sequence for method {cfg.method!r} with these options")
    seconds = defaultdict(float)  # per layer, summed over the K loop

    @contextmanager
    def span(name: str):
        t0 = time.perf_counter()
        try:
            yield
        finally:
            seconds[name] += time.perf_counter() - t0

    out = {}
    t_start = time.perf_counter()
    path = Path(cfg.input)
    if path.suffix == ".csv":
        with span("ingest.read_s"):
            ids, coords = ingest.read_vectors(path)
        with span("preprocess.vectorize_s"):
            features = normalize_columns(coords.T, ids)
        shape, n_segments = None, 0
    else:
        with span("ingest.read_s"):
            archive = ingest.read_archive(path)
        with span("preprocess.vectorize_s"):
            features = vectorize(archive, PreprocessConfig(f=cfg.f, t=cfg.t))
        shape, n_segments = (cfg.f, cfg.t), len(archive)
    with span("spectral.gram_s"):
        gram = cosine_gram(features.data)
    with span("outlier_split.split_s"):
        part = split(features, cfg.tau, gram=gram)
        inliers = features.select(part.inlier_idx)
        gram[np.ix_(part.inlier_idx, part.inlier_idx)]  # run_pipeline's inlier gram copy
    out["outlier_split.inliers"] = len(part.inlier_idx)
    out["outlier_split.outliers"] = len(part.outlier_idx)

    coeffs = None
    columns = nonconverged = nnz = 0
    kkt = 0.0
    if cfg.method != "kmeans":
        with span("sparse_coding.self_express_s"), warnings.catch_warnings():
            # the sweep-cap warning is counted below, not printed
            warnings.simplefilter("ignore", RuntimeWarning)
            cm = compute_coefficients(inliers, cfg)
        coeffs = cm.y
        columns, nonconverged = cm.n, cm.n_nonconverged
        nnz = np.count_nonzero(coeffs)
        if cfg.method == "lasso_ssc":
            kkt = kkt_max(inliers.data, coeffs, cfg.lam)
    out["sparse_coding.columns"] = columns
    out["sparse_coding.nonconverged_columns"] = nonconverged
    out["sparse_coding.converged_ratio"] = (columns - nonconverged) / columns if columns else 0.0
    out["sparse_coding.nnz_per_column"] = nnz / columns if columns else 0.0
    out["sparse_coding.kkt_max"] = kkt

    results = []
    iterations = 0
    for k in cfg.k:
        emb = None
        if cfg.method == "kmeans":
            with span("kmeans.kmeans_s"):
                km = kmeans(inliers.data.T, k, seed=cfg.seed)
        else:
            with span("spectral.affinity_s"):
                affinity = affinity_from_coefficients(coeffs)
            with span("spectral.embed_s"):
                coords = embed(affinity, k).coords
            with span("kmeans.kmeans_s"):
                km = kmeans(coords, k, seed=cfg.seed)
            emb = coords if cfg.export_embedding else None
        iterations += km.iterations
        with span("assign.assign_s"):
            model = assign_outliers(features, part, km.labels, k, cfg.method,
                                    feature_shape=shape)
        with span("metrics.report_s"):
            rep = metrics.report(features, model)
        results.append(KResult(
            k=k, model=model, report=rep,
            embedding_ids=inliers.ids if emb is not None else None,
            embedding=emb,
            coefficients=coeffs if cfg.dump_coefficients else None,
        ))
    out["kmeans.iterations"] = iterations
    with span("pipeline.write_outputs_s"):
        write_outputs(cfg, results)
    total = time.perf_counter() - t_start

    out["preprocess.segments_per_s"] = (
        n_segments / seconds["preprocess.vectorize_s"] if n_segments else 0.0)
    out["pipeline.output_bytes"] = sum(
        p.stat().st_size for p in Path(cfg.output_dir).rglob("*") if p.is_file())
    out.update(seconds)  # layers that did not run have no span
    return out, total
