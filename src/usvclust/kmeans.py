"""Lloyd's k-means with k-means++ seeding, plus a small PCA helper.

All restarts draw from one seeded generator, so a (points, k, seed) triple
fixes the result exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, ValidationError


@dataclass(frozen=True)
class KMeansResult:
    """Labels, centers and the inertia trace of the winning restart."""

    labels: np.ndarray
    centers: np.ndarray
    inertia: float
    iterations: int
    converged: bool
    inertia_trace: tuple[float, ...]


def _plus_plus_init(points: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """k-means++ seeding: each next center is drawn with probability
    proportional to squared distance from the centers chosen so far."""
    n = points.shape[0]
    centers = np.empty((k, points.shape[1]))
    first = int(rng.integers(n))
    centers[0] = points[first]
    d2 = ((points - centers[0]) ** 2).sum(axis=1)
    for i in range(1, k):
        total = d2.sum()
        if total > 0:
            probs = d2 / total
            nxt = int(rng.choice(n, p=probs))
        else:
            nxt = int(rng.integers(n))
        centers[i] = points[nxt]
        d2 = np.minimum(d2, ((points - centers[i]) ** 2).sum(axis=1))
    return centers


def _direct_sq_dist(points: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """The n x k x d kernel the labels are defined by.

    numpy sums each distance in an order set by the memory layout of
    ``points`` (pairwise along C rows, left to right along F columns), so
    the result is reproduced only by inputs laid out the same way.
    """
    return ((points[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)


def _assign(points: np.ndarray, centers: np.ndarray,
            sq_norms: np.ndarray) -> np.ndarray:
    """Index of the nearest center for every row, ties to the lowest index.

    Distances are ranked by the expansion ||x||^2 - 2 x.c + ||c||^2, one
    GEMM and O(n*k) memory; ``sq_norms`` holds ||x||^2 per row. The
    expansion and the direct sum of squared differences each lie within
    about (d + 2.5) * eps * (||x||^2 + ||c||^2) of the exact distance, so a
    row whose runner-up is more than twice that behind its minimum has the
    same argmin under both. The other rows are ranked by the direct kernel,
    and the labels equal those of ``_direct_sq_dist`` bit for bit.
    """
    n, d = points.shape
    center_sq = np.einsum("ij,ij->i", centers, centers)
    d2 = points @ centers.T
    d2 *= -2.0
    d2 += sq_norms[:, None]
    d2 += center_sq
    labels = np.argmin(d2, axis=1)
    slack = 8.0 * (d + 2) * np.finfo(np.float64).eps * (sq_norms + center_sq.max())
    near = d2 <= (d2.min(axis=1) + slack)[:, None]
    tied = np.flatnonzero(np.count_nonzero(near, axis=1) > 1)
    # blocks of n // k rows keep the fallback within O(n*d) memory; each is
    # copied in the memory order of ``points`` and padded to two rows, the
    # smallest block whose sums follow the same order as the full kernel's
    step = max(2, n // centers.shape[0])
    for lo in range(0, tied.size, step):
        rows = tied[lo:lo + step]
        block = np.empty_like(points, shape=(max(rows.size, 2), d))
        block[:rows.size] = points[rows]
        block[rows.size:] = points[rows[0]]
        labels[rows] = np.argmin(_direct_sq_dist(block, centers)[:rows.size], axis=1)
    return labels


def _repair_empty(points: np.ndarray, centers: np.ndarray,
                  labels: np.ndarray, k: int) -> np.ndarray:
    """Give each empty cluster the farthest point of the currently largest one."""
    labels = labels.copy()
    for e in range(k):
        if np.any(labels == e):
            continue
        counts = np.bincount(labels, minlength=k)
        g = int(np.argmax(counts))
        members = np.flatnonzero(labels == g)
        center_g = points[members].mean(axis=0)
        far = members[int(np.argmax(((points[members] - center_g) ** 2).sum(axis=1)))]
        labels[far] = e
        centers[e] = points[far]
    return labels


def _lloyd_once(points: np.ndarray, sq_norms: np.ndarray, k: int,
                rng: np.random.Generator, max_iter: int):
    centers = _plus_plus_init(points, k, rng)
    labels = np.full(points.shape[0], -1)
    trace: list[float] = []
    converged = False
    iterations = 0
    for it in range(1, max_iter + 1):
        iterations = it
        new_labels = _assign(points, centers, sq_norms)
        new_labels = _repair_empty(points, centers, new_labels, k)
        for c in range(k):
            centers[c] = points[new_labels == c].mean(axis=0)
        inertia = float(((points - centers[new_labels]) ** 2).sum())
        trace.append(inertia)
        if np.array_equal(new_labels, labels):
            converged = True
            break
        labels = new_labels
    return labels, centers, trace[-1], iterations, converged, tuple(trace)


def kmeans(points: np.ndarray, k: int, seed: int,
           max_iter: int = 300, n_init: int = 10) -> KMeansResult:
    """Cluster the rows of ``points`` into k groups.

    Parameters
    ----------
    points : (n, d) array
    k : number of clusters, 1 <= k <= n
    seed : seeds one generator shared by all restarts
    max_iter : Lloyd iteration cap per restart
    n_init : independent seedings; the lowest-inertia run wins

    Returns
    -------
    KMeansResult
        ``inertia_trace`` is the per-iteration inertia of the winning
        restart and never increases.
    """
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2:
        raise ValidationError("points must be 2-D (one row per sample)")
    n = points.shape[0]
    if not 1 <= k <= n:
        raise ParameterError(f"k={k} out of range for {n} points")
    if n_init < 1 or max_iter < 1:
        raise ParameterError("n_init and max_iter must be >= 1")
    sq_norms = np.einsum("ij,ij->i", points, points)
    rng = np.random.default_rng(seed)
    best = None
    for _ in range(n_init):
        run = _lloyd_once(points, sq_norms, k, rng, max_iter)
        if best is None or run[2] < best[2]:
            best = run
    labels, centers, inertia, iterations, converged, trace = best
    return KMeansResult(labels=labels, centers=centers, inertia=inertia,
                        iterations=iterations, converged=converged,
                        inertia_trace=trace)


def pca_reduce(points: np.ndarray, target_dim: int) -> np.ndarray:
    """Project row vectors onto their top principal components."""
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2:
        raise ValidationError("points must be 2-D")
    if not 1 <= target_dim <= min(points.shape):
        raise ParameterError(
            f"target_dim={target_dim} out of range for shape {points.shape}"
        )
    centered = points - points.mean(axis=0)
    _, _, vt = np.linalg.svd(centered, full_matrices=False)
    return centered @ vt[:target_dim].T
