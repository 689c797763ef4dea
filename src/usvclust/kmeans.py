"""Lloyd's k-means with k-means++ seeding, plus principal axes for PCA.

All restarts draw from one seeded generator, so a (points, k, seed) triple
fixes the result exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, ValidationError

# bytes of one block of rows in a seeding distance computation; small
# enough that the block's difference and square stay in cache
_SEED_BLOCK_BYTES = 1 << 18


@dataclass(frozen=True)
class KMeansResult:
    """Labels, centers and the inertia trace of the winning restart."""

    labels: np.ndarray
    centers: np.ndarray
    inertia: float
    iterations: int
    converged: bool
    inertia_trace: tuple[float, ...]


class _SeedDistances:
    """The k-means++ distance vectors of one ``kmeans`` call, by drawn row.

    ``self(r)`` is ``((points - points[r]) ** 2).sum(axis=1)`` bit for bit.
    Centers are data rows, so each drawn row's vector is computed once and
    the restarts share it: ``table`` holds one vector per drawn row, at most
    ``min(n, k * n_init)`` of them, and ``slot`` maps a row to its vector.

    The rows are computed in blocks of C rows, like those of that temporary,
    in one reused buffer, so numpy sums each row in the same order. The
    entry of a row that was drawn before is copied from that row's own vector:
    ``(a - b) ** 2`` and ``(b - a) ** 2`` are the same bits and each row is
    summed in the same order, so every unordered pair of rows is computed at
    most once.
    """

    def __init__(self, points: np.ndarray, capacity: int):
        n, self.d = points.shape
        self.points = points
        self.table = np.empty((capacity, n))
        self.slot = np.full(n, -1)
        self.count = 0
        self.block_rows = max(1, _SEED_BLOCK_BYTES // (8 * max(self.d, 1)))
        self.buf = np.empty(self.block_rows * self.d)

    def __call__(self, row: int) -> np.ndarray:
        if self.slot[row] < 0:
            out = self.table[self.count]
            drawn = self.slot >= 0
            out[drawn] = self.table[self.slot[drawn], row]
            self._fill(row, np.flatnonzero(~drawn), out)
            self.slot[row] = self.count
            self.count += 1
        return self.table[self.slot[row]]

    def _fill(self, row: int, todo: np.ndarray, out: np.ndarray) -> None:
        """Write the squared distances of the rows ``todo`` to row ``row`` into ``out``."""
        center = self.points[row]
        for lo in range(0, todo.size, self.block_rows):
            idx = todo[lo:lo + self.block_rows]
            block = self.buf[:idx.size * self.d].reshape(idx.size, self.d)
            # the indices are valid; "clip" skips the copy "raise" makes
            np.take(self.points, idx, axis=0, out=block, mode="clip")
            block -= center
            np.square(block, out=block)
            out[idx] = block.sum(axis=1)


def _plus_plus_init(points: np.ndarray, k: int, rng: np.random.Generator,
                    seeds: _SeedDistances) -> np.ndarray:
    """k-means++ seeding: each next center is drawn with probability
    proportional to squared distance from the centers chosen so far."""
    n = points.shape[0]
    rows = np.empty(k, dtype=np.intp)
    rows[0] = rng.integers(n)
    d2 = seeds(rows[0])
    for i in range(1, k):
        total = d2.sum()
        if total > 0:
            rows[i] = rng.choice(n, p=d2 / total)
        else:
            rows[i] = rng.integers(n)
        d2 = np.minimum(d2, seeds(rows[i]))
    return points[rows]


def _direct_sq_dist(points: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """The n x k x d kernel the labels are defined by."""
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
    # blocks of n // k rows keep the fallback within O(n*d) memory
    step = max(1, n // centers.shape[0])
    for lo in range(0, tied.size, step):
        rows = tied[lo:lo + step]
        labels[rows] = np.argmin(_direct_sq_dist(points[rows], centers), axis=1)
    return labels


def _repair_empty(points: np.ndarray, labels: np.ndarray, k: int) -> np.ndarray:
    """Give each empty cluster the farthest point of the currently largest one.

    The largest cluster of a labeling with an empty one has two members or
    more, so no repair empties a cluster.
    """
    counts = np.bincount(labels, minlength=k)
    if counts.all():
        return labels
    labels = labels.copy()
    for e in np.flatnonzero(counts == 0):
        g = int(np.argmax(counts))
        members = np.flatnonzero(labels == g)
        center_g = points[members].mean(axis=0)
        far = members[int(np.argmax(((points[members] - center_g) ** 2).sum(axis=1)))]
        labels[far] = e
        counts[g] -= 1
    return labels


def _update_centers(points: np.ndarray, labels: np.ndarray, centers: np.ndarray,
                    work: np.ndarray) -> None:
    """``centers[c] = points[labels == c].mean(axis=0)`` for every c, bit for bit.

    That mean gathers the members in row order and sums them pairwise when
    d == 1 and left to right otherwise. The members of each cluster are
    gathered the same way, into consecutive rows of ``work``, and summed by
    the same reduction.
    """
    k = centers.shape[0]
    counts = np.bincount(labels, minlength=k)
    np.take(points, np.argsort(labels, kind="stable"), axis=0, out=work, mode="clip")
    lo = 0
    for c, hi in enumerate(np.cumsum(counts).tolist()):
        np.add.reduce(work[lo:hi], axis=0, out=centers[c])
        lo = hi
    centers /= counts[:, None]


def _inertia(points: np.ndarray, centers: np.ndarray, labels: np.ndarray,
             work: np.ndarray) -> float:
    """``float(((points - centers[labels]) ** 2).sum())`` bit for bit."""
    np.take(centers, labels, axis=0, out=work, mode="clip")
    np.subtract(points, work, out=work)
    np.square(work, out=work)
    return float(work.sum())


def _lloyd_once(points: np.ndarray, sq_norms: np.ndarray, k: int,
                rng: np.random.Generator, max_iter: int, seeds: _SeedDistances,
                work: np.ndarray):
    centers = _plus_plus_init(points, k, rng, seeds)
    labels = np.full(points.shape[0], -1)
    trace: list[float] = []
    converged = False
    iterations = 0
    for it in range(1, max_iter + 1):
        iterations = it
        new_labels = _repair_empty(points, _assign(points, centers, sq_norms), k)
        if np.array_equal(new_labels, labels):
            # nothing has written into ``centers`` since they were the means
            # of these labels, so the centers and inertia stand as they are
            trace.append(trace[-1])
            converged = True
            break
        labels = new_labels
        _update_centers(points, labels, centers, work)
        trace.append(_inertia(points, centers, labels, work))
    return labels, centers, trace[-1], iterations, converged, tuple(trace)


def kmeans(points: np.ndarray, k: int, seed: int,
           max_iter: int = 300, n_init: int = 10) -> KMeansResult:
    """Cluster the rows of ``points`` into k groups.

    k-means works on one C-ordered float64 copy of ``points`` (none is made
    when they already are one), so its results depend only on the values.

    Parameters
    ----------
    points : (n, d) array
    k : number of clusters, 1 <= k <= n
    seed : seeds one generator shared by all restarts, >= 0
    max_iter : Lloyd iteration cap per restart
    n_init : independent seedings; the lowest-inertia run wins

    Returns
    -------
    KMeansResult
        ``inertia_trace`` is the per-iteration inertia of the winning
        restart and never increases.
    """
    points = np.ascontiguousarray(points, dtype=np.float64)
    if points.ndim != 2:
        raise ValidationError("points must be 2-D (one row per sample)")
    n = points.shape[0]
    if not 1 <= k <= n:
        raise ParameterError(f"k={k} out of range for {n} points")
    if n_init < 1 or max_iter < 1:
        raise ParameterError("n_init and max_iter must be >= 1")
    if seed < 0:
        raise ParameterError(f"seed must be >= 0, got {seed}")
    sq_norms = np.einsum("ij,ij->i", points, points)
    rng = np.random.default_rng(seed)
    seeds = _SeedDistances(points, min(n, k * n_init))
    work = np.empty_like(points)
    best = None
    for _ in range(n_init):
        run = _lloyd_once(points, sq_norms, k, rng, max_iter, seeds, work)
        if best is None or run[2] < best[2]:
            best = run
    labels, centers, inertia, iterations, converged, trace = best
    return KMeansResult(labels=labels, centers=centers, inertia=inertia,
                        iterations=iterations, converged=converged,
                        inertia_trace=trace)


def principal_axes(points: np.ndarray):
    """The centered rows of ``points`` and their principal axes as rows,
    strongest first: ``centered @ axes[:k].T`` are the top k components."""
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2:
        raise ValidationError("points must be 2-D")
    centered = points - points.mean(axis=0)
    _, _, vt = np.linalg.svd(centered, full_matrices=False)
    return centered, vt
