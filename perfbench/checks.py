"""Output checks computed independently of the usvclust package.

Nothing here imports usvclust: the reference features, the outlier split,
the outlier assignment, the centroid statistics and the Lloyd fixed point
are all recomputed with plain numpy from the definitions in the project
README, so agreement with the program's output files is evidence rather
than a comparison of the program with itself.

Every check raises ``CheckFailed`` with a message naming the first
offending sample; it returns nothing on success.
"""

from __future__ import annotations

import csv
from pathlib import Path

import numpy as np

KEYS_A = -0.5
FEATURE_TOL = 1e-12
METRIC_TOL = 1e-9
# cosines or squared distances closer than this count as ties
TIE_TOL = 1e-12


class CheckFailed(Exception):
    """An output file disagrees with the independent computation."""


# ---------------------------------------------------------------------------
# reading the program's output files
# ---------------------------------------------------------------------------


def read_labels(path):
    """``labels.csv`` -> (ids, labels, is_outlier)."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows or rows[0] != ["id", "label", "is_outlier"]:
        raise CheckFailed(f"{path}: bad header")
    ids = [r[0] for r in rows[1:]]
    labels = np.array([int(r[1]) for r in rows[1:]], dtype=int)
    flags = np.array([r[2] == "1" for r in rows[1:]], dtype=bool)
    return ids, labels, flags


def read_metrics(path) -> dict:
    """``metrics.txt`` -> {key: str value}."""
    out = {}
    for line in Path(path).read_text().splitlines():
        key, _, value = line.partition("=")
        out[key] = value
    return out


def read_table(path):
    """``id,dim0,...`` table -> (ids, rows as an n x d array)."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    ids = [r[0] for r in rows[1:]]
    return ids, np.array([[float(v) for v in r[1:]] for r in rows[1:]])


def write_table(ids, rows: np.ndarray, path) -> None:
    """Write an ``id,dim0,...`` table with round-trip exact floats."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["id"] + [f"dim{j}" for j in range(rows.shape[1])])
        for sid, row in zip(ids, rows):
            writer.writerow([sid] + ["%.17g" % v for v in row])


def read_triplets(path):
    """``row,col,value`` coefficient dump -> (rows, cols, values)."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows or rows[0] != ["row", "col", "value"]:
        raise CheckFailed(f"{path}: bad header")
    body = rows[1:]
    return (np.array([int(r[0]) for r in body], dtype=int),
            np.array([int(r[1]) for r in body], dtype=int),
            np.array([float(r[2]) for r in body]))


# ---------------------------------------------------------------------------
# reference preprocessing: clip, Keys bicubic, column-major flatten, L2
# ---------------------------------------------------------------------------


def keys_kernel(x: np.ndarray) -> np.ndarray:
    """Keys cubic convolution kernel, written in its textbook polynomial form."""
    a = KEYS_A
    s = np.abs(x)
    inner = (a + 2.0) * s**3 - (a + 3.0) * s**2 + 1.0
    outer = a * s**3 - 5.0 * a * s**2 + 8.0 * a * s - 4.0 * a
    return np.where(s <= 1.0, inner, np.where(s < 2.0, outer, 0.0))


def tap_matrix(n_in: int, n_out: int) -> np.ndarray:
    """n_out x n_in resampling matrix: pixel-centre alignment, four taps per
    output sample, taps outside the grid folded onto the edge sample."""
    centre = (np.arange(n_out) + 0.5) * (n_in / n_out) - 0.5
    src = np.floor(centre).astype(int)[:, None] + np.arange(-1, 3)[None, :]
    weights = keys_kernel(centre[:, None] - src)
    mat = np.zeros((n_out, n_in))
    np.add.at(mat, (np.repeat(np.arange(n_out), 4), np.clip(src, 0, n_in - 1).ravel()),
              weights.ravel())
    return mat


def reference_features(energies, f: int, t: int) -> np.ndarray:
    """(f*t) x n matrix of unit feature columns, one per energy matrix."""
    cols = []
    for e in energies:
        e = np.asarray(e, dtype=np.float64)
        clipped = np.where(e < e.mean(), 0.0, e)
        resized = tap_matrix(e.shape[0], f) @ clipped @ tap_matrix(e.shape[1], t).T
        vec = np.maximum(resized, 0.0).T.reshape(-1)  # column-major flatten
        cols.append(vec / np.sqrt(vec @ vec))
    return np.column_stack(cols)


def check_features(program: np.ndarray, reference: np.ndarray, ids) -> None:
    """The program's feature columns equal the reference columns."""
    if program.shape != reference.shape:
        raise CheckFailed(f"feature shape {program.shape} != {reference.shape}")
    err = np.abs(program - reference).max(axis=0)
    if np.any(err > FEATURE_TOL):
        j = int(np.argmax(err))
        raise CheckFailed(f"features of {ids[j]!r} differ from the reference by {err[j]:.3g}")


# ---------------------------------------------------------------------------
# checks on one labelling
# ---------------------------------------------------------------------------


def check_ids(out_ids, input_ids) -> None:
    """labels.csv lists every input id once, in input order."""
    if list(out_ids) != list(input_ids):
        pos = next((i for i, (a, b) in enumerate(zip(out_ids, input_ids)) if a != b),
                   min(len(out_ids), len(input_ids)))
        raise CheckFailed(f"labels.csv ids diverge from the input at row {pos} "
                          f"({len(out_ids)} rows for {len(input_ids)} inputs)")


def check_clusters(labels, is_outlier, k: int) -> None:
    """Labels lie in 0..k-1 and every cluster has at least one inlier."""
    if labels.min() < 0 or labels.max() >= k:
        raise CheckFailed(f"labels span {labels.min()}..{labels.max()} for k={k}")
    sizes = np.bincount(labels[~is_outlier], minlength=k)
    if np.any(sizes == 0):
        raise CheckFailed(f"cluster {int(np.argmin(sizes))} has no inlier")


def _unit_columns(x: np.ndarray) -> np.ndarray:
    return x / np.linalg.norm(x, axis=0)


def check_outlier_split(features: np.ndarray, is_outlier, tau: float, ids) -> None:
    """A sample is an outlier iff its best cosine to any other sample is below tau."""
    unit = _unit_columns(features)
    cos = unit.T @ unit
    np.fill_diagonal(cos, -np.inf)
    best = cos.max(axis=0)
    expect = best < tau
    wrong = (expect != is_outlier) & (np.abs(best - tau) > TIE_TOL)
    if np.any(wrong):
        i = int(np.argmax(wrong))
        raise CheckFailed(f"{ids[i]!r}: nearest cosine {best[i]:.17g} vs tau {tau} "
                          f"but is_outlier={bool(is_outlier[i])}")


def cluster_means(features: np.ndarray, labels, members, k: int) -> np.ndarray:
    """k x d matrix of cluster means over the samples selected by ``members``."""
    sel = np.flatnonzero(members)
    onehot = np.zeros((k, len(sel)))
    onehot[labels[sel], np.arange(len(sel))] = 1.0
    return (onehot @ features[:, sel].T) / onehot.sum(axis=1, keepdims=True)


def check_outlier_assignment(features: np.ndarray, labels, is_outlier, k: int, ids) -> None:
    """Each outlier carries the argmax cosine to the inlier means, ties low."""
    means = cluster_means(features, labels, ~is_outlier, k)
    sims = _unit_columns(means.T).T @ _unit_columns(features[:, is_outlier])
    expect = np.argmax(sims >= sims.max(axis=0) - TIE_TOL, axis=0)
    got = labels[is_outlier]
    if np.any(got != expect):
        j = int(np.argmax(got != expect))
        i = int(np.flatnonzero(is_outlier)[j])
        raise CheckFailed(f"outlier {ids[i]!r} labelled {got[j]}, nearest mean is {expect[j]}")


def _distance_stats(means: np.ndarray):
    unit = _unit_columns(means.T)
    iu = np.triu_indices(means.shape[0], k=1)
    d = 1.0 - (unit.T @ unit)[iu]
    return len(d) / float(np.sum(1.0 / d)), float(np.sqrt(np.mean((d - d.mean()) ** 2)))


def check_metrics(features: np.ndarray, labels, is_outlier, k: int, report: dict) -> None:
    """metrics.txt distances and cluster sizes equal the recomputed values."""
    expect_sizes = {
        "cluster_sizes": np.bincount(labels[~is_outlier], minlength=k),
        "cluster_sizes_full": np.bincount(labels, minlength=k),
    }
    for key, sizes in expect_sizes.items():
        if report.get(key) != ",".join(str(int(s)) for s in sizes):
            raise CheckFailed(f"metrics.txt {key}={report.get(key)} but labels give {list(sizes)}")
    expect = {}
    expect["d_cos_hmean"], expect["d_cos_std"] = _distance_stats(
        cluster_means(features, labels, ~is_outlier, k))
    expect["d_cos_hmean_full"], expect["d_cos_std_full"] = _distance_stats(
        cluster_means(features, labels, np.ones_like(is_outlier), k))
    for key, value in expect.items():
        got = float(report.get(key, "nan"))
        if not abs(got - value) <= METRIC_TOL:
            raise CheckFailed(f"metrics.txt {key}={got!r} but recomputed {value!r}")


def check_lloyd_fixed_point(points: np.ndarray, labels, k: int) -> None:
    """Every row is nearest (squared Euclidean) to the mean of its own cluster."""
    sizes = np.bincount(labels, minlength=k)
    if sizes.size != k or np.any(sizes == 0):
        raise CheckFailed(f"cluster sizes {sizes.tolist()} do not cover k={k} clusters")
    means = np.zeros((k, points.shape[1]))
    np.add.at(means, labels, points)
    means /= sizes[:, None]
    # expanded form: no n x k x d temporary on 4096-d features
    d2 = ((points**2).sum(axis=1)[:, None] - 2.0 * points @ means.T
          + (means**2).sum(axis=1)[None, :])
    own = d2[np.arange(len(labels)), labels]
    best = d2.min(axis=1)
    bad = own > best + TIE_TOL * np.maximum(1.0, best)
    if np.any(bad):
        i = int(np.argmax(bad))
        raise CheckFailed(f"row {i} in cluster {labels[i]} is nearer to cluster "
                          f"{int(np.argmin(d2[i]))}: not a Lloyd fixed point")


def check_coefficients(rows, cols, values, n: int, sparsity_k: int | None) -> None:
    """Zero diagonal, indices inside the n x n matrix, OMP support <= sparsity_k."""
    if rows.size and (min(rows.min(), cols.min()) < 0 or max(rows.max(), cols.max()) >= n):
        raise CheckFailed(f"coefficient index outside the {n} x {n} matrix")
    diag = (rows == cols) & (values != 0.0)
    if np.any(diag):
        raise CheckFailed(f"coefficient ({rows[diag][0]}, {cols[diag][0]}) is on the diagonal")
    if sparsity_k is not None:
        nnz = np.bincount(cols[values != 0.0], minlength=n)
        if nnz.max(initial=0) > sparsity_k:
            j = int(np.argmax(nnz))
            raise CheckFailed(f"column {j} has {nnz[j]} nonzeros, budget {sparsity_k}")


def check_same_bytes(expected: Path, got: Path) -> None:
    """Two output files are byte-identical."""
    if Path(expected).read_bytes() != Path(got).read_bytes():
        raise CheckFailed(f"{got} differs from {expected}")


def purity(labels, is_outlier, truth, k: int) -> float:
    """Share of truth-labelled inliers that sit in their cluster's majority class."""
    keep = (~is_outlier) & (truth >= 0)
    counts = np.zeros((k, truth.max() + 1), dtype=int)
    np.add.at(counts, (labels[keep], truth[keep]), 1)
    return float(counts.max(axis=1).sum() / keep.sum())
