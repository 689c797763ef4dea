"""Independent reference implementations used only by the tests.

Everything here is deliberately written with different algorithms or
different numerics than the package (proximal gradient instead of
the homotopy path, exhaustive search instead of greedy selection, plain
loops instead of matrix tricks, least squares on the data instead of the
Gram form) so agreement is meaningful evidence.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
import scipy.linalg
import scipy.optimize

from usvclust.errors import ParameterError, ValidationError


def lasso_objective_ref(dictionary, target, y, lam):
    r = target - dictionary @ y
    return 0.5 * np.sum(r * r) + lam * np.sum(np.abs(y))


def lasso_prox_grad(dictionary, target, lam, max_iter=1_000_000, tol=1e-14):
    """FISTA with a constant 1/L step, run essentially to convergence."""
    a = np.asarray(dictionary, dtype=np.float64)
    b = np.asarray(target, dtype=np.float64)
    gram = a.T @ a
    corr = a.T @ b
    lip = float(np.linalg.eigvalsh(gram)[-1])
    if lip <= 0:
        return np.zeros(a.shape[1])
    step = 1.0 / lip
    x = np.zeros(a.shape[1])
    z = x.copy()
    t = 1.0
    for _ in range(max_iter):
        grad = gram @ z - corr
        v = z - step * grad
        x_new = np.sign(v) * np.maximum(np.abs(v) - lam * step, 0.0)
        t_new = (1.0 + math.sqrt(1.0 + 4.0 * t * t)) / 2.0
        z = x_new + ((t - 1.0) / t_new) * (x_new - x)
        done = np.max(np.abs(x_new - x)) < tol
        x = x_new
        t = t_new
        if done:
            break
    return x


def omp_best_subset(dictionary, target, k):
    """Exhaustive best k-subset least squares; returns (support, coefs)."""
    a = np.asarray(dictionary, dtype=np.float64)
    b = np.asarray(target, dtype=np.float64)
    best = (np.inf, (), np.zeros(0))
    for size in range(1, k + 1):
        for subset in itertools.combinations(range(a.shape[1]), size):
            sub = a[:, subset]
            sol, _, rank, _ = np.linalg.lstsq(sub, b, rcond=None)
            if rank < size:
                continue
            res = float(np.sum((b - sub @ sol) ** 2))
            if res < best[0] - 1e-15:
                best = (res, subset, sol)
    return best[1], best[2]


def brute_force_split(data, tau):
    """O(N^2) double-loop inlier/outlier partition on column vectors."""
    data = np.asarray(data, dtype=np.float64)
    n = data.shape[1]
    inliers, outliers = [], []
    for i in range(n):
        best = -np.inf
        for j in range(n):
            if i == j:
                continue
            ci = data[:, i]
            cj = data[:, j]
            cos = float(ci @ cj) / (float(np.linalg.norm(ci)) * float(np.linalg.norm(cj)))
            cos = min(1.0, max(-1.0, cos))
            if cos > 1.0 - 1e-12:
                cos = 1.0
            best = max(best, cos)
        (outliers if best < tau else inliers).append(i)
    return inliers, outliers


def straight_line_metrics(features_data, labels, outlier_mask, k):
    """Recompute all four report statistics with plain loops.

    Returns a dict with hmean/std over inlier-only centroids and over
    centroids recomputed from all members.
    """
    data = np.asarray(features_data, dtype=np.float64)
    labels = np.asarray(labels, dtype=int)
    outlier_mask = np.asarray(outlier_mask, dtype=bool)

    def centroid_set(member_filter):
        cents = []
        for c in range(k):
            members = [i for i in range(data.shape[1])
                       if labels[i] == c and member_filter(i)]
            if not members:
                raise ValueError(f"cluster {c} empty")
            cents.append(sum(data[:, i] for i in members) / len(members))
        return cents

    def cos_dist(ci, cj):
        cos = float(ci @ cj) / (
            float(np.linalg.norm(ci)) * float(np.linalg.norm(cj)))
        return 1.0 - cos

    def stats(cents):
        inv_sum = 0.0
        for i in range(k):
            for j in range(k):
                if i != j:
                    inv_sum += 1.0 / cos_dist(cents[i], cents[j])
        hmean = 1.0 / (inv_sum / (k * (k - 1)))
        dists = [cos_dist(cents[i], cents[j])
                 for i in range(k) for j in range(i + 1, k)]
        mean = sum(dists) / len(dists)
        var = sum((d - mean) ** 2 for d in dists) / len(dists)
        return hmean, math.sqrt(var)

    h_in, s_in = stats(centroid_set(lambda i: not outlier_mask[i]))
    h_full, s_full = stats(centroid_set(lambda i: True))
    return {"d_cos_hmean": h_in, "d_cos_std": s_in,
            "d_cos_hmean_full": h_full, "d_cos_std_full": s_full}


def clustering_error(pred, truth):
    """Fraction misclustered under the best label matching."""
    pred = np.asarray(pred, dtype=int)
    truth = np.asarray(truth, dtype=int)
    kp = pred.max() + 1
    kt = truth.max() + 1
    size = max(kp, kt)
    conf = np.zeros((size, size), dtype=int)
    for p, t in zip(pred, truth):
        conf[p, t] += 1
    rows, cols = scipy.optimize.linear_sum_assignment(-conf)
    return 1.0 - conf[rows, cols].sum() / len(pred)


def reference_lsym_eigvals(affinity):
    """Eigenvalues of I - D^-1/2 A D^-1/2 via a different LAPACK driver."""
    a = np.asarray(affinity, dtype=np.float64)
    deg = a.sum(axis=1)
    dihalf = np.diag(1.0 / np.sqrt(deg))
    lsym = np.eye(a.shape[0]) - dihalf @ a @ dihalf
    lsym = (lsym + lsym.T) / 2.0
    return scipy.linalg.eigh(lsym, eigvals_only=True)


def _keys_ref(x):
    # same a=-0.5 kernel, different algebraic arrangement
    ax = abs(float(x))
    if ax <= 1.0:
        return (1.5 * ax - 2.5) * ax * ax + 1.0
    if ax < 2.0:
        return -0.5 * (ax**3 - 5.0 * ax**2 + 8.0 * ax - 4.0)
    return 0.0


def reference_bicubic(image, f, t):
    """Naive per-pixel bicubic resize with edge replication, then clamp."""
    img = np.asarray(image, dtype=np.float64)
    n_in_r, n_in_c = img.shape
    out = np.zeros((f, t))
    for i in range(f):
        xi = (i + 0.5) * n_in_r / f - 0.5
        bi = math.floor(xi)
        for j in range(t):
            xj = (j + 0.5) * n_in_c / t - 0.5
            bj = math.floor(xj)
            acc = 0.0
            for mi in range(bi - 1, bi + 3):
                wi = _keys_ref(xi - mi)
                ri = min(max(mi, 0), n_in_r - 1)
                for mj in range(bj - 1, bj + 3):
                    wj = _keys_ref(xj - mj)
                    cj = min(max(mj, 0), n_in_c - 1)
                    acc += wi * wj * img[ri, cj]
            out[i, j] = acc
    return np.maximum(out, 0.0)


def nearest_center_direct(points, centers):
    """Nearest center per row from the full n x k x d difference tensor.

    This is the kernel k-means ranked distances with before the Gram
    expansion, kept verbatim: the labels are defined by its rounding, and
    numpy's argmin sends exact ties to the lowest index.
    """
    d2 = ((points[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
    return np.argmin(d2, axis=1)


def omp_column_lstsq(dictionary: np.ndarray, target: np.ndarray, sparsity_k: int,
                     tol: float = 1e-7) -> np.ndarray:
    """Orthogonal matching pursuit with at most ``sparsity_k`` atoms.

    The package's OMP before the Gram form, kept verbatim: it works on the
    d-dimensional data and re-fits by ``lstsq`` on the dictionary columns.

    Atoms are picked by largest absolute correlation with the residual and
    the active coefficients are re-fit by least squares each round. If the
    active set goes rank deficient the newest atom is dropped and the
    previous solution is returned.
    """
    a = np.asarray(dictionary, dtype=np.float64)
    t = np.asarray(target, dtype=np.float64)
    if a.ndim != 2 or t.ndim != 1 or a.shape[0] != t.shape[0]:
        raise ValidationError("dictionary and target shapes do not match")
    n_atoms = a.shape[1]
    if not 1 <= sparsity_k <= n_atoms:
        raise ParameterError(
            f"sparsity budget {sparsity_k} out of range for {n_atoms} atoms"
        )
    y = np.zeros(n_atoms)
    active: list[int] = []
    coef = np.zeros(0)
    residual = t.copy()
    for _ in range(sparsity_k):
        corr = a.T @ residual
        corr[active] = 0.0
        j = int(np.argmax(np.abs(corr)))
        if corr[j] == 0.0:
            break
        active.append(j)
        sub = a[:, active]
        sol, _, rank, _ = np.linalg.lstsq(sub, t, rcond=None)
        if rank < len(active):
            active.pop()
            break
        coef = sol
        residual = t - sub @ coef
        if np.linalg.norm(residual) < tol:
            break
    y[active] = coef
    return y
