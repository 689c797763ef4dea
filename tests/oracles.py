"""Independent reference implementations used only by the tests.

Everything here is deliberately written with different algorithms or
different numerics than the package (proximal gradient instead of
the homotopy path, exhaustive search instead of greedy selection, plain
loops instead of matrix tricks, least squares on the data instead of the
Gram form) so agreement is meaningful evidence. The rest are the
package's earlier code kept verbatim, so a faster rewrite can be held to
the same bits. ``lasso_column`` runs one of these, the one-column homotopy
``homotopy_column_ref``, on a single target. ``omp_column`` is not a
reference at all: it runs the package's own Batch-OMP on a single target,
the entry point the solver tests call it through.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
import scipy.linalg
import scipy.optimize

from usvclust.config import SparseCodingConfig
from usvclust.errors import ParameterError, ValidationError
from usvclust.sparse_coding import _PARALLEL, _RANK_TOL, KKT_TOL, _kkt_gram, _omp_gram


def lasso_column(dictionary, target, lam, max_iter=SparseCodingConfig.max_iter):
    """``homotopy_column_ref`` on one target; returns (y, certified)."""
    a = np.asarray(dictionary, dtype=np.float64)
    t = np.asarray(target, dtype=np.float64)
    return homotopy_column_ref(a.T @ a, a.T @ t, lam, max_iter)


def homotopy_column_ref(gram: np.ndarray, corr: np.ndarray, lam: float,
                        max_steps: int, barred: int | None = None):
    """LASSO by the homotopy (LARS-lasso) path on the Gram form.

    The package's homotopy before it moved every target in lockstep, kept
    verbatim: one target per call. It makes the same numpy calls the
    batched path makes for each stack entry, so the two agree bit for bit
    rather than to a tolerance.

    Minimizes 0.5*||t - A y||^2 + lam*||y||_1 given gram = A^T A and
    corr = A^T t; the data matrix itself is never touched. The path starts
    at lambda_max with one active atom, and each step lowers the level to
    the next point where an inactive atom's correlation reaches the level
    (it enters) or an active coefficient reaches zero (it leaves). Atom
    ``barred`` never enters. Once the target lam is within reach the
    support and signs are fixed and solved exactly, then every atom is
    checked against the KKT conditions. Returns (y, certified); y is the
    path point reached so far if the step cap runs out first, or if the
    active block turns exactly singular.
    """
    n = corr.shape[0]
    y = np.zeros(n)
    free = np.ones(n, dtype=bool)  # inactive atoms that may enter
    if barred is not None:
        free[barred] = False
    score = np.where(free, np.abs(corr), 0.0)
    if score.max(initial=0.0) <= lam:
        return y, True
    first = int(np.argmax(score))
    level = float(score[first])
    active, signs = [first], [float(np.sign(corr[first]))]
    free[first] = False
    dropped = -1
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(max_steps):
            idx = np.array(active)
            s = np.array(signs)
            rows = gram[idx]
            g_aa = rows[:, idx]
            try:
                d = np.linalg.solve(g_aa, s)  # dy_A / d(-level)
            except np.linalg.LinAlgError:
                return y, False
            gap = level - lam
            # inactive correlations move as r - step*a while the level
            # moves as level - step; entry is where |r_j| meets the level
            r = corr - y[idx] @ rows
            a = d @ rows
            up = np.where(1.0 - a > _PARALLEL,
                          np.maximum(level - r, 0.0) / (1.0 - a), np.inf)
            down = np.where(1.0 + a > _PARALLEL,
                            np.maximum(level + r, 0.0) / (1.0 + a), np.inf)
            step_in = np.where(free, np.minimum(up, down), np.inf)
            if dropped >= 0:
                # it sits on the boundary by construction; letting it back
                # in at once re-fits it with the wrong sign
                step_in[dropped] = np.inf
            enter = int(np.argmin(step_in))
            ya = y[idx]
            step_out = np.where(ya * d < 0.0, -ya / d, np.inf)
            leave = int(np.argmin(step_out))
            if gap <= step_in[enter] and gap <= step_out[leave]:
                y[idx] = np.linalg.solve(g_aa, corr[idx] - lam * s)
                viol = _kkt_gram(y[idx] @ rows - corr, y, lam)
                if barred is not None:
                    viol[barred] = 0.0
                return y, bool(viol.max() <= KKT_TOL)
            step = min(step_in[enter], step_out[leave])
            y[idx] += step * d
            level -= step
            if step_out[leave] < step_in[enter]:
                dropped = active.pop(leave)
                signs.pop(leave)
                y[dropped] = 0.0
                free[dropped] = True
            else:
                dropped = -1
                active.append(enter)
                signs.append(1.0 if up[enter] <= down[enter] else -1.0)
                free[enter] = False
    return y, False


def omp_column(dictionary, target, sparsity_k, tol=SparseCodingConfig.tol):
    """The package's Batch-OMP on one target; returns its coefficient vector."""
    a = np.asarray(dictionary, dtype=np.float64)
    t = np.asarray(target, dtype=np.float64)
    codes, _ = _omp_gram(a.T @ a, (a.T @ t)[None], np.array([t @ t]), sparsity_k, tol,
                         np.array([-1]))
    y = np.zeros(a.shape[1])
    for _, active, coef in codes:  # one target: each block codes it or is empty
        y[active.ravel()] = coef.ravel()
    return y


def lasso_objective_ref(dictionary, target, y, lam):
    r = target - dictionary @ y
    return 0.5 * np.sum(r * r) + lam * np.sum(np.abs(y))


def lambda_max(dictionary, target):
    """Smallest lam for which the all-zero vector is already optimal."""
    return float(np.max(np.abs(np.asarray(dictionary).T @ np.asarray(target))))


def cosine_similarity(a, b) -> float:
    """cos(a, b), clamped into [-1, 1] against rounding.

    Either vector being zero is a validation error (the angle is undefined).
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape or a.ndim != 1:
        raise ValidationError(f"vectors must share one shape, got {a.shape} vs {b.shape}")
    na = np.linalg.norm(a)
    nb = np.linalg.norm(b)
    if na == 0.0 or nb == 0.0:
        raise ValidationError("cosine of a zero vector is undefined")
    return float(np.clip(a @ b / (na * nb), -1.0, 1.0))


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


def omp_gram_column_ref(gram: np.ndarray, corr: np.ndarray, tt: float, sparsity_k: int,
                         tol: float, barred: int | None = None) -> np.ndarray:
    """Orthogonal matching pursuit on the Gram form (Batch-OMP).

    The package's Gram-form pursuit before it batched its targets, kept
    verbatim: one target per call. It makes the same numpy calls the
    batched pursuit makes for each stack entry, so the two agree bit for
    bit rather than to a tolerance.

    Codes a target t against a dictionary A given gram = A^T A,
    corr = A^T t and tt = t @ t; the data matrix itself is never touched.
    Each round picks the atom with the largest absolute correlation with
    the residual, corr - gram[:, active] @ coef, and re-fits the active
    coefficients by the normal equations on gram[active][:, active]. Their
    Cholesky factor grows by one row per atom, and the new pivot squared is
    the Schur complement of the atom against the active span: its squared
    distance from that span. An atom whose Schur complement is at most
    ``_RANK_TOL * gram[j, j]`` is dependent on the active set; it is
    dropped and the previous solution returned. The pursuit stops early
    once the squared residual norm, tt - corr[active] @ coef, is below
    tol**2. Atom ``barred`` is never picked.
    """
    y = np.zeros(corr.shape[0])
    active: list[int] = []
    coef = np.zeros(0)
    chol = np.zeros((sparsity_k, sparsity_k))  # lower factor, one row per atom
    for m in range(sparsity_k):
        resid_corr = corr - coef @ gram[active]
        resid_corr[active] = 0.0
        if barred is not None:
            resid_corr[barred] = 0.0
        j = int(np.argmax(np.abs(resid_corr)))
        if resid_corr[j] == 0.0:
            break
        w = np.linalg.solve(chol[:m, :m], gram[active, j])
        schur = gram[j, j] - w @ w
        if schur <= _RANK_TOL * gram[j, j]:
            break
        chol[m, :m] = w
        chol[m, m] = np.sqrt(schur)
        active.append(j)
        low = chol[:m + 1, :m + 1]
        coef = np.linalg.solve(low.T, np.linalg.solve(low, corr[active]))
        if tt - corr[active] @ coef < tol * tol:
            break
    y[active] = coef
    return y


def plus_plus_init(points, k, rng):
    """k-means++ seeding that recomputes every center's distance vector.

    The package's seeding before it kept the distance vectors of drawn rows
    across restarts, kept verbatim: its draws from ``rng`` define the
    centers, so the package must consume ``rng`` and pick rows exactly
    as this does.
    """
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


def repair_empty_clusters(points, centers, labels, k):
    """Give each empty cluster the farthest point of the currently largest one.

    The package's repair before its bincount fast path, kept verbatim: it
    checks every cluster in turn and writes the moved point into
    ``centers``.
    """
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


def cluster_means_by_mask(points, labels, centers, k):
    """The package's center update before its gathered reduction, kept
    verbatim: one boolean mask and one ``mean`` per cluster."""
    for c in range(k):
        centers[c] = points[labels == c].mean(axis=0)


def inertia_from_temporaries(points, centers, labels):
    """The package's inertia before its work buffer, kept verbatim."""
    return float(((points - centers[labels]) ** 2).sum())


def kmeans_lloyd_ref(points, k, seed, max_iter=300, n_init=10):
    """The package's k-means loop before its work buffer, driven by the
    oracles above: recomputed seeding, the direct assignment kernel, the
    per-cluster repair, mask/mean centers and temporary-based inertia,
    every step computed afresh. Returns (labels, centers, inertia,
    iterations, converged, inertia trace) of the winning restart.
    """
    points = np.asarray(points, dtype=np.float64)
    rng = np.random.default_rng(seed)
    best = None
    for _ in range(n_init):
        centers = plus_plus_init(points, k, rng)
        labels = np.full(points.shape[0], -1)
        trace = []
        converged = False
        iterations = 0
        for it in range(1, max_iter + 1):
            iterations = it
            new_labels = nearest_center_direct(points, centers)
            new_labels = repair_empty_clusters(points, centers, new_labels, k)
            cluster_means_by_mask(points, new_labels, centers, k)
            trace.append(inertia_from_temporaries(points, centers, new_labels))
            if np.array_equal(new_labels, labels):
                converged = True
                break
            labels = new_labels
        run = (labels, centers, trace[-1], iterations, converged, tuple(trace))
        if best is None or run[2] < best[2]:
            best = run
    return best


def cosine_gram_ref(data):
    """All-pairs cosine of the columns of ``data``, snapped and clipped.

    The package's ``cosine_gram`` before it symmetrized in place, kept
    verbatim: each output bit is defined by this expression.
    """
    data = np.asarray(data, dtype=np.float64)
    norms = np.linalg.norm(data, axis=0)
    unit = data / norms
    g = unit.T @ unit
    g = (g + g.T) / 2.0
    g = np.clip(g, -1.0, 1.0)
    g[g > 1.0 - 1e-12] = 1.0
    return g


# The CSV float writer the block formatter replaced, copied verbatim: one
# Python % per row, on the row's Python floats.
_FLOAT_FMT = "%.17g"


def _row_fmt(width: int) -> str:
    """A %-format string for one CSV row of ``width`` floats.

    Each row is then formatted by a single ``row_fmt % tuple(row)`` on
    Python floats (``ndarray.tolist()``), which gives the same bytes as
    formatting every value with ``_FLOAT_FMT`` and joining with commas.
    """
    return ",".join([_FLOAT_FMT] * width)


def _write_matrix_csv(mat: np.ndarray, path) -> None:
    row_fmt = _row_fmt(mat.shape[1]) + "\n"
    with open(path, "w", newline="") as fh:
        fh.writelines(row_fmt % tuple(row) for row in mat.tolist())


def matrix_csv_ref(mat: np.ndarray) -> bytes:
    """The bytes ``_write_matrix_csv`` writes for ``mat``, without a file."""
    row_fmt = _row_fmt(mat.shape[1]) + "\n"
    return "".join(row_fmt % tuple(row) for row in mat.tolist()).encode()


def affinity_from_cosine_ref(gram):
    """The package's ``affinity_from_cosine`` before it trusted the
    symmetry of its input, kept verbatim."""
    a = np.maximum(np.asarray(gram, dtype=np.float64), 0.0)
    a = (a + a.T) / 2.0
    np.fill_diagonal(a, 0.0)
    return a


def assign_outliers_loop(features_data, outlier_idx, cents):
    """Outlier labels {index: cluster} from the package's per-outlier loop
    in ``assign_outliers`` before it took one matrix product, kept
    verbatim."""
    labels = {}
    cent_norms = np.linalg.norm(cents, axis=1)
    unit_cents = cents / cent_norms[:, None]
    for i in outlier_idx:
        v = features_data[:, i]
        sims = unit_cents @ (v / np.linalg.norm(v))
        labels[i] = int(np.argmax(sims))
    return labels
