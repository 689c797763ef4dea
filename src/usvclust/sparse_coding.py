"""Sparse self-expression: the LASSO by its homotopy path and orthogonal
matching pursuit, plus the N x N coefficient matrix built from either.

Each sample is coded against the dictionary of all *other* samples, so the
coefficient matrix has a structurally zero diagonal.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .config import SparseCodingConfig  # also imported from here: perfbench does
from .errors import ParameterError, ValidationError

KKT_TOL = 1e-9  # largest KKT violation a certified LASSO column may have
_PARALLEL = 1e-12  # correlations closing on the level slower than this never meet it
_RANK_TOL = 1e-10  # an OMP atom this close (squared, relative) to the active span is dependent
_OMP_BLOCK_BYTES = 1 << 22  # gram[active] gathered for one block of OMP targets
_LASSO_CHUNK_ROWS = 256  # length-n rows one chunk of LASSO paths holds


@dataclass(frozen=True)
class CoefficientMatrix:
    """Self-expression coefficients (column j codes sample j).

    n_nonconverged counts the uncertified LASSO columns; n_dependent counts
    the OMP columns whose pursuit stopped on a dependent atom.
    """

    y: np.ndarray
    n_nonconverged: int = 0
    n_dependent: int = 0

    @property
    def n(self) -> int:
        return self.y.shape[0]


def _kkt_gram(grad: np.ndarray, y: np.ndarray, lam: float) -> np.ndarray:
    """Per-atom LASSO optimality violation, given the smooth gradient at y.

    The gradient must equal -lam*sign(y_j) on the support and lie in
    [-lam, lam] elsewhere; the violation is the distance from that.
    """
    return np.where(y != 0.0, np.abs(grad + lam * np.sign(y)),
                    np.maximum(np.abs(grad) - lam, 0.0))


def _step_paths(groups: dict, max_steps: int, per, step) -> list:
    """Move many solver paths in lockstep: the loop both solvers drive.

    ``groups`` maps an active-set size to the paths at that size, as a
    tuple of arrays whose first three are (cols, active, coef); a solver
    may carry more. Every live path moves one step per stacked numpy call:
    each group is stepped in chunks of ``per(size)`` paths, and
    ``step(chunk, codes)`` appends the (cols, active, coef) of the paths
    that stop to ``codes`` and returns the others as (size, paths) pairs,
    regrouped by size for the next step. A path still live after
    ``max_steps`` steps stops at the point it reached. Each stack entry
    makes the calls its path makes alone, so the codes are those of the
    paths run target by target, bit for bit.

    Returns the codes: the (n, c) matrix whose column i codes target i is
    zero but at y[active, cols[:, None]] = coef. The caller builds it, so
    that it need not hold y and the Gram at once.
    """
    codes = []
    for _ in range(max_steps):
        moved = {}
        for s, group in groups.items():
            p = per(s)
            for lo in range(0, group[0].size, p):
                for size, part in step([a[lo:lo + p] for a in group], codes):
                    moved.setdefault(size, []).append(part)
        groups = {s: [np.concatenate(a) for a in zip(*parts)] for s, parts in moved.items()}
        if not groups:
            break
    return codes + [group[:3] for group in groups.values()]


def _lasso_gram(gram: np.ndarray, corr: np.ndarray, lam: float, max_steps: int,
                barred: np.ndarray):
    """LASSO by the homotopy (LARS-lasso) path on the Gram form, many targets.

    Minimizes 0.5*||t_i - A y||^2 + lam*||y||_1 for each target t_i given
    gram = A^T A and the rows corr[i] = A^T t_i; the data matrix itself is
    never touched. A path starts at lambda_max with one active atom, and
    each step lowers the level to the next point where an inactive atom's
    correlation reaches the level (it enters) or an active coefficient
    reaches zero (it leaves). Target i's atom ``barred[i]`` never enters; a
    negative entry bars none. Once the target lam is within reach the
    support and signs are fixed and solved exactly, then every atom is
    checked against the KKT conditions. A path whose active block is
    exactly singular, or that is still short of lam after ``max_steps``
    steps, stops uncertified at the point it reached.

    The paths step through ``_step_paths``, grouped by active-set size,
    since a dropped atom breaks lockstep. A chunk holds at most
    ``_LASSO_CHUNK_ROWS`` rows of length n: its gram[active] gather and
    work arrays.

    Returns (codes, certified), codes as ``_step_paths`` returns them.
    """
    c, n = corr.shape
    certified = np.zeros(c, dtype=bool)
    first = np.empty(c, dtype=np.intp)
    level = np.empty(c)
    for lo in range(0, c, _LASSO_CHUNK_ROWS):
        part = slice(lo, lo + _LASSO_CHUNK_ROWS)
        score = np.abs(corr[part])
        i = np.arange(score.shape[0])
        bar = barred[part]
        score[i[bar >= 0], bar[bar >= 0]] = 0.0
        first[part] = np.argmax(score, axis=1)
        level[part] = score[i, first[part]]
    certified[level <= lam] = True
    cols = np.flatnonzero(level > lam)
    # a path: (cols, active, coef, signs, level, dropped), its active atoms
    # in the order they entered
    start = (cols, first[cols, None], np.zeros((cols.size, 1)),
             np.sign(corr[cols, first[cols]])[:, None], level[cols], np.full(cols.size, -1))
    with np.errstate(divide="ignore", invalid="ignore"):
        # gram[active] and about four work arrays per path
        codes = _step_paths({1: start}, max_steps, lambda s: max(1, _LASSO_CHUNK_ROWS // (s + 4)),
                            lambda chunk, codes: _lasso_step(gram, corr, lam, barred, chunk,
                                                             codes, certified))
    return codes, certified


def _lasso_step(gram, corr, lam, barred, group, stopped, certified):
    """One step of ``_lasso_gram`` for a chunk of paths at one active-set size.

    A path that stops appends (cols, active, coef) to ``stopped`` and sets
    its ``certified`` entry; the others are returned as (size, group) pairs.
    """
    cols, active, coef, signs, level, dropped = group
    rows = gram[active]
    g_aa = gram[active[:, :, None], active[:, None, :]]
    try:
        # numpy 2 reads a 2-D b as a stack of matrices, hence b[..., None]
        d = np.linalg.solve(g_aa, signs[..., None])[..., 0]  # dy_A / d(-level)
    except np.linalg.LinAlgError:
        # an exactly singular block stops its own path, not the chunk's
        ok = np.array([_solvable(g) for g in g_aa])
        stopped.append((cols[~ok], active[~ok], coef[~ok]))
        if not ok.any():
            return []
        return _lasso_step(gram, corr, lam, barred, [a[ok] for a in group], stopped, certified)
    gap = level - lam
    # inactive correlations move as r - step*a while the level moves as
    # level - step; entry is where |r_j| meets the level
    lev = level[:, None]
    r = corr[cols]
    r -= (coef[:, None] @ rows)[:, 0]
    a = (d[:, None] @ rows)[:, 0]
    up = _entry_steps(lev - r, 1.0 - a)
    down = _entry_steps(np.add(lev, r, out=r), np.add(1.0, a, out=a))
    step_in = np.minimum(up, down, out=a)
    b = np.arange(cols.size)
    step_in[b[:, None], active] = np.inf
    # the dropped atom sits on the boundary by construction; letting it back
    # in at once re-fits it with the wrong sign
    for bar in (barred[cols], dropped):
        step_in[b[bar >= 0], bar[bar >= 0]] = np.inf
    enter = np.argmin(step_in, axis=1)
    s_in = step_in[b, enter]
    sign_in = np.where(up[b, enter] <= down[b, enter], 1.0, -1.0)
    del up, down, step_in, r, a
    step_out = np.where(coef * d < 0.0, -coef / d, np.inf)
    leave = np.argmin(step_out, axis=1)
    s_out = step_out[b, leave]
    done = (gap <= s_in) & (gap <= s_out)
    if done.any():
        f = np.flatnonzero(done)
        act, cor = active[f], corr[cols[f]]
        y_a = np.linalg.solve(g_aa[f], (np.take_along_axis(cor, act, axis=1)
                                         - lam * signs[f])[..., None])[..., 0]
        grad = (y_a[:, None] @ rows[f])[:, 0]
        grad -= cor
        bf = np.arange(f.size)
        kkt_a = _kkt_gram(np.take_along_axis(grad, act, axis=1), y_a, lam)
        viol = np.abs(grad, out=grad)
        viol -= lam
        np.maximum(viol, 0.0, out=viol)
        viol[bf[:, None], act] = kkt_a
        bar = barred[cols[f]]
        viol[bf[bar >= 0], bar[bar >= 0]] = 0.0
        certified[cols[f]] = viol.max(axis=1) <= KKT_TOL
        stopped.append((cols[f], act, y_a))
    go = ~done
    cols, active, signs, coef, level, d, enter, sign_in, leave, s_in, s_out = (
        x[go] for x in (cols, active, signs, coef, level, d, enter, sign_in, leave,
                        s_in, s_out))
    step = np.minimum(s_in, s_out)
    coef = coef + step[:, None] * d
    level = level - step
    drop = s_out < s_in
    n_drop, s = int(drop.sum()), active.shape[1]
    keep = (np.arange(s) != leave[drop, None]).ravel()
    shrunk = (cols[drop], *(x[drop].ravel()[keep].reshape(n_drop, s - 1)
                            for x in (active, coef, signs)),
              level[drop], active[drop, leave[drop]])
    add = ~drop
    grown = (cols[add], np.column_stack([active[add], enter[add]]),
             np.column_stack([coef[add], np.zeros(cols.size - n_drop)]),
             np.column_stack([signs[add], sign_in[add]]),
             level[add], np.full(cols.size - n_drop, -1))
    return [(s - 1, shrunk), (s + 1, grown)]


def _entry_steps(room: np.ndarray, rate: np.ndarray) -> np.ndarray:
    """np.where(rate > _PARALLEL, np.maximum(room, 0.0) / rate, np.inf),
    computed in room's buffer."""
    np.maximum(room, 0.0, out=room)
    np.divide(room, rate, out=room)
    room[~(rate > _PARALLEL)] = np.inf
    return room


def _solvable(g_aa: np.ndarray) -> bool:
    """Whether ``np.linalg.solve`` takes this block: it refuses an exactly
    singular one, whatever the right-hand side."""
    try:
        np.linalg.solve(g_aa, g_aa[0])
    except np.linalg.LinAlgError:
        return False
    return True


def kkt_violation(dictionary: np.ndarray, target: np.ndarray,
                  y: np.ndarray, lam: float) -> float:
    """Worst first-order optimality violation of y for the LASSO.

    Zero (up to rounding) iff y is a minimizer: the gradient of the smooth
    part must equal -lam*sign(y_j) on the support and lie in [-lam, lam]
    elsewhere.
    """
    y = np.asarray(y, dtype=np.float64)
    grad = dictionary.T @ (dictionary @ y - target)
    return float(_kkt_gram(grad, y, lam).max(initial=0.0))


def _omp_gram(gram: np.ndarray, corr: np.ndarray, tt: np.ndarray, sparsity_k: int,
              tol: float, barred: np.ndarray):
    """Orthogonal matching pursuit on the Gram form (Batch-OMP), many targets.

    Codes each target t_i against a dictionary A given gram = A^T A, the
    rows corr[i] = A^T t_i and tt[i] = t_i @ t_i; the data matrix itself is
    never touched. Each round picks the atom with the largest absolute
    correlation with the residual, corr - coef @ gram[active], and re-fits
    the active coefficients by the normal equations on
    gram[active][:, active]. Their Cholesky factor grows by one row per
    atom, and the new pivot squared is the Schur complement of the atom
    against the active span: its squared distance from that span. An atom
    whose Schur complement is at most ``_RANK_TOL * gram[j, j]`` is
    dependent on the active set; it is dropped and the previous solution
    kept. A pursuit also stops when the residual correlation is zero, and
    once the squared residual norm, tt - corr[active] @ coef, is below
    tol**2. Target i never picks atom ``barred[i]``; a negative entry bars
    none.

    The pursuits step through ``_step_paths``, one round per step, so all
    live ones share one active-set size. A chunk holds the targets whose
    gram[active] gather fits ``_OMP_BLOCK_BYTES``; the targets still in
    pursuit are re-chunked each round.

    Returns (codes, n_dependent): codes as ``_step_paths`` returns them, and
    n_dependent counts the pursuits that stopped on a dependent atom.
    """
    c, n = corr.shape
    dependent = np.zeros(c, dtype=bool)
    chol = np.zeros((c, sparsity_k, sparsity_k))  # each target's lower factor
    per = max(1, _OMP_BLOCK_BYTES // (8 * sparsity_k * n))
    start = (np.arange(c), np.zeros((c, 0), dtype=np.intp), np.zeros((c, 0)))
    codes = _step_paths({0: start}, sparsity_k, lambda s: per,
                        lambda chunk, codes: _omp_step(gram, corr, tt, tol, barred, chol,
                                                       dependent, chunk, codes))
    return codes, int(dependent.sum())


def _omp_step(gram, corr, tt, tol, barred, chol, dependent, group, codes):
    """One round of ``_omp_gram`` for a chunk of pursuits at one support size.

    A pursuit that stops appends (cols, active, coef) to ``codes`` and, on a
    dependent atom, sets its ``dependent`` entry; chol[i] is target i's
    Cholesky factor. The others are returned as one (size, group) pair.
    """
    cols, active, coef = group
    m, b = active.shape[1], np.arange(cols.size)
    cor = corr[cols]
    resid_corr = cor - (coef[:, None] @ gram[active])[:, 0]
    resid_corr[b[:, None], active] = 0.0
    bar = barred[cols]
    resid_corr[b[bar >= 0], bar[bar >= 0]] = 0.0
    j = np.argmax(np.abs(resid_corr), axis=1)
    zero = resid_corr[b, j] == 0.0
    # numpy 2 reads a 2-D b as a stack of matrices, hence b[..., None]
    w = np.linalg.solve(chol[cols, :m, :m], gram[active, j[:, None]][..., None])[..., 0]
    g_jj = gram[j, j]
    schur = g_jj - (w[:, None] @ w[..., None])[:, 0, 0]
    dep = ~zero & (schur <= _RANK_TOL * g_jj)
    dependent[cols[dep]] = True
    stop = zero | dep
    codes.append((cols[stop], active[stop], coef[stop]))
    go = ~stop
    cols, active, cor, j, w, schur = (a[go] for a in (cols, active, cor, j, w, schur))
    chol[cols, m, :m] = w
    chol[cols, m, m] = np.sqrt(schur)
    active = np.column_stack([active, j])
    low = chol[cols, :m + 1, :m + 1]
    cor_a = np.take_along_axis(cor, active, axis=1)
    # swapaxes, not .mT: the matrix-transpose attribute needs numpy 2
    upper = np.swapaxes(low, -1, -2)
    coef = np.linalg.solve(upper, np.linalg.solve(low, cor_a[..., None]))[..., 0]
    done = tt[cols] - (cor_a[:, None] @ coef[..., None])[:, 0, 0] < tol * tol
    codes.append((cols[done], active[done], coef[done]))
    go = ~done
    return [(m + 1, (cols[go], active[go], coef[go]))]


def self_express(data: np.ndarray, config: SparseCodingConfig) -> CoefficientMatrix:
    """Code every column of ``data`` against all the others.

    Parameters
    ----------
    data : (d, n) array
        Feature columns (unit norm in the pipeline, not enforced here).
    config : SparseCodingConfig

    Returns
    -------
    CoefficientMatrix with a zero diagonal, filled from the solver's codes
    once the Gram is freed; codes below ``config.denoise_eps`` in magnitude
    are written as 0.
    """
    x = np.asarray(data, dtype=np.float64)
    if x.ndim != 2:
        raise ValidationError("data must be 2-D")
    n = x.shape[1]
    if n < 2:
        raise ValidationError("need at least 2 samples for self-expression")
    if config.method == "omp" and config.sparsity_k >= n:
        raise ParameterError(
            f"sparsity budget {config.sparsity_k} must be below the sample "
            f"count {n} (each dictionary has {n - 1} atoms)"
        )
    n_nonconverged = n_dependent = 0
    # exactly symmetric (see cosine_gram): row j is sample j's correlations
    gram = x.T @ x
    if config.method == "lasso":
        codes, certified = _lasso_gram(gram, gram, config.lam, config.max_iter, np.arange(n))
        n_nonconverged = int(n - certified.sum())
        if n_nonconverged:
            warnings.warn(
                f"{n_nonconverged} of {n} columns are uncertified: they hit "
                f"the step limit ({config.max_iter} homotopy steps) or "
                f"broke the KKT conditions by more than {KKT_TOL}",
                RuntimeWarning,
            )
    else:
        codes, n_dependent = _omp_gram(gram, gram, np.diagonal(gram), config.sparsity_k,
                                       config.tol, np.arange(n))
    del gram  # y is only made once the Gram is gone
    y = np.zeros((n, n))
    for cols, active, coef in codes:
        y[active, cols[:, None]] = np.where(np.abs(coef) < config.denoise_eps, 0.0, coef)
    return CoefficientMatrix(y, n_nonconverged, n_dependent)
