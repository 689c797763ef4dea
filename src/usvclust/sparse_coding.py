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


def _homotopy(gram: np.ndarray, corr: np.ndarray, lam: float,
              max_steps: int, barred: int | None = None):
    """LASSO by the homotopy (LARS-lasso) path on the Gram form.

    Minimizes 0.5*||t - A y||^2 + lam*||y||_1 given gram = A^T A and
    corr = A^T t; the data matrix itself is never touched. The path starts
    at lambda_max with one active atom, and each step lowers the level to
    the next point where an inactive atom's correlation reaches the level
    (it enters) or an active coefficient reaches zero (it leaves). Atom
    ``barred`` never enters. Once the target lam is within reach the
    support and signs are fixed and solved exactly, then every atom is
    checked against the KKT conditions. Returns (y, certified); y is the
    path point reached so far if the step cap runs out first.
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
              tol: float, barred: np.ndarray | None = None):
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

    Every live target moves one round per stacked numpy call, in blocks of
    targets whose gram[active] gather fits ``_OMP_BLOCK_BYTES``. Each stack
    entry makes the calls one target alone would make, so the coefficients
    are those of a pursuit run target by target, bit for bit.

    Returns (y, n_dependent): y is (n, c), column i coding target i, and
    n_dependent counts the pursuits that stopped on a dependent atom.
    """
    c, n = corr.shape
    if barred is None:
        barred = np.full(c, -1)
    y = np.zeros((n, c))
    n_dependent = 0
    step = max(1, _OMP_BLOCK_BYTES // (8 * sparsity_k * n))
    for lo in range(0, c, step):
        block = slice(lo, lo + step)
        n_dependent += _omp_block(gram, corr[block], tt[block], sparsity_k, tol,
                                  barred[block], y[:, block])
    return y, n_dependent


def _omp_block(gram, corr, tt, sparsity_k, tol, barred, out) -> int:
    """One block of ``_omp_gram``: target i's code goes to ``out[:, i]``."""
    live = np.arange(corr.shape[0])  # targets still in pursuit
    active = np.zeros((live.size, 0), dtype=np.intp)
    coef = np.zeros((live.size, 0))
    chol = np.zeros((live.size, sparsity_k, sparsity_k))  # lower factors
    n_dependent = 0
    for m in range(sparsity_k):
        rows = np.arange(live.size)
        cor = corr[live]
        resid_corr = cor - (coef[:, None] @ gram[active])[:, 0]
        resid_corr[rows[:, None], active] = 0.0
        bar = barred[live]
        resid_corr[rows[bar >= 0], bar[bar >= 0]] = 0.0
        j = np.argmax(np.abs(resid_corr), axis=1)
        zero = resid_corr[rows, j] == 0.0
        # numpy 2 reads a 2-D b as a stack of matrices, hence b[..., None]
        w = np.linalg.solve(chol[:, :m, :m], gram[active, j[:, None]][..., None])[..., 0]
        g_jj = gram[j, j]
        schur = g_jj - (w[:, None] @ w[..., None])[:, 0, 0]
        dependent = ~zero & (schur <= _RANK_TOL * g_jj)
        n_dependent += int(dependent.sum())
        stop = zero | dependent
        out[active[stop], live[stop, None]] = coef[stop]
        go = ~stop
        live, active, chol, cor, j, w, schur = (
            a[go] for a in (live, active, chol, cor, j, w, schur))
        chol[:, m, :m] = w
        chol[:, m, m] = np.sqrt(schur)
        active = np.column_stack([active, j])
        low = chol[:, :m + 1, :m + 1]
        cor_a = np.take_along_axis(cor, active, axis=1)
        # swapaxes, not .mT: the matrix-transpose attribute needs numpy 2
        upper = np.swapaxes(low, -1, -2)
        coef = np.linalg.solve(upper, np.linalg.solve(low, cor_a[..., None]))[..., 0]
        done = tt[live] - (cor_a[:, None] @ coef[..., None])[:, 0, 0] < tol * tol
        if m == sparsity_k - 1:
            done[:] = True
        out[active[done], live[done, None]] = coef[done]
        go = ~done
        live, active, coef, chol = (a[go] for a in (live, active, coef, chol))
        if not live.size:
            break
    return n_dependent


def self_express(data: np.ndarray, config: SparseCodingConfig) -> CoefficientMatrix:
    """Code every column of ``data`` against all the others.

    Parameters
    ----------
    data : (d, n) array
        Feature columns (unit norm in the pipeline, not enforced here).
    config : SparseCodingConfig

    Returns
    -------
    CoefficientMatrix with a zero diagonal; entries below
    ``config.denoise_eps`` in magnitude are zeroed.
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
        y = np.zeros((n, n))
        for j in range(n):
            y[:, j], ok = _homotopy(gram, gram[j], config.lam,
                                    config.max_iter, barred=j)
            if not ok:
                n_nonconverged += 1
        if n_nonconverged:
            warnings.warn(
                f"{n_nonconverged} of {n} columns are uncertified: they hit "
                f"the step limit ({config.max_iter} homotopy steps) or "
                f"broke the KKT conditions by more than {KKT_TOL}",
                RuntimeWarning,
            )
    else:
        y, n_dependent = _omp_gram(gram, gram, np.diagonal(gram), config.sparsity_k,
                                   config.tol, barred=np.arange(n))
    del gram
    y[np.abs(y) < config.denoise_eps] = 0.0
    return CoefficientMatrix(y, n_nonconverged, n_dependent)
