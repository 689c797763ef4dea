"""Sparse self-expression: the LASSO by its homotopy path and orthogonal
matching pursuit, plus the N x N coefficient matrix built from either.

Each sample is coded against the dictionary of all *other* samples, so the
coefficient matrix has a structurally zero diagonal.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, ValidationError

DENOISE_EPS = 0.001
KKT_TOL = 1e-9  # largest KKT violation a certified LASSO column may have
_PARALLEL = 1e-12  # correlations closing on the level slower than this never meet it
_RANK_TOL = 1e-10  # an OMP atom this close (squared, relative) to the active span is dependent


@dataclass
class SparseCodingConfig:
    """Knobs for building the coefficient matrix.

    method : 'lasso' or 'omp'
    lam : L1 weight for the LASSO route
    sparsity_k : atom budget for the OMP route
    max_iter : homotopy step cap for the LASSO route
    tol : OMP residual norm below which no further atom is picked
    denoise_eps : entries with magnitude strictly below this are zeroed
    """

    method: str = "lasso"
    lam: float = 0.3
    sparsity_k: int = 10
    max_iter: int = 1000
    tol: float = 1e-7
    denoise_eps: float = DENOISE_EPS

    def __post_init__(self):
        if self.method not in ("lasso", "omp"):
            raise ParameterError(f"unknown sparse coding method {self.method!r}")
        if self.lam <= 0:
            raise ParameterError(f"lambda must be positive, got {self.lam}")
        if self.sparsity_k < 1:
            raise ParameterError(f"sparsity budget must be >= 1, got {self.sparsity_k}")
        if self.max_iter < 1:
            raise ParameterError(f"max_iter must be >= 1, got {self.max_iter}")
        if self.tol <= 0:
            raise ParameterError(f"tol must be positive, got {self.tol}")
        if self.denoise_eps < 0:
            raise ParameterError(f"denoise_eps must be >= 0, got {self.denoise_eps}")


@dataclass(frozen=True)
class CoefficientMatrix:
    """Self-expression coefficients (column j codes sample j)."""

    y: np.ndarray
    method: str
    lam: float | None
    denoise_eps: float
    n_nonconverged: int = 0

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


def lasso_column(dictionary: np.ndarray, target: np.ndarray, lam: float,
                 max_iter: int = 1000, tol: float = 1e-7):
    """Solve min_y 0.5*||target - dictionary @ y||^2 + lam*||y||_1.

    Parameters
    ----------
    dictionary : (d, n) array
    target : (d,) array
    lam : positive L1 weight
    max_iter : maximum number of homotopy steps (atoms entering or leaving)
    tol : ignored, kept so existing callers still work; the result is
        certified by its KKT violation (at most ``KKT_TOL``) instead

    Returns
    -------
    (y, converged) : coefficient vector and whether the path reached lam
    within max_iter steps and the result passed the KKT check.
    """
    a = np.asarray(dictionary, dtype=np.float64)
    t = np.asarray(target, dtype=np.float64)
    if a.ndim != 2 or t.ndim != 1 or a.shape[0] != t.shape[0]:
        raise ValidationError("dictionary and target shapes do not match")
    if lam <= 0:
        raise ParameterError(f"lambda must be positive, got {lam}")
    return _homotopy(a.T @ a, a.T @ t, lam, max_iter)


def lasso_objective(dictionary: np.ndarray, target: np.ndarray,
                    y: np.ndarray, lam: float) -> float:
    """Value of the LASSO objective at y."""
    r = target - dictionary @ y
    return 0.5 * float(r @ r) + lam * float(np.abs(y).sum())


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


def lambda_max(dictionary: np.ndarray, target: np.ndarray) -> float:
    """Smallest lam for which the all-zero vector is already optimal."""
    return float(np.max(np.abs(np.asarray(dictionary).T @ np.asarray(target))))


def _omp_gram(gram: np.ndarray, corr: np.ndarray, tt: float, sparsity_k: int,
              tol: float, barred: int | None = None) -> np.ndarray:
    """Orthogonal matching pursuit on the Gram form (Batch-OMP).

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


def omp_column(dictionary: np.ndarray, target: np.ndarray, sparsity_k: int,
               tol: float = 1e-7) -> np.ndarray:
    """Orthogonal matching pursuit with at most ``sparsity_k`` atoms.

    Atoms are picked by largest absolute correlation with the residual and
    the active coefficients are re-fit by least squares each round, all on
    the Gram form (see ``_omp_gram``). If the newest atom is dependent on
    the active set it is dropped and the previous solution is returned.
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
    return _omp_gram(a.T @ a, a.T @ t, float(t @ t), sparsity_k, tol)


def denoise(coeffs: CoefficientMatrix, eps: float | None = None) -> CoefficientMatrix:
    """Zero every entry with magnitude strictly below eps.

    Entries exactly at eps survive. eps defaults to the matrix's own
    denoise_eps.
    """
    if eps is None:
        eps = coeffs.denoise_eps
    if eps < 0:
        raise ParameterError(f"denoise eps must be >= 0, got {eps}")
    y = coeffs.y.copy()
    y[np.abs(y) < eps] = 0.0
    return CoefficientMatrix(
        y=y, method=coeffs.method, lam=coeffs.lam, denoise_eps=eps,
        n_nonconverged=coeffs.n_nonconverged,
    )


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
    y = np.zeros((n, n))
    n_nonconverged = 0
    gram = x.T @ x
    if config.method == "lasso":
        for j in range(n):
            y[:, j], ok = _homotopy(gram, gram[:, j], config.lam,
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
        for j in range(n):
            y[:, j] = _omp_gram(gram, gram[:, j], gram[j, j],
                                config.sparsity_k, config.tol, barred=j)
    lam = config.lam if config.method == "lasso" else None
    raw = CoefficientMatrix(
        y=y, method=config.method, lam=lam,
        denoise_eps=config.denoise_eps, n_nonconverged=n_nonconverged,
    )
    return denoise(raw)
