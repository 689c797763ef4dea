"""Cosine geometry, affinity construction and spectral embedding.

Clustering uses the random-walk normalized Laplacian L_rw = I - D^-1 A.
Its eigenpairs are obtained from the symmetric form
L_sym = I - D^-1/2 A D^-1/2: if L_sym u = w u then v = D^-1/2 u solves
L_rw v = w v, which keeps the eigensolve on a symmetric matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, ParameterError, ValidationError

_COS_SNAP = 1e-12


def checked_norms(data: np.ndarray, axis: int | None, name) -> np.ndarray:
    """L2 norms of ``data`` along ``axis`` (the whole array for None), each
    nonzero and finite.

    The first norm that is zero, or not finite (a non-finite value, or one
    whose square overflows), is refused as ``f"{name(i)} is all zero"`` when
    its vector is, and as ``f"{name(i)} has norm {norm}"`` otherwise (0.0
    when the squared norm underflows), with no numpy warning.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        norms = np.linalg.norm(data, axis=axis)
    bad = np.flatnonzero((norms == 0.0) | ~np.isfinite(norms))
    if bad.size:
        i = int(bad[0])
        zero = not np.any(data, axis=axis).flat[i]
        what = "is all zero" if zero else f"has norm {float(norms.flat[i])}"
        raise ValidationError(f"{name(i)} {what}")
    return norms


def cosine_gram(data: np.ndarray, name="column {}".format) -> np.ndarray:
    """All-pairs cosine similarity of the columns of ``data``.

    The result is exactly symmetric, clipped to [-1, 1], and values within
    1e-12 of 1 are snapped to exactly 1.0 so duplicate columns always
    compare as identical despite rounding.

    Parameters
    ----------
    data : (d, n) array
        Column vectors; one whose norm is zero or not finite is rejected.
    name : callable
        Maps a column index to its name in that refusal.
    """
    data = np.asarray(data, dtype=np.float64)
    if data.ndim != 2:
        raise ValidationError("data must be 2-D")
    unit = data / checked_norms(data, 0, name)
    # exactly symmetric with no averaging pass: numpy computes a product of
    # a matrix with its own transpose by BLAS syrk and mirrors the triangle,
    # and its loop without BLAS sums the same pairs in the same order
    g = unit.T @ unit
    np.clip(g, -1.0, 1.0, out=g)
    g[g > 1.0 - _COS_SNAP] = 1.0
    return g


def affinity_from_cosine(gram: np.ndarray) -> np.ndarray:
    """Cosine-similarity affinity: negatives floored at 0, zero diagonal.

    ``gram`` must be exactly symmetric, as ``cosine_gram`` and every
    principal submatrix of it are; the affinity is then symmetric too.
    """
    a = np.maximum(np.asarray(gram, dtype=np.float64), 0.0)
    np.fill_diagonal(a, 0.0)
    return a


def affinity_from_coefficients(y: np.ndarray) -> np.ndarray:
    """Symmetrized self-expression affinity A = |Y| + |Y|^T."""
    y = np.asarray(y, dtype=np.float64)
    if y.ndim != 2 or y.shape[0] != y.shape[1]:
        raise ValidationError("coefficient matrix must be square")
    if np.any(np.diag(y) != 0.0):
        raise ValidationError("coefficient matrix must have a zero diagonal")
    ay = np.abs(y)
    return ay + ay.T


@dataclass(frozen=True)
class SpectralEmbedding:
    """First k eigenvectors of L_rw (as columns) and their eigenvalues."""

    coords: np.ndarray
    eigenvalues: np.ndarray


def embed(affinity: np.ndarray, k: int) -> SpectralEmbedding:
    """Embed samples as the k smallest-eigenvalue eigenvectors of L_rw.

    L_sym is built in the affinity's own buffer, so the eigensolve holds no
    second n x n array: a writable float64 ``affinity`` is overwritten once
    it passes the checks, and a caller that reads it again passes a copy. A
    read-only one is copied, and another dtype converted by ``np.asarray``.
    """
    a = np.require(affinity, np.float64, "W")
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValidationError("affinity must be square")
    if k < 1 or k > a.shape[0]:
        raise ParameterError(f"k={k} out of range for {a.shape[0]} samples")
    if np.any(a < 0):
        raise ValidationError("affinity must be nonnegative")
    deg = a.sum(axis=1)
    if np.any(deg <= 0):
        bad = int(np.argmin(deg))
        raise ValidationError(
            f"sample {bad} has zero affinity degree; treat it as an outlier"
        )
    s = 1.0 / np.sqrt(deg)
    # s[i]*a[ij]*s[j] is exactly symmetric because each product commutes.
    # It, and then I minus it, are written over the affinity
    np.multiply(a, np.outer(s, s), out=a)
    np.subtract(np.eye(a.shape[0]), a, out=a)
    try:
        w, u = np.linalg.eigh(a)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigendecomposition failed: {exc}") from exc
    return SpectralEmbedding(coords=s[:, None] * u[:, :k], eigenvalues=w[:k])
