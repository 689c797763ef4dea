"""Splitting samples into inliers and outliers by nearest-neighbor cosine.

A sample is an outlier when its best cosine similarity to any *other*
sample is strictly below the threshold tau.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, ValidationError
from .preprocess import FeatureMatrix
from .spectral import cosine_gram


@dataclass(frozen=True)
class Partition:
    """Index sets of inliers and outliers, each ascending, plus the tau used."""

    inlier_idx: np.ndarray
    outlier_idx: np.ndarray
    tau: float

    def __post_init__(self):
        object.__setattr__(self, "inlier_idx", np.asarray(self.inlier_idx, dtype=int))
        object.__setattr__(self, "outlier_idx", np.asarray(self.outlier_idx, dtype=int))

    @property
    def n(self) -> int:
        return len(self.inlier_idx) + len(self.outlier_idx)


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


def split(features: FeatureMatrix, tau: float, gram: np.ndarray | None = None) -> Partition:
    """Partition the samples of ``features`` at threshold ``tau``.

    Parameters
    ----------
    features : FeatureMatrix
        At least two samples; each sample's nearest neighbor excludes itself.
    tau : float
        Similarity threshold in (-1, 1].
    gram : (n, n) array, optional
        Precomputed cosine similarity of the feature columns, if the caller
        already has it.
    """
    if not -1.0 < tau <= 1.0:
        raise ParameterError(f"tau must lie in (-1, 1], got {tau}")
    if features.n < 2:
        raise ParameterError("need at least 2 samples to define nearest neighbors")
    if gram is None:
        gram = cosine_gram(features.data)
    # best cosine to any other sample: the diagonal is masked out of the
    # row maxima rather than overwritten in a float copy of the matrix
    others = ~np.eye(features.n, dtype=bool)
    best = np.asarray(gram, dtype=np.float64).max(axis=1, where=others,
                                                  initial=-np.inf)
    outlier_mask = best < tau
    idx = np.arange(features.n)
    return Partition(inlier_idx=idx[~outlier_mask], outlier_idx=idx[outlier_mask], tau=tau)
