"""Splitting samples into inliers and outliers by nearest-neighbor cosine.

A sample is an outlier when its best cosine similarity to any *other*
sample is strictly below the threshold tau.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError
from .preprocess import FeatureMatrix
from .spectral import cosine_gram


@dataclass(frozen=True)
class Partition:
    """One outlier flag per sample; the index sets are derived, ascending."""

    is_outlier: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "is_outlier", np.asarray(self.is_outlier, dtype=bool))

    @property
    def inlier_idx(self) -> np.ndarray:
        return np.flatnonzero(~self.is_outlier)

    @property
    def outlier_idx(self) -> np.ndarray:
        return np.flatnonzero(self.is_outlier)


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
    return Partition(best < tau)
