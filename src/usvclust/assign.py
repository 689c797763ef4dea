"""Cluster centroids and the final outlier assignment step.

After the inliers are clustered, each outlier joins the cluster whose
centroid it is most cosine-similar to; ties go to the lowest cluster index.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, ValidationError
from .outlier_split import Partition
from .preprocess import FeatureMatrix
from .spectral import checked_norms


@dataclass(frozen=True)
class ClusterModel:
    """Full clustering outcome over all samples.

    labels has one entry per sample (inliers and outliers alike);
    centroids holds the k inlier-mean rows used for outlier assignment.
    feature_shape is the (F, T) grid features were flattened from, when known.
    """

    ids: tuple[str, ...]
    labels: np.ndarray
    centroids: np.ndarray
    partition: Partition
    method: str
    feature_shape: tuple[int, int] | None = None

    @property
    def k(self) -> int:
        return len(self.centroids)

    @property
    def inlier_labels(self) -> np.ndarray:
        """The inlier-only labeling, in inlier order."""
        return self.labels[self.partition.inlier_idx]


def centroids(features: FeatureMatrix, labels: np.ndarray, k: int) -> np.ndarray:
    """Per-cluster means of the feature columns, as a k x d matrix; columns
    labelled -1 (outliers) are in no cluster. The means are plain averages,
    *not* re-normalized, so a centroid of unit vectors generally has norm below 1.
    """
    labels = np.asarray(labels, dtype=int)
    if labels.shape != (features.n,):
        raise ValidationError("one label per feature column required")
    if k < 1:
        raise ParameterError(f"k must be >= 1, got {k}")
    if labels.size and (labels.min() < -1 or labels.max() >= k):
        raise ValidationError(f"labels must lie in [-1, {k}), got {labels.min()}..{labels.max()}")
    out = np.empty((k, features.d))
    for c in range(k):
        members = np.flatnonzero(labels == c)
        if members.size == 0:
            raise ValidationError(f"cluster {c} has no members")
        out[c] = features.data[:, members].mean(axis=1)
    return out


def assign_outliers(features: FeatureMatrix, partition: Partition,
                    inlier_labels: np.ndarray, k: int, method: str,
                    feature_shape: tuple[int, int] | None = None) -> ClusterModel:
    """Attach every outlier to its most cosine-similar inlier centroid."""
    if partition.is_outlier.shape != (features.n,):
        raise ValidationError("one outlier flag per sample required")
    inlier_labels = np.asarray(inlier_labels, dtype=int)
    if inlier_labels.shape != (len(partition.inlier_idx),):
        raise ValidationError("one label per inlier required")
    if np.any(inlier_labels < 0):
        raise ValidationError("inlier labels must be >= 0")
    labels = np.full(features.n, -1)
    labels[partition.inlier_idx] = inlier_labels
    # the centroids read the inlier columns in place: no inlier copy is made
    cents = centroids(features, labels, k)
    unit_cents = cents / checked_norms(cents, 1, "centroid {}".format)[:, None]
    outliers = features.data[:, partition.outlier_idx]
    sims = unit_cents @ (outliers / checked_norms(outliers, 0, "outlier {}".format))
    # argmax takes the first maximum: ties go to the lowest index
    labels[partition.outlier_idx] = sims.argmax(axis=0)
    return ClusterModel(
        ids=features.ids, labels=labels, centroids=cents, partition=partition,
        method=method, feature_shape=feature_shape,
    )
