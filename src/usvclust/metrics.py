"""Inter-centroid distance statistics.

Quality of a clustering is summarized by the harmonic mean and the
population standard deviation of the pairwise cosine distances between
cluster centroids, each computed twice: once over inlier members only and
once with assigned outliers folded into the means.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, fields

import numpy as np

from .assign import ClusterModel, centroids
from .config import _open_output
from .errors import ParameterError, ValidationError
from .preprocess import FeatureMatrix
from .spectral import cosine_gram


def _text(value) -> str:
    """A report value as text: floats as %.17g, cluster sizes comma-joined."""
    if isinstance(value, float):
        return "%.17g" % value
    if isinstance(value, tuple):
        return ",".join(str(s) for s in value)
    return str(value)


@dataclass(frozen=True)
class MetricsReport:
    """Distance statistics for one clustering, plus the cluster sizes.

    The field order is the ``metrics.txt`` line order; every field but the
    two size tuples is a ``metrics.csv`` column. cluster_sizes counts
    inlier members per cluster; cluster_sizes_full counts all members
    after outlier assignment.
    """

    method: str
    k: int
    d_cos_hmean: float
    d_cos_std: float
    d_cos_hmean_full: float
    d_cos_std_full: float
    cluster_sizes: tuple[int, ...]
    cluster_sizes_full: tuple[int, ...]

    def to_lines(self) -> list[str]:
        """Flat ``key=value`` lines, one per field."""
        return [f"{fld.name}={_text(getattr(self, fld.name))}" for fld in fields(self)]

    @staticmethod
    def csv_header() -> str:
        return ",".join(fld.name for fld in fields(MetricsReport)[:-2])

    def csv_row(self) -> str:
        return ",".join(_text(getattr(self, fld.name)) for fld in fields(self)[:-2])


def write_report(rep: MetricsReport, path) -> None:
    with _open_output(path) as fh:
        for line in rep.to_lines():
            fh.write(line)
            fh.write("\n")


def pairwise_cosine_distances(cents: np.ndarray) -> np.ndarray:
    """Unordered pairwise distances 1 - cos(c_i, c_j), i < j, sorted.

    Sorting fixes the order in which every downstream statistic sums the
    distances, but not the distances' last bits: BLAS rounds each Gram entry
    by its position, so renumbering the clusters can move a statistic by a
    few units in the last place.
    """
    cents = np.asarray(cents, dtype=np.float64)
    if cents.ndim != 2 or cents.shape[0] < 2:
        raise ParameterError("need a K x d matrix with K >= 2")
    g = cosine_gram(cents.T, "centroid {}".format)
    iu = np.triu_indices(cents.shape[0], k=1)
    return np.sort(1.0 - g[iu])


def distance_stats(cents: np.ndarray) -> tuple[float, float]:
    """Harmonic mean and population std of inter-centroid cosine distances.

    Both come from one ``pairwise_cosine_distances`` array. The harmonic
    mean averages 1/(1 - cos(c_i, c_j)) over all ordered pairs i != j and
    inverts. A parallel pair makes a term infinite; the limit value 0.0 is
    returned with a warning so parameter sweeps keep running.
    """
    d = pairwise_cosine_distances(cents)
    std = float(np.std(d))
    if np.any(d == 0.0):
        warnings.warn(
            "two centroids are parallel (cosine distance 0); harmonic mean "
            "collapses to 0",
            RuntimeWarning,
        )
        return 0.0, std
    # ordered pairs double each of the d.size = K(K-1)/2 unordered terms,
    # so the 2s cancel
    return d.size / float((1.0 / d).sum()), std


def _sizes(labels: np.ndarray, k: int) -> tuple[int, ...]:
    return tuple(int(c) for c in np.bincount(labels, minlength=k))


def report(features: FeatureMatrix, model: ClusterModel) -> MetricsReport:
    """Compute both statistics for a finished model.

    Inlier-only values use the model's stored centroids; the "full" values
    recompute each centroid as the mean over every member the final
    labeling assigns to it, outliers included.
    """
    if model.k < 2:
        raise ParameterError(f"metrics need K >= 2 clusters, got {model.k}")
    sizes = _sizes(model.inlier_labels, model.k)
    if any(s == 0 for s in sizes):
        empty = next(c for c, s in enumerate(sizes) if s == 0)
        raise ValidationError(f"cluster {empty} has no inlier members")
    hmean, std = distance_stats(model.centroids)
    hmean_full, std_full = distance_stats(centroids(features, model.labels, model.k))
    return MetricsReport(
        k=model.k,
        method=model.method,
        d_cos_hmean=hmean,
        d_cos_std=std,
        d_cos_hmean_full=hmean_full,
        d_cos_std_full=std_full,
        cluster_sizes=sizes,
        cluster_sizes_full=_sizes(model.labels, model.k),
    )
