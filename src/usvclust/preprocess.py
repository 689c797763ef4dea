"""Turning raw segments into unit-norm feature vectors.

Each segment is background-clipped (cells below its mean are zeroed),
resized to a fixed F x T grid with bicubic interpolation, flattened
column by column and L2-normalized.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .config import PreprocessConfig  # also imported from here: perfbench does
from .errors import ParameterError, ValidationError
from .ingest import SegmentArchive, SpectroSegment
from .spectral import checked_norms

KEYS_A = -0.5


@dataclass(frozen=True)
class FeatureMatrix:
    """D x N unit-norm feature columns (made so by its builders) plus the sample ids."""

    data: np.ndarray
    ids: tuple[str, ...]

    def __post_init__(self):
        data = np.asarray(self.data, dtype=np.float64)
        object.__setattr__(self, "data", data)
        object.__setattr__(self, "ids", tuple(self.ids))
        if data.ndim != 2:
            raise ValidationError("feature data must be 2-D")
        if data.shape[1] != len(self.ids):
            raise ValidationError(f"{data.shape[1]} columns but {len(self.ids)} ids")

    @property
    def d(self) -> int:
        return self.data.shape[0]

    @property
    def n(self) -> int:
        return self.data.shape[1]

    def select(self, idx) -> "FeatureMatrix":
        """Sub-matrix keeping the given sample indices, order preserved."""
        idx = np.asarray(idx, dtype=int)
        return FeatureMatrix(self.data[:, idx], tuple(self.ids[i] for i in idx))


def clip_below_mean(energy: np.ndarray) -> np.ndarray:
    """Zero every cell strictly below the mean of the whole matrix."""
    energy = np.asarray(energy, dtype=np.float64)
    return np.where(energy >= energy.mean(), energy, 0.0)


def keys_kernel(x) -> np.ndarray:
    """Cubic convolution kernel with a = -0.5; support (-2, 2)."""
    x = np.abs(np.asarray(x, dtype=np.float64))
    a = KEYS_A
    out = np.zeros_like(x)
    near = x <= 1.0
    far = (x > 1.0) & (x < 2.0)
    out[near] = ((a + 2.0) * x[near] - (a + 3.0)) * x[near] ** 2 + 1.0
    out[far] = (((x[far] - 5.0) * x[far] + 8.0) * x[far] - 4.0) * a
    return out


@lru_cache(maxsize=None)
def _resize_weights(n_in: int, n_out: int) -> np.ndarray:
    """Row k holds the kernel taps mapping n_in source samples to output k.

    Source coordinates use pixel-center alignment; taps that fall outside
    the grid are clamped to the nearest edge sample (edge replication), so
    each row still sums to 1. Memoized: an archive has only a few distinct
    (n_in, n_out) pairs, so the result is shared and read-only.
    """
    x = (np.arange(n_out) + 0.5) * (n_in / n_out) - 0.5
    src = np.floor(x).astype(int)[:, None] + np.arange(-1, 3)  # 4 taps per row
    taps = keys_kernel(x[:, None] - src)
    rows = np.repeat(np.arange(n_out), 4)
    w = np.zeros((n_out, n_in))
    # unbuffered and in tap order, so clamped taps sum as a scalar loop would
    np.add.at(w, (rows, np.clip(src, 0, n_in - 1).ravel()), taps.ravel())
    w.flags.writeable = False
    return w


def resize_bicubic(energy: np.ndarray, f: int, t: int) -> np.ndarray:
    """Resize a nonnegative matrix to f x t; negative ringing is clamped to 0."""
    energy = np.asarray(energy, dtype=np.float64)
    if energy.ndim != 2:
        raise ValidationError("energy must be 2-D")
    if f < 2 or t < 2:
        raise ParameterError(f"target grid must be at least 2x2, got {f}x{t}")
    wf = _resize_weights(energy.shape[0], f)
    wt = _resize_weights(energy.shape[1], t)
    out = wf @ energy @ wt.T
    return np.maximum(out, 0.0)


def vectorize_segment(segment: SpectroSegment, config: PreprocessConfig) -> np.ndarray:
    """clip -> resize -> column-major flatten -> unit norm, for one segment."""
    with np.errstate(over="ignore", invalid="ignore"):
        resized = resize_bicubic(clip_below_mean(segment.energy), config.f, config.t)
        vec = resized.flatten(order="F")
        norm = np.linalg.norm(vec)
    # a scalar guard keeps checked_norms off the hot path; it refuses the
    # raw energy, or else this vector, whose norm it computes as here
    if not 0.0 < norm < np.inf:
        checked_norms(segment.energy, None, f"segment {segment.id!r}".format)
        checked_norms(vec, None, f"segment {segment.id!r} after clipping and resizing".format)
    return vec / norm


def vectorize(archive: SegmentArchive, config: PreprocessConfig | None = None) -> FeatureMatrix:
    """Preprocess every segment in the archive, preserving order."""
    if config is None:
        config = PreprocessConfig()
    if len(archive) == 0:
        raise ValidationError("archive holds no segments")
    data = np.empty((config.f * config.t, len(archive)))  # C order, as np.column_stack gives
    for j, seg in enumerate(archive.segments):
        data[:, j] = vectorize_segment(seg, config)
    return FeatureMatrix(data, archive.ids)


def normalize_columns(data: np.ndarray, ids) -> FeatureMatrix:
    """Build a FeatureMatrix from raw vectors by L2-normalizing each column.

    A column whose norm is zero, or not finite (a non-finite value, or
    one whose square overflows), is refused.
    """
    raw = FeatureMatrix(data, ids)  # refuses a shape or id count before any norm
    norms = checked_norms(raw.data, 0, lambda col: f"column {col} ({raw.ids[col]!r})")
    return FeatureMatrix(raw.data / norms, raw.ids)
