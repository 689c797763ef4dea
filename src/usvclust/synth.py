"""Synthetic data with known ground truth.

Two generators: union-of-subspaces vector data (the classic sparse
subspace clustering benchmark) and procedural spectrogram-like segments
built from Gaussian-ridged frequency contours.
"""

from __future__ import annotations

import numpy as np

# SubspaceSpec is also imported from here
from .config import FAMILIES, SubspaceSpec, check_segment_params
from .errors import ParameterError
from .ingest import SegmentArchive, SpectroSegment
from .preprocess import normalize_columns


def generate_subspaces(spec: SubspaceSpec):
    """Sample unit vectors from random subspaces plus sphere outliers.

    Returns (FeatureMatrix, labels); outliers carry label -1 and sit at the
    end. Each subspace gets a uniformly random orthonormal basis, points are
    standard-normal combinations of it, isotropic noise of scale
    ``noise_sigma`` is added and every column is normalized.
    """
    rng = np.random.default_rng(spec.seed)
    cols = []
    ids = []
    labels = []
    for i, dim in enumerate(spec.dims):
        basis, _ = np.linalg.qr(rng.standard_normal((spec.ambient_dim, dim)))
        coeffs = rng.standard_normal((dim, spec.points_per))
        pts = basis @ coeffs
        if spec.noise_sigma > 0:
            pts = pts + spec.noise_sigma * rng.standard_normal(pts.shape)
        cols.append(pts)
        ids.extend(f"s{i}_p{j}" for j in range(spec.points_per))
        labels.extend([i] * spec.points_per)
    if spec.outlier_count:
        cols.append(rng.standard_normal((spec.ambient_dim, spec.outlier_count)))
        ids.extend(f"out_{j}" for j in range(spec.outlier_count))
        labels.extend([-1] * spec.outlier_count)
    data = np.concatenate(cols, axis=1)
    return normalize_columns(data, ids), np.array(labels, dtype=int)


def _contour(family: str, x: np.ndarray, jitter: float) -> np.ndarray:
    """Normalized ridge-center height (0..1) along the segment, x in [0, 1]."""
    if family == "up":
        base = 0.10 + 0.80 * x
    elif family == "down":
        base = 0.90 - 0.80 * x
    elif family == "u":
        base = 0.25 + 0.55 * (2.0 * x - 1.0) ** 2
    elif family == "arch":
        base = 0.75 - 0.55 * (2.0 * x - 1.0) ** 2
    else:
        raise ParameterError(f"unknown contour family {family!r}")
    return base + jitter


# vertical wander of the whole contour around the family shape
_JITTER = 0.04


def _render_inlier(family: str, rng: np.random.Generator) -> np.ndarray:
    n_freq = int(rng.integers(64, 81))
    n_time = int(rng.integers(14, 19))
    sigma = rng.uniform(2.0, 3.4)
    amp = rng.uniform(0.8, 1.25)
    # loudness drifts along the call; a pure per-column scale, so the
    # per-column argmax stays on the contour
    tilt = rng.uniform(-0.15, 0.15)
    rows = np.arange(n_freq, dtype=np.float64)
    x = np.arange(n_time) / (n_time - 1)
    jitter = rng.uniform(-_JITTER, _JITTER)
    if family == "flat":
        row = round((0.5 + jitter) * n_freq)
        r = np.full(n_time, float(row))
    else:
        r = _contour(family, x, jitter) * n_freq
    profile = 1.0 + tilt * (2.0 * x - 1.0)
    energy = amp * profile[None, :] * np.exp(
        -((rows[:, None] - r[None, :]) ** 2) / (2.0 * sigma**2))
    # recording noise floor, varying a little from call to call
    floor = rng.uniform(0.005, 0.03) * amp
    energy += rng.uniform(0.0, floor, size=energy.shape)
    return energy


def _render_outlier(rng: np.random.Generator) -> np.ndarray:
    n_freq = int(rng.integers(64, 81))
    n_time = int(rng.integers(14, 19))
    amp = rng.uniform(0.8, 1.25)
    rows = np.arange(n_freq, dtype=np.float64)[:, None]
    cols = np.arange(n_time, dtype=np.float64)[None, :]
    energy = np.zeros((n_freq, n_time))
    for _ in range(int(rng.integers(2, 6))):
        cr = rng.uniform(0, n_freq - 1)
        cc = rng.uniform(0, n_time - 1)
        sr = rng.uniform(1.0, 3.0)
        sc = rng.uniform(1.0, 3.0)
        energy += rng.uniform(0.3, 1.0) * amp * np.exp(
            -((rows - cr) ** 2) / (2.0 * sr**2) - ((cols - cc) ** 2) / (2.0 * sc**2)
        )
    energy += rng.uniform(0.0, 0.01 * amp, size=energy.shape)
    return energy


def generate_segments(n: int, shape_classes: int, seed: int,
                      outlier_frac: float = 0.0):
    """Render ``n`` segments over the first ``shape_classes`` contour
    families, optionally replacing a fraction with blob-field outliers.

    Returns (SegmentArchive, labels); inliers cycle through the families
    and outliers (label -1) are appended at the end.
    """
    check_segment_params(n, shape_classes, seed, outlier_frac)
    rng = np.random.default_rng(seed)
    n_out = int(round(n * outlier_frac))
    n_in = n - n_out
    segments = []
    labels = []
    for i in range(n_in):
        cls = i % shape_classes
        family = FAMILIES[cls]
        segments.append(SpectroSegment(f"s{i:04d}_{family}", _render_inlier(family, rng)))
        labels.append(cls)
    for j in range(n_out):
        segments.append(SpectroSegment(f"s{n_in + j:04d}_out", _render_outlier(rng)))
        labels.append(-1)
    return SegmentArchive(tuple(segments)), np.array(labels, dtype=int)
