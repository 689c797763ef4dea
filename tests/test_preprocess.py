import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from oracles import reference_bicubic
from usvclust import synth
from usvclust.config import PreprocessConfig
from usvclust.errors import ParameterError, ValidationError
from usvclust.ingest import SegmentArchive, SpectroSegment
from usvclust.preprocess import (FeatureMatrix, clip_below_mean, keys_kernel,
                                 normalize_columns, resize_bicubic, vectorize,
                                 vectorize_segment)

nonneg_matrices = hnp.arrays(
    np.float64,
    st.tuples(st.integers(2, 9), st.integers(2, 9)),
    elements=st.floats(0, 100, allow_nan=False),
)


class TestClipBelowMean:
    def test_constant_unchanged(self):
        m = np.ones((2, 2))
        np.testing.assert_array_equal(clip_below_mean(m), m)

    def test_submean_already_zero(self):
        m = np.array([[0.0, 0.0], [0.0, 4.0]])  # mean 1
        np.testing.assert_array_equal(clip_below_mean(m), m)

    def test_hand_computed(self):
        m = np.array([[1.0, 2.0], [3.0, 6.0]])  # mean 3
        np.testing.assert_array_equal(clip_below_mean(m),
                                      np.array([[0.0, 0.0], [3.0, 6.0]]))

    @given(nonneg_matrices)
    def test_cells_at_or_above_mean_survive(self, m):
        out = clip_below_mean(m)
        mean = m.mean()
        assert np.all((out == 0) | (out == m))
        assert np.all(out[m >= mean] == m[m >= mean])
        assert np.all(out[m < mean] == 0)


class TestKeysKernel:
    def test_interpolating_at_integers(self):
        assert keys_kernel(0.0) == 1.0
        assert keys_kernel(1.0) == 0.0
        assert keys_kernel(-1.0) == 0.0
        assert keys_kernel(2.0) == 0.0
        assert keys_kernel(3.5) == 0.0

    @given(st.floats(-3, 3))
    def test_even_function(self, x):
        assert keys_kernel(x) == keys_kernel(-x)

    @given(st.floats(0, 1, exclude_max=True))
    def test_partition_of_unity(self, frac):
        # the four taps covering any position sum to 1 for the Keys kernel
        taps = np.array([frac + 1.0, frac, frac - 1.0, frac - 2.0])
        assert abs(keys_kernel(taps).sum() - 1.0) < 1e-12


class TestResizeBicubic:
    def test_constant_preserved(self):
        for c in (0.0, 1.0, 3.7):
            out = resize_bicubic(np.full((5, 7), c), 9, 4)
            np.testing.assert_allclose(out, c, atol=1e-12)

    def test_identity_resize(self):
        rng = np.random.default_rng(0)
        m = rng.uniform(0, 10, (6, 8))
        np.testing.assert_allclose(resize_bicubic(m, 6, 8), m, atol=1e-12)

    def test_ramp_matches_reference(self):
        # 4x4 bilinear ramp upsized to 8x8
        r = np.arange(4.0)
        ramp = np.add.outer(r, r)
        out = resize_bicubic(ramp, 8, 8)
        ref = reference_bicubic(ramp, 8, 8)
        np.testing.assert_allclose(out, ref, atol=1e-9)

    @settings(max_examples=30, deadline=None)
    @given(nonneg_matrices, st.integers(2, 12), st.integers(2, 12))
    def test_matches_reference(self, m, f, t):
        np.testing.assert_allclose(resize_bicubic(m, f, t),
                                   reference_bicubic(m, f, t), atol=1e-9)

    @given(nonneg_matrices)
    def test_nonnegative_output(self, m):
        assert np.all(resize_bicubic(m, 5, 5) >= 0)

    def test_output_shape(self):
        assert resize_bicubic(np.ones((3, 17)), 7, 5).shape == (7, 5)

    def test_too_small_target(self):
        with pytest.raises(ParameterError):
            resize_bicubic(np.ones((4, 4)), 1, 4)


class TestVectorize:
    def test_constant_segment(self):
        arc = SegmentArchive((SpectroSegment("a", np.full((2, 2), 5.0)),))
        fm = vectorize(arc, PreprocessConfig(2, 2))
        np.testing.assert_allclose(fm.data[:, 0], 0.5, atol=1e-12)

    def test_identical_segments_identical_columns(self):
        e = np.random.default_rng(3).uniform(0, 4, (5, 6))
        arc = SegmentArchive((SpectroSegment("a", e), SpectroSegment("b", e.copy())))
        fm = vectorize(arc, PreprocessConfig(4, 4))
        np.testing.assert_array_equal(fm.data[:, 0], fm.data[:, 1])

    def test_shape_contract(self):
        rng = np.random.default_rng(4)
        arc = SegmentArchive(tuple(
            SpectroSegment(f"s{i}", rng.uniform(0, 2, (3 + i, 4))) for i in range(3)))
        fm = vectorize(arc, PreprocessConfig(6, 5))
        assert fm.n == 3 and fm.d == 30
        assert fm.ids == ("s0", "s1", "s2")

    def test_column_major_flatten(self):
        e = np.array([[1.0, 2.0], [3.0, 4.0]])  # mean 2.5 clips the top row
        arc = SegmentArchive((SpectroSegment("a", e),))
        fm = vectorize(arc, PreprocessConfig(2, 2))
        flat = np.array([[0.0, 0.0], [3.0, 4.0]]).flatten(order="F")
        np.testing.assert_allclose(fm.data[:, 0], flat / np.linalg.norm(flat),
                                   atol=1e-12)

    def test_empty_archive_rejected(self):
        with pytest.raises(ValidationError):
            vectorize(SegmentArchive(()), PreprocessConfig(2, 2))

    def test_unit_norm_columns(self):
        rng = np.random.default_rng(5)
        arc = SegmentArchive(tuple(
            SpectroSegment(f"s{i}", rng.uniform(0, 9, (6, 7))) for i in range(4)))
        fm = vectorize(arc, PreprocessConfig(8, 8))
        np.testing.assert_allclose(np.linalg.norm(fm.data, axis=0), 1.0, atol=1e-12)

    @settings(max_examples=25, deadline=None)
    @given(nonneg_matrices, st.floats(1e-3, 1e3))
    def test_scale_invariance(self, m, c):
        mean = m.mean()
        # stay away from cells sitting exactly on the clip threshold,
        # where scaling could flip the comparison
        assume(mean > 0)
        assume(np.all(np.abs(m - mean) > 1e-9 * max(mean, 1.0)))
        vectors = []
        for energy in (m, c * m):
            try:
                vectors.append(vectorize_segment(SpectroSegment("a", energy),
                                                 PreprocessConfig(4, 4)))
            except ValidationError:  # all zero once clipped and resized
                vectors.append(None)
        if vectors[0] is None:
            assert vectors[1] is None
        else:
            np.testing.assert_allclose(vectors[1], vectors[0], atol=1e-12)

    def test_all_zero_named_in_error(self):
        arc = SegmentArchive((SpectroSegment("dead", np.zeros((3, 3))),))
        with pytest.raises(ValidationError, match="dead"):
            vectorize(arc, PreprocessConfig(2, 2))

    @pytest.mark.parametrize("energy, what", [
        (np.zeros((3, 3)), "is all zero"),
        (np.full((2, 2), 1e200), "has norm inf"),  # overflows once squared
        (np.full((2, 2), 1e308), "has norm inf"),  # overflows in the mean
        (np.full((2, 2), 1e-170), "has norm 0.0"),  # underflows once squared
        # finite for 4 cells, overflowing once resized to 16
        (np.full((2, 2), 6e153), "after clipping and resizing has norm inf"),
        # a lone corner spike that bicubic downsampling maps only onto a
        # negative lobe, which is clamped to zero
        (np.eye(16, 4, -15), "after clipping and resizing is all zero"),
    ])
    def test_refusal_names_the_segment_without_warning(self, energy, what):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError) as err:
                vectorize_segment(SpectroSegment("a", energy), PreprocessConfig(4, 4))
        assert str(err.value) == f"segment 'a' {what}"


@pytest.fixture(scope="module")
def mixed_archive():
    """200 segments of 72 distinct shapes."""
    return synth.generate_segments(200, 5, 1, outlier_frac=0.1)[0]


def traced_peak(fn):
    """fn's result and the most memory it held at once, in bytes."""
    tracemalloc.start()
    try:
        return fn(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestFeatureMatrixBuild:
    """vectorize fills one D x N array, and select copies only the columns."""

    def test_vectorize_holds_one_matrix(self, mixed_archive):
        fm, peak = traced_peak(lambda: vectorize(mixed_archive, PreprocessConfig()))
        assert fm.d == 64 * 64
        assert peak < 1.25 * fm.data.nbytes

    def test_select_holds_one_matrix(self, mixed_archive):
        fm = vectorize(mixed_archive, PreprocessConfig())
        idx = np.arange(fm.n)[20:][::-1]  # 180 columns, reordered
        sub, peak = traced_peak(lambda: fm.select(idx))
        assert sub.n == len(idx)
        assert peak < 1.25 * sub.data.nbytes

    def test_vectorize_equals_stacked_segments(self, mixed_archive):
        config = PreprocessConfig(12, 10)
        fm = vectorize(mixed_archive, config)
        stacked = np.column_stack([vectorize_segment(seg, config)
                                   for seg in mixed_archive.segments])
        assert fm.data.flags.c_contiguous
        np.testing.assert_array_equal(fm.data.view(np.int64), stacked.view(np.int64))


class TestFeatureMatrix:
    def test_id_count_enforced(self):
        with pytest.raises(ValidationError):
            FeatureMatrix(np.eye(2), ("a",))

    def test_select_preserves_order(self):
        fm = FeatureMatrix(np.eye(3), ("a", "b", "c"))
        sub = fm.select([2, 0])
        assert sub.ids == ("c", "a")
        np.testing.assert_array_equal(sub.data, np.eye(3)[:, [2, 0]])

    def test_normalize_columns(self):
        fm = normalize_columns(np.array([[3.0, 0.0], [4.0, 2.0]]), ("a", "b"))
        np.testing.assert_allclose(np.linalg.norm(fm.data, axis=0), 1.0)

    def test_normalize_checks_id_count_before_norms(self):
        # the zero third column has no id to name in a norm refusal
        with pytest.raises(ValidationError, match="^3 columns but 2 ids$"):
            normalize_columns(np.array([[1.0, 1.0, 0.0], [0.0, 1.0, 0.0]]), ("a", "b"))

    def test_normalize_rejects_zero_column(self):
        with pytest.raises(ValidationError, match="'b'"):
            normalize_columns(np.array([[1.0, 0.0], [0.0, 0.0]]), ("a", "b"))

    @pytest.mark.parametrize("value, norm", [(np.nan, "nan"), (np.inf, "inf"),
                                             (-np.inf, "inf"), (1e308, "inf")])
    def test_normalize_rejects_non_finite_norm_without_warning(self, value, norm):
        data = np.array([[1.0, 0.5, 2.0], [0.0, value, 1.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match=rf"column 1 \('b'\) has norm {norm}$"):
                normalize_columns(data, ("a", "b", "c"))


def test_config_validation():
    with pytest.raises(ParameterError):
        PreprocessConfig(1, 64)
