import tracemalloc

import numpy as np
import pytest

from oracles import assign_outliers_loop, cosine_similarity
from usvclust import ingest
from usvclust.assign import ClusterModel, assign_outliers, centroids
from usvclust.errors import ValidationError
from usvclust.outlier_split import Partition, split
from usvclust.preprocess import FeatureMatrix, PreprocessConfig, normalize_columns, vectorize
from usvclust.synth import generate_segments


def unit_features(raw):
    raw = np.asarray(raw, dtype=float)
    data = raw / np.linalg.norm(raw, axis=0)
    return FeatureMatrix(data, tuple(f"s{i}" for i in range(raw.shape[1])))


class TestCentroids:
    def test_mean_of_two_points(self):
        fm = unit_features(np.array([[1.0, 0.0], [0.0, 1.0]]))
        cents = centroids(fm, np.array([0, 0]), 1)
        np.testing.assert_array_equal(cents, [[0.5, 0.5]])

    def test_singleton(self):
        fm = unit_features(np.array([[1.0, 0.0], [0.0, 1.0]]))
        cents = centroids(fm, np.array([0, 1]), 2)
        np.testing.assert_array_equal(cents, np.eye(2))

    def test_two_clusters_hand_means(self):
        raw = np.array([[1.0, 0.0, 0.0, 3.0],
                        [0.0, 1.0, 4.0, 0.0]])
        fm = unit_features(raw)
        cents = centroids(fm, np.array([0, 1, 1, 0]), 2)
        np.testing.assert_allclose(cents[0], (fm.data[:, 0] + fm.data[:, 3]) / 2)
        np.testing.assert_allclose(cents[1], (fm.data[:, 1] + fm.data[:, 2]) / 2)

    def test_not_renormalized(self):
        fm = unit_features(np.array([[1.0, 0.0], [0.0, 1.0]]))
        cents = centroids(fm, np.array([0, 0]), 1)
        assert np.linalg.norm(cents[0]) < 1.0

    def test_empty_cluster_named(self):
        fm = unit_features(np.eye(3))
        with pytest.raises(ValidationError, match="cluster 2"):
            centroids(fm, np.array([0, 1, 1]), 3)

    def test_label_range_checked(self):
        fm = unit_features(np.eye(2))
        for labels in ([0, 5], [0, -2]):
            with pytest.raises(ValidationError, match=r"labels must lie in \[-1, 2\)"):
                centroids(fm, np.array(labels), 2)

    def test_minus_one_is_in_no_cluster(self):
        rng = np.random.default_rng(4)
        fm = unit_features(rng.standard_normal((5, 8)))
        labels = np.array([1, -1, 0, 0, -1, 1, 1, -1])
        kept = np.flatnonzero(labels >= 0)
        cents = centroids(fm, labels, 2)
        assert cents.tobytes() == centroids(fm.select(kept), labels[kept], 2).tobytes()


class TestAssignOutliers:
    def _assign(self, raw, outlier_idx, inlier_labels, k):
        fm = unit_features(raw)
        part = Partition(np.isin(np.arange(fm.n), outlier_idx))
        return assign_outliers(fm, part, np.array(inlier_labels), k, "kmeans")

    def test_outlier_identical_to_centroid(self):
        # clusters are singleton axis vectors; the outlier duplicates
        # centroid 2 and must land there
        raw = np.concatenate([np.eye(3), np.eye(3)[:, [2]]], axis=1)
        model = self._assign(raw, [3], [0, 1, 2], 3)
        assert model.labels[3] == 2

    def test_equal_cosine_tie_goes_low(self):
        # outlier at (c, c) has bitwise-equal cosine to both axis centroids
        raw = np.array([[1.0, 0.0, 1.0],
                        [0.0, 1.0, 1.0]])
        model = self._assign(raw, [2], [0, 1], 2)
        assert model.labels[2] == 0

    def test_matches_pairwise_cosine_table(self):
        rng = np.random.default_rng(0)
        raw = rng.standard_normal((6, 14))
        inlier_idx = list(range(9))
        outlier_idx = list(range(9, 14))
        inlier_labels = [0, 0, 0, 1, 1, 1, 2, 2, 2]
        model = self._assign(raw, outlier_idx, inlier_labels, 3)
        fm = unit_features(raw)
        cents = centroids(fm.select(inlier_idx), np.array(inlier_labels), 3)
        for o in outlier_idx:
            sims = [cosine_similarity(fm.data[:, o], cents[j]) for j in range(3)]
            assert model.labels[o] == int(np.argmax(sims))

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_per_outlier_loop(self, seed):
        rng = np.random.default_rng(seed)
        fm = unit_features(rng.standard_normal((16, 90)))
        inlier_idx = np.arange(0, 90, 3)
        part = Partition(np.isin(np.arange(90), inlier_idx, invert=True))
        model = assign_outliers(fm, part, np.arange(30) % 5, 5, "kmeans")
        ref = assign_outliers_loop(fm.data, part.outlier_idx, model.centroids)
        assert {int(i): int(model.labels[i]) for i in part.outlier_idx} == ref

    def test_exact_tie_between_two_centroids_goes_to_the_lower(self):
        # centroids e3, e1, e2; outlier 3 is tied between clusters 1 and 2,
        # outlier 4 lies nearest cluster 0
        raw = np.array([[0.0, 1.0, 0.0, 1.0, 0.1],
                        [0.0, 0.0, 1.0, 1.0, 0.0],
                        [1.0, 0.0, 0.0, 0.0, 1.0]])
        model = self._assign(raw, [3, 4], [0, 1, 2], 3)
        assert model.labels[3:].tolist() == [1, 0]
        fm = unit_features(raw)
        assert assign_outliers_loop(fm.data, [3, 4], model.centroids) == {3: 1, 4: 0}

    def test_inlier_labels_unchanged(self):
        rng = np.random.default_rng(1)
        raw = rng.standard_normal((5, 10))
        labels = [1, 0, 1, 0, 1, 0]
        model = self._assign(raw, [6, 7, 8, 9], labels, 2)
        assert model.labels[:6].tolist() == labels
        assert model.inlier_labels.tolist() == labels

    def test_rescaling_outlier_invariant(self):
        # cosine ignores positive scale, so the argmax must too; feed the
        # scaled copy in via a raw matrix with one stretched column
        rng = np.random.default_rng(2)
        raw = rng.standard_normal((4, 7))
        base = self._assign(raw, [5, 6], [0, 0, 1, 1, 1], 2)
        raw2 = raw.copy()
        raw2[:, 5] *= 37.0
        scaled = self._assign(raw2, [5, 6], [0, 0, 1, 1, 1], 2)
        assert base.labels.tolist() == scaled.labels.tolist()

    def test_no_outliers(self):
        raw = np.eye(3)
        model = self._assign(raw, [], [0, 1, 2], 3)
        assert model.labels.tolist() == [0, 1, 2]
        assert model.k == 3

    def test_no_outliers_gives_the_inlier_model(self):
        rng = np.random.default_rng(5)
        fm = unit_features(rng.standard_normal((6, 12)))
        part = Partition(np.zeros(12, dtype=bool))
        labels = np.arange(12) % 4
        model = assign_outliers(fm, part, labels, 4, "lasso_ssc", feature_shape=(2, 3))
        assert model.labels.dtype == labels.dtype
        assert model.labels.tobytes() == labels.tobytes()
        assert model.centroids.tobytes() == centroids(fm, labels, 4).tobytes()
        assert model.partition is part
        assert (model.ids, model.method, model.feature_shape) == (fm.ids, "lasso_ssc", (2, 3))

    def test_zero_centroid_refused(self):
        # members 0 and 1 cancel; refused whether or not a sample is an outlier
        fm = unit_features(np.array([[1.0, -1.0, 0.0, 1.0], [0.0, 0.0, 1.0, 1.0]]))
        for outliers in ([], [3]):
            part = Partition(np.isin(np.arange(4), outliers))
            labels = np.array([0, 0, 1, 1])[part.inlier_idx]
            with pytest.raises(ValidationError, match=r"^centroid 0 is all zero$"):
                assign_outliers(fm, part, labels, 2, "kmeans")

    @pytest.mark.parametrize("stored", ["k", "inlier_labels"])
    def test_derived_values_are_not_arguments(self, stored):
        # k is len(centroids) and inlier_labels is labels[inlier_idx]
        model = self._assign(np.eye(3), [2], [0, 1], 2)
        fields = dict(ids=model.ids, labels=model.labels, centroids=model.centroids,
                      partition=model.partition, method=model.method)
        with pytest.raises(TypeError, match=stored):
            ClusterModel(**fields, **{stored: getattr(model, stored)})
        rebuilt = ClusterModel(**fields)
        assert rebuilt.k == 2
        assert rebuilt.inlier_labels.tolist() == [0, 1]

    def test_label_count_mismatch(self):
        fm = unit_features(np.eye(3))
        part = Partition(np.array([False, False, True]))
        with pytest.raises(ValidationError):
            assign_outliers(fm, part, np.array([0]), 1, "kmeans")

    @pytest.mark.parametrize("n_flags", [4, 7])
    def test_one_flag_per_sample(self, n_flags):
        # a shorter mask would leave the last samples' labels unset
        fm = unit_features(np.eye(6) + 0.1)
        part = Partition(np.arange(n_flags) == 3)
        with pytest.raises(ValidationError, match="one outlier flag per sample"):
            assign_outliers(fm, part, np.array([0, 1, 1]), 2, "kmeans")

    def test_inlier_label_minus_one_refused(self):
        # -1 marks an outlier for centroids; an inlier must name its cluster
        fm = unit_features(np.eye(3) + 0.1)
        part = Partition(np.array([False, False, True]))
        with pytest.raises(ValidationError, match="inlier labels must be >= 0"):
            assign_outliers(fm, part, np.array([0, -1]), 1, "kmeans")


def segment_features(tmp_path, layout):
    """Unit features of a synthetic archive: C-ordered as ``vectorize``
    builds them, or F-ordered as ``normalize_columns`` of a vector table."""
    archive, _ = generate_segments(60, 4, 2, outlier_frac=0.1)
    fm = vectorize(archive, PreprocessConfig(f=16, t=16))
    if layout == "F":
        ingest.write_vectors(fm.ids, fm.data.T, tmp_path / "v.csv")
        fm = normalize_columns(ingest.read_vectors(tmp_path / "v.csv")[1].T, fm.ids)
    assert fm.data.flags[f"{layout}_CONTIGUOUS"]
    return fm


class TestAssignInPlace:
    """assign_outliers reads the inlier columns of ``features`` in place."""

    @pytest.mark.parametrize("layout", ["C", "F"])
    def test_same_bits_as_the_inlier_copy(self, tmp_path, layout):
        fm = segment_features(tmp_path, layout)
        part = split(fm, 0.8)
        assert part.outlier_idx.size
        labels = np.arange(len(part.inlier_idx)) % 4
        model = assign_outliers(fm, part, labels, 4, "kmeans")
        expected = centroids(fm.select(part.inlier_idx), labels, 4)
        assert model.centroids.tobytes() == expected.tobytes()
        ref = assign_outliers_loop(fm.data, part.outlier_idx, expected)
        assert {int(i): int(model.labels[i]) for i in part.outlier_idx} == ref

    def test_peak_well_under_one_inlier_copy(self):
        rng = np.random.default_rng(6)
        fm = unit_features(rng.standard_normal((2000, 200)))
        part = Partition(np.arange(200) % 20 == 0)
        labels = np.arange(len(part.inlier_idx)) % 5
        tracemalloc.start()
        try:
            assign_outliers(fm, part, labels, 5, "kmeans")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 0.5 * fm.d * len(part.inlier_idx) * 8
