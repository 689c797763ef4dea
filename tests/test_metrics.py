import dataclasses
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from oracles import straight_line_metrics
from usvclust import metrics
from usvclust.assign import assign_outliers, centroids
from usvclust.errors import ParameterError
from usvclust.metrics import distance_stats, pairwise_cosine_distances, report
from usvclust.outlier_split import Partition
from usvclust.preprocess import FeatureMatrix

centroid_sets = hnp.arrays(
    np.float64,
    st.tuples(st.integers(2, 6), st.integers(2, 5)),
    elements=st.floats(-5, 5, allow_nan=False),
).filter(lambda c: np.all(np.linalg.norm(c, axis=1) > 1e-3))


def unit_features(raw):
    raw = np.asarray(raw, dtype=float)
    data = raw / np.linalg.norm(raw, axis=0)
    return FeatureMatrix(data, tuple(f"s{i}" for i in range(raw.shape[1])))


class TestHmean:
    def test_two_orthogonal_is_exactly_one(self):
        assert distance_stats(np.eye(2))[0] == 1.0

    def test_three_orthogonal_is_one(self):
        assert distance_stats(np.eye(3))[0] == 1.0

    def test_two_centroid_closed_form(self):
        cents = np.array([[1.0, 0.0], [1.0, 1.0] / np.sqrt(2)])
        expected = 1.0 - 1.0 / np.sqrt(2)
        assert abs(distance_stats(cents)[0] - expected) < 1e-12
        assert abs(expected - 0.2928932) < 1e-7

    def test_parallel_pair_collapses_to_zero(self):
        cents = np.array([[1.0, 0.0], [2.0, 0.0], [0.0, 1.0]])
        with pytest.warns(RuntimeWarning, match="parallel"):
            assert distance_stats(cents)[0] == 0.0

    def test_k_must_be_at_least_two(self):
        with pytest.raises(ParameterError):
            distance_stats(np.ones((1, 3)))

    @settings(max_examples=60)
    @given(centroid_sets)
    def test_am_hm_inequality(self, cents):
        d = pairwise_cosine_distances(cents)
        if np.any(d == 0.0):
            return
        hm = distance_stats(cents)[0]
        assert hm <= d.mean() + 1e-12

    @settings(max_examples=30)
    @given(centroid_sets, st.floats(0.01, 100))
    def test_positive_rescale_invariance(self, cents, c):
        d1 = pairwise_cosine_distances(cents)
        d2 = pairwise_cosine_distances(c * cents)
        np.testing.assert_allclose(d1, d2, atol=1e-9)

    @settings(max_examples=30)
    @given(centroid_sets, st.randoms(use_true_random=False))
    def test_reorder_invariance(self, cents, rand):
        order = list(range(cents.shape[0]))
        rand.shuffle(order)
        d1 = np.sort(pairwise_cosine_distances(cents))
        d2 = np.sort(pairwise_cosine_distances(cents[order]))
        np.testing.assert_allclose(d1, d2, atol=1e-12)

    def test_relabeling_moves_both_measures_by_rounding_only(self):
        # the sort fixes the summation order, but BLAS rounds each Gram entry
        # by its position, so a relabeling may move the last bits
        rng = np.random.default_rng(21)
        for _ in range(100):
            k = int(rng.integers(2, 70))
            cents = rng.standard_normal((k, int(rng.choice([3, 60, 4096]))))
            moved = distance_stats(cents[rng.permutation(k)])
            np.testing.assert_allclose(moved, distance_stats(cents), rtol=1e-12, atol=0)

    def test_statistics_bounded(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            cents = rng.standard_normal((4, 6))
            assert 0.0 <= distance_stats(cents)[0] <= 2.0
            assert 0.0 <= distance_stats(cents)[1] <= 2.0


class TestStd:
    def test_equal_distances_zero(self):
        assert distance_stats(np.eye(3))[1] == 0.0

    def test_single_pair_zero(self):
        rng = np.random.default_rng(1)
        assert distance_stats(rng.standard_normal((2, 4)))[1] == 0.0

    def test_hand_computed_triple(self):
        cents = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0] / np.sqrt(2)])
        # pairwise distances: {1, 1-1/sqrt2, 1-1/sqrt2}
        d = np.array([1.0, 1.0 - 1 / np.sqrt(2), 1.0 - 1 / np.sqrt(2)])
        expected = np.sqrt(((d - d.mean()) ** 2).mean())
        assert abs(distance_stats(cents)[1] - expected) < 1e-12


class TestReport:
    def _model(self, raw, outlier_idx, inlier_labels, k):
        fm = unit_features(raw)
        part = Partition(np.isin(np.arange(fm.n), outlier_idx))
        model = assign_outliers(fm, part, np.array(inlier_labels), k, "kmeans")
        return fm, model

    def test_no_outliers_full_equals_inlier(self):
        rng = np.random.default_rng(2)
        raw = rng.standard_normal((5, 9))
        fm, model = self._model(raw, [], [0, 1, 2] * 3, 3)
        rep = report(fm, model)
        assert rep.d_cos_hmean == rep.d_cos_hmean_full
        assert rep.d_cos_std == rep.d_cos_std_full
        assert rep.cluster_sizes == rep.cluster_sizes_full == (3, 3, 3)

    def test_outlier_duplicating_centroid_changes_nothing(self):
        # clusters of identical unit vectors; the outlier equals cluster 0's
        # centroid exactly, so folding it into the mean is a no-op
        raw = np.array([[1.0, 1.0, 0.0, 0.0, 1.0],
                        [0.0, 0.0, 1.0, 1.0, 0.0]])
        fm, model = self._model(raw, [4], [0, 0, 1, 1], 2)
        rep = report(fm, model)
        assert model.labels[4] == 0
        assert rep.d_cos_hmean_full == rep.d_cos_hmean
        assert rep.d_cos_std_full == rep.d_cos_std
        assert rep.cluster_sizes == (2, 2)
        assert rep.cluster_sizes_full == (3, 2)

    def test_matches_straight_line_script(self):
        rng = np.random.default_rng(3)
        raw = rng.standard_normal((8, 30))
        inlier_idx = list(range(24))
        outlier_idx = list(range(24, 30))
        labels = [i % 3 for i in range(24)]
        fm, model = self._model(raw, outlier_idx, labels, 3)
        rep = report(fm, model)
        outlier_mask = np.zeros(30, dtype=bool)
        outlier_mask[24:] = True
        ref = straight_line_metrics(fm.data, model.labels, outlier_mask, 3)
        assert abs(rep.d_cos_hmean - ref["d_cos_hmean"]) < 1e-12
        assert abs(rep.d_cos_std - ref["d_cos_std"]) < 1e-12
        assert abs(rep.d_cos_hmean_full - ref["d_cos_hmean_full"]) < 1e-12
        assert abs(rep.d_cos_std_full - ref["d_cos_std_full"]) < 1e-12

    def test_relabeling_only_permutes_sizes(self):
        rng = np.random.default_rng(4)
        raw = rng.standard_normal((6, 12))
        labels = [0, 0, 0, 0, 0, 1, 1, 1, 2, 2]
        fm, model = self._model(raw, [10, 11], labels, 3)
        rep = report(fm, model)
        perm = {0: 2, 1: 0, 2: 1}
        plabels = [perm[v] for v in labels]
        fm2, model2 = self._model(raw, [10, 11], plabels, 3)
        rep2 = report(fm2, model2)
        assert abs(rep.d_cos_hmean - rep2.d_cos_hmean) < 1e-12
        assert abs(rep.d_cos_std - rep2.d_cos_std) < 1e-12
        assert sorted(rep.cluster_sizes) == sorted(rep2.cluster_sizes)

    def _distance_calls(self, monkeypatch):
        calls = []

        def recording(cents):
            calls.append(np.array(cents))
            return pairwise_cosine_distances(cents)

        monkeypatch.setattr(metrics, "pairwise_cosine_distances", recording)
        return calls

    def _outlier_model(self):
        rng = np.random.default_rng(6)
        raw = rng.standard_normal((8, 30))
        return self._model(raw, list(range(24, 30)),
                           [i % 4 for i in range(24)], 4)

    def test_one_distance_pass_per_centroid_set(self, monkeypatch):
        fm, model = self._outlier_model()
        expected = report(fm, model)
        calls = self._distance_calls(monkeypatch)
        assert report(fm, model) == expected
        assert len(calls) == 2

    def test_full_centroids_are_the_centroid_routine(self, monkeypatch):
        fm, model = self._outlier_model()
        calls = self._distance_calls(monkeypatch)
        report(fm, model)
        assert np.array_equal(calls[0], model.centroids)
        assert np.array_equal(calls[1], centroids(fm, model.labels, model.k))

    def _parallel_report(self, data, labels):
        # inliers 0..2 make clusters 0..2; ``labels`` overrides the outliers'
        n = data.shape[1]
        fm = FeatureMatrix(data, tuple(f"s{i}" for i in range(n)))
        part = Partition(np.arange(n) >= 3)
        model = assign_outliers(fm, part, np.arange(3), 3, "kmeans")
        model = dataclasses.replace(model, labels=np.array(labels))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rep = report(fm, model)
        return rep, [str(w.message) for w in caught if w.category is RuntimeWarning]

    def test_parallel_inlier_centroids_warn(self):
        # clusters 0 and 1 are both e1; outlier e3 joins cluster 1
        data = np.array([[1.0, 1.0, 0.0, 0.0],
                         [0.0, 0.0, 1.0, 0.0],
                         [0.0, 0.0, 0.0, 1.0]])
        rep, caught = self._parallel_report(data, [0, 1, 2, 1])
        assert len(caught) == 1 and "parallel" in caught[0]
        assert rep.d_cos_hmean == 0.0 and rep.d_cos_hmean_full > 0.0

    def test_parallel_full_centroids_warn(self):
        # clusters e1, e2, e3; two outliers join cluster 1 and cancel its
        # e2 component exactly, so its full mean is parallel to e1
        b = np.sqrt(0.5)
        data = np.array([[1.0, 0.0, 0.0, 0.5, 0.5],
                         [0.0, 1.0, 0.0, -0.5, -0.5],
                         [0.0, 0.0, 1.0, b, -b]])
        rep, caught = self._parallel_report(data, [0, 1, 2, 1, 1])
        assert len(caught) == 1 and "parallel" in caught[0]
        assert rep.d_cos_hmean > 0.0 and rep.d_cos_hmean_full == 0.0

    def test_k1_rejected(self):
        raw = np.eye(2)
        fm, model = self._model(raw, [], [0, 0], 1)
        with pytest.raises(ParameterError):
            report(fm, model)

    def test_report_lines_and_csv(self):
        rng = np.random.default_rng(5)
        raw = rng.standard_normal((4, 8))
        fm, model = self._model(raw, [], [i % 2 for i in range(8)], 2)
        rep = report(fm, model)
        lines = rep.to_lines()
        assert lines[0] == "method=kmeans"
        assert lines[1] == "k=2"
        assert lines[6].startswith("cluster_sizes=")
        row = rep.csv_row()
        assert row.startswith("kmeans,2,")
        assert len(row.split(",")) == 6
