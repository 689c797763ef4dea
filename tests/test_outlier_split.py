import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import brute_force_split, cosine_similarity
from usvclust.errors import ParameterError, ValidationError
from usvclust.outlier_split import Partition, split
from usvclust.preprocess import FeatureMatrix


def unit_features(raw):
    raw = np.asarray(raw, dtype=float)
    data = raw / np.linalg.norm(raw, axis=0)
    return FeatureMatrix(data, tuple(f"s{i}" for i in range(raw.shape[1])))


def random_unit_features(n, d, seed):
    rng = np.random.default_rng(seed)
    return unit_features(rng.standard_normal((d, n)))


class TestCosineSimilarity:
    def test_identical(self):
        assert cosine_similarity([1, 0], [1, 0]) == 1.0

    def test_orthogonal(self):
        assert cosine_similarity([1, 0], [0, 1]) == 0.0

    def test_hand_value(self):
        assert cosine_similarity([1, 1], [1, 0]) == 0.7071067811865475

    def test_zero_vector_rejected(self):
        with pytest.raises(ValidationError):
            cosine_similarity([0, 0], [1, 0])

    def test_clamped(self):
        v = np.array([1e-8, 1.0])
        assert -1.0 <= cosine_similarity(v, -v) <= 1.0


class TestSplit:
    def test_duplicate_pair_vs_orthogonal(self):
        fm = unit_features(np.array([[1, 1, 0], [0, 0, 1]], dtype=float))
        part = split(fm, 0.5)
        assert part.inlier_idx.tolist() == [0, 1]
        assert part.outlier_idx.tolist() == [2]

    def test_threshold_below_minimum_keeps_everyone(self):
        fm = random_unit_features(12, 6, seed=0)
        part = split(fm, -1.0 + 1e-12)
        assert part.outlier_idx.size == 0
        assert part.inlier_idx.tolist() == list(range(12))

    def test_matches_brute_force_10_vectors(self):
        fm = random_unit_features(10, 5, seed=1)
        part = split(fm, 0.99)
        inl, out = brute_force_split(fm.data, 0.99)
        assert part.inlier_idx.tolist() == inl
        assert part.outlier_idx.tolist() == out

    @pytest.mark.parametrize("tau", [0.3, 0.5, 0.7, 0.8, 0.95, 1.0])
    def test_matches_brute_force_grid(self, tau):
        fm = random_unit_features(40, 4, seed=2)
        part = split(fm, tau)
        inl, out = brute_force_split(fm.data, tau)
        assert part.inlier_idx.tolist() == inl
        assert part.outlier_idx.tolist() == out

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**31 - 1), st.floats(-0.99, 1.0),
           st.integers(2, 25), st.integers(2, 8))
    def test_matches_brute_force_property(self, seed, tau, n, d):
        fm = random_unit_features(n, d, seed=seed)
        part = split(fm, tau)
        inl, out = brute_force_split(fm.data, tau)
        assert part.inlier_idx.tolist() == inl
        assert part.outlier_idx.tolist() == out

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**31 - 1))
    def test_monotone_in_tau(self, seed):
        fm = random_unit_features(30, 5, seed=seed)
        previous = set()
        for tau in (0.2, 0.5, 0.7, 0.8, 0.95, 1.0):
            outliers = set(split(fm, tau).outlier_idx.tolist())
            assert previous <= outliers
            previous = outliers

    def test_duplicates_never_outliers_even_at_tau_1(self):
        rng = np.random.default_rng(7)
        v = rng.standard_normal(6)
        # a duplicated column, stored at different scales, plus a loner
        raw = np.column_stack([v, 2.0 * v, rng.standard_normal(6)])
        part = split(unit_features(raw), 1.0)
        assert 0 in part.inlier_idx and 1 in part.inlier_idx

    def test_rescaling_a_column_changes_nothing(self):
        from usvclust.spectral import cosine_gram

        fm = random_unit_features(15, 6, seed=3)
        scaled = fm.data.copy()
        scaled[:, 3] *= 5.0
        scaled[:, 9] *= 0.01
        part1 = split(fm, 0.8)
        part2 = split(fm, 0.8, gram=cosine_gram(scaled))
        assert part1.inlier_idx.tolist() == part2.inlier_idx.tolist()
        assert part1.outlier_idx.tolist() == part2.outlier_idx.tolist()

    def test_supplied_gram_untouched_and_boundary_exact(self):
        from usvclust.spectral import cosine_gram

        fm = random_unit_features(25, 4, seed=6)
        gram = cosine_gram(fm.data)
        gram.flags.writeable = False
        before = gram.copy()
        ref = np.where(np.eye(25, dtype=bool), -np.inf, gram).max(axis=1)
        for i in (0, 11, 24):
            # best == tau keeps a sample; the next float up drops it
            assert i in split(fm, ref[i], gram=gram).inlier_idx
            assert i in split(fm, np.nextafter(ref[i], 2.0), gram=gram).outlier_idx
        np.testing.assert_array_equal(gram, before)

    def test_partition_covers_everything(self):
        fm = random_unit_features(20, 3, seed=4)
        part = split(fm, 0.9)
        both = np.concatenate([part.inlier_idx, part.outlier_idx])
        assert sorted(both.tolist()) == list(range(20))
        assert len(part.inlier_idx) + len(part.outlier_idx) == 20

    def test_index_sets_are_not_arguments(self):
        # the mask is the one stored fact; both index sets derive from it
        with pytest.raises(TypeError, match="inlier_idx"):
            Partition(inlier_idx=np.array([0]), outlier_idx=np.array([1]))

    @pytest.mark.parametrize("seed", range(5))
    def test_index_sets_of_a_mask(self, seed):
        rng = np.random.default_rng(seed)
        masks = [rng.random(n) < 0.4 for n in (1, 2, 17, 60)]
        masks += [np.ones(9, dtype=bool), np.zeros(9, dtype=bool)]
        for mask in masks:
            part = Partition(mask)
            for idx in (part.inlier_idx, part.outlier_idx):
                assert np.all(np.diff(idx) > 0)
            assert np.intersect1d(part.inlier_idx, part.outlier_idx).size == 0
            both = np.sort(np.concatenate([part.inlier_idx, part.outlier_idx]))
            np.testing.assert_array_equal(both, np.arange(len(mask)))
            np.testing.assert_array_equal(part.outlier_idx, np.flatnonzero(mask))

    def test_tau_out_of_range(self):
        fm = random_unit_features(3, 3, seed=5)
        with pytest.raises(ParameterError):
            split(fm, -1.0)
        with pytest.raises(ParameterError):
            split(fm, 1.5)

    def test_single_sample_rejected(self):
        fm = FeatureMatrix(np.array([[1.0]]), ("a",))
        with pytest.raises(ParameterError):
            split(fm, 0.5)
