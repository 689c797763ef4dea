import importlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import nearest_center_direct
from usvclust import ParameterError, generate_segments, kmeans, pca_reduce, vectorize

# the package exports the function ``kmeans`` under the module's name
km = importlib.import_module("usvclust.kmeans")


class TestKMeans:
    def test_two_separated_pairs(self):
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [10.0, 0.0], [11.0, 0.0]])
        res = kmeans(pts, 2, seed=0)
        assert res.labels[0] == res.labels[1]
        assert res.labels[2] == res.labels[3]
        assert res.labels[0] != res.labels[2]
        # each pair contributes 2 * (half distance)^2 = 0.5
        assert abs(res.inertia - 1.0) < 1e-12

    def test_k_equals_n(self):
        rng = np.random.default_rng(0)
        pts = rng.standard_normal((6, 3))
        res = kmeans(pts, 6, seed=1)
        assert abs(res.inertia) < 1e-12
        assert sorted(res.labels.tolist()) == list(range(6))

    def test_k_one_closed_form(self):
        rng = np.random.default_rng(1)
        pts = rng.standard_normal((20, 4))
        res = kmeans(pts, 1, seed=0)
        np.testing.assert_allclose(res.centers[0], pts.mean(axis=0), atol=1e-12)
        expected = np.sum((pts - pts.mean(axis=0)) ** 2)
        assert abs(res.inertia - expected) < 1e-9

    def test_deterministic(self):
        rng = np.random.default_rng(2)
        pts = rng.standard_normal((40, 5))
        r1 = kmeans(pts, 4, seed=9)
        r2 = kmeans(pts, 4, seed=9)
        np.testing.assert_array_equal(r1.labels, r2.labels)
        np.testing.assert_array_equal(r1.centers, r2.centers)
        assert r1.inertia == r2.inertia

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 2**31 - 1), st.integers(2, 5))
    def test_inertia_trace_never_increases(self, seed, k):
        rng = np.random.default_rng(seed)
        pts = rng.standard_normal((30, 3))
        res = kmeans(pts, k, seed=seed)
        trace = np.array(res.inertia_trace)
        assert np.all(np.diff(trace) <= 1e-9)
        assert res.inertia == trace[-1]

    def test_every_cluster_nonempty_with_duplicates(self):
        # duplicated points invite empty clusters during Lloyd iterations
        pts = np.array([[0.0, 0.0]] * 5 + [[5.0, 5.0]] * 5 + [[9.0, 0.0]])
        res = kmeans(pts, 4, seed=3)
        assert set(res.labels.tolist()) == {0, 1, 2, 3}

    def test_more_restarts_never_worse(self):
        rng = np.random.default_rng(4)
        pts = np.vstack([rng.normal(c, 0.3, (15, 2)) for c in (0.0, 5.0, 10.0)])
        bad = min(kmeans(pts, 3, seed=s, n_init=1).inertia for s in range(5))
        good = kmeans(pts, 3, seed=0, n_init=10).inertia
        assert good <= bad + 1e-9

    def test_labels_in_range(self):
        rng = np.random.default_rng(5)
        pts = rng.standard_normal((25, 2))
        res = kmeans(pts, 7, seed=1)
        assert res.labels.min() >= 0 and res.labels.max() < 7

    def test_k_too_large(self):
        with pytest.raises(ParameterError):
            kmeans(np.zeros((3, 2)), 4, seed=0)

    def test_bad_n_init(self):
        with pytest.raises(ParameterError):
            kmeans(np.zeros((3, 2)), 2, seed=0, n_init=0)


def _sq_norms(points):
    return np.einsum("ij,ij->i", points, points)


def _assign_case(case, seed, n, k, d, offset=0.0):
    """Points and centers for one equivalence case, C-ordered."""
    rng = np.random.default_rng(seed)
    points = rng.standard_normal((n, d))
    centers = rng.standard_normal((k, d))
    if case == "members":
        centers = points[rng.choice(n, size=min(k, n), replace=False)].copy()
    elif case == "duplicate" and k > 1:
        centers[k - 1] = centers[0]  # an exact tie belongs to center 0
    elif case == "mirror" and k > 1:
        # every point on the plane halfway between centers 0 and 1: the two
        # distances agree up to rounding, and rounding alone picks the label
        v = centers[0] - centers[1]
        points -= np.outer(points @ v / (v @ v), v)
        points = 0.5 * (centers[0] + centers[1]) + 0.1 * points
    return points + offset, centers + offset


def _lay_out(points, order):
    """A copy of ``points`` in C or F order, or a view of the leading
    columns of a wider C array, as the spectral embedding passes them."""
    if order == "view":
        wide = np.zeros((points.shape[0], points.shape[1] + 3))
        wide[:, :points.shape[1]] = points
        return wide[:, :points.shape[1]]
    return np.asarray(points, order=order)


def _layouts_disagree(points, centers):
    return not np.array_equal(nearest_center_direct(points, centers),
                              nearest_center_direct(np.asfortranarray(points), centers))


class TestAssignKernel:
    """``_assign`` must give exactly the labels of the direct kernel."""

    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from(["random", "members", "duplicate", "mirror"]),
           st.integers(0, 2**31 - 1), st.integers(1, 40), st.integers(1, 8),
           st.integers(1, 70), st.sampled_from([0.0, 1e4]),
           st.sampled_from(["C", "F", "view"]))
    def test_matches_direct_kernel(self, case, seed, n, k, d, offset, order):
        points, centers = _assign_case(case, seed, n, k, d, offset)
        points = _lay_out(points, order)
        got = km._assign(points, centers, _sq_norms(points))
        np.testing.assert_array_equal(got, nearest_center_direct(points, centers))

    def _count_fallback(self, monkeypatch):
        calls = []
        direct = km._direct_sq_dist

        def counting(points, centers):
            calls.append(points.shape[0])
            return direct(points, centers)

        monkeypatch.setattr(km, "_direct_sq_dist", counting)
        return calls

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_duplicate_center_ties_go_to_lowest_index(self, monkeypatch, order):
        calls = self._count_fallback(monkeypatch)
        points, centers = _assign_case("duplicate", 7, 30, 4, 600)
        points = _lay_out(points, order)
        got = km._assign(points, centers, _sq_norms(points))
        assert calls, "near-tie rows must be decided by the direct kernel"
        np.testing.assert_array_equal(got, nearest_center_direct(points, centers))
        assert np.any(got == 0) and not np.any(got == 3)

    @pytest.mark.parametrize("offset", [0.0, 1e4])
    @pytest.mark.parametrize("order", ["C", "F", "view"])
    def test_rounding_ties_follow_the_layout(self, order, offset):
        # numpy sums the direct kernel pairwise along C rows but left to
        # right along F columns, so on the mirror plane the two layouts pick
        # different labels; the fallback must reproduce each
        points, centers = _assign_case("mirror", 1, 200, 3, 4096, offset)
        assert _layouts_disagree(points, centers)
        points = _lay_out(points, order)
        got = km._assign(points, centers, _sq_norms(points))
        np.testing.assert_array_equal(got, nearest_center_direct(points, centers))

    def test_single_tied_row_keeps_layout_rounding(self, monkeypatch):
        # one near-tie row in an F-ordered input is a fallback block of one
        # row, which must still be summed in the F order of the full kernel
        mirror, centers = _assign_case("mirror", 1, 200, 3, 4096)
        c_labels = nearest_center_direct(mirror, centers)
        f_labels = nearest_center_direct(np.asfortranarray(mirror), centers)
        row = mirror[np.flatnonzero(c_labels != f_labels)[0]]
        points = np.asfortranarray(np.vstack([np.repeat(centers[2:], 11, axis=0), row]))
        calls = self._count_fallback(monkeypatch)
        got = km._assign(points, centers, _sq_norms(points))
        assert calls == [2]
        np.testing.assert_array_equal(got, nearest_center_direct(points, centers))

    def test_separated_rows_skip_fallback(self, monkeypatch):
        calls = self._count_fallback(monkeypatch)
        rng = np.random.default_rng(3)
        centers = 10.0 * rng.standard_normal((5, 300))
        points = centers[rng.integers(5, size=80)] + 0.1 * rng.standard_normal((80, 300))
        got = km._assign(points, centers, _sq_norms(points))
        assert calls == []
        np.testing.assert_array_equal(got, nearest_center_direct(points, centers))


@pytest.fixture(scope="module")
def segment_features():
    archive, _ = generate_segments(60, 5, seed=4, outlier_frac=0.0)
    return vectorize(archive).data.T  # F-ordered; inlier selection makes it C


class TestKMeansBitIdentical:
    @pytest.mark.parametrize("order", ["F", "C"])
    def test_whole_run_matches_direct_kernel_lloyd(
            self, segment_features, monkeypatch, order):
        points = _lay_out(segment_features, order)
        assert points.shape == (60, 4096)
        fast = kmeans(points, 6, seed=3)
        monkeypatch.setattr(km, "_assign",
                            lambda p, c, sq_norms: nearest_center_direct(p, c))
        ref = kmeans(points, 6, seed=3)
        np.testing.assert_array_equal(fast.labels, ref.labels)
        np.testing.assert_array_equal(fast.centers, ref.centers)
        assert fast.inertia == ref.inertia
        assert fast.inertia_trace == ref.inertia_trace
        assert fast.iterations == ref.iterations


def test_peak_memory_stays_near_input_size():
    # the direct kernel held an n x k x d tensor, about 30x the input here
    points = np.random.default_rng(12).standard_normal((200, 4096))
    tracemalloc.start()
    try:
        kmeans(points, 30, seed=0, n_init=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * points.nbytes


class TestPcaReduce:
    def test_rank_one_exact(self):
        rng = np.random.default_rng(6)
        direction = rng.standard_normal(5)
        pts = np.outer(rng.standard_normal(20), direction)
        reduced = pca_reduce(pts, 1)
        # one component reconstructs rank-1 centered data exactly
        centered = pts - pts.mean(axis=0)
        norms = np.linalg.norm(centered, axis=1)
        np.testing.assert_allclose(np.abs(reduced[:, 0]), norms, atol=1e-9)

    def test_full_dim_is_isometry(self):
        rng = np.random.default_rng(7)
        pts = rng.standard_normal((15, 4))
        reduced = pca_reduce(pts, 4)

        def pdist(x):
            return np.linalg.norm(x[:, None, :] - x[None, :, :], axis=2)

        np.testing.assert_allclose(pdist(reduced), pdist(pts), atol=1e-9)

    def test_projection_variance_matches_svd(self):
        rng = np.random.default_rng(8)
        pts = rng.standard_normal((50, 10))
        reduced = pca_reduce(pts, 3)
        centered = pts - pts.mean(axis=0)
        svals = np.linalg.svd(centered, compute_uv=False)
        var = np.sum(reduced ** 2) / 50
        expected = np.sum(svals[:3] ** 2) / 50
        assert abs(var - expected) < 1e-9

    def test_target_dim_validated(self):
        with pytest.raises(ParameterError):
            pca_reduce(np.zeros((5, 3)), 4)
        with pytest.raises(ParameterError):
            pca_reduce(np.zeros((2, 9)), 3)
