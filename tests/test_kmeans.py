import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import kmeans_lloyd_ref, nearest_center_direct, repair_empty_clusters
from usvclust import kmeans as km
from usvclust.errors import ParameterError, ValidationError
from usvclust.kmeans import kmeans
from usvclust.preprocess import vectorize
from usvclust.synth import generate_segments


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
    @given(st.integers(0, 2**31 - 1), st.integers(2, 5), st.sampled_from([3, 40]))
    def test_centers_and_inertia_are_those_of_the_labels(self, seed, k, d):
        # d = 3 takes the points path, d = 40 the Gram path
        rng = np.random.default_rng(seed)
        pts = rng.standard_normal((30, d))
        res = kmeans(pts, k, seed=seed)
        for c in range(k):
            assert res.centers[c].tobytes() == pts[res.labels == c].mean(axis=0).tobytes()
        assert res.inertia.hex() == float(((pts - res.centers[res.labels]) ** 2).sum()).hex()

    @pytest.mark.parametrize("d", [3, 40])
    def test_each_restart_runs_once(self, monkeypatch, d):
        # d = 3 takes the points path, d = 40 the Gram path; the winner's
        # result comes from its one run, not from running it again
        space = km._PointSpace if d == 3 else km._GramSpace
        runs = []
        lloyd = km._lloyd

        def counting(*args):
            runs.append(args)
            return lloyd(*args)

        monkeypatch.setattr(km, "_lloyd", counting)
        pts = np.random.default_rng(3).standard_normal((30, d))
        for seed in range(3):
            runs.clear()
            kmeans(pts, 4, seed=seed)
            assert len(runs) == 10
            assert all(type(run[0]) is space for run in runs)

    def test_every_cluster_nonempty_with_duplicates(self):
        # duplicated points invite empty clusters during Lloyd iterations
        pts = np.array([[0.0, 0.0]] * 5 + [[5.0, 5.0]] * 5 + [[9.0, 0.0]])
        res = kmeans(pts, 4, seed=3)
        assert set(res.labels.tolist()) == {0, 1, 2, 3}

    def test_more_restarts_never_worse(self):
        rng = np.random.default_rng(4)
        pts = np.vstack([rng.normal(c, 0.3, (15, 2)) for c in (0.0, 5.0, 10.0)])
        bad = min(_kmeans(pts, 3, seed=s, n_init=1).inertia for s in range(5))
        good = kmeans(pts, 3, seed=0).inertia
        assert good <= bad + 1e-9

    def test_labels_in_range(self):
        rng = np.random.default_rng(5)
        pts = rng.standard_normal((25, 2))
        res = kmeans(pts, 7, seed=1)
        assert res.labels.min() >= 0 and res.labels.max() < 7

    def test_k_too_large(self):
        with pytest.raises(ParameterError):
            kmeans(np.zeros((3, 2)), 4, seed=0)

    @pytest.mark.parametrize("name", ["n_init", "max_iter"])
    def test_restart_count_and_step_cap_are_fixed(self, name):
        with pytest.raises(TypeError):
            kmeans(np.zeros((3, 2)), 2, seed=0, **{name: 1})

    def test_negative_seed(self):
        with pytest.raises(ParameterError, match="seed must be >= 0"):
            kmeans(np.zeros((3, 2)), 2, seed=-1)


def _kmeans(points, k, seed, n_init=10, max_iter=300):
    """``kmeans`` with its restart count and step cap set to other values."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(km, "_N_INIT", n_init)
        patch.setattr(km, "_MAX_ITER", max_iter)
        return kmeans(points, k, seed=seed)


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
    """``_assign`` must give exactly the labels of the direct kernel on C
    rows, the layout of the copy ``kmeans`` works on. Its fallback gathers
    the tied rows into a new C block, so that holds for any input layout."""

    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from(["random", "members", "duplicate", "mirror"]),
           st.integers(0, 2**31 - 1), st.integers(1, 40), st.integers(1, 8),
           st.integers(1, 70), st.sampled_from([0.0, 1e4]))
    def test_matches_direct_kernel(self, case, seed, n, k, d, offset):
        points, centers = _assign_case(case, seed, n, k, d, offset)
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
        laid_out = _lay_out(points, order)
        got = km._assign(laid_out, centers, _sq_norms(laid_out))
        assert calls, "near-tie rows must be decided by the direct kernel"
        np.testing.assert_array_equal(got, nearest_center_direct(points, centers))
        assert np.any(got == 0) and not np.any(got == 3)

    @pytest.mark.parametrize("offset", [0.0, 1e4])
    @pytest.mark.parametrize("order", ["C", "F", "view"])
    def test_rounding_ties_follow_the_layout(self, order, offset):
        # numpy sums the direct kernel pairwise along C rows but left to
        # right along F columns, so on the mirror plane the two layouts pick
        # different labels; the fallback follows the C rows for every input
        points, centers = _assign_case("mirror", 1, 200, 3, 4096, offset)
        assert _layouts_disagree(points, centers)
        laid_out = _lay_out(points, order)
        got = km._assign(laid_out, centers, _sq_norms(laid_out))
        np.testing.assert_array_equal(got, nearest_center_direct(points, centers))

    def test_single_tied_row_keeps_layout_rounding(self, monkeypatch):
        # one near-tie row is a fallback block of one row, which must still
        # be summed in the order of the full kernel's C rows; the row is one
        # whose label an F-ordered sum would change
        mirror, centers = _assign_case("mirror", 1, 200, 3, 4096)
        c_labels = nearest_center_direct(mirror, centers)
        f_labels = nearest_center_direct(np.asfortranarray(mirror), centers)
        row = mirror[np.flatnonzero(c_labels != f_labels)[0]]
        points = np.vstack([np.repeat(centers[2:], 11, axis=0), row])
        calls = self._count_fallback(monkeypatch)
        got = km._assign(points, centers, _sq_norms(points))
        assert calls == [1]
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


def _assert_same_run(res, ref):
    """A ``kmeans`` result equals a ``kmeans_lloyd_ref`` tuple bit for bit."""
    labels, centers, inertia, iterations, converged, _ = ref
    np.testing.assert_array_equal(res.labels, labels)
    assert res.centers.tobytes() == centers.tobytes()
    assert res.inertia.hex() == inertia.hex()
    assert res.iterations == iterations
    assert res.converged == converged


def _ref_run(points, k, seed, n_init=10, max_iter=300):
    return kmeans_lloyd_ref(np.ascontiguousarray(points), k, seed=seed,
                            max_iter=max_iter, n_init=n_init)


class TestKMeansBitIdentical:
    @pytest.mark.parametrize("order", ["F", "C"])
    def test_whole_run_matches_direct_kernel_lloyd(self, segment_features, order):
        points = _lay_out(segment_features, order)
        assert points.shape == (60, 4096)
        _assert_same_run(kmeans(points, 6, seed=3), _ref_run(points, 6, seed=3))


def _seeding_case(case, order):
    rng = np.random.default_rng(8)
    if case == "distinct":
        points = rng.standard_normal((40, 300)) + 1e3
    elif case == "duplicates":
        points = rng.standard_normal((12, 300))[rng.integers(12, size=40)]
    elif case == "identical":  # every distance is 0: each center is drawn uniformly
        points = np.ones((40, 300))
    elif case == "tall":  # n >= d: the points path, and its seeding memo
        points = rng.standard_normal((60, 20)) + 1e3
    else:  # one column: numpy's mean sums it pairwise, not row by row
        points = rng.standard_normal((12, 1))[rng.integers(12, size=60)] + 0.1
    return _lay_out(points, order)


class TestSeedingMemo:
    """The restarts share each drawn row's distance vector, and the seeding
    still draws exactly the centers of the recomputing oracle."""

    @pytest.mark.parametrize("order", ["C", "F", "view"])
    @pytest.mark.parametrize("case", ["distinct", "duplicates", "identical", "tall"])
    def test_whole_run_matches_oracle_seeding(self, case, order):
        points = _seeding_case(case, order)
        _assert_same_run(kmeans(points, 6, seed=5), _ref_run(points, 6, seed=5))

    @pytest.mark.parametrize("order", ["F", "C"])
    def test_segment_features_match_oracle_seeding(self, segment_features, order):
        points = _lay_out(segment_features, order)
        _assert_same_run(kmeans(points, 20, seed=0), _ref_run(points, 20, seed=0))

    def test_each_drawn_rows_vector_computed_once_per_call(self, monkeypatch):
        filled = []
        fill = km._SeedDistances._fill

        def counting(seeds, row, out):
            filled.append(int(row))
            return fill(seeds, row, out)

        monkeypatch.setattr(km._SeedDistances, "_fill", counting)
        points = _seeding_case("tall", "C")  # n >= d, so the points path
        counts = []
        for _ in range(2):
            filled.clear()
            kmeans(points, 8, seed=1)
            # 80 draws from 60 distinct rows: a row drawn again is not
            # computed again
            assert len(filled) == len(set(filled)) <= 60
            counts.append(len(filled))
        # the memo lives for one call: the second call computes its own
        assert counts[0] == counts[1] > 0

    @pytest.mark.parametrize("order", ["C", "F", "view"])
    def test_every_vector_equals_the_direct_expression(self, order):
        # 4096 columns make many blocks, and drawing every row in turn leaves
        # 60, 59, ..., 1 rows to compute, so every last-block size occurs
        rng = np.random.default_rng(11)
        raw = rng.standard_normal((60, 4096)) + 10.0
        # the C copy kmeans makes of an input in this layout
        c_points = np.ascontiguousarray(_lay_out(raw, order))

        def direct(pts, r):
            return ((pts - pts[r]) ** 2).sum(axis=1)

        seeds = km._SeedDistances(c_points)
        for r in rng.permutation(60):
            assert seeds(r).tobytes() == direct(c_points, r).tobytes()
        for r in range(60):  # later vectors never write into earlier ones
            assert seeds(r).tobytes() == direct(c_points, r).tobytes()


def test_draw_picks_as_generator_choice():
    # zero entries make empty cdf steps that the search must step over
    meta = np.random.default_rng(13)
    for case in range(600):
        n = int(meta.integers(1, 40))
        w = meta.random(n) * (meta.random(n) < meta.uniform(0.2, 1.0))
        if not w.any():
            w[meta.integers(n)] = 1.0
        p = w / w.sum()
        ours, theirs = np.random.default_rng(case), np.random.default_rng(case)
        assert km._draw(p, ours.random()) == theirs.choice(n, p=p)
        assert ours.bit_generator.state == theirs.bit_generator.state


# 2**31 + 1, 3 * 2**30 and 2**32 - 1 reach the rejection loop of Lemire's
# method; 1 draws nothing and 2**32 takes one plain 32-bit half
_DRAW_SIZES = [1, 2, 3, 90, 2**31 + 1, 3 * 2**30, 2**32 - 1, 2**32]


# a bit length drawn uniformly up to 300, so most seeds have more than the
# pool's four words (st.integers(0, 2**300) seldom draws past 2**128)
_SEEDS = st.one_of(st.sampled_from([0, 2**32 - 1, 2**32, 2**64 + 5]),
                   st.integers(1, 300).flatmap(lambda b: st.integers(1 << (b - 1), (1 << b) - 1)))


@settings(max_examples=400, deadline=None)
@given(_SEEDS, st.lists(st.one_of(st.none(), st.sampled_from(_DRAW_SIZES)),
                        min_size=30, max_size=40))
def test_stream_draws_as_default_rng(seed, calls):
    # None stands for random(), and interleaving it with integers() carries
    # a 32-bit half across calls
    ours, theirs = km._PCG64(seed), np.random.default_rng(seed)
    for n in calls:
        if n is None:
            got, want = np.float64(ours.random()), np.float64(theirs.random())
        else:
            got, want = np.int64(ours.integers(n)), theirs.integers(n)
        assert got.view(np.int64) == want.view(np.int64), (seed, calls)


@pytest.mark.parametrize("n", [3, 2**31 + 1, 2**32 - 1])
def test_integers_redraws_exactly_below_the_threshold(n):
    # Lemire's method draws again while the product's low word is below
    # 2**32 % n; random draws meet that edge about once in 2**32, so the
    # halves are scripted: low word threshold - 1, then threshold (odd n
    # has an inverse mod 2**32 that finds them)
    threshold = (1 << 32) % n
    halves = [(low * pow(n, -1, 1 << 32)) & 0xFFFFFFFF for low in (threshold - 1, threshold)]
    stream = km._PCG64(0)
    stream._next32 = iter(halves).__next__
    assert stream.integers(n) == halves[1] * n >> 32


@pytest.mark.parametrize("seed", [np.int64(5), np.uint64(2**63 + 7)])
def test_stream_takes_numpy_integer_seeds(seed):
    # as default_rng does: the hash runs on Python ints, so no scalar
    # multiply overflows (or warns, which this test's filter makes an error)
    ours, theirs = km._PCG64(seed), np.random.default_rng(seed)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert [ours.integers(90) for _ in range(9)] == [theirs.integers(90) for _ in range(9)]
        assert ours.random() == theirs.random()
    with pytest.raises(TypeError):
        km._PCG64(5.0)


class _ScriptedGenerator:
    """Stands in for a Generator whose next ``integers`` and ``random``
    draws are known."""

    def __init__(self, first, uniform):
        self.first, self.uniform = first, uniform

    def integers(self, n):
        return self.first

    def random(self):
        return self.uniform


class TestGramPath:
    """Runs on n < d points take the Gram path, whose certified decisions
    must give exactly the points path's runs."""

    @staticmethod
    def _count(monkeypatch):
        calls = {"fill": 0, "direct": 0, "inertia": 0}

        def counting(name, fn):
            def wrapper(*args):
                calls[name] += 1
                return fn(*args)
            return wrapper

        monkeypatch.setattr(km._SeedDistances, "_fill",
                            counting("fill", km._SeedDistances._fill))
        monkeypatch.setattr(km, "_direct_sq_dist", counting("direct", km._direct_sq_dist))
        monkeypatch.setattr(km, "_inertia", counting("inertia", km._inertia))
        return calls

    @pytest.mark.parametrize("case, k", [("distinct", 6), ("duplicates", 6),
                                         ("identical", 4), ("segments", 6)])
    def test_every_decision_falls_back_under_an_infinite_bound(
            self, monkeypatch, segment_features, case, k):
        points = segment_features if case == "segments" else _seeding_case(case, "C")
        monkeypatch.setattr(km, "_GRAM_SLACK", np.inf)
        calls = self._count(monkeypatch)
        res = kmeans(points, k, seed=2)
        # every draw and every label came from the points path's kernels
        assert calls["fill"] > 0 and calls["direct"] > 0
        _assert_same_run(res, _ref_run(points, k, seed=2))

    def test_shipped_bound_certifies_every_decision(self, monkeypatch, segment_features):
        calls = self._count(monkeypatch)
        kmeans(segment_features, 20, seed=0)
        assert calls["fill"] == 0 and calls["direct"] == 0
        # one restart is certified the winner, and only its final labels'
        # inertia is computed from the points
        assert calls["inertia"] == 1

    @pytest.mark.parametrize("seed", range(6))
    def test_rounding_ties_match_the_points_path(self, seed):
        # points on the plane halfway between two centers, plus 40 copies of
        # each: when the seeds are copies, rounding alone decides the labels
        mirror, centers = _assign_case("mirror", 1, 60, 2, 4096)
        points = np.vstack([mirror, np.repeat(centers, 40, axis=0)])
        _assert_same_run(_kmeans(points, 2, seed=seed, n_init=2),
                         _ref_run(points, 2, seed=seed, n_init=2))

    @pytest.mark.parametrize("nudge", [-1, 0, 1])
    def test_draws_on_a_cdf_entry_match_the_points_path(self, nudge):
        # a uniform draw on, or one float beside, an entry of the points
        # path's cdf, where the Gram cdf's rounding could pick the next row
        points = _seeding_case("distinct", "C")
        d2 = ((points - points[0]) ** 2).sum(axis=1)
        seeds = km._SeedDistances(points)
        gram = km._GramSpace(points, seeds)
        exact = km._PointSpace(points, _sq_norms(points), seeds)
        for u in km._cdf(d2 / d2.sum())[:-1]:
            rng = _ScriptedGenerator(first=0, uniform=np.nextafter(u, nudge * np.inf)
                                     if nudge else u)
            np.testing.assert_array_equal(km._plus_plus_init(2, rng, gram),
                                          km._plus_plus_init(2, rng, exact))

    @settings(max_examples=120, deadline=None)
    @given(st.integers(0, 2**31 - 1), st.integers(1, 12), st.integers(-11, 30),
           st.sampled_from(["random", "identical", "two_rows"]))
    def test_small_integer_inputs_match(self, seed, n, extra, case):
        # few distinct values make duplicate rows, exact ties and empty
        # clusters, and restarts that end on different partitions with the
        # same inertia, so the shared pick must keep the first of them;
        # extra > 0 puts the run on the Gram path, extra <= 0 on the points path
        rng = np.random.default_rng(seed)
        d = max(1, n + extra)
        points = rng.integers(0, 3, size=(n, d)) * 0.5 + 0.25
        if case == "identical":
            points[:] = points[0]
        elif case == "two_rows":
            points = points[rng.integers(min(2, n), size=n)]
        k = int(rng.integers(1, n + 1))
        _assert_same_run(_kmeans(points, k, seed=seed, n_init=3),
                         _ref_run(points, k, seed=seed, n_init=3))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1e200])
    @pytest.mark.parametrize("d", [2, 50])
    def test_non_finite_points_are_refused(self, bad, d):
        points = np.ones((6, d))
        points[3, 1] = bad
        with pytest.raises(ValidationError, match="finite"):
            kmeans(points, 2, seed=0)


class TestLloydMatchesOracles:
    """Whole runs equal the oracle-driven run of the mask/mean loop on the
    C-ordered points, field by field and bit for bit."""


    @pytest.mark.parametrize("order", ["C", "F", "view"])
    @pytest.mark.parametrize("case, k", [
        ("distinct", 6), ("duplicates", 6), ("identical", 4), ("one_column", 3),
        ("distinct", 1), ("duplicates", 1), ("distinct", 40), ("duplicates", 40),
    ])
    def test_whole_run_matches(self, case, k, order):
        points = _seeding_case(case, order)
        _assert_same_run(_kmeans(points, k, seed=5, n_init=3),
                          kmeans_lloyd_ref(np.ascontiguousarray(points), k, seed=5,
                                           n_init=3))

    @pytest.mark.parametrize("path", ["gram", "points"])
    @pytest.mark.parametrize("k", [6, 20])
    def test_runs_that_reach_the_step_cap_match(self, segment_features, path, k):
        # caps of 1-3 steps end most restarts unconverged, so the pick reads
        # each one's inertia at the cap: that of the means of its last
        # labels, not of the means a step before
        points = segment_features  # 60 x 4096, the Gram path
        if path == "points":  # the top 20 principal components, 60 x 20
            centered, axes = km.principal_axes(segment_features)
            points = centered @ axes[:20].T
        for seed in range(4):
            for cap in (1, 2, 3):
                _assert_same_run(_kmeans(points, k, seed=seed, n_init=3, max_iter=cap),
                                 _ref_run(points, k, seed=seed, n_init=3, max_iter=cap))

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**31 - 1), st.integers(1, 30), st.integers(1, 8),
           st.sampled_from(["C", "F", "view"]))
    def test_random_small_inputs_match(self, seed, n, d, order):
        # few distinct small-integer values make duplicate rows, ties and
        # empty clusters common
        rng = np.random.default_rng(seed)
        points = _lay_out(rng.integers(0, 3, size=(n, d)) * 0.5 + 0.25, order)
        k = int(rng.integers(1, n + 1))
        _assert_same_run(_kmeans(points, k, seed=seed, n_init=2),
                          kmeans_lloyd_ref(np.ascontiguousarray(points), k,
                                           seed=seed, n_init=2))

    @pytest.mark.parametrize("order", ["C", "F", "view"])
    def test_repair_on_the_converging_step(self, monkeypatch, order):
        points = _lay_out(np.array([[2.0, 2.0], [2.0, 1.0], [2.0, 2.0], [2.0, 2.0],
                                    [0.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]]), order)
        repaired = []
        repair = km._repair_empty

        def recording(points, labels, k):
            out = repair(points, labels, k)
            repaired.append(not np.array_equal(out, labels))
            return out

        monkeypatch.setattr(km, "_repair_empty", recording)
        res = _kmeans(points, 6, seed=1, n_init=1)
        # the step that repeats the labels needed a repair to get there
        assert res.converged and repaired[-1]
        _assert_same_run(res, kmeans_lloyd_ref(np.ascontiguousarray(points), 6,
                                                seed=1, n_init=1))


class TestLayoutIndependence:
    """Runs on the same values in any memory layout are the same run."""

    @pytest.mark.parametrize("seed", range(6))
    def test_mirror_plane_run_is_the_same_in_every_layout(self, seed):
        # 60 points on the plane halfway between two centers, where rounding
        # alone decides the nearest center, plus 40 copies of each center
        mirror, centers = _assign_case("mirror", 1, 60, 2, 4096)
        points = np.vstack([mirror, np.repeat(centers, 40, axis=0)])
        runs = [_kmeans(_lay_out(points, order), 2, seed=seed, n_init=1, max_iter=1)
                for order in ("C", "F", "view")]
        for res in runs[1:]:
            np.testing.assert_array_equal(res.labels, runs[0].labels)
            assert res.centers.tobytes() == runs[0].centers.tobytes()
            assert res.inertia.hex() == runs[0].inertia.hex()
            assert res.iterations == runs[0].iterations
            assert res.converged == runs[0].converged


class TestRepairEmpty:
    @settings(max_examples=80, deadline=None)
    @given(st.integers(0, 2**31 - 1), st.integers(2, 8))
    def test_matches_per_cluster_oracle(self, seed, k):
        # labels drawn from a few clusters leave the others empty; small
        # integer points make ties for the largest cluster and the farthest row
        rng = np.random.default_rng(seed)
        n = int(rng.integers(k, 4 * k + 1))
        points = rng.integers(0, 3, size=(n, 2)).astype(float)
        present = rng.choice(k, size=int(rng.integers(1, k + 1)), replace=False)
        labels = present[rng.integers(present.size, size=n)]
        want = repair_empty_clusters(points, np.zeros((k, 2)), labels, k)
        got = km._repair_empty(points, labels, k)
        np.testing.assert_array_equal(got, want)
        assert np.all(np.bincount(got, minlength=k) > 0)


@pytest.mark.parametrize("n_init", [1, 10])
def test_peak_memory_stays_near_input_size(n_init):
    # the direct kernel held an n x k x d tensor, about 30x the input here;
    # each kernel now holds at most one n x d temporary at a time
    points = np.random.default_rng(12).standard_normal((200, 4096))
    tracemalloc.start()
    try:
        _kmeans(points, 30, seed=0, n_init=n_init)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * points.nbytes


def test_points_path_restarts_keep_only_final_labels():
    # n >= d: the points path. Its seeding memo holds at most min(n, 10 k)
    # rows of n; beyond it a call needs about 9 n x d buffers here, mostly
    # the n x k distances of a step. A restart that kept the labels of each
    # of its ~30 steps would add about 5 more.
    points = np.random.default_rng(12).standard_normal((3000, 8))
    tracemalloc.start()
    try:
        kmeans(points, 30, seed=0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    table = min(3000, 10 * 30) * 3000 * 8
    assert peak < table + 12 * points.nbytes


def test_gram_path_holds_no_n_by_d_array_beside_the_gram():
    # n < d: the Gram path. An n x d array is made only by the winner's
    # exact kernels, after the restarts have dropped the n x n Gram and the
    # seeding memo; an n x d scratch array held through the call made it
    # about 1.3 x the input here
    points = np.random.default_rng(13).standard_normal((900, 4096))
    tracemalloc.start()
    try:
        kmeans(points, 20, seed=0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < points.nbytes + 900 * 900 * 8 / 2


def pca_project(points, k):
    centered, axes = km.principal_axes(points)
    return centered @ axes[:k].T


class TestPcaReduce:
    def test_rank_one_exact(self):
        rng = np.random.default_rng(6)
        direction = rng.standard_normal(5)
        pts = np.outer(rng.standard_normal(20), direction)
        reduced = pca_project(pts, 1)
        # one component reconstructs rank-1 centered data exactly
        centered = pts - pts.mean(axis=0)
        norms = np.linalg.norm(centered, axis=1)
        np.testing.assert_allclose(np.abs(reduced[:, 0]), norms, atol=1e-9)

    def test_full_dim_is_isometry(self):
        rng = np.random.default_rng(7)
        pts = rng.standard_normal((15, 4))
        reduced = pca_project(pts, 4)

        def pdist(x):
            return np.linalg.norm(x[:, None, :] - x[None, :, :], axis=2)

        np.testing.assert_allclose(pdist(reduced), pdist(pts), atol=1e-9)

    def test_projection_variance_matches_svd(self):
        rng = np.random.default_rng(8)
        pts = rng.standard_normal((50, 10))
        reduced = pca_project(pts, 3)
        centered = pts - pts.mean(axis=0)
        svals = np.linalg.svd(centered, compute_uv=False)
        var = np.sum(reduced ** 2) / 50
        expected = np.sum(svals[:3] ** 2) / 50
        assert abs(var - expected) < 1e-9
