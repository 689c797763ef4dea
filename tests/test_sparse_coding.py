import warnings
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (lasso_objective_ref, lasso_prox_grad, omp_best_subset,
                     omp_column_lstsq)
from usvclust import (CoefficientMatrix, ParameterError, PreprocessConfig,
                      SparseCodingConfig, ValidationError, denoise,
                      generate_segments, lasso_column, omp_column,
                      self_express, split, vectorize)
from usvclust.sparse_coding import kkt_violation, lambda_max, lasso_objective


def unit_dictionary(d, n, seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((d, n))
    return a / np.linalg.norm(a, axis=0)


class TestLassoColumn:
    def test_orthogonal_target_gives_zero(self):
        a = np.eye(4)[:, :2]
        target = np.array([0.0, 0.0, 1.0, 0.0])
        y, ok = lasso_column(a, target, lam=0.3)
        assert ok
        np.testing.assert_array_equal(y, 0.0)

    def test_lambda_max_property(self):
        a = unit_dictionary(6, 10, seed=0)
        t = np.random.default_rng(1).standard_normal(6)
        lmax = lambda_max(a, t)
        y, ok = lasso_column(a, t, lam=lmax * 1.000001)
        assert ok
        np.testing.assert_array_equal(y, 0.0)
        y2, _ = lasso_column(a, t, lam=lmax * 0.9)
        assert np.any(y2 != 0.0)

    def test_orthonormal_closed_form(self):
        # with an orthonormal dictionary each coordinate decouples:
        # y_j = soft(x_j . t, lam)
        q, _ = np.linalg.qr(np.random.default_rng(2).standard_normal((8, 8)))
        t = np.random.default_rng(3).standard_normal(8)
        y, ok = lasso_column(q, t, lam=0.3, tol=1e-12)
        assert ok
        corr = q.T @ t
        expected = np.sign(corr) * np.maximum(np.abs(corr) - 0.3, 0.0)
        np.testing.assert_allclose(y, expected, atol=1e-10)

    def test_matches_prox_gradient_oracle(self):
        # the module contract: D=5, 8 atoms, lambda=0.3, agreement 1e-8
        a = unit_dictionary(5, 8, seed=4)
        t = np.random.default_rng(5).standard_normal(5)
        y, ok = lasso_column(a, t, lam=0.3, max_iter=5000, tol=1e-12)
        assert ok
        ref = lasso_prox_grad(a, t, lam=0.3)
        assert abs(lasso_objective(a, t, y, 0.3)
                   - lasso_objective_ref(a, t, ref, 0.3)) < 1e-8

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 2**31 - 1))
    def test_kkt_conditions_hold(self, seed):
        rng = np.random.default_rng(seed)
        a = unit_dictionary(int(rng.integers(3, 12)), int(rng.integers(2, 16)),
                            seed=seed)
        t = rng.standard_normal(a.shape[0])
        y, ok = lasso_column(a, t, lam=0.3, max_iter=5000, tol=1e-10)
        if ok:
            assert kkt_violation(a, t, y, 0.3) < 1e-6

    def test_objective_monotone_over_sweeps(self):
        # prefix runs of the homotopy share their path, and the target
        # objective only falls as the path level comes down to lam
        a = unit_dictionary(10, 15, seed=6)
        t = np.random.default_rng(7).standard_normal(10)
        objs = []
        for sweeps in range(1, 30):
            y, _ = lasso_column(a, t, lam=0.3, max_iter=sweeps, tol=0.0)
            objs.append(lasso_objective(a, t, y, 0.3))
        diffs = np.diff(objs)
        assert np.all(diffs <= 1e-12)

    def test_nonconvergence_flag(self):
        a = unit_dictionary(5, 30, seed=8)
        t = np.random.default_rng(9).standard_normal(5)
        _, ok = lasso_column(a, t, lam=0.001, max_iter=1, tol=1e-14)
        assert not ok

    def test_atom_leaving_the_path(self):
        # atom 5 enters the support and leaves it again before lam=0.3; the
        # path must drop it at zero and not let it straight back in
        a = unit_dictionary(4, 6, seed=3)
        t = np.random.default_rng(1003).standard_normal(4)
        y_hi, ok_hi = lasso_column(a, t, lam=0.5)
        y_lo, ok_lo = lasso_column(a, t, lam=0.3)
        assert ok_hi and ok_lo
        assert y_hi[5] != 0.0 and y_lo[5] == 0.0
        assert kkt_violation(a, t, y_lo, 0.3) < 1e-9
        ref = lasso_prox_grad(a, t, lam=0.3)
        assert abs(lasso_objective(a, t, y_lo, 0.3)
                   - lasso_objective_ref(a, t, ref, 0.3)) < 1e-10

    def test_atom_leaving_the_path_on_segment_features(self):
        # inlier 86 of this archive: atom 1 is on its support at lam=0.41
        # and crosses zero at about 0.403, on the way down to 0.3
        archive, _ = generate_segments(100, 5, 100, outlier_frac=0.1)
        features = vectorize(archive, PreprocessConfig(f=64, t=64))
        x = features.select(split(features, 0.8).inlier_idx).data
        others, target = np.delete(x, 86, axis=1), x[:, 86]
        y_hi, ok_hi = lasso_column(others, target, lam=0.41)
        y, ok = lasso_column(others, target, lam=0.3)
        assert ok_hi and ok
        assert y_hi[1] != 0.0 and y[1] == 0.0
        assert kkt_violation(others, target, y, 0.3) < 1e-9
        # self_express codes the same column on the shared Gram matrix
        raw = self_express(x, SparseCodingConfig(lam=0.3, denoise_eps=0.0))
        assert raw.n_nonconverged == 0
        np.testing.assert_allclose(np.delete(raw.y[:, 86], 86), y, atol=1e-12)

    @settings(max_examples=8, deadline=None)
    @given(st.integers(0, 2**31 - 1), st.floats(0.01, 0.5))
    def test_correlated_dictionary_matches_oracle(self, seed, lam):
        # atoms cluster around 3 directions, as samples of one class do
        rng = np.random.default_rng(seed)
        basis = rng.standard_normal((12, 3))
        n = int(rng.integers(3, 13))
        a = basis[:, rng.integers(0, 3, n)] + 0.05 * rng.standard_normal((12, n))
        a /= np.linalg.norm(a, axis=0)
        t = basis @ rng.standard_normal(3) + 0.05 * rng.standard_normal(12)
        y, ok = lasso_column(a, t, lam)
        assert ok
        assert kkt_violation(a, t, y, lam) < 1e-9
        ref = lasso_prox_grad(a, t, lam)
        assert abs(lasso_objective(a, t, y, lam)
                   - lasso_objective_ref(a, t, ref, lam)) < 1e-10

    def test_shape_mismatch(self):
        with pytest.raises(ValidationError):
            lasso_column(np.eye(3), np.ones(2), 0.3)

    def test_bad_lambda(self):
        with pytest.raises(ParameterError):
            lasso_column(np.eye(3), np.ones(3), 0.0)


class TestOmpColumn:
    def test_exact_atom_one_step(self):
        a = unit_dictionary(6, 8, seed=10)
        y = omp_column(a, a[:, 3].copy(), sparsity_k=1)
        expected = np.zeros(8)
        expected[3] = 1.0
        np.testing.assert_allclose(y, expected, atol=1e-12)

    def test_orthonormal_exact_recovery(self):
        q, _ = np.linalg.qr(np.random.default_rng(11).standard_normal((6, 6)))
        target = 2.0 * q[:, 0] + 3.0 * q[:, 1]
        y = omp_column(q, target, sparsity_k=2)
        expected = np.zeros(6)
        expected[0] = 2.0
        expected[1] = 3.0
        np.testing.assert_allclose(y, expected, atol=1e-12)

    def test_low_coherence_matches_best_subset(self):
        # classical guarantee: coherence < 1/(2k-1) with k=2
        rng = np.random.default_rng(12)
        while True:
            a = unit_dictionary(30, 10, seed=int(rng.integers(2**31)))
            g = np.abs(a.T @ a)
            np.fill_diagonal(g, 0.0)
            if g.max() < 1.0 / 3.0:
                break
        idx = rng.choice(10, 2, replace=False)
        coef = rng.uniform(1.0, 2.0, 2) * rng.choice([-1.0, 1.0], 2)
        target = a[:, idx] @ coef
        y = omp_column(a, target, sparsity_k=2)
        support, ref_coef = omp_best_subset(a, target, 2)
        assert sorted(np.nonzero(y)[0].tolist()) == sorted(support)
        np.testing.assert_allclose(np.sort(np.abs(y[y != 0])),
                                   np.sort(np.abs(ref_coef)), atol=1e-10)

    def test_rank_deficient_drops_atom(self):
        # the only atoms are two copies of x; after x is fit, picking its
        # twin makes the active set singular and OMP must back off
        rng = np.random.default_rng(13)
        x = rng.standard_normal(5)
        x /= np.linalg.norm(x)
        perp = rng.standard_normal(5)
        perp -= (perp @ x) * x
        a = np.column_stack([x, x])
        target = x + 0.3 * perp
        y = omp_column(a, target, sparsity_k=2, tol=1e-12)
        assert np.count_nonzero(y) == 1
        assert y[1] == 0.0
        assert abs(y[0] - x @ target) < 1e-12

    def test_residual_tolerance_stops_early(self):
        q, _ = np.linalg.qr(np.random.default_rng(14).standard_normal((5, 5)))
        y = omp_column(q, q[:, 2].copy(), sparsity_k=5, tol=1e-7)
        assert np.count_nonzero(y) == 1

    def test_budget_respected(self):
        a = unit_dictionary(10, 20, seed=15)
        t = np.random.default_rng(16).standard_normal(10)
        for k in (1, 3, 7):
            assert np.count_nonzero(omp_column(a, t, sparsity_k=k)) <= k

    def test_budget_out_of_range(self):
        a = unit_dictionary(4, 5, seed=17)
        with pytest.raises(ParameterError):
            omp_column(a, np.ones(4), sparsity_k=0)
        with pytest.raises(ParameterError):
            omp_column(a, np.ones(4), sparsity_k=6)

    def test_zero_target_gives_zero(self):
        a = unit_dictionary(4, 5, seed=18)
        np.testing.assert_array_equal(omp_column(a, np.zeros(4), 2), 0.0)


def assert_same_omp(dictionary, target, k):
    ref = omp_column_lstsq(dictionary, target, k)
    y = omp_column(dictionary, target, k)
    np.testing.assert_array_equal(np.nonzero(y)[0], np.nonzero(ref)[0])
    np.testing.assert_allclose(y, ref, rtol=0.0, atol=1e-10)


def random_omp_case(seed, near_duplicates):
    """A unit dictionary, a target and a budget of at most half the
    dimension, so every active set the pursuit reaches is well conditioned.
    Near-duplicates replace some columns by a perturbed copy of another at
    an angle of roughly 0.05 to 0.5 rad."""
    rng = np.random.default_rng(seed)
    d = int(rng.integers(5, 61))
    n = int(rng.integers(2, 41))
    a = unit_dictionary(d, n, seed)
    if near_duplicates:
        for col in rng.choice(n, size=int(rng.integers(1, n // 2 + 2))):
            u = rng.standard_normal(d)
            v = a[:, rng.integers(n)] + rng.uniform(0.05, 0.5) * u / np.linalg.norm(u)
            a[:, col] = v / np.linalg.norm(v)
    k = int(rng.integers(1, max(1, min(n, d // 2)) + 1))
    return a, rng.standard_normal(d), k


@lru_cache(maxsize=None)
def segment_features(seed):
    archive, _ = generate_segments(40, 5, seed=seed, outlier_frac=0.1)
    data = vectorize(archive, PreprocessConfig()).data
    data.flags.writeable = False  # one array is shared by every caller
    return data


class TestOmpGramForm:
    """The Gram-form pursuit against the per-column least-squares one."""

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**31 - 1))
    def test_random_unit_dictionaries(self, seed):
        assert_same_omp(*random_omp_case(seed, near_duplicates=False))

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**31 - 1))
    def test_near_duplicate_columns(self, seed):
        assert_same_omp(*random_omp_case(seed, near_duplicates=True))

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 3), st.integers(0, 39), st.integers(1, 15))
    def test_segment_dictionaries(self, seed, j, k):
        x = segment_features(seed)
        assert_same_omp(np.delete(x, j, axis=1), x[:, j], k)

    def test_self_express_bars_own_atom(self):
        x = segment_features(1)
        n = x.shape[1]
        cfg = SparseCodingConfig(method="omp", sparsity_k=10, denoise_eps=0.0)
        y = self_express(x, cfg).y
        for j in range(n):
            keep = np.concatenate([np.arange(j), np.arange(j + 1, n)])
            col = omp_column(x[:, keep], x[:, j], cfg.sparsity_k, tol=cfg.tol)
            assert y[j, j] == 0.0
            np.testing.assert_array_equal(np.nonzero(y[keep, j])[0], np.nonzero(col)[0])
            np.testing.assert_allclose(y[keep, j], col, rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("tol, n_atoms", [(1e-4, 1), (1e-6, 2)])
    def test_tolerance_is_on_the_residual_norm(self, tol, n_atoms):
        # one atom leaves a residual of norm 1e-5, which the squared-norm
        # test in the Gram form must still compare against tol, not tol**2
        q, _ = np.linalg.qr(np.random.default_rng(32).standard_normal((5, 5)))
        target = q[:, 0] + 1e-5 * q[:, 1]
        y = omp_column(q, target, sparsity_k=3, tol=tol)
        assert np.count_nonzero(y) == n_atoms
        np.testing.assert_allclose(y, omp_column_lstsq(q, target, 3, tol), atol=1e-12)

    @pytest.mark.parametrize("ratio, kept", [(0.5, False), (2.0, True)])
    def test_rank_drop_threshold(self, ratio, kept):
        # the second atom's squared distance from the first is ratio times
        # the documented 1e-10 of its squared norm; the target needs it
        rng = np.random.default_rng(31)
        x = rng.standard_normal(6)
        x /= np.linalg.norm(x)
        perp = rng.standard_normal(6)
        perp -= (perp @ x) * x
        perp /= np.linalg.norm(perp)
        sin = np.sqrt(ratio * 1e-10)
        twin = np.sqrt(1.0 - sin * sin) * x + sin * perp
        target = x - 0.3 * perp  # x is picked first, then its twin
        y = omp_column(np.column_stack([x, twin]), target, sparsity_k=2)
        assert y[0] != 0.0
        if kept:
            assert y[1] != 0.0
            np.testing.assert_allclose(y[0] * x + y[1] * twin, target, atol=1e-6)
        else:
            assert y[1] == 0.0
            assert abs(y[0] - x @ target) < 1e-12


class TestSelfExpress:
    def test_two_identical_columns_closed_form(self):
        v = np.array([1.0, 0.0])
        data = np.column_stack([v, v])
        coeffs = self_express(data, SparseCodingConfig(method="lasso", lam=0.3))
        np.testing.assert_allclose(
            coeffs.y, np.array([[0.0, 0.7], [0.7, 0.0]]), atol=1e-9)

    def test_two_orthogonal_columns_zero(self):
        coeffs = self_express(np.eye(2), SparseCodingConfig(method="lasso", lam=0.3))
        np.testing.assert_array_equal(coeffs.y, 0.0)

    def test_omp_budget_one(self):
        data = unit_dictionary(5, 3, seed=19)
        coeffs = self_express(data, SparseCodingConfig(method="omp", sparsity_k=1))
        assert coeffs.method == "omp"
        assert coeffs.lam is None
        for j in range(3):
            assert np.count_nonzero(coeffs.y[:, j]) <= 1

    def test_zero_diagonal_always(self):
        data = unit_dictionary(6, 10, seed=20)
        for cfg in (SparseCodingConfig(method="lasso", lam=0.1),
                    SparseCodingConfig(method="omp", sparsity_k=3)):
            assert np.all(np.diag(self_express(data, cfg).y) == 0.0)

    def test_deterministic(self):
        data = unit_dictionary(6, 8, seed=21)
        cfg = SparseCodingConfig(method="lasso", lam=0.2)
        y1 = self_express(data, cfg).y
        y2 = self_express(data, cfg).y
        np.testing.assert_array_equal(y1, y2)

    def test_denoise_threshold_applied(self):
        data = unit_dictionary(6, 10, seed=22)
        coeffs = self_express(data, SparseCodingConfig(method="lasso", lam=0.05))
        nz = coeffs.y[coeffs.y != 0.0]
        assert np.all(np.abs(nz) >= 0.001)

    def test_nonconvergence_warns_but_proceeds(self):
        data = unit_dictionary(4, 25, seed=23)
        cfg = SparseCodingConfig(method="lasso", lam=0.01, max_iter=1, tol=1e-14)
        with pytest.warns(RuntimeWarning, match="step limit"):
            coeffs = self_express(data, cfg)
        assert coeffs.n_nonconverged > 0

    def test_duplicate_columns_certified(self):
        # every twin is a perfect one-atom code, and twins of an active atom
        # sit on the lambda boundary for the whole path without entering
        base = unit_dictionary(6, 8, seed=30)
        data = np.column_stack([base, base[:, :4], base[:, :2]])
        for lam in (0.01, 0.3):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                raw = self_express(data, SparseCodingConfig(lam=lam, denoise_eps=0.0))
            assert raw.n_nonconverged == 0
            for j in range(data.shape[1]):
                others = np.delete(data, j, axis=1)
                col = np.delete(raw.y[:, j], j)
                assert kkt_violation(others, data[:, j], col, lam) < 1e-9

    def test_single_sample_rejected(self):
        with pytest.raises(ValidationError):
            self_express(np.ones((3, 1)), SparseCodingConfig(method="lasso"))

    def test_omp_budget_must_fit(self):
        data = unit_dictionary(4, 3, seed=24)
        with pytest.raises(ParameterError):
            self_express(data, SparseCodingConfig(method="omp", sparsity_k=3))


class TestDenoise:
    def _cm(self, y):
        return CoefficientMatrix(np.array(y), "lasso", 0.3, 0.001)

    def test_small_positive_zeroed(self):
        out = denoise(self._cm([[0.0, 0.0005], [0.5, 0.0]]))
        np.testing.assert_array_equal(out.y, [[0.0, 0.0], [0.5, 0.0]])

    def test_small_negative_zeroed(self):
        out = denoise(self._cm([[0.0, -0.0005], [0.5, 0.0]]))
        np.testing.assert_array_equal(out.y, [[0.0, 0.0], [0.5, 0.0]])

    def test_boundary_value_kept(self):
        out = denoise(self._cm([[0.0, 0.001], [-0.001, 0.0]]))
        np.testing.assert_array_equal(out.y, [[0.0, 0.001], [-0.001, 0.0]])

    def test_config_validation(self):
        with pytest.raises(ParameterError):
            SparseCodingConfig(method="ridge")
        with pytest.raises(ParameterError):
            SparseCodingConfig(method="lasso", lam=-1.0)
        with pytest.raises(ParameterError):
            SparseCodingConfig(method="omp", sparsity_k=0)
