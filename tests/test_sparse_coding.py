import tracemalloc
import warnings
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (homotopy_column_ref, lambda_max, lasso_column, lasso_objective_ref,
                     lasso_prox_grad, omp_best_subset, omp_column, omp_column_lstsq,
                     omp_gram_column_ref)
from usvclust import sparse_coding
from usvclust.config import PreprocessConfig, SparseCodingConfig
from usvclust.errors import ParameterError, ValidationError
from usvclust.outlier_split import split
from usvclust.preprocess import vectorize
from usvclust.sparse_coding import _lasso_gram, _omp_gram, kkt_violation, self_express
from usvclust.synth import generate_segments


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
        y, ok = lasso_column(q, t, lam=0.3)
        assert ok
        corr = q.T @ t
        expected = np.sign(corr) * np.maximum(np.abs(corr) - 0.3, 0.0)
        np.testing.assert_allclose(y, expected, atol=1e-10)

    def test_matches_prox_gradient_oracle(self):
        # the module contract: D=5, 8 atoms, lambda=0.3, agreement 1e-8
        a = unit_dictionary(5, 8, seed=4)
        t = np.random.default_rng(5).standard_normal(5)
        y, ok = lasso_column(a, t, lam=0.3, max_iter=5000)
        assert ok
        ref = lasso_prox_grad(a, t, lam=0.3)
        assert abs(lasso_objective_ref(a, t, y, 0.3)
                   - lasso_objective_ref(a, t, ref, 0.3)) < 1e-8

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 2**31 - 1))
    def test_kkt_conditions_hold(self, seed):
        rng = np.random.default_rng(seed)
        a = unit_dictionary(int(rng.integers(3, 12)), int(rng.integers(2, 16)),
                            seed=seed)
        t = rng.standard_normal(a.shape[0])
        y, ok = lasso_column(a, t, lam=0.3, max_iter=5000)
        if ok:
            assert kkt_violation(a, t, y, 0.3) < 1e-6

    def test_objective_monotone_over_sweeps(self):
        # prefix runs of the homotopy share their path, and the target
        # objective only falls as the path level comes down to lam
        a = unit_dictionary(10, 15, seed=6)
        t = np.random.default_rng(7).standard_normal(10)
        objs = []
        for sweeps in range(1, 30):
            y, _ = lasso_column(a, t, lam=0.3, max_iter=sweeps)
            objs.append(lasso_objective_ref(a, t, y, 0.3))
        diffs = np.diff(objs)
        assert np.all(diffs <= 1e-12)

    def test_nonconvergence_flag(self):
        a = unit_dictionary(5, 30, seed=8)
        t = np.random.default_rng(9).standard_normal(5)
        _, ok = lasso_column(a, t, lam=0.001, max_iter=1)
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
        assert abs(lasso_objective_ref(a, t, y_lo, 0.3)
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
        assert abs(lasso_objective_ref(a, t, y, lam)
                   - lasso_objective_ref(a, t, ref, lam)) < 1e-10


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


def oracle_codes(gram, corr, tt, k, tol, barred):
    """The per-target oracle run on each row, as the columns of one array."""
    return np.column_stack([
        omp_gram_column_ref(gram, corr[i], tt[i], k, tol, None if barred[i] < 0 else barred[i])
        for i in range(corr.shape[0])])


def codes_matrix(codes, n, c):
    """A solver's (cols, active, coef) codes as the columns of one (n, c)
    array; no target may be coded twice."""
    y = np.zeros((n, c))
    times = np.zeros(c, dtype=int)
    for cols, active, coef in codes:
        times[cols] += 1
        y[active, cols[:, None]] = coef
    assert times.max(initial=0) <= 1
    return y


def omp_codes(gram, corr, tt, k, tol, barred):
    """``_omp_gram``'s codes as the columns of one (n, c) array, and its
    count of dependent stops."""
    codes, n_dependent = _omp_gram(gram, corr, tt, k, tol, barred)
    return codes_matrix(codes, gram.shape[0], corr.shape[0]), n_dependent


def self_express_oracle(x, k, tol=1e-7):
    gram = x.T @ x
    n = gram.shape[0]
    return oracle_codes(gram, gram.T, np.diagonal(gram), k, tol, np.arange(n))


class TestBatchedPursuit:
    """The batched Gram-form pursuit against the per-target oracle, bit for bit."""

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**31 - 1), st.booleans())
    def test_matches_per_target_oracle(self, seed, near_duplicates):
        a, _, _ = random_omp_case(seed, near_duplicates)
        rng = np.random.default_rng(seed + 1)
        d, n = a.shape
        c = int(rng.integers(1, 12))
        targets = rng.standard_normal((d, c))
        # some targets repeat an atom, exactly or with a twin left in the
        # dictionary, so tol and the dependence test both come into play
        for i in rng.choice(c, size=int(rng.integers(0, c + 1)), replace=False):
            targets[:, i] = a[:, rng.integers(n)]
        if rng.integers(2):
            a = np.column_stack([a, a[:, :int(rng.integers(1, n + 1))]])
            n = a.shape[1]
        barred = rng.integers(-1, n, size=c)
        gram, corr, tt = a.T @ a, targets.T @ a, np.einsum("ij,ij->j", targets, targets)
        k = int(rng.integers(1, n + 1))
        y, _ = omp_codes(gram, corr, tt, k, 1e-7, barred)
        assert np.array_equal(y, oracle_codes(gram, corr, tt, k, 1e-7, barred))

    def test_every_stop_reason_in_one_batch(self):
        # atoms: e0, a twin of e0 off by 1e-10/2 in squared distance, e1, e2
        e = np.eye(6)
        sin = np.sqrt(0.5e-10)
        twin = np.sqrt(1.0 - sin * sin) * e[0] + sin * e[3]
        a = np.column_stack([e[0], twin, e[1], e[2]])
        targets = np.column_stack([
            e[5],                               # 0: no correlation at all
            e[0] - 0.3 * e[3],                  # 1: e0, then its twin is dependent
            e[1],                               # 2: one atom reaches tol
            e[1] + 0.5 * e[2],                  # 3: two atoms reach tol
            e[1] + 0.5 * e[2],                  # 4: e1 barred: e2, then nothing correlates
            e[0] + 0.7 * e[1] + 0.4 * e[2] + 0.2 * e[4],  # 5: the budget runs out
            e[1],                               # 6: e1 barred, nothing correlates
            e[0] + e[5],                        # 7: e0, then nothing correlates
        ])
        barred = np.array([-1, -1, 3, -1, 2, -1, 2, -1])
        gram, corr = a.T @ a, targets.T @ a
        tt = np.einsum("ij,ij->j", targets, targets)
        y, n_dependent = omp_codes(gram, corr, tt, 3, 1e-7, barred)
        assert np.array_equal(y, oracle_codes(gram, corr, tt, 3, 1e-7, barred))
        assert n_dependent == 1
        supports = [np.flatnonzero(y[:, i]).tolist() for i in range(targets.shape[1])]
        assert supports == [[], [0], [2], [2, 3], [3], [0, 2, 3], [], [0]]
        np.testing.assert_array_equal(y[:, 2], [0.0, 0.0, 1.0, 0.0])

    @pytest.mark.parametrize("per_block", [1, 3, 7])
    def test_blocks_give_the_single_block_result(self, monkeypatch, per_block):
        x = segment_features(2)
        n, k = x.shape[1], 10
        cfg = SparseCodingConfig(method="omp", sparsity_k=k, denoise_eps=0.0)
        whole = self_express(x, cfg)
        monkeypatch.setattr(sparse_coding, "_OMP_BLOCK_BYTES", 8 * k * n * per_block)
        blocked = self_express(x, cfg)
        assert np.array_equal(blocked.y, whole.y)
        assert blocked.n_dependent == whole.n_dependent

    @pytest.mark.parametrize("n, first_round", [(180, [180]), (360, [145, 145, 70])],
                             ids=["180", "360"])
    def test_default_budget_chunks(self, monkeypatch, n, first_round):
        # an omp_sweep archive's 180 inliers are one chunk; 360 are chunks
        # of at most 4 MiB // (8 * 10 * 360) = 145 targets in every round
        calls = []
        step = sparse_coding._omp_step

        def counting(gram, corr, tt, tol, barred, chol, dependent, group, codes):
            calls.append((group[1].shape[1], group[0].size))
            return step(gram, corr, tt, tol, barred, chol, dependent, group, codes)

        monkeypatch.setattr(sparse_coding, "_omp_step", counting)
        self_express(unit_dictionary(20, n, seed=n), SparseCodingConfig(method="omp"))
        assert [size for m, size in calls if m == 0] == first_round
        assert max(size for _, size in calls) == first_round[0]
        assert {m for m, _ in calls} == set(range(10))

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**31 - 1), st.booleans())
    def test_omp_column_is_the_oracle(self, seed, near_duplicates):
        a, t, k = random_omp_case(seed, near_duplicates)
        ref = omp_gram_column_ref(a.T @ a, a.T @ t, float(t @ t), k, 1e-7)
        assert np.array_equal(omp_column(a, t, k), ref)

    @pytest.mark.parametrize("d", [12, 5])
    def test_budget_of_every_other_atom(self, d):
        # sparsity_k = n - 1: with d > n every column uses all other atoms;
        # with d < n the residual vanishes after d of them
        x = unit_dictionary(d, 8, seed=40 + d)
        coeffs = self_express(x, SparseCodingConfig(method="omp", sparsity_k=7, denoise_eps=0.0))
        assert np.array_equal(coeffs.y, self_express_oracle(x, 7))
        nnz = np.count_nonzero(coeffs.y, axis=0)
        assert np.all(nnz == 7) if d > 8 else np.all(nnz <= d)

    @pytest.mark.parametrize("segments, seed", [(200, 100), (400, 1)])
    def test_segment_archives(self, segments, seed):
        # an omp_sweep archive (180 inliers, one chunk a round) and 360 inliers
        archive, _ = generate_segments(segments, 5, seed, outlier_frac=0.1)
        features = vectorize(archive, PreprocessConfig(f=64, t=64))
        x = features.select(split(features, 0.8).inlier_idx).data
        coeffs = self_express(x, SparseCodingConfig(method="omp", sparsity_k=10, denoise_eps=0.0))
        assert np.array_equal(coeffs.y, self_express_oracle(x, 10))

    def test_dependent_columns_counted(self):
        # x and its twin code each other and then the target; the target
        # takes x first, and then the twin is dependent
        rng = np.random.default_rng(33)
        x = rng.standard_normal(6)
        x /= np.linalg.norm(x)
        sin = np.sqrt(0.5e-10)
        perp = rng.standard_normal(6)
        perp -= (perp @ x) * x
        perp /= np.linalg.norm(perp)
        twin = np.sqrt(1.0 - sin * sin) * x + sin * perp
        target = x - 0.3 * perp
        data = np.column_stack([x, twin, target])
        coeffs = self_express(data, SparseCodingConfig(method="omp", sparsity_k=2,
                                                       denoise_eps=0.0))
        assert np.array_equal(coeffs.y, self_express_oracle(data, 2))
        assert coeffs.n_dependent == 1
        denoised = self_express(data, SparseCodingConfig(method="omp", sparsity_k=2,
                                                         denoise_eps=0.5))
        assert denoised.n_dependent == 1


def lasso_codes(gram, corr, lam, max_steps, barred):
    """``_lasso_gram``'s codes as the columns of one (n, c) array, and its
    certificates."""
    codes, certified = _lasso_gram(gram, corr, lam, max_steps, barred)
    return codes_matrix(codes, gram.shape[0], corr.shape[0]), certified


def homotopy_oracle(gram, corr, lam, max_steps, barred):
    """The per-target oracle run on each row, as the columns of one array."""
    runs = [homotopy_column_ref(gram, corr[i], lam, max_steps,
                                None if barred[i] < 0 else barred[i])
            for i in range(corr.shape[0])]
    return np.column_stack([y for y, _ in runs]), np.array([ok for _, ok in runs])


def assert_same_paths(gram, corr, lam, max_steps, barred):
    y, certified = lasso_codes(gram, corr, lam, max_steps, barred)
    ref, ref_certified = homotopy_oracle(gram, corr, lam, max_steps, barred)
    assert np.array_equal(y.view(np.int64), ref.view(np.int64))
    assert np.array_equal(certified, ref_certified)
    return y, certified


# atoms e0, e0 again and e1: their Gram has the exactly singular block
# [[1, 1], [1, 1]], which a path reaches when its correlations with the two
# copies of e0 differ, as no target's can
SINGULAR_GRAM = np.array([[1.0, 1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 1.0]])


class TestBatchedHomotopy:
    """The lockstep homotopy against the per-target oracle, bit for bit."""

    @settings(max_examples=80, deadline=None)
    @given(st.integers(0, 2**31 - 1), st.sampled_from([0.3, 0.1, 0.05, 0.01]),
           st.sampled_from([1, 2, 3, 1000]))
    def test_matches_per_target_oracle(self, seed, lam, max_steps):
        # atoms cluster around a few directions, as samples of one class do,
        # so low lam drops atoms on the way; some targets are atoms, some
        # atoms are duplicated, and max_steps 1-3 stops paths at the cap
        rng = np.random.default_rng(seed)
        d, n, c = int(rng.integers(4, 16)), int(rng.integers(2, 24)), int(rng.integers(1, 16))
        basis = rng.standard_normal((d, int(rng.integers(1, 4))))
        a = basis[:, rng.integers(0, basis.shape[1], n)] + 0.1 * rng.standard_normal((d, n))
        a /= np.linalg.norm(a, axis=0)
        if rng.integers(2):
            a = np.column_stack([a, a[:, :int(rng.integers(1, n + 1))]])
        targets = basis @ rng.standard_normal((basis.shape[1], c)) + 0.1 * rng.standard_normal((d, c))
        for i in rng.choice(c, size=int(rng.integers(0, c + 1)), replace=False):
            targets[:, i] = a[:, rng.integers(a.shape[1])]
        gram, corr = a.T @ a, targets.T @ a
        if rng.integers(4) == 0:
            # twin atoms with correlations no target has: a path that takes
            # both meets an exactly singular block
            gram = np.kron(np.eye(2), SINGULAR_GRAM)[:5, :5]
            corr = rng.uniform(-1.0, 1.0, (c, 5))
        barred = rng.integers(-1, gram.shape[0], size=c)
        assert_same_paths(gram, corr, lam, max_steps, barred)

    def test_singular_block_stops_its_own_path(self):
        # target 0 takes e0 and then its twin: the next solve is singular.
        # Targets 1 and 2 share its stacks and finish; target 2 moves at
        # active-set size 2 alongside it
        corr = np.array([[0.9, -0.5, 0.3], [0.05, 0.05, 0.8], [0.5, 0.5, 0.2]])
        y, certified = assert_same_paths(SINGULAR_GRAM, corr, 0.1, 1000, np.full(3, -1))
        assert certified.tolist() == [False, True, True]
        # the path point reached: e0 after a step of (0.9 - 0.5) / 2, where
        # its twin entered at zero
        np.testing.assert_array_equal(y[:, 0], [0.2, 0.0, 0.0])
        assert np.count_nonzero(y[:, 2]) == 2
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.solve(SINGULAR_GRAM[:2, :2], np.ones(2))

    @pytest.mark.parametrize("max_iter", [1, 2, 3])
    def test_step_cap_counts_and_warning(self, max_iter):
        x = segment_features(3)
        gram = x.T @ x
        n = gram.shape[0]
        ref, ref_certified = homotopy_oracle(gram, gram, 0.3, max_iter, np.arange(n))
        uncertified = int(n - ref_certified.sum())
        assert 0 < uncertified < n
        cfg = SparseCodingConfig(lam=0.3, max_iter=max_iter, denoise_eps=0.0)
        with pytest.warns(RuntimeWarning) as record:
            coeffs = self_express(x, cfg)
        assert [str(w.message) for w in record] == [
            f"{uncertified} of {n} columns are uncertified: they hit the step limit "
            f"({max_iter} homotopy steps) or broke the KKT conditions by more than 1e-09"]
        assert coeffs.n_nonconverged == uncertified
        assert np.array_equal(coeffs.y.view(np.int64), ref.view(np.int64))

    @pytest.mark.parametrize("lam", [0.3, 0.05])
    def test_segment_archive(self, lam):
        # a lasso_k5 archive's 90 inliers, in chunks of every size
        archive, _ = generate_segments(100, 5, 100, outlier_frac=0.1)
        features = vectorize(archive, PreprocessConfig(f=64, t=64))
        x = features.select(split(features, 0.8).inlier_idx).data
        gram = x.T @ x
        assert_same_paths(gram, gram, lam, 1000, np.arange(gram.shape[0]))

    def test_chunks_give_the_one_chunk_result(self, monkeypatch):
        x = segment_features(2)
        cfg = SparseCodingConfig(lam=0.05, denoise_eps=0.0)
        whole = self_express(x, cfg)
        monkeypatch.setattr(sparse_coding, "_LASSO_CHUNK_ROWS", 6)
        chunked = self_express(x, cfg)
        assert np.array_equal(chunked.y.view(np.int64), whole.y.view(np.int64))


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

    def test_lasso_peak_memory(self):
        # y is made and denoised code by code once the gram is freed, so the
        # two are never held at once and no n x n temporary is made
        n = 300
        data = unit_dictionary(30, n, seed=25)
        tracemalloc.start()
        try:
            self_express(data, SparseCodingConfig(method="lasso", lam=0.5))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2.5 * n * n * 8

    @pytest.mark.parametrize("method, bound", [("omp", 2.0), ("lasso", 1.8)])
    def test_peak_memory_on_segments(self, method, bound):
        # both solvers hand back codes, so y (n^2 floats) is only allocated
        # after the gram (n^2) is freed. The peak is one of the two plus the
        # solver's work arrays, not gram, y and a whole-matrix |y| at once
        archive, _ = generate_segments(1000, 5, 7, outlier_frac=0.1)
        data = vectorize(archive, PreprocessConfig(f=16, t=16)).data
        n = data.shape[1]
        tracemalloc.start()
        try:
            self_express(data, SparseCodingConfig(method=method))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < bound * n * n * 8


class TestDenoise:
    @staticmethod
    def _code(cos, eps):
        # two unit columns at cosine ``cos``; at lam=0.3 each codes the
        # other by cos - 0.3 when cos > 0.3, and by cos + 0.3 when cos < -0.3
        data = np.array([[1.0, cos], [0.0, np.sqrt(1.0 - cos * cos)]])
        return self_express(data, SparseCodingConfig(lam=0.3, denoise_eps=eps)).y

    def test_small_positive_zeroed(self):
        assert 0.0 < self._code(0.3005, 0.0)[0, 1] < 0.001
        np.testing.assert_array_equal(self._code(0.3005, 0.001), 0.0)

    def test_small_negative_zeroed(self):
        assert -0.001 < self._code(-0.3005, 0.0)[0, 1] < 0.0
        np.testing.assert_array_equal(self._code(-0.3005, 0.001), 0.0)

    def test_boundary_value_kept(self):
        # an entry exactly at eps survives and one just below it is zeroed,
        # whatever its sign
        for cos in (0.35, -0.35):
            raw = self._code(cos, 0.0)
            eps = abs(raw[0, 1])
            assert raw[1, 0] == raw[0, 1] != 0.0
            np.testing.assert_array_equal(self._code(cos, eps), raw)
            np.testing.assert_array_equal(self._code(cos, np.nextafter(eps, 1.0)), 0.0)

    def test_config_validation(self):
        with pytest.raises(ParameterError):
            SparseCodingConfig(method="ridge")
        with pytest.raises(ParameterError):
            SparseCodingConfig(method="lasso", lam=-1.0)
        for bad in (float("nan"), float("inf")):
            for key in ("lam", "tol", "denoise_eps"):
                with pytest.raises(ParameterError, match="finite"):
                    SparseCodingConfig(**{key: bad})
        with pytest.raises(ParameterError):
            SparseCodingConfig(method="omp", sparsity_k=0)

    @pytest.mark.parametrize("key, message", [
        ("tol", "tol must be positive and finite, got nan"),
        ("denoise_eps", "denoise_eps must be >= 0 and finite, got nan"),
    ], ids=["tol", "denoise_eps"])
    def test_nan_setting_refused_with_its_message(self, key, message):
        with pytest.raises(ParameterError, match=f"^{message}$"):
            SparseCodingConfig(**{key: float("nan")})

    @pytest.mark.parametrize("key, value, message", [
        ("tol", 0.0, "tol must be positive and finite, got 0.0"),
        ("denoise_eps", -1.0, "denoise_eps must be >= 0 and finite, got -1.0"),
        ("max_iter", 0, "max_iter must be >= 1, got 0"),
    ], ids=["tol", "denoise_eps", "max_iter"])
    def test_setting_refused_with_its_message(self, key, value, message):
        with pytest.raises(ParameterError, match=f"^{message}$"):
            SparseCodingConfig(**{key: value})
