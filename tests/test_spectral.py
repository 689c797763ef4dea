import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (affinity_from_cosine_ref, cosine_gram_ref,
                     reference_lsym_eigvals)
from usvclust.errors import NumericalError, ParameterError, ValidationError
from usvclust.kmeans import kmeans
from usvclust.spectral import (affinity_from_coefficients, affinity_from_cosine,
                               checked_norms, cosine_gram, embed)


def block_affinity(sizes, weight=1.0):
    n = sum(sizes)
    a = np.zeros((n, n))
    start = 0
    for size in sizes:
        a[start:start + size, start:start + size] = weight
        start += size
    np.fill_diagonal(a, 0.0)
    return a


class TestCheckedNorms:
    @pytest.mark.parametrize("shape, axis", [((7,), None), ((5, 6), None),
                                             ((5, 6), 0), ((5, 6), 1)])
    def test_norms_are_numpys_bit_for_bit(self, shape, axis):
        data = np.random.default_rng(4).standard_normal(shape)
        got = checked_norms(data, axis, "vector {}".format)
        want = np.linalg.norm(data, axis=axis)
        assert np.shape(got) == np.shape(want)
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes()

    @pytest.mark.parametrize("values, what", [
        ([0.0, -0.0], "is all zero"),
        ([1e-170, 2e-170], "has norm 0.0"),  # the squared norm underflows
        ([1e200, 1.0], "has norm inf"),  # the squared norm overflows
        ([np.nan, 1.0], "has norm nan"),
    ])
    @pytest.mark.parametrize("axis", [None, 0, 1])
    def test_refusal_says_all_zero_only_for_a_zero_vector(self, values, what, axis):
        if axis is None:
            data, name = np.array(values), "v".format
        else:
            bad = np.array([[1.0, 2.0], values])
            data, name = (bad.T if axis == 0 else bad), "vector {}".format
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError) as err:
                checked_norms(data, axis, name)
        assert str(err.value) == ("v " if axis is None else "vector 1 ") + what

    def test_whole_matrix_with_axis_none(self):
        data = np.array([[0.0, 1e200], [3.0, 0.0]])
        with pytest.raises(ValidationError, match=r"^m has norm inf$"):
            checked_norms(data, None, "m".format)
        with pytest.raises(ValidationError, match=r"^m is all zero$"):
            checked_norms(np.zeros((2, 3)), None, "m".format)


class TestCosineGram:
    def test_unit_diagonal_and_symmetry(self):
        # no averaging pass: numpy's product itself must be exactly
        # symmetric, in either memory layout of the data
        rng = np.random.default_rng(0)
        for n in (1, 2, 63, 64, 65, 130):
            for d in (1, 6, 300):
                data = rng.standard_normal((d, n))
                for layout in (np.ascontiguousarray, np.asfortranarray):
                    g = cosine_gram(layout(data))
                    assert np.array_equal(g, g.T), (n, d, layout.__name__)
                    np.testing.assert_array_equal(np.diag(g), 1.0)

    def test_range(self):
        rng = np.random.default_rng(1)
        g = cosine_gram(rng.standard_normal((4, 30)))
        assert g.min() >= -1.0 and g.max() <= 1.0

    def test_duplicates_snap_to_one(self):
        v = np.random.default_rng(2).standard_normal(8)
        g = cosine_gram(np.column_stack([v, 3.0 * v]))
        assert g[0, 1] == 1.0

    def test_zero_column_rejected(self):
        with pytest.raises(ValidationError):
            cosine_gram(np.array([[1.0, 0.0], [0.0, 0.0]]))

    @pytest.mark.parametrize("value, norm", [
        (1e308, "inf"),  # finite, but its square overflows
        (np.inf, "inf"),
        (np.nan, "nan"),
    ])
    def test_non_finite_norm_rejected(self, value, norm):
        data = np.array([[1.0, value, 0.0], [0.0, value, 1.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match=rf"^column 1 has norm {norm}$"):
                cosine_gram(data)

    @pytest.mark.parametrize("d, n", [(5, 1), (5, 2), (9, 65), (300, 130)])
    def test_bits_match_reference(self, d, n):
        data = np.random.default_rng(n).standard_normal((d, n))
        data[:, n // 2] = -2.0 * data[:, 0]
        data[:, n - 1] = 3.0 * data[:, 0]
        got = cosine_gram(data)
        np.testing.assert_array_equal(got.view(np.int64),
                                      cosine_gram_ref(data).view(np.int64))

    def test_peak_memory_one_gram_and_a_band(self):
        # the product is the only N x N array: no pass holds a transposed copy
        data = np.random.default_rng(3).standard_normal((20, 500))
        tracemalloc.start()
        try:
            g = cosine_gram(data)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * g.nbytes


class TestAffinityFromCoefficients:
    def test_direct_formula(self):
        y = np.array([[0.0, 0.7], [0.7, 0.0]])
        np.testing.assert_array_equal(
            affinity_from_coefficients(y), [[0.0, 1.4], [1.4, 0.0]])

    def test_zero(self):
        np.testing.assert_array_equal(
            affinity_from_coefficients(np.zeros((3, 3))), 0.0)

    def test_absolute_values_sum(self):
        y = np.array([[0.0, -0.2], [0.5, 0.0]])
        np.testing.assert_array_equal(
            affinity_from_coefficients(y), [[0.0, 0.7], [0.7, 0.0]])

    def test_exactly_symmetric(self):
        rng = np.random.default_rng(3)
        y = rng.standard_normal((20, 20))
        np.fill_diagonal(y, 0.0)
        a = affinity_from_coefficients(y)
        np.testing.assert_array_equal(a, a.T)
        assert np.all(a >= 0)
        assert np.all(np.diag(a) == 0)

    def test_nonzero_diagonal_rejected(self):
        with pytest.raises(ValidationError):
            affinity_from_coefficients(np.eye(3))


class TestAffinityFromCosine:
    def test_identical_columns(self):
        v = np.array([0.6, 0.8])
        a = affinity_from_cosine(cosine_gram(np.column_stack([v, v])))
        assert a[0, 1] == 1.0 and a[1, 0] == 1.0
        assert a[0, 0] == 0.0

    def test_orthogonal_columns(self):
        a = affinity_from_cosine(cosine_gram(np.eye(2)))
        np.testing.assert_array_equal(a, 0.0)

    def test_antiparallel_clamped(self):
        v = np.array([1.0, 2.0])
        a = affinity_from_cosine(cosine_gram(np.column_stack([v, -v])))
        np.testing.assert_array_equal(a, 0.0)

    @pytest.mark.parametrize("seed", range(3))
    def test_equals_symmetrized_original_on_gram_slices(self, seed):
        # cosine_gram is exactly symmetric, so (a + a.T) / 2 changed no bit
        rng = np.random.default_rng(seed)
        data = rng.standard_normal((30, 40))
        data[:, 5] = data[:, 4]
        data[:, 7] = -data[:, 6]
        data[:, 9] = 3.0 * data[:, 8]
        gram = cosine_gram(data)
        idx = np.sort(rng.choice(40, size=25, replace=False))
        for g in (gram, gram[np.ix_(idx, idx)], gram[4:10, 4:10]):
            assert affinity_from_cosine(g).tobytes() == affinity_from_cosine_ref(g).tobytes()


class TestEmbed:
    def test_two_cliques_piecewise_constant(self):
        a = block_affinity([3, 3])
        emb = embed(a, 2)
        np.testing.assert_allclose(emb.eigenvalues, 0.0, atol=1e-12)
        for block in (slice(0, 3), slice(3, 6)):
            rows = emb.coords[block]
            np.testing.assert_allclose(rows - rows[0], 0.0, atol=1e-9)

    def test_complete_graph_constant_eigenvector(self):
        n = 5
        a = np.ones((n, n)) - np.eye(n)
        emb = embed(a, 1)
        assert abs(emb.eigenvalues[0]) < 1e-12
        v = emb.coords[:, 0]
        np.testing.assert_allclose(v, v[0], atol=1e-12)

    def test_eigenvalues_match_dense_oracle(self):
        rng = np.random.default_rng(4)
        a = rng.uniform(0.1, 2.0, (6, 6))
        a = (a + a.T) / 2.0
        np.fill_diagonal(a, 0.0)
        ours = embed(a.copy(), len(a)).eigenvalues
        ref = reference_lsym_eigvals(a)
        np.testing.assert_allclose(ours, ref, atol=1e-9)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**31 - 1), st.integers(3, 20))
    def test_eigenvalue_range(self, seed, n):
        rng = np.random.default_rng(seed)
        a = rng.uniform(0.0, 1.0, (n, n))
        a = (a + a.T) / 2.0
        np.fill_diagonal(a, 0.0)
        a += 1e-6  # keep every degree positive
        np.fill_diagonal(a, 0.0)
        w = embed(a, len(a)).eigenvalues
        assert w[0] > -1e-9
        assert w[-1] < 2.0 + 1e-9

    def test_zero_eigenvalue_count_equals_components(self):
        for sizes in ([4, 7], [3, 3, 3], [5, 6, 7, 8]):
            a = block_affinity(sizes)
            w = embed(a, len(a)).eigenvalues
            assert int(np.sum(np.abs(w) < 1e-9)) == len(sizes)

    def test_isolated_node_rejected(self):
        a = block_affinity([3, 3])
        a[2, :] = 0.0
        a[:, 2] = 0.0
        with pytest.raises(ValidationError, match="outlier"):
            embed(a, 2)

    def test_k_out_of_range(self):
        a = block_affinity([4])
        with pytest.raises(ParameterError):
            embed(a, 5)

    def test_overwrites_only_a_writable_float64_affinity(self):
        # L_sym is built in the affinity's own buffer; a read-only or other
        # dtype affinity is copied or converted first and left as it was
        a = block_affinity([3, 4])
        s = 1.0 / np.sqrt(a.sum(axis=1))
        lsym = np.eye(7) - a * np.outer(s, s)
        want = embed(a.copy(), 2).coords
        frozen = a.copy()
        frozen.flags.writeable = False
        for other in (frozen, a.astype(np.float32), a.astype(np.int64)):
            before = other.copy()
            assert embed(other, 2).coords.tobytes() == want.tobytes()
            assert other.tobytes() == before.tobytes()
        assert embed(a, 2).coords.tobytes() == want.tobytes()
        assert a.tobytes() == lsym.tobytes()

    def test_peak_memory_is_one_n_by_n_array_beyond_the_input(self):
        # eigh's eigenvectors are the one n x n array embed keeps; a separate
        # L_sym beside the affinity made it two
        rng = np.random.default_rng(8)
        a = rng.uniform(0.1, 1.0, (1200, 1200))
        a = (a + a.T) / 2.0
        np.fill_diagonal(a, 0.0)
        tracemalloc.start()
        try:
            embed(a, 5)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.25 * a.nbytes

    def test_coords_own_their_n_by_k_values(self):
        # the leading k columns of the scaled eigenvectors, in an n x k array
        # of their own rather than a view that keeps the n x n product alive
        rng = np.random.default_rng(6)
        a = rng.uniform(0.1, 1.0, (9, 9))
        a = (a + a.T) / 2.0
        np.fill_diagonal(a, 0.0)
        coords = embed(a.copy(), 3).coords
        full = embed(a, 9).coords
        assert coords.shape == (9, 3) and coords.flags.owndata
        assert coords.tobytes() == np.ascontiguousarray(full[:, :3]).tobytes()

    def test_random_walk_eigenvector_identity(self):
        # returned vectors v satisfy (I - D^-1 A) v = w v
        rng = np.random.default_rng(5)
        a = rng.uniform(0.1, 1.0, (7, 7))
        a = (a + a.T) / 2.0
        np.fill_diagonal(a, 0.0)
        emb = embed(a.copy(), 7)
        lrw = np.eye(7) - a / a.sum(axis=1)[:, None]
        for i in range(7):
            v = emb.coords[:, i]
            np.testing.assert_allclose(lrw @ v, emb.eigenvalues[i] * v, atol=1e-9)


class TestSpectralCluster:
    def test_two_blocks_recovered(self):
        a = block_affinity([5, 9])
        labels = kmeans(embed(a, 2).coords, 2, seed=0).labels
        assert len(set(labels[:5])) == 1
        assert len(set(labels[5:])) == 1
        assert labels[0] != labels[5]

    def test_single_block_k1(self):
        labels = kmeans(embed(block_affinity([6]), 1).coords, 1, seed=0).labels
        assert np.all(labels == 0)

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(6)
        a = rng.uniform(0.0, 1.0, (12, 12))
        a = (a + a.T) / 2.0
        np.fill_diagonal(a, 0.0)
        l1 = kmeans(embed(a.copy(), 3).coords, 3, seed=42).labels
        l2 = kmeans(embed(a, 3).coords, 3, seed=42).labels
        np.testing.assert_array_equal(l1, l2)
