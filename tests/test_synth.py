import numpy as np
import pytest

from usvclust.errors import ParameterError
from usvclust.synth import SubspaceSpec, generate_segments, generate_subspaces


class TestSubspaceSpec:
    def test_dim_must_fit_ambient(self):
        with pytest.raises(ParameterError):
            SubspaceSpec(ambient_dim=4, dims=(4,), points_per=10)

    def test_points_per_floor(self):
        with pytest.raises(ParameterError):
            SubspaceSpec(ambient_dim=10, dims=(3,), points_per=3)

    def test_subspace_count_is_not_an_argument(self):
        # the count is len(dims); it is not stored a second time
        with pytest.raises(TypeError, match="n_subspaces"):
            SubspaceSpec(ambient_dim=10, n_subspaces=1, dims=(3,), points_per=5)

    @pytest.mark.parametrize("field, value", [
        ("seed", -2), ("noise_sigma", -0.1),
        ("noise_sigma", float("nan")), ("noise_sigma", float("inf"))])
    def test_seed_and_noise_ranges(self, field, value):
        with pytest.raises(ParameterError, match=field):
            SubspaceSpec(ambient_dim=10, dims=(3,), points_per=5,
                         **{field: value})


class TestGenerateSubspaces:
    def test_noise_free_line_collapses(self):
        spec = SubspaceSpec(ambient_dim=8, dims=(1,),
                            points_per=6, noise_sigma=0.0, seed=0)
        fm, labels = generate_subspaces(spec)
        # every column is the same unit vector up to sign
        base = fm.data[:, 0]
        for j in range(1, 6):
            dot = abs(base @ fm.data[:, j])
            assert abs(dot - 1.0) < 1e-12
        assert labels.tolist() == [0] * 6

    def test_orthogonal_1d_subspaces_nearly_uncorrelated(self):
        # random 1-D subspaces in high dimension are near-orthogonal; check
        # the cross-subspace structure is as labeled rather than mixed
        spec = SubspaceSpec(ambient_dim=50, dims=(1, 1),
                            points_per=5, noise_sigma=0.0, seed=1)
        fm, labels = generate_subspaces(spec)
        within = abs(fm.data[:, 0] @ fm.data[:, 1])
        across = abs(fm.data[:, 0] @ fm.data[:, 5])
        assert within > 1.0 - 1e-12
        assert across < 0.5

    def test_deterministic(self):
        spec = SubspaceSpec(ambient_dim=12, dims=(2, 3),
                            points_per=7, noise_sigma=0.05, outlier_count=4,
                            seed=123)
        fm1, l1 = generate_subspaces(spec)
        fm2, l2 = generate_subspaces(spec)
        np.testing.assert_array_equal(fm1.data, fm2.data)
        np.testing.assert_array_equal(l1, l2)

    def test_noise_free_points_lie_in_their_subspace(self):
        spec = SubspaceSpec(ambient_dim=20, dims=(3, 2, 4),
                            points_per=8, noise_sigma=0.0, seed=2)
        fm, labels = generate_subspaces(spec)
        for c, dim in enumerate(spec.dims):
            block = fm.data[:, labels == c]
            # recover the subspace from the block itself and measure residual
            u, s, _ = np.linalg.svd(block, full_matrices=False)
            basis = u[:, :dim]
            residual = block - basis @ (basis.T @ block)
            assert np.abs(residual).max() < 1e-10

    def test_outliers_spread_over_the_sphere(self):
        spec = SubspaceSpec(ambient_dim=40, dims=(4,),
                            points_per=5, noise_sigma=0.0, outlier_count=200,
                            seed=3)
        fm, labels = generate_subspaces(spec)
        outliers = fm.data[:, labels == -1]
        block = fm.data[:, labels == 0]
        u, _, _ = np.linalg.svd(block, full_matrices=False)
        basis = u[:, :4]
        proj = np.sum((basis.T @ outliers) ** 2, axis=0)
        # expected squared projection of a random direction is dim/ambient
        assert abs(proj.mean() - 4 / 40) < 0.05

    def test_unit_columns_and_id_scheme(self):
        spec = SubspaceSpec(ambient_dim=10, dims=(2, 2),
                            points_per=4, outlier_count=2, seed=4)
        fm, labels = generate_subspaces(spec)
        np.testing.assert_allclose(np.linalg.norm(fm.data, axis=0), 1.0,
                                   atol=1e-12)
        assert fm.ids[0] == "s0_p0"
        assert fm.ids[-1] == "out_1"
        assert labels.tolist() == [0] * 4 + [1] * 4 + [-1, -1]


class TestGenerateSegments:
    def test_single_flat_segment_constant_argmax(self):
        archive, labels = generate_segments(1, 1, seed=0)
        assert labels.tolist() == [0]
        seg = archive.segments[0]
        argmax = seg.energy.argmax(axis=0)
        assert np.all(argmax == argmax[0])

    def test_upward_sweep_strictly_monotone(self):
        archive, labels = generate_segments(10, 5, seed=1)
        ups = [s for s, l in zip(archive.segments, labels) if l == 1]
        assert ups and all("up" in s.id for s in ups)
        for seg in ups:
            argmax = seg.energy.argmax(axis=0)
            assert np.all(np.diff(argmax) > 0)

    def test_downward_sweep_strictly_monotone(self):
        archive, labels = generate_segments(10, 5, seed=2)
        downs = [s for s, l in zip(archive.segments, labels) if l == 2]
        for seg in downs:
            argmax = seg.energy.argmax(axis=0)
            assert np.all(np.diff(argmax) < 0)

    def test_deterministic(self):
        a1, l1 = generate_segments(12, 3, seed=9, outlier_frac=0.25)
        a2, l2 = generate_segments(12, 3, seed=9, outlier_frac=0.25)
        assert a1.ids == a2.ids
        np.testing.assert_array_equal(l1, l2)
        for s1, s2 in zip(a1.segments, a2.segments):
            np.testing.assert_array_equal(s1.energy, s2.energy)

    def test_outlier_fraction_and_labels(self):
        archive, labels = generate_segments(20, 4, seed=3, outlier_frac=0.25)
        assert len(archive) == 20
        assert int(np.sum(labels == -1)) == 5
        assert np.all(labels[:15] >= 0)
        assert np.all(labels[15:] == -1)
        inlier = labels[labels >= 0]
        assert set(inlier.tolist()) == {0, 1, 2, 3}

    def test_round_robin_classes(self):
        _, labels = generate_segments(7, 3, seed=4)
        assert labels.tolist() == [0, 1, 2, 0, 1, 2, 0]

    def test_all_energies_valid(self):
        archive, _ = generate_segments(15, 5, seed=5, outlier_frac=0.2)
        for seg in archive.segments:
            assert np.all(seg.energy >= 0)
            assert np.all(np.isfinite(seg.energy))
            assert seg.n_freq >= 2 and seg.n_time >= 2

    def test_parameter_validation(self):
        with pytest.raises(ParameterError):
            generate_segments(0, 3, seed=0)
        with pytest.raises(ParameterError):
            generate_segments(5, 0, seed=0)
        with pytest.raises(ParameterError):
            generate_segments(5, 6, seed=0)
        with pytest.raises(ParameterError):
            generate_segments(5, 3, seed=0, outlier_frac=1.0)

    def test_negative_seed(self):
        with pytest.raises(ParameterError, match="seed must be >= 0"):
            generate_segments(5, 3, seed=-1)
