"""Top-level acceptance checks, one test per headline guarantee.

Each test prints a single `acceptance k/9 ...: PASS|FAIL` line straight to
the terminal (capture is suspended just for that line), so a full run ends
with a nine-line scoreboard. Every tolerance is a pinned literal in the
test that uses it.
"""

import contextlib
import time
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

from oracles import (brute_force_split, clustering_error, lasso_column, lasso_objective_ref,
                     lasso_prox_grad, omp_column, reference_bicubic,
                     reference_lsym_eigvals, straight_line_metrics)
from usvclust.cli import main as cli_main
from usvclust.config import PipelineConfig, SparseCodingConfig
from usvclust.ingest import write_archive, write_vectors
from usvclust.kmeans import kmeans
from usvclust.metrics import distance_stats, pairwise_cosine_distances
from usvclust.outlier_split import split
from usvclust.pipeline import load_features, run_pipeline
from usvclust.preprocess import normalize_columns, resize_bicubic
from usvclust.sparse_coding import self_express
from usvclust.spectral import affinity_from_coefficients, embed
from usvclust.synth import SubspaceSpec, generate_segments, generate_subspaces

# Captured once from the method table that `scripts/sweep.py --vary method
# kmeans cs_sc lasso_ssc` prints, at the exact settings of
# test_lasso_ssc_at_least_matches_baselines (archive seed 1, pipeline seed 0,
# K=5, tau=0.8, lambda=0.3, 64x64 grid). The test is a fixed-seed regression
# against these numbers.
TREND_BASELINE = {
    "d_cos_hmean": 0.85160991278463893,
    "d_cos_std": 0.04590547988640787,
    "d_cos_hmean_full": 0.83645028534196142,
    "d_cos_std_full": 0.04347890428822927,
}


@pytest.fixture
def scoreboard(capfd):
    @contextlib.contextmanager
    def entry(line):
        ok = False
        try:
            yield
            ok = True
        finally:
            with capfd.disabled():
                print(f"\n{line}: {'PASS' if ok else 'FAIL'}", flush=True)

    return entry


def test_lasso_satisfies_kkt_and_matches_prox_gradient(scoreboard):
    with scoreboard("acceptance 1/9 lasso KKT conditions + objective vs "
                    "prox-gradient oracle"):
        rng = np.random.default_rng(11)
        start = time.perf_counter()
        for _ in range(50):
            a = rng.standard_normal((30, 40))
            a /= np.linalg.norm(a, axis=0)
            t = rng.standard_normal(30)
            y, converged = lasso_column(a, t, lam=0.3)
            assert converged
            corr = a.T @ (t - a @ y)
            on = y != 0.0
            assert np.all(np.abs(corr[~on]) <= 0.3 + 1e-5)
            assert np.all(np.abs(corr[on] - 0.3 * np.sign(y[on])) <= 1e-5)
            ref = lasso_prox_grad(a, t, 0.3)
            gap = abs(lasso_objective_ref(a, t, y, 0.3)
                      - lasso_objective_ref(a, t, ref, 0.3))
            assert gap <= 1e-6
        assert time.perf_counter() - start < 10.0


def test_omp_recovers_exact_supports_on_orthonormal_dictionaries(scoreboard):
    with scoreboard("acceptance 2/9 omp exact recovery of 3-sparse targets"):
        rng = np.random.default_rng(22)
        for _ in range(100):
            q, _ = np.linalg.qr(rng.standard_normal((20, 20)))
            support = rng.choice(20, size=3, replace=False)
            coef = rng.uniform(0.5, 2.0, size=3) * rng.choice([-1.0, 1.0], size=3)
            y = omp_column(q, q[:, support] @ coef, sparsity_k=3)
            assert set(np.flatnonzero(y)) == set(support)
            assert np.max(np.abs(y[support] - coef)) <= 1e-10


def test_spectral_recovers_blocks_and_matches_dense_eigensolver(scoreboard):
    with scoreboard("acceptance 3/9 spectral clustering on block-diagonal "
                    "affinities + eigenvalue oracle"):
        rng = np.random.default_rng(33)
        for trial in range(12):
            n_blocks = 2 + trial % 3
            sizes = rng.integers(5, 51, size=n_blocks)
            blocks, truth = [], []
            for b, size in enumerate(sizes):
                w = rng.uniform(0.5, 1.0, size=(size, size))
                w = (w + w.T) / 2.0
                np.fill_diagonal(w, 0.0)
                blocks.append(w)
                truth.extend([b] * int(size))
            affinity = scipy.linalg.block_diag(*blocks)
            # embed writes L_sym over the affinity it is handed
            labels = kmeans(embed(affinity.copy(), n_blocks).coords, n_blocks, seed=0).labels
            assert clustering_error(labels, np.array(truth)) == 0.0
            spectrum = embed(affinity.copy(), len(affinity)).eigenvalues
            ref = reference_lsym_eigvals(affinity)
            assert np.max(np.abs(spectrum - ref)) <= 1e-9
            assert int(np.sum(spectrum < 1e-8)) == n_blocks


def test_subspace_clustering_end_to_end(scoreboard, tmp_path):
    with scoreboard("acceptance 4/9 lasso-ssc on synthetic subspaces, "
                    "clean and with outliers"):
        start = time.perf_counter()

        clean = SubspaceSpec(ambient_dim=64, dims=(3, 3, 3),
                             points_per=50, noise_sigma=0.01, seed=4)
        features, truth = generate_subspaces(clean)
        coeffs = self_express(features.data,
                              SparseCodingConfig(method="lasso", lam=0.3))
        labels = kmeans(embed(affinity_from_coefficients(coeffs.y), 3).coords, 3,
                        seed=0).labels
        assert clustering_error(labels, truth) <= 0.05

        dirty = SubspaceSpec(ambient_dim=64, dims=(3, 3, 3),
                             points_per=50, noise_sigma=0.01,
                             outlier_count=20, seed=4)
        features, truth = generate_subspaces(dirty)
        vec_path = tmp_path / "vectors.csv"
        write_vectors(features.ids, features.data.T, vec_path)
        cfg = PipelineConfig(input=str(vec_path),
                             output_dir=str(tmp_path / "out"),
                             method="lasso_ssc", k=3, tau=0.8, seed=0)
        model = run_pipeline(cfg)[0].model
        is_inlier = truth >= 0
        assert clustering_error(model.labels[is_inlier], truth[is_inlier]) <= 0.05
        assert np.all((model.labels[~is_inlier] >= 0)
                      & (model.labels[~is_inlier] < 3))

        assert time.perf_counter() - start < 60.0


def test_metric_formula_checks(scoreboard, tmp_path):
    with scoreboard("acceptance 5/9 metric formulas: orthogonal pair, AM-HM, "
                    "straight-line recompute"):
        assert distance_stats(np.eye(2))[0] == 1.0

        rng = np.random.default_rng(55)
        for _ in range(1000):
            k = int(rng.integers(2, 7))
            cents = rng.standard_normal((k, 5))
            dists = pairwise_cosine_distances(cents)
            assert distance_stats(cents)[0] <= float(np.mean(dists)) + 1e-12

        archive, _ = generate_segments(40, 3, 5, outlier_frac=0.1)
        arch_path = tmp_path / "segments.ssca"
        write_archive(archive, arch_path)
        cfg = PipelineConfig(input=str(arch_path),
                             output_dir=str(tmp_path / "out"),
                             method="cs_sc", k=3, tau=0.8, f=16, t=16, seed=0)
        result = run_pipeline(cfg)[0]
        features, _ = load_features(arch_path, 16, 16)
        outlier_mask = np.zeros(features.n, dtype=bool)
        outlier_mask[result.model.partition.outlier_idx] = True
        ref = straight_line_metrics(features.data, result.model.labels,
                                    outlier_mask, 3)
        for key, value in ref.items():
            assert abs(getattr(result.report, key) - value) <= 1e-12


def test_lasso_ssc_at_least_matches_baselines(scoreboard, tmp_path):
    with scoreboard("acceptance 6/9 method comparison on the fixed segment "
                    "archive + frozen regression values"):
        archive, _ = generate_segments(200, 5, 1, outlier_frac=0.1)
        arch_path = tmp_path / "segments.ssca"
        write_archive(archive, arch_path)
        reports = {}
        for method in ("kmeans", "cs_sc", "lasso_ssc"):
            cfg = PipelineConfig(input=str(arch_path),
                                 output_dir=str(tmp_path / method),
                                 method=method, k=5, tau=0.8, seed=0)
            reports[method] = run_pipeline(cfg)[0].report

        lasso = reports["lasso_ssc"]
        for baseline in (reports["kmeans"], reports["cs_sc"]):
            assert lasso.d_cos_hmean >= baseline.d_cos_hmean
            assert lasso.d_cos_std <= baseline.d_cos_std
            assert lasso.d_cos_hmean_full >= baseline.d_cos_hmean_full
            assert lasso.d_cos_std_full <= baseline.d_cos_std_full

        # 1e-6 leaves slack for BLAS/LAPACK build differences
        for key, frozen in TREND_BASELINE.items():
            assert abs(getattr(lasso, key) - frozen) <= 1e-6


def test_bicubic_resize_properties_and_reference_match(scoreboard):
    with scoreboard("acceptance 7/9 bicubic resize: constant preservation, "
                    "identity, reference interpolator"):
        for shape, target in (((7, 13), (64, 64)), ((64, 64), (16, 50)),
                              ((20, 5), (37, 41))):
            out = resize_bicubic(np.full(shape, 0.7), *target)
            assert np.max(np.abs(out - 0.7)) <= 1e-12

        rng = np.random.default_rng(77)
        grid = rng.uniform(0.0, 2.0, size=(23, 17))
        assert np.max(np.abs(resize_bicubic(grid, 23, 17) - grid)) <= 1e-12

        archive, _ = generate_segments(20, 5, 7)
        for seg in archive.segments:
            got = resize_bicubic(seg.energy, 64, 64)
            ref = reference_bicubic(seg.energy, 64, 64)
            assert np.max(np.abs(got - ref)) <= 1e-9


def test_pipeline_runs_are_byte_identical(scoreboard, tmp_path):
    with scoreboard("acceptance 8/9 identical config and seed give "
                    "byte-identical pipeline outputs"):
        arch_path = tmp_path / "segments.ssca"
        assert cli_main(["synth", "segments", "--n", "30", "--classes", "3",
                         "--outlier_frac", "0.1", "--seed", "2",
                         "--output", str(arch_path)]) == 0

        def tree_bytes(root: Path):
            return {p.relative_to(root).as_posix(): p.read_bytes()
                    for p in sorted(root.rglob("*")) if p.is_file()}

        trees = []
        for out in ("run_a", "run_b"):
            args = ["pipeline", "--input", str(arch_path),
                    "--output_dir", str(tmp_path / out),
                    "--method", "lasso_ssc", "--k", "2,3", "--tau", "0.8",
                    "--f", "16", "--t", "16", "--seed", "0",
                    "--export_embedding", "--dump_coefficients"]
            assert cli_main(args) == 0
            trees.append(tree_bytes(tmp_path / out))
        assert trees[0] == trees[1]


def test_outlier_split_matches_brute_force_and_is_monotone(scoreboard):
    with scoreboard("acceptance 9/9 outlier split equals the O(N^2) oracle "
                    "and shrinks as tau rises"):
        rng = np.random.default_rng(99)
        features = normalize_columns(rng.standard_normal((12, 200)),
                                     [f"v{i}" for i in range(200)])
        previous = None
        for tau in (0.5, 0.7, 0.8, 0.95):
            part = split(features, tau)
            ref_in, ref_out = brute_force_split(features.data, tau)
            assert part.inlier_idx.tolist() == ref_in
            assert part.outlier_idx.tolist() == ref_out
            current = set(ref_in)
            if previous is not None:
                assert current <= previous
            previous = current
