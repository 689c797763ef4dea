import dataclasses
import tracemalloc
import weakref

import numpy as np
import pytest

from usvclust import ingest, metrics, pipeline
from usvclust.config import PipelineConfig
from usvclust.errors import FormatError, ParameterError, ValidationError
from usvclust.kmeans import kmeans, principal_axes
from usvclust.metrics import MetricsReport
from usvclust.outlier_split import split
from usvclust.pipeline import (KResult, evaluate, load_features, run_pipeline,
                               write_outputs)
from usvclust.preprocess import FeatureMatrix
from usvclust.sparse_coding import self_express
from usvclust.spectral import (affinity_from_coefficients, affinity_from_cosine,
                               cosine_gram, embed)
from usvclust.synth import SubspaceSpec, generate_segments, generate_subspaces


@pytest.fixture(scope="module")
def segment_archive(tmp_path_factory):
    base = tmp_path_factory.mktemp("segs")
    archive, _ = generate_segments(18, 3, seed=0, outlier_frac=0.15)
    path = base / "segs.ssca"
    ingest.write_archive(archive, path)
    return path


def make_cfg(segment_archive, out, **kw):
    defaults = dict(input=str(segment_archive), output_dir=str(out),
                    method="cs_sc", k=3, tau=0.8, f=12, t=12, seed=0)
    defaults.update(kw)
    return PipelineConfig(**defaults)


class TestLoadFeatures:
    def test_binary_archive(self, segment_archive):
        fm, shape = load_features(segment_archive, f=12, t=12)
        assert shape == (12, 12)
        assert fm.d == 144 and fm.n == 18

    def test_directory_archive(self, tmp_path):
        archive, _ = generate_segments(4, 2, seed=1)
        ingest.write_archive(archive, tmp_path / "arch")
        fm, shape = load_features(tmp_path / "arch", f=8, t=8)
        assert shape == (8, 8)
        assert fm.n == 4

    def test_vector_csv(self, tmp_path):
        spec = SubspaceSpec(ambient_dim=6, dims=(2,), points_per=5)
        fm0, _ = generate_subspaces(spec)
        path = tmp_path / "vecs.csv"
        ingest.write_vectors(fm0.ids, fm0.data.T, path)
        fm, shape = load_features(path)
        assert shape is None
        assert fm.ids == fm0.ids
        np.testing.assert_allclose(fm.data, fm0.data, atol=1e-15)

    def test_unknown_suffix(self, tmp_path):
        with pytest.raises(FormatError, match="input kind"):
            load_features(tmp_path / "data.txt")


class TestRunPipeline:
    def test_single_k_results(self, segment_archive, tmp_path):
        cfg = make_cfg(segment_archive, tmp_path / "out")
        results = run_pipeline(cfg)
        assert len(results) == 1
        res = results[0]
        assert res.k == 3
        assert res.report.k == 3
        assert res.model.labels.shape == (18,)
        assert set(res.model.inlier_labels.tolist()) == {0, 1, 2}
        assert sum(res.report.cluster_sizes_full) == 18

    def test_all_outliers_rejected(self, tmp_path):
        spec = SubspaceSpec(ambient_dim=16, dims=(1,),
                            points_per=2, outlier_count=6, seed=5)
        fm, _ = generate_subspaces(spec)
        path = tmp_path / "vecs.csv"
        # keep only the mutually near-orthogonal outlier columns
        ingest.write_vectors(fm.ids[2:], fm.data[:, 2:].T, path)
        cfg = PipelineConfig(input=str(path), output_dir=str(tmp_path / "o"),
                             method="cs_sc", k=2, tau=0.999)
        with pytest.raises(ValidationError, match="outlier"):
            run_pipeline(cfg)

    def test_one_sample_rejected(self, tmp_path):
        archive, _ = generate_segments(1, 1, seed=0)
        ingest.write_archive(archive, tmp_path / "one.ssca")
        cfg = make_cfg(tmp_path / "one.ssca", tmp_path / "o", k=2)
        with pytest.raises(ValidationError, match="need at least 2 samples"):
            run_pipeline(cfg)

    def test_kmeans_and_ssc_share_interface(self, segment_archive, tmp_path):
        for method in ("kmeans", "lasso_ssc"):
            cfg = make_cfg(segment_archive, tmp_path / method, method=method)
            results = run_pipeline(cfg)
            assert results[0].report.method == method

    def test_coefficients_surface_when_asked(self, segment_archive, tmp_path):
        cfg = make_cfg(segment_archive, tmp_path / "out", method="lasso_ssc",
                       dump_coefficients=True)
        res = run_pipeline(cfg)[0]
        assert res.coefficients is not None
        n_inl = len(res.model.partition.inlier_idx)
        assert res.coefficients.shape == (n_inl, n_inl)
        assert np.all(np.diag(res.coefficients) == 0.0)

    @pytest.mark.parametrize("method", ["cs_sc", "lasso_ssc", "omp_ssc", "kmeans"])
    def test_gram_released_before_clustering(self, segment_archive, tmp_path,
                                             monkeypatch, method):
        # only the split and the cs_sc inlier block read the N x N Gram
        grams = []
        entered = []

        def keeping(*args, **kw):
            gram = cosine_gram(*args, **kw)
            grams.append(weakref.ref(gram))
            return gram

        def gram_dead(name, fn):
            def wrapped(*args, **kw):
                entered.append(name)
                assert len(grams) == 1 and grams[0]() is None, name
                return fn(*args, **kw)
            return wrapped

        monkeypatch.setattr(pipeline, "cosine_gram", keeping)
        for name in ("self_express", "embed", "kmeans"):
            monkeypatch.setattr(pipeline, name, gram_dead(name, getattr(pipeline, name)))
        run_pipeline(make_cfg(segment_archive, tmp_path / "out", method=method,
                              k="2,3", sparsity_k=3))
        assert "kmeans" in entered

    @pytest.mark.parametrize("method, dump", [
        ("lasso_ssc", False), ("omp_ssc", False), ("lasso_ssc", True), ("zero_degree", False)])
    def test_inliers_and_coefficients_released_before_embed(self, segment_archive, tmp_path,
                                                            monkeypatch, method, dump):
        # the inlier copy lives only through self-expression, and the
        # coefficient matrix past the affinity only when it is dumped
        copies, coeffs, entered = [], [], []
        select, compute = FeatureMatrix.select, pipeline.compute_coefficients

        def keeping_copy(self, idx):
            sub = select(self, idx)
            copies.append(weakref.ref(sub.data))
            return sub

        def keeping_coeffs(*args):
            cm = compute(*args)
            coeffs.append(weakref.ref(cm.y))
            return cm

        def checking_embed(affinity, k):
            entered.append(k)
            assert copies and all(ref() is None for ref in copies)
            assert len(coeffs) == 1 and (coeffs[0]() is not None) == dump
            return embed(affinity, k)

        monkeypatch.setattr(FeatureMatrix, "select", keeping_copy)
        monkeypatch.setattr(pipeline, "compute_coefficients", keeping_coeffs)
        monkeypatch.setattr(pipeline, "embed", checking_embed)
        if method == "zero_degree":  # lasso_ssc, demoting sample 4 at K=2
            cfg = TestZeroDegreeInliers().cfg(tmp_path, dump_coefficients=dump)
        else:
            cfg = make_cfg(segment_archive, tmp_path / "out", method=method, k="2,3",
                           sparsity_k=3, dump_coefficients=dump)
        results = run_pipeline(cfg)
        assert entered == [max(cfg.k)]
        assert all((res.coefficients is not None) == dump for res in results)
        if method == "zero_degree":
            assert results[0].model.partition.outlier_idx.tolist() == [4]

    def test_cs_sc_copies_no_inliers(self, segment_archive, tmp_path, monkeypatch):
        def refused(self, idx):
            raise AssertionError("FeatureMatrix.select called")

        monkeypatch.setattr(FeatureMatrix, "select", refused)
        results = run_pipeline(make_cfg(segment_archive, tmp_path / "out", k="2,3",
                                        export_embedding=True))
        assert results[1].embedding_ids == tuple(
            results[1].model.ids[i] for i in results[1].model.partition.inlier_idx)

    @pytest.mark.parametrize("method", ["lasso_ssc", "cs_sc"])
    def test_peak_memory_after_loading(self, tmp_path, monkeypatch, method):
        # past loading a run holds about three M x M arrays at once (in
        # embed: the affinity, L_sym and the eigenvectors), where it also
        # held the inlier copy, the coefficients and a separate product.
        # Archive, grid and K are small, so M x M arrays outweigh the
        # D x N features.
        archive, _ = generate_segments(300, 5, 1, outlier_frac=0.1)
        ingest.write_archive(archive, tmp_path / "segs.ssca")
        del archive
        load, after_load = pipeline.load_features, {}

        def loading(*args):
            out = load(*args)
            after_load["bytes"] = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            return out

        monkeypatch.setattr(pipeline, "load_features", loading)
        cfg = make_cfg(tmp_path / "segs.ssca", tmp_path / "out", method=method, f=8, t=8)
        tracemalloc.start()
        try:
            results = run_pipeline(cfg)
            peak = tracemalloc.get_traced_memory()[1] - after_load["bytes"]
        finally:
            tracemalloc.stop()
        m = len(results[0].model.partition.inlier_idx)
        assert m > 250
        assert peak < 4 * m * m * 8

    def test_one_eigensolve_per_sweep(self, segment_archive, tmp_path,
                                      monkeypatch):
        calls = []
        eigh = np.linalg.eigh

        def counting(a):
            calls.append(a.shape)
            return eigh(a)

        monkeypatch.setattr(np.linalg, "eigh", counting)
        results = run_pipeline(make_cfg(segment_archive, tmp_path / "out",
                                        k="2,4,3", export_embedding=True))
        assert len(calls) == 1
        # each K's slice equals, value for value, its own embedding
        features, _ = load_features(segment_archive, f=12, t=12)
        gram = cosine_gram(features.data)
        idx = split(features, 0.8, gram=gram).inlier_idx
        affinity = affinity_from_cosine(gram[np.ix_(idx, idx)])
        for res in results:
            coords = embed(affinity.copy(), res.k).coords
            labels = kmeans(coords, res.k, seed=0).labels
            np.testing.assert_array_equal(res.embedding, coords)
            np.testing.assert_array_equal(res.model.inlier_labels, labels)

    def test_one_pca_per_sweep(self, segment_archive, tmp_path, monkeypatch):
        calls = []
        svd = np.linalg.svd

        def counting(a, **kw):
            calls.append(a.shape)
            return svd(a, **kw)

        monkeypatch.setattr(np.linalg, "svd", counting)
        results = run_pipeline(make_cfg(segment_archive, tmp_path / "out", method="kmeans",
                                        k="2,4,3", export_embedding=True))
        assert len(calls) == 1
        # each K's export equals, bit for bit, a PCA made at that K
        features, _ = load_features(segment_archive, f=12, t=12)
        inliers = features.select(split(features, 0.8).inlier_idx)
        centered, axes = principal_axes(inliers.data.T)
        for res in results:
            want = centered @ axes[:res.k].T
            assert res.embedding.shape == want.shape
            assert res.embedding.tobytes() == want.tobytes()
            labels = kmeans(inliers.data.T, res.k, seed=0).labels
            np.testing.assert_array_equal(res.model.inlier_labels, labels)

    def test_kmeans_embedding_has_at_most_d_columns(self, tmp_path):
        # 3-d vectors have 3 principal components, whatever K asks for
        features, _ = generate_subspaces(SubspaceSpec(ambient_dim=3, dims=(2, 2, 2),
                                                      points_per=50))
        vectors = tmp_path / "v.csv"
        ingest.write_vectors(features.ids, features.data.T, vectors)
        cfg = PipelineConfig(input=str(vectors), output_dir=str(tmp_path / "out"),
                             method="kmeans", k=5, tau=-0.9, export_embedding=True)
        write_outputs(cfg, run_pipeline(cfg))
        header = (tmp_path / "out" / "embedding.csv").read_text().split("\n", 1)[0]
        assert header == "id,dim0,dim1,dim2"


def isolated_inlier_table(path):
    """Two tight pairs plus a sample at cosine 0.3 to the first pair.

    At tau=0.2 the last sample is an inlier; at lambda=0.35 no atom
    correlates with it above lambda, and the pairs code each other without
    it, so its LASSO affinity row and column are zero.
    """
    e = np.eye(8)
    cols = [e[0], e[0] + 0.05 * e[3], e[1], e[1] + 0.05 * e[4],
            0.3 * e[0] + np.sqrt(0.91) * e[2]]
    ids = ("a0", "a1", "b0", "b1", "lone")
    ingest.write_vectors(ids, np.array(cols), path)
    return ids


class TestZeroDegreeInliers:
    def cfg(self, tmp_path, **kw):
        path = tmp_path / "vecs.csv"
        isolated_inlier_table(path)
        defaults = dict(input=str(path), output_dir=str(tmp_path / "out"),
                        method="lasso_ssc", k=2, tau=0.2, lam=0.35, seed=0,
                        export_embedding=True, dump_coefficients=True)
        defaults.update(kw)
        return PipelineConfig(**defaults)

    def test_become_outliers(self, tmp_path):
        cfg = self.cfg(tmp_path)
        features, _ = load_features(cfg.input)
        assert split(features, 0.2).outlier_idx.size == 0  # every sample passes the split
        res = run_pipeline(cfg)[0]
        part = res.model.partition
        assert part.inlier_idx.tolist() == [0, 1, 2, 3]
        assert part.outlier_idx.tolist() == [4]
        # the demoted sample is assigned like any outlier, to the a-pair
        assert res.model.labels[4] == res.model.labels[0] != res.model.labels[2]
        assert res.embedding_ids == ("a0", "a1", "b0", "b1")
        assert res.embedding.shape == (4, 2)
        assert res.coefficients.shape == (4, 4)
        write_outputs(cfg, [res])
        _, _, flags = ingest.read_labels(tmp_path / "out" / "labels.csv")
        assert flags.tolist() == [False, False, False, False, True]
        report = evaluate(tmp_path / "out" / "labels.csv", cfg.input, method="lasso_ssc")
        assert report.csv_row() == res.report.csv_row()

    def test_rest_of_the_graph_unchanged(self, tmp_path):
        # the kept inliers get the embedding of their own affinity block
        cfg = self.cfg(tmp_path)
        res = run_pipeline(cfg)[0]
        features, _ = load_features(cfg.input)
        coeffs = self_express(features.data, cfg.coding()).y
        keep = [0, 1, 2, 3]
        assert not np.any(coeffs[4]) and not np.any(coeffs[:, 4])
        np.testing.assert_array_equal(res.coefficients, coeffs[np.ix_(keep, keep)])
        affinity = affinity_from_coefficients(coeffs[np.ix_(keep, keep)])
        np.testing.assert_array_equal(res.embedding, embed(affinity, 2).coords)

    def test_k_checked_against_the_inliers_left(self, tmp_path):
        with pytest.raises(ParameterError, match="k=5 exceeds the 4 inliers .* zero-degree"):
            run_pipeline(self.cfg(tmp_path, k=5))


class TestWriteOutputs:
    def test_single_k_layout(self, segment_archive, tmp_path):
        out = tmp_path / "out"
        cfg = make_cfg(segment_archive, out)
        results = run_pipeline(cfg)
        write_outputs(cfg, results)
        assert (out / "labels.csv").is_file()
        assert (out / "metrics.txt").is_file()
        assert (out / "metrics.csv").is_file()
        cents = sorted(p.name for p in (out / "centroids").iterdir())
        assert cents == ["centroid_00.csv", "centroid_01.csv", "centroid_02.csv"]
        header = (out / "metrics.csv").read_text().splitlines()[0]
        assert header == MetricsReport.csv_header()

    def test_k_sweep_layout(self, segment_archive, tmp_path):
        out = tmp_path / "out"
        cfg = make_cfg(segment_archive, out, k="2,3")
        results = run_pipeline(cfg)
        write_outputs(cfg, results)
        assert (out / "k_2" / "labels.csv").is_file()
        assert (out / "k_3" / "metrics.txt").is_file()
        assert not (out / "labels.csv").exists()
        lines = (out / "metrics.csv").read_text().splitlines()
        assert len(lines) == 3
        assert lines[1].split(",")[1] == "2"
        assert lines[2].split(",")[1] == "3"

    def test_sweep_formats_coefficients_once(self, segment_archive, tmp_path,
                                             monkeypatch):
        out = tmp_path / "out"
        cfg = make_cfg(segment_archive, out, method="omp_ssc", k="2,3,4",
                       dump_coefficients=True)
        results = run_pipeline(cfg)
        calls = []

        def counted(y):
            calls.append(y)
            return real(y)

        real = ingest.coefficient_triplets
        monkeypatch.setattr(ingest, "coefficient_triplets", counted)
        write_outputs(cfg, results)
        assert len(calls) == 1
        expected = real(results[0].coefficients)
        for k in (2, 3, 4):
            assert (out / f"k_{k}" / "coefficients.csv").read_bytes() == expected

    def test_each_coefficient_matrix_gets_its_triplets(self, segment_archive,
                                                       tmp_path):
        out = tmp_path / "out"
        cfg = make_cfg(segment_archive, out, method="omp_ssc", k="2,3",
                       dump_coefficients=True)
        first, second = run_pipeline(cfg)
        second = dataclasses.replace(second, coefficients=2.0 * second.coefficients)
        write_outputs(cfg, [first, second])
        for res in (first, second):
            assert ((out / f"k_{res.k}" / "coefficients.csv").read_bytes()
                    == ingest.coefficient_triplets(res.coefficients))

    def test_embedding_export(self, segment_archive, tmp_path):
        out = tmp_path / "out"
        cfg = make_cfg(segment_archive, out, export_embedding=True)
        write_outputs(cfg, run_pipeline(cfg))
        ids, coords = ingest.read_vectors(out / "embedding.csv")
        assert coords.shape[1] == 3  # one column per requested cluster

    def test_failure_erases_fresh_output_dir(self, segment_archive, tmp_path,
                                             monkeypatch):
        out = tmp_path / "out"
        cfg = make_cfg(segment_archive, out)
        results = run_pipeline(cfg)

        def boom(rep, path):
            raise RuntimeError("disk full")

        monkeypatch.setattr(metrics, "write_report", boom)
        with pytest.raises(RuntimeError):
            write_outputs(cfg, results)
        assert not out.exists()

    def test_failure_keeps_preexisting_files(self, segment_archive, tmp_path,
                                             monkeypatch):
        out = tmp_path / "out"
        out.mkdir()
        sentinel = out / "keep.txt"
        sentinel.write_text("mine\n")
        cfg = make_cfg(segment_archive, out)
        results = run_pipeline(cfg)
        monkeypatch.setattr(metrics, "write_report",
                            lambda rep, path: (_ for _ in ()).throw(OSError()))
        with pytest.raises(OSError):
            write_outputs(cfg, results)
        assert sentinel.read_text() == "mine\n"
        assert not (out / "labels.csv").exists()
        assert not (out / "centroids").exists()

    def test_rerun_replaces_previous_outputs(self, segment_archive, tmp_path):
        # a K=6 run then a K=4 run into the same directory: only the second
        # run's centroids may be read back, so `metrics` agrees with the report
        out = tmp_path / "out"
        for k in (6, 4):
            cfg = make_cfg(segment_archive, out, k=k)
            results = run_pipeline(cfg)
            write_outputs(cfg, results)
        cents = ingest.read_centroid_dir(out / "centroids")
        assert cents.shape[0] == 4
        stored = dict(line.split("=", 1)
                      for line in (out / "metrics.txt").read_text().splitlines())
        assert stored["k"] == "4"
        hmean, std = metrics.distance_stats(cents)
        assert abs(hmean - float(stored["d_cos_hmean"])) < 1e-12
        assert abs(std - float(stored["d_cos_std"])) < 1e-12

    @staticmethod
    def _run_into(segment_archive, out, **kw):
        cfg = make_cfg(segment_archive, out, **kw)
        write_outputs(cfg, run_pipeline(cfg))

    def test_single_then_sweep_leaves_no_single_k_files(self, segment_archive,
                                                        tmp_path):
        out = tmp_path / "out"
        self._run_into(segment_archive, out, k=3, export_embedding=True)
        self._run_into(segment_archive, out, k="2,3")
        assert sorted(p.name for p in out.iterdir()) == ["k_2", "k_3", "metrics.csv"]

    def test_sweep_then_single_leaves_no_k_dirs(self, segment_archive, tmp_path):
        out = tmp_path / "out"
        self._run_into(segment_archive, out, k="2,4", method="lasso_ssc",
                       dump_coefficients=True)
        self._run_into(segment_archive, out, k=3)
        assert sorted(p.name for p in out.iterdir()) == [
            "centroids", "labels.csv", "metrics.csv", "metrics.txt"]
        assert ingest.read_centroid_dir(out / "centroids").shape[0] == 3

    def test_rerun_keeps_entries_of_other_names(self, segment_archive, tmp_path):
        out = tmp_path / "out"
        self._run_into(segment_archive, out, k="2,3")
        for name in ("notes.txt", "k_2.csv", "k_x", "labels.csv.bak"):
            (out / name).write_text("mine\n")
        (out / "plots").mkdir()
        self._run_into(segment_archive, out, k=3)
        for name in ("notes.txt", "k_2.csv", "k_x", "labels.csv.bak"):
            assert (out / name).read_text() == "mine\n"
        assert (out / "plots").is_dir()
        assert not (out / "k_2").exists() and not (out / "k_3").exists()

    def test_no_staging_directory_left(self, segment_archive, tmp_path,
                                       monkeypatch):
        out = tmp_path / "out"
        cfg = make_cfg(segment_archive, out)
        results = run_pipeline(cfg)
        write_outputs(cfg, results)
        assert [p.name for p in tmp_path.iterdir()] == ["out"]
        monkeypatch.setattr(metrics, "write_report",
                            lambda rep, path: (_ for _ in ()).throw(OSError()))
        with pytest.raises(OSError):
            write_outputs(cfg, results)
        assert [p.name for p in tmp_path.iterdir()] == ["out"]

    def test_current_directory_as_output_dir(self, segment_archive, tmp_path,
                                             monkeypatch):
        out = tmp_path / "here"
        out.mkdir()
        monkeypatch.chdir(out)
        cfg = make_cfg(segment_archive, ".")
        write_outputs(cfg, run_pipeline(cfg))
        assert (out / "labels.csv").is_file()
        assert [p.name for p in tmp_path.iterdir()] == ["here"]

    def test_fresh_output_dir_has_default_permissions(self, segment_archive,
                                                      tmp_path):
        out = tmp_path / "out"
        cfg = make_cfg(segment_archive, out)
        write_outputs(cfg, run_pipeline(cfg))
        (tmp_path / "plain").mkdir()
        assert out.stat().st_mode == (tmp_path / "plain").stat().st_mode


class TestEvaluate:
    def test_matches_pipeline_report(self, segment_archive, tmp_path):
        out = tmp_path / "out"
        cfg = make_cfg(segment_archive, out)
        results = run_pipeline(cfg)
        write_outputs(cfg, results)
        rep = evaluate(out / "labels.csv", segment_archive, f=12, t=12,
                       method=cfg.method)
        assert rep == results[0].report

    def test_report_bytes_identical(self, segment_archive, tmp_path):
        out = tmp_path / "out"
        cfg = make_cfg(segment_archive, out, method="lasso_ssc")
        write_outputs(cfg, run_pipeline(cfg))
        rep = evaluate(out / "labels.csv", segment_archive, f=12, t=12,
                       method="lasso_ssc")
        redone = tmp_path / "metrics_redone.txt"
        metrics.write_report(rep, redone)
        assert redone.read_bytes() == (out / "metrics.txt").read_bytes()

    def test_id_mismatch_rejected(self, segment_archive, tmp_path):
        out = tmp_path / "out"
        cfg = make_cfg(segment_archive, out)
        write_outputs(cfg, run_pipeline(cfg))
        ids, labels, flags = ingest.read_labels(out / "labels.csv")
        ingest.write_label_rows(["x_" + i for i in ids], labels, flags,
                                tmp_path / "bad.csv")
        with pytest.raises(ValidationError, match="ids"):
            evaluate(tmp_path / "bad.csv", segment_archive, f=12, t=12)

    def test_every_sample_an_outlier_rejected(self, segment_archive, tmp_path):
        out = tmp_path / "out"
        cfg = make_cfg(segment_archive, out)
        write_outputs(cfg, run_pipeline(cfg))
        ids, labels, flags = ingest.read_labels(out / "labels.csv")
        ingest.write_label_rows(ids, labels, np.ones_like(flags), tmp_path / "bad.csv")
        with pytest.raises(ValidationError, match="every sample as an outlier"):
            evaluate(tmp_path / "bad.csv", segment_archive, f=12, t=12)

    def test_negative_inlier_label_rejected(self, segment_archive, tmp_path):
        out = tmp_path / "out"
        cfg = make_cfg(segment_archive, out)
        write_outputs(cfg, run_pipeline(cfg))
        ids, labels, flags = ingest.read_labels(out / "labels.csv")
        labels = labels.copy()
        labels[np.flatnonzero(~flags)[0]] = -1
        ingest.write_label_rows(ids, labels, flags, tmp_path / "bad.csv")
        with pytest.raises(ValidationError, match=">= 0"):
            evaluate(tmp_path / "bad.csv", segment_archive, f=12, t=12)
