import filecmp
import gc
import os
import re
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from usvclust import cli, ingest, synth
from usvclust.cli import main
from usvclust.errors import (FormatError, NumericalError, ParameterError, UsvClustError,
                             ValidationError)
from usvclust.ingest import SegmentArchive, SpectroSegment


def run(*argv):
    return main([str(a) for a in argv])


@pytest.fixture(scope="module")
def archive_path(tmp_path_factory):
    base = tmp_path_factory.mktemp("cli_segs")
    path = base / "segs.ssca"
    code = main(["synth", "segments", "--n", "18", "--classes", "3",
                 "--outlier_frac", "0.15", "--seed", "0",
                 "--output", str(path)])
    assert code == 0
    return path


def tree_bytes(root: Path) -> dict:
    return {str(p.relative_to(root)): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


def assert_refused(capsys, needle: str) -> None:
    """The command printed one ``usvclust:`` message naming ``needle``."""
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usvclust: ") and needle in captured.err
    assert "Traceback" not in captured.err


def write_small_archive(path) -> None:
    """A CSV archive directory of two 2 x 2 segments, ``a`` and ``b``."""
    segs = (SpectroSegment("a", np.ones((2, 2))), SpectroSegment("b", np.eye(2) + 1))
    ingest.write_archive(SegmentArchive(segs), path)


@pytest.mark.parametrize("error, code", [
    (ParameterError, 2), (ValidationError, 3), (FormatError, 3),
    (NumericalError, 4), (UsvClustError, 3)])
def test_each_error_class_exits_with_its_code(monkeypatch, capsys, error, code):
    def fail(args):
        raise error("no good")

    monkeypatch.setitem(cli._DISPATCH, "metrics", fail)
    assert run("metrics", "--centroids", "c.csv") == code
    assert capsys.readouterr().err == "usvclust: no good\n"


class TestSynth:
    def test_segments_writes_archive_and_labels(self, archive_path):
        labels_path = archive_path.with_name("segs_labels.csv")
        assert archive_path.is_file()
        assert labels_path.is_file()
        ids, labels, flags = ingest.read_labels(labels_path)
        assert len(ids) == 18
        assert int(np.sum(flags)) == 3
        assert np.all(labels[flags] == -1)

    def test_subspaces_writes_vectors_and_labels(self, tmp_path, capsys):
        out = tmp_path / "vecs.csv"
        code = run("synth", "subspaces", "--n", 2, "--dim", 2, "--points", 5,
                   "--ambient", 10, "--seed", 3, "--output", out)
        assert code == 0
        assert "wrote 10 vectors" in capsys.readouterr().out
        ids, coords = ingest.read_vectors(out)
        assert coords.shape == (10, 10)
        assert (tmp_path / "vecs_labels.csv").is_file()

    def test_custom_labels_path(self, tmp_path):
        out = tmp_path / "v.csv"
        truth = tmp_path / "truth.csv"
        assert run("synth", "subspaces", "--points", 4, "--output", out,
                   "--labels", truth) == 0
        assert truth.is_file()

    def test_bad_parameters_exit_2(self, tmp_path):
        assert run("synth", "segments", "--n", 0,
                   "--output", tmp_path / "x.ssca") == 2
        assert run("synth", "segments", "--classes", 9,
                   "--output", tmp_path / "x.ssca") == 2

    @pytest.mark.parametrize("argv", [
        ("segments", "--seed", "-1"), ("subspaces", "--seed", "-2"),
        ("subspaces", "--noise", "nan"), ("subspaces", "--noise", "inf")],
        ids=["segments_seed", "subspaces_seed", "noise_nan", "noise_inf"])
    def test_bad_seed_or_noise_exits_2_and_writes_nothing(self, tmp_path, capsys, argv):
        out = tmp_path / "x.out"
        assert run("synth", *argv, "--output", out) == 2
        assert argv[1].lstrip("-") in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv, message", [
        (("--outliers", "-1"), "outlier_count must be >= 0"),
        (("--n", "0"), "need at least one subspace")], ids=["outliers", "n"])
    def test_bad_subspace_spec_exits_2_and_writes_nothing(self, tmp_path, capsys, argv,
                                                           message):
        assert run("synth", "subspaces", *argv, "--output", tmp_path / "v.csv") == 2
        assert_refused(capsys, message)
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("kind, name", [("segments", "x.ssca"), ("subspaces", "s.csv")])
    def test_missing_output_parents_are_made(self, tmp_path, kind, name):
        out = tmp_path / "nodir" / "deeper" / name
        assert run("synth", kind, "--n", 3, "--output", out) == 0
        assert out.is_file()
        assert out.with_name(out.stem + "_labels.csv").is_file()

    @pytest.mark.parametrize("argv, blocker", [
        (("segments", "--output", "c.ssca", "--labels", "afile/l.csv"), "afile"),
        (("segments", "--output", "afile/segs"), "afile"),
        (("subspaces", "--output", "afile/s.csv"), "afile"),
        (("subspaces", "--output", "adir"), "adir")],
        ids=["labels_below_a_file", "archive_dir_below_a_file",
             "output_below_a_file", "output_is_a_directory"])
    def test_unusable_output_exits_2_and_writes_nothing(
            self, tmp_path, capsys, monkeypatch, argv, blocker):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "afile").write_text("keep me\n")
        (tmp_path / "adir").mkdir()
        assert run("synth", *argv) == 2
        assert_refused(capsys, blocker)
        assert sorted(p.name for p in tmp_path.rglob("*")) == ["adir", "afile"]
        assert (tmp_path / "afile").read_text() == "keep me\n"


class TestPipeline:
    def test_run_and_print(self, archive_path, tmp_path, capsys):
        out = tmp_path / "out"
        code = run("pipeline", "--input", archive_path, "--output_dir", out,
                   "--method", "cs_sc", "--k", 3, "--tau", "0.8",
                   "--f", 12, "--t", 12)
        assert code == 0
        stdout = capsys.readouterr().out
        assert "k=3: d_cos_hmean=" in stdout
        assert (out / "labels.csv").is_file()
        assert (out / "metrics.csv").is_file()

    def test_identical_reruns(self, archive_path, tmp_path):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert run("pipeline", "--input", archive_path,
                       "--output_dir", out, "--method", "lasso_ssc",
                       "--k", "2,3", "--tau", "dba", "--f", 12, "--t", 12,
                       "--seed", 7) == 0
            outs.append(out)
        assert tree_bytes(outs[0]) == tree_bytes(outs[1])

    def test_config_file_with_flag_override(self, archive_path, tmp_path,
                                            capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            f"input = {archive_path}\n"
            f"output_dir = {tmp_path / 'cfg_out'}\n"
            "method = cs_sc\n"
            "k = 2\n"
            "f = 12\n"
            "t = 12\n"
        )
        assert run("pipeline", "--config", cfg, "--k", 3) == 0
        assert (tmp_path / "cfg_out" / "labels.csv").is_file()
        assert "k=3:" in capsys.readouterr().out

    def test_usage_errors_exit_2(self, archive_path, tmp_path):
        out = tmp_path / "o"
        base = ["pipeline", "--input", str(archive_path),
                "--output_dir", str(out), "--f", "12", "--t", "12"]
        assert main(base + ["--tau", "1.5"]) == 2
        assert main(base + ["--k", "0"]) == 2
        assert main(base + ["--method", "agnes"]) == 2  # argparse choices
        assert main(["pipeline"]) == 2  # no input/output_dir anywhere

    def test_empty_or_repeated_k_exit_2(self, archive_path, tmp_path, capsys):
        out = tmp_path / "o"
        base = ["pipeline", "--input", archive_path, "--output_dir", out,
                "--f", 12, "--t", 12]
        assert run(*base, "--k", "5,5") == 2
        assert "repeats" in capsys.readouterr().err
        cfg = tmp_path / "run.cfg"
        cfg.write_text("k = 3,2,3\n")
        assert run(*base, "--config", cfg) == 2
        assert "repeats" in capsys.readouterr().err
        assert run(*base, "--k", "") == 2
        assert not out.exists()

    @pytest.mark.parametrize("k", ["1", "1,5"])
    def test_k_below_two_exits_2_before_reading_input(self, tmp_path, capsys, k):
        out = tmp_path / "o"
        assert run("pipeline", "--input", tmp_path / "missing.ssca",
                   "--output_dir", out, "--k", k) == 2
        assert ">= 2" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flag", ["--lambda"])
    def test_nan_setting_exits_2_before_reading_input(self, tmp_path, capsys, flag):
        out = tmp_path / "o"
        assert run("pipeline", "--input", tmp_path / "missing.ssca",
                   "--output_dir", out, "--method", "omp_ssc", flag, "nan") == 2
        assert "finite, got nan" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flag, value, message", [
        ("--lambda", "nan", "lambda must be positive and finite, got nan"),
        ("--sparsity_k", "0", "sparsity budget must be >= 1, got 0"),
        ("--f", "1", "target grid must be at least 2x2, got 1x64"),
    ])
    def test_stage_setting_refused_with_its_message(self, tmp_path, capsys, flag, value,
                                                    message):
        out = tmp_path / "o"
        assert run("pipeline", "--input", tmp_path / "missing.ssca",
                   "--output_dir", out, flag, value) == 2
        assert capsys.readouterr().err == f"usvclust: {message}\n"
        assert not out.exists()

    def test_negative_seed_exits_2_before_reading_input(self, tmp_path, capsys):
        out = tmp_path / "o"
        assert run("pipeline", "--input", tmp_path / "missing.ssca",
                   "--output_dir", out, "--seed", "-1") == 2
        assert "seed must be >= 0" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("where", ["", "sub"], ids=["is_a_file", "below_a_file"])
    def test_output_dir_blocked_by_a_file_exits_2_before_reading_input(
            self, tmp_path, capsys, where):
        blocker = tmp_path / "blocker"
        blocker.write_text("keep me\n")
        out = blocker / where
        assert run("pipeline", "--input", tmp_path / "missing.ssca",
                   "--output_dir", out) == 2
        assert f"{blocker} is not a directory" in capsys.readouterr().err
        assert blocker.read_text() == "keep me\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["blocker"]

    def test_k_above_inlier_count_refused_before_solving(
            self, archive_path, tmp_path, capsys, monkeypatch):
        def no_solve(*args, **kwargs):
            raise AssertionError("self_express ran before the K check")

        monkeypatch.setattr("usvclust.pipeline.self_express", no_solve)
        out = tmp_path / "o"
        code = run("pipeline", "--input", archive_path, "--output_dir", out,
                   "--method", "lasso_ssc", "--k", "2,500", "--tau", "0.8",
                   "--f", 12, "--t", 12)
        assert code == 2
        err = capsys.readouterr().err
        assert "k=500" in err and "inliers at tau=0.8" in err
        assert not out.exists()

    def test_zero_degree_inlier_becomes_an_outlier(self, tmp_path):
        # at tau below lambda, inlier s0161_out has zero LASSO affinity
        # degree; it is assigned as an outlier instead of stopping the run
        archive = tmp_path / "arch"
        assert run("synth", "segments", "--n", 200, "--classes", 5,
                   "--outlier_frac", 0.3, "--seed", 3, "--output", archive) == 0
        out = tmp_path / "o"
        assert run("pipeline", "--input", archive, "--output_dir", out,
                   "--method", "lasso_ssc", "--k", 5, "--tau", 0.2, "--lambda", 0.35,
                   "--export_embedding", "--dump_coefficients") == 0
        ids, _, flags = ingest.read_labels(out / "labels.csv")
        assert [i for i, f in zip(ids, flags) if f] == ["s0161_out"]
        emb_ids, emb = ingest.read_vectors(out / "embedding.csv")
        assert "s0161_out" not in emb_ids and len(emb_ids) == 199
        rows, cols = np.loadtxt(out / "coefficients.csv", delimiter=",", skiprows=1,
                                usecols=(0, 1), unpack=True)
        assert max(rows.max(), cols.max()) <= 198

    def test_missing_input_exits_3(self, tmp_path):
        assert run("pipeline", "--input", tmp_path / "nope.ssca",
                   "--output_dir", tmp_path / "o") == 3
        assert not (tmp_path / "o").exists()

    def test_missing_vector_input_exits_3(self, tmp_path, capsys):
        missing = tmp_path / "missing.csv"
        assert run("pipeline", "--input", missing, "--output_dir", tmp_path / "o",
                   "--method", "kmeans", "--k", 2) == 3
        assert_refused(capsys, f"cannot read {missing}")
        assert list(tmp_path.iterdir()) == []

    def test_corrupt_archive_exits_3(self, tmp_path, capsys):
        bad = tmp_path / "bad.ssca"
        bad.write_bytes(b"NOPE" + b"\0" * 20)
        code = run("pipeline", "--input", bad, "--output_dir", tmp_path / "o")
        assert code == 3
        assert "usvclust:" in capsys.readouterr().err


class TestEvaluate:
    def test_matches_stored_report(self, archive_path, tmp_path, capsys):
        out = tmp_path / "out"
        assert run("pipeline", "--input", archive_path, "--output_dir", out,
                   "--method", "cs_sc", "--k", 3, "--f", 12, "--t", 12) == 0
        capsys.readouterr()
        redone = tmp_path / "redone.txt"
        code = run("evaluate", "--labels", out / "labels.csv",
                   "--input", archive_path, "--f", 12, "--t", 12,
                   "--method", "cs_sc", "--output", redone)
        assert code == 0
        assert "d_cos_hmean=" in capsys.readouterr().out
        assert filecmp.cmp(redone, out / "metrics.txt", shallow=False)

    def test_truncated_labels_exit_3(self, archive_path, tmp_path):
        out = tmp_path / "out"
        assert run("pipeline", "--input", archive_path, "--output_dir", out,
                   "--method", "cs_sc", "--k", 3, "--f", 12, "--t", 12) == 0
        ids, labels, flags = ingest.read_labels(out / "labels.csv")
        ingest.write_label_rows(ids[:-1], labels[:-1], flags[:-1],
                                tmp_path / "short.csv")
        assert run("evaluate", "--labels", tmp_path / "short.csv",
                   "--input", archive_path, "--f", 12, "--t", 12) == 3

    def test_field_over_the_csv_limit_exits_3(self, archive_path, tmp_path, capsys):
        labels = tmp_path / "labels.csv"
        labels.write_text("id,label,is_outlier\n" + "x" * 200000 + ",0,0\n")
        assert run("evaluate", "--labels", labels, "--input", archive_path) == 3
        assert_refused(capsys, f"{labels}: field larger than field limit (131072) at line 2")

    @pytest.mark.parametrize("inlier_labels, outlier_label, needle", [
        ((0,), 0, "the inliers form 1 cluster; metrics need 2 or more"),
        ((0, 1), 7, "outlier label 7 is not an inlier cluster"),
        ((0, 1), -1, "outlier label -1 is not an inlier cluster"),
        ((0, 2), 0, "no inlier has label 1"),
    ], ids=["one_inlier_cluster", "outlier_above_k", "negative_outlier", "skipped_label"])
    def test_labels_outside_the_inlier_clusters_exit_3(
            self, archive_path, tmp_path, capsys, inlier_labels, outlier_label, needle):
        ids = ingest.read_archive(archive_path).ids
        labels = [outlier_label] + [inlier_labels[i % len(inlier_labels)]
                                    for i in range(len(ids) - 1)]
        path = tmp_path / "labels.csv"
        ingest.write_label_rows(ids, np.array(labels), np.arange(len(ids)) == 0, path)
        assert run("evaluate", "--labels", path, "--input", archive_path,
                   "--f", 12, "--t", 12) == 3
        assert_refused(capsys, f"{path}: {needle}")

    def test_missing_labels_exit_3(self, archive_path, tmp_path, capsys):
        missing = tmp_path / "missing.csv"
        assert run("evaluate", "--labels", missing, "--input", archive_path) == 3
        assert_refused(capsys, f"cannot read {missing}")

    def test_output_below_a_file_exits_2_before_reading(self, tmp_path, capsys):
        afile = tmp_path / "afile"
        afile.write_text("keep me\n")
        assert run("evaluate", "--labels", tmp_path / "missing.csv",
                   "--input", tmp_path / "missing.ssca", "--output", afile / "r.txt") == 2
        assert_refused(capsys, f"{afile} is not a directory")
        assert afile.read_text() == "keep me\n"
        assert list(tmp_path.iterdir()) == [afile]


class TestPreprocessAndMetrics:
    def test_preprocess_then_pipeline_on_csv(self, archive_path, tmp_path,
                                             capsys):
        vecs = tmp_path / "features.csv"
        assert run("preprocess", "--input", archive_path, "--output", vecs,
                   "--f", 12, "--t", 12) == 0
        assert "wrote 18 feature vectors" in capsys.readouterr().out
        ids, coords = ingest.read_vectors(vecs)
        assert coords.shape == (18, 144)
        out = tmp_path / "out"
        assert run("pipeline", "--input", vecs, "--output_dir", out,
                   "--method", "cs_sc", "--k", 3) == 0
        # vector input has no grid shape, so centroids land in one table
        assert (out / "centroids" / "centroids.csv").is_file()

    def test_repeated_vector_id_exits_3(self, tmp_path, capsys):
        table = tmp_path / "v.csv"
        table.write_text("id,dim0,dim1\na,1,0\nb,0,1\na,1,1\n")
        out = tmp_path / "o"
        assert run("pipeline", "--input", table, "--output_dir", out,
                   "--method", "kmeans", "--k", 2) == 3
        assert "duplicate vector id 'a'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("cell, message", [
        ("nan", r"v\.csv: a number that is not finite at line 5$"),
        ("inf", r"v\.csv: a number that is not finite at line 5$"),
        ("1e308", r"column 3 \('s3'\) has norm inf$"),
    ])
    def test_non_finite_vector_table_exits_3(self, tmp_path, capsys, cell, message):
        table = tmp_path / "v.csv"
        table.write_text(f"id,dim0,dim1\ns0,1,0\ns1,0,1\ns2,1,1\ns3,{cell},1\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run("pipeline", "--input", table, "--output_dir", tmp_path / "o",
                       "--method", "kmeans", "--k", 2) == 3
        assert re.search(message, capsys.readouterr().err.strip())

    def test_metrics_on_centroid_dir(self, archive_path, tmp_path, capsys):
        out = tmp_path / "out"
        assert run("pipeline", "--input", archive_path, "--output_dir", out,
                   "--method", "cs_sc", "--k", 3, "--f", 12, "--t", 12) == 0
        capsys.readouterr()
        assert run("metrics", "--centroids", out / "centroids") == 0
        stdout = capsys.readouterr().out
        assert stdout.startswith("d_cos_hmean=")
        assert "d_cos_std=" in stdout

    def test_metrics_matches_stored_report(self, archive_path, tmp_path,
                                           capsys):
        out = tmp_path / "out"
        assert run("pipeline", "--input", archive_path, "--output_dir", out,
                   "--method", "cs_sc", "--k", 3, "--f", 12, "--t", 12) == 0
        capsys.readouterr()
        assert run("metrics", "--centroids", out / "centroids") == 0
        printed = dict(line.split("=", 1)
                       for line in capsys.readouterr().out.splitlines())
        stored = dict(line.split("=", 1)
                      for line in (out / "metrics.txt").read_text().splitlines())
        # the centroid files are ordered by cluster size, so sums may round
        # differently than the label-ordered originals
        for key in ("d_cos_hmean", "d_cos_std"):
            assert abs(float(printed[key]) - float(stored[key])) < 1e-12

    def test_metrics_on_vector_input_centroid_dir(self, archive_path, tmp_path,
                                                  capsys):
        # a vector-input run writes one centroids.csv table, not grid files
        vecs = tmp_path / "features.csv"
        assert run("preprocess", "--input", archive_path, "--output", vecs,
                   "--f", 12, "--t", 12) == 0
        out = tmp_path / "out"
        assert run("pipeline", "--input", vecs, "--output_dir", out,
                   "--method", "cs_sc", "--k", 3) == 0
        capsys.readouterr()
        assert run("metrics", "--centroids", out / "centroids") == 0
        printed = dict(line.split("=", 1)
                       for line in capsys.readouterr().out.splitlines())
        stored = dict(line.split("=", 1)
                      for line in (out / "metrics.txt").read_text().splitlines())
        for key in ("d_cos_hmean", "d_cos_std"):
            assert abs(float(printed[key]) - float(stored[key])) < 1e-12

    def test_metrics_single_centroid_exits_3(self, tmp_path, capsys):
        table = tmp_path / "c.csv"
        ingest.write_vectors(["centroid_00"], np.array([[1.0, 0.0]]), table)
        assert run("metrics", "--centroids", table) == 3
        assert_refused(capsys, f"{table}: metrics need at least 2 centroids, got 1")

    @pytest.mark.parametrize("cell", ["nan", "inf"])
    def test_non_finite_centroid_grid_exits_3(self, tmp_path, capsys, cell):
        cdir = tmp_path / "c"
        cdir.mkdir()
        (cdir / "centroid_00.csv").write_text("1,0\n0,1\n")
        # the blank line counts: the bad number is on the file's line 3
        (cdir / "centroid_01.csv").write_text(f"1,2\n\n3,{cell}\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run("metrics", "--centroids", cdir) == 3
        assert_refused(capsys, f"{cdir / 'centroid_01.csv'}: a number that is not finite "
                               "at line 3\n")

    @pytest.mark.parametrize("layout", ["table", "grids"])
    def test_all_zero_centroid_exits_3(self, tmp_path, capsys, layout):
        cents = np.array([[1.0, 0.0, 0.0, 1.0], [0.0, -0.0, 0.0, 0.0], [1.0, 1.0, 0.0, 0.0]])
        if layout == "table":
            path = tmp_path / "c.csv"
            ingest.write_vectors([f"centroid_{r:02d}" for r in range(3)], cents, path)
        else:
            path = tmp_path / "c"
            path.mkdir()
            for r, cent in enumerate(cents):
                np.savetxt(path / f"centroid_{r:02d}.csv", cent.reshape(2, 2), delimiter=",")
        assert run("metrics", "--centroids", path) == 3
        assert_refused(capsys, f"{path}: centroid 1 is all zero\n")

    @pytest.mark.parametrize("layout", ["table", "grids"])
    def test_centroid_whose_norm_overflows_exits_3(self, tmp_path, capsys, layout):
        # each value is finite, but the squared norm of centroid 1 is not
        if layout == "table":
            path = tmp_path / "c.csv"
            path.write_text("id,dim0,dim1\na,1,0\nb,1e308,1e308\n")
        else:
            path = tmp_path / "c"
            path.mkdir()
            (path / "centroid_00.csv").write_text("1,0\n0,1\n")
            (path / "centroid_01.csv").write_text("1e308,1e308\n1,1\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run("metrics", "--centroids", path) == 3
        assert_refused(capsys, f"{path}: centroid 1 has norm inf\n")

    def test_header_field_over_the_csv_limit_exits_3(self, tmp_path, capsys):
        table = tmp_path / "h.csv"
        table.write_text("id," + "d" * 140000 + "\na,1\n")
        assert run("metrics", "--centroids", table) == 3
        assert_refused(capsys, f"{table}: field larger than field limit (131072) at line 1")

    def test_missing_centroid_table_exits_3(self, tmp_path, capsys):
        missing = tmp_path / "missing.csv"
        assert run("metrics", "--centroids", missing) == 3
        assert_refused(capsys, f"cannot read {missing}")

    @pytest.mark.parametrize("where", ["adir", "afile/x.csv"],
                             ids=["is_a_directory", "below_a_file"])
    def test_preprocess_unusable_output_exits_2_before_reading(
            self, tmp_path, capsys, where):
        (tmp_path / "adir").mkdir()
        (tmp_path / "afile").write_text("keep me\n")
        assert run("preprocess", "--input", tmp_path / "missing.ssca",
                   "--output", tmp_path / where) == 2
        assert_refused(capsys, where.split("/")[0])
        assert sorted(p.name for p in tmp_path.rglob("*")) == ["adir", "afile"]


PIPELINE_ON_DIR = ("pipeline", "--input", "d", "--output_dir", "o", "--k", "2")
PIPELINE_ON_TABLE = ("pipeline", "--input", "v.csv", "--output_dir", "o",
                     "--method", "kmeans", "--k", "2")
# (argv, the file to spoil, its new bytes or "dir" to make it a directory).
# The "late" files are past the 8 KiB a text reader decodes at once, so
# their fault surfaces while numpy parses the rows
UNREADABLE = {
    "labels_not_utf8": (("evaluate", "--labels", "l.csv", "--input", "{ssca}"),
                        "l.csv", b"id,label,is_outlier\n\xe9,0,0\n"),
    "pipeline_table_not_utf8": (PIPELINE_ON_TABLE, "v.csv", b"id,dim0,dim1\n\xe9,1,0\nb,0,1\n"),
    "pipeline_table_late_not_utf8": (PIPELINE_ON_TABLE, "v.csv",
                                     b"id,dim0,dim1\n" + b"a,1,0\n" * 2000 + b"\xe9,0,1\n"),
    "metrics_table_not_utf8": (("metrics", "--centroids", "c.csv"), "c.csv",
                               b"id,dim0,dim1\n\xe9,1,0\nb,0,1\n"),
    "manifest_not_utf8": (PIPELINE_ON_DIR, "d/manifest.csv", b"id,file\n\xe9,seg_00000.csv\n"),
    "segment_not_utf8": (PIPELINE_ON_DIR, "d/seg_00000.csv", b"1,2\n3,\xe9\n"),
    "segment_late_not_utf8": (PIPELINE_ON_DIR, "d/seg_00000.csv", b"1,2\n" * 3000 + b"3,\xe9\n"),
    "ssca_as_labels": (("evaluate", "--labels", "{ssca}", "--input", "{ssca}"), "{ssca}", None),
    "ssca_as_centroids": (("metrics", "--centroids", "{ssca}"), "{ssca}", None),
    "manifest_is_a_directory": (PIPELINE_ON_DIR, "d/manifest.csv", "dir"),
    "segment_is_a_directory": (PIPELINE_ON_DIR, "d/seg_00000.csv", "dir"),
    "centroid_is_a_directory": (("metrics", "--centroids", "c"), "c/centroid_00.csv", "dir"),
}


@pytest.mark.parametrize("case", sorted(UNREADABLE))
def test_unreadable_input_exits_3(tmp_path, capsys, monkeypatch, archive_path, case):
    argv, target, content = UNREADABLE[case]
    monkeypatch.chdir(tmp_path)
    write_small_archive(tmp_path / "d")
    target = Path(target.format(ssca=archive_path))
    if content == "dir":
        target.unlink(missing_ok=True)
        target.mkdir(parents=True)
    elif content is not None:
        target.write_bytes(content)
    assert run(*(a.format(ssca=archive_path) for a in argv)) == 3
    reason = "Is a directory" if content == "dir" else "not UTF-8 text"
    assert_refused(capsys, f"cannot read {target}: {reason}")
    assert not (tmp_path / "o").exists()


def test_ascii_locale_writes_the_same_bytes(tmp_path):
    # ids outside ASCII, written under an ASCII locale and under the default
    archive, _ = synth.generate_segments(20, 2, 0)
    ingest.write_archive(SegmentArchive(tuple(SpectroSegment(f"\u00e9{s.id}", s.energy)
                                              for s in archive.segments)), tmp_path / "a.ssca")
    src = str(Path(ingest.__file__).resolve().parents[1])
    ascii_env = {"LC_ALL": "C", "PYTHONCOERCECLOCALE": "0", "PYTHONUTF8": "0"}
    trees = []
    for name, extra in (("ascii", ascii_env), ("default", {})):
        proc = subprocess.run(
            [sys.executable, "-m", "usvclust", "pipeline", "--input", str(tmp_path / "a.ssca"),
             "--output_dir", str(tmp_path / name), "--method", "cs_sc", "--k", "2",
             "--f", "12", "--t", "12", "--export_embedding"],
            env={**os.environ, **extra, "PYTHONPATH": src}, capture_output=True, text=True,
            timeout=120)
        assert proc.returncode == 0, proc.stderr
        trees.append(tree_bytes(tmp_path / name))
    assert trees[0] == trees[1]
    assert "\u00e9s0000".encode() in trees[0]["labels.csv"]


@pytest.mark.parametrize("args, code", [
    ([], 0), (["--k", "1"], 2), (["--input", "missing.ssca"], 3),
], ids=["written", "usage", "data"])
def test_process_entry_point_changes_no_outcome(archive_path, tmp_path, capsys, args, code):
    # python -m usvclust runs cli.entry: main, then gc.freeze() so that the
    # exit skips collecting; the process exits, prints and writes as main
    # does in-process, and main freezes nothing
    src = str(Path(ingest.__file__).resolve().parents[1])

    def argv(name):
        return ["pipeline", "--input", str(archive_path), "--method", "lasso_ssc", "--k", "2",
                "--f", "12", "--t", "12", "--output_dir", str(tmp_path / name),
                *(str(tmp_path / a) if a.endswith(".ssca") else a for a in args)]

    proc = subprocess.run([sys.executable, "-m", "usvclust", *argv("process")],
                          env={**os.environ, "PYTHONPATH": src}, capture_output=True,
                          text=True, timeout=120)
    assert main(argv("in_process")) == proc.returncode == code
    captured = capsys.readouterr()
    assert (proc.stdout, proc.stderr) == (captured.out, captured.err)
    assert tree_bytes(tmp_path / "process") == tree_bytes(tmp_path / "in_process")
    assert (tmp_path / "process").is_dir() == (code == 0)
    assert gc.get_freeze_count() == 0
    assert gc.isenabled()


@pytest.mark.parametrize("method", ["kmeans", "lasso_ssc"])
def test_pipeline_leaves_numpy_random_unloaded(archive_path, tmp_path, method):
    # k-means draws from the package's own stream, so a run never imports
    # numpy.random (and with it secrets, hmac and OpenSSL's _hashlib); numpy
    # 2 loads it lazily, numpy 1.x with numpy itself, so the child compares
    # the modules before and after the run
    src = str(Path(ingest.__file__).resolve().parents[1])
    child = ("import sys\nimport numpy\nfrom usvclust import cli\n"
             "loaded = 'numpy.random' in sys.modules\n"
             "print(cli.main(sys.argv[1:]), 'numpy.random' in sys.modules, loaded)")
    proc = subprocess.run(
        [sys.executable, "-c", child, "pipeline", "--input", str(archive_path),
         "--output_dir", str(tmp_path / "o"), "--method", method, "--k", "2",
         "--f", "12", "--t", "12", "--seed", "18446744073709551621"],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    code, after, before = proc.stdout.splitlines()[-1].split()
    assert (code, after) == ("0", before)
    assert before == "False" or np.lib.NumpyVersion(np.__version__) < "2.0.0"


def _arrays_held(objects) -> list:
    """The arrays among ``objects`` and what they refer to, followed
    through objects the collector does not track (a tuple of arrays, say),
    which a collection never lists itself."""
    seen, stack, arrays = set(), list(objects), []
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, np.ndarray):
            arrays.append(obj)
        else:
            stack.extend(r for r in gc.get_referents(obj) if not gc.is_tracked(r))
    return arrays


@pytest.mark.parametrize("method", ["kmeans", "lasso_ssc", "omp_ssc"])
def test_a_run_leaves_no_array_to_the_collector(archive_path, tmp_path, capsys, method):
    # cli.entry runs main with the collector off; that holds no more memory
    # than collecting would only if no array hangs on a reference cycle
    gc.collect()
    gc.disable()
    try:
        assert main(["pipeline", "--input", str(archive_path), "--output_dir", str(tmp_path / "o"),
                     "--method", method, "--k", "2", "--f", "12", "--t", "12",
                     "--export_embedding", "--dump_coefficients"]) == 0
        gc.set_debug(gc.DEBUG_SAVEALL)
        gc.collect()
        garbage = list(gc.garbage)
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()
    assert garbage  # argparse's parser is cyclic, so the collection did find something
    assert _arrays_held(garbage) == []


def test_a_warning_is_one_line_on_stderr(tmp_path):
    # three distinct rows clustered at K=4 give two parallel centroids
    table = tmp_path / "t.csv"
    rows = ("1,0,0", "0,1,0", "0,0,1")
    table.write_text("id,dim0,dim1,dim2\n" + "".join(f"s{i},{rows[i % 3]}\n" for i in range(12)))
    argv = ["pipeline", "--input", str(table), "--method", "kmeans", "--k", "4", "--output_dir"]
    src = str(Path(ingest.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-m", "usvclust", *argv, str(tmp_path / "o")],
                          env={**os.environ, "PYTHONPATH": src}, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ("usvclust: warning: two centroids are parallel (cosine distance 0); "
                           "harmonic mean collapses to 0\n")
    assert proc.stdout.startswith("k=4: d_cos_hmean=0, ")
    assert (tmp_path / "o" / "labels.csv").is_file()
    # in-process, the test run's error::RuntimeWarning filter still raises it
    formatwarning = warnings.formatwarning
    with pytest.raises(RuntimeWarning, match="parallel"):
        main([*argv, str(tmp_path / "o2")])
    assert warnings.formatwarning is formatwarning


def test_leading_byte_order_marks_are_read_and_never_written(archive_path, tmp_path,
                                                             capsys):
    # a config file, vector table and labels file that begin with U+FEFF,
    # as a spreadsheet's "CSV UTF-8" export or Notepad saves them
    vecs = tmp_path / "features.csv"
    assert run("preprocess", "--input", archive_path, "--output", vecs,
               "--f", 12, "--t", 12) == 0
    trees, reports = [], []
    for name, bom in (("plain", b""), ("bom", b"\xef\xbb\xbf")):
        table, cfg, out = tmp_path / f"{name}.csv", tmp_path / f"{name}.cfg", tmp_path / name
        table.write_bytes(bom + vecs.read_bytes())
        cfg.write_bytes(bom + f"input = {table}\nmethod = cs_sc\nk = 3\n".encode())
        assert run("pipeline", "--config", cfg, "--output_dir", out) == 0
        trees.append(tree_bytes(out))
        labels = tmp_path / f"{name}_labels.csv"
        labels.write_bytes(bom + (out / "labels.csv").read_bytes())
        report = tmp_path / f"{name}_report.txt"
        assert run("evaluate", "--labels", labels, "--input", table, "--method", "cs_sc",
                   "--output", report) == 0
        reports.append(report.read_bytes())
    capsys.readouterr()
    assert trees[0] == trees[1]
    assert reports[0] == reports[1] == trees[0]["metrics.txt"]
    assert not any(data.startswith(b"\xef\xbb\xbf") for data in trees[1].values())


@pytest.mark.parametrize("argv, needle", [
    (("preprocess", "--input", "a.ssca", "--output", "a.ssca"),
     "--output 'a.ssca' names the --input path 'a.ssca'"),
    (("evaluate", "--labels", "o/labels.csv", "--input", "a.ssca", "--output", "o/labels.csv"),
     "--output 'o/labels.csv' names the --labels path"),
    (("synth", "subspaces", "--points", "4", "--output", "v.csv", "--labels", "v.csv"),
     "--output 'v.csv' names the --labels path"),
    (("synth", "segments", "--n", "12", "--output", "d", "--labels", "d/manifest.csv"),
     "--labels 'd/manifest.csv' lies inside the --output path 'd'"),
    (("preprocess", "--input", "d", "--output", "d/features.csv"),
     "--output 'd/features.csv' lies inside the --input path 'd'"),
    (("pipeline", "--input", "d", "--output_dir", "d/out", "--method", "kmeans", "--k", "2",
      "--tau", "-0.9"),
     "output_dir 'd/out' lies inside the input path 'd'"),
    (("pipeline", "--input", "o/centroids/centroids.csv", "--output_dir", "o",
      "--method", "kmeans", "--k", "2", "--tau", "-0.9"),
     "input 'o/centroids/centroids.csv' would be replaced by the outputs")],
    ids=["preprocess_over_input", "evaluate_over_labels", "synth_labels_over_table",
         "synth_labels_over_manifest", "preprocess_into_archive", "pipeline_into_archive",
         "pipeline_over_an_earlier_output"])
def test_output_clashing_with_an_input_exits_2(tmp_path, capsys, monkeypatch, archive_path,
                                               argv, needle):
    monkeypatch.chdir(tmp_path)
    shutil.copy(archive_path, tmp_path / "a.ssca")
    write_small_archive(tmp_path / "d")
    (tmp_path / "o" / "centroids").mkdir(parents=True)
    ids = ingest.read_archive(archive_path).ids
    ingest.write_label_rows(ids, np.arange(len(ids)) % 2, np.zeros(len(ids)),
                            tmp_path / "o" / "labels.csv")
    # the table of centroids a run on vector input writes: itself a vector input
    ingest.write_vectors(["centroid_00", "centroid_01"], np.eye(2),
                         tmp_path / "o" / "centroids" / "centroids.csv")
    (tmp_path / "v.csv").write_text("keep me\n")
    before = tree_bytes(tmp_path), sorted(tmp_path.rglob("*"))
    assert run(*argv) == 2
    assert_refused(capsys, needle)
    assert (tree_bytes(tmp_path), sorted(tmp_path.rglob("*"))) == before


@pytest.mark.parametrize("argv, code, message", [
    (["pipeline", "--help"], 0, ""),
    (["pipeline", "--input", "in.ssca", "--output_dir", "o", "--tau", "1.5"], 2,
     "usvclust: tau must lie in (-1, 1], got 1.5"),
    (["pipeline", "--config", "bad.cfg"], 2,
     "usvclust: bad.cfg:1: expected 'key = value', got 'tau 0.5'"),
    (["preprocess", "--input", "in.ssca", "--output", "o.csv", "--f", "1"], 2,
     "usvclust: target grid must be at least 2x2, got 1x64"),
    (["evaluate", "--labels", "l.csv", "--input", "in.ssca", "--t", "0"], 2,
     "usvclust: target grid must be at least 2x2, got 64x0"),
    (["synth", "subspaces", "--n", "0", "--output", "v.csv"], 2,
     "usvclust: need at least one subspace"),
    (["synth", "segments", "--classes", "9", "--output", "x.ssca"], 2,
     "usvclust: shape_classes must lie in [1, 5], got 9"),
], ids=["help", "refused_flag", "malformed_config", "preprocess_grid", "evaluate_grid",
        "synth_subspaces", "synth_segments"])
def test_parsing_and_refusing_leave_numpy_unloaded(tmp_path, argv, code, message):
    (tmp_path / "bad.cfg").write_text("tau 0.5\n")
    src = str(Path(ingest.__file__).resolve().parents[1])
    # -X importtime logs each module to stderr as it is first imported
    proc = subprocess.run([sys.executable, "-X", "importtime", "-m", "usvclust", *argv],
                          cwd=tmp_path, env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == code, proc.stderr
    lines = proc.stderr.splitlines()
    imported = [line.rsplit("|", 1)[1].strip() for line in lines
                if line.startswith("import time:")]
    # the check meant to refuse it ran: not argparse's usage error or another refusal
    assert [line for line in lines if not line.startswith("import time:")] == (
        [message] if message else [])
    assert "usvclust.config" in imported
    assert [m for m in imported if m.split(".")[0] == "numpy"] == []


def refused_without_warning(capsys, argv, message):
    """The command exits 3 with exactly ``message`` and no numpy warning."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(*argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"usvclust: {message}\n"


class TestNormRefusals:
    """Each vector a command cannot divide by its norm is refused in one
    wording: "is all zero" only for a zero vector, its norm otherwise."""

    @pytest.mark.parametrize("command", ["preprocess", "pipeline"])
    @pytest.mark.parametrize("value", [1e200, 1e308])
    def test_segment_whose_norm_overflows(self, tmp_path, capsys, command, value):
        # 1e200 overflows once squared; 1e308 already in the clipping mean
        archive = tmp_path / "arch"
        segs = (SpectroSegment("a", np.full((2, 2), value)), SpectroSegment("b", np.eye(2) + 1))
        ingest.write_archive(SegmentArchive(segs), archive)
        out = ["--output", tmp_path / "f.csv"] if command == "preprocess" else [
            "--output_dir", tmp_path / "o", "--method", "lasso_ssc", "--k", 2]
        refused_without_warning(capsys, [command, "--input", archive, *out, "--f", 4, "--t", 4],
                                "segment 'a' has norm inf")

    # e has no self-expression, so it is set aside as a zero-degree inlier
    @pytest.mark.parametrize("set_aside", ["", "e,0,0,1\n"],
                             ids=["none set aside", "e set aside"])
    def test_pipeline_cluster_whose_members_cancel(self, tmp_path, capsys, set_aside):
        table = tmp_path / "v.csv"
        table.write_text("id,dim0,dim1,dim2\na,1,0,0\nb,-1,0,0\nc,0,1,0\nd,0,1,0\n"
                         + set_aside)
        refused_without_warning(capsys, [
            "pipeline", "--input", table, "--output_dir", tmp_path / "o",
            "--method", "lasso_ssc", "--k", 2, "--tau", -0.9], "centroid 1 is all zero")

    def test_evaluate_cluster_whose_members_cancel(self, tmp_path, capsys):
        table = tmp_path / "v.csv"
        table.write_text("id,dim0,dim1\na,1,0\nb,-1,0\nc,0,1\nd,0,1\n")
        labels = tmp_path / "labels.csv"
        labels.write_text("id,label,is_outlier\na,0,0\nb,0,0\nc,1,0\nd,1,0\n")
        refused_without_warning(capsys, ["evaluate", "--labels", labels, "--input", table],
                                "centroid 0 is all zero")

    def test_subspace_noise_whose_norm_overflows(self, tmp_path, capsys):
        refused_without_warning(capsys, ["synth", "subspaces", "--noise", 1e200,
                                         "--output", tmp_path / "v.csv"],
                                "column 0 ('s0_p0') has norm inf")

    def test_vector_whose_squared_norm_underflows(self, tmp_path, capsys):
        table = tmp_path / "v.csv"
        table.write_text("id,dim0,dim1\na,1e-170,2e-170\nb,0,1\nc,1,1\n")
        refused_without_warning(capsys, ["pipeline", "--input", table, "--output_dir",
                                         tmp_path / "o", "--method", "kmeans", "--k", 2],
                                "column 0 ('a') has norm 0.0")
        refused_without_warning(capsys, ["metrics", "--centroids", table],
                                f"{table}: centroid 0 has norm 0.0")
