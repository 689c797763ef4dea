import filecmp
from pathlib import Path

import numpy as np
import pytest

from usvclust import ingest
from usvclust.cli import main


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

    def test_missing_input_exits_3(self, tmp_path):
        assert run("pipeline", "--input", tmp_path / "nope.ssca",
                   "--output_dir", tmp_path / "o") == 3
        assert not (tmp_path / "o").exists()

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

    def test_metrics_single_centroid_exit_2(self, tmp_path):
        ingest.write_vectors(["centroid_00"], np.array([[1.0, 0.0]]),
                             tmp_path / "c.csv")
        assert run("metrics", "--centroids", tmp_path / "c.csv") == 2
