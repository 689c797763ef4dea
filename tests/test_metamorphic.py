"""Metamorphic relations of a whole pipeline run.

Each test changes the input in a way the output must not see, runs the
``pipeline`` command in-process on both inputs with every method, K = 3
and 6, and the embedding and coefficient dumps on, and compares the output
trees:

- every energy doubled: scaling by a power of two is exact through the
  clip, the bicubic resize and the norm, so every feature bit and every
  output byte is the same;
- every segment id renamed: the ids reach only the written id columns, so
  labels and outlier flags agree by position and the metrics, centroid and
  coefficient files byte for byte;
- one archive written as a CSV directory and as a ``.ssca`` file: both
  read back the same energies, so the trees are byte-identical;
- every energy tripled: not exact past the clip, so only the labels files
  are compared, byte for byte;
- the segments in another order: a larger archive at K = 20, whose
  partition, matched by id, and ``metrics.csv`` are compared.
"""

from pathlib import Path

import numpy as np
import pytest

from usvclust import ingest
from usvclust.cli import main
from usvclust.ingest import SegmentArchive, SpectroSegment
from usvclust.synth import generate_segments

METHODS = ("kmeans", "cs_sc", "lasso_ssc", "omp_ssc")


@pytest.fixture(scope="module")
def archive():
    archive, _ = generate_segments(120, 5, seed=3, outlier_frac=0.1)
    return archive


def run(archive, path: Path, method: str) -> Path:
    """Write ``archive`` to ``path``, run the pipeline on it and return the
    output directory."""
    ingest.write_archive(archive, path)
    out = path.with_name(path.name + "_out")
    assert main(["pipeline", "--input", str(path), "--output_dir", str(out),
                 "--method", method, "--k", "3,6", "--f", "16", "--t", "16",
                 "--export_embedding", "--dump_coefficients"]) == 0
    return out


def tree(out: Path) -> dict:
    """An output tree as {relative path: bytes}."""
    return {str(p.relative_to(out)): p.read_bytes() for p in out.rglob("*") if p.is_file()}


def run_tree(archive, path: Path, method: str) -> dict:
    return tree(run(archive, path, method))


def relabeled(archive, ids=None, scale=1.0) -> SegmentArchive:
    ids = archive.ids if ids is None else ids
    return SegmentArchive(tuple(SpectroSegment(i, seg.energy * scale)
                                for i, seg in zip(ids, archive.segments)))


@pytest.mark.parametrize("method", METHODS)
def test_doubled_energies_give_the_same_bytes(archive, tmp_path, method):
    expected = run_tree(archive, tmp_path / "a.ssca", method)
    assert run_tree(relabeled(archive, scale=2.0), tmp_path / "b.ssca", method) == expected


@pytest.mark.parametrize("method", METHODS)
def test_renamed_ids_change_only_the_ids(archive, tmp_path, method):
    # the new names sort in the reverse order of the old ones
    renamed = [f"renamed-{len(archive) - i:04d}" for i in range(len(archive))]
    out_a = run(archive, tmp_path / "a.ssca", method)
    out_b = run(relabeled(archive, ids=renamed), tmp_path / "b.ssca", method)
    tree_a, tree_b = tree(out_a), tree(out_b)
    assert tree_b.keys() == tree_a.keys()
    for name in tree_a:
        if name.endswith("labels.csv"):
            ids, labels, flags = ingest.read_labels(out_a / name)
            ids_b, labels_b, flags_b = ingest.read_labels(out_b / name)
            assert list(ids) == list(archive.ids) and list(ids_b) == renamed
            assert np.array_equal(labels_b, labels) and np.array_equal(flags_b, flags)
        elif name.endswith("embedding.csv"):
            ids, coords = ingest.read_vectors(out_a / name)
            ids_b, coords_b = ingest.read_vectors(out_b / name)
            assert [renamed[archive.ids.index(i)] for i in ids] == list(ids_b)
            assert np.array_equal(coords_b.view(np.int64), coords.view(np.int64))
        else:
            assert tree_b[name] == tree_a[name], name


@pytest.mark.parametrize("method", METHODS)
def test_csv_directory_and_ssca_give_the_same_bytes(archive, tmp_path, method):
    expected = run_tree(archive, tmp_path / "a.ssca", method)
    assert run_tree(archive, tmp_path / "dir", method) == expected


@pytest.mark.parametrize("method", [
    "kmeans", "cs_sc", "omp_ssc",
    # this fixture's lasso_ssc graph has 5 components of 21-22 inliers, so
    # K = 3 is below the component count: ROADMAP item 2's defect
    pytest.param("lasso_ssc", marks=pytest.mark.xfail(
        strict=True, reason="ROADMAP item 2: K below the graph's component count")),
])
def test_tripled_energies_keep_the_labels(archive, tmp_path, method):
    expected = run_tree(archive, tmp_path / "a.ssca", method)
    tripled = run_tree(relabeled(archive, scale=3.0), tmp_path / "b.ssca", method)
    labels = sorted(name for name in expected if name.endswith("labels.csv"))
    assert len(labels) == 2
    assert [tripled[name] for name in labels] == [expected[name] for name in labels]


@pytest.mark.xfail(strict=True, reason="ROADMAP item 10: k-means++ draws rows in input order")
@pytest.mark.parametrize("method", ["lasso_ssc", "kmeans"])
def test_permuted_segments_keep_the_partition_and_metrics(tmp_path, method):
    archive, _ = generate_segments(400, 5, seed=1, outlier_frac=0.1)
    order = np.random.default_rng(99).permutation(len(archive))
    permuted = SegmentArchive(tuple(archive.segments[i] for i in order))
    results = []
    for name, arch in (("a", archive), ("b", permuted)):
        path = tmp_path / f"{name}.ssca"
        ingest.write_archive(arch, path)
        out = tmp_path / f"{name}_out"
        assert main(["pipeline", "--input", str(path), "--output_dir", str(out),
                     "--method", method, "--k", "20", "--f", "32", "--t", "32",
                     "--tau", "0.8"]) == 0
        ids, labels, flags = ingest.read_labels(out / "labels.csv")
        by_id = np.argsort(ids)
        # each cluster renumbered by its first member in id order
        _, first, inverse = np.unique(labels[by_id], return_index=True,
                                      return_inverse=True)
        partition = np.argsort(np.argsort(first))[inverse]
        results.append((partition.tolist(), flags[by_id].tolist(),
                        (out / "metrics.csv").read_bytes()))
    assert results[1] == results[0]
