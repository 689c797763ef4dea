import csv
import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from usvclust import (FormatError, SegmentArchive, SpectroSegment,
                      ValidationError, read_archive, write_archive)
from usvclust.assign import ClusterModel
from usvclust.ingest import (read_centroid_dir, read_labels, read_vectors,
                             write_centroids, write_coefficient_triplets,
                             write_label_rows, write_labels, write_vectors)
from usvclust.outlier_split import Partition


def seg(i, energy):
    return SpectroSegment(f"seg{i}", np.array(energy, dtype=float))


class TestSpectroSegment:
    def test_smallest_legal(self):
        s = seg(0, [[1, 2], [3, 4]])
        assert s.n_freq == 2 and s.n_time == 2

    def test_negative_energy_rejected(self):
        with pytest.raises(ValidationError, match="seg0"):
            seg(0, [[1, -2], [3, 4]])

    def test_nonfinite_rejected(self):
        with pytest.raises(ValidationError):
            seg(0, [[1, np.nan], [3, 4]])
        with pytest.raises(ValidationError):
            seg(0, [[1, np.inf], [3, 4]])

    def test_too_small_rejected(self):
        with pytest.raises(ValidationError):
            seg(0, [[1, 2]])
        with pytest.raises(ValidationError):
            SpectroSegment("x", np.ones(4))


class TestSegmentArchive:
    def test_duplicate_id_rejected(self):
        a = SpectroSegment("a", np.ones((2, 2)))
        with pytest.raises(ValidationError, match="'a'"):
            SegmentArchive((a, SpectroSegment("a", np.ones((3, 3)))))

    def test_empty_ok(self):
        assert len(SegmentArchive(())) == 0

    def test_order_preserved(self):
        segs = tuple(seg(i, [[i, 0], [0, i + 1]]) for i in range(5))
        assert SegmentArchive(segs).ids == tuple(f"seg{i}" for i in range(5))


class TestArchiveRoundTrip:
    def _archive(self, rng, n=4):
        segs = []
        for i in range(n):
            shape = (int(rng.integers(2, 7)), int(rng.integers(2, 7)))
            segs.append(SpectroSegment(f"id_{i}", rng.uniform(0, 5, shape)))
        return SegmentArchive(tuple(segs))

    @pytest.mark.parametrize("fmt,suffix", [("binary", ".ssca"), ("csv", "")])
    def test_round_trip(self, tmp_path, fmt, suffix):
        rng = np.random.default_rng(0)
        arc = self._archive(rng)
        path = tmp_path / ("arc" + suffix) if suffix else tmp_path / "arcdir"
        write_archive(arc, path, fmt=fmt)
        back = read_archive(path)
        assert back.ids == arc.ids
        for a, b in zip(arc.segments, back.segments):
            np.testing.assert_array_equal(a.energy, b.energy)

    def test_binary_bit_exact(self, tmp_path):
        rng = np.random.default_rng(1)
        arc = self._archive(rng)
        p1, p2 = tmp_path / "a.ssca", tmp_path / "b.ssca"
        write_archive(arc, p1)
        write_archive(read_archive(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_single_2x2(self, tmp_path):
        arc = SegmentArchive((seg(0, [[1, 2], [3, 4]]),))
        path = tmp_path / "one.ssca"
        write_archive(arc, path)
        back = read_archive(path)
        assert len(back) == 1
        assert back.segments[0].n_freq == 2
        assert back.segments[0].n_time == 2

    def test_empty_archive(self, tmp_path):
        for path in (tmp_path / "empty.ssca", tmp_path / "emptydir"):
            write_archive(SegmentArchive(()), path)
            assert len(read_archive(path)) == 0

    def test_missing_path(self, tmp_path):
        with pytest.raises(FormatError):
            read_archive(tmp_path / "nope.ssca")

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.ssca"
        path.write_bytes(b"NOPE" + b"\x00" * 8)
        with pytest.raises(FormatError, match="magic"):
            read_archive(path)

    def test_bad_version(self, tmp_path):
        path = tmp_path / "bad.ssca"
        path.write_bytes(b"SSCA" + (99).to_bytes(4, "little") + (0).to_bytes(4, "little"))
        with pytest.raises(FormatError, match="version"):
            read_archive(path)

    def test_truncated(self, tmp_path):
        good = tmp_path / "good.ssca"
        write_archive(SegmentArchive((seg(0, [[1, 2], [3, 4]]),)), good)
        data = good.read_bytes()
        bad = tmp_path / "bad.ssca"
        bad.write_bytes(data[:-5])
        with pytest.raises(FormatError, match="byte"):
            read_archive(bad)

    def test_trailing_bytes_rejected(self, tmp_path):
        good = tmp_path / "good.ssca"
        write_archive(SegmentArchive((seg(0, [[1, 2], [3, 4]]),)), good)
        bad = tmp_path / "bad.ssca"
        bad.write_bytes(good.read_bytes() + b"xx")
        with pytest.raises(FormatError, match="trailing"):
            read_archive(bad)

    def test_negative_energy_in_file_rejected(self, tmp_path):
        path = tmp_path / "arcdir"
        write_archive(SegmentArchive((seg(0, [[1, 2], [3, 4]]),)), path)
        cell = path / "seg_00000.csv"
        cell.write_text(cell.read_text().replace("3", "-3"))
        with pytest.raises(ValidationError):
            read_archive(path)

    def test_csv_dir_missing_manifest(self, tmp_path):
        d = tmp_path / "d"
        d.mkdir()
        with pytest.raises(FormatError, match="manifest"):
            read_archive(d)

    def test_csv_manifest_bad_header(self, tmp_path):
        d = tmp_path / "d"
        d.mkdir()
        (d / "manifest.csv").write_text("nope,nope\n")
        with pytest.raises(FormatError, match="line 1"):
            read_archive(d)

    def test_csv_ragged_matrix(self, tmp_path):
        d = tmp_path / "d"
        write_archive(SegmentArchive((seg(0, [[1, 2], [3, 4]]),)), d)
        (d / "seg_00000.csv").write_text("1,2\n3\n")
        with pytest.raises(FormatError, match="line 2"):
            read_archive(d)

    @settings(max_examples=25, deadline=None)
    @given(st.lists(
        st.lists(st.lists(st.floats(0, 1e6, allow_nan=False), min_size=2, max_size=4),
                 min_size=2, max_size=4).filter(
                     lambda rows: len({len(r) for r in rows}) == 1),
        min_size=0, max_size=3))
    def test_csv_values_exact(self, tmp_path_factory, matrices):
        segs = tuple(SpectroSegment(f"s{i}", np.array(m)) for i, m in enumerate(matrices))
        arc = SegmentArchive(segs)
        path = tmp_path_factory.mktemp("csvrt") / "arcdir"
        write_archive(arc, path, fmt="csv")
        back = read_archive(path)
        for a, b in zip(arc.segments, back.segments):
            np.testing.assert_array_equal(a.energy, b.energy)


class TestLabels:
    def test_write_rows_and_read(self, tmp_path):
        path = tmp_path / "labels.csv"
        write_label_rows(["a", "b"], [0, 1], [False, True], path)
        assert path.read_text() == "id,label,is_outlier\na,0,0\nb,1,1\n"
        ids, labels, flags = read_labels(path)
        assert ids == ["a", "b"]
        assert labels.tolist() == [0, 1]
        assert flags.tolist() == [False, True]

    def test_empty_model_header_only(self, tmp_path):
        path = tmp_path / "labels.csv"
        write_label_rows([], [], [], path)
        assert path.read_text() == "id,label,is_outlier\n"

    def test_order_preserved(self, tmp_path):
        path = tmp_path / "labels.csv"
        write_label_rows(["z", "a", "m"], [2, 0, 1], [0, 0, 1], path)
        ids, labels, _ = read_labels(path)
        assert ids == ["z", "a", "m"]
        assert labels.tolist() == [2, 0, 1]

    def test_model_write(self, tmp_path):
        part = Partition(np.array([0]), np.array([1]), 0.8)
        model = ClusterModel(
            ids=("a", "b"), labels=np.array([0, 1]), centroids=np.eye(2),
            partition=part, k=2, method="kmeans", inlier_labels=np.array([0]))
        path = tmp_path / "labels.csv"
        write_labels(model, path)
        assert path.read_text() == "id,label,is_outlier\na,0,0\nb,1,1\n"

    def test_bad_flag_rejected(self, tmp_path):
        path = tmp_path / "labels.csv"
        path.write_text("id,label,is_outlier\na,0,7\n")
        with pytest.raises(FormatError, match="line 2"):
            read_labels(path)

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "labels.csv"
        path.write_text("id,label\na,0\n")
        with pytest.raises(FormatError):
            read_labels(path)


class TestCentroids:
    def _model(self, inlier_labels, centroids, k, shape):
        n = len(inlier_labels)
        part = Partition(np.arange(n), np.array([], dtype=int), 0.8)
        return ClusterModel(
            ids=tuple(f"s{i}" for i in range(n)), labels=np.array(inlier_labels),
            centroids=centroids, partition=part, k=k, method="kmeans",
            inlier_labels=np.array(inlier_labels), feature_shape=shape)

    def test_descending_size_order(self, tmp_path):
        # cluster 0 has 5 members, cluster 1 has 9: file 00 is cluster 1
        labels = [0] * 5 + [1] * 9
        cents = np.vstack([np.full(6, 1.0), np.full(6, 2.0)])
        model = self._model(labels, cents, 2, (2, 3))
        write_centroids(model, tmp_path / "c")
        files = sorted((tmp_path / "c").glob("centroid_*.csv"))
        assert [f.name for f in files] == ["centroid_00.csv", "centroid_01.csv"]
        first = np.array([[float(v) for v in line.split(",")]
                          for line in files[0].read_text().splitlines()])
        np.testing.assert_array_equal(first, np.full((2, 3), 2.0))

    def test_zero_centroid_writes_zeros(self, tmp_path):
        model = self._model([0], np.zeros((1, 4)), 1, (2, 2))
        write_centroids(model, tmp_path / "c")
        out = (tmp_path / "c" / "centroid_00.csv").read_text()
        assert out == "0,0\n0,0\n"

    def test_single_cluster_single_file(self, tmp_path):
        model = self._model([0, 0], np.ones((1, 4)), 1, (2, 2))
        write_centroids(model, tmp_path / "c")
        assert len(list((tmp_path / "c").glob("centroid_*.csv"))) == 1

    def test_column_major_reshape_round_trip(self, tmp_path):
        vec = np.arange(6.0)
        model = self._model([0], vec[None, :], 1, (2, 3))
        write_centroids(model, tmp_path / "c")
        back = read_centroid_dir(tmp_path / "c")
        np.testing.assert_array_equal(back[0], vec)

    def test_no_shape_rejected(self, tmp_path):
        model = self._model([0], np.ones((1, 4)), 1, None)
        with pytest.raises(ValidationError):
            write_centroids(model, tmp_path / "c")


class TestVectors:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(2)
        coords = rng.standard_normal((5, 3))
        path = tmp_path / "v.csv"
        write_vectors([f"s{i}" for i in range(5)], coords, path)
        ids, back = read_vectors(path)
        assert ids == [f"s{i}" for i in range(5)]
        np.testing.assert_array_equal(back, coords)

    def test_header_shape(self, tmp_path):
        path = tmp_path / "v.csv"
        write_vectors(["a"], np.zeros((1, 2)), path)
        assert path.read_text().splitlines()[0] == "id,dim0,dim1"

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "v.csv"
        path.write_text("id,x0,x1\na,1,2\n")
        with pytest.raises(FormatError):
            read_vectors(path)

    def test_triplets(self, tmp_path):
        y = np.array([[0.0, 0.5], [-0.25, 0.0]])
        path = tmp_path / "y.csv"
        write_coefficient_triplets(y, path)
        assert path.read_text() == "row,col,value\n0,1,0.5\n1,0,-0.25\n"


AWKWARD = np.array([-0.0, 5e-324, 1e308, 3.0, -2.0, 2.0**53, 1e16, 0.1,
                    1.0 / 3.0, -1.5e-300, np.nan, np.inf, -np.inf, 0.0])
NONNEG = np.array([0.0, -0.0, 5e-324, 1e308, 3.0, 2.0**53, 0.1, 1.0 / 3.0])


def per_value_matrix(mat):
    # the writers' bytes before row-at-a-time formatting: one %.17g per value
    return "".join(",".join("%.17g" % v for v in row) + "\n" for row in mat)


def per_value_rows(header, rows):
    buf = io.StringIO(newline="")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


class TestWriterBytes:
    """Each CSV writer's bytes equal per-value %.17g formatting."""

    def test_archive_csv(self, tmp_path):
        energy = np.resize(NONNEG, (3, 5))
        write_archive(SegmentArchive((SpectroSegment("a", energy),)), tmp_path / "arch")
        path = tmp_path / "arch" / "seg_00000.csv"
        assert path.read_bytes() == per_value_matrix(energy).encode()

    def test_centroids(self, tmp_path):
        cents = np.vstack([AWKWARD, AWKWARD[::-1]])
        part = Partition(np.arange(3), np.array([], dtype=int), 0.8)
        model = ClusterModel(
            ids=("a", "b", "c"), labels=np.array([1, 0, 1]), centroids=cents,
            partition=part, k=2, method="kmeans",
            inlier_labels=np.array([1, 0, 1]), feature_shape=(2, 7))
        write_centroids(model, tmp_path / "c")
        for rank, cluster in enumerate((1, 0)):
            mat = cents[cluster].reshape((2, 7), order="F")
            path = tmp_path / "c" / f"centroid_{rank:02d}.csv"
            assert path.read_bytes() == per_value_matrix(mat).encode()

    @pytest.mark.parametrize("width", [0, 1, 7])
    def test_vectors(self, tmp_path, width):
        ids = ["plain", "a,b", 'q"x', "", "line\nbreak"]
        coords = np.resize(AWKWARD, (len(ids), width))
        write_vectors(ids, coords, tmp_path / "v.csv")
        expected = per_value_rows(
            ["id"] + [f"dim{j}" for j in range(width)],
            [[sid] + ["%.17g" % v for v in row] for sid, row in zip(ids, coords)])
        assert (tmp_path / "v.csv").read_bytes() == expected.encode()

    def test_coefficient_triplets(self, tmp_path):
        y = np.resize(AWKWARD, (4, 4))
        write_coefficient_triplets(y, tmp_path / "y.csv")
        rows, cols = np.nonzero(y)
        expected = per_value_rows(
            ["row", "col", "value"],
            [[int(r), int(c), "%.17g" % y[r, c]] for r, c in zip(rows, cols)])
        assert (tmp_path / "y.csv").read_bytes() == expected.encode()
