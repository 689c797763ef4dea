import csv
import io
import math
import struct
import tracemalloc
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import _write_matrix_csv, matrix_csv_ref
from usvclust.assign import ClusterModel
from usvclust.errors import FormatError, ValidationError
from usvclust.ingest import (SegmentArchive, SpectroSegment, _csv_blocks,
                             coefficient_triplets, read_archive, read_centroid_dir,
                             read_labels, read_vectors, write_archive, write_centroids,
                             write_label_rows, write_labels, write_vectors)
from usvclust.outlier_split import Partition


def prepend_bom(path):
    """Begin ``path`` with a UTF-8 byte-order mark, as a spreadsheet's
    "CSV UTF-8" export or Notepad writes it."""
    path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())


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
        write_archive(arc, path)
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

    @pytest.mark.parametrize("data, message", [
        (b"SSCA\x01\x00", "truncated header at byte 6"),
        (struct.pack("<4sII", b"SSCA", 1, 1), "truncated id length at byte 12"),
        (struct.pack("<4sIIH", b"SSCA", 1, 1, 3) + b"abc\x02\x00", "truncated segment header at byte 14"),
        (struct.pack("<4sIIH", b"SSCA", 1, 1, 1) + b"\xff" + struct.pack("<II4d", 2, 2, 1, 2, 3, 4),
         "invalid UTF-8 id at byte 14"),
    ], ids=["header", "id_length", "segment_header", "id_not_utf8"])
    def test_binary_errors(self, tmp_path, data, message):
        path = tmp_path / "bad.ssca"
        path.write_bytes(data)
        with pytest.raises(FormatError, match=rf"bad\.ssca: {message}$"):
            read_archive(path)

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

    @pytest.mark.parametrize("body, message", [
        ("", "empty file at line 1"),
        ("id,file\na,seg_00000.csv,extra\n", "expected 2 fields at line 2"),
        ('id,file\n"a\nb",seg_00000.csv\nc\n', "expected 2 fields at line 4"),  # id spans lines
    ], ids=["empty", "field_count", "after_an_id_spanning_lines"])
    def test_csv_manifest_errors(self, tmp_path, body, message):
        d = tmp_path / "d"
        write_archive(SegmentArchive((seg(0, [[1, 2], [3, 4]]),)), d)
        (d / "manifest.csv").write_text(body)
        with pytest.raises(FormatError, match=rf"manifest\.csv: {message}$"):
            read_archive(d)

    def test_csv_leading_byte_order_marks_are_skipped(self, tmp_path):
        d = tmp_path / "d"
        write_archive(SegmentArchive((seg(0, [[1, 2], [3, 4]]), seg(1, [[5, 6], [7, 8]]))), d)
        plain = read_archive(d)
        for name in ("manifest.csv", "seg_00000.csv"):
            prepend_bom(d / name)
        back = read_archive(d)
        assert [s.id for s in back.segments] == [s.id for s in plain.segments]
        for a, b in zip(back.segments, plain.segments):
            assert a.energy.tobytes() == b.energy.tobytes()

    def test_csv_ragged_matrix(self, tmp_path):
        d = tmp_path / "d"
        write_archive(SegmentArchive((seg(0, [[1, 2], [3, 4]]),)), d)
        (d / "seg_00000.csv").write_text("1,2\n3\n")
        with pytest.raises(FormatError, match="line 2"):
            read_archive(d)

    @pytest.mark.parametrize("body, message", [
        ("1,2\n3\n", "ragged row at line 2"),
        ("\n1,2\n\n3,4,5\n\n", "ragged row at line 4"),
        ("1,2\n\n\n3,x\n\n", "bad number at line 4"),
        ("1,2\n3,\n", "bad number at line 2"),
        ("1_0,2\n3,4\n", "bad number at line 1"),  # underscores are refused
        ("\n  \n", "empty matrix"),
        ("1,2\n\n3,nan\n", "a number that is not finite at line 3"),
        ("\n1,-inf\n3,4\n", "a number that is not finite at line 2"),
        ("1,2\n3,1e999\n", "a number that is not finite at line 2"),  # too large
    ])
    def test_csv_matrix_errors(self, tmp_path, body, message):
        d = tmp_path / "d"
        write_archive(SegmentArchive((seg(0, [[1, 2], [3, 4]]),)), d)
        (d / "seg_00000.csv").write_text(body)
        with pytest.raises(FormatError, match=rf"{message}$"):
            read_archive(d)

    def test_csv_matrix_skips_blank_lines(self, tmp_path):
        d = tmp_path / "d"
        write_archive(SegmentArchive((seg(0, [[1, 2], [3, 4]]),)), d)
        (d / "seg_00000.csv").write_text("\n1, 2\n\n 3 ,4\r\n  \n")
        np.testing.assert_array_equal(read_archive(d).segments[0].energy, [[1, 2], [3, 4]])

    def test_csv_matrix_values_match_float(self, tmp_path):
        texts = ["0.1", "5e-324", "4.9406564584124654e-324", "2.2250738585072011e-308",
                 "1.7976931348623157e308", "0.30000000000000004", "1e23", "9007199254740993",
                 "123456789012345678901234567890", "1.00000000000000011102230246251565404",
                 "-0", "1E5", "+2.5", ".5", "5.", "0.000001e-300"]
        d = tmp_path / "d"
        write_archive(SegmentArchive((seg(0, [[1, 2], [3, 4]]),)), d)
        (d / "seg_00000.csv").write_text(",".join(texts[:8]) + "\n" + ",".join(texts[8:]) + "\n")
        expected = np.array([float(t) for t in texts]).reshape(2, 8)
        assert read_archive(d).segments[0].energy.tobytes() == expected.tobytes()

    @settings(max_examples=25, deadline=None)
    @given(st.lists(
        # each matrix draws its width first, so every row has that many values
        st.integers(2, 4).flatmap(lambda width: st.lists(
            st.lists(st.floats(0, 1e6, allow_nan=False), min_size=width, max_size=width),
            min_size=2, max_size=4)),
        min_size=0, max_size=3))
    def test_csv_values_exact(self, tmp_path_factory, matrices):
        segs = tuple(SpectroSegment(f"s{i}", np.array(m)) for i, m in enumerate(matrices))
        arc = SegmentArchive(segs)
        path = tmp_path_factory.mktemp("csvrt") / "arcdir"
        write_archive(arc, path)
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

    def test_leading_byte_order_mark_is_skipped(self, tmp_path):
        path = tmp_path / "labels.csv"
        write_label_rows(["a", "b"], [0, 1], [False, True], path)
        prepend_bom(path)
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
        part = Partition(np.array([False, True]))
        model = ClusterModel(
            ids=("a", "b"), labels=np.array([0, 1]), centroids=np.eye(2),
            partition=part, method="kmeans")
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

    @pytest.mark.parametrize("body, message", [
        ("", "empty file at line 1"),
        ("id,label,is_outlier\na,0\n", "expected 3 fields at line 2"),
        ("id,label,is_outlier\na,x,0\n", "bad number at line 2"),
        ('id,label,is_outlier\n"a\nb",0,0\nc,x,0\n', "bad number at line 4"),  # id spans lines
    ], ids=["empty", "field_count", "bad_number", "after_an_id_spanning_lines"])
    def test_errors_name_the_line(self, tmp_path, body, message):
        path = tmp_path / "labels.csv"
        path.write_text(body)
        with pytest.raises(FormatError, match=rf"labels\.csv: {message}$"):
            read_labels(path)


class TestCentroids:
    def _model(self, inlier_labels, centroids, shape):
        n = len(inlier_labels)
        return ClusterModel(
            ids=tuple(f"s{i}" for i in range(n)), labels=np.array(inlier_labels),
            centroids=centroids, partition=Partition(np.zeros(n, dtype=bool)),
            method="kmeans", feature_shape=shape)

    def test_descending_size_order(self, tmp_path):
        # cluster 0 has 5 members, cluster 1 has 9: file 00 is cluster 1
        labels = [0] * 5 + [1] * 9
        cents = np.vstack([np.full(6, 1.0), np.full(6, 2.0)])
        model = self._model(labels, cents, (2, 3))
        write_centroids(model, tmp_path / "c")
        files = sorted((tmp_path / "c").glob("centroid_*.csv"))
        assert [f.name for f in files] == ["centroid_00.csv", "centroid_01.csv"]
        first = np.array([[float(v) for v in line.split(",")]
                          for line in files[0].read_text().splitlines()])
        np.testing.assert_array_equal(first, np.full((2, 3), 2.0))

    def test_zero_centroid_writes_zeros(self, tmp_path):
        model = self._model([0], np.zeros((1, 4)), (2, 2))
        write_centroids(model, tmp_path / "c")
        out = (tmp_path / "c" / "centroid_00.csv").read_text()
        assert out == "0,0\n0,0\n"

    def test_single_cluster_single_file(self, tmp_path):
        model = self._model([0, 0], np.ones((1, 4)), (2, 2))
        write_centroids(model, tmp_path / "c")
        assert len(list((tmp_path / "c").glob("centroid_*.csv"))) == 1

    def test_column_major_reshape_round_trip(self, tmp_path):
        vec = np.arange(6.0)
        model = self._model([0], vec[None, :], (2, 3))
        write_centroids(model, tmp_path / "c")
        back = read_centroid_dir(tmp_path / "c")
        np.testing.assert_array_equal(back[0], vec)

    def test_rank_order_past_two_digits(self, tmp_path):
        # centroid_100.csv sorts before centroid_11.csv by name
        k = 101
        labels = np.repeat(np.arange(k), np.arange(k) % 7 + 1)
        cents = np.arange(k * 4.0).reshape(k, 4)
        model = self._model(labels, cents, (2, 2))
        write_centroids(model, tmp_path / "c")
        order = np.argsort(-np.bincount(labels, minlength=k), kind="stable")
        np.testing.assert_array_equal(read_centroid_dir(tmp_path / "c"), cents[order])

    def test_file_without_rank_rejected(self, tmp_path):
        write_centroids(self._model([0, 1], np.ones((2, 4)), (2, 2)), tmp_path / "c")
        (tmp_path / "c" / "centroid_old.csv").write_text("1,1\n1,1\n")
        with pytest.raises(FormatError, match="centroid_old"):
            read_centroid_dir(tmp_path / "c")

    def test_repeated_rank_rejected(self, tmp_path):
        write_centroids(self._model([0, 1], np.ones((2, 4)), (2, 2)), tmp_path / "c")
        (tmp_path / "c" / "centroid_01.csv").rename(tmp_path / "c" / "centroid_0.csv")
        with pytest.raises(FormatError, match="centroid_0.csv and centroid_00.csv both hold rank 0"):
            read_centroid_dir(tmp_path / "c")

    @pytest.mark.parametrize("files, message", [
        ({}, r"no centroid_\*\.csv files"),
        ({"centroid_00.csv": "1,2\n3,4\n", "centroid_01.csv": "1,2,3\n4,5,6\n"},
         r"centroid_01\.csv: centroid shape \(2, 3\) != \(2, 2\)"),
    ], ids=["no_files", "mixed_shapes"])
    def test_unusable_dir_rejected(self, tmp_path, files, message):
        (tmp_path / "c").mkdir()
        for name, body in files.items():
            (tmp_path / "c" / name).write_text(body)
        with pytest.raises(FormatError, match=message):
            read_centroid_dir(tmp_path / "c")

    def test_no_shape_writes_vector_table(self, tmp_path):
        # sizes 2, 3, 3: the two tied clusters keep their index order
        labels = [2, 0, 1, 2, 0, 1, 1, 2]
        cents = np.array([[0.0, 1.0], [1.0, 0.5], [2.0, -1.0]])
        model = self._model(labels, cents, None)
        write_centroids(model, tmp_path / "c")
        assert [p.name for p in (tmp_path / "c").iterdir()] == ["centroids.csv"]
        ids, back = read_vectors(tmp_path / "c" / "centroids.csv")
        assert ids == ["centroid_00", "centroid_01", "centroid_02"]
        np.testing.assert_array_equal(back, cents[[1, 2, 0]])
        # the directory reader takes the table too
        np.testing.assert_array_equal(read_centroid_dir(tmp_path / "c"), back)


class TestVectors:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(2)
        coords = rng.standard_normal((5, 3))
        path = tmp_path / "v.csv"
        write_vectors([f"s{i}" for i in range(5)], coords, path)
        ids, back = read_vectors(path)
        assert ids == [f"s{i}" for i in range(5)]
        np.testing.assert_array_equal(back, coords)

    def test_leading_byte_order_mark_is_skipped(self, tmp_path):
        coords = np.random.default_rng(2).standard_normal((3, 2))
        path = tmp_path / "v.csv"
        write_vectors(["a", "b", "c"], coords, path)
        prepend_bom(path)
        ids, back = read_vectors(path)
        assert ids == ["a", "b", "c"]
        assert back.tobytes() == coords.tobytes()

    def test_header_shape(self, tmp_path):
        path = tmp_path / "v.csv"
        write_vectors(["a"], np.zeros((1, 2)), path)
        assert path.read_text().splitlines()[0] == "id,dim0,dim1"

    def test_zero_columns_refused_before_writing(self, tmp_path):
        # an id-only table is one read_vectors would refuse
        path = tmp_path / "v.csv"
        with pytest.raises(ValidationError, match="a dim column"):
            write_vectors(["a", "b"], np.zeros((2, 0)), path)
        assert not path.exists()

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "v.csv"
        path.write_text("id,x0,x1\na,1,2\n")
        with pytest.raises(FormatError):
            read_vectors(path)

    @pytest.mark.parametrize("width", [1, 4096])
    def test_round_trip_widths(self, tmp_path, width):
        coords = np.random.default_rng(width).standard_normal((3, width))
        path = tmp_path / "v.csv"
        write_vectors(["a", "b", "c"], coords, path)
        ids, back = read_vectors(path)
        assert ids == ["a", "b", "c"]
        np.testing.assert_array_equal(back.view(np.int64), coords.view(np.int64))
        assert back.flags.c_contiguous

    def test_awkward_values_bit_exact(self, tmp_path):
        # the writer writes any double; the reader takes the finite ones
        # back bit for bit and refuses the others
        finite = AWKWARD[np.isfinite(AWKWARD)]
        coords = np.vstack([finite, finite[::-1]])
        path = tmp_path / "v.csv"
        write_vectors(["x", "y"], coords, path)
        _, back = read_vectors(path)
        np.testing.assert_array_equal(back.view(np.int64), coords.view(np.int64))
        write_vectors(["x", "y"], np.vstack([AWKWARD, AWKWARD[::-1]]), path)
        with pytest.raises(FormatError, match="not finite at line 2$"):
            read_vectors(path)

    def test_quoted_ids(self, tmp_path):
        ids = ["a,b", 'q"x', "line\nbreak", "two\n\nblank", "", "crlf\r\nin"]
        coords = np.arange(2.0 * len(ids)).reshape(len(ids), 2)
        path = tmp_path / "v.csv"
        write_vectors(ids, coords, path)
        back_ids, back = read_vectors(path)
        assert back_ids == ids
        np.testing.assert_array_equal(back, coords)

    def test_crlf_and_hash_in_id(self, tmp_path):
        path = tmp_path / "v.csv"
        path.write_bytes(b"id,dim0,dim1\r\n#a,1,2\r\nb#,0.5,-3e2\r\n")
        ids, back = read_vectors(path)
        assert ids == ["#a", "b#"]
        np.testing.assert_array_equal(back, [[1.0, 2.0], [0.5, -300.0]])

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "v.csv"
        path.write_text("")
        with pytest.raises(FormatError, match=r"v\.csv: empty file at line 1$"):
            read_vectors(path)

    def test_header_only_is_empty(self, tmp_path):
        path = tmp_path / "v.csv"
        path.write_text("id,dim0,dim1\n")
        ids, back = read_vectors(path)
        assert ids == [] and back.shape == (0, 2)

    @pytest.mark.parametrize("body, line", [
        ("a,1,2\nb,3\nc,5,6\n", 3),             # ragged: a field short
        ("a,1,2\nb,3,4\nc,5,6,7\n", 4),         # ragged: a field over
        ("a,1,2\nb,3,x\n", 3),                  # bad number
        ("a,1,2\nb,3,\n", 3),                   # empty number
        ("a,1_0,2\n", 2),                        # underscores are refused
        ("a,1,2\n\nc,5,6\n", 3),                # blank line
        ('"a\nb",1,2\nc,x,6\n', 4),             # after an id spanning lines
        ("a,1,2\nb,3,4\n\n", 4),                # blank last line
    ])
    def test_errors_name_the_line(self, tmp_path, body, line):
        path = tmp_path / "v.csv"
        path.write_text("id,dim0,dim1\n" + body)
        with pytest.raises(FormatError, match=rf"at line {line}\b"):
            read_vectors(path)

    @pytest.mark.parametrize("body, line", [
        ("a,1,2\nb,nan,4\n", 3),
        ("a,1,2\nb,3,inf\nc,-inf,6\n", 3),
        ("a,1,2\nb,3,4\nc,-Infinity,6\n", 4),
        ("a,1e309,2\n", 2),                     # too large for a double
        ('"a\nb",1,2\nc,3,4\nd,NaN,6\n', 5),   # after an id spanning lines
        ('a,1,2\n"b\nc",nan,4\n', 4),          # on the last line of its row
    ])
    def test_non_finite_number_names_the_line(self, tmp_path, body, line):
        path = tmp_path / "v.csv"
        path.write_text("id,dim0,dim1\n" + body)
        with pytest.raises(FormatError, match=rf"v\.csv: .*not finite at line {line}$"):
            read_vectors(path)

    def test_triplets(self, tmp_path):
        y = np.array([[0.0, 0.5], [-0.25, 0.0]])
        path = tmp_path / "y.csv"
        path.write_bytes(coefficient_triplets(y))
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
        part = Partition(np.zeros(3, dtype=bool))
        model = ClusterModel(
            ids=("a", "b", "c"), labels=np.array([1, 0, 1]), centroids=cents,
            partition=part, method="kmeans", feature_shape=(2, 7))
        write_centroids(model, tmp_path / "c")
        for rank, cluster in enumerate((1, 0)):
            mat = cents[cluster].reshape((2, 7), order="F")
            path = tmp_path / "c" / f"centroid_{rank:02d}.csv"
            assert path.read_bytes() == per_value_matrix(mat).encode()

    @pytest.mark.parametrize("width", [1, 7])
    def test_vectors(self, tmp_path, width):
        ids = ["plain", "a,b", 'q"x', "", "line\nbreak", "cr\rid", "crlf\r\nin", " spaced "]
        coords = np.resize(AWKWARD, (len(ids), width))
        write_vectors(ids, coords, tmp_path / "v.csv")
        expected = per_value_rows(
            ["id"] + [f"dim{j}" for j in range(width)],
            [[sid] + ["%.17g" % v for v in row] for sid, row in zip(ids, coords)])
        assert (tmp_path / "v.csv").read_bytes() == expected.encode()

    def test_coefficient_triplets(self, tmp_path):
        y = np.resize(AWKWARD, (4, 4))
        (tmp_path / "y.csv").write_bytes(coefficient_triplets(y))
        rows, cols = np.nonzero(y)
        expected = per_value_rows(
            ["row", "col", "value"],
            [[int(r), int(c), "%.17g" % y[r, c]] for r, c in zip(rows, cols)])
        assert (tmp_path / "y.csv").read_bytes() == expected.encode()

    def test_centroids_across_passes(self, tmp_path):
        # 20 grids of 64 x 64 take three passes of 8 grids
        rng = np.random.default_rng(5)
        k = 20
        cents = rng.random((k, 64 * 64)) ** 6 * (rng.random((k, 64 * 64)) < 0.3)
        labels = np.repeat(np.arange(k), np.arange(1, k + 1))  # cluster c has c+1 members
        n = len(labels)
        model = ClusterModel(
            ids=tuple(f"s{i}" for i in range(n)), labels=labels, centroids=cents,
            partition=Partition(np.zeros(n, dtype=bool)), method="kmeans",
            feature_shape=(64, 64))
        write_centroids(model, tmp_path / "c")
        for rank in range(k):  # rank 00 is the largest cluster, k - 1
            mat = cents[k - 1 - rank].reshape((64, 64), order="F")
            path = tmp_path / "c" / f"centroid_{rank:02d}.csv"
            assert path.read_bytes() == per_value_matrix(mat).encode()

    def test_vectors_across_passes(self, tmp_path):
        # 4096-wide rows take passes of 8 rows; quoted ids fall in each
        rng = np.random.default_rng(6)
        ids = [f"s{i}" if i % 7 else f"q,{i}" for i in range(20)]
        coords = rng.standard_normal((20, 4096)) * 10.0 ** rng.integers(-8, 3, (20, 4096))
        write_vectors(ids, coords, tmp_path / "v.csv")
        expected = per_value_rows(
            ["id"] + [f"dim{j}" for j in range(4096)],
            [[sid] + ["%.17g" % v for v in row] for sid, row in zip(ids, coords)])
        assert (tmp_path / "v.csv").read_bytes() == expected.encode()

    def test_coefficient_triplets_indices(self, tmp_path):
        # row and column indices past one digit print as %d
        rng = np.random.default_rng(8)
        y = rng.standard_normal((150, 120)) * (rng.random((150, 120)) < 0.05)
        rows, cols = np.nonzero(y)
        expected = per_value_rows(
            ["row", "col", "value"],
            [[int(r), int(c), "%.17g" % y[r, c]] for r, c in zip(rows, cols)])
        assert coefficient_triplets(y) == expected.encode()


def csv_bytes(mat):
    return b"".join(_csv_blocks(np.asarray(mat, dtype=np.float64)))


def around_powers_of_ten():
    """10**k and the doubles one ulp either side, for k in -8..18."""
    out = []
    for k in range(-8, 19):
        v = float(f"1e{k}")
        out += [math.nextafter(v, 0.0), v, math.nextafter(v, math.inf)]
    return out


def nearest_below(k):
    """The largest double below 10**k."""
    v = float(f"1e{k}")
    return v if Fraction(v) < Fraction(10) ** k else math.nextafter(v, 0.0)


def ties():
    """Exact ties at the 17th digit: odd * 2**-(p+1) for p in 1..22 whose
    decimal expansion, odd * 5**(p+1) shifted, has 18 digits ending in 5.
    Consecutive odd numbers give both parities of the 17th digit."""
    out = []
    for p in range(1, 23):
        five = 5 ** (p + 1)
        first = -(-10 ** 17 // five) | 1  # the smallest odd with 18 digits
        last = (10 ** 18 - 1) // five
        for odd in [*range(first, first + 8, 2), *range(last - last % 2 - 7, last, 2)]:
            if odd < 2 ** 53 and len(str(odd * five)) == 18:
                out.append(odd * 2.0 ** -(p + 1))
    return out


EDGES = [
    1e-7, 9.9999999999999995e-7, 1e-6, math.nextafter(1e-6, 1.0), 1.5e-6,  # E -7/-6
    1e-5, 9.9999999999999991e-5, 1e-4, math.nextafter(1e-4, 0.0), 1.5e-4,  # E -5/-4
    1e16, math.nextafter(1e16, 0.0), 9.999999999999998e16, 1e17,           # E 16/17
    math.nextafter(1e17, 0.0), math.nextafter(1e17, 1e18), 1.5e17,
    *(nearest_below(k) for k in range(-5, 18)),  # would carry, if anything did
    float("1e-14"),  # carries, below the exact range: prints 1e-14
    5e-324, 2.2250738585072009e-308, 2.2250738585072014e-308, 4e-320,  # subnormals
    0.0, -0.0, 1e308, 1.7976931348623157e308, math.nan, math.inf, -math.inf,
    0.1, 0.5, 1.0, 2.0 ** 53, 2.0 ** 53 + 2, 123456789012345678.0, 1e-300,
]


def any_float():
    bits = st.integers(0, 2 ** 64 - 1).map(lambda b: struct.unpack("<d", struct.pack("<Q", b))[0])
    decimal = st.builds(lambda v, neg: -v if neg else v,
                        st.floats(1e-8, 1e18), st.booleans())
    return st.one_of(bits, decimal, st.sampled_from(EDGES))


class TestFloatFormatter:
    """The block formatter's bytes equal the row-at-a-time ``%`` writer's."""

    def test_oracle_writes_what_it_returns(self, tmp_path):
        mat = np.resize(np.array(EDGES), (5, 9))
        _write_matrix_csv(mat, tmp_path / "m.csv")
        assert (tmp_path / "m.csv").read_bytes() == matrix_csv_ref(mat)

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 70).flatmap(lambda width: st.lists(
        st.lists(any_float(), min_size=width, max_size=width), min_size=1, max_size=3)))
    def test_any_bits_any_width(self, rows):
        mat = np.array(rows, dtype=np.float64)
        assert csv_bytes(mat) == matrix_csv_ref(mat)

    @pytest.mark.parametrize("values", [
        around_powers_of_ten(), ties(), EDGES,
    ], ids=["powers_of_ten", "ties", "edges"])
    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_targeted(self, values, sign):
        mat = sign * np.array(values)[:, None]
        assert csv_bytes(mat) == matrix_csv_ref(mat)
        assert csv_bytes(mat.reshape(1, -1)) == matrix_csv_ref(mat.reshape(1, -1))

    def test_ties_are_ties(self):
        values = ties()
        assert len(values) > 100
        for v in values:
            digits = Decimal(v).as_tuple().digits
            assert len(digits) == 18 and digits[-1] == 5
        # the 17th digit, which half to even keeps or rounds up, has both parities
        assert {Decimal(v).as_tuple().digits[16] % 2 for v in values} == {0, 1}

    def test_exact_range_premises(self):
        # no carry step: at 17 digits only the double just below 10**k could
        # round up to 10**k, and for every k in -5..17 it does not
        for k in range(-5, 18):
            assert Decimal("%.17g" % nearest_below(k)) < Decimal(10) ** k
        # the exponent guess: for k in -5..-1 the double nearest 10**k lies
        # above it (for k in 0..17 it is exact)
        for k in range(-5, 0):
            assert Fraction(float(f"1e{k}")) > Fraction(10) ** k

    @pytest.mark.parametrize("shape", [(937, 71), (2, 40000), (1, 65536), (65537, 1)])
    def test_blocks_cut_rows(self, shape):
        # values of every exponent, with block edges inside and between rows
        rng = np.random.default_rng(shape[1])
        n = shape[0] * shape[1]
        mat = (rng.standard_normal(n) * 10.0 ** rng.integers(-9, 19, n)).reshape(shape)
        mat[rng.random(shape) < 0.5] = 0.0
        assert csv_bytes(mat) == matrix_csv_ref(mat)

    def test_empty(self):
        assert csv_bytes(np.zeros((0, 3))) == b""
        assert csv_bytes(np.zeros((3, 0))) == b""

    def test_centroid_writer_memory(self, tmp_path):
        # K=60 64 x 64 centroids, none of them zero: the writer formats 8
        # grids per pass, so its temporaries stay a few MB (6 MB measured).
        # One pass over all 60 grids peaked at 40 MB, 16 grids at 12 MB
        rng = np.random.default_rng(3)
        k = 60
        cents = rng.standard_normal((k, 64 * 64))
        model = ClusterModel(
            ids=tuple(f"s{i}" for i in range(k)), labels=np.arange(k),
            centroids=cents, partition=Partition(np.zeros(k, dtype=bool)),
            method="kmeans", feature_shape=(64, 64))
        tracemalloc.start()
        try:
            write_centroids(model, tmp_path / "c")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8e6
        for rank in (0, 17, 59):
            grid = cents[rank].reshape((64, 64), order="F")
            assert (tmp_path / "c" / f"centroid_{rank:02d}.csv").read_bytes() == matrix_csv_ref(grid)
