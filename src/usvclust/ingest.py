"""Reading and writing spectrogram segments, labels, centroids and vector tables.

Two archive encodings are supported:

* a directory holding one CSV matrix per segment plus ``manifest.csv``
  (header ``id,file``) fixing the segment order, and
* a single little-endian binary file: magic ``SSCA``, u32 version (=1),
  u32 segment count, then per segment a u16 id length, the UTF-8 id,
  u32 n_freq, u32 n_time and the row-major f64 energy values.

CSV floats are printed with 17 significant digits so numeric round-trips
are value-exact.
"""

from __future__ import annotations

import csv
import itertools
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import FormatError, ValidationError

MAGIC = b"SSCA"
VERSION = 1
MANIFEST_NAME = "manifest.csv"

_FLOAT_FMT = "%.17g"
# an id holding one of these, or an empty one, goes through csv's quoting
_CSV_QUOTED = frozenset(',"\r\n')


def _row_fmt(width: int) -> str:
    """A %-format string for one CSV row of ``width`` floats.

    Each row is then formatted by a single ``row_fmt % tuple(row)`` on
    Python floats (``ndarray.tolist()``), which gives the same bytes as
    formatting every value with ``_FLOAT_FMT`` and joining with commas.
    """
    return ",".join([_FLOAT_FMT] * width)


def _write_matrix_csv(mat: np.ndarray, path) -> None:
    row_fmt = _row_fmt(mat.shape[1]) + "\n"
    with open(path, "w", newline="") as fh:
        fh.writelines(row_fmt % tuple(row) for row in mat.tolist())


@dataclass(frozen=True)
class SpectroSegment:
    """A single vocalization: nonnegative energy, rows = frequency bins."""

    id: str
    energy: np.ndarray

    def __post_init__(self):
        e = np.asarray(self.energy, dtype=np.float64)
        object.__setattr__(self, "energy", e)
        if e.ndim != 2:
            raise ValidationError(f"segment {self.id!r}: energy must be 2-D")
        if e.shape[0] < 2 or e.shape[1] < 2:
            raise ValidationError(
                f"segment {self.id!r}: needs at least a 2x2 grid, got {e.shape}"
            )
        if not np.all(np.isfinite(e)):
            raise ValidationError(f"segment {self.id!r}: non-finite energy value")
        if np.any(e < 0):
            raise ValidationError(f"segment {self.id!r}: negative energy value")

    @property
    def n_freq(self) -> int:
        return self.energy.shape[0]

    @property
    def n_time(self) -> int:
        return self.energy.shape[1]


@dataclass(frozen=True)
class SegmentArchive:
    """An ordered collection of segments with unique ids."""

    segments: tuple[SpectroSegment, ...]
    source: str = ""

    def __post_init__(self):
        object.__setattr__(self, "segments", tuple(self.segments))
        seen = set()
        for seg in self.segments:
            if seg.id in seen:
                raise ValidationError(f"duplicate segment id {seg.id!r}")
            seen.add(seg.id)

    def __len__(self) -> int:
        return len(self.segments)

    @property
    def ids(self) -> tuple[str, ...]:
        return tuple(seg.id for seg in self.segments)


# ---------------------------------------------------------------------------
# segment archives
# ---------------------------------------------------------------------------


def read_archive(path) -> SegmentArchive:
    """Read a segment archive from a CSV directory or a binary ``.ssca`` file."""
    path = Path(path)
    if not path.exists():
        raise FormatError(f"archive path does not exist: {path}")
    if path.is_dir():
        return _read_archive_csv(path)
    return _read_archive_binary(path)


def write_archive(archive: SegmentArchive, path, fmt: str | None = None) -> None:
    """Write an archive; ``fmt`` is 'csv' or 'binary', inferred from the path
    suffix when omitted (``.ssca`` -> binary, anything else -> CSV directory)."""
    path = Path(path)
    if fmt is None:
        fmt = "binary" if path.suffix == ".ssca" else "csv"
    if fmt == "binary":
        _write_archive_binary(archive, path)
    elif fmt == "csv":
        _write_archive_csv(archive, path)
    else:
        raise ValidationError(f"unknown archive format {fmt!r}")


def _write_archive_binary(archive: SegmentArchive, path: Path) -> None:
    with open(path, "wb") as fh:
        fh.write(struct.pack("<4sII", MAGIC, VERSION, len(archive)))
        for seg in archive.segments:
            id_bytes = seg.id.encode("utf-8")
            if len(id_bytes) > 0xFFFF:
                raise ValidationError(f"segment id too long: {seg.id[:32]!r}...")
            fh.write(struct.pack("<H", len(id_bytes)))
            fh.write(id_bytes)
            fh.write(struct.pack("<II", seg.n_freq, seg.n_time))
            fh.write(np.ascontiguousarray(seg.energy, dtype="<f8").tobytes())


def _read_archive_binary(path: Path) -> SegmentArchive:
    data = path.read_bytes()
    if len(data) < 12:
        raise FormatError(f"{path}: truncated header at byte {len(data)}")
    magic, version, count = struct.unpack_from("<4sII", data, 0)
    if magic != MAGIC:
        raise FormatError(f"{path}: bad magic {magic!r} at byte 0")
    if version != VERSION:
        raise FormatError(f"{path}: unsupported version {version} at byte 4")
    off = 12
    segments = []
    for i in range(count):
        if off + 2 > len(data):
            raise FormatError(f"{path}: truncated id length at byte {off}")
        (id_len,) = struct.unpack_from("<H", data, off)
        off += 2
        if off + id_len + 8 > len(data):
            raise FormatError(f"{path}: truncated segment header at byte {off}")
        try:
            seg_id = data[off : off + id_len].decode("utf-8")
        except UnicodeDecodeError as exc:
            raise FormatError(f"{path}: invalid UTF-8 id at byte {off}") from exc
        off += id_len
        n_freq, n_time = struct.unpack_from("<II", data, off)
        off += 8
        n_bytes = n_freq * n_time * 8
        if off + n_bytes > len(data):
            raise FormatError(f"{path}: truncated energy block at byte {off}")
        energy = np.frombuffer(data, dtype="<f8", count=n_freq * n_time, offset=off)
        off += n_bytes
        segments.append(SpectroSegment(seg_id, energy.reshape(n_freq, n_time).copy()))
    if off != len(data):
        raise FormatError(f"{path}: {len(data) - off} trailing bytes at byte {off}")
    return SegmentArchive(tuple(segments), source=str(path))


def _write_archive_csv(archive: SegmentArchive, path: Path) -> None:
    path.mkdir(parents=True, exist_ok=True)
    rows = []
    for i, seg in enumerate(archive.segments):
        name = f"seg_{i:05d}.csv"
        rows.append((seg.id, name))
        _write_matrix_csv(seg.energy, path / name)
    with open(path / MANIFEST_NAME, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["id", "file"])
        writer.writerows(rows)


def _read_archive_csv(path: Path) -> SegmentArchive:
    manifest = path / MANIFEST_NAME
    if not manifest.exists():
        raise FormatError(f"{path}: missing {MANIFEST_NAME}")
    with open(manifest, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise FormatError(f"{manifest}: empty manifest at line 1") from None
        if header != ["id", "file"]:
            raise FormatError(f"{manifest}: bad header {header} at line 1")
        entries = []
        for lineno, row in enumerate(reader, start=2):
            if len(row) != 2:
                raise FormatError(f"{manifest}: expected 2 fields at line {lineno}")
            entries.append((row[0], row[1]))
    segments = []
    for seg_id, name in entries:
        cell = path / name
        if not cell.exists():
            raise FormatError(f"{path}: missing segment file {name}")
        segments.append(SpectroSegment(seg_id, _read_matrix_csv(cell)))
    return SegmentArchive(tuple(segments), source=str(path))


def _read_matrix_csv(path: Path) -> np.ndarray:
    """Read one comma-separated matrix; blank lines are skipped.

    The numbers are parsed by numpy's C text reader, which reads the same
    doubles as ``float`` but refuses underscores such as ``1_0``.
    """
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            if line.strip():
                break
        else:
            raise FormatError(f"{path}: empty matrix")
        width = line.count(",") + 1

        def lines():
            # loadtxt pulls one line at a time as it parses, so ``lineno``
            # and ``line`` belong to the row it was reading when it fails
            nonlocal lineno, line
            yield line
            for lineno, line in enumerate(fh, start=lineno + 1):
                if line.strip():
                    yield line

        try:
            return np.loadtxt(lines(), delimiter=",", comments=None, ndmin=2)
        except ValueError as exc:
            what = "ragged row" if line.count(",") + 1 != width else "bad number"
            raise FormatError(f"{path}: {what} at line {lineno}") from exc


# ---------------------------------------------------------------------------
# labels
# ---------------------------------------------------------------------------

LABELS_HEADER = ["id", "label", "is_outlier"]


def write_label_rows(ids, labels, is_outlier, path) -> None:
    """Write ``id,label,is_outlier`` rows (is_outlier encoded as 0/1)."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(LABELS_HEADER)
        for sid, lab, out in zip(ids, labels, is_outlier):
            writer.writerow([sid, int(lab), int(bool(out))])


def write_labels(model, path) -> None:
    """Write a ClusterModel's per-sample labels in sample order."""
    outlier_set = set(int(i) for i in model.partition.outlier_idx)
    flags = [i in outlier_set for i in range(len(model.ids))]
    write_label_rows(model.ids, model.labels, flags, path)


def read_labels(path):
    """Read a labels CSV; returns (ids, labels, is_outlier)."""
    path = Path(path)
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise FormatError(f"{path}: empty file at line 1") from None
        if header != LABELS_HEADER:
            raise FormatError(f"{path}: bad header {header} at line 1")
        ids, labels, flags = [], [], []
        for lineno, row in enumerate(reader, start=2):
            if len(row) != 3:
                raise FormatError(f"{path}: expected 3 fields at line {lineno}")
            ids.append(row[0])
            try:
                labels.append(int(row[1]))
                flag = int(row[2])
            except ValueError as exc:
                raise FormatError(f"{path}: bad number at line {lineno}") from exc
            if flag not in (0, 1):
                raise FormatError(f"{path}: is_outlier must be 0/1 at line {lineno}")
            flags.append(bool(flag))
    return ids, np.array(labels, dtype=int), np.array(flags, dtype=bool)


# ---------------------------------------------------------------------------
# centroids
# ---------------------------------------------------------------------------


def write_centroids(model, out_dir) -> None:
    """Write the centroids in descending inlier cluster size, ties by
    cluster index, so rank 00 is the largest cluster.

    With a feature shape each centroid becomes one F x T CSV,
    ``centroid_XX.csv``; without one they form a single vector table,
    ``centroids.csv``, whose row ids are ``centroid_XX``.
    """
    sizes = np.bincount(model.inlier_labels, minlength=model.k)
    cents = model.centroids[np.argsort(-sizes, kind="stable")]
    shape = model.feature_shape
    if shape is not None and cents.shape[1] != shape[0] * shape[1]:
        raise ValidationError(
            f"centroid length {cents.shape[1]} != {shape[0]}*{shape[1]}"
        )
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    names = [f"centroid_{rank:02d}" for rank in range(model.k)]
    if shape is None:
        write_vectors(names, cents, out_dir / "centroids.csv")
        return
    for name, cent in zip(names, cents):
        _write_matrix_csv(cent.reshape(shape, order="F"), out_dir / f"{name}.csv")


def read_centroid_dir(path) -> np.ndarray:
    """Read ``centroid_*.csv`` matrices back as a K x (F*T) matrix
    (column-major flattening, matching the feature layout)."""
    path = Path(path)
    files = sorted(path.glob("centroid_*.csv"))
    if not files:
        raise FormatError(f"{path}: no centroid_*.csv files")
    mats = [_read_matrix_csv(p) for p in files]
    shape = mats[0].shape
    for p, m in zip(files, mats):
        if m.shape != shape:
            raise FormatError(f"{p}: centroid shape {m.shape} != {shape}")
    return np.stack([m.flatten(order="F") for m in mats])


# ---------------------------------------------------------------------------
# vector tables (embeddings, features, synthetic subspace data)
# ---------------------------------------------------------------------------


def write_vectors(ids, coords: np.ndarray, path) -> None:
    """Write an ``id,dim0..dimK-1`` table; row i is the vector of sample i."""
    coords = np.asarray(coords, dtype=np.float64)
    if coords.ndim != 2 or coords.shape[0] != len(ids):
        raise ValidationError("coords must be 2-D with one row per id")
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["id"] + [f"dim{j}" for j in range(coords.shape[1])])
        if coords.shape[1] == 0:
            writer.writerows([sid] for sid in ids)
            return
        row_fmt = _row_fmt(coords.shape[1]) + "\n"
        # one row of Python floats at a time, not the whole table's
        for sid, row in zip(ids, coords):
            cells = row_fmt % tuple(row.tolist())
            if isinstance(sid, str) and sid and _CSV_QUOTED.isdisjoint(sid):
                fh.write(sid + "," + cells)
            else:  # csv quotes the id where it must; the floats never need it
                writer.writerow([sid, *cells[:-1].split(",")])


def read_vectors(path):
    """Read an ``id,dim0..`` table; returns (ids, N x K array).

    Ids may be csv-quoted, as ``write_vectors`` writes them. The numbers
    are parsed by numpy's C text reader, which reads the same doubles as
    ``float`` but refuses underscores such as ``1_0``.
    """
    path = Path(path)
    with open(path, newline="") as fh:
        first = fh.readline()
        if not first:
            raise FormatError(f"{path}: empty file at line 1")
        header = next(csv.reader([first]))
        if len(header) < 2 or header[0] != "id" or any(
            h != f"dim{j}" for j, h in enumerate(header[1:])
        ):
            raise FormatError(f"{path}: bad header at line 1")
        dim = len(header) - 1
        row = fh.readline()
        if not row:  # loadtxt would warn that it found no data
            return [], np.empty((0, dim))
        expected = f"{path}: expected an id and {dim} numbers at line"
        lineno = 1

        def lines():
            # loadtxt pulls an iterable's lines one at a time as it parses,
            # so ``lineno`` is the line it was reading when it fails. It
            # skips blank lines, so those outside a quoted id fail here.
            nonlocal lineno
            quoted = False
            for lineno, line in enumerate(itertools.chain([row], fh), start=2):
                if not quoted and not line.strip("\r\n"):
                    raise FormatError(f"{expected} {lineno}, got a blank line")
                quoted ^= line.count('"') % 2 == 1
                yield line

        try:
            table = np.loadtxt(lines(), dtype=[("id", object), ("v", np.float64, (dim,))],
                               delimiter=",", comments=None, quotechar='"', ndmin=1)
        except ValueError as exc:
            detail = str(exc).split(" at row ")[0]
            raise FormatError(f"{expected} {lineno}: {detail}") from exc
    return table["id"].tolist(), np.ascontiguousarray(table["v"])


def write_coefficient_triplets(y: np.ndarray, path) -> None:
    """Dump the nonzeros of a coefficient matrix as ``row,col,value`` CSV."""
    rows, cols = np.nonzero(y)
    row_fmt = "%d,%d," + _FLOAT_FMT + "\n"
    with open(path, "w", newline="") as fh:
        fh.write("row,col,value\n")
        fh.writelines(row_fmt % triplet
                      for triplet in zip(rows.tolist(), cols.tolist(),
                                         y[rows, cols].tolist()))
