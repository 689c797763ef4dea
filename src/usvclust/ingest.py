"""Reading and writing spectrogram segments, labels, centroids and vector tables.

Two archive encodings are supported:

* a directory holding one CSV matrix per segment plus ``manifest.csv``
  (header ``id,file``) fixing the segment order, and
* a single little-endian binary file: magic ``SSCA``, u32 version (=1),
  u32 segment count, then per segment a u16 id length, the UTF-8 id,
  u32 n_freq, u32 n_time and the row-major f64 energy values.

CSV floats are printed with 17 significant digits so numeric round-trips
are value-exact. Every file is opened by ``config._open_input`` or
``config._open_output``: text is UTF-8 whatever the locale, and csv sees
line endings as written.
"""

from __future__ import annotations

import csv
import functools
import itertools
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .config import _open_input, _open_output
from .errors import FormatError, ValidationError

MAGIC = b"SSCA"
VERSION = 1
MANIFEST_NAME = "manifest.csv"

# an id holding one of these, or an empty one, goes through csv's quoting
_CSV_QUOTED = frozenset(',"\r\n')


def _csv_rows(path, header) -> list:
    """The (line number, row) pairs of a CSV file after its header line,
    which must equal ``header``; every row must have as many fields."""
    with _open_input(path) as fh:
        reader = csv.reader(fh)
        try:
            if (first := next(reader, None)) != header:
                what = "empty file" if first is None else f"bad header {first}"
                raise FormatError(f"{path}: {what} at line 1")
            rows = []
            for row in reader:
                if len(row) != len(header):
                    raise FormatError(f"{path}: expected {len(header)} fields at line {reader.line_num}")
                rows.append((reader.line_num, row))
        except csv.Error as exc:  # such as a field over csv.field_size_limit()
            raise FormatError(f"{path}: {exc} at line {reader.line_num}") from None
    return rows


# ---------------------------------------------------------------------------
# CSV floats: %.17g, formatted a block of values at a time
# ---------------------------------------------------------------------------

_BLOCK = 32768  # values per pass; bounds the temporaries to a few MB
_CELL = 24  # bytes per value in a frame row: sign, body of at most 22, separator
_VELTKAMP = 134217729.0  # 2**27 + 1: splits a double into two 26-bit halves
# the doubles nearest 10**k for k = -6..17
_POW10_NEAR = np.array([float(f"1e{k}") for k in range(-6, 18)])


def _split(a):
    c = a * _VELTKAMP
    hi = c - (c - a)
    return hi, a - hi


@functools.cache
def _format_tables():
    """10**p for p = 0..22 (exact doubles) with their Veltkamp halves, and
    the ASCII of every 4-digit group as a uint32: the first 10,000 as
    printed, the next 10,000 with their trailing zeros turned into NUL."""
    pow10 = np.array([float(10 ** p) for p in range(23)])
    digit = np.indices((10,) * 4, dtype=np.uint8).reshape(4, -1)  # leading first
    quad = np.empty((2, 10000, 4), np.uint8)
    quad[0] = digit.T + 48
    kept = np.zeros(10000, bool)  # a nonzero digit at or after this one
    for k in range(3, -1, -1):
        kept |= digit[k] != 0
        quad[1, :, k] = quad[0, :, k] * kept
    return (pow10, *_split(pow10)), quad.view(np.uint32).ravel()


def _significand(a, e):
    """round(a * 10**(16 - e)) half to even, exactly, as int64: the 17
    significant digits of each ``a`` (> 0) whose decimal exponent is ``e``
    (int8, in [-6, 16])."""
    (pow10, pow10_hi, pow10_lo), _ = _format_tables()
    # hi + lo == a * 10**(16 - e) exactly (Dekker's two-product); each ufunc
    # rounds once, so nothing is fused into an FMA
    p = 16 - e
    hi = a * pow10[p]
    a_hi, a_lo = _split(a)
    b_hi, b_lo = pow10_hi[p], pow10_lo[p]
    lo = a_lo * b_lo - (((hi - a_hi * b_hi) - a_lo * b_hi) - a_hi * b_lo)
    # hi is an integer in [1e16, 1e17], so the exact value is n + frac with
    # frac in [0, 1). Rounded half to even, n never reaches 10**17: only the
    # double nearest below a power of ten could, and for 10**-5..10**17 it
    # stays below at 17 digits
    floor = np.floor(lo)
    frac = lo - floor
    n = hi.astype(np.int64) + floor.astype(np.int64)
    n += (frac > 0.5) | ((frac == 0.5) & (n & 1 == 1))
    return n


def _digit_rows(n):
    """The 17 ASCII digits of each ``n`` in [1e16, 1e17) as a (len(n), 17)
    uint8 view, its trailing zeros turned into NUL."""
    _, groups = _format_tables()
    # one leading digit and four groups of four. int64 floor division by a
    # constant is several times faster than divmod
    top = n // 10 ** 8
    bot = n - top * 10 ** 8
    lead = top // 10 ** 8
    top -= lead * 10 ** 8
    digits = np.empty((len(n), 20), np.uint8)
    np.add(lead, 48, out=digits[:, 3], casting="unsafe")
    words = digits.view(np.uint32)
    trailing = np.ones(len(n), bool)  # every later group is 0000
    for k, half in ((3, bot), (1, top)):
        q = half // 10000
        for col, g in ((k + 1, half - q * 10000), (k, q)):
            words[:, col] = groups[g + 10000 * trailing]
            trailing &= g == 0
    return digits[:, 3:]


def _exact_cells(a, e, neg, sep, width):
    """Frame rows of the values ``a`` (> 0) whose decimal exponent E lies in
    [-6, 16]; ``e`` (int8) holds E.

    A row is ``width`` bytes: the sign or NUL, the body from byte 1 with
    NUL wherever a digit or point is dropped, NUL padding, and the value's
    separator last. Returns the rows in the stable order of E, and that
    order as indices into ``a``.
    """
    order = np.argsort(e, kind="stable")
    e = e[order]
    digits = _digit_rows(_significand(a[order], e))
    m = len(e)
    # one slice layout per exponent; NUL bytes are dropped when joined
    cells = np.zeros((m, width), np.uint8)
    edges = (np.flatnonzero(np.diff(e)) + 1).tolist()
    for s, t in zip([0] + edges, edges + [m]):
        ex = int(e[s])
        c, d = cells[s:t], digits[s:t]
        if ex >= 0:  # ddd.ddd, keeping the E+1 integer digits
            np.maximum(d[:, :ex + 1], 48, out=c[:, 1:ex + 2])
            if ex < 16:
                np.minimum(d[:, ex + 1], 46, out=c[:, ex + 2])  # '.' if a digit follows
                c[:, ex + 3:19] = d[:, ex + 1:]
        elif ex >= -4:  # 0.000ddd
            w = 1 - ex
            c[:, 1:1 + w] = np.frombuffer(b"0." + b"0" * (w - 2), np.uint8)
            c[:, 1 + w:18 + w] = d
        else:  # d.ddde-05, d.ddde-06
            c[:, 1] = d[:, 0]
            np.minimum(d[:, 1], 46, out=c[:, 2])
            c[:, 3:19] = d[:, 1:]
            c[:, 19:23] = np.frombuffer(b"e%+03d" % ex, np.uint8)
    np.multiply(neg[order], 45, out=cells[:, 0])
    cells[:, -1] = sep[order]
    return cells, order


def _format_block(x, sep) -> bytes:
    """``'%.17g' % v`` for each value of ``x``, each followed by its byte
    of ``sep``."""
    a = np.abs(x)
    neg = np.signbit(x).view(np.uint8)
    # the double 1e-6 lies below 10**-6, so every value above it has E >= -6
    exact = (a > 1e-6) & (a < 1e17)
    # nan, inf, subnormals and the rest of E outside [-6, 16]: one at a time
    rest = np.flatnonzero(~exact & (a != 0))
    text = [("%.17g" % v).encode() for v in x[rest].tolist()]
    width = max([_CELL] + [len(t) + 1 for t in text])
    frame = np.zeros((len(x), width), np.uint8)
    np.multiply(neg, 45, out=frame[:, 0])  # zeros: "0" or "-0"
    frame[:, 1] = 48
    frame[:, 2] = sep
    idx = np.flatnonzero(exact)
    if len(idx):
        a = a[idx]
        # E is floor(e2 * log10(2)) or one more, e2 the binary exponent.
        # Comparing with the double nearest 10**(E+1) settles it: for
        # 10**-5..10**-1 that double lies above the power, no double lies
        # in between, and the others are exact
        e = (((a.view(np.int64) >> 52) - 1023) * 78913 >> 18).astype(np.int8)
        e += a >= _POW10_NEAR[e + 7]
        cells, order = _exact_cells(a, e, neg[idx], sep[idx], width)
        # whole rows as single items: numpy scatters those several times faster
        rows = f"V{width}"
        frame.view(rows).ravel()[idx[order]] = cells.view(rows).ravel()
    if len(rest):
        frame[rest, :-1] = np.array(text, dtype=f"S{width - 1}").view(np.uint8).reshape(len(rest), -1)
        frame[rest, -1] = sep[rest]
    return frame.tobytes().translate(None, b"\0")


def _csv_blocks(mat: np.ndarray):
    """Yield the CSV bytes of a 2-D float matrix, ``_BLOCK`` values at a time.

    The bytes equal ``row_fmt % tuple(row)`` for every row, with ``row_fmt``
    one ``%.17g`` per column joined by commas plus a newline, and are
    byte-identical to CPython's conversion for every float64.
    """
    flat = np.ascontiguousarray(mat, dtype=np.float64).ravel()
    width = mat.shape[1]
    for start in range(0, flat.size, _BLOCK):
        x = flat[start:start + _BLOCK]
        sep = np.full(len(x), ord(","), np.uint8)
        sep[(width - 1 - start) % width::width] = ord("\n")
        yield _format_block(x, sep)


def _write_matrix_csv(mat: np.ndarray, path) -> None:
    with _open_output(path, "wb") as fh:
        fh.writelines(_csv_blocks(mat))


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


def check_unique_ids(ids, kind: str) -> None:
    """Raise ValidationError naming the first id that repeats an earlier one."""
    seen = set()
    for i in ids:
        if i in seen:
            raise ValidationError(f"duplicate {kind} id {i!r}")
        seen.add(i)


@dataclass(frozen=True)
class SegmentArchive:
    """An ordered collection of segments with unique ids."""

    segments: tuple[SpectroSegment, ...]

    def __post_init__(self):
        object.__setattr__(self, "segments", tuple(self.segments))
        check_unique_ids(self.ids, "segment")

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
    if path.is_dir():
        return _read_archive_csv(path)
    return _read_archive_binary(path)


def write_archive(archive: SegmentArchive, path) -> None:
    """Write an archive: a binary file for a ``.ssca`` path, a CSV directory
    for any other."""
    path = Path(path)
    if path.suffix == ".ssca":
        _write_archive_binary(archive, path)
    else:
        _write_archive_csv(archive, path)


def _write_archive_binary(archive: SegmentArchive, path: Path) -> None:
    with _open_output(path, "wb") as fh:
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
    with _open_input(path, "rb") as fh:
        data = fh.read()
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
    return SegmentArchive(tuple(segments))


def _write_archive_csv(archive: SegmentArchive, path: Path) -> None:
    rows = []
    for i, seg in enumerate(archive.segments):
        name = f"seg_{i:05d}.csv"
        rows.append((seg.id, name))
        _write_matrix_csv(seg.energy, path / name)
    with _open_output(path / MANIFEST_NAME) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["id", "file"])
        writer.writerows(rows)


def _read_archive_csv(path: Path) -> SegmentArchive:
    rows = _csv_rows(path / MANIFEST_NAME, ["id", "file"])
    return SegmentArchive(tuple(SpectroSegment(seg_id, _read_matrix_csv(path / name))
                                for _, (seg_id, name) in rows))


def _read_matrix_csv(path: Path) -> np.ndarray:
    """Read one comma-separated matrix; blank lines are skipped.

    The numbers are parsed by numpy's C text reader, which reads the same
    doubles as ``float`` but refuses underscores such as ``1_0``. A number
    that is not finite is refused with the line that holds it.
    """
    with _open_input(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            if line.strip():
                break
        else:
            raise FormatError(f"{path}: empty matrix")
        width = line.count(",") + 1
        row_lines = []  # the file line of each row

        def lines():
            # loadtxt pulls one line at a time as it parses, so ``lineno``
            # and ``line`` belong to the row it was reading when it fails
            nonlocal lineno, line
            row_lines.append(lineno)
            yield line
            for lineno, line in enumerate(fh, start=lineno + 1):
                if line.strip():
                    row_lines.append(lineno)
                    yield line

        try:
            matrix = np.loadtxt(lines(), delimiter=",", comments=None, ndmin=2)
        except UnicodeDecodeError:  # a ValueError too; _open_input names it
            raise
        except ValueError as exc:
            what = "ragged row" if line.count(",") + 1 != width else "bad number"
            raise FormatError(f"{path}: {what} at line {lineno}") from exc
    finite = np.isfinite(matrix).all(axis=1)
    if not finite.all():
        raise FormatError(f"{path}: a number that is not finite at line "
                          f"{row_lines[int(np.argmin(finite))]}")
    return matrix


# ---------------------------------------------------------------------------
# labels
# ---------------------------------------------------------------------------

LABELS_HEADER = ["id", "label", "is_outlier"]


def write_label_rows(ids, labels, is_outlier, path) -> None:
    """Write ``id,label,is_outlier`` rows (is_outlier encoded as 0/1)."""
    with _open_output(path) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(LABELS_HEADER)
        for sid, lab, out in zip(ids, labels, is_outlier):
            writer.writerow([sid, int(lab), int(bool(out))])


def write_labels(model, path) -> None:
    """Write a ClusterModel's per-sample labels in sample order."""
    write_label_rows(model.ids, model.labels, model.partition.is_outlier, path)


def read_labels(path):
    """Read a labels CSV; returns (ids, labels, is_outlier)."""
    ids, labels, flags = [], [], []
    for lineno, (sid, label, flag) in _csv_rows(path, LABELS_HEADER):
        ids.append(sid)
        try:
            labels.append(int(label))
            flag = int(flag)
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
    order = np.argsort(-sizes, kind="stable")
    d = model.centroids.shape[1]
    shape = model.feature_shape
    if shape is not None and d != shape[0] * shape[1]:
        raise ValidationError(f"centroid length {d} != {shape[0]}*{shape[1]}")
    out_dir = Path(out_dir)
    names = [f"centroid_{rank:02d}" for rank in range(model.k)]
    if shape is None:
        write_vectors(names, model.centroids[order], out_dir / "centroids.csv")
        return
    f, t = shape
    per_block = max(1, _BLOCK // d)
    for first in range(0, model.k, per_block):
        # stack the F x T grids of a few centroids, format them in one pass
        # and cut the bytes at every F-th newline
        grids = model.centroids[order[first:first + per_block]].reshape(-1, t, f)
        text = b"".join(_csv_blocks(grids.transpose(0, 2, 1).reshape(-1, t)))
        ends = np.flatnonzero(np.frombuffer(text, np.uint8) == ord("\n"))[f - 1::f] + 1
        view = memoryview(text)
        for name, lo, hi in zip(names[first:], [0, *ends[:-1].tolist()], ends.tolist()):
            with _open_output(out_dir / f"{name}.csv", "wb") as fh:
                fh.write(view[lo:hi])


def _centroid_rank(path: Path) -> int:
    rank = path.stem[len("centroid_"):]
    if not (rank.isascii() and rank.isdigit()):
        raise FormatError(f"{path}: expected centroid_<rank>.csv")
    return int(rank)


def read_centroid_dir(path) -> np.ndarray:
    """Read a directory written by ``write_centroids`` back as a K x d
    matrix, rank 0 first.

    That is the ``centroids.csv`` vector table when the directory holds
    one, and otherwise the ``centroid_*.csv`` matrices in the order of
    their integer ranks, each flattened column-major to match the feature
    layout.
    """
    path = Path(path)
    table = path / "centroids.csv"
    if table.is_file():
        return read_vectors(table)[1]
    files = sorted(path.glob("centroid_*.csv"), key=lambda p: (_centroid_rank(p), p.name))
    if not files:
        raise FormatError(f"{path}: no centroid_*.csv files")
    for a, b in zip(files, files[1:]):
        if _centroid_rank(a) == _centroid_rank(b):
            raise FormatError(f"{path}: {a.name} and {b.name} both hold rank {_centroid_rank(a)}")
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
    if coords.ndim != 2 or coords.shape[0] != len(ids) or coords.shape[1] == 0:
        # read_vectors refuses a table without a dim column
        raise ValidationError("coords must be 2-D with one row per id and a dim column")
    with _open_output(path) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["id"] + [f"dim{j}" for j in range(coords.shape[1])])
        per_block = max(1, _BLOCK // coords.shape[1])
        for first in range(0, len(ids), per_block):
            block = coords[first:first + per_block]
            rows = b"".join(_csv_blocks(block)).decode("ascii").split("\n")
            for sid, cells in zip(ids[first:first + per_block], rows):
                if isinstance(sid, str) and sid and _CSV_QUOTED.isdisjoint(sid):
                    fh.write(sid + "," + cells + "\n")
                else:  # csv quotes the id where it must; the floats never need it
                    writer.writerow([sid, *cells.split(",")])


def read_vectors(path):
    """Read an ``id,dim0..`` table; returns (ids, N x K array).

    Ids may be csv-quoted, as ``write_vectors`` writes them. The numbers
    are parsed by numpy's C text reader, which reads the same doubles as
    ``float`` but refuses underscores such as ``1_0``. A number that is not
    finite (``nan``, ``inf``, or one too large for a double) is refused
    with the line that holds it.
    """
    with _open_input(path) as fh:
        first = fh.readline()
        if not first:
            raise FormatError(f"{path}: empty file at line 1")
        try:
            header = next(csv.reader([first]))
        except csv.Error as exc:
            raise FormatError(f"{path}: {exc} at line 1") from None
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
        ends = []  # the line each row ends on, which holds its numbers

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
                if not quoted:
                    ends.append(lineno)
                yield line

        try:
            table = np.loadtxt(lines(), dtype=[("id", object), ("v", np.float64, (dim,))],
                               delimiter=",", comments=None, quotechar='"', ndmin=1)
        except UnicodeDecodeError:  # a ValueError too; _open_input names it
            raise
        except ValueError as exc:
            detail = str(exc).split(" at row ")[0]
            raise FormatError(f"{expected} {lineno}: {detail}") from exc
    values = np.ascontiguousarray(table["v"])
    finite = np.isfinite(values).all(axis=1)
    if not finite.all():
        raise FormatError(f"{path}: a number that is not finite at line "
                          f"{ends[int(np.argmin(finite))]}")
    return table["id"].tolist(), values


def coefficient_triplets(y: np.ndarray) -> bytes:
    """The nonzeros of a coefficient matrix as ``row,col,value`` CSV bytes."""
    rows, cols = np.nonzero(y)
    # indices are exact in float64, and %.17g prints an integer below 1e17
    # as %d does
    table = np.column_stack([rows, cols, y[rows, cols]]).astype(np.float64)
    return b"".join([b"row,col,value\n", *_csv_blocks(table)])
