"""Pipeline and stage configuration, the synthetic generators' parameters,
the flat ``key = value`` config file format, and the two file openers every
module reads and writes through.

Command-line flags override file values, which override the defaults
below. The file format is deliberately plain text: one assignment per
line, ``#`` starts a comment line, keys named exactly like the flags.
Both come from one table, the fields of ``PipelineConfig``.

Nothing here imports numpy, so the CLI parses and checks a command before
the numeric modules load.
"""

from __future__ import annotations

import contextlib
import math
import re
from dataclasses import dataclass, field, fields
from pathlib import Path

from .errors import FormatError, ParameterError

METHODS = ("kmeans", "cs_sc", "lasso_ssc", "omp_ssc")

TAU_PRESETS = {"dba": 0.8, "c57": 0.7}

# every top-level entry a pipeline run can create in output_dir
OUTPUT_NAMES = re.compile(
    r"labels\.csv|metrics\.txt|metrics\.csv|centroids|embedding\.csv"
    r"|coefficients\.csv|k_\d+")


def parse_tau(value) -> float:
    """A tau flag value: a float in (-1, 1] or a strain preset name."""
    if isinstance(value, str):
        key = value.strip().lower()
        if key in TAU_PRESETS:
            return TAU_PRESETS[key]
        try:
            value = float(key)
        except ValueError:
            raise ParameterError(
                f"tau must be a number or one of {sorted(TAU_PRESETS)}, got {value!r}"
            ) from None
    value = float(value)
    if not -1.0 < value <= 1.0:
        raise ParameterError(f"tau must lie in (-1, 1], got {value}")
    return value


def parse_k(value) -> tuple[int, ...]:
    """A k flag value: an int or a comma-separated list of distinct ints."""
    if isinstance(value, int):
        ks = (value,)
    elif isinstance(value, (tuple, list)):
        ks = tuple(int(v) for v in value)
    else:
        try:
            ks = tuple(int(part) for part in str(value).split(","))
        except ValueError:
            raise ParameterError(f"k must be an int or comma list, got {value!r}") from None
    if not ks:
        raise ParameterError("k list is empty")
    if len(set(ks)) != len(ks):
        raise ParameterError(f"k list repeats a value: {value!r}")
    return ks


def _parse_bool(value) -> bool:
    if isinstance(value, bool):
        return value
    key = str(value).strip().lower()
    if key in ("true", "1", "yes"):
        return True
    if key in ("false", "0", "no"):
        return False
    raise ParameterError(f"expected a boolean, got {value!r}")


# parsers by the type of a field's default; any other type is its own parser
_PARSERS = {bool: _parse_bool, tuple: parse_k}


@dataclass
class PreprocessConfig:
    """Target f x t grid for resizing."""

    f: int = 64
    t: int = 64

    def __post_init__(self):
        if self.f < 2 or self.t < 2:
            raise ParameterError(f"target grid must be at least 2x2, got {self.f}x{self.t}")


@dataclass
class SparseCodingConfig:
    """Knobs for building the coefficient matrix.

    method : 'lasso' or 'omp'
    lam : L1 weight for the LASSO route
    sparsity_k : atom budget for the OMP route
    max_iter : homotopy step cap for the LASSO route
    tol : OMP residual norm below which no further atom is picked
    denoise_eps : entries with magnitude strictly below this are zeroed
    """

    method: str = "lasso"
    lam: float = 0.3
    sparsity_k: int = 10
    max_iter: int = 1000
    tol: float = 1e-7
    denoise_eps: float = 0.001

    def __post_init__(self):
        if self.method not in ("lasso", "omp"):
            raise ParameterError(f"unknown sparse coding method {self.method!r}")
        # written so that NaN fails each range check
        if not 0 < self.lam < math.inf:
            raise ParameterError(f"lambda must be positive and finite, got {self.lam}")
        if self.sparsity_k < 1:
            raise ParameterError(f"sparsity budget must be >= 1, got {self.sparsity_k}")
        if self.max_iter < 1:
            raise ParameterError(f"max_iter must be >= 1, got {self.max_iter}")
        if not 0 < self.tol < math.inf:
            raise ParameterError(f"tol must be positive and finite, got {self.tol}")
        if not 0 <= self.denoise_eps < math.inf:
            raise ParameterError(f"denoise_eps must be >= 0 and finite, got {self.denoise_eps}")


@dataclass(frozen=True)
class SubspaceSpec:
    """Layout of a union-of-subspaces dataset."""

    ambient_dim: int
    dims: tuple[int, ...]
    points_per: int
    noise_sigma: float = 0.0
    outlier_count: int = 0
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "dims", tuple(int(d) for d in self.dims))
        if not self.dims:
            raise ParameterError("need at least one subspace")
        for d in self.dims:
            if not 1 <= d < self.ambient_dim:
                raise ParameterError(
                    f"subspace dim {d} must lie in [1, {self.ambient_dim})"
                )
        if self.points_per < max(self.dims) + 1:
            raise ParameterError(
                f"points_per={self.points_per} too small; need at least "
                f"max(dims)+1 = {max(self.dims) + 1} samples per subspace"
            )
        # written so that NaN fails the range check
        if not 0 <= self.noise_sigma < math.inf:
            raise ParameterError(f"noise_sigma must be >= 0 and finite, got {self.noise_sigma}")
        if self.outlier_count < 0:
            raise ParameterError("outlier_count must be >= 0")
        if self.seed < 0:
            raise ParameterError(f"seed must be >= 0, got {self.seed}")


# the contour families of synthetic segments, in class-label order
FAMILIES = ("flat", "up", "down", "u", "arch")


def check_segment_params(n: int, shape_classes: int, seed: int, outlier_frac: float) -> None:
    """Refuse parameters ``synth.generate_segments`` cannot render."""
    if n < 1:
        raise ParameterError("need n >= 1 segments")
    if not 1 <= shape_classes <= len(FAMILIES):
        raise ParameterError(
            f"shape_classes must lie in [1, {len(FAMILIES)}], got {shape_classes}"
        )
    if not 0.0 <= outlier_frac < 1.0:
        raise ParameterError(f"outlier_frac must lie in [0, 1), got {outlier_frac}")
    if seed < 0:
        raise ParameterError(f"seed must be >= 0, got {seed}")


@contextlib.contextmanager
def _open_input(path, mode="r"):
    """Open a file to read, as text or, with mode "rb", as bytes. Text
    skips a leading UTF-8 byte-order mark, as spreadsheet programs and
    Notepad write one. A file that cannot be opened or is not UTF-8 text
    is a FormatError naming it."""
    text = {} if "b" in mode else {"encoding": "utf-8-sig", "newline": ""}
    try:
        fh = open(path, mode, **text)
    except OSError as exc:
        raise FormatError(f"cannot read {path}: {exc.strerror}") from None
    with fh:
        try:
            yield fh
        except UnicodeDecodeError:
            raise FormatError(f"cannot read {path}: not UTF-8 text") from None


def _open_output(path, mode="w"):
    """Open a file to write, as text or, with mode "wb", as bytes, making
    its missing parent directories. A path that cannot be written is a
    ParameterError naming it."""
    text = {} if "b" in mode else {"encoding": "utf-8", "newline": ""}
    try:
        try:
            return open(path, mode, **text)
        except FileNotFoundError:  # only then, so an existing parent costs nothing
            Path(path).parent.mkdir(parents=True, exist_ok=True)
            return open(path, mode, **text)
    except OSError as exc:
        raise ParameterError(f"cannot write {path}: {exc.strerror}") from None


def check_output_path(path, what: str, directory: bool = False,
                      others: dict | None = None) -> None:
    """Refuse an output path that cannot be written, before any work starts.

    ``others`` maps flag names to the command's input paths and its other
    outputs; the output must not be one of them, nor lie inside one, such
    as a segment-archive directory. Missing directories are made at write
    time, so the nearest path that exists among the path and its parents
    must be a directory. A file output must not name an existing directory
    either.
    """
    out = Path(path).resolve()
    for name, other in (others or {}).items():
        if (p := Path(other).resolve()) == out or p in out.parents:
            where = "names" if p == out else "lies inside"
            raise ParameterError(f"{what} {str(path)!r} {where} the {name} path {str(other)!r}")
    if not directory:
        if out.is_dir():
            raise ParameterError(f"{what} {str(path)!r} is a directory")
        out = out.parent
    existing = next(p for p in (out, *out.parents) if p.exists())
    if not existing.is_dir():
        raise ParameterError(
            f"{what} {str(path)!r} cannot be made: {existing} is not a directory")


def _setting(default, help: str, key: str | None = None, parse=None):
    """A PipelineConfig field with its help text, its parser for config-file
    and flag text, and its external key when that is not the field name."""
    if parse is None:
        parse = _PARSERS.get(type(default), type(default))
    return field(default=default, metadata={"help": help, "parse": parse, "key": key})


@dataclass
class PipelineConfig:
    """Everything a pipeline run depends on.

    Each field is one setting: the config-file key and the ``pipeline``
    flag are both made from it (see ``SETTINGS``). ``lam`` is spelled
    ``lambda`` in config files and on the command line; the Python keyword
    forces the shorter attribute name.
    """

    input: str = _setting("", "segment archive (dir or .ssca) or vector CSV")
    output_dir: str = _setting("", "directory for labels, centroids, metrics")
    method: str = _setting("lasso_ssc", "clustering method: " + ", ".join(METHODS))
    k: tuple[int, ...] = _setting((20, 40, 60), "cluster count or comma list, e.g. 20,40,60")
    tau: float = _setting(0.8, "outlier threshold in (-1,1], or preset dba/c57",
                          parse=parse_tau)
    lam: float = _setting(SparseCodingConfig.lam, "L1 weight for lasso_ssc", key="lambda")
    f: int = _setting(PreprocessConfig.f, "target frequency bins")
    t: int = _setting(PreprocessConfig.t, "target time bins")
    seed: int = _setting(0, "k-means seed, >= 0")
    export_embedding: bool = _setting(False, "also write the clustering-space coordinates")
    sparsity_k: int = _setting(SparseCodingConfig.sparsity_k, "atom budget for omp_ssc")
    dump_coefficients: bool = _setting(False, "also write the sparse coefficients as triplets")

    def __post_init__(self):
        self.k = parse_k(self.k)
        self.tau = parse_tau(self.tau)
        if not self.input:
            raise ParameterError("input path is required")
        if not self.output_dir:
            raise ParameterError("output_dir is required")
        check_output_path(self.output_dir, "output_dir", directory=True,
                          others={"input": self.input})
        # a run replaces every entry of output_dir that it can write
        inp, out = Path(self.input).resolve(), Path(self.output_dir).resolve()
        if out in inp.parents and OUTPUT_NAMES.fullmatch(inp.relative_to(out).parts[0]):
            raise ParameterError(f"input {self.input!r} would be replaced by the "
                                 f"outputs written to output_dir {self.output_dir!r}")
        if self.method not in METHODS:
            raise ParameterError(
                f"method must be one of {METHODS}, got {self.method!r}"
            )
        for kk in self.k:
            if kk < 2:
                # the centroid metrics need two clusters
                raise ParameterError(f"k values must be >= 2, got {kk}")
        if self.seed < 0:
            raise ParameterError(f"seed must be >= 0, got {self.seed}")
        # the stage configs check the remaining ranges
        self.coding()
        PreprocessConfig(f=self.f, t=self.t)

    def coding(self) -> SparseCodingConfig:
        """The self-expression settings: LASSO for lasso_ssc, OMP otherwise;
        the solver tolerances keep their SparseCodingConfig defaults."""
        return SparseCodingConfig(method="lasso" if self.method == "lasso_ssc" else "omp",
                                  lam=self.lam, sparsity_k=self.sparsity_k)


# external key (config-file key and flag name) -> PipelineConfig field
SETTINGS = {fld.metadata["key"] or fld.name: fld for fld in fields(PipelineConfig)}


def parse_setting(key: str, value):
    """Parse a config-file or flag value of the setting ``key``.

    Returns (field name, parsed value). A value its parser rejects raises
    ParameterError naming the key and the value.
    """
    fld = SETTINGS[key]
    try:
        return fld.name, fld.metadata["parse"](value)
    except ValueError as exc:
        raise ParameterError(f"bad value for {key}: {exc}") from None


def read_config_file(path) -> dict:
    """Parse a flat config file into {field_name: parsed value}."""
    path = Path(path)
    if not path.is_file():
        raise ParameterError(f"config file not found: {path}")
    values = {}
    try:
        with _open_input(path) as fh:
            lines = fh.read().splitlines()
    except FormatError as exc:  # a fault in a config file is a usage error
        raise ParameterError(str(exc)) from None
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ParameterError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, val = line.partition("=")
        key = key.strip()
        if key not in SETTINGS:
            raise ParameterError(f"{path}:{lineno}: unknown key {key!r}")
        try:
            name, value = parse_setting(key, val.strip())
        except ParameterError as exc:
            raise ParameterError(f"{path}:{lineno}: {exc}") from None
        values[name] = value
    return values

