"""Two-step sparse subspace clustering for vocalization spectrograms.

The names below load on first use (PEP 562), so ``import usvclust`` and
the CLI's argument parsing run without numpy.
"""

import importlib
import sys
import types

__version__ = "0.1.0"

# defining module of each exported name
_EXPORTS = {
    **dict.fromkeys(("ClusterModel", "assign_outliers", "centroids"), "assign"),
    **dict.fromkeys(("PipelineConfig", "PreprocessConfig", "SparseCodingConfig",
                     "build_config", "read_config_file"), "config"),
    **dict.fromkeys(("FormatError", "NumericalError", "ParameterError",
                     "UsvClustError", "ValidationError"), "errors"),
    **dict.fromkeys(("SegmentArchive", "SpectroSegment", "read_archive",
                     "write_archive"), "ingest"),
    **dict.fromkeys(("KMeansResult", "kmeans"), "kmeans"),
    **dict.fromkeys(("MetricsReport", "report"), "metrics"),
    **dict.fromkeys(("Partition", "split"), "outlier_split"),
    **dict.fromkeys(("evaluate", "load_features", "run_pipeline",
                     "write_outputs"), "pipeline"),
    **dict.fromkeys(("FeatureMatrix", "clip_below_mean", "resize_bicubic",
                     "vectorize"), "preprocess"),
    **dict.fromkeys(("CoefficientMatrix", "lasso_column", "omp_column",
                     "self_express"), "sparse_coding"),
    **dict.fromkeys(("SpectralEmbedding", "affinity_from_coefficients",
                     "affinity_from_cosine", "cosine_gram", "embed"), "spectral"),
    **dict.fromkeys(("SubspaceSpec", "generate_segments", "generate_subspaces"), "synth"),
}

__all__ = sorted(_EXPORTS)


def __getattr__(name):
    if name not in _EXPORTS:
        # a submodule such as ``cli`` is not an export: the import system loads it
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})


class _Package(types.ModuleType):
    def __setattr__(self, name, value):
        # Importing a submodule binds it on the package. ``kmeans`` names both
        # a submodule and the exported function; the function keeps the name.
        if name in _EXPORTS and isinstance(value, types.ModuleType):
            return
        super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package
