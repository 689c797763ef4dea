"""Two-step sparse subspace clustering for vocalization spectrograms."""

from .assign import ClusterModel, assign_outliers, centroids
from .config import PipelineConfig, build_config, read_config_file
from .errors import (FormatError, NumericalError, ParameterError,
                     UsvClustError, ValidationError)
from .ingest import SegmentArchive, SpectroSegment, read_archive, write_archive
from .kmeans import KMeansResult, kmeans
from .metrics import MetricsReport, report
from .outlier_split import Partition, split
from .pipeline import evaluate, load_features, run_pipeline, write_outputs
from .preprocess import (FeatureMatrix, PreprocessConfig, clip_below_mean,
                         resize_bicubic, vectorize)
from .sparse_coding import (CoefficientMatrix, SparseCodingConfig, lasso_column,
                            omp_column, self_express)
from .spectral import (SpectralEmbedding, affinity_from_coefficients,
                       affinity_from_cosine, cosine_gram, embed)
from .synth import SubspaceSpec, generate_segments, generate_subspaces

__version__ = "0.1.0"

__all__ = [
    "ClusterModel", "CoefficientMatrix", "FeatureMatrix", "FormatError",
    "KMeansResult", "MetricsReport", "NumericalError", "ParameterError",
    "Partition", "PipelineConfig", "PreprocessConfig", "SegmentArchive",
    "SparseCodingConfig", "SpectralEmbedding", "SpectroSegment",
    "SubspaceSpec", "UsvClustError", "ValidationError",
    "affinity_from_coefficients", "affinity_from_cosine", "assign_outliers",
    "build_config", "centroids", "clip_below_mean", "cosine_gram",
    "embed", "evaluate", "generate_segments", "generate_subspaces", "kmeans",
    "lasso_column", "load_features", "omp_column", "read_archive",
    "read_config_file", "report", "resize_bicubic", "run_pipeline",
    "self_express", "split", "vectorize", "write_archive", "write_outputs",
]
