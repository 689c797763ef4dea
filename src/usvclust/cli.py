"""Command-line entry point.

Subcommands: pipeline, synth (subspaces | segments), evaluate, preprocess,
metrics. Exit codes: 0 success; a failure exits with the ``exit_code`` of
its error class (``errors``).

Each handler imports the numeric modules it runs, after the checks that
need no input, so parsing a command and refusing it never load numpy.
"""

from __future__ import annotations

import argparse
import gc
import sys
import warnings
from pathlib import Path

from .config import (SETTINGS, PipelineConfig, PreprocessConfig, SubspaceSpec,
                     check_output_path, check_segment_params, parse_setting,
                     read_config_file)
from .errors import UsvClustError, ValidationError


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="usvclust",
        description="Two-step sparse subspace clustering for vocalization "
                    "spectrogram segments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    pipe = sub.add_parser("pipeline", help="run the full clustering pipeline")
    pipe.add_argument("--config", help="flat key = value config file")
    for key, fld in SETTINGS.items():
        # flags stay text until _cmd_pipeline parses them like file values:
        # argparse's type= would not catch the ParameterError of parse_tau
        store = {"action": "store_const", "const": True} if isinstance(fld.default, bool) else {}
        pipe.add_argument(f"--{key}", dest=fld.name, help=fld.metadata["help"], **store)

    syn = sub.add_parser("synth", help="generate synthetic datasets")
    syn_sub = syn.add_subparsers(dest="synth_kind", required=True)

    ssp = syn_sub.add_parser("subspaces", help="union-of-subspaces vectors")
    ssp.add_argument("--n", type=int, default=3, help="number of subspaces")
    ssp.add_argument("--dim", type=int, default=3, help="dimension of each subspace")
    ssp.add_argument("--points", type=int, default=50, help="points per subspace")
    ssp.add_argument("--ambient", type=int, default=64, help="ambient dimension")
    ssp.add_argument("--noise", type=float, default=0.0, help="noise scale")
    ssp.add_argument("--outliers", type=int, default=0, help="sphere outliers")
    ssp.add_argument("--seed", type=int, default=0)
    ssp.add_argument("--output", default="subspaces.csv", help="vector CSV path")
    ssp.add_argument("--labels", help="truth labels path "
                     "(default: <output stem>_labels.csv)")

    sseg = syn_sub.add_parser("segments", help="procedural spectrogram segments")
    sseg.add_argument("--n", type=int, default=200, help="total segment count")
    sseg.add_argument("--classes", type=int, default=5, help="contour families")
    sseg.add_argument("--outlier_frac", type=float, default=0.0)
    sseg.add_argument("--seed", type=int, default=0)
    sseg.add_argument("--output", default="segments.ssca",
                      help="archive path (.ssca file or directory)")
    sseg.add_argument("--labels", help="truth labels path "
                      "(default: <output stem>_labels.csv)")

    ev = sub.add_parser("evaluate", help="recompute metrics from stored labels")
    ev.add_argument("--labels", required=True, help="labels CSV from a pipeline run")
    ev.add_argument("--input", required=True, help="the original pipeline input")
    ev.add_argument("--method", default="stored",
                    help="method name to repeat in the report")
    ev.add_argument("--output", help="also write the report to this path")

    pre = sub.add_parser("preprocess", help="write preprocessed feature vectors")
    pre.add_argument("--input", required=True, help="segment archive")
    pre.add_argument("--output", required=True, help="vector CSV path")
    for grid_parser in (ev, pre):
        for key in ("f", "t"):
            grid_parser.add_argument(f"--{key}", type=int, default=SETTINGS[key].default,
                                     help=SETTINGS[key].metadata["help"])

    met = sub.add_parser("metrics", help="centroid distance statistics")
    met.add_argument("--centroids", required=True,
                     help="centroid directory or vector CSV")

    return parser


def _cmd_pipeline(args) -> int:
    # defaults <- config file <- the flags that were set
    values = read_config_file(args.config) if args.config else {}
    flags = vars(args)
    values.update(parse_setting(key, flags[fld.name])
                  for key, fld in SETTINGS.items() if flags[fld.name] is not None)
    cfg = PipelineConfig(**values)
    from . import pipeline
    results = pipeline.run_pipeline(cfg)
    pipeline.write_outputs(cfg, results)
    for res in results:
        print(f"k={res.k}: " + ", ".join(res.report.to_lines()[2:6]))
    return 0


def _default_labels_path(output: str) -> str:
    p = Path(output)
    return str(p.with_name(p.stem + "_labels.csv"))


def _cmd_synth(args) -> int:
    if args.synth_kind == "subspaces":
        spec = SubspaceSpec(
            ambient_dim=args.ambient, dims=(args.dim,) * args.n, points_per=args.points,
            noise_sigma=args.noise, outlier_count=args.outliers, seed=args.seed,
        )
    else:
        check_segment_params(args.n, args.classes, args.seed, args.outlier_frac)
    labels_path = args.labels or _default_labels_path(args.output)
    # a segment archive path without the .ssca suffix is a CSV directory
    check_output_path(args.output, "--output", directory=(
        args.synth_kind == "segments" and Path(args.output).suffix != ".ssca"),
        others={"--labels": labels_path})
    check_output_path(labels_path, "--labels", others={"--output": args.output})
    from . import ingest, synth
    if args.synth_kind == "subspaces":
        features, labels = synth.generate_subspaces(spec)
        ingest.write_vectors(features.ids, features.data.T, args.output)
        ingest.write_label_rows(features.ids, labels, labels < 0, labels_path)
        print(f"wrote {features.n} vectors to {args.output}")
    else:
        archive, labels = synth.generate_segments(
            args.n, args.classes, args.seed, outlier_frac=args.outlier_frac)
        ingest.write_archive(archive, args.output)
        ingest.write_label_rows(archive.ids, labels, labels < 0, labels_path)
        print(f"wrote {len(archive)} segments to {args.output}")
    print(f"wrote truth labels to {labels_path}")
    return 0


def _cmd_evaluate(args) -> int:
    PreprocessConfig(f=args.f, t=args.t)  # refuse a bad grid before the input is read
    if args.output:
        check_output_path(args.output, "--output",
                          others={"--labels": args.labels, "--input": args.input})
    from . import metrics, pipeline
    rep = pipeline.evaluate(args.labels, args.input, f=args.f, t=args.t, method=args.method)
    for line in rep.to_lines():
        print(line)
    if args.output:
        metrics.write_report(rep, args.output)
    return 0


def _cmd_preprocess(args) -> int:
    PreprocessConfig(f=args.f, t=args.t)
    check_output_path(args.output, "--output", others={"--input": args.input})
    from . import ingest, pipeline
    features, _ = pipeline.load_features(args.input, args.f, args.t)
    ingest.write_vectors(features.ids, features.data.T, args.output)
    print(f"wrote {features.n} feature vectors to {args.output}")
    return 0


def _cmd_metrics(args) -> int:
    from . import ingest, metrics
    from .spectral import checked_norms
    path = Path(args.centroids)
    cents = ingest.read_centroid_dir(path) if path.is_dir() else ingest.read_vectors(path)[1]
    if len(cents) < 2:
        raise ValidationError(f"{path}: metrics need at least 2 centroids, got {len(cents)}")
    checked_norms(cents, 1, f"{path}: centroid {{}}".format)
    hmean, std = metrics.distance_stats(cents)
    print("d_cos_hmean=%.17g" % hmean)
    print("d_cos_std=%.17g" % std)
    return 0


_DISPATCH = {
    "pipeline": _cmd_pipeline,
    "synth": _cmd_synth,
    "evaluate": _cmd_evaluate,
    "preprocess": _cmd_preprocess,
    "metrics": _cmd_metrics,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    # a warning shows as one line; a filter that makes it an error still raises it
    formatwarning = warnings.formatwarning
    warnings.formatwarning = lambda message, *_: f"usvclust: warning: {message}\n"
    try:
        return _DISPATCH[args.command](args)
    except UsvClustError as exc:
        print(f"usvclust: {exc}", file=sys.stderr)
        return exc.exit_code
    finally:
        warnings.formatwarning = formatwarning


def entry() -> int:
    """``main`` as a process: the entry point of ``python -m usvclust`` and
    of the console script.

    The process ends once it returns, so it runs with the collector off:
    a run leaves no reference cycle that holds an array, only argparse's
    parser. ``gc.freeze()`` then moves every object left to the permanent
    generation, which the collection at exit does not visit. In-process
    callers call ``main`` and keep collecting.
    """
    gc.disable()
    code = main()
    gc.freeze()
    return code


if __name__ == "__main__":
    sys.exit(entry())
