#!/usr/bin/env python3
"""Run the pipeline once per value of one setting and tabulate the results.

Generates a segment archive with known contour classes and outliers, then
runs the two-step pipeline once per value given to --vary, with the other
settings from the options. A row gives the split's inlier and outlier counts
at the row's tau, its precision and recall against the generator's
outliers, the count of split inliers that the run then demoted to outliers
for having zero affinity degree, and the centroid distance statistics. A
refused value prints its message as the row; refused options stop the
script with exit status 1.

    python3 scripts/sweep.py --vary tau 0.5 0.6 0.7 0.8 0.9 0.95
    python3 scripts/sweep.py --vary method kmeans cs_sc lasso_ssc

The abstract counts "greater distances between clusters and more
variability between clusters" as the method's win; whether a larger
d_cos_std is better is open (ROADMAP item 5).
"""

import argparse
import dataclasses
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from usvclust.config import SETTINGS, PipelineConfig, parse_setting
from usvclust.errors import UsvClustError
from usvclust.ingest import write_archive
from usvclust.outlier_split import split
from usvclust.pipeline import load_features, run_pipeline
from usvclust.synth import generate_segments


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--vary", nargs="+", required=True, metavar=("KEY", "VALUE"),
                    help="a pipeline setting and the values to run it at")
    ap.add_argument("--n", type=int, default=200, help="segment count")
    ap.add_argument("--classes", type=int, default=5)
    ap.add_argument("--outlier_frac", type=float, default=0.1)
    ap.add_argument("--synth_seed", type=int, default=1)
    ap.add_argument("--k", type=int, default=5)
    ap.add_argument("--method", default="cs_sc")
    ap.add_argument("--tau", default="0.8")
    ap.add_argument("--seed", type=int, default=0, help="pipeline seed")
    ap.add_argument("--f", type=int, default=64)
    ap.add_argument("--t", type=int, default=64)
    args = ap.parse_args()
    key, *values = args.vary
    if key not in SETTINGS or not values:
        ap.error(f"--vary takes one of {', '.join(SETTINGS)} and at least one value")

    archive, truth = generate_segments(args.n, args.classes, args.synth_seed, args.outlier_frac)
    true_out = {i for i, label in enumerate(truth) if label < 0}
    with tempfile.TemporaryDirectory() as tmp:
        write_archive(archive, Path(tmp) / "segments.ssca")
        base = PipelineConfig(input=str(Path(tmp) / "segments.ssca"), output_dir=tmp,
                              method=args.method, k=args.k, tau=args.tau,
                              seed=args.seed, f=args.f, t=args.t)
        print(f"n={args.n} classes={args.classes} outliers={args.outlier_frac:.0%} "
              f"k={args.k} method={args.method} tau={args.tau} "
              f"synth_seed={args.synth_seed} seed={args.seed}")
        head = (f"{key:<10} {'inliers':>8} {'outliers':>9} {'precision':>10} {'recall':>7} "
                f"{'demoted':>8} {'d_cos_hmean':>20} {'d_cos_std':>20} "
                f"{'hmean_full':>20} {'std_full':>20}")
        print(head, "-" * len(head), sep="\n")
        for value in values:
            try:
                cfg = dataclasses.replace(base, **dict([parse_setting(key, value)]))
                result = run_pipeline(cfg)[0]
            except UsvClustError as exc:
                print(f"{value:<10} {exc}")
                continue
            # the run's outliers add the zero-degree inliers it demoted to
            # the split's
            found = set(split(load_features(cfg.input, cfg.f, cfg.t)[0],
                              cfg.tau).outlier_idx.tolist())
            demoted = len(result.model.partition.outlier_idx) - len(found)
            hit, rep = len(found & true_out), result.report
            print(f"{value:<10} {args.n - len(found):>8} {len(found):>9} "
                  f"{hit / len(found) if found else float('nan'):>10.3f} "
                  f"{hit / len(true_out) if true_out else float('nan'):>7.3f} "
                  f"{demoted:>8} {rep.d_cos_hmean:>20.17f} {rep.d_cos_std:>20.17f} "
                  f"{rep.d_cos_hmean_full:>20.17f} {rep.d_cos_std_full:>20.17f}")
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except UsvClustError as exc:
        sys.exit(f"sweep.py: {exc}")
