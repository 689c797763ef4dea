#!/usr/bin/env python3
"""Print the method-comparison table on a synthetic segment archive.

Generates a segment archive with known contour classes, runs the pipeline
once per method at a single K, and tabulates the inter-centroid distance
statistics. The sparse self-expressive methods should beat raw k-means on
both: larger harmonic-mean distance, smaller spread.
"""

import argparse
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from usvclust import PipelineConfig, generate_segments, run_pipeline
from usvclust.config import METHODS
from usvclust.ingest import write_archive


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, default=200, help="segment count")
    ap.add_argument("--classes", type=int, default=5)
    ap.add_argument("--outlier_frac", type=float, default=0.1)
    ap.add_argument("--k", type=int, default=5)
    ap.add_argument("--tau", type=float, default=0.8)
    ap.add_argument("--synth_seed", type=int, default=1)
    ap.add_argument("--seed", type=int, default=0, help="pipeline seed")
    ap.add_argument("--f", type=int, default=64)
    ap.add_argument("--t", type=int, default=64)
    ap.add_argument("--methods", default=",".join(METHODS[:3]),
                    help="comma list out of " + ",".join(METHODS))
    args = ap.parse_args()

    methods = args.methods.split(",")
    with tempfile.TemporaryDirectory() as tmp:
        archive_path = Path(tmp) / "segments.ssca"
        archive, _ = generate_segments(args.n, args.classes, args.synth_seed,
                                       outlier_frac=args.outlier_frac)
        write_archive(archive, archive_path)
        rows = []
        for method in methods:
            cfg = PipelineConfig(
                input=str(archive_path), output_dir=str(Path(tmp) / method),
                method=method, k=args.k, tau=args.tau, seed=args.seed,
                f=args.f, t=args.t,
            )
            rep = run_pipeline(cfg)[0].report
            rows.append((method, rep))

    print(f"n={args.n} classes={args.classes} outliers={args.outlier_frac:.0%} "
          f"k={args.k} tau={args.tau} synth_seed={args.synth_seed} "
          f"seed={args.seed}")
    head = f"{'method':<10} {'d_cos_hmean':>20} {'d_cos_std':>20} " \
           f"{'hmean_full':>20} {'std_full':>20}"
    print(head)
    print("-" * len(head))
    for method, rep in rows:
        print(f"{method:<10} {rep.d_cos_hmean:>20.17f} {rep.d_cos_std:>20.17f} "
              f"{rep.d_cos_hmean_full:>20.17f} {rep.d_cos_std_full:>20.17f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
