#!/usr/bin/env python3
"""Run the usvclust CLI from two source trees and diff their output trees.

    python3 scripts/compare_outputs.py --base ../parent --change . \\
        --workload kmeans_vectors --seeds 100..104
    python3 scripts/compare_outputs.py --base ../parent --change . \\
        --workload omp_sweep --seeds 1..2 --segments 400
    python3 scripts/compare_outputs.py --base ../parent --change . \\
        --workload omp_sweep --method cs_sc --seeds 100..105
    python3 scripts/compare_outputs.py --base ../parent --change . \\
        --workload lasso_k5 --seeds 100..101 --tau 0.2 --lambda 0.35
    python3 scripts/compare_outputs.py --base ../parent --change . \\
        --workload omp_sweep --seeds 100..101 --kmeans_seed 18446744073709551621
    python3 scripts/compare_outputs.py --base ../parent --change . \\
        --workload writers --seeds 1..3

For each archive seed in the inclusive range, the perfbench archive of the
workload is built once (``make_inputs`` of perfbench/run.py, imported
read-only from this checkout) and ``python -m usvclust pipeline`` runs on
it with the benchmark's flags, once with ``DIR/src`` of each tree on
PYTHONPATH. ``--segments N`` builds archives of N segments instead of the
workload's own size. ``--method M`` runs clustering method M instead of the
workload's own, for a method such as cs_sc that no workload runs.
``--tau`` and ``--lambda`` replace the benchmark's split threshold and the
workload's L1 weight, for runs such as one that demotes zero-degree
inliers. ``--kmeans_seed S`` seeds k-means with S in every pipeline
command instead of 0. The
``writers`` mode instead runs the commands that write the other CSV tables:
``synth segments`` to a CSV archive directory, ``preprocess`` of one common
archive to a vector table, ``synth subspaces`` to a vector table, and a
kmeans ``pipeline`` run at K=5 on the common archive whose labels
``evaluate --output`` reads back into a report. The
two output directories must hold the same file names with the same bytes.
Exit status: 0 when every tree is identical, 1 on any difference, 2 when a
CLI run fails.
"""

from __future__ import annotations

import argparse
import dataclasses
import importlib.util
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_perfbench():
    spec = importlib.util.spec_from_file_location("perfbench_run", ROOT / "perfbench" / "run.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def seed_range(text: str) -> range:
    lo, sep, hi = text.partition("..")
    try:
        return range(int(lo), int(hi if sep else lo) + 1)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected A..B, got {text!r}") from None


def run_cli(tree: Path, args: list, log: Path) -> int:
    # no bytecode is written into either tree
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    with open(log, "ab") as fh:
        return subprocess.run([sys.executable, "-m", "usvclust", *args],
                              cwd=tree, env=env, stdout=fh, stderr=subprocess.STDOUT).returncode


def pipeline_commands(bench, wl, seed: int, work: Path, tau: float, kmeans_seed: int):
    """The pipeline run on the workload's archive, writing into ``out``."""
    inputs = bench.make_inputs(wl, seed, work / "input")
    return lambda out: [[
        "pipeline", "--input", str(inputs.path), "--output_dir", str(out),
        "--tau", str(tau), "--f", str(bench.GRID), "--t", str(bench.GRID),
        "--seed", str(kmeans_seed), *wl.cli_flags()]]


def writer_commands(bench, seed: int, work: Path, kmeans_seed: int):
    """The CSV archive, preprocess and subspace writers, then a kmeans run
    and ``evaluate --output`` of its labels, writing into ``out``.

    ``preprocess``, the run and ``evaluate`` read one archive written by
    this checkout, so both trees format the same features.
    """
    from usvclust import ingest
    from usvclust.synth import generate_segments

    archive, _ = generate_segments(40, bench.CLASSES, seed, outlier_frac=bench.OUTLIER_FRAC)
    source = work / "input.ssca"
    ingest.write_archive(archive, source)
    return lambda out: [
        ["synth", "segments", "--n", "40", "--classes", str(bench.CLASSES), "--seed", str(seed),
         "--outlier_frac", str(bench.OUTLIER_FRAC), "--output", str(out / "segments")],
        ["preprocess", "--input", str(source), "--output", str(out / "features.csv"),
         "--f", str(bench.GRID), "--t", str(bench.GRID)],
        ["synth", "subspaces", "--n", "4", "--points", "60", "--noise", "0.05",
         "--outliers", "8", "--seed", str(seed), "--output", str(out / "subspaces.csv")],
        ["pipeline", "--input", str(source), "--output_dir", str(out / "run"),
         "--method", "kmeans", "--k", "5", "--tau", str(bench.TAU),
         "--f", str(bench.GRID), "--t", str(bench.GRID), "--seed", str(kmeans_seed)],
        ["evaluate", "--labels", str(out / "run" / "labels.csv"), "--input", str(source),
         "--f", str(bench.GRID), "--t", str(bench.GRID), "--output", str(out / "evaluate.txt")],
    ]


def tree_files(top: Path) -> dict:
    return {p.relative_to(top).as_posix(): p for p in sorted(top.rglob("*")) if p.is_file()}


def diff_trees(base: Path, change: Path) -> list:
    """Names of the files that are missing on one side or differ in bytes."""
    a, b = tree_files(base), tree_files(change)
    diffs = [f"only in base: {name}" for name in sorted(a.keys() - b.keys())]
    diffs += [f"only in change: {name}" for name in sorted(b.keys() - a.keys())]
    diffs += [f"bytes differ: {name}" for name in sorted(a.keys() & b.keys())
              if a[name].read_bytes() != b[name].read_bytes()]
    return diffs


def main(argv=None) -> int:
    bench = load_perfbench()
    from usvclust.config import METHODS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", type=Path, required=True, help="source tree of the parent")
    parser.add_argument("--change", type=Path, required=True, help="source tree of the change")
    parser.add_argument("--workload", required=True, choices=[*sorted(bench.WORKLOADS), "writers"],
                        help="a perfbench workload, or writers for the other CSV and report writers")
    parser.add_argument("--seeds", type=seed_range, required=True,
                        help="inclusive range of archive seeds, e.g. 100..104")
    parser.add_argument("--segments", type=int,
                        help="segments per archive, instead of the workload's own count")
    parser.add_argument("--method", choices=METHODS,
                        help="clustering method, instead of the workload's own")
    parser.add_argument("--tau", type=float,
                        help="split threshold, instead of the benchmark's own")
    parser.add_argument("--lambda", dest="lam", type=float,
                        help="L1 weight, instead of the workload's own")
    parser.add_argument("--kmeans_seed", type=int, default=0,
                        help="k-means seed of every pipeline command (default 0)")
    args = parser.parse_args(argv)
    if args.segments is not None and (args.workload == "writers" or args.segments < 2):
        parser.error("--segments takes a count of at least 2 and a pipeline workload")
    for flag, value in (("--method", args.method), ("--tau", args.tau), ("--lambda", args.lam)):
        if value is not None and args.workload == "writers":
            parser.error(f"{flag} takes a pipeline workload")
    trees = {"base": args.base.resolve(), "change": args.change.resolve()}
    status = 0
    with tempfile.TemporaryDirectory(prefix="compare_outputs-") as tmp:
        for seed in args.seeds:
            work = Path(tmp) / f"s{seed}"
            work.mkdir()
            if args.workload == "writers":
                commands = writer_commands(bench, seed, work, args.kmeans_seed)
            else:
                wl = bench.WORKLOADS[args.workload]
                if args.segments is not None:
                    wl = dataclasses.replace(wl, segments=args.segments)
                for key, value in (("method", args.method), ("lam", args.lam)):
                    if value is not None:
                        wl = dataclasses.replace(wl, config={**wl.config, key: value})
                tau = bench.TAU if args.tau is None else args.tau
                commands = pipeline_commands(bench, wl, seed, work, tau, args.kmeans_seed)
            for side, tree in trees.items():
                out = work / side
                out.mkdir()
                for cmd in commands(out):
                    code = run_cli(tree, cmd, work / f"{side}.log")
                    if code != 0:
                        print(f"seed {seed}: {side} {cmd[0]} exited {code}:\n"
                              f"{(work / f'{side}.log').read_text()[-2000:]}", file=sys.stderr)
                        return 2
            diffs = diff_trees(work / "base", work / "change")
            n_files = len(tree_files(work / "base"))
            print(f"seed {seed}: {n_files} files, "
                  + ("identical" if not diffs else f"{len(diffs)} differences"))
            for line in diffs:
                print(f"  {line}")
            if diffs:
                status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
