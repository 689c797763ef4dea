#!/usr/bin/env python3
"""Run the pipeline CLI from two source trees and diff their output trees.

    python3 scripts/compare_outputs.py --base ../parent --change . \\
        --workload kmeans_vectors --seeds 100..104

For each archive seed in the inclusive range, the perfbench archive of the
workload is built once (``make_inputs`` of perfbench/run.py, imported
read-only from this checkout) and ``python -m usvclust pipeline`` runs on
it with the benchmark's flags, once with ``DIR/src`` of each tree on
PYTHONPATH. The two output directories must hold the same file names with
the same bytes. Exit status: 0 when every tree is identical, 1 on any
difference, 2 when a pipeline run fails.
"""

from __future__ import annotations

import argparse
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


def run_pipeline(tree: Path, args: list, log: Path) -> int:
    # no bytecode is written into either tree
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    with open(log, "wb") as fh:
        return subprocess.run([sys.executable, "-m", "usvclust", "pipeline", *args],
                              cwd=tree, env=env, stdout=fh, stderr=subprocess.STDOUT).returncode


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
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", type=Path, required=True, help="source tree of the parent")
    parser.add_argument("--change", type=Path, required=True, help="source tree of the change")
    parser.add_argument("--workload", required=True, choices=sorted(bench.WORKLOADS))
    parser.add_argument("--seeds", type=seed_range, required=True,
                        help="inclusive range of archive seeds, e.g. 100..104")
    args = parser.parse_args(argv)
    wl = bench.WORKLOADS[args.workload]
    trees = {"base": args.base.resolve(), "change": args.change.resolve()}
    status = 0
    with tempfile.TemporaryDirectory(prefix="compare_outputs-") as tmp:
        for seed in args.seeds:
            work = Path(tmp) / f"s{seed}"
            inputs = bench.make_inputs(wl, seed, work)
            for side, tree in trees.items():
                out = work / side
                code = run_pipeline(tree, [
                    "--input", str(inputs.path), "--output_dir", str(out),
                    "--tau", str(bench.TAU), "--f", str(bench.GRID), "--t", str(bench.GRID),
                    "--seed", "0", *wl.cli_flags()], work / f"{side}.log")
                if code != 0:
                    print(f"seed {seed}: {side} pipeline exited {code}:\n"
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
