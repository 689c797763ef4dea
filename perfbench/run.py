"""usvclust pipeline benchmark.

    python3 perfbench/run.py --workload lasso_k5 --seed 1 --seconds 25 --trace 0

Run from the repository root. Builds the workload's archives from --seed,
then runs the ``usvclust pipeline`` CLI (from ./src) as a child process on
them in turn until --seconds have passed, checking every output against
perfbench/checks.py. The last stdout line is one JSON object with the keys
correct, attempted, failed and metrics. With --trace 0 the metrics are the
end-to-end ones (run_s, peak_rss_mb, setup_s, purity); with --trace 1 each
round also runs perfbench/traced.py and the metrics are the per-layer
ones. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
NPROC = len(os.sched_getaffinity(0))
# one process drives each run; BLAS may use every core, no more
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(NPROC)
sys.path[:0] = [str(HERE), str(SRC)]

import numpy as np  # noqa: E402  (after the BLAS thread cap)

import checks  # noqa: E402

GRID = 64
TAU = 0.8
CLASSES = 5
OUTLIER_FRAC = 0.1
SETUP_REPEATS = 3
FEATURE_SAMPLE = 8


@dataclass(frozen=True)
class Workload:
    segments: int
    # archives per run, taken in turn by the rounds. Many short invocations
    # spread over the run average out both the archive-to-archive spread of
    # the work and the machine's timing noise better than a few long ones
    archives: int
    vectors: bool  # feed the CLI a preprocessed vector CSV instead of the archive
    config: dict  # PipelineConfig fields beyond input, output_dir, tau, f, t, seed

    @property
    def ks(self) -> tuple:
        return self.config["k"]

    def cli_flags(self) -> list:
        flags = []
        for key, value in self.config.items():
            if value is True:
                flags.append(f"--{key}")
            else:
                text = ",".join(map(str, value)) if key == "k" else str(value)
                flags += ["--lambda" if key == "lam" else f"--{key}", text]
        return flags

    def checks_per_k(self) -> int:
        """ids, clusters, split, assign, metrics, then Lloyd and coefficients."""
        lloyd = self.config["method"] == "kmeans" or self.config.get("export_embedding", False)
        return 5 + lloyd + self.config.get("dump_coefficients", False)


WORKLOADS = {
    "lasso_k5": Workload(100, 6, False, {
        "method": "lasso_ssc", "k": (5,), "lam": 0.3, "dump_coefficients": True}),
    "omp_sweep": Workload(200, 6, False, {
        "method": "omp_ssc", "k": (20, 40, 60), "sparsity_k": 10,
        "export_embedding": True, "dump_coefficients": True}),
    "kmeans_vectors": Workload(150, 5, True, {"method": "kmeans", "k": (20,)}),
}


def cli_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(SRC))


def run_cli(args, log: Path):
    """Run ``python -m usvclust <args>``; returns (exit code, wall s, peak RSS MB)."""
    with open(log, "wb") as fh:
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "usvclust", *args], cwd=ROOT,
                                env=cli_env(), stdout=fh, stderr=subprocess.STDOUT)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:  # interrupted: leave no child behind
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


@dataclass
class Inputs:
    path: Path  # what the CLI reads
    ids: list
    truth: object  # synth class per sample, -1 for generated outliers
    reference: object  # D x N features from checks.reference_features
    sample: list  # sample indices whose program features are checked
    program_sample: object  # the program's features of those samples


def make_inputs(wl: Workload, seed: int, work: Path) -> Inputs:
    """Write one archive's CLI input and compute its reference features."""
    from usvclust import ingest
    from usvclust.preprocess import PreprocessConfig, vectorize_segment
    from usvclust.synth import generate_segments

    work.mkdir()
    archive, truth = generate_segments(wl.segments, CLASSES, seed, outlier_frac=OUTLIER_FRAC)
    reference = checks.reference_features([s.energy for s in archive.segments], GRID, GRID)
    if wl.vectors:
        # written from the reference features: `usvclust preprocess` writes the
        # same table but spends seconds of set-up per archive doing it
        path = work / "vectors.csv"
        checks.write_table(archive.ids, reference.T, path)
    else:
        path = work / "segments.ssca"
        ingest.write_archive(archive, path)
    sample = np.linspace(0, len(archive) - 1, FEATURE_SAMPLE).astype(int).tolist()
    cfg = PreprocessConfig(f=GRID, t=GRID)
    program_sample = np.column_stack([vectorize_segment(archive.segments[i], cfg) for i in sample])
    return Inputs(path, list(archive.ids), truth, reference, sample, program_sample)


def k_dirs(wl: Workload, out: Path) -> list:
    return [(k, out if len(wl.ks) == 1 else out / f"k_{k}") for k in wl.ks]


@dataclass
class Tally:
    """Operations attempted and failed; a failed check also marks the run incorrect."""

    attempted: int = 0
    failed: int = 0
    incorrect: int = 0
    errors: list = field(default_factory=list)

    def fail(self, what: str, count: int = 1, incorrect: bool = True) -> None:
        self.attempted += count
        self.failed += count
        self.incorrect += count if incorrect else 0
        self.errors.append(what)

    def check(self, name: str, fn, *args) -> None:
        try:
            fn(*args)
        except (checks.CheckFailed, OSError, ValueError, IndexError) as exc:
            self.fail(f"{name}: {exc}")
            return
        self.attempted += 1


def check_outputs(wl: Workload, inp: Inputs, out: Path, tally: Tally) -> float:
    """Run every output check on one CLI output tree; returns the purity."""
    feats = inp.reference
    tally.check("features", checks.check_features, inp.program_sample,
                feats[:, inp.sample], [inp.ids[i] for i in inp.sample])
    worst = 1.0
    for k, sub in k_dirs(wl, out):
        try:
            ids, labels, flags = checks.read_labels(sub / "labels.csv")
            checks.check_ids(ids, inp.ids)
        except (checks.CheckFailed, OSError, ValueError, IndexError) as exc:
            # nothing else in this tree can be checked against the input
            tally.fail(f"k={k} labels: {exc}", wl.checks_per_k())
            worst = 0.0
            continue
        tally.attempted += 1
        inl = ~flags
        tally.check(f"k={k} clusters", checks.check_clusters, labels, flags, k)
        tally.check(f"k={k} split", checks.check_outlier_split, feats, flags, TAU, ids)
        tally.check(f"k={k} assign", checks.check_outlier_assignment,
                    feats, labels, flags, k, ids)
        tally.check(f"k={k} metrics", lambda: checks.check_metrics(
            feats, labels, flags, k, checks.read_metrics(sub / "metrics.txt")))
        if wl.config["method"] == "kmeans":
            tally.check(f"k={k} lloyd", checks.check_lloyd_fixed_point,
                        feats[:, inl].T, labels[inl], k)
        elif wl.config.get("export_embedding"):
            tally.check(f"k={k} lloyd", check_embedding_lloyd,
                        sub / "embedding.csv", [i for i, o in zip(ids, flags) if not o],
                        labels[inl], k)
        if wl.config.get("dump_coefficients"):
            tally.check(f"k={k} coefficients", lambda: checks.check_coefficients(
                *checks.read_triplets(sub / "coefficients.csv"), int(inl.sum()),
                wl.config.get("sparsity_k") if wl.config["method"] == "omp_ssc" else None))
        worst = min(worst, checks.purity(labels, flags, inp.truth, k))
    return worst


def check_embedding_lloyd(path: Path, inlier_ids, inlier_labels, k: int) -> None:
    emb_ids, emb = checks.read_table(path)
    if emb_ids != inlier_ids:
        raise checks.CheckFailed(f"{path.name} rows are not the inliers in input order")
    checks.check_lloyd_fixed_point(emb, inlier_labels, k)


def invoke(wl: Workload, inp: Inputs, tally: Tally):
    """One CLI invocation plus its checks; returns (wall s, RSS MB, purity) or None."""
    work = inp.path.parent
    out = work / "cli"
    shutil.rmtree(out, ignore_errors=True)
    log = work / "cli.log"
    code, wall, rss = run_cli(
        ["pipeline", "--input", str(inp.path), "--output_dir", str(out), "--tau", str(TAU),
         "--f", str(GRID), "--t", str(GRID), "--seed", "0", *wl.cli_flags()], log)
    if code != 0:
        # the invocation and every check it would have fed count as failed
        tally.fail(f"pipeline exited {code}: {log.read_text()[-2000:]}", incorrect=False)
        tally.fail("checks skipped", 1 + wl.checks_per_k() * len(wl.ks), incorrect=False)
        return None
    tally.attempted += 1
    return wall, rss, check_outputs(wl, inp, out, tally)


def setup_time() -> float:
    """CLI start-up: interpreter, ``import usvclust``, parser build."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-m", "usvclust", "pipeline", "--help"], cwd=ROOT,
                   env=cli_env(), stdout=subprocess.DEVNULL, check=True)
    return time.perf_counter() - t0


def end_to_end(wl: Workload, inputs: list, seconds: float, tally: Tally) -> dict:
    """Medians over every successful invocation of the run.

    Start-up is also timed once per round, so that setup_s samples the
    whole run rather than one moment of it.
    """
    setups = [setup_time() for _ in range(SETUP_REPEATS)]
    results = []
    t_end = time.perf_counter() + seconds
    for inp in itertools.cycle(inputs):  # a round: start-up, one invocation, its checks
        setups.append(setup_time())
        results.append(invoke(wl, inp, tally))
        if time.perf_counter() >= t_end:
            break
    ok = [r for r in results if r is not None]
    if not ok:
        return {}
    return {
        "run_s": (statistics.median(r[0] for r in ok), "s"),
        "peak_rss_mb": (statistics.median(r[1] for r in ok), "MB"),
        "setup_s": (statistics.median(setups), "s"),
        "purity": (statistics.median(r[2] for r in ok), "fraction"),
    }


LAYER_UNITS = {
    "ingest.read_s": "s",
    "preprocess.vectorize_s": "s",
    "preprocess.segments_per_s": "1/s",
    "spectral.gram_s": "s",
    "outlier_split.split_s": "s",
    "outlier_split.inliers": "count",
    "outlier_split.outliers": "count",
    "sparse_coding.self_express_s": "s",
    "sparse_coding.columns": "count",
    "sparse_coding.nonconverged_columns": "count",
    "sparse_coding.converged_ratio": "ratio",
    "sparse_coding.nnz_per_column": "count",
    "sparse_coding.kkt_max": "1",
    "spectral.affinity_s": "s",
    "spectral.embed_s": "s",
    "kmeans.kmeans_s": "s",
    "kmeans.iterations": "count",
    "assign.assign_s": "s",
    "metrics.report_s": "s",
    "pipeline.write_outputs_s": "s",
    "pipeline.output_bytes": "bytes",
    "trace.overhead_s": "s",
}


def per_layer(wl: Workload, inputs: list, seconds: float, tally: Tally) -> dict:
    """Each round: the CLI on the first archive, then the traced sequence on it."""
    from usvclust.config import PipelineConfig

    import traced

    setup_s = statistics.median(setup_time() for _ in range(SETUP_REPEATS))
    inp = inputs[0]
    work = inp.path.parent
    walls, layers, totals = [], [], []
    t_end = time.perf_counter() + seconds
    while True:
        res = invoke(wl, inp, tally)
        out = work / "traced"
        shutil.rmtree(out, ignore_errors=True)
        cfg = PipelineConfig(input=str(inp.path), output_dir=str(out), tau=TAU,
                             f=GRID, t=GRID, seed=0, **wl.config)
        values, total = traced.traced_pipeline(cfg)
        layers.append(values)
        totals.append(total)
        for k, sub in k_dirs(wl, out):
            cli_labels = work / "cli" / sub.relative_to(out) / "labels.csv"
            if res is None:
                tally.fail(f"k={k} traced labels: no CLI output", incorrect=False)
            else:
                tally.check(f"k={k} traced labels", checks.check_same_bytes,
                            cli_labels, sub / "labels.csv")
        if res is not None:
            walls.append(res[0])
        if time.perf_counter() >= t_end:
            break
    if not walls:
        return {}
    metrics = {}
    for name, unit in LAYER_UNITS.items():
        if name != "trace.overhead_s":
            # times vary per round, counters do not
            values = [v.get(name, 0.0) for v in layers]
            metrics[name] = (statistics.median(values) if unit == "s" else values[-1], unit)
    # the CLI wall also holds interpreter start-up, which the traced run skips
    metrics["trace.overhead_s"] = (
        statistics.median(totals) - (statistics.median(walls) - setup_s), "s")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="usvclust pipeline benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # a terminated run still stops its child and removes its scratch files
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))

    if not (SRC / "usvclust" / "__init__.py").is_file():
        print(f"perfbench: no usvclust sources under {SRC}", file=sys.stderr)
        return 2

    wl = WORKLOADS[args.workload]
    work = ROOT / ".perfbench_work" / f"{args.workload}-s{args.seed}-p{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    tally = Tally()
    try:
        # archive j of seed s is generated from seed 100*s + j
        inputs = [make_inputs(wl, 100 * args.seed + j, work / f"a{j}")
                  for j in range(1 if args.trace else wl.archives)]
        measure = per_layer if args.trace else end_to_end
        metrics = measure(wl, inputs, args.seconds, tally)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run still uses it
    for err in tally.errors:
        print(f"FAILED {err}", file=sys.stderr)
    if not metrics:
        print("perfbench: no pipeline invocation succeeded", file=sys.stderr)
        return 1
    for name, (value, unit) in metrics.items():
        print(f"{args.workload:15s} {name:36s} {value:.6g} {unit}")
    print(json.dumps({
        "correct": tally.incorrect == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
