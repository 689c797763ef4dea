"""The package namespace: every export loads on first use and keeps its binding."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import usvclust


@pytest.mark.parametrize("name", usvclust.__all__)
def test_each_export_is_the_object_its_module_defines(name):
    obj = getattr(usvclust, name)
    assert getattr(importlib.import_module(obj.__module__), name) is obj
    assert name in dir(usvclust)


def test_stage_configs_are_reexported_by_their_stages():
    from usvclust.config import PreprocessConfig, SparseCodingConfig
    from usvclust.preprocess import PreprocessConfig as from_preprocess
    from usvclust.sparse_coding import SparseCodingConfig as from_sparse_coding
    assert from_preprocess is PreprocessConfig is usvclust.PreprocessConfig
    assert from_sparse_coding is SparseCodingConfig is usvclust.SparseCodingConfig


@pytest.mark.parametrize("load", [
    "importlib.import_module('usvclust.kmeans')",
    "cli.main(['synth', 'subspaces', '--points', '8', '--output', 'v.csv'])\n"
    "assert cli.main(['pipeline', '--input', 'v.csv', '--output_dir', 'o',"
    " '--method', 'kmeans', '--k', '2', '--tau', '-0.9']) == 0",
], ids=["import_module", "run_pipeline"])
def test_kmeans_stays_the_function_after_its_module_loads(tmp_path, load):
    # ``kmeans`` names a submodule and the function it defines. Loading the
    # submodule, in a fresh interpreter, must not rebind the package's name.
    code = ("import importlib, sys\nimport usvclust\nfrom usvclust import cli\n"
            "assert 'usvclust.kmeans' not in sys.modules\n"
            f"{load}\n"
            "assert usvclust.kmeans is sys.modules['usvclust.kmeans'].kmeans\n"
            "from usvclust import kmeans\n"
            "assert callable(kmeans)\n")
    src = str(Path(usvclust.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": src}, timeout=120)
    assert proc.returncode == 0, proc.stderr
