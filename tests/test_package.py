"""The package namespace: each name is imported from its defining module."""

import re
from pathlib import Path

from usvclust.cli import main


def test_stage_configs_are_reexported_by_their_stages():
    from usvclust.config import PreprocessConfig, SparseCodingConfig
    from usvclust.preprocess import PreprocessConfig as from_preprocess
    from usvclust.sparse_coding import SparseCodingConfig as from_sparse_coding
    assert from_preprocess is PreprocessConfig
    assert from_sparse_coding is SparseCodingConfig


def test_readme_library_snippet_runs(tmp_path, monkeypatch, capsys):
    readme = Path(__file__).resolve().parents[1] / "README.md"
    blocks = re.findall(r"^```python\n(.*?)^```", readme.read_text(encoding="utf-8"),
                        re.MULTILINE | re.DOTALL)
    assert len(blocks) == 1
    monkeypatch.chdir(tmp_path)
    assert main(["synth", "segments", "--n", "30", "--output", "segs.ssca"]) == 0
    capsys.readouterr()
    exec(blocks[0], {})
    assert "d_cos_hmean=" in capsys.readouterr().out
