import dataclasses
import re

import pytest

from usvclust import cli
from usvclust.config import (SETTINGS, PipelineConfig, SparseCodingConfig, parse_k, parse_tau,
                             read_config_file)
from usvclust.errors import ParameterError


class TestParseTau:
    def test_float_passthrough(self):
        assert parse_tau(0.8) == 0.8
        assert parse_tau("0.7") == 0.7
        assert parse_tau(1.0) == 1.0
        assert parse_tau(-0.5) == -0.5

    def test_presets(self):
        assert parse_tau("dba") == 0.8
        assert parse_tau("c57") == 0.7
        assert parse_tau(" DBA ") == 0.8

    def test_out_of_range(self):
        with pytest.raises(ParameterError):
            parse_tau(1.0001)
        with pytest.raises(ParameterError):
            parse_tau(-1.0)

    def test_garbage(self):
        with pytest.raises(ParameterError, match="tau"):
            parse_tau("bl6")


class TestParseK:
    def test_scalar(self):
        assert parse_k(20) == (20,)
        assert parse_k("20") == (20,)

    def test_comma_list(self):
        assert parse_k("20,40,60") == (20, 40, 60)

    def test_sequence(self):
        assert parse_k([5, 10]) == (5, 10)

    def test_garbage(self):
        with pytest.raises(ParameterError):
            parse_k("20;40")

    @pytest.mark.parametrize("value", [(), [], "5,5", [5, 5], (20, 40, 20)])
    def test_empty_or_repeated_refused(self, value):
        with pytest.raises(ParameterError, match="empty|repeats"):
            parse_k(value)


class TestPipelineConfig:
    def test_defaults(self):
        cfg = PipelineConfig(input="a", output_dir="b")
        assert cfg.method == "lasso_ssc"
        assert cfg.k == (20, 40, 60)
        assert cfg.tau == 0.8
        assert cfg.lam == 0.3
        assert cfg.f == 64 and cfg.t == 64
        assert cfg.export_embedding is False

    def test_required_paths(self):
        with pytest.raises(ParameterError, match="input"):
            PipelineConfig(output_dir="b")
        with pytest.raises(ParameterError, match="output_dir"):
            PipelineConfig(input="a")

    def test_bad_method(self):
        with pytest.raises(ParameterError, match="method"):
            PipelineConfig(input="a", output_dir="b", method="dbscan")

    def test_bad_values(self):
        base = dict(input="a", output_dir="b")
        with pytest.raises(ParameterError):
            PipelineConfig(**base, k=0)
        with pytest.raises(ParameterError):
            PipelineConfig(**base, lam=0.0)
        with pytest.raises(ParameterError):
            PipelineConfig(**base, f=1)
        with pytest.raises(ParameterError, match="seed must be >= 0"):
            PipelineConfig(**base, seed=-1)
        # NaN fails every comparison, so the range check is written to fail on it
        for value in (float("nan"), float("inf")):
            with pytest.raises(ParameterError, match="finite"):
                PipelineConfig(**base, lam=value)

    @pytest.mark.parametrize("method, solver", [("lasso_ssc", "lasso"), ("omp_ssc", "omp")])
    def test_coding_sets_only_the_paper_parameters(self, method, solver):
        cfg = PipelineConfig(input="a", output_dir="b", method=method, lam=0.2, sparsity_k=4)
        # the solver tolerances are not settings: they keep SparseCodingConfig's defaults
        assert cfg.coding() == SparseCodingConfig(method=solver, lam=0.2, sparsity_k=4)

    @pytest.mark.parametrize("k", [1, "1,5", (5, 1)])
    def test_k_below_two_refused(self, k):
        # the centroid metrics at the end of a run need two clusters
        with pytest.raises(ParameterError, match=">= 2"):
            PipelineConfig(input="a", output_dir="b", k=k)

    @pytest.mark.parametrize("k", [(), "5,5", [5, 5]])
    def test_empty_or_repeated_k_refused(self, k):
        with pytest.raises(ParameterError, match="empty|repeats"):
            PipelineConfig(input="a", output_dir="b", k=k)

    def test_k_normalized_to_tuple(self):
        cfg = PipelineConfig(input="a", output_dir="b", k="10,20")
        assert cfg.k == (10, 20)


class TestConfigFile:
    def test_round_trip(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text(
            "# pipeline settings\n"
            "input = data.ssca\n"
            "output_dir = out\n"
            "method = omp_ssc\n"
            "k = 10,20\n"
            "tau = dba\n"
            "lambda = 0.25\n"
            "\n"
            "export_embedding = true\n"
            "seed = 7\n"
        )
        values = read_config_file(p)
        cfg = PipelineConfig(**values)
        assert cfg.input == "data.ssca"
        assert cfg.method == "omp_ssc"
        assert cfg.k == (10, 20)
        assert cfg.tau == 0.8
        assert cfg.lam == 0.25
        assert cfg.export_embedding is True
        assert cfg.seed == 7

    def test_unknown_key_points_at_line(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text("input = a\nshrink = 2\n")
        with pytest.raises(ParameterError, match=r":2: unknown key 'shrink'"):
            read_config_file(p)

    def test_missing_equals(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text("just a line\n")
        with pytest.raises(ParameterError, match="key = value"):
            read_config_file(p)

    def test_bad_number(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text("seed = soon\n")
        with pytest.raises(ParameterError, match=r":1: bad value for seed"):
            read_config_file(p)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ParameterError, match="not found"):
            read_config_file(tmp_path / "nope.cfg")

    def test_directory_rejected(self, tmp_path):
        with pytest.raises(ParameterError, match="not found"):
            read_config_file(tmp_path)

    def test_not_utf8_rejected(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_bytes(b"method = cs_sc\n# caf\xe9\n")
        with pytest.raises(ParameterError, match=r"run\.cfg: not UTF-8 text"):
            read_config_file(p)
        assert cli.main(["pipeline", "--config", str(p)]) == 2

    @pytest.mark.parametrize("value, error", [
        ("no", None), ("maybe", "c.cfg:1: expected a boolean, got 'maybe'")])
    def test_boolean_value(self, tmp_path, capsys, value, error):
        p = tmp_path / "c.cfg"
        p.write_text(f"export_embedding = {value}\n")
        if error is None:
            assert read_config_file(p) == {"export_embedding": False}
        else:
            assert cli.main(["pipeline", "--config", str(p)]) == 2
            assert error in capsys.readouterr().err

    def test_leading_byte_order_mark_is_skipped(self, tmp_path):
        # a file saved as UTF-8 by Notepad begins with U+FEFF
        body = "method = omp_ssc\nk = 10,20\n"
        plain, marked = tmp_path / "plain.cfg", tmp_path / "bom.cfg"
        plain.write_text(body, encoding="utf-8")
        marked.write_text("\ufeff" + body, encoding="utf-8")
        assert read_config_file(marked) == read_config_file(plain) == {
            "method": "omp_ssc", "k": (10, 20)}


# a non-default value for every PipelineConfig field, as flag/file text;
# True marks a bare flag (written "true" in a file)
NON_DEFAULT = {
    "input": "in.ssca", "output_dir": "out", "method": "cs_sc", "k": "3,4",
    "tau": "c57", "lam": "0.25", "f": "32", "t": "16", "seed": "7",
    "export_embedding": True, "sparsity_k": "5", "dump_coefficients": True,
}
KEYS = {fld.name: key for key, fld in SETTINGS.items()}


class TestOneFieldTable:
    """Every field is reachable the same way as a flag and as a file key."""

    def _config(self, monkeypatch, argv):
        seen = []

        def capture(cfg):
            seen.append(cfg)
            return []

        monkeypatch.setattr("usvclust.pipeline.run_pipeline", capture)
        monkeypatch.setattr("usvclust.pipeline.write_outputs", lambda cfg, results: None)
        assert cli.main(["pipeline", *argv]) == 0
        return seen[0]

    @pytest.mark.parametrize("name", [fld.name for fld in
                                      dataclasses.fields(PipelineConfig)])
    def test_flag_equals_file_line(self, name, tmp_path, monkeypatch):
        values = {"input": "base.ssca", "output_dir": "base_out", name: NON_DEFAULT[name]}
        argv, lines = [], []
        for field_name, value in values.items():
            key = KEYS[field_name]
            argv += [f"--{key}"] if value is True else [f"--{key}", value]
            lines.append(f"{key} = {'true' if value is True else value}")
        path = tmp_path / "run.cfg"
        path.write_text("\n".join(lines) + "\n")
        from_flags = self._config(monkeypatch, argv)
        from_file = self._config(monkeypatch, ["--config", str(path)])
        assert from_flags == from_file
        fld = next(f for f in dataclasses.fields(PipelineConfig) if f.name == name)
        assert getattr(from_flags, name) != fld.default

    def test_flags_override_file(self, tmp_path, monkeypatch):
        p = tmp_path / "run.cfg"
        p.write_text("input = a\noutput_dir = b\nseed = 7\ntau = 0.5\n")
        cfg = self._config(monkeypatch, ["--config", str(p), "--seed", "11"])
        assert cfg.seed == 11
        assert cfg.tau == 0.5  # unset flags fall back to the file value

    @pytest.mark.parametrize("key", sorted(SETTINGS))
    def test_help_lists_flag(self, key, capsys):
        assert cli.main(["pipeline", "--help"]) == 0
        assert re.search(rf"--{key}\b", capsys.readouterr().out)

    def test_settings_are_the_twelve_keys(self):
        # a new setting has to be added here on purpose
        assert set(SETTINGS) == {
            "input", "output_dir", "method", "k", "tau", "lambda", "f", "t", "seed",
            "sparsity_k", "export_embedding", "dump_coefficients"}

    @pytest.mark.parametrize("key, value", [
        ("tol", "1e-5"), ("max_iter", "5"), ("denoise_eps", "0.01")])
    def test_solver_tolerances_are_not_settings(self, key, value, tmp_path, capsys):
        base = ["pipeline", "--input", "a", "--output_dir", str(tmp_path / "o")]
        assert cli.main([*base, f"--{key}", value]) == 2
        assert f"unrecognized arguments: --{key} {value}" in capsys.readouterr().err
        path = tmp_path / "run.cfg"
        path.write_text(f"{key} = {value}\n")
        assert cli.main([*base, "--config", str(path)]) == 2
        assert capsys.readouterr().err == f"usvclust: {path}:1: unknown key {key!r}\n"

    def test_bad_flag_value_names_flag(self, capsys):
        assert cli.main(["pipeline", "--input", "a", "--output_dir", "b",
                         "--seed", "soon"]) == 2
        err = capsys.readouterr().err
        assert "seed" in err and "soon" in err
