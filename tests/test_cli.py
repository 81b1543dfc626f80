"""Command-line harness: one-line errors on bad input, byte-identical reruns."""

import json
import shutil

import pytest

from slumpgp.cli import main

SMALL_CONFIG = """\
[gsgp]
population_size = 20
generations = 3

[stgp]
population_size = 20
generations = 3
"""

NOT_UTF8 = b"\xff\xfe\x00bad \x80\x81 bytes\n"


def run_cli(argv, capsys):
    """Exit code and stderr of one in-process invocation."""
    code = main(argv)
    return code, capsys.readouterr().err


def assert_one_line_error(code, err):
    assert code == 1
    assert err.startswith("error: ")
    assert err.count("\n") == 1
    assert "Traceback" not in err


def write_model(path, kind):
    path.write_text(
        json.dumps({"schema_version": 1, "kind": kind, "model": {}}), encoding="utf-8"
    )


def write_input(path):
    path.write_text(
        "cement,fly_ash,water,sand,stone,water_reducer,recycled_aggregate,total_mass\n"
        "300,60,180,700,1100,5,200,2345\n",
        encoding="utf-8",
    )


class TestBadInput:
    def test_non_utf8_model(self, tmp_path, capsys):
        model = tmp_path / "model.json"
        model.write_bytes(NOT_UTF8)
        write_input(tmp_path / "in.csv")
        argv = ["predict", str(model), str(tmp_path / "in.csv"), "--out", str(tmp_path / "o")]
        assert_one_line_error(*run_cli(argv, capsys))

    def test_non_utf8_config(self, tmp_path, capsys):
        cfg = tmp_path / "exp.ini"
        cfg.write_bytes(NOT_UTF8)
        argv = ["train", "--config", str(cfg), "--out", str(tmp_path / "o")]
        assert_one_line_error(*run_cli(argv, capsys))

    def test_non_utf8_predict_input(self, tmp_path, capsys):
        write_model(tmp_path / "model.json", "gsgp")
        bad = tmp_path / "in.csv"
        bad.write_bytes(NOT_UTF8)
        argv = ["predict", str(tmp_path / "model.json"), str(bad), "--out", str(tmp_path / "o")]
        assert_one_line_error(*run_cli(argv, capsys))

    def test_non_utf8_dataset(self, tmp_path, capsys):
        bad = tmp_path / "data.csv"
        bad.write_bytes(NOT_UTF8)
        argv = ["train", "--dataset", str(bad), "--out", str(tmp_path / "o")]
        assert_one_line_error(*run_cli(argv, capsys))

    @pytest.mark.parametrize("kind", ["ols", "lssvm", "stgp"])
    def test_unwritten_model_kinds_rejected(self, tmp_path, capsys, kind):
        write_model(tmp_path / "model.json", kind)
        write_input(tmp_path / "in.csv")
        argv = [
            "predict", str(tmp_path / "model.json"), str(tmp_path / "in.csv"),
            "--out", str(tmp_path / "o"),
        ]
        code, err = run_cli(argv, capsys)
        assert_one_line_error(code, err)
        assert "unknown model kind" in err


def artifacts(out_dir):
    return {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}


class TestDeterministicArtifacts:
    @pytest.mark.parametrize(
        "command, names",
        [
            (["train"], {"fitness_curve.csv", "predictions.csv", "model.json", "metrics.json"}),
            (["compare", "--runs", "2"], {"comparison.csv", "report.json"}),
        ],
        ids=["train", "compare"],
    )
    def test_two_runs_byte_identical(self, tmp_path, capsys, command, names):
        cfg = tmp_path / "small.ini"
        cfg.write_text(SMALL_CONFIG, encoding="utf-8")
        out = tmp_path / "out"  # the reports embed the output directory
        outs = []
        for _ in range(2):
            assert main([*command, "--config", str(cfg), "--out", str(out)]) == 0
            outs.append(artifacts(out))
            shutil.rmtree(out)
        assert set(outs[0]) == names
        assert outs[0] == outs[1]

    def test_predict_replays_trained_model(self, tmp_path):
        cfg = tmp_path / "small.ini"
        cfg.write_text(SMALL_CONFIG, encoding="utf-8")
        assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "t")]) == 0
        write_input(tmp_path / "in.csv")
        argv = [
            "predict", str(tmp_path / "t" / "model.json"), str(tmp_path / "in.csv"),
            "--out", str(tmp_path / "p"),
        ]
        assert main(argv) == 0
        lines = (tmp_path / "p" / "predictions.csv").read_text(encoding="utf-8").splitlines()
        assert lines[0] == "sample_no,computation"
        assert len(lines) == 2
