"""Command-line harness: one-line errors on bad input, byte-identical reruns."""

import hashlib
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


class TestPinnedArtifacts:
    """Exact artifacts of the small config at master seed 42. Any change to
    the engines, the RNG draw order or the writers moves them."""

    TRAIN_SHA256 = {
        "model.json": "1b8660d17de0d7bb693eddf338910d64ea394d3fc17f649bb7ff97600929fbdf",
        "predictions.csv": "4855958ec1424b5b29e06eb7fcaefa8c5a7fa5b6eadd9500fc3656bd9c3e8531",
        "fitness_curve.csv": "f971adf0cbc4fae17f9db3b7db970a9e7bd36c8f5c885eb1e9ef78198411d3a7",
    }

    def test_train_artifacts(self, tmp_path):
        cfg = tmp_path / "small.ini"
        cfg.write_text(SMALL_CONFIG, encoding="utf-8")
        out = tmp_path / "out"
        assert main(["train", "--config", str(cfg), "--out", str(out)]) == 0
        digests = {
            name: hashlib.sha256((out / name).read_bytes()).hexdigest()
            for name in self.TRAIN_SHA256
        }
        assert digests == self.TRAIN_SHA256

    def test_compare_rmse_lists(self, tmp_path):
        cfg = tmp_path / "small.ini"
        cfg.write_text(SMALL_CONFIG, encoding="utf-8")
        out = tmp_path / "out"
        assert main(["compare", "--runs", "2", "--config", str(cfg), "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text(encoding="utf-8"))
        assert report["test_rmse"] == {
            "gsgp": [22.328276771357036, 9.473329242685619],
            "stgp": [39.79457310173926, 39.79457310173926],
            "lssvm": [3.1966061581548804, 3.1966061581548804],
        }
        assert report["train_rmse"] == {
            "gsgp": [18.34200195084797, 15.315693303268354],
            "stgp": [36.1985882004014, 36.1985882004014],
            "lssvm": [4.311211521358119, 4.311211521358119],
        }


FEATURES = "cement,fly_ash,water,sand,stone,water_reducer,recycled_aggregate,total_mass"
ROW = "300,60,180,700,1100,5,200,2345"


class TestPredictEdgeCases:
    """predict's output and errors for inputs without ordinary data rows."""

    def predict(self, tmp_path, capsys, data: bytes):
        write_model(tmp_path / "model.json", "gsgp")
        (tmp_path / "in.csv").write_bytes(data)
        argv = [
            "predict", str(tmp_path / "model.json"), str(tmp_path / "in.csv"),
            "--out", str(tmp_path / "o"),
        ]
        return run_cli(argv, capsys)

    @pytest.mark.parametrize(
        "header, expected",
        [
            (FEATURES, "sample_no,computation\n"),
            (FEATURES + ",slump", "sample_no,experiment,computation,relative_error\n"),
        ],
        ids=["unlabeled", "labeled"],
    )
    @pytest.mark.parametrize("tail", ["\n", "\n\n   \n\n"], ids=["header-only", "blank-lines"])
    def test_no_data_rows_writes_header(self, tmp_path, capsys, header, expected, tail):
        code, err = self.predict(tmp_path, capsys, (header + tail).encode())
        assert (code, err) == (0, "")
        assert (tmp_path / "o" / "predictions.csv").read_text(encoding="utf-8") == expected

    def test_empty_file(self, tmp_path, capsys):
        code, err = self.predict(tmp_path, capsys, b"")
        assert_one_line_error(code, err)
        assert err == "error: empty file: missing header row\n"

    def test_non_numeric_cell_names_its_row(self, tmp_path, capsys):
        data = "\n".join([FEATURES, ROW, ROW, ROW.replace("180", "wet"), ROW]) + "\n"
        code, err = self.predict(tmp_path, capsys, data.encode())
        assert_one_line_error(code, err)
        assert err == "error: row 3: column 'water' has non-numeric value 'wet'\n"
        assert not (tmp_path / "o" / "predictions.csv").exists()

    @pytest.mark.parametrize("good_rows", [2, 5000])
    def test_later_rows_not_utf8(self, tmp_path, capsys, good_rows):
        data = "\n".join([FEATURES] + [ROW] * good_rows).encode() + b"\n3\xff0,60\n"
        code, err = self.predict(tmp_path, capsys, data)
        assert_one_line_error(code, err)
        assert "is not UTF-8 text" in err
        assert not (tmp_path / "o" / "predictions.csv").exists()
