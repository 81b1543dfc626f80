"""Command-line harness: one-line errors on bad input, byte-identical reruns,
how config files, flags and the environment resolve, and how inputs are read."""

import codecs
import hashlib
import json
import multiprocessing
import os
import shutil
import signal
import subprocess
import sys
import time
from dataclasses import replace

import numpy as np
import pytest

import slumpgp.cli as cli_module
import slumpgp.jobs as jobs_module
from slumpgp.baselines import BaselineError, ols_fit, ols_predict
from slumpgp.cli import main
from slumpgp.dataset import SplitSpec, builtin_table1, save_csv, split
from slumpgp.expr import MAX_PARSE_DEPTH
from slumpgp.gsgp import GsgpError

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


class TestFailedTrainWritesNothing:
    """A statistic that cannot be taken fails `train` before any artifact exists."""

    def test_single_test_row(self, tmp_path, capsys):
        cfg = tmp_path / "exp.ini"
        cfg.write_text(SMALL_CONFIG, encoding="utf-8")
        out = tmp_path / "o"
        argv = ["train", "--config", str(cfg), "--train-size", "33", "--out", str(out)]
        code, err = run_cli(argv, capsys)
        assert_one_line_error(code, err)
        assert "at least 2 pairs" in err
        assert not out.exists()

    def test_constant_test_prediction(self, tmp_path, capsys, monkeypatch):
        real_evolve = cli_module.evolve

        def constant_evolve(*args):
            res = real_evolve(*args)
            return replace(res, predictions=np.full_like(res.predictions, 7.0))

        monkeypatch.setattr(cli_module, "evolve", constant_evolve)
        cfg = tmp_path / "exp.ini"
        cfg.write_text(SMALL_CONFIG, encoding="utf-8")
        out = tmp_path / "o"
        out.mkdir()
        code, err = run_cli(["train", "--config", str(cfg), "--out", str(out)], capsys)
        assert_one_line_error(code, err)
        assert list(out.iterdir()) == []


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


class TestCompareWorkers:
    """compare writes the same bytes for any worker count, and each failure
    ends in one line with no worker left running."""

    def compare(self, tmp_path, capsys, runs=2):
        """Exit code, stderr and output directory of one small compare."""
        cfg = tmp_path / "small.ini"
        cfg.write_text(SMALL_CONFIG, encoding="utf-8")
        out = tmp_path / "out"
        argv = ["compare", "--runs", str(runs), "--config", str(cfg), "--out", str(out)]
        code, err = run_cli(argv, capsys)
        assert multiprocessing.active_children() == []
        return code, err, out

    @pytest.mark.parametrize("runs", [1, 2, 3])
    def test_same_bytes_for_any_worker_count(self, tmp_path, capsys, monkeypatch, runs):
        outs = []
        for cpus in (1, 2):
            monkeypatch.setattr(jobs_module, "usable_cpus", lambda: cpus)
            code, err, out = self.compare(tmp_path, capsys, runs=runs)
            assert (code, err) == (0, "")
            outs.append(artifacts(out))
            shutil.rmtree(out)
        assert outs[0] == outs[1]

    def test_wrapped_engines_see_every_run(self, tmp_path, capsys, monkeypatch):
        # A profiler wraps the module's engine bindings; with two usable
        # CPUs the runs still go through its wrappers, in this process.
        calls = []

        def counted(name, engine):
            def wrapper(*args):
                calls.append(name)
                return engine(*args)
            return wrapper

        monkeypatch.setattr(cli_module, "evolve", counted("gsgp", cli_module.evolve))
        monkeypatch.setattr(cli_module, "stgp_run", counted("stgp", cli_module.stgp_run))
        code, err, _ = self.compare(tmp_path, capsys, runs=2)
        assert (code, err) == (0, "")
        assert calls == ["gsgp", "stgp", "gsgp", "stgp"]

    def test_bad_lssvm_setting_fails_before_any_gp_run(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli_module, "run_jobs", lambda *a: pytest.fail("jobs were run"))
        cfg = tmp_path / "svm.ini"
        cfg.write_text(SMALL_CONFIG + "[lssvm]\ngamma = -1\n", encoding="utf-8")
        code, err = run_cli(["compare", "--config", str(cfg), "--out", str(tmp_path / "o")], capsys)
        assert_one_line_error(code, err)
        assert "gamma" in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.skipif(jobs_module.START_METHOD != "fork", reason="workers are not forked")
    @pytest.mark.parametrize("method, error", [("gsgp", GsgpError), ("stgp", BaselineError)])
    def test_engine_error_in_worker_reads_as_in_process(
        self, tmp_path, capsys, monkeypatch, method, error
    ):
        run_job = jobs_module.run_job

        def run_or_fail(job, engines=jobs_module.ENGINES):
            if (job.method, job.seed) == (method, 43):
                raise error(f"{method} run {job.seed} failed")
            return run_job(job, engines)

        monkeypatch.setattr(jobs_module, "run_job", run_or_fail)
        errs = []
        for cpus in (1, 2):
            monkeypatch.setattr(jobs_module, "usable_cpus", lambda: cpus)
            code, err, out = self.compare(tmp_path, capsys)
            assert_one_line_error(code, err)
            assert not out.exists()
            errs.append(err)
        assert errs == [f"error: {method} run 43 failed\n"] * 2

    @pytest.mark.skipif(jobs_module.START_METHOD != "fork", reason="workers are not forked")
    def test_dead_worker_is_one_line(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(jobs_module, "run_job", lambda job: os._exit(1))
        code, err, out = self.compare(tmp_path, capsys)
        assert_one_line_error(code, err)
        assert "worker process died" in err
        assert not out.exists()

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc")
    @pytest.mark.parametrize("sig", [signal.SIGTERM, signal.SIGKILL], ids=["TERM", "KILL"])
    def test_killed_compare_leaves_no_worker(self, tmp_path, sig):
        # Long enough that both workers are still busy when the signal lands.
        cfg = tmp_path / "long.ini"
        cfg.write_text(
            "[gsgp]\npopulation_size = 200\ngenerations = 2000\n"
            "[stgp]\npopulation_size = 200\ngenerations = 2000\n",
            encoding="utf-8",
        )
        script = (
            "import sys, slumpgp.jobs\n"
            "slumpgp.jobs.usable_cpus = lambda: 2\n"
            "from slumpgp.cli import main\n"
            "sys.exit(main(sys.argv[1:]))\n"
        )
        argv = ["compare", "--runs", "2", "--config", str(cfg), "--out", str(tmp_path / "o")]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
        proc = subprocess.Popen([sys.executable, "-c", script, *argv], env=env)
        workers = []
        try:
            children = f"/proc/{proc.pid}/task/{proc.pid}/children"
            deadline = time.monotonic() + 30
            while len(workers) < 2 and time.monotonic() < deadline:
                with open(children, encoding="ascii") as fh:
                    workers = [int(pid) for pid in fh.read().split()]
                time.sleep(0.05)
            assert len(workers) == 2, f"compare started workers {workers}"
            proc.send_signal(sig)
            assert proc.wait(timeout=5) == -sig
            deadline = time.monotonic() + 5
            while time.monotonic() < deadline and any(map(process_runs, workers)):
                time.sleep(0.05)
            assert [pid for pid in workers if process_runs(pid)] == []
        finally:
            proc.kill()
            proc.wait()
            for pid in workers:
                if process_runs(pid):
                    os.kill(pid, signal.SIGKILL)


def process_runs(pid):
    """Whether pid names a process that is neither gone nor a zombie."""
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii", errors="replace") as fh:
            stat = fh.read()
    except FileNotFoundError:
        return False
    # The state letter follows the parenthesised command name.
    return stat[stat.rindex(")") + 2] != "Z"


FEATURES = "cement,fly_ash,water,sand,stone,water_reducer,recycled_aggregate,total_mass"
ROW = "300,60,180,700,1100,5,200,2345"


X1_RECORD = {"op": "tree", "tree": 0}


def write_x1_model(path, records=(X1_RECORD,), root=0):
    """A model over the one tree x1; by default it predicts each row's cement."""
    model = {"trees": ["x1"], "records": list(records), "root": root}
    path.write_text(
        json.dumps({"schema_version": 1, "kind": "gsgp", "model": model}), encoding="utf-8"
    )


class TestPredictEdgeCases:
    """predict's output and errors for inputs without ordinary data rows."""

    def predict(self, tmp_path, capsys, data: bytes):
        write_x1_model(tmp_path / "model.json")
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

    @pytest.mark.parametrize("rows", [[], [ROW]], ids=["header-only", "with-data"])
    def test_corrupt_model_fails_without_writing(self, tmp_path, capsys, rows):
        model = {"trees": ["(x1 +"], "records": [{"op": "volcano"}], "root": 7}
        (tmp_path / "model.json").write_text(
            json.dumps({"kind": "gsgp", "model": model}), encoding="utf-8"
        )
        (tmp_path / "in.csv").write_text("\n".join([FEATURES, *rows]) + "\n", encoding="utf-8")
        argv = [
            "predict", str(tmp_path / "model.json"), str(tmp_path / "in.csv"),
            "--out", str(tmp_path / "o"),
        ]
        code, err = run_cli(argv, capsys)
        assert_one_line_error(code, err)
        assert "malformed model payload" in err
        assert not (tmp_path / "o").exists()

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


def nested_x1(depth):
    """Tree text depth levels deep, ((x1 + x1) + x1) ..., worth depth × x1."""
    text = "x1"
    for _ in range(depth - 1):
        text = f"({text} + x1)"
    return text


class TestDeeplyNestedModel:
    """A model's tree text may nest MAX_PARSE_DEPTH levels; deeper text is
    one error line, not a RecursionError traceback."""

    def predict(self, tmp_path, capsys, depth):
        model = {"trees": [nested_x1(depth)], "records": [X1_RECORD], "root": 0}
        (tmp_path / "model.json").write_text(
            json.dumps({"kind": "gsgp", "model": model}), encoding="utf-8"
        )
        write_input(tmp_path / "in.csv")
        argv = [
            "predict", str(tmp_path / "model.json"), str(tmp_path / "in.csv"),
            "--out", str(tmp_path / "o"),
        ]
        return run_cli(argv, capsys)

    def test_deepest_accepted_tree_replays(self, tmp_path, capsys):
        code, err = self.predict(tmp_path, capsys, MAX_PARSE_DEPTH)
        assert (code, err) == (0, "")
        written = (tmp_path / "o" / "predictions.csv").read_text(encoding="utf-8")
        assert written.splitlines() == ["sample_no,computation", f"1,{300 * MAX_PARSE_DEPTH}"]

    @pytest.mark.parametrize("depth", [MAX_PARSE_DEPTH + 1, 3000])
    def test_deeper_tree_is_one_line_error(self, tmp_path, capsys, depth):
        code, err = self.predict(tmp_path, capsys, depth)
        assert_one_line_error(code, err)
        assert f"nests deeper than {MAX_PARSE_DEPTH} levels" in err
        assert not (tmp_path / "o").exists()


class TestOlsBaseline:
    """ols-baseline's table: its GSGP column is train's, its OLS column is ols_fit's."""

    def test_columns_match_train_and_ols_fit(self, tmp_path, table1_split):
        cfg = tmp_path / "small.ini"
        cfg.write_text(SMALL_CONFIG, encoding="utf-8")
        for command, out in (("ols-baseline", "b"), ("train", "t")):
            argv = [command, "--config", str(cfg), "--seed", "7", "--out", str(tmp_path / out)]
            assert main(argv) == 0
        table = (tmp_path / "b" / "baseline_predictions.csv").read_text(encoding="utf-8")
        lines = table.splitlines()
        assert lines[0] == "sample_no,experiment,gsgp,ols"
        rows = [line.split(",") for line in lines[1:]]
        assert [row[0] for row in rows] == [str(n) for n in range(29, 35)]

        trained = (tmp_path / "t" / "predictions.csv").read_text(encoding="utf-8")
        train_rows = [line.split(",") for line in trained.splitlines()[1:]]
        assert [row[:3] for row in rows] == [row[:3] for row in train_rows]

        train, test = table1_split
        model = ols_fit(train)
        assert [row[3] for row in rows] == [
            cli_module._fmt(ols_predict(model, features)) for features in test.features
        ]


class TestPredictInputLayout:
    """Blank rows are skipped wherever they stand, before the header too."""

    def predict(self, tmp_path, capsys, text):
        write_x1_model(tmp_path / "model.json")
        (tmp_path / "in.csv").write_text(text, encoding="utf-8")
        argv = [
            "predict", str(tmp_path / "model.json"), str(tmp_path / "in.csv"),
            "--out", str(tmp_path / "o"),
        ]
        return run_cli(argv, capsys)

    @pytest.mark.parametrize("rows", [[], [ROW]], ids=["header-only", "with-data"])
    def test_blank_lines_before_header(self, tmp_path, capsys, rows):
        code, err = self.predict(tmp_path, capsys, "\n".join(["", "  ", FEATURES, *rows]) + "\n")
        assert (code, err) == (0, "")
        written = (tmp_path / "o" / "predictions.csv").read_text(encoding="utf-8")
        assert written.splitlines() == ["sample_no,computation", *(["1,300"] if rows else [])]

    def test_row_numbers_count_from_line_after_header(self, tmp_path, capsys):
        text = "\n".join(["", FEATURES, ROW, "", ROW.replace("180", "wet")]) + "\n"
        code, err = self.predict(tmp_path, capsys, text)
        assert_one_line_error(code, err)
        assert err == "error: row 3: column 'water' has non-numeric value 'wet'\n"

    def test_labeled_rows_number_from_one(self, tmp_path, capsys):
        text = "\n".join([FEATURES + ",slump", ROW + ",150", ROW + ",300"]) + "\n"
        code, err = self.predict(tmp_path, capsys, text)
        assert (code, err) == (0, "")
        written = (tmp_path / "o" / "predictions.csv").read_text(encoding="utf-8")
        assert written.splitlines() == [
            "sample_no,experiment,computation,relative_error",
            "1,150,300,1",
            "2,300,300,0",
        ]

    @pytest.mark.parametrize(
        "record",
        [
            {"op": "crossover", "parent1": 0, "parent2": 0, "tr": "half"},
            {"op": "mutation", "parent": 0, "r1": 0, "r2": 0, "ms": "tiny"},
        ],
        ids=["tr", "ms"],
    )
    def test_non_numeric_weight_is_one_line_error(self, tmp_path, capsys, record):
        write_x1_model(tmp_path / "model.json", [X1_RECORD, record], root=1)
        write_input(tmp_path / "in.csv")
        argv = [
            "predict", str(tmp_path / "model.json"), str(tmp_path / "in.csv"),
            "--out", str(tmp_path / "o"),
        ]
        code, err = run_cli(argv, capsys)
        assert_one_line_error(code, err)
        assert "malformed model record 1" in err


class TestByteOrderMark:
    """A CSV that starts with a UTF-8 byte-order mark, as spreadsheet programs
    save "CSV UTF-8", reads as the same CSV without it."""

    @pytest.mark.parametrize("command", ["predict", "train --dataset"])
    def test_same_bytes_with_and_without_bom(self, tmp_path, capsys, command):
        table = tmp_path / "table1.csv"
        save_csv(builtin_table1(), table)
        plain = table.read_bytes()
        out = tmp_path / "o"
        if command == "predict":
            write_x1_model(tmp_path / "model.json")
            argv = ["predict", str(tmp_path / "model.json"), str(table), "--out", str(out)]
        else:
            cfg = tmp_path / "small.ini"
            cfg.write_text(SMALL_CONFIG, encoding="utf-8")
            argv = ["train", "--config", str(cfg), "--dataset", str(table), "--out", str(out)]
        outs = []
        for prefix in (b"", codecs.BOM_UTF8):
            table.write_bytes(prefix + plain)
            assert run_cli(argv, capsys) == (0, "")
            outs.append(artifacts(out))
            shutil.rmtree(out)
        assert outs[0] == outs[1]
        assert outs[0]["predictions.csv"].count(b"\n") == (35 if command == "predict" else 7)


GSGP_VALUES = {
    "population_size": 12,
    "generations": 2,
    "mutation_step": 0.25,
    "p_crossover": 0.6,
    "p_mutation": 0.4,
    "tournament_size": 3,
    "elitism": 2,
    "random_tree_depth": 3,
}
STGP_VALUES = {
    "population_size": 11,
    "generations": 1,
    "max_depth": 9,
    "p_crossover": 0.5,
    "p_mutation": 0.2,
    "tournament_size": 5,
    "elitism": 3,
}


def ini_section(name, values):
    return f"[{name}]\n" + "".join(f"{k} = {v}\n" for k, v in values.items())


class TestConfigResolution:
    """How the config file, the flags and SLUMPGP_OUT set a run's settings."""

    def train(self, tmp_path, capsys, ini, *flags):
        """Exit code, stderr and the metrics.json config of `train` in tmp_path/o."""
        (tmp_path / "exp.ini").write_text(ini, encoding="utf-8")
        out = tmp_path / "o"
        code, err = run_cli(
            ["train", "--config", str(tmp_path / "exp.ini"), "--out", str(out), *flags], capsys
        )
        metrics = out / "metrics.json"
        config = json.loads(metrics.read_text(encoding="utf-8"))["config"] if code == 0 else None
        return code, err, config

    @pytest.mark.parametrize(
        "flag, file_out, env, expected",
        [
            ("from_flag", "from_file", "from_env", "from_flag"),
            (None, "from_file", "from_env", "from_file"),
            (None, None, "from_env", "from_env"),
            (None, None, None, "."),
        ],
        ids=["flag", "file", "env", "cwd"],
    )
    def test_output_directory_precedence(
        self, tmp_path, monkeypatch, capsys, flag, file_out, env, expected
    ):
        monkeypatch.chdir(tmp_path)
        if env is None:
            monkeypatch.delenv("SLUMPGP_OUT", raising=False)
        else:
            monkeypatch.setenv("SLUMPGP_OUT", env)
        ini = SMALL_CONFIG + (f"\n[experiment]\nout = {file_out}\n" if file_out else "")
        (tmp_path / "exp.ini").write_text(ini, encoding="utf-8")
        argv = ["train", "--config", "exp.ini", *(["--out", flag] if flag else [])]
        assert run_cli(argv, capsys) == (0, "")
        candidates = ["from_flag", "from_file", "from_env", "."]
        assert [d for d in candidates if (tmp_path / d / "metrics.json").exists()] == [expected]
        metrics = json.loads((tmp_path / expected / "metrics.json").read_text(encoding="utf-8"))
        assert metrics["config"]["out_dir"] == expected

    def test_seed_flag_overrides_file(self, tmp_path, capsys):
        ini = SMALL_CONFIG + "\n[experiment]\nseed = 7\n"
        assert self.train(tmp_path, capsys, ini)[2]["master_seed"] == 7
        assert self.train(tmp_path, capsys, ini, "--seed", "3")[2]["master_seed"] == 3

    def test_every_engine_key_reaches_the_report(self, tmp_path, capsys):
        ini = ini_section("gsgp", GSGP_VALUES) + ini_section("stgp", STGP_VALUES)
        code, err, config = self.train(tmp_path, capsys, ini)
        assert (code, err) == (0, "")
        assert config["gsgp"] == GSGP_VALUES
        assert config["stgp"] == STGP_VALUES

    @pytest.mark.parametrize(
        "section, key",
        [
            ("experiment", "volcano"),
            ("gsgp", "volcano"),
            ("stgp", "volcano"),
            ("lssvm", "volcano"),
            ("gsgp", "rng_seed"),  # set from --seed only
            ("stgp", "rng_seed"),
        ],
    )
    def test_unknown_key_named(self, tmp_path, capsys, section, key):
        code, err, _ = self.train(tmp_path, capsys, f"[{section}]\n{key} = 3\n")
        assert_one_line_error(code, err)
        assert f"'{key}'" in err

    @pytest.mark.parametrize("section", ["gsgp", "stgp"])
    def test_non_integer_population_size_named(self, tmp_path, capsys, section):
        code, err, _ = self.train(tmp_path, capsys, f"[{section}]\npopulation_size = 12.5\n")
        assert_one_line_error(code, err)
        assert "population_size" in err and "'12.5'" in err

    @pytest.mark.parametrize(
        "word, value", [("on", True), ("off", False), ("yes", True), ("0", False)]
    )
    def test_grid_search_boolean_words(self, tmp_path, capsys, word, value):
        ini = SMALL_CONFIG + f"\n[lssvm]\ngrid_search = {word}\n"
        assert self.train(tmp_path, capsys, ini)[2]["lssvm_grid_search"] is value

    @pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
    @pytest.mark.parametrize(
        "section, key", [("gsgp", "mutation_step"), ("lssvm", "gamma"), ("lssvm", "sigma_sq")]
    )
    def test_non_finite_float_named(self, tmp_path, capsys, section, key, value):
        code, err, _ = self.train(tmp_path, capsys, f"[{section}]\n{key} = {value}\n")
        assert_one_line_error(code, err)
        assert key in err and repr(value) in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", ["train", "ols-baseline", "compare"])
    @pytest.mark.parametrize("key, value", [("gamma", "-1"), ("sigma_sq", "0")])
    def test_non_positive_lssvm_setting_named(self, tmp_path, capsys, command, key, value):
        (tmp_path / "exp.ini").write_text(
            SMALL_CONFIG + f"\n[lssvm]\n{key} = {value}\n", encoding="utf-8"
        )
        argv = [command, "--config", str(tmp_path / "exp.ini"), "--out", str(tmp_path / "o")]
        code, err = run_cli(argv, capsys)
        assert_one_line_error(code, err)
        assert f"[lssvm] {key} must be > 0" in err
        assert not (tmp_path / "o").exists()

    def test_grid_search_rejects_other_words(self, tmp_path, capsys):
        code, err, _ = self.train(tmp_path, capsys, SMALL_CONFIG + "\n[lssvm]\ngrid_search = maybe\n")
        assert_one_line_error(code, err)
        assert "grid_search" in err and "'maybe'" in err


LONG_RUN_CONFIG = """\
[gsgp]
population_size = 10
generations = 1500
tournament_size = 2
"""


class TestLongRun:
    def test_deep_ancestry_archives_and_replays(self, tmp_path, capsys):
        # A small population over many generations gives an ancestry
        # thousands of records deep, past any recursion limit.
        cfg = tmp_path / "long.ini"
        cfg.write_text(LONG_RUN_CONFIG, encoding="utf-8")
        argv = ["train", "--seed", "1", "--config", str(cfg), "--out", str(tmp_path / "t")]
        try:
            assert run_cli(argv, capsys) == (0, "")
        except RecursionError:
            # pytest's report would repr every frame's arguments, and the repr
            # of a record walks its ancestry as a tree, not as a DAG.
            pytest.fail("train exceeded the recursion limit", pytrace=False)
        model = json.loads((tmp_path / "t" / "model.json").read_text(encoding="utf-8"))
        assert len(model["model"]["records"]) > 2000

        _, test = split(builtin_table1(), SplitSpec(28))
        save_csv(test, tmp_path / "test.csv")
        argv = [
            "predict", str(tmp_path / "t" / "model.json"), str(tmp_path / "test.csv"),
            "--out", str(tmp_path / "p"),
        ]
        assert run_cli(argv, capsys) == (0, "")

        def computed(path):
            lines = path.read_text(encoding="utf-8").splitlines()[1:]
            return [line.split(",")[2] for line in lines]

        assert computed(tmp_path / "p" / "predictions.csv") == computed(
            tmp_path / "t" / "predictions.csv"
        )
