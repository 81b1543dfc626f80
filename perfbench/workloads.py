"""The benchmark's workloads: set-up, per-invocation CLI arguments, output checks.

Why these three (see README.md for the layer map):

* train        -- `slumpgp train` at the default config. The GSGP engine's hot
                  path on narrow (28- and 6-row) matrices; STGP, LS-SVM and CSV
                  loading do not run.
* compare      -- `slumpgp compare --runs 5` at pop 200 x 30 gens with the LS-SVM
                  grid search on. The paper's experiment in small; STGP and its
                  subtree grafts dominate.
* predict-wide -- `slumpgp predict` replaying the default-config model on a
                  generated 20,000-row labeled CSV. The read side of the archive,
                  with wide matrices, CSV validation and replay memory.

Invocation i of a run gets inputs of its own, so no invocation sees inputs an
earlier one in the same process saw. Two inputs are the same for every
workload seed, because their cost swings so much from seed to seed that the
spread of a run would be mostly input, not program:

* predict-wide replays the default-config (seed 42) model; across training
  seeds the record count, and with it replay time and memory, ranged from
  1696 to 2789 (seeds 1-10).
* compare invocation i runs the fixed seed block 42 + 5i ... 46 + 5i; the STGP
  time of one seed has a coefficient of variation of 0.51.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os
import shutil
from dataclasses import dataclass
from pathlib import Path
from random import Random

from slumpgp import cli
from slumpgp.dataset import Dataset, Sample, SplitSpec, builtin_table1, split
from slumpgp.gsgp import replay_semantics

WORK = ".perfbench_work"  # relative to the checkout root, the working directory
OUT = os.path.join(WORK, "out")
SETUP = os.path.join(WORK, "setup")
WIDE_CSV = os.path.join(WORK, "wide.csv")
DEFAULT_SEED = 42
GOLDENS = Path(__file__).resolve().parent / "goldens.json"
TRAIN_SIZE = 28


@dataclass(frozen=True)
class Sizes:
    train_config: str  # INI text for train and for the predict-wide model; "" = defaults
    train_generations: int
    compare_config: str
    compare_runs: int
    wide_rows: int


FULL = Sizes(
    train_config="",
    train_generations=50,
    compare_config=(
        "[gsgp]\npopulation_size = 200\ngenerations = 30\n"
        "[stgp]\npopulation_size = 200\ngenerations = 30\n"
        "[lssvm]\ngrid_search = true\n"
    ),
    compare_runs=5,
    wide_rows=20_000,
)

SMOKE = Sizes(
    train_config="[gsgp]\npopulation_size = 30\ngenerations = 5\n",
    train_generations=5,
    compare_config=(
        "[gsgp]\npopulation_size = 20\ngenerations = 3\n"
        "[stgp]\npopulation_size = 20\ngenerations = 3\n"
        "[lssvm]\ngrid_search = true\n"
    ),
    compare_runs=2,
    wide_rows=300,
)


def fmt(v: float) -> str:
    """The CLI's CSV number format: 6 significant digits."""
    return f"{float(v):.6g}"


def read_csv(path: str) -> list[list[str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


def artifact_hashes(out_dir: str) -> dict[str, str]:
    """SHA-256 of every file an invocation wrote, keyed by file name."""
    hashes = {}
    for name in sorted(os.listdir(out_dir)) if os.path.isdir(out_dir) else ():
        with open(os.path.join(out_dir, name), "rb") as fh:
            hashes[name] = hashlib.sha256(fh.read()).hexdigest()
    return hashes


def artifact_bytes(out_dir: str) -> int:
    names = os.listdir(out_dir) if os.path.isdir(out_dir) else ()
    return sum(os.path.getsize(os.path.join(out_dir, n)) for n in names)


class Workload:
    """One workload at one seed; `setup` runs in a fresh process before timing."""

    name = ""
    # Every run completes this many invocations, and the reported means cover
    # exactly these. So every run of a workload averages the same invocation
    # positions, however fast the machine is at the time; invocations after
    # them keep the loop going until --seconds have passed and are only checked.
    measured_ops = 15
    seeded = True  # whether the workload seed changes the inputs

    def __init__(self, seed: int, smoke: bool):
        self.seed = seed
        self.smoke = smoke
        self.sizes = SMOKE if smoke else FULL
        self._goldens = self._load_goldens()

    def _load_goldens(self) -> list[dict]:
        if (self.seeded and self.seed != DEFAULT_SEED) or not GOLDENS.exists():
            return []
        doc = json.loads(GOLDENS.read_text(encoding="utf-8"))
        return doc.get("smoke" if self.smoke else "full", {}).get(self.name, [])

    def cli_seed(self, i: int) -> int:
        return self.seed + 1000 * i

    def _config_args(self, text: str, file_name: str) -> list[str]:
        return ["--config", os.path.join(SETUP, file_name)] if text else []

    def setup(self) -> None:
        shutil.rmtree(SETUP, ignore_errors=True)
        os.makedirs(SETUP)
        for text, file_name in (
            (self.sizes.train_config, "train.ini"),
            (self.sizes.compare_config, "compare.ini"),
        ):
            if text:
                Path(SETUP, file_name).write_text(text, encoding="utf-8")

    def argv(self, i: int) -> list[str]:
        """Prepare invocation i's inputs (untimed) and return its CLI arguments."""
        raise NotImplementedError

    def check(self, i: int, hashes: dict[str, str]) -> list[str]:
        """Problems with invocation i's artifacts in OUT; empty when correct."""
        problems = []
        if i < len(self._goldens) and hashes != self._goldens[i]:
            problems.append(f"artifacts differ from the goldens of invocation {i}")
        try:
            problems += self._check_outputs(i)
        except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
            problems.append(f"unreadable artifacts: {exc!r}")
        return problems

    def _check_outputs(self, i: int) -> list[str]:
        raise NotImplementedError


def _replay_problems(model_path: str, ds: Dataset, rows: list[list[str]], sample_nos):
    """Compare prediction rows against a replay of the archived model on ds."""
    with open(model_path, encoding="utf-8") as fh:
        replayed = replay_semantics(json.load(fh)["model"], ds)
    for row, no, actual, pred in zip(rows, sample_nos, ds.targets, replayed):
        want = [str(no), fmt(actual), fmt(pred), fmt(abs(pred - actual) / abs(actual))]
        if row != want:
            return [f"prediction row {row} != replay {want}"]
    return []


class Train(Workload):
    name = "train"

    def argv(self, i):
        cfg = self._config_args(self.sizes.train_config, "train.ini")
        return ["train", *cfg, "--seed", str(self.cli_seed(i)), "--out", OUT]

    def _check_outputs(self, i):
        problems = []
        curve = read_csv(os.path.join(OUT, "fitness_curve.csv"))
        if len(curve) != self.sizes.train_generations + 2:
            problems.append(f"fitness_curve.csv has {len(curve)} lines")
        _, test = split(builtin_table1(), SplitSpec(TRAIN_SIZE))
        preds = read_csv(os.path.join(OUT, "predictions.csv"))
        if len(preds) != len(test) + 1:
            problems.append(f"predictions.csv has {len(preds)} lines")
        problems += _replay_problems(
            os.path.join(OUT, "model.json"), test, preds[1:],
            range(TRAIN_SIZE + 1, TRAIN_SIZE + 1 + len(test)),
        )
        with open(os.path.join(OUT, "metrics.json"), encoding="utf-8") as fh:
            metrics = json.load(fh)
        if metrics["config"]["master_seed"] != self.cli_seed(i):
            problems.append("metrics.json records another seed")
        return problems


class Compare(Workload):
    name = "compare"
    measured_ops = 6
    seeded = False

    def cli_seed(self, i):
        return DEFAULT_SEED + self.sizes.compare_runs * i

    def argv(self, i):
        cfg = self._config_args(self.sizes.compare_config, "compare.ini")
        runs = str(self.sizes.compare_runs)
        return ["compare", *cfg, "--seed", str(self.cli_seed(i)), "--runs", runs, "--out", OUT]

    def _check_outputs(self, i):
        with open(os.path.join(OUT, "report.json"), encoding="utf-8") as fh:
            report = json.load(fh)
        seeds = [self.cli_seed(i) + k for k in range(self.sizes.compare_runs)]
        want = [["run", "seed", "gsgp", "stgp", "lssvm"]]
        for k, seed in enumerate(seeds):
            cells = [fmt(report["test_rmse"][alg][k]) for alg in ("gsgp", "stgp", "lssvm")]
            want.append([str(k), str(seed), *cells])
        problems = []
        if report["seeds"] != seeds:
            problems.append(f"report.json seeds {report['seeds']} != {seeds}")
        if read_csv(os.path.join(OUT, "comparison.csv")) != want:
            problems.append("comparison.csv disagrees with report.json")
        medians = {alg: box["median"] for alg, box in report["box_test_rmse"].items()}
        if report["ordering_by_median_test_rmse"] != sorted(medians, key=lambda a: (medians[a], a)):
            problems.append("report.json ordering disagrees with its box medians")
        return problems


class PredictWide(Workload):
    name = "predict-wide"
    checked_rows = 64  # rows replayed independently per invocation

    def setup(self):
        super().setup()
        cfg = self._config_args(self.sizes.train_config, "train.ini")
        if cli.main(["train", *cfg, "--out", os.path.join(SETUP, "model")]) != 0:
            raise RuntimeError("training the model to replay failed")

    def argv(self, i):
        table = builtin_table1()
        lo, hi = table.features.min(axis=0).tolist(), table.features.max(axis=0).tolist()
        slump_lo, slump_hi = float(table.targets.min()), float(table.targets.max())
        rng = Random(f"predict-wide:{self.seed}:{i}")
        rows = []
        for _ in range(self.sizes.wide_rows):
            values = [rng.uniform(a, b) for a, b in zip(lo, hi)]
            values.append(rng.uniform(slump_lo, slump_hi))
            rows.append([f"{v:.3f}" for v in values])
        with open(WIDE_CSV, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(table.feature_names + ("slump",))
            writer.writerows(rows)
        self._rows = rows
        model = os.path.join(SETUP, "model", "model.json")
        return ["predict", model, WIDE_CSV, "--out", OUT]

    def _check_outputs(self, i):
        preds = read_csv(os.path.join(OUT, "predictions.csv"))
        if len(preds) != len(self._rows) + 1:
            return [f"predictions.csv has {len(preds)} lines for {len(self._rows)} rows"]
        picks = sorted(Random(f"check:{self.seed}:{i}").sample(
            range(len(self._rows)), min(self.checked_rows, len(self._rows))))
        samples = []
        for k in picks:
            values = [float(v) for v in self._rows[k]]
            samples.append(Sample(*values[:8], slump=values[8]))
        return _replay_problems(
            os.path.join(SETUP, "model", "model.json"), Dataset(tuple(samples)),
            [preds[k + 1] for k in picks], [k + 1 for k in picks],
        )


WORKLOADS = {w.name: w for w in (Train, Compare, PredictWide)}

