"""Experiment harness: train, predict, compare, ols-baseline.

Every command's artifacts are a deterministic function of its resolved
configuration — repeated invocations produce byte-identical artifacts.
Configuration comes from an INI-style file plus command-line overrides
(flags win over the file, the file over the SLUMPGP_OUT environment variable
for the output directory). A GP run's seed is an argument of its engine:
the master seed for `train`, master seed + i for run i of `compare`.
`compare` and `ols-baseline` fit every method as one job list (see `jobs`),
on one worker process per usable CPU, a count that appears in no artifact.
Numbers in CSV files carry 6 significant digits; JSON reports keep full
precision. A number that is not finite, such as the RMSE of predictions
that overflowed (see `stats` for what each metric makes of one), is
spelled as `_fmt` gives it in CSV files (inf, nan) and written as null in
JSON, which has no other spelling for it.
"""

from __future__ import annotations

import argparse
import configparser
import json
import math
import os
import sys
from dataclasses import asdict, dataclass, fields

import numpy as np

from .baselines import (
    BaselineError,
    LSSVM_GAMMA,
    LSSVM_SIGMA_SQ,
    StgpConfig,
    lssvm_grid_search,
    stgp_run,
)
from .dataset import (
    Dataset,
    DatasetError,
    SplitSpec,
    builtin_table1,
    load_csv,
    read_csv,
    split,
)
from .gsgp import (
    GsgpConfig,
    GsgpError,
    archive_individual,
    evolve,
    load_ancestry,
    replay_semantics,
)
from .jobs import ENGINES, Job, WorkerError, run_jobs
from .stats import (
    StatsError,
    box_summary,
    pearson_r,
    relative_errors,
    rmse,
    wilcoxon_rank_sum,
)

OUT_DIR_ENV = "SLUMPGP_OUT"
PREDICTIONS_HEADER = "sample_no,experiment,computation,relative_error"
SCHEMA_VERSION = 1


class CliError(ValueError):
    """Bad command-line usage, config file, or artifact input."""


@dataclass(frozen=True)
class ExperimentConfig:
    """Fully resolved experiment settings, as embedded in every report."""

    dataset: str = "builtin"
    train_size: int = 28
    runs: int = 50
    master_seed: int = 42
    out_dir: str = "."
    gsgp: GsgpConfig = GsgpConfig()
    stgp: StgpConfig = StgpConfig()
    lssvm_gamma: float = LSSVM_GAMMA
    lssvm_sigma_sq: float = LSSVM_SIGMA_SQ
    lssvm_grid_search: bool = False

    def __post_init__(self):
        if self.runs < 1:
            raise CliError(f"runs must be >= 1, got {self.runs}")
        if self.train_size < 1:
            raise CliError(f"train_size must be >= 1, got {self.train_size}")
        if not self.lssvm_gamma > 0:
            raise CliError(f"[lssvm] gamma must be > 0, got {self.lssvm_gamma}")
        if not self.lssvm_sigma_sq > 0:
            raise CliError(f"[lssvm] sigma_sq must be > 0, got {self.lssvm_sigma_sq}")


_SECTIONS: dict[str, dict[str, type]] = {
    "experiment": {
        "dataset": str,
        "train_size": int,
        "runs": int,
        "seed": int,
        "out": str,
    },
    **{
        section: {f.name: type(f.default) for f in fields(cls)}
        for section, cls in (("gsgp", GsgpConfig), ("stgp", StgpConfig))
    },
    "lssvm": {
        "gamma": float,
        "sigma_sq": float,
        "grid_search": bool,
    },
}


def _parse_config_file(path: str) -> dict[str, dict]:
    parser = configparser.ConfigParser(interpolation=None)
    try:
        with open(path, encoding="utf-8") as fh:
            parser.read_file(fh)
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise CliError(f"cannot parse config file {path}: {exc}") from None
    values: dict[str, dict] = {}
    for section in parser.sections():
        known = _SECTIONS.get(section)
        if known is None:
            raise CliError(f"unknown config section [{section}]")
        out: dict = {}
        for key, raw in parser.items(section):
            typ = known.get(key)
            if typ is None:
                raise CliError(f"unknown key '{key}' in section [{section}]")
            if typ is bool:
                parsed = parser.BOOLEAN_STATES.get(raw.strip().lower())
                if parsed is None:
                    raise CliError(f"[{section}] {key}: expected a boolean, got {raw!r}")
                out[key] = parsed
            else:
                try:
                    out[key] = typ(raw)
                except ValueError:
                    raise CliError(
                        f"[{section}] {key}: cannot parse {raw!r} as {typ.__name__}"
                    ) from None
                if typ is float and not math.isfinite(out[key]):
                    raise CliError(f"[{section}] {key}: expected a finite number, got {raw!r}")
        values[section] = out
    return values


# Config keys and flags whose ExperimentConfig field has another name.
_FIELD_NAMES = {
    "seed": "master_seed",
    "gamma": "lssvm_gamma",
    "sigma_sq": "lssvm_sigma_sq",
    "grid_search": "lssvm_grid_search",
}


def _resolve_config(args: argparse.Namespace) -> ExperimentConfig:
    file_vals = _parse_config_file(args.config) if args.config else {}
    exp = file_vals.get("experiment", {})
    flags = {
        "dataset": args.dataset,
        "train_size": args.train_size,
        "runs": getattr(args, "runs", None),
        "seed": args.seed,
    }
    given = {**exp, **file_vals.get("lssvm", {})}
    given.update((key, value) for key, value in flags.items() if value is not None)
    given.pop("out", None)
    return ExperimentConfig(
        out_dir=args.out or exp.get("out") or os.environ.get(OUT_DIR_ENV) or ".",
        gsgp=GsgpConfig(**file_vals.get("gsgp", {})),
        stgp=StgpConfig(**file_vals.get("stgp", {})),
        **{_FIELD_NAMES.get(key, key): value for key, value in given.items()},
    )


def _load_split(cfg: ExperimentConfig) -> tuple[Dataset, Dataset]:
    data = builtin_table1() if cfg.dataset == "builtin" else load_csv(cfg.dataset)
    return split(data, SplitSpec(cfg.train_size))


def _fmt(v: float) -> str:
    return f"{float(v):.6g}"


def _write_lines(path: str, lines: list[str]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def _prediction_rows(targets: np.ndarray, predictions: np.ndarray, first_no: int) -> list[str]:
    """predictions.csv lines under PREDICTIONS_HEADER, numbered from first_no.

    A prediction that is not finite is written too, as `nan` or `inf`, and
    so is its relative error.
    """
    actual, computed = targets.tolist(), predictions.tolist()
    return [
        f"{first_no + i},{_fmt(y)},{_fmt(p)},{_fmt(e)}"
        for i, (y, p, e) in enumerate(zip(actual, computed, relative_errors(actual, computed)))
    ]


def _finite_or_null(value):
    """value with every float in it that is not finite replaced by None."""
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {k: _finite_or_null(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_finite_or_null(v) for v in value]
    return value


def _write_json(path: str, payload: dict) -> None:
    text = json.dumps(_finite_or_null(payload), indent=2, sort_keys=True, allow_nan=False)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text + "\n")


def _engines() -> dict:
    """`jobs.ENGINES`, with this module's `evolve` and `stgp_run` looked up at each call.

    A wrapper put on either (a profiler's) then sees every run: the dict
    differs from ENGINES, so `run_jobs` keeps the runs in this process.
    Unwrapped, it equals ENGINES and the runs go to workers; a key missing
    here would make it differ and silently keep every run in-process.
    """
    return {**ENGINES, "gsgp": evolve, "stgp": stgp_run}


def _cmd_train(args: argparse.Namespace) -> int:
    cfg = _resolve_config(args)
    train, test = _load_split(cfg)
    result = evolve(cfg.gsgp, train, test, cfg.master_seed)

    # Every statistic that can fail is taken before the first file is written.
    predictions = result.semantics[len(train) :]
    metrics = {
        "schema_version": SCHEMA_VERSION,
        "config": asdict(cfg),
        "pearson_r": pearson_r(test.targets, predictions),
        "rmse": rmse(test.targets, predictions),
        "max_relative_error": max(relative_errors(test.targets, predictions)),
    }
    os.makedirs(cfg.out_dir, exist_ok=True)

    curve = ["generation,train_fitness,test_fitness"]
    for gen, st in enumerate(result.history):
        curve.append(f"{gen},{_fmt(st.train_fitness)},{_fmt(st.test_fitness)}")
    _write_lines(os.path.join(cfg.out_dir, "fitness_curve.csv"), curve)

    _write_lines(
        os.path.join(cfg.out_dir, "predictions.csv"),
        [PREDICTIONS_HEADER, *_prediction_rows(test.targets, predictions, cfg.train_size + 1)],
    )

    _write_json(
        os.path.join(cfg.out_dir, "model.json"),
        {
            "schema_version": SCHEMA_VERSION,
            "kind": "gsgp",
            "model": archive_individual(result.ancestry),
        },
    )
    _write_json(os.path.join(cfg.out_dir, "metrics.json"), metrics)
    return 0


def _load_model(path: str) -> dict:
    """The archived GSGP individual of a model file `train` wrote."""
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
        # json.load recurses once per nesting level of arrays and objects.
        raise CliError(f"corrupt model file {path}: {exc}") from None
    if not isinstance(doc, dict) or "kind" not in doc or "model" not in doc:
        raise CliError(f"model file {path} lacks 'kind'/'model' fields")
    if doc["kind"] != "gsgp":
        raise CliError(f"unknown model kind {doc['kind']!r}")
    return doc["model"]


def _read_input(path) -> tuple[bool, Dataset | None]:
    """predict's input CSV: whether it is labeled, and its rows, or None if none.

    The features are column-major, so every `var` leaf that `eval_matrix`
    reads is one contiguous column rather than a strided walk over all of
    X; the values are the same, and so is every prediction, bit for bit.
    `read_csv`'s arrays are views of its row-major table. They are copied
    here, column-major, and the table is let go before `Dataset` copies
    them again: at most two copies of the input live at once, and the
    replay holds one.
    """
    labeled, features, targets = read_csv(path)
    if not len(features):
        return labeled, None
    features = np.asfortranarray(features)
    targets = None if targets is None else targets.copy()
    return labeled, Dataset(features, targets)


def _cmd_predict(args: argparse.Namespace) -> int:
    payload = _load_model(args.model)
    out_dir = args.out or os.environ.get(OUT_DIR_ENV) or "."

    labeled, ds = _read_input(args.input)
    lines = [PREDICTIONS_HEADER if labeled else "sample_no,computation"]
    if ds is not None:
        predictions = replay_semantics(payload, ds)
        if labeled:
            lines += _prediction_rows(ds.targets, predictions, 1)
        else:
            lines += [f"{i + 1},{_fmt(pred)}" for i, pred in enumerate(predictions)]
    else:
        load_ancestry(payload)  # no row to replay, but a corrupt model still fails
    os.makedirs(out_dir, exist_ok=True)
    _write_lines(os.path.join(out_dir, "predictions.csv"), lines)
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    cfg = _resolve_config(args)
    train, test = _load_split(cfg)
    seeds = [cfg.master_seed + i for i in range(cfg.runs)]

    if cfg.lssvm_grid_search:
        gamma, sigma_sq, _ = lssvm_grid_search(train)
    else:
        gamma, sigma_sq = cfg.lssvm_gamma, cfg.lssvm_sigma_sq
    # LS-SVM goes first: a failed fit, on unlabeled rows too, stops the GP runs
    # not yet started. It does not depend on the seed: one job, replicated.
    jobs = [Job("lssvm", (gamma, sigma_sq), cfg.master_seed, train, test)] + [
        Job(method, engine_cfg, seed, train, test)
        for seed in seeds
        for method, engine_cfg in (("gsgp", cfg.gsgp), ("stgp", cfg.stgp))
    ]
    test_rmse = {"gsgp": [], "stgp": [], "lssvm": []}
    train_rmse = {"gsgp": [], "stgp": [], "lssvm": []}
    for job, sem in zip(jobs, run_jobs(jobs, _engines())):
        test_rmse[job.method].append(rmse(test.targets, sem[len(train) :]))
        train_rmse[job.method].append(rmse(train.targets, sem[: len(train)]))
    test_rmse["lssvm"] *= cfg.runs
    train_rmse["lssvm"] *= cfg.runs

    # Every statistic that can fail is taken before the first file is written.
    boxes = {alg: box_summary(values) for alg, values in test_rmse.items()}
    medians = {alg: boxes[alg].median for alg in boxes}
    wilcoxon = {
        "gsgp_vs_stgp": wilcoxon_rank_sum(test_rmse["gsgp"], test_rmse["stgp"]),
        "gsgp_vs_svm": wilcoxon_rank_sum(test_rmse["gsgp"], test_rmse["lssvm"]),
        "stgp_vs_svm": wilcoxon_rank_sum(test_rmse["stgp"], test_rmse["lssvm"]),
    }
    report = {
        "schema_version": SCHEMA_VERSION,
        "config": asdict(cfg),
        "seeds": seeds,
        "lssvm": {
            "gamma": gamma,
            "sigma_sq": sigma_sq,
            "grid_search": cfg.lssvm_grid_search,
            "replicated": True,
        },
        "test_rmse": test_rmse,
        "train_rmse": train_rmse,
        "box_test_rmse": {alg: asdict(box) for alg, box in boxes.items()},
        "wilcoxon_test_rmse": {pair: asdict(res) for pair, res in wilcoxon.items()},
        "ordering_by_median_test_rmse": sorted(medians, key=lambda a: (medians[a], a)),
    }
    os.makedirs(cfg.out_dir, exist_ok=True)
    table = ["run,seed,gsgp,stgp,lssvm"]
    for i, seed in enumerate(seeds):
        cells = ",".join(_fmt(test_rmse[alg][i]) for alg in ("gsgp", "stgp", "lssvm"))
        table.append(f"{i},{seed},{cells}")
    _write_lines(os.path.join(cfg.out_dir, "comparison.csv"), table)
    _write_json(os.path.join(cfg.out_dir, "report.json"), report)
    return 0


def _cmd_ols_baseline(args: argparse.Namespace) -> int:
    cfg = _resolve_config(args)
    train, test = _load_split(cfg)
    jobs = [
        Job("ols", (), cfg.master_seed, train, test),
        Job("gsgp", cfg.gsgp, cfg.master_seed, train, test),
    ]
    ols_preds, gsgp_preds = (sem[len(train) :] for sem in run_jobs(jobs, _engines()))

    os.makedirs(cfg.out_dir, exist_ok=True)
    lines = ["sample_no,experiment,gsgp,ols"] + [
        f"{cfg.train_size + i + 1},{_fmt(actual)},{_fmt(gsgp)},{_fmt(ols)}"
        for i, (actual, gsgp, ols) in enumerate(zip(test.targets, gsgp_preds, ols_preds))
    ]
    _write_lines(os.path.join(cfg.out_dir, "baseline_predictions.csv"), lines)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="slumpgp",
        description="Semantic GP slump regression experiments and baselines.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", metavar="PATH", help="INI-style experiment config")
        p.add_argument("--seed", type=int, metavar="N", help="master random seed")
        p.add_argument("--out", metavar="DIR", help="output directory")
        p.add_argument(
            "--dataset", metavar="SOURCE", help="'builtin' or a CSV file path"
        )
        p.add_argument(
            "--train-size", type=int, dest="train_size", metavar="N",
            help="rows used for training; the rest test",
        )

    p_train = sub.add_parser("train", help="one GSGP run: curve, predictions, model")
    add_common(p_train)
    p_train.set_defaults(func=_cmd_train)

    p_predict = sub.add_parser("predict", help="apply a saved model to a CSV")
    p_predict.add_argument("model", help="model.json produced by train")
    p_predict.add_argument("input", help="CSV of feature rows (slump optional)")
    p_predict.add_argument("--out", metavar="DIR", help="output directory")
    p_predict.set_defaults(func=_cmd_predict)

    p_compare = sub.add_parser(
        "compare", help="multi-run GSGP/STGP/LS-SVM comparison report"
    )
    add_common(p_compare)
    p_compare.add_argument("--runs", type=int, metavar="N", help="number of runs")
    p_compare.set_defaults(func=_cmd_compare)

    p_ols = sub.add_parser(
        "ols-baseline", help="GSGP vs linear-regression test predictions"
    )
    add_common(p_ols)
    p_ols.set_defaults(func=_cmd_ols_baseline)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (
        DatasetError, GsgpError, BaselineError, StatsError, CliError, WorkerError, OSError
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
