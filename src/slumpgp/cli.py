"""Experiment harness: train, predict, compare, ols-baseline.

Every command's artifacts are a deterministic function of its resolved
configuration — repeated invocations produce byte-identical artifacts.
Configuration comes from an INI-style file plus command-line overrides
(flags win over the file, the file over the SLUMPGP_OUT environment variable
for the output directory). A GP run's seed is an argument of its engine:
the master seed for `train`, master seed + i for run i of `compare`.
`compare` runs its GP runs as one job list (see `jobs`) on one worker process
per usable CPU, a count that appears in no artifact. Numbers in CSV files
carry 6 significant digits; JSON reports keep full precision.
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
    lssvm_fit,
    lssvm_grid_search,
    lssvm_predict,
    ols_fit,
    ols_predict,
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
from .jobs import Job, WorkerError, run_jobs
from .stats import (
    PairedSeries,
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


def _resolve_config(args: argparse.Namespace) -> ExperimentConfig:
    file_vals = _parse_config_file(args.config) if args.config else {}
    exp = file_vals.get("experiment", {})
    ls = file_vals.get("lssvm", {})

    def pick(flag_value, key, default):
        if flag_value is not None:
            return flag_value
        return exp.get(key, default)

    return ExperimentConfig(
        dataset=pick(args.dataset, "dataset", "builtin"),
        train_size=pick(args.train_size, "train_size", 28),
        runs=pick(getattr(args, "runs", None), "runs", 50),
        master_seed=pick(args.seed, "seed", 42),
        out_dir=args.out or exp.get("out") or os.environ.get(OUT_DIR_ENV) or ".",
        gsgp=GsgpConfig(**file_vals.get("gsgp", {})),
        stgp=StgpConfig(**file_vals.get("stgp", {})),
        lssvm_gamma=ls.get("gamma", LSSVM_GAMMA),
        lssvm_sigma_sq=ls.get("sigma_sq", LSSVM_SIGMA_SQ),
        lssvm_grid_search=ls.get("grid_search", False),
    )


def _load_split(cfg: ExperimentConfig) -> tuple[Dataset, Dataset]:
    data = builtin_table1() if cfg.dataset == "builtin" else load_csv(cfg.dataset)
    return split(data, SplitSpec(cfg.train_size))


def _fmt(v: float) -> str:
    return f"{float(v):.6g}"


def _write_lines(path: str, lines: list[str]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def _prediction_rows(pairs: PairedSeries, rels, first_no: int) -> list[str]:
    """predictions.csv lines under PREDICTIONS_HEADER, numbered from first_no."""
    return [
        f"{first_no + i},{_fmt(actual)},{_fmt(pred)},{_fmt(rel)}"
        for i, (actual, pred, rel) in enumerate(zip(pairs.experimental, pairs.computational, rels))
    ]


def _write_json(path: str, payload: dict) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _safe_rmse(actual: np.ndarray, predicted: np.ndarray) -> float:
    """RMSE that degrades to +inf when predictions blew up numerically."""
    predicted = np.asarray(predicted, dtype=float)
    if not np.isfinite(predicted).all():
        return math.inf
    return rmse(PairedSeries(tuple(actual), tuple(predicted)))


def _cmd_train(args: argparse.Namespace) -> int:
    cfg = _resolve_config(args)
    train, test = _load_split(cfg)
    result = evolve(cfg.gsgp, train, test, cfg.master_seed)

    # Every statistic that can fail is taken before the first file is written.
    pairs = PairedSeries(tuple(test.targets), tuple(result.predictions))
    rels = relative_errors(pairs)
    metrics = {
        "schema_version": SCHEMA_VERSION,
        "config": asdict(cfg),
        "pearson_r": pearson_r(pairs),
        "rmse": rmse(pairs),
        "max_relative_error": max(rels),
    }
    os.makedirs(cfg.out_dir, exist_ok=True)

    curve = ["generation,train_fitness,test_fitness"]
    for gen, st in enumerate(result.history):
        curve.append(f"{gen},{_fmt(st.train_fitness)},{_fmt(st.test_fitness)}")
    _write_lines(os.path.join(cfg.out_dir, "fitness_curve.csv"), curve)

    _write_lines(
        os.path.join(cfg.out_dir, "predictions.csv"),
        [PREDICTIONS_HEADER, *_prediction_rows(pairs, rels, cfg.train_size + 1)],
    )

    _write_json(
        os.path.join(cfg.out_dir, "model.json"),
        {
            "schema_version": SCHEMA_VERSION,
            "kind": "gsgp",
            "model": archive_individual(result.best),
        },
    )
    _write_json(os.path.join(cfg.out_dir, "metrics.json"), metrics)
    return 0


def _load_model(path: str) -> dict:
    """The archived GSGP individual of a model file `train` wrote."""
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise CliError(f"corrupt model file {path}: {exc}") from None
    if not isinstance(doc, dict) or "kind" not in doc or "model" not in doc:
        raise CliError(f"model file {path} lacks 'kind'/'model' fields")
    if doc["kind"] != "gsgp":
        raise CliError(f"unknown model kind {doc['kind']!r}")
    return doc["model"]


def _cmd_predict(args: argparse.Namespace) -> int:
    payload = _load_model(args.model)
    out_dir = args.out or os.environ.get(OUT_DIR_ENV) or "."

    labeled, samples = read_csv(args.input)
    lines = [PREDICTIONS_HEADER if labeled else "sample_no,computation"]
    if samples:
        ds = Dataset(samples)
        predictions = replay_semantics(payload, ds)
        if labeled:
            pairs = PairedSeries(tuple(ds.targets), tuple(predictions))
            lines += _prediction_rows(pairs, relative_errors(pairs), 1)
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
    if not train.has_targets:
        raise CliError("comparison requires labeled data")
    seeds = [cfg.master_seed + i for i in range(cfg.runs)]

    # LS-SVM goes first, so a bad setting fails before any GP run starts.
    if cfg.lssvm_grid_search:
        gamma, sigma_sq, _ = lssvm_grid_search(train)
    else:
        gamma, sigma_sq = cfg.lssvm_gamma, cfg.lssvm_sigma_sq
    svm = lssvm_fit(train, gamma, sigma_sq)
    svm_test_rmse = _safe_rmse(
        test.targets, np.array([lssvm_predict(svm, row) for row in test.features])
    )
    svm_train_rmse = _safe_rmse(
        train.targets, np.array([lssvm_predict(svm, row) for row in train.features])
    )

    jobs = [
        Job(method, engine_cfg, seed, train, test)
        for seed in seeds
        for method, engine_cfg in (("gsgp", cfg.gsgp), ("stgp", cfg.stgp))
    ]
    # The engines are looked up here, so a wrapper put on this module's
    # `evolve` or `stgp_run` sees every run (and keeps the runs in-process).
    engines = {"gsgp": evolve, "stgp": stgp_run}
    results = run_jobs(jobs, engines)
    test_rmse = {"gsgp": [], "stgp": [], "lssvm": [svm_test_rmse] * cfg.runs}
    train_rmse = {"gsgp": [], "stgp": [], "lssvm": [svm_train_rmse] * cfg.runs}
    for job, sem in zip(jobs, results):
        test_rmse[job.method].append(_safe_rmse(test.targets, sem[len(train) :]))
        train_rmse[job.method].append(_safe_rmse(train.targets, sem[: len(train)]))

    os.makedirs(cfg.out_dir, exist_ok=True)
    table = ["run,seed,gsgp,stgp,lssvm"]
    for i, seed in enumerate(seeds):
        cells = ",".join(_fmt(test_rmse[alg][i]) for alg in ("gsgp", "stgp", "lssvm"))
        table.append(f"{i},{seed},{cells}")
    _write_lines(os.path.join(cfg.out_dir, "comparison.csv"), table)

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
    _write_json(os.path.join(cfg.out_dir, "report.json"), report)
    return 0


def _cmd_ols_baseline(args: argparse.Namespace) -> int:
    cfg = _resolve_config(args)
    train, test = _load_split(cfg)
    result = evolve(cfg.gsgp, train, test, cfg.master_seed)
    model = ols_fit(train)
    ols_preds = [ols_predict(model, row) for row in test.features]

    os.makedirs(cfg.out_dir, exist_ok=True)
    lines = ["sample_no,experiment,gsgp,ols"]
    for i in range(len(test)):
        lines.append(
            f"{cfg.train_size + i + 1},{_fmt(test.targets[i])},"
            f"{_fmt(result.predictions[i])},{_fmt(ols_preds[i])}"
        )
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
