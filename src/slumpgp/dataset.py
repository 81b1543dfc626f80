"""Recycled-concrete slump data: loading, validation, splitting, scaling.

Each sample is a mix proportioning (eight mass quantities, kg/m^3) plus an
optional measured slump (mm). The built-in table is the 34-mix laboratory
dataset used throughout the experiments; rows 1-28 conventionally train,
rows 29-34 test.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

FEATURE_NAMES = (
    "cement",
    "fly_ash",
    "water",
    "sand",
    "stone",
    "water_reducer",
    "recycled_aggregate",
    "total_mass",
)

CSV_HEADER = FEATURE_NAMES + ("slump",)


class DatasetError(ValueError):
    """Malformed dataset file or invalid sample values."""


@dataclass(frozen=True)
class Sample:
    """One concrete mix; feature order matches FEATURE_NAMES."""

    cement: float
    fly_ash: float
    water: float
    sand: float
    stone: float
    water_reducer: float
    recycled_aggregate: float
    total_mass: float
    slump: float | None = None

    def __post_init__(self):
        for name, v in zip(FEATURE_NAMES, self.features()):
            if not (isinstance(v, (int, float)) and math.isfinite(v)):
                raise DatasetError(f"{name} must be finite, got {v!r}")
            if v < 0:
                raise DatasetError(f"{name} must be >= 0, got {v!r}")
        if self.slump is not None:
            if not (isinstance(self.slump, (int, float)) and math.isfinite(self.slump)):
                raise DatasetError(f"slump must be finite, got {self.slump!r}")
            if self.slump <= 0:
                raise DatasetError(f"slump must be > 0, got {self.slump!r}")

    def features(self) -> tuple[float, ...]:
        return (
            self.cement,
            self.fly_ash,
            self.water,
            self.sand,
            self.stone,
            self.water_reducer,
            self.recycled_aggregate,
            self.total_mass,
        )


@dataclass(frozen=True)
class Dataset:
    """An ordered collection of samples, all labeled or all unlabeled."""

    samples: tuple[Sample, ...]

    def __post_init__(self):
        if not self.samples:
            raise DatasetError("dataset must contain at least one sample")
        labeled = [s.slump is not None for s in self.samples]
        if any(labeled) and not all(labeled):
            raise DatasetError("dataset mixes labeled and unlabeled samples")

    def __len__(self) -> int:
        return len(self.samples)

    @property
    def feature_names(self) -> tuple[str, ...]:
        return FEATURE_NAMES

    @property
    def has_targets(self) -> bool:
        return self.samples[0].slump is not None

    @cached_property
    def features(self) -> np.ndarray:
        """Feature matrix of shape (n_samples, 8)."""
        return np.array([s.features() for s in self.samples], dtype=float)

    @cached_property
    def targets(self) -> np.ndarray | None:
        """Slump vector of shape (n_samples,), or None when unlabeled."""
        if not self.has_targets:
            return None
        return np.array([s.slump for s in self.samples], dtype=float)


@dataclass(frozen=True)
class SplitSpec:
    """Positional split: the first n_train rows train, the rest test."""

    n_train: int


@dataclass(frozen=True)
class ScaleParams:
    """Per-feature min-max parameters fitted on a training set.

    A degenerate (constant) training column maps to 0.0 everywhere and is
    flagged so callers can tell scaled zeros from true minima.
    """

    mins: tuple[float, ...]
    maxs: tuple[float, ...]
    degenerate: tuple[bool, ...]

    def transform(self, features: np.ndarray) -> np.ndarray:
        """Apply the training-set affine map; outputs may leave [0, 1]."""
        lo = np.array(self.mins)
        span = np.array(self.maxs) - lo
        safe = np.where(span == 0.0, 1.0, span)
        out = (np.asarray(features, dtype=float) - lo) / safe
        out[:, np.array(self.degenerate)] = 0.0
        return out


# Laboratory mix table: cement, fly ash, water, sand, stone, water reducer,
# recycled aggregate, total mass, slump. One row per mix, in test order.
_TABLE1 = (
    (450, 0, 180, 752, 1038, 9.9, 0, 2420, 156),
    (400, 0, 180, 769, 531, 8.4, 531, 2410, 136),
    (317, 0, 190, 787, 1086, 5.71, 0, 2380, 125),
    (222, 192, 185, 775, 1070, 7.4, 0, 2400, 105),
    (270, 234, 180, 752, 1038, 9.9, 0, 2420, 121),
    (333, 48, 185, 775, 535, 7.4, 535, 2400, 137),
    (254, 82, 190, 787, 543, 5.71, 543, 2380, 105),
    (333, 481, 185, 775, 1070, 7.4, 0, 2400, 150),
    (202, 175, 185, 785, 1084, 6.38, 0, 2390, 128),
    (360, 117, 180, 752, 1038, 9.9, 0, 2420, 143),
    (240, 208, 180, 769, 531, 8.4, 531, 2410, 124),
    (400, 0, 180, 769, 1061, 8.4, 0, 2410, 149),
    (336, 0, 185, 785, 1084, 6.38, 0, 2390, 136),
    (360, 117, 180, 752, 519, 9.9, 519, 2420, 134),
    (269, 87, 185, 785, 1084, 6.38, 0, 2390, 130),
    (202, 175, 185, 785, 542, 6.38, 542, 2390, 118),
    (296, 96, 185, 775, 535, 7.4, 535, 2400, 131),
    (370, 0, 185, 775, 1070, 7.4, 0, 2400, 150),
    (370, 0, 185, 775, 535, 7.4, 535, 2400, 138),
    (222, 192, 185, 775, 535, 7.4, 535, 2400, 120),
    (190, 165, 190, 787, 543, 5.71, 543, 2380, 105),
    (317, 0, 190, 787, 543, 5.71, 543, 2380, 108),
    (296, 96, 185, 775, 1070, 7.4, 0, 2400, 140),
    (320, 104, 180, 769, 1061, 8.4, 0, 2410, 132),
    (259, 144, 185, 775, 1070, 7.4, 0, 2400, 120),
    (269, 87, 185, 785, 542, 6.38, 542, 2390, 120),
    (336, 0, 185, 785, 542, 6.38, 542, 2390, 126),
    (190, 165, 190, 787, 1086, 5.71, 0, 2380, 121),
    (320, 104, 180, 769, 531, 8.4, 531, 2410, 129),
    (240, 208, 180, 769, 1061, 8.4, 0, 2410, 113),
    (259, 144, 185, 775, 535, 7.4, 535, 2400, 126),
    (450, 0, 180, 752, 519, 9.9, 519, 2420, 142),
    (270, 234, 180, 752, 519, 9.9, 519, 2420, 127),
    (254, 82, 190, 787, 1086, 5.71, 0, 2380, 123),
)

_BUILTIN = None


def builtin_table1() -> Dataset:
    """The 34 laboratory mixes, all labeled, in measurement order."""
    global _BUILTIN
    if _BUILTIN is None:
        _BUILTIN = Dataset(tuple(Sample(*map(float, row)) for row in _TABLE1))
    return _BUILTIN


def _parse_cell(raw: str, column: str, row_no: int) -> float:
    try:
        return float(raw)
    except ValueError:
        raise DatasetError(
            f"row {row_no}: column '{column}' has non-numeric value {raw!r}"
        ) from None


def validate_header(header) -> bool:
    """Check CSV column names; True when the slump column is present.

    The header must be exactly the eight feature names, optionally followed
    by 'slump'; anything else raises naming the first offending column.
    """
    header = tuple(h.strip() for h in header)
    if header not in (CSV_HEADER, FEATURE_NAMES):
        for i, name in enumerate(CSV_HEADER):
            if i >= len(header):
                raise DatasetError(f"missing column '{name}'")
            if header[i] != name:
                raise DatasetError(
                    f"unexpected column {header[i]!r} where '{name}' belongs"
                )
        raise DatasetError(f"unexpected trailing columns: {header[len(CSV_HEADER):]}")
    return header == CSV_HEADER


def read_csv(path) -> tuple[bool, tuple[Sample, ...]]:
    """Read a dataset CSV: whether it is labeled, and its samples in row order.

    Blank rows are skipped wherever they stand, before the header too. The
    header must be exactly the eight feature names, optionally followed by
    'slump'. Errors name the offending column or the data row, counted
    from 1 at the line after the header; text that is not UTF-8 is a
    DatasetError.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        try:
            rows = (
                (n, row)
                for n, row in enumerate(csv.reader(fh))
                if row and not (len(row) == 1 and not row[0].strip())
            )
            header_no, header = next(rows, (None, None))
            if header is None:
                raise DatasetError("empty file: missing header row")
            header = tuple(h.strip() for h in header)
            labeled = validate_header(header)
            samples = []
            for n, row in rows:
                row_no = n - header_no
                if len(row) != len(header):
                    raise DatasetError(
                        f"row {row_no}: expected {len(header)} cells, got {len(row)}"
                    )
                values = [_parse_cell(c.strip(), header[i], row_no) for i, c in enumerate(row)]
                try:
                    if labeled:
                        samples.append(Sample(*values[:8], slump=values[8]))
                    else:
                        samples.append(Sample(*values))
                except DatasetError as exc:
                    raise DatasetError(f"row {row_no}: {exc}") from None
        except UnicodeDecodeError as exc:
            raise DatasetError(f"{path} is not UTF-8 text: {exc}") from None
    return labeled, tuple(samples)


def load_csv(path) -> Dataset:
    """Read a dataset from CSV with `read_csv`; a file without samples is an error."""
    _, samples = read_csv(path)
    if not samples:
        raise DatasetError("file contains a header but no data rows")
    return Dataset(samples)


def save_csv(ds: Dataset, path) -> None:
    """Write a dataset as CSV; load_csv(save_csv(ds)) reproduces ds exactly."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_HEADER if ds.has_targets else FEATURE_NAMES)
        for s in ds.samples:
            row = [repr(v) for v in s.features()]
            if ds.has_targets:
                row.append(repr(s.slump))
            writer.writerow(row)


def split(ds: Dataset, spec: SplitSpec) -> tuple[Dataset, Dataset]:
    """Cut a dataset positionally into (train, test)."""
    n = spec.n_train
    if not 1 <= n <= len(ds) - 1:
        raise DatasetError(
            f"n_train must be in [1, {len(ds) - 1}] for {len(ds)} samples, got {n}"
        )
    return Dataset(ds.samples[:n]), Dataset(ds.samples[n:])


def scale_minmax(train: Dataset) -> ScaleParams:
    """Fit a per-feature min-max map on the training features.

    `transform` maps the training columns onto [0, 1]; other rows get the
    same affine map and may land outside that range.
    """
    cols = train.features
    mins = tuple(float(v) for v in cols.min(axis=0))
    maxs = tuple(float(v) for v in cols.max(axis=0))
    return ScaleParams(mins, maxs, tuple(a == b for a, b in zip(mins, maxs)))
