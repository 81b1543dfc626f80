"""Recycled-concrete slump data: loading, validation and splitting.

A dataset is n concrete mixes held as two arrays: `features`, eight mass
quantities (kg/m^3) per row in FEATURE_NAMES order, and `targets`, the
measured slump (mm) per row, or None when the mixes are unlabeled. Both
are checked once when the dataset is built and are read-only from then
on. The built-in table is the 34-mix laboratory dataset used throughout
the experiments; rows 1-28 conventionally train, rows 29-34 test.
"""

from __future__ import annotations

import csv
import math
import warnings
from array import array
from dataclasses import dataclass
from itertools import chain

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


def _check_row(values) -> None:
    """Raise for the first value of one mix, slump last, that no mix may hold.

    Features must be finite and >= 0, a slump finite and > 0. The one place
    these rules and their messages live: `Sample` checks its fields here,
    and `_check_values` the first bad row of an array.
    """
    for name, v in zip(CSV_HEADER, values):
        if not (isinstance(v, (int, float)) and math.isfinite(v)):
            raise DatasetError(f"{name} must be finite, got {v!r}")
        if name == "slump":
            if v <= 0:
                raise DatasetError(f"slump must be > 0, got {v!r}")
        elif v < 0:
            raise DatasetError(f"{name} must be >= 0, got {v!r}")


def _check_values(features: np.ndarray, targets: np.ndarray | None, row_nos=None) -> None:
    """Raise `_check_row`'s message for the first row holding a bad value.

    The whole arrays are checked at once; only a failing row is turned into
    Python floats (numpy 2 would repr its own scalars as np.float64(...)).
    With row_nos the message starts with "row {row_nos[i]}: ".
    """
    ok = ((features >= 0) & (features < math.inf)).all(axis=1)
    if targets is not None:
        ok &= (targets > 0) & (targets < math.inf)
    if ok.all():
        return
    i = int(ok.argmin())
    row = features[i].tolist() + ([] if targets is None else [targets[i].item()])
    try:
        _check_row(row)
    except DatasetError as exc:
        if row_nos is None:
            raise
        raise DatasetError(f"row {row_nos[i]}: {exc}") from None


@dataclass(frozen=True)
class Sample:
    """One checked concrete mix, for building a small dataset by hand."""

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
        _check_row(self.features() if self.slump is None else (*self.features(), self.slump))

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


@dataclass(frozen=True, eq=False)
class Dataset:
    """n >= 1 mixes: an n x 8 feature array and an n-vector of slumps or None.

    `Dataset(features, targets=None)` copies both into float64 arrays,
    checks every value with the rules of `_check_row`, and makes the copies
    read-only, so a dataset shared across runs (`builtin_table1`) cannot be
    changed in place. The feature copy keeps the memory order it is given
    (numpy's order="K"): a column-major array, as `predict` builds, stays
    column-major, while nested lists, `Sample`s and row slices of a
    row-major array give a row-major copy. `Dataset(samples)` stacks a
    sequence of `Sample`s, all labeled or all unlabeled, into the same
    arrays. Two datasets are equal when their arrays are, whatever their
    layout.
    """

    features: np.ndarray
    targets: np.ndarray | None = None

    def __init__(self, features, targets=None):
        if targets is None and len(features) and isinstance(features[0], Sample):
            features, targets = _stack(features)
        features = np.array(features, dtype=np.float64, order="K")
        if features.ndim != 2 or features.shape[1] != len(FEATURE_NAMES):
            raise DatasetError(f"features must have shape (n, 8), got {features.shape}")
        if not len(features):
            raise DatasetError("dataset must contain at least one sample")
        if targets is not None:
            targets = np.array(targets, dtype=np.float64)
            if targets.shape != (len(features),):
                raise DatasetError(
                    f"targets must have shape ({len(features)},), got {targets.shape}"
                )
            targets.flags.writeable = False
        _check_values(features, targets)
        features.flags.writeable = False
        object.__setattr__(self, "features", features)
        object.__setattr__(self, "targets", targets)

    def __reduce__(self):
        # Rebuilt through __init__, so a copy sent to a worker is read-only too.
        return Dataset, (self.features, self.targets)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Dataset):
            return NotImplemented
        if (self.targets is None) != (other.targets is None):
            return False
        return np.array_equal(self.features, other.features) and (
            self.targets is None or np.array_equal(self.targets, other.targets)
        )

    def __len__(self) -> int:
        return len(self.features)

    @property
    def feature_names(self) -> tuple[str, ...]:
        return FEATURE_NAMES

    @property
    def has_targets(self) -> bool:
        return self.targets is not None


def _stack(samples) -> tuple[list, list | None]:
    """Feature rows and slumps of `Sample`s, which must all be labeled or none."""
    labeled = [s.slump is not None for s in samples]
    if any(labeled) and not all(labeled):
        raise DatasetError("dataset mixes labeled and unlabeled samples")
    rows = [s.features() for s in samples]
    return rows, ([s.slump for s in samples] if labeled[0] else None)


@dataclass(frozen=True)
class SplitSpec:
    """Positional split: the first n_train rows train, the rest test."""

    n_train: int


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
        table = np.array(_TABLE1, dtype=np.float64)
        _BUILTIN = Dataset(table[:, :8], table[:, 8])
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


def read_csv(path) -> tuple[bool, np.ndarray, np.ndarray | None]:
    """Read a dataset CSV: (labeled, features, targets), checked like a Dataset.

    features is n x 8 and targets an n-vector, or None for a file without
    the slump column; n may be 0. Both are views of one row-major table. A
    cell gives the same double as `float` gives it anywhere else in Python.

    Blank rows are skipped wherever they stand, before the header too. The
    header must be exactly the eight feature names, optionally followed by
    'slump'. Errors name the offending column or the data row, counted
    from 1 at the line after the header; text that is not UTF-8 is a
    DatasetError. A leading UTF-8 byte-order mark, which spreadsheet
    programs write into "CSV UTF-8" files, is not part of the header.

    The first bad row in file order raises, and within a row a wrong cell
    count comes first, then a non-numeric cell in column order, then a bad
    value in column order, slump last. Undecodable text, or a cell longer
    than `csv.field_size_limit()`, raises only when every row read before
    it is good.

    A plain file is parsed by numpy's reader (`_read_plain`); every other
    file, and every file with an error, is read by `_scan_csv`. Both give
    the same arrays, bit for bit, or the same error.
    """
    try:
        plain = _read_plain(path)
    except Exception:  # the scan reads every file, and gives every error message
        plain = None
    return plain or _scan_csv(path)


def _read_plain(path) -> tuple[bool, np.ndarray, np.ndarray | None] | None:
    """`read_csv` of a plain file; None, or any exception, for every other file.

    A plain file's first line is exactly one of the two headers. Every line
    after it is empty or holds that many unquoted numbers, at least one
    line does, and every value passes `_check_values`. No line is longer
    than csv's field limit, so no cell is either. numpy reads a number as
    `float` does or not at all: it takes no underscores and no non-ASCII
    digits. `read_csv` sends every other file to `_scan_csv`.
    """
    with open(path, newline="", encoding="utf-8-sig") as fh:
        header = tuple(fh.readline().rstrip("\r\n").split(","))
        if header not in (CSV_HEADER, FEATURE_NAMES):
            return None
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            table = np.loadtxt(
                chain.from_iterable(_line_batches(fh)),
                delimiter=",", comments=None, quotechar=None, ndmin=2, dtype=np.float64,
            )
    if table.shape[1] != len(header) or not len(table):
        return None
    labeled = header == CSV_HEADER
    features, targets = table[:, :8], (table[:, 8] if labeled else None)
    _check_values(features, targets)
    return labeled, features, targets


def _line_batches(fh):
    """fh's remaining lines in lists of about 64 KiB, so the text is never
    held whole; ValueError at a line longer than csv's field limit."""
    limit = csv.field_size_limit()
    while lines := fh.readlines(1 << 16):
        if max(map(len, lines)) > limit:
            raise ValueError(f"a line is longer than csv's field limit ({limit})")
        yield lines


def _scan_csv(path) -> tuple[bool, np.ndarray, np.ndarray | None]:
    """`read_csv` by the csv module, row by row: any file, and every error message."""
    header = bad = unreadable = None
    values, row_nos = array("d"), []
    n = -1
    with open(path, newline="", encoding="utf-8-sig") as fh:
        try:
            for n, row in enumerate(csv.reader(fh)):
                if not row or (len(row) == 1 and not row[0].strip()):
                    continue
                if header is None:
                    header_no, header = n, tuple(h.strip() for h in row)
                    labeled = validate_header(header)
                    width = len(header)
                    continue
                # Reading stops at the first row with a wrong cell count or a
                # cell that is not a number. Its error is raised only after
                # the rows before it pass their value checks.
                if len(row) != width:
                    bad = n - header_no, row
                    break
                try:
                    values.extend(map(float, row))
                except ValueError:
                    bad = n - header_no, row
                    break
                row_nos.append(n - header_no)
        except UnicodeDecodeError as exc:
            unreadable = DatasetError(f"{path} is not UTF-8 text: {exc}")
        except csv.Error as exc:
            where = "header row" if header is None else f"row {n + 1 - header_no}"
            unreadable = DatasetError(f"{where}: {exc}")
    if header is None:
        raise unreadable or DatasetError("empty file: missing header row")
    del values[len(row_nos) * width :]  # a row that failed to parse may have added cells
    table = np.frombuffer(values, dtype=np.float64).reshape(len(row_nos), width)
    features = table[:, :8]
    targets = table[:, 8] if labeled else None
    _check_values(features, targets, row_nos)
    if bad:
        row_no, row = bad
        if len(row) != width:
            raise DatasetError(f"row {row_no}: expected {width} cells, got {len(row)}")
        for column, cell in zip(header, row):
            _parse_cell(cell.strip(), column, row_no)
    if unreadable:
        raise unreadable
    return labeled, features, targets


def load_csv(path) -> Dataset:
    """Read a dataset from CSV with `read_csv`; a file without samples is an error."""
    _, features, targets = read_csv(path)
    if not len(features):
        raise DatasetError("file contains a header but no data rows")
    return Dataset(features, targets)


def save_csv(ds: Dataset, path) -> None:
    """Write a dataset as CSV; load_csv(save_csv(ds)) reproduces ds exactly."""
    rows = ds.features.tolist()
    if ds.has_targets:
        for row, slump in zip(rows, ds.targets.tolist()):
            row.append(slump)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_HEADER if ds.has_targets else FEATURE_NAMES)
        writer.writerows([repr(v) for v in row] for row in rows)


def split(ds: Dataset, spec: SplitSpec) -> tuple[Dataset, Dataset]:
    """Cut a dataset positionally into (train, test)."""
    n = spec.n_train
    if not 1 <= n <= len(ds) - 1:
        raise DatasetError(
            f"n_train must be in [1, {len(ds) - 1}] for {len(ds)} samples, got {n}"
        )
    targets = ds.targets
    return (
        Dataset(ds.features[:n], None if targets is None else targets[:n]),
        Dataset(ds.features[n:], None if targets is None else targets[n:]),
    )
