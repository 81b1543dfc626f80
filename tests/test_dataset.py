"""Dataset loading, validation and splitting."""

import csv
import math
import pickle
from contextlib import contextmanager
from pathlib import Path
from random import Random

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

import slumpgp.dataset as dataset_module
from slumpgp.dataset import (
    CSV_HEADER,
    Dataset,
    DatasetError,
    FEATURE_NAMES,
    Sample,
    SplitSpec,
    builtin_table1,
    load_csv,
    save_csv,
    split,
    read_csv,
    validate_header,
)
from test_expr import same_bits

# Column totals over all 34 built-in rows, computed once by an independent
# spreadsheet pass over the printed table and frozen here.
COLUMN_SUMS = {
    "cement": 10176.0,
    "fly_ash": 3737.0,
    "water": 6260.0,
    "sand": 26308.0,
    "stone": 27237.0,
    "water_reducer": 256.34,
    "recycled_aggregate": 9080.0,
    "total_mass": 81600.0,
    "slump": 4368.0,
}


# Table 1 with row 8's fly ash as 48 kg/m³ instead of 481 (see data/README.md).
ROW8_VARIANT = Path(__file__).resolve().parent.parent / "data" / "table1_row8_fly_ash_48.csv"


def make_sample(slump=120.0):
    return Sample(300.0, 50.0, 185.0, 775.0, 1000.0, 7.4, 100.0, 2400.0, slump)


class TestSample:
    def test_feature_order_matches_names(self):
        s = Sample(1, 2, 3, 4, 5, 6, 7, 8, 9)
        assert s.features() == (1, 2, 3, 4, 5, 6, 7, 8)
        assert len(FEATURE_NAMES) == 8
        assert CSV_HEADER == FEATURE_NAMES + ("slump",)

    def test_unlabeled_sample_allowed(self):
        assert make_sample(slump=None).slump is None

    def test_negative_feature_rejected(self):
        with pytest.raises(DatasetError, match="water"):
            Sample(300, 50, -1.0, 775, 1000, 7.4, 100, 2400, 120)

    def test_nonfinite_feature_rejected(self):
        with pytest.raises(DatasetError, match="cement"):
            Sample(math.nan, 50, 185, 775, 1000, 7.4, 100, 2400, 120)
        with pytest.raises(DatasetError, match="sand"):
            Sample(300, 50, 185, math.inf, 1000, 7.4, 100, 2400, 120)

    def test_slump_must_be_positive_and_finite(self):
        with pytest.raises(DatasetError, match="slump"):
            make_sample(slump=0.0)
        with pytest.raises(DatasetError, match="slump"):
            make_sample(slump=-5.0)
        with pytest.raises(DatasetError, match="slump"):
            make_sample(slump=math.nan)


class TestDataset:
    def test_empty_rejected(self):
        with pytest.raises(DatasetError):
            Dataset(())

    def test_mixed_labels_rejected(self):
        with pytest.raises(DatasetError, match="mixes"):
            Dataset((make_sample(), make_sample(slump=None)))

    def test_features_and_targets_shapes(self):
        ds = Dataset((make_sample(), make_sample(121.0)))
        assert ds.features.shape == (2, 8)
        assert ds.targets.shape == (2,)
        assert ds.has_targets

    def test_unlabeled_targets_none(self):
        ds = Dataset((make_sample(slump=None),))
        assert not ds.has_targets
        assert ds.targets is None


    def test_arrays_are_read_only(self, table1):
        train, _ = split(table1, SplitSpec(28))
        for ds in (table1, train, Dataset((make_sample(),)), pickle.loads(pickle.dumps(table1))):
            for arr in (ds.features, ds.targets):
                with pytest.raises(ValueError, match="read-only"):
                    arr[0] = 1.0
        assert table1.features[0, 0] == 450.0

    def test_built_from_a_copy(self):
        features = np.full((2, 8), 5.0)
        ds = Dataset(features)
        features[0, 0] = 6.0
        assert ds.features[0, 0] == 5.0
        assert features.flags.writeable
        assert ds.features.flags.c_contiguous

    def test_samples_stack_into_the_same_arrays(self, table1):
        rows = [Sample(*f, slump=t) for f, t in zip(table1.features.tolist(), table1.targets.tolist())]
        assert Dataset(tuple(rows)) == table1

    def test_equality_is_exact(self, table1):
        nudged = table1.features.copy()
        nudged[5, 3] = np.nextafter(nudged[5, 3], np.inf)
        assert Dataset(table1.features, table1.targets) == table1
        assert Dataset(nudged, table1.targets) != table1
        assert Dataset(table1.features) != table1
        assert Dataset(table1.features[:33], table1.targets[:33]) != table1

    @pytest.mark.parametrize(
        "features, targets",
        [(np.ones(8), None), (np.ones((2, 9)), None), (np.ones((2, 8)), np.ones(3))],
    )
    def test_wrong_shapes_rejected(self, features, targets):
        with pytest.raises(DatasetError, match="shape"):
            Dataset(features, targets)

    @pytest.mark.parametrize(
        "cell, value, message",
        [
            ((1, 2), -1.0, "water must be >= 0, got -1.0"),
            ((1, 0), math.inf, "cement must be finite, got inf"),
            ((1, 8), 0.0, "slump must be > 0, got 0.0"),
            ((1, 8), math.nan, "slump must be finite, got nan"),
        ],
    )
    def test_first_bad_cell_names_the_error(self, cell, value, message):
        table = np.full((3, 9), 5.0)
        table[cell] = value
        table[2] = -7.0  # a later row never wins
        with pytest.raises(DatasetError) as info:
            Dataset(table[:, :8], table[:, 8])
        assert str(info.value) == message


class TestLayout:
    """Every dataset is row-major but one built from a column-major array,
    which keeps its layout; `predict` builds its input that way."""

    def test_row_major_everywhere(self, table1, tmp_path):
        p = tmp_path / "table.csv"
        save_csv(table1, p)
        train, test = split(table1, SplitSpec(28))
        for ds in (
            table1,
            train,
            test,
            load_csv(p),
            Dataset((make_sample(), make_sample(121.0))),
            pickle.loads(pickle.dumps(table1)),
        ):
            assert ds.features.flags.c_contiguous
            assert not ds.features.flags.f_contiguous

    def test_column_major_kept(self, table1):
        ds = Dataset(np.asfortranarray(table1.features), table1.targets)
        assert ds.features.flags.f_contiguous and not ds.features.flags.c_contiguous
        assert not ds.features.flags.writeable
        assert ds == table1


class TestBuiltinTable:
    def test_size(self, table1):
        assert len(table1) == 34

    def test_first_row(self, table1):
        assert table1.features[0].tolist() == [450, 0, 180, 752, 1038, 9.9, 0, 2420]
        assert table1.targets[0] == 156

    def test_last_row(self, table1):
        assert table1.features[-1].tolist() == [254, 82, 190, 787, 1086, 5.71, 0, 2380]
        assert table1.targets[-1] == 123

    def test_column_sums(self, table1):
        for i, name in enumerate(FEATURE_NAMES):
            assert table1.features[:, i].sum() == pytest.approx(
                COLUMN_SUMS[name], abs=1e-9
            ), name
        assert table1.targets.sum() == pytest.approx(COLUMN_SUMS["slump"], abs=1e-9)

    def test_all_labeled(self, table1):
        assert table1.has_targets

    def test_mass_balance_singles_out_row_8(self, table1):
        """Total mass minus the sum of the seven components: row 8 alone
        lies outside [−70, 0], at −451.4 kg/m³; every other row reads
        between −63.9 and −5.71."""
        gap = table1.features[:, 7] - table1.features[:, :7].sum(axis=1)
        outside = [row for row, g in enumerate(gap.tolist(), start=1) if not -70.0 <= g <= 0.0]
        assert outside == [8]
        assert gap[7] == pytest.approx(-451.4, abs=1e-9)
        others = np.delete(gap, 7)
        assert others.min() == pytest.approx(-63.9, abs=1e-9)
        assert others.max() == pytest.approx(-5.71, abs=1e-9)

    def test_row8_variant_differs_in_one_cell(self, table1):
        variant = load_csv(ROW8_VARIANT)
        assert variant.has_targets
        assert np.array_equal(variant.targets, table1.targets)
        changed = np.argwhere(variant.features != table1.features).tolist()
        assert changed == [[7, FEATURE_NAMES.index("fly_ash")]]
        assert table1.features[7, 1] == 481.0
        assert variant.features[7, 1] == 48.0
        gap = variant.features[7, 7] - variant.features[7, :7].sum()
        assert gap == pytest.approx(-18.4, abs=1e-9)


class TestSplit:
    def test_28_6(self, table1):
        train, test = split(table1, SplitSpec(28))
        assert len(train) == 28 and len(test) == 6
        assert same_bits(train.features, table1.features[:28])
        assert same_bits(train.targets, table1.targets[:28])
        assert same_bits(test.features, table1.features[28:])
        assert same_bits(test.targets, table1.targets[28:])

    def test_order_preserved_concat(self, table1):
        for n in (1, 10, 33):
            train, test = split(table1, SplitSpec(n))
            assert same_bits(np.vstack([train.features, test.features]), table1.features)
            assert same_bits(np.concatenate([train.targets, test.targets]), table1.targets)

    def test_boundary_single_test_row(self, table1):
        _, test = split(table1, SplitSpec(33))
        assert same_bits(test.features, table1.features[33:])
        assert same_bits(test.targets, table1.targets[33:])

    def test_unlabeled_split_stays_unlabeled(self, table1):
        train, test = split(Dataset(table1.features), SplitSpec(30))
        assert train.targets is None and test.targets is None
        assert same_bits(test.features, table1.features[30:])

    def test_out_of_range_rejected(self, table1):
        for n in (0, 34, 35, -1):
            with pytest.raises(DatasetError):
                split(table1, SplitSpec(n))


class TestCsv:
    def test_round_trip_identity(self, table1, tmp_path):
        p = tmp_path / "table.csv"
        save_csv(table1, p)
        assert load_csv(p) == table1

    def test_unlabeled_round_trip(self, tmp_path):
        ds = Dataset((make_sample(slump=None), make_sample(slump=None)))
        p = tmp_path / "plain.csv"
        save_csv(ds, p)
        back = load_csv(p)
        assert back == ds
        assert not back.has_targets

    def test_fuzz_round_trip_exact_floats(self, tmp_path):
        rng = Random(7)
        for case in range(20):
            samples = tuple(
                Sample(*(rng.random() * 1000 for _ in range(8)), 50 + rng.random() * 100)
                for _ in range(rng.randrange(1, 8))
            )
            p = tmp_path / f"fuzz{case}.csv"
            save_csv(Dataset(samples), p)
            back = load_csv(p)
            assert same_bits(back.features, np.array([s.features() for s in samples]))
            assert same_bits(back.targets, np.array([s.slump for s in samples]))

    def test_missing_column_named(self, tmp_path):
        p = tmp_path / "short.csv"
        p.write_text("cement,fly_ash\n1,2\n")
        with pytest.raises(DatasetError, match="water"):
            load_csv(p)

    def test_seven_column_header_names_missing_column(self, tmp_path):
        p = tmp_path / "seven.csv"
        p.write_text(",".join(FEATURE_NAMES[:7]) + "\n1,2,3,4,5,6,7\n")
        with pytest.raises(DatasetError, match="total_mass"):
            load_csv(p)

    def test_unexpected_column_named(self, tmp_path):
        p = tmp_path / "odd.csv"
        p.write_text("cement,ash," + ",".join(CSV_HEADER[2:]) + "\n")
        with pytest.raises(DatasetError, match="ash"):
            load_csv(p)

    def test_non_numeric_cell_names_row(self, tmp_path):
        p = tmp_path / "bad.csv"
        save_csv(builtin_table1(), p)
        lines = p.read_text().splitlines()
        lines[2] = "a,b,190,787,1086,5.71,0,2380,125"
        p.write_text("\n".join(lines) + "\n")
        with pytest.raises(DatasetError, match="row 2"):
            load_csv(p)

    def test_wrong_arity_names_row(self, tmp_path):
        p = tmp_path / "arity.csv"
        p.write_text(",".join(CSV_HEADER) + "\n1,2,3\n")
        with pytest.raises(DatasetError, match="row 1"):
            load_csv(p)

    def test_negative_value_rejected(self, tmp_path):
        p = tmp_path / "neg.csv"
        p.write_text(",".join(CSV_HEADER) + "\n-1,0,180,752,1038,9.9,0,2420,156\n")
        with pytest.raises(DatasetError, match="cement"):
            load_csv(p)

    def test_empty_file_rejected(self, tmp_path):
        p = tmp_path / "empty.csv"
        p.write_text("")
        with pytest.raises(DatasetError, match="header"):
            load_csv(p)

    def test_blank_lines_before_header_skipped(self, tmp_path):
        p = tmp_path / "lead.csv"
        save_csv(builtin_table1(), p)
        text = p.read_text()
        p.write_text("\n  \n" + text)
        assert load_csv(p) == builtin_table1()

    def test_row_numbers_count_from_line_after_header(self, tmp_path):
        p = tmp_path / "rows.csv"
        good = "450,0,180,752,1038,9.9,0,2420,156"
        p.write_text("\n".join(["", ",".join(CSV_HEADER), good, "", "a" + good]) + "\n")
        with pytest.raises(DatasetError, match="^row 3: column 'cement'"):
            load_csv(p)

    @pytest.mark.parametrize(
        "rows, message",
        [
            (
                ["450,0,180,752,1038,9.9,0,2420,156",
                 "450,0,-1,752,1038,9.9,0,2420,156",
                 "450,0,180,wet,1038,9.9,0,2420,156"],
                "row 2: water must be >= 0, got -1.0",
            ),
            (
                ["450,0,180,752,1038,9.9,0,2420,156",
                 "450,0,180,wet,1038,9.9,0,2420,156",
                 "450,0"],
                "row 2: column 'sand' has non-numeric value 'wet'",
            ),
            (["inf,0,180,752,1038,9.9,0,2420,0"], "row 1: cement must be finite, got inf"),
            (
                ["450,0", "450,0,-1,752,1038,9.9,0,2420,156"],
                "row 1: expected 9 cells, got 2",
            ),
            (
                ["450,0,180,752,wet,9.9,0,2420,156", "450,0,-1,752,1038,9.9,0,2420,156"],
                "row 1: column 'stone' has non-numeric value 'wet'",
            ),
        ],
        ids=[
            "value-before-later-parse",
            "parse-before-later-count",
            "finite-before-slump",
            "count-before-later-value",
            "parse-before-later-value",
        ],
    )
    def test_first_failing_row_wins(self, tmp_path, rows, message):
        p = tmp_path / "order.csv"
        p.write_text("\n".join([",".join(CSV_HEADER), *rows]) + "\n")
        with pytest.raises(DatasetError) as info:
            load_csv(p)
        assert str(info.value) == message

    def test_bad_row_before_undecodable_text_wins(self, tmp_path):
        # Text is decoded in chunks of a few kB, so the bad bytes come to
        # light only after the first rows were read.
        good = "450,0,180,752,1038,9.9,0,2420,156"
        text = "\n".join([",".join(CSV_HEADER), good.replace("180", "-2"), *[good] * 2000])
        p = tmp_path / "late.csv"
        p.write_bytes(text.encode() + b"\n3\xff0,60\n")
        with pytest.raises(DatasetError, match="^row 1: water must be >= 0, got -2.0$"):
            load_csv(p)
        p.write_bytes(text.replace("-2", "180").encode() + b"\n3\xff0,60\n")
        with pytest.raises(DatasetError, match="is not UTF-8 text"):
            load_csv(p)

    def test_header_without_rows_rejected(self, tmp_path):
        p = tmp_path / "bare.csv"
        p.write_text("\n" + ",".join(FEATURE_NAMES) + "\n\n")
        with pytest.raises(DatasetError, match="no data rows"):
            load_csv(p)

    def test_missing_file_is_io_error(self, tmp_path):
        with pytest.raises(OSError):
            load_csv(tmp_path / "nope.csv")

    def test_validate_header(self):
        assert validate_header(CSV_HEADER) is True
        assert validate_header(FEATURE_NAMES) is False
        assert validate_header([" cement ", *CSV_HEADER[1:]]) is True
        with pytest.raises(DatasetError, match="trailing"):
            validate_header(CSV_HEADER + ("extra",))


def oracle_read_csv(path):
    """`read_csv` as it was written before it parsed into arrays: each row
    parsed and checked as one mix, in file order. The reference for
    TestReadCsvOracle."""
    with open(path, newline="", encoding="utf-8-sig") as fh:
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
            table = []
            for n, row in rows:
                row_no = n - header_no
                if len(row) != len(header):
                    raise DatasetError(
                        f"row {row_no}: expected {len(header)} cells, got {len(row)}"
                    )
                values = []
                for column, cell in zip(header, row):
                    try:
                        values.append(float(cell.strip()))
                    except ValueError:
                        raise DatasetError(
                            f"row {row_no}: column '{column}' has non-numeric value "
                            f"{cell.strip()!r}"
                        ) from None
                for name, v in zip(header, values):
                    if not math.isfinite(v):
                        raise DatasetError(f"row {row_no}: {name} must be finite, got {v!r}")
                    if name == "slump" and v <= 0:
                        raise DatasetError(f"row {row_no}: slump must be > 0, got {v!r}")
                    if v < 0:
                        raise DatasetError(f"row {row_no}: {name} must be >= 0, got {v!r}")
                table.append(values)
        except UnicodeDecodeError as exc:
            raise DatasetError(f"{path} is not UTF-8 text: {exc}") from None
    table = np.array(table, dtype=np.float64).reshape(len(table), len(header))
    return labeled, table[:, :8], (table[:, 8] if labeled else None)


FEATURES_LINE = ",".join(FEATURE_NAMES)
PLAIN_ROW = "300,60,180,700,1100,5,200,2345"
SPELLINGS = (repr, "{:.3f}".format, lambda v: str(int(v)), "{:e}".format, " {!r}  ".format)
FAULTS = ("wet", "", "-1", "-0.5", "nan", "inf", "-inf", "0", "short")


@st.composite
def csv_tables(draw):
    """CSV text of a random table, with at most two faults and any layout."""
    labeled = draw(st.booleans())
    width = 9 if labeled else 8
    n = draw(st.integers(0, 6))
    rows = [
        [
            draw(st.sampled_from(SPELLINGS))(
                draw(st.floats(0.5 if col == 8 else 0.0, 3000.0, allow_subnormal=False))
            )
            for col in range(width)
        ]
        for _ in range(n)
    ]
    if n:
        for fault in draw(st.lists(st.sampled_from(FAULTS), max_size=2)):
            row = rows[draw(st.integers(0, n - 1))]
            if fault == "short":
                del row[draw(st.integers(0, width - 1)) :]
            elif row:
                row[draw(st.integers(0, len(row) - 1))] = fault
    lines = [",".join(CSV_HEADER[:width]), *(",".join(r) for r in rows)]
    for _ in range(draw(st.integers(0, 3))):
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(["", "  "])))
    end = draw(st.sampled_from(["\n", "\r\n"]))
    bom = draw(st.sampled_from(["", "\ufeff"]))
    return bom + end.join(lines) + end


class TestReadCsvOracle:
    @settings(max_examples=400, deadline=None)
    @given(text=csv_tables())
    def test_same_arrays_or_same_error(self, tmp_path_factory, text):
        p = tmp_path_factory.getbasetemp() / "oracle.csv"
        p.write_text(text, encoding="utf-8", newline="")
        try:
            want = oracle_read_csv(p)
        except DatasetError as exc:
            with pytest.raises(DatasetError) as info:
                read_csv(p)
            assert str(info.value) == str(exc)
            return
        labeled, features, targets = read_csv(p)
        assert labeled == want[0]
        assert same_bits(features, want[1])
        if labeled:
            assert same_bits(targets, want[2])
        else:
            assert targets is None


def read_outcome(read, path):
    """read(path), or the type and message of what it raised."""
    try:
        return read(path)
    except Exception as exc:
        return type(exc), str(exc)


def same_outcome(got, want) -> bool:
    """Equal outcomes: the same error, or the same label flag and the same arrays bit for bit."""
    if isinstance(want[0], type) or isinstance(got[0], type):
        return got == want
    return (
        got[0] == want[0]
        and same_bits(got[1], want[1])
        and (got[2] is None if want[2] is None else same_bits(got[2], want[2]))
    )


@contextmanager
def field_limit(limit):
    """`csv.field_size_limit(limit)` inside the block, when limit is not None."""
    saved = csv.field_size_limit()
    if limit is not None:
        csv.field_size_limit(limit)
    try:
        yield
    finally:
        csv.field_size_limit(saved)


# Cells that numpy's reader rejects, or that both readers reject;
# "\ue000" is written as a byte that is not UTF-8.
CELL_FAULTS = (
    "1_0", "nan", "inf", "-3", "0", "", "  ", '"12.5"', "12\x005", "wet",
    "\u0661\u0662", "0x10", "\xa012\xa0", "\ue000",
)
PADDED = ("{:040.3f}".format, "{:>40}".format)


@st.composite
def csv_files(draw):
    """Bytes of a CSV file: often plain, else with the layouts and faults
    that send a file from numpy's reader to the csv scan."""
    labeled = draw(st.booleans())
    width = 9 if labeled else 8
    header = list(CSV_HEADER[:width])
    header_fault = draw(st.sampled_from([None] * 8 + ["spaced", "quoted", "short", "long"]))
    if header_fault == "spaced":
        header[0] = " cement"
    elif header_fault == "quoted":
        header[1] = '"fly_ash"'
    elif header_fault == "short":
        header.pop()
    elif header_fault == "long":
        header.append("slump")
    n = draw(st.integers(0, 6))
    spellings = st.sampled_from(SPELLINGS + PADDED)
    rows = [
        [
            draw(spellings)(draw(st.floats(0.5 if col == 8 else 0.0, 3000.0)))
            for col in range(width)
        ]
        for _ in range(n)
    ]
    lines = [",".join(header), *(",".join(r) for r in rows)]
    if n:
        for fault in draw(st.lists(st.sampled_from(CELL_FAULTS + ("short", "extra")), max_size=2)):
            i = draw(st.integers(0, n - 1))
            if fault == "short":
                del rows[i][draw(st.integers(0, width - 1)) :]
            elif fault == "extra":
                rows[i].append("1")
            elif rows[i]:
                rows[i][draw(st.integers(0, len(rows[i]) - 1))] = fault
            lines[1 + i] = ",".join(rows[i])
    for _ in range(draw(st.integers(0, 2))):
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(["", "", "  "])))
    ends = [draw(st.sampled_from(["\n", "\r\n", "\r"])) for _ in lines]
    if not draw(st.booleans()):
        ends[-1] = ""
    text = draw(st.sampled_from(["", "\ufeff"])) + "".join(a + b for a, b in zip(lines, ends))
    return text.encode("utf-8").replace("\ue000".encode("utf-8"), b"\xff")


class TestNumpyReader:
    """`read_csv` reads a plain file with numpy's reader (`_read_plain`) and
    any other with the csv scan (`_scan_csv`); both give the same result."""

    @settings(max_examples=500, deadline=None)
    @given(data=csv_files(), limit=st.sampled_from([None, None, 48]))
    def test_same_arrays_or_same_error_as_scan(self, tmp_path_factory, data, limit):
        """Also under a field limit of 48 characters, which some padded cells
        and most lines exceed."""
        p = tmp_path_factory.getbasetemp() / "plain.csv"
        p.write_bytes(data)
        with field_limit(limit):
            plain = read_outcome(dataset_module._read_plain, p)
            got = read_outcome(read_csv, p)
            want = read_outcome(dataset_module._scan_csv, p)
        event("numpy reader" if plain and not isinstance(plain[0], type) else "csv scan")
        assert same_outcome(got, want)

    @pytest.mark.parametrize("labeled", [True, False])
    def test_saved_file_is_plain(self, table1, tmp_path, labeled):
        p = tmp_path / "table.csv"
        save_csv(table1 if labeled else Dataset(table1.features), p)
        plain = dataset_module._read_plain(p)
        assert plain is not None
        assert same_outcome(plain, dataset_module._scan_csv(p))

    @pytest.mark.parametrize(
        "text",
        [
            FEATURES_LINE + "\n",
            "\n" + FEATURES_LINE + "\n" + PLAIN_ROW + "\n",
            " " + FEATURES_LINE + "\n" + PLAIN_ROW + "\n",
            FEATURES_LINE + "\n" + PLAIN_ROW.replace("180", '"180"') + "\n",
            FEATURES_LINE + "\n" + PLAIN_ROW.replace("180", "1_80") + "\n",
            FEATURES_LINE + "\n" + PLAIN_ROW.replace("180", "-180") + "\n",
            FEATURES_LINE + "\n" + PLAIN_ROW + "\n  \n",
            FEATURES_LINE + "\n" + PLAIN_ROW + ",1\n",
        ],
        ids=["no-rows", "blank-first", "spaced-header", "quoted", "underscore", "negative",
             "whitespace-line", "wide-row"],
    )
    def test_other_files_go_to_the_scan(self, tmp_path, text):
        p = tmp_path / "in.csv"
        p.write_text(text, encoding="utf-8", newline="")
        plain = read_outcome(dataset_module._read_plain, p)
        assert plain is None or isinstance(plain[0], type)
        assert same_outcome(read_outcome(read_csv, p), read_outcome(dataset_module._scan_csv, p))

    @pytest.mark.parametrize(
        "lines, message",
        [
            ([PLAIN_ROW, "0" * 70 + "1" + PLAIN_ROW[3:]], "row 2: field larger than field limit (64)"),
            (["", PLAIN_ROW, "wet" * 30], "row 3: field larger than field limit (64)"),
        ],
        ids=["numeric", "after-blank-row"],
    )
    def test_cell_over_field_limit_names_its_row(self, tmp_path, lines, message):
        p = tmp_path / "in.csv"
        p.write_text("\n".join([FEATURES_LINE, *lines]) + "\n", encoding="utf-8")
        with field_limit(64):
            with pytest.raises(DatasetError) as info:
                read_csv(p)
        assert str(info.value) == message

    def test_long_numeric_cell_within_limit(self, tmp_path):
        p = tmp_path / "in.csv"
        p.write_text(f"{FEATURES_LINE}\n{'0' * 70}1{PLAIN_ROW[3:]}\n", encoding="utf-8")
        _, features, _ = dataset_module._read_plain(p)
        assert features.tolist() == [[1, 60, 180, 700, 1100, 5, 200, 2345]]

    def test_header_over_field_limit(self, tmp_path):
        p = tmp_path / "in.csv"
        p.write_text("x" * 100 + "\n" + PLAIN_ROW + "\n", encoding="utf-8")
        with field_limit(64):
            with pytest.raises(DatasetError) as info:
                read_csv(p)
        assert str(info.value) == "header row: field larger than field limit (64)"
