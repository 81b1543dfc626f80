"""Dataset loading, validation, splitting, and scaling."""

import math
from dataclasses import replace
from random import Random

import pytest

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
    scale_minmax,
    split,
    validate_header,
)

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


class TestBuiltinTable:
    def test_size(self, table1):
        assert len(table1) == 34

    def test_first_row(self, table1):
        s = table1.samples[0]
        assert s.features() == (450, 0, 180, 752, 1038, 9.9, 0, 2420)
        assert s.slump == 156

    def test_last_row(self, table1):
        s = table1.samples[-1]
        assert s.features() == (254, 82, 190, 787, 1086, 5.71, 0, 2380)
        assert s.slump == 123

    def test_column_sums(self, table1):
        for i, name in enumerate(FEATURE_NAMES):
            assert table1.features[:, i].sum() == pytest.approx(
                COLUMN_SUMS[name], abs=1e-9
            ), name
        assert table1.targets.sum() == pytest.approx(COLUMN_SUMS["slump"], abs=1e-9)

    def test_all_labeled(self, table1):
        assert table1.has_targets


class TestSplit:
    def test_28_6(self, table1):
        train, test = split(table1, SplitSpec(28))
        assert len(train) == 28 and len(test) == 6
        assert train.samples == table1.samples[:28]
        assert test.samples == table1.samples[28:]

    def test_order_preserved_concat(self, table1):
        for n in (1, 10, 33):
            train, test = split(table1, SplitSpec(n))
            assert train.samples + test.samples == table1.samples

    def test_boundary_single_test_row(self, table1):
        _, test = split(table1, SplitSpec(33))
        assert test.samples == (table1.samples[33],)

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
            assert load_csv(p).samples == samples

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


class TestScaleMinmax:
    def three_water_rows(self, waters):
        base = make_sample()
        return Dataset(tuple(replace(base, water=w) for w in waters))

    def test_affine_map(self):
        ds = self.three_water_rows([180.0, 185.0, 190.0])
        params = scale_minmax(ds)
        water = params.transform(ds.features)[:, FEATURE_NAMES.index("water")]
        assert water.tolist() == [0.0, 0.5, 1.0]
        assert not params.degenerate[FEATURE_NAMES.index("water")]

    def test_constant_column_degenerate(self):
        ds = self.three_water_rows([185.0, 185.0])
        params = scale_minmax(ds)
        i = FEATURE_NAMES.index("total_mass")
        assert params.degenerate[i]
        assert params.transform(ds.features)[:, i].tolist() == [0.0, 0.0]

    def test_params_applied_to_others(self):
        train = self.three_water_rows([180.0, 190.0])
        other = self.three_water_rows([185.0, 195.0])
        params = scale_minmax(train)
        water = params.transform(other.features)[:, FEATURE_NAMES.index("water")]
        assert water.tolist() == [0.5, 1.5]  # outside train range may leave [0,1]
