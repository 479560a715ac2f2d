import re
import warnings

import numpy as np
import pytest
from scipy.special import chdtrc
from scipy.stats import kstest

from _oracles import contingency_by_row_pass, load_observational_by_cells
from adjfas import data, score
from adjfas.data import (Arm, CategoricalTable, ExperimentSummary, ValidationError, _chi2_sf,
                         contingency_counts, g2_independence_test, load_experiment,
                         load_observational, save_experiment, save_observational)


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return path


class TestLoadObservational:
    def test_direct_read_back(self, tmp_path):
        p = write(tmp_path / "t.csv", "A,B,C\n0,1,0\n1,0,1\n0,0,0\n1,1,1\n0,1,1\n")
        t = load_observational(p)
        assert t.variable_names == ("A", "B", "C")
        assert t.cardinalities == (2, 2, 2)
        assert t.n == 5

    def test_empty_file_is_parse_error(self, tmp_path):
        p = write(tmp_path / "t.csv", "")
        with pytest.raises(ValidationError):
            load_observational(p)

    def test_header_only_is_schema_error(self, tmp_path):
        p = write(tmp_path / "t.csv", "A,B\n")
        with pytest.raises(ValidationError, match="no data rows"):
            load_observational(p)

    def test_non_integer_cell_names_row_and_column(self, tmp_path):
        p = write(tmp_path / "t.csv", "A,B\n0,1\n0,x\n")
        with pytest.raises(ValidationError, match=r"line 3.*'B'"):
            load_observational(p)

    @pytest.mark.parametrize("name", [score._BATCH, score._POPULATION, score._SELECTED])
    def test_scorer_reserved_names_rejected(self, tmp_path, name):
        # the scorer's pseudo-variables carry a NUL, which no column name may hold
        with pytest.raises(ValidationError, match="printable"):
            CategoricalTable(("X", name), (2, 2), [[0, 1]])
        p = write(tmp_path / "t.csv", f"X,{name}\n0,1\n1,0\n")
        with pytest.raises(ValidationError, match="printable"):
            load_observational(p)

    def test_utf8_bom_is_not_part_of_the_first_name(self, tmp_path):
        # spreadsheet "CSV UTF-8" exports start with a byte-order mark
        p = write(tmp_path / "t.csv", "\ufeffA,B\n0,1\n1,0\n")
        assert load_observational(p).variable_names == ("A", "B")

    def test_round_trip_bit_exact(self, tmp_path):
        p = write(tmp_path / "t.csv", "A,B\n0,2\n1,0\n1,1\n")
        t1 = load_observational(p)
        save_observational(t1, tmp_path / "u.csv")
        t2 = load_observational(tmp_path / "u.csv")
        assert t1.variable_names == t2.variable_names
        assert t1.cardinalities == t2.cardinalities
        assert np.array_equal(t1.rows, t2.rows)


def outcome(load, path):
    """What a loader makes of a file: its table's parts, or its error's type and text."""
    try:
        t = load(path)
    except Exception as e:  # noqa: BLE001 - the error is the outcome compared
        return type(e), str(e)
    return t.variable_names, t.cardinalities, t.rows.tolist()


class TestLoadPaths:
    """Every file loads as the cell-by-cell reader loads it, to the table or
    the error text, whether numpy's reader takes it or refuses it."""

    CLEAN = b"A,B,C\n0,1,2\n1,0,0\n0,1,2\n3,0,1\n"

    @pytest.mark.parametrize("raw", [
        CLEAN,
        b"A,B,C\n0,1,2\n1,0,0",                   # no newline after the last row
        b"\xef\xbb\xbfA,B\n0,1\n1,0\n",           # byte-order mark before the header
        b" A , B \n0,1\n1,0\n",                   # names are stripped
        b"A\n5\n0\n",                             # one column
        b"A,B\n0,0000000000000000000007\n",        # 22 digits with leading zeros
        b"A,A\n0,1\n",                             # repeated name: the table refuses it
    ])
    def test_plain_files_take_the_one_pass_parse(self, tmp_path, raw):
        p = tmp_path / "t.csv"
        p.write_bytes(raw)
        assert outcome(load_observational, p) == outcome(load_observational_by_cells, p)

    @pytest.mark.parametrize("raw", [
        b"A,B\n0,-1\n",                            # negative code
        b"A,B\n0, 1\n1,0\n",                       # space
        b"A,B\r\n0,1\r\n1,0\r\n",                  # CRLF
        b'A,B\n"0",1\n1,0\n',                      # quoted cell
        b'"A",B\n0,1\n',                            # quoted name
        b"A,B\n0,1\n\n1,0\n",                      # blank line
        b"A,B\n0,1\n1,0\n\n",                      # blank last line
        b"A,B\n\n0,1\n",                           # blank first line
        b"A,B\n0,\n1,0\n",                         # empty last cell
        b"A,B\n,1\n",                              # empty first cell
        b"A,B,C\n0,,1\n",                          # empty middle cell
        b"A,B\n0,12345678901234567890\n",          # 20 digits, past int64
        b"A,B\n0,1234567890123456789\n",           # 19 digits, inside int64
        b"A,B\n0,1\n0,1,1\n",                      # one ragged row
        b"A,B\n0,1,1\n0\n",                        # two ragged rows, commas balanced
        b"A,B\n0,1\n1",                            # short last row
        b"A,B\n",                                  # header only
        b"A,B",                                    # header only, no newline
        b"",                                       # empty file
        b"\n0,1\n",                                # empty header
        b",\n0,1\n",                               # header of empty names
        b"A,\xff\n0,1\n",                          # header not UTF-8
        b"A,B\n0,1\n1,x\n",                        # letter
    ])
    def test_other_files_load_as_the_cell_reader_loads_them(self, tmp_path, raw):
        p = tmp_path / "t.csv"
        p.write_bytes(raw)
        assert outcome(load_observational, p) == outcome(load_observational_by_cells, p)

    def test_saved_tables_take_the_one_pass_parse(self, tmp_path):
        rng = np.random.default_rng(4)
        t = CategoricalTable(("A", "B", "C"), (2, 13, 1000), np.column_stack(
            [rng.integers(0, 2, 500), rng.integers(0, 13, 500), rng.integers(0, 1000, 500)]))
        save_observational(t, tmp_path / "t.csv")
        back = load_observational(tmp_path / "t.csv")
        assert back.cardinalities == (2, 13, int(t.rows[:, 2].max()) + 1)
        assert np.array_equal(back.rows, t.rows)

    @pytest.mark.parametrize("raw", [
        CLEAN,
        b"A,B\r\n0,1\r\n1,0\r\n",                  # CRLF
        b'A,B\n"0",1\n1,"0"\n',                     # quoted cells
        b"A,B\n0, 1\n 1 ,0\n",                     # spaces around codes
        b"A,B\n0,1\n\n1,0\n\n",                     # blank lines
        b"\xef\xbb\xbfA,B\n0,1\n1,0\n",             # byte-order mark
        b"A,B\n0,1234567890123456789\n",           # 19 digits, inside int64
    ])
    def test_numpy_alone_reads_well_formed_files(self, tmp_path, monkeypatch, raw):
        p = tmp_path / "t.csv"
        p.write_bytes(raw)
        want = outcome(load_observational_by_cells, p)
        assert isinstance(want[0], tuple)

        def refuse(path):
            raise AssertionError("read cell by cell")

        monkeypatch.setattr(data, "_parse_csv", refuse)
        assert outcome(load_observational, p) == want

    def test_random_bodies_load_as_the_cell_reader_loads_them(self, tmp_path):
        rng = np.random.default_rng(18)
        odd = ["", " 3", "4 ", "+1", "-1", "1.0", "1_0", '"2"', '"', "#", "1#",
               "12345678901234567890", "1234567890123456789", '"1"2', '1"2"', "\t5"]
        for i in range(100):
            width = int(rng.integers(1, 4))
            lines = [",".join("ABC"[:width])]
            for _ in range(rng.integers(0, 5)):
                cells = width if rng.random() < 0.9 else int(rng.integers(1, 5))
                lines.append("" if rng.random() < 0.1 else ",".join(
                    odd[rng.integers(len(odd))] if rng.random() < 0.2 else str(rng.integers(10))
                    for _ in range(cells)))
            ends = ["\n", "\r\n", "\r"]
            end = ends[rng.integers(3)]
            body = "".join(line + (end if rng.random() < 0.9 else ends[rng.integers(3)])
                           for line in lines)
            p = tmp_path / f"t{i}.csv"
            p.write_bytes(body[:-1 if rng.random() < 0.2 else None].encode())
            assert outcome(load_observational, p) == outcome(load_observational_by_cells, p), body


class TestLoadExperiment:
    def good(self):
        return {"treatment": "X", "outcome": "Y", "population": "same",
                "arms": [{"x": 0, "counts": [30, 70]}, {"x": 1, "counts": [60, 40]}],
                "marginals": {"V1": [0.4, 0.6]}}

    def test_read_back(self, tmp_path):
        import json
        p = write(tmp_path / "e.json", json.dumps(self.good()))
        e = load_experiment(p)
        assert [a.total for a in e.arms] == [100, 100]
        assert e.arms[0].outcome_counts == (30, 70)

    def test_utf8_bom_accepted(self, tmp_path):
        import json
        p = write(tmp_path / "e.json", "\ufeff" + json.dumps(self.good()))
        assert load_experiment(p) == load_experiment(write(tmp_path / "f.json",
                                                           json.dumps(self.good())))

    def test_marginal_not_summing_to_one(self, tmp_path):
        import json
        doc = self.good()
        doc["marginals"] = {"V1": [0.5, 0.6]}
        p = write(tmp_path / "e.json", json.dumps(doc))
        with pytest.raises(ValidationError):
            load_experiment(p)

    def test_selected_without_marginals(self, tmp_path):
        import json
        doc = self.good()
        doc["population"] = "selected"
        doc["marginals"] = {}
        p = write(tmp_path / "e.json", json.dumps(doc))
        with pytest.raises(ValidationError):
            load_experiment(p)

    def test_n_mismatch(self, tmp_path):
        import json
        doc = self.good()
        doc["arms"][0]["n"] = 99
        p = write(tmp_path / "e.json", json.dumps(doc))
        with pytest.raises(ValidationError):
            load_experiment(p)

    def test_round_trip_bit_exact(self, tmp_path):
        import json
        doc = self.good()
        doc["marginals"] = {"V1": [0.400000003, 0.6]}  # within load tolerance
        p = write(tmp_path / "e.json", json.dumps(doc))
        e1 = load_experiment(p)
        save_experiment(e1, tmp_path / "f.json")
        e2 = load_experiment(tmp_path / "f.json")
        assert e1 == e2


class TestTableInvariants:
    @pytest.mark.parametrize("bad", [1.7, np.nan, np.inf, -np.inf])
    def test_non_integer_code_rejected(self, bad):
        # a float code is not truncated; NaN and inf are refused without a numpy warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match="not an integer"):
                CategoricalTable(("A", "B"), (2, 2), [[0, 1], [bad, 0]])
        assert CategoricalTable(("A",), (2,), [[1.0], [0.0]]).rows.tolist() == [[1], [0]]


    @pytest.mark.parametrize("names, cards, rows, message", [
        (("A", "B"), (2,), [[0, 1]], "variable_names, cardinalities and row width must agree"),
        (("A", "B"), (2, 2), [[0, 1, 0]], "variable_names, cardinalities and row width must agree"),
        (("A", "B"), (2, 0), [[0, 0]], "cardinalities must be positive"),
        (("A", "B"), (2, 2), [[0, 1], [-1, 0]], "negative category code"),
        (("A", "B"), (2, 3), [[0, 1], [2, 0]], "column 'A' holds code 2, cardinality is 2"),
    ])
    def test_invariant_rejected(self, names, cards, rows, message):
        with pytest.raises(ValidationError, match=re.escape(message)):
            CategoricalTable(names, cards, np.array(rows))

    def test_unknown_name_rejected(self):
        t = CategoricalTable(("A", "B"), (2, 2), [[0, 1], [1, 0]])
        with pytest.raises(ValidationError, match="unknown variable 'Q'"):
            contingency_counts(t, ["Q"])
        with pytest.raises(ValidationError, match=re.escape("unknown variables: ['Q']")):
            t.restrict({"Q"})


class TestArmAndSummaryInvariants:
    @pytest.mark.parametrize("x, counts", [(1.5, (2, 3)), (0, (2.5, 3)), (0, (2, np.nan)),
                                           (True, (3, 4)), (0, ("3", "4"))])
    def test_non_integer_arm_value_rejected(self, x, counts):
        with pytest.raises(ValidationError, match="must be integers"):
            Arm(x, counts)

    def test_total_is_the_count_sum(self):
        assert Arm(np.int64(1), (np.int64(3), 4)).total == 7

    def test_nan_marginal_rejected(self):
        arms = (Arm(0, (1, 2)), Arm(1, (2, 1)))
        with pytest.raises(ValidationError, match="non-negative vector"):
            ExperimentSummary("X", "Y", arms, {"V": (np.nan, 1.0)}, "selected")

    def test_duplicate_arm_values(self):
        with pytest.raises(ValidationError):
            ExperimentSummary("X", "Y", (Arm(0, [1, 2]), Arm(0, [2, 1])))

    def test_marginal_for_treatment_rejected(self):
        with pytest.raises(ValidationError):
            ExperimentSummary("X", "Y", (Arm(0, [1, 2]),),
                              reported_marginals={"X": (0.5, 0.5)})


class TestContingency:
    def test_hand_count(self):
        t = CategoricalTable(("A", "B"), (2, 2), np.array([[0, 0], [0, 1], [1, 0], [1, 0]]))
        assert contingency_counts(t, ["A", "B"]).tolist() == [[1, 1], [2, 0]]

    def test_empty_vars_gives_n(self):
        t = CategoricalTable(("A",), (2,), np.array([[0], [1], [1]]))
        assert int(contingency_counts(t, [])) == 3

    def test_single_var_all_ones(self):
        t = CategoricalTable(("A",), (2,), np.ones((7, 1), dtype=int))
        assert contingency_counts(t, ["A"]).tolist() == [0, 7]

    def test_too_many_cells_is_refused_before_counting(self):
        big = 2 ** 40
        t = CategoricalTable(("A", "B"), (big, big), np.array([[0, big - 1], [big - 1, 0]]))
        with pytest.raises(ValidationError, match=r"A \(1099511627776\), B \(1099511627776\).*dense"):
            contingency_counts(t, ["A", "B"])

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(0)
        rows = np.column_stack([rng.integers(0, 2, 100), rng.integers(0, 3, 100)])
        t = CategoricalTable(("A", "B"), (2, 3), rows)
        ab = contingency_counts(t, ["A", "B"])
        ba = contingency_counts(t, ["B", "A"])
        assert np.array_equal(ab, ba.T)


class TestCountsFromDistinctRows:
    """Counts come from the distinct rows; one bincount over every row is the reference."""

    @staticmethod
    def assert_counts(t, vars):
        got, want = contingency_counts(t, vars), contingency_by_row_pass(t, vars)
        assert got.dtype == np.int64 and want.dtype == np.int64
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("seed", range(5))
    def test_random_tables_with_repeated_rows(self, seed):
        rng = np.random.default_rng(seed)
        cards = tuple(int(c) for c in rng.integers(1, 5, 6))
        patterns = np.column_stack([rng.integers(0, c, 40) for c in cards])
        t = CategoricalTable(tuple("ABCDEF"), cards, patterns[rng.integers(0, 40, 3000)])
        assert len(t.distinct[0]) < t.n
        assert t.distinct[1].sum() == t.n
        for k in range(4):
            for vars in (rng.permutation(list("ABCDEF"))[:k].tolist() for _ in range(4)):
                self.assert_counts(t, vars)

    def test_zero_rows(self):
        t = CategoricalTable(("A", "B"), (2, 3), np.zeros((0, 2), dtype=np.int64))
        for vars in ([], ["A"], ["B", "A"]):
            self.assert_counts(t, vars)

    def test_empty_query(self):
        t = CategoricalTable(("A",), (2,), np.array([[0], [1], [1]]))
        assert contingency_counts(t, []).shape == ()
        self.assert_counts(t, [])

    def test_restricted_table(self):
        rng = np.random.default_rng(7)
        t = CategoricalTable(("A", "B", "C", "D"), (2, 3, 2, 3),
                             np.column_stack([rng.integers(0, c, 800) for c in (2, 3, 2, 3)]))
        t.distinct  # the parent's view is built first, and the restriction builds its own
        sub = t.restrict({"D", "A", "C"})
        assert sub.variable_names == ("A", "C", "D")
        for vars in (["A"], ["D", "A"], ["C", "A", "D"]):
            self.assert_counts(sub, vars)
            assert np.array_equal(contingency_counts(sub, vars), contingency_counts(t, vars))

    def test_seventy_binary_columns(self):
        # the joint has 2**70 cells, so the row code is renumbered before it overflows
        rng = np.random.default_rng(70)
        names = tuple(f"V{i}" for i in range(70))
        patterns = rng.integers(0, 2, (25, 70))
        t = CategoricalTable(names, (2,) * 70, patterns[rng.integers(0, 25, 600)])
        rows, counts = t.distinct
        want_rows, want_counts = np.unique(t.rows, axis=0, return_counts=True)
        assert np.array_equal(rows, want_rows) and np.array_equal(counts, want_counts)
        for vars in (["V0"], ["V69", "V3"], list(names[-16:]), list(names[::5])):
            self.assert_counts(t, vars)

    def test_columns_too_wide_for_one_code(self):
        # two cardinalities near 2**62 cannot share an int64 code even after renumbering
        big = 2 ** 62
        rows = np.array([[big - 1, 5, 0], [3, big - 2, 1], [big - 1, 5, 2], [3, big - 2, 1]])
        t = CategoricalTable(("A", "B", "C"), (big, big, 3), rows)
        got_rows, counts = t.distinct
        want_rows, want_counts = np.unique(rows, axis=0, return_counts=True)
        assert np.array_equal(got_rows, want_rows) and np.array_equal(counts, want_counts)
        self.assert_counts(t, ["C"])


class TestG2:
    def test_perfect_dependence(self):
        rng = np.random.default_rng(1)
        a = rng.integers(0, 2, 1000)
        t = CategoricalTable(("A", "B"), (2, 2), np.column_stack([a, a]))
        assert g2_independence_test(t, "A", "B") < 1e-6

    def test_null_p_values_uniform(self):
        # simulation of the null: p-values over 200 independent replicates
        rng = np.random.default_rng(123)
        pvals = []
        for _ in range(200):
            rows = np.column_stack([rng.integers(0, 2, 10000), rng.integers(0, 2, 10000)])
            t = CategoricalTable(("A", "B"), (2, 2), rows)
            pvals.append(g2_independence_test(t, "A", "B"))
        assert kstest(pvals, "uniform").pvalue > 0.01

    def test_two_degrees_of_freedom_closed_form(self):
        # df = (2-1)(3-1) = 2, where the chi-squared survival is exp(-g²/2)
        rng = np.random.default_rng(8)
        a = rng.integers(0, 2, 400)
        b = (a + rng.integers(0, 2, 400)) % 3
        t = CategoricalTable(("A", "B"), (2, 3), np.column_stack([a, b]))
        n = np.zeros((2, 3))
        np.add.at(n, (a, b), 1)
        expected = n.sum(axis=1, keepdims=True) * n.sum(axis=0, keepdims=True) / n.sum()
        pos = n > 0
        g2 = 2.0 * float(np.sum(n[pos] * np.log(n[pos] / expected[pos])))
        assert g2_independence_test(t, "A", "B") == pytest.approx(np.exp(-g2 / 2), rel=1e-12)

    def test_no_data_gives_p_one(self):
        t = CategoricalTable(("A", "B"), (2, 2), np.empty((0, 2), dtype=int))
        assert g2_independence_test(t, "A", "B") == 1.0

    def test_relabel_invariance(self):
        rng = np.random.default_rng(3)
        a = rng.integers(0, 3, 500)
        b = (a + rng.integers(0, 2, 500)) % 3
        t1 = CategoricalTable(("A", "B"), (3, 3), np.column_stack([a, b]))
        perm = np.array([2, 0, 1])
        t2 = CategoricalTable(("A", "B"), (3, 3), np.column_stack([perm[a], b]))
        assert g2_independence_test(t1, "A", "B") == pytest.approx(
            g2_independence_test(t2, "A", "B"), abs=1e-12)


class TestChiSquareTail:
    """``_chi2_sf`` against scipy's ``chdtrc`` as the reference."""

    @staticmethod
    def _grid(df):
        return np.concatenate([[0.0, 1e-12], np.geomspace(1e-6, 8 * df + 1500, 40)])

    @pytest.mark.parametrize("dfs, rtol", [
        ([*range(1, 301), *range(301, 1001, 11)], 1e-12),
        # here chdtrc itself strays up to 1.6e-12 from a 40-digit reference
        # (mpmath) in the far tail, while _chi2_sf stays within about 2e-13 of it
        (range(1001, 2001, 23), 2.5e-12),
    ])
    def test_matches_chdtrc(self, dfs, rtol):
        worst = 0.0
        for df in dfs:
            for x in self._grid(df).tolist():
                want, got = float(chdtrc(df, x)), _chi2_sf(x, df)
                if want < 1e-300:  # past the normal range: both must be negligible
                    assert got < 1e-290, (df, x, got)
                    continue
                worst = max(worst, abs(got - want) / want)
        assert worst <= rtol

    def test_edges(self):
        assert _chi2_sf(0.0, 1) == 1.0 == _chi2_sf(0.0, 2000)
        assert _chi2_sf(-1e-15, 3) == 1.0  # a G² rounded below zero
        assert _chi2_sf(1e6, 1) == 0.0 == float(chdtrc(1, 1e6))
        for df in (1, 2, 3):
            assert _chi2_sf(1e-300, df) == pytest.approx(1.0, abs=1e-15)
