import dataclasses
import json

import numpy as np
import pytest

from bufcfa.errors import InputError, StructureError
from bufcfa.estimation import SampleMoments
from bufcfa.io import (
    read_correlation_matrix,
    read_raw_data,
    read_result,
    write_raw_data,
    write_result,
)
from bufcfa.procedures import icm, multi_step, one_step
from bufcfa.simulation import CellSummary, GridSpec, draw_sample, run_grid


def _documented_header(data_dir, table: str) -> str:
    """The column line docs/file_formats.md gives under a table's name."""
    lines = (data_dir.parent / "docs" / "file_formats.md").read_text().splitlines()
    return lines[lines.index(f"`{table}`:") + 1].strip("`")


class TestCorrelationInput:
    def test_shipped_population_matrix(self, data_dir, population):
        moments = read_correlation_matrix(data_dir / "population_corr.dat")
        assert moments.p == 18
        assert moments.n == 500
        assert np.max(np.abs(moments.S - population.sigma)) < 1e-12

    def test_flag_overrides_header(self, data_dir):
        moments = read_correlation_matrix(data_dir / "population_corr.dat", n=750)
        assert moments.n == 750

    def test_non_square_rejected(self, tmp_path):
        path = tmp_path / "bad.dat"
        path.write_text("n: 50\n1 0.2 0.1 0\n0.2 1 0.3 0\n0.1 0.3 1 0\n")
        with pytest.raises(InputError, match="not square"):
            read_correlation_matrix(path)

    def test_asymmetry_rejected(self, tmp_path):
        path = tmp_path / "asym.dat"
        path.write_text("n: 50\n1 0.2\n0.3 1\n")
        with pytest.raises(InputError, match="asymmetric"):
            read_correlation_matrix(path)

    def test_missing_n_rejected(self, tmp_path):
        path = tmp_path / "non.dat"
        path.write_text("1 0.2\n0.2 1\n")
        with pytest.raises(InputError, match="sample size missing"):
            read_correlation_matrix(path)
        assert read_correlation_matrix(path, n=30).n == 30

    def test_non_pd_rejected(self, tmp_path):
        path = tmp_path / "npd.dat"
        path.write_text("n: 50\n1 1.1\n1.1 1\n")
        with pytest.raises(InputError, match="positive definite"):
            read_correlation_matrix(path)

    def test_comma_delimited(self, tmp_path):
        path = tmp_path / "commas.dat"
        path.write_text("n: 50\n1,0.2\n0.2,1\n")
        assert read_correlation_matrix(path).S[0, 1] == 0.2

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_entry_rejected(self, tmp_path, value):
        path = tmp_path / "nonfinite.dat"
        path.write_text(f"n: 50\n1 0.2 0.1\n0.2 1 {value}\n0.1 {value} 1\n")
        with pytest.raises(InputError, match=r"nonfinite\.dat:3: non-finite matrix entry"):
            read_correlation_matrix(path)


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_sample_moments_reject_non_finite_entries(value):
    S = np.eye(3)
    S[0, 2] = S[2, 0] = value
    with pytest.raises(StructureError, match="non-finite"):
        SampleMoments(S)


class TestRawInput:
    def test_round_trip_matches_sampler(self, tmp_path, population):
        data, moments = draw_sample(population.sigma, 1000, 4242)
        names = [f"x{i}" for i in range(1, 19)]
        path = tmp_path / "sample.raw"
        write_raw_data(path, data, names)
        reread = read_raw_data(path)
        assert reread.n == 1000
        assert reread.names == tuple(names)
        assert np.max(np.abs(reread.S - moments.S)) < 1e-12

    def test_ragged_row_rejected(self, tmp_path):
        path = tmp_path / "ragged.raw"
        path.write_text("a b\n1 2\n3\n")
        with pytest.raises(InputError, match="row has"):
            read_raw_data(path)

    def test_too_few_rows_rejected(self, tmp_path):
        path = tmp_path / "short.raw"
        path.write_text("a b\n1 2\n")
        with pytest.raises(InputError, match="more observations"):
            read_raw_data(path)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_entry_rejected(self, tmp_path, value):
        path = tmp_path / "nonfinite.raw"
        path.write_text(f"a b\n1 2\n3 {value}\n5 7\n2 1\n")
        with pytest.raises(InputError, match=r"nonfinite\.raw:3: non-finite data entry"):
            read_raw_data(path)

    @pytest.mark.parametrize(
        "rows, message",
        [
            ("3 x\n5\n", r":3: non-numeric data entry"),
            ("5\n3 x\n", r":3: row has 1 values, expected 2"),
            ("3 x\n5 inf\n", r":3: non-numeric data entry"),
            ("5 inf\n3 x\n", r":3: non-finite data entry"),
        ],
        ids=["non-numeric first", "ragged first", "non-numeric then non-finite", "non-finite first"],
    )
    def test_first_bad_row_is_reported(self, tmp_path, rows, message):
        path = tmp_path / "bad.raw"
        path.write_text("a b\n1 2\n" + rows + "2 1\n7 5\n")
        with pytest.raises(InputError, match=message):
            read_raw_data(path)

    def test_cells_convert_as_python_floats_do(self, tmp_path):
        cells = ["1_0", "\u0663.\u0665", "+.5", "1.5E+3", "-2.", "4e-1"]
        path = tmp_path / "forms.raw"
        path.write_text("a b\n" + "".join(f"{c} {i}\n" for i, c in enumerate(cells)))
        expected = np.corrcoef([[float(c), i] for i, c in enumerate(cells)], rowvar=False)
        assert np.array_equal(read_raw_data(path).S, expected)

    def test_constant_column_rejected_by_name(self, tmp_path):
        path = tmp_path / "constant.raw"
        path.write_text("a b c\n1 0.1 5\n3 0.1 4\n5 0.1 9\n4 0.1 1\n")
        with pytest.raises(InputError, match="variable\\(s\\) b have zero variance"):
            read_raw_data(path)


class TestResultDocuments:
    def test_trace_round_trip_full_precision(self, tmp_path, population_moments, icm_pattern):
        trace = one_step(icm_pattern, "free", population_moments)
        path = tmp_path / "result.json"
        write_result(trace, path)
        doc = read_result(path)
        assert doc["kind"] == "procedure_trace"
        stored = np.array(doc["steps"][-1]["solution"]["lambda"])
        assert np.max(np.abs(stored - trace.final.solution.lambda_hat)) < 1e-10
        assert doc["quality_index"] == pytest.approx(trace.quality_index, abs=1e-15)
        assert doc["steps"][-1]["report"]["srmr"] == trace.final.report.srmr

    def test_multi_step_trace_stores_weights(self, tmp_path, population_moments, icm_pattern):
        trace = multi_step(icm_pattern, population_moments)
        path = tmp_path / "ms.json"
        write_result(trace, path)
        doc = read_result(path)
        steps = doc["steps"]
        assert steps[0]["weights"] is None
        assert steps[1]["weights"] is not None
        assert steps[1]["weight_gap"] > steps[2]["weight_gap"]

    def test_pattern_cells_are_role_strings(self, tmp_path, population_moments, icm_pattern):
        mixed = icm_pattern.with_cells_freed([(0, 1), (17, 0)])
        trace = dataclasses.replace(icm(icm_pattern, "free", population_moments), pattern=mixed)
        path = tmp_path / "result.json"
        write_result(trace, path)
        expected = [["salient" if j == i // 6 else "zero" for j in range(3)] for i in range(18)]
        expected[0][1] = expected[17][0] = "nonsalient"
        assert read_result(path)["pattern"] == {"p": 18, "q": 3, "cells": expected}

    def test_grid_tables_written(self, tmp_path, data_dir):
        grid = GridSpec((0.6,), (0.0,), (0.0,), (300,), replications=2, master_seed=3)
        summaries, records = run_grid(grid)
        path = tmp_path / "grid.json"
        write_result((summaries, records), path)
        cells = (tmp_path / "grid.cells.csv").read_text().splitlines()
        reps = (tmp_path / "grid.reps.csv").read_text().splitlines()
        assert len(cells) == 2  # header + one cell
        assert len(reps) == 3  # header + two replications
        assert cells[0] == _documented_header(data_dir, "*.cells.csv")
        assert reps[0] == _documented_header(data_dir, "*.reps.csv")
        doc = read_result(path)
        assert doc["kind"] == "grid_summary"
        assert len(doc["records"]) == 2

    def test_unreadable_result(self, tmp_path):
        path = tmp_path / "nope.json"
        with pytest.raises(InputError):
            read_result(path)
        path.write_text("{not json")
        with pytest.raises(InputError, match="not a valid result"):
            read_result(path)

    def test_unsupported_payload(self, tmp_path):
        with pytest.raises(InputError):
            write_result({"kind": "other"}, tmp_path / "x.json")
        summary = CellSummary(*[0] * len(dataclasses.fields(CellSummary)))
        with pytest.raises(InputError):
            write_result([summary], tmp_path / "x.json")


def test_star_import_keeps_submodules_out():
    namespace = {}
    exec("import io\nfrom bufcfa import *", namespace)
    assert namespace["io"].StringIO().getvalue() == ""
    assert "fit" in namespace and "estimation" not in namespace


@pytest.mark.parametrize("reader, text", [
    (read_correlation_matrix, "n: 50\n1 0.2\n0.2 1\n"),
    (read_raw_data, "a b\n1 2\n3 1\n5 7\n"),
], ids=["correlation", "raw"])
def test_readers_let_programming_errors_through(tmp_path, monkeypatch, reader, text):
    def broken(*args, **kwargs):
        raise TypeError("a bug, not bad input")

    monkeypatch.setattr("bufcfa.io.SampleMoments", broken)
    path = tmp_path / "input.txt"
    path.write_text(text)
    with pytest.raises(TypeError, match="a bug"):
        reader(path)
