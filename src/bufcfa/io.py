"""Data ingestion and result serialization.

Correlation files: optional comment lines (``#``), an ``n: <int>`` header
line (optional when the caller supplies n), then p rows of p whitespace- or
comma-delimited decimals.  Raw data files: a header row of variable names,
then one delimited row per observation.

Results are written as JSON with full float precision (17 significant
digits), so re-reading reproduces every value bit-for-bit; simulation
summaries additionally go to a delimited table with a fixed column order.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path
from typing import Optional

import numpy as np

from .errors import BufcfaError, InputError
from .estimation import SampleMoments
from .fit_indices import FitReport
from .model import LoadingPattern, Solution
from .procedures import ProcedureTrace
from .simulation import CellSummary, RepRecord

SUMMARY_COLUMNS = [f.name for f in dataclasses.fields(CellSummary)]
RECORD_COLUMNS = [f.name for f in dataclasses.fields(RepRecord)]
REPORT_FIELDS = [f.name for f in dataclasses.fields(FitReport)]


def _split_cells(line: str) -> list[str]:
    return line.replace(",", " ").split()


def read_correlation_matrix(path, n: Optional[int] = None) -> SampleMoments:
    """Read a square correlation/covariance matrix plus its n declaration.

    ``n`` overrides any header declaration; if neither is present the file
    is rejected.
    """
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    rows: list[list[float]] = []
    declared_n: Optional[int] = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.lower().startswith("n"):
            head, _, value = line.partition(":")
            if head.strip().lower() == "n":
                try:
                    declared_n = int(value.strip())
                except ValueError:
                    raise InputError(f"{path}:{lineno}: malformed n declaration {line!r}") from None
                continue
        try:
            rows.append([float(x) for x in _split_cells(line)])
        except ValueError:
            raise InputError(f"{path}:{lineno}: non-numeric matrix entry in {line!r}") from None
        if not np.isfinite(rows[-1]).all():
            raise InputError(f"{path}:{lineno}: non-finite matrix entry in {line!r}")
    if not rows:
        raise InputError(f"{path}: no matrix rows found")
    p = len(rows)
    if any(len(r) != p for r in rows):
        widths = sorted({len(r) for r in rows})
        raise InputError(f"{path}: matrix is not square ({p} rows, widths {widths})")
    S = np.array(rows)
    effective_n = n if n is not None else declared_n
    if effective_n is None:
        raise InputError(f"{path}: sample size missing (no 'n:' header and no --n)")
    try:
        return SampleMoments(S, n=effective_n)
    except BufcfaError as exc:
        raise InputError(f"{path}: {exc}") from exc


def read_raw_data(path) -> SampleMoments:
    """Read delimited observations (header of names, one row per case)."""
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    lines = [
        stripped
        for raw in text.splitlines()
        if (stripped := raw.split("#", 1)[0].strip())
    ]
    if len(lines) < 2:
        raise InputError(f"{path}: need a header line plus data rows")
    names = tuple(_split_cells(lines[0]))
    rows = [_split_cells(line) for line in lines[1:]]
    try:
        data = np.array(rows, dtype=float)  # converts each cell as float() does
    except ValueError:  # a ragged or non-numeric row
        data = None
    if data is None or data.shape[1] != len(names) or not np.isfinite(data).all():
        _raise_first_bad_row(path, rows, len(names))
    if data.shape[0] <= data.shape[1]:
        raise InputError(f"{path}: need more observations than variables")
    constant = [name for name, column in zip(names, data.T) if np.all(column == column[0])]
    if constant:
        raise InputError(f"{path}: variable(s) {', '.join(constant)} have zero variance")
    R = np.corrcoef(data, rowvar=False)
    try:
        return SampleMoments(R, n=data.shape[0], names=names)
    except BufcfaError as exc:
        raise InputError(f"{path}: {exc}") from exc


def _raise_first_bad_row(path: Path, rows: list[list[str]], width: int) -> None:
    """Raise the error of the first row that is ragged, non-numeric or non-finite."""
    for lineno, cells in enumerate(rows, start=2):
        if len(cells) != width:
            raise InputError(f"{path}:{lineno}: row has {len(cells)} values, expected {width}")
        try:
            values = [float(x) for x in cells]
        except ValueError:
            raise InputError(f"{path}:{lineno}: non-numeric data entry") from None
        if not np.isfinite(values).all():
            raise InputError(f"{path}:{lineno}: non-finite data entry")


def write_raw_data(path, data: np.ndarray, names) -> None:
    """Inverse of :func:`read_raw_data` at full precision."""
    data = np.asarray(data, dtype=float)
    lines = [" ".join(names)]
    for row in data:
        lines.append(" ".join(repr(float(x)) for x in row))
    Path(path).write_text("\n".join(lines) + "\n")


def _array(a) -> list:
    return np.asarray(a).tolist()


def _solution_dict(s: Solution) -> dict:
    return {
        "lambda": _array(s.lambda_hat),
        "phi": _array(s.phi_hat),
        "psi": _array(s.psi_hat),
        "f_min": s.f_min,
        "n_iterations": s.n_iterations,
        "converged": s.converged,
        "constraint_residuals": _array(s.constraint_residuals),
        "gradient_norm": s.gradient_norm,
    }


def _fields(record, names) -> dict:
    """A flat record's fields in field order: ``dataclasses.asdict`` without its deep copies."""
    return {name: getattr(record, name) for name in names}



def _pattern_dict(pattern: LoadingPattern) -> dict:
    """The pattern with each cell's role as a string: salient, nonsalient or zero."""
    roles = np.where(pattern.salient, "salient", np.where(pattern.free, "nonsalient", "zero"))
    return {"p": pattern.p, "q": pattern.q, "cells": roles.tolist()}


def trace_to_dict(trace: ProcedureTrace) -> dict:
    return {
        "kind": "procedure_trace",
        "procedure": trace.procedure,
        "converged": trace.converged,
        "quality_index": trace.quality_index,
        "pattern": _pattern_dict(trace.pattern),
        "mi_table": [list(row) for row in trace.mi_table] if trace.mi_table else None,
        "steps": [
            {
                "label": step.label,
                "solution": _solution_dict(step.solution),
                "report": _fields(step.report, REPORT_FIELDS),
                "weights": _array(step.weights) if step.weights is not None else None,
                "weight_gap": step.weight_gap,
            }
            for step in trace.steps
        ],
    }


def summaries_to_dict(summaries: list[CellSummary], records: list[RepRecord]) -> dict:
    return {
        "kind": "grid_summary",
        "columns": SUMMARY_COLUMNS,
        "cells": [_fields(s, SUMMARY_COLUMNS) for s in summaries],
        "records": [_fields(r, RECORD_COLUMNS) for r in records],
    }


def write_result(payload, path) -> None:
    """Serialize a trace or grid output to JSON at full float precision.

    Grid output is a (summaries, records) pair, which also produces
    ``<path stem>.cells.csv`` and ``<path stem>.reps.csv`` tables next to
    the JSON document.
    """
    path = Path(path)
    summaries = records = None
    if isinstance(payload, ProcedureTrace):
        doc = trace_to_dict(payload)
    elif (
        isinstance(payload, tuple)
        and len(payload) == 2
        and all(isinstance(s, CellSummary) for s in payload[0])
    ):
        summaries, records = list(payload[0]), list(payload[1])
        doc = summaries_to_dict(summaries, records)
    else:
        raise InputError(f"cannot serialize object of type {type(payload).__name__}")
    try:
        path.write_text(json.dumps(doc, indent=1))
    except OSError as exc:
        raise InputError(f"cannot write {path}: {exc}") from exc
    if summaries is not None:
        write_grid_tables(summaries, records, path)


def _csv_value(v) -> str:
    if v is None:
        return ""
    if isinstance(v, (bool, np.bool_)):
        return "1" if v else "0"
    if isinstance(v, float):
        return repr(float(v))
    return str(v)


def write_grid_tables(summaries, records, json_path) -> None:
    base = Path(json_path)
    for suffix, columns, rows in (
        (".cells.csv", SUMMARY_COLUMNS, summaries),
        (".reps.csv", RECORD_COLUMNS, records),
    ):
        with base.with_suffix(suffix).open("w") as fh:
            fh.write(",".join(columns) + "\n")
            for row in rows:
                fh.write(",".join(_csv_value(getattr(row, name)) for name in columns) + "\n")


def read_result(path) -> dict:
    """Load a result document written by :func:`write_result`."""
    path = Path(path)
    try:
        return json.loads(path.read_text())
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}: not a valid result document ({exc})") from exc
