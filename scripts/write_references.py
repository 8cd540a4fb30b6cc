"""Regenerate the reference results that tier-1 compares every change against.

    PYTHONPATH=src python3 scripts/write_references.py

Writes two files under ``tests/reference/``:

- ``scan.txt``: ``scripts/equivalence_scan.py --samples 20``, the scan's
  first 20 samples (120 procedure lines and 20 alignment lines), under a
  ``#`` header naming the numpy and BLAS build that produced it;
- ``desk_grid.json``: per cell of the desk grid (``data/accuracy_grid.grid``,
  the design of the criterion-7 acceptance test), the replication and
  convergence counts and the mean of every metric, with the same build.

The last bits of a fit depend on the numpy and BLAS build, so a reference
holds for the build in its header.  Regenerate both files only in a change
that moves results on purpose, and list the old and new values with it
(``scripts/compare_scans.py`` for the scan).
"""

from __future__ import annotations

import contextlib
import json
import platform
from pathlib import Path

import numpy as np

import equivalence_scan
from bufcfa.modelspec import parse_grid_document
from bufcfa.simulation import ESTIMATORS, METRICS, GridSpec, run_grid

ROOT = Path(__file__).resolve().parent.parent
REFERENCE = ROOT / "tests" / "reference"
SCAN_SAMPLES = 20


def build() -> str:
    """The numpy version, the BLAS build, Python and the machine, on one line."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    config = " ".join(blas.get("openblas configuration", "").split())
    return (
        f"numpy {np.__version__}; BLAS {blas['name']} {blas['version']} ({config}); "
        f"Python {platform.python_version()}; {platform.machine()}"
    )


def write_scan(path: Path) -> None:
    with path.open("w") as out, contextlib.redirect_stdout(out):
        print(f"# scripts/equivalence_scan.py --samples {SCAN_SAMPLES}")
        print(f"# {build()}")
        equivalence_scan.main(["--samples", str(SCAN_SAMPLES)])


def write_desk_grid(path: Path) -> None:
    grid_path = ROOT / "data" / "accuracy_grid.grid"
    summaries, _ = run_grid(GridSpec(**parse_grid_document(grid_path.read_text())))
    names = ["salient", "nonsalient", "phi", "n", "replications"]
    names += [f"{e}_converged" for e in ESTIMATORS]
    names += [f"{e}_{m}_mean" for m in METRICS for e in ESTIMATORS]
    doc = {
        "grid": "data/accuracy_grid.grid",
        "build": build(),
        "cells": [{name: getattr(summary, name) for name in names} for summary in summaries],
    }
    path.write_text(json.dumps(doc, indent=1) + "\n")


def main() -> None:
    REFERENCE.mkdir(exist_ok=True)
    write_scan(REFERENCE / "scan.txt")
    write_desk_grid(REFERENCE / "desk_grid.json")


if __name__ == "__main__":
    main()
