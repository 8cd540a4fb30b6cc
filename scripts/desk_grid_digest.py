"""Print the SHA-256 of the desk grid's three output files, twice from one process.

    PYTHONPATH=src python3 scripts/desk_grid_digest.py > digest.txt

Runs ``bufcfa simulate --grid data/accuracy_grid.grid`` (6 cells x 100
replications) twice in one process: first with every per-process cache
empty, then again with them warm from the first run.  Each run prints one
line per output file (the result JSON, ``.cells.csv`` and ``.reps.csv``):
the run number, the file's suffix and its SHA-256.  Both runs must print
the same digests, and two versions of the library write the same files
exactly when their outputs are identical: point PYTHONPATH at each
version's ``src`` and ``diff`` the two files (about 10 s each on a 2-core
host).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import sys
import tempfile
from pathlib import Path

from bufcfa import cli

GRID = Path(__file__).resolve().parent.parent / "data" / "accuracy_grid.grid"
RUNS = 2


def main() -> None:
    with tempfile.TemporaryDirectory() as workdir:
        out = Path(workdir) / "grid.json"
        for run in range(1, RUNS + 1):
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(["simulate", "--grid", str(GRID), "--out", str(out)])
            if code != 0:
                sys.exit(f"simulate exited {code}")
            for suffix in (".json", ".cells.csv", ".reps.csv"):
                digest = hashlib.sha256(out.with_suffix(suffix).read_bytes()).hexdigest()
                print(f"{run} {suffix} {digest}", flush=True)


if __name__ == "__main__":
    main()
