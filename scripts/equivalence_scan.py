"""Print a fingerprint of every procedure's result over a fixed set of samples.

    PYTHONPATH=src python3 scripts/equivalence_scan.py > scan.txt

Each sample is an n = 300 draw from the population of
``data/population_corr.dat`` (``draw_sample`` with ``SeedSequence([777, s])``).
Every sample is fitted by six procedures: ICM, one-step with free phi,
one-step with phi .3, multi-step, and the specification search at
threshold 10 with free phi and with phi fixed at .3.  Each (sample, procedure) gives one line: the final F
(``float.hex``), the iterations of every step, the convergence flag, and a
SHA-256 over every step's F and estimates, the trace's balance quality
index (``float.hex``), its final pattern's cell roles and, for the search,
the MI table.

Two versions of the library give identical results on these samples
exactly when the outputs are identical: point PYTHONPATH at each version's
``src`` and ``diff`` the two files.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

import numpy as np

from bufcfa import (
    block_pattern,
    draw_sample,
    icm,
    multi_step,
    one_step,
    read_correlation_matrix,
    specification_search,
)

DATA = Path(__file__).resolve().parent.parent / "data"
SAMPLES = 100

PROCEDURES = {
    "icm": lambda pattern, moments: icm(pattern, "free", moments),
    "one-step-free": lambda pattern, moments: one_step(pattern, "free", moments),
    "one-step-phi.3": lambda pattern, moments: one_step(pattern, 0.3, moments),
    "multi-step": lambda pattern, moments: multi_step(pattern, moments),
    "search": lambda pattern, moments: specification_search(pattern, moments, mi_threshold=10.0),
    "search-phi.3": lambda pattern, moments: specification_search(
        pattern, moments, mi_threshold=10.0, phi_spec=0.3
    ),
}


def fingerprint(trace) -> str:
    digest = hashlib.sha256()
    for step in trace.steps:
        solution = step.solution
        digest.update(float(solution.f_min).hex().encode())
        for array in (solution.lambda_hat, solution.phi_hat, solution.psi_hat):
            digest.update(np.ascontiguousarray(array, dtype=np.float64).tobytes())
    digest.update(float(trace.quality_index).hex().encode())
    digest.update(" ".join(cell.value for cell in trace.pattern.cells.flat).encode())
    for i, j, mi in trace.mi_table or ():
        digest.update(f"{i},{j},{float(mi).hex()};".encode())
    return digest.hexdigest()


def main() -> None:
    population = read_correlation_matrix(DATA / "population_corr.dat").S
    pattern = block_pattern(3, 6, "zero")
    for s in range(SAMPLES):
        _, moments = draw_sample(population, 300, np.random.SeedSequence([777, s]))
        for name, run in PROCEDURES.items():
            trace = run(pattern, moments)
            iterations = ",".join(str(step.solution.n_iterations) for step in trace.steps)
            print(
                f"{s} {name} {float(trace.final.solution.f_min).hex()} {iterations} "
                f"{trace.converged} {fingerprint(trace)}",
                flush=True,
            )


if __name__ == "__main__":
    main()
