"""Print a fingerprint of every procedure's result over a fixed set of samples.

    PYTHONPATH=src python3 scripts/equivalence_scan.py > scan.txt
    PYTHONPATH=src python3 scripts/equivalence_scan.py --samples 20 > subset.txt

Each sample is an n = 300 draw from the population of
``data/population_corr.dat`` (``draw_sample`` with ``SeedSequence([777, s])``).
Every sample is fitted by six procedures: ICM, one-step with free phi,
one-step with phi .3, multi-step, and the specification search at
threshold 10 with free phi and with phi fixed at .3.  Each (sample, procedure) gives one line: the final F
(``float.hex``), the iterations of every step, the convergence flag, and a
SHA-256 over every step's F and estimates, the trace's balance quality
index (``float.hex``), its final pattern's cell roles (the result JSON's
strings) and, for the search, the MI table.  A search line then names its
decisions in plain text: the freed cells (``freed=i,j;...`` or ``-``; the
scan's pattern frees no secondary cell itself) and the final roles, one
letter per cell (salient, nonsalient, zero) and one ``/``-separated group
per variable.  So a diff tells a rounding change, where only the SHA
moves, from a changed search decision.  One more line per sample
fingerprints ``align_to_population`` on the ICM and the one-step free-phi
estimates against the population's loadings, once as fitted and once from
a copy with its factors permuted by ``[2, 0, 1]`` and the first negated,
so that non-identity assignments run on real estimates too.

Two versions of the library give identical results on these samples
exactly when the outputs are identical: point PYTHONPATH at each version's
``src`` and ``diff`` the two files.  ``--samples K`` scans samples 0 to
K - 1 only; tier-1 compares the first 20 with the committed reference,
``tests/reference/scan.txt`` (``scripts/write_references.py``).
"""

from __future__ import annotations

import argparse
import hashlib
from pathlib import Path

import numpy as np

from bufcfa import (
    align_to_population,
    balanced_population,
    block_pattern,
    draw_sample,
    icm,
    multi_step,
    one_step,
    read_correlation_matrix,
    specification_search,
)
from bufcfa.io import trace_to_dict

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
    roles = trace_to_dict(trace)["pattern"]["cells"]
    digest.update(" ".join(role for row in roles for role in row).encode())
    for i, j, mi in trace.mi_table or ():
        digest.update(f"{i},{j},{float(mi).hex()};".encode())
    return digest.hexdigest()


def decisions(trace) -> str:
    """The search's freed cells and final cell roles, in plain text."""
    pattern = trace.pattern
    freed = ";".join(f"{i},{j}" for i, j in np.argwhere(pattern.free & ~pattern.salient).tolist())
    cells = trace_to_dict(trace)["pattern"]["cells"]
    roles = "/".join("".join(role[0] for role in row) for row in cells)
    return f" freed={freed or '-'} roles={roles}"


def _scrambled(lam, phi):
    """The same solution with its factors reordered by [2, 0, 1] and the first negated."""
    order = [2, 0, 1]
    lam, phi = lam[:, order].copy(), phi[np.ix_(order, order)].copy()
    lam[:, 0] *= -1.0
    phi[0, :] *= -1.0
    phi[:, 0] *= -1.0
    phi[0, 0] = 1.0
    return lam, phi


def alignment_fingerprint(traces, lam_pop) -> str:
    digest = hashlib.sha256()
    for trace in traces:
        solution = trace.final.solution
        estimates = (solution.lambda_hat, solution.phi_hat)
        for lam, phi in (estimates, _scrambled(*estimates)):
            for array in align_to_population(lam, phi, lam_pop):
                digest.update(np.ascontiguousarray(array, dtype=np.float64).tobytes())
    return digest.hexdigest()


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description="Fingerprint every procedure over fixed samples.")
    parser.add_argument(
        "--samples", type=int, default=SAMPLES, help=f"scan samples 0 to K - 1 (default {SAMPLES})"
    )
    samples = parser.parse_args(argv).samples
    population = read_correlation_matrix(DATA / "population_corr.dat").S
    # The generator behind population_corr.dat.
    lam_pop = balanced_population(3, 6, 0.6, 0.15, 0.3).lam
    pattern = block_pattern(3, 6, "zero")
    for s in range(samples):
        _, moments = draw_sample(population, 300, np.random.SeedSequence([777, s]))
        traces = {}
        for name, run in PROCEDURES.items():
            trace = traces[name] = run(pattern, moments)
            iterations = ",".join(str(step.solution.n_iterations) for step in trace.steps)
            print(
                f"{s} {name} {float(trace.final.solution.f_min).hex()} {iterations} "
                f"{trace.converged} {fingerprint(trace)}"
                + (decisions(trace) if trace.procedure == "search" else ""),
                flush=True,
            )
        aligned = alignment_fingerprint((traces["icm"], traces["one-step-free"]), lam_pop)
        print(f"{s} align {aligned}", flush=True)


if __name__ == "__main__":
    main()
