"""Command-line interface.

Commands: ``fit`` (run a model document's procedure against a data file),
``simulate`` (run a design grid), ``quality`` (print the balance-quality
index of a stored result), ``search`` (specification search with explicit
bounds).  Exit codes: 0 success, 1 input error, 2 non-convergence.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from functools import cache
from pathlib import Path

import numpy as np

from .errors import BufcfaError, InputError
from .io import read_correlation_matrix, read_raw_data, read_result, write_result
from .modelspec import ModelSpecDocument, parse_grid_document, parse_model_spec
from .procedures import ProcedureTrace, icm, multi_step, one_step, specification_search
from .simulation import GridSpec, run_grid

EXIT_OK = 0
EXIT_INPUT_ERROR = 1
EXIT_NOT_CONVERGED = 2


def _load_document(path) -> ModelSpecDocument:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    return parse_model_spec(text)


def _load_moments(data_path, n):
    path = Path(data_path)
    if path.suffix in (".raw", ".data") or _looks_raw(path):
        if n is not None:
            raise InputError(f"{path}: --n does not apply to raw data, whose n is its row count")
        return read_raw_data(path)
    return read_correlation_matrix(path, n=n)


def _looks_raw(path: Path) -> bool:
    """Raw data files start with a header of non-numeric variable names."""
    try:
        with path.open() as fh:
            for raw in fh:
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                first = line.replace(",", " ").split()[0]
                try:
                    float(first)
                    return False
                except ValueError:
                    head, colon, _ = line.partition(":")
                    return not (colon and head.strip().lower() == "n")
    except OSError:
        return False
    return False


def _format_matrix(m: np.ndarray, names, headers) -> str:
    width = max(8, max((len(n) for n in names), default=8) + 1)
    lines = [" " * width + "".join(f"{h:>9}" for h in headers)]
    for name, row in zip(names, np.asarray(m)):
        lines.append(f"{name:<{width}}" + "".join(f"{v:9.3f}" for v in row))
    return "\n".join(lines)


def _print_trace_summary(doc: ModelSpecDocument, trace: ProcedureTrace) -> None:
    final = trace.final
    print(f"procedure: {trace.procedure}   steps: {len(trace.steps)}   "
          f"converged: {trace.converged}")
    for step in trace.steps:
        r = step.report
        parts = [f"srmr={r.srmr:.3f}", f"df={r.df}"]
        if r.chi_square is not None:
            parts.insert(0, f"chi2={r.chi_square:.3f}")
            parts.append(f"rmsea={r.rmsea:.3f}")
            parts.append(f"cfi={r.cfi:.3f}")
        if step.weight_gap is not None:
            parts.append(f"weight_gap={step.weight_gap:.2e}")
        print(f"  [{step.label}] " + "  ".join(parts))
    print(f"balance quality index: {trace.quality_index:.3f}")
    print("\nloadings (final step):")
    print(_format_matrix(final.solution.lambda_hat, doc.variables, doc.factors))
    print("\ninter-factor correlations:")
    print(_format_matrix(final.solution.phi_hat, doc.factors, doc.factors))
    print("\nuniquenesses:")
    print(_format_matrix(final.solution.psi_hat[:, None], doc.variables, ("psi",)))


def _run_document(doc: ModelSpecDocument, moments) -> ProcedureTrace:
    pattern = doc.pattern()
    if doc.weights is not None and doc.procedure != "multi-step":
        raise InputError("external weights are only used by the multi-step procedure")
    if doc.procedure == "icm":
        return icm(pattern, doc.phi_value(), moments)
    if doc.procedure == "one-step":
        return one_step(pattern, doc.phi_value(), moments)
    if doc.procedure == "multi-step":
        phi_value = doc.phi_value()
        phi_fix = None if isinstance(phi_value, str) else phi_value
        return multi_step(
            pattern,
            moments,
            weight_tol=doc.weight_tolerance,
            max_rounds=doc.max_rounds,
            initial_weights=doc.weight_vector(),
            phi_fix=phi_fix,
        )
    return specification_search(
        pattern,
        moments,
        mi_threshold=doc.mi_threshold,
        max_freed_per_factor=doc.max_freed_per_factor,
        phi_spec=doc.phi_value(),
    )


def _fit_document(doc: ModelSpecDocument, args) -> int:
    """Run a document against ``--data``, write ``--out``, print, and give the exit code."""
    moments = _load_moments(args.data, args.n)
    trace = _run_document(doc, moments)
    if args.out:
        write_result(trace, args.out)
    _print_trace_summary(doc, trace)
    return EXIT_OK if trace.converged else EXIT_NOT_CONVERGED


def _cmd_fit(args) -> int:
    return _fit_document(_load_document(args.model), args)


def _cmd_search(args) -> int:
    # A search fits no fixed-weight model, so it ignores a document's weights.
    # The flags replace the document's bounds only when given.
    flags = {"mi_threshold": args.threshold, "max_freed_per_factor": args.max_per_factor}
    doc = replace(
        _load_document(args.model),
        procedure="search",
        weights=None,
        **{key: value for key, value in flags.items() if value is not None},
    )
    return _fit_document(doc, args)


def _cmd_simulate(args) -> int:
    try:
        text = Path(args.grid).read_text()
    except OSError as exc:
        raise InputError(f"cannot read {args.grid}: {exc}") from exc
    values = parse_grid_document(text)
    if args.reps is not None:
        values["replications"] = args.reps
    if args.seed is not None:
        values["master_seed"] = args.seed
    grid = GridSpec(**values)
    summaries, records = run_grid(grid)
    write_result((summaries, records), args.out)
    print(f"{len(summaries)} cells x {grid.replications} replications "
          f"-> {args.out} (+ .cells.csv, .reps.csv)")
    for s in summaries:
        print(
            f"  l={s.salient:.2f} anl={s.nonsalient:.2f} phi={s.phi:.2f} n={s.n}: "
            f"loading rmsd icm={s.icm_loading_rmsd_mean:.3f} "
            f"buffered={s.buffered_loading_rmsd_mean:.3f}  "
            f"rmsea icm={s.icm_rmsea_mean:.3f} buffered={s.buffered_rmsea_mean:.3f}  "
            f"converged {s.icm_converged}/{s.buffered_converged} of {s.replications}"
        )
    all_converged = all(
        s.icm_converged == s.replications and s.buffered_converged == s.replications
        for s in summaries
    )
    return EXIT_OK if all_converged else EXIT_NOT_CONVERGED


def _cmd_quality(args) -> int:
    doc = read_result(args.result)
    if not isinstance(doc, dict) or doc.get("kind") != "procedure_trace":
        raise InputError(f"{args.result}: not a procedure result document")
    quality = doc.get("quality_index")
    if not isinstance(quality, (int, float)):
        raise InputError(f"{args.result}: no numeric quality_index in the result document")
    print(f"{quality:.6f}")
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """Usage errors are input errors: exit 1, since 2 means non-convergence."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_INPUT_ERROR, f"{self.prog}: error: {message}\n")


@cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process."""
    parser = _Parser(
        prog="bufcfa",
        description="Factor analysis with balance constraints on secondary loadings",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_fit = sub.add_parser("fit", help="run a model document's procedure")
    p_fit.add_argument("--model", required=True, help="model specification document")
    p_fit.add_argument("--data", required=True, help="correlation matrix or raw data file")
    p_fit.add_argument("--n", type=int, default=None, help="sample size override")
    p_fit.add_argument("--out", default=None, help="write the result document here")
    p_fit.set_defaults(func=_cmd_fit)

    p_sim = sub.add_parser("simulate", help="run a design grid")
    p_sim.add_argument("--grid", required=True, help="grid specification document")
    p_sim.add_argument("--reps", type=int, default=None, help="replications per cell")
    p_sim.add_argument("--seed", type=int, default=None, help="master seed")
    p_sim.add_argument("--out", required=True, help="output document path")
    p_sim.set_defaults(func=_cmd_simulate)

    p_quality = sub.add_parser("quality", help="print a result's balance quality index")
    p_quality.add_argument("--result", required=True, help="result document from fit")
    p_quality.set_defaults(func=_cmd_quality)

    p_search = sub.add_parser("search", help="run a specification search")
    p_search.add_argument("--model", required=True)
    p_search.add_argument("--data", required=True)
    p_search.add_argument("--n", type=int, default=None)
    p_search.add_argument("--threshold", type=float, help="overrides the document's mi_threshold")
    p_search.add_argument("--max-per-factor", type=int, help="overrides max_freed_per_factor")
    p_search.add_argument("--out", default=None)
    p_search.set_defaults(func=_cmd_search)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BufcfaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
