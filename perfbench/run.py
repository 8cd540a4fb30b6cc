"""Benchmark of bufcfa through its command-line entry point.

    python3 perfbench/run.py --workload fit|search|grid --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  One client in one process calls
``bufcfa.cli.main`` in-process (stdout captured) in a closed loop over the
workload's fixed list of operations, repeating whole rounds of that list
until about ``--seconds`` of operation time have been timed.  Every operation's
output is checked outside the timed region.  The last line of stdout is a
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``:
the end-to-end metrics with ``--trace 0``, the per-layer metrics of a
traced run with ``--trace 1``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_REPEATS = 3
END_TO_END_UNITS = {"setup_s": "s", "op_ms_p50": "ms", "ops_per_s": "1/s", "peak_rss_mb": "MB"}
P90_MIN_SAMPLES = 100


def call_cli(argv: list[str]) -> int:
    """``bufcfa.cli.main(argv)`` with its stdout and stderr captured."""
    from bufcfa import cli

    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        return cli.main(argv)


def import_program() -> float:
    """Import bufcfa (with numpy and scipy) from this checkout; returns seconds."""
    src = ROOT / "src"
    if not (src / "bufcfa" / "__init__.py").is_file():
        raise SystemExit(f"error: no bufcfa sources under {src}")
    sys.path.insert(0, str(src))
    t0 = time.perf_counter()
    import bufcfa
    import bufcfa.cli  # noqa: F401

    seconds = time.perf_counter() - t0
    if Path(bufcfa.__file__).resolve().parent != (src / "bufcfa").resolve():
        raise SystemExit(f"error: imported bufcfa from {bufcfa.__file__}, not {src}")
    return seconds


def set_up(workload: str, seed: int, workdir: Path, repeats: int):
    """Write the inputs and run one warm-up operation, ``repeats`` times.

    Returns the operations of the last repeat and the median repeat time.
    """
    from workloads import WORKLOADS, warmup_argv

    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        shutil.rmtree(workdir, ignore_errors=True)
        workdir.mkdir(parents=True)
        ops = WORKLOADS[workload](ROOT, workdir, seed)
        rc = call_cli(warmup_argv(workload, ROOT, workdir))
        times.append(time.perf_counter() - t0)
        if rc != 0:
            raise SystemExit(f"error: the {workload} warm-up operation exited {rc}")
    return ops, statistics.median(times)


def time_op(op, tracer) -> tuple[object, float]:
    """Exit code (or the exception it raised) and wall seconds of one operation."""
    t0 = time.perf_counter()
    try:
        if tracer is None:
            rc = call_cli(op.argv)
        else:
            rc = tracer.call("cli.main", call_cli, (op.argv,), {})
    except Exception as exc:  # a crash is a failed operation, not the end of the run
        rc = f"{type(exc).__name__}: {exc}"
    return rc, time.perf_counter() - t0


def run(workload: str, seed: int, seconds: float, trace: bool,
        max_ops: int | None = None, setup_repeats: int = SETUP_REPEATS):
    """One benchmark run; returns the result object and a readable report.

    ``max_ops`` stops after that many operations instead of after whole
    rounds (the short mode of the benchmark's own tests).
    """
    import_s = import_program()
    import checks
    import tracing

    workdir = OUT / f"work-{workload}"
    ops, setup_rest_s = set_up(workload, seed, workdir, setup_repeats)
    refs = checks.References(ROOT, call_cli)
    tracer = tracing.Tracer() if trace else None
    undo, missing = tracing.install(tracer) if trace else ([], [])
    timings, failures, wrong = [], [], []
    attempted = rounds = 0
    timed = 0.0
    try:
        # Whole rounds, ending as near to ``seconds`` as a round allows.
        while rounds == 0 or timed + 0.5 * timed / rounds < seconds:
            rounds += 1
            for op in ops[:max_ops]:
                attempted += 1
                if tracer is not None:
                    tracer.current_op = attempted
                rc, dt = time_op(op, tracer)
                if tracer is not None:
                    tracer.current_op = None
                timed += dt
                if rc != 0:
                    failures.append(f"failed: {op.label}: exit {rc}")
                    continue
                timings.append((op.label, dt))
                try:
                    op.check(op, refs)
                except (checks.CheckFailed, OSError, ValueError, KeyError) as exc:
                    wrong.append(f"wrong: {op.label}: {exc}")
            if max_ops is not None:
                break
    finally:
        tracing.uninstall(undo)
    if not timings:
        raise SystemExit(f"error: no operation of {workload} completed: {failures[:3]}")
    op_ms = [1e3 * dt for _, dt in timings]
    report = [
        f"workload {workload}  seed {seed}  trace {int(trace)}  rounds {rounds}"
        f"  operations {attempted} ({len(ops)} per round)  failed {len(failures)}",
        f"checks: {len(timings)} outputs checked, {'FAILED' if wrong else 'all passed'}",
        f"op_ms_p50 {statistics.median(op_ms):.2f} ms over {len(op_ms)} operations",
    ]
    if len(op_ms) >= P90_MIN_SAMPLES:
        report.append(f"op_ms_p90 {statistics.quantiles(op_ms, n=10)[-1]:.2f} ms "
                      f"over {len(op_ms)} operations")
    report.extend((failures + wrong)[:10])
    if trace:
        metrics, units = tracer.metrics(attempted), tracing.metric_units()
        tracer.write(OUT / f"spans-{workload}-{seed}.npz")
        if missing:
            report.append("not traced (absent in this version): " + ", ".join(missing))
    else:
        metrics = {
            "setup_s": import_s + setup_rest_s,
            "op_ms_p50": statistics.median(op_ms),
            "ops_per_s": len(timings) / timed,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END_UNITS
        report.append(f"setup_s: import {import_s:.3f} s + median of {setup_repeats} "
                      f"input/warm-up set-ups {setup_rest_s:.3f} s")
    shutil.rmtree(workdir, ignore_errors=True)
    (OUT / f"ops-{workload}-{seed}-trace{int(trace)}.json").write_text(json.dumps(timings))
    result = {
        "correct": not wrong,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    return result, report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("fit", "search", "grid"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    result, report = run(args.workload, args.seed, args.seconds, bool(args.trace))
    for line in report:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
