"""Spans around the program's layers, recorded from outside the program.

:func:`install` wraps public functions of ``bufcfa`` where their callers
look them up: ``from .x import y`` binds a copy of ``y`` in the importing
module, so ``bufcfa.estimation.unpack`` is wrapped as well as the
``unpack`` that ``bufcfa.constraints`` imported.  A span records its name,
start, end, parent span and operation id; spans stay in memory and are
written out once, when the run ends.  Self time is a span's duration minus
the time its child spans cover.  Calls made while no operation is active
(set-up, output checks) are not recorded.
"""

from __future__ import annotations

import functools
import importlib
from array import array
from collections import Counter
from pathlib import Path
from time import perf_counter

import numpy as np

# (layer, module, attribute): every place a caller looks the layer up.
TARGETS = (
    ("modelspec.parse_model_spec", "bufcfa.cli", "parse_model_spec"),
    ("io.read", "bufcfa.cli", "read_correlation_matrix"),
    ("io.read", "bufcfa.cli", "read_raw_data"),
    ("io.write_result", "bufcfa.cli", "write_result"),
    ("procedures.multi_step", "bufcfa.cli", "multi_step"),
    ("procedures.specification_search", "bufcfa.cli", "specification_search"),
    ("simulation.run_grid", "bufcfa.cli", "run_grid"),
    ("estimation.fit", "bufcfa.procedures", "fit"),
    ("estimation.fit", "bufcfa.simulation", "fit"),
    ("estimation.minimize", "bufcfa.estimation", "minimize"),
    ("estimation.cho", "bufcfa.estimation", "cho_factor"),
    ("model.unpack", "bufcfa.estimation", "unpack"),
    ("model.unpack", "bufcfa.constraints", "unpack"),
    ("model.pack", "bufcfa.estimation", "pack"),
    ("model.build", "bufcfa.model:FactorModel", "free_phi"),
    ("model.build", "bufcfa.model:FactorModel", "fixed_phi"),
    ("model.build", "bufcfa.estimation", "validate_model"),
    ("constraints.evaluate_lambda", "bufcfa.estimation", "evaluate_lambda"),
    ("constraints.constraint_jacobian", "bufcfa.estimation", "constraint_jacobian"),
    ("fit_indices.build_report", "bufcfa.procedures", "build_report"),
    ("simulation.draw_sample", "bufcfa.simulation", "draw_sample"),
    ("simulation.align_to_population", "bufcfa.simulation", "align_to_population"),
    ("simulation.summarize_cell", "bufcfa.simulation", "summarize_cell"),
)

# Layers reported as time per operation, calls per operation, and counts
# per operation (metric name -> (counter, unit)).
PER_OP_MS = (
    "cli.main", "modelspec.parse_model_spec", "io.read", "io.write_result",
    "procedures.multi_step", "procedures.specification_search", "simulation.run_grid",
    "estimation.fit", "estimation.cho", "model.unpack", "model.pack", "model.build",
    "constraints.evaluate_lambda", "constraints.constraint_jacobian",
    "fit_indices.build_report", "simulation.draw_sample",
    "simulation.align_to_population", "simulation.summarize_cell",
)
PER_OP_CALLS = (
    "estimation.fit", "estimation.minimize", "model.unpack",
    "constraints.evaluate_lambda", "constraints.constraint_jacobian",
)
PER_OP_COUNTS = {
    "io.write_result.bytes": ("io.write_result.bytes", "bytes/op"),
    "estimation.fit.iterations": ("fit.iterations", "count/op"),
    "estimation.minimize.nit": ("minimize.nit", "count/op"),
    "estimation.minimize.nfev": ("minimize.nfev", "count/op"),
    "estimation.cho.not_pd": ("cho.not_pd", "count/op"),
}


def metric_units() -> dict[str, str]:
    """Every per-layer metric the traced run reports, with its unit."""
    units = {f"{layer}.ms": "ms/op" for layer in PER_OP_MS}
    units.update({f"{layer}.calls": "count/op" for layer in PER_OP_CALLS})
    units.update({name: unit for name, (_, unit) in PER_OP_COUNTS.items()})
    units["estimation.fit.converged_ratio"] = "ratio"
    units["estimation.minimize.self_ms"] = "ms/op"
    units["estimation.ms_per_nfev"] = "ms/eval"
    return dict(sorted(units.items()))


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_index: dict[str, int] = {}
        # One entry per span, in completion order.
        self.span_id = array("q")
        self.parent = array("q")
        self.op_id = array("q")
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.total = Counter()  # layer -> seconds
        self.self_time = Counter()  # layer -> seconds
        self.calls = Counter()
        self.counts = Counter()
        self.current_op = None  # None: not recording
        self._stack: list[list] = []  # [span id, child seconds]
        self._next_id = 0

    def _index(self, name: str) -> int:
        if name not in self._name_index:
            self._name_index[name] = len(self.names)
            self.names.append(name)
        return self._name_index[name]

    def call(self, layer: str, fn, args, kwargs, observe=None):
        """Run ``fn`` inside a span named ``layer``."""
        if self.current_op is None:
            return fn(*args, **kwargs)
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1][0] if self._stack else -1
        frame = [sid, 0.0]
        self._stack.append(frame)
        result = done = None
        t0 = perf_counter()
        try:
            result = fn(*args, **kwargs)
            done = True
            return result
        except np.linalg.LinAlgError:
            if layer == "estimation.cho":
                self.counts["cho.not_pd"] += 1
            raise
        finally:
            t1 = perf_counter()
            self._stack.pop()
            duration = t1 - t0
            if self._stack:
                self._stack[-1][1] += duration
            self.span_id.append(sid)
            self.parent.append(parent)
            self.op_id.append(self.current_op)
            self.name.append(self._index(layer))
            self.start.append(t0)
            self.end.append(t1)
            self.total[layer] += duration
            self.self_time[layer] += duration - frame[1]
            self.calls[layer] += 1
            if observe is not None and done:
                observe(self.counts, args, kwargs, result)

    def metrics(self, n_ops: int) -> dict[str, float]:
        """Per-layer metrics, normalised per operation."""
        out = {f"{layer}.ms": 1e3 * self.total[layer] / n_ops for layer in PER_OP_MS}
        out.update({f"{layer}.calls": self.calls[layer] / n_ops for layer in PER_OP_CALLS})
        out.update({name: self.counts[key] / n_ops for name, (key, _) in PER_OP_COUNTS.items()})
        fits = self.calls["estimation.fit"]
        out["estimation.fit.converged_ratio"] = self.counts["fit.converged"] / fits if fits else 0.0
        out["estimation.minimize.self_ms"] = 1e3 * self.self_time["estimation.minimize"] / n_ops
        nfev = self.counts["minimize.nfev"]
        out["estimation.ms_per_nfev"] = 1e3 * self.total["estimation.minimize"] / nfev if nfev else 0.0
        return dict(sorted(out.items()))

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(
            path,
            names=np.array(self.names),
            span_id=np.frombuffer(self.span_id, dtype=np.int64),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            op_id=np.frombuffer(self.op_id, dtype=np.int64),
            name=np.frombuffer(self.name, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
        )


def _observe_fit(counts, args, kwargs, solution):
    counts["fit.iterations"] += solution.n_iterations
    counts["fit.converged"] += bool(solution.converged)


def _observe_minimize(counts, args, kwargs, result):
    counts["minimize.nit"] += int(getattr(result, "nit", 0))
    counts["minimize.nfev"] += int(getattr(result, "nfev", 0))


def _observe_write(counts, args, kwargs, result):
    path = Path(args[1] if len(args) > 1 else kwargs["path"])
    for p in (path, path.with_suffix(".cells.csv"), path.with_suffix(".reps.csv")):
        if p.exists():
            counts["io.write_result.bytes"] += p.stat().st_size


OBSERVERS = {
    "estimation.fit": _observe_fit,
    "estimation.minimize": _observe_minimize,
    "io.write_result": _observe_write,
}


def _wrap(tracer: Tracer, layer: str, fn):
    observe = OBSERVERS.get(layer)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        return tracer.call(layer, fn, args, kwargs, observe)

    return wrapper


def install(tracer: Tracer) -> tuple[list, list[str]]:
    """Wrap every target that exists; returns (undo list, missing targets).

    A target a later version of the program no longer has is skipped and
    named, so its metric reads zero instead of the run failing.
    """
    undo, missing = [], []
    for layer, where, attr in TARGETS:
        module_name, _, class_name = where.partition(":")
        owner = importlib.import_module(module_name)
        if class_name:
            owner = getattr(owner, class_name, None)
        raw = vars(owner).get(attr) if owner is not None else None
        if raw is None:
            missing.append(f"{where}.{attr}")
            continue
        if isinstance(raw, classmethod):
            replacement = classmethod(_wrap(tracer, layer, raw.__func__))
        else:
            replacement = _wrap(tracer, layer, raw)
        setattr(owner, attr, replacement)
        undo.append((owner, attr, raw))
    return undo, missing


def uninstall(undo: list) -> None:
    for owner, attr, raw in reversed(undo):
        setattr(owner, attr, raw)
