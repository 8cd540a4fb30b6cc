"""Plain-text model specification documents.

The format is line oriented; ``#`` starts a comment and blank lines are
ignored.  Keys:

    variables: x1 x2 ...              (required, ordered)
    factor <name>: x1 x2 ...          (one per factor, ordered)
    phi <fa> <fb>: free | <number>    (optional, default free)
    phi: free | <number>              (shorthand for every pair)
    procedure: icm | one-step | multi-step | search
    weight_tolerance: <number>        (multi-step)
    max_rounds: <integer>             (multi-step)
    mi_threshold: <number>            (search)
    max_freed_per_factor: <integer>   (search)
    weights: x1=0.6 x2=0.6 ...        (optional, external fixed weights)

``parse_model_spec(format_model_spec(doc))`` reproduces ``doc`` exactly.
:func:`parse_grid_document` reads ``.grid`` documents, in the same format.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ParseError
from .model import LoadingPattern

PROCEDURES = ("icm", "one-step", "multi-step", "search")


@dataclass(frozen=True)
class ModelSpecDocument:
    variables: tuple[str, ...]
    factors: tuple[str, ...]
    salient: dict[str, tuple[str, ...]]
    phi: dict[tuple[str, str], object]  # "free" or float, key ordered by factor list
    procedure: str = "one-step"
    weight_tolerance: float = 1e-4
    max_rounds: int = 10
    mi_threshold: float = 15.0
    max_freed_per_factor: int = 3
    weights: Optional[dict[str, float]] = None

    def pattern(self) -> LoadingPattern:
        """The independent-clusters pattern: salient cells free, every other cell zero."""
        index = {v: i for i, v in enumerate(self.variables)}
        blocks = [[index[v] for v in self.salient[f]] for f in self.factors]
        return LoadingPattern.from_salient_blocks(blocks, len(self.variables))

    def phi_value(self):
        """'free' if any pair is free, else the fixed q x q matrix."""
        q = len(self.factors)
        if any(v == "free" for v in self.phi.values()):
            if not all(v == "free" for v in self.phi.values()):
                fixed = np.full((q, q), np.nan)
                np.fill_diagonal(fixed, 1.0)
                for (fa, fb), v in self.phi.items():
                    a, b = self.factors.index(fa), self.factors.index(fb)
                    fixed[a, b] = fixed[b, a] = np.nan if v == "free" else float(v)
                return fixed
            return "free"
        fixed = np.eye(q)
        for (fa, fb), v in self.phi.items():
            a, b = self.factors.index(fa), self.factors.index(fb)
            fixed[a, b] = fixed[b, a] = float(v)
        return fixed

    def weight_vector(self) -> Optional[np.ndarray]:
        if self.weights is None:
            return None
        return np.array([self.weights[v] for v in self.variables])


def _parse_number(text: str):
    try:
        return float(text)
    except ValueError:
        return None


def _key_values(text: str, diagnostics: list[str]):
    """``(lineno, key, value)`` per ``key: value`` line; a line with no colon adds a diagnostic."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if ":" not in line:
            diagnostics.append(f"line {lineno}: expected 'key: value', got {line!r}")
            continue
        key, _, value = line.partition(":")
        yield lineno, key.strip(), value.strip()


def parse_model_spec(text: str) -> ModelSpecDocument:
    """Parse a model document; raises :class:`ParseError` with every
    diagnostic found, each carrying its line number."""
    diagnostics: list[str] = []
    variables: list[str] = []
    factors: list[str] = []
    salient: dict[str, tuple[str, ...]] = {}
    phi_entries: dict[tuple[str, str], object] = {}
    phi_all = None
    options: dict[str, object] = {}
    weights: Optional[dict[str, float]] = None

    def err(lineno, message):
        diagnostics.append(f"line {lineno}: {message}")

    for lineno, key, value in _key_values(text, diagnostics):
        if key == "variables":
            if variables:
                err(lineno, "duplicate 'variables' line")
                continue
            names = value.split()
            seen = set()
            for v in names:
                if v in seen:
                    err(lineno, f"variable {v!r} listed twice")
                seen.add(v)
            variables.extend(names)
            if not names:
                err(lineno, "empty variable list")
        elif key.startswith("factor "):
            fname = key[len("factor "):].strip()
            if not fname:
                err(lineno, "factor line missing a name")
                continue
            if fname in salient:
                err(lineno, f"duplicate factor {fname!r}")
                continue
            members = tuple(value.split())
            if not members:
                err(lineno, f"factor {fname!r} has an empty salient list")
            for v in members:
                if variables and v not in variables:
                    err(lineno, f"unknown variable {v!r} in factor {fname!r}")
            factors.append(fname)
            salient[fname] = members
        elif key == "phi" or key.startswith("phi "):
            parts = key.split()
            if len(parts) not in (1, 3):
                err(lineno, f"expected 'phi <factor> <factor>', got {key!r}")
                continue
            if len(parts) == 3 and parts[1] == parts[2]:
                err(lineno, "phi pair must name two distinct factors")
                continue
            if value == "free":
                entry = "free"
            else:
                num = _parse_number(value)
                if num is None:
                    err(lineno, f"malformed phi value {value!r}")
                    continue
                if not -1.0 < num < 1.0:
                    err(lineno, f"fixed phi value {num} outside (-1, 1)")
                    continue
                entry = num
            if len(parts) == 1:
                phi_all = (entry, lineno)
                continue
            fa, fb = parts[1], parts[2]
            pair = (fa, fb)
            if pair in phi_entries or (fb, fa) in phi_entries:
                err(lineno, f"duplicate phi entry for {fa}/{fb}")
                continue
            phi_entries[pair] = (entry, lineno)
        elif key == "procedure":
            if value not in PROCEDURES:
                err(lineno, f"unknown procedure {value!r}; expected one of {', '.join(PROCEDURES)}")
            else:
                options["procedure"] = value
        elif key in ("weight_tolerance", "mi_threshold"):
            num = _parse_number(value)
            if num is None or not np.isfinite(num) or (key == "weight_tolerance" and num <= 0):
                kind = "positive finite" if key == "weight_tolerance" else "finite"
                err(lineno, f"{key} must be a {kind} number, got {value!r}")
            else:
                options[key] = num
        elif key in ("max_rounds", "max_freed_per_factor"):
            try:
                options[key] = int(value)
            except ValueError:
                err(lineno, f"{key} must be an integer, got {value!r}")
        elif key == "weights":
            weights = {}
            for item in value.split():
                if "=" not in item:
                    err(lineno, f"weights entries must look like name=value, got {item!r}")
                    continue
                name, _, num_text = item.partition("=")
                num = _parse_number(num_text)
                if num is None:
                    err(lineno, f"malformed weight for {name!r}: {num_text!r}")
                    continue
                if not np.isfinite(num):
                    err(lineno, f"weight for {name!r} must be a finite number, got {num_text!r}")
                    continue
                weights[name] = num
        else:
            err(lineno, f"unknown key {key!r}")

    if not variables:
        diagnostics.insert(0, "line 1: missing 'variables' line")
    if not factors:
        diagnostics.append("line 1: no 'factor' lines found")

    assigned: dict[str, str] = {}
    for fname in factors:
        for v in salient[fname]:
            if v in assigned:
                diagnostics.append(
                    f"line 1: duplicate salient assignment: {v!r} under both "
                    f"{assigned[v]!r} and {fname!r}"
                )
            assigned[v] = fname
    for v in variables:
        if v not in assigned:
            diagnostics.append(f"line 1: variable {v!r} not assigned to any factor")

    phi: dict[tuple[str, str], object] = {}
    default = phi_all[0] if phi_all is not None else "free"
    for a in range(len(factors)):
        for b in range(a + 1, len(factors)):
            phi[(factors[a], factors[b])] = default
    for (fa, fb), (entry, lineno) in phi_entries.items():
        if fa not in salient or fb not in salient:
            missing = fa if fa not in salient else fb
            diagnostics.append(f"line {lineno}: phi references unknown factor {missing!r}")
            continue
        key = (fa, fb) if factors.index(fa) < factors.index(fb) else (fb, fa)
        phi[key] = entry

    if weights is not None:
        for name in weights:
            if name not in variables:
                diagnostics.append(f"line 1: weight for unknown variable {name!r}")
        for v in variables:
            if v not in weights:
                diagnostics.append(f"line 1: missing weight for variable {v!r}")

    if diagnostics:
        raise ParseError(diagnostics)

    return ModelSpecDocument(
        variables=tuple(variables),
        factors=tuple(factors),
        salient=salient,
        phi=phi,
        weights=weights,
        **options,
    )


def format_model_spec(doc: ModelSpecDocument) -> str:
    """Canonical text form; parsing it reproduces the document exactly."""
    lines = ["variables: " + " ".join(doc.variables)]
    for f in doc.factors:
        lines.append(f"factor {f}: " + " ".join(doc.salient[f]))
    for (fa, fb), v in doc.phi.items():
        value = "free" if v == "free" else repr(float(v))
        lines.append(f"phi {fa} {fb}: {value}")
    lines.append(f"procedure: {doc.procedure}")
    lines.append(f"weight_tolerance: {doc.weight_tolerance!r}")
    lines.append(f"max_rounds: {doc.max_rounds}")
    lines.append(f"mi_threshold: {doc.mi_threshold!r}")
    lines.append(f"max_freed_per_factor: {doc.max_freed_per_factor}")
    if doc.weights is not None:
        lines.append(
            "weights: " + " ".join(f"{v}={doc.weights[v]!r}" for v in doc.variables)
        )
    return "\n".join(lines) + "\n"


def parse_grid_document(text: str) -> dict:
    """``GridSpec`` keyword arguments from a ``.grid`` document; one ParseError lists every bad line."""
    values: dict[str, object] = {}
    diagnostics = []
    list_keys = {
        "salient_sizes": float,
        "nonsalient_sizes": float,
        "phi_values": float,
        "sample_sizes": int,
    }
    int_keys = ("factors", "per_factor", "replications", "master_seed")
    for lineno, key, value in _key_values(text, diagnostics):
        try:
            if key in list_keys:
                values[key] = tuple(list_keys[key](x) for x in value.split())
            elif key in int_keys:
                values[key] = int(value)
            else:
                diagnostics.append(f"line {lineno}: unknown key {key!r}")
        except ValueError:
            diagnostics.append(f"line {lineno}: malformed value {value!r} for {key}")
    for required in list_keys:
        if required not in values:
            diagnostics.append(f"line 1: missing required key {required!r}")
    if diagnostics:
        raise ParseError(diagnostics)
    return values
