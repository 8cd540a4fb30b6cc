"""Summarise how two outputs of ``scripts/equivalence_scan.py`` differ.

    python3 scripts/compare_scans.py PARENT CHANGE

Prints the line counts; the procedure lines whose final F differs, per
procedure with their samples and largest |dF|, read exactly from the
``float.hex`` field; every changed iteration count; and every changed
convergence flag, search decision (``freed=`` and ``roles=``) and
alignment line.  A change that
only moves F at rounding level shows up in the F and fingerprint counts
alone.  Exits 1 when the two files do not list the same (sample,
procedure) keys, and 0 otherwise, whatever else differs.
"""

from __future__ import annotations

import sys
from pathlib import Path


def read_scan(path) -> dict[tuple[str, str], list[str]]:
    """Each line's fields, keyed by (sample, procedure); ``align`` lines too."""
    lines = {}
    for line in Path(path).read_text().splitlines():
        fields = line.split()
        if fields:
            lines[fields[0], fields[1]] = fields[2:]
    return lines


def compare(parent: dict, change: dict) -> tuple[list[str], bool]:
    """The report's lines, and whether both scans list the same keys."""
    out = [f"lines: {len(parent)} and {len(change)}"]
    only = {
        "parent": sorted(parent.keys() - change.keys()),
        "change": sorted(change.keys() - parent.keys()),
    }
    out.extend(f"only in {side}: {' '.join(key)}" for side, keys in only.items() for key in keys)
    keys = [key for key in parent if key in change]
    procedures = [key for key in keys if key[1] != "align"]
    deltas: dict[str, list[tuple[float, str]]] = {}  # procedure -> (|dF|, sample)
    iterations, flags, decisions = [], [], []
    fingerprints = 0
    for sample, procedure in procedures:
        old, new = parent[sample, procedure], change[sample, procedure]
        if old[0] != new[0]:
            delta = abs(float.fromhex(new[0]) - float.fromhex(old[0]))
            deltas.setdefault(procedure, []).append((delta, sample))
        for changed, index in ((iterations, 1), (flags, 2)):
            if old[index] != new[index]:
                changed.append(f"  {sample} {procedure}: {old[index]} -> {new[index]}")
        if old[4:] != new[4:]:
            decisions.append(f"  {sample} {procedure}: {' '.join(old[4:])} -> {' '.join(new[4:])}")
        fingerprints += old[3] != new[3]
    moved = [(delta, f"{sample} {procedure}") for procedure, rows in deltas.items()
             for delta, sample in rows]
    line = f"F differs: {len(moved)} of {len(procedures)} procedure lines"
    out.append(line + (", largest |dF| {:.3g} ({})".format(*max(moved)) if moved else ""))
    for procedure, rows in deltas.items():
        samples = " ".join(sample for _, sample in rows)
        out.append(f"  {procedure}: {len(rows)} lines, largest |dF| {max(rows)[0]:.3g};"
                   f" samples {samples}")
    out.append(f"fingerprints differ: {fingerprints} of {len(procedures)} procedure lines")
    for title, changed in (
        ("iteration counts", iterations),
        ("convergence flags", flags),
        ("search decisions", decisions),
    ):
        out.append(f"{title} differ: {len(changed)} lines")
        out.extend(changed)
    aligns = [sample for sample, name in keys
              if name == "align" and parent[sample, name] != change[sample, name]]
    out.append(f"align lines differ: {len(aligns)} of {len(keys) - len(procedures)}")
    if aligns:
        out.append("  samples " + " ".join(aligns))
    return out, not (only["parent"] or only["change"])


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print("usage: compare_scans.py PARENT CHANGE", file=sys.stderr)
        return 2
    report, same_keys = compare(read_scan(argv[0]), read_scan(argv[1]))
    print("\n".join(report))
    return 0 if same_keys else 1


if __name__ == "__main__":
    sys.exit(main())
