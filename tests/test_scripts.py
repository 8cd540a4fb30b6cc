"""The development scripts under ``scripts/``, run as a user runs them."""

import subprocess
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"

PARENT = """\
0 icm 0x1.2b08c02c2af20p+0 12 True aaaa
0 search 0x1.d6fab14018580p-1 12,12 True bbbb freed=2,2;9,0 roles=szz/zsz
0 align cccc
"""


def compare_scans(tmp_path, parent, change):
    (tmp_path / "parent.txt").write_text(parent)
    (tmp_path / "change.txt").write_text(change)
    return subprocess.run(
        [sys.executable, str(SCRIPTS / "compare_scans.py"),
         str(tmp_path / "parent.txt"), str(tmp_path / "change.txt")],
        capture_output=True, text=True,
    )


class TestCompareScans:
    def test_reports_every_kind_of_change(self, tmp_path):
        # ICM: F moves by one unit in the last place (2**-52 at 1.17) and
        # its iterations change; the search: a changed flag and decision.
        change = (
            PARENT.replace("0x1.2b08c02c2af20p+0 12 True aaaa", "0x1.2b08c02c2af21p+0 11 True ffff")
            .replace("12,12 True bbbb freed=2,2;9,0", "12,12 False dddd freed=9,0")
            .replace("cccc", "eeee")
        )
        run = compare_scans(tmp_path, PARENT, change)
        assert run.returncode == 0
        assert run.stdout.splitlines() == [
            "lines: 3 and 3",
            f"F differs: 1 of 2 procedure lines, largest |dF| {2.0**-52:.3g} (0 icm)",
            f"  icm: 1 lines, largest |dF| {2.0**-52:.3g}; samples 0",
            "fingerprints differ: 2 of 2 procedure lines",
            "iteration counts differ: 1 lines",
            "  0 icm: 12 -> 11",
            "convergence flags differ: 1 lines",
            "  0 search: True -> False",
            "search decisions differ: 1 lines",
            "  0 search: freed=2,2;9,0 roles=szz/zsz -> freed=9,0 roles=szz/zsz",
            "align lines differ: 1 of 1",
            "  samples 0",
        ]

    def test_identical_scans_differ_nowhere(self, tmp_path):
        run = compare_scans(tmp_path, PARENT, PARENT)
        assert run.returncode == 0
        assert "F differs: 0 of 2 procedure lines" in run.stdout
        assert "search decisions differ: 0 lines" in run.stdout

    def test_different_keys_exit_1(self, tmp_path):
        run = compare_scans(tmp_path, PARENT, PARENT.replace("0 search", "1 search"))
        assert run.returncode == 1
        assert "only in parent: 0 search" in run.stdout
        assert "only in change: 1 search" in run.stdout
