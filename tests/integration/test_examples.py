"""Smoke tests: every example script runs to completion and prints its
headline results.  (office_design is the slow one and is marked.)"""

import pathlib
import subprocess
import sys

import pytest

EXAMPLES = pathlib.Path(__file__).resolve().parents[2] / "examples"


def run_example(name: str) -> str:
    result = subprocess.run(
        [sys.executable, str(EXAMPLES / f"{name}.py")],
        capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr
    return result.stdout


class TestExamples:
    def test_quickstart(self):
        out = run_example("quickstart")
        assert "u <= 10" in out
        assert "rightmost room coordinate reached: 10" in out

    def test_submarine_mda(self):
        out = run_example("submarine_mda")
        assert "Compatible maneuver/goal pairs" in out
        assert "min speed" in out

    def test_manufacturing_lp(self):
        out = run_example("manufacturing_lp")
        assert "Cheapest way to fill each order" in out
        assert "profit" in out

    def test_temporal_scheduling(self):
        out = run_example("temporal_scheduling")
        assert "Booking conflicts" in out
        assert "earliest availability" in out

    def test_room_packing(self):
        out = run_example("room_packing")
        assert "Joint placement space: 64 disjuncts" in out
        assert "Largest empty square" in out

    @pytest.mark.slow
    def test_office_design(self):
        out = run_example("office_design")
        assert "Placed extents" in out
        assert "Classifying placed objects" in out
        # Sections [4] and [5] build boxes and cuts from CST operators.
        assert "510 candidate grid positions" in out
        assert "obj_0 misses the v = 5 line: ((u) | FALSE)" in out
        assert "obj_1 crosses the v = 5 line: " \
            "((u) | -u <= -20 and u <= 28)" in out
        assert "obj_2 misses the v = 5 line: ((u) | FALSE)" in out
