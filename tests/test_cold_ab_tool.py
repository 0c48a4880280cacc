"""Smoke test of ``tools/cold_ab.py``: one alternating pair of a cold
``gen`` from the same tree on both sides."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_one_pair_of_the_same_tree_is_identical():
    res = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "cold_ab.py"), str(ROOT), str(ROOT),
         "--pairs", "1", "--argv", "gen --kind selfadjoint --dim 2"],
        capture_output=True, text=True, timeout=120,
    )
    assert res.returncode == 0, res.stderr
    header, cmd, whole, files = res.stdout.splitlines()
    assert header.startswith("1 alternating pairs")
    assert cmd.endswith("  yes  gen --kind selfadjoint --dim 2")
    assert "/1  " in cmd and "whole pass (1 argvs" in whole
    assert files == "written files identical: yes"
