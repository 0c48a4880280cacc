"""Smoke test of the per-file routine of ``tools/sweep.py``.

The full sweep runs outside the suite (it takes minutes); this runs its
per-file routine on one d = 4 file and pins the shape of what it records.
"""

import contextlib
import importlib.util
import io
import time
from pathlib import Path

from antilin.cli import main

_PATH = Path(__file__).resolve().parents[1] / "tools" / "sweep.py"
_SPEC = importlib.util.spec_from_file_location("sweep", _PATH)
sweep = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(sweep)


def _gen(kind, path):
    argv = ["gen", "--kind", kind, "--dim", "4", "--seed", "0", "--output", path]
    if kind == "block":
        argv += ["--dim2", "4"]
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == 0


def test_sweep_file_runs_every_command_of_a_small_file(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    _gen("twisted_normal", "op.json")
    commands = sweep.commands_for("twisted_normal")
    assert commands == ("inspect", "identities", "spectrum", "numrange", "extension")
    start = time.perf_counter()
    assert sweep.sweep_file("op.json", commands) == {}
    assert time.perf_counter() - start < 2.0


def test_sweep_file_records_a_usage_error(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    _gen("block", "blk.json")
    assert sweep.commands_for("block") == ("block",)
    assert sweep.sweep_file("blk.json", ("inspect",)) == {
        "inspect --input blk.json":
            ["exit 2: error: block operator files are handled by the 'block' subcommand"]
    }
