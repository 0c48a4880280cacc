"""``tools/compare_reports.py`` on canned records: a crash fails the
comparison even when both trees crash alike."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "compare_reports.py"
_SPEC = importlib.util.spec_from_file_location("compare_reports", _PATH)
compare_reports = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(compare_reports)


def _record(code):
    return {"argv": ["inspect", "--input", "ops/x.json"], "code": code,
            "stdout": "", "stderr": "Traceback ...\n" if code is None else ""}


@pytest.mark.parametrize("codes, exit_code", [
    ((0, 0), 0),
    ((None, None), 1),   # both trees crash alike: no difference, still a failure
    ((None, 2), 1),
    ((2, None), 1),
])
def test_exit_code(codes, exit_code, monkeypatch, capsys):
    records = iter([[_record(codes[0])], [_record(codes[1])]])
    monkeypatch.setattr(compare_reports, "run_tree", lambda tree: next(records))
    assert compare_reports.main(["old", "new"]) == exit_code
    out = capsys.readouterr().out
    assert ("crashes in the new tree" in out) == (codes[1] is None)
