"""The tables of ``tools/corpus.py``, checked without running an invocation.

A stale row (a file read before any row writes it, a file written twice, an
input that silently drops out of a grid) fails here in seconds rather than
in a worker run of ``tools/compare_reports.py`` or a sweep.
"""

import importlib.util
from pathlib import Path

import pytest

import antilin.cli

_PATH = Path(__file__).resolve().parents[1] / "tools" / "corpus.py"
_SPEC = importlib.util.spec_from_file_location("corpus", _PATH)
corpus = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(corpus)


@pytest.fixture(autouse=True)
def no_invocation(monkeypatch):
    def refuse(argv=None):
        raise AssertionError(f"listing the corpus ran {argv}")

    monkeypatch.setattr(antilin.cli, "main", refuse)


@pytest.mark.parametrize("rows", [corpus.compare_rows, corpus.sweep_rows])
def test_each_file_is_written_once_before_it_is_read(rows):
    written = []
    for path, source, argvs in rows():
        if source is not None:
            assert path not in written, path
            written.append(path)
        for argv in argvs:
            if "--input" in argv:
                assert argv[argv.index("--input") + 1] in written, argv


def _compare_records(rows) -> int:
    # what compare_reports.worker records: a gen source runs to stdout and
    # with --output, a payload is recorded as its written text, raw text is not
    return sum(
        len(argvs) + (2 if isinstance(source, list) else 1 if callable(source) else 0)
        for _, source, argvs in rows
    )


def test_compare_reports_lists_its_invocations_with_the_extreme_inputs_last():
    rows = list(corpus.compare_rows())
    extreme = len(corpus.EXTREME)
    assert _compare_records(rows[:-extreme]) == 603
    assert _compare_records(rows) == 606
    assert [path for path, _, _ in rows[-extreme:]] == [
        "ops/raw-deep-array.json", "ops/raw-deep-meta.json", "ops/raw-huge-entries.json"]


def test_sweep_lists_144_operator_and_18_block_files():
    kinds = [gen[gen.index("--kind") + 1] for _, gen, _ in corpus.sweep_rows()]
    assert len(kinds) - kinds.count("block") == 144
    assert kinds.count("block") == 18


def test_gen_argv_names_the_second_dimension_of_a_block():
    assert corpus.gen_argv("selfadjoint", 4, 1) == [
        "gen", "--kind", "selfadjoint", "--dim", "4", "--seed", "1"]
    assert corpus.gen_argv("block", 4, 1) == [
        "gen", "--kind", "block", "--dim", "4", "--seed", "1", "--dim2", "4"]
    assert corpus.gen_argv("block", 3, 0, 5) == [
        "gen", "--kind", "block", "--dim", "3", "--dim2", "5", "--seed", "0"]


def test_extension_runs_on_the_normal_kinds_unless_every_kind_is_asked_for():
    assert corpus.commands_for("nonnormal") == ("inspect", "identities", "spectrum", "numrange")
    assert corpus.commands_for("nonnormal", every=True) == corpus.OPERATOR_COMMANDS
    assert corpus.commands_for("multiplication") == corpus.OPERATOR_COMMANDS
    assert corpus.commands_for("block", every=True) == ("block",)
