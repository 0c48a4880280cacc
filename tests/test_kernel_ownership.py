"""The singularity, rank and Takagi decisions live in matkernel alone.

These tests pin the ownership itself: no module but matkernel calls the
SVD, Cholesky or a linear solve; a singularity verdict the Cholesky/solve
bracket decides runs no SVD and an undecided one runs exactly one; the CLI
imports neither scipy nor OpenSSL's hashlib; and a cold subcommand loads
only the package modules it runs, builds no dataclass and freezes its heap
before it exits.
"""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import numpy.linalg._linalg as npl
import pytest

import antilin
from antilin.antiop import AntilinearOperator, realify_shifted
from antilin.blockops import Pivot, complement
from antilin.errors import PivotSingular
from antilin.generators import haar_unitary
from antilin.matkernel import SING_TOL, is_singular, singularity
from antilin.spectra import is_in_spectrum

from conftest import random_block, with_singular_values

SRC = Path(antilin.__file__).resolve().parent


def _src_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC.parent), env.get("PYTHONPATH")) if p
    )
    return env


def test_cli_import_leaves_scipy_and_openssl_out():
    # hashlib loads OpenSSL's _hashlib; only parse_payload digests.  (A cold
    # gen still loads it: numpy.random imports secrets, and secrets hmac.)
    out = subprocess.run(
        [sys.executable, "-c", "import sys, antilin.cli; "
         "print([m for m in ('scipy', 'hashlib', '_hashlib') if m in sys.modules])"],
        capture_output=True, text=True, env=_src_env(), check=True,
    )
    assert out.stdout.strip() == "[]"


# what parsing, loading and emitting need; each subcommand adds its own
CORE_MODULES = {"antilin", "antilin.antiop", "antilin.cli", "antilin.errors",
                "antilin.generators", "antilin.io", "antilin.matkernel", "antilin.reporting"}
SUBCOMMAND_MODULES = {
    "inspect": {"structure", "spectra", "numrange"},
    "identities": {"structure"},
    "spectrum": {"spectra"},
    "numrange": {"numrange"},
    "extension": {"extensions", "structure"},
    "block": {"blockops", "spectra"},
    "gen": set(),
}
# runs ``python -m antilin ARGV`` as -m does and prints the package modules
# loaded, whether ``dataclasses`` was imported and the frozen object count
_RUN_AS_MAIN = """
import gc, json, runpy, sys
sys.argv[0] = "antilin"
try:
    runpy.run_module("antilin", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    code = exc.code
print(json.dumps([code, sorted(m for m in sys.modules if m.partition(".")[0] == "antilin"),
                  "dataclasses" in sys.modules, gc.get_freeze_count()]))
"""


def test_package_import_loads_no_submodule():
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, antilin; print(sorted(m for m in sys.modules if m.startswith('antilin')))"],
        capture_output=True, text=True, env=_src_env(), check=True,
    )
    assert out.stdout.strip() == "['antilin']"


@pytest.fixture(scope="module")
def tiny_files(tmp_path_factory):
    from antilin.cli import main

    d = tmp_path_factory.mktemp("tiny")
    paths = {"operator": str(d / "op.json"), "block": str(d / "blk.json")}
    assert main(["gen", "--kind", "selfadjoint", "--dim", "2", "--output", paths["operator"]]) == 0
    assert main(["gen", "--kind", "block", "--dim", "2", "--output", paths["block"]]) == 0
    return d, paths


@pytest.mark.parametrize("command", sorted(SUBCOMMAND_MODULES))
def test_cold_subcommand_loads_only_its_modules(command, tiny_files):
    d, paths = tiny_files
    if command == "gen":
        argv = ["gen", "--kind", "selfadjoint", "--dim", "2", "--output", str(d / "gen.json")]
    else:
        source = paths["block" if command == "block" else "operator"]
        argv = [command, "--input", source, "--output", str(d / f"{command}.out")]
    out = subprocess.run(
        [sys.executable, "-c", _RUN_AS_MAIN, *argv],
        capture_output=True, text=True, env=_src_env(), check=True,
    )
    code, loaded, dataclasses_imported, frozen = json.loads(out.stdout)
    assert code == 0, out.stderr
    assert set(loaded) == CORE_MODULES | {f"antilin.{m}" for m in SUBCOMMAND_MODULES[command]}
    # each dataclass costs about 1 ms to build; the records are NamedTuples
    assert not dataclasses_imported
    # the heap is frozen, so the interpreter's final collection skips it
    assert frozen > 10000


def _count_svds(monkeypatch) -> list:
    """Count SVDs, both direct ones and those behind ``np.linalg.norm(a, 2)``."""
    calls = []
    original = npl.svd

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting)
    monkeypatch.setattr(npl, "svd", counting)
    return calls


def _svds_per_call(calls, fn, *args):
    before = len(calls)
    result = fn(*args)
    return len(calls) - before, result


def test_bracket_decided_verdicts_run_no_svd(monkeypatch, rng):
    # circles of radius 0.5, 1 and 2: members on them, non-members between
    v = haar_unitary(rng, 3)
    t = AntilinearOperator(v @ np.diag([0.5, 1.0, 2.0]) @ v.T)
    calls = _count_svds(monkeypatch)
    for lam, member in ((0.5, True), (2.0j, True), (np.exp(1j), True),
                        (0.0, False), (0.75, False), (1.0 + 2.0j, False)):
        assert _svds_per_call(calls, is_in_spectrum, t, lam) == (0, member)
    pivot = Pivot("A - mu", realify_shifted(AntilinearOperator(np.eye(3)), 0.5))
    assert _svds_per_call(calls, pivot.inverse)[0] == 0


@pytest.mark.parametrize("side", [1 - 1e-6, 1 + 1e-6])
def test_undecided_verdict_runs_one_svd(monkeypatch, side):
    # sigma_min a relative 1e-6 from the cutoff: no bracket can decide it
    m = with_singular_values(np.random.default_rng(7), [2.0, 1.0, SING_TOL * 3.0 * side])
    calls = _count_svds(monkeypatch)
    smin, threshold = singularity(m)
    assert len(calls) == 1
    assert _svds_per_call(calls, is_singular, m) == (1, smin <= threshold)


def test_pivot_condition_is_the_lazy_exact_svd_value(monkeypatch, rng):
    blk = random_block(rng, 3, 3)
    calls = _count_svds(monkeypatch)
    comp = complement(blk, "S2", 0.3 + 0.1j)
    assert len(calls) == 0
    cond = comp.pivot_condition
    assert len(calls) == 1
    assert comp.pivot_condition == cond and len(calls) == 1
    assert cond == singularity(comp.pivot.r)[0]


def test_singular_pivot_names_the_svd_value(monkeypatch):
    pivot = Pivot("A - mu", realify_shifted(AntilinearOperator(np.eye(2)), 1.0))
    with pytest.raises(PivotSingular) as info:
        pivot.inverse()
    assert info.value.min_singular == singularity(pivot.r)[0]


def test_svd_called_only_in_matkernel():
    offenders = [
        path.name
        for path in sorted(SRC.glob("*.py"))
        if path.name != "matkernel.py"
        and re.search(r"linalg\.(svd|cholesky|solve)\b", path.read_text(encoding="utf-8"))
    ]
    assert offenders == []
