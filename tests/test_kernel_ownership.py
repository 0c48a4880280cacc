"""The singularity, rank and Takagi decisions live in matkernel alone.

These tests pin the ownership itself: no module but matkernel calls the
SVD, Cholesky or a linear solve; a singularity verdict the Cholesky/solve
bracket decides runs no SVD and an undecided one runs exactly one; and the
CLI imports no scipy.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import numpy.linalg._linalg as npl
import pytest

import antilin
from antilin.antiop import AntilinearOperator, RealLinearOperator, realify
from antilin.blockops import complement, invert_real_linear
from antilin.errors import PivotSingular
from antilin.generators import haar_unitary
from antilin.matkernel import SING_TOL, is_singular, singularity
from antilin.spectra import is_in_spectrum

from conftest import random_block, with_singular_values

SRC = Path(antilin.__file__).resolve().parent


def test_cli_import_leaves_scipy_out():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC.parent), env.get("PYTHONPATH")) if p
    )
    out = subprocess.run(
        [sys.executable, "-c", "import sys, antilin.cli; print('scipy' in sys.modules)"],
        capture_output=True, text=True, env=env, check=True,
    )
    assert out.stdout.strip() == "False"


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
    pivot = RealLinearOperator.from_antilinear(AntilinearOperator(np.eye(3))).shifted(0.5)
    assert _svds_per_call(calls, invert_real_linear, pivot)[0] == 0


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
    assert cond == singularity(realify(comp.pivot))[0]


def test_singular_pivot_names_the_svd_value(monkeypatch):
    pivot = RealLinearOperator.from_antilinear(AntilinearOperator(np.eye(2))).shifted(1.0)
    with pytest.raises(PivotSingular) as info:
        invert_real_linear(pivot, "A - mu")
    assert info.value.min_singular == singularity(realify(pivot))[0]


def test_svd_called_only_in_matkernel():
    offenders = [
        path.name
        for path in sorted(SRC.glob("*.py"))
        if path.name != "matkernel.py"
        and re.search(r"linalg\.(svd|cholesky|solve)\b", path.read_text(encoding="utf-8"))
    ]
    assert offenders == []
