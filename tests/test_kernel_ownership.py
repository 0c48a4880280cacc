"""The singularity, rank and Takagi decisions live in matkernel alone.

These tests pin the ownership itself: no module but matkernel calls the
SVD, a singularity decision reads one SVD, and the CLI imports no scipy.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import numpy.linalg._linalg as npl

import antilin
from antilin.antiop import AntilinearOperator, RealLinearOperator
from antilin.blockops import invert_real_linear
from antilin.spectra import is_in_spectrum

from conftest import random_antilinear

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


def test_one_svd_per_singularity_decision(monkeypatch, rng):
    t = random_antilinear(rng, 4)
    calls = _count_svds(monkeypatch)
    for lam in (0.0, 0.5, 1.0 + 0.5j):
        before = len(calls)
        is_in_spectrum(t, lam)
        assert len(calls) - before == 1
    op = RealLinearOperator.from_antilinear(AntilinearOperator(np.eye(3)))
    before = len(calls)
    invert_real_linear(op.shifted(0.5))
    assert len(calls) - before == 1


def test_svd_called_only_in_matkernel():
    offenders = [
        path.name
        for path in sorted(SRC.glob("*.py"))
        if path.name != "matkernel.py"
        and re.search(r"linalg\.svd\b", path.read_text(encoding="utf-8"))
    ]
    assert offenders == []
