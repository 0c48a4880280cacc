"""Every check's bound comes from one table and one formula.

``reporting.CHECK_BOUNDS`` maps each check name (or the pattern of the
factorization family) to a tolerance key and a degree, or to ``EXACT``;
``reporting.scaled_bound`` turns a base tolerance, the degree and a norm
into the bound.  These tests run every subcommand on a small corpus and
require that each emitted name resolves to exactly one entry and that no
entry goes unused.
"""

import contextlib
import io
import json
from fnmatch import fnmatchcase

import numpy as np
import pytest

from antilin import structure
from antilin.antiop import AntilinearOperator
from antilin.cli import main
from antilin.generators import KINDS
from antilin.reporting import BASE_TOLERANCES, CHECK_BOUNDS, EXACT, bound_entry, scaled_bound

OPERATOR_COMMANDS = ("inspect", "identities", "spectrum", "numrange")
# the kinds whose generator makes T T# = T# T hold, so extension applies
NORMAL_KINDS = ("selfadjoint", "scaled_antiunitary", "twisted_normal", "multiplication")


def _main(argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    assert code in (0, 1), argv
    return out.getvalue()


@pytest.fixture(scope="module")
def corpus_records(tmp_path_factory):
    """The check records of every subcommand that applies to each gen kind
    at d = 4 seed 0, plus ``numrange`` at d = 1 and with ``--target``."""
    d = tmp_path_factory.mktemp("corpus")
    one = str(d / "one.json")
    _main(["gen", "--kind", "selfadjoint", "--dim", "1", "--output", one])
    runs = [["numrange", "--input", one]]
    for kind in sorted(KINDS):
        path = str(d / f"{kind}.json")
        dim2 = ["--dim2", "4"] if kind == "block" else []
        _main(["gen", "--kind", kind, "--dim", "4", *dim2, "--output", path])
        if kind == "block":
            commands = ("block",)
        else:
            commands = OPERATOR_COMMANDS + (("extension",) if kind in NORMAL_KINDS else ())
        runs += [[cmd, "--input", path] for cmd in commands]
    runs.append(["numrange", "--input", str(d / "selfadjoint.json"), "--target", "0.1,0"])
    return [rec for argv in runs for rec in json.loads(_main(argv))["checks"]]


def test_every_emitted_name_resolves_to_exactly_one_entry(corpus_records):
    for rec in corpus_records:
        matches = [p for p in CHECK_BOUNDS if fnmatchcase(rec["name"], p)]
        assert len(matches) == 1, (rec["name"], matches)
        assert bound_entry(rec["name"]) == CHECK_BOUNDS[matches[0]]


def test_no_entry_goes_unused(corpus_records):
    used = {p for rec in corpus_records for p in CHECK_BOUNDS if fnmatchcase(rec["name"], p)}
    assert used == set(CHECK_BOUNDS)


def test_exact_and_degree_zero_bounds_are_bare(corpus_records):
    for rec in corpus_records:
        entry = bound_entry(rec["name"])
        if entry is EXACT:
            assert rec["tolerance"] == 0.0, rec
        elif entry[1] == 0:
            assert rec["tolerance"] == BASE_TOLERANCES[entry[0]], rec


def test_unknown_name_has_no_entry():
    with pytest.raises(ValueError):
        bound_entry("factorization_S1")


def test_scaled_bound_formula(rng):
    norms = np.abs(rng.standard_normal(1000)) * 10.0 ** rng.integers(-8, 8, 1000)
    for norm in map(float, norms):
        assert scaled_bound(1e-8, 0, norm) == 1e-8
        # degree 1 is the (1 + norm) factor bit for bit
        assert scaled_bound(1e-8, 1, norm) == 1e-8 * (1 + norm)
        assert scaled_bound(1e-10, 4, norm) == 1e-10 * (1 + norm**4)


def test_selfadjointness_decides_at_the_scaled_bound(rng):
    # a symmetric canonical matrix plus an antisymmetric defect: A - A.T has
    # norm 0.9 and 1.1 times the degree-1 bound
    s = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    s = s + s.T
    e = rng.standard_normal((5, 5))
    e = (e - e.T) / np.linalg.norm(e - e.T, 2)
    for factor, expected in ((0.9, True), (1.1, False)):
        a = s + 0.5 * factor * scaled_bound(structure.NORMAL_TOL, 1, np.linalg.norm(s, 2)) * e
        assert structure.is_selfadjoint(AntilinearOperator(a)) is expected
