"""An invocation computes only what it uses.

These tests pin the amount of work, not its result: one Takagi
factorization per operator in ``numrange``, one realification per
operator in ``spectrum`` and one factorization per spectrum circle (a
solve on a member circle, a Cholesky on a gap), span powers built only up
to the degree ``minimal_span`` reaches, one eigensolve per spectrum, no
second factoring of the same matrix in ``rank_link`` or ``block``, the
mu-independent pivots inverted once per block, each complement of a
``block`` run evaluated once, no operator's matrix factored twice by
``identities`` or ``inspect``, the Moore-Penrose residuals computed only
where they are read, normality decided once per invocation, no
guard SVD of an exactly zero symmetry defect, and a span basis that
projects with matrix products.  None of the savings may come from a cache
that outlives its operator.
"""

import contextlib
import gc
import hashlib
import io
import json
import weakref
from collections import Counter

import numpy as np
import numpy.linalg._linalg as npl

import antilin.antiop as antiop
import antilin.blockops as blockops
import antilin.cli as cli
import antilin.extensions as extensions
import antilin.matkernel as matkernel
import antilin.numrange as numrange
import antilin.spectra as spectra
import antilin.structure as structure
from antilin.antiop import AntilinearOperator, RealLinearOperator, compose, realify
from antilin.blockops import correspondence_scan, invert_real_linear, rank_link
from antilin.cli import main
from antilin.extensions import ExtensionProblem, minimal_span
from antilin.matkernel import spectral_norm

from conftest import normal_instance, random_block, write_block_file


def _counting(monkeypatch, owner, name, calls, record=lambda *a, **k: 1):
    original = getattr(owner, name)

    def counting(*args, **kwargs):
        calls.append(record(*args, **kwargs))
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counting)


def _run(argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return main(argv)


def _gen(kind, dim, seed=0, path="op.json", dim2=None):
    argv = ["gen", "--kind", kind, "--dim", str(dim), "--seed", str(seed), "--output", path]
    if dim2 is not None:
        argv += ["--dim2", str(dim2)]
    assert main(argv) == 0
    return path


def test_numrange_factors_takagi_once(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    path = _gen("nonnormal", 6)
    calls = []
    _counting(monkeypatch, numrange, "takagi", calls)
    _run(["numrange", "--input", path, "--target", "0.1,0.05"])
    assert len(calls) == 1


def test_no_takagi_cache_across_invocations(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    path = _gen("twisted_normal", 5)
    counts = []
    for _ in range(2):
        calls = []
        with monkeypatch.context() as m:
            _counting(m, numrange, "takagi", calls)
            _run(["numrange", "--input", path])
        counts.append(len(calls))
    assert counts == [1, 1]


def test_takagi_cache_does_not_keep_the_operator(rng):
    t = AntilinearOperator(rng.standard_normal((4, 4)))
    numrange.nr_disk(t)
    numrange.witness_disk(t, 0.0)
    structure.identity_suite(t)
    structure.is_normal(t)
    structure.c_normal_criterion(t)
    ref = weakref.ref(t)
    del t
    gc.collect()
    assert ref() is None


def test_minimal_span_composes_only_reached_powers(rng, monkeypatch):
    n = 8
    t = normal_instance(rng, n, "twisted")
    v, _ = np.linalg.qr(rng.standard_normal((n, 2)) + 1j * rng.standard_normal((n, 2)))
    problem = ExtensionProblem(ambient=t, embed=v)
    powers = []
    # a power step composes N or N# (antilinear) with the previous power
    _counting(monkeypatch, extensions, "compose", powers,
              lambda f, g: isinstance(f, AntilinearOperator))
    span = minimal_span(problem)
    assert not span.hit_cap
    assert sum(powers) <= 2 * (span.stabilized_degree + 1)


def test_one_eigensolve_per_spectrum(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    op = _gen("nonnormal", 4)
    blk = _gen("block", 3, path="blk.json", dim2=2)
    for argv in (["spectrum", "--input", op], ["block", "--input", blk]):
        calls = []
        with monkeypatch.context() as m:
            _counting(m, np.linalg, "eigvals", calls)
            _run(argv)
        assert len(calls) == 1, argv


def test_spectrum_realifies_once_and_member_probes_run_no_cholesky(tmp_path, monkeypatch):
    # one factorization per circle: a solve on each member circle and a
    # Cholesky on each gap circle; the other phases are proved without one
    monkeypatch.chdir(tmp_path)
    path = _gen("twisted_normal", 16)
    bases, realifies, circles, solves, choleskys, svds = [], [], [], [], [], []
    _counting(monkeypatch, antiop, "_shift_base", bases, lambda op: id(op))
    _counting(monkeypatch, antiop, "realify", realifies)
    # (phases, prediction) of each circle, then the prediction of the
    # circle each kernel runs in
    _counting(monkeypatch, spectra, "_phase_verdicts", circles,
              lambda mats, angles, tol, singular_first: (len(mats), singular_first))
    for name, calls in (("solve", solves), ("cholesky", choleskys), ("svd", svds)):
        _counting(monkeypatch, np.linalg, name, calls, lambda *a, **k: circles[-1][1])
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["spectrum", "--input", path]) == 0
    summary = json.loads(out.getvalue())["summary"]
    assert len(bases) == 1 and len(realifies) == 1   # one operator, one realification
    members = [k for k, expected in circles if expected]
    gaps = [k for k, expected in circles if not expected]
    assert members == [8] * 16 and sum(members) == summary["members_tested"]
    assert sum(gaps) == summary["nonmembers_tested"]
    assert solves == [True] * len(members)
    assert choleskys == [False] * len(gaps)
    assert svds == []


def test_no_realification_carries_over_between_invocations(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    op = _gen("nonnormal", 5)
    blk = _gen("block", 3, path="blk.json", dim2=2)
    for argv in (["spectrum", "--input", op], ["block", "--input", blk]):
        counts = []
        for _ in range(2):
            bases = []
            with monkeypatch.context() as m:
                _counting(m, antiop, "_shift_base", bases)
                _run(argv)
            counts.append(len(bases))
        assert counts == [1, 1], argv   # the block's flat probes share one base


def test_rank_link_factors_flat_matrix_and_pivot_once(rng, monkeypatch):
    blk = random_block(rng, 2, 3)
    flat_shape = (10, 10)   # realify of the 5 x 5 flattening
    pivot_shape = (4, 4)    # realify of A
    svds, invs = [], []
    with monkeypatch.context() as m:
        _counting(m, np.linalg, "svd", svds, lambda a, *r, **k: np.shape(a))
        _counting(m, npl, "svd", svds, lambda a, *r, **k: np.shape(a))
        _counting(m, np.linalg, "inv", invs, lambda a, *r, **k: np.shape(a))
        link = rank_link(blk)
    assert svds.count(flat_shape) == 1
    assert invs.count(pivot_shape) == 1
    a_inv = invert_real_linear(RealLinearOperator.from_antilinear(blk.a), "A")
    f = RealLinearOperator.from_antilinear(blk.f)
    assert link.f_rel_bound == spectral_norm(realify(compose(f, a_inv)))


def _digest(a) -> str:
    return hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()


def test_scan_inverts_b_and_f_once(rng, monkeypatch):
    # by the LAPACK inputs: F and B once each, A - mu and E - mu once per mu
    blk = random_block(rng, 3, 3)
    samples = [0.3 + 0.1j, -1.0, 0.5j, 2.0 - 1.0j]
    a, b, f, e = (RealLinearOperator.from_antilinear(x) for x in (blk.a, blk.b, blk.f, blk.e))
    expected = [realify(f), realify(b)] + [
        realify(x.shifted(mu)) for mu in samples for x in (a, e)
    ]
    inverted = []
    _counting(monkeypatch, np.linalg, "inv", inverted, lambda m, *r, **k: _digest(m))
    report = correspondence_scan(blk, samples)
    assert report.skipped == 0
    assert Counter(inverted) == {_digest(m): 1 for m in expected}
    assert len(expected) == 10


def test_zero_pivot_is_tested_once_and_never_inverted(tmp_path, monkeypatch):
    # F = 0: T2's pivot is singular at every mu.  cmd_block's --mu list and
    # the scan share the block's one F, so realify(F) runs one verdict SVD
    # (no bracket applies to a zero matrix), one SVD for the smallest
    # singular value that every skip names, and no inverse
    monkeypatch.chdir(tmp_path)
    path = write_block_file(tmp_path / "f0.json", np.zeros((3, 3), dtype=complex))
    zero = _digest(np.zeros((6, 6)))   # realify(F)
    svds, invs, minima, scans = [], [], [], []
    for owner in (np.linalg, npl):
        _counting(monkeypatch, owner, "svd", svds, lambda a, *r, **k: _digest(a))
    _counting(monkeypatch, np.linalg, "inv", invs, lambda a, *r, **k: _digest(a))
    _counting(monkeypatch, blockops, "singularity", minima, lambda a, *r, **k: _digest(a))
    scan = cli.correspondence_scan
    monkeypatch.setattr(cli, "correspondence_scan",
                        lambda *a, **k: scans.append(scan(*a, **k)) or scans[-1])
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        main(["block", "--input", path, "--mu", "0.3+0.1j;-1;0.5j"])
    skipped = json.loads(out.getvalue())["summary"]["skipped"]
    reasons = [line.split(": ", 1)[1] for line in skipped]
    t2 = [e for e in scans[0].entries if e.selector == "T2"]
    reasons += [e.skipped_reason for e in t2]
    assert len(skipped) == 3 and len(t2) > 3   # one line per skipped T2
    assert set(reasons) == {"pivot F is numerically singular (min singular value 0.000e+00)"}
    assert svds.count(zero) == 2 and minima.count(zero) == 1
    assert zero not in invs


def test_block_evaluates_each_complement_once(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    path = _gen("block", 3, dim2=3)
    mus = (0.3 + 0.1j, -0.7 + 0.2j)
    at_mu, evaluated, scans, flats = [], [], [], []
    record = lambda blk, sel, mu, *r, **k: (sel, complex(mu))  # noqa: E731
    _counting(monkeypatch, cli, "complement", at_mu, record)
    _counting(monkeypatch, blockops, "complement", evaluated, record)
    _counting(monkeypatch, blockops, "singular_values", flats, lambda a: np.shape(a))
    scan = cli.correspondence_scan

    def counted_scan(blk, samples, **kwargs):
        start = len(evaluated)
        report = scan(blk, samples, **kwargs)
        scans.append((Counter(evaluated[start:]), [complex(mu) for mu in samples]))
        return report

    monkeypatch.setattr(cli, "correspondence_scan", counted_scan)
    _run(["block", "--input", path, "--mu", ";".join(str(m) for m in mus)])
    # the CLI evaluates each (selector, --mu value) once
    assert Counter(at_mu) == {(sel, mu): 1 for sel in blockops.SELECTORS for mu in mus}
    # the scan evaluates each (sample, selector) once, through complement
    [(in_scan, samples)] = scans
    assert in_scan == Counter((sel, mu) for mu in samples for sel in blockops.SELECTORS)
    # and rank_link evaluates S2(0) and S1(0)
    assert Counter(evaluated) - in_scan == {("S2", 0j): 1, ("S1", 0j): 1}
    # flat norm and flat rank share one SVD; rank_link ranks S2(0) and S1(0)
    assert Counter(flats) == {(12, 12): 1, (6, 6): 2}


def _kernel_inputs(monkeypatch, names=("svd", "eigh")) -> list:
    """Record (kernel, options, input bytes) of every SVD and Hermitian
    eigensolve, including the SVDs behind ``spectral_norm``."""
    calls = []
    for name in names:
        original = getattr(npl, name)

        def counting(a, *args, _name=name, _original=original, **kwargs):
            m = np.ascontiguousarray(a)
            digest = hashlib.sha256(m.tobytes()).hexdigest()
            calls.append((_name, m.shape, args, tuple(sorted(kwargs.items())), digest))
            return _original(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counting)
        monkeypatch.setattr(npl, name, counting)
    return calls


def test_no_matrix_factored_twice(tmp_path, monkeypatch):
    # nonnormal and twisted_normal have no T = T# coincidence, so a repeated
    # input can only be a repeated factorization
    monkeypatch.chdir(tmp_path)
    for kind in ("nonnormal", "twisted_normal"):
        path = _gen(kind, 8, path=f"{kind}.json")
        for cmd in ("identities", "inspect"):
            with monkeypatch.context() as m:
                calls = _kernel_inputs(m)
                _run([cmd, "--input", path])
            repeated = [c for c, k in Counter(calls).items() if k > 1]
            assert repeated == [], (kind, cmd)
    # block: the pivots F and B are inverted and conditioned once per run,
    # whatever the number of mu, and the flattened block realified once
    for n in (3, 8):
        path = _gen("block", n, path=f"block-{n}.json", dim2=n)
        with monkeypatch.context() as m:
            calls = _kernel_inputs(m, names=("svd", "inv"))
            realifies = []
            _counting(m, antiop, "realify", realifies, lambda op: np.shape(op.canon)
                      if isinstance(op, AntilinearOperator) else None)
            _run(["block", "--input", path])
        repeated = [c[:2] for c, k in Counter(calls).items() if k > 1]
        assert repeated == [], n
        assert realifies.count((2 * n, 2 * n)) == 1, n


def test_identities_computes_no_unread_mp_residuals(tmp_path, monkeypatch):
    # identity_suite reads only the daggers of T, T# and T+; the four
    # pseudoinverses left are its Gram and modulus oracles
    monkeypatch.chdir(tmp_path)
    path = _gen("nonnormal", 8)
    pinvs = []
    _counting(monkeypatch, structure, "pinv", pinvs)
    svds = _kernel_inputs(monkeypatch, names=("svd",))
    _run(["identities", "--input", path])
    assert len(pinvs) == 4
    assert len(svds) == 24


def test_mp_residuals_computed_once_on_first_read(rng, monkeypatch):
    t = AntilinearOperator(rng.standard_normal((5, 4)) + 1j * rng.standard_normal((5, 4)))
    pinvs = []
    _counting(monkeypatch, structure, "pinv", pinvs)
    mp = structure.moore_penrose(t)
    assert pinvs == []
    first = mp.residuals
    assert len(pinvs) == 1
    assert mp.residuals is first
    assert len(pinvs) == 1


def test_guards_run_no_svd_on_an_exactly_zero_difference(rng, monkeypatch):
    a = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    gram = a.conj().T @ a
    hermitian = 0.5 * (gram + gram.conj().T)   # h - h* is exactly zero
    symmetric = a + a.T                          # b - b.T is exactly zero
    for kernel, arg in ((matkernel.psd_sqrt, hermitian), (matkernel.takagi, symmetric)):
        with monkeypatch.context() as m:
            calls = _kernel_inputs(m, names=("svd",))
            kernel(arg)
        assert len(calls) == 1, kernel.__name__   # the scale ||input|| only


def test_normality_decided_once_per_invocation(tmp_path, monkeypatch):
    # is_normal keeps its verdict on the operator, so however many checks
    # ask, the residual is formed once
    monkeypatch.chdir(tmp_path)
    path = _gen("twisted_normal", 6)
    for cmd in ("identities", "inspect", "extension"):
        calls = []
        with monkeypatch.context() as m:
            _counting(m, structure, "normality_residual", calls)
            assert _run([cmd, "--input", path]) == 0
        assert len(calls) == 1, cmd


def test_span_basis_projects_with_products(rng, monkeypatch):
    n = 8
    basis = extensions._Basis(n)
    vdots, dots, per_add = [], [], []
    _counting(monkeypatch, np, "vdot", vdots)
    _counting(monkeypatch, np, "dot", dots)
    vs = [rng.standard_normal(n) + 1j * rng.standard_normal(n) for _ in range(5)]
    for v in vs + [2.0 * vs[0] - 1j * vs[3]]:   # the last lies in the span
        before = len(dots)
        grew = basis.add(v)
        per_add.append(len(dots) - before)
        assert grew == (len(per_add) <= 5)
    assert vdots == []
    # two classical passes of two products each, whatever the basis size
    assert per_add == [4] * 6
    q = basis._rows[: len(basis)]
    assert len(basis) == 5
    assert spectral_norm(q @ q.conj().T - np.eye(5)) <= 1e-12
