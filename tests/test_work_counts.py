"""An invocation computes only what it uses.

These tests pin the amount of work, not its result: one Takagi
factorization per operator in ``numrange``, one realification per
operator in ``spectrum``, one factorization and one built phase matrix
per spectrum circle (a solve on a member circle, a Cholesky on a gap),
span powers built only up to the degree ``minimal_span`` reaches, one
eigensolve per spectrum, no
second factoring of the same matrix in ``rank_link`` or ``block``, the
mu-independent pivots inverted once per block, each complement of a
``block`` run evaluated once, no operator's matrix factored twice by
``identities`` or ``inspect`` (a symmetric one is its own adjoint), the
Moore-Penrose residuals computed only where they are read, normality
decided once per invocation, no
guard SVD of an exactly zero symmetry defect (so no SVD in ``numrange``),
and a span basis that projects with matrix products.  None of the savings may come from a cache
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
import antilin.extensions as extensions
import antilin.matkernel as matkernel
import antilin.numrange as numrange
import antilin.spectra as spectra
import antilin.structure as structure
from antilin.antiop import AntilinearOperator, realify, realify_shifted
from antilin.blockops import Pivot, correspondence_scan, rank_link
from antilin.cli import main
from antilin.extensions import ExtensionProblem, minimal_span
from antilin.io import load_operator
from antilin.matkernel import spectral_norm

import pq_algebra as pq
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
    letters, powers = [t.canon], []
    adjoint = AntilinearOperator.adjoint

    def recorded_adjoint(op):
        out = adjoint(op)
        letters.append(out.canon)
        return out

    monkeypatch.setattr(AntilinearOperator, "adjoint", recorded_adjoint)
    # a power step multiplies N or N# (antilinear) into the previous power;
    # a word's left factor is a power, never the letter itself
    _counting(monkeypatch, extensions, "_parity_product", powers,
              lambda f, g: any(f[0] is m for m in letters))
    span = minimal_span(problem)
    assert not span.hit_cap
    assert 0 < sum(powers) <= 2 * (span.stabilized_degree + 1)


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
    families, realifies, circles, solves, choleskys, svds = [], [], [], [], [], []
    _counting(monkeypatch, matkernel._ShiftFamily, "__init__", families)
    _counting(monkeypatch, antiop, "realify", realifies)
    # (phases, prediction) of each circle, then the prediction of the
    # circle each kernel runs in
    _counting(monkeypatch, spectra, "_phase_verdicts", circles,
              lambda circle, tol, singular_first: (circle.size, singular_first))
    for name, calls in (("solve", solves), ("cholesky", choleskys), ("svd", svds)):
        _counting(monkeypatch, np.linalg, name, calls, lambda *a, **k: circles[-1][1])
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["spectrum", "--input", path]) == 0
    summary = json.loads(out.getvalue())["summary"]
    assert len(families) == 1 and len(realifies) == 1   # one operator, one realification
    members = [k for k, expected in circles if expected]
    gaps = [k for k, expected in circles if not expected]
    assert members == [8] * 16 and sum(members) == summary["members_tested"]
    assert sum(gaps) == summary["nonmembers_tested"]
    assert solves == [True] * len(members)
    assert choleskys == [False] * len(gaps)
    assert svds == []


def test_a_decided_circle_builds_one_phase_matrix(tmp_path, monkeypatch):
    # every circle of twisted_normal d=16 is proved from its phase 0: that
    # phase is the only matrix built, in the one buffer of the crosscheck
    monkeypatch.chdir(tmp_path)
    path = _gen("twisted_normal", 16)
    circles, built, svds = [], [], []
    _counting(monkeypatch, spectra, "_phase_verdicts", circles)
    _counting(monkeypatch, matkernel._Circle, "matrix", built,
              lambda circle, k: (len(circles), k, id(circle.out)))
    _counting(monkeypatch, np.linalg, "svd", svds)
    _run(["spectrum", "--input", path])
    assert len(circles) > 16 and svds == []
    assert [(index, k) for index, k, _ in built] == [(i, 0) for i in range(1, len(circles) + 1)]
    assert len({buffer for _, _, buffer in built}) == 1


def test_no_realification_carries_over_between_invocations(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    op = _gen("nonnormal", 5)
    blk = _gen("block", 3, path="blk.json", dim2=2)
    # one shift family per shifted operator: the spectrum's operator; the
    # block's flattening (all its flat probes share it), A and E
    for argv, per_run in ((["spectrum", "--input", op], 1), (["block", "--input", blk], 3)):
        counts = []
        for _ in range(2):
            families = []
            with monkeypatch.context() as m:
                _counting(m, matkernel._ShiftFamily, "__init__", families)
                _run(argv)
            counts.append(len(families))
        assert counts == [per_run, per_run], argv


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
    a_inv = Pivot("A", realify_shifted(blk.a, 0.0)).inverse()
    assert link.f_rel_bound == spectral_norm(realify(blk.f) @ a_inv)


def _digest(a) -> str:
    return hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()


def test_scan_inverts_b_and_f_once(rng, monkeypatch):
    # by the LAPACK inputs: F and B once each, A - mu and E - mu once per mu
    blk = random_block(rng, 3, 3)
    samples = [0.3 + 0.1j, -1.0, 0.5j, 2.0 - 1.0j]
    a, b, f, e = (pq.RealLinearOperator.from_antilinear(x) for x in (blk.a, blk.b, blk.f, blk.e))
    expected = [pq.realify(f), pq.realify(b)] + [
        pq.realify(x.shifted(mu)) for mu in samples for x in (a, e)
    ]
    inverted = []
    _counting(monkeypatch, np.linalg, "inv", inverted, lambda m, *r, **k: _digest(m))
    report = correspondence_scan(blk, samples)
    assert report.skipped == 0
    assert Counter(inverted) == {_digest(m): 1 for m in expected}
    assert len(expected) == 10


def test_zero_pivot_is_tested_once_and_never_inverted(tmp_path, monkeypatch):
    # F = 0: T2's pivot is singular at every mu.  cmd_block's --mu list and
    # the scan share the block's one F, so realify(F) runs one SVD (no
    # bracket applies to a zero matrix): it decides the verdict and gives
    # the smallest singular value that every skip names.  No inverse runs
    monkeypatch.chdir(tmp_path)
    path = write_block_file(tmp_path / "f0.json", np.zeros((3, 3), dtype=complex))
    zero = _digest(np.zeros((6, 6)))   # realify(F)
    # SVD and singularity inputs are kept as arrays: rank_link's ||F A^-1||
    # is another zero 6 x 6 matrix, so realify(F) is told by identity
    blocks, svds, invs, minima, scans = [], [], [], [], []
    for owner in (np.linalg, npl):
        _counting(monkeypatch, owner, "svd", svds, lambda a, *r, **k: a)
    _counting(monkeypatch, np.linalg, "inv", invs, lambda a, *r, **k: _digest(a))
    _counting(monkeypatch, blockops, "singularity", minima, lambda a, *r, **k: a)
    _counting(monkeypatch, blockops, "complement", blocks, lambda blk, *r, **k: blk)
    scan = blockops.correspondence_scan
    monkeypatch.setattr(blockops, "correspondence_scan",
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
    realified_f = blocks[0]._pivots["F"].r
    assert all(blk is blocks[0] for blk in blocks)
    assert _digest(realified_f) == zero
    assert sum(a is realified_f for a in svds) == 1
    assert all(a is not realified_f for a in minima)
    assert zero not in invs


def test_block_evaluates_each_complement_once(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    path = _gen("block", 3, dim2=3)
    mus = (0.3 + 0.1j, -0.7 + 0.2j)
    evaluated, scans, flats = [], [], []
    record = lambda blk, sel, mu, *r, **k: (sel, complex(mu))  # noqa: E731
    _counting(monkeypatch, blockops, "complement", evaluated, record)
    _counting(monkeypatch, blockops, "singular_values", flats, lambda a: np.shape(a))
    scan = blockops.correspondence_scan

    def counted_scan(blk, samples, **kwargs):
        start = len(evaluated)
        report = scan(blk, samples, **kwargs)
        scans.append((start, len(evaluated), [complex(mu) for mu in samples]))
        return report

    monkeypatch.setattr(blockops, "correspondence_scan", counted_scan)
    _run(["block", "--input", path, "--mu", ";".join(str(m) for m in mus)])
    [(start, end, samples)] = scans
    in_scan = Counter(evaluated[start:end])
    rank_link_points = Counter({("S2", 0j): 1, ("S1", 0j): 1})
    # outside the scan, every evaluation but rank_link's is one of the CLI's
    at_mu = Counter(evaluated[:start] + evaluated[end:]) - rank_link_points
    # the CLI evaluates each (selector, --mu value) once
    assert at_mu == {(sel, mu): 1 for sel in blockops.SELECTORS for mu in mus}
    # the scan evaluates each (sample, selector) once, through complement
    assert in_scan == Counter((sel, mu) for mu in samples for sel in blockops.SELECTORS)
    # and rank_link evaluates S2(0) and S1(0)
    assert Counter(evaluated) - in_scan - at_mu == rank_link_points
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


def test_a_symmetric_operator_shares_its_factorization_with_its_adjoint(tmp_path, monkeypatch):
    # T# of a symmetric T is T itself, so the ranked SVD that the identity
    # suite reads for T and for T# runs once
    monkeypatch.chdir(tmp_path)
    path = _gen("selfadjoint", 8)
    canon = load_operator(path).obj.canon
    assert np.array_equal(canon, canon.T)
    svds = _kernel_inputs(monkeypatch, names=("svd",))
    _run(["identities", "--input", path])
    digest = hashlib.sha256(np.ascontiguousarray(canon).tobytes()).hexdigest()
    full = [c for c in svds if c[4] == digest and ("compute_uv", False) not in c[3]]
    assert len(full) == 1


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
    # psd_sqrt reads ||h|| in its flush bound; takagi needs ||b|| only to
    # judge a nonzero defect
    for kernel, arg, svds in ((matkernel.psd_sqrt, hermitian, 1), (matkernel.takagi, symmetric, 0)):
        with monkeypatch.context() as m:
            calls = _kernel_inputs(m, names=("svd",))
            kernel(arg)
        assert len(calls) == svds, kernel.__name__


def test_numrange_runs_no_svd(tmp_path, monkeypatch):
    # takagi gets the exactly symmetric part; the oracle is sampling
    monkeypatch.chdir(tmp_path)
    for kind in ("selfadjoint", "nonnormal"):
        path = _gen(kind, 16, path=f"{kind}.json")
        with monkeypatch.context() as m:
            calls = _kernel_inputs(m)
            assert _run(["numrange", "--input", path]) == 0
        assert [c[0] for c in calls] == ["eigh"], kind


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
