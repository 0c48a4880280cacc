"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines.  Every tolerance is pinned here; nothing is deferred to later
calibration.
"""

import json
import subprocess
import sys

import numpy as np
import pytest

from antilin.antiop import AntilinearOperator, realify
from antilin.blockops import (
    SELECTORS,
    complement,
    correspondence_scan,
    factorization_residual,
    rank_link,
    samples_for_radii,
)
from antilin.extensions import ExtensionProblem, minimal_span, word_span_oracle
from antilin.generators import crandn
from antilin.matkernel import ranked_svd, spectral_norm
from antilin.numrange import nr_disk, nr_value, sample_sup, witness_disk, witness_segment
from antilin.spectra import antilinear_spectrum, spectrum_crosscheck
from antilin.structure import (
    c_normal_criterion,
    check_polar_commutation,
    identity_suite,
    is_normal,
    modulus,
    moore_penrose,
    polar,
)

from conftest import (
    NORMAL_FAMILIES,
    nonnormal_instance,
    normal_instance,
    random_antilinear,
    random_block,
    random_rank_deficient,
    random_unit,
    shift_operator,
)
from pq_algebra import unrealify

SHIFT = AntilinearOperator([[0.0, 1.0], [0.0, 0.0]])
DIAG2I = AntilinearOperator(np.diag([2.0, 1j]))


def _finish(name, failures, extra=""):
    status = "PASS" if not failures else "FAIL"
    print(f"\n[acceptance] {name}: {status}{extra}")
    assert not failures, failures[:5]


def _mixed_instances(rng, count):
    """Square and rectangular operators, one third exactly rank-deficient."""
    out = []
    for k in range(count):
        m = int(rng.integers(1, 13))
        n = m if k % 2 == 0 else int(rng.integers(1, 13))
        if k % 3 == 0 and min(m, n) > 1:
            r = int(rng.integers(1, min(m, n)))
            out.append(random_rank_deficient(rng, m, n, r))
        else:
            out.append(random_antilinear(rng, m, n))
    return out


def test_criterion_1_adjoint_calculus():
    rng = np.random.default_rng(101)
    failures = []
    for idx, t in enumerate(_mixed_instances(rng, 200)):
        a = t.canon
        m, n = a.shape
        xs = crandn(rng, n, 100)
        ys = crandn(rng, m, 100)
        lhs = np.conj(np.sum((a @ np.conj(xs)) * np.conj(ys), axis=0))
        rhs = np.sum(xs * np.conj(a.T @ np.conj(ys)), axis=0)
        if np.max(np.abs(lhs - rhs)) > 1e-10 * (1 + spectral_norm(a)):
            failures.append(f"pairing {idx}")
        if not np.array_equal(t.adjoint().adjoint().canon, a):
            failures.append(f"biduality {idx}")
        # kernel/range orthogonality in the realified picture
        rt = realify(t)
        rts = realify(t.adjoint())
        w, s_t, _ = np.linalg.svd(rt)
        rank = int(np.count_nonzero(s_t > 1e-8 * (s_t[0] if s_t[0] > 0 else 1.0)))
        _, _, vh = np.linalg.svd(rts)
        ker = vh[rank:].conj().T
        p_ker = ker @ ker.conj().T
        p_range = w[:, :rank] @ w[:, :rank].T   # R(T) at this test's own cutoff
        if spectral_norm(p_ker - (np.eye(2 * m) - p_range)) > 1e-8:
            failures.append(f"kernel-range {idx}")
    _finish("criterion 1 adjoint calculus", failures)


def _normality_batch(rng, count=200):
    batch = []
    for k in range(count):
        n = int(rng.integers(2, 13))
        if k % 2 == 0:
            batch.append((normal_instance(rng, n, NORMAL_FAMILIES[k % 3]), True))
        else:
            batch.append((nonnormal_instance(rng, n), False))
    return batch


def test_criterion_2_normality_equivalences():
    rng = np.random.default_rng(202)
    failures = []
    for idx, (t, expected) in enumerate(_normality_batch(rng)):
        check = is_normal(t)
        cn, _ = c_normal_criterion(t)
        votes = (check.value, check.sampled_value, cn)
        if len(set(votes)) != 1 or votes[0] != expected:
            failures.append(f"{idx}: votes={votes} expected={expected}")
    _finish("criterion 2 normality equivalences", failures)


def test_criterion_3_polar_decomposition():
    rng = np.random.default_rng(303)
    failures = []
    instances = _mixed_instances(rng, 120)
    for idx, t in enumerate(instances):
        a = t.canon
        p = polar(t)
        uc = p.u.canon
        if spectral_norm(a - uc @ np.conj(p.modulus)) > 1e-9 * (1 + spectral_norm(a)):
            failures.append(f"reconstruction {idx}")
        if spectral_norm(uc @ uc.conj().T @ uc - uc) > 1e-8:
            failures.append(f"partial isometry {idx}")
        if spectral_norm(p.initial_projector() - ranked_svd(p.modulus).range_projector()) > 1e-8:
            failures.append(f"initial space {idx}")
        if spectral_norm(p.final_projector() - ranked_svd(a).range_projector()) > 1e-8:
            failures.append(f"final space {idx}")
    for k in range(40):
        t = normal_instance(rng, int(rng.integers(2, 13)), NORMAL_FAMILIES[k % 3])
        if check_polar_commutation(t) > 1e-9:
            failures.append(f"commutation normal {k}")
    for n in range(2, 13):
        t = shift_operator(n)
        p = polar(t)
        res = spectral_norm(p.u.canon @ np.conj(p.modulus) - p.modulus @ p.u.canon)
        if res <= 1e-3:
            failures.append(f"commutation should fail on shift {n}")
    _finish("criterion 3 polar decomposition", failures)


def test_criterion_4_moore_penrose():
    rng = np.random.default_rng(404)
    failures = []
    for idx, t in enumerate(_mixed_instances(rng, 200)):
        mp = moore_penrose(t)
        if mp.residuals["oracle_agreement"] > 1e-8 * (
            1 + spectral_norm(mp.dagger.canon)
        ):
            failures.append(f"construction agreement {idx}")
        suite = identity_suite(t)
        bad = {k: v for k, v in suite.residuals.items() if v > 1e-8}
        if bad:
            failures.append(f"identities {idx}: {bad}")
        if suite.classification_consistent is False:
            failures.append(f"projector/range classification {idx}")
    # hand-built positive and negative for the projector-equality identity
    pos = identity_suite(DIAG2I)
    if not (pos.projector_gap <= 1e-8 and pos.range_gap <= 1e-8):
        failures.append("diag(2,i) should have equal projectors and ranges")
    neg = identity_suite(SHIFT)
    if not (neg.projector_gap > 1e-3 and neg.range_gap > 1e-3):
        failures.append("shift should have unequal projectors and ranges")
    _finish("criterion 4 moore-penrose", failures)


def test_criterion_5_spectra():
    rng = np.random.default_rng(505)
    failures = []
    tested_points = 0
    for idx in range(100):
        n = int(rng.integers(1, 11))
        t = random_antilinear(rng, n)
        rep = spectrum_crosscheck(t, phases=8)
        tested_points += len(rep.points)
        if rep.disagreements:
            failures.append(f"{idx}: {rep.disagreements[:2]}")
    _finish(
        "criterion 5 spectra",
        failures,
        extra=f" ({tested_points} membership points, phase-invariant at all)",
    )


def test_criterion_6_numerical_range():
    rng = np.random.default_rng(606)
    failures = []
    for idx in range(40):
        n = int(rng.integers(2, 11))
        t = random_antilinear(rng, n)
        disk = nr_disk(t)
        raw = sample_sup(t, n_samples=2000, rng=rng, refine=False)
        refined = sample_sup(t, n_samples=200, rng=rng, refine=True)
        sup = max(raw, refined)
        if raw > disk.radius + 1e-8:
            failures.append(f"upper bound {idx}")
        if sup < disk.radius - 0.05 * disk.radius:
            failures.append(f"lower bound {idx}: sup={sup} radius={disk.radius}")
        if abs(nr_value(t, witness_disk(t, 0.0))) > 1e-8:
            failures.append(f"zero witness {idx}")
        target = disk.radius * np.sqrt(rng.uniform()) * np.exp(2j * np.pi * rng.uniform())
        if abs(nr_value(t, witness_disk(t, target)) - target) > 1e-8:
            failures.append(f"target witness {idx}")
    fallbacks = 0
    for idx in range(100):
        n = int(rng.integers(2, 9))
        t = random_antilinear(rng, n)
        x1, x2 = random_unit(rng, n), random_unit(rng, n)
        lam = float(rng.uniform())
        res = witness_segment(t, x1, x2, lam)
        fallbacks += int(res.used_fallback)
        if abs(res.value - res.target) > 1e-7:
            failures.append(f"convexity witness {idx}")
    # dimension-one exception: values stay on the circle, zero unattained
    t1 = AntilinearOperator([[0.8 + 0.6j]])
    vals = np.array([abs(nr_value(t1, random_unit(rng, 1))) for _ in range(200)])
    if np.max(np.abs(vals - 1.0)) > 1e-8 or np.min(vals) < 1.0 - 1e-8:
        failures.append("dimension-one circle exception")
    _finish(
        "criterion 6 numerical range",
        failures,
        extra=f" (direct-construction fallback rate {fallbacks}/100, reported not failed)",
    )


def test_criterion_7_block_operators():
    rng = np.random.default_rng(707)
    failures = []
    # factorization residuals: 50 square blocks x 5 mu x 4 equations
    for idx in range(50):
        n = int(rng.integers(1, 6))
        blk = random_block(rng, n, n)
        scale = 1 + spectral_norm(realify(blk.flatten()))
        for j in range(5):
            mu = complex(rng.normal(), rng.normal())
            for sel in SELECTORS:
                try:
                    res = factorization_residual(blk, complement(blk, sel, mu))
                except Exception as exc:  # singular pivot at a random mu
                    failures.append(f"factorization raised {idx}/{j}/{sel}: {exc}")
                    continue
                if res > 1e-8 * scale:
                    failures.append(f"factorization {idx}/{j}/{sel}: {res}")
    # rectangular blocks exercise the Schur pair
    for idx in range(10):
        n, m = int(rng.integers(1, 6)), int(rng.integers(1, 6))
        blk = random_block(rng, n, m)
        scale = 1 + spectral_norm(realify(blk.flatten()))
        mu = complex(rng.normal(), rng.normal())
        for sel in ("S2", "S1"):
            if factorization_residual(blk, complement(blk, sel, mu)) > 1e-8 * scale:
                failures.append(f"rect factorization {idx}/{sel}")
    # correspondence scans: 30 blocks, >= 200 structured samples each
    for idx in range(30):
        n = int(rng.integers(1, 4))
        m = n if idx % 2 == 0 else int(rng.integers(1, 4))
        blk = random_block(rng, n, m)
        radii = antilinear_spectrum(blk.flatten()).radii
        samples = samples_for_radii(radii, rng, random_count=160)
        if len(samples) < 200:
            samples += [complex(z) for z in crandn(rng, 200 - len(samples)) * 2.0]
        rep = correspondence_scan(blk, samples)
        if rep.disagreements:
            failures.append(f"scan {idx}: {rep.disagreements[:2]}")
    # rank link on 50 blocks, including engineered rank-deficient complements
    checked = 0
    for idx in range(200):
        if checked >= 50:
            break
        n, m = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        blk = random_block(rng, n, m)
        try:
            link = rank_link(blk)
        except Exception:
            continue
        checked += 1
        if not link.primal_holds or link.dual_holds is False:
            failures.append(f"rank link {idx}")
    A = AntilinearOperator
    from antilin.blockops import BlockAntilinearMatrix

    ones = BlockAntilinearMatrix(a=A([[1.0]]), b=A([[1.0]]), f=A([[1.0]]), e=A([[1.0]]))
    link = rank_link(ones)  # S2(0) = 0 by construction
    if link.rank_s2 != 0 or link.rank_flat != 2 or not link.primal_holds:
        failures.append("engineered zero complement")
    # the worked 1x1 example, exact to 1e-12
    worked = BlockAntilinearMatrix(a=A([[1.0]]), b=A([[1.0]]), f=A([[1.0]]), e=A([[0.0]]))
    s2 = unrealify(complement(worked, "S2", 2.0).real)
    if abs(s2.lin[0, 0] - (-4.0 / 3.0)) > 1e-12 or abs(
        s2.anti[0, 0] - (1.0 / 3.0)
    ) > 1e-12:
        failures.append("worked S2(2)")
    radii = antilinear_spectrum(worked.flatten()).radii
    golden = ((np.sqrt(5) - 1) / 2, (np.sqrt(5) + 1) / 2)
    if np.max(np.abs(np.array(radii) - np.array(golden))) > 1e-12:
        failures.append("worked radii")
    _finish("criterion 7 block operators", failures)


def test_criterion_8_extensions():
    rng = np.random.default_rng(808)
    failures = []
    for idx in range(50):
        n = int(rng.integers(2, 7))
        amb = normal_instance(rng, n, NORMAL_FAMILIES[idx % 3])
        h = int(rng.integers(1, n + 1))
        v, _ = np.linalg.qr(crandn(rng, n, h))
        p = ExtensionProblem(ambient=amb, embed=v)
        span = minimal_span(p)
        oracle = word_span_oracle(p, max_len=n + 2)
        if span.g_dim != oracle:
            failures.append(f"{idx}: span={span.g_dim} oracle={oracle}")
        if span.hit_cap:
            failures.append(f"{idx}: cap was binding")
    diag23 = AntilinearOperator(np.diag([2.0, 3.0]))
    axis = minimal_span(ExtensionProblem(ambient=diag23, embed=np.array([[1.0], [0.0]])))
    mix = minimal_span(
        ExtensionProblem(ambient=diag23, embed=np.array([[1.0], [1.0]]) / np.sqrt(2))
    )
    if axis.is_minimal or axis.g_dim != 1:
        failures.append("axis subspace should not be minimal")
    if not mix.is_minimal or mix.g_dim != 2:
        failures.append("mixed subspace should be minimal")
    _finish("criterion 8 extensions", failures)


def _cli(*args, cwd=None):
    return subprocess.run(
        [sys.executable, "-m", "antilin"] + list(args),
        capture_output=True,
        text=True,
        cwd=cwd,
    )


def test_criterion_9_cli_contract(tmp_path):
    failures = []
    op = tmp_path / "op.json"
    if _cli("gen", "--kind", "twisted_normal", "--dim", "3", "--seed", "11",
            "--output", str(op)).returncode != 0:
        failures.append("gen failed")
    # determinism: identical (input, seed) -> byte-identical reports
    runs = [_cli("identities", "--input", str(op), "--seed", "4") for _ in range(2)]
    if runs[0].stdout != runs[1].stdout or runs[0].stdout == "":
        failures.append("reports not byte-identical")
    # golden scenario 1: pass
    if runs[0].returncode != 0:
        failures.append(f"pass scenario exited {runs[0].returncode}")
    # golden scenario 2: check failure via an impossibly tight tolerance
    tight = _cli("identities", "--input", str(op), "--tol", "1e-30")
    if tight.returncode != 1:
        failures.append(f"check-failure scenario exited {tight.returncode}")
    # golden scenario 3: malformed input
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"schema": "antilin.operator/v1", "kind": "antilinear",
                               "dims": [2, 2], "entries": [[0.0, 0.0]], "meta": {}}))
    malformed = _cli("spectrum", "--input", str(bad))
    if malformed.returncode != 2:
        failures.append(f"malformed scenario exited {malformed.returncode}")
    if "Traceback" in malformed.stderr or len(malformed.stderr.strip().splitlines()) != 1:
        failures.append("malformed input should produce a one-line diagnostic")
    _finish("criterion 9 cli contract", failures)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(pytest.main([__file__, "-s", "-v"]))
