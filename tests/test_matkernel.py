import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from antilin.errors import DimensionMismatch, NotHermitian, NotPsd, NotSymmetric
from antilin.generators import crandn, haar_unitary
from antilin.matkernel import (
    SING_TOL,
    _phase_terms,
    _phase_verdicts,
    _rotated,
    is_singular,
    pinv,
    psd_sqrt,
    ranked_svd,
    singularity,
    spectral_norm,
    takagi,
)


def takagi_valid(fac, b, rtol=1e-9):
    n = b.shape[0]
    scale = 1.0 + spectral_norm(b)
    assert spectral_norm(fac.u.conj().T @ fac.u - np.eye(n)) <= rtol
    assert spectral_norm(fac.u @ np.diag(fac.sigma) @ fac.u.T - b) <= rtol * scale
    assert np.all(fac.sigma >= 0)
    assert np.all(np.diff(fac.sigma) <= 1e-12)


class TestTakagi:
    def test_swap_matrix(self):
        b = np.array([[0, 1], [1, 0]], dtype=complex)
        fac = takagi(b)
        np.testing.assert_allclose(fac.sigma, [1.0, 1.0], atol=1e-12)
        takagi_valid(fac, b)

    def test_candidate_factor_of_swap_is_valid(self):
        # direct multiplication oracle for a known valid factor
        b = np.array([[0, 1], [1, 0]], dtype=complex)
        u = np.array([[1, 1j], [1, -1j]]) / np.sqrt(2)
        assert spectral_norm(u.conj().T @ u - np.eye(2)) <= 1e-15
        assert spectral_norm(u @ np.diag([1.0, 1.0]) @ u.T - b) <= 1e-15

    def test_zero(self):
        fac = takagi(np.zeros((2, 2)))
        np.testing.assert_allclose(fac.sigma, [0.0, 0.0])
        np.testing.assert_allclose(fac.u, np.eye(2))

    def test_diag_2_i(self):
        b = np.diag([2.0, 1j])
        oracle = np.linalg.svd(b, compute_uv=False)  # independent SVD oracle
        fac = takagi(b)
        np.testing.assert_allclose(fac.sigma, oracle, atol=1e-12)
        np.testing.assert_allclose(fac.sigma, [2.0, 1.0], atol=1e-12)
        takagi_valid(fac, b)

    def test_not_symmetric(self):
        with pytest.raises(NotSymmetric):
            takagi(np.array([[0, 1], [0, 0]], dtype=complex))

    def test_non_square(self):
        with pytest.raises(DimensionMismatch):
            takagi(np.zeros((2, 3)))

    def test_random_batch(self, rng):
        # includes the reconstruction and sigma-vs-SVD invariants
        for k in range(200):
            n = int(rng.integers(1, 13))
            g = crandn(rng, n, n)
            b = 0.5 * (g + g.T)
            fac = takagi(b)
            takagi_valid(fac, b)
            np.testing.assert_allclose(
                fac.sigma,
                np.linalg.svd(b, compute_uv=False),
                atol=1e-9 * (1 + spectral_norm(b)),
            )

    def test_degenerate_clusters(self, rng):
        # engineered repeated singular values (degenerate eigenspaces of the
        # realification), and a zero cluster of size 2 next to a tiny value
        for n, sigma in [
            (4, [2.0, 2.0, 2.0, 0.5]),
            (5, [1.0, 1.0, 0.3, 0.3, 0.0]),
            (4, [1.0, 1e-6, 0.0, 0.0]),
        ]:
            u = haar_unitary(rng, n)
            b = (u * np.array(sigma)) @ u.T
            b = 0.5 * (b + b.T)
            fac = takagi(b)
            takagi_valid(fac, b)
            np.testing.assert_allclose(fac.sigma, sorted(sigma, reverse=True), atol=1e-9)


class TestPsdSqrt:
    def test_diagonal(self):
        np.testing.assert_allclose(psd_sqrt(np.diag([4.0, 1.0])), np.diag([2.0, 1.0]), atol=1e-12)

    def test_zero(self):
        np.testing.assert_allclose(psd_sqrt(np.zeros((3, 3))), np.zeros((3, 3)))

    def test_two_by_two(self):
        h = np.array([[2.0, 1.0], [1.0, 2.0]])
        r = psd_sqrt(h)
        np.testing.assert_allclose(r @ r, h, atol=1e-12)
        # eigendecomposition oracle: eigenvalues of the root are (1, sqrt(3))
        np.testing.assert_allclose(np.linalg.eigvalsh(r), [1.0, np.sqrt(3.0)], atol=1e-12)

    def test_not_psd(self):
        with pytest.raises(NotPsd):
            psd_sqrt(np.diag([1.0, -1.0]))

    def test_not_hermitian(self):
        with pytest.raises(NotHermitian):
            psd_sqrt(np.array([[0, 1], [0, 0]], dtype=complex))

    def test_clamps_tiny_negative(self):
        r = psd_sqrt(np.diag([1.0, -1e-14]))
        assert np.linalg.eigvalsh(r)[0] >= 0.0

    def test_sqrt_of_square_roundtrip(self, rng):
        for _ in range(50):
            n = int(rng.integers(1, 9))
            g = crandn(rng, n, n)
            h = g @ g.conj().T
            r = psd_sqrt(h)
            assert spectral_norm(r @ r - h) <= 1e-8 * (1 + spectral_norm(h))
            # and the other direction: the root of h @ h recovers h
            back = psd_sqrt(h @ h)
            assert spectral_norm(back - h) <= 1e-8 * (1 + spectral_norm(h))


class TestPinv:
    def test_examples(self):
        np.testing.assert_allclose(
            pinv(np.array([[0, 1], [0, 0]], dtype=complex)),
            np.array([[0, 0], [1, 0]]),
            atol=1e-14,
        )
        np.testing.assert_allclose(pinv(np.eye(3)), np.eye(3), atol=1e-14)
        # entrywise reciprocal oracle for a diagonal matrix
        np.testing.assert_allclose(
            pinv(np.diag([2.0, 1j])), np.diag([0.5, -1j]), atol=1e-14
        )

    @pytest.mark.parametrize("shape,rank", [((4, 4), 4), ((5, 3), 2), ((3, 6), 3), ((6, 6), 3)])
    def test_penrose_equations(self, rng, shape, rank):
        from conftest import random_rank_deficient

        m, n = shape
        a = random_rank_deficient(rng, m, n, rank).canon
        p = pinv(a)
        tol = 1e-9 * (1 + spectral_norm(a))
        assert spectral_norm(a @ p @ a - a) <= tol
        assert spectral_norm(p @ a @ p - p) <= tol
        assert spectral_norm((a @ p).conj().T - a @ p) <= tol
        assert spectral_norm((p @ a).conj().T - p @ a) <= tol


class TestSingularity:
    def test_examples(self):
        assert singularity(np.eye(2))[0] == pytest.approx(1.0)
        assert singularity(np.diag([1.0, 0.0]))[0] == pytest.approx(0.0, abs=1e-15)
        # SVD oracle for the realified scalar (P, Q) = (-4/3, 1/3)
        m = np.diag([-1.0, -5.0 / 3.0])
        smin, threshold = singularity(m)
        assert smin == pytest.approx(np.linalg.svd(m, compute_uv=False)[-1])
        assert smin == pytest.approx(1.0)
        # the threshold scales with the spectral norm 5/3
        assert threshold == pytest.approx(SING_TOL * (1.0 + 5.0 / 3.0))
        assert singularity(m, tol=1e-3)[1] == pytest.approx(1e-3 * (1.0 + 5.0 / 3.0))

    def test_empty(self):
        assert singularity(np.zeros((0, 0))) == (0.0, SING_TOL)

    def test_requires_square(self):
        with pytest.raises(DimensionMismatch):
            singularity(np.zeros((2, 3)))


def _svd_verdict(m, tol=SING_TOL) -> bool:
    smin, threshold = singularity(m, tol)
    return smin <= threshold


def _agreement_corpus():
    """``(tol, U diag(s) V^T)`` with sigma_max = 2, so the cutoff is
    ``tol * 3``, and sigma_min placed around it.  At ``tol = 1e-3`` the
    cutoff, not the rounding allowance, dominates the Cholesky shift."""
    from conftest import with_singular_values

    rng = np.random.default_rng(2024)
    for tol in (SING_TOL, 1e-3):
        cutoff = tol * 3.0
        for n in (2, 5, 16, 64):
            middle = list(rng.uniform(0.5, 2.0, size=n - 2))
            for factor in (1 - 1e-6, 1 + 1e-6, 1 - 1e-2, 1 + 1e-2, 0.0, 1e-6, 1e2, 1e7):
                yield f"tol={tol} n={n} smin=cutoff*{factor}", (tol, with_singular_values(
                    rng, [2.0] + middle + [min(cutoff * factor, 1.9)]
                ))
            # condition number 1e12, far on the singular side
            yield f"tol={tol} n={n} kappa=1e12", (
                tol, with_singular_values(rng, [2.0] + middle + [2e-12])
            )
    yield "0x0", (SING_TOL, np.zeros((0, 0)))
    for a in (0.0, 1e-9, SING_TOL * (1 + 1e-6), 0.5, -3.0):
        yield f"1x1 {a}", (SING_TOL, np.array([[a]]))


CORPUS = dict(_agreement_corpus())


class TestIsSingular:
    """``is_singular`` returns exactly the verdict of ``singularity``."""

    @pytest.mark.parametrize("name", list(CORPUS))
    def test_agrees_with_svd_verdict(self, name):
        tol, m = CORPUS[name]
        assert is_singular(m, tol) == _svd_verdict(m, tol)

    @pytest.mark.parametrize("singular_first", [False, True])
    @pytest.mark.parametrize("name", list(CORPUS))
    def test_both_certificate_orders_give_the_svd_verdict(self, name, singular_first):
        # the order of the Cholesky and the solve is a cost, never a verdict
        tol, m = CORPUS[name]
        assert _phase_verdicts([m], (0.0,), tol, singular_first)[0] == _svd_verdict(m, tol)

    @pytest.mark.parametrize("singular_first", [False, True])
    def test_order_skips_the_certificate_bound_to_fail(self, monkeypatch, singular_first):
        calls = []
        for kernel in ("cholesky", "solve"):
            original = getattr(np.linalg, kernel)
            monkeypatch.setattr(
                np.linalg, kernel,
                lambda *a, _k=kernel, _o=original, **k: calls.append(_k) or _o(*a, **k),
            )
        far = CORPUS[f"tol={SING_TOL} n=16 smin=cutoff*1e-06"][1]    # singular
        near = CORPUS[f"tol={SING_TOL} n=16 smin=cutoff*100.0"][1]   # not singular
        assert _phase_verdicts([far], (0.0,), SING_TOL, singular_first)[0]
        assert not _phase_verdicts([near], (0.0,), SING_TOL, singular_first)[0]
        if singular_first:
            assert calls == ["solve", "solve", "cholesky"]
        else:
            assert calls == ["cholesky", "solve", "cholesky"]

    @pytest.mark.parametrize("tol", [SING_TOL, 1e-3])
    def test_corpus_straddles_the_cutoff(self, tol):
        for n in (2, 5, 16, 64):
            below = CORPUS[f"tol={tol} n={n} smin=cutoff*{1 - 1e-6}"][1]
            above = CORPUS[f"tol={tol} n={n} smin=cutoff*{1 + 1e-6}"][1]
            assert _svd_verdict(below, tol) and not _svd_verdict(above, tol)

    @pytest.mark.parametrize("factor", [1 - 1e-6, 1 + 1e-6, 1 - 1e-2, 1 + 1e-2])
    @pytest.mark.parametrize("n", [2, 5, 16, 64])
    def test_undecided_band_reaches_the_svd(self, monkeypatch, n, factor):
        # within 1e-2 of the cutoff neither bound decides: the SVD runs once
        calls = []
        original = np.linalg.svd
        monkeypatch.setattr(np.linalg, "svd", lambda *a, **k: calls.append(1) or original(*a, **k))
        is_singular(CORPUS[f"tol={SING_TOL} n={n} smin=cutoff*{factor}"][1])
        assert len(calls) == 1

    @settings(max_examples=300, deadline=None)
    @given(
        m=st.integers(0, 6).flatmap(
            lambda n: arrays(np.float64, (n, n), elements=st.floats(-4.0, 4.0, width=64))
        ),
        collapse=st.sampled_from([None, 0.0, 1e-12, 1e-9, 3e-8, 1e-6]),
        tol=st.sampled_from([SING_TOL, 1e-6, 1e-3, 0.0, 2.0]),
    )
    def test_property_small_dims(self, m, collapse, tol):
        # collapse makes the last column a combination of the others plus a
        # perturbation of that size, to land near and below the cutoff
        if collapse is not None and m.shape[0] >= 2:
            m = m.copy()
            m[:, -1] = m[:, :-1].sum(axis=1) + collapse
        assert is_singular(m, tol) == _svd_verdict(m, tol)


ANGLES = [2.0 * np.pi * k / 8 for k in range(8)]


def _rotation(angle: float, h: int) -> np.ndarray:
    """``[[c I, -s I], [s I, c I]]`` with ``c + i s = e^(i angle / 2)``."""
    c, s = math.cos(0.5 * angle), math.sin(0.5 * angle)
    eye = np.eye(h)
    return np.block([[c * eye, -s * eye], [s * eye, c * eye]])


def _circle(m0: np.ndarray, angles=ANGLES) -> list:
    """``R_k m0 R_k`` for every phase, the realified phase law."""
    h = m0.shape[0] // 2
    return [_rotation(a, h) @ m0 @ _rotation(a, h) for a in angles]


def _kernel_calls(monkeypatch) -> list:
    calls = []
    for kernel in ("cholesky", "solve", "svd"):
        original = getattr(np.linalg, kernel)
        monkeypatch.setattr(
            np.linalg, kernel,
            lambda *a, _k=kernel, _o=original, **k: calls.append(_k) or _o(*a, **k),
        )
    return calls


EVEN_CORPUS = [name for name, (_, m) in CORPUS.items() if m.shape[0] >= 2 and m.shape[0] % 2 == 0]


class TestPhaseVerdicts:
    """``_phase_verdicts`` returns the SVD verdict of every phase's own
    matrix, whatever phase 0 proves and whatever the matrices are."""

    @pytest.mark.parametrize("tiny_tol", [False, True])
    @pytest.mark.parametrize("singular_first", [False, True])
    @pytest.mark.parametrize("name", EVEN_CORPUS)
    def test_circle_of_every_corpus_matrix(self, name, singular_first, tiny_tol):
        # a circle on either side of the cutoff, and far from it; at tol
        # 1e-30 the distances outweigh the cutoff
        tol, m0 = CORPUS[name]
        tol = 1e-30 if tiny_tol else tol
        mats = _circle(m0)
        assert _phase_verdicts(mats, ANGLES, tol, singular_first) == [
            _svd_verdict(m, tol) for m in mats
        ]

    @pytest.mark.parametrize("factor", [1 - 1e-6, 1 + 1e-6])
    @pytest.mark.parametrize("n", [2, 16, 64])
    def test_circle_at_the_cutoff_runs_every_svd(self, monkeypatch, n, factor):
        # no bound decides so close to the cutoff: each phase falls back to
        # its own bracket and SVD
        tol, m0 = CORPUS[f"tol={SING_TOL} n={n} smin=cutoff*{factor}"]
        mats = _circle(m0)
        calls = _kernel_calls(monkeypatch)
        verdicts = _phase_verdicts(mats, ANGLES, tol, factor < 1)
        assert calls.count("svd") == 8
        assert verdicts == [factor < 1] * 8 == [_svd_verdict(m, tol) for m in mats]

    def test_one_factorization_proves_a_rotated_circle(self, monkeypatch):
        singular = _circle(CORPUS[f"tol={SING_TOL} n=16 kappa=1e12"][1])
        regular = _circle(CORPUS[f"tol={SING_TOL} n=16 smin=cutoff*10000000.0"][1])
        calls = _kernel_calls(monkeypatch)
        assert _phase_verdicts(singular, ANGLES, SING_TOL, True) == [True] * 8
        assert calls == ["solve"]
        assert _phase_verdicts(regular, ANGLES, SING_TOL, False) == [False] * 8
        assert calls == ["solve", "cholesky"]

    def test_a_witness_that_is_not_rotated_falls_back(self, monkeypatch):
        # phase 0 is singular, the other phases are rotations of another
        # singular matrix: the rotated solve vector is no null vector there
        m0 = CORPUS[f"tol={SING_TOL} n=16 kappa=1e12"][1]
        other = CORPUS[f"tol={SING_TOL} n=16 smin=cutoff*1e-06"][1]
        mats = [m0] + _circle(other)[1:]
        expected = [_svd_verdict(m) for m in mats]
        calls = _kernel_calls(monkeypatch)
        assert _phase_verdicts(mats, ANGLES, SING_TOL, True) == [True] * 8 == expected
        assert calls == ["solve"] * 8

    def test_a_distance_too_large_to_transfer_falls_back(self, monkeypatch):
        # phase 0 is regular; the others alternate between rotations of
        # another regular and of a singular matrix, far from R_k m0 R_k
        m0 = CORPUS[f"tol={SING_TOL} n=16 smin=cutoff*100.0"][1]
        regular = _circle(CORPUS[f"tol={SING_TOL} n=16 smin=cutoff*10000000.0"][1])
        singular = _circle(CORPUS[f"tol={SING_TOL} n=16 kappa=1e12"][1])
        mats = [m0] + [(singular if k % 2 else regular)[k] for k in range(1, 8)]
        expected = [_svd_verdict(m) for m in mats]
        calls = _kernel_calls(monkeypatch)
        verdicts = _phase_verdicts(mats, ANGLES, SING_TOL, False)
        assert verdicts == [bool(k % 2) for k in range(8)] == expected
        # every phase ran its own Cholesky, the singular ones their solve too
        assert calls.count("cholesky") == 8 and calls.count("solve") == 4
        assert "svd" not in calls

    def test_wrong_angles_still_give_the_svd_verdicts(self):
        # the angles claim another law: only measured bounds may decide
        for name in (f"tol={SING_TOL} n=16 kappa=1e12", f"tol={SING_TOL} n=16 smin=cutoff*100.0"):
            tol, m0 = CORPUS[name]
            mats = _circle(m0)
            wrong = [0.0] + [a + 0.5 for a in ANGLES[1:]]
            for singular_first in (False, True):
                assert _phase_verdicts(mats, wrong, tol, singular_first) == [
                    _svd_verdict(m, tol) for m in mats
                ]

    @pytest.mark.parametrize("tol", [0.0, 2.0])
    def test_no_transfer_outside_the_bracket(self, monkeypatch, tol):
        mats = _circle(CORPUS[f"tol={SING_TOL} n=16 smin=cutoff*100.0"][1])
        expected = [_svd_verdict(m, tol) for m in mats]
        calls = _kernel_calls(monkeypatch)
        assert _phase_verdicts(mats, ANGLES, tol, False) == expected
        assert calls == ["svd"] * 8

    def test_rotation_rounding_within_e_k(self, rng):
        # |fl(R m R) - R m R|_F <= e_k = 8 eps (|c| + |s|)^2 F, exactly
        eps = np.finfo(float).eps
        for scale in (1.0, 1e-40, 1e40):
            m = rng.standard_normal((8, 8)) * scale
            terms = _phase_terms(m)
            for angle in ANGLES + [1.0, -2.5, 3.0]:
                c, s = math.cos(0.5 * angle), math.sin(0.5 * angle)
                p = _rotated(m, c, s, terms)
                r = [[Fraction(x) for x in row] for row in _rotation(angle, 4)]
                mf = [[Fraction(x) for x in row] for row in m]
                rm = [[sum(r[i][k] * mf[k][j] for k in range(8)) for j in range(8)]
                      for i in range(8)]
                rmr = [[sum(rm[i][k] * r[k][j] for k in range(8)) for j in range(8)]
                       for i in range(8)]
                err2 = sum((Fraction(p[i, j]) - rmr[i][j]) ** 2
                           for i in range(8) for j in range(8))
                e_k = 8.0 * eps * (abs(c) + abs(s)) ** 2 * float(np.linalg.norm(m))
                assert err2 <= Fraction(e_k) ** 2


def test_numerical_rank(rng):
    from conftest import random_rank_deficient

    a = random_rank_deficient(rng, 6, 5, 3).canon
    assert ranked_svd(a).rank == 3
    assert ranked_svd(np.zeros((4, 4))).rank == 0
