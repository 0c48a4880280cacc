from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from antilin.antiop import (
    AntilinearOperator,
    RealLinearOperator,
    _shifted_diagonals,
    realify_shifted,
)
from antilin.errors import DimensionMismatch, NotHermitian, NotPsd, NotSymmetric
from antilin.generators import crandn, haar_unitary
from antilin.matkernel import (
    SING_TOL,
    _Circle,
    _first_phase,
    _phase_verdicts,
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
        assert _first_phase(m, tol, singular_first)[0] == _svd_verdict(m, tol)

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
        assert _first_phase(far, SING_TOL, singular_first)[0]
        assert not _first_phase(near, SING_TOL, singular_first)[0]
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


def _ring(h: int, tol: float, smin):
    """An antilinear ``T = V diag(sigma) V^T`` (sigma_1 = 1, the others in
    [1.25, 1.9]) and a radius ``r = 1 - delta``: ``realify(T - r)`` has the
    singular values ``|sigma_j - r|`` and ``sigma_j + r``, so its smallest
    is delta.  ``smin`` is delta itself, or ``("cutoff", factor)`` to put
    delta at ``factor`` times the cutoff ``tol (1 + sigma_max)`` (at most
    0.5)."""
    rng = np.random.default_rng(h)
    sigma = np.concatenate([[1.0], rng.uniform(1.25, 1.9, h - 1)])
    if isinstance(smin, tuple):
        ft = smin[1] * tol
        smin = min(ft * (2.0 + sigma.max()) / (1.0 + ft), 0.5)
    v = haar_unitary(rng, h)
    return AntilinearOperator((v * sigma) @ v.T), 1.0 - smin


def _circle(op, radii, angles=ANGLES):
    """The circle decider's input for phase k of ``op`` at radius
    ``radii[k]`` (one radius for all phases when a number), and each
    phase's own matrix ``realify_shifted(op, lam_k)``."""
    radii = np.broadcast_to(radii, (len(angles),))
    lams = [r * np.exp(1j * theta) for r, theta in zip(radii, angles)]
    family, diags = _shifted_diagonals(op, lams)
    circle = _Circle(family, diags, angles, np.empty_like(family.r0))
    return circle, [realify_shifted(op, lam) for lam in lams]


def _kernel_calls(monkeypatch) -> list:
    calls = []
    for kernel in ("cholesky", "solve", "svd"):
        original = getattr(np.linalg, kernel)
        monkeypatch.setattr(
            np.linalg, kernel,
            lambda *a, _k=kernel, _o=original, **k: calls.append(_k) or _o(*a, **k),
        )
    return calls


def _ring_corpus():
    for tol in (SING_TOL, 1e-3):
        for h in (1, 8, 32):
            for factor in (1 - 1e-6, 1 + 1e-6, 1 - 1e-2, 1 + 1e-2, 0.0, 1e-6, 1e2, 1e7):
                yield f"tol={tol} h={h} smin=cutoff*{factor}", (tol, h, ("cutoff", factor))
            yield f"tol={tol} h={h} smin=2e-12", (tol, h, 2e-12)


RINGS = dict(_ring_corpus())


class TestPhaseVerdicts:
    """``_phase_verdicts`` returns the SVD verdict of every phase's own
    matrix, whatever phase 0 proves and whatever the phases are."""

    @pytest.mark.parametrize("tol", [SING_TOL, 1e-3])
    def test_rings_straddle_the_cutoff(self, tol):
        for h in (1, 8, 32):
            for factor, singular in ((1 - 1e-6, True), (1 + 1e-6, False)):
                op, r = _ring(h, tol, ("cutoff", factor))
                _, mats = _circle(op, r)
                assert [_svd_verdict(m, tol) for m in mats] == [singular] * 8

    @pytest.mark.parametrize("tiny_tol", [False, True])
    @pytest.mark.parametrize("singular_first", [False, True])
    @pytest.mark.parametrize("name", list(RINGS))
    def test_circle_of_every_ring(self, name, singular_first, tiny_tol):
        # a circle on either side of the cutoff, and far from it; at tol
        # 1e-30 the distances outweigh the cutoff
        tol, h, smin = RINGS[name]
        circle, mats = _circle(*_ring(h, tol, smin))
        tol = 1e-30 if tiny_tol else tol
        assert _phase_verdicts(circle, tol, singular_first) == [
            _svd_verdict(m, tol) for m in mats
        ]

    @pytest.mark.parametrize("factor", [1 - 1e-6, 1 + 1e-6])
    @pytest.mark.parametrize("h", [1, 8, 32])
    def test_circle_at_the_cutoff_runs_every_svd(self, monkeypatch, h, factor):
        # no bound decides so close to the cutoff: each phase falls back to
        # its own bracket and SVD
        circle, mats = _circle(*_ring(h, SING_TOL, ("cutoff", factor)))
        calls = _kernel_calls(monkeypatch)
        verdicts = _phase_verdicts(circle, SING_TOL, factor < 1)
        assert calls.count("svd") == 8
        assert verdicts == [factor < 1] * 8 == [_svd_verdict(m) for m in mats]

    def test_one_factorization_proves_a_circle(self, monkeypatch):
        singular, _ = _circle(*_ring(8, SING_TOL, 2e-12))
        regular, _ = _circle(*_ring(8, SING_TOL, ("cutoff", 1e7)))
        calls = _kernel_calls(monkeypatch)
        assert _phase_verdicts(singular, SING_TOL, True) == [True] * 8
        assert calls == ["solve"]
        assert _phase_verdicts(regular, SING_TOL, False) == [False] * 8
        assert calls == ["solve", "cholesky"]

    def test_a_witness_that_is_not_rotated_falls_back(self, monkeypatch):
        # phase 0 lies on the circle of radius 1, the other phases on the
        # circle of another sigma_j: singular too, but the rotated solve
        # vector is no null vector there
        op, _ = _ring(8, SING_TOL, 0.0)
        other = float(takagi(op.canon).sigma[0])
        circle, mats = _circle(op, [1.0] + [other] * 7)
        expected = [_svd_verdict(m) for m in mats]
        calls = _kernel_calls(monkeypatch)
        assert _phase_verdicts(circle, SING_TOL, True) == [True] * 8 == expected
        assert calls == ["solve"] * 8

    def test_a_distance_too_large_to_transfer_falls_back(self, monkeypatch):
        # phase 0 is regular; the others alternate between the gap radius
        # 1.1 (regular) and a circle of the operator (singular), far from
        # R_k m0 R_k
        op, r0 = _ring(8, SING_TOL, ("cutoff", 100.0))
        on = float(takagi(op.canon).sigma[0])
        circle, mats = _circle(op, [r0] + [on if k % 2 else 1.1 for k in range(1, 8)])
        expected = [_svd_verdict(m) for m in mats]
        calls = _kernel_calls(monkeypatch)
        verdicts = _phase_verdicts(circle, SING_TOL, False)
        assert verdicts == [bool(k % 2) for k in range(8)] == expected
        # every phase ran its own Cholesky, the singular ones their solve too
        assert calls.count("cholesky") == 8 and calls.count("solve") == 4
        assert "svd" not in calls

    def test_wrong_angles_still_give_the_svd_verdicts(self):
        # the angles claim another law: only measured bounds may decide
        wrong = [0.0] + [a + 0.5 for a in ANGLES[1:]]
        for smin in (2e-12, ("cutoff", 100.0)):
            op, r = _ring(8, SING_TOL, smin)
            circle, mats = _circle(op, r)
            bent = _Circle(circle.family, circle.diags, wrong, circle.out)
            for singular_first in (False, True):
                assert _phase_verdicts(bent, SING_TOL, singular_first) == [
                    _svd_verdict(m) for m in mats
                ]

    @pytest.mark.parametrize("tol", [0.0, 2.0])
    def test_no_transfer_outside_the_bracket(self, monkeypatch, tol):
        circle, mats = _circle(*_ring(8, SING_TOL, ("cutoff", 100.0)))
        expected = [_svd_verdict(m, tol) for m in mats]
        calls = _kernel_calls(monkeypatch)
        assert _phase_verdicts(circle, tol, False) == expected
        assert calls == ["svd"] * 8

    @pytest.mark.parametrize("singular_first", [False, True])
    def test_a_real_linear_circle_decides_every_phase_on_its_own(self, monkeypatch, rng,
                                                                  singular_first):
        # a non-scalar linear part breaks the phase law: the law defect is
        # nonzero, no phase is proved from phase 0, and each gets the
        # verdict of its own matrix.  (op - 0.8) x0 = 0 makes phase 0
        # singular on the first radius.
        h, r = 6, 0.8
        lin, anti = 0.3 * crandn(rng, h, h), crandn(rng, h, h) / np.sqrt(h)
        x0 = crandn(rng, h)
        x0 /= np.linalg.norm(x0)
        lin -= np.outer(lin @ x0 + anti @ np.conj(x0) - r * x0, np.conj(x0))
        op = RealLinearOperator(lin, anti)
        built = []
        original = _Circle.matrix
        monkeypatch.setattr(_Circle, "matrix", lambda c, k: built.append(k) or original(c, k))
        for radius in (r, 2.5):
            circle, mats = _circle(op, radius)
            assert circle.family.zeroed.defect > 0.1
            built.clear()
            verdicts = _phase_verdicts(circle, SING_TOL, singular_first)
            assert verdicts == [_svd_verdict(m) for m in mats]
            assert verdicts[0] == (radius == r) and built == list(range(8))


def _exact(m) -> list:
    return [[Fraction(float(x)) for x in row] for row in np.asarray(m)]


def _matmul(a, b) -> list:
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def _positive_definite(g) -> bool:
    """Exact Gaussian elimination on a symmetric rational matrix: every
    pivot is positive."""
    g = [row[:] for row in g]
    for i in range(len(g)):
        if g[i][i] <= 0:
            return False
        for j in range(i + 1, len(g)):
            ratio = g[j][i] / g[i][i]
            g[j] = [x - ratio * y for x, y in zip(g[j], g[i])]
    return True


@pytest.mark.parametrize("scale", [1.0, 1e-40, 1e40])
def test_distance_covers_the_rotated_first_phase(rng, scale):
    # ||m_k - R_k m_0 R_k||_2 <= dist_k in exact arithmetic, checked as
    # dist_k^2 I - X^T X > 0 for X = m_k - R_k m_0 R_k: for an antilinear
    # operator (no law defect), a diagonal linear part (a defect on the
    # block diagonals only), a linear part off the diagonal (the law
    # defect alone) and a full one
    h = 4
    anti = scale * crandn(rng, h, h)
    off = scale * crandn(rng, h, h)
    np.fill_diagonal(off, 0.0)
    ops = (AntilinearOperator(anti),
           RealLinearOperator(np.diag(scale * crandn(rng, h)), anti),
           RealLinearOperator(off, anti),
           RealLinearOperator(scale * crandn(rng, h, h), anti))
    angles = ANGLES + [1.0, -2.5, 3.0]
    for op in ops:
        circle, mats = _circle(op, scale * 0.7, angles)
        m0 = _exact(mats[0])
        for k, dist in enumerate(circle.distances(), start=1):
            c, s = circle.c[k - 1], circle.s[k - 1]
            eye = np.eye(h)
            rot = _exact(np.block([[c * eye, -s * eye], [s * eye, c * eye]]))
            rmr = _matmul(_matmul(rot, m0), rot)
            x = [[a - b for a, b in zip(ra, rb)] for ra, rb in zip(_exact(mats[k]), rmr)]
            xtx = _matmul([list(col) for col in zip(*x)], x)
            d2 = Fraction(float(dist)) ** 2
            g = [[(d2 if i == j else 0) - xtx[i][j] for j in range(2 * h)] for i in range(2 * h)]
            assert _positive_definite(g), (type(op), k)


def test_numerical_rank(rng):
    from conftest import random_rank_deficient

    a = random_rank_deficient(rng, 6, 5, 3).canon
    assert ranked_svd(a).rank == 3
    assert ranked_svd(np.zeros((4, 4))).rank == 0
