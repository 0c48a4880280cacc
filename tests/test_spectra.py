import numpy as np
import pytest

import antilin.matkernel as matkernel
import antilin.spectra as spectra
from antilin.antiop import AntilinearOperator, RealLinearOperator, realify_shifted
from antilin.errors import DimensionMismatch
from antilin.generators import KINDS, gen_payload
from antilin.io import parse_payload
from antilin.matkernel import SING_TOL, singularity
from antilin.spectra import (
    CLASSIFICATION_NOTE,
    antilinear_spectrum,
    is_in_spectrum,
    spectrum_crosscheck,
)

from conftest import random_antilinear

GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0, (np.sqrt(5.0) + 1.0) / 2.0


class TestCircleRadii:
    def test_conjugation(self):
        desc = antilinear_spectrum(AntilinearOperator(np.eye(2)))
        np.testing.assert_allclose(desc.radii, [1.0], atol=1e-12)

    def test_nilpotent(self):
        desc = antilinear_spectrum(AntilinearOperator([[0, 1], [0, 0]]))
        np.testing.assert_allclose(desc.radii, [0.0], atol=1e-12)

    def test_fibonacci_matrix(self):
        # eigenvalues of the square are (3 +- sqrt(5))/2 by hand
        desc = antilinear_spectrum(AntilinearOperator([[1, 1], [1, 0]]))
        np.testing.assert_allclose(desc.radii, GOLDEN, atol=1e-12)

    def test_symplectic_empty(self):
        # A conj(A) = -I: no real nonnegative eigenvalues, empty spectrum
        desc = antilinear_spectrum(AntilinearOperator([[0, 1], [-1, 0]]))
        assert desc.radii == ()

    def test_requires_square(self):
        with pytest.raises(DimensionMismatch):
            antilinear_spectrum(AntilinearOperator(np.zeros((2, 3))))

    def test_note_is_point_spectrum_only(self):
        assert "point spectrum" in CLASSIFICATION_NOTE


class TestMembershipOracle:
    def test_conjugation_circle(self):
        t = AntilinearOperator(np.eye(2))
        assert is_in_spectrum(t, 1.0)
        assert not is_in_spectrum(t, 0.5)

    def test_scalar_real_linear(self):
        op = RealLinearOperator(np.array([[-4.0 / 3.0]]), np.array([[1.0 / 3.0]]))
        assert not is_in_spectrum(op, 0.0)

    def test_zero_operator(self):
        assert is_in_spectrum(AntilinearOperator(np.zeros((2, 2))), 0.0)

    def test_symplectic_everywhere_resolvent(self):
        t = AntilinearOperator([[0, 1], [-1, 0]])
        for lam in (0.0, 1.0, 0.5 + 0.5j, 2.0j):
            assert not is_in_spectrum(t, lam)


class TestCrosscheck:
    def test_conjugation_16_phases(self):
        rep = spectrum_crosscheck(AntilinearOperator(np.eye(2)), phases=16)
        assert rep.ok
        # circle points all members, the gap radius 0.5 appears and is clean
        assert any(p.radius == pytest.approx(0.5) and not p.oracle_member for p in rep.points)

    def test_diag_2_i_midpoint(self):
        rep = spectrum_crosscheck(AntilinearOperator(np.diag([2.0, 1j])), phases=8)
        assert rep.ok
        np.testing.assert_allclose(rep.spectrum.radii, [1.0, 2.0], atol=1e-12)
        assert any(p.radius == pytest.approx(1.5) and not p.oracle_member for p in rep.points)

    def test_zero_operator(self):
        rep = spectrum_crosscheck(AntilinearOperator(np.zeros((2, 2))))
        assert rep.ok
        np.testing.assert_allclose(rep.spectrum.radii, [0.0])
        assert any(p.radius > 0 and not p.oracle_member for p in rep.points)

    def test_empty_spectrum(self):
        rep = spectrum_crosscheck(AntilinearOperator([[0, 1], [-1, 0]]))
        assert rep.ok
        assert rep.members_tested == 0
        assert rep.nonmembers_tested > 0

    def test_random_instances_agree(self, rng):
        for _ in range(30):
            n = int(rng.integers(1, 11))
            t = random_antilinear(rng, n)
            rep = spectrum_crosscheck(t, phases=8)
            assert rep.ok, rep.disagreements


def test_phase_invariance(rng):
    # membership at any spectrum point is invariant under phase rotation
    for _ in range(25):
        n = int(rng.integers(2, 9))
        t = random_antilinear(rng, n)
        radii = antilinear_spectrum(t).radii
        for r in radii:
            for k in range(8):
                lam = r * np.exp(2j * np.pi * k / 8)
                assert is_in_spectrum(t, lam)


def test_eig_closed_under_conjugation(rng):
    for _ in range(25):
        n = int(rng.integers(1, 11))
        a = random_antilinear(rng, n).canon
        ev = np.linalg.eigvals(a @ np.conj(a))
        for mu in ev:
            assert np.min(np.abs(ev - np.conj(mu))) <= 1e-8 * (1 + abs(mu))


def _generated(kind, dim, seed):
    return parse_payload(gen_payload(kind, dim, seed)).obj


def _svd_verdicts(t, points, tol=SING_TOL) -> list:
    """The verdict of one SVD of each point's own realified matrix."""
    out = []
    for p in points:
        smin, threshold = singularity(realify_shifted(t, p.radius * np.exp(1j * p.phase)), tol)
        out.append(smin <= threshold)
    return out


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("dim", [4, 8, 16])
@pytest.mark.parametrize("kind", [k for k in KINDS if k != "block"])
def test_every_phase_verdict_is_the_svd_verdict(kind, dim, seed):
    # one factorization per circle proves each phase on its own matrix
    t = _generated(kind, dim, seed)
    rep = spectrum_crosscheck(t)
    assert [p.oracle_member for p in rep.points] == _svd_verdicts(t, rep.points)


def test_empty_operator_is_singular_at_every_probe():
    # the 0 x 0 realification counts as singular (singularity of an empty
    # matrix), on the circle at 0 and at each phase of the radius 0.5
    rep = spectrum_crosscheck(AntilinearOperator(np.zeros((0, 0))))
    assert [p.radius for p in rep.points] == [0.0] + [0.5] * 8
    assert all(p.oracle_member for p in rep.points)


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("kind", ["twisted_normal", "nonnormal"])
def test_every_phase_verdict_is_the_svd_verdict_at_64(kind, seed):
    # 129 circles on twisted_normal, each phase proved from phase 0's work
    t = _generated(kind, 64, seed)
    rep = spectrum_crosscheck(t)
    assert [p.oracle_member for p in rep.points] == _svd_verdicts(t, rep.points)


def test_undecided_gap_circle_of_twisted_normal_64(monkeypatch):
    # the one circle of twisted_normal d=64 whose phase-0 bracket cannot
    # decide: its SVD decides phase 0, and every phase still gets the
    # verdict of its own SVD
    t = _generated("twisted_normal", 64, 0)
    circles, undecided = [], []
    original = spectra._phase_verdicts

    def recording(circle, tol, singular_first):
        circles.append(singular_first)
        return original(circle, tol, singular_first)

    monkeypatch.setattr(spectra, "_phase_verdicts", recording)
    monkeypatch.setattr(matkernel, "singularity", lambda m, tol=SING_TOL: undecided.append(
        (len(circles), m.shape)) or singularity(m, tol))
    rep = spectrum_crosscheck(t)
    assert len(undecided) == 1 and len(rep.points) == 1032
    index, shape = undecided[0]
    assert shape == (128, 128) and circles[index - 1] is False   # a gap circle
    gap = rep.points[8 * (index - 1): 8 * index]
    assert len({p.radius for p in gap}) == 1
    assert [p.oracle_member for p in gap] == _svd_verdicts(t, gap) == [False] * 8
