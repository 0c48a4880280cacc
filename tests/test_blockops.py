import numpy as np
import pytest

from antilin.antiop import (
    AntilinearOperator,
    RealLinearOperator,
    compose,
    realify,
    realify_shifted,
    unrealify,
)
from antilin.blockops import (
    SELECTORS,
    BlockAntilinearMatrix,
    Pivot,
    complement,
    correspondence_scan,
    factorization_residual,
    rank_link,
    samples_for_radii,
)
from antilin.errors import DimensionMismatch, PivotSingular
from antilin.matkernel import SING_TOL, is_singular, spectral_norm
from antilin.spectra import antilinear_spectrum, is_in_spectrum

from conftest import random_block

GOLDEN_LO = (np.sqrt(5.0) - 1.0) / 2.0
GOLDEN_HI = (np.sqrt(5.0) + 1.0) / 2.0


def scalar_block(a=1.0, b=1.0, f=1.0, e=0.0):
    A = AntilinearOperator
    return BlockAntilinearMatrix(
        a=A([[a]]), b=A([[b]]), f=A([[f]]), e=A([[e]])
    )


class TestWorkedExample:
    """The 1x1 block a=b=f=1, e=0, whose flattening is [[1,1],[1,0]]."""

    def test_schur_at_two(self):
        comp = complement(scalar_block(), "S2", 2.0)
        op = unrealify(comp.real)
        np.testing.assert_allclose(op.lin, [[-4.0 / 3.0]], atol=1e-12)
        np.testing.assert_allclose(op.anti, [[1.0 / 3.0]], atol=1e-12)
        assert comp.pivot_condition > 0.5

    def test_resolvent_action(self):
        # (A-2)^{-1} y = -Re y - (i/3) Im y, by scalar real-linear algebra
        pivot = Pivot("A - 2", realify_shifted(AntilinearOperator([[1.0]]), 2.0))
        inv = unrealify(pivot.inverse())
        for y in (1.0, 1j, 0.7 - 0.2j):
            expect = -np.real(y) - (1j / 3.0) * np.imag(y)
            np.testing.assert_allclose(inv.apply(np.array([y])), [expect], atol=1e-14)

    def test_flatten_radii_golden(self):
        radii = antilinear_spectrum(scalar_block().flatten()).radii
        np.testing.assert_allclose(radii, [GOLDEN_LO, GOLDEN_HI], atol=1e-12)

    def test_factorizations_exact(self):
        blk = scalar_block()
        for sel in SELECTORS:
            assert factorization_residual(blk, complement(blk, sel, 2.0)) <= 1e-12

    def test_correspondence_at_two_and_golden(self):
        blk = scalar_block()
        flat = blk.flatten()
        # mu = 2 is off every circle: block regular and S2 regular
        assert not is_in_spectrum(flat, 2.0)
        s2 = complement(blk, "S2", 2.0)
        assert not is_singular(s2.real)
        # the golden ratio sits on the outer circle but not on sigma(A)
        assert is_in_spectrum(flat, GOLDEN_HI)
        s2g = complement(blk, "S2", GOLDEN_HI)
        assert np.linalg.svd(s2g.real, compute_uv=False)[-1] <= 1e-12

    def test_rank_link(self):
        link = rank_link(scalar_block())
        assert link.rank_flat == 4
        assert link.rank_s2 == 2
        assert link.primal_holds

    def test_scan_over_structured_grid(self, rng):
        blk = scalar_block()
        samples = samples_for_radii(antilinear_spectrum(blk.flatten()).radii, rng)
        report = correspondence_scan(blk, samples)
        assert report.ok, report.disagreements[:3]
        assert report.agreements > 0


class TestDecoupled:
    def test_b_zero_schur_is_shifted_e(self, rng):
        A = AntilinearOperator
        blk = BlockAntilinearMatrix(
            a=A([[1.0]]), b=A([[0.0]]), f=A([[1.0]]), e=A([[0.5]])
        )
        op = unrealify(complement(blk, "S2", 2.0).real)
        np.testing.assert_allclose(op.lin, [[-2.0]], atol=1e-14)
        np.testing.assert_allclose(op.anti, [[0.5]], atol=1e-14)

    def test_block_diagonal_spectrum_union(self):
        A = AntilinearOperator
        blk = BlockAntilinearMatrix(
            a=A([[2.0]]), b=A([[0.0]]), f=A([[0.0]]), e=A([[0.5]])
        )
        radii = antilinear_spectrum(blk.flatten()).radii
        np.testing.assert_allclose(radii, [0.5, 2.0], atol=1e-12)
        for r in (0.5, 2.0):
            assert is_in_spectrum(blk.flatten(), r)
        assert not is_in_spectrum(blk.flatten(), 1.0)

    def test_b_f_zero_factorization_trivial(self):
        A = AntilinearOperator
        blk = BlockAntilinearMatrix(
            a=A([[2.0]]), b=A([[0.0]]), f=A([[0.0]]), e=A([[0.5]])
        )
        for sel in ("S2", "S1"):
            assert factorization_residual(blk, complement(blk, sel, 0.9j)) <= 1e-12


class TestRandomBlocks:
    def test_factorization_residuals(self, rng):
        for _ in range(10):
            n = int(rng.integers(1, 5))
            m = int(rng.integers(1, 5))
            blk = random_block(rng, n, m)
            scale = 1 + spectral_norm(realify(blk.flatten()))
            for _ in range(3):
                mu = complex(rng.normal(), rng.normal())
                for sel in SELECTORS:
                    if n != m and sel in ("T1", "T2"):
                        continue
                    assert factorization_residual(blk, complement(blk, sel, mu)) <= 1e-8 * scale

    def test_scan_no_disagreements(self, rng):
        for _ in range(8):
            n = int(rng.integers(1, 4))
            m = int(rng.integers(1, 4))
            blk = random_block(rng, n, m)
            samples = samples_for_radii(antilinear_spectrum(blk.flatten()).radii, rng)
            report = correspondence_scan(blk, samples)
            assert report.ok, report.disagreements[:3]

    def test_rank_link_random(self, rng):
        for _ in range(10):
            n = int(rng.integers(1, 5))
            m = int(rng.integers(1, 5))
            blk = random_block(rng, n, m)
            try:
                link = rank_link(blk)
            except PivotSingular:
                continue
            assert link.primal_holds
            if link.dual_holds is not None:
                assert link.dual_holds
            assert link.f_rel_bound is not None and link.f_rel_bound >= 0


class TestEngineeredRank:
    def test_zero_schur_complement(self):
        # e = F A^{-1} B reassembled: for a=b=f=1 that makes e = 1
        blk = scalar_block(e=1.0)
        link = rank_link(blk)
        assert link.rank_s2 == 0
        assert link.rank_flat == 2
        assert link.primal_holds

    def test_rank_additive_when_decoupled(self):
        A = AntilinearOperator
        blk = BlockAntilinearMatrix(
            a=A([[2.0]]), b=A([[0.0]]), f=A([[0.0]]), e=A([[0.0]])
        )
        link = rank_link(blk)
        assert link.rank_flat == 2  # rank(realify(a)) + rank(realify(e)) = 2 + 0
        assert link.primal_holds


class TestGuards:
    def test_rank_link_singular_pivot_names_a(self):
        with pytest.raises(PivotSingular) as info:
            rank_link(scalar_block(a=0.0))
        assert info.value.pivot == "A"
        assert str(info.value) == (
            "pivot A is numerically singular (min singular value 0.000e+00)"
        )

    def test_pivot_singular_on_circle(self):
        # mu on the circle of sigma(A) makes the pivot non-invertible
        with pytest.raises(PivotSingular):
            complement(scalar_block(), "S2", 1.0)

    def test_quadratic_requires_square_offdiag(self, rng):
        blk = random_block(rng, 2, 3)
        with pytest.raises(DimensionMismatch):
            complement(blk, "T2", 0.3)

    def test_singular_f_pivot(self):
        blk = scalar_block(f=0.0)
        with pytest.raises(PivotSingular):
            complement(blk, "T2", 0.3)

    def test_pivot_outcome_is_kept_per_tol(self):
        # one block asked at two tolerances, in both orders: F = 1e-5 is
        # invertible at the default tol and singular at 1e-3
        blk = scalar_block(f=1e-5)
        for tol in (SING_TOL, 1e-3, SING_TOL):
            if tol == SING_TOL:
                assert complement(blk, "T2", 0.3, tol).pivot_condition == pytest.approx(1e-5)
            else:
                with pytest.raises(PivotSingular):
                    complement(blk, "T2", 0.3, tol)

    @pytest.mark.parametrize("sel, zero_block, pivot", [("S1", "e", "E - mu"), ("T1", "b", "B")])
    def test_dual_singular_pivot_is_named(self, sel, zero_block, pivot):
        with pytest.raises(PivotSingular) as info:
            complement(scalar_block(**{zero_block: 0.0}), sel, 0.0)
        assert info.value.pivot == pivot

    def test_scan_skips_bad_pivots(self, rng):
        blk = scalar_block(f=0.0)
        report = correspondence_scan(blk, [0.3 + 0.1j])
        assert report.skipped >= 1
        assert report.ok

    def test_unknown_selector(self):
        with pytest.raises(ValueError):
            complement(scalar_block(), "S3", 0.0)
        with pytest.raises(ValueError):
            blk = scalar_block()
            factorization_residual(blk, complement(blk, "Q9", 0.0))

    def test_dimension_validation(self):
        A = AntilinearOperator
        with pytest.raises(DimensionMismatch):
            BlockAntilinearMatrix(
                a=A(np.eye(2)), b=A(np.eye(2)), f=A(np.eye(3)), e=A(np.eye(3))
            )


def test_flatten_consistency(rng):
    # circle-algorithm radii of the flattening agree with the realification
    # oracle on every structured scan point
    blk = random_block(rng, 2, 2)
    flat = blk.flatten()
    radii = antilinear_spectrum(flat).radii
    for mu in samples_for_radii(radii, rng, random_count=10):
        member = is_in_spectrum(flat, mu)
        predicted = bool(radii and np.min(np.abs(np.array(radii) - abs(mu))) <= 1e-7)
        assert member == predicted


@pytest.mark.parametrize("dual, primal, n, m", [("S1", "S2", 2, 3), ("T1", "T2", 3, 3)])
def test_dual_complement_is_primal_of_swapped_block(rng, dual, primal, n, m):
    # S1/T1 of [[A, B], [F, E]] are S2/T2 of [[E, F], [B, A]], bit for bit
    blk = random_block(rng, n, m)
    swapped = BlockAntilinearMatrix(a=blk.e, b=blk.f, f=blk.b, e=blk.a)
    got = complement(blk, dual, 0.4 - 0.3j)
    want = complement(swapped, primal, 0.4 - 0.3j)
    assert np.array_equal(got.real, want.real)
    assert np.array_equal(got.pivot_inverse, want.pivot_inverse)


def _pq_route(blk, selector, mu):
    """The complement, its pivot inverse and its factorization residual by
    the (P, Q) route: shifted (P, Q) pairs, ``compose``, and the inverse of
    the realified pivot read back with ``unrealify``."""
    ops = [RealLinearOperator.from_antilinear(x) for x in (blk.a, blk.b, blk.f, blk.e)]
    swapped = selector in ("S1", "T1")
    a, b, f, e = ops[::-1] if swapped else ops
    n, m = a.dim_in, e.dim_in

    def eye(k):
        return RealLinearOperator.from_linear(np.eye(k))

    def zero(r, c):
        return RealLinearOperator(np.zeros((r, c)), np.zeros((r, c)))

    if selector[0] == "S":
        inv = unrealify(np.linalg.inv(realify(a.shifted(mu))))
        op = e.shifted(mu) - compose(f, compose(inv, b))
        factors = ((eye(n), zero(n, m), compose(f, inv), eye(m)),
                   (a.shifted(mu), zero(n, m), zero(m, n), op),
                   (eye(n), compose(inv, b), zero(m, n), eye(m)))
    else:
        inv = unrealify(np.linalg.inv(realify(f)))
        op = b - compose(a.shifted(mu), compose(inv, e.shifted(mu)))
        factors = ((eye(n), compose(a.shifted(mu), inv), zero(m, n), eye(m)),
                   (zero(n, n), op, f, zero(m, m)),
                   (eye(n), compose(inv, e.shifted(mu)), zero(m, n), eye(m)))

    def block2(x11, x12, x21, x22):
        if swapped:
            x11, x12, x21, x22 = x22, x21, x12, x11
        return RealLinearOperator(
            np.block([[x11.lin, x12.lin], [x21.lin, x22.lin]]),
            np.block([[x11.anti, x12.anti], [x21.anti, x22.anti]]),
        )

    left, mid, right = (block2(*x) for x in factors)
    rhs = compose(left, compose(mid, right)).shifted(-mu)
    return op, inv, spectral_norm(realify(blk.flatten()) - realify(rhs))


def _assert_close(got, want, rel=1e-12):
    scale = 1.0 + max(spectral_norm(realify(want)), 1.0)
    for x, y in ((got.lin, want.lin), (got.anti, want.anti)):
        assert spectral_norm(x - y) <= rel * scale


@pytest.mark.parametrize("n, m", [(1, 1), (3, 3), (2, 4), (4, 1)])
def test_realified_path_matches_pq_route(rng, n, m):
    # the realified evaluation against the (P, Q) algebra it replaces
    blk = random_block(rng, n, m)
    mu = complex(rng.normal(), rng.normal())
    flat_scale = 1.0 + spectral_norm(realify(blk.flatten()))
    for sel in SELECTORS:
        if n != m and sel in ("T1", "T2"):
            with pytest.raises(DimensionMismatch):
                complement(blk, sel, mu)
            continue
        comp = complement(blk, sel, mu)
        op, inv, residual = _pq_route(blk, sel, mu)
        _assert_close(unrealify(comp.real), op)
        _assert_close(unrealify(comp.pivot_inverse), inv)
        # both residuals are rounding noise of the factor product, whose
        # size is at most that of ||M|| (1 + ||inv|| ||M||)^2
        factor_scale = flat_scale * (1.0 + spectral_norm(comp.pivot_inverse) * flat_scale) ** 2
        assert abs(factorization_residual(blk, comp) - residual) <= 1e-12 * factor_scale
