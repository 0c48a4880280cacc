import gc
import weakref

import numpy as np
import pytest

import antilin.matkernel as matkernel
from antilin.antiop import (
    AntilinearOperator,
    _realify_pair,
    make_conjugation,
    realify,
    realify_shifted,
)
from antilin.errors import DimensionMismatch, NotInvolution, NotIsometric
from antilin.generators import crandn, symmetric_unitary
from antilin.matkernel import ranked_svd, spectral_norm

import pq_algebra as pq
from conftest import random_antilinear, random_rank_deficient
from pq_algebra import RealLinearOperator, coerce, compose, op_norm, unrealify


class TestConjugation:
    def test_standard(self):
        c = make_conjugation(np.eye(2))
        np.testing.assert_allclose(c.apply([1.0, 1j]), [1.0, -1j])

    def test_swap_is_valid(self):
        k = np.array([[0, 1], [1, 0]], dtype=complex)
        c = make_conjugation(k)
        np.testing.assert_allclose(k @ np.conj(k), np.eye(2))
        # a conjugation is the antilinear operator of its validated matrix
        assert type(c) is AntilinearOperator
        assert np.array_equal(c.canon, k) and c.dim_in == c.dim_out == 2

    def test_symplectic_rejected(self):
        with pytest.raises(NotInvolution):
            make_conjugation(np.array([[0, 1], [-1, 0]], dtype=complex))

    def test_nonunitary_involution_rejected(self):
        # K^2 = I but K is not an isometry
        k = np.array([[1, 1], [0, -1]], dtype=float)
        np.testing.assert_allclose(k @ k, np.eye(2))
        with pytest.raises(NotIsometric):
            make_conjugation(k)

    def test_random_symmetric_unitary_accepted(self, rng):
        for n in (2, 5):
            make_conjugation(symmetric_unitary(rng, n))


class TestApplyAdjoint:
    def test_apply_examples(self):
        t = AntilinearOperator(np.eye(2))
        np.testing.assert_allclose(t.apply([1.0, 1j]), [1.0, -1j])
        s = AntilinearOperator([[0, 1], [0, 0]])
        np.testing.assert_allclose(s.apply([0.0, 1j]), [-1j, 0.0])

    def test_multiplication_operator(self, rng):
        # discrete multiplication operator composed with conjugation
        phi = crandn(rng, 3)
        t = AntilinearOperator(np.diag(np.conj(phi)))
        e1 = np.array([1.0, 0, 0])
        np.testing.assert_allclose(t.apply(e1), np.conj(phi[0]) * e1)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            AntilinearOperator(np.eye(2)).apply([1.0, 0, 0])

    def test_adjoint_examples(self):
        assert np.array_equal(
            AntilinearOperator(np.eye(2)).adjoint().canon, np.eye(2)
        )
        s = AntilinearOperator([[0, 1], [0, 0]])
        np.testing.assert_allclose(s.adjoint().canon, [[0, 0], [1, 0]])
        # hand pairing check at x = (0,1), y = (1,0)
        x, y = np.array([0.0, 1.0]), np.array([1.0, 0.0])
        lhs = np.conj(np.vdot(y, s.apply(x)))
        rhs = np.vdot(s.adjoint().apply(y), x)
        assert lhs == pytest.approx(1.0)
        assert rhs == pytest.approx(1.0)

    def test_pairing_random(self, rng):
        t = random_antilinear(rng, 5, 3)
        a = t.canon
        for _ in range(100):
            x, y = crandn(rng, 3), crandn(rng, 5)
            lhs = np.conj(np.vdot(y, a @ np.conj(x)))
            rhs = np.vdot(a.T @ np.conj(y), x)
            assert abs(lhs - rhs) <= 1e-12 * (1 + spectral_norm(a))

    def test_biduality_bitwise(self, rng):
        t = random_antilinear(rng, 4, 7)
        assert np.array_equal(t.adjoint().adjoint().canon, t.canon)

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            AntilinearOperator(np.array([[np.nan, 0], [0, 0]]))


class TestCompose:
    def test_anti_anti_is_linear(self):
        s = AntilinearOperator([[0, 1], [0, 0]])
        sq = compose(s, s)
        np.testing.assert_allclose(sq.lin, np.zeros((2, 2)))
        np.testing.assert_allclose(sq.anti, np.zeros((2, 2)))

    def test_adjoint_compose_is_gram(self):
        s = AntilinearOperator([[0, 1], [0, 0]])
        gram = compose(s.adjoint(), s)
        assert not gram.anti.any()
        g = gram.lin
        np.testing.assert_allclose(g, np.diag([0.0, 1.0]))
        assert spectral_norm(g - g.conj().T) == 0.0

    def test_reversed_adjoint_of_product(self, rng):
        # (T1 T)* = T# T1# for antilinear T1, T (the product is linear)
        t1 = random_antilinear(rng, 4)
        t = random_antilinear(rng, 4)
        lhs, rhs = compose(t1, t), compose(t.adjoint(), t1.adjoint())
        assert not lhs.anti.any() and not rhs.anti.any()
        assert spectral_norm(lhs.lin.conj().T - rhs.lin) <= 1e-12

    def test_pointwise_agreement(self, rng):
        f = random_antilinear(rng, 3, 4)
        g = RealLinearOperator(crandn(rng, 4, 5), crandn(rng, 4, 5))
        h = compose(f, g)
        for _ in range(20):
            x = crandn(rng, 5)
            np.testing.assert_allclose(h.apply(x), f.apply(g.apply(x)), atol=1e-12)

    def test_associativity(self, rng):
        for _ in range(20):
            f = RealLinearOperator(crandn(rng, 3, 4), crandn(rng, 3, 4))
            g = random_antilinear(rng, 4, 2)
            h = crandn(rng, 2, 6)  # plain linear matrix operand
            left = compose(compose(f, g), h)
            right = compose(f, compose(g, h))
            assert op_norm(left - right) <= 1e-10

    def test_inner_dim_check(self):
        with pytest.raises(DimensionMismatch):
            compose(AntilinearOperator(np.eye(2)), AntilinearOperator(np.eye(3)))


class TestRealify:
    def test_scalar_conjugation(self):
        r = realify(AntilinearOperator(np.eye(1)))
        np.testing.assert_allclose(r, [[1.0, 0.0], [0.0, -1.0]])

    def test_scalar_block_example(self):
        op = RealLinearOperator(np.array([[-4.0 / 3.0]]), np.array([[1.0 / 3.0]]))
        np.testing.assert_allclose(pq.realify(op), np.diag([-1.0, -5.0 / 3.0]))

    def test_round_trip(self, rng):
        op = RealLinearOperator(crandn(rng, 3, 5), crandn(rng, 3, 5))
        back = unrealify(pq.realify(op))
        assert spectral_norm(back.lin - op.lin) <= 1e-14
        assert spectral_norm(back.anti - op.anti) <= 1e-14

    def test_action_consistency(self, rng):
        op = RealLinearOperator(crandn(rng, 4, 3), crandn(rng, 4, 3))
        t = random_antilinear(rng, 4, 3)
        lin = crandn(rng, 4, 3)
        for r, act in ((pq.realify(op), op.apply), (realify(t), t.apply),
                       (_realify_pair(lin, 0), lambda x: lin @ x)):
            for _ in range(20):
                x = crandn(rng, 3)
                stacked = np.concatenate([x.real, x.imag])
                y = act(x)
                np.testing.assert_allclose(
                    r @ stacked, np.concatenate([y.real, y.imag]), atol=1e-13
                )

    def test_kernel_range_orthogonality(self, rng):
        # N(T#) is the orthogonal complement of R(T), read realified
        t = random_rank_deficient(rng, 6, 6, 3)
        p_range = ranked_svd(realify(t)).range_projector()
        _, s, vh = np.linalg.svd(realify(t.adjoint()))
        rank = int(np.count_nonzero(s > 1e-10 * s[0]))
        ker = vh[rank:].conj().T
        p_ker = ker @ ker.conj().T
        assert spectral_norm(p_ker - (np.eye(12) - p_range)) <= 1e-8


def _bitwise(a, b) -> bool:
    return (
        a.shape == b.shape
        and np.array_equal(a, b, equal_nan=True)
        and np.array_equal(np.signbit(a), np.signbit(b))
    )


def _signed_zeros(rng, a):
    """``a`` with about half of its real and imaginary parts set to +-0.0."""
    re, im = a.real.copy(), a.imag.copy()
    for part in (re, im):
        hit = rng.random(part.shape) < 0.5
        part[hit] = np.where(rng.random(part.shape) < 0.5, -0.0, 0.0)[hit]
    out = np.empty(a.shape, dtype=complex)
    out.real, out.imag = re, im   # re + 1j*im would lose -0.0 parts
    return out


# shifts: zero, tiny, O(1), O(100), and every sign pattern of a -0.0 part
SHIFTS = (
    0, 0.0, -0.0, 1e-9, -1e-9j, 0.7 - 0.2j, -120.0 + 40.0j, np.complex128(0.3 - 2.0j),
    np.float64(-2.0), -3, complex(-0.0, -0.0), complex(0.0, -0.0), complex(-0.0, 0.0),
    complex(-1.0, -0.0), complex(2.0, -0.0), complex(-0.0, 1.0), complex(-0.0, -1.0),
)


class TestRealifyBitwise:
    """``realify``, ``_realify_pair`` and ``realify_shifted`` against the
    (P, Q) formulas of ``pq_algebra``, bit for bit: equal values and equal
    sign bits, signed zeros included."""

    @pytest.mark.parametrize("shape", [(1, 1), (3, 5), (6, 2), (4, 4)])
    def test_realify_matches_block_formula(self, rng, shape):
        for mat in (crandn(rng, *shape), _signed_zeros(rng, crandn(rng, *shape))):
            t = AntilinearOperator(mat)
            assert _bitwise(realify(t), pq.realify(t))
            assert _bitwise(_realify_pair(mat, 1), pq.realify(t))
            assert _bitwise(_realify_pair(mat, 0), pq.realify(mat))

    @pytest.mark.parametrize("n", [1, 2, 5, 16])
    @pytest.mark.parametrize("zeros", [False, True])
    def test_shifted_matches_realify_of_shift(self, rng, n, zeros):
        anti = crandn(rng, n, n)
        if zeros:
            anti = _signed_zeros(rng, anti)
        t = AntilinearOperator(anti)
        infinite = (np.inf, -np.inf, complex(0.0, np.inf))   # nan where inf meets 0
        for lam in SHIFTS + infinite + tuple(complex(z) for z in 10 * crandn(rng, 3)):
            with np.errstate(invalid="ignore"):
                got, ref = realify_shifted(t, lam), pq.realify(coerce(t).shifted(lam))
            assert _bitwise(got, ref), lam

    @pytest.mark.parametrize("n", [1, 3, 6])
    def test_shift_moves_only_the_diagonal(self, rng, n):
        lin = _signed_zeros(rng, crandn(rng, n, n))
        op = RealLinearOperator(lin, _signed_zeros(rng, crandn(rng, n, n)))
        off = ~np.eye(n, dtype=bool)
        for mu in SHIFTS:
            moved = op.shifted(mu)
            diag = (op.lin - mu * np.eye(n)).diagonal()
            for part in ("real", "imag"):
                got, kept = getattr(moved.lin, part), getattr(op.lin, part)
                assert _bitwise(got.diagonal(), getattr(diag, part)), (mu, part)
                assert _bitwise(got[off], kept[off]), (mu, part)   # -0.0 kept
                assert _bitwise(getattr(moved.anti, part), getattr(op.anti, part))

    def test_each_probe_is_a_fresh_copy(self, rng):
        t = random_antilinear(rng, 4)
        first = realify_shifted(t, 0.5)
        first[0, 0] = 99.0   # a caller may write to its probe
        assert _bitwise(realify_shifted(t, 0.5), pq.realify(coerce(t).shifted(0.5)))

    def test_shift_of_a_rectangle_is_rejected(self, rng):
        with pytest.raises(DimensionMismatch):
            realify_shifted(random_antilinear(rng, 3, 5), 0.5)

    def test_family_dies_with_its_operator(self, monkeypatch):
        families = []
        original = matkernel._ShiftFamily.__init__
        monkeypatch.setattr(matkernel._ShiftFamily, "__init__",
                            lambda *a: families.append(1) or original(*a))
        for _ in range(2):   # a new operator object never inherits a family
            t = AntilinearOperator(np.eye(3) + 0.1j)
            for lam in (0.0, 1.0, 2.0j):
                realify_shifted(t, lam)
            ref = weakref.ref(t)
            del t
            gc.collect()
            assert ref() is None
        assert len(families) == 2


class TestFactoredForm:
    def test_factor_split_adjoint(self, rng):
        # adjoint(compose(C, S)) equals compose(S*, C) for linear S
        for n in (2, 4):
            c = make_conjugation(symmetric_unitary(rng, n))
            s = crandn(rng, n, n)
            cs, rhs = compose(c, s), compose(s.conj().T, c)
            assert not cs.lin.any() and not rhs.lin.any()
            lhs = AntilinearOperator(cs.anti).adjoint()
            assert spectral_norm(lhs.canon - rhs.anti) <= 1e-10
