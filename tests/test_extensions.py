import numpy as np
import pytest

from antilin.antiop import AntilinearOperator
from antilin.errors import DimensionMismatch, NotNormal
from antilin.extensions import (
    ExtensionProblem,
    check_extension,
    minimal_span,
    word_span_oracle,
)
from antilin.generators import crandn, haar_unitary

from conftest import NORMAL_FAMILIES, normal_instance, shift_operator
from pq_algebra import compose, op_norm

DIAG23 = AntilinearOperator(np.diag([2.0, 3.0]))
E1 = np.array([[1.0], [0.0]])
X0 = np.array([[1.0], [1.0]]) / np.sqrt(2.0)


class TestCheckExtension:
    def test_invariant_coordinate_subspace(self):
        p = ExtensionProblem(ambient=DIAG23, embed=E1, restricted=AntilinearOperator([[2.0]]))
        res = check_extension(p)
        assert res.match <= 1e-14
        assert res.range_leak <= 1e-14

    def test_non_invariant_subspace_leaks(self):
        # N x0 = (2 e1 + 3 e2)/sqrt(2) leaves span{x0}
        p = ExtensionProblem(ambient=DIAG23, embed=X0, restricted=AntilinearOperator([[2.5]]))
        res = check_extension(p)
        assert res.range_leak > 0.1

    def test_trivial_extension(self):
        p = ExtensionProblem(ambient=DIAG23, embed=np.eye(2), restricted=DIAG23)
        res = check_extension(p)
        assert res.match == 0.0
        assert res.range_leak <= 1e-14

    def test_requires_restricted(self):
        with pytest.raises(ValueError):
            check_extension(ExtensionProblem(ambient=DIAG23, embed=E1))

    def test_orthonormality_enforced(self):
        with pytest.raises(DimensionMismatch):
            ExtensionProblem(ambient=DIAG23, embed=np.array([[1.0], [1.0]]))


class TestMinimalSpan:
    def test_coordinate_axis_not_minimal(self):
        span = minimal_span(ExtensionProblem(ambient=DIAG23, embed=E1))
        assert span.g_dim == 1
        assert not span.is_minimal
        assert not span.hit_cap

    def test_diagonal_mixture_minimal(self):
        span = minimal_span(ExtensionProblem(ambient=DIAG23, embed=X0))
        assert span.g_dim == 2
        assert span.is_minimal
        assert not span.hit_cap

    def test_full_subspace_trivially_minimal(self):
        span = minimal_span(ExtensionProblem(ambient=DIAG23, embed=np.eye(2)))
        assert span.is_minimal and span.g_dim == 2

    def test_rejects_nonnormal_ambient(self):
        with pytest.raises(NotNormal):
            minimal_span(ExtensionProblem(ambient=shift_operator(2), embed=E1))
        with pytest.raises(NotNormal):
            word_span_oracle(ExtensionProblem(ambient=shift_operator(2), embed=E1), 4)


class TestWordSpanOracle:
    def test_examples(self):
        assert word_span_oracle(ExtensionProblem(ambient=DIAG23, embed=E1), 6) == 1
        assert word_span_oracle(ExtensionProblem(ambient=DIAG23, embed=X0), 6) == 2

    def test_agreement_on_random_normals(self, rng):
        for k in range(25):
            n = int(rng.integers(2, 7))
            amb = normal_instance(rng, n, NORMAL_FAMILIES[k % 3])
            h = int(rng.integers(1, n + 1))
            v, _ = np.linalg.qr(crandn(rng, n, h))
            p = ExtensionProblem(ambient=amb, embed=v)
            span = minimal_span(p)
            assert not span.hit_cap
            assert span.g_dim == word_span_oracle(p, max_len=n + 2)

    def test_span_monotone_in_cap(self, rng):
        amb = normal_instance(rng, 5, "twisted")
        v, _ = np.linalg.qr(crandn(rng, 5, 2))
        p = ExtensionProblem(ambient=amb, embed=v)
        dims = [minimal_span(p, cap=c).g_dim for c in range(1, 11)]
        assert all(d1 <= d2 for d1, d2 in zip(dims, dims[1:]))
        full = minimal_span(p)
        assert dims[-1] == full.g_dim


def test_word_reordering_is_identity_for_normal(rng):
    # N N# = N# N lets any word permutation collapse to the same operator
    amb = normal_instance(rng, 4, "twisted")
    ns = amb.adjoint()
    seqs = [
        [amb, ns, amb],
        [ns, amb, amb],
        [amb, amb, ns],
    ]
    ops = []
    for seq in seqs:
        op = compose(seq[0], compose(seq[1], seq[2]))
        ops.append(op)
    for other in ops[1:]:
        assert op_norm(ops[0] - other) <= 1e-10


def test_embed_wider_than_ambient_rejected(rng):
    v = haar_unitary(rng, 3)
    with pytest.raises(DimensionMismatch):
        ExtensionProblem(ambient=DIAG23, embed=v)
