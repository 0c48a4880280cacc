import numpy as np
import pytest

from antilin.antiop import AntilinearOperator, _parity_product
from antilin.errors import NotNormal
from antilin.generators import KINDS, crandn, gen_operator, symmetric_unitary
from antilin.matkernel import pinv, psd_sqrt, ranked_svd, spectral_norm
from antilin.structure import (
    _NORM_SAMPLING_SEED,
    NORMAL_TOL,
    c_normal_criterion,
    check_polar_commutation,
    factored,
    gram,
    identity_suite,
    is_normal,
    is_selfadjoint,
    modulus,
    moore_penrose,
    polar,
    power_commute,
)

from conftest import (
    NORMAL_FAMILIES,
    nonnormal_instance,
    normal_instance,
    random_antilinear,
    random_rank_deficient,
    shift_operator,
)
from pq_algebra import op_norm

SHIFT = AntilinearOperator([[0, 1], [0, 0]])
DIAG2I = AntilinearOperator(np.diag([2.0, 1j]))


class TestGram:
    def test_shift(self):
        left, right = gram(SHIFT)
        np.testing.assert_allclose(right, np.diag([0.0, 1.0]))
        np.testing.assert_allclose(left, np.diag([1.0, 0.0]))

    def test_identity(self):
        left, right = gram(AntilinearOperator(np.eye(3)))
        np.testing.assert_allclose(left, np.eye(3))
        np.testing.assert_allclose(right, np.eye(3))

    def test_random_psd(self, rng):
        for _ in range(20):
            t = random_antilinear(rng, int(rng.integers(1, 8)), int(rng.integers(1, 8)))
            for g in gram(t):
                assert spectral_norm(g - g.conj().T) <= 1e-12 * (1 + spectral_norm(g))
                assert np.linalg.eigvalsh(g)[0] >= -1e-10


class TestNormality:
    def test_diag_2_i(self):
        check = is_normal(DIAG2I)
        assert check and check.sampled_value
        assert check.residual <= 1e-14

    def test_shift_not_normal(self):
        check = is_normal(SHIFT)
        assert not check
        assert check.residual == pytest.approx(1.0)  # diag(1,0) vs diag(0,1)
        assert not check.sampled_value

    def test_scaled_antiunitary(self, rng):
        k = symmetric_unitary(rng, 4)
        assert is_normal(AntilinearOperator(1.7 * k))

    def test_selfadjoint_examples(self, rng):
        phi = crandn(rng, 4)
        assert is_selfadjoint(AntilinearOperator(np.diag(np.conj(phi))))
        assert not is_selfadjoint(SHIFT)
        assert is_selfadjoint(AntilinearOperator([[0, 1], [1, 0]]))


def _reference_sampled_value(t) -> bool:
    """The 50-draw scalar loop ``is_normal`` used before it drew all the
    samples at once, kept as the reference for its sampled verdict."""
    a = t.canon
    rng = np.random.default_rng(_NORM_SAMPLING_SEED)
    n = t.dim_in
    dev = 0.0
    for _ in range(50):
        x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        nrm = np.linalg.norm(x)
        if nrm == 0.0:
            continue
        x /= nrm
        dev = max(dev, abs(np.linalg.norm(a @ np.conj(x)) - np.linalg.norm(a.T @ np.conj(x))))
    return dev <= NORMAL_TOL * (1.0 + spectral_norm(a))


@pytest.mark.parametrize("kind", [k for k in KINDS if k != "block"])
@pytest.mark.parametrize("dim", [2, 8, 32])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_sampled_normality_matches_scalar_loop(kind, dim, seed):
    t = gen_operator(kind, dim, seed)
    assert is_normal(t).sampled_value == _reference_sampled_value(t)


def test_sampled_normality_matches_scalar_loop_at_the_threshold(rng):
    # N + eps E with eps 0.1% either side of the point where the loop's
    # largest deviation crosses the threshold: other draws, or the same
    # draws in another order, move that point by far more
    n = 6
    base = normal_instance(rng, n, "twisted").canon
    e = crandn(rng, n, n)

    def loop(eps):
        return _reference_sampled_value(AntilinearOperator(base + eps * e))

    lo, hi = 0.0, 1e-6
    assert loop(lo) and not loop(hi)
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if loop(mid) else (lo, mid)
    for eps, expected in ((0.999 * lo, True), (1.001 * hi, False)):
        assert loop(eps) == expected
        assert is_normal(AntilinearOperator(base + eps * e)).sampled_value == expected


class TestModulusPolar:
    def test_modulus_examples(self):
        np.testing.assert_allclose(modulus(SHIFT), np.diag([0.0, 1.0]), atol=1e-14)
        np.testing.assert_allclose(modulus(AntilinearOperator(np.eye(2))), np.eye(2), atol=1e-14)
        np.testing.assert_allclose(modulus(DIAG2I), np.diag([2.0, 1.0]), atol=1e-14)

    def test_polar_shift(self):
        p = polar(SHIFT)
        np.testing.assert_allclose(p.u.canon, [[0, 1], [0, 0]], atol=1e-14)
        np.testing.assert_allclose(p.modulus, np.diag([0.0, 1.0]), atol=1e-14)

    def test_polar_identity(self):
        p = polar(AntilinearOperator(np.eye(2)))
        np.testing.assert_allclose(p.u.canon, np.eye(2), atol=1e-14)
        np.testing.assert_allclose(p.modulus, np.eye(2), atol=1e-14)

    def test_polar_zero(self):
        p = polar(AntilinearOperator(np.zeros((2, 3))))
        np.testing.assert_allclose(p.u.canon, np.zeros((2, 3)))
        np.testing.assert_allclose(p.modulus, np.zeros((3, 3)))

    @pytest.mark.parametrize("m,n,r", [(4, 4, 4), (5, 3, 3), (6, 6, 3), (3, 7, 2)])
    def test_polar_invariants(self, rng, m, n, r):
        t = random_rank_deficient(rng, m, n, r)
        a = t.canon
        p = polar(t)
        uc = p.u.canon
        scale = 1 + spectral_norm(a)
        assert spectral_norm(a - uc @ np.conj(p.modulus)) <= 1e-9 * scale
        assert spectral_norm(uc @ uc.conj().T @ uc - uc) <= 1e-8
        assert spectral_norm(p.initial_projector() - ranked_svd(p.modulus).range_projector()) <= 1e-8
        assert spectral_norm(p.final_projector() - ranked_svd(a).range_projector()) <= 1e-8
        # modulus agrees with the definitional psd square root
        np.testing.assert_allclose(
            p.modulus, psd_sqrt(a.T @ a.conj()), atol=1e-9 * scale
        )
        if r == min(m, n) == max(m, n):
            assert spectral_norm(uc.conj().T @ uc - np.eye(n)) <= 1e-10

    def test_commutation_normal(self, rng):
        assert check_polar_commutation(DIAG2I) <= 1e-12
        k = symmetric_unitary(rng, 3)
        assert check_polar_commutation(AntilinearOperator(0.8 * k)) <= 1e-12

    def test_commutation_rejects_nonnormal(self):
        with pytest.raises(NotNormal):
            check_polar_commutation(SHIFT)

    def test_commutation_fails_on_shift_values(self):
        # the two sides differ by norm 1 for the shift
        p = polar(SHIFT)
        lhs = p.u.canon @ np.conj(p.modulus)
        rhs = p.modulus @ p.u.canon
        assert spectral_norm(lhs - rhs) == pytest.approx(1.0)


class TestCNormalCriterion:
    def test_diag_2_i(self):
        ok, residual = c_normal_criterion(DIAG2I)
        assert ok and residual <= 1e-12
        np.testing.assert_allclose(np.conj(modulus(DIAG2I)), np.diag([2.0, 1.0]), atol=1e-14)

    def test_shift(self):
        ok, residual = c_normal_criterion(SHIFT)
        assert not ok
        # L = diag(0,1), R = diag(1,0): residual 1
        assert residual == pytest.approx(1.0)

    def test_agrees_with_is_normal(self, rng):
        for k in range(200):
            n = int(rng.integers(2, 13))
            if k % 2 == 0:
                t = normal_instance(rng, n, NORMAL_FAMILIES[k % 3])
            else:
                t = nonnormal_instance(rng, n)
            assert c_normal_criterion(t)[0] == is_normal(t).value


class TestPowerCommute:
    def test_diag(self):
        assert power_commute(DIAG2I, 3) <= 1e-10

    def test_scaled_antiunitary(self, rng):
        t = AntilinearOperator(1.2 * symmetric_unitary(rng, 4))
        assert power_commute(t, 2) <= 1e-10

    def test_n1_matches_definition(self, rng):
        t = normal_instance(rng, 4, "twisted")
        left, right = gram(t)
        assert power_commute(t, 1) == pytest.approx(
            spectral_norm(left - right), abs=1e-12
        )

    def test_residual_is_the_realified_norm_bitwise(self):
        # twisted_normal d=4 seed 2 at n=2: the complex spectral norm of the
        # residual matrix differs from its realified norm in the last bits,
        # and the residual is the realified one
        t = gen_operator("twisted_normal", 4, 2)
        letters = (t.canon, 1), (t.adjoint().canon, 1)
        tn = sn = (np.eye(4), 0)
        for _ in range(2):
            tn, sn = _parity_product(letters[0], tn), _parity_product(letters[1], sn)
        diff = _parity_product(tn, sn)[0] - _parity_product(sn, tn)[0]
        assert spectral_norm(diff) != op_norm(diff)
        assert power_commute(t, 2) == op_norm(diff)

    def test_rejects(self):
        with pytest.raises(NotNormal):
            power_commute(SHIFT, 2)
        with pytest.raises(ValueError):
            power_commute(DIAG2I, 0)


class TestMoorePenrose:
    def test_shift(self):
        mp = moore_penrose(SHIFT)
        np.testing.assert_allclose(mp.dagger.canon, [[0, 0], [1, 0]], atol=1e-14)
        assert max(mp.residuals.values()) <= 1e-12

    def test_conjugation(self):
        mp = moore_penrose(AntilinearOperator(np.eye(2)))
        np.testing.assert_allclose(mp.dagger.canon, np.eye(2), atol=1e-14)

    def test_diag_2_i(self):
        mp = moore_penrose(DIAG2I)
        np.testing.assert_allclose(mp.dagger.canon, np.diag([0.5, 1j]), atol=1e-14)

    @pytest.mark.parametrize("m,n,r", [(4, 4, 2), (5, 3, 3), (3, 6, 2), (1, 1, 1)])
    def test_constructions_agree(self, rng, m, n, r):
        t = random_rank_deficient(rng, m, n, r)
        mp = moore_penrose(t)
        assert mp.residuals["oracle_agreement"] <= 1e-8 * (
            1 + spectral_norm(mp.dagger.canon)
        )
        assert mp.residuals["left_projector"] <= 1e-8
        assert mp.residuals["right_projector"] <= 1e-8


def _reference_mp_residuals(t, dag) -> dict:
    """The residuals ``moore_penrose`` computed eagerly before they moved to
    a property read on demand, kept as the reference."""
    a = t.canon
    f = factored(t)
    w, vh, r = f.w, f.vh, f.rank
    v = vh.conj().T
    qn = v[:, :r].conj()
    wr = w[:, :r]
    oracle = np.conj(pinv(a))
    p_range = wr @ wr.conj().T
    p_nperp = qn @ qn.conj().T
    return {
        "left_projector": spectral_norm(a @ np.conj(dag) - p_range),
        "oracle_agreement": spectral_norm(dag - oracle),
        "right_projector": spectral_norm(dag @ np.conj(a) - p_nperp),
    }


@pytest.mark.parametrize(
    "m,n,r", [(6, 6, 6), (6, 6, 3), (5, 3, 3), (3, 6, 2), (4, 7, 1), (5, 5, 0)]
)
def test_mp_residuals_match_the_eager_formula(rng, m, n, r):
    if r == 0:
        t = AntilinearOperator(np.zeros((m, n)))
    elif r == min(m, n):
        t = random_antilinear(rng, m, n)
    else:
        t = random_rank_deficient(rng, m, n, r)
    mp = moore_penrose(t)
    want = _reference_mp_residuals(t, mp.dagger.canon)
    got = mp.residuals
    assert list(got) == list(want)
    assert all(np.float64(got[k]).tobytes() == np.float64(want[k]).tobytes() for k in want)


class TestIdentitySuite:
    def test_diag_2_i_all_hold(self):
        suite = identity_suite(DIAG2I)
        assert max(suite.residuals.values()) <= 1e-10
        assert suite.projector_gap <= 1e-12
        assert suite.range_gap <= 1e-12
        assert suite.classification_consistent

    def test_shift_projector_mismatch(self):
        from pq_algebra import compose

        suite = identity_suite(SHIFT)
        assert max(suite.residuals.values()) <= 1e-10
        # T T+ = diag(1,0) while T+ T = diag(0,1); ranges differ likewise
        mp = moore_penrose(SHIFT)
        for prod, want in ((compose(SHIFT, mp.dagger), [1.0, 0.0]),
                           (compose(mp.dagger, SHIFT), [0.0, 1.0])):
            assert not prod.anti.any()
            np.testing.assert_allclose(prod.lin, np.diag(want), atol=1e-14)
        assert suite.projector_gap == pytest.approx(1.0)
        assert suite.range_gap == pytest.approx(1.0)
        assert suite.classification_consistent

    def test_zero_operator(self):
        suite = identity_suite(AntilinearOperator(np.zeros((3, 3))))
        assert max(suite.residuals.values()) <= 1e-14
        assert suite.classification_consistent

    def test_rectangular(self, rng):
        suite = identity_suite(random_rank_deficient(rng, 5, 3, 2))
        assert max(suite.residuals.values()) <= 1e-8
        assert suite.projector_gap is None


def test_rank_identities(rng):
    # rank(A) = rank(A.T) = rank of both Gram matrices
    for _ in range(100):
        m = int(rng.integers(1, 9))
        n = int(rng.integers(1, 9))
        r = int(rng.integers(0, min(m, n) + 1))
        t = (
            random_rank_deficient(rng, m, n, r)
            if r > 0
            else AntilinearOperator(np.zeros((m, n)))
        )
        left, right = gram(t)
        assert ranked_svd(t.canon).rank == r
        assert ranked_svd(t.canon.T).rank == r
        assert ranked_svd(left).rank == r
        assert ranked_svd(right).rank == r
