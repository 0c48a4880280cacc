import numpy as np
import pytest

from antilin.antiop import AntilinearOperator
from antilin.errors import DimensionOne, NotUnit, OutsideRange
from antilin.generators import symmetric_unitary
from antilin.numrange import (
    _symmetric_part,
    nr_disk,
    nr_value,
    sample_sup,
    witness_disk,
    witness_segment,
)

from conftest import random_antilinear, random_unit

DIAG2I = AntilinearOperator(np.diag([2.0, 1j]))
SHIFT = AntilinearOperator([[0, 1], [0, 0]])


class TestValue:
    def test_conjugation_null_vector(self):
        t = AntilinearOperator(np.eye(2))
        x = np.array([1.0, 1j]) / np.sqrt(2)
        assert abs(nr_value(t, x)) <= 1e-15

    def test_diag(self):
        assert nr_value(DIAG2I, [1.0, 0.0]) == pytest.approx(2.0)
        assert nr_value(DIAG2I, [0.0, 1.0]) == pytest.approx(1j)

    def test_requires_unit(self):
        with pytest.raises(NotUnit):
            nr_value(DIAG2I, [1.0, 1.0])

    def test_phase_law(self, rng):
        t = random_antilinear(rng, 4)
        for _ in range(20):
            x = random_unit(rng, 4)
            theta = float(rng.uniform(0, 2 * np.pi))
            lhs = nr_value(t, np.exp(1j * theta) * x)
            rhs = np.exp(-2j * theta) * nr_value(t, x)
            assert abs(lhs - rhs) <= 1e-12

    def test_depends_only_on_symmetric_part(self, rng):
        a = np.array([[0.0, 1.0], [0.0, 0.0]])
        skew = np.array([[0.0, 0.3j], [-0.3j, 0.0]])
        t1 = AntilinearOperator(a)
        t2 = AntilinearOperator(a + skew)
        for _ in range(10):
            x = random_unit(rng, 2)
            assert abs(nr_value(t1, x) - nr_value(t2, x)) <= 1e-14


class TestDisk:
    def test_shift_radius(self):
        disk = nr_disk(SHIFT)
        assert disk.radius == pytest.approx(0.5)
        assert abs(abs(nr_value(SHIFT, disk.extremal_vector)) - 0.5) <= 1e-12

    def test_conjugation(self):
        disk = nr_disk(AntilinearOperator(np.eye(2)))
        assert disk.radius == pytest.approx(1.0)
        assert nr_value(AntilinearOperator(np.eye(2)), disk.extremal_vector) == pytest.approx(1.0)

    def test_diag_radius(self):
        assert nr_disk(DIAG2I).radius == pytest.approx(2.0)

    def test_extremal_value_random(self, rng):
        for _ in range(20):
            t = random_antilinear(rng, int(rng.integers(1, 9)))
            disk = nr_disk(t)
            assert abs(abs(nr_value(t, disk.extremal_vector)) - disk.radius) <= 1e-10

    def test_sampled_sup_bounds(self, rng):
        for n in (2, 4, 7, 10):
            t = random_antilinear(rng, n)
            disk = nr_disk(t)
            raw = sample_sup(t, n_samples=2000, rng=rng, refine=False)
            assert raw <= disk.radius + 1e-8
            refined = sample_sup(t, n_samples=200, rng=rng, refine=True)
            assert refined >= 0.95 * disk.radius
            assert refined <= disk.radius + 1e-8

    @pytest.mark.parametrize("n", range(2, 17))
    def test_refined_sup_reaches_radius_of_scaled_conjugation(self, n):
        # B = r K: every vector is a top singular vector, so the power
        # iteration leaves the best sample where it is and only the
        # completion z + B conj(z) / r reaches a Takagi vector
        rng = np.random.default_rng(n)
        r = float(rng.uniform(0.5, 2.0))
        t = AntilinearOperator(r * symmetric_unitary(rng, n))
        assert sample_sup(t, n_samples=200, rng=rng, refine=True) >= (1.0 - 1e-12) * r


def _drawn_blocks(rng, n, n_samples):
    """The unit samples of sample_sup, block by block: ``re + 1j * im`` for
    two draws per block of at most 256 columns."""
    blocks = []
    for j0 in range(0, n_samples, 256):
        width = min(256, n_samples - j0)
        x = rng.standard_normal((n, width)) + 1j * rng.standard_normal((n, width))
        blocks.append(x / np.linalg.norm(x, axis=0))
    return blocks


def _reference_sample_sup(t, n_samples, rng, refine):
    """Reference for sample_sup: the same blocks, each evaluated by the same
    expression (a one-column block goes through numpy's matrix-vector
    kernel, so a whole-array product would round differently), then one
    ``np.argmax`` over all values and the same polish."""
    b = _symmetric_part(t)
    blocks = _drawn_blocks(rng, b.shape[0], n_samples)
    vals = []
    for x in blocks:
        xc = np.conj(x)
        prod = b @ xc
        np.multiply(xc, prod, out=prod)
        vals.append(np.abs(np.sum(prod, axis=0)))
    vals = np.concatenate(vals)
    best = float(np.max(vals))
    if refine:
        z = np.hstack(blocks)[:, int(np.argmax(vals))]
        collapsed = False
        for _ in range(200):
            z = b @ np.conj(b @ np.conj(z))
            nrm = np.linalg.norm(z)
            if nrm <= 1e-300:
                collapsed = True
                break
            z = z / nrm
        if not collapsed:
            y = b @ np.conj(z)
            y = y / np.linalg.norm(y)
            u = z + y if np.linalg.norm(z + y) >= np.linalg.norm(z - y) else 1j * (z - y)
            for x in (z, u / np.linalg.norm(u)):
                best = max(best, float(abs(np.conj(x) @ (b @ np.conj(x)))))
    return float(best)


def _assert_reference_bits(t, n_samples, seed):
    for refine in (False, True):
        got = sample_sup(t, n_samples, np.random.default_rng(seed), refine)
        want = _reference_sample_sup(t, n_samples, np.random.default_rng(seed), refine)
        assert got == want, (seed, n_samples, refine)


class TestSampleSupBits:
    # 255-257 and 513 straddle a block edge; 257 and 513 leave a one-column
    # last block
    @pytest.mark.parametrize("n", (1, 2, 8, 9, 81, 82, 128))
    def test_equals_reference(self, n):
        for seed in range(3):
            t = random_antilinear(np.random.default_rng(seed), n)
            for n_samples in (1, 200, 255, 256, 257, 513, 2000):
                _assert_reference_bits(t, n_samples, seed)

    @pytest.mark.parametrize("n", (2, 9, 128))
    def test_lone_last_column_equals_reference(self, n):
        # B = conj(c c^T) for the last sample's direction c makes that
        # sample the best, so the bits of the one-column last block decide
        # the result
        for seed in range(3):
            for n_samples in (257, 513):
                last = _drawn_blocks(np.random.default_rng(seed), n, n_samples)[-1]
                assert last.shape == (n, 1)
                c = np.conj(last[:, 0])
                t = AntilinearOperator(np.conj(np.outer(c, c)))
                _assert_reference_bits(t, n_samples, seed)

    @pytest.mark.parametrize("refine", (False, True))
    @pytest.mark.parametrize("n_samples", (1, 257, 2000))
    def test_consumes_two_whole_draws(self, n_samples, refine):
        # the refined 200-sample call and the convexity tuples of numrange
        # draw from the generator the sampler leaves
        n = 9
        t = random_antilinear(np.random.default_rng(1), n)
        rng, whole = np.random.default_rng(5), np.random.default_rng(5)
        sample_sup(t, n_samples, rng, refine)
        whole.standard_normal((n, n_samples))
        whole.standard_normal((n, n_samples))
        assert rng.standard_normal() == whole.standard_normal()

    @pytest.mark.parametrize("refine", (False, True))
    @pytest.mark.parametrize("n_samples", (0, -1))
    def test_rejects_no_samples(self, n_samples, refine):
        with pytest.raises(ValueError, match="n_samples"):
            sample_sup(DIAG2I, n_samples=n_samples, refine=refine)


class TestWitnessDisk:
    def test_zero_target_conjugation(self):
        t = AntilinearOperator(np.eye(2))
        x = witness_disk(t, 0.0)
        assert abs(nr_value(t, x)) <= 1e-12
        np.testing.assert_allclose(np.abs(x), [1 / np.sqrt(2)] * 2, atol=1e-12)

    def test_extremal_target(self):
        x = witness_disk(DIAG2I, 2.0)
        assert abs(nr_value(DIAG2I, x) - 2.0) <= 1e-12

    def test_complex_target(self):
        target = 1.5 * np.exp(1j * np.pi / 3)
        x = witness_disk(DIAG2I, target)
        assert abs(nr_value(DIAG2I, x) - target) <= 1e-10

    def test_outside_range(self):
        with pytest.raises(OutsideRange):
            witness_disk(DIAG2I, 2.5)

    def test_dimension_one(self):
        with pytest.raises(DimensionOne):
            witness_disk(AntilinearOperator([[2.0]]), 1.0)

    def test_zero_membership_random(self, rng):
        for _ in range(20):
            t = random_antilinear(rng, int(rng.integers(2, 9)))
            assert abs(nr_value(t, witness_disk(t, 0.0))) <= 1e-8

    def test_random_targets(self, rng):
        for _ in range(20):
            t = random_antilinear(rng, int(rng.integers(2, 9)))
            radius = nr_disk(t).radius
            target = radius * np.sqrt(rng.uniform()) * np.exp(2j * np.pi * rng.uniform())
            x = witness_disk(t, target)
            assert abs(nr_value(t, x) - target) <= 1e-8


class TestWitnessPaper:
    def test_orthogonal_pair_halfway(self):
        e1, e2 = np.eye(2)
        res = witness_segment(DIAG2I, e1, e2, 0.5)
        assert not res.used_fallback and not res.degenerate
        assert abs(res.value - (1.0 + 0.5j)) <= 1e-9

    def test_endpoints(self):
        e1, e2 = np.eye(2)
        res0 = witness_segment(DIAG2I, e1, e2, 0.0)
        assert abs(res0.value - 1j) <= 1e-9  # returns x2
        res1 = witness_segment(DIAG2I, e1, e2, 1.0)
        assert abs(res1.value - 2.0) <= 1e-9  # returns x1

    def test_degenerate_values(self):
        t = AntilinearOperator(np.eye(2))
        x1 = np.array([1.0, 0.0])
        x2 = np.array([0.0, 1.0])
        res = witness_segment(t, x1, x2, 0.3)
        assert res.degenerate
        np.testing.assert_allclose(res.vector, x1)

    def test_random_tuples_hit_target(self, rng):
        # the 2 x 2 compression to span{x1, x2} holds every target, so the
        # full-space fallback is never needed on generic tuples
        fallbacks = 0
        for _ in range(100):
            n = int(rng.integers(2, 9))
            t = random_antilinear(rng, n)
            x1, x2 = random_unit(rng, n), random_unit(rng, n)
            lam = float(rng.uniform())
            res = witness_segment(t, x1, x2, lam)
            assert abs(res.value - res.target) <= 1e-7
            assert abs(np.linalg.norm(res.vector) - 1.0) <= 1e-9
            fallbacks += int(res.used_fallback)
        assert fallbacks == 0

    def test_parallel_pair(self, rng):
        # x2 = exp(i theta) x1 spans one line, whose values lie on a circle;
        # the two QR columns still span a plane whose disk holds the chord
        t = random_antilinear(rng, 5)
        x1 = random_unit(rng, 5)
        for theta in (0.3, 1.0, 2.5):
            res = witness_segment(t, x1, np.exp(1j * theta) * x1, 0.4)
            assert not res.used_fallback and not res.degenerate
            assert abs(res.value - res.target) <= 1e-12

    def test_miss_falls_back_to_full_space(self, rng):
        # at |T| ~ 1e12 rounding alone misses the target by more than the
        # absolute WITNESS_ATOL, so the full-space disk witness is recorded
        t = AntilinearOperator(1e12 * random_antilinear(rng, 4).canon)
        x1, x2 = random_unit(rng, 4), random_unit(rng, 4)
        res = witness_segment(t, x1, x2, 0.5)
        assert res.used_fallback and not res.degenerate
        assert abs(res.value - res.target) <= 1e-12 * abs(res.target)

    def test_real_configuration_uses_direct_path(self, rng):
        # a real symmetric canonical matrix and real vectors with
        # Re<x1, x2> >= 0 (arranged via x2 -> -x2, which leaves its value
        # unchanged): the compression succeeds without the fallback
        g = rng.standard_normal((4, 4))
        t = AntilinearOperator(0.5 * (g + g.T))
        for _ in range(20):
            x1 = rng.standard_normal(4)
            x2 = rng.standard_normal(4)
            x1 = x1 / np.linalg.norm(x1)
            x2 = x2 / np.linalg.norm(x2)
            if np.vdot(x2, x1).real < 0:
                x2 = -x2
            lam = float(rng.uniform())
            res = witness_segment(t, x1, x2, lam)
            assert abs(res.value - res.target) <= 1e-8
            if not res.degenerate:
                assert not res.used_fallback


class TestDimensionOneCircle:
    def test_values_on_circle(self, rng):
        t = AntilinearOperator([[1.3 - 0.4j]])
        radius = nr_disk(t).radius
        assert radius == pytest.approx(abs(1.3 - 0.4j))
        vals = []
        for _ in range(100):
            x = random_unit(rng, 1)
            vals.append(nr_value(t, x))
        mods = np.abs(vals)
        assert np.max(np.abs(mods - radius)) <= 1e-12
        assert np.min(mods) >= radius - 1e-12  # zero is never attained
