"""Properties of the real-linear (P, Q) algebra at d = 1-6, drawn by hypothesis.

Each property holds bitwise, or within a bound derived from the standard
model of floating-point arithmetic: ``fl(x op y) = (x op y)(1 + d)`` with
``|d| <= u = 2**-53`` (Higham, *Accuracy and Stability of Numerical
Algorithms*, 2nd ed., ch. 2-3).  That model fails only on underflow, so the
entries of the bounded properties are zero or of modulus at least 2**-100.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from antilin.antiop import (
    AntilinearOperator,
    RealLinearOperator,
    _parity_product,
    compose,
    realify,
    unrealify,
)

U = 2.0**-53
DIMS = st.integers(1, 6)
# finite floats; those below 2**-100 in modulus read as zero (no underflow)
FLOATS = st.floats(-8.0, 8.0, width=64).map(lambda x: 0.0 if abs(x) < 2.0**-100 else x)
# multiples of 2**-10 below 2**10: their sums, differences and halves are exact
DYADIC = st.integers(-(2**20), 2**20).map(lambda k: k / 1024.0)


def complex_matrices(m: int, n: int, elements=FLOATS):
    return arrays(np.float64, (2, m, n), elements=elements).map(lambda a: a[0] + 1j * a[1])


def operators(m: int, n: int, elements=FLOATS):
    return st.tuples(complex_matrices(m, n, elements), complex_matrices(m, n, elements)).map(
        lambda pq: RealLinearOperator(*pq)
    )


def gamma(k: int) -> float:
    """``gamma_k = k u / (1 - k u)``, the bound of k accumulated roundings."""
    return k * U / (1.0 - k * U)


def size(op: RealLinearOperator) -> float:
    """``||realify(op)||_F = sqrt(2 (||P||_F^2 + ||Q||_F^2))``, from P and Q
    (realify itself rounds), so it is submultiplicative under compose."""
    return float(np.sqrt(2.0 * (np.linalg.norm(op.lin) ** 2 + np.linalg.norm(op.anti) ** 2)))


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_realify_round_trip_is_bitwise_on_dyadic_entries(data):
    m, n = data.draw(DIMS), data.draw(DIMS)
    r = data.draw(arrays(np.float64, (2 * m, 2 * n), elements=DYADIC))
    assert realify(unrealify(r)).tobytes() == r.tobytes()
    op = data.draw(operators(m, n, DYADIC))
    back = unrealify(realify(op))
    assert back.lin.tobytes() == op.lin.tobytes() and back.anti.tobytes() == op.anti.tobytes()


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_realify_round_trip_within_two_roundings(data):
    # each entry a comes back as fl(fl(a + b)/2 + fl(a - b)/2) with b its
    # partner (the r11/r22 and r12/r21 entries pair up), which is within
    # u (2 + u) max(|a|, |b|) of a; general floats do not round-trip
    # bitwise, since a + b and a - b each round
    m, n = data.draw(DIMS), data.draw(DIMS)
    r = data.draw(arrays(np.float64, (2 * m, 2 * n), elements=FLOATS))
    partner = np.block([[r[m:, n:], r[m:, :n]], [r[:m, n:], r[:m, :n]]])
    bound = U * (2.0 + U) * np.maximum(np.abs(r), np.abs(partner))
    assert (np.abs(realify(unrealify(r)) - r) <= bound).all()


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_adjoint_biduality_is_bitwise(data):
    m, n = data.draw(DIMS), data.draw(DIMS)
    finite = st.floats(allow_nan=False, allow_infinity=False, width=64)
    t = AntilinearOperator(data.draw(complex_matrices(m, n, finite)))
    assert t.adjoint().adjoint().canon.tobytes() == t.canon.tobytes()


@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_compose_is_associative_within_the_rounding_bound(data):
    # A computed product C = fl(f o g) has |C - f g| <= gamma_{k+3}
    # (|P1||P2| + |Q1||Q2|, |P1||Q2| + |Q1||P2|) entrywise: a complex inner
    # product of length k errs by gamma_{k+2} (Higham 3.6), and adding the
    # two products rounds once more.  In the norm of :func:`size` that is
    # size(C - f g) <= gamma size(f) size(g), so both association orders lie
    # within gamma (2 + gamma) size(f) size(g) size(h) of the exact f g h.
    m, k1, k2, n = (data.draw(DIMS) for _ in range(4))
    f, g, h = data.draw(operators(m, k1)), data.draw(operators(k1, k2)), data.draw(operators(k2, n))
    left, right = compose(compose(f, g), h), compose(f, compose(g, h))
    gam = gamma(max(k1, k2) + 3)
    gap = RealLinearOperator(left.lin - right.lin, left.anti - right.anti)
    assert size(gap) <= 2.0 * gam * (2.0 + gam) * size(f) * size(g) * size(h)


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_parity_product_is_the_nonzero_part_of_compose(data):
    # on maps of one parity each compose forms four products, three of them
    # of zero matrices; its result is _parity_product's entry for entry (a
    # -0.0 of the product reads +0.0 once compose adds the zero product),
    # and its other part is exactly zero
    m, k, n = data.draw(DIMS), data.draw(DIMS), data.draw(DIMS)
    pf, pg = data.draw(st.integers(0, 1)), data.draw(st.integers(0, 1))
    mf, mg = data.draw(complex_matrices(m, k)), data.draw(complex_matrices(k, n))
    f = AntilinearOperator(mf) if pf else mf
    g = AntilinearOperator(mg) if pg else mg
    product, parity = _parity_product((mf, pf), (mg, pg))
    composed = compose(f, g)
    own, other = (composed.anti, composed.lin) if parity else (composed.lin, composed.anti)
    assert parity == pf ^ pg
    assert np.array_equal(own, product) and not other.any()
