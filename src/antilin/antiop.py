"""Conjugations, antilinear operators, and their realification.

Inner product convention
------------------------
The inner product is linear in the FIRST slot and conjugate-linear in the
second: ``<a, b> = sum_i a_i * conj(b_i)``.  With this convention the adjoint
of the antilinear map ``x -> A conj(x)`` is the antilinear map with canonical
matrix ``A.T``, defined by ``conj(<T x, y>) = <x, adjoint(T) y>``.

Representations
---------------
* ``AntilinearOperator`` stores the canonical matrix ``A`` of the action
  ``x -> A conj(x)``.  This is the single source of truth.
* A conjugation is an ``AntilinearOperator`` whose canonical matrix
  :func:`make_conjugation` has validated as an isometric involution
  (``K conj(K) = I`` and ``K* K = I``); it has no type of its own.
* A map of one parity, linear or antilinear, is the pair ``(M, p)`` of the
  action ``x -> M conj^p(x)`` (p = 0 linear, 1 antilinear).  A composition
  of two such maps is again one: ``(M1, p1) o (M2, p2) = (M1 conj^p1(M2),
  p1 xor p2)`` (:func:`_parity_product`), so powers and words of antilinear
  operators are formed on canonical matrices alone.

* ``realify`` represents an antilinear operator as the real ``2m x 2n``
  matrix acting on stacked ``(Re x; Im x)`` coordinates:

  ``[[Re A, Im A], [Im A, -Re A]]``,

  and a linear map ``M`` as ``[[Re M, -Im M], [Im M, Re M]]``
  (:func:`_realify_pair`).  Realification is an algebra homomorphism,
  ``realify(f o g) = realify(f) realify(g)``, so a resolvent, which is
  real-linear but not complex-linear, is the inverse of a realified matrix,
  and the block complements of :mod:`antilin.blockops` are computed on
  realified matrices throughout.

  A scalar shift ``T - lam`` is the real-linear map ``x -> A conj(x) - lam
  x``.  Its linear part ``-lam I`` is diagonal, so it moves only the
  diagonals of the four blocks: :func:`realify_shifted` realifies an
  operator once and patches those 4n entries per shift.

All value types are immutable and every operation is a pure function, so
everything here is safe to share across threads.  Because an operator never
changes, whatever is computed from it can be kept for its lifetime:
:func:`derived` keeps such values on an operator (its realification, its
shift base and its factorizations).
Composite results that are not operators, such as a block matrix or a
Moore-Penrose result, keep their own derived fields with
``functools.cached_property``.
"""

from __future__ import annotations

import weakref
from typing import Callable, Hashable, TypeVar

import numpy as np

from .errors import DimensionMismatch, NotInvolution, NotIsometric
from .matkernel import _as_complex, _ShiftFamily, spectral_norm

# a conjugation matrix K must satisfy K conj(K) = I and K* K = I to this
# absolute spectral-norm tolerance
CONJUGATION_TOL = 1e-10


def _own_matrix(a) -> np.ndarray:
    """A read-only C-order copy of the finite 2-d complex matrix ``a``."""
    m = _as_complex(a).copy(order="C")
    m.setflags(write=False)
    return m


class _Frozen:
    """Base of the package's immutable classes that are not tuples (they
    are weakly referenced, or cache with ``cached_property``): ``__init__``
    sets the fields with ``object.__setattr__``, and any later assignment
    or deletion raises ``AttributeError``.  Equality is identity."""

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class AntilinearOperator(_Frozen):
    """Antilinear map ``x -> canon @ conj(x)`` between C^n and C^m."""

    canon: np.ndarray

    def __init__(self, canon):
        object.__setattr__(self, "canon", _own_matrix(canon))

    @property
    def dim_in(self) -> int:
        return self.canon.shape[1]

    @property
    def dim_out(self) -> int:
        return self.canon.shape[0]

    def apply(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=complex)
        if x.shape != (self.dim_in,):
            raise DimensionMismatch(
                f"vector of length {self.dim_in} expected, got shape {x.shape}"
            )
        return self.canon @ np.conj(x)

    def adjoint(self) -> "AntilinearOperator":
        """Adjoint under the pairing conj(<T x, y>) = <x, T# y>."""
        return AntilinearOperator(self.canon.T)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"AntilinearOperator({self.dim_out}x{self.dim_in})"


_V = TypeVar("_V")

_DERIVED: "weakref.WeakKeyDictionary[object, dict]" = weakref.WeakKeyDictionary()


def derived(t: AntilinearOperator, key: Hashable, compute: Callable[[], _V]) -> _V:
    """``compute()``, evaluated once per operator object and ``key``.

    The cache is keyed weakly on the (immutable) operator object, never on
    its matrix content: an entry lives exactly as long as the operator it
    describes, so nothing carries over from one operator, or one CLI
    invocation, to the next.  ``key`` names the quantity.  A cached value
    must not refer back to ``t`` (that would keep the operator alive), and a
    cached array should be read-only, since every caller receives the same
    object.
    """
    memo = _DERIVED.get(t)
    if memo is None:
        memo = _DERIVED[t] = {}
    if key not in memo:
        memo[key] = compute()
    return memo[key]


def make_conjugation(k) -> AntilinearOperator:
    """The conjugation ``x -> k conj(x)``, after validating ``k``.

    Raises:
        NotInvolution: if ``||k conj(k) - I|| > CONJUGATION_TOL``.
        NotIsometric: if ``||k* k - I|| > CONJUGATION_TOL``.
    """
    k = np.asarray(k, dtype=complex)
    if k.ndim != 2 or k.shape[0] != k.shape[1]:
        raise DimensionMismatch(f"conjugation matrix must be square, got {k.shape}")
    eye = np.eye(k.shape[0])
    if spectral_norm(k @ np.conj(k) - eye) > CONJUGATION_TOL:
        raise NotInvolution("K conj(K) differs from the identity")
    if spectral_norm(k.conj().T @ k - eye) > CONJUGATION_TOL:
        raise NotIsometric("K is not unitary")
    return AntilinearOperator(k)


def _parity_product(f: tuple, g: tuple) -> tuple:
    """``f o g`` (g applied first) for two maps of one parity each, given
    as ``(M, p)`` for ``x -> M conj^p(x)`` (p = 1 antilinear, 0 linear):
    ``(M_f conj^{p_f}(M_g), p_f xor p_g)``."""
    (mf, pf), (mg, pg) = f, g
    return mf @ (np.conj(mg) if pf else mg), pf ^ pg


def _realify_pair(mat: np.ndarray, parity: int) -> np.ndarray:
    """Real 2m x 2n matrix of ``x -> mat conj^parity(x)`` on stacked (Re x;
    Im x) coordinates: ``[[Re M, -Im M], [Im M, Re M]]`` for a linear map,
    ``[[Re M, Im M], [Im M, -Re M]]`` for an antilinear one.

    The four blocks are written straight into one array, each as the IEEE
    sum of the map's part and the zero part of the other parity: the left
    blocks as ``0.0 + Re M`` and ``0.0 + Im M``, which turns a -0.0 into
    +0.0, the negated block as ``0.0 - x`` and the other as ``x - 0.0``,
    which is ``x`` itself.
    """
    m, n = mat.shape
    re, im = mat.real, mat.imag
    r = np.empty((2 * m, 2 * n))
    np.add(re, 0.0, out=r[:m, :n])
    np.add(im, 0.0, out=r[m:, :n])
    if parity:
        r[:m, n:] = im
        np.subtract(0.0, re, out=r[m:, n:])
    else:
        np.subtract(0.0, im, out=r[:m, n:])
        r[m:, n:] = re
    return r


def realify(t: AntilinearOperator) -> np.ndarray:
    """Real 2m x 2n matrix ``[[Re A, Im A], [Im A, -Re A]]`` of ``t`` on
    stacked (Re x; Im x) coordinates (:func:`_realify_pair`)."""
    return _realify_pair(t.canon, 1)


def _shift_base(t: AntilinearOperator):
    """``(family, Re diag(A), Im diag(A))`` for a square ``t``, the arrays
    read-only: a shift moves only the diagonal of the linear part, so only
    the diagonals of the four blocks of ``realify(t)`` move with it, and the
    shifts form one :class:`~antilin.matkernel._ShiftFamily` around
    ``realify(t)``.

    Raises:
        DimensionMismatch: if ``t`` is not square.
    """
    if t.dim_in != t.dim_out:
        raise DimensionMismatch("scalar shift requires a square operator")
    diagonals = (t.canon.real.diagonal().copy(), t.canon.imag.diagonal().copy())
    for a in diagonals:
        a.setflags(write=False)
    return (_ShiftFamily(_realified(t)),) + diagonals


def _realified(t: AntilinearOperator) -> np.ndarray:
    """``realify(t)``, made once per operator (:func:`derived`) and
    read-only, so every reader of one operator shares one matrix."""

    def compute():
        r = realify(t)
        r.setflags(write=False)
        return r

    return derived(t, "realified", compute)


def _shifted_diagonals(t: AntilinearOperator, lams) -> tuple:
    """``(family, diags)``: the family of realified shifts of ``t`` and,
    for each ``lam`` in ``lams``, the 4n entries ``diags[k]`` (shape ``(4,
    n)``) on the diagonals of the four blocks of the realification of ``t -
    lam``, so ``family.fill(out, diags[k])`` is that matrix.

    The linear part of ``t - lam`` has the diagonal ``d = 0.0 - lam * 1.0``
    (a zero diagonal minus the scalar times the identity's), and the blocks'
    diagonals are ``Re d + Re a``, ``Im a - Im d``, ``Im d + Im a`` and ``Re
    d - Re a`` for ``a = diag(A)``, signed zeros included.  An operator
    keeps its family (:func:`derived`).

    Raises:
        DimensionMismatch: if ``t`` is not square.
    """
    family, qr, qi = derived(t, "shift_base", lambda: _shift_base(t))
    d = 0.0 - np.asarray(lams)[:, None] * np.ones(qr.shape[0])
    diags = np.empty((len(d), 4, qr.shape[0]))
    np.add(d.real, qr, out=diags[:, 0])
    np.subtract(qi, d.imag, out=diags[:, 1])
    np.add(d.imag, qi, out=diags[:, 2])
    np.subtract(d.real, qr, out=diags[:, 3])
    return family, diags


def realify_shifted(t: AntilinearOperator, lam: complex) -> np.ndarray:
    """The realification of ``t - lam``, a new array on every call.

    An operator is realified once (:func:`derived`); each shift copies that
    matrix and rewrites only the 4n entries on the diagonals of its four
    blocks (:func:`_shifted_diagonals`).  ``lam`` is not checked for
    finiteness, so a non-finite ``lam`` gives non-finite diagonals.

    Raises:
        DimensionMismatch: if ``t`` is not square.
    """
    family, diags = _shifted_diagonals(t, [lam])
    return family.fill(np.empty_like(family.r0), diags[0])
