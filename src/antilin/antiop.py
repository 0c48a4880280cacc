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
  realified matrices throughout.  :func:`realify_shifted` realifies a
  scalar shift ``T - lam``.

All value types are immutable and every operation is a pure function, so
everything here is safe to share across threads.  Because an operator never
changes, whatever is computed from it can be kept for its lifetime:
:func:`derived` keeps such values on an operator (its realification, its
shift family and its factorizations).
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
        """Adjoint under the pairing conj(<T x, y>) = <x, T# y>: ``self``
        when the canonical matrix equals its transpose bit for bit, so T#
        shares what :func:`derived` keeps on T."""
        a = self.canon
        if a.shape[0] == a.shape[1] and a.tobytes() == a.T.tobytes():
            return self
        return AntilinearOperator(a.T)

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


def _realified(t: AntilinearOperator) -> np.ndarray:
    """``realify(t)``, made once per operator (:func:`derived`) and
    read-only, so every reader of one operator shares one matrix."""

    def compute():
        r = realify(t)
        r.setflags(write=False)
        return r

    return derived(t, "realified", compute)


def _shift_family(t: AntilinearOperator) -> _ShiftFamily:
    """The realified scalar shifts of ``t``
    (:class:`~antilin.matkernel._ShiftFamily`), made once per operator
    (:func:`derived`).

    Raises:
        DimensionMismatch: if ``t`` is not square.
    """
    return derived(t, "shift_family", lambda: _ShiftFamily(_realified(t), t.canon.diagonal()))


def realify_shifted(t: AntilinearOperator, lam: complex) -> np.ndarray:
    """The realification of ``t - lam``, a new array on every call: a
    member of the operator's :func:`_shift_family`.  ``lam`` is not checked
    for finiteness, so a non-finite ``lam`` gives non-finite entries.

    Raises:
        DimensionMismatch: if ``t`` is not square.
    """
    return _shift_family(t).member(lam)
