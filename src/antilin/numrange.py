"""Numerical range of antilinear operators.

``W(T) = { <T x, x> : ||x|| = 1 }``.  Under the package inner-product
convention the value at ``x`` is ``conj(x).T A conj(x)``, which depends only
on the symmetric part ``B = (A + A.T)/2`` and obeys the phase law
``w(exp(i theta) x) = exp(-2 i theta) w(x)``.

For ``n >= 2`` the set is the closed disk of radius ``sigma_max(B)``
centered at the origin (in particular ``0 in W(T)``): with the Takagi
factorization ``B = U S U.T`` the family ``x = c1 u1 + c2 u2`` has value
``conj(c1)^2 s1 + conj(c2)^2 s2``, so the curve
``x(s) = cos(s) u1 + i sin(s) u2`` sweeps the real segment
``[-s2, s1]`` and phase rotation fills the disk.  For ``n = 1`` the set is
the circle of radius ``|A|`` and 0 is not attained unless ``A = 0``.

The Takagi factorization of the symmetric part is computed once per
operator object: :func:`nr_disk`, :func:`witness_disk` and the fallback of
:func:`witness_segment` share it through :func:`antiop.derived`, the
per-operator cache keyed weakly on the (immutable) operator, so an entry
lives exactly as long as the operator it describes.

The sampling oracle :func:`sample_sup` bounds the radius without that
factorization.  Its RNG stream is that of the whole-array draw
``re + 1j * im``, but it normalizes, multiplies and reduces the samples in
blocks of ``_BLOCK`` columns, so beyond the two draws its working set is
O(n * _BLOCK).  Each block states the operand order of its product
explicitly: numpy's temporary elision turns ``a * (b @ a)`` into ``(b @ a)
* a`` once the temporary holds 256 KiB, the two orders round differently,
and a block keeps the order that the whole-array product had, so every
sampled value is bitwise the unblocked one.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

import numpy as np

from .antiop import AntilinearOperator, derived
from .errors import DimensionMismatch, DimensionOne, NotUnit, OutsideRange
from .matkernel import TakagiFactorization, takagi

UNIT_ATOL = 1e-12     # | ||x|| - 1 | a unit vector may miss by
RADIUS_ATOL = 1e-10   # |target| a disk witness may exceed the radius by
WITNESS_ATOL = 1e-8   # |w(x) - target| a segment witness may miss by

_BLOCK = 256                # sample columns per block of sample_sup
_ELIDE_BYTES = 256 * 1024   # numpy's NPY_MIN_ELIDE_BYTES


def _require_square(t: AntilinearOperator) -> None:
    if t.dim_in != t.dim_out:
        raise DimensionMismatch("numerical range requires a square operator")


def _symmetric_part(t: AntilinearOperator) -> np.ndarray:
    _require_square(t)
    a = t.canon
    return 0.5 * (a + a.T)


def _takagi_of(t: AntilinearOperator) -> TakagiFactorization:
    """Takagi factorization of the symmetric part of ``t``, once per operator."""
    return derived(t, "takagi", lambda: takagi(_symmetric_part(t)))


def nr_value(t: AntilinearOperator, x) -> complex:
    """Numerical-range value ``<T x, x>`` at a unit vector ``x``.

    Raises:
        NotUnit: if ``| ||x|| - 1 | > UNIT_ATOL``.
    """
    x = np.asarray(x, dtype=complex)
    if x.shape != (t.dim_in,):
        raise DimensionMismatch(f"vector of length {t.dim_in} expected")
    if abs(np.linalg.norm(x) - 1.0) > UNIT_ATOL:
        raise NotUnit("nr_value requires a unit vector")
    xc = np.conj(x)
    return complex(xc @ (t.canon @ xc))


class NumericalRangeDisk(NamedTuple):
    """Closed origin-centered disk description of W(T).

    ``extremal_vector`` is a unit vector whose value has modulus ``radius``.
    For n = 1 W(T) is the circle of radius ``radius`` rather than the full
    disk.
    """

    radius: float
    extremal_vector: np.ndarray


def nr_disk(t: AntilinearOperator) -> NumericalRangeDisk:
    """Disk characterization: radius ``sigma_max((A + A.T)/2)``.

    The extremal vector is the leading Takagi vector ``u1`` of the symmetric
    part, for which the value equals the radius exactly.
    """
    fac = _takagi_of(t)
    radius = float(fac.sigma[0]) if fac.sigma.size else 0.0
    x = fac.u[:, 0].copy()
    return NumericalRangeDisk(radius=radius, extremal_vector=x)


def witness_disk(t: AntilinearOperator, target: complex) -> np.ndarray:
    """Unit vector whose value equals ``target``, in closed form.

    Solves ``s1 cos(s)^2 - s2 sin(s)^2 = |target|`` on the Takagi curve and
    applies the phase law to rotate onto ``arg(target)``.

    Raises:
        DimensionOne: for n = 1 (only ``|target| = radius`` is achievable).
        OutsideRange: if ``|target| > radius + RADIUS_ATOL``.
    """
    _require_square(t)
    if t.dim_in < 2:
        raise DimensionOne("witness_disk requires dimension at least 2")
    target = complex(target)
    fac = _takagi_of(t)
    s1, s2 = float(fac.sigma[0]), float(fac.sigma[1])
    if abs(target) > s1 + RADIUS_ATOL:
        raise OutsideRange(
            f"|target| = {abs(target):.6g} exceeds the disk radius {s1:.6g}"
        )

    u1, u2 = fac.u[:, 0], fac.u[:, 1]
    denom = s1 + s2
    if denom <= RADIUS_ATOL:
        # radius ~ 0, so W(T) ~ {0}; any unit vector witnesses the target
        return u1.copy()
    c2 = min(max((abs(target) + s2) / denom, 0.0), 1.0)
    x = np.sqrt(c2) * u1 + 1j * np.sqrt(1.0 - c2) * u2
    if abs(target) > 0.0:
        phi = -0.5 * np.angle(target)
        x = np.exp(1j * phi) * x
    return x / np.linalg.norm(x)


class WitnessResult(NamedTuple):
    """Outcome of the convex-combination witness construction."""

    vector: np.ndarray
    value: complex
    target: complex
    used_fallback: bool
    degenerate: bool
    t_param: Optional[float]


def witness_segment(t: AntilinearOperator, x1, x2, lam: float) -> WitnessResult:
    """Witness for ``lam * w(x1) + (1 - lam) * w(x2)`` by the direct
    intermediate-value construction.

    With ``a1 = w(x1) != a2 = w(x2)``, ``c = Re<x1, x2>`` and

    ``beta = (<T x1, x2> + <T x2, x1> - 2 a2 c) / (a1 - a2)``,
    ``r(s) = -s c + sqrt(s^2 c^2 - s^2 + 1)``,
    ``S3(s) = s^2 + beta r(s) s``,

    a root ``s'`` of ``Re S3 = lam`` on [0, 1] is found by bisection
    (bracket width 1e-12) and accepted when ``|Im S3(s')| <= 1e-8 * (1 +
    |beta|)``; the witness is then ``s' x1 + r(s') x2``, unit by
    construction.  When no admissible root exists, or the achieved value
    misses the target by more than ``WITNESS_ATOL``, the closed-form
    :func:`witness_disk` with the same target is used instead and the
    fallback is recorded in the result.

    Degenerate inputs with ``a1 = a2`` return ``x1`` directly (every convex
    combination equals ``a1``).
    """
    if t.dim_in < 2:
        raise DimensionOne("witness_segment requires dimension at least 2")
    if not 0.0 <= lam <= 1.0:
        raise ValueError("lam must lie in [0, 1]")
    x1 = np.asarray(x1, dtype=complex)
    x2 = np.asarray(x2, dtype=complex)
    a1 = nr_value(t, x1)
    a2 = nr_value(t, x2)
    target = lam * a1 + (1.0 - lam) * a2

    if abs(a1 - a2) <= 1e-12 * (1.0 + abs(a1) + abs(a2)):
        return WitnessResult(
            vector=x1.copy(), value=a1, target=target,
            used_fallback=False, degenerate=True, t_param=None,
        )

    c = float(np.real(np.vdot(x2, x1)))  # Re<x1, x2> in the package convention
    t12 = complex(np.vdot(x2, t.apply(x1)))   # <T x1, x2>
    t21 = complex(np.vdot(x1, t.apply(x2)))   # <T x2, x1>
    beta = (t12 + t21 - 2.0 * a2 * c) / (a1 - a2)

    # r_of, s3 and f take a scalar or an array of s, elementwise the same
    # floating-point operations either way
    def r_of(s):
        rad = s * s * c * c - s * s + 1.0
        return -s * c + np.sqrt(np.maximum(rad, 0.0))

    def s3(s):
        return s * s + beta * r_of(s) * s

    def f(s):
        return np.real(s3(s)) - lam

    # locate the first grid cell that holds a zero or a sign change of
    # Re S3 - lam on [0, 1], then bisect it
    grid = np.linspace(0.0, 1.0, 1025)
    vals = f(grid)
    zero = vals[:-1] == 0.0
    hits = np.flatnonzero(zero | (vals[:-1] * vals[1:] < 0.0))
    bracket = None
    if hits.size:
        k = hits[0]
        bracket = (grid[k], grid[k] if zero[k] else grid[k + 1])
    elif vals[-1] == 0.0:
        bracket = (grid[-1], grid[-1])

    t_param: Optional[float] = None
    if bracket is not None:
        lo, hi = bracket
        f_lo = f(lo)
        while hi - lo > 1e-12:
            mid = 0.5 * (lo + hi)
            f_mid = f(mid)
            if f_lo * f_mid <= 0.0:
                hi = mid
            else:
                lo, f_lo = mid, f_mid
        t_param = 0.5 * (lo + hi)

    if t_param is not None:
        if abs(float(np.imag(s3(t_param)))) <= 1e-8 * (1.0 + abs(beta)):
            x = t_param * x1 + r_of(t_param) * x2
            nrm = np.linalg.norm(x)
            if nrm > 0.0:
                x = x / nrm
                value = nr_value(t, x)
                if abs(value - target) <= WITNESS_ATOL:
                    return WitnessResult(
                        vector=x, value=value, target=target,
                        used_fallback=False, degenerate=False,
                        t_param=float(t_param),
                    )

    vec = witness_disk(t, target)
    return WitnessResult(
        vector=vec, value=nr_value(t, vec), target=target,
        used_fallback=True, degenerate=False, t_param=t_param,
    )


def _abs_values(b: np.ndarray, x: np.ndarray, swapped: bool) -> np.ndarray:
    """``|w|`` at the unit columns of ``x``: the column sums of ``conj(x) *
    (b conj(x))``, multiplied in the operand order that ``swapped`` names
    (see :func:`sample_sup`)."""
    xc = np.conj(x)
    prod = b @ xc
    if swapped:
        np.multiply(prod, xc, out=prod)
    else:
        prod = xc * prod
    return np.abs(np.sum(prod, axis=0))


def sample_sup(
    t: AntilinearOperator,
    n_samples: int = 2000,
    rng: Optional[np.random.Generator] = None,
    refine: bool = True,
) -> float:
    """Sampled supremum of ``|w(x)|`` over the unit sphere.

    Uniform random samples alone bound the radius from above; for the lower
    bound the best sample is polished by 200 steps of power iteration on the
    linear map ``x -> B conj(B conj(x))`` (``B`` the symmetric part), which
    converges to the top singular space of ``B`` and is independent of the
    Takagi factorization.  A vector ``z`` of that space need not be a Takagi
    vector (for ``B = r K``, ``K`` a conjugation, every vector is in it), so
    the polish completes it: ``x -> B conj(x) / s1`` swaps ``z`` and ``y =
    B conj(z) / ||B conj(z)||`` there, so the longer of ``z + y`` and ``i (z
    - y)``, normalized, is a Takagi vector of value ``s1``.  The polish
    draws nothing from ``rng``.

    The samples are the columns of ``re + 1j * im`` for two
    ``standard_normal((n, n_samples))`` draws, in that order.  They are
    normalized, multiplied and reduced in blocks of ``_BLOCK`` columns, so
    beyond the draws the working set is O(n * _BLOCK) rather than four
    ``n x n_samples`` complex arrays; the polish starts from the best
    column, normalized in its own block.  Each value is bitwise the one of
    the unblocked evaluation ``conj(x) * (B conj(x))``, which numpy
    computes in place as ``(B conj(x)) * conj(x)`` once that product holds
    ``_ELIDE_BYTES`` (temporary elision).  The two operand orders round the
    imaginary part differently, so every block multiplies in the order the
    whole product would have had, whatever the block's own size.  No block
    is one column wide unless ``n_samples`` is 1: numpy multiplies and
    reduces a single column by other kernels.

    Raises:
        ValueError: if ``n_samples < 1``.
    """
    if n_samples < 1:
        raise ValueError(f"n_samples must be at least 1, got {n_samples}")
    b = _symmetric_part(t)
    n = b.shape[0]
    if rng is None:
        rng = np.random.default_rng(0x5A11)
    re = rng.standard_normal((n, n_samples))
    im = rng.standard_normal((n, n_samples))
    swapped = 2 * re.nbytes >= _ELIDE_BYTES   # the whole complex product
    vals = np.empty(n_samples)
    edges = [*range(0, max(n_samples - 1, 1), _BLOCK), n_samples]
    for j0, j1 in zip(edges, edges[1:]):
        x = re[:, j0:j1] + 1j * im[:, j0:j1]
        x /= np.linalg.norm(x, axis=0)
        vals[j0:j1] = _abs_values(b, x, swapped)
        # the best sample so far, the one np.argmax picks over all of vals
        k = int(np.argmax(vals[:j1]))
        if k >= j0:
            z = x[:, k - j0].copy()
    best = float(np.max(vals))
    if refine:
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
