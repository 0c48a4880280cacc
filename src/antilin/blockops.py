"""Antilinear 2x2 block operator matrices and their complements.

A block matrix ``[[A, B], [F, E]]`` with purely antilinear entries acts on
``C^n (+) C^m``.  Resolvents such as ``(A - mu)^{-1}`` are real-linear, not
complex-linear, so the module computes in realified coordinates from start
to end: each block is realified once, each shifted block by
:func:`~antilin.antiop.realify_shifted`, each pivot is inverted as a real
matrix, and the complements are products of those real matrices.
Realification is an algebra homomorphism, ``realify(f o g) =
realify(f) realify(g)``, so these are the realifications of

* the Schur complements
  ``S2(mu) = E - mu - F (A - mu)^{-1} B``      (pivot A - mu),
  ``S1(mu) = A - mu - B (E - mu)^{-1} F``      (pivot E - mu),
* the quadratic complements
  ``T2(mu) = B - (A - mu) F^{-1} (E - mu)``    (pivot F),
  ``T1(mu) = F - (E - mu) B^{-1} (A - mu)``    (pivot B).

S1 and T1 of ``[[A, B], [F, E]]`` are S2 and T2 of the swapped matrix
``[[E, F], [B, A]]``, so the code states each formula once, in its S2 or T2
form, and evaluates S1 and T1 on the blocks read in the order E, F, B, A.

Each complement comes with a factorization of the full block matrix into
unitriangular outer factors and a diagonal or antidiagonal middle factor;
in finite dimension these are exact operator identities, verified by
:func:`factorization_residual`.  The spectral correspondences (the spectrum
of the block matrix away from the pivot spectrum equals the zero set of the
complement family) are exercised pointwise by :func:`correspondence_scan`,
and the rank bookkeeping of the factorization at ``mu = 0`` by
:func:`rank_link`.  The scan, :func:`rank_link` and the CLI evaluate every
complement through :func:`complement`, the module's one evaluator.
"""

from __future__ import annotations

from functools import cached_property
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .antiop import AntilinearOperator, _Frozen, _realified, realify_shifted
from .errors import DimensionMismatch, PivotSingular
from .matkernel import (
    SING_TOL,
    _first_phase,
    is_singular,
    singular_values,
    singularity,
    spectral_norm,
)
from .spectra import is_in_spectrum

SELECTORS = ("S1", "S2", "T1", "T2")
# rank_link ranks every matrix against RANK_FLOOR_RTOL * (1 + ||realify(blk)||)
RANK_FLOOR_RTOL = 1e-10


class Pivot:
    """The pivot of a complement: its name and its realified matrix ``r``.

    The pivot test is :func:`~antilin.matkernel.is_singular` on ``r``, then
    LU, which can still find the matrix singular when ``tol`` is 0 or tiny
    (a smallest singular value far below ``eps * ||r||`` passes the test);
    that counts as singular too.  The outcome is kept per ``tol``, and the
    smallest singular value comes from one SVD: the verdict's own, when an
    SVD decided it.  A block keeps its F and B pivots, which do not depend
    on mu; the pivots A - mu and E - mu are made per evaluation.
    """

    def __init__(self, name: str, r: np.ndarray):
        self.name, self.r = name, r
        self._inverses: dict = {}
        self._min_singular: Optional[float] = None

    @property
    def min_singular(self) -> float:
        """Smallest singular value of ``r``, from one SVD made on first
        use: the value a :class:`PivotSingular` names and
        :attr:`ComplementResult.pivot_condition` reports."""
        if self._min_singular is None:
            self._min_singular = singularity(self.r)[0]
        return self._min_singular

    def inverse(self, tol: float = SING_TOL) -> np.ndarray:
        """The real inverse of ``r`` (read-only), tested and computed once
        per ``tol``.

        Raises:
            DimensionMismatch: when ``r`` is not square.
            PivotSingular: when the smallest singular value of ``r`` is at
                or below ``tol * (1 + ||r||)``, or LU finds ``r`` singular.
        """
        if self.r.shape[0] != self.r.shape[1]:
            raise DimensionMismatch(f"{self.name} must be square to invert")
        if tol not in self._inverses:
            singular, _, _, smin = _first_phase(self.r, tol, False)
            if self._min_singular is None:
                self._min_singular = smin
            try:
                inv = None if singular else np.linalg.inv(self.r)
            except np.linalg.LinAlgError:
                inv = None
            if inv is not None:
                inv.setflags(write=False)
            self._inverses[tol] = inv
        if self._inverses[tol] is None:
            raise PivotSingular(self.name, self.min_singular)
        return self._inverses[tol]


class BlockAntilinearMatrix(_Frozen):
    """Blocks a (n x n), b (n x m), f (m x n), e (m x m), all antilinear."""

    a: AntilinearOperator
    b: AntilinearOperator
    f: AntilinearOperator
    e: AntilinearOperator

    def __init__(
        self, a: AntilinearOperator, b: AntilinearOperator,
        f: AntilinearOperator, e: AntilinearOperator,
    ):
        n, m = a.dim_in, e.dim_in
        if a.dim_out != n:
            raise DimensionMismatch("block a must be square")
        if e.dim_out != m:
            raise DimensionMismatch("block e must be square")
        if b.canon.shape != (n, m):
            raise DimensionMismatch(f"block b must be {n}x{m}")
        if f.canon.shape != (m, n):
            raise DimensionMismatch(f"block f must be {m}x{n}")
        for name, block in zip("abfe", (a, b, f, e)):
            object.__setattr__(self, name, block)

    @property
    def n(self) -> int:
        return self.a.dim_in

    @property
    def m(self) -> int:
        return self.e.dim_in

    def flatten(self) -> AntilinearOperator:
        """The (n+m) x (n+m) antilinear operator with the block canonical
        matrix; entrywise conjugation is block compatible, so the block
        assembly of the four canonical matrices is the canonical matrix of
        the assembled operator.  Made once per block: every caller gets the
        same operator, and so the same realification."""
        return self._flat

    @cached_property
    def _flat(self) -> AntilinearOperator:
        top = np.hstack([self.a.canon, self.b.canon])
        bot = np.hstack([self.f.canon, self.e.canon])
        return AntilinearOperator(np.vstack([top, bot]))

    @cached_property
    def _pivots(self) -> dict:
        """The mu-independent pivots F (of T2) and B (of T1), one per block."""
        return {"F": Pivot("F", _realified(self.f)), "B": Pivot("B", _realified(self.b))}

    @cached_property
    def flat_singular_values(self) -> np.ndarray:
        """Singular values of ``realify(self.flatten())``, descending, from
        one SVD made on first use: :func:`rank_link` ranks the flat matrix
        with them and the CLI reads the flat norm from ``[0]``.  The flat
        membership probes of :func:`correspondence_scan` shift the same
        realification."""
        s = singular_values(_realified(self.flatten()))
        s.setflags(write=False)  # shared by every reader of this block
        return s


class ComplementResult(NamedTuple):
    """A Schur or quadratic complement evaluated at ``mu``: its realified
    matrix ``real`` (read-only), its pivot and the pivot's real inverse."""

    real: np.ndarray
    selector: str
    mu: complex
    pivot: Pivot
    pivot_inverse: np.ndarray

    # compared by identity: tuple equality would compare the arrays
    __eq__ = object.__eq__
    __ne__ = object.__ne__
    __hash__ = object.__hash__

    @property
    def pivot_condition(self) -> float:
        """Smallest singular value of the realified pivot, from one SVD made
        on first access per pivot: the complements of one block at every
        mu share its F and B pivots, and with them this value."""
        return self.pivot.min_singular


def _oriented(blk: BlockAntilinearMatrix, selector: str) -> tuple:
    """``(schur, swapped, (a, b, f, e))`` for a selector.

    ``schur`` tells a Schur complement (S2, S1) from a quadratic one (T2,
    T1).  S1 and T1 of ``[[A, B], [F, E]]`` are S2 and T2 of ``[[E, F],
    [B, A]]``, so for them ``swapped`` is true and the blocks come back in
    the order ``(e, f, b, a)``; the complement formulas are then written
    once, in their S2 and T2 form.
    """
    if selector not in SELECTORS:
        raise ValueError(f"unknown selector {selector!r}; expected one of {SELECTORS}")
    swapped = selector in ("S1", "T1")
    blocks = (blk.e, blk.f, blk.b, blk.a) if swapped else (blk.a, blk.b, blk.f, blk.e)
    return selector[0] == "S", swapped, blocks


def complement(
    blk: BlockAntilinearMatrix,
    selector: str,
    mu: complex,
    tol: float = SING_TOL,
) -> ComplementResult:
    """Evaluate the selected complement of ``blk`` at ``mu``.

    The pivot is ``A - mu``, ``E - mu``, ``F`` or ``B``.  F and B do not
    depend on mu, and a block keeps one :class:`Pivot` for each, so each is
    tested and inverted once per block and ``tol``; a singular one raises
    at every mu, naming the same smallest singular value.

    Raises:
        PivotSingular: when the pivot that must be inverted is singular
            (names the pivot and its smallest singular value).
        DimensionMismatch: when the pivot F or B is not square.
        ValueError: when ``selector`` is not one of :data:`SELECTORS`, or
            the complement overflows (a shift too large for the blocks).
    """
    mu = complex(mu)
    schur, swapped, (a, b, f, e) = _oriented(blk, selector)
    if schur:
        pivot = Pivot("E - mu" if swapped else "A - mu", realify_shifted(a, mu))
    else:
        pivot = blk._pivots["B" if swapped else "F"]
    inv = pivot.inverse(tol)
    with np.errstate(over="ignore", invalid="ignore"):
        real = (realify_shifted(e, mu) - _realified(f) @ (inv @ _realified(b)) if schur
                else _realified(b) - realify_shifted(a, mu) @ (inv @ realify_shifted(e, mu)))
    if not np.isfinite(real).all():
        raise ValueError(f"complement {selector} at mu = {mu} has non-finite entries")
    real.setflags(write=False)
    return ComplementResult(
        real=real, selector=selector, mu=mu, pivot=pivot, pivot_inverse=inv
    )


def _layout(x11, x12, x21, x22, swapped: bool) -> np.ndarray:
    """The 2x2 block matrix ``[[x11, x12], [x21, x22]]`` of an oriented
    frame, laid out in the frame of ``[[A, B], [F, E]]``: the swapped
    frame ``[[E, F], [B, A]]`` sits there as ``[[x22, x21], [x12, x11]]``."""
    return np.block([[x22, x21], [x12, x11]] if swapped else [[x11, x12], [x21, x22]])


def factorization_residual(blk: BlockAntilinearMatrix, comp: ComplementResult) -> float:
    """Residual ``||M - L . mid . R||`` of the factorization associated with
    a complement of ``blk`` (its selector, ``mu`` and pivot inverse), where
    ``M = [[realify(A - mu), realify(B)], [realify(F), realify(E - mu)]]``
    and the factors are realified the same way.

    The Schur complements S2/S1 sit in a diagonal middle factor, the
    quadratic complements T2/T1 in an antidiagonal one; the outer factors
    are unitriangular with real-linear off-diagonal entries.  In finite
    dimension the identity is exact, so the residual is pure floating-point
    noise.
    """
    schur, swapped, (a, b, f, e) = _oriented(blk, comp.selector)
    mu, inv = comp.mu, comp.pivot_inverse
    ra, rb, rf, re = realify_shifted(a, mu), _realified(b), _realified(f), realify_shifted(e, mu)
    i_n, i_m = np.eye(ra.shape[0]), np.eye(re.shape[0])
    z_nm, z_mn = np.zeros(rb.shape), np.zeros(rf.shape)
    # (x11, x12, x21, x22) of the left, middle and right factors of S2 or T2
    if schur:
        factors = (
            (i_n, z_nm, rf @ inv, i_m),
            (ra, z_nm, z_mn, comp.real),
            (i_n, inv @ rb, z_mn, i_m),
        )
    else:
        factors = (
            (i_n, ra @ inv, z_mn, i_m),
            (np.zeros(ra.shape), comp.real, rf, np.zeros(re.shape)),
            (i_n, inv @ re, z_mn, i_m),
        )
    left, mid, right = (_layout(*x, swapped) for x in factors)
    return spectral_norm(_layout(ra, rb, rf, re, swapped) - left @ (mid @ right))


class ScanEntry(NamedTuple):
    mu: complex
    selector: str
    member_block: Optional[bool]
    member_complement: Optional[bool]
    skipped_reason: Optional[str] = None

    @property
    def skipped(self) -> bool:
        return self.skipped_reason is not None

    @property
    def agrees(self) -> bool:
        return self.skipped or self.member_block == self.member_complement


class ScanReport(NamedTuple):
    entries: tuple

    @property
    def disagreements(self) -> tuple:
        return tuple(e for e in self.entries if not e.agrees)

    @property
    def agreements(self) -> int:
        return sum(1 for e in self.entries if not e.skipped and e.agrees)

    @property
    def skipped(self) -> int:
        return sum(1 for e in self.entries if e.skipped)

    @property
    def ok(self) -> bool:
        return not self.disagreements


def correspondence_scan(
    blk: BlockAntilinearMatrix, samples: Sequence[complex], tol: float = SING_TOL
) -> ScanReport:
    """Pointwise spectral correspondence between the block matrix and its
    complements.

    For each sample ``mu`` and each selector whose pivot is invertible at
    ``mu``: membership of ``mu`` in the spectrum of the flattened block
    matrix must coincide with membership of 0 in the spectrum of the
    complement.  In finite dimension that is also the point-spectrum
    (nontrivial kernel) correspondence, see
    :data:`~antilin.spectra.CLASSIFICATION_NOTE`.  Samples whose pivot is
    singular are skipped with the reason kept in the entry.

    Both memberships are the verdict of comparing a smallest singular value
    with ``tol * (1 + norm)``, decided by
    :func:`~antilin.matkernel.is_singular` (an SVD only where its bracket
    cannot decide).  The flat membership probes share the block's one
    realification of the flattened matrix
    (:func:`~antilin.antiop.realify_shifted`).  Each complement is evaluated
    by :func:`complement`, as in every other caller, so each
    :class:`Pivot` is tested, inverted and conditioned once per ``tol``:
    the mu-independent pivots F (T2) and B (T1) once per block, and a
    singular one is skipped at every mu with the same reason.
    """
    flat = blk.flatten()
    entries = []
    for mu in samples:
        mu = complex(mu)
        in_flat = is_in_spectrum(flat, mu, tol)
        for sel in SELECTORS:
            try:
                comp = complement(blk, sel, mu, tol)
            except (PivotSingular, DimensionMismatch) as exc:
                entries.append(
                    ScanEntry(
                        mu=mu, selector=sel,
                        member_block=None, member_complement=None,
                        skipped_reason=str(exc),
                    )
                )
                continue
            entries.append(
                ScanEntry(
                    mu=mu, selector=sel,
                    member_block=in_flat,
                    member_complement=is_singular(comp.real, tol),
                )
            )
    return ScanReport(entries=tuple(entries))


def samples_for_radii(
    radii: Sequence[float], rng: np.random.Generator, random_count: int = 50
) -> list:
    """Deterministic scan grid derived from the circle radii of a flattened
    spectrum (ascending, as :func:`~antilin.spectra.antilinear_spectrum`
    gives them): 8 points on each circle, 4 on each between-circle midpoint
    circle, and ``random_count`` uniform random points in a bounding disk.
    Uniform sampling alone almost never lands on the measure-zero spectrum,
    so the on-circle points are what exercises the member branch.
    """
    radii = list(radii)
    samples: list[complex] = []
    for r in radii:
        if r <= 1e-9:
            samples.append(0j)
            continue
        for k in range(8):
            samples.append(r * np.exp(2j * np.pi * k / 8))
    gap_radii = [0.5 * (lo + hi) for lo, hi in zip(radii, radii[1:])]
    if radii:
        if radii[0] > 1e-7:
            gap_radii.append(0.5 * radii[0])
        gap_radii.append(1.5 * radii[-1] + 0.5)
    else:
        gap_radii.append(0.5)
    for r in gap_radii:
        for k in range(4):
            samples.append(r * np.exp(2j * np.pi * (k + 0.5) / 4))
    rmax = (radii[-1] if radii else 1.0) * 1.5 + 1.0
    for _ in range(random_count):
        z = rng.uniform(-rmax, rmax) + 1j * rng.uniform(-rmax, rmax)
        samples.append(complex(z))
    return samples


class RankLinkReport(NamedTuple):
    """Rank bookkeeping from the factorizations at mu = 0.

    With 0 in the resolvent set of the pivot, the outer factors are
    invertible, so ``rank(realify(blk)) = 2n + rank(realify(S2(0)))`` (and
    dually ``2m + rank(realify(S1(0)))`` when E is invertible).
    ``f_rel_bound`` records ``||F A^{-1}||``, the constant that makes the
    relative bound of F by A automatic in finite dimension.
    """

    rank_flat: int
    rank_s2: Optional[int]
    primal_holds: Optional[bool]
    rank_s1: Optional[int]
    dual_holds: Optional[bool]
    f_rel_bound: Optional[float]


def rank_link(blk: BlockAntilinearMatrix, tol: float = SING_TOL) -> RankLinkReport:
    """Check the rank identities extracted from the mu = 0 factorizations.

    Rank decisions for both sides use one scale-aware cutoff
    ``RANK_FLOOR_RTOL * (1 + ||realify(blk)||)`` so that engineered zero
    complements are counted correctly.

    Raises:
        PivotSingular: when ``realify(A)`` is singular (the primal identity
            is the required one; the dual is reported when E is invertible).
    """
    s = blk.flat_singular_values
    floor = RANK_FLOOR_RTOL * (1.0 + float(s[0]))
    rank_flat = int(np.count_nonzero(s > floor))

    try:
        s2 = complement(blk, "S2", 0.0, tol)  # its pivot A - 0 is A itself
    except PivotSingular as exc:
        raise PivotSingular("A", exc.min_singular) from None
    rank_s2 = int(np.count_nonzero(singular_values(s2.real) > floor))
    primal = rank_flat == 2 * blk.n + rank_s2
    f_rel = spectral_norm(_realified(blk.f) @ s2.pivot_inverse)

    rank_s1: Optional[int] = None
    dual: Optional[bool] = None
    try:
        s1 = complement(blk, "S1", 0.0, tol)
    except PivotSingular:
        pass
    else:
        rank_s1 = int(np.count_nonzero(singular_values(s1.real) > floor))
        dual = rank_flat == 2 * blk.m + rank_s1

    return RankLinkReport(
        rank_flat=rank_flat,
        rank_s2=rank_s2,
        primal_holds=primal,
        rank_s1=rank_s1,
        dual_holds=dual,
        f_rel_bound=f_rel,
    )
