"""Command-line surface.

Subcommands
-----------
* ``inspect``    adjoint, normality, self-adjointness, modulus, polar and
                 pseudoinverse summary for one operator file.
* ``identities`` the dagger/adjoint/modulus identity suite, the polar
                 commutation and modulus-swap normality criteria, and the
                 power commutation checks.
* ``spectrum``   circle radii with the realification membership crosscheck.
* ``numrange``   numerical-range disk, sampling bounds and witnesses.
* ``block``      complements, factorization residuals, correspondence scan
                 and rank link for a block operator file.
* ``extension``  minimality span criterion against the word-span oracle for
                 a seeded random subspace of the ambient operator.
* ``gen``        seeded instance generation (byte-identical per seed).

:func:`main` owns loading: it parses the flags, loads the input file once
and checks its contract (a block file for ``block`` and an operator or
conjugation file for the rest; a square operator for ``spectrum``,
``numrange`` and ``extension``) before any check runs.  The handlers get
the loaded block matrix or operator and the tolerance table, and compute
only their checks.

At module level this imports only what parsing, loading and emitting
need; each handler imports the modules of its own checks.  Where bytecode
is not cached, every module a process loads is compiled at start-up, so a
cold process compiles only what its subcommand runs.

Exit codes: 0 all checks pass, 1 at least one check failed, 2 malformed
input (a file that nests too deeply included), usage error, a size too
large to allocate or entries whose norms or products overflow the float
range (one-line diagnostic, never a stack trace).
"""

from __future__ import annotations

import argparse
import sys
from math import ceil, isfinite
from typing import TYPE_CHECKING, Optional, Sequence

import numpy as np

from . import __version__
from .antiop import AntilinearOperator
from .errors import AntilinError, NotNormal, PivotSingular
from .generators import KINDS, crandn, gen_payload
from .io import dump_payload, load_operator
from .matkernel import ranked_svd, spectral_norm
from .reporting import BASE_TOLERANCES, Report, emit_csv, emit_json

if TYPE_CHECKING:
    from .blockops import BlockAntilinearMatrix


class _Usage(Exception):
    """Raised for usage-level problems that should exit with code 2."""


def _cx(z: complex) -> list:
    return [float(z.real), float(z.imag)]


# the subcommands that need a square operator, and what they say otherwise
_SQUARE_REQUIRED = {
    "spectrum": "spectrum requires a square operator",
    "numrange": "numrange requires a square operator",
    "extension": "extension requires a square ambient operator",
}


def _load(args, report: Report):
    """The input of a subcommand, with its contract checked before any
    check runs: the block matrix for ``block``, the antilinear operator for
    every other subcommand (a conjugation file loads as its operator).

    Sets ``report.input_digest`` and, for an operator, ``summary["kind"]``.
    """
    loaded = load_operator(args.input)
    report.input_digest = loaded.digest
    is_block = loaded.kind == "block"
    if args.command == "block":
        if not is_block:
            raise _Usage("the 'block' subcommand requires a block operator file")
        return loaded.obj
    if is_block:
        raise _Usage("block operator files are handled by the 'block' subcommand")
    t = loaded.obj
    if args.command in _SQUARE_REQUIRED and t.dim_in != t.dim_out:
        raise _Usage(_SQUARE_REQUIRED[args.command])
    report.summary["kind"] = loaded.kind
    return t


def _pairing_residual(t: AntilinearOperator, rng: np.random.Generator, pairs: int = 100) -> float:
    """Largest ``|conj(<T x, y>) - <x, T# y>|`` over random pairs, with T#
    the package's :meth:`~antilin.antiop.AntilinearOperator.adjoint`."""
    a = t.canon
    m, n = a.shape
    x = crandn(rng, n, pairs)
    y = crandn(rng, m, pairs)
    tx = a @ np.conj(x)
    tsy = t.adjoint().canon @ np.conj(y)
    lhs = np.conj(np.sum(tx * np.conj(y), axis=0))
    rhs = np.sum(x * np.conj(tsy), axis=0)
    return float(np.max(np.abs(lhs - rhs)))


def _min_eig_defect(h: np.ndarray) -> float:
    vals = np.linalg.eigvalsh(0.5 * (h + h.conj().T))
    return float(max(0.0, -vals[0])) if vals.size else 0.0


def cmd_inspect(t: AntilinearOperator, args, report: Report, tols: dict) -> None:
    from . import structure
    from .numrange import nr_disk
    from .spectra import antilinear_spectrum

    rng = np.random.default_rng(args.seed)
    a = t.canon
    scale = structure.canon_norm(t)

    bidual = 0.0 if np.array_equal(t.adjoint().adjoint().canon, a) else 1.0
    report.add("adjoint_biduality", bidual)
    report.add("adjoint_pairing", _pairing_residual(t, rng), scale)

    left, right = structure.gram(t)
    report.add("gram_left_psd", _min_eig_defect(left), scale)
    report.add("gram_right_psd", _min_eig_defect(right), scale)

    p = structure.polar(t)
    report.add("polar_reconstruction", spectral_norm(a - p.u.canon @ np.conj(p.modulus)), scale)
    uc = p.u.canon
    report.add("polar_partial_isometry", spectral_norm(uc @ uc.conj().T @ uc - uc))
    report.add(
        "polar_initial_space",
        spectral_norm(p.initial_projector() - ranked_svd(p.modulus).range_projector()),
    )
    report.add(
        "polar_final_space",
        spectral_norm(p.final_projector() - structure.factored(t).range_projector()),
    )

    mp = structure.moore_penrose(t)
    report.add("mp_left_projector", mp.residuals["left_projector"])
    report.add(
        "mp_oracle_agreement", mp.residuals["oracle_agreement"], spectral_norm(mp.dagger.canon)
    )
    report.add("mp_right_projector", mp.residuals["right_projector"])

    report.summary["dims"] = [t.dim_out, t.dim_in]
    report.summary["canon_norm"] = scale
    if t.dim_in == t.dim_out:
        normal = structure.is_normal(t)
        cn_value, _ = structure.c_normal_criterion(t)
        agree = int(normal.value != normal.sampled_value) + int(normal.value != cn_value)
        report.add("normality_criteria_agree", float(agree))
        report.summary["is_normal"] = bool(normal)
        report.summary["normality_residual"] = normal.residual
        report.summary["is_selfadjoint"] = structure.is_selfadjoint(t)
        report.summary["spectrum_radii"] = list(antilinear_spectrum(t).radii)
        report.summary["numerical_range_radius"] = nr_disk(t).radius


def cmd_identities(t: AntilinearOperator, args, report: Report, tols: dict) -> None:
    from . import structure

    scale = structure.canon_norm(t)

    suite = structure.identity_suite(t, tol=tols["identity"])
    for name, residual in sorted(suite.residuals.items()):
        report.add(f"mp_{name}", residual)
    if suite.classification_consistent is not None:
        report.add("mp_projector_range_consistency", 0.0 if suite.classification_consistent else 1.0)
        report.summary["projector_gap"] = suite.projector_gap
        report.summary["range_gap"] = suite.range_gap

    if t.dim_in == t.dim_out:
        normal = structure.is_normal(t)
        cn_value, cn_residual = structure.c_normal_criterion(t)
        report.add("c_normal_agrees_is_normal", 0.0 if cn_value == normal.value else 1.0)
        report.summary["is_normal"] = bool(normal)
        report.summary["c_normal_residual"] = cn_residual
        if normal:
            report.add("modulus_conjugation_swap", cn_residual, scale)
            report.add("polar_commutation", structure.check_polar_commutation(t), scale)
            for n in (2, 3):
                report.add(f"power_commutation_n{n}", structure.power_commute(t, n), scale)


def cmd_spectrum(t: AntilinearOperator, args, report: Report, tols: dict) -> None:
    from .spectra import CLASSIFICATION_NOTE, spectrum_crosscheck

    check = spectrum_crosscheck(t, phases=8, tol=tols["membership"])
    report.add("crosscheck_disagreements", float(len(check.disagreements)))

    desc = check.spectrum
    eigvals = np.array(desc.eigenvalues, dtype=complex)
    closure = 0.0
    for mu in eigvals:
        closure = max(
            closure,
            float(np.min(np.abs(eigvals - np.conj(mu))) / (1.0 + abs(mu))),
        )
    report.add("eig_conjugation_closure", closure)

    report.summary["radii"] = list(desc.radii)
    report.summary["clamped_eigenvalues"] = [_cx(z) for z in desc.clamped]
    report.summary["members_tested"] = check.members_tested
    report.summary["nonmembers_tested"] = check.nonmembers_tested
    report.summary["classification"] = CLASSIFICATION_NOTE


def cmd_numrange(t: AntilinearOperator, args, report: Report, tols: dict) -> None:
    from .numrange import nr_disk, nr_value, sample_sup, witness_disk, witness_segment

    rng = np.random.default_rng(args.seed)
    if args.target is not None:
        # raises OutsideRange beyond the disk and DimensionOne at n = 1
        target = complex(*args.target)
        report.add("witness_target", abs(nr_value(t, witness_disk(t, target)) - target))
        report.summary["target"] = _cx(target)

    disk = nr_disk(t)
    report.summary["radius"] = disk.radius
    report.add("disk_extremal_value", abs(abs(nr_value(t, disk.extremal_vector)) - disk.radius))

    raw_sup = sample_sup(t, n_samples=2000, rng=rng, refine=False)
    refined_sup = sample_sup(t, n_samples=200, rng=rng, refine=True)
    report.add("disk_upper_bound", max(0.0, raw_sup - disk.radius))

    if t.dim_in >= 2:
        report.add("disk_lower_bound", max(0.0, 0.95 * disk.radius - max(raw_sup, refined_sup)))
        report.add("witness_zero", abs(nr_value(t, witness_disk(t, 0.0))))
        fallbacks = 0
        worst = 0.0
        tuples = 25
        for _ in range(tuples):
            x1 = crandn(rng, t.dim_in)
            x2 = crandn(rng, t.dim_in)
            x1 /= np.linalg.norm(x1)
            x2 /= np.linalg.norm(x2)
            lam = float(rng.uniform())
            res = witness_segment(t, x1, x2, lam)
            # the target is formed here, not read back from the witness
            target = lam * nr_value(t, x1) + (1 - lam) * nr_value(t, x2)
            worst = max(worst, abs(res.value - target))
            fallbacks += int(res.used_fallback)
        report.add("convexity_witness", worst)
        report.summary["convexity_fallback_rate"] = fallbacks / tuples
    else:
        vals = []
        for _ in range(200):
            x = crandn(rng, 1)
            x /= np.linalg.norm(x)
            vals.append(abs(nr_value(t, x)))
        vals_arr = np.array(vals)
        report.add("circle_modulus_spread", float(np.max(np.abs(vals_arr - disk.radius))))
        report.add("circle_zero_gap", float(max(0.0, disk.radius - np.min(vals_arr))))
        report.summary["note"] = "dimension one: the numerical range is a circle"


def cmd_block(blk: BlockAntilinearMatrix, args, report: Report, tols: dict) -> None:
    from .blockops import (
        SELECTORS,
        complement,
        correspondence_scan,
        factorization_residual,
        rank_link,
        samples_for_radii,
    )
    from .spectra import antilinear_spectrum

    rng = np.random.default_rng(args.seed)

    flat_norm = float(blk.flat_singular_values[0])
    if args.mu is not None:
        mus = list(args.mu)
    else:
        mus = [complex(z) for z in crandn(rng, 5) * 2.0]
    skipped = []
    for idx, mu in enumerate(mus):
        report.summary[f"mu_{idx}"] = _cx(mu)
        for sel in SELECTORS:
            try:
                comp = complement(blk, sel, mu, tol=tols["membership"])
            except AntilinError as exc:
                skipped.append(f"{sel} at mu_{idx}: {exc}")
                continue
            report.add(f"factorization_{sel}_mu{idx}", factorization_residual(blk, comp), flat_norm)
            report.summary[f"pivot_condition_{sel}_mu{idx}"] = comp.pivot_condition

    radii = list(antilinear_spectrum(blk.flatten()).radii)
    samples = samples_for_radii(radii, rng)
    scan = correspondence_scan(blk, samples, tol=tols["membership"])
    report.add("scan_disagreements", float(len(scan.disagreements)))
    report.summary["scan_points"] = len(scan.entries)
    report.summary["scan_skipped"] = scan.skipped

    try:
        link = rank_link(blk, tol=tols["membership"])
    except PivotSingular as exc:
        skipped.append(f"rank_link: {exc}")
    else:
        report.add("rank_link_primal", 0.0 if link.primal_holds else 1.0)
        if link.dual_holds is not None:
            report.add("rank_link_dual", 0.0 if link.dual_holds else 1.0)
        report.summary["rank_flat"] = link.rank_flat
        report.summary["f_relative_bound"] = link.f_rel_bound

    report.summary["radii"] = radii
    report.summary["skipped"] = skipped


def cmd_extension(t: AntilinearOperator, args, report: Report, tols: dict) -> None:
    from .extensions import ExtensionProblem, check_extension, minimal_span, word_span_oracle

    big = t.dim_in
    rng = np.random.default_rng(args.seed)
    h = max(1, ceil(big / 2))
    v, _ = np.linalg.qr(crandn(rng, big, h))
    restricted = AntilinearOperator(v.conj().T @ t.canon @ np.conj(v))
    problem = ExtensionProblem(ambient=t, embed=v, restricted=restricted)

    try:
        span = minimal_span(problem)
        oracle = word_span_oracle(problem, max_len=big + 2)
    except NotNormal as exc:
        raise _Usage(str(exc)) from exc

    report.add("span_oracle_agreement", float(abs(span.g_dim - oracle)))
    report.add("span_stabilized_before_cap", 1.0 if span.hit_cap else 0.0)

    residuals = check_extension(problem)
    report.summary.update(
        {
            "ambient_dim": big,
            "subspace_dim": h,
            "g_dim": span.g_dim,
            "is_minimal": span.is_minimal,
            "stabilized_degree": span.stabilized_degree,
            "extension_match_residual": residuals.match,
            "extension_range_leak": residuals.range_leak,
        }
    )


def cmd_gen(args) -> str:
    if args.dim2 is not None and args.kind != "block":
        raise _Usage("--dim2 applies only to --kind block")
    payload = gen_payload(args.kind, args.dim, args.seed, dim2=args.dim2)
    return dump_payload(payload, args.output)


def _parse_mu(text: str) -> list:
    out = []
    for token in text.split(";"):
        token = token.strip()
        if not token:
            continue
        try:
            mu = complex(token)
        except ValueError as exc:
            raise _Usage(f"cannot parse --mu token {token!r}: {exc}") from exc
        if not (isfinite(mu.real) and isfinite(mu.imag)):
            raise _Usage(f"--mu token {token!r} is not finite")
        out.append(mu)
    if not out:
        raise _Usage("--mu lists no shift")
    return out


def _parse_target(text: str) -> tuple[float, float]:
    parts = text.split(",")
    if len(parts) != 2:
        raise _Usage("--target expects RE,IM")
    try:
        re, im = float(parts[0]), float(parts[1])
    except ValueError as exc:
        raise _Usage(f"cannot parse --target {text!r}") from exc
    if not (isfinite(re) and isfinite(im)):
        raise _Usage(f"--target {text!r} is not finite")
    return re, im


# options whose value may begin with "-" (a negative real part); argparse
# reads such a token as an option unless it is a plain negative number
_SIGNED_VALUE_OPTIONS = ("--mu", "--target")


def _attach_signed_values(argv: list) -> list:
    """``argv`` with each ``--mu`` or ``--target`` followed by a token that
    begins with one ``-`` joined into the ``--opt=value`` spelling, which
    argparse reads as the value; a following ``--option`` is left alone."""
    out: list = []
    for token in argv:
        if out and out[-1] in _SIGNED_VALUE_OPTIONS and token[:1] == "-" and token[:2] != "--":
            out[-1] = f"{out[-1]}={token}"
        else:
            out.append(token)
    return out


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="antilin",
        description="Verification toolkit for antilinear operator calculus.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--input", required=True, help="operator file (JSON)")
        p.add_argument("--output", default=None, help="write the report here (default stdout)")
        p.add_argument(
            "--tol", type=float, default=None,
            help="replace every per-check tolerance listed in the report's environment.tolerances",
        )
        p.add_argument("--seed", type=int, default=0, help="seed for sampled checks")
        fmt = p.add_mutually_exclusive_group()
        fmt.add_argument("--json", dest="fmt", action="store_const", const="json")
        fmt.add_argument("--csv", dest="fmt", action="store_const", const="csv")
        p.set_defaults(fmt="json")

    common(sub.add_parser("inspect", help="operator summary and core checks"))
    common(sub.add_parser("identities", help="dagger/adjoint identity suite"))
    common(sub.add_parser("spectrum", help="circle radii with membership crosscheck"))
    p_nr = sub.add_parser("numrange", help="numerical range disk and witnesses")
    common(p_nr)
    p_nr.add_argument("--target", default=None, help="witness target as RE,IM")
    p_blk = sub.add_parser("block", help="block complements, factorizations, scans")
    common(p_blk)
    p_blk.add_argument("--mu", default=None, help="semicolon-separated complex shifts")
    common(sub.add_parser("extension", help="minimality span criterion checks"))

    p_gen = sub.add_parser("gen", help="generate a seeded operator file")
    p_gen.add_argument("--kind", required=True, choices=sorted(KINDS))
    p_gen.add_argument("--dim", type=int, required=True)
    p_gen.add_argument("--dim2", type=int, default=None, help="second dimension (block kind)")
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--output", default=None, help="write the file here (default stdout)")
    return parser


_HANDLERS = {
    "inspect": cmd_inspect,
    "identities": cmd_identities,
    "spectrum": cmd_spectrum,
    "numrange": cmd_numrange,
    "block": cmd_block,
    "extension": cmd_extension,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        args = parser.parse_args(_attach_signed_values(argv))
    except SystemExit as exc:
        # argparse exits 0 on --help; map everything else onto 2
        return 0 if exc.code == 0 else 2

    try:
        if args.seed < 0:
            raise _Usage(f"--seed must be a non-negative integer, got {args.seed}")
        if args.command == "gen":
            text = cmd_gen(args)
            if args.output is None:
                sys.stdout.write(text)
            return 0

        if args.tol is not None and not (isfinite(args.tol) and args.tol >= 0.0):
            raise _Usage(f"--tol must be a finite nonnegative number, got {args.tol!r}")
        if getattr(args, "mu", None) is not None:
            args.mu = _parse_mu(args.mu)
        if getattr(args, "target", None) is not None:
            args.target = _parse_target(args.target)
        tols = (
            dict(BASE_TOLERANCES) if args.tol is None
            else dict.fromkeys(BASE_TOLERANCES, float(args.tol))
        )

        report = Report(
            command=" ".join([args.command] + argv[1:]),
            input_digest="",
            environment={
                "version": __version__,
                "seed": int(args.seed),
                "tolerances": tols,
            },
        )
        with np.errstate(over="raise"):   # an overflow leaves a check undecidable
            _HANDLERS[args.command](_load(args, report), args, report, tols)
        text = emit_csv(report) if args.fmt == "csv" else emit_json(report)
        if args.output is None:
            sys.stdout.write(text)
        else:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(text)
        return 0 if report.overall_pass else 1
    except (_Usage, AntilinError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 2
    except (OverflowError, FloatingPointError) as exc:
        print(f"error: a value overflows the float range: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
