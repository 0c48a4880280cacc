"""Workload definitions.

A workload is a list of operator files, generated in set-up, and one pass:
the ordered list of ``antilin`` argvs that the closed loop runs cold, one
child at a time.  Every generator seed and ``--seed`` value derives from the
benchmark's ``--seed``; README.md says why each workload exists.
"""

from __future__ import annotations

NORMAL_KINDS = ("selfadjoint", "scaled_antiunitary", "twisted_normal", "multiplication")
VERIFY = ("inspect", "identities", "spectrum", "numrange")


def _op(workdir: str, kind: str, dim: int, seed: int, dim2=None, circles=None) -> dict:
    tag = f"{kind}-{dim}" if dim2 is None else f"{kind}-{dim}x{dim2}"
    f = {"path": f"{workdir}/{tag}.json", "kind": kind, "dim": dim, "seed": seed}
    if dim2 is not None:
        f["dim2"] = dim2
    if circles is not None:
        f["circles"] = circles
    return f


def _verify(cmd: str, f: dict, seed: int) -> dict:
    return {"cmd": cmd, "file": f["path"],
            "argv": [cmd, "--input", f["path"], "--seed", str(seed)]}


def cli_small(workdir: str, seed: int) -> tuple[list, list]:
    """Every gen kind, each file written by a cold ``antilin gen`` and then
    checked by every subcommand that applies to it."""
    dims = {"selfadjoint": 4, "scaled_antiunitary": 8, "twisted_normal": 16,
            "nonnormal": 4, "nilpotent": 8, "multiplication": 16}
    files, pass_ = [], []
    for kind, dim in dims.items():
        f = _op(workdir, kind, dim, seed)
        files.append(f)
        pass_.append({"cmd": "gen", "file": f["path"], "argv": [
            "gen", "--kind", kind, "--dim", str(dim), "--seed", str(seed),
            "--output", f["path"]]})
        cmds = VERIFY + (("extension",) if kind in NORMAL_KINDS else ())
        pass_ += [_verify(cmd, f, seed) for cmd in cmds]
    blk = _op(workdir, "block", 8, seed, dim2=8)
    files.append(blk)
    pass_.append({"cmd": "gen", "file": blk["path"], "argv": [
        "gen", "--kind", "block", "--dim", "8", "--dim2", "8", "--seed", str(seed),
        "--output", blk["path"]]})
    pass_.append(_verify("block", blk, seed))
    return files, pass_


def probe_heavy(workdir: str, seed: int) -> tuple[list, list]:
    """Membership probes: realified SVDs under spectra and blockops.

    The nonnormal operator is drawn with 4 circles (72 probes) and the block
    with 2 circles in its flattened spectrum (78 scan samples), the counts of
    generator seed 0, so that every benchmark seed does the same work."""
    tw = _op(workdir, "twisted_normal", 64, seed)
    nn = _op(workdir, "nonnormal", 64, seed, circles=4)
    blk = _op(workdir, "block", 32, seed, dim2=32, circles=2)
    pass_ = [_verify("spectrum", tw, seed), _verify("spectrum", nn, seed),
             _verify("block", blk, seed)]
    return [tw, nn, blk], pass_


def factor_heavy(workdir: str, seed: int) -> tuple[list, list]:
    """Few large complex factorizations at d=128.  twisted_normal and
    multiplication are trimmed to fit the run length."""
    kinds = ("selfadjoint", "scaled_antiunitary", "nonnormal", "nilpotent")
    files = [_op(workdir, kind, 128, seed) for kind in kinds]
    pass_ = []
    for f in files:
        pass_ += [_verify(cmd, f, seed) for cmd in ("inspect", "identities", "numrange")]
        if f["kind"] in NORMAL_KINDS:
            pass_.append(_verify("extension", f, seed))
    return files, pass_


WORKLOADS = {"cli-small": cli_small, "probe-heavy": probe_heavy, "factor-heavy": factor_heavy}
