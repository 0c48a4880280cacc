"""Compare the reports of two antilin source trees.

Usage::

    python tools/compare_reports.py OLD_TREE NEW_TREE

Each tree is a checkout root with the package under ``src/``.  For each
tree one worker process (with that tree's ``src`` first on ``PYTHONPATH``)
generates every ``antilin gen`` kind at d = 4, 16, 32 and seeds 0-2
(``block`` with ``--dim2`` equal to ``--dim``) and runs every subcommand that applies
to the file: ``block`` on block files, ``inspect``, ``identities``,
``spectrum``, ``numrange`` and ``extension`` on the rest, each with
``--seed`` equal to the generator seed.  It also runs ``block --seed 0`` on
``gen --kind block --dim 64 --dim2 64 --seed 1``, whose scan has verdicts
near the singularity threshold (it exits 1 with one scan disagreement), so
verdicts that only the SVD can decide are compared on every run.  It runs
``spectrum`` at d = 64 on every operator kind and seeds 0-2 (generator and
subcommand seed alike), the benchmark's probe-heavy shapes among them
(``twisted_normal`` seed 0 has 64 circles and 1032 membership probes);
``block`` at n = m = 32 seed 0 is already in the grid.  So every probe of
the cached realification, of both certificate orders and of the per-circle
proofs is compared at the size where they do the most.  And it
runs the benchmark's factor-heavy shapes at d = 128 (generator and
subcommand seed 0): ``inspect``, ``identities`` and ``numrange`` on
``selfadjoint``, ``scaled_antiunitary``, ``nonnormal`` and ``nilpotent``,
and ``extension`` on the two normal kinds among them, so the bulk loader
and the span basis are compared at the size where they do the most.  It
runs ``numrange`` on ``gen --kind selfadjoint --dim 1`` (seed 0), whose
numerical range is a circle.
Finally it runs the flag variants on d = 16 seed-0 files: ``--tol 1e-6``
and ``--tol 1e-30`` with every operator subcommand on ``twisted_normal``
(normal) and ``nonnormal``, ``--csv``, ``numrange --target`` inside and
outside the disk (exit 2), ``block --mu`` and ``--tol``, ``block --mu ";"``
(a list of no shift, exit 2), the large shifts ``block --mu 1e4`` (which
fails the T1 and T2 factorization bounds) and ``--mu 1e160`` and
``--mu 1e200j`` (whose quadratic complements overflow, exit 2), and
``numrange --target`` on the d = 1 file above (exit 2).  Then the
inputs ``gen`` cannot write, written with the tree's own ``io.dump_payload``
(the file text is compared too): conjugation files (symmetric unitaries at
d = 4 and 16) and rectangular 3x5 and 6x2 operator files, each under every
operator subcommand (``spectrum``, ``numrange`` and ``extension`` reject
a rectangle) and under ``block`` (exit 2).  Then 3x3 blocks with a
singular square pivot (F = 0, B = 0, F all ones, and A = I, whose A - mu is
singular at mu = 1), each under ``block`` plain, with ``--mu "1;0.3+0.1j"``
and with ``--tol 0``, so the skips of singular pivots are compared.  Then
``inspect`` on the operator files of :data:`RAW`, written as raw JSON text
(ints, an int beyond 2**53, ``-0.0``, exponent forms, extra whitespace), so the loader's
bulk and per-entry paths and the input digest are compared on text
``dump_payload`` never writes.  Then the rectangular blocks
``gen --kind block`` 3x5, 5x3, 1x4 and 16x8 under ``block``, plain and
with ``--mu "0.3+0.1j;1;0"``.  Then ``block --mu "-0.0-0.5j;0.5-0.0j;-0.0"``
(passed as ``--mu=...``, since the value starts with ``-``) on the d = 16
seed-0 block and on the 3x5 block, so shifts with signed-zero parts are
compared on the CLI output.  Last, the cross-kind misuse: the d = 16 and
the 3x5 block file under every operator subcommand and a d = 16 operator
file under ``block`` (exit 2), ``gen --dim2`` on a kind without blocks
(exit 2), and ``--seed -1`` under ``inspect``, ``spectrum`` and ``gen``
(exit 2).  Both
workers run in fresh directories of the same name, so the relative
``--input`` paths inside the reports agree.  The comparison requires equal exit codes, equal
stdout bytes and equal stderr for every invocation, the generated files
included; a differing exit code is shown old -> new, and a differing JSON
report names the checks, summary keys and other fields that changed.  Exit
code 0 when nothing differs, 1 otherwise.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path

OPERATOR_COMMANDS = ("inspect", "identities", "spectrum", "numrange", "extension")
DIMS = (4, 16, 32)
SEEDS = (0, 1, 2)
# (kind, dim, generator seed, --seed of the subcommand, subcommands)
NEAR_THRESHOLD = (("block", 64, 1, 0, ("block",)),)
DIMENSION_ONE = (("selfadjoint", 1, 0, 0, ("numrange",)),)
FACTOR_HEAVY = tuple(
    (kind, 128, 0, 0, ("inspect", "identities", "numrange") + extra)
    for kind, extra in (
        ("selfadjoint", ("extension",)),
        ("scaled_antiunitary", ("extension",)),
        ("nonnormal", ()),
        ("nilpotent", ()),
    )
)
# (file written by the grids above, subcommand, flags)
FLAG_VARIANTS = tuple(
    (stem, cmd, ["--tol", tol])
    for stem in ("twisted_normal-16-s0", "nonnormal-16-s0")
    for tol in ("1e-6", "1e-30")
    for cmd in OPERATOR_COMMANDS
) + (
    ("twisted_normal-16-s0", "inspect", ["--csv"]),
    ("block-16-s0", "block", ["--csv"]),
    ("nonnormal-16-s0", "numrange", ["--target", "0.1,0.05"]),
    ("nonnormal-16-s0", "numrange", ["--target", "100,0"]),
    ("block-16-s0", "block", ["--mu", "0.3+0.1j;1"]),
    ("block-16-s0", "block", ["--tol", "1e-6"]),
    ("block-16-s0", "block", ["--mu", ";"]),
    # large shifts: 1e4 fails the T1/T2 factorization bounds (ROADMAP item
    # 7); at 1e160 and 1e200j the quadratic complements overflow (exit 2)
    ("block-16-s0", "block", ["--mu", "1e4"]),
    ("block-16-s0", "block", ["--mu", "1e160"]),
    ("block-16-s0", "block", ["--mu", "1e200j"]),
    ("selfadjoint-1-s0", "numrange", ["--target", "0.1,0"]),
)
# files antilin gen cannot write: (stem, payload kind, dims, seed); the
# conjugations are symmetric unitaries, the operators Gaussian rectangles
WRITTEN = (
    ("conjugation-4", "conjugation", (4, 4), 0),
    ("conjugation-16", "conjugation", (16, 16), 0),
    ("rect-3x5", "antilinear", (3, 5), 0),
    ("rect-6x2", "antilinear", (6, 2), 0),
)
# 3x3 block files gen cannot write, each with one singular square pivot:
# (stem, block, its matrix); the other blocks are Gaussian
SINGULAR_PIVOT_BLOCKS = (
    ("block-f-zero", "f", "zeros"),
    ("block-b-zero", "b", "zeros"),
    ("block-f-ones", "f", "ones"),
    ("block-a-eye", "a", "eye"),   # A - mu is singular at mu = 1
)
SINGULAR_PIVOT_FLAGS = ([], ["--mu", "1;0.3+0.1j"], ["--tol", "0"])
# operator files written as raw JSON text, not as canonical JSON, so the
# loader meets what dump_payload never writes: (stem, kind, dims, entries
# text); between them they hold int entries, an int beyond 2**53, -0.0,
# exponent forms and extra whitespace
RAW = (
    ("raw-ints", "antilinear", "[3, 3]",
     "[[1, 0], [0, 2], [-1, 1], [3, 0], [0, 0], [2, -2], [1, 1], [0, -1], [4, 0]]"),
    ("raw-big-int", "antilinear", "[2,2]",
     "[[1152921504606846976, 0], [0, 1],\n [1, 0], [0, -3]]"),
    ("raw-forms", "antilinear", "[ 2 , 2 ]",
     "[ [-0.0, 1e0],\t[1E-3 ,-0.0 ],\n  [0.5e+1, 2], [1.0e-310, -1e0] ]"),
    ("raw-conjugation", "conjugation", "[2, 2]",
     "[[0, 0], [1, 0],\n [1.0, -0.0], [0e0, 0]]"),
)
RAW_TEMPLATE = (
    '{ "meta": {"description": "raw text", "generator": "compare_reports", "seed": 0},\n'
    '  "kind": "%s", "dims": %s,\n  "schema": "antilin.operator/v1",\n  "entries": %s }\n'
)
# rectangular blocks (n, m), each run plain and with RECT_BLOCK_MU
RECT_BLOCKS = ((3, 5), (5, 3), (1, 4), (16, 8))
RECT_BLOCK_MU = ["--mu", "0.3+0.1j;1;0"]
# shifts with signed-zero parts, each run on these blocks
SIGNED_ZERO_BLOCKS = ("block-16-s0", "block-3x5")
SIGNED_ZERO_MU = ["--mu=-0.0-0.5j;0.5-0.0j;-0.0"]
# a file under a subcommand that rejects its kind: (file stem, subcommands)
CROSS_KIND = (
    ("block-16-s0", OPERATOR_COMMANDS),
    ("block-3x5", OPERATOR_COMMANDS),
    ("twisted_normal-16-s0", ("block",)),
)
# a second dimension for a kind without blocks
DIM2_MISUSE = ["gen", "--kind", "selfadjoint", "--dim", "2", "--dim2", "7"]
# a negative seed, under a subcommand that reads an input and under gen
NEGATIVE_SEED = (
    ["inspect", "--input", "ops/twisted_normal-16-s0.json", "--seed", "-1"],
    ["spectrum", "--input", "ops/twisted_normal-16-s0.json", "--seed", "-1"],
    ["gen", "--kind", "selfadjoint", "--dim", "2", "--seed", "-1"],
)


def _run(main, argv: list) -> dict:
    """One in-process invocation.  An exception escaping ``main`` (which
    the CLI contract forbids) is recorded as exit code ``None`` with its
    traceback on stderr, so one crash does not hide the other invocations."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except Exception:
            code = None
            traceback.print_exc()
    return {"argv": argv, "code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def worker() -> list:
    """Every invocation of one tree, run in process in the current directory."""
    from antilin.cli import main
    from antilin.generators import KINDS
    from antilin.io import dump_payload

    os.makedirs("ops", exist_ok=True)
    cases = [
        (k, d, s, s, ("block",) if k == "block" else OPERATOR_COMMANDS)
        for k in KINDS for d in DIMS for s in SEEDS
    ]
    cases += NEAR_THRESHOLD
    cases += [(k, 64, s, s, ("spectrum",)) for k in KINDS if k != "block" for s in SEEDS]
    cases += FACTOR_HEAVY
    cases += DIMENSION_ONE
    records = []
    for kind, dim, seed, run_seed, cmds in cases:
        path = f"ops/{kind}-{dim}-s{seed}.json"
        gen = ["gen", "--kind", kind, "--dim", str(dim), "--seed", str(seed)]
        if kind == "block":
            gen += ["--dim2", str(dim)]
        records.append(_run(main, gen))
        records.append(_run(main, gen + ["--output", path]))
        for cmd in cmds:
            records.append(_run(main, [cmd, "--input", path, "--seed", str(run_seed)]))
    for stem, cmd, flags in FLAG_VARIANTS:
        records.append(_run(main, [cmd, "--input", f"ops/{stem}.json"] + flags))

    for stem, kind, dims, seed in WRITTEN:
        path = f"ops/{stem}.json"
        text = dump_payload(_written_payload(kind, dims, seed), path)
        records.append({"argv": ["write", path], "code": 0, "stdout": text, "stderr": ""})
        for cmd in OPERATOR_COMMANDS + ("block",):
            records.append(_run(main, [cmd, "--input", path]))
    for stem, name, fill in SINGULAR_PIVOT_BLOCKS:
        path = f"ops/{stem}.json"
        text = dump_payload(_singular_pivot_payload(name, fill), path)
        records.append({"argv": ["write", path], "code": 0, "stdout": text, "stderr": ""})
        for flags in SINGULAR_PIVOT_FLAGS:
            records.append(_run(main, ["block", "--input", path] + flags))
    for stem, kind, dims, entries in RAW:
        path = f"ops/{stem}.json"
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(RAW_TEMPLATE % (kind, dims, entries))
        records.append(_run(main, ["inspect", "--input", path]))
    for n, m in RECT_BLOCKS:
        path = f"ops/block-{n}x{m}.json"
        gen = ["gen", "--kind", "block", "--dim", str(n), "--dim2", str(m), "--seed", "0"]
        records.append(_run(main, gen))
        records.append(_run(main, gen + ["--output", path]))
        records.append(_run(main, ["block", "--input", path]))
        records.append(_run(main, ["block", "--input", path] + RECT_BLOCK_MU))
    for stem in SIGNED_ZERO_BLOCKS:
        records.append(_run(main, ["block", "--input", f"ops/{stem}.json"] + SIGNED_ZERO_MU))
    for stem, cmds in CROSS_KIND:
        for cmd in cmds:
            records.append(_run(main, [cmd, "--input", f"ops/{stem}.json"]))
    records.append(_run(main, DIM2_MISUSE))
    records += [_run(main, argv) for argv in NEGATIVE_SEED]
    return records


def _written_payload(kind: str, dims: tuple, seed: int) -> dict:
    """An operator-file payload of :data:`WRITTEN`, drawn from ``seed``."""
    import numpy as np

    from antilin.generators import crandn, symmetric_unitary
    from antilin.io import SCHEMA, entries_from_matrix

    rng = np.random.default_rng(seed)
    if kind == "conjugation":
        a, generator = symmetric_unitary(rng, dims[0]), "symmetric_unitary"
    else:
        a, generator = crandn(rng, *dims) / np.sqrt(max(dims)), "crandn"
    return {
        "schema": SCHEMA,
        "kind": kind,
        "dims": list(dims),
        "entries": entries_from_matrix(a),
        "meta": {"seed": seed, "generator": generator, "description": "compare_reports input"},
    }


def _singular_pivot_payload(name: str, fill: str) -> dict:
    """A block-file payload of :data:`SINGULAR_PIVOT_BLOCKS`: Gaussian 3x3
    blocks (seed 0) with block ``name`` set to ``fill``."""
    import numpy as np

    from antilin.generators import crandn
    from antilin.io import SCHEMA, entries_from_matrix

    rng = np.random.default_rng(0)
    blocks = {k: crandn(rng, 3, 3) / np.sqrt(3.0) for k in "abfe"}
    fills = {"zeros": np.zeros((3, 3)), "ones": np.ones((3, 3)), "eye": np.eye(3)}
    blocks[name] = fills[fill] + 0j
    return {
        "schema": SCHEMA,
        "kind": "block",
        "dims": [3, 3],
        "blocks": {k: entries_from_matrix(v) for k, v in blocks.items()},
        "meta": {"seed": 0, "generator": "crandn", "description": f"block with {name} = {fill}"},
    }


def run_tree(tree: Path) -> list:
    src = (tree / "src").resolve()
    if not (src / "antilin").is_dir():
        raise SystemExit(f"error: {tree} has no src/antilin")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(src), env.get("PYTHONPATH")) if p)
    with tempfile.TemporaryDirectory() as parent:
        # same directory name for both trees: reports echo the relative paths
        work = Path(parent) / "work"
        work.mkdir()
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--worker"],
            cwd=work, env=env, capture_output=True, text=True,
        )
    if proc.returncode != 0:
        raise SystemExit(f"error: worker for {tree} failed:\n{proc.stderr}")
    payload = json.loads(proc.stdout)
    if Path(payload["package"]).resolve().parent.parent != src:
        raise SystemExit(f"error: worker imported antilin from {payload['package']}")
    return payload["records"]


def _report_changes(old: str, new: str) -> str:
    """`` (in ...)`` naming the checks, summary keys and other top-level
    fields that differ between two JSON reports; empty for other output."""
    try:
        a, b = json.loads(old), json.loads(new)
        checks = [{c["name"]: c for c in r.pop("checks")} for r in (a, b)]
        summaries = [r.pop("summary") for r in (a, b)]
    except (ValueError, TypeError, KeyError, AttributeError):
        return ""
    names = [
        f"{prefix}{k}"
        for prefix, (x, y) in (("check ", checks), ("summary ", summaries), ("", (a, b)))
        for k in sorted(set(x) | set(y))
        if x.get(k) != y.get(k)
    ]
    return f" (in {', '.join(names)})"


def differences(old: list, new: list) -> list:
    if [r["argv"] for r in old] != [r["argv"] for r in new]:
        return ["the two trees ran different invocations"]
    found = []
    for a, b in zip(old, new):
        for field in ("code", "stdout", "stderr"):
            if a[field] != b[field]:
                detail = ""
                if field == "code":
                    detail = f" ({a['code']} -> {b['code']})"
                elif field == "stdout":
                    detail = _report_changes(a["stdout"], b["stdout"])
                found.append(f"{' '.join(a['argv'])}: {field} differs{detail}")
    return found


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("trees", nargs="*", type=Path, help="OLD_TREE NEW_TREE")
    parser.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.worker:
        import antilin

        records = worker()
        json.dump({"package": antilin.__file__, "records": records}, sys.stdout)
        return 0
    if len(args.trees) != 2:
        parser.error("expected two source trees: OLD_TREE NEW_TREE")

    old = run_tree(args.trees[0])
    new = run_tree(args.trees[1])
    found = differences(old, new)
    codes = [r["code"] for r in old]
    print(
        f"{len(old)} invocations (exit 0: {codes.count(0)}, exit 1: {codes.count(1)}, "
        f"exit 2: {codes.count(2)}, crashed: {codes.count(None)}); {len(found)} differences"
    )
    for line in found:
        print(f"  {line}")
    return 1 if found else 0


if __name__ == "__main__":
    raise SystemExit(main())
