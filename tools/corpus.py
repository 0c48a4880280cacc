"""Every input of the comparison tools, declared once.

``tools/compare_reports.py`` runs the rows of :func:`compare_rows` in each
of two trees and compares what they record; ``tools/sweep.py`` runs the
rows of :func:`sweep_rows` and lists the failures.  A row is ``(path,
source, argvs)``: the file its invocations read (None if they read none),
how the row writes that file, and the ``antilin`` argvs to run, in order.
The source is one of

* a ``gen`` argv (a list): the file is what it writes with ``--output``;
  compare_reports also records the same argv run to stdout, first;
* a payload (a callable): compare_reports writes what it returns with the
  tree's own ``io.dump_payload`` and records the text as ``write PATH``;
* raw JSON text (a str), written as is;
* None: an earlier row wrote the file, or the argvs read none.

Listing rows runs nothing (``tests/test_corpus.py`` checks the tables in
seconds); :func:`run` is the one in-process runner.  To add an input, add
a table entry or a row to the tool's listing, compare_reports rows after
the last one but before the extreme inputs, which stay last, so the old
records keep their order.  A new generator kind
reaches both grids through ``antilin.generators.KINDS``.
"""

from __future__ import annotations

import contextlib
import io
import traceback
from functools import partial

SEEDS = (0, 1, 2)
COMPARE_DIMS = (4, 16, 32)
SWEEP_DIMS = (2, 4, 8, 16, 24, 32, 48, 64)
SWEEP_BLOCK_DIMS = (2, 4, 8, 16, 32, 64)
OPERATOR_COMMANDS = ("inspect", "identities", "spectrum", "numrange", "extension")
# the kinds whose generator makes T T# = T# T hold by construction
NORMAL_KINDS = ("selfadjoint", "scaled_antiunitary", "twisted_normal", "multiplication")
# the benchmark's factor-heavy shapes, run at d = 128 so that the bulk loader
# and the span basis are compared at the size where they do the most
FACTOR_HEAVY_KINDS = ("selfadjoint", "scaled_antiunitary", "nonnormal", "nilpotent")

# (file stem written by the grid, subcommands, flags): d = 16 seed-0 files, and d = 1
FLAG_VARIANTS = tuple(
    (stem, OPERATOR_COMMANDS, ["--tol", tol])
    for stem in ("twisted_normal-16-s0", "nonnormal-16-s0")   # normal, and not
    for tol in ("1e-6", "1e-30")
) + (
    ("twisted_normal-16-s0", ("inspect",), ["--csv"]),
    ("block-16-s0", ("block",), ["--csv"]),
    ("nonnormal-16-s0", ("numrange",), ["--target", "0.1,0.05"]),
    ("nonnormal-16-s0", ("numrange",), ["--target", "100,0"]),   # outside: exit 2
    ("block-16-s0", ("block",), ["--mu", "0.3+0.1j;1"]),
    ("block-16-s0", ("block",), ["--tol", "1e-6"]),
    ("block-16-s0", ("block",), ["--mu", ";"]),   # lists no shift: exit 2
    # large shifts: 1e4 fails the T1/T2 factorization bounds (ROADMAP item
    # 7); at 1e160 and 1e200j the quadratic complements overflow (exit 2)
    ("block-16-s0", ("block",), ["--mu", "1e4"]),
    ("block-16-s0", ("block",), ["--mu", "1e160"]),
    ("block-16-s0", ("block",), ["--mu", "1e200j"]),
    ("selfadjoint-1-s0", ("numrange",), ["--target", "0.1,0"]),   # exit 2
)
# operator files gen cannot write: (stem, payload kind, dims, seed); symmetric
# unitary conjugations and Gaussian rectangles, each under every operator
# subcommand (spectrum, numrange and extension reject a rectangle) and block (exit 2)
WRITTEN = (
    ("conjugation-4", "conjugation", (4, 4), 0),
    ("conjugation-16", "conjugation", (16, 16), 0),
    ("rect-3x5", "antilinear", (3, 5), 0),
    ("rect-6x2", "antilinear", (6, 2), 0),
)
# the zero operator, a 4x4 file gen cannot write, under every operator
# subcommand: a rank-0 dagger, a zero-radius disk witness, degenerate
# convexity tuples and a span that stops growing at degree 0
ZERO = ("zero-4", (4, 4))
# 3x3 block files gen cannot write, each with one singular square pivot:
# (stem, block, its matrix); the other blocks are Gaussian.  Each runs
# under block with each of SINGULAR_PIVOT_FLAGS, so the skips are compared
SINGULAR_PIVOT_BLOCKS = (
    ("block-f-zero", "f", "zeros"),
    ("block-b-zero", "b", "zeros"),
    ("block-f-ones", "f", "ones"),
    ("block-a-eye", "a", "eye"),   # A - mu is singular at mu = 1
    ("block-a-zero", "a", "zeros"),  # A is singular at mu = 0: no rank link
)
SINGULAR_PIVOT_FLAGS = ([], ["--mu", "1;0.3+0.1j"], ["--tol", "0"])
# operator files written as raw JSON text under inspect, so the loader's
# bulk and per-entry paths and the digest meet text dump_payload never
# writes: (stem, kind, dims, entries text); between them they hold int
# entries, an int beyond 2**53, -0.0, exponent forms and extra whitespace
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
RAW_META = '{"description": "raw text", "generator": "compare_reports", "seed": 0}'
RAW_TEMPLATE = (
    '{ "meta": %s,\n'
    '  "kind": "%s", "dims": %s,\n  "schema": "antilin.operator/v1",\n  "entries": %s }\n'
)
# rectangular blocks (n, m), each run under block with each of RECT_BLOCK_FLAGS
RECT_BLOCKS = ((3, 5), (5, 3), (1, 4), (16, 8))
RECT_BLOCK_FLAGS = ([], ["--mu", "0.3+0.1j;1;0"])
# after the rectangular blocks: shifts with signed-zero parts (passed as
# --mu=..., since the value starts with "-"), then each file under the
# subcommands that reject its kind (exit 2)
MISUSE = (
    ("block-16-s0", ("block",), ["--mu=-0.0-0.5j;0.5-0.0j;-0.0"]),
    ("block-3x5", ("block",), ["--mu=-0.0-0.5j;0.5-0.0j;-0.0"]),
    ("block-16-s0", OPERATOR_COMMANDS, []),
    ("block-3x5", OPERATOR_COMMANDS, []),
    ("twisted_normal-16-s0", ("block",), []),
)
# files no run should crash on, each under inspect: arrays nested past the
# decoder's recursion limit (exit 2), a meta nested 900 deep, which the decoder
# accepts and the digest renders (exit 0), and entries whose squared norm
# overflows a float (exit 2)
EXTREME = (
    ("raw-deep-array", "[" * 100000 + "]" * 100000),
    ("raw-deep-meta", RAW_TEMPLATE % (
        '{"nested": ' + "[" * 900 + "]" * 900 + "}", "antilinear", "[1, 1]", "[[1, 0]]")),
    ("raw-huge-entries", RAW_TEMPLATE % (
        RAW_META, "antilinear", "[2, 2]", "[[1e300, 0], [0, 1e300], [1e300, 0], [0, -1e300]]")),
)


def commands_for(kind: str, every: bool = False) -> tuple:
    """The subcommands run on a file of generator kind ``kind``: ``block``
    on a block file, the operator subcommands on the rest, ``extension``
    only on the normal kinds unless ``every`` (elsewhere it exits 2)."""
    if kind == "block":
        return ("block",)
    return OPERATOR_COMMANDS if every or kind in NORMAL_KINDS else OPERATOR_COMMANDS[:-1]


def gen_argv(kind: str, dim: int, seed: int, dim2=None) -> list:
    """The ``antilin gen`` argv of one file.  A rectangular block names
    ``--dim2`` after ``--dim``; a square one (``dim2`` None) repeats
    ``--dim`` last."""
    argv = ["gen", "--kind", kind, "--dim", str(dim)]
    argv += [] if dim2 is None else ["--dim2", str(dim2)]
    argv += ["--seed", str(seed)]
    return argv + (["--dim2", str(dim)] if kind == "block" and dim2 is None else [])


def runs(path: str, commands, *flags: str) -> list:
    """The argv of each of ``commands`` on ``path``, followed by ``flags``."""
    return [[cmd, "--input", path, *flags] for cmd in commands]


def run(argv: list) -> dict:
    """One in-process ``cli.main`` run: argv, exit code, stdout, stderr.  An
    exception escaping ``main`` (the CLI contract forbids it) is recorded as
    code ``None`` with its traceback, so it hides no other invocation."""
    from antilin.cli import main

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except Exception:
            code = None
            traceback.print_exc()
    return {"argv": argv, "code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def sweep_rows():
    """Every non-block kind at :data:`SWEEP_DIMS`, then ``block`` (n = m) at
    :data:`SWEEP_BLOCK_DIMS`, under :func:`commands_for` with default flags."""
    from antilin.generators import KINDS

    cases = [(k, d, s) for k in KINDS if k != "block" for d in SWEEP_DIMS for s in SEEDS]
    cases += [("block", d, s) for d in SWEEP_BLOCK_DIMS for s in SEEDS]
    for kind, dim, seed in cases:
        path = f"{kind}-d{dim}-s{seed}.json"
        yield path, gen_argv(kind, dim, seed), runs(path, commands_for(kind))


def compare_rows():
    """The inputs of compare_reports, in the order they are recorded."""
    from antilin.generators import KINDS

    op = "ops/{}.json".format   # the path of a file stem
    # (kind, dim, generator seed, --seed of the subcommand, subcommands):
    # every kind at COMPARE_DIMS, each subcommand that applies to it
    cases = [(k, d, s, s, commands_for(k, every=True))
             for k in KINDS for d in COMPARE_DIMS for s in SEEDS]
    # a scan with verdicts near the singularity threshold (it exits 1 with
    # one disagreement), so verdicts only the SVD decides are compared
    cases.append(("block", 64, 1, 0, ("block",)))
    # every probe of the realification, both certificate orders and the per-circle
    # proofs at d = 64, the probe-heavy shapes among them (twisted_normal seed 0
    # has 64 circles and 1032 membership probes; block n = m = 32 is in the grid)
    cases += [(k, 64, s, s, ("spectrum",)) for k in KINDS if k != "block" for s in SEEDS]
    cases += [(k, 128, 0, 0, tuple(c for c in commands_for(k) if c != "spectrum"))
              for k in FACTOR_HEAVY_KINDS]
    cases.append(("selfadjoint", 1, 0, 0, ("numrange",)))   # the range is a circle
    for kind, dim, seed, run_seed, cmds in cases:
        path = op(f"{kind}-{dim}-s{seed}")
        yield path, gen_argv(kind, dim, seed), runs(path, cmds, "--seed", str(run_seed))
    for stem, cmds, flags in FLAG_VARIANTS:
        yield op(stem), None, runs(op(stem), cmds, *flags)
    for stem, kind, dims, seed in WRITTEN:
        yield (op(stem), partial(operator_payload, kind, dims, seed),
               runs(op(stem), OPERATOR_COMMANDS + ("block",)))
    for stem, name, fill in SINGULAR_PIVOT_BLOCKS:
        yield (op(stem), partial(singular_pivot_payload, name, fill),
               [["block", "--input", op(stem), *f] for f in SINGULAR_PIVOT_FLAGS])
    for stem, kind, dims, entries in RAW:
        yield op(stem), RAW_TEMPLATE % (RAW_META, kind, dims, entries), runs(op(stem), ("inspect",))
    for n, m in RECT_BLOCKS:
        path = op(f"block-{n}x{m}")
        yield path, gen_argv("block", n, 0, m), [
            ["block", "--input", path, *f] for f in RECT_BLOCK_FLAGS]
    for stem, cmds, flags in MISUSE:
        yield op(stem), None, runs(op(stem), cmds, *flags)
    # gen --dim2 on a kind without blocks, and a negative seed (exit 2)
    yield None, None, [["gen", "--kind", "selfadjoint", "--dim", "2", "--dim2", "7"]]
    yield op("twisted_normal-16-s0"), None, runs(
        op("twisted_normal-16-s0"), ("inspect", "spectrum"), "--seed", "-1")
    yield None, None, [gen_argv("selfadjoint", 2, -1)]
    stem, dims = ZERO
    yield op(stem), partial(zero_payload, dims), runs(op(stem), OPERATOR_COMMANDS)
    for stem, text in EXTREME:
        yield op(stem), text, runs(op(stem), ("inspect",))


def operator_payload(kind: str, dims: tuple, seed: int) -> dict:
    """An operator-file payload of :data:`WRITTEN`, drawn from ``seed``."""
    import numpy as np

    from antilin.generators import crandn, symmetric_unitary
    from antilin.io import SCHEMA, entries_from_matrix

    rng = np.random.default_rng(seed)
    if kind == "conjugation":
        a, generator = symmetric_unitary(rng, dims[0]), "symmetric_unitary"
    else:
        a, generator = crandn(rng, *dims) / np.sqrt(max(dims)), "crandn"
    meta = {"seed": seed, "generator": generator, "description": "compare_reports input"}
    return {"schema": SCHEMA, "kind": kind, "dims": list(dims),
            "entries": entries_from_matrix(a), "meta": meta}


def zero_payload(dims: tuple) -> dict:
    """The all-zero operator-file payload of :data:`ZERO`."""
    import numpy as np

    from antilin.io import SCHEMA, entries_from_matrix

    meta = {"seed": 0, "generator": "zeros", "description": "the zero operator"}
    return {"schema": SCHEMA, "kind": "antilinear", "dims": list(dims),
            "entries": entries_from_matrix(np.zeros(dims, dtype=complex)), "meta": meta}


def singular_pivot_payload(name: str, fill: str) -> dict:
    """A block-file payload of :data:`SINGULAR_PIVOT_BLOCKS`: Gaussian 3x3
    blocks (seed 0) with block ``name`` set to ``fill``."""
    import numpy as np

    from antilin.generators import crandn
    from antilin.io import SCHEMA, entries_from_matrix

    rng = np.random.default_rng(0)
    blocks = {k: crandn(rng, 3, 3) / np.sqrt(3.0) for k in "abfe"}
    fills = {"zeros": np.zeros((3, 3)), "ones": np.ones((3, 3)), "eye": np.eye(3)}
    blocks[name] = fills[fill] + 0j
    meta = {"seed": 0, "generator": "crandn", "description": f"block with {name} = {fill}"}
    return {"schema": SCHEMA, "kind": "block", "dims": [3, 3],
            "blocks": {k: entries_from_matrix(v) for k, v in blocks.items()}, "meta": meta}
