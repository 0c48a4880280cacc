"""Run the verifier over a grid of generated inputs and list every failure.

Usage::

    PYTHONPATH=src python tools/sweep.py [--output FAILS.json]

In a temporary directory the sweep generates every non-block ``antilin gen``
kind at d = 2, 4, 8, 16, 24, 32, 48 and 64 with seeds 0-2 and runs
``inspect``, ``identities``, ``spectrum`` and ``numrange`` on each file,
plus ``extension`` on the normal kinds (the ones whose generator makes
``T T# = T# T`` hold by construction).  Then it runs ``block`` on ``gen
--kind block`` at n = m = 2, 4, 8, 16, 32 and 64 with seeds 0-2.  Every
subcommand runs in process with its default flags.

The output is one JSON object, keys sorted, that maps each
invocation that did not exit 0, written as its argv joined by spaces, to the
names of its failing checks; an invocation that exits 2 maps to
``["exit 2: <message>"]`` instead.  It goes to stdout, or to ``--output``.
Exit code 0 when nothing failed, 1 otherwise.  The whole sweep takes a few
minutes on one core; its largest runs are ``block`` at n = m = 64 and
``spectrum`` at d = 64.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import sys
import tempfile

DIMS = (2, 4, 8, 16, 24, 32, 48, 64)
BLOCK_DIMS = (2, 4, 8, 16, 32, 64)
SEEDS = (0, 1, 2)
OPERATOR_COMMANDS = ("inspect", "identities", "spectrum", "numrange")
NORMAL_KINDS = ("selfadjoint", "scaled_antiunitary", "twisted_normal", "multiplication")


def commands_for(kind: str) -> tuple:
    """The subcommands the sweep runs on a file of generator kind ``kind``."""
    if kind == "block":
        return ("block",)
    return OPERATOR_COMMANDS + (("extension",) if kind in NORMAL_KINDS else ())


def sweep_file(path: str, commands) -> dict:
    """``{argv: [failing checks]}`` of each of ``commands`` run on the
    operator file ``path`` that does not exit 0; empty when all pass."""
    from antilin.cli import main

    fails = {}
    for cmd in commands:
        argv = [cmd, "--input", path]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        if code == 1:
            report = json.loads(out.getvalue())
            fails[" ".join(argv)] = [c["name"] for c in report["checks"] if not c["pass"]]
        elif code != 0:
            fails[" ".join(argv)] = [f"exit {code}: {err.getvalue().strip()}"]
    return fails


def sweep() -> dict:
    """The failures of the whole grid, generated in the current directory."""
    from antilin.cli import main
    from antilin.generators import KINDS

    cases = [(k, d, s) for k in KINDS if k != "block" for d in DIMS for s in SEEDS]
    cases += [("block", d, s) for d in BLOCK_DIMS for s in SEEDS]
    fails = {}
    for kind, dim, seed in cases:
        path = f"{kind}-d{dim}-s{seed}.json"
        gen = ["gen", "--kind", kind, "--dim", str(dim), "--seed", str(seed), "--output", path]
        if kind == "block":
            gen += ["--dim2", str(dim)]
        if main(gen) != 0:
            raise SystemExit(f"error: {' '.join(gen)} failed")
        fails.update(sweep_file(path, commands_for(kind)))
    return fails


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--output", default=None, help="write the JSON here (default stdout)")
    args = parser.parse_args(argv)
    output = os.path.abspath(args.output) if args.output else None
    with tempfile.TemporaryDirectory() as work:
        cwd = os.getcwd()
        os.chdir(work)
        try:
            fails = sweep()
        finally:
            os.chdir(cwd)
    text = json.dumps(fails, indent=1, sort_keys=True) + "\n"
    if output is None:
        sys.stdout.write(text)
    else:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text)
    return 1 if fails else 0


if __name__ == "__main__":
    raise SystemExit(main())
