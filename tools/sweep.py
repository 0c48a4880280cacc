"""Run the verifier over a grid of generated inputs and list every failure.

Usage::

    PYTHONPATH=src python tools/sweep.py [--output FAILS.json]

In a temporary directory the sweep writes each file of
``corpus.sweep_rows`` (``tools/corpus.py``: every kind at d, or n = m, from
2 to 64, seeds 0-2) with ``antilin gen`` and runs on it, in process and
with default flags, the subcommands ``corpus.commands_for`` names
(``extension`` only on the normal kinds, whose generator makes
``T T# = T# T`` hold by construction).

The output is one JSON object, keys sorted, that maps each
invocation that did not exit 0, written as its argv joined by spaces, to the
names of its failing checks; an invocation that exits 2 maps to
``["exit 2: <message>"]`` instead, and one that crashes to
``["exit None: <traceback>"]``.  It goes to stdout, or to ``--output``.
Exit code 0 when nothing failed, 1 otherwise.  The whole sweep takes about
21 s of wall time (37 s of CPU) on a 2-vCPU x86-64 host with numpy's default
BLAS threads; its largest runs are ``block`` at n = m = 64 and ``spectrum``
at d = 64.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import corpus  # noqa: E402
from corpus import commands_for  # noqa: E402,F401  (the sweep's command sets)


def sweep_file(path: str, commands) -> dict:
    """``{argv: [failing checks]}`` of each of ``commands`` run on the
    operator file ``path`` that does not exit 0; empty when all pass."""
    return failures(corpus.runs(path, commands))


def failures(argvs) -> dict:
    """:func:`sweep_file` for a list of argvs."""
    fails = {}
    for argv in argvs:
        rec = corpus.run(argv)
        if rec["code"] == 1:
            report = json.loads(rec["stdout"])
            fails[" ".join(argv)] = [c["name"] for c in report["checks"] if not c["pass"]]
        elif rec["code"] != 0:
            fails[" ".join(argv)] = [f"exit {rec['code']}: {rec['stderr'].strip()}"]
    return fails


def sweep() -> dict:
    """The failures of the whole grid, generated in the current directory."""
    fails = {}
    for path, gen, argvs in corpus.sweep_rows():
        if corpus.run(gen + ["--output", path])["code"] != 0:
            raise SystemExit(f"error: {' '.join(gen)} failed")
        fails.update(failures(argvs))
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
