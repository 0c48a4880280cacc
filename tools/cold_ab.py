"""Alternating cold timings of ``python -m antilin`` from two source trees.

Usage::

    python tools/cold_ab.py OLD_TREE NEW_TREE [--pairs N] --argv "gen --kind selfadjoint --dim 2"
    python tools/cold_ab.py OLD_TREE NEW_TREE [--pairs N] --workload cli-small [--seed S]

Each tree is a checkout root with the package under ``src/``; use exports
without ``__pycache__`` (``git archive``), so that both trees compile
their modules at every start.  Every invocation is one cold child process
``python -m antilin ARGV`` with that tree's ``src`` first on
``PYTHONPATH``, one BLAS thread and no bytecode written.  Its wall time runs
from spawn to reap, so interpreter start-up, imports and teardown count,
and its peak RSS comes from ``wait4``.

The argvs are those given with ``--argv`` (each split like a shell line), or
one pass of a ``perfbench`` workload whose argvs make their own inputs
(``cli-small``: every file is written by the pass's own ``gen``).  A pair
runs every argv once per tree, the two trees in alternation (old first in
even pairs, new first in odd ones).  Each tree runs in its own working
directory of the same name, so relative paths in the argvs, and the
reports that echo them, agree; the files the runs write there are compared
at the end.

For each argv the tool prints the median and quartiles of both trees' wall
times, the pairs the new tree won, the median peak RSS, and whether exit
code, stdout and stderr were identical in every pair; a last row does the
same for whole passes.  Exit code 0 when every invocation and written file
was identical, 1 otherwise.
"""

from __future__ import annotations

import argparse
import filecmp
import os
import shlex
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parents[1]
TREES = ("old", "new")


def child_env(tree: Path) -> dict:
    env = dict(os.environ)
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1",
               PYTHONDONTWRITEBYTECODE="1")
    src = str((tree / "src").resolve())
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return env


def run_cold(argv: list, env: dict, cwd: Path, outdir: Path) -> dict:
    """One cold ``python -m antilin ARGV``: wall time, peak RSS, outputs."""
    out_path, err_path = outdir / "stdout", outdir / "stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "antilin", *argv],
                                cwd=cwd, env=env, stdout=out, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = perf_counter() - start
    return {"wall_s": wall, "rss_mb": usage.ru_maxrss / 1024.0,
            "code": os.waitstatus_to_exitcode(status),
            "stdout": out_path.read_bytes(), "stderr": err_path.read_bytes()}


def workload_argvs(name: str, seed: int) -> list:
    sys.path.insert(0, str(ROOT / "perfbench"))
    from workloads import WORKLOADS

    if name not in WORKLOADS:
        raise SystemExit(f"error: unknown workload {name!r}; expected one of {sorted(WORKLOADS)}")
    files, pass_ = WORKLOADS[name]("ops", seed)
    made = {inv["argv"][inv["argv"].index("--output") + 1]
            for inv in pass_ if inv["cmd"] == "gen"}
    if any(f["path"] not in made for f in files):
        raise SystemExit(f"error: workload {name!r} needs inputs its pass does not write")
    return [inv["argv"] for inv in pass_]


def quartiles(values: list) -> tuple:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def row(label: str, old: list, new: list, rss: tuple, same: str) -> str:
    (o1, om, o3), (n1, nm, n3) = quartiles(old), quartiles(new)
    wins = sum(n < o for o, n in zip(old, new))
    gain = 100.0 * (om - nm) / om if om else 0.0
    return (f"{om * 1e3:8.1f} [{o1 * 1e3:7.1f},{o3 * 1e3:7.1f}] "
            f"{nm * 1e3:8.1f} [{n1 * 1e3:7.1f},{n3 * 1e3:7.1f}] {gain:+6.1f}% "
            f"{wins:3d}/{len(old):<3d} {rss[0]:6.2f} {rss[1]:6.2f}  {same:4s} {label}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("trees", nargs=2, type=Path, help="OLD_TREE NEW_TREE")
    parser.add_argument("--pairs", type=int, default=5, help="alternating pairs per argv")
    parser.add_argument("--argv", action="append", default=[], help="one antilin argv")
    parser.add_argument("--workload", help="run one pass of this perfbench workload")
    parser.add_argument("--seed", type=int, default=0, help="seed of the workload")
    args = parser.parse_args(argv)
    if bool(args.argv) == bool(args.workload):
        parser.error("give either --argv (repeatable) or --workload")
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    for tree in args.trees:
        if not (tree / "src" / "antilin").is_dir():
            parser.error(f"{tree} has no src/antilin")
        if (tree / "src" / "antilin" / "__pycache__").exists():
            print(f"warning: {tree} has cached bytecode; its modules are not compiled cold",
                  file=sys.stderr)
    argvs = ([shlex.split(a) for a in args.argv] if args.argv
             else workload_argvs(args.workload, args.seed))
    envs = {name: child_env(tree) for name, tree in zip(TREES, args.trees)}

    walls = {name: [[] for _ in argvs] for name in TREES}
    rss = {name: [[] for _ in argvs] for name in TREES}
    same = [True] * len(argvs)
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        work = {name: tmp / name / "work" for name in TREES}
        for path in work.values():
            (path / "ops").mkdir(parents=True)
        for pair in range(args.pairs):
            order = TREES if pair % 2 == 0 else TREES[::-1]
            for i, cmd in enumerate(argvs):
                runs = {name: run_cold(cmd, envs[name], work[name], tmp / name)
                        for name in order}
                for name in TREES:
                    walls[name][i].append(runs[name]["wall_s"])
                    rss[name][i].append(runs[name]["rss_mb"])
                same[i] &= all(runs["old"][k] == runs["new"][k]
                               for k in ("code", "stdout", "stderr"))
        files_same = _same_files(work["old"], work["new"])

    print(f"{args.pairs} alternating pairs; wall ms: median [q1,q3] old, new; "
          f"new wins; median peak RSS MB old, new; identical")
    for i, cmd in enumerate(argvs):
        print(row(" ".join(cmd), walls["old"][i], walls["new"][i],
                  (statistics.median(rss["old"][i]), statistics.median(rss["new"][i])),
                  "yes" if same[i] else "NO"))
    passes = {name: [sum(w[p] for w in walls[name]) for p in range(args.pairs)] for name in TREES}
    peak = tuple(max(max(r) for r in rss[name]) for name in TREES)
    print(row(f"whole pass ({len(argvs)} argvs; peak RSS is the maximum)",
              passes["old"], passes["new"], peak, "yes" if all(same) else "NO"))
    print(f"written files identical: {'yes' if files_same else 'NO'}")
    return 0 if all(same) and files_same else 1


def _same_files(a: Path, b: Path) -> bool:
    """Whether the directories hold the same file names with the same bytes."""
    names = sorted(p.relative_to(a) for p in a.rglob("*") if p.is_file())
    if names != sorted(p.relative_to(b) for p in b.rglob("*") if p.is_file()):
        return False
    return all(filecmp.cmp(a / n, b / n, shallow=False) for n in names)


if __name__ == "__main__":
    raise SystemExit(main())
