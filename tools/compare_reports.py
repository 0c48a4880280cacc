"""Compare the reports of two antilin source trees.

Usage::

    python tools/compare_reports.py OLD_TREE NEW_TREE

Each tree is a checkout root with the package under ``src/``.  For each
tree one worker process (with that tree's ``src`` first on ``PYTHONPATH``)
runs the rows of ``corpus.compare_rows`` in process (``tools/corpus.py``
lists each input and why it is there) and records every invocation, the
``gen`` runs and the text of each file written with the tree's own
``io.dump_payload`` included.  Both workers run in fresh directories of the
same name, so the relative ``--input`` paths inside the reports agree.  The
comparison requires equal exit codes, equal stdout bytes and equal stderr
for every invocation; a differing exit code is shown old -> new, and a
differing JSON report names the checks, summary keys and other fields that
changed.  An invocation of the new tree that crashes (an exception escapes
``cli.main``, which the CLI contract forbids) is listed even when the old
tree crashed alike.  Exit code 0 when nothing differs and nothing crashed
in the new tree, 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import corpus  # noqa: E402


def worker() -> list:
    """Every invocation of one tree, run in process in the current directory."""
    from antilin.io import dump_payload

    os.makedirs("ops", exist_ok=True)
    records = []
    for path, source, argvs in corpus.compare_rows():
        if isinstance(source, list):
            records += [corpus.run(source), corpus.run(source + ["--output", path])]
        elif isinstance(source, str):
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(source)
        elif source is not None:
            text = dump_payload(source(), path)
            records.append({"argv": ["write", path], "code": 0, "stdout": text, "stderr": ""})
        records += [corpus.run(argv) for argv in argvs]
    return records


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

        json.dump({"package": antilin.__file__, "records": worker()}, sys.stdout)
        return 0
    if len(args.trees) != 2:
        parser.error("expected two source trees: OLD_TREE NEW_TREE")

    old = run_tree(args.trees[0])
    new = run_tree(args.trees[1])
    found = differences(old, new)
    codes = [r["code"] for r in old]
    crashed = [" ".join(r["argv"]) for r in new if r["code"] is None]
    print(
        f"{len(old)} invocations (exit 0: {codes.count(0)}, exit 1: {codes.count(1)}, "
        f"exit 2: {codes.count(2)}, crashed: {codes.count(None)}); {len(found)} differences"
    )
    for line in found + [f"{argv}: crashes in the new tree" for argv in crashed]:
        print(f"  {line}")
    return 1 if found or crashed else 0


if __name__ == "__main__":
    raise SystemExit(main())
