"""Benchmark of the antilin verifier: cold CLI time, with outside-in tracing.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; the package is imported from ``src``.

``--trace 0`` times cold ``python -m antilin <cmd>`` processes, from process
start to exit, in a closed loop with one client: whole passes over the
workload's argvs while they fit in ``--seconds`` (at least one).  Every
invocation is checked: exit code 0/1 matching ``overall_pass``, no traceback,
no timeout, a valid JSON report, and report bytes equal to two traced
in-process runs of the same argv (kernel counts must repeat between those
two runs).  ``--trace 1`` measures the layers instead: import cost in fresh
processes, then one plain and at least two traced in-process passes.

Set-up (generating the operator files and one warm-up invocation) is done
``SETUP_REPEATS`` times and reported as its median.  The last line of
standard output is the result object; the line before it, prefixed
``detail``, holds every metric with its unit, the known-FAIL inventory and
the machine record.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
from time import perf_counter

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from tracer import EIG_FAMILY, LAYERS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CHILD = os.path.join(ROOT, "perfbench", "child.py")
SETUP_REPEATS = 5
IMPORT_REPEATS = 3
INVOCATION_TIMEOUT_S = 60.0
CHILD_TIMEOUT_S = 150.0
WARMUP = ["gen", "--kind", "selfadjoint", "--dim", "2", "--seed", "0"]


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def child_env() -> dict:
    env = dict(os.environ)
    # One BLAS thread: on a shared two-core host a second BLAS thread waits
    # on whichever core the neighbours hold, and cold times then spread by
    # more than the bounds (see README.md, "Steadiness and bounds").
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def spawn(argv: list, stdout_path: str, stderr_path: str, timeout: float) -> dict:
    """Run one child to completion; wall time from spawn to reap."""
    with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
        start = perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdout=out, stderr=err)
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"wall_s": wall, "code": proc.returncode, "rss_kb": usage.ru_maxrss,
            "timed_out": proc.returncode == -9 and wall >= timeout}


def run_child(mode: str, spec: dict, work: str) -> dict:
    spec_path = os.path.join(work, f"{mode}.spec.json")
    out_path = os.path.join(work, f"{mode}.out.json")
    with open(spec_path, "w", encoding="utf-8") as fh:
        json.dump(spec, fh)
    res = spawn([sys.executable, CHILD, mode, spec_path, out_path],
                os.path.join(work, f"{mode}.stdout"), os.path.join(work, f"{mode}.stderr"),
                CHILD_TIMEOUT_S)
    if res["code"] != 0:
        with open(os.path.join(work, f"{mode}.stderr"), encoding="utf-8", errors="replace") as fh:
            tail = fh.read()[-2000:]
        raise BenchError(f"child {mode} exited {res['code']}: {tail}")
    with open(out_path, encoding="utf-8") as fh:
        return json.load(fh)


def antilin_argv(argv: list) -> list:
    return [sys.executable, "-m", "antilin"] + list(argv)


def do_setup(files: list, work: str) -> tuple[list, dict]:
    """SETUP_REPEATS set-ups; returns their times and the first result,
    after checking that every repeat wrote the same files."""
    times, results = [], []
    for _ in range(SETUP_REPEATS):
        start = perf_counter()
        results.append(run_child("setup", {"files": files}, work))
        warm = spawn(antilin_argv(WARMUP), os.path.join(work, "warmup.stdout"),
                     os.path.join(work, "warmup.stderr"), INVOCATION_TIMEOUT_S)
        times.append(perf_counter() - start)
        if warm["code"] != 0:
            raise BenchError(f"warm-up invocation exited {warm['code']}")
    if any(r != results[0] for r in results):
        raise BenchError("set-up repeats wrote different files")
    return times, results[0]


def check_cold(inv: dict, res: dict, work: str) -> tuple[list, str | None]:
    """Failing check names and the first problem with one cold invocation."""
    with open(os.path.join(work, "cold.stderr"), "rb") as fh:
        stderr = fh.read()
    if res["timed_out"]:
        return [], "timeout"
    if res["code"] not in ((0,) if inv["cmd"] == "gen" else (0, 1)):
        return [], f"exit code {res['code']}: {stderr[-300:].decode(errors='replace')}"
    if b"Traceback" in stderr:
        return [], "traceback on stderr"
    if inv["cmd"] == "gen":
        path = os.path.join(ROOT, inv["argv"][inv["argv"].index("--output") + 1])
    else:
        path = os.path.join(work, "cold.stdout")
    with open(path, "rb") as fh:
        data = fh.read()
    res["sha256"] = hashlib.sha256(data).hexdigest()
    try:
        report = json.loads(data)
    except ValueError:
        return [], "report is not valid JSON"
    if inv["cmd"] == "gen":
        return [], None
    failing = [c["name"] for c in report.get("checks", []) if not c["pass"]]
    if report.get("overall_pass") is not (res["code"] == 0):
        return failing, "exit code disagrees with overall_pass"
    return failing, None


def cold_loop(pass_: list, seconds: float, work: str) -> tuple[list, float]:
    records = []
    start = perf_counter()
    pass_time = 0.0
    while not records or perf_counter() - start + pass_time <= seconds:
        t0 = perf_counter()
        for i, inv in enumerate(pass_):
            res = spawn(antilin_argv(inv["argv"]), os.path.join(work, "cold.stdout"),
                        os.path.join(work, "cold.stderr"), INVOCATION_TIMEOUT_S)
            failing, problem = check_cold(inv, res, work)
            records.append(dict(res, i=i, failing=failing, error=problem))
        pass_time = perf_counter() - t0
    return records, perf_counter() - start


def compare_traced(traced: list, errors: dict) -> None:
    """Kernel and span counts of each invocation must repeat exactly."""
    first = traced[0]["summary"]["calls_by_invocation"]
    for p in traced[1:]:
        for i, counts in p["summary"]["calls_by_invocation"].items():
            if counts != first.get(i):
                errors.setdefault(int(i), "span counts differ between traced runs")


def reference_errors(replay: dict) -> dict:
    """argv index -> problem, from the in-process runs alone."""
    errors: dict = {}
    if replay["unpatched"]:
        raise BenchError(f"tracer missed bindings: {replay['unpatched']}")
    passes = replay["plain"] + replay["traced"]
    for p in passes[1:]:
        for i, call in enumerate(p["calls"]):
            if call != passes[0]["calls"][i]:
                errors.setdefault(i, "in-process runs disagree on report bytes")
    compare_traced(replay["traced"], errors)
    return errors


def median_of(values: list) -> float:
    return float(statistics.median(values)) if values else 0.0


def metric(value, unit: str, **extra) -> dict:
    return dict({"value": value, "unit": unit}, **extra)


def end_to_end(records: list, loop_s: float, setup_s: float, pass_: list) -> dict:
    walls = [r["wall_s"] for r in records]
    out = {
        "setup_s": metric(setup_s, "s", samples=SETUP_REPEATS),
        "ops_per_s": metric(len(records) / loop_s, "1/s"),
        "latency_p50_s": metric(median_of(walls), "s", samples=len(walls)),
        "peak_rss_mb": metric(max(r["rss_kb"] for r in records) / 1024.0, "MB"),
    }
    for cmd in sorted({inv["cmd"] for inv in pass_}):
        mine = [r["wall_s"] for r in records if pass_[r["i"]]["cmd"] == cmd]
        out[f"{cmd}_s"] = metric(median_of(mine), "s", samples=len(mine))
    verifying = [r for r in records if pass_[r["i"]]["cmd"] != "gen"]
    out["error_rate"] = metric(sum(1 for r in records if r["error"]) / len(records), "ratio")
    out["verdict_fail_rate"] = metric(
        sum(1 for r in verifying if r["code"] == 1) / max(1, len(verifying)), "ratio")
    return out


def inventory(records: list, pass_: list, files: dict) -> list:
    seen, out = set(), []
    for r in records:
        if r["code"] != 1 or r["i"] in seen:
            continue
        seen.add(r["i"])
        inv = pass_[r["i"]]
        f = files[inv["file"]]
        seed = int(inv["argv"][inv["argv"].index("--seed") + 1])
        out.append({"cmd": inv["cmd"], "kind": f["kind"], "dim": f["dim"],
                    "gen_seed": f["seed"], "seed": seed, "checks": r["failing"]})
    return out


def import_costs(work: str) -> dict:
    """Fresh-process import cost: wall time of ``import antilin.cli`` and
    the numpy and scipy parts of ``-X importtime``."""
    totals, numpy_s, scipy_s = [], [], []
    for _ in range(IMPORT_REPEATS):
        res = spawn([sys.executable, "-c", "import antilin.cli"],
                    os.path.join(work, "import.stdout"), os.path.join(work, "import.stderr"),
                    INVOCATION_TIMEOUT_S)
        totals.append(res["wall_s"])
        spawn([sys.executable, "-X", "importtime", "-c", "import antilin.cli"],
              os.path.join(work, "import.stdout"), os.path.join(work, "importtime.stderr"),
              INVOCATION_TIMEOUT_S)
        with open(os.path.join(work, "importtime.stderr"), encoding="utf-8") as fh:
            parts = parse_importtime(fh.read())
        numpy_s.append(parts["numpy"])
        scipy_s.append(parts["scipy"])
    return {"total": median_of(totals), "numpy": median_of(numpy_s), "scipy": median_of(scipy_s)}


def parse_importtime(text: str) -> dict:
    """Cumulative seconds of the outermost numpy and scipy imports: what
    each package and everything it pulls in cost on a cold start.  A numpy
    module that scipy pulls in counts towards scipy only."""
    out = {"numpy": 0.0, "scipy": 0.0}
    entries = []
    for line in text.splitlines():
        fields = line.partition("import time:")[2].split("|")
        if len(fields) != 3 or not fields[1].strip().isdigit():
            continue
        name = fields[2].rstrip()
        entries.append((len(name) - len(name.lstrip()), name.strip(), int(fields[1])))
    # a module's line follows the lines of the imports it triggered, so
    # walking backwards visits every ancestor before its descendants
    ancestors: list = []
    for depth, name, cumulative_us in reversed(entries):
        while ancestors and ancestors[-1][0] >= depth:
            ancestors.pop()
        pkg = name.split(".", 1)[0]
        if pkg in out and not any(a[1] in out for a in ancestors):
            out[pkg] += cumulative_us / 1e6
        ancestors.append((depth, pkg))
    return out


def per_layer(replay: dict, imports: dict) -> tuple[dict, dict]:
    summaries = [p["summary"] for p in replay["traced"]]

    def count(name):
        return summaries[0]["calls"].get(name, 0)

    def seconds(*names):
        return median_of([sum(s["incl_s"].get(n, 0.0) for n in names) for s in summaries])

    def self_s(layer):
        return median_of([s["self_s"].get(layer, 0.0) for s in summaries])

    def first(key):
        return summaries[0][key]

    plain = median_of([p["wall_s"] for p in replay["plain"]])
    traced = median_of([p["wall_s"] for p in replay["traced"]])
    m = {
        "import.total_s": metric(imports["total"], "s"),
        "import.numpy_s": metric(imports["numpy"], "s"),
        "import.scipy_s": metric(imports["scipy"], "s"),
        "io.load_operator.calls": metric(count("io.load_operator"), "count"),
        "io.load_operator.s": metric(seconds("io.load_operator"), "s"),
        "io.canonical_json.s": metric(seconds("io.canonical_json"), "s"),
        "io.dump_payload.s": metric(seconds("io.dump_payload"), "s"),
        "generators.gen_payload.s": metric(seconds("generators.gen_payload"), "s"),
        "linalg.svd.calls": metric(count("linalg.svd"), "count"),
        "linalg.svd.s": metric(seconds("linalg.svd"), "s"),
        "linalg.inv.calls": metric(count("linalg.inv"), "count"),
        "linalg.inv.s": metric(seconds("linalg.inv"), "s"),
        "linalg.eig.calls": metric(sum(count(n) for n in EIG_FAMILY), "count"),
        "linalg.eig.s": metric(seconds(*EIG_FAMILY), "s"),
        "linalg.sqrtm.calls": metric(count("linalg.sqrtm"), "count"),
        "linalg.sqrtm.s": metric(seconds("linalg.sqrtm"), "s"),
        "antiop.realify.calls": metric(count("antiop.realify"), "count"),
        "antiop.compose.calls": metric(count("antiop.compose"), "count"),
        "antiop.compose.s": metric(seconds("antiop.compose"), "s"),
        "spectra.probes": metric(first("spectra.probes"), "count"),
        "spectra.svd_per_probe": metric(first("spectra.svd_per_probe"), "ratio"),
        "spectra.self_s": metric(self_s("spectra"), "s"),
        "blockops.complement.calls": metric(count("blockops.complement"), "count"),
        "blockops.scan_points": metric(first("blockops.scan_points"), "count"),
        "blockops.svd_per_scan_point": metric(first("blockops.svd_per_scan_point"), "ratio"),
        "blockops.self_s": metric(self_s("blockops"), "s"),
        "structure.factorizations_per_op": metric(
            first("structure.factorizations_per_op"), "ratio"),
        "structure.is_normal.calls": metric(count("structure.is_normal"), "count"),
        "structure.self_s": metric(self_s("structure"), "s"),
        "matkernel.takagi.calls": metric(count("matkernel.takagi"), "count"),
        "numrange.witness_segment.s": metric(seconds("numrange.witness_segment"), "s"),
        "numrange.fallback_ratio": metric(first("numrange.fallback_ratio"), "ratio"),
        "numrange.self_s": metric(self_s("numrange"), "s"),
        "extensions.minimal_span.s": metric(seconds("extensions.minimal_span"), "s"),
        "extensions.word_span_oracle.s": metric(seconds("extensions.word_span_oracle"), "s"),
        "reporting.emit.s": metric(seconds("reporting.emit_json", "reporting.emit_csv"), "s"),
        "cli.self_s": metric(self_s("cli"), "s"),
        "trace.spans": metric(first("spans"), "count"),
        "trace.overhead_ratio": metric(traced / plain if plain else 0.0, "ratio"),
    }
    # Modelled cold pass: one fresh import per invocation plus the traced
    # self time of every layer.
    n = first("invocations")
    layer_s = {"import": imports["total"] * n}
    layer_s.update({layer: self_s(layer) for layer in LAYERS})
    total = sum(layer_s.values()) or 1.0
    shares = {
        "layers": {k: round(v / total, 4) for k, v in layer_s.items()},
        "by_caller": {
            k: round(median_of([s["by_caller_s"].get(k, 0.0) for s in summaries]) / total, 4)
            for k in summaries[0]["by_caller_s"]},
    }
    return m, shares


def measure(args, work: str) -> tuple[dict, dict]:
    files, pass_ = WORKLOADS[args.workload](os.path.relpath(work, ROOT), args.seed)
    setup_times, setup = do_setup(files, work)
    setup_s = statistics.median(setup_times)
    by_path = {f["path"]: dict(f, seed=g["seed"]) for f, g in zip(files, setup["files"])}
    argvs = [inv["argv"] for inv in pass_]
    detail = {"workload": args.workload, "seed": args.seed, "pass": len(pass_),
              "files": list(by_path.values()), "setup_times_s": setup_times}

    if args.trace:
        imports = import_costs(work)
        replay = run_child("replay", {"argvs": argvs, "plain": True, "min_traced": 2,
                                      "seconds": float(args.seconds),
                                      "spans_path": os.path.join(work, "spans.jsonl")}, work)
        errors = reference_errors(replay)
        metrics, shares = per_layer(replay, imports)
        detail.update(per_layer=metrics, layer_shares=shares, machine=replay["machine"],
                      errors={str(k): v for k, v in errors.items()})
        return {"correct": not errors, "attempted": len(argvs), "failed": len(errors),
                "metrics": metrics}, detail

    records, loop_s = cold_loop(pass_, float(args.seconds), work)
    replay = run_child("replay", {"argvs": argvs}, work)
    errors = reference_errors(replay)
    for r in records:
        ref = replay["traced"][0]["calls"][r["i"]]
        if r["error"] is None and errors.get(r["i"]):
            r["error"] = errors[r["i"]]
        elif r["error"] is None and [r["code"], r.get("sha256")] != list(ref):
            r["error"] = "report bytes differ from the traced in-process run"
    failed = sum(1 for r in records if r["error"])
    e2e = end_to_end(records, loop_s, setup_s, pass_)
    detail.update(
        end_to_end=e2e, passes=len(records) // len(pass_),
        known_fail_inventory=inventory(records, pass_, by_path),
        errors=[dict(argv=pass_[r["i"]]["argv"], error=r["error"]) for r in records if r["error"]],
        machine=replay["machine"],
    )
    contract = {k: {"value": e2e[k]["value"], "unit": e2e[k]["unit"]}
                for k in ("latency_p50_s", "ops_per_s", "peak_rss_mb", "setup_s")}
    return {"correct": failed == 0, "attempted": len(records), "failed": failed,
            "metrics": contract}, detail


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        print("error: --seed must be non-negative", file=sys.stderr)
        return 2
    if not os.path.isfile(os.path.join(ROOT, "src", "antilin", "cli.py")):
        print(f"error: no antilin sources under {ROOT}/src", file=sys.stderr)
        return 2
    work = os.path.join(ROOT, ".perfbench", args.workload)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        result, detail = measure(args, work)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    with open(os.path.join(work, "result.json"), "w", encoding="utf-8") as fh:
        json.dump({"result": result, "detail": detail}, fh, indent=1)
    print("detail " + json.dumps(detail))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
