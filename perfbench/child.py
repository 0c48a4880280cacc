"""Child process of the benchmark: input generation and in-process replay.

    python3 perfbench/child.py setup  SPEC.json OUT.json
    python3 perfbench/child.py replay SPEC.json OUT.json

``setup`` writes the workload's operator files with the package's own
generator (``gen_payload`` + ``dump_payload``).  A file may ask for a fixed
number of spectrum circles; candidate generator seeds derived from the
workload seed are then tried in order until one has it, because the probe
count of ``spectrum`` and ``block`` follows the circle count.

``replay`` imports ``antilin.cli`` and calls ``main(argv)`` for each argv of
the workload in this one process: traced passes under the outside-in
tracer, at least ``min_traced`` and more while ``seconds`` allow, each
followed by a plain pass when ``plain`` is set.  It records each call's exit
code and the sha256 of its report bytes (stdout, or the ``--output`` file
for ``gen``), per-pass wall times and the tracer's per-pass summary.  Run it
with ``src`` on ``PYTHONPATH``.
"""

from __future__ import annotations

import contextlib
import ctypes
import glob
import hashlib
import io
import json
import os
import platform
import sys
from time import perf_counter

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

CANDIDATES = 200
SEED_STRIDE = 10007


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _circles(f: dict, seed: int) -> int:
    """Circle count of the operator ``gen_payload`` makes for ``seed``
    (``gen_operator`` and ``gen_block`` draw the same matrices)."""
    from antilin.generators import gen_block, gen_operator
    from antilin.spectra import antilinear_spectrum

    if f["kind"] == "block":
        op = gen_block(f["dim"], f["dim2"], seed).flatten()
    else:
        op = gen_operator(f["kind"], f["dim"], seed)
    return len(antilinear_spectrum(op).radii)


def setup(spec: dict) -> dict:
    from antilin.generators import gen_payload
    from antilin.io import dump_payload

    files = []
    for f in spec["files"]:
        want = f.get("circles")
        for k in range(CANDIDATES):
            seed = f["seed"] + k * SEED_STRIDE
            if want is None or _circles(f, seed) == want:
                break
        else:
            raise SystemExit(f"no generator seed with {want} circles for {f['path']}")
        text = dump_payload(gen_payload(f["kind"], f["dim"], seed, dim2=f.get("dim2")),
                            f["path"])
        files.append({"path": f["path"], "seed": seed, "sha256": _sha(text.encode("ascii"))})
    return {"files": files}


def machine() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir,
                                  "numpy.libs", "libscipy_openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        fn = getattr(lib, "scipy_openblas_get_num_threads64_", None)
        if fn is not None:
            fn.restype = ctypes.c_int
            threads = fn()
    cpu = "unknown"
    with contextlib.suppress(OSError), open("/proc/cpuinfo", encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_config": blas.get("openblas configuration", ""),
        "blas_threads": threads,
        "blas_env": {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
                     if k in os.environ},
    }


def _call(main, argv: list) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    if argv[0] == "gen":
        with open(argv[argv.index("--output") + 1], "rb") as fh:
            data = fh.read()
    else:
        data = out.getvalue().encode("utf-8")
    return code, _sha(data)


def _pass(main, argvs: list, tracer=None) -> dict:
    calls = []
    start = perf_counter()
    for i, argv in enumerate(argvs):
        if tracer is not None:
            tracer.invocation = i
        calls.append(_call(main, argv))
    return {"wall_s": perf_counter() - start, "calls": calls}


def replay(spec: dict) -> dict:
    import tracer as tr
    from antilin import cli

    argvs = spec["argvs"]
    interleave = spec.get("plain", False)
    if interleave:
        _pass(cli.main, argvs)  # the first pass pays one-time costs
    tracer = tr.Tracer()
    plain, traced, missed = [], [], set()
    budget_end = perf_counter() + spec.get("seconds", 0.0)
    round_s = 0.0
    # traced and plain passes alternate, so drift in machine speed shows in
    # both; cli.main is looked up per pass and is the wrapper while installed
    while len(traced) < spec.get("min_traced", 1) or perf_counter() + round_s <= budget_end:
        start = perf_counter()
        tr.install(tracer)
        missed.update(tr.unpatched_bindings(tracer))
        tracer.reset()
        p = _pass(cli.main, argvs, tracer)
        tr.uninstall(tracer)
        p["summary"] = tr.summarize(tracer.spans, tracer.counters)
        if not traced and spec.get("spans_path"):
            tracer.dump_spans(spec["spans_path"])
        traced.append(p)
        if interleave:
            plain.append(_pass(cli.main, argvs))
        round_s = perf_counter() - start
    return {"plain": plain, "traced": traced, "unpatched": sorted(missed),
            "machine": machine()}


def _main() -> int:
    mode, spec_path, out_path = sys.argv[1:4]
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    result = {"setup": setup, "replay": replay}[mode](spec)
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(_main())
