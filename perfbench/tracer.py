"""Outside-in tracer for the antilin package.

The tracer wraps functions from the outside, without changing the package:
every public module-level function of ``antilin.*`` and the LAPACK-backed
kernels of ``numpy.linalg`` and ``scipy.linalg`` that the package reaches.

A function is bound by name in many places.  ``from .matkernel import
spectral_norm`` copies the function into the importing module's globals,
``cli._HANDLERS`` holds the ``cmd_*`` functions in a dict, and
``np.linalg.norm(a, 2)`` reaches SVD through the ``svd`` global of
``numpy.linalg._linalg``, not through ``np.linalg.svd``.  :func:`install`
therefore replaces every reference to a wrapped function that it finds in the
scanned modules' globals, in module-level dicts and lists, and in class
dicts, and :func:`unpatched_bindings` reports any reference it missed.

Each call of a wrapped function records one span ``[name, parent, invocation,
start, end]`` in memory.  Direct recursion (``canonical_json`` calling
itself) is folded into the outer span.  Spans are written out only when the
caller asks, after the traced work.
"""

from __future__ import annotations

import functools
import json
import sys
import types
from collections import Counter, defaultdict
from time import perf_counter

# numpy.linalg kernels the package uses, directly or through norm/pinv.
NUMPY_KERNELS = ("svd", "inv", "pinv", "eig", "eigh", "eigvals", "eigvalsh", "qr")
EIG_FAMILY = ("linalg.eig", "linalg.eigh", "linalg.eigvals", "linalg.eigvalsh")
# Spans that count as one factorization of a matrix (pinv is an SVD inside).
FACTORIZATIONS = ("linalg.svd", "linalg.inv", "linalg.qr", "linalg.sqrtm") + EIG_FAMILY

# Layers are the modules of src/antilin; raw LAPACK calls belong to matkernel.
LAYERS = (
    "cli", "io", "generators", "antiop", "matkernel", "structure", "spectra",
    "numrange", "blockops", "extensions", "reporting",
)

# Layers that do work on behalf of the others: their time is also reported
# by the calling layer.
SERVICE_LAYERS = ("matkernel", "antiop")


def layer_of(name: str) -> str:
    prefix = name.split(".", 1)[0]
    return "matkernel" if prefix == "linalg" else prefix


def _count_fallback(tracer: "Tracer", result) -> None:
    tracer.counters["numrange.fallbacks"] += int(bool(result.used_fallback))


def _count_scan_points(tracer: "Tracer", result) -> None:
    tracer.counters["blockops.scan_points"] += len(result.entries)


# Results that carry counts the call boundary alone does not show.
POST_HOOKS = {
    "numrange.witness_segment": _count_fallback,
    "blockops.correspondence_scan": _count_scan_points,
}


class Tracer:
    """Span recorder shared by every wrapper of one install."""

    def __init__(self):
        self.spans: list = []
        self.stack: list = []
        self.counters: Counter = Counter()
        self.invocation = -1
        self.originals: dict = {}  # id(original) -> (original, wrapper)
        self.patched: list = []  # (container, key, original) for uninstall

    def wrap(self, name: str, fn):
        tracer = self
        post = POST_HOOKS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            spans, stack = tracer.spans, tracer.stack
            if stack and spans[stack[-1]][0] is name:
                return fn(*args, **kwargs)
            rec = [name, stack[-1] if stack else -1, tracer.invocation, 0.0, 0.0]
            stack.append(len(spans))
            spans.append(rec)
            rec[3] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[4] = perf_counter()
                stack.pop()
            if post is not None:
                post(tracer, result)
            return result

        traced.__wrapped_by_tracer__ = True
        self.originals[id(fn)] = (fn, traced)
        return traced

    def reset(self) -> None:
        self.spans = []
        self.stack = []
        self.counters = Counter()

    def dump_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for sid, (name, parent, inv, start, end) in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": sid, "name": name, "parent": parent,
                    "invocation": inv, "start": start, "end": end,
                }) + "\n")


def package_modules() -> list:
    return sorted(
        (m for n, m in sys.modules.items()
         if (n == "antilin" or n.startswith("antilin.")) and m is not None),
        key=lambda m: m.__name__,
    )


def _kernel_modules() -> list:
    import numpy.linalg
    import numpy.linalg._linalg

    mods = [numpy.linalg, numpy.linalg._linalg]
    scipy_linalg = sys.modules.get("scipy.linalg")
    if scipy_linalg is not None:
        mods.append(scipy_linalg)
    return mods


def _targets() -> dict:
    """name -> function for everything the tracer wraps."""
    import numpy.linalg._linalg as npl

    targets = {f"linalg.{k}": getattr(npl, k) for k in NUMPY_KERNELS}
    scipy_linalg = sys.modules.get("scipy.linalg")
    if scipy_linalg is not None:
        targets["linalg.sqrtm"] = scipy_linalg.sqrtm
    for mod in package_modules():
        short = mod.__name__.rpartition(".")[2]
        for attr, val in vars(mod).items():
            if (
                isinstance(val, types.FunctionType)
                and not attr.startswith("_")
                and val.__module__ == mod.__name__
            ):
                targets[f"{short}.{attr}"] = val
    return targets


def _binding_sites(mod):
    """(container, key) pairs of every place a module binds a callable."""
    for attr, val in list(vars(mod).items()):
        yield vars(mod), attr, val
        if isinstance(val, dict):
            for k, v in val.items():
                yield val, k, v
        elif isinstance(val, list):
            for i, v in enumerate(val):
                yield val, i, v
        elif isinstance(val, tuple):
            for i, v in enumerate(val):
                yield val, i, v
        elif isinstance(val, type) and val.__module__ == mod.__name__:
            for k, v in list(vars(val).items()):
                yield val, k, v


def install(tracer: Tracer) -> int:
    """Wrap every target and rebind every reference to it.  Returns the
    number of references replaced."""
    for name, fn in _targets().items():
        tracer.wrap(name, fn)
    for mod in package_modules() + _kernel_modules():
        for container, key, val in _binding_sites(mod):
            hit = tracer.originals.get(id(val))
            if hit is None or hit[0] is not val:
                continue
            if isinstance(container, tuple):
                continue  # immutable: reported by unpatched_bindings
            _rebind(container, key, hit[1])
            tracer.patched.append((container, key, val))
    return len(tracer.patched)


def _rebind(container, key, value) -> None:
    if isinstance(container, type):
        setattr(container, key, value)
    else:
        container[key] = value


def uninstall(tracer: Tracer) -> None:
    """Restore every reference :func:`install` replaced."""
    for container, key, original in reversed(tracer.patched):
        _rebind(container, key, original)
    tracer.patched = []


def unpatched_bindings(tracer: Tracer) -> list:
    """Every reference to an original function still present after install."""
    missed = []
    for mod in package_modules() + _kernel_modules():
        for _container, key, val in _binding_sites(mod):
            hit = tracer.originals.get(id(val))
            if hit is not None and hit[0] is val:
                missed.append(f"{mod.__name__}:{key}")
    return missed


# ---------------------------------------------------------------- analysis


def summarize(spans: list, counters: Counter) -> dict:
    """Counts, inclusive and self seconds per span name, and the derived
    ratios the benchmark reports, for one traced pass."""
    calls: Counter = Counter()
    by_invocation: defaultdict = defaultdict(Counter)
    incl: defaultdict = defaultdict(float)
    child_time = [0.0] * len(spans)
    for name, parent, inv, start, end in spans:
        calls[name] += 1
        by_invocation[str(inv)][name] += 1
        incl[name] += end - start
        if parent >= 0:
            child_time[parent] += end - start
    self_by_layer: defaultdict = defaultdict(float)
    # service-layer self time by the nearest calling span of a check layer
    by_caller: defaultdict = defaultdict(float)
    for sid, (name, parent, _inv, start, end) in enumerate(spans):
        own = (end - start) - child_time[sid]
        layer = layer_of(name)
        self_by_layer[layer] += own
        if layer in SERVICE_LAYERS:
            while parent >= 0 and layer_of(spans[parent][0]) in SERVICE_LAYERS:
                parent = spans[parent][1]
            caller = layer_of(spans[parent][0]) if parent >= 0 else "none"
            by_caller[f"{layer}<{caller}"] += own

    def under(ancestor_names, kernel_names) -> int:
        """Kernel spans with an ancestor among ``ancestor_names``."""
        found = 0
        for name, parent, *_ in spans:
            if name not in kernel_names:
                continue
            while parent >= 0:
                if spans[parent][0] in ancestor_names:
                    found += 1
                    break
                parent = spans[parent][1]
        return found

    structure_names = {n for n in calls if n.startswith("structure.")}
    structure_invocations = {inv for name, _p, inv, *_ in spans if name in structure_names}
    probes = calls["spectra.is_in_spectrum"]
    scan_points = counters["blockops.scan_points"]
    segments = calls["numrange.witness_segment"]

    def ratio(num, den):
        return num / den if den else 0.0

    return {
        "calls": dict(calls),
        "calls_by_invocation": {k: dict(v) for k, v in by_invocation.items()},
        "incl_s": dict(incl),
        "self_s": dict(self_by_layer),
        "by_caller_s": dict(by_caller),
        "spans": len(spans),
        "invocations": len({inv for _n, _p, inv, *_ in spans}),
        "spectra.probes": probes,
        "spectra.svd_per_probe": ratio(
            under({"spectra.is_in_spectrum"}, {"linalg.svd"}), probes),
        "blockops.scan_points": scan_points,
        "blockops.svd_per_scan_point": ratio(
            under({"blockops.correspondence_scan"}, {"linalg.svd"}), scan_points),
        "structure.factorizations_per_op": ratio(
            under(structure_names, set(FACTORIZATIONS)), len(structure_invocations)),
        "numrange.fallback_ratio": ratio(counters["numrange.fallbacks"], segments),
    }
