"""Operator file schema and canonical JSON.

Operator files carry the schema tag ``antilin.operator/v1`` and one of three
kinds:

* ``antilinear``:  ``dims = [rows, cols]`` and ``entries`` as a row-major
  list of ``[re, im]`` pairs for the canonical matrix,
* ``conjugation``: same layout, validated on load as a conjugation
  (:func:`~antilin.antiop.make_conjugation`) and loaded as its
  antilinear operator,
* ``block``: ``dims = [n, m]`` and ``blocks`` with the four named canonical
  matrices ``a`` (n x n), ``b`` (n x m), ``f`` (m x n), ``e`` (m x m).

``meta`` holds ``{seed, generator, description}``.  Complex numbers are
stored as [re, im] pairs to avoid any locale or formatting ambiguity.  A
file that nests too deeply for the decoder is an
:class:`~antilin.errors.InvalidOperatorFile`, not a crash.  The canonical
render walks its input with an explicit stack, so every file the decoder
accepts has a digest.

Canonical JSON (sorted keys, floats rendered with %.17g, no whitespace) is
used both for emitted files and for content digests, so identical content
always produces identical bytes.

Operator files are dominated by one list of ``[re, im]`` rows, so the
loader and the emitter handle such lists in bulk, with the same bytes and
the same errors as the element-by-element code they fall back to.  Both
bulk paths take a list only when :func:`_numeric_rows` admits it: a list of
equal-width rows whose items all have exact type ``float`` or ``int``,
every float finite and every int within ``|int| <= 2**53``.

* :func:`canonical_json` renders such a list with one ``%``-format call.
  That rendering is exact: ``"%.17g" % x`` is ``f"{x:.17g}"`` for a finite
  float, and an int in that range converts to float exactly and has at
  most 16 digits, so ``%.17g`` prints it as ``str(int)`` does.  Anything
  else (bools, numpy scalars, tuples, larger ints) is rendered item by
  item.
* :func:`_matrix_from_entries` builds the matrix from such a list of pairs
  with ``np.array(flat, dtype=float).view(complex)``.  Reading the (re, im)
  pairs as the two halves of complex128 is bit-exact, signed zeros included
  (``re + 1j*im`` is not).  Any other list goes through the per-entry loop,
  which names the first bad entry (and rounds a larger int to the same
  float).

:func:`parse_payload` validates each entries list once: a list the matrix
path admitted is rendered in the digest's canonical JSON without being
checked again.  Only its ``id`` is kept, not its flat items, so the load
holds no extra copy of the entries while the operator is built.
"""

from __future__ import annotations

import json
import math
from typing import TYPE_CHECKING, NamedTuple, Optional, Union

import numpy as np

from .antiop import AntilinearOperator, make_conjugation
from .errors import AntilinError, InvalidOperatorFile

if TYPE_CHECKING:
    from .blockops import BlockAntilinearMatrix

SCHEMA = "antilin.operator/v1"


def _canon_scalar(x) -> str:
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, (float, np.floating)):
        v = float(x)
        if not math.isfinite(v):
            raise ValueError("non-finite number in canonical JSON")
        return f"{v:.17g}"
    if isinstance(x, str):
        return json.dumps(x, ensure_ascii=True)
    if x is None:
        return "null"
    raise TypeError(f"unsupported JSON scalar type {type(x)!r}")


# ints within this bound convert to float exactly and %.17g prints them as str()
_EXACT_INT = 2**53


def _numeric_rows(rows: list, width: Optional[int] = None) -> Optional[list]:
    """The items of ``rows``, flattened row by row, when ``rows`` is a
    nonempty list of lists of one width (``width``, or that of the first
    row) whose items have exact type ``float`` or ``int``, are finite and,
    for ints, lie within ``2**53``; None for any other list."""
    if not rows or type(rows[0]) is not list:
        return None
    if width is None:
        width = len(rows[0])
    if any(type(r) is not list or len(r) != width for r in rows):
        return None
    flat = [x for r in rows for x in r]
    kinds = set(map(type, flat))
    if not kinds <= {float, int}:
        return None
    if int in kinds and not all(
        -_EXACT_INT <= x <= _EXACT_INT for x in flat if type(x) is int
    ):
        return None
    if not all(map(math.isfinite, flat)):
        return None
    return flat


def canonical_json(obj) -> str:
    """Deterministic JSON text: sorted keys, %.17g floats, no whitespace."""
    return _canonical(obj, set())


def _canonical(obj, admitted: set) -> str:
    """:func:`canonical_json`, where ``admitted`` holds the ``id`` of each
    list in ``obj`` that :func:`_numeric_rows` has already admitted.

    The containers are walked depth first with an explicit stack, so no
    depth of nesting exhausts the interpreter's recursion limit.  A frame
    holds one container's ``(text, item)`` pairs not yet rendered, each
    text written before its item, and the text that closes the container.
    """
    out = []
    stack = [(iter([("", obj)]), "")]
    while stack:
        pairs, close = stack[-1]
        step = next(pairs, None)
        if step is None:
            out.append(close)
            stack.pop()
            continue
        text, value = step
        out.append(text)
        if isinstance(value, dict):
            items = sorted(value.items())
            keys = [json.dumps(str(k), ensure_ascii=True) + ":" for k, _ in items]
            stack.append(_frame("{", keys, [v for _, v in items], "}"))
        elif isinstance(value, (list, tuple)):
            flat = None
            if type(value) is list:
                flat = ([x for r in value for x in r] if id(value) in admitted
                        else _numeric_rows(value))
            if flat is not None:
                row = "[" + ",".join(["%.17g"] * len(value[0])) + "]"
                out.append("[" + ",".join([row] * len(value)) % tuple(flat) + "]")
            else:
                stack.append(_frame("[", [""] * len(value), value, "]"))
        else:
            out.append(_canon_scalar(value))
    return "".join(out)


def _frame(opening: str, keys: list, values, closing: str) -> tuple:
    """A frame of :func:`_canonical` for a container: item i is preceded
    by ``opening`` (i = 0) or ``","`` and by ``keys[i]``, and an empty
    container renders as ``opening + closing``."""
    texts = [("," if i else opening) + key for i, key in enumerate(keys)]
    return zip(texts, values), closing if texts else opening + closing


def entries_from_matrix(a) -> list:
    """Row-major [re, im] pairs of a complex matrix."""
    a = np.ascontiguousarray(a, dtype=complex)
    return a.reshape(-1).view(float).reshape(-1, 2).tolist()


def _matrix_from_entries(entries, rows: int, cols: int, where: str, admitted: set) -> np.ndarray:
    """The ``rows x cols`` complex matrix of an entries list (``where``
    names it in errors); the ``id`` of a list the bulk path admits is added
    to ``admitted``, for :func:`_canonical`."""
    if not isinstance(entries, list) or len(entries) != rows * cols:
        raise InvalidOperatorFile(
            f"{where}: expected {rows * cols} [re, im] entries, got "
            f"{len(entries) if isinstance(entries, list) else type(entries).__name__}"
        )
    flat = _numeric_rows(entries, 2)
    if flat is not None:
        admitted.add(id(entries))
        return np.array(flat, dtype=float).view(complex).reshape(rows, cols)
    flat = np.empty(rows * cols, dtype=complex)
    for i, pair in enumerate(entries):
        if (
            not isinstance(pair, list)
            or len(pair) != 2
            or not all(isinstance(p, (int, float)) and not isinstance(p, bool) for p in pair)
        ):
            raise InvalidOperatorFile(f"{where}: entry {i} is not an [re, im] pair")
        try:
            re, im = float(pair[0]), float(pair[1])
        except OverflowError:
            re = im = math.inf  # an int beyond the float range
        if not (math.isfinite(re) and math.isfinite(im)):
            raise InvalidOperatorFile(f"{where}: entry {i} is not finite")
        flat[i] = complex(re, im)
    return flat.reshape(rows, cols)


LoadedObject = Union[AntilinearOperator, "BlockAntilinearMatrix"]


class LoadedOperator(NamedTuple):
    kind: str
    obj: LoadedObject
    digest: str


def _require_dims(payload: dict) -> tuple[int, int]:
    dims = payload.get("dims")
    if (
        not isinstance(dims, list)
        or len(dims) != 2
        or not all(isinstance(d, int) and not isinstance(d, bool) and d >= 1 for d in dims)
    ):
        raise InvalidOperatorFile("dims must be a pair of positive integers")
    return int(dims[0]), int(dims[1])


def parse_payload(payload: dict) -> LoadedOperator:
    """Validate a parsed operator-file dict and build the operator."""
    if not isinstance(payload, dict):
        raise InvalidOperatorFile("top level must be a JSON object")
    if payload.get("schema") != SCHEMA:
        raise InvalidOperatorFile(f"schema must be exactly {SCHEMA!r}")
    kind = payload.get("kind")
    if not isinstance(payload.get("meta", {}), dict):
        raise InvalidOperatorFile("meta must be an object")
    admitted: set = set()  # entries lists validated once, for the matrix and the digest

    if kind in ("antilinear", "conjugation"):
        rows, cols = _require_dims(payload)
        mat = _matrix_from_entries(payload.get("entries"), rows, cols, "entries", admitted)
        if kind == "conjugation":
            try:
                obj: LoadedObject = make_conjugation(mat)
            except AntilinError as exc:
                raise InvalidOperatorFile(f"invalid conjugation: {exc}") from exc
        else:
            obj = AntilinearOperator(mat)
    elif kind == "block":
        from .blockops import BlockAntilinearMatrix

        n, m = _require_dims(payload)
        blocks = payload.get("blocks")
        if not isinstance(blocks, dict) or sorted(blocks) != ["a", "b", "e", "f"]:
            raise InvalidOperatorFile("block kind requires blocks a, b, f, e")
        shapes = {"a": (n, n), "b": (n, m), "f": (m, n), "e": (m, m)}
        mats = {
            name: _matrix_from_entries(blocks[name], *shape, f"blocks.{name}", admitted)
            for name, shape in shapes.items()
        }
        obj = BlockAntilinearMatrix(
            a=AntilinearOperator(mats["a"]),
            b=AntilinearOperator(mats["b"]),
            f=AntilinearOperator(mats["f"]),
            e=AntilinearOperator(mats["e"]),
        )
    else:
        raise InvalidOperatorFile(f"unknown kind {kind!r}")

    import hashlib   # loads OpenSSL's _hashlib: importing the CLI does not need it

    digest = hashlib.sha256(_canonical(payload, admitted).encode("ascii")).hexdigest()
    return LoadedOperator(kind=kind, obj=obj, digest=digest)


def load_operator(path: str) -> LoadedOperator:
    """Load and validate an operator file from disk."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
    except OSError as exc:
        raise InvalidOperatorFile(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InvalidOperatorFile(f"{path} is not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise InvalidOperatorFile(f"{path} nests too deeply to decode") from exc
    return parse_payload(payload)


def dump_payload(payload: dict, path: Optional[str] = None) -> str:
    """Canonical text of an operator payload, optionally written to disk."""
    text = canonical_json(payload) + "\n"
    if path is not None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    return text
