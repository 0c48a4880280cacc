import hashlib
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import antilin.io as io_mod
from antilin.antiop import AntilinearOperator
from antilin.blockops import BlockAntilinearMatrix
from antilin.errors import InvalidOperatorFile, UnknownKind
from antilin.generators import (
    KINDS,
    crandn,
    gen_block,
    gen_operator,
    gen_payload,
)
from antilin.io import (
    SCHEMA,
    _matrix_from_entries,
    canonical_json,
    dump_payload,
    entries_from_matrix,
    load_operator,
    parse_payload,
)
from antilin.matkernel import spectral_norm
from antilin.spectra import antilinear_spectrum
from antilin.structure import is_normal, is_selfadjoint, normality_residual


class TestGenerators:
    def test_deterministic_bytes(self):
        t1 = dump_payload(gen_payload("selfadjoint", 3, 42))
        t2 = dump_payload(gen_payload("selfadjoint", 3, 42))
        assert t1 == t2
        assert dump_payload(gen_payload("selfadjoint", 3, 43)) != t1

    def test_scaled_antiunitary_single_circle(self):
        payload = gen_payload("scaled_antiunitary", 4, 7)
        r = float(payload["meta"]["description"].split("=")[1])
        t = gen_operator("scaled_antiunitary", 4, 7)
        radii = antilinear_spectrum(t).radii
        np.testing.assert_allclose(radii, [r], atol=1e-10)
        assert is_normal(t)

    def test_twisted_normal(self):
        t = gen_operator("twisted_normal", 5, 1)
        assert is_normal(t)
        assert is_normal(t).residual <= 1e-12

    def test_selfadjoint_and_multiplication(self):
        assert is_selfadjoint(gen_operator("selfadjoint", 4, 3))
        assert is_selfadjoint(gen_operator("multiplication", 4, 3))

    def test_nonnormal_rejected_by_is_normal(self):
        t = gen_operator("nonnormal", 4, 11)
        check = is_normal(t)
        assert not check
        assert check.residual > 1e-3

    def test_nilpotent_zero_circle(self):
        t = gen_operator("nilpotent", 5, 2)
        np.testing.assert_allclose(antilinear_spectrum(t).radii, [0.0], atol=1e-10)

    def test_nonnormal_dim_one_rejected(self):
        with pytest.raises(UnknownKind):
            gen_payload("nonnormal", 1, 0)

    def test_unknown_kind(self):
        with pytest.raises(UnknownKind):
            gen_payload("bogus", 3, 0)

    def test_block_payload_matches_gen_block(self):
        payload = gen_payload("block", 2, 5, dim2=3)
        blk = gen_block(2, 3, 5)
        loaded = parse_payload(json.loads(dump_payload(payload)))
        assert isinstance(loaded.obj, BlockAntilinearMatrix)
        assert spectral_norm(loaded.obj.flatten().canon - blk.flatten().canon) == 0.0

    def test_all_kinds_emit_valid_payloads(self):
        for kind in KINDS:
            dim = 2 if kind != "block" else 2
            payload = gen_payload(kind, dim, 9)
            parse_payload(json.loads(dump_payload(payload)))

    def test_normality_residual_helper(self):
        assert normality_residual(np.eye(2)) == 0.0


class TestCanonicalJson:
    def test_sorted_keys_and_floats(self):
        text = canonical_json({"b": 0.1, "a": [1, True, None, "x"]})
        assert text == '{"a":[1,true,null,"x"],"b":0.10000000000000001}'

    def test_float_round_trip(self):
        for x in (0.1, 1e-8, -2.5, 123456789.123456789, 5e-324):
            assert json.loads(canonical_json(x)) == x

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            canonical_json(float("inf"))


class TestOperatorFiles:
    def test_round_trip(self, tmp_path, rng):
        from antilin.generators import crandn

        a = crandn(rng, 2, 3)
        payload = {
            "schema": SCHEMA,
            "kind": "antilinear",
            "dims": [2, 3],
            "entries": entries_from_matrix(a),
            "meta": {"seed": 0, "generator": "manual", "description": ""},
        }
        path = tmp_path / "op.json"
        dump_payload(payload, str(path))
        loaded = load_operator(str(path))
        assert isinstance(loaded.obj, AntilinearOperator)
        assert spectral_norm(loaded.obj.canon - a) <= 1e-16
        assert len(loaded.digest) == 64
        # digest is computed from canonical bytes, so a reformatted file
        # with identical content hashes identically
        path2 = tmp_path / "op2.json"
        path2.write_text(json.dumps(json.loads(path.read_text()), indent=2))
        assert load_operator(str(path2)).digest == loaded.digest

    def test_conjugation_kind_validated(self, tmp_path):
        payload = {
            "schema": SCHEMA,
            "kind": "conjugation",
            "dims": [2, 2],
            "entries": entries_from_matrix(np.array([[0, 1], [-1, 0]], dtype=complex)),
            "meta": {},
        }
        with pytest.raises(InvalidOperatorFile):
            parse_payload(payload)

    @pytest.mark.parametrize(
        "mutate,fragment",
        [
            (lambda p: p.update(schema="nope"), "schema"),
            (lambda p: p.update(dims=[2]), "dims"),
            (lambda p: p.update(dims=[2, 2]), "entries"),
            (lambda p: p.update(kind="mystery"), "kind"),
            (lambda p: p["entries"].__setitem__(0, [1.0]), "pair"),
        ],
    )
    def test_validation_failures(self, mutate, fragment):
        payload = {
            "schema": SCHEMA,
            "kind": "antilinear",
            "dims": [1, 3],
            "entries": entries_from_matrix(np.ones((1, 3))),
            "meta": {},
        }
        mutate(payload)
        with pytest.raises(InvalidOperatorFile) as err:
            parse_payload(payload)
        assert fragment in str(err.value)

    def test_nonfinite_entry_rejected(self):
        payload = {
            "schema": SCHEMA,
            "kind": "antilinear",
            "dims": [1, 1],
            "entries": [[float("nan"), 0.0]],
            "meta": {},
        }
        with pytest.raises(InvalidOperatorFile):
            parse_payload(payload)

    def test_block_requires_all_names(self):
        payload = {
            "schema": SCHEMA,
            "kind": "block",
            "dims": [1, 1],
            "blocks": {"a": [[1.0, 0.0]], "b": [[1.0, 0.0]], "f": [[1.0, 0.0]]},
            "meta": {},
        }
        with pytest.raises(InvalidOperatorFile):
            parse_payload(payload)


# ---------------------------------------------------------------- bulk paths
#
# The element-by-element implementations that ``canonical_json`` and
# ``_matrix_from_entries`` used before their bulk branches, kept as the
# reference: the bulk branches must give the same bytes, the same arrays
# (bit for bit) and the same error text.


def _reference_canonical_json(obj) -> str:
    if isinstance(obj, dict):
        inner = ",".join(
            f"{json.dumps(str(k), ensure_ascii=True)}:{_reference_canonical_json(v)}"
            for k, v in sorted(obj.items())
        )
        return "{" + inner + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(_reference_canonical_json(v) for v in obj) + "]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        v = float(obj)
        if not math.isfinite(v):
            raise ValueError("non-finite number in canonical JSON")
        return f"{v:.17g}"
    if isinstance(obj, str):
        return json.dumps(obj, ensure_ascii=True)
    if obj is None:
        return "null"
    raise TypeError(f"unsupported JSON scalar type {type(obj)!r}")


def _reference_matrix(entries, rows, cols, where="entries"):
    flat = np.empty(rows * cols, dtype=complex)
    for i, pair in enumerate(entries):
        if (
            not isinstance(pair, list)
            or len(pair) != 2
            or not all(isinstance(p, (int, float)) and not isinstance(p, bool) for p in pair)
        ):
            raise InvalidOperatorFile(f"{where}: entry {i} is not an [re, im] pair")
        re, im = float(pair[0]), float(pair[1])
        if not (math.isfinite(re) and math.isfinite(im)):
            raise InvalidOperatorFile(f"{where}: entry {i} is not finite")
        flat[i] = complex(re, im)
    return flat.reshape(rows, cols)


_EDGE_FLOATS = [0.0, -0.0, 1e-5, 0.1, 1e16, 1e17, -1e17, 5e-324, 2.2250738585072014e-308,
                1e-310, 1.7976931348623157e308, 123456789.123456789]
_EDGE_INTS = [0, 1, -1, 2**53, -(2**53), 2**53 + 1, -(2**53) - 1, 10**16, 10**30]
_SCALARS = st.one_of(
    st.sampled_from(_EDGE_FLOATS),
    st.sampled_from(_EDGE_INTS),
    st.floats(allow_nan=True, allow_infinity=True),
    st.integers(min_value=-(2**60), max_value=2**60),
    st.booleans(),
    st.none(),
    st.text(max_size=3),
)
_NUMBERS = st.one_of(
    st.sampled_from(_EDGE_FLOATS + _EDGE_INTS),
    st.floats(allow_nan=False, allow_infinity=False),
    st.integers(min_value=-(2**54), max_value=2**54),
)


@st.composite
def _row_lists(draw):
    """Lists of rows that mostly qualify for the bulk branch, with one
    irregular item (a ragged row, a tuple, a non-numeric scalar, a nested
    list or dict) planted in some of them."""
    width = draw(st.integers(0, 3))
    rows = draw(st.lists(st.lists(_NUMBERS, min_size=width, max_size=width), max_size=6))
    if rows and draw(st.booleans()):
        i = draw(st.integers(0, len(rows) - 1))
        spoiler = draw(st.one_of(
            _SCALARS,
            st.lists(_NUMBERS, max_size=4).map(tuple),
            st.lists(_NUMBERS, max_size=4),
            st.dictionaries(st.text(max_size=2), _NUMBERS, max_size=2),
            st.lists(st.lists(_NUMBERS, max_size=2), max_size=2),
        ))
        if width and draw(st.booleans()):
            rows[i][draw(st.integers(0, width - 1))] = spoiler
        else:
            rows[i] = spoiler
    return rows


_JSON_VALUES = st.recursive(
    _SCALARS | _row_lists(),
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(st.text(max_size=3), inner, max_size=4),
    ),
    max_leaves=20,
)


def _outcome(fn, *args):
    try:
        return ("ok", fn(*args))
    except (ValueError, TypeError, InvalidOperatorFile) as exc:
        return (type(exc).__name__, str(exc))


class TestBulkPaths:
    @settings(max_examples=400, deadline=None)
    @given(_JSON_VALUES)
    def test_canonical_json_matches_reference(self, obj):
        assert _outcome(canonical_json, obj) == _outcome(_reference_canonical_json, obj)

    @pytest.mark.parametrize("x", _EDGE_FLOATS + _EDGE_INTS)
    def test_edge_rows_use_exact_text(self, x):
        rows = [[x, x], [-x, x]]
        assert canonical_json(rows) == _reference_canonical_json(rows)
        assert json.loads(canonical_json(rows)) == rows

    @pytest.mark.parametrize("x", [float("inf"), -float("inf"), float("nan")])
    def test_nonfinite_rows_rejected(self, x):
        rows = [[0.5, 1.0], [2.0, x]]
        with pytest.raises(ValueError, match="non-finite"):
            canonical_json(rows)

    def test_bulk_matrix_is_bitwise_the_loop(self, rng):
        a = rng.standard_normal((5, 4)) + 1j * rng.standard_normal((5, 4))
        a[0, 0] = complex(-0.0, 0.0)
        a[1, 1] = complex(0.0, -0.0)
        a[2, 2] = complex(5e-324, -1e-310)
        entries = entries_from_matrix(a)
        entries[3] = [7, -(2**53)]   # ints are valid entries
        got = _matrix_from_entries(entries, 5, 4, "entries", set())
        want = _reference_matrix(entries, 5, 4)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()
        assert np.signbit(got[0, 0].real) and np.signbit(got[1, 1].imag)

    def test_entries_from_matrix_round_trip(self, rng):
        a = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
        a[0, 1] = complex(-0.0, -0.0)
        entries = entries_from_matrix(a)
        assert entries == [[float(z.real), float(z.imag)] for z in a.ravel()]
        assert all(type(x) is float for pair in entries for x in pair)
        assert entries_from_matrix(a.T) == [[float(z.real), float(z.imag)] for z in a.T.ravel()]
        assert _matrix_from_entries(entries, 3, 2, "e", set()).tobytes() == a.tobytes()

    @pytest.mark.parametrize(
        "bad",
        [True, "1.0", [1.0], [1.0, 2.0, 3.0], (1.0, 2.0), {"re": 1.0}, [1.0, None],
         [False, 0.0], [float("nan"), 0.0], [0.0, float("inf")], [1.0, -float("inf")]],
    )
    @pytest.mark.parametrize("position", [0, 5])
    def test_irregular_entry_errors_match_loop(self, bad, position):
        entries = [[1.0, 2.0]] * 6
        entries = entries[:position] + [bad] + entries[position + 1:]
        with pytest.raises(InvalidOperatorFile) as got:
            _matrix_from_entries(entries, 2, 3, "blocks.b", set())
        with pytest.raises(InvalidOperatorFile) as want:
            _reference_matrix(entries, 2, 3, "blocks.b")
        assert str(got.value) == str(want.value)

    def test_load_checks_each_entries_list_once(self, rng, monkeypatch):
        # the digest renders the lists the matrix path admitted without a
        # second check; a list it refused (2**60 > 2**53) is checked again
        # by the recursive path, as canonical_json alone would
        op = {"schema": SCHEMA, "kind": "antilinear", "dims": [3, 2],
              "entries": entries_from_matrix(crandn(rng, 3, 2)),
              "meta": {"seed": 0, "generator": "test", "description": "x"}}
        rows = {"a": [[7, -(2**53)]], "b": [[2**60, 0.5]], "f": [[-0.0, 1e-310]],
                "e": [[0.0, -0.0]]}
        blk = {"schema": SCHEMA, "kind": "block", "dims": [1, 1], "meta": {}, "blocks": rows}
        original = io_mod._numeric_rows
        for payload, lists, checks in ((op, [op["entries"]], [1]),
                                       (blk, list(rows.values()), [1, 2, 1, 1])):
            want = hashlib.sha256(canonical_json(payload).encode("ascii")).hexdigest()
            seen = []
            with monkeypatch.context() as m:
                m.setattr(io_mod, "_numeric_rows",
                          lambda r, *a: seen.append(r) or original(r, *a))
                assert parse_payload(payload).digest == want
            assert [sum(x is r for x in seen) for r in lists] == checks

    @pytest.mark.parametrize("position", [0, 3])
    def test_huge_int_entry_is_not_finite(self, position):
        entries = [[1.0, 0.0]] * 4
        entries[position] = [0, 10**400]
        with pytest.raises(InvalidOperatorFile) as err:
            _matrix_from_entries(entries, 2, 2, "entries", set())
        assert str(err.value) == f"entries: entry {position} is not finite"
