"""End-to-end CLI tests driven through the console entry point."""

import gc
import hashlib
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import antilin.__main__ as entry_module
import antilin.cli as cli
import antilin.numrange as numrange
from antilin.generators import KINDS, crandn, symmetric_unitary
from antilin.io import SCHEMA, canonical_json, entries_from_matrix, load_operator

from conftest import write_block_file


def run_cli(*args, cwd=None):
    # the package under test first on the path, whatever the working directory
    env = dict(os.environ)
    src = str(Path(cli.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, "-m", "antilin"] + list(args),
        capture_output=True,
        text=True,
        cwd=cwd,
        env=env,
    )


@pytest.fixture(scope="module")
def shift_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("ops") / "shift.json"
    payload = {
        "schema": SCHEMA,
        "kind": "antilinear",
        "dims": [2, 2],
        "entries": entries_from_matrix(np.array([[0.0, 1.0], [0.0, 0.0]])),
        "meta": {"seed": 0, "generator": "manual", "description": "shift"},
    }
    path.write_text(canonical_json(payload) + "\n")
    return str(path)


@pytest.fixture(scope="module")
def diag2i_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("ops") / "diag2i.json"
    payload = {
        "schema": SCHEMA,
        "kind": "antilinear",
        "dims": [2, 2],
        "entries": entries_from_matrix(np.diag([2.0, 1j])),
        "meta": {"seed": 0, "generator": "manual", "description": "diag(2, i)"},
    }
    path.write_text(canonical_json(payload) + "\n")
    return str(path)


class TestGen:
    def test_deterministic_bytes(self, tmp_path):
        f1, f2 = tmp_path / "a.json", tmp_path / "b.json"
        for f in (f1, f2):
            res = run_cli("gen", "--kind", "selfadjoint", "--dim", "3", "--seed", "42",
                          "--output", str(f))
            assert res.returncode == 0
        assert f1.read_bytes() == f2.read_bytes()

    def test_stdout_and_parse(self):
        res = run_cli("gen", "--kind", "twisted_normal", "--dim", "2", "--seed", "1")
        assert res.returncode == 0
        payload = json.loads(res.stdout)
        assert payload["schema"] == SCHEMA

    def test_unknown_kind_exit_2(self):
        res = run_cli("gen", "--kind", "nonnormal", "--dim", "1", "--seed", "0")
        assert res.returncode == 2
        assert res.stderr.startswith("error:")


class TestInspect:
    def test_shift_passes_with_normal_false(self, shift_file):
        res = run_cli("inspect", "--input", shift_file)
        assert res.returncode == 0, res.stderr
        report = json.loads(res.stdout)
        assert report["overall_pass"] is True
        assert report["summary"]["is_normal"] is False
        assert report["summary"]["numerical_range_radius"] == pytest.approx(0.5)
        assert report["summary"]["spectrum_radii"] == [0.0]

    def test_byte_identical_reports(self, shift_file):
        a = run_cli("inspect", "--input", shift_file)
        b = run_cli("inspect", "--input", shift_file)
        assert a.stdout == b.stdout

    def test_block_file_rejected(self, tmp_path):
        res = run_cli("gen", "--kind", "block", "--dim", "2", "--seed", "3",
                      "--output", str(tmp_path / "blk.json"))
        assert res.returncode == 0
        res = run_cli("inspect", "--input", str(tmp_path / "blk.json"))
        assert res.returncode == 2


class TestIdentities:
    def test_diag2i_all_pass(self, diag2i_file):
        res = run_cli("identities", "--input", diag2i_file)
        assert res.returncode == 0, res.stderr
        report = json.loads(res.stdout)
        assert report["overall_pass"] is True
        names = {c["name"] for c in report["checks"]}
        assert "polar_commutation" in names        # normal input
        assert "mp_projector_range_consistency" in names
        assert len(report["checks"]) >= 10
        for c in report["checks"]:
            if c["name"].startswith("mp_") and "consistency" not in c["name"]:
                assert c["residual"] <= 1e-10

    def test_check_failure_exit_1(self, tmp_path):
        # a generic instance has nonzero floating-point residuals, so an
        # impossibly tight tolerance must flip checks to failed and exit 1
        op = tmp_path / "tw.json"
        run_cli("gen", "--kind", "twisted_normal", "--dim", "4", "--seed", "5",
                "--output", str(op))
        res = run_cli("identities", "--input", str(op), "--tol", "1e-30")
        assert res.returncode == 1
        report = json.loads(res.stdout)
        assert report["overall_pass"] is False
        assert any(not c["pass"] for c in report["checks"])

    def test_csv_format(self, diag2i_file):
        res = run_cli("identities", "--input", diag2i_file, "--csv")
        assert res.returncode == 0
        lines = res.stdout.strip().splitlines()
        assert lines[0] == "check,residual,tolerance,pass"
        assert all(line.count(",") == 3 for line in lines[1:])
        names = [line.split(",")[0] for line in lines[1:]]
        assert names == sorted(names)


class TestSpectrumCommand:
    def test_malformed_input_exit_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        payload = {
            "schema": SCHEMA,
            "kind": "antilinear",
            "dims": [2, 2],
            "entries": [[0.0, 0.0]],  # wrong count
            "meta": {},
        }
        bad.write_text(json.dumps(payload))
        res = run_cli("spectrum", "--input", str(bad))
        assert res.returncode == 2
        assert len(res.stderr.strip().splitlines()) == 1
        assert "Traceback" not in res.stderr

    def test_huge_integer_entry_exit_2(self, tmp_path):
        # a 401-digit integer is valid JSON but has no float value
        bad = tmp_path / "huge.json"
        bad.write_text(
            '{"schema": "%s", "kind": "antilinear", "dims": [1, 2], '
            '"entries": [[1%s, 0], [0.0, 0.0]], "meta": {}}' % (SCHEMA, "0" * 400)
        )
        for cmd in ("inspect", "spectrum"):
            res = run_cli(cmd, "--input", str(bad))
            assert res.returncode == 2, res.stderr
            assert res.stderr.strip().splitlines() == ["error: entries: entry 0 is not finite"]
            assert res.stdout == ""

    def test_shift_spectrum(self, shift_file):
        res = run_cli("spectrum", "--input", shift_file)
        assert res.returncode == 0
        report = json.loads(res.stdout)
        assert report["summary"]["radii"] == [0.0]


class TestNumrangeCommand:
    def test_with_target(self, diag2i_file):
        res = run_cli("numrange", "--input", diag2i_file, "--target", "1.0,0.5")
        assert res.returncode == 0, res.stderr
        report = json.loads(res.stdout)
        assert report["summary"]["radius"] == pytest.approx(2.0)
        names = {c["name"] for c in report["checks"]}
        assert "witness_target" in names

    def test_target_outside_exit_2(self, diag2i_file):
        res = run_cli("numrange", "--input", diag2i_file, "--target", "5.0,0.0")
        assert res.returncode == 2

    def test_dimension_one_circle(self, tmp_path):
        path = tmp_path / "one.json"
        payload = {
            "schema": SCHEMA,
            "kind": "antilinear",
            "dims": [1, 1],
            "entries": [[1.5, 0.0]],
            "meta": {},
        }
        path.write_text(json.dumps(payload))
        res = run_cli("numrange", "--input", str(path))
        assert res.returncode == 0, res.stderr
        report = json.loads(res.stdout)
        assert {c["name"] for c in report["checks"]} >= {
            "circle_modulus_spread",
            "circle_zero_gap",
        }

    def test_witness_for_another_lam_fails(self, diag2i_file, monkeypatch, capsys):
        # the span is symmetric in x1 and x2, so the mutant that matters
        # swaps the weights; the report's target is formed by the CLI
        original = numrange.witness_segment
        monkeypatch.setattr(
            numrange, "witness_segment", lambda t, x1, x2, lam: original(t, x1, x2, 1.0 - lam)
        )
        code, out, _ = _main(capsys, "numrange", "--input", diag2i_file)
        failed = [c["name"] for c in json.loads(out)["checks"] if not c["pass"]]
        assert (code, failed) == (1, ["convexity_witness"])


class TestBlockCommand:
    def test_generated_block(self, tmp_path):
        blk = tmp_path / "blk.json"
        assert run_cli(
            "gen", "--kind", "block", "--dim", "2", "--dim2", "2",
            "--seed", "7", "--output", str(blk),
        ).returncode == 0
        res = run_cli("block", "--input", str(blk))
        assert res.returncode == 0, res.stderr
        report = json.loads(res.stdout)
        names = {c["name"] for c in report["checks"]}
        assert "scan_disagreements" in names
        assert any(n.startswith("factorization_S2") for n in names)
        assert "rank_link_primal" in names

    def test_explicit_mu_list(self, tmp_path):
        blk = tmp_path / "blk.json"
        run_cli("gen", "--kind", "block", "--dim", "2", "--dim2", "3",
                "--seed", "3", "--output", str(blk))
        res = run_cli("block", "--input", str(blk), "--mu", "2+0j;0.5-0.25j")
        assert res.returncode == 0, res.stderr
        report = json.loads(res.stdout)
        assert report["summary"]["mu_0"] == [2.0, 0.0]
        assert report["summary"]["mu_1"] == [0.5, -0.25]

    def test_byte_identical(self, tmp_path):
        blk = tmp_path / "blk.json"
        run_cli("gen", "--kind", "block", "--dim", "2", "--dim2", "2",
                "--seed", "9", "--output", str(blk))
        a = run_cli("block", "--input", str(blk), "--seed", "5")
        b = run_cli("block", "--input", str(blk), "--seed", "5")
        assert a.stdout == b.stdout


class TestExtensionCommand:
    def test_normal_ambient(self, tmp_path):
        op = tmp_path / "tw.json"
        run_cli("gen", "--kind", "twisted_normal", "--dim", "4", "--seed", "2",
                "--output", str(op))
        res = run_cli("extension", "--input", str(op), "--seed", "3")
        assert res.returncode == 0, res.stderr
        report = json.loads(res.stdout)
        assert report["summary"]["g_dim"] >= report["summary"]["subspace_dim"]
        assert {c["name"] for c in report["checks"]} == {
            "span_oracle_agreement",
            "span_stabilized_before_cap",
        }

    def test_nonnormal_ambient_exit_2(self, shift_file):
        res = run_cli("extension", "--input", shift_file)
        assert res.returncode == 2


@pytest.fixture(scope="module")
def block_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("ops") / "blk.json"
    res = run_cli("gen", "--kind", "block", "--dim", "2", "--dim2", "2", "--output", str(path))
    assert res.returncode == 0
    return str(path)


@pytest.mark.parametrize(
    "command, flag, value",
    [
        ("numrange", "--target", "nan,0"),
        ("numrange", "--target", "0,inf"),
        ("identities", "--tol", "nan"),
        ("identities", "--tol", "inf"),
        ("identities", "--tol", "-1"),
        ("block", "--mu", "nan"),
        ("block", "--mu", "inf+0j"),
        ("block", "--mu", "0.5;1e400j"),
    ],
)
def test_nonfinite_or_negative_number_flag_exit_2(command, flag, value, diag2i_file, block_file):
    # rejected while parsing: one line naming the flag, no report, no warning
    source = block_file if command == "block" else diag2i_file
    res = run_cli(command, "--input", source, flag, value)
    assert res.returncode == 2
    assert res.stdout == ""
    lines = res.stderr.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"error: {flag} "), res.stderr


@pytest.mark.parametrize(
    "command, flag, value",
    [
        ("block", "--mu", "abc"),
        ("block", "--mu", "1;x"),
        ("numrange", "--target", "1"),
        ("numrange", "--target", "a,b"),
    ],
)
def test_unparsable_number_flag_exit_2(command, flag, value, diag2i_file, block_file):
    # rejected while parsing: one line naming the flag, no report, no traceback
    source = block_file if command == "block" else diag2i_file
    res = run_cli(command, "--input", source, flag, value)
    assert res.returncode == 2
    assert res.stdout == ""
    lines = res.stderr.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ") and flag in lines[0], res.stderr
    assert "Traceback" not in res.stderr


@pytest.mark.parametrize(
    "command, flag, value",
    [("numrange", "--target", "-0.1,0.05"), ("block", "--mu", "-1;2"), ("block", "--mu", "-0.5j")],
)
def test_value_beginning_with_minus_parses_in_either_spelling(
    command, flag, value, diag2i_file, block_file, capsys
):
    # spaced and attached with "=", the same checks and summary; the report
    # echoes the spelling the user typed
    source = block_file if command == "block" else diag2i_file
    reports = []
    for spelling in ([flag, value], [f"{flag}={value}"]):
        code, out, err = _main(capsys, command, "--input", source, *spelling)
        assert code == 0, err
        reports.append(json.loads(out))
    spaced, attached = reports
    assert spaced["command"] == " ".join([command, "--input", source, flag, value])
    assert attached["command"] == " ".join([command, "--input", source, f"{flag}={value}"])
    assert (spaced["checks"], spaced["summary"]) == (attached["checks"], attached["summary"])


def test_option_after_mu_is_not_its_value(block_file, capsys):
    code, out, err = _main(capsys, "block", "--input", block_file, "--mu", "--tol", "1")
    assert (code, out) == (2, "")
    assert "argument --mu: expected one argument" in err


@pytest.mark.parametrize("value", ["", ";", " ; ;"])
def test_mu_listing_no_shift_exit_2(value, block_file, capsys):
    # not the 5 random shifts of a run without --mu
    assert _main(capsys, "block", "--input", block_file, "--mu", value) == (
        2, "", "error: --mu lists no shift\n")


@pytest.mark.parametrize("kind", sorted(set(KINDS) - {"block"}))
def test_dim2_of_a_kind_without_blocks_exit_2(kind, tmp_path, capsys):
    # not the dim x dim file of a run without --dim2
    path = tmp_path / "op.json"
    argv = ("gen", "--kind", kind, "--dim", "2", "--dim2", "7")
    for extra in ((), ("--output", str(path))):
        assert _main(capsys, *argv, *extra) == (
            2, "", "error: --dim2 applies only to --kind block\n")
    assert not path.exists()


def test_target_at_dimension_one_exit_2(tmp_path, capsys):
    # the numerical range of a 1x1 operator is a circle: no disk witness
    path = str(tmp_path / "one.json")
    assert cli.main(["gen", "--kind", "selfadjoint", "--dim", "1", "--output", path]) == 0
    assert _main(capsys, "numrange", "--input", path, "--target", "0.1,0") == (
        2, "", "error: witness_disk requires dimension at least 2\n")


OPERATOR_COMMANDS = ("inspect", "identities", "spectrum", "numrange", "extension")


def _write_operator(tmp_path_factory, kind, a) -> str:
    path = tmp_path_factory.mktemp("ops") / f"{kind}.json"
    payload = {
        "schema": SCHEMA,
        "kind": kind,
        "dims": list(a.shape),
        "entries": entries_from_matrix(a),
        "meta": {"seed": 0, "generator": "manual", "description": kind},
    }
    path.write_text(canonical_json(payload) + "\n")
    return str(path)


@pytest.fixture(scope="module")
def conjugation_file(tmp_path_factory):
    return _write_operator(
        tmp_path_factory, "conjugation", symmetric_unitary(np.random.default_rng(0), 4)
    )


@pytest.fixture(scope="module")
def rect_file(tmp_path_factory):
    a = crandn(np.random.default_rng(0), 3, 5) / np.sqrt(5.0)
    return _write_operator(tmp_path_factory, "antilinear", a)


def _main(capsys, *argv) -> tuple:
    """In-process run: (exit code, stdout, stderr)."""
    code = cli.main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


@pytest.mark.parametrize("command", OPERATOR_COMMANDS)
def test_conjugation_file_runs_as_its_operator(command, conjugation_file, capsys):
    code, out, err = _main(capsys, command, "--input", conjugation_file)
    assert code == 0, err
    assert json.loads(out)["summary"]["kind"] == "conjugation"


@pytest.mark.parametrize("command", ("inspect", "identities", "spectrum", "numrange"))
def test_conjugation_file_reports_as_its_antilinear_file(command, tmp_path_factory, capsys):
    # one symmetric unitary written under both kinds: a conjugation loads as
    # its operator, so the reports differ only in kind, digest and command
    k = symmetric_unitary(np.random.default_rng(0), 4)
    reports = []
    for kind in ("conjugation", "antilinear"):
        code, out, err = _main(capsys, command, "--input", _write_operator(tmp_path_factory, kind, k))
        assert code == 0, err
        reports.append(json.loads(out))
    conj, anti = reports
    assert (conj["summary"].pop("kind"), anti["summary"].pop("kind")) == ("conjugation", "antilinear")
    assert conj.pop("input_digest") != anti.pop("input_digest")
    assert conj.pop("command") != anti.pop("command")
    assert conj == anti


def test_numrange_lower_bound_holds_for_scaled_conjugations(tmp_path, tmp_path_factory, capsys):
    # B = r K leaves the sampler's power iteration where it starts, so the
    # disk_lower_bound check relies on the Takagi completion of the polish
    gen = str(tmp_path / "scaled.json")
    argv = ["gen", "--kind", "scaled_antiunitary", "--dim", "16", "--seed", "0"]
    assert cli.main(argv + ["--output", gen]) == 0
    conj = _write_operator(
        tmp_path_factory, "conjugation", symmetric_unitary(np.random.default_rng(0), 16)
    )
    for path in (gen, conj):
        code, out, err = _main(capsys, "numrange", "--input", path)
        assert code == 0, out
        assert json.loads(out)["overall_pass"]


@pytest.fixture(scope="module")
def zero_file(tmp_path_factory):
    return _write_operator(tmp_path_factory, "antilinear", np.zeros((4, 4), dtype=complex))


# T = 0: a rank-0 dagger, a numerical range that is the point 0 (every
# convexity tuple is degenerate) and a span that stops growing at degree 0
ZERO_SUMMARY = {
    "inspect": {"numerical_range_radius": 0, "spectrum_radii": [0]},
    "identities": {"projector_gap": 0, "range_gap": 0},
    "spectrum": {"radii": [0]},
    "numrange": {"radius": 0, "convexity_fallback_rate": 0},
    "extension": {"g_dim": 2, "is_minimal": False, "stabilized_degree": 0},
}


@pytest.mark.parametrize("command", OPERATOR_COMMANDS)
def test_zero_operator(command, zero_file, capsys):
    code, out, err = _main(capsys, command, "--input", zero_file)
    assert code == 0, err
    summary = json.loads(out)["summary"]
    assert {k: summary[k] for k in ZERO_SUMMARY[command]} == ZERO_SUMMARY[command]


@pytest.mark.parametrize(
    "command, message",
    [
        ("inspect", None),
        ("identities", None),
        ("spectrum", "spectrum requires a square operator"),
        ("numrange", "numrange requires a square operator"),
        ("extension", "extension requires a square ambient operator"),
    ],
)
def test_rectangular_operator(command, message, rect_file, capsys):
    code, out, err = _main(capsys, command, "--input", rect_file)
    if message is None:
        assert code == 0, err
        assert json.loads(out)["summary"]["kind"] == "antilinear"
    else:
        assert (code, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("command", OPERATOR_COMMANDS + ("block",))
def test_wrong_file_kind_exit_2(command, block_file, diag2i_file, capsys):
    if command == "block":
        source, message = diag2i_file, "the 'block' subcommand requires a block operator file"
    else:
        source, message = block_file, "block operator files are handled by the 'block' subcommand"
    assert _main(capsys, command, "--input", source) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("command", OPERATOR_COMMANDS + ("block", "gen"))
def test_negative_seed_exit_2(command, block_file, diag2i_file, capsys):
    # one check for every subcommand, naming the flag, before any input is read
    if command == "gen":
        argv = ["gen", "--kind", "selfadjoint", "--dim", "2"]
    else:
        argv = [command, "--input", block_file if command == "block" else diag2i_file]
    assert _main(capsys, *argv, "--seed", "-1") == (
        2, "", "error: --seed must be a non-negative integer, got -1\n"
    )


@pytest.mark.parametrize(
    "command, source",
    [("inspect", "conjugation_file"), ("identities", "rect_file"), ("block", "block_file")],
)
def test_input_digest_is_the_file_digest(command, source, request, capsys):
    path = request.getfixturevalue(source)
    code, out, err = _main(capsys, command, "--input", path)
    assert code in (0, 1), err
    assert json.loads(out)["input_digest"] == load_operator(path).digest


def test_block_tol_zero_names_a_pivot_lu_finds_singular(tmp_path, capsys):
    # at --tol 0 the pivot test can pass an all-ones F (its SVD reads a
    # smallest singular value near 1e-48, above the cutoff 0) that LU then
    # finds singular: T2 is skipped with the pivot named, not exit 2
    path = write_block_file(tmp_path / "ones.json", np.ones((3, 3), dtype=complex))
    code, out, err = _main(capsys, "block", "--input", path, "--tol", "0")
    assert (code, err) == (1, "")   # --tol 0 factorization checks fail by design
    skipped = json.loads(out)["summary"]["skipped"]
    reasons = {line.split(": ", 1)[1] for line in skipped}
    assert len(reasons) == 1 and reasons.pop().startswith("pivot F is numerically singular")
    assert {line.split(" at ")[0] for line in skipped} == {"T2"}


def test_block_with_a_singular_at_zero_skips_the_rank_link(tmp_path, capsys):
    # A = 0 is invertible at every sampled mu but not at 0, where the rank
    # link pivots: the link is skipped with its reason, the rest still runs
    path = write_block_file(tmp_path / "a0.json", np.zeros((3, 3), dtype=complex), name="a")
    code, out, err = _main(capsys, "block", "--input", path)
    assert (code, err) == (0, "")
    report = json.loads(out)
    assert report["summary"]["skipped"] == [
        "rank_link: pivot A is numerically singular (min singular value 0.000e+00)"]
    assert not [c for c in report["checks"] if c["name"].startswith("rank_link")]
    assert "rank_flat" not in report["summary"]
    assert "f_relative_bound" not in report["summary"]


def test_block_lists_each_skipped_complement_once(tmp_path, capsys):
    # three --mu values, one skipped T2 at each: one summary line apiece
    path = write_block_file(tmp_path / "ones.json", np.ones((3, 3), dtype=complex))
    code, out, err = _main(capsys, "block", "--input", path, "--tol", "0",
                           "--mu", "0.3+0.1j;-1;0.5j")
    assert (code, err) == (1, "")
    skipped = json.loads(out)["summary"]["skipped"]
    assert [line.split(": ", 1)[0] for line in skipped] == [
        "T2 at mu_0", "T2 at mu_1", "T2 at mu_2"]


@pytest.mark.parametrize("mu, shown", [("1e160", "(1e+160+0j)"), ("1e200j", "1e+200j")])
def test_block_shift_whose_complement_overflows_exit_2(mu, shown, tmp_path):
    # the quadratic complements grow like |mu|^2 and overflow: one line
    # naming the first such selector and the shift, and no numpy warning
    path = str(tmp_path / "blk.json")
    assert cli.main(["gen", "--kind", "block", "--dim", "16", "--dim2", "16",
                     "--seed", "0", "--output", path]) == 0
    res = run_cli("block", "--input", path, "--mu", mu)
    assert (res.returncode, res.stdout) == (2, "")
    assert res.stderr == f"error: complement T1 at mu = {shown} has non-finite entries\n"


def test_adjoint_pairing_checks_the_package_adjoint(tmp_path, monkeypatch, capsys):
    # an adjoint that returns the conjugate transpose breaks the pairing
    path = str(tmp_path / "op.json")
    assert cli.main(["gen", "--kind", "nonnormal", "--dim", "4", "--output", path]) == 0

    def pairing_pass():
        code, out, err = _main(capsys, "inspect", "--input", path)
        assert code in (0, 1), err
        return {c["name"]: c["pass"] for c in json.loads(out)["checks"]}["adjoint_pairing"]

    assert pairing_pass()
    monkeypatch.setattr(cli.AntilinearOperator, "adjoint",
                        lambda t: cli.AntilinearOperator(t.canon.conj().T))
    assert not pairing_pass()


def test_deeply_nested_file_exit_2(tmp_path):
    # arrays nested past the decoder's recursion limit: one line, not a
    # RecursionError traceback
    deep_array = tmp_path / "deep-array.json"
    deep_array.write_text("[" * 100000 + "]" * 100000)
    res = run_cli("inspect", "--input", str(deep_array))
    assert (res.returncode, res.stdout) == (2, "")
    assert res.stderr.splitlines() == [f"error: {deep_array} nests too deeply to decode"]


@pytest.mark.parametrize("command", OPERATOR_COMMANDS)
def test_deeply_nested_meta_is_digested(tmp_path, command, capsys):
    # a meta that the decoder accepts is rendered for the digest at any depth
    deep_meta = tmp_path / "deep-meta.json"
    nest = "[" * 900 + "]" * 900
    payload = {"schema": SCHEMA, "kind": "antilinear", "dims": [1, 1],
               "entries": [[1.0, 0.0]], "meta": {"nested": "NEST"}}
    deep_meta.write_text(json.dumps(payload).replace('"NEST"', nest))
    canonical = ('{"dims":[1,1],"entries":[[1,0]],"kind":"antilinear","meta":{"nested":'
                 + nest + '},"schema":"' + SCHEMA + '"}')
    code, out, err = _main(capsys, command, "--input", str(deep_meta))
    assert (code, err) == (0, "")
    assert json.loads(out)["input_digest"] == hashlib.sha256(canonical.encode()).hexdigest()


@pytest.fixture(scope="module")
def huge_file(tmp_path_factory):
    # finite entries whose products and squared norms overflow a float
    return _write_operator(tmp_path_factory, "antilinear", np.full((2, 2), 1e300 + 0j))


@pytest.mark.parametrize("command", OPERATOR_COMMANDS)
def test_entries_whose_norms_overflow_exit_2(command, huge_file):
    # no check is decided with an infinite bound, and no numpy warning is printed
    res = run_cli(command, "--input", huge_file)
    assert (res.returncode, res.stdout) == (2, "")
    assert res.stderr.splitlines() == [
        "error: a value overflows the float range: overflow encountered in matmul"]


def test_bound_that_overflows_exit_2(diag2i_file, monkeypatch, capsys):
    # a bound norm**k beyond the float range raises OverflowError in Python;
    # structure binds the real scaled_bound on import, before the patch
    import antilin.structure  # noqa: F401

    monkeypatch.setattr("antilin.reporting.scaled_bound",
                        lambda base, k, norm=0.0: base * (1 + 1e300 ** (k + 1)))
    code, out, err = _main(capsys, "inspect", "--input", diag2i_file)
    assert (code, out) == (2, "")
    assert err == "error: a value overflows the float range: (34, 'Numerical result out of range')\n"


def test_missing_file_exit_2():
    res = run_cli("inspect", "--input", "/nonexistent/op.json")
    assert res.returncode == 2
    assert "Traceback" not in res.stderr


def test_unallocatable_dimension_exit_2():
    # about 70 PiB: the allocation is refused before any memory is touched
    res = run_cli("gen", "--kind", "selfadjoint", "--dim", "100000000")
    assert res.returncode == 2
    assert res.stdout == ""
    lines = res.stderr.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: out of memory: "), res.stderr


# runs ``python -m antilin ARGV`` as its only child and prints the exit code,
# the stderr lines, the wall time and the child's peak RSS in KiB
_MEASURED_CHILD = """
import json, resource, subprocess, sys, time
start = time.perf_counter()
res = subprocess.run([sys.executable, "-m", "antilin"] + sys.argv[1:],
                     capture_output=True, text=True)
print(json.dumps([res.returncode, res.stderr.strip().splitlines(), time.perf_counter() - start,
                  resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss]))
"""


@pytest.mark.parametrize("kind", KINDS)
def test_unallocatable_dimension_fails_before_any_draw(kind, tmp_path):
    # every kind allocates its dim x dim result (or draws it) before any
    # length-dim vector: no gigabytes are drawn first
    out = subprocess.run(
        [sys.executable, "-c", _MEASURED_CHILD, "gen", "--kind", kind, "--dim", "100000000",
         "--output", str(tmp_path / "op.json")],
        capture_output=True, text=True, check=True,
    )
    code, lines, seconds, peak_kib = json.loads(out.stdout)
    assert code == 2 and len(lines) == 1 and lines[0].startswith("error: out of memory: ")
    assert seconds < 30.0 and peak_kib < 300 * 1024, (seconds, peak_kib)


def test_console_script_pins_the_allocator(monkeypatch):
    # the installed `antilin` script must take the same path as `python -m antilin`
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    target = tomllib.loads(pyproject.read_text())["project"]["scripts"]["antilin"]
    module, _, attr = target.partition(":")
    entry = getattr(importlib.import_module(module), attr)
    order = []
    monkeypatch.setattr(entry_module, "_fix_malloc_thresholds", lambda: order.append("fix"))
    monkeypatch.setattr(cli, "main", lambda argv=None: order.append("main") or 0)
    # never freeze the test process itself
    monkeypatch.setattr(entry_module.gc, "freeze", lambda: order.append("freeze"))
    monkeypatch.setattr(sys, "argv", ["antilin"])
    assert entry() == 0
    assert order == ["fix", "main", "freeze"]


@pytest.fixture(scope="module")
def known_fail_file(tmp_path_factory):
    # `identities` on it exits 1 (tests/test_known_fails.py pins its FAILs)
    path = tmp_path_factory.mktemp("ops") / "nilpotent-d8-s1.json"
    argv = ["gen", "--kind", "nilpotent", "--dim", "8", "--seed", "1", "--output", str(path)]
    assert cli.main(argv) == 0
    return str(path)


@pytest.mark.parametrize("dest", ["stdout", "--output"])
@pytest.mark.parametrize("case, code", [("pass", 0), ("fail", 1), ("usage", 2)])
def test_exit_path_changes_no_report(
    case, code, dest, diag2i_file, known_fail_file, tmp_path, monkeypatch, capsys
):
    # `python -m antilin` freezes its heap after the run; the bytes it
    # writes and its exit code are those of cli.main in process
    argv = {
        "pass": ["inspect", "--input", diag2i_file],
        "fail": ["identities", "--input", known_fail_file, "--csv"],
        "usage": ["block", "--input", diag2i_file],
    }[case]
    if dest == "--output":
        argv += ["--output", "report.out"]   # relative: the report echoes it
    cold_dir, warm_dir = tmp_path / "cold", tmp_path / "warm"
    cold_dir.mkdir()
    warm_dir.mkdir()
    # block-buffered stdout, as in a pipe: an exit that skipped the final
    # flush would lose the report
    monkeypatch.delenv("PYTHONUNBUFFERED", raising=False)
    cold = run_cli(*argv, cwd=cold_dir)
    monkeypatch.chdir(warm_dir)
    warm = _main(capsys, *argv)
    assert (cold.returncode, cold.stdout, cold.stderr) == warm
    assert warm[0] == code
    written = [sorted(p.name for p in d.iterdir()) for d in (cold_dir, warm_dir)]
    assert written[0] == written[1] == (["report.out"] if dest == "--output" and code < 2 else [])
    for name in written[0]:
        assert (cold_dir / name).read_bytes() == (warm_dir / name).read_bytes()
    assert gc.get_freeze_count() == 0   # cli.main leaves the caller's heap alone
