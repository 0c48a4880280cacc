"""Report bytes pinned by sha256.

Each case generates one operator file with ``antilin gen`` and runs one
subcommand on it in process (``block`` files with ``--dim2`` equal to
``--dim``), from a fixed relative path so that the report's ``command``
field is the same everywhere.  A change that is meant to keep reports
byte-identical (a faster route to the same floating-point operations) must
leave every digest here unchanged; a change that alters a report on purpose
updates its digest and says why.
"""

import contextlib
import hashlib
import io

import pytest

from antilin.cli import main

TRIPLES = (
    ("selfadjoint", 4, 0),
    ("scaled_antiunitary", 8, 1),
    ("twisted_normal", 16, 2),
    ("nonnormal", 4, 0),
    ("nilpotent", 8, 1),
    ("multiplication", 16, 0),
)
NORMAL = {"selfadjoint", "scaled_antiunitary", "twisted_normal", "multiplication"}
COMMANDS = ("inspect", "numrange", "extension", "spectrum")
BLOCK_CASES = (("block", 8, 0, "block"), ("block", 4, 1, "block"))

# (kind, dim, seed, command) -> (exit code, sha256 of the report)
DIGESTS = {
    ('selfadjoint', 4, 0, 'inspect'): (0, '355bcc942846143ee476a21ef73dffa574e591beba296deba004645ba721f3b7'),
    ('selfadjoint', 4, 0, 'numrange'): (0, 'aca14610d47837cc945e2ba74c78590e14a78b09c8b98cea34e2bd1f1811037e'),
    ('selfadjoint', 4, 0, 'extension'): (0, '9b6987c524608fd209945204f5ee98848e3ff0afce86f7bd219af0c4ee1d93ed'),
    ('selfadjoint', 4, 0, 'spectrum'): (0, 'bca54dc235f31dd0c4df85c12fc6aefe2ce49fdc9df782b6551374b2d31ae7b3'),
    ('scaled_antiunitary', 8, 1, 'inspect'): (0, 'ffee65c57c1eef26738dca117854b54637fee45a90c39fa41dcd8a436634e771'),
    ('scaled_antiunitary', 8, 1, 'numrange'): (0, '3af93688eb8a4fbcd05c2ba826b8e42c200d233ca74b0168989a7b374e869782'),
    ('scaled_antiunitary', 8, 1, 'extension'): (0, '2fc5ae52251ff470f397688fda5143ee5380e88df7a9c72e8613a8e1bb9a59c1'),
    ('scaled_antiunitary', 8, 1, 'spectrum'): (0, 'b2b0d8e34115c32116809bc37ea942c91ab44b28aa07981218c9136a114228a8'),
    ('twisted_normal', 16, 2, 'inspect'): (0, 'cd23e5282e34dc32147d2cd7ff503a13815d7828916ddb30b98cf2fbabdee1bd'),
    ('twisted_normal', 16, 2, 'numrange'): (0, '8b94d6ed316df5c32bdae89e265725d56a7d7db8525249f60cba8929985b2dcb'),
    ('twisted_normal', 16, 2, 'extension'): (0, '4ac626a0f4e0768a8d0ae6e07723ca1aaec1e7a26e6d7294ba361e27974b2a86'),
    ('twisted_normal', 16, 2, 'spectrum'): (0, 'ed482c869bd29c9f6d1c1c27f7d18751df28702ace1a9f72e37d437d2107db64'),
    ('nonnormal', 4, 0, 'inspect'): (0, '3487522bf2b19e2b6f229543b10706962643bce49f6a5da58efb8bf45a7b26be'),
    ('nonnormal', 4, 0, 'numrange'): (0, 'e2739cd5a1e10cfe7f87cf7174117b5623af43e8a2e15717c4854aa8a1bb0aec'),
    ('nonnormal', 4, 0, 'spectrum'): (0, '5f7241c182bdc13b3c579f24044a87f9638ccd6ecf09c534c87a2af9d305b504'),
    ('nilpotent', 8, 1, 'inspect'): (0, '74ceb7630275f5a3adb570607cc37b3a99085974dce13110b53bae61d4887a95'),
    ('nilpotent', 8, 1, 'numrange'): (0, '102fc7328fa2c53eb4dfaa82190f5a0bc62f35d50c445102c1fc912cc35e263e'),
    ('nilpotent', 8, 1, 'spectrum'): (0, '42c656122ebf1f208c6f3c2286a0e5ec8b83d1a8683dac6a2b05387603ae8671'),
    ('multiplication', 16, 0, 'inspect'): (0, 'e3151f926d13fc2db5d83de3aa8a21340f0095875518217d5bf37c4d2bdb628e'),
    ('multiplication', 16, 0, 'numrange'): (0, '1670855d1ff010cc8aca2e6aeabb48301c107681643e83b513b219b3fa4f9733'),
    ('multiplication', 16, 0, 'extension'): (0, '18c611536b3ba9a3bd2ddb61afdcb68698468e04909d42fce3936166be820128'),
    ('multiplication', 16, 0, 'spectrum'): (0, '36c523ea2bfaecacac6691ae4fac6f462fa264dfca90b865a59461c6f0b9d458'),
    ('block', 8, 0, 'block'): (0, 'aff37bd844af5bbb657f6bfdcbf25e61cfeb4b31944255dd8234273ffa83732b'),
    ('block', 4, 1, 'block'): (0, '0d72b0993e2fe1c5a8e81d60af7cb8b0567e7f3ef622024e464a0ca2316a521a'),
}


def cases():
    return [
        (kind, dim, seed, cmd)
        for kind, dim, seed in TRIPLES
        for cmd in COMMANDS
        if cmd != "extension" or kind in NORMAL
    ] + list(BLOCK_CASES)


def report_digest(kind, dim, seed, cmd):
    """Exit code and report sha256 of one case, run in the current directory."""
    gen = ["gen", "--kind", kind, "--dim", str(dim), "--seed", str(seed), "--output", "op.json"]
    if kind == "block":
        gen += ["--dim2", str(dim)]
    assert main(gen) == 0
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main([cmd, "--input", "op.json", "--seed", str(seed)])
    return code, hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest()


@pytest.mark.parametrize("kind,dim,seed,cmd", cases())
def test_report_digest(kind, dim, seed, cmd, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert report_digest(kind, dim, seed, cmd) == DIGESTS[(kind, dim, seed, cmd)]
