"""Golden output of `weakhopf rep`: exit codes and SHA-256 digests of stdout.

Each instance is emitted from the catalog into a file, and every rep
subcommand runs on that file through cli.main.  A change that alters any
emitted byte of tensor, unit, end or coherence changes a digest here.
"""

import hashlib

import pytest

from weakhopf.cli import main

INSTANCES = ["example1", "bsz-dual:2", "group:s3", "dualgroup:s3"]

GOLDEN = {
    # (instance, subcommand): (exit code, SHA-256 of stdout)
    ("example1", "tensor"): (0, "33569fd3b6c9313f3d2a2ae30cec02e9cbb0d204f10afab918cbc47fba1257c7"),
    ("example1", "unit"): (0, "f8005a9922ccb9b8db638e5e18771ae146dffcef6fd0914ae6ee6cba6d675e5b"),
    ("example1", "end"): (0, "659b284c2e2e8226f17a869b7e35ffc413ec99bbc8be33c0cdab24db8bbb521a"),
    ("example1", "coherence"): (0, "aae0f6f09f96c90180a6c4e1d6930ea3f1328132791b906944ba53a0f48d6855"),
    ("bsz-dual:2", "tensor"): (0, "9d21abef05b9738339fe4ae4492f0e499723c9c6e141f56d5f169d8218de7da5"),
    ("bsz-dual:2", "unit"): (0, "bb9b413afa53f79279ef3dbb3bded6aae029e3f16e27e65a89c41d7e04d1c332"),
    ("bsz-dual:2", "end"): (0, "b55951d6e6b335c3196cbfcd91eb4fe7b7794976a7d334032a1ef16fe100511b"),
    ("bsz-dual:2", "coherence"): (0, "d32b9d44f3a31fc030a3002d9ba435180bb9e182e6357ba67f17e0cd36398910"),
    ("group:s3", "tensor"): (0, "347201cff522f8f9c994b25510e1d3871c5a2ec077c2f89eaf1a0af9118019cd"),
    ("group:s3", "unit"): (0, "b373c22e75e372764cd8d5a8454b26bc09169fb7080369a522345c871a5a5de4"),
    ("group:s3", "end"): (0, "b94ce0a74c62346f01b4909831d0fba98d90434b07ef9e5d16ec97443ebb544e"),
    ("group:s3", "coherence"): (0, "d32b9d44f3a31fc030a3002d9ba435180bb9e182e6357ba67f17e0cd36398910"),
    ("dualgroup:s3", "tensor"): (0, "347201cff522f8f9c994b25510e1d3871c5a2ec077c2f89eaf1a0af9118019cd"),
    ("dualgroup:s3", "unit"): (0, "b373c22e75e372764cd8d5a8454b26bc09169fb7080369a522345c871a5a5de4"),
    ("dualgroup:s3", "end"): (0, "b94ce0a74c62346f01b4909831d0fba98d90434b07ef9e5d16ec97443ebb544e"),
    ("dualgroup:s3", "coherence"): (0, "d32b9d44f3a31fc030a3002d9ba435180bb9e182e6357ba67f17e0cd36398910"),
}


@pytest.mark.parametrize("instance", INSTANCES)
def test_rep_stdout_digests(instance, tmp_path, capsys):
    path = str(tmp_path / "instance.json")
    assert main(["catalog", "emit", instance, "--out", path]) == 0
    capsys.readouterr()
    got = {}
    want = {}
    for sub in ("tensor", "unit", "end", "coherence"):
        code = main(["rep", sub, path])
        out = capsys.readouterr().out
        got[sub] = (code, hashlib.sha256(out.encode()).hexdigest())
        want[sub] = GOLDEN[instance, sub]
    assert got == want
