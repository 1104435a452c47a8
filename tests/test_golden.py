"""Golden CLI output: exit codes and SHA-256 digests of stdout.

Each step runs through cli.main and its stdout is written to a file named
after the step, so later steps can read it: an argv entry "@name" is the
path of the stdout of the earlier step of that name.  A change that alters
any emitted byte changes a digest here.
"""

import hashlib
import json

from weakhopf.cli import main

GOLDEN = [
    # (step, argv, exit code, SHA-256 of stdout)
    (
        "s3a3",
        ["construct", "adcross", "--group", "S3", "--subgroup", "A3"],
        0,
        "1b08cb2e74073cbf3ffacb2048f89e6d3aa1ac0db167450085296ed24c0ec433",
    ),
    (
        "s3a3-report",
        ["report", "@s3a3"],
        0,
        "123decd7277f847672bd1438265598362fa708b3268aacdd0407fa6fb3496932",
    ),
    (
        "s3a3-report-text",
        ["report", "@s3a3", "--format", "text"],
        0,
        "d35b3a466d91a1ef23be42c824b9a02e5d8f012941faa05de313d1334b305f56",
    ),
    (
        "s3a3-dual",
        ["dual", "@s3a3"],
        0,
        "bc324d0266e358d60ae95811033cffff774f9b69126dfd0ff3f4be667e16d680",
    ),
    (
        "s3a3-dual-dual",
        ["dual", "@s3a3-dual"],
        0,
        "7e8760a80a8046105842d6808cb87a65f5632d4ecfeec613033cdcbe7a2337d7",
    ),
    (
        "example1",
        ["catalog", "emit", "example1"],
        0,
        "da69145dac34824231b2cf19d8ee91d782f1cdcf3307b2ec4828ecb9443a94a1",
    ),
    (
        "example1-validate",
        ["validate", "@example1"],
        0,
        "ab3e697cb9816c8b72ee3a619431dac94c3f0251632f730e03489b19f3bf703e",
    ),
    (
        "example1-report",
        ["report", "@example1"],
        0,
        "8ceb15810f02177349e37b87aa76cfe710a5f54f1c4106b004ec9bf2d37889a4",
    ),
    (
        "bsz-dual3",
        ["catalog", "emit", "bsz-dual:3"],
        0,
        "62a8f1dfb2a617825f4a7653d321266bc0b34da2c476e35d4922f881bd89540d",
    ),
    (
        "bsz-dual3-validate",
        ["validate", "@bsz-dual3"],
        0,
        "ab3e697cb9816c8b72ee3a619431dac94c3f0251632f730e03489b19f3bf703e",
    ),
    (
        "bsz-dual3-report",
        ["report", "@bsz-dual3"],
        0,
        "8770e75340abba51fe399e7521a44a099ceefb7c837f925079a6730eeef931da",
    ),
    (
        "dualgroup-s3",
        ["catalog", "emit", "dualgroup:s3"],
        0,
        "ac326b3409625841c47fdd17e9b5e63cfdb5726c1450f928eb6c83f707d5ebbb",
    ),
    (
        "dualgroup-s3-validate",
        ["validate", "@dualgroup-s3"],
        0,
        "8981d70c010f3d6f51eccfe99d6f701ec6974dbee8c14f1f8e34f95b64f37824",
    ),
    (
        "dualgroup-s3-report",
        ["report", "@dualgroup-s3"],
        0,
        "ac97962b1aa886579a25188e9c7749bcd17412be534ba049a4fc2e80cb1bf857",
    ),
]


def test_cli_stdout_digests(tmp_path, capsys):
    got = []
    outputs = {}
    for step, argv, _, _ in GOLDEN:
        argv = [str(tmp_path / a[1:]) if a.startswith("@") else a for a in argv]
        code = main(argv)
        out = capsys.readouterr().out
        (tmp_path / step).write_text(out)
        outputs[step] = out
        got.append((step, argv[0], code, hashlib.sha256(out.encode()).hexdigest()))
    assert got == [(step, argv[0], code, digest) for step, argv, code, digest in GOLDEN]
    # the dual of the dual is the constructed document without its extras
    constructed = json.loads(outputs["s3a3"])
    del constructed["extras"]
    assert json.loads(outputs["s3a3-dual-dual"]) == constructed
