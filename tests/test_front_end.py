"""The CLI front end: the emitter against the standard library, the parser
kept between main calls, and the cache of parsed scalar strings.

The oracle of the emitter is json.dumps(doc, indent=2) plus a newline, on
every kind of document the CLI writes.  The oracle of a main call is the
same command run through a newly executed cli module, whose parser is
built for that one call, as a one-shot shell command builds it.
"""

import json
import runpy
import sys
import warnings
from fractions import Fraction

import pytest

from weakhopf import cli
from weakhopf.cli import main
from weakhopf.constructions import catalog_names
from weakhopf.serialize import (
    ParseError,
    document_to_algebra,
    dumps,
    parse_matrix,
    parse_sparse_entries,
    parse_vector,
)


def stdlib(doc):
    return json.dumps(doc, indent=2) + "\n"


def cli_json(argv, capsys, code=0):
    """The stdout of main(argv), checked against the stdlib encoding of the
    document it holds, and that document."""
    assert main(argv) == code
    text = capsys.readouterr().out
    doc = json.loads(text)
    assert dumps(doc) == stdlib(doc) == text
    return doc


@pytest.fixture
def files(tmp_path):
    """Input documents written by the CLI: example1, a copy of it with
    violations, the rigidity example and its twist, and bsz-dual:2."""
    paths = {}
    for name in ("example1", "example2-rigidity", "bsz-dual:2"):
        paths[name] = str(tmp_path / (name.replace(":", "_") + ".json"))
        assert main(["catalog", "emit", name, "--out", paths[name]]) == 0
    with open(paths["example1"], encoding="utf-8") as fh:
        doc = json.load(fh)
    doc["comult"] = [e for e in doc["comult"] if e[0] != 0]
    paths["broken"] = str(tmp_path / "broken.json")
    with open(paths["broken"], "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    with open(paths["example2-rigidity"], encoding="utf-8") as fh:
        doc = json.load(fh)
    doc["extras"]["twist"] = {"u": doc["unit"], "ubar": doc["unit"]}
    doc["extras"]["rigidity2"] = doc["extras"]["rigidity"]
    paths["twist"] = str(tmp_path / "twist.json")
    with open(paths["twist"], "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    return paths


# -- the emitter --------------------------------------------------------------


@pytest.mark.parametrize("name", catalog_names())
def test_catalog_emit_is_the_stdlib_encoding(capsys, name):
    cli_json(["catalog", "emit", name], capsys)


def test_command_outputs_are_the_stdlib_encoding(capsys, files):
    report = cli_json(["report", files["example1"], "--witness-limit", "3"], capsys)
    assert report["axioms"]["witnesses"]
    cli_json(["report", files["bsz-dual:2"]], capsys)
    assert cli_json(["antipode", files["bsz-dual:2"]], capsys)["matrix"]
    cli_json(["antipode", files["example1"]], capsys)
    broken = cli_json(["validate", files["broken"], "--witness-limit", "3"], capsys, code=1)
    assert broken["violations"] and broken["violations"][0]["witness"] is not None
    cli_json(["report", files["broken"]], capsys, code=1)
    assert cli_json(["rigidity", "verify", files["example2-rigidity"]], capsys)["status"] == "rigid"
    cli_json(["rigidity", "twist", files["twist"]], capsys)
    cli_json(["rigidity", "intertwine", files["twist"]], capsys)
    for sub in ("tensor", "unit", "end", "coherence"):
        cli_json(["rep", sub, files["bsz-dual:2"]], capsys)
    built = cli_json(["construct", "adcross", "--group", "S3", "--subgroup", "A3"], capsys)
    assert built["extras"]["antipode"]


DOCUMENTS = [
    {},
    [],
    {"basis": ['quote " and backslash \\', "é", "☃", "\n\t\x00", "\U0001d11e"]},
    {"empty": {}, "none": [], "nested": [[], {}, [[]], {"a": {}}]},
    {"ints": [0, -1, -123456789012345678901234567890, 7], "bools": [True, False], "none": None},
    {"é key": None, "": "", "quote\"key": [None, True, 0]},
    "a bare string",
    -5,
    None,
    False,
]


@pytest.mark.parametrize("doc", DOCUMENTS, ids=range(len(DOCUMENTS)))
def test_dumps_is_the_stdlib_encoding(doc):
    assert dumps(doc) == stdlib(doc)


class Label(str):
    pass


@pytest.mark.parametrize(
    "doc",
    [
        {"float": 1.5},
        {"tuple": (1, "2", [3])},
        {1: "int key", None: "none key", True: "bool key"},
        {"subclass": Label("x"), Label("key"): 1},
        [float("inf")],
    ],
    ids=["float", "tuple", "non-string-keys", "str-subclass", "infinity"],
)
def test_other_values_encode_as_the_stdlib_does(doc):
    assert dumps(doc) == stdlib(doc)


def test_unencodable_values_raise_as_the_stdlib_does():
    for doc in ({"scalar": Fraction(1, 3)}, {(1, 2): "tuple key"}):
        with pytest.raises(TypeError) as ours:
            dumps(doc)
        with pytest.raises(TypeError) as theirs:
            stdlib(doc)
        assert str(ours.value) == str(theirs.value)
    circular = []
    circular.append(circular)
    with pytest.raises(ValueError, match="Circular reference"):
        dumps(circular)


def test_dumps_matches_the_stdlib_on_random_documents():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    scalars = st.none() | st.booleans() | st.integers() | st.text()
    values = st.recursive(scalars, lambda inner: st.lists(inner) | st.dictionaries(st.text(), inner), max_leaves=20)

    @hypothesis.settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @hypothesis.given(values)
    def check(doc):
        assert dumps(doc) == stdlib(doc)

    check()


# -- the parser kept between calls ------------------------------------------


def fresh_main(argv, capsys, monkeypatch):
    """Exit code and stdout of argv through a newly executed cli module."""
    monkeypatch.setattr(sys, "argv", ["weakhopf"] + argv)
    with warnings.catch_warnings():
        # runpy warns that weakhopf.cli is already imported; it runs anew
        warnings.simplefilter("ignore", RuntimeWarning)
        with pytest.raises(SystemExit) as exit_:
            runpy.run_module("weakhopf.cli", run_name="__main__")
    return exit_.value.code, capsys.readouterr().out


def test_repeated_main_calls_match_a_fresh_parser(capsys, monkeypatch, files):
    example1, broken = files["example1"], files["broken"]
    runs = [
        ["report", example1, "--format", "text"],
        ["report", example1],
        ["report", example1, "--witness-limit", "0"],
        ["report", example1, "--witness-limit", "3"],
        ["report", example1],
        ["validate", broken, "--witness-limit", "0"],
        ["validate", broken, "--witness-limit", "3", "--format", "text"],
        ["validate", broken, "--witness-limit", "3"],
        ["validate", broken],
        ["catalog", "list", "--format", "text"],
        ["catalog", "list"],
    ]
    outputs = []
    for argv in runs:
        code = main(argv)
        outputs.append((code, capsys.readouterr().out))
        assert outputs[-1] == fresh_main(argv, capsys, monkeypatch), argv
    # text, json and no witnesses are three outputs, and so are zero, three
    # and one violations listed
    assert len({outputs[0], outputs[1], outputs[2]}) == 3
    assert len({outputs[5], outputs[7], outputs[8]}) == 3


def test_a_replaced_command_runs_after_the_parser_is_built(capsys, monkeypatch, files):
    assert main(["dual", files["example1"]]) == 0
    capsys.readouterr()
    seen = []

    def replacement(args):
        seen.append((args.command, args.path, args.format))
        return 7

    monkeypatch.setattr(cli, "cmd_dual", replacement)
    assert main(["dual", files["example1"], "--format", "text"]) == 7
    assert seen == [("dual", files["example1"], "text")]
    assert capsys.readouterr().out == ""


# -- cached scalar strings ---------------------------------------------------


@pytest.mark.parametrize(
    "bad,message",
    [
        ("1/0", "zero denominator in scalar '1/0'"),
        ("1_0", "scalar '1_0' is not of the form 'p' or 'p/q'"),
        (True, "boolean is not a scalar"),
        (1.0, "scalar must be an integer or a string, got 1.0"),
    ],
    ids=["zero-denominator", "underscore", "boolean", "float"],
)
def test_a_malformed_scalar_after_valid_repeats_raises_the_same_error(bad, message):
    """Only strings are cached: true and 1.0 are not a cached 1, not even
    one given as a Fraction, which equals them."""
    good = ["1", 1, Fraction(1), "1/3", " 1/3 ", "-2"] * 40
    with pytest.raises(ParseError) as exc:
        parse_vector(good + [bad])
    assert str(exc.value) == "bad vector: " + message
    with pytest.raises(ParseError) as exc:
        parse_matrix([good[:6]] * 40 + [good[:5] + [bad]])
    assert str(exc.value) == "bad matrix: " + message
    entries = [[i, j, 0, good[i + j]] for i in range(10) for j in range(10)]
    with pytest.raises(ParseError) as exc:
        parse_sparse_entries(entries + [[0, 0, 1, bad]], 10)
    assert str(exc.value) == message


def test_one_document_parses_each_scalar_string_to_its_value():
    n = 3
    doc = {
        "field": "Q",
        "dim": n,
        "mult": [[i, i, i, "1"] for i in range(n)],
        "unit": ["1", " 1", 1],
        "comult": [[i, i, i, "1"] for i in range(n)],
        "counit": ["1", "1/1", "2/2"],
    }
    algebra = document_to_algebra(doc)
    assert algebra.unit == algebra.counit == (1, 1, 1)
    assert all(type(c) is Fraction for c in algebra.unit + algebra.counit)
    first = parse_vector(["1/3", "2/6", "-1/3"])
    assert first == (Fraction(1, 3), Fraction(1, 3), Fraction(-1, 3))


# -- bad input found by the parsing code -------------------------------------


def test_zero_dimensional_construction_factors_exit_two(tmp_path, capsys):
    empty = {"dim": 0, "mult": [], "unit": []}
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({"a1": empty, "a2": empty, "p": []}))
    assert main(["construct", "minimal", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.err == "input error: dimension must be positive\n"
    assert captured.out == ""


@pytest.mark.parametrize("labels", [[[1], {}], ["e", 2], ["e", None]], ids=["containers", "int", "null"])
def test_non_string_basis_labels_exit_two(tmp_path, capsys, labels):
    path = tmp_path / "z2.json"
    assert main(["catalog", "emit", "group:z2", "--out", str(path)]) == 0
    doc = json.loads(path.read_text())
    doc["basis"] = labels
    path.write_text(json.dumps(doc))
    for argv in (["dual", str(path)], ["validate", str(path)]):
        assert main(argv) == 2
        assert capsys.readouterr().err == "input error: basis labels must be strings\n"
    spec = {
        "a1": {"dim": 2, "mult": [[0, 0, 0, "1"], [1, 1, 1, "1"]], "unit": ["1", "1"], "basis": labels},
        "a2": {"dim": 2, "mult": [[0, 0, 0, "1"], [1, 1, 1, "1"]], "unit": ["1", "1"]},
        "p": [["1", "0"], ["0", "1"]],
    }
    path.write_text(json.dumps(spec))
    assert main(["construct", "minimal", str(path)]) == 2
    assert capsys.readouterr().err == "input error: basis labels must be strings\n"
