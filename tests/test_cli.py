import json

import pytest

from weakhopf.cli import main
from weakhopf.constructions import catalog, catalog_names
from weakhopf.serialize import algebra_to_document, dumps, load_path


def run(args, capsys):
    code = main(args)
    out = capsys.readouterr().out
    return code, out


def test_catalog_list(capsys):
    code, out = run(["catalog", "list"], capsys)
    assert code == 0
    names = json.loads(out)["names"]
    assert "example1" in names and "trivial" in names


def test_validate_ok(tmp_path, capsys):
    path = tmp_path / "ex1.json"
    assert main(["catalog", "emit", "example1", "--out", str(path)]) == 0
    code, out = run(["validate", str(path)], capsys)
    assert code == 0
    assert json.loads(out)["valid"] is True


def test_validate_broken_exit_one(tmp_path, capsys):
    path = tmp_path / "ex1.json"
    main(["catalog", "emit", "example1", "--out", str(path)])
    doc = load_path(str(path))
    doc["comult"] = [e for e in doc["comult"] if e[0] != 0]
    bad = tmp_path / "broken.json"
    bad.write_text(dumps(doc))
    code, out = run(["validate", str(bad)], capsys)
    assert code == 1
    report = json.loads(out)
    assert report["valid"] is False
    assert report["violations"]
    assert report["violations"][0]["witness"] is not None


def test_malformed_scalar_exit_two(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(
        json.dumps(
            {
                "field": "Q",
                "dim": 1,
                "basis": ["1"],
                "mult": [[0, 0, 0, "1/0"]],
                "unit": ["1"],
                "comult": [[0, 0, 0, "1"]],
                "counit": ["1"],
            }
        )
    )
    code, _ = run(["validate", str(bad)], capsys)
    assert code == 2


def test_missing_file_exit_two(capsys):
    code, _ = run(["validate", "/nonexistent/algebra.json"], capsys)
    assert code == 2


def test_report_example1(tmp_path, capsys):
    path = tmp_path / "ex1.json"
    main(["catalog", "emit", "example1", "--out", str(path)])
    code, out = run(["report", str(path)], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["axioms"]["comonoidal"] is True
    assert doc["axioms"]["monoidal"] is False
    assert doc["antipode"]["kind"] == "none"
    assert doc["weak_hopf"] is False


def test_report_trivial_all_flags(tmp_path, capsys):
    path = tmp_path / "t.json"
    main(["catalog", "emit", "trivial", "--out", str(path)])
    code, out = run(["report", str(path)], capsys)
    doc = json.loads(out)
    assert code == 0
    ax = doc["axioms"]
    assert all(
        ax[k]
        for k in (
            "left_monoidal",
            "right_monoidal",
            "left_comonoidal",
            "right_comonoidal",
            "minimal",
            "cominimal",
        )
    )
    assert doc["ordinary_hopf"] is True


def test_emit_parse_emit_round_trip(tmp_path):
    from weakhopf.constructions import catalog_names

    for name in catalog_names():
        first = tmp_path / "a.json"
        second = tmp_path / "b.json"
        assert main(["catalog", "emit", name, "--out", str(first)]) == 0
        doc = load_path(str(first))
        from weakhopf.serialize import algebra_to_document, document_to_algebra

        reparsed = document_to_algebra(doc)
        redoc = algebra_to_document(reparsed, extras=doc.get("extras"))
        second.write_text(dumps(redoc))
        assert first.read_text() == second.read_text(), name


def test_dual_twice_byte_identical(tmp_path):
    src = tmp_path / "ex1.json"
    once = tmp_path / "d1.json"
    twice = tmp_path / "d2.json"
    main(["catalog", "emit", "example1", "--out", str(src)])
    assert main(["dual", str(src), "--out", str(once)]) == 0
    assert main(["dual", str(once), "--out", str(twice)]) == 0
    assert src.read_text() == twice.read_text()


def test_antipode_command(tmp_path, capsys):
    path = tmp_path / "bd.json"
    main(["catalog", "emit", "bsz-dual:2", "--out", str(path)])
    code, out = run(["antipode", str(path)], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["kind"] == "antipode"
    assert doc["bijective"] and doc["pode_inverse"]


def test_construct_adcross_then_report(tmp_path, capsys):
    path = tmp_path / "s3a3.json"
    assert (
        main(
            [
                "construct",
                "adcross",
                "--group",
                "S3",
                "--subgroup",
                "A3",
                "--out",
                str(path),
            ]
        )
        == 0
    )
    code, out = run(["report", str(path)], capsys)
    doc = json.loads(out)
    assert code == 0
    assert doc["weak_hopf"] is True
    assert doc["axioms"]["dimensions"]["algebra"] == 18


def test_construct_minimal_via_file(tmp_path, capsys):
    spec = {
        "a1": {
            "dim": 2,
            "mult": [[0, 0, 0, "1"], [1, 1, 1, "1"]],
            "unit": ["1", "1"],
            "basis": ["e1", "e2"],
        },
        "a2": {
            "dim": 2,
            "mult": [[0, 0, 0, "1"], [1, 1, 1, "1"]],
            "unit": ["1", "1"],
            "basis": ["f1", "f2"],
        },
        "p": [["1", "0"], ["0", "1"]],
    }
    src = tmp_path / "minimal.json"
    src.write_text(json.dumps(spec))
    out_path = tmp_path / "built.json"
    assert main(["construct", "minimal", str(src), "--out", str(out_path)]) == 0
    code, out = run(["report", str(out_path)], capsys)
    assert code == 0
    assert json.loads(out)["axioms"]["comonoidal"] is True


def test_construct_minimal_rejects_degenerate(tmp_path, capsys):
    spec = {
        "a1": {
            "dim": 2,
            "mult": [[0, 0, 0, "1"], [1, 1, 1, "1"]],
            "unit": ["1", "1"],
        },
        "a2": {
            "dim": 2,
            "mult": [[0, 0, 0, "1"], [1, 1, 1, "1"]],
            "unit": ["1", "1"],
        },
        "p": [["1", "1"], ["1", "1"]],
    }
    src = tmp_path / "degenerate.json"
    src.write_text(json.dumps(spec))
    code = main(["construct", "minimal", str(src)])
    assert code == 1


def test_rigidity_verify_and_twist(tmp_path, capsys):
    path = tmp_path / "ex2.json"
    main(["catalog", "emit", "example2-rigidity", "--out", str(path)])
    code, out = run(["rigidity", "verify", str(path)], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["status"] == "rigid"
    # identity twist through the CLI
    source = load_path(str(path))
    s_one_doc = load_path(str(path))
    from weakhopf.serialize import document_to_algebra, parse_matrix, vector_to_list

    algebra = document_to_algebra(source)
    s = parse_matrix(source["extras"]["rigidity"]["s"])
    s_one = s.apply(algebra.unit)
    source["extras"]["twist"] = {
        "u": vector_to_list(s_one),
        "ubar": vector_to_list(s_one),
    }
    twisted_in = tmp_path / "twist-in.json"
    twisted_in.write_text(dumps(source))
    out_path = tmp_path / "twisted.json"
    assert main(["rigidity", "twist", str(twisted_in), "--out", str(out_path)]) == 0
    twisted = load_path(str(out_path))
    assert twisted["extras"]["rigidity"]["s"] == source["extras"]["rigidity"]["s"]


def test_rigidity_intertwine(tmp_path, capsys):
    path = tmp_path / "ex2.json"
    main(["catalog", "emit", "example2-rigidity", "--out", str(path)])
    doc = load_path(str(path))
    doc["extras"]["rigidity2"] = doc["extras"]["rigidity"]
    src = tmp_path / "pair.json"
    src.write_text(dumps(doc))
    code, out = run(["rigidity", "intertwine", str(src)], capsys)
    assert code == 0
    pair = json.loads(out)
    assert "u" in pair and "ubar" in pair


def test_rigidity_example2_command(tmp_path, capsys):
    path = tmp_path / "ex1.json"
    main(["catalog", "emit", "example1", "--out", str(path)])
    doc = load_path(str(path))
    doc["extras"] = {
        "cross_map": [["1", "0", "0"], ["1", "1", "0"], ["0", "0", "1"]]
    }
    src = tmp_path / "with-map.json"
    src.write_text(dumps(doc))
    out_path = tmp_path / "structure.json"
    assert main(["rigidity", "example2", str(src), "--out", str(out_path)]) == 0
    built = load_path(str(out_path))
    assert built["extras"]["rigidity"]["status"] == "rigid"
    # beta of the emitted structure is the counit of the source instance
    assert built["extras"]["rigidity"]["beta"] == doc["counit"]


def test_rep_commands(tmp_path, capsys):
    path = tmp_path / "ex1.json"
    main(["catalog", "emit", "example1", "--out", str(path)])
    code, out = run(["rep", "tensor", str(path)], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["plain_dimension"] == 81 and doc["truncated_dimension"] == 45
    code, _ = run(["rep", "coherence", str(path)], capsys)
    assert code == 0
    code, _ = run(["rep", "end", str(path)], capsys)
    assert code == 0
    bd = tmp_path / "bd.json"
    main(["catalog", "emit", "bsz-dual:2", "--out", str(bd)])
    code, _ = run(["rep", "unit", str(bd)], capsys)
    assert code == 0


def test_text_format(tmp_path, capsys):
    path = tmp_path / "t.json"
    main(["catalog", "emit", "trivial", "--out", str(path)])
    code, out = run(["report", str(path), "--format", "text"], capsys)
    assert code == 0
    assert "valid: True" in out


def test_witness_limit_zero_hides_witnesses(tmp_path, capsys):
    path = tmp_path / "ex1.json"
    main(["catalog", "emit", "example1", "--out", str(path)])
    code, out = run(["report", str(path), "--witness-limit", "0"], capsys)
    assert json.loads(out)["axioms"]["witnesses"] == {}


_DIAGONAL = [[0, 0, 0, "1"], [1, 1, 1, "1"]]


def _minimal_spec(a1_mult):
    algebra = {"dim": 2, "mult": [[0, 0, 0, "1"], [1, 1, 1, "1"]], "unit": ["1", "1"]}
    return {"a1": dict(algebra, mult=a1_mult), "a2": algebra, "p": [["1", "0"], ["0", "1"]]}


def _document(mult_entry):
    return {
        "field": "Q",
        "dim": 2,
        "mult": [[0, 0, 0, "1"], mult_entry],
        "unit": ["1", "1"],
        "comult": [[0, 0, 0, "1"], [1, 1, 1, "1"]],
        "counit": ["1", "1"],
    }


MALFORMED = [
    ("minimal-index-out-of-range", "construct minimal", _minimal_spec([[0, 0, 0, "1"], [1, 1, 2, "1"]])),
    ("minimal-negative-index", "construct minimal", _minimal_spec([[0, 0, 0, "1"], [1, -1, 1, "1"]])),
    ("minimal-boolean-index", "construct minimal", _minimal_spec([[0, 0, 0, "1"], [True, 1, 1, "1"]])),
    ("minimal-underscore-scalar", "construct minimal", _minimal_spec([[0, 0, 0, "1"], [1, 1, 1, "0_1"]])),
    ("minimal-mult-not-a-list", "construct minimal", _minimal_spec(7)),
    ("minimal-top-level-list", "construct minimal", [1, 2]),
    ("validate-boolean-index", "validate", _document([True, 1, 1, "1"])),
    ("validate-negative-index", "validate", _document([1, 1, -1, "1"])),
    ("validate-underscore-scalar", "validate", _document([1, 1, 1, "1_000"])),
    ("validate-arabic-indic-digit", "validate", _document([1, 1, 1, "٣"])),
    ("validate-plus-sign", "validate", _document([1, 1, 1, "+3"])),
    ("validate-negative-denominator", "validate", _document([1, 1, 1, "1/-2"])),
    ("validate-empty-scalar", "validate", _document([1, 1, 1, ""])),
    ("catalog-emit-without-name", "catalog emit", None),
    ("minimal-amalgamation-not-object", "construct minimal", dict(_minimal_spec(_DIAGONAL), amalgamation=5)),
    (
        "minimal-amalgamation-without-into-second",
        "construct minimal",
        dict(_minimal_spec(_DIAGONAL), amalgamation={"into_first": [["1", "1"]]}),
    ),
    ("catalog-emit-unknown-name", "catalog emit nosuch", None),
    ("catalog-emit-non-integer-order", "catalog emit group:zabc", None),
    ("catalog-emit-adcross-one-name", "catalog emit adcross:z4", None),
    ("catalog-emit-order-zero", "catalog emit group:z0", None),
    ("catalog-emit-group-above-dimension-limit", "catalog emit group:z100000", None),
    ("catalog-emit-adcross-above-dimension-limit", "catalog emit adcross:z100000,z2", None),
    ("catalog-emit-dualgroup-above-dimension-limit", "catalog emit dualgroup:z65", None),
    ("catalog-emit-bsz-dual-above-dimension-limit", "catalog emit bsz-dual:9", None),
    ("catalog-emit-adcross-product-above-dimension-limit", "catalog emit adcross:z16,z8", None),
    ("construct-adcross-above-dimension-limit", "construct adcross --group z100000 --subgroup z2", None),
    (
        "minimal-string-vectors",
        "construct minimal",
        dict(_minimal_spec(_DIAGONAL), a1=dict(_minimal_spec(_DIAGONAL)["a1"], unit="11"), p=["10", "01"]),
    ),
    ("minimal-string-unit", "construct minimal", dict(_minimal_spec(_DIAGONAL), a1=dict(_minimal_spec(_DIAGONAL)["a1"], unit="11"))),
    ("minimal-string-matrix-rows", "construct minimal", dict(_minimal_spec(_DIAGONAL), p=["10", "01"])),
    ("validate-duplicate-mult-entry", "validate", _document([0, 0, 0, "1"])),
    (
        "validate-duplicate-comult-entry",
        "validate",
        dict(_document([1, 1, 1, "1"]), comult=[[0, 0, 0, "1"], [1, 1, 1, "1"], [1, 1, 1, "0"]]),
    ),
    ("report-out-in-missing-directory", "report --out /nonexistent_dir/x.json", _document([1, 1, 1, "1"])),
    ("dual-out-is-a-directory", "dual --out .", _document([1, 1, 1, "1"])),
    ("validate-negative-witness-limit", "validate --witness-limit -1", _document([1, 1, 1, "1"])),
    ("report-negative-witness-limit", "report --witness-limit -3", _document([1, 1, 1, "1"])),
]


@pytest.mark.parametrize("command,payload", [c[1:] for c in MALFORMED], ids=[c[0] for c in MALFORMED])
def test_malformed_input_exits_two(tmp_path, capsys, command, payload):
    argv = command.split()
    if payload is not None:
        path = tmp_path / "input.json"
        path.write_text(json.dumps(payload))
        argv.append(str(path))
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("input error: ")
    assert "Traceback" not in captured.err


# well-formed inputs on which the requested construction fails: exit 1 with
# a "failed: " line, never a traceback
FAILING = [
    (
        "rigidity-example2-cross-map-fails-verification",
        "rigidity example2",
        algebra_to_document(
            catalog("example1").algebra,
            extras={"cross_map": [["1", "0", "0"], ["0", "0", "1"], ["0", "1", "0"]]},
        ),
    ),
]


@pytest.mark.parametrize("command,payload", [c[1:] for c in FAILING], ids=[c[0] for c in FAILING])
def test_failing_input_exits_one(tmp_path, capsys, command, payload):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(payload))
    code = main(command.split() + [str(path)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err.startswith("failed: ")
    assert "Traceback" not in captured.err


def _z2_swap_crossed_spec(hopf_extras):
    """The two-sided crossed product of K^2 by Z2 acting by the swap, with
    the given extras on the Hopf algebra."""
    diagonal = {"dim": 2, "mult": _DIAGONAL, "unit": ["1", "1"]}
    hopf = {
        "field": "Q",
        "dim": 2,
        "mult": [[0, 0, 0, "1"], [0, 1, 1, "1"], [1, 0, 1, "1"], [1, 1, 0, "1"]],
        "unit": ["1", "0"],
        "comult": [[0, 0, 0, "1"], [1, 1, 1, "1"]],
        "counit": ["1", "1"],
        "extras": hopf_extras,
    }
    return {
        "a_l": diagonal,
        "hopf": hopf,
        "action": [[["1", "0"], ["0", "1"]], [["0", "1"], ["1", "0"]]],
        "a_r": diagonal,
        "omega": ["1", "1"],
        "s_r": [["1", "0"], ["0", "1"]],
    }


def _exit_and_error(tmp_path, capsys, argv, payload):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(payload))
    code = main(argv + [str(path)])
    return code, capsys.readouterr().err


def test_crossed_spec_with_an_antipode_builds(tmp_path, capsys):
    spec = _z2_swap_crossed_spec({"antipode": [["1", "0"], ["0", "1"]]})
    code, err = _exit_and_error(tmp_path, capsys, ["construct", "crossed"], spec)
    assert code == 0, err


@pytest.mark.parametrize("extras", [None, []], ids=["null", "list"])
@pytest.mark.parametrize("command", ["rigidity verify", "rigidity twist", "rigidity example2"])
def test_non_object_extras_exits_two(tmp_path, capsys, command, extras):
    doc = algebra_to_document(catalog("example2-rigidity").algebra)
    doc["extras"] = extras
    code, err = _exit_and_error(tmp_path, capsys, command.split(), doc)
    assert code == 2
    assert err.startswith("input error: ")
    assert "Traceback" not in err


@pytest.mark.parametrize("extras", [None, []], ids=["null", "list"])
def test_non_object_hopf_extras_exits_two(tmp_path, capsys, extras):
    spec = _z2_swap_crossed_spec(extras)
    code, err = _exit_and_error(tmp_path, capsys, ["construct", "crossed"], spec)
    assert code == 2
    assert err.startswith("input error: ")
    assert "Traceback" not in err


@pytest.mark.parametrize("dim", [True, False, 2.7, 2.0, "2", None, [2]])
def test_non_integer_dim_exits_two(tmp_path, capsys, dim):
    """dim is a JSON integer: booleans, floats, strings and other values
    are bad input, in an instance document and in a construction input."""
    code, err = _exit_and_error(tmp_path, capsys, ["validate"], dict(_document([1, 1, 1, "1"]), dim=dim))
    assert code == 2
    assert err.startswith("input error: ")
    spec = _minimal_spec(_DIAGONAL)
    spec["a1"] = dict(spec["a1"], dim=dim)
    code, err = _exit_and_error(tmp_path, capsys, ["construct", "minimal"], spec)
    assert code == 2
    assert err.startswith("input error: ")


def test_boolean_dim_of_a_one_dimensional_document_exits_two(tmp_path, capsys):
    """true is not the dimension 1, even where 1 would fit the tables."""
    doc = algebra_to_document(catalog("trivial").algebra)
    assert _exit_and_error(tmp_path, capsys, ["validate"], doc)[0] == 0
    code, err = _exit_and_error(tmp_path, capsys, ["validate"], dict(doc, dim=True))
    assert code == 2
    assert err.startswith("input error: ")


@pytest.mark.parametrize("action", [5, None], ids=["int", "null"])
def test_non_list_crossed_action_exits_two(tmp_path, capsys, action):
    spec = dict(_z2_swap_crossed_spec({"antipode": [["1", "0"], ["0", "1"]]}), action=action)
    code, err = _exit_and_error(tmp_path, capsys, ["construct", "crossed"], spec)
    assert code == 2
    assert err.startswith("input error: ")
    assert "Traceback" not in err


def _minhopf_spec():
    return dict(_minimal_spec(_DIAGONAL), omega=["1", "1"], s_r=[["1", "0"], ["0", "1"]])


@pytest.mark.parametrize("labels", [5, "x", {}], ids=["int", "string", "object"])
@pytest.mark.parametrize(
    "command,spec,factor",
    [
        ("minimal", _minimal_spec(_DIAGONAL), "a2"),
        ("minhopf", _minhopf_spec(), "a2"),
        ("crossed", _z2_swap_crossed_spec({"antipode": [["1", "0"], ["0", "1"]]}), "a_l"),
        ("crossed", _z2_swap_crossed_spec({"antipode": [["1", "0"], ["0", "1"]]}), "a_r"),
    ],
    ids=["minimal-a2", "minhopf-a2", "crossed-a_l", "crossed-a_r"],
)
def test_bad_factor_basis_labels_exit_two(tmp_path, capsys, command, spec, factor, labels):
    """A construction factor's basis labels get the instance document's check."""
    code, err = _exit_and_error(tmp_path, capsys, ["construct", command], spec)
    assert code == 0, err
    spec = dict(spec, **{factor: dict(spec[factor], basis=labels)})
    code, err = _exit_and_error(tmp_path, capsys, ["construct", command], spec)
    assert code == 2
    assert err == "input error: basis labels must list one name per dimension\n"


def _emit_catalog(tmp_path, name):
    path = str(tmp_path / "emitted.json")
    assert main(["catalog", "emit", name, "--out", path]) == 0
    return path


def _report_and_antipode(tmp_path, capsys, doc):
    """(exit code, stdout) of report and of antipode on the document."""
    path = tmp_path / "certified.json"
    path.write_text(dumps(doc))
    return [run([command, str(path)], capsys) for command in ("report", "antipode")]


@pytest.mark.parametrize("name", catalog_names())
def test_certificate_keeps_report_and_antipode_bytes(tmp_path, capsys, name):
    """The extras.antipode certificate a catalog document carries changes no
    byte of report or antipode: both print what they print without it."""
    doc = load_path(_emit_catalog(tmp_path, name))
    bare = {key: value for key, value in doc.items() if key != "extras"}
    with_extras = _report_and_antipode(tmp_path, capsys, doc)
    assert with_extras == _report_and_antipode(tmp_path, capsys, bare)
    assert [code for code, _ in with_extras] == [0, 0]


def _identity_lists(n):
    return [["1" if i == j else "0" for j in range(n)] for i in range(n)]


# each maps a document's antipode matrix (lists of scalar strings) to the
# extras of a document whose certificate is unusable or wrong
_BAD_CERTIFICATES = {
    "extras-null": lambda s: None,
    "extras-list": lambda s: [s],
    "extras-number": lambda s: 5,
    "antipode-string": lambda s: {"antipode": "S"},
    "antipode-object": lambda s: {"antipode": {"matrix": s}},
    "antipode-missing-row": lambda s: {"antipode": s[:-1]},
    "antipode-extra-column": lambda s: {"antipode": [row + ["0"] for row in s]},
    "antipode-ragged": lambda s: {"antipode": [s[0][:-1]] + s[1:]},
    "antipode-zero-denominator": lambda s: {"antipode": [["1/0"] + s[0][1:]] + s[1:]},
    "antipode-identity": lambda s: {"antipode": _identity_lists(len(s))},
    "antipode-perturbed": lambda s: {"antipode": [[s[0][0] + "1"] + s[0][1:]] + s[1:]},
}


@pytest.mark.parametrize("name", ["bsz-dual:2", "example1"])
@pytest.mark.parametrize("bad", sorted(_BAD_CERTIFICATES))
def test_bad_certificate_is_ignored(tmp_path, capsys, name, bad):
    """A certificate that is malformed or wrong never turns exit 0 into
    exit 2: report and antipode print what they print without extras."""
    doc = load_path(_emit_catalog(tmp_path, name))
    extras = doc.pop("extras", None)
    s = extras["antipode"] if extras else _identity_lists(doc["dim"])
    expected = _report_and_antipode(tmp_path, capsys, doc)
    assert [code for code, _ in expected] == [0, 0]
    doc["extras"] = _BAD_CERTIFICATES[bad](s)
    assert _report_and_antipode(tmp_path, capsys, doc) == expected
