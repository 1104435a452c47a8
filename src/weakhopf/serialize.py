"""JSON interchange format for structure-constant presentations.

The on-disk document stores the multiplication and comultiplication tensors
as sorted sparse quadruples with exact scalar strings ('p' or 'p/q'), dense
unit and counit vectors, and optional named extras (antipode matrix,
rigidity data, group tables, construction inputs).  Emission is fully
deterministic: identical inputs produce byte-identical files.
"""

from __future__ import annotations

import json

from .core import WeakBialgebra
from .exactlin import Matrix, QZERO, parse_scalar, qstr


class ParseError(Exception):
    """Malformed input document."""


def algebra_to_document(algebra: WeakBialgebra, extras: dict | None = None) -> dict:
    n = algebra.dim
    mult_entries = []
    for i in range(n):
        for j in range(n):
            for k, c in enumerate(algebra.mult[i][j]):
                if c:
                    mult_entries.append([i, j, k, qstr(c)])
    comult_entries = []
    for k in range(n):
        for i in range(n):
            for j in range(n):
                c = algebra.comult[k][i, j]
                if c:
                    comult_entries.append([k, i, j, qstr(c)])
    doc = {
        "field": "Q",
        "dim": n,
        "basis": list(algebra.labels),
        "mult": mult_entries,
        "unit": [qstr(c) for c in algebra.unit],
        "comult": comult_entries,
        "counit": [qstr(c) for c in algebra.counit],
    }
    if extras:
        doc["extras"] = extras
    return doc


def matrix_to_lists(m: Matrix):
    return [[qstr(c) for c in row] for row in m.data]


def vector_to_list(v):
    return [qstr(c) for c in v]


def parse_matrix(data, rows=None, cols=None) -> Matrix:
    if not isinstance(data, list) or not all(isinstance(row, list) for row in data):
        raise ParseError("a matrix is a list of row lists")
    try:
        m = Matrix([[parse_scalar(x) for x in row] for row in data])
    except (TypeError, ValueError) as exc:
        raise ParseError("bad matrix: %s" % exc) from exc
    if rows is not None and m.rows != rows:
        raise ParseError("matrix has %d rows, expected %d" % (m.rows, rows))
    if cols is not None and m.cols != cols:
        raise ParseError("matrix has %d cols, expected %d" % (m.cols, cols))
    return m


def parse_vector(data, dim=None):
    if not isinstance(data, list):
        raise ParseError("a vector is a list of scalars")
    try:
        v = tuple(parse_scalar(x) for x in data)
    except (TypeError, ValueError) as exc:
        raise ParseError("bad vector: %s" % exc) from exc
    if dim is not None and len(v) != dim:
        raise ParseError("vector has length %d, expected %d" % (len(v), dim))
    return v


def document_to_algebra(doc) -> WeakBialgebra:
    if not isinstance(doc, dict):
        raise ParseError("document must be an object")
    if doc.get("field") != "Q":
        raise ParseError("unsupported field %r" % doc.get("field"))
    try:
        n = int(doc["dim"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError("missing or bad dimension") from exc
    if n < 1:
        raise ParseError("dimension must be positive")
    labels = doc.get("basis")
    if labels is not None:
        if not isinstance(labels, list) or len(labels) != n:
            raise ParseError("basis labels must list one name per dimension")
    mult = [[[QZERO] * n for _ in range(n)] for _ in range(n)]
    for i, j, k, c in parse_sparse_entries(doc.get("mult", []), n):
        mult[i][j][k] = c
    comult = [[[QZERO] * n for _ in range(n)] for _ in range(n)]
    for k, i, j, c in parse_sparse_entries(doc.get("comult", []), n):
        comult[k][i][j] = c
    unit = parse_vector(doc.get("unit", []), n)
    counit = parse_vector(doc.get("counit", []), n)
    try:
        return WeakBialgebra(n, mult, unit, comult, counit, labels=labels)
    except Exception as exc:
        raise ParseError("structurally malformed algebra: %s" % exc) from exc


def parse_sparse_entries(entries, n):
    """Validated (a, b, c, scalar) quadruples of a sparse tensor listing.

    Indices must be JSON integers (booleans are not) in range(n), and no
    index triple may repeat.
    """
    if not isinstance(entries, list):
        raise ParseError("sparse tensors are lists of [i, j, k, scalar] quadruples")
    out = []
    seen = set()
    for entry in entries:
        if not isinstance(entry, list) or len(entry) != 4:
            raise ParseError("sparse entries are [i, j, k, scalar] quadruples")
        *indices, s = entry
        for x in indices:
            if isinstance(x, bool) or not isinstance(x, int) or not 0 <= x < n:
                raise ParseError("index %r out of range" % (x,))
        key = tuple(indices)
        if key in seen:
            raise ParseError("repeated sparse entry %r" % (indices,))
        seen.add(key)
        try:
            val = parse_scalar(s)
        except ValueError as exc:
            raise ParseError(str(exc)) from exc
        out.append((*indices, val))
    return out


def dumps(doc) -> str:
    return json.dumps(doc, indent=2) + "\n"


def loads(text):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError("invalid JSON: %s" % exc) from exc


def load_path(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return loads(fh.read())
    except OSError as exc:
        raise ParseError("cannot read %s: %s" % (path, exc)) from exc
