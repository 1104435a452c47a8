"""JSON interchange format for structure-constant presentations.

The on-disk document stores the multiplication and comultiplication tensors
as sorted sparse quadruples with exact scalar strings ('p' or 'p/q'), dense
unit and counit vectors, and optional named extras (antipode matrix,
rigidity data, group tables, construction inputs).  Emission is fully
deterministic: identical inputs produce byte-identical files.
"""

from __future__ import annotations

import functools
import json

from .core import WeakBialgebra
from .exactlin import Matrix, parse_scalar, qstr


class ParseError(Exception):
    """Malformed input document."""


def algebra_to_document(algebra: WeakBialgebra, extras: dict | None = None) -> dict:
    mult_entries = [
        [i, j, k, qstr(c)]
        for i, row in enumerate(algebra._mult_nonzeros)
        for j, ij in enumerate(row)
        for k, c in ij
    ]
    comult_entries = [
        [k, i, j, qstr(c)]
        for k, m in enumerate(algebra.comult)
        for i, row in enumerate(m.sparse_rows)
        for j, c in row
    ]
    doc = {
        "field": "Q",
        "dim": algebra.dim,
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


# a document repeats few distinct scalar strings ("1", "1/3") many times;
# a failed parse raises and is not cached, so its message is unchanged
_parse_str = functools.lru_cache(maxsize=4096)(parse_scalar)


def _scalar(s):
    return _parse_str(s) if type(s) is str else parse_scalar(s)


def parse_matrix(data, rows=None, cols=None) -> Matrix:
    if not isinstance(data, list) or not all(isinstance(row, list) for row in data):
        raise ParseError("a matrix is a list of row lists")
    try:
        m = Matrix([[_scalar(x) for x in row] for row in data])
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
        v = tuple(_scalar(x) for x in data)
    except (TypeError, ValueError) as exc:
        raise ParseError("bad vector: %s" % exc) from exc
    if dim is not None and len(v) != dim:
        raise ParseError("vector has length %d, expected %d" % (len(v), dim))
    return v


def is_json_int(x) -> bool:
    """Whether x is a JSON integer; a boolean is not."""
    return isinstance(x, int) and not isinstance(x, bool)


def parse_dim(n, missing="missing or bad dimension"):
    """A document's dimension: a positive JSON integer."""
    if not is_json_int(n):
        raise ParseError(missing)
    if n < 1:
        raise ParseError("dimension must be positive")
    return n


def parse_labels(labels, n):
    """Basis labels as a document gives them: absent (None), or a list of
    one name per dimension, each a string."""
    if labels is not None and (not isinstance(labels, list) or len(labels) != n):
        raise ParseError("basis labels must list one name per dimension")
    if labels is not None and not all(isinstance(x, str) for x in labels):
        raise ParseError("basis labels must be strings")
    return labels


def document_to_algebra(doc) -> WeakBialgebra:
    if not isinstance(doc, dict):
        raise ParseError("document must be an object")
    if doc.get("field") != "Q":
        raise ParseError("unsupported field %r" % doc.get("field"))
    n = parse_dim(doc.get("dim"))
    labels = parse_labels(doc.get("basis"), n)
    # the checked entries, sorted into nonzero lists: those of mult by
    # (i, j), those of comult by slice k and row i
    mult = [[[] for _ in range(n)] for _ in range(n)]
    for i, j, k, c in parse_sparse_entries(doc.get("mult", []), n):
        if c:
            mult[i][j].append((k, c))
    comult = [[[] for _ in range(n)] for _ in range(n)]
    for k, i, j, c in parse_sparse_entries(doc.get("comult", []), n):
        if c:
            comult[k][i].append((j, c))
    unit = parse_vector(doc.get("unit", []), n)
    counit = parse_vector(doc.get("counit", []), n)
    mult = tuple(tuple(tuple(sorted(ij)) for ij in row) for row in mult)
    comult = tuple(Matrix._of_sparse(map(sorted, rows), n) for rows in comult)
    return WeakBialgebra._of_tables(n, mult, unit, comult, counit, labels)


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
            if not is_json_int(x) or not 0 <= x < n:
                raise ParseError("index %r out of range" % (x,))
        key = tuple(indices)
        if key in seen:
            raise ParseError("repeated sparse entry %r" % (indices,))
        seen.add(key)
        try:
            val = _scalar(s)
        except ValueError as exc:
            raise ParseError(str(exc)) from exc
        out.append((*indices, val))
    return out


_encode_str = json.encoder.encode_basestring_ascii


def _encode(x, indent):
    """x as json.dumps(x, indent=2) writes it at the given indent; a
    TypeError for a value outside dict, list, str, int, bool and None."""
    t = type(x)
    if t is str:
        return _encode_str(x)
    if t is int:
        return repr(x)
    if t is list:
        if not x:
            return "[]"
        inner = indent + "  "
        items = (",\n" + inner).join([_encode(v, inner) for v in x])
        return "[\n" + inner + items + "\n" + indent + "]"
    if t is dict:
        if not x:
            return "{}"
        inner = indent + "  "
        items = (",\n" + inner).join([_encode_str(k) + ": " + _encode(v, inner) for k, v in x.items()])
        return "{\n" + inner + items + "\n" + indent + "}"
    if x is None:
        return "null"
    if t is bool:
        return "true" if x else "false"
    raise TypeError(t)


def dumps(doc) -> str:
    """json.dumps(doc, indent=2) and a newline, without the pure-Python
    encoder json runs whenever it indents.

    No command's output reaches the json.dumps fallback; it can go once
    every emitted value is one of the six types _encode handles."""
    try:
        return _encode(doc, "") + "\n"
    except (TypeError, RecursionError):
        # any other value, and json's own errors for what it cannot encode
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
