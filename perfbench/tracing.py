"""Spans and counters recorded from outside the program.

Layer boundaries are wrapped where callers look them up: a function that
other modules import with ``from .x import f`` is replaced under every name
that refers to it, in every loaded ``weakhopf`` module.  Methods are
replaced on their class.  Everything is undone after each traced pass.

A span is ``(name, start, end, parent, item)``; spans stay in memory and are
written out once, when the run ends.  A span's self time is its duration
minus the time its direct children cover.  Hot calls (``mul``, ``delta``,
``t2_mul``, ``convolve`` and ``Matrix`` construction) get counters only.

Elimination entry points are counted once per outermost call: a ``kernel``
that calls ``rref`` inside is one elimination over the matrix ``kernel``
received.  Each records the summed rows x cols (``entries``) and nonzeros of
what it was given.
"""

import sys
from collections import Counter
from functools import cached_property
from time import perf_counter

ITEM = "bench.item"
ELIM = "exactlin.elim"
SOLVE_AFFINE = "exactlin.solve_affine"

# (module, function) -> span name
SPANS = {
    ("core", "decide_axioms"): "core.decide_axioms",
    ("core", "structural_theorem_suite"): "core.structural_suite",
    ("antipode", "solve_antipode"): "antipode.solve",
    ("antipode", "classify_weak_hopf"): "antipode.classify",
    ("antipode", "antipode_theorem_suite"): "antipode.suite",
    ("rigidity", "sqcap_suite"): "rigidity.sqcap",
    ("rigidity", "verify_rigidity"): "rigidity.verify",
    ("rigidity", "uniqueness_intertwiners"): "rigidity.intertwiners",
    ("repcat", "coherence_report"): "repcat.coherence",
    ("repcat", "unit_module_report"): "repcat.unit",
    ("repcat", "unit_representation_suite"): "repcat.unit_suite",
    ("constructions", "ad_crossed_product"): "constructions.adcross",
    ("serialize", "document_to_algebra"): "serialize.parse",
    ("serialize", "load_path"): "serialize.parse",
    ("serialize", "algebra_to_document"): "serialize.emit",
    ("serialize", "dumps"): "serialize.emit",
    ("cli", "cmd_construct"): "cli.construct",
    ("cli", "cmd_report"): "cli.report",
    ("cli", "cmd_dual"): "cli.dual",
}

# Elimination entry points taking a matrix first.
ELIM_FUNCTIONS = ("rref", "rank", "kernel", "image", "inverse", "form_inverse")

# (module, class, method) -> counter name
COUNTED_METHODS = {
    ("core", "WeakBialgebra", "mul"): "core.mul.calls",
    ("core", "WeakBialgebra", "delta"): "core.delta.calls",
    ("core", "WeakBialgebra", "t2_mul"): "core.t2_mul.calls",
    ("exactlin", "Matrix", "__init__"): "exactlin.matrix.new",
}
COUNTED_FUNCTIONS = {("antipode", "convolve"): "antipode.convolve.calls"}


def _nnz(rows):
    return sum(1 for row in rows for x in row if x)


def _matrix_rows(m):
    return [m.row(i) for i in range(m.rows)]


def _subspace_rows(space):
    return _matrix_rows(space.basis)


class Patches:
    """Attribute replacements in the loaded ``weakhopf`` modules, undoable."""

    def __init__(self, wh):
        self.wh = wh
        self.modules = [
            m for name, m in sys.modules.items() if name == "weakhopf" or name.startswith("weakhopf.")
        ]
        self.undo = []
        self.missing = []

    def function(self, module, name, make):
        original = getattr(getattr(self.wh, module), name, None)
        if original is None:
            self.missing.append("%s.%s" % (module, name))
            return
        replacement = make(original)
        for mod in self.modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, replacement)
                    self.undo.append((mod, attr, original))

    def method(self, module, cls_name, name, make):
        cls = getattr(getattr(self.wh, module), cls_name, None)
        original = None if cls is None else cls.__dict__.get(name)
        if original is None:
            self.missing.append("%s.%s.%s" % (module, cls_name, name))
            return
        if isinstance(original, staticmethod):
            replacement = staticmethod(make(original.__func__))
        elif isinstance(original, cached_property):
            replacement = cached_property(make(original.func))
            replacement.__set_name__(cls, name)
        else:
            replacement = make(original)
        setattr(cls, name, replacement)
        self.undo.append((cls, name, original))

    def restore(self):
        for obj, attr, original in reversed(self.undo):
            setattr(obj, attr, original)
        self.undo = []


def install_patches(wh, functions, methods):
    """Apply ``(key, make)`` wrappers; return the Patches that undo them.

    A function key is ``(module, name)``; a method key is
    ``(module, class, name)``.  Names the program no longer has are reported
    on stderr and skipped, so their metrics read zero.
    """
    patches = Patches(wh)
    for (module, name), make in functions:
        patches.function(module, name, make)
    for (module, cls_name, name), make in methods:
        patches.method(module, cls_name, name, make)
    if patches.missing:
        sys.stderr.write("not instrumented: %s\n" % ", ".join(patches.missing))
    return patches


class Tracer:
    """In-memory spans and counters for one traced pass."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.item = None
        self.counts = Counter()
        self.in_elim = False

    # -- spans ---------------------------------------------------------

    def open(self, name):
        idx = len(self.spans)
        self.spans.append([name, perf_counter(), None, self.stack[-1] if self.stack else -1, self.item])
        self.stack.append(idx)
        return idx

    def close(self, idx):
        self.spans[idx][2] = perf_counter()
        self.stack.pop()

    def spanned(self, name):
        def make(fn):
            def traced(*args, **kwargs):
                idx = self.open(name)
                try:
                    return fn(*args, **kwargs)
                finally:
                    self.close(idx)

            return traced

        return make

    def eliminating(self, name, shape):
        """Span and shape counters for an outermost elimination call.

        ``shape(args)`` returns the argument tuple to pass on (generators
        materialized) and the row lists the call eliminates over.
        """

        def make(fn):
            def traced(*args, **kwargs):
                if self.in_elim:
                    return fn(*args, **kwargs)
                args, rows, width = shape(args)
                self._count_elim(name, rows, width)
                self.in_elim = True
                idx = self.open(name)
                try:
                    return fn(*args, **kwargs)
                finally:
                    self.close(idx)
                    self.in_elim = False

            return traced

        return make

    def _count_elim(self, name, rows, width):
        entries = len(rows) * width
        nnz = _nnz(rows)
        for prefix in {ELIM, name}:
            self.counts[prefix + ".calls"] += 1
            self.counts[prefix + ".entries"] += entries
            self.counts[prefix + ".nnz"] += nnz

    # -- counters ------------------------------------------------------

    def counted(self, key):
        counts = self.counts

        def make(fn):
            def wrapper(*args, **kwargs):
                counts[key] += 1
                return fn(*args, **kwargs)

            return wrapper

        return make

    # -- results -------------------------------------------------------

    def self_times(self):
        """Self seconds per span name, with elimination also summed under ELIM."""
        covered = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        out = Counter()
        for (name, start, end, _, _), child in zip(self.spans, covered):
            out[name] += end - start - child
        out[ELIM] += out[SOLVE_AFFINE]
        return out

    def span_counts(self):
        """Counters plus ``<name>.calls`` for every span name not counted already."""
        out = Counter(name + ".calls" for name, *_ in self.spans)
        for key in [k for k in out if k in self.counts]:
            del out[key]
        out.update(self.counts)
        return out


def _matrix_shape(args):
    m = args[0]
    return args, _matrix_rows(m), m.cols


def _spanning_shape(args):
    vectors = [tuple(v) for v in args[0]]
    return (vectors,) + tuple(args[1:]), vectors, args[1]


def _intersect_shape(args):
    a, b = args[0], args[1]
    return args, _subspace_rows(a) + _subspace_rows(b), a.ambient_dim


def _vector_shape(args):
    space, v = args[0], tuple(args[1])
    return (space, v) + tuple(args[2:]), _subspace_rows(space) + [v], space.ambient_dim


def instrument(wh, tracer):
    """Wrap every layer boundary for one traced pass."""
    functions = [(key, tracer.spanned(name)) for key, name in SPANS.items()]
    functions += [(("exactlin", f), tracer.eliminating(ELIM, _matrix_shape)) for f in ELIM_FUNCTIONS]
    functions.append((("exactlin", "solve_affine"), tracer.eliminating(SOLVE_AFFINE, _matrix_shape)))
    functions += [(key, tracer.counted(name)) for key, name in COUNTED_FUNCTIONS.items()]
    methods = [(key, tracer.counted(name)) for key, name in COUNTED_METHODS.items()]
    methods.append((("core", "WeakBialgebra", "violations"), tracer.spanned("core.violations")))
    methods += [
        (("exactlin", "Subspace", "from_spanning"), tracer.eliminating(ELIM, _spanning_shape)),
        (("exactlin", "Subspace", "intersect"), tracer.eliminating(ELIM, _intersect_shape)),
        (("exactlin", "Subspace", "contains"), tracer.eliminating(ELIM, _vector_shape)),
        (("exactlin", "Subspace", "coordinates"), tracer.eliminating(ELIM, _vector_shape)),
    ]
    return install_patches(wh, functions, methods)
