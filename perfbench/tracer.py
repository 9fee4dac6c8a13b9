"""In-memory span tracer for one benchmark job.

`install` wraps the public functions of each skewgt layer at the place
where callers look them up: class attributes for methods and operators,
module attributes for functions that other modules call through the
module (``gln.a_coeff``, ``gtmodules.mat_mul``, ...).  Every call records
a span (name, start, end, parent) in flat arrays; the job id is the same
for all spans of one process.  Layer counters (terms, term pairs, hits)
are taken in the same wrappers.  Bookkeeping that is not a plain clock
read runs on a paused clock, so it is not charged to any span.

Nothing here changes what the wrapped functions compute or return.
"""

from __future__ import annotations

import functools
from array import array
from collections import Counter
from time import perf_counter


class Tracer:
    def __init__(self, job_id: int):
        self.job_id = job_id
        self.names: list = []
        self._ids: dict = {}
        self.name = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.stack = [-1]
        self.counters: Counter = Counter()
        self.paused = 0.0

    def clock(self) -> float:
        return perf_counter() - self.paused

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def span(self, name: str, fn, count=None):
        """Wrap `fn` so each call records a span; `count(counters, args,
        result)` runs after the call on the paused clock."""
        nid = self.name_id(name)
        stack, clock = self.stack, self.clock
        names, starts, ends, parents = self.name, self.start, self.end, self.parent

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(names)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
            if count is not None:
                t0 = perf_counter()
                count(self.counters, args, result)
                self.paused += perf_counter() - t0
            return result

        return traced

    def summary(self) -> dict:
        """Per-name calls, total and self seconds, plus the counters."""
        n = len(self.name)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        layers = {name: [0, 0.0, 0.0] for name in self.names}
        for i in range(n):
            row = layers[self.names[self.name[i]]]
            dur = self.end[i] - self.start[i]
            row[0] += 1
            row[1] += dur
            row[2] += dur - child[i]
        return {"job_id": self.job_id, "spans": n,
                "layers": {k: {"calls": v[0], "total_s": v[1], "self_s": v[2]}
                           for k, v in layers.items()},
                "counters": dict(self.counters)}


# -- counters taken at layer boundaries ---------------------------------


def _poly_mul(c, args, out):
    a, b = args
    c["polys.mul.term_pairs"] += len(a.terms) * (len(b.terms) if hasattr(b, "terms") else 1)
    if out is not NotImplemented:
        c["polys.mul.out_terms"] += len(out.terms)


def _divmod(c, args, out):
    c["polys.divmod_linear.in_terms"] += len(args[0].terms)


def _exact_div(c, args, out):
    c["polys.exact_div.calls"] += 1
    c["polys.exact_div.hits"] += out is not None


def _skew_mul(c, args, out):
    a, b = args
    c["skew.mul.term_pairs"] += len(a.terms) * (len(b.terms) if hasattr(b, "terms") else 1)


def _mat_mul(c, args, out):
    a, b = args
    d = len(a)
    c["gtmodules.mat_mul.nonzeros"] += sum(1 for row in a for x in row if x) \
        + sum(1 for row in b for x in row if x)
    c["gtmodules.mat_mul.cells"] += 2 * d * d


def _reduced(c, args, out):
    self, num, den, scale = args
    if den and not num.is_zero and scale != 0:
        c["ratfunc.reduce.factors_cancelled"] += len(den) - len(self.den)


def _build(c, args, out):
    c["gtmodules.build.dim"] += out.dim


def install(job_id: int) -> Tracer:
    """Wrap every traced entry point of skewgt; returns the tracer."""
    from skewgt import cli, gln, gtmodules, polys, ratfunc, relations, skew, toy

    t = Tracer(job_id)
    Poly, RatFunc, SkewElement = polys.Poly, ratfunc.RatFunc, skew.SkewElement

    def method(cls, attrs, name, count=None):
        wrapped = t.span(name, getattr(cls, attrs[0]), count)
        for attr in attrs:
            setattr(cls, attr, wrapped)

    def function(module, attr, name, count=None):
        setattr(module, attr, t.span(name, getattr(module, attr), count))

    method(Poly, ["__mul__", "__rmul__"], "polys.mul", _poly_mul)
    method(Poly, ["divmod_linear"], "polys.divmod_linear", _divmod)
    method(Poly, ["exact_div_linear"], "polys.exact_div", _exact_div)
    method(Poly, ["content_primitive"], "polys.content_primitive")
    method(Poly, ["subs_shift"], "polys.subs_shift")
    method(Poly, ["evaluate"], "polys.evaluate")

    # RatFunc.__init__ is the reduction; its denominator argument may be
    # a one-shot iterator, so count the factors it will try up front.
    reduce_init = t.span("ratfunc.reduce", RatFunc.__init__, _reduced)

    def init(self, num, den=(), scale=1):
        t0 = perf_counter()
        den = tuple(den)
        if not num.is_zero and scale != 0:
            t.counters["ratfunc.reduce.factors_tried"] += len(den)
        t.paused += perf_counter() - t0
        reduce_init(self, num, den, scale)

    RatFunc.__init__ = init
    method(RatFunc, ["__add__", "__radd__"], "ratfunc.add")
    method(RatFunc, ["__mul__", "__rmul__"], "ratfunc.mul")
    method(RatFunc, ["shifted"], "ratfunc.shifted")
    method(RatFunc, ["evaluate"], "ratfunc.evaluate")

    method(SkewElement, ["__mul__"], "skew.mul", _skew_mul)
    method(SkewElement, ["__add__", "__radd__"], "skew.add")
    method(SkewElement, ["act"], "skew.act")

    function(gln, "a_coeff", "gln.a_coeff")
    function(gln, "matrix_unit_image", "gln.matrix_unit_image")
    function(gln, "gelfand_invariant_image", "gln.gelfand_invariant_image")

    function(relations, "verify_identity", "relations.verify_identity")
    for attr in ("suite_gl2", "suite_gl3", "suite_invariants", "suite_localized"):
        function(relations, attr, "relations.suite")

    for attr in ("build_module", "build_generic_module"):
        function(gtmodules, attr, "gtmodules.build", _build)
    for attr in ("module_relation_report", "generic_module_report"):
        function(gtmodules, attr, "gtmodules.report")
    function(gtmodules, "mat_mul", "gtmodules.mat_mul", _mat_mul)
    for attr in ("mat_add", "mat_sub"):
        function(gtmodules, attr, "gtmodules.mat_addsub")

    function(toy, "witness_inverse", "toy.witness_inverse")

    for attr in ("_tokenize", "_parse_signs", "_parse_point"):
        function(cli, attr, "cli.parse")
    build_parser = cli.build_parser

    def traced_build_parser():
        parser = build_parser()
        parser.parse_args = t.span("cli.parse", parser.parse_args)
        return parser

    cli.build_parser = t.span("cli.parse", traced_build_parser)
    function(cli, "_write_json", "cli.write_json")
    function(cli, "main", "cli.main")
    return t
