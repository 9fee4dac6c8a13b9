"""Command-line front end: verify, compute, gt, toy, export.

Output is deterministic for fixed flags: tables are printed in the
suites' fixed order and JSON bodies carry no timestamps.  Exit codes:
0 all requested checks pass, 1 verification failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from fractions import Fraction
from typing import List, Optional

from . import gln, gtmodules, relations, toy
from .skew import SkewElement, commutator


# ----------------------------------------------------------------------
# tiny expression grammar: names, + - *, [a,b], integer powers

_TOKEN_RE = re.compile(r"\s*(?:(?P<name>[A-Za-z][A-Za-z0-9]*[+-]?)"
                       r"|(?P<int>\d+)"
                       r"|(?P<op>[-+*^()\[\],·]))")


def _tokenize(text: str) -> List[str]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m or m.end() == pos:
            raise ValueError(f"cannot tokenize {text[pos:]!r}")
        if m.group("name"):
            name = m.group("name")
            # a trailing +/- belongs to the name only when it does not
            # start a following operand
            if name[-1] in "+-":
                rest = text[m.end():].lstrip()
                if rest and (rest[0].isalnum() or rest[0] in "(["):
                    name = name[:-1]
            tokens.append(name)
            pos = m.start("name") + len(name)
            continue
        tokens.append(m.group("int") or m.group("op"))
        pos = m.end()
    return tokens


class _Parser:
    def __init__(self, tokens: List[str], ctx):
        self.tokens = tokens
        self.pos = 0
        self.ctx = ctx

    def peek(self) -> Optional[str]:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self, expected: Optional[str] = None) -> str:
        tok = self.peek()
        if tok is None:
            raise ValueError("unexpected end of expression")
        if expected is not None and tok != expected:
            raise ValueError(f"expected {expected!r}, found {tok!r}")
        self.pos += 1
        return tok

    def parse(self) -> SkewElement:
        value = self.expr()
        if self.peek() is not None:
            raise ValueError(f"trailing input at {self.peek()!r}")
        return value

    def expr(self) -> SkewElement:
        value = self.term()
        while self.peek() in ("+", "-"):
            if self.take() == "+":
                value = value + self.term()
            else:
                value = value - self.term()
        return value

    def term(self) -> SkewElement:
        value = self.factor()
        while self.peek() in ("*", "·"):
            self.take()
            value = value * self.factor()
        return value

    def factor(self) -> SkewElement:
        negate = False
        while self.peek() in ("+", "-"):
            if self.take() == "-":
                negate = not negate
        value = self.primary()
        if self.peek() == "^":
            self.take()
            value = value ** int(self.take())
        return -value if negate else value

    def primary(self) -> SkewElement:
        tok = self.take()
        if tok == "(":
            value = self.expr()
            self.take(")")
            return value
        if tok == "[":
            lhs = self.expr()
            self.take(",")
            rhs = self.expr()
            self.take("]")
            return commutator(lhs, rhs)
        if tok.isdigit():
            return SkewElement.from_coeff(Fraction(tok), self.ctx)
        return gln.element(self.ctx, tok)


def compute_expression(text: str, n: int) -> SkewElement:
    ctx = gln.triangle(n)
    return _Parser(_tokenize(text), ctx).parse()


# ----------------------------------------------------------------------
# subcommands

def _write_json(path: Optional[str], payload: dict):
    body = json.dumps(payload, indent=2, sort_keys=True)
    if path in (None, "-"):
        print(body)
    else:
        try:
            with open(path, "w") as fh:
                fh.write(body + "\n")
        except OSError as exc:
            raise ValueError(f"cannot write --json file {path!r}: "
                             f"{exc.strerror or exc}") from exc


def cmd_verify(args) -> int:
    names = ["gl2", "gl3", "invariants", "localized"] if args.suite == "all" \
        else [args.suite]
    if "gl3" in names and args.n not in (None, 3):
        print(f"suite gl3 runs at n=3 only (got --n {args.n})", file=sys.stderr)
        return 2
    reports = relations.run_suites(names, args.n)
    all_ok = True
    for rep in reports:
        print(rep.table())
        all_ok = all_ok and rep.ok
    total = sum(len(r.results) for r in reports)
    passed = sum(sum(x.ok for x in r.results) for r in reports)
    print(f"total: {passed}/{total} identities passed")
    if args.json:
        results = [entry for rep in reports for entry in rep.to_json()["results"]]
        payload = ({"suite": args.suite, "results": results}
                   if args.suite == "all" else reports[0].to_json())
        _write_json(args.json, payload)
    return 0 if all_ok else 1


def cmd_compute(args) -> int:
    value = compute_expression(args.expr, args.n)
    print(value)
    if args.json:
        _write_json(args.json, {"expr": args.expr, "element": value.to_json()})
    return 0


def _parse_signs(text: str, top) -> gtmodules.SignData:
    if text in ("all-plus", "+", "plus"):
        return gtmodules.SignData.all_plus(top)
    if text in ("all-minus", "-", "minus"):
        vectors = {k: [-1] * gtmodules.count_row_fillings(top, k)
                   for k in range(2, len(top) + 1)}
        return gtmodules.SignData.from_vectors(top, vectors)
    raw = [s.strip() for s in text.split(",")]
    signs = []
    for s in raw:
        if s in ("+", "+1", "1"):
            signs.append(1)
        elif s in ("-", "-1"):
            signs.append(-1)
        else:
            raise ValueError(f"bad sign token {s!r}")
    n = len(top)
    counts = {k: gtmodules.count_row_fillings(top, k) for k in range(2, n + 1)}
    full = sum(counts.values())
    inner = full - counts[n]
    if len(signs) == full:
        rows = range(2, n + 1)
    elif len(signs) == inner:
        rows = range(2, n)  # top-row sign defaults to +1
    else:
        raise ValueError(
            f"need {full} signs (rows 2..{n}) or {inner} (top row defaulted), "
            f"got {len(signs)}")
    vectors = {}
    at = 0
    for k in rows:
        vectors[k] = signs[at:at + counts[k]]
        at += counts[k]
    return gtmodules.SignData.from_vectors(top, vectors)


def _parse_point(text: str):
    rows = []
    for row in text.split(";"):
        rows.append([Fraction(v.strip()) for v in row.split(",") if v.strip()])
    return rows


def cmd_gt(args) -> int:
    if args.generic:
        rows = _parse_point(args.generic)
        mod = gtmodules.build_generic_module(rows, args.window)
        print(f"generic point rows: {args.generic}")
        print(f"window radius: {args.window}")
        print(f"dimension: {mod.dim} ({len(mod.interior)} interior)")
        for k in range(2, mod.n + 1):
            distinct = sorted(set(mod.spectrum(f"V{k}")))
            print(f"V{k} values: " + ", ".join(map(str, distinct)))
        ok = True
        if args.check:
            rep = gtmodules.generic_module_report(mod)
            print(rep.table())
            ok = rep.ok
        if args.json:
            payload = mod.to_json()
            if args.check:
                payload["report"] = rep.to_json()
            _write_json(args.json, payload)
        return 0 if ok else 1

    if not args.top:
        print("gt needs --top or --generic", file=sys.stderr)
        return 2
    top = tuple(int(v) for v in args.top.split(","))
    signs = _parse_signs(args.signs, top)
    mod = gtmodules.build_module(top, signs)
    print(f"top row: {','.join(map(str, top))}")
    print(f"dimension: {mod.dim}")
    fills = ", ".join(f"r[{k}] = {gtmodules.count_row_fillings(top, k)}"
                      for k in range(2, len(top) + 1))
    print(f"row fillings: {fills}")
    for k in range(2, len(top) + 1):
        print(f"V{k} spectrum: " + ", ".join(map(str, mod.spectrum(f"V{k}"))))
    ok = True
    if args.check:
        rep = gtmodules.module_relation_report(mod)
        print(rep.table())
        ok = rep.ok
    if args.json:
        payload = mod.to_json()
        if args.check:
            payload["report"] = rep.to_json()
        _write_json(args.json, payload)
    return 0 if ok else 1


def cmd_toy(args) -> int:
    ctx = toy.line_context()
    spec = toy.ToySpec(toy.parse_univariate(ctx, args.f))
    c = toy.parse_inverse_target(args.target)
    trace = toy.witness_inverse(spec, c)
    print(f"f = {spec.f}")
    print(f"target: {args.target.replace(' ', '')}")
    print(f"word: {trace.word}  (multiplicity m = {trace.multiplicity})")
    print(trace.describe())
    print("verified: exact equality holds")
    if args.json:
        _write_json(args.json, {
            "f": str(spec.f),
            "target_c": c,
            "word": trace.word,
            "multiplicity": trace.multiplicity,
            "clear_poly": str(trace.clear_poly),
            "quotient": str(trace.quotient),
            "constant": str(trace.constant),
            "witness": trace.witness.to_json(),
        })
    return 0


def cmd_export(args) -> int:
    value = compute_expression(args.expr, args.n)
    _write_json(args.json, {"expr": args.expr, "n": args.n,
                            "element": value.to_json()})
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="skewgt",
        description="exact computations in shift skew rings attached to gl_n")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="run identity suites")
    p.add_argument("--suite", choices=["gl2", "gl3", "invariants", "localized", "all"],
                   default="all")
    p.add_argument("--n", type=int, default=None, help="context size (gl2 suite)")
    p.add_argument("--json", metavar="PATH", help="write a JSON report ('-' for stdout)")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("compute", help="evaluate a registry expression")
    p.add_argument("--expr", required=True,
                   help="e.g. \"[V2, A21+]\" or \"X1+*X1- - X1-*X1+\"")
    p.add_argument("--n", type=int, default=3)
    p.add_argument("--json", metavar="PATH")
    p.set_defaults(func=cmd_compute)

    p = sub.add_parser("gt", help="build pattern modules")
    p.add_argument("--top", help="dominant top row, e.g. 2,1,0")
    p.add_argument("--signs", default="all-plus",
                   help="all-plus, all-minus, or comma list per sorted row filling")
    p.add_argument("--generic", metavar="ROWS",
                   help="semicolon-separated rows of a regular point, e.g. '1/3; 1,0'")
    p.add_argument("--window", type=int, default=2, help="generic window radius")
    p.add_argument("--check", action="store_true", help="run the relation report")
    p.add_argument("--json", metavar="PATH")
    p.set_defaults(func=cmd_gt)

    p = sub.add_parser("toy", help="rank-one shift algebra witnesses")
    p.add_argument("--f", required=True, help="polynomial with nonzero constant term")
    p.add_argument("--target", required=True, help="1/x, 1/(x-2), 1/(x+3), ...")
    p.add_argument("--json", metavar="PATH")
    p.set_defaults(func=cmd_toy)

    p = sub.add_parser("export", help="JSON form of a registry expression")
    p.add_argument("--expr", required=True)
    p.add_argument("--n", type=int, default=3)
    p.add_argument("--json", metavar="PATH", default="-")
    p.set_defaults(func=cmd_export)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except (ValueError, KeyError, ZeroDivisionError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry():  # console script
    sys.exit(main())


if __name__ == "__main__":
    entry()
