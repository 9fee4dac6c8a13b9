"""Command-line front end: verify, compute, gt, toy, export.

Output is deterministic for fixed flags: tables are printed in the
suites' fixed order and JSON bodies carry no timestamps.  Exit codes:
0 all requested checks pass, 1 verification failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import os
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
            power = self.take()
            if not power.isdigit():
                raise ValueError(f"bad exponent {power!r}: expected a "
                                 f"nonnegative integer after '^'")
            value = value ** int(power)
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


# Largest exponent `^N` accepted.  Powers are repeated skew products
# whose coefficients grow with every factor (X2+^4 at n=3 already takes
# seconds), so a larger exponent is refused before anything is computed.
# An exponent applied to a bracketed group multiplies every exponent
# inside it: (X11^8)^8 counts as ^64.
MAX_POWER = 8

# Deepest nesting of ( ) and [ ] groups accepted.  The parser descends
# one level per group, so a deeper expression is refused before it is
# parsed.
MAX_DEPTH = 16

# Largest --n accepted by compute, export and verify, and largest top
# row or generic point accepted by gt.  Generator and matrix names
# address rows 1-9 only, a context builds all n(n+1)/2 variables before
# the expression is parsed, and a module builds every a(k,i,+/-), whose
# numerator expands to about 2^(k+1) terms whatever the dimension.
MAX_RANK = 9


# Longest run of digits accepted in a number of any flag.  Python refuses
# to convert more than 4 300 digits with a message that names no entry,
# and far shorter numbers already make exact arithmetic slow.
MAX_DIGITS = 100


def _check_rank(n: Optional[int], name: str = "--n") -> None:
    if n is not None and n > MAX_RANK:
        raise ValueError(f"{name} {n} exceeds the rank budget of {MAX_RANK}")


def _check_digits(text: str, name: str) -> None:
    """Refuse a number in ``text`` longer than MAX_DIGITS digits, before
    any parser converts it."""
    for m in re.finditer(r"\d+", text):
        if len(m.group()) > MAX_DIGITS:
            raise ValueError(f"{name} number {m.group()[:12]}... has "
                             f"{len(m.group())} digits, over the digit budget "
                             f"of {MAX_DIGITS}")


def _check_powers(tokens: List[str]) -> None:
    """Refuse groups nested deeper than MAX_DEPTH, and any power whose
    exponent, times the exponents of the groups around it, exceeds
    MAX_POWER.  Powers are scanned right to left, so a group's own
    exponent is read before its contents."""
    depth = 0
    for tok in tokens:
        if tok in ("(", "["):
            depth += 1
            if depth > MAX_DEPTH:
                raise ValueError(f"groups nested {depth} deep exceed the "
                                 f"nesting budget of {MAX_DEPTH}")
        elif tok in (")", "]"):
            depth -= 1
    scales = [1]
    for pos in range(len(tokens) - 1, -1, -1):
        tok, after = tokens[pos], tokens[pos + 1:pos + 3]
        if tok == "^" and after and after[0].isdigit():
            power = int(after[0]) * scales[-1]
            if power > MAX_POWER:
                nested = "" if scales[-1] == 1 else \
                    f" (^{power} with its enclosing powers)"
                raise ValueError(f"power ^{after[0]}{nested} exceeds the "
                                 f"exponent budget of {MAX_POWER}")
        elif tok in (")", "]"):
            raised = len(after) == 2 and after[0] == "^" and after[1].isdigit()
            # a group raised to ^0 still computes its contents once
            scales.append(scales[-1] * max(int(after[1]) if raised else 1, 1))
        elif tok in ("(", "[") and len(scales) > 1:
            scales.pop()


def compute_expression(text: str, n: int) -> SkewElement:
    _check_rank(n)
    _check_digits(text, "--expr")
    tokens = _tokenize(text)
    _check_powers(tokens)
    ctx = gln.triangle(n)
    return _Parser(tokens, ctx).parse()


# ----------------------------------------------------------------------
# subcommands

_encode_str = json.encoder.encode_basestring_ascii


def _render_json(value, indent: str = "") -> str:
    """The text of ``json.dumps(value, indent=2, sort_keys=True)``.

    ``json.dumps`` with an indent falls back to the pure-Python encoder;
    this renderer keeps the same layout but writes a list of strings (the
    bulk of a module payload) in one join: when no item needs escaping,
    each item is its own text in quotes, else the C string encoder
    encodes each.  Dict keys must be strings; every other scalar goes to
    ``json.dumps``.
    """
    if isinstance(value, dict):
        if not value:
            return "{}"
        inner = indent + "  "
        body = (",\n" + inner).join(_encode_str(k) + ": " + _render_json(v, inner)
                                    for k, v in sorted(value.items()))
        return "{\n" + inner + body + "\n" + indent + "}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        inner = indent + "  "
        sep = ",\n" + inner
        if set(map(type, value)) != {str}:
            body = sep.join(_render_json(v, inner) for v in value)
        else:
            plain = "".join(value)
            # escaping lengthens the text, so equal lengths mean no item
            # holds a character that needs it
            if len(_encode_str(plain)) == len(plain) + 2:
                body = '"' + ('"' + sep + '"').join(value) + '"'
            else:
                body = sep.join(map(_encode_str, value))
        return "[\n" + inner + body + "\n" + indent + "]"
    return json.dumps(value)


def _write_json(path: Optional[str], payload: dict):
    body = _render_json(payload)
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
    _check_rank(args.n)
    names = list(relations.SUITES) if args.suite == "all" else [args.suite]
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


_SIGN_TOKENS = {"+": 1, "+1": 1, "1": 1, "-": -1, "-1": -1}


def _parse_signs(text: Optional[str], top) -> gtmodules.SignData:
    if text is not None and len(top) == 1:
        raise ValueError("--signs does not apply to a top row of length 1: "
                         "signs are chosen on rows 2..n")
    fillings = gtmodules.row_fillings(top)
    n = len(top)
    counts = [len(fillings[k]) for k in range(2, n + 1)]
    full = sum(counts)
    if text in (None, "all-plus", "+", "plus"):
        signs = [1] * full
    elif text in ("all-minus", "-", "minus"):
        signs = [-1] * full
    else:
        signs = []
        for s in map(str.strip, text.split(",")):
            if s not in _SIGN_TOKENS:
                raise ValueError(f"bad sign token {s!r}")
            signs.append(_SIGN_TOKENS[s])
    # the top row has one filling, whose sign defaults to +1
    if len(signs) == full - 1:
        signs.append(1)
    elif len(signs) != full:
        raise ValueError(
            f"need {full} signs (rows 2..{n}) or {full - 1} (top row defaulted), "
            f"got {len(signs)}")
    vectors = {}
    for k, count in enumerate(counts, start=2):
        vectors[k], signs = signs[:count], signs[count:]
    return gtmodules.SignData.from_vectors(fillings, vectors)


# One coordinate of a --generic point: an integer, a/b or a plain
# decimal.  Exponent notation is refused: Fraction("1e9999999") builds a
# ten-million-digit integer.
_POINT_ENTRY_RE = re.compile(r"[+-]?(?:\d+(?:/\d+)?|\d+\.\d*|\.\d+)", re.ASCII)


def _parse_point(text: str):
    rows = []
    for row in text.split(";"):
        entries = []
        for v in row.split(","):
            v = v.strip()
            if not v:
                continue
            if not _POINT_ENTRY_RE.fullmatch(v):
                raise ValueError(f"bad point entry {v!r}: expected an integer, "
                                 f"a/b or a plain decimal")
            try:
                entries.append(Fraction(v))
            except ZeroDivisionError:
                raise ValueError(f"bad point entry {v!r}: expected a nonzero "
                                 f"denominator") from None
        rows.append(entries)
    return rows


def cmd_gt(args) -> int:
    for flag, base in (("signs", "generic"), ("window", "top")):
        if getattr(args, flag) is not None and getattr(args, base) is not None:
            raise ValueError(f"--{flag} does not apply to --{base}")
    if args.generic is not None:
        _check_digits(args.generic, "--generic")
        rows = _parse_point(args.generic)
        _check_rank(len(rows), "rank")
        window = 2 if args.window is None else args.window
        mod = gtmodules.build_generic_module(rows, window)
        report = gtmodules.generic_module_report
        lines = [f"generic point rows: {args.generic}",
                 f"window radius: {window}",
                 f"dimension: {mod.dim} ({len(mod.interior)} interior)"]
        lines += [f"V{k} values: "
                  + ", ".join(map(str, sorted(set(mod.spectrum(f"V{k}")))))
                  for k in range(2, mod.n + 1)]
    else:
        _check_digits(args.top, "--top")
        entries = [v.strip() for v in args.top.split(",")]
        for v in entries:
            if not re.fullmatch(r"[+-]?\d+", v):
                raise ValueError(f"bad top row entry {v!r}: expected an integer")
        top = tuple(map(int, entries))
        _check_rank(len(top), "rank")
        mod = gtmodules.build_module(top, _parse_signs(args.signs, top))
        report = gtmodules.module_relation_report
        fills = ", ".join(f"r[{k}] = {len(mod.signs.rows[k])}"
                          for k in range(2, mod.n + 1))
        lines = [f"top row: {','.join(map(str, top))}", f"dimension: {mod.dim}",
                 f"row fillings: {fills}"]
        lines += [f"V{k} spectrum: " + ", ".join(map(str, mod.spectrum(f"V{k}")))
                  for k in range(2, mod.n + 1)]
    # the report runs before any output, so a refused report prints nothing
    rep = report(mod) if args.check else None
    print("\n".join(lines))
    if rep is not None:
        print(rep.table())
    if args.json:
        payload = mod.to_json()
        if rep is not None:
            payload["report"] = rep.to_json()
        _write_json(args.json, payload)
    return 0 if rep is None or rep.ok else 1


def cmd_toy(args) -> int:
    _check_digits(args.f, "--f")
    _check_digits(args.target, "--target")
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
    p.add_argument("--suite", choices=[*relations.SUITES, "all"], default="all")
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
    base = p.add_mutually_exclusive_group(required=True)
    base.add_argument("--top", help="dominant top row, e.g. 2,1,0")
    base.add_argument("--generic", metavar="ROWS",
                      help="semicolon-separated rows of a regular point, e.g. '1/3; 1,0'")
    p.add_argument("--signs", help="with --top: all-plus (default), all-minus, "
                   "or comma list per sorted row filling")
    p.add_argument("--window", type=int,
                   help="with --generic: window radius (default 2)")
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
        # str() of a KeyError is the repr of its message, quotes included
        message = exc.args[0] if isinstance(exc, KeyError) and exc.args else exc
        print(f"error: {message}", file=sys.stderr)
        return 2


def entry():  # console script
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed stdout.  Point stdout at devnull so the flush
        # at exit cannot fail again, and exit as SIGPIPE would (128 + 13),
        # so that 1 keeps meaning a failed check.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 141
    sys.exit(code)


if __name__ == "__main__":
    entry()
