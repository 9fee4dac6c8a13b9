"""Command-line front end: verify, compute, gt, toy.

Every command and flag is an entry of COMMANDS, from which `parse_args`
reads argv and `-h` is rendered.  A flag is named exactly or by a unique
prefix (`--gen` for `--generic`), takes its value as `--flag value` or
`--flag=value` (the value may start with '-'), and the last of a repeated
flag wins.  A command's handler only computes: it returns its text and
its JSON body, and `main` alone writes them.  Output is deterministic
for fixed flags: tables are printed in the suites' fixed order and JSON
bodies carry no timestamps.  Exit codes: 0 all requested checks pass, 1
verification failure, 2 usage error.
"""

from __future__ import annotations

import json
import os
import re
import sys
from collections import namedtuple
from fractions import Fraction
from math import gcd
from types import SimpleNamespace
from typing import List, Optional

from . import gln, gtmodules, relations, toy
from .polys import quote
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
            raise ValueError(f"cannot tokenize {quote(text[pos:])}")
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
            raise ValueError(f"expected {expected!r}, found {quote(tok)}")
        self.pos += 1
        return tok

    def parse(self) -> SkewElement:
        value = self.expr()
        if self.peek() is not None:
            raise ValueError(f"trailing input at {quote(self.peek())}")
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
                raise ValueError(f"bad exponent {quote(power)}: expected a "
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
        if not tok[0].isalpha():
            raise ValueError(f"expected an operand, found {quote(tok)}")
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

# Largest --n accepted by compute and verify, and largest top row or
# generic point accepted by gt.  Generator and matrix names address rows
# 1-9 only, a context builds all n(n+1)/2 variables before the
# expression is parsed, and a module builds every a(k,i,+/-), whose
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


def integer(text: str) -> int:
    """The kind of the int flags: a number longer than MAX_DIGITS is
    refused before int() converts it, and other refused text is quoted
    through `quote`, so the message stays short whatever the input."""
    _check_digits(text, "the")
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"invalid integer value: {quote(text)}") from None


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


def _render_json(value, indent: str = ""):
    """The text of ``json.dumps(value, indent=2, sort_keys=True)``, as
    chunks: the text is never held whole, and no chunk holds more than
    one dense matrix row.

    A `gtmodules.Matrix` is written as its list of dense rows of value
    strings ("0" for an absent entry), one row per chunk, from the
    matrix's sparse rows (`_matrix_rows`).  Dict keys must be strings; a
    string goes to the C string encoder, any other scalar to
    ``json.dumps``.
    """
    if isinstance(value, gtmodules.Matrix):
        yield from _matrix_rows(value, indent)
        return
    if isinstance(value, dict):
        brackets = "{}"
        items = [(_encode_str(k) + ": ", v) for k, v in sorted(value.items())]
    elif isinstance(value, (list, tuple)):
        brackets = "[]"
        items = [("", v) for v in value]
    else:
        yield _scalar(value)
        return
    if not items:
        yield brackets
        return
    inner = indent + "  "
    sep = brackets[0] + "\n" + inner
    for key, v in items:
        if isinstance(v, (dict, list, tuple)):
            yield sep + key
            yield from _render_json(v, inner)
        else:
            yield sep + key + _scalar(v)
        sep = ",\n" + inner
    yield "\n" + indent + brackets[1]


def _scalar(value) -> str:
    return _encode_str(value) if isinstance(value, str) else json.dumps(value)


def _value_text(x: int, den: int) -> str:
    """``str(Fraction(x, den))`` for an int x over a positive int den,
    with one gcd and no Fraction."""
    g = gcd(x, den)
    return str(x // g) if g == den else f"{x // g}/{den // g}"


def _matrix_rows(m: gtmodules.Matrix, indent: str):
    """The chunks of `_render_json` for a matrix: one dense row each.
    Every row is sliced from one all-"0" row text, with the value string
    of each stored entry (`_value_text`) spliced in at its column, so a
    row costs Python work only for its nonzero entries."""
    den = m.den
    inner = indent + "  "
    cell = ",\n" + inner + "  "
    zero_row = cell.join(['"0"'] * len(m))
    step = len(cell) + 3
    sep = "[\n" + inner
    for row in m:
        pieces = [sep, "[", cell[1:]]
        pos = 0
        for j in sorted(row):
            start = j * step
            pieces += (zero_row[pos:start], '"', _value_text(row[j], den), '"')
            pos = start + 3
        pieces += (zero_row[pos:], "\n", inner, "]")
        yield "".join(pieces)
        sep = ",\n" + inner
    yield "\n" + indent + "]"


def _open_json(path: Optional[str]):
    """The --json target: None without --json, stdout for '-', else the
    file opened for writing.  `main` opens it after the handler's work
    and before the first print, so an unwritable path exits 2 with
    nothing printed."""
    if path is None:
        return None
    if path == "-":
        return sys.stdout
    try:
        return open(path, "w")
    except OSError as exc:
        raise ValueError(f"cannot write --json file {quote(path)}: "
                         f"{exc.strerror or exc}") from None


def _write_json(target, payload: dict):
    """Write the payload's JSON text and a newline to an `_open_json`
    target chunk by chunk, then close it unless it is stdout."""
    if target is sys.stdout:
        target.writelines(_render_json(payload))
        target.write("\n")
        return
    try:
        with target:
            target.writelines(_render_json(payload))
            target.write("\n")
    except OSError as exc:
        raise ValueError(f"cannot write --json file {quote(target.name)}: "
                         f"{exc.strerror or exc}") from None


def cmd_verify(args):
    _check_rank(args.n)
    names = list(relations.SUITES) if args.suite == "all" else [args.suite]
    reports = relations.run_suites(names, args.n)
    total = sum(len(r.results) for r in reports)
    passed = sum(sum(x.ok for x in r.results) for r in reports)
    text = "\n".join([rep.table() for rep in reports]
                     + [f"total: {passed}/{total} identities passed"])
    payload = reports[0].to_json if args.suite != "all" else lambda: {
        "suite": "all", "results": [e for rep in reports for e in rep.to_json()["results"]]}
    return text, payload, 0 if all(rep.ok for rep in reports) else 1


def cmd_compute(args):
    value = compute_expression(args.expr, args.n)
    return str(value), lambda: {"expr": args.expr, "element": value.to_json()}, 0


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
                raise ValueError(f"bad sign token {quote(s)}")
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
                raise ValueError(f"bad point entry {quote(v)}: expected an integer, "
                                 f"a/b or a plain decimal")
            try:
                entries.append(Fraction(v))
            except ZeroDivisionError:
                raise ValueError(f"bad point entry {quote(v)}: expected a nonzero "
                                 f"denominator") from None
        rows.append(entries)
    return rows


def _check_export_dim(json_path: Optional[str], dim: int) -> None:
    if json_path is not None and dim > gtmodules.MAX_MODULE_DIM:
        raise ValueError(f"module dimension {dim} exceeds the --json budget "
                         f"of {gtmodules.MAX_MODULE_DIM}")


def cmd_gt(args):
    for flag, base in (("signs", "generic"), ("window", "top")):
        if getattr(args, flag) is not None and getattr(args, base) is not None:
            raise ValueError(f"--{flag} does not apply to --{base}")
    if args.generic is not None:
        _check_digits(args.generic, "--generic")
        rows = _parse_point(args.generic)
        _check_rank(len(rows), "rank")
        window = 2 if args.window is None else args.window
        _check_export_dim(args.json, gtmodules.generic_dim(len(rows), window))
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
                raise ValueError(f"bad top row entry {quote(v)}: expected an integer")
        top = tuple(map(int, entries))
        _check_rank(len(top), "rank")
        _check_export_dim(args.json, gtmodules.weyl_dim(top))
        mod = gtmodules.build_module(top, _parse_signs(args.signs, top))
        report = gtmodules.module_relation_report
        fills = ", ".join(f"r[{k}] = {len(mod.signs.rows[k])}"
                          for k in range(2, mod.n + 1))
        lines = [f"top row: {','.join(map(str, top))}", f"dimension: {mod.dim}",
                 f"row fillings: {fills}"]
        lines += [f"V{k} spectrum: " + ", ".join(map(str, mod.spectrum(f"V{k}")))
                  for k in range(2, mod.n + 1)]
    rep = report(mod) if args.check else None
    if rep is not None:
        lines.append(rep.table())

    def payload():
        body = mod.to_json()
        if rep is not None:
            body["report"] = rep.to_json()
        return body
    return "\n".join(lines), payload, 0 if rep is None or rep.ok else 1


def cmd_toy(args):
    _check_digits(args.f, "--f")
    _check_digits(args.target, "--target")
    ctx = toy.line_context()
    spec = toy.ToySpec(toy.parse_univariate(ctx, args.f))
    c = toy.parse_inverse_target(args.target)
    trace = toy.witness_inverse(spec, c)
    text = "\n".join([f"f = {spec.f}",
                      f"target: {args.target.replace(' ', '')}",
                      f"word: {trace.word}  (multiplicity m = {trace.multiplicity})",
                      trace.describe(),
                      "verified: exact equality holds"])
    return text, lambda: {
        "f": str(spec.f),
        "target_c": c,
        "word": trace.word,
        "multiplicity": trace.multiplicity,
        "clear_poly": str(trace.clear_poly),
        "quotient": str(trace.quotient),
        "constant": str(trace.constant),
        "witness": trace.witness.to_json(),
    }, 0


# ----------------------------------------------------------------------
# command table: {command: (handler, help, {flag: Flag})}, which
# `parse_args` reads argv from and -h renders.  A handler takes the parsed
# args, prints nothing and returns (text, payload, code): the text `main`
# prints, a zero-argument callable building the JSON body, called only
# with --json, and the exit code.  A flag's kind converts its
# value: `str`, `integer`, a tuple of choices, or `bool` for a switch (no
# value; True when given).  Of the flags sharing a nonempty `need`,
# exactly one must be given.

Flag = namedtuple("Flag", "kind default need help", defaults=(str, None, "", ""))
_SUITES = (*relations.SUITES, "all")
_JSON = Flag(help="write a JSON report to this path ('-' for stdout)")

COMMANDS = {
    "verify": (cmd_verify, "run identity suites", {
        "--suite": Flag(_SUITES, "all", help=f"one of {', '.join(_SUITES)} (default all)"),
        "--n": Flag(integer, help="context size (gl2 suite)"),
        "--json": _JSON}),
    "compute": (cmd_compute, "evaluate a registry expression", {
        "--expr": Flag(need="expr", help="required; e.g. \"[V2, A21+]\" or \"X1+*X1- - X1-*X1+\""),
        "--n": Flag(integer, 3, help="rank n of the context (default 3)"),
        "--json": _JSON}),
    "gt": (cmd_gt, "build pattern modules", {
        "--top": Flag(need="base", help="dominant top row, e.g. 2,1,0 (or --generic)"),
        "--generic": Flag(need="base", help="rows split by ';', e.g. '1/3; 1,0' (or --top)"),
        "--signs": Flag(help="with --top: all-plus (default), all-minus or signs per row filling"),
        "--window": Flag(integer, help="with --generic: window radius (default 2)"),
        "--check": Flag(bool, False, help="run the relation report"),
        "--json": _JSON}),
    "toy": (cmd_toy, "rank-one shift algebra witnesses", {
        "--f": Flag(need="f", help="required; a polynomial with nonzero constant term"),
        "--target": Flag(need="target", help="required; 1/x, 1/(x-2), 1/(x+3), ..."),
        "--json": _JSON}),
}


def _help(command: Optional[str]):
    """Print the help of one command, or of all with None, and exit 0."""
    if command is None:
        head = ["usage: skewgt COMMAND [-h] [--flag VALUE ...]",
                "exact computations in shift skew rings attached to gl_n"]
        rows = [(name, entry[1]) for name, entry in COMMANDS.items()]
    else:
        head = [f"usage: skewgt {command} [-h] [--flag VALUE ...]", COMMANDS[command][1]]
        rows = [(name, f.help) for name, f in COMMANDS[command][2].items()]
    print("\n".join(head + [f"  {left:9}  {text}" for left, text in rows]))
    raise SystemExit(0)


def _fail(command: Optional[str], message: str):
    prog = "skewgt" if command is None else f"skewgt {command}"
    print(f"{prog}: error: {message}\n(see '{prog} -h')", file=sys.stderr)
    raise SystemExit(2)


def parse_args(argv: Optional[List[str]] = None) -> SimpleNamespace:
    """Read argv against COMMANDS, in the syntax of the module docstring.
    A usage error raises SystemExit(2) after one message on stderr; -h
    prints the help and raises SystemExit(0)."""
    argv = sys.argv[1:] if argv is None else argv
    command = argv[0] if argv else None
    if command in ("-h", "--help"):
        _help(None)
    if command not in COMMANDS:
        what = "no command" if command is None else f"invalid choice: {quote(command)}"
        _fail(None, f"{what} (choose from {', '.join(COMMANDS)})")
    func, _, flags = COMMANDS[command]
    given = {}
    tokens = iter(argv[1:])
    for token in tokens:
        if token in ("-h", "--help"):
            _help(command)
        name, eq, value = token.partition("=")
        match = [name] if name in flags else [
            n for n in flags if name.startswith("--") and n.startswith(name)]
        if len(match) != 1:
            _fail(command, f"unrecognized or ambiguous flag: {quote(token)}")
        name, f = match[0], flags[match[0]]
        if f.kind is bool:
            if eq:
                _fail(command, f"argument {name}: ignored explicit argument {quote(value)}")
            value = True
        elif not eq:
            value = next(tokens, None)
            if value is None:
                _fail(command, f"argument {name}: expected one argument")
        try:
            if isinstance(f.kind, tuple) and value not in f.kind:
                raise ValueError(f"invalid choice: {quote(value)} "
                                 f"(choose from {', '.join(f.kind)})")
            given[name] = f.kind(value) if callable(f.kind) else value
        except ValueError as exc:
            _fail(command, f"argument {name}: {exc}")
    for need in dict.fromkeys(f.need for f in flags.values() if f.need):
        group = [name for name, f in flags.items() if f.need == need]
        if len(given.keys() & group) != 1:
            _fail(command, f"argument {group[0]} is required" if len(group) == 1 else
                  f"exactly one of {', '.join(group)} is required")
    return SimpleNamespace(command=command, func=func, **{
        name[2:]: given.get(name, f.default) for name, f in flags.items()})


def build_parser() -> SimpleNamespace:
    """The object `main` parses with: its `parse_args` is an instance
    attribute, which perfbench/tracer.py rebinds as the `cli.parse` span."""
    return SimpleNamespace(parse_args=parse_args)


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code
    try:
        text, payload, code = args.func(args)
        target = _open_json(args.json)
        print(text)
        if target is not None:
            _write_json(target, payload())
        return code
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
