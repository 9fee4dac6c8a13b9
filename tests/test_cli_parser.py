"""The command-line parser of `skewgt.cli`: the table parser against an
argparse reference, help, bounded refusal messages and the cold start."""

import argparse
import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

from hypothesis import given, settings, strategies as st

from skewgt import cli, relations
from skewgt.polys import QUOTE_LIMIT, quote

ROOT = Path(__file__).resolve().parents[1]


def reference_parser() -> argparse.ArgumentParser:
    """The argparse parser `cli.build_parser` returned before the command
    table replaced it: the oracle the table parser is compared with."""
    parser = argparse.ArgumentParser(
        prog="skewgt",
        description="exact computations in shift skew rings attached to gl_n")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="run identity suites")
    p.add_argument("--suite", choices=[*relations.SUITES, "all"], default="all")
    p.add_argument("--n", type=cli.integer, default=None, help="context size (gl2 suite)")
    p.add_argument("--json", metavar="PATH", help="write a JSON report ('-' for stdout)")
    p.set_defaults(func=cli.cmd_verify)

    p = sub.add_parser("compute", help="evaluate a registry expression")
    p.add_argument("--expr", required=True,
                   help="e.g. \"[V2, A21+]\" or \"X1+*X1- - X1-*X1+\"")
    p.add_argument("--n", type=cli.integer, default=3)
    p.add_argument("--json", metavar="PATH")
    p.set_defaults(func=cli.cmd_compute)

    p = sub.add_parser("gt", help="build pattern modules")
    base = p.add_mutually_exclusive_group(required=True)
    base.add_argument("--top", help="dominant top row, e.g. 2,1,0")
    base.add_argument("--generic", metavar="ROWS",
                      help="semicolon-separated rows of a regular point, e.g. '1/3; 1,0'")
    p.add_argument("--signs", help="with --top: all-plus (default), all-minus, "
                   "or comma list per sorted row filling")
    p.add_argument("--window", type=cli.integer,
                   help="with --generic: window radius (default 2)")
    p.add_argument("--check", action="store_true", help="run the relation report")
    p.add_argument("--json", metavar="PATH")
    p.set_defaults(func=cli.cmd_gt)

    p = sub.add_parser("toy", help="rank-one shift algebra witnesses")
    p.add_argument("--f", required=True, help="polynomial with nonzero constant term")
    p.add_argument("--target", required=True, help="1/x, 1/(x-2), 1/(x+3), ...")
    p.add_argument("--json", metavar="PATH")
    p.set_defaults(func=cli.cmd_toy)
    return parser


def exit_code(parse, argv):
    """Run `parse(argv)` with stdout and stderr captured; return the
    SystemExit code (None when it returned), stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            parse(argv)
            code = None
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def run(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ----------------------------------------------------------------------
# valid and invalid command lines, drawn from the command table

# Flags that must appear once (one of a group, for gt's --top/--generic).
REQUIRED = {"compute": ["--expr"], "toy": ["--f", "--target"]}
GROUP = ["--top", "--generic"]

# a value that argparse reads as one too after a space: no leading '-'
# (negative numbers apart); after '=' any text is a value
text_values = st.text(st.characters(blacklist_categories=("Cs",)), max_size=8)


def spellings(command: str, name: str) -> list:
    """The flag's exact name and every prefix that names it alone among
    the command's flags and --help."""
    others = [n for n in [*cli.COMMANDS[command][2], "--help"] if n != name]
    return [name[:k] for k in range(3, len(name) + 1)
            if name[:k] == name or not any(n.startswith(name[:k]) for n in others)]


@st.composite
def flag_group(draw, command: str, name: str):
    """One flag with its value, as one or two argv tokens."""
    flag = cli.COMMANDS[command][2][name]
    spelled = draw(st.sampled_from(spellings(command, name)))
    if flag.kind is bool:
        return [spelled]
    if isinstance(flag.kind, tuple):
        value = draw(st.sampled_from(flag.kind))
    elif flag.kind is cli.integer:
        value = str(draw(st.integers(-50, 10 ** 6)))
    else:
        value = draw(text_values)
    if draw(st.booleans()):
        return [f"{spelled}={value}"]
    if value.startswith("-") and not value[1:].isdecimal():
        value = value.lstrip("-")
    return [spelled, value]


@st.composite
def valid_groups(draw, command: str):
    """Flag groups of a valid command line in a drawn order: each required
    flag, one of --top/--generic for gt, optional flags 0-2 times."""
    flags = cli.COMMANDS[command][2]
    names = list(REQUIRED.get(command, []))
    if command == "gt":
        names.append(draw(st.sampled_from(GROUP)))
    for name in flags:
        if name not in names and name not in GROUP:
            names += [name] * draw(st.integers(0, 2))
    if names:  # repeats
        names += draw(st.lists(st.sampled_from(names), max_size=2))
    groups = [draw(flag_group(command, name)) for name in names]
    return draw(st.permutations(groups))


def flat(command, groups):
    return [command] + [token for group in groups for token in group]


@settings(max_examples=300)
@given(st.data())
def test_table_parser_matches_argparse_on_valid_argv(data):
    command = data.draw(st.sampled_from(list(cli.COMMANDS)))
    argv = flat(command, data.draw(valid_groups(command)))
    expected = reference_parser().parse_args(argv)
    got = cli.build_parser().parse_args(argv)
    assert vars(got) == vars(expected), argv


def mutations(command: str) -> list:
    out = ["unknown flag", "stray token", "no value at the end"]
    out += {"verify": ["bad suite", "non-integer --n"],
            "compute": ["missing required", "non-integer --n"],
            "toy": ["missing required"],
            "gt": ["both of --top/--generic", "neither of --top/--generic",
                   "non-integer --window", "--check=1"]}[command]
    return out


@settings(max_examples=200)
@given(st.data())
def test_table_parser_matches_argparse_on_invalid_argv(data):
    command = data.draw(st.sampled_from(list(cli.COMMANDS)))
    groups = list(data.draw(valid_groups(command)))
    kind = data.draw(st.sampled_from(mutations(command)))
    word = data.draw(st.text("abcxyz", min_size=1, max_size=6))
    at = data.draw(st.integers(0, len(groups)))
    if kind == "unknown flag":
        groups.insert(at, ["--bogus" + word])
    elif kind == "stray token":
        groups.insert(at, [word])
    elif kind == "no value at the end":
        groups.append([data.draw(st.sampled_from(spellings(command, "--json")))])
    elif kind == "bad suite":
        groups.insert(at, ["--suite", "no" + word])
    elif kind in ("non-integer --n", "non-integer --window"):
        groups.insert(at, [kind.split()[-1], word])
    elif kind == "missing required":
        missing = data.draw(st.sampled_from(REQUIRED[command]))
        groups = [g for g in groups if not missing.startswith(g[0].split("=")[0])]
    elif kind == "both of --top/--generic":
        groups.insert(at, data.draw(flag_group(command, "--top")))
        groups.insert(at, data.draw(flag_group(command, "--generic")))
    elif kind == "neither of --top/--generic":
        groups = [g for g in groups if not any(n.startswith(g[0].split("=")[0])
                                               for n in GROUP)]
    else:
        groups.insert(at, ["--check=1"])
    argv = flat(command, groups)
    for parse in (reference_parser().parse_args, cli.build_parser().parse_args):
        code, out, err = exit_code(parse, argv)
        assert (code, out) == (2, ""), (kind, argv, parse)
        assert "error" in err


# ----------------------------------------------------------------------
# behaviour of the table parser itself

def test_value_may_start_with_dash(capsys):
    spaced = run(capsys, ["toy", "--f", "-x+2", "--target", "1/(x-3)"])
    joined = run(capsys, ["toy", "--f=-x+2", "--target=1/(x-3)"])
    assert spaced == joined
    assert spaced[0] == 0 and "f = -x + 2\n" in spaced[1]


def test_help_is_rendered_from_the_table(capsys):
    for argv in (["-h"], ["--help"]):
        code, out, _ = run(capsys, argv)
        assert code == 0
        for command, (_, about, _) in cli.COMMANDS.items():
            assert any(command in line and about in line for line in out.splitlines())
    for command, (_, about, flags) in cli.COMMANDS.items():
        code, out, _ = run(capsys, [command, "-h"])
        assert code == 0 and about in out
        for name, flag in flags.items():
            assert flag.help
            assert any(name in line and flag.help in line for line in out.splitlines())
        # -h is read where it stands, after valid flags too
        assert run(capsys, [command, "--json", "x", "--help"])[:2] == (0, out)
    for argv in ([], ["nope"], ["Gt"]):
        code, out, err = run(capsys, argv)
        assert code == 2 and out == ""
        assert all(command in err for command in cli.COMMANDS)


def test_refused_entries_are_quoted_briefly(capsys):
    many = "q" * 5000
    for argv in (["compute", "--expr", "X11", "--n", many],
                 ["gt", "--top", "1," + many],
                 ["gt", "--top", "2,1,0", "--signs", many],
                 ["compute", "--expr", many],
                 ["toy", "--f", "x+1", "--target", many],
                 ["toy", "--f", many, "--target", "1/x"],
                 ["verify", "--suite", many],
                 ["compute", "--expr", "X11", "--" + many],
                 [many]):
        code, out, err = run(capsys, argv)
        assert code == 2 and out == ""
        assert len(err.encode()) < 300, argv
        assert "... (5000 characters)" in err or "... (5002 characters)" in err
    # short entries are still quoted whole
    code, _, err = run(capsys, ["compute", "--expr", "X11", "--n", "two"])
    assert code == 2 and "skewgt compute: error: argument --n: invalid integer value: " \
        "'two'\n" in err
    code, _, err = run(capsys, ["gt", "--top", "1,abc"])
    assert code == 2 and err == "error: bad top row entry 'abc': expected an integer\n"
    assert quote("a" * QUOTE_LIMIT) == repr("a" * QUOTE_LIMIT)
    assert quote("a" * (QUOTE_LIMIT + 1)).endswith(f"... ({QUOTE_LIMIT + 1} characters)")


COLD_START = """
import json, sys
from skewgt import cli
jobs = [["verify", "--suite", "gl2"], ["compute", "--expr", "c22", "--n", "2"],
        ["gt", "--top", "2,1,0", "--check"], ["toy", "--f", "x+2", "--target", "1/(x-3)"],
        ["toy", "-h"], ["toy", "--n", "1"]]
codes = [cli.main(job) for job in jobs]
print(json.dumps([codes, [m for m in ("argparse", "gettext", "locale") if m in sys.modules]]))
"""


def test_cold_start_imports_no_argparse():
    """A job in a fresh interpreter imports neither argparse nor the
    translation and locale modules it pulls in."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", COLD_START], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    codes, loaded = json.loads(proc.stdout.splitlines()[-1])
    assert codes == [0, 0, 0, 0, 0, 2]
    assert loaded == []
