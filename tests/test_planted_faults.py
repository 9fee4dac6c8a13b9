"""Planted faults: the tests' sensitivity, kept.

Each entry of FAULTS names a fault, a file of the package, an old text
and the new text that plants the fault, and the tests that must kill it.
The entry is applied to a copy of `src/` in a temporary directory (its
old text must occur there exactly once, so a refactor that moves the
code fails here loudly and the entry is re-pointed, not dropped), and
the named tests run against that copy with `-x` in a subprocess: they
must fail.  The same tests must pass on an unplanted copy.

Run with `pytest -m slow tests/test_planted_faults.py`; the module uses
the standard library only.
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

# (name, file under src/skewgt, old text, new text, test ids)
FAULTS = [
    ("columns_equal ignores entries only b stores", "gtmodules.py",
     "        for j in rb:\n            if j in cols and j not in ra:",
     "        for j in ():\n            if j in cols and j not in ra:",
     ["tests/test_gtmodules.py::test_sparse_ops_match_dense_reference"]),
    ("regularity tested without the lattice scale", "gtmodules.py",
     "all((a - b) % scale for row in point[:-1]",
     "all((a - b) for row in point[:-1]",
     ["tests/test_gtmodules.py::test_generic_module_rejects_nonregular"]),
    ("MAX_POWER off by one", "cli.py",
     "if power > MAX_POWER:",
     "if power >= MAX_POWER:",
     ["tests/test_cli.py::test_size_budgets"]),
    ("gln_weights sign for k = l + 1 flipped", "relations.py",
     "- (1 if k == l + 1 else 0)",
     "+ (1 if k == l + 1 else 0)",
     ["tests/test_relations.py::test_gln_catalogue_holds_on_skew_elements"]),
    ("Poly.evaluate multiplies by the exponent", "polys.py",
     "coeff *= vals[pos] ** e",
     "coeff *= vals[pos] * e",
     ["tests/test_polys.py::test_evaluate_matches_sympy"]),
    ("sign slip in LinearFactor.shifted", "ratfunc.py",
     "c = c + shift.get(self.b, 0)",
     "c = c - shift.get(self.b, 0)",
     ["tests/test_ratfunc.py::test_ratfunc_matches_sympy"]),
    ("Ring.__rsub__ subtracts the wrong way round", "polys.py",
     "return (-self) + other",
     "return self + (-other)",
     ["tests/test_ring.py::test_derived_operators_agree_with_the_primitive_ones"]),
    ("right coefficients shifted the wrong way", "skew.py",
     "coeff.shifted(_shift_map(self.ctx, tuple(map(neg, key))))",
     "coeff.shifted(_shift_map(self.ctx, key))",
     ["tests/test_skew.py::test_right_left_roundtrip_random"]),
    ("coevaluation shifts the wrong way", "skew.py",
     "a.shifted(_shift_map(self.ctx, tuple(map(neg, key))))",
     "a.shifted(_shift_map(self.ctx, key))",
     ["tests/test_skew.py::test_evaluate_examples"]),
    ("identity coefficient read at the first stored key", "skew.py",
     "self.terms.get(SkewElement.identity_shift(self.ctx), ",
     "self.terms.get(next(iter(self.terms), ()), ",
     ["tests/test_skew.py::test_identity_coefficient_reads_the_identity_shift"]),
    ("a Fraction operand is not promoted", "skew.py",
     "isinstance(other, (RatFunc, Poly, int, Fraction))",
     "isinstance(other, (RatFunc, Poly, int))",
     ["tests/test_skew.py::test_commutator_promotes_mixed_operands"]),
    ("reports share one result list", "relations.py",
     "    def __init__(self, suite: str):\n        self.suite = suite\n"
     "        self.results: List[IdentityResult] = []",
     "    def __init__(self, suite: str, results=[]):\n        self.suite = suite\n"
     "        self.results = results",
     ["tests/test_reference_outputs.py::test_every_reference_job_replays_byte_identically"]),
    ("a predicate result keeps a count for its flag", "relations.py",
     "len(four.identity_coefficient().den) > 0))",
     "len(four.identity_coefficient().den)))",
     ["tests/test_reference_outputs.py::test_every_reference_job_replays_byte_identically"]),
    ("module report passes every relation", "gtmodules.py",
     "IdentityResult(key, anchor, lhs == rhs)",
     "IdentityResult(key, anchor, True)",
     ["tests/test_gtmodules.py::test_module_reports_fail_on_planted_faults"]),
    ("generic report compares each left side with itself", "gtmodules.py",
     "columns_equal(lhs, rhs, cols)",
     "columns_equal(lhs, lhs, cols)",
     ["tests/test_gtmodules.py::test_module_reports_fail_on_planted_faults"]),
    ("witness constant printed without its parentheses", "toy.py",
     'constant = f"({constant})"',
     'constant = f"{constant}"',
     ["tests/test_toy.py::test_printed_factor_reads_back_as_one_over_the_constant"]),
    ("skew product twists by the right operand's shift", "skew.py",
     "[]).append((a1, a2, smap))",
     "[]).append((a1, a2, _shift_map(ctx, k2)))",
     ["tests/test_acceptance.py::test_criterion_9_randomized_property_suites"]),
    ("toy witness clears by (x - j)", "toy.py",
     "clear = clear * (x + j)",
     "clear = clear * (x - j)",
     ["tests/test_toy.py::test_witnesses_random_polynomials"]),
    ("matrix sum scales each operand by the other's factor", "gtmodules.py",
     "sa, sb = den // a.den, den // b.den",
     "sa, sb = den // b.den, den // a.den",
     ["tests/test_gtmodules.py::test_sparse_ops_match_dense_reference"]),
    ("num multiplies all but the last part", "ratfunc.py",
     "return self._expanded(self.parts + self.lin)",
     "return self._expanded((self.parts + self.lin)[:-1])",
     ["tests/test_ratfunc.py::test_json_roundtrip"]),
    ("ladder family denominator from the first summand only", "gtmodules.py",
     "for memo, _ in summands for _, d in memo.values()",
     "for memo, _ in summands[:1] for _, d in memo.values()",
     ["tests/test_gtmodules.py::test_ladder_matrices_match_per_pattern_action"]),
    ("toy check reuses the expansion at a wrong scale", "toy.py",
     "coeff.den, coeff.scale))",
     "coeff.den, 2 * coeff.scale))",
     ["tests/test_toy.py::test_witnesses_random_polynomials"]),
    ("_cancel removes an atom that does not equal the factor", "ratfunc.py",
     "            lin.remove(f)",
     "            lin.pop()",
     ["tests/test_ratfunc.py::test_operations_return_the_full_reduction"]),
    ("factored sum skips the multiplication by the pulled-out factor", "ratfunc.py",
     "out = _expand(ctx, [inner, _term_map(ctx, f)], 1, out)",
     "out = _expand(ctx, [inner], 1, out)",
     ["tests/test_ratfunc.py::test_sum_multiplies_a_factor_many_groups_lack_in_once"]),
    ("group sum drops an operand's integer scale", "ratfunc.py",
     "acc = _expand(ctx, maps, k, acc)",
     "acc = _expand(ctx, maps, 1, acc)",
     ["tests/test_ratfunc.py::test_ratfunc_matches_sympy"]),
    ("renaming check skipped for a value with atoms and no part", "ratfunc.py",
     "if not self.parts:",
     "if not self.parts and not self.lin:",
     ["tests/test_skew.py::test_bad_row_mappings_are_refused"]),
    ("unsigned V_k built with sign -1", "gtmodules.py",
     "(1 if signs is None",
     "(-1 if signs is None",
     ["tests/test_gtmodules.py::test_vandermonde_action"]),
    ("braid family left out at rank 3", "relations.py",
     "    if n >= 3:",
     "    if n >= 4:",
     ["tests/test_cli.py::test_printed_forms_are_pinned[verify]"]),
    ("value screen at the ones divides by c - 1", "polys.py",
     "at_ones % (c + 1)",
     "at_ones % (c - 1)",
     ["tests/test_polys.py::test_value_screen_agrees_with_the_division"]),
    ("block boundary off by one field", "polys.py",
     "for i in range(0, nv, _BLOCK):",
     "for i in range(0, nv, _BLOCK + 1):",
     ["tests/test_polys.py::test_block_renderer_matches_field_by_field"]),
    ("a shared factor counted once too many", "ratfunc.py",
     "shared = [f for f in shared if _take(pool, f)]",
     "shared = [f for f in shared if _take(list(pool), f)]",
     ["tests/test_ratfunc.py::test_sum_keeps_the_shared_factor_multiset"]),
    ("equality shortcut compares the parts but not the atoms", "ratfunc.py",
     "if self.parts is other.parts and self.lin is other.lin:",
     "if self.parts is other.parts:",
     ["tests/test_ratfunc.py::test_equality_cancels_shared_factors_as_multisets"]),
    ("diagonal kept negated", "gtmodules.py",
     "m.diag = [row.get(i, 0)",
     "m.diag = [-row.get(i, 0)",
     ["tests/test_gtmodules.py::test_rank_nine_module_check_runs"]),
    ("universe check never fires", "polys.py",
     "if other is not None and other.ctx is not self.ctx:",
     "if other is not None and other.ctx is not other.ctx:",
     ["tests/test_ring.py::test_operands_of_two_universes_are_refused"]),
    ("unpickling builds a fresh context", "polys.py",
     'return (Context.line, ()) if self.kind == "line" else (Context.triangle, (self.n,))',
     "return (Context, (self.kind, self.n, self.vars, self.shift_vars))",
     ["tests/test_ring.py::test_pickle_and_copy_keep_the_universe"]),
]


def _copy_src(tmp_path: Path) -> Path:
    src = tmp_path / "src"
    shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
    return src


def _run_tests(src: Path, tests) -> subprocess.CompletedProcess:
    """The tests with -x, the package imported from `src`, writing
    nothing into the checkout.  Hypothesis runs its `unshrunk` profile
    (tests/conftest.py): a failing example kills, so none is shrunk."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
         "--hypothesis-profile=unshrunk", "-o", f"pythonpath={src}", *tests],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=900)


@pytest.mark.slow
def test_named_tests_pass_unplanted(tmp_path):
    tests = sorted({t for *_, ids in FAULTS for t in ids})
    run = _run_tests(_copy_src(tmp_path), tests)
    assert run.returncode == 0, run.stdout + run.stderr


@pytest.mark.slow
@pytest.mark.parametrize("name,file,old,new,tests", FAULTS, ids=[f[0] for f in FAULTS])
def test_planted_fault_is_killed(tmp_path, name, file, old, new, tests):
    src = _copy_src(tmp_path)
    target = src / "skewgt" / file
    text = target.read_text()
    assert text.count(old) == 1, f"{name}: the old text occurs {text.count(old)} times in {file}"
    target.write_text(text.replace(old, new))
    run = _run_tests(src, tests)
    # 1: tests ran and failed; a usage or collection error is not a kill
    assert run.returncode == 1, f"{name} survived:\n{run.stdout}{run.stderr}"
