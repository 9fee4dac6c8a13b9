"""Record the reference outputs the benchmark checks every job against.

    python3 perfbench/record.py

Builds the seeded input pools (regular rank-3 generic points and, for
each witness cell, a set of polynomials f), runs every job any seed can
draw once, untraced, and writes perfbench/reference.json with the
sha256 of each job's stdout, of any --json file it writes, and the
"N/M identities passed" total it prints.  Run it only on a commit whose
outputs are known good: the benchmark counts any later difference as a
failed job.
"""

from __future__ import annotations

import json
import random
import sys
from fractions import Fraction

import run

POOL_SEED = 1907
# Each witness cell fixes the degree of f, the target 1/(x+c) and
# whether f has an integer root; the seed draws f within the cell.  These
# three set the cost of a job (an integer root lets factors cancel), so
# fixing the cells keeps a pass's total work steady across seeds.
WITNESS_DEGREES = (1, 2, 3, 4, 5)
WITNESS_TARGETS = (-12, -7, -3, 3, 7, 12)
# f = (x - r) * g with r in the range that makes the target factor occur
# in the accumulated product, so the word has multiplicity m = 1.
ROOTED_CELLS = ((3, 7, range(-7, 0)), (3, -7, range(1, 7)))
SPECIAL_TARGETS = (0, -1)  # the YX and XY words; f of every degree
POLYS_PER_CELL = 8
GENERIC_POINTS = 16


def poly_text(coeffs) -> str:
    """'3x^2-x+5' from coefficients listed from the constant term up."""
    text = ""
    for e in range(len(coeffs) - 1, -1, -1):
        c = coeffs[e]
        if not c:
            continue
        mono = "" if e == 0 else "x" if e == 1 else f"x^{e}"
        mag = "" if abs(c) == 1 and e else str(abs(c))
        text += ("-" if c < 0 else "+") + mag + mono
    return text.lstrip("+")


def has_integer_root(coeffs) -> bool:
    a0 = coeffs[0]
    return any(sum(c * r ** e for e, c in enumerate(coeffs)) == 0
               for r in range(-abs(a0), abs(a0) + 1) if r and a0 % r == 0)


def random_coeffs(rng: random.Random, degree: int):
    """Coefficients in [-9, 9] of f with f(0) != 0 and no integer root."""
    nonzero = [v for v in range(-9, 10) if v]
    while True:
        coeffs = [rng.randint(-9, 9) for _ in range(degree + 1)]
        coeffs[0] = rng.choice(nonzero)
        coeffs[degree] = rng.choice(nonzero)
        if not has_integer_root(coeffs):
            return coeffs


def rooted_coeffs(rng: random.Random, degree: int, roots: range):
    """(x - r) * g with r drawn from `roots` and g as in random_coeffs."""
    r = rng.choice(roots)
    g = random_coeffs(rng, degree - 1)
    return [-r * g[0]] + [g[e - 1] - r * g[e] for e in range(1, degree)] + [g[-1]]


def generic_point(rng: random.Random) -> str:
    """A regular rank-3 point with fixed denominators 3; 5, 7; 1, 1, 1.

    Row 2's staircase difference p/5 - q/7 + 1 is never an integer when
    5 does not divide p and 7 does not divide q, so the point is regular.
    """
    def num(den: int) -> int:
        return rng.choice([v for v in range(-9, 10) if v % den])

    row1 = Fraction(num(3), 3)
    row2 = (Fraction(num(5), 5), Fraction(num(7), 7))
    top = sorted((rng.randint(-3, 3) for _ in range(3)), reverse=True)
    return f"{row1}; {row2[0]}, {row2[1]}; {top[0]}, {top[1]}, {top[2]}"


def pools() -> dict:
    rng = random.Random(POOL_SEED)
    cells = [{"degree": d, "c": c, "integer_root": False,
              "f": [poly_text(random_coeffs(rng, d)) for _ in range(POLYS_PER_CELL)]}
             for d in WITNESS_DEGREES for c in WITNESS_TARGETS]
    for d, c, roots in ROOTED_CELLS:
        cells.append({"degree": d, "c": c, "integer_root": True,
                      "f": [poly_text(rooted_coeffs(rng, d, roots))
                            for _ in range(POLYS_PER_CELL)]})
    for c in SPECIAL_TARGETS:
        cells.append({"degree": None, "c": c, "integer_root": False,
                      "f": [poly_text(random_coeffs(rng, 1 + i % len(WITNESS_DEGREES)))
                            for i in range(POLYS_PER_CELL)]})
    points = []
    while len(points) < GENERIC_POINTS:
        p = generic_point(rng)
        if p not in points:
            points.append(p)
    return {"generic_points": points, "witness_cells": cells}


def every_job(ref: dict):
    yield from run.CATALOGUE
    yield from run.MODULES_FIXED
    for p in ref["generic_points"]:
        yield run.generic_job(p)
    for cell in ref["witness_cells"]:
        for f in cell["f"]:
            yield run.witness_job(f, cell["c"])


def main() -> int:
    ref = {**pools(), "recorded_with": run.environment(), "jobs": {}}
    bad = 0
    for i, argv in enumerate(every_job(ref)):
        result = run.run_job(argv, i, False, 300.0)
        if result["timed_out"] or result["rc"] != 0:
            print(f"FAILED {argv}: {result.get('stderr', b'timed out')!r}", file=sys.stderr)
            bad += 1
            continue
        entry = {"stdout_sha256": run._sha256(result["stdout"])}
        if "json" in result:
            entry["json_sha256"] = run._sha256(result["json"])
        passed = run.passed_total(result["stdout"])
        if passed is not None:
            entry["passed"] = passed
        ref["jobs"][run.job_key(argv)] = entry
        print(f"{result['report']['engine_s']:8.3f}s  {' '.join(argv)}  {passed or ''}",
              flush=True)
    if bad:
        print(f"{bad} jobs failed; reference not written", file=sys.stderr)
        return 1
    run.REFERENCE.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
