"""The skewgt benchmark: real CLI jobs, each in a fresh interpreter.

    python3 perfbench/run.py --workload catalogue --seed 1 --seconds 30 --trace 0

Workloads, metrics and the reference check are described in
perfbench/README.md.  The last line of stdout is one JSON object with
the keys correct, attempted, failed and metrics; the lines before it are
a readable report.  Full results (every sample, the Python version and
nproc) go to .perfbench/results/ under the repository root.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import random
import re
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
REFERENCE = HERE / "reference.json"
JSON_SLOT = "{json}"

# Jobs of one workload run one after another, one interpreter each.  A
# pass is one run over all jobs; a run makes the passes that fit its
# --seconds at the nominal pass time below (measured on a 2-core
# machine, Python 3.11), and at least enough for eleven job samples.
CATALOGUE = [
    ["verify", "--suite", "all", "--json", JSON_SLOT],
    ["compute", "--expr", "c32"],
    ["compute", "--expr", "c33"],
    ["compute", "--expr", "A21+*A21-*A22+*A22-"],
    ["compute", "--expr", "[A31+, A32-]", "--n", "4"],
]
MODULES_FIXED = [
    ["gt", "--top", "3,2,1,0", "--check"],
    ["gt", "--top", "2,1,0,0,0", "--check"],
    ["gt", "--top", "2,1,0", "--signs", "all-minus", "--check"],
    ["gt", "--top", "4,2,1,0", "--check", "--json", JSON_SLOT],
]
NOMINAL_PASS_S = {"catalogue": 10.5, "modules": 14.5, "witnesses": 6.5}
JOB_LIMIT_S = {"catalogue": 60.0, "modules": 60.0, "witnesses": 15.0}
SETUP_LIMIT_S = 15.0
RUN_CAP_S = 165.0  # no job starts or runs past this point of a run
MIN_SAMPLES = 11  # the tail percentile needs ten samples beyond it
# Untraced runs take at least this many set-up samples: where the jobs
# give fewer, set-up-only children (import, no job) run before each job.
SETUP_SAMPLES = 45
# Set-up is reported in seconds at a fixed machine speed: each sample is
# divided by the speed probe's time around that import and multiplied by
# this median probe time, measured when the benchmark was added (2-core
# machine, Python 3.11.7).
PROBE_REF_S = 3.4e-4

END_TO_END_UNITS = {"setup_s": "s", "wall_probes": "probe", "peak_rss_mb": "MB"}
# Printed and stored, but not in the result line: these are plain
# seconds, which move with the machine's speed; across ten seeds they
# spread by up to half their median on a 2-core VM, more than the
# largest bound (0.25) the benchmark may set.  wall_probes and setup_s
# divide each sample by the speed probe's time instead.
REPORT_ONLY_UNITS = {"wall_s": "s", "job_s.p50": "s", "job_s.tail": "s",
                     "setup_raw_s": "s"}


def job_key(argv: List[str]) -> str:
    return json.dumps(argv)


def draw_passes(workload: str, seed: int, ref: dict, passes: int) -> List[List[List[str]]]:
    """The argv of every job, pass by pass.  The seed picks the generic
    point of `modules` once per run, and a fresh polynomial per witness
    cell for every pass of `witnesses`, from the recorded pools."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "catalogue":
        return [[list(a) for a in CATALOGUE] for _ in range(passes)]
    if workload == "modules":
        point = rng.choice(ref["generic_points"])
        jobs = [list(a) for a in MODULES_FIXED] + [generic_job(point)]
        return [[list(a) for a in jobs] for _ in range(passes)]
    if workload == "witnesses":
        return [[witness_job(rng.choice(cell["f"]), cell["c"]) for cell in ref["witness_cells"]]
                for _ in range(passes)]
    raise ValueError(f"unknown workload {workload!r}")


def generic_job(point: str) -> List[str]:
    return ["gt", f"--generic={point}", "--window", "2", "--check"]


def witness_job(f: str, c: int) -> List[str]:
    target = "1/x" if c == 0 else f"1/(x{c:+d})"
    return ["toy", f"--f={f}", f"--target={target}"]


@dataclass
class Sample:
    pass_no: int
    argv: List[str]
    ok: bool
    reason: str = ""
    setup_s: Optional[float] = None
    setup_probe_s: Optional[float] = None
    engine_s: Optional[float] = None
    probe_s: Optional[float] = None
    maxrss_kb: int = 0
    output_bytes: int = 0
    trace: Optional[dict] = field(default=None, repr=False)


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


_PASSED_RE = re.compile(rb"(\d+)/(\d+) identities passed")


def passed_total(stdout: bytes) -> Optional[str]:
    """The last "N/M identities passed" count printed, as "N/M"."""
    found = _PASSED_RE.findall(stdout)
    return None if not found else "%s/%s" % (found[-1][0].decode(), found[-1][1].decode())


def run_job(argv: List[str], job_id: int, trace: bool, timeout: float) -> dict:
    """Run one job in a fresh interpreter (with no argv, only its set-up).
    Returns the child's report plus the bytes it printed and wrote; never
    leaves the child running."""
    tmp = WORK / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    report = tmp / f"report-{os.getpid()}-{job_id}.json"
    json_path = tmp / f"out-{os.getpid()}-{job_id}.json"
    real = [str(json_path) if a == JSON_SLOT else a for a in argv]
    for p in (report, json_path):
        p.unlink(missing_ok=True)
    cmd = [sys.executable, str(HERE / "child.py"), str(report), str(SRC),
           str(job_id), "1" if trace else "0", "--", *real]
    out = {"timed_out": False}
    start = time.perf_counter()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, timeout=timeout)
    except subprocess.TimeoutExpired:
        out.update(timed_out=True, elapsed_s=time.perf_counter() - start)
        return out
    out.update(rc=proc.returncode, stdout=proc.stdout, stderr=proc.stderr)
    if report.exists():
        out["report"] = json.loads(report.read_text())
        report.unlink()
    if JSON_SLOT in argv and json_path.exists():
        out["json"] = json_path.read_bytes()
        json_path.unlink()
    return out


def check(argv: List[str], result: dict, expected: Optional[dict]) -> str:
    """Empty when the job's exit code and outputs match the reference;
    otherwise the reason it failed."""
    if result["timed_out"]:
        return "timed out"
    if result["rc"] != 0:
        tail = result["stderr"].decode(errors="replace").strip().splitlines()[-1:]
        return f"exit code {result['rc']}: {' '.join(tail)}"
    if "report" not in result:
        return "no timing report"
    if expected is None:
        return "no reference output recorded for this job"
    if _sha256(result["stdout"]) != expected["stdout_sha256"]:
        got = passed_total(result["stdout"])
        if got != expected.get("passed"):
            return f"passed total {got}, reference {expected.get('passed')}"
        return "stdout differs from the reference"
    if "json_sha256" in expected and _sha256(result.get("json", b"")) != expected["json_sha256"]:
        return "--json file differs from the reference"
    return ""


def run_setups(count: int, job_id: int, deadline: float) -> List[Sample]:
    """`count` set-up-only children; those that give no report are left out."""
    out = []
    for _ in range(count):
        left = deadline - time.perf_counter()
        if left <= 1.0:
            break
        rep = run_job([], job_id, False, min(SETUP_LIMIT_S, left)).get("report")
        if rep is not None:
            out.append(Sample(-1, [], True, setup_s=rep["setup_s"],
                              setup_probe_s=rep["setup_probe_s"]))
    return out


def run_passes(workload: str, plan: List[List[List[str]]], ref: dict, trace: bool,
               first_pass: int, deadline: float, setups_per_job: int = 0):
    """Run every pass of `plan`; returns the job samples and the samples of
    the set-up-only children run before each job."""
    samples, setups = [], []
    for p, jobs in enumerate(plan, start=first_pass):
        for j, argv in enumerate(jobs):
            job_id = p * len(jobs) + j
            setups += run_setups(setups_per_job, job_id, deadline)
            left = deadline - time.perf_counter()
            if left <= 1.0:
                samples.append(Sample(p, argv, False, "run time cap reached"))
                continue
            result = run_job(argv, job_id, trace, min(JOB_LIMIT_S[workload], left))
            reason = check(argv, result, ref["jobs"].get(job_key(argv)))
            s = Sample(p, argv, not reason, reason)
            rep = result.get("report")
            if rep is not None:
                s.setup_s, s.setup_probe_s = rep["setup_s"], rep["setup_probe_s"]
                s.engine_s, s.probe_s = rep["engine_s"], rep["probe_s"]
                s.maxrss_kb, s.trace = rep["maxrss_kb"], rep.get("trace")
            elif result["timed_out"]:
                s.engine_s = result["elapsed_s"]
            s.output_bytes = len(result.get("stdout", b"")) + len(result.get("json", b""))
            samples.append(s)
    return samples, setups


def complete_passes(samples: List[Sample]) -> List[List[Sample]]:
    """The job samples of each pass whose jobs all ran to the end.  A job
    that was killed or cut off has no full time and must not read as
    fast, so its pass is left out."""
    passes = {}
    for s in samples:
        passes.setdefault(s.pass_no, []).append(s)
    return [jobs for jobs in passes.values() if all(s.probe_s is not None for s in jobs)]


def pass_walls(samples: List[Sample]) -> List[float]:
    """Engine time summed per complete pass, in seconds."""
    return [sum(s.engine_s for s in jobs) for jobs in complete_passes(samples)]


def wall_probes(samples: List[Sample]) -> float:
    """Engine time of one pass in speed-probe units: each job's engine time
    divided by its probe time, the median over the complete passes for
    each job, summed over the jobs.  Per-job medians drop one job's
    outlying pass without dropping the other jobs of that pass."""
    passes = complete_passes(samples)
    return sum(statistics.median(jobs[j].engine_s / jobs[j].probe_s for jobs in passes)
               for j in range(len(passes[0])))


def tail_percentile(values: List[float]):
    """(percentile, value): the highest whole percentile with at least
    ten samples beyond it, by nearest rank."""
    xs = sorted(values)
    n = len(xs)
    if n < MIN_SAMPLES:
        raise ValueError(f"{n} samples; the tail needs at least {MIN_SAMPLES}")
    pct = 100 * (n - 10) // n
    rank = max(1, math.ceil(pct * n / 100))
    return pct, xs[rank - 1]


def end_to_end(samples: List[Sample], setups: List[Sample]) -> dict:
    timed = [s for s in samples + setups if s.setup_s is not None]
    engine = [s.engine_s for s in samples if s.engine_s is not None]
    if not timed:
        raise ValueError("no job reported its timings")
    walls = pass_walls(samples)
    if not walls:
        raise ValueError("no pass ran all its jobs to the end")
    pct, tail = tail_percentile(engine)
    # Every child this process waited for, killed ones included.
    children_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return {
        "setup_s": statistics.median(s.setup_s / s.setup_probe_s for s in timed) * PROBE_REF_S,
        "wall_probes": wall_probes(samples),
        "wall_s": statistics.median(walls),
        "job_s.p50": statistics.median(engine),
        "job_s.tail": tail,
        "peak_rss_mb": max([children_kb] + [s.maxrss_kb for s in samples]) / 1024,
        "setup_raw_s": statistics.median(s.setup_s for s in timed),
    }, {"passes": len(walls), "job_samples": len(engine),
        "setup_samples": len(timed), "tail_percentile": pct}


# -- per-layer metrics from the traced passes ---------------------------

CALLS_SELF = ["polys.divmod_linear", "polys.mul", "polys.content_primitive",
              "polys.subs_shift", "polys.evaluate", "ratfunc.reduce", "ratfunc.add",
              "ratfunc.mul", "ratfunc.shifted", "ratfunc.evaluate", "skew.mul",
              "skew.add", "skew.act", "gln.a_coeff", "gln.matrix_unit_image",
              "gln.gelfand_invariant_image", "relations.verify_identity",
              "gtmodules.mat_mul", "gtmodules.mat_addsub", "toy.witness_inverse"]
SELF_ONLY = ["relations.suite", "gtmodules.build", "gtmodules.report",
             "cli.parse", "cli.write_json", "cli.main"]
COUNTS = {"polys.divmod_linear.in_terms": "count", "polys.mul.term_pairs": "count",
          "polys.mul.out_terms": "count", "ratfunc.reduce.factors_tried": "count",
          "skew.mul.term_pairs": "count", "gtmodules.build.dim": "count"}


def per_layer_units() -> dict:
    units = {}
    for name in CALLS_SELF:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    for name in SELF_ONLY:
        units[f"{name}.self_s"] = "s"
    units.update(COUNTS)
    units.update({"polys.exact_div.hit_ratio": "ratio",
                  "ratfunc.reduce.cancel_ratio": "ratio",
                  "gtmodules.mat_mul.density": "ratio",
                  "cli.output_bytes": "bytes", "trace.overhead_s": "s"})
    return units


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def pass_layers(samples: List[Sample]) -> dict:
    """One traced pass summed over its jobs: layer rows and counters."""
    layers, counters = {}, {}
    for s in samples:
        if s.trace is None:
            continue
        for name, row in s.trace["layers"].items():
            acc = layers.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            for k in acc:
                acc[k] += row[k]
        for name, v in s.trace["counters"].items():
            counters[name] = counters.get(name, 0) + v
    return {"layers": layers, "counters": counters,
            "output_bytes": sum(s.output_bytes for s in samples)}


def layer_metrics(one: dict) -> dict:
    layers, counters = one["layers"], one["counters"]
    row = lambda name: layers.get(name, {"calls": 0, "self_s": 0.0})
    out = {}
    for name in CALLS_SELF:
        out[f"{name}.calls"] = row(name)["calls"]
        out[f"{name}.self_s"] = row(name)["self_s"]
    for name in SELF_ONLY:
        out[f"{name}.self_s"] = row(name)["self_s"]
    for name in COUNTS:
        out[name] = counters.get(name, 0)
    out["polys.exact_div.hit_ratio"] = _ratio(counters.get("polys.exact_div.hits", 0),
                                              counters.get("polys.exact_div.calls", 0))
    out["ratfunc.reduce.cancel_ratio"] = _ratio(
        counters.get("ratfunc.reduce.factors_cancelled", 0),
        counters.get("ratfunc.reduce.factors_tried", 0))
    out["gtmodules.mat_mul.density"] = _ratio(counters.get("gtmodules.mat_mul.nonzeros", 0),
                                              counters.get("gtmodules.mat_mul.cells", 0))
    out["cli.output_bytes"] = one["output_bytes"]
    return out


def per_layer(untraced: List[Sample], traced: List[Sample]) -> dict:
    by_pass = {}
    for s in traced:
        by_pass.setdefault(s.pass_no, []).append(s)
    runs = [layer_metrics(pass_layers(group)) for group in by_pass.values()]
    out = {k: statistics.median(r[k] for r in runs) for k in runs[0]}
    out["trace.overhead_s"] = (statistics.median(pass_walls(traced))
                               - statistics.median(pass_walls(untraced)))
    return out


def trace_table(traced: List[Sample]) -> str:
    """Readable per-layer table over all traced passes."""
    one = pass_layers(traced)
    passes = len({s.pass_no for s in traced})
    lines = [f"{'span':32s} {'calls/pass':>12s} {'self_s/pass':>12s} {'total_s/pass':>13s}"]
    for name, row in sorted(one["layers"].items(), key=lambda kv: -kv[1]["self_s"]):
        lines.append(f"{name:32s} {row['calls'] / passes:12.1f} "
                     f"{row['self_s'] / passes:12.4f} {row['total_s'] / passes:13.4f}")
    for name, v in sorted(one["counters"].items()):
        lines.append(f"{name:45s} {v / passes:14.1f}")
    return "\n".join(lines)


# -- running a workload ---------------------------------------------------


def plan_passes(workload: str, n_jobs: int, seconds: float) -> int:
    return max(math.ceil(MIN_SAMPLES / n_jobs), round(seconds / NOMINAL_PASS_S[workload]))


def load_reference() -> dict:
    return json.loads(REFERENCE.read_text())


def environment() -> dict:
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "machine": platform.machine()}


def run(workload: str, seed: int, seconds: float, trace: bool,
        plan: Optional[List[List[List[str]]]] = None) -> dict:
    """Run one benchmark measurement; returns the result record.  `plan`
    replaces the drawn jobs (one list of argv per pass)."""
    ref = load_reference()
    if plan is None:
        jobs_per_pass = len(draw_passes(workload, seed, ref, 1)[0])
        passes = (max(1, round(seconds / (2 * NOMINAL_PASS_S[workload]))) if trace
                  else plan_passes(workload, jobs_per_pass, seconds))
        plan = draw_passes(workload, seed, ref, passes)
    n_jobs = sum(len(jobs) for jobs in plan)
    setups_per_job = 0 if trace else math.ceil(max(0, SETUP_SAMPLES - n_jobs) / n_jobs)
    start = time.perf_counter()
    deadline = start + RUN_CAP_S
    samples, setups = run_passes(workload, plan, ref, False, 0, deadline, setups_per_job)
    if trace:
        untraced = samples
        traced, _ = run_passes(workload, plan, ref, True, len(plan), deadline)
        samples = untraced + traced
    failures = [{"pass": s.pass_no, "job": s.argv, "reason": s.reason}
                for s in samples if not s.ok]
    record = {"workload": workload, "seed": seed, "seconds": seconds,
              "trace": int(trace), **environment(),
              "attempted": len(samples), "failed": len(failures),
              "failed_ratio": len(failures) / len(samples), "failures": failures,
              "measured_s": time.perf_counter() - start,
              "samples": [{k: v for k, v in vars(s).items() if k != "trace"}
                          for s in samples],
              "setup_only_samples": [[s.setup_s, s.setup_probe_s] for s in setups]}
    if failures and len(failures) == len(samples):
        raise ValueError("every job failed; first: " + json.dumps(failures[0]))
    if trace:
        record["metrics"] = per_layer(untraced, traced)
        record["units"] = per_layer_units()
        record["trace_table"] = trace_table(traced)
    else:
        metrics, record["counts"] = end_to_end(samples, setups)
        record["metrics"] = {k: metrics[k] for k in END_TO_END_UNITS}
        record["report_only"] = {k: metrics[k] for k in REPORT_ONLY_UNITS}
        record["units"] = {**END_TO_END_UNITS, **REPORT_ONLY_UNITS}
    return record


def result_line(record: dict) -> str:
    metrics = {name: {"value": value, "unit": record["units"][name]}
               for name, value in record["metrics"].items()}
    return json.dumps({"correct": record["failed"] == 0, "attempted": record["attempted"],
                       "failed": record["failed"], "metrics": metrics})


def report(record: dict) -> str:
    lines = [f"workload {record['workload']}  seed {record['seed']}  "
             f"trace {record['trace']}  python {record['python']}  nproc {record['nproc']}",
             f"failed_ratio {record['failed_ratio']:.4f} "
             f"({record['failed']}/{record['attempted']} jobs failed)"]
    for f in record["failures"]:
        lines.append(f"  FAILED pass {f['pass']}: {' '.join(f['job'])}: {f['reason']}")
    if record["trace"]:
        lines.append(record["trace_table"])
    else:
        c = record["counts"]
        lines.append(f"passes {c['passes']}, job samples {c['job_samples']}, "
                     f"set-up samples {c['setup_samples']}, tail = p{c['tail_percentile']}")
    for name, value in {**record["metrics"], **record.get("report_only", {})}.items():
        lines.append(f"{name:40s} {value:.6g} {record['units'][name]}")
    return "\n".join(lines)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(NOMINAL_PASS_S))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "skewgt" / "cli.py").is_file():
        print(f"error: no skewgt sources at {SRC}; run from a skewgt checkout",
              file=sys.stderr)
        return 2
    try:
        record = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except ValueError as exc:
        print(f"error: no result: {exc}", file=sys.stderr)
        return 1
    out = WORK / "results"
    out.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (out / f"{name}.json").write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    if args.trace:
        (out / f"{name}-layers.txt").write_text(record["trace_table"] + "\n")
    print(report(record))
    print(result_line(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
