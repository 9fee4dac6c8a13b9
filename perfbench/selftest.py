"""Quick self-test of the benchmark harness (about 30 seconds).

    python3 perfbench/selftest.py

Runs one small job per workload, untraced and traced, and checks that
the metric names and units match BENCHMARK.json, that the result line
has the agreed shape, that a job without a reference output counts as
failed, and that the benchmark refuses to run without the sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import run


def expect(ok: bool, what) -> None:
    if not ok:
        raise SystemExit(f"selftest failed: {what}")


def check_line(line: str, names: dict) -> dict:
    out = json.loads(line)
    expect(set(out) == {"correct", "attempted", "failed", "metrics"}, out.keys())
    expect(isinstance(out["attempted"], int) and out["attempted"] >= 1, out)
    expect(isinstance(out["failed"], int), out)
    expect(set(out["metrics"]) == set(names), set(out["metrics"]) ^ set(names))
    for name, m in out["metrics"].items():
        expect(set(m) == {"value", "unit"} and m["unit"] == names[name], (name, m))
        expect(isinstance(m["value"], (int, float)), (name, m))
    return out


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in spec["per_layer"]}
    expect(e2e == run.END_TO_END_UNITS, e2e)
    expect(layers == run.per_layer_units(), set(layers) ^ set(run.per_layer_units()))
    expect([w["name"] for w in spec["workloads"]] == sorted(run.NOMINAL_PASS_S),
           spec["workloads"])

    ref = run.load_reference()
    special = next(cell for cell in ref["witness_cells"] if cell["c"] == 0)
    small = {
        "catalogue": ["compute", "--expr", "c32"],
        "modules": ["gt", "--top", "2,1,0", "--signs", "all-minus", "--check"],
        "witnesses": run.witness_job(special["f"][0], 0),
    }
    for workload, job in small.items():
        expect(run.job_key(job) in ref["jobs"], job)
        plan = [[job]] * run.MIN_SAMPLES
        rec = run.run(workload, 0, 1, False, plan)
        out = check_line(run.result_line(rec), e2e)
        expect(out["correct"] and out["failed"] == 0, out)
        expect(rec["counts"]["setup_samples"] >= run.SETUP_SAMPLES, rec["counts"])
        out = check_line(run.result_line(run.run(workload, 0, 1, True, [[job]])), layers)
        expect(out["correct"], out)
        print(f"ok  {workload}")

    job, other = ["a"], ["b"]
    passes = [run.Sample(0, job, True, engine_s=1.0, probe_s=1e-3),
              run.Sample(0, other, True, engine_s=2.0, probe_s=1e-3),
              run.Sample(1, job, True, engine_s=1.0, probe_s=1e-3),
              run.Sample(1, other, False, "timed out", engine_s=15.0),
              run.Sample(2, job, True, engine_s=1.0, probe_s=1e-3),
              run.Sample(2, other, False, "run time cap reached")]
    expect(run.pass_walls(passes) == [3.0], run.pass_walls(passes))
    expect(round(run.wall_probes(passes)) == 3000, run.wall_probes(passes))
    print("ok  only passes whose jobs all ran to the end count")

    unknown = ["compute", "--expr", "c22"]
    expect(run.job_key(unknown) not in ref["jobs"], unknown)
    rec = run.run("catalogue", 0, 1, False, [[small["catalogue"], unknown]] * 6)
    out = check_line(run.result_line(rec), e2e)
    expect(not out["correct"] and (out["failed"], out["attempted"]) == (6, 12), out)
    print("ok  a job without a reference output counts as failed")

    bare = run.WORK / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        shutil.copytree(run.HERE, bare / run.HERE.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run([sys.executable, f"{run.HERE.name}/run.py", "--workload",
                               "witnesses", "--seed", "1", "--seconds", "1"],
                              cwd=bare, capture_output=True, text=True, timeout=60)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    expect(proc.returncode != 0 and not proc.stdout.strip(), (proc.returncode, proc.stdout))
    print("ok  refuses to run without the sources")
    return 0


if __name__ == "__main__":
    sys.exit(main())
