"""Run one skewgt CLI job in this fresh interpreter and report its cost.

    python3 perfbench/child.py REPORT SRC JOB_ID TRACE -- ARGV...

Times the import of skewgt up to a ready ``cli.main`` (set-up) and the
call ``cli.main(ARGV)`` (engine time), with the program's stdout going
to this process's stdout, and measures the machine's speed around the
import and around and during the call with `SpeedProbe`.  With TRACE=1
the layer tracer is installed before the call.  With no ARGV the child
only sets up.  REPORT receives one JSON object: setup_s, setup_probe_s,
maxrss_kb and, when a job ran, engine_s, rc, probe_s, probes and, when
traced, the span summary.  The exit code is the program's.
"""

import json
import resource
import signal
import statistics
import sys
import time


class SpeedProbe:
    """Times a fixed integer loop of about 0.3 ms: ten times before and
    ten times after the import, on a 0.1 s timer signal while the job
    runs, and ten times after it.  The machine's speed drifts by tens of
    percent within seconds; the median probe time around the import and
    over the job measures the speed each ran at.  The probe allocates no
    container, so it cannot trigger the collector."""

    INTERVAL_S = 0.1

    def __init__(self):
        self.times = []

    def probe(self, *_):
        t0 = time.perf_counter()
        x = 1
        for i in range(1500):
            x = (x * 48271 + i) % 2147483647
        self.times.append(time.perf_counter() - t0)

    def burst(self):
        for _ in range(10):
            self.probe()


def main() -> int:
    report, src, job_id, trace, sep, *argv = sys.argv[1:]
    if sep != "--":
        raise SystemExit("usage: child.py REPORT SRC JOB_ID TRACE -- ARGV...")
    sys.path.insert(0, src)
    speed = SpeedProbe()
    speed.burst()
    t0 = time.perf_counter()
    from skewgt import cli
    t1 = time.perf_counter()
    speed.burst()
    out = {"setup_s": t1 - t0, "setup_probe_s": statistics.median(speed.times)}
    if not argv:
        out["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        with open(report, "w") as fh:
            json.dump(out, fh)
        return 0
    del speed.times[:10]
    tracer = None
    if trace == "1":
        import tracer as tracing
        tracer = tracing.install(int(job_id))
    signal.signal(signal.SIGALRM, speed.probe)
    signal.setitimer(signal.ITIMER_REAL, speed.INTERVAL_S, speed.INTERVAL_S)
    e0 = time.perf_counter()
    rc = cli.main(argv)
    sys.stdout.flush()
    e1 = time.perf_counter()
    signal.setitimer(signal.ITIMER_REAL, 0)
    speed.burst()
    out.update(engine_s=e1 - e0, rc=rc, probe_s=statistics.median(speed.times),
               probes=len(speed.times),
               maxrss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    if tracer is not None:
        out["trace"] = tracer.summary()
    with open(report, "w") as fh:
        json.dump(out, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
