"""Every job the benchmark runs prints exactly its recorded output.

perfbench/reference.json holds, for each CLI job any benchmark seed can
draw, the sha256 of its stdout and of any --json file it writes.  The
benchmark counts a differing job as failed; this test replays every
job in-process through `cli.main`, with a temporary file in place of
the `{json}` slot, so output drift fails the test suite first.  It only
reads perfbench/."""

import contextlib
import hashlib
import io
import json
from pathlib import Path

from skewgt import cli

REFERENCE = Path(__file__).resolve().parents[1] / "perfbench" / "reference.json"
JSON_SLOT = "{json}"


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def test_every_reference_job_replays_byte_identically(tmp_path):
    jobs = json.loads(REFERENCE.read_text())["jobs"]
    assert jobs
    out_path = tmp_path / "out.json"
    drift = []
    for key, expected in jobs.items():
        argv = [str(out_path) if a == JSON_SLOT else a for a in json.loads(key)]
        out_path.unlink(missing_ok=True)
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = cli.main(argv)
        if code != 0:
            drift.append((key, f"exit code {code}"))
        elif sha256(stdout.getvalue().encode()) != expected["stdout_sha256"]:
            drift.append((key, "stdout"))
        elif "json_sha256" in expected \
                and sha256(out_path.read_bytes()) != expected["json_sha256"]:
            drift.append((key, "--json file"))
    assert drift == [], f"{len(drift)} of {len(jobs)} jobs differ"
