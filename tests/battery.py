"""A fixed battery of klab commands, run in process through ``klab.cli.main``.

For each command it prints one line: the SHA-256 of the command's stdout, of
its stderr and of its ``--out`` file, its exit code and the command itself.
Two runs of the same code print the same lines, so a change that must keep
every artifact's bytes is checked by diffing this script's output before and
after it, each side run on its own ``src``:

    PYTHONPATH=src python tests/battery.py > after.txt

This is a script, not a test: pytest collects no ``test_*`` name here.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import pathlib
import shlex
import sys
import tempfile

import klab.cli

SCANS = [f"sumprod-scan --k {k} --q {q} --format {fmt} --seed 1"
         for q in (19, 53) for k in (2, 3) for fmt in ("csv", "json")]
RATIOS = [f"sumprod-scan --k {k} --q {q} --ratios --replicates 4 --seed 1"
          for q in (53, 199) for k in (2, 3)]
COMMANDS = [
    *SCANS,
    *RATIOS,
    "moments --k 3 --q 53 --seed 1",
    "moments --k 2 --q 101 --seed 4",
    "moments --k 3 --q 11 --d 2 --seed 2",
    "moments --k 2 --q 23 --d 2 --seed 5",
    "moments --k 5 --q 31 --seed 3",
    "report --q 53 --seed 1",
    "report --q 101 --k 3 --seed 7",
    "sumprod-scan --k 3 --q 199 --samples 300 --seed 2 --format csv",
    "progression --x 50000 --q 101 --format csv",
    "sk --k 5 --q 7",
    "sk --scan-smallest --k 6 --q-limit 60",
    "bilinear-sweep --k 2 --q 2003 --M 40 45 --N 45 --seed 1",
    "sk --k 4 --q 13",
    "moments --k 2 --q 5 --seed 1",
    "moments --k 4 --q 13 --seed 2",
    "report --q 13 --k 4 --seed 3",
    "progression --x 20000 --q 999983",
    "kl-check --k 3 --q 5 --d 2",
    "sk --scan-smallest --k 20 --q-limit 40",
    # fields of degree 3 to 6, whose moduli and generators reach these bytes
    # (the two sk hosts are F_{3^5} and F_{3^6})
    "kl-table --k 2 --q 3 --d 6",
    "kl-table --k 3 --q 5 --d 4",
    "kl-table --k 2 --q 7 --d 3",
    "kl-table --k 2 --q 101 --d 3",
    "sk --k 11 --q 3",
    "sk --k 7 --q 3",
    "kl-check --k 2 --q 3 --d 6",
]


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run(command: str, out: pathlib.Path) -> str:
    """The battery line of one command, its artifact written to ``out``."""
    out.unlink(missing_ok=True)
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = klab.cli.main([*shlex.split(command), "--out", str(out)])
    artifact = out.read_bytes() if out.exists() else b""
    return " ".join([sha(stdout.getvalue().encode()), sha(stderr.getvalue().encode()),
                     sha(artifact), f"exit={code}", command])


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        for command in COMMANDS:
            print(run(command, pathlib.Path(tmp) / "artifact"), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
