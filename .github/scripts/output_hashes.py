"""Run a fixed list of `fsgreens` commands and print the sha256 of every output.

    python3 .github/scripts/output_hashes.py > hashes.txt

Each command runs as `python -m fsgreens.cli` in a fresh temporary
directory, so it exercises whichever `fsgreens` the interpreter imports:
the installed package, or a checkout's `src/` on an absolute PYTHONPATH.
Every file a command writes, a `vms-iter` history included, gets one
line `sha256  command [history]`, in the order of the list.  Two
checkouts whose lines are the same wrote the same bytes; `diff` of two
runs names the outputs that moved.  The list is every subcommand in CSV
(21 commands) and the JSON runs of CI's install step.  The capped
`vms-iter` run exits 1 on purpose; any other failure stops the script
with status 1.  Uses only the standard library.
"""

import hashlib
import subprocess
import sys
import tempfile
from pathlib import Path

CSV = [
    "gll --p 3",
    "basis",
    "basis --kind edge",
    "dual --kind nodal",
    "dual --kind edge",
    "project --projection h10",
    "project --projection l2",
    "greens",
    "greens --kernel advdiff",
    "greens --kernel advdiff --c -1e-3 --nu 0.01",
    "greens --kernel poisson2d",
    "finescale --projection h10",
    "finescale --projection l2",
    "reconstruct --projection h10",
    "reconstruct --projection l2",
    "reconstruct --case advdiff-const",
    "reconstruct --case advdiff-const --projection l2",
    "poisson2d --p 3 --elements 2 --terms 100",
    "vms-iter --nu 0.05",
    "vms-iter --nu 0.03",
    "vms-iter --nu 0.05 --quad-points 4",
]

JSON = [
    "reconstruct --case advdiff-const --c -1 --nu 0.001",
    "reconstruct --projection l2 --p 4 --elements 320",
    "reconstruct --case advdiff-const --projection h10 --c 1e-8 --nu 1",
    "reconstruct --case advdiff-const --projection l2 --c 1e-8 --nu 1",
    "reconstruct --projection h10 --p 4 --elements 64",
    "reconstruct --projection l2 --p 4 --elements 64",
    "poisson2d --p 3 --elements 4 --terms 400",
    "poisson2d --p 3 --elements 4 --terms 1000",
    "poisson2d --p 4 --elements 48 --terms 400",
    "greens --kernel advdiff --c -1 --nu 1e-4",
    "greens --kernel advdiff --c 1e-310 --nu 1",
    "greens --kernel poisson2d --terms 1000",
    "vms-iter --nu 0.05",
    "vms-iter --nu 0.03",
    "vms-iter --nu 0.05 --quad-points 4",
    "vms-iter --nu 0.05 --max-iter 37",
    "vms-iter --nu 0.01",
    "vms-iter --elements 10 --p 3 --nu 0.01",
]

COMMANDS = CSV + [f"{c} --format json" for c in JSON]

# the capped run ends unconverged, which the CLI reports with exit status 1
EXPECTED_STATUS = {"vms-iter --nu 0.05 --max-iter 37 --format json": 1}


def run(command: str) -> list[tuple[str, str]]:
    """The (sha256, label) of every file `fsgreens command` writes."""
    with tempfile.TemporaryDirectory() as tmp:
        ext = ".json" if "--format json" in command else ".csv"
        out = Path(tmp) / f"out{ext}"
        proc = subprocess.run([sys.executable, "-m", "fsgreens.cli", *command.split(),
                               "--out", str(out)], cwd=tmp)
        if proc.returncode != EXPECTED_STATUS.get(command, 0):
            raise SystemExit(f"`fsgreens {command}` exited {proc.returncode}")
        outputs = [(out, command)]
        history = Path(tmp) / f"out-history{ext}"
        if history.exists():
            outputs.append((history, f"{command} [history]"))
        return [(hashlib.sha256(path.read_bytes()).hexdigest(), label)
                for path, label in outputs]


def main() -> int:
    for command in COMMANDS:
        for digest, label in run(command):
            print(f"{digest}  {label}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
