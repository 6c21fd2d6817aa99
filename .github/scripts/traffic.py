"""Print every statement of `src/fsgreens` that no CLI command and no benchmark solve reaches.

    python3 .github/scripts/traffic.py                  # every command, every workload
    python3 .github/scripts/traffic.py --no-bench       # the commands alone
    python3 .github/scripts/traffic.py "gll --p 3"      # these commands, every workload

The commands are `output_hashes.py`'s list, each run in process through
`fsgreens.cli.main` with its output in a temporary directory.  The
benchmark's solves are those an untraced `bench/run.py` run makes, each
workload once at seed 1: its set-up operators, its warm-up and its
inputs, through `bench/workloads.py`, read-only, writing into the same
temporary directory.  The standard library's `trace` counts the lines,
and its own list of executable lines (the lines `trace --missing` marks)
names the statements.  Each unreached one prints as `module.py:line:
source`, the raise statements apart, after the other statements.  A
function that only the tests call shows here; with `--no-bench`, so does
one that only the benchmark calls.  Imports this checkout's `src/`; uses
only the standard library, and numpy through the code it runs.
"""

import argparse
import contextlib
import io
import os
import sys
import tempfile
import trace
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
SOURCE = ROOT / "src" / "fsgreens"


def run_commands(commands, tmp: str) -> None:
    """Each command through `fsgreens.cli.main`, its output in tmp."""
    from fsgreens import cli

    for command in commands:
        ext = ".json" if "--format json" in command else ".csv"
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            try:
                cli.main([*command.split(), "--out", os.path.join(tmp, f"out{ext}")])
            except SystemExit:  # a usage error; its statements are reached all the same
                pass


def run_workloads(tmp: str) -> None:
    """Every workload's set-up operators, warm-up and seed-1 inputs, untraced
    by the benchmark's own span recorder."""
    sys.path.insert(0, str(ROOT / "bench"))
    import numpy as np
    import workloads
    from tracing import Tracer

    off, out = Tracer(False), os.path.join(tmp, "bench.csv")
    for workload in workloads.WORKLOADS.values():
        specs = workload.inputs(np.random.default_rng([1, workload.index]))
        ops = workload.operators(off) if workload.operators else None
        for spec in (*workload.warmup, *specs):
            workloads.run_solve(spec, off, out, ops)


def unreached(counts) -> tuple[list[str], list[str]]:
    """The unreached statements of every module, as `file:line: source`
    lines: the raise statements, and the others."""
    raises, others = [], []
    for path in sorted(SOURCE.glob("*.py")):
        lines = path.read_text().splitlines()
        for number in sorted(trace._find_executable_linenos(str(path))):
            # line 0 is a code object's, no statement's
            if number and (str(path), number) not in counts:
                text = lines[number - 1].strip()
                entry = f"{path.name}:{number}: {text}"
                (raises if text.startswith("raise ") else others).append(entry)
    return raises, others


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("commands", nargs="*",
                        help="fsgreens commands, each one quoted string (default: "
                             "output_hashes.py's list)")
    parser.add_argument("--no-bench", action="store_true", help="run no benchmark workload")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from output_hashes import COMMANDS

    commands = args.commands or COMMANDS
    sys.path.insert(0, str(ROOT / "src"))
    # no line of fsgreens runs before the tracer starts, imports included; no
    # directory is ignored, as `trace` ignores a module by its base name
    # (numpy's `__init__` would hide the package's)
    tracer = trace.Trace(count=1, trace=0)
    with tempfile.TemporaryDirectory() as tmp:
        tracer.runfunc(run_commands, commands, tmp)
        if not args.no_bench:
            tracer.runfunc(run_workloads, tmp)
    raises, others = unreached(tracer.results().counts)
    runs = f"{len(commands)} commands" + ("" if args.no_bench else " and every workload")
    for title, entries in ((f"statements of src/fsgreens reached by none of {runs}", others),
                           ("raise statements reached by none of them", raises)):
        print(f"# {len(entries)} {title}")
        for entry in entries:
            print(entry)
    return 0


if __name__ == "__main__":
    sys.exit(main())
