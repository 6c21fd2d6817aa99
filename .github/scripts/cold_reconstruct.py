"""Run one cold `fsgreens reconstruct` in a child process and check it.

    python3 .github/scripts/cold_reconstruct.py l2 --p 4 --elements 640
    python3 .github/scripts/cold_reconstruct.py --columns h10 --p 2 --elements 1000

The first argument is the projection flavor, the rest go to the command.
Prints the child's wall time, peak resident memory and the max
|u_total - u_exact| of its output, and exits 1 when that error exceeds
1e-14 or the peak exceeds 180 MB, the child's own failure included.

With `--columns` first, an H10 run also checks its `u_bar` and `u_prime`
columns on their own, as their sum hides errors that cancel: max
|u_prime| at most 1e-12, and at the grid points on mesh vertices, where
the 1D H10 projection interpolates u, |u_bar - u_exact| at most 2e-15 and
u_prime exactly 0, as each element's fine scales vanish at its ends.  A
projection through the global stiffness put cond(K) eps into both:
3.8e-12 in each at p = 2, N = 1000.
"""

import json
import resource
import subprocess
import sys
import tempfile
import time
from pathlib import Path

MAX_ERROR = 1e-14
MAX_RSS_MB = 180.0
MAX_FINE = 1e-12
MAX_AT_VERTEX = 2e-15


def main(argv):
    columns = argv[0] == "--columns"
    flavor, extra = argv[columns], argv[columns + 1:]
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "recon.json"
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-m", "fsgreens.cli", "reconstruct",
                               "--projection", flavor, *extra, "--format", "json",
                               "--out", str(out)])
        wall = time.perf_counter() - start
        # ru_maxrss is in KiB on Linux: the largest child waited for, here the only one
        peak_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
        if proc.returncode != 0:
            print(f"reconstruct {flavor} exited {proc.returncode}", file=sys.stderr)
            return 1
        data = json.loads(out.read_text())
    cols = data["columns"]
    rows = data["rows"]
    total, exact = cols.index("u_total"), cols.index("u_exact")
    error = max(abs(r[total] - r[exact]) for r in rows)
    print(f"reconstruct {flavor} {' '.join(extra)}: {wall:.2f} s, peak {peak_mb:.0f} MB, "
          f"max error {error:.2e}")
    good = error <= MAX_ERROR and peak_mb <= MAX_RSS_MB
    if columns:
        x, bar, fine = cols.index("x"), cols.index("u_bar"), cols.index("u_prime")
        num = data["meta"]["elements"]
        # the uniform mesh's vertices i / N
        at_vertex = [r for r in rows if abs(r[x] * num - round(r[x] * num)) <= 1e-9]
        max_fine = max(abs(r[fine]) for r in rows)
        bar_vertex = max(abs(r[bar] - r[exact]) for r in at_vertex)
        fine_vertex = max(abs(r[fine]) for r in at_vertex)
        print(f"  max |u_prime| {max_fine:.2e}; at {len(at_vertex)} vertices "
              f"|u_bar - u_exact| {bar_vertex:.2e}, |u_prime| {fine_vertex:.2e}")
        good = good and max_fine <= MAX_FINE and bar_vertex <= MAX_AT_VERTEX and fine_vertex == 0.0
    return 0 if good else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
