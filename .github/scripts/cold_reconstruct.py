"""Run one cold `fsgreens reconstruct` in a child process and check it.

    python3 .github/scripts/cold_reconstruct.py l2 --p 4 --elements 640

The first argument is the projection flavor, the rest go to the command.
Prints the child's wall time, peak resident memory and the max
|u_total - u_exact| of its output, and exits 1 when that error exceeds
1e-14 or the peak exceeds 300 MB, the child's own failure included.
"""

import json
import resource
import subprocess
import sys
import tempfile
import time
from pathlib import Path

MAX_ERROR = 1e-14
MAX_RSS_MB = 300.0


def main(argv):
    flavor, extra = argv[0], argv[1:]
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
    return 0 if error <= MAX_ERROR and peak_mb <= MAX_RSS_MB else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
