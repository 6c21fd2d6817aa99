"""Check a `fsgreens finescale --projection h10` CSV against the exact kernel.

    fsgreens finescale --projection h10 --p 12 --elements 3 --out /tmp/fs-h10-12.csv
    python3 .github/scripts/h10_surface_exact.py /tmp/fs-h10-12.csv 3 12

The mesh is the command's uniform one, its boundaries laid as
`numpy.linspace` lays them: i (1 / N) and 1.  Where x and s lie inside
one element [a, b], every g_prime written must lie within 2 eps (b - a)
of `tests/exact_h10.fine_kernel`, the element's Dirichlet kernel less its
projection onto the Lobatto bubbles in exact rational arithmetic; where
they lie in different elements or either on a mesh node it must be
exactly 0.  Exits 0 when every row holds, 1 otherwise, printing the
largest error in eps (b - a).  Uses only the standard library.
"""

import bisect
import csv
import sys
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "tests"))
from exact_h10 import fine_kernel  # noqa: E402

EPS = sys.float_info.epsilon


def main(path: str, num_elements: int, degree: int) -> int:
    bounds = [i * (1.0 / num_elements) for i in range(num_elements)] + [1.0]
    worst, bad = 0.0, 0
    with open(path, newline="") as f:
        for row in csv.DictReader(f):
            x, s, got = float(row["x"]), float(row["s"]), float(row["g_prime"])
            ex, es = (bisect.bisect_left(bounds, t) for t in (x, s))
            if ex != es or x in bounds or s in bounds:
                if got != 0.0:
                    print(f"g_prime({x!r}, {s!r}) = {got!r} off the elements, want 0",
                          file=sys.stderr)
                    bad += 1
                continue
            a, b = bounds[ex - 1], bounds[ex]
            err = abs(Fraction(got) - fine_kernel(a, b, degree, x, s)) \
                / (Fraction(EPS) * (Fraction(b) - Fraction(a)))
            worst = max(worst, float(err))
            if err > 2:
                print(f"g_prime({x!r}, {s!r}) = {got!r} is {float(err):.3g} eps h_e off",
                      file=sys.stderr)
                bad += 1
    print(f"largest error inside an element: {worst:.3g} eps h_e")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], int(sys.argv[2]), int(sys.argv[3])))
