"""Check a `fsgreens gll` CSV against a 50-digit reference rule.

    fsgreens gll --p 16 --out /tmp/gll-16.csv
    python3 .github/scripts/gll_reference.py /tmp/gll-16.csv 16

The reference takes Newton steps on (1 - x^2) P_p' = p (P_{p-1} - x P_p),
whose derivative is -p (p + 1) P_p, in the standard library's `decimal`
at 50 digits, from the Chebyshev-Gauss-Lobatto points; its weights are
2 / (p (p + 1) P_p(x)^2).  Exits 0 when every node written is the
reference node rounded to the nearest double and every weight lies within
an ulp of the reference weight, 1 otherwise.  Uses only the standard
library.
"""

import csv
import math
import sys
from decimal import Decimal, localcontext


def legendre(p: int, x: Decimal):
    """(P_{p-1}(x), P_p(x)) by the three-term recurrence."""
    prev, val = Decimal(1), x
    for k in range(1, p):
        prev, val = val, ((2 * k + 1) * x * val - k * prev) / (k + 1)
    return prev, val


def reference(p: int):
    """The GLL nodes and weights of degree p, as 50-digit decimals."""
    with localcontext() as ctx:
        ctx.prec = 50
        nodes = []
        for k in range(1, p):
            x = Decimal(-math.cos(math.pi * k / p))
            for _ in range(100):
                prev, val = legendre(p, x)
                step = (x * val - prev) / ((p + 1) * val)
                x -= step
                if abs(step) < Decimal("1e-45"):
                    break
            else:
                sys.exit(f"gll_reference: Newton did not converge at p = {p}")
            nodes.append(x)
        # the exact set is antisymmetric, and for even p holds 0 itself
        nodes = [Decimal(-1)] + [(a - b) / 2 for a, b in zip(nodes, nodes[::-1])] + [Decimal(1)]
        if any(b <= a for a, b in zip(nodes, nodes[1:])):
            sys.exit(f"gll_reference: the Newton iterates at p = {p} are not distinct roots")
        weights = [Decimal(2) / (p * (p + 1) * legendre(p, x)[1] ** 2) for x in nodes]
        return nodes, weights


def main(path: str, p: int) -> int:
    with open(path, newline="") as f:
        rows = list(csv.DictReader(f))
    nodes, weights = reference(p)
    if len(rows) != len(nodes):
        print(f"{path}: {len(rows)} rows, want {len(nodes)}", file=sys.stderr)
        return 1
    bad = 0
    for row, x, w in zip(rows, nodes, weights):
        node, weight = float(row["node"]), float(row["weight"])
        if node != float(x) or abs(weight - float(w)) > math.ulp(float(w)):
            print(f"row {row['i']}: node {node!r} weight {weight!r}, "
                  f"want {float(x)!r} and {float(w)!r} within an ulp", file=sys.stderr)
            bad += 1
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], int(sys.argv[2])))
