import inspect
import re
import subprocess
import sys
from pathlib import Path

from fsgreens import finescale, poisson2d, quadrature

SCRIPT = Path(__file__).resolve().parents[1] / ".github" / "scripts" / "traffic.py"


def _unreached(*args):
    """The script's two sections as sets of (file, line), checked for form:
    each entry is a statement's source line, each header counts its entries."""
    out = subprocess.run([sys.executable, str(SCRIPT), *args], capture_output=True, text=True,
                         check=True).stdout.splitlines()
    heads = [i for i, line in enumerate(out) if line.startswith("# ")]
    assert len(heads) == 2 and heads[0] == 0
    found = set()
    for start, stop, kind in ((0, heads[1], "other"), (heads[1], len(out), "raise")):
        entries = out[start + 1:stop]
        assert int(out[start].split()[1]) == len(entries)
        for entry in entries:
            name, number, text = re.fullmatch(r"(\w+\.py):(\d+): (.*)", entry).groups()
            source = (Path(finescale.__file__).parent / name).read_text().splitlines()
            assert source[int(number) - 1].strip() == text
            assert text.startswith("raise ") == (kind == "raise")
            found.add((name, int(number)))
    return found


def _body(fn):
    """(file, line) of the statement that ends a function."""
    lines, start = inspect.getsourcelines(fn)
    return Path(inspect.getsourcefile(fn)).name, start + len(lines) - 1


def test_traffic_lists_the_statements_no_run_reaches():
    # `gll` alone reaches the GLL rule and no fine-scale operator; the
    # benchmark's L2 reconstructions reach the L2 pairing
    alone = _unreached("--no-bench", "gll --p 3")
    assert _body(quadrature.gll_rule) not in alone
    assert _body(finescale._green_and_pairing) in alone
    assert _body(finescale._green_and_pairing) not in _unreached("gll --p 3")


def test_each_route_of_the_surfaces_and_the_2d_projection_is_reached():
    # the two kernel surfaces and the 2D reconstruction reach every
    # statement of `fine_scale_eval`, `project_2d` and `Field2D.eval_grid`
    # but a raise: no branch of them is left that only the tests take
    found = _unreached("--no-bench", "finescale --projection h10", "finescale --projection l2",
                       "poisson2d --p 3 --elements 2 --terms 100")
    for fn in (finescale.fine_scale_eval, poisson2d.project_2d, poisson2d.Field2D.eval_grid):
        lines, start = inspect.getsourcelines(fn)
        name = Path(inspect.getsourcefile(fn)).name
        left = [(name, start + i) for i, line in enumerate(lines)
                if (name, start + i) in found and not line.strip().startswith("raise ")]
        assert not left, left
