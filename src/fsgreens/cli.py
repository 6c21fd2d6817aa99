"""Experiment driver: every headline result as a reproducible data file.

Each subcommand runs one pipeline deterministically and writes CSV
(default) or JSON.  Files are written atomically (temp file plus rename)
and identical flags produce byte-identical output.  A CSV field is
exactly Python's `'%.17g' % value` (17 significant digits, so every double
round-trips), on every platform; the writer computes most fields with
numpy and passes the rest to `%` itself.  The mass, stiffness
and Gram matrices are piecewise polynomial and always integrated by the
exact Gauss rule of their degree.  Only the commands that integrate a
source (project, reconstruct, vms-iter, poisson2d) take `--quad-points`:
Gauss points per subinterval, at least p (fewer exit 1), default
max(20, p + 8).  gll and vms-iter take no `--grid`.  A negative number
may follow its option in any form, `--c -1e-3` as `--c=-1e-3`.  The JSON
`meta` records every parsed option but the output format and paths.

Exit codes: 0 success, 1 numerical defect (failed factorization or
required convergence not reached), 2 usage errors, an output path that
cannot be written among them.  Output files get 0o666 less the umask.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import os
import re
import sys

import numpy as np

from . import __version__
from .basis1d import Mesh1D, SpaceKind, basis_family, field_eval, tabulate_edge, tabulate_nodal
from .cases import advdiff_const_case, boundary_layer_breakpoints, sin2pix_case, sin2pixy_case
from .dualspace import DualSet, tabulate_duals
from .finescale import (
    build_fine_scale_operator,
    fine_scale_eval,
    reconstruct_fine_scales,
    residual_from_field,
)
from .kernels import (DEFAULT_SERIES_TERMS, GreensKernel1D, advdiff_green, poisson2d_green,
                      poisson_green)
from .poisson2d import (
    Mesh2D,
    build_dual_functionals_2d,
    build_series_operator_2d,
    project_2d,
    reconstruct_fine_scales_2d,
    residual_2d,
)
from .projection import (
    DEFAULT_QUAD_POINTS,
    DualFunctionals,
    ProjectionFlavor,
    build_dual_functionals,
    h10_project_from_source,
    project,
    source_rule_points,
)
from .quadrature import gll_rule
from .vms_advdiff import (DEFAULT_FINE_GRID, DEFAULT_MAX_ITER, DEFAULT_TOLERANCE, AdvDiffProblem,
                          galerkin_solve, iterate, reconstruct_with_exact_gradient)


def _write_atomic(path: str, pieces):
    """Write the strings `pieces`, in order, to a temp file renamed to `path`,
    with the mode `open` gives a new file; an OSError names `path`."""
    tmp = os.path.join(os.path.dirname(os.path.abspath(path)), f".fsgreens-{os.urandom(8).hex()}")
    try:
        with os.fdopen(os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666), "w") as handle:
            handle.writelines(pieces)
        os.replace(tmp, path)
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, path) from exc
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


# The vectorised `%.17g` below scales |x| in [1e-11, 1e17) to 17 integer
# digits by one multiplication in x87 80-bit long double: 10**k is exact
# there for k <= 27 (5**27 < 2**64), so the product y is t = |x| 10**k
# rounded once, to a grid of spacing 2**-7 or finer that holds every
# half-integer.  Rounding is monotone, so y and t lie on the same side of
# each half-integer, and the integer nearest y is the correctly rounded
# digits of t unless y is itself a half-integer.  Those values, the rest
# of the range, and every value on a platform whose long double is not the
# 80-bit format go through `%` itself.
_X87_LONG_DOUBLE = np.finfo(np.longdouble).nmant == 63
_CHUNK = 2048  # values per pass: larger chunks raise the peak memory, smaller ones the overhead
_FIELD = 25  # bytes of the widest field, '-2.2250738585072014e-308', plus its separator
# One row of bytes per value: its `%` text NUL-padded in 0-23, or its digits
# in 3-19 (four 4-digit words at 4-byte-aligned columns); then the constant
# bytes "-,\n.e0123456789" and a NUL that stands for "no byte".
_DIGITS = 3
_MINUS, _COMMA, _NEWLINE, _DOT, _EXP, _ZERO = range(24, 30)
_NUL = 39
_SHAPES = 28 * 17  # (exponent in [-11, 16]) x (1-17 significant digits)


@functools.cache
def _g17_tables():
    """The digit tables of the vectorised `%.17g`, built once on first use:
    the four ASCII digits of 0-9999 as one word, their trailing zeros, the
    scales 10**(16 - E), and a row template holding the constant bytes."""
    group = np.arange(10_000, dtype=np.int16)
    chars = 48 + np.stack([group // 1000, group // 100 % 10, group // 10 % 10, group % 10], 1)
    words = chars.astype(np.uint8).view(np.uint32)[:, 0]
    trailing_zeros = ((group % 10 == 0).astype(np.uint8) + (group % 100 == 0)
                      + (group % 1000 == 0) + (group == 0))
    powers = np.zeros(30, dtype=np.longdouble)  # powers[17 - E] = 10**(16 - E); 0 off range
    powers[1:29] = np.cumprod(np.append(1, np.full(27, 10)).astype(np.longdouble))  # each exact
    template = np.zeros((_CHUNK, _NUL + 1), dtype=np.uint8)
    template[:, _MINUS:_NUL] = np.frombuffer(b"-,\n.e0123456789", dtype=np.uint8)
    return words, trailing_zeros, powers, template


@functools.cache
def _g17_layouts() -> np.ndarray:
    """The source column of each byte of a field, one row per key
    4 * shape + 2 * negative + last.  A shape is an exponent E and a count
    n of significant digits (%g prints E < -4 as d.ddde-XX and the rest
    fixed), or _SHAPES, the `%` text.  Small integer types keep the build's
    temporaries to a few kB."""
    e = np.arange(-11, 17, dtype=np.int8)[:, None, None]
    n = np.arange(1, 18, dtype=np.int8)[None, :, None]
    b = np.arange(_FIELD - 1, dtype=np.int8)[None, None, :]  # byte after the sign
    sci = e < -4
    prefix = np.where((e < 0) & ~sci, 1 - e, 0)  # the "0.00" of 0.00ddd
    ndig = np.where(e >= 0, np.maximum(n, e + 1), n)  # digits printed
    split = np.where(e >= 0, e + 1, np.where(sci, 1, ndig))  # digits before the dot
    dot = ndig > split
    d = b - prefix
    k = d - ndig - dot
    exponent = np.where(k == 0, _EXP, np.where(k == 1, _MINUS,
                        _ZERO + np.where(k == 2, -e // 10, -e % 10)))
    body = np.select(
        [b < prefix, dot & (d == split), d < ndig + dot, sci & (k < 4), k == 4 * sci],
        [np.where(b == 1, _DOT, _ZERO), _DOT, _DIGITS + d - (dot & (d > split)), exponent, -1],
        _NUL).astype(np.int8).reshape(_SHAPES, _FIELD - 1)
    sign = np.array([_NUL, _MINUS], dtype=np.int8)
    fast = np.concatenate([np.broadcast_to(sign[:, None, None], (2, _SHAPES, 1)),
                           np.broadcast_to(body, (2,) + body.shape)], axis=2)
    fallback = np.append(np.arange(_FIELD - 1, dtype=np.int8), np.int8(-1))
    layout = np.concatenate([fast, np.broadcast_to(fallback, (2, 1, _FIELD))], axis=1)
    separator = np.array([_COMMA, _NEWLINE], dtype=np.int8)[:, None, None, None]
    layout = np.where(layout == -1, separator, layout)  # (separator, sign, shape, byte)
    return np.ascontiguousarray(layout.transpose(2, 1, 0, 3)).reshape(-1, _FIELD)


def _divmod(a: np.ndarray, unit: int):
    """np.divmod of uint64 by a constant, several times faster than numpy's."""
    quotient = a // np.uint64(unit)
    return quotient, a - quotient * np.uint64(unit)


def _g17_sources(x: np.ndarray):
    """Each value's row of source bytes and its field shape: the index of its
    exponent and significant-digit count, or _SHAPES for the `%` text."""
    words, trailing_zeros, powers, template = _g17_tables()
    ax = np.abs(x)
    fast = (ax >= 1e-11) & (ax < 1e17) & _X87_LONG_DOUBLE
    ax[~fast] = 1.0
    e = np.floor(np.log10(ax)).astype(np.intp)  # off by one near 10**E: those fall back
    y = ax.astype(np.longdouble) * powers.take(17 - e)
    digits = np.rint(y)
    # y < 1e16: E was one too high (y = 1e16 from a t just below it prints alike)
    fast &= (y >= 1e16) & (np.abs(y - digits) < 0.5)
    digits = digits.astype(np.uint64)
    fast &= digits < 10**17  # a guard: an exponent one too low would give 18 digits
    slow = np.flatnonzero(~fast)
    digits[slow] = 10**16
    src = template[:len(x)].copy()
    lead, rest = _divmod(digits, 10**16)
    src[:, _DIGITS] = lead + 48
    hi, lo = _divmod(rest, 10**8)
    zeros = 0  # trailing zeros of the digits, over the 4-digit groups
    for col, group in enumerate(_divmod(hi, 10**4) + _divmod(lo, 10**4), 1):
        src.view(np.uint32)[:, col] = words.take(group)
        z = trailing_zeros.take(group)
        zeros = z + (z == 4) * zeros
    shape = (e + 11) * 17 + 16 - zeros
    shape[slow] = _SHAPES
    if len(slow):  # space-padded to 24 bytes, the spaces then made NULs
        text = ("%-24.17g" * len(slow)) % tuple(x[slow].tolist())
        src[slow, :_FIELD - 1] = np.frombuffer(text.replace(" ", "\0").encode(),
                                               dtype=np.uint8).reshape(-1, _FIELD - 1)
    return src, shape


def _g17_chunk(x: np.ndarray, last: np.ndarray) -> bytes:
    """The `%.17g` fields of at most _CHUNK values, each followed by a comma,
    or by a newline where `last` is 1: one gather places every byte, then
    the NULs are dropped."""
    src, shape = _g17_sources(x)
    columns = _g17_layouts().take(4 * shape + 2 * (x < 0) + last, axis=0)
    out = src.ravel().take(np.add(columns, np.arange(0, src.size, src.shape[1])[:, None]))
    return out[out != 0].tobytes()


def _g17_pieces(values: np.ndarray, ncols: int):
    """`'%.17g' % v` for every value, comma-separated, a newline after every
    `ncols`-th (the text of one `%` operation over the table), in pieces of
    _CHUNK fields."""
    for start in range(0, values.size, _CHUNK):
        x = values[start:start + _CHUNK]
        last = (np.arange(start, start + x.size) % ncols == ncols - 1).astype(np.intp)
        yield _g17_chunk(x, last).decode("ascii")


def _json_array(table: np.ndarray) -> str:
    """`json.dumps(table.tolist(), indent=1)` for the value of a top-level
    key, one level in: the floats by the repr of their list (NaN and the
    infinities renamed as `json` writes them), the nesting by joins from
    the innermost axis out."""
    text = repr(table.ravel().tolist())[1:-1]
    if not np.all(np.isfinite(table)):
        text = text.replace("nan", "NaN").replace("inf", "Infinity")
    items = text.split(", ") if table.size else []
    for depth in range(table.ndim, 0, -1):
        size, count = table.shape[depth - 1], int(np.prod(table.shape[:depth - 1]))
        if size == 0:
            items = ["[]"] * count
            continue
        sep, close = ",\n" + " " * (depth + 1), "\n" + " " * depth + "]"
        items = ["[" + sep[1:] + sep.join(items[i:i + size]) + close
                 for i in range(0, count * size, size)]
    return items[0]


def write_table(path: str, columns, rows, meta: dict, fmt: str):
    """Serialize a column-labelled table as CSV or JSON, atomically.  A CSV
    field is exactly `'%.17g' % value` (every double round-trips), the same
    bytes on every platform.  The JSON is `json.dumps(payload, indent=1,
    sort_keys=True)` byte for byte, the rows joined as `_json_array`.  Any
    other format raises ValueError, and nothing is written."""
    table = np.asarray(rows, dtype=float)
    if fmt == "csv":
        if table.size != len(table) * len(columns):
            raise ValueError(f"{table.size} values do not fill {len(table)} rows "
                             f"of {len(columns)} columns")
        _write_atomic(path, itertools.chain([",".join(columns) + "\n"],
                                            _g17_pieces(table.ravel(), len(columns))))
    elif fmt == "json":
        head = json.dumps({"meta": dict(meta, version=__version__), "columns": list(columns)},
                          indent=1, sort_keys=True)
        # "rows" sorts after "columns" and "meta": it closes the object
        _write_atomic(path, [head[:-2], ',\n "rows": ', _json_array(table), "\n}\n"])
    else:
        raise ValueError(f"unknown table format {fmt!r}: the formats are 'csv' and 'json'")


def _build(args) -> DualFunctionals:
    mesh = Mesh1D.uniform(0.0, 1.0, args.elements, args.p)
    return build_dual_functionals(basis_family(mesh), ProjectionFlavor(args.projection))


def _meta(args, **extra) -> dict:
    skip = ("func", "format", "out", "history_out")
    meta = {k: v for k, v in vars(args).items() if k not in skip}
    meta.update(extra)
    return meta


def cmd_gll(args):
    rule = gll_rule(args.p)
    rows = np.column_stack([np.arange(rule.npoints), rule.nodes, rule.weights])
    write_table(args.out, ["i", "node", "weight"], rows, _meta(args), args.format)


def _finite(tab: np.ndarray, args) -> np.ndarray:
    """The table, or ValueError if it overflowed on an interval too short for its basis.
    Callers tabulate under np.errstate(over="ignore", invalid="ignore"), so
    that this error is the only message."""
    if not np.all(np.isfinite(tab)):
        raise ValueError(f"the {args.kind} {args.command} table on [{args.a:g}, {args.b:g}] "
                         "is not finite: the interval is too short for its basis")
    return tab


def _sample(args, tabulate, column_prefix: str):
    """Write `tabulate(family, x)` on --grid points of [--a, --b], the
    family on the uniform mesh of --elements and --p."""
    family = basis_family(Mesh1D.uniform(args.a, args.b, args.elements, args.p))
    x = np.linspace(args.a, args.b, args.grid)
    with np.errstate(over="ignore", invalid="ignore"):
        tab = _finite(tabulate(family, x), args)
    columns = ["x"] + [f"{column_prefix}_{i}" for i in range(tab.shape[1])]
    write_table(args.out, columns, np.column_stack([x, tab]), _meta(args), args.format)


def cmd_basis(args):
    _sample(args, tabulate_nodal if args.kind == "nodal" else tabulate_edge, args.kind)


def cmd_dual(args):
    kind = SpaceKind(f"dual-{args.kind}")
    _sample(args, lambda family, x: tabulate_duals(DualSet(family, kind), x),
            f"dual_{args.kind}")


def cmd_project(args):
    case = sin2pix_case()
    fld = project(_build(args), case.solution, case.gradient, args.quad_points)
    x = np.linspace(0.0, 1.0, args.grid)
    projected = field_eval(fld, x)
    exact = case.solution(x)
    rows = np.column_stack([x, exact, projected, exact - projected])
    write_table(args.out, ["x", "exact", "projected", "error"], rows, _meta(args), args.format)


def cmd_greens(args):
    x = np.linspace(0.0, 1.0, args.grid)
    if args.kernel == "poisson2d":
        g = poisson2d_green(x[:, None], x[None, :], args.s1, args.s2, args.terms)
    elif args.kernel == "poisson":
        g = poisson_green(x[:, None], x[None, :])
    else:
        g = advdiff_green(x[:, None], x[None, :], args.c, args.nu)
    rows = np.column_stack([np.repeat(x, x.size), np.tile(x, x.size), g.ravel()])
    columns = ["x", "y", "g"] if args.kernel == "poisson2d" else ["x", "s", "g"]
    write_table(args.out, columns, rows, _meta(args), args.format)


def cmd_finescale(args):
    op = build_fine_scale_operator(GreensKernel1D.poisson(), _build(args))
    x = np.linspace(0.0, 1.0, args.grid)
    full = op.kernel(x[:, None], x[None, :])
    fine = fine_scale_eval(op, x, x)
    rows = np.column_stack([np.repeat(x, x.size), np.tile(x, x.size), full.ravel(), fine.ravel()])
    write_table(args.out, ["x", "s", "g", "g_prime"], rows,
                _meta(args, gram_cond_log10=float(np.log10(op.gram_cond))), args.format)


def cmd_reconstruct(args):
    fns, quad = _build(args), args.quad_points
    grid = np.linspace(0.0, 1.0, args.grid)
    op = build_fine_scale_operator(GreensKernel1D.poisson(), fns, quad)
    if args.case == "sin2pix":
        case = sin2pix_case()
        if fns.flavor is ProjectionFlavor.H10:
            u_bar = h10_project_from_source(fns, case.source, quad)
        else:
            u_bar = project(fns, case.solution, quad_points=quad)
        resid = residual_from_field(u_bar, case.source)
        u_prime = reconstruct_fine_scales(op, resid, grid)
    else:
        layer = boundary_layer_breakpoints(args.c, args.nu)
        case = advdiff_const_case(args.c, args.nu)
        problem = AdvDiffProblem(args.c, args.nu, case.source)
        u_bar = project(fns, case.solution, case.gradient, quad, breakpoints=layer)
        u_prime = reconstruct_with_exact_gradient(op, problem, u_bar, case.gradient,
                                                  grid, breakpoints=layer)
    u_bar_vals = field_eval(u_bar, grid)
    exact = case.solution(grid)
    rows = np.column_stack([grid, exact, u_bar_vals, u_prime, u_bar_vals + u_prime])
    write_table(args.out, ["x", "u_exact", "u_bar", "u_prime", "u_total"],
                rows, _meta(args, gram_cond_log10=float(np.log10(op.gram_cond))), args.format)


def cmd_vms_iter(args):
    layer = boundary_layer_breakpoints(args.c, args.nu)
    case = advdiff_const_case(args.c, args.nu)
    problem = AdvDiffProblem(args.c, args.nu, case.source)
    mesh = Mesh1D.uniform(0.0, 1.0, args.elements, args.p)
    family = basis_family(mesh)
    fns = build_dual_functionals(family, ProjectionFlavor.H10)
    op = build_fine_scale_operator(GreensKernel1D.poisson(), fns, args.quad_points)
    state = iterate(problem, fns, op, relaxation=args.w, tolerance=args.eps,
                    max_iter=args.max_iter, fine_grid_points=args.fine_grid)
    galerkin = galerkin_solve(problem, family, args.quad_points, breakpoints=layer)
    grid = state.u_prime_grid
    rows = np.column_stack([
        grid,
        case.solution(grid),
        field_eval(state.u_bar, grid),
        state.u_prime,
        field_eval(galerkin, grid),
    ])
    write_table(args.out, ["x", "u_exact", "u_bar", "u_prime", "galerkin"],
                rows, _meta(args, converged=state.converged, iterations=state.iteration,
                            final_step=state.residual_history[-1],
                            gram_cond_log10=float(np.log10(op.gram_cond)),
                            sweep_spectral_radius=state.sweep_spectral_radius),
                args.format)
    steps = state.residual_history
    history = np.column_stack([np.arange(1, len(steps) + 1), steps])
    write_table(args.history_out, ["iteration", "increment"], history,
                _meta(args, converged=state.converged), args.format)
    if not state.converged:
        print(f"fsgreens: iteration did not reach eps={args.eps} "
              f"within {args.max_iter} sweeps (last coarse step "
              f"{state.residual_history[-1]:.3e})", file=sys.stderr)
        return 1
    return 0


def cmd_poisson2d(args):
    case = sin2pixy_case()
    mesh = Mesh2D(Mesh1D.uniform(0.0, 1.0, args.elements, args.p))
    duals = build_dual_functionals_2d(mesh)
    u_bar = project_2d(duals, source=case.source, quad_points=args.quad_points)
    op = build_series_operator_2d(duals, args.terms, args.quad_points)
    grid = np.linspace(0.0, 1.0, args.grid)
    u_prime = reconstruct_fine_scales_2d(op, residual_2d(case.source, u_bar), grid, grid)
    u_bar_grid = u_bar.eval_grid(grid, grid)
    exact = case.solution(grid[:, None], grid[None, :])
    rows = np.column_stack([np.repeat(grid, grid.size), np.tile(grid, grid.size), exact.ravel(),
                            u_bar_grid.ravel(), u_prime.ravel(), (u_bar_grid + u_prime).ravel()])
    write_table(args.out, ["x", "y", "phi_exact", "phi_bar", "u_prime", "phi_total"],
                rows, _meta(args), args.format)


def _checked(name: str, convert, valid, expected: str):
    """An argparse type named `name`: `convert(text)`, or ArgumentTypeError
    unless `valid` holds for the value.  argparse names the type by its
    __name__ when `convert` raises ValueError on a non-number."""
    def parse(text: str):
        value = convert(text)
        if not valid(value):
            raise argparse.ArgumentTypeError(f"expected {expected}, got {text}")
        return value
    parse.__name__ = name
    return parse


_positive_int = _checked("_positive_int", int, lambda v: v > 0, "a positive integer")
_positive_float = _checked("_positive_float", float, lambda v: np.isfinite(v) and v > 0.0,
                           "a finite positive number")
_unit_float = _checked("_unit_float", float, lambda v: 0.0 <= v <= 1.0, "a number in [0, 1]")
_nonzero_float = _checked("_nonzero_float", float, lambda v: np.isfinite(v) and v != 0.0,
                          "a finite nonzero number")
_relaxation = _checked("_relaxation", float, lambda v: 0.0 < v <= 1.0, "a number in (0, 1]")


def _add_common(sub, grid_default=401):
    """--out and --format, and --grid unless `grid_default` is None."""
    sub.add_argument("--out", default=None, help="output path (default: derived)")
    sub.add_argument("--format", choices=("csv", "json"), default="csv")
    if grid_default is not None:
        sub.add_argument("--grid", type=_positive_int, default=grid_default,
                         help="output sample count")


def _add_source_rule(sub):
    """--quad-points, for the commands that integrate a source."""
    sub.add_argument("--quad-points", type=_positive_int, default=None,
                     help="quadrature points per subinterval of source integrals, "
                          f"at least p (default max({DEFAULT_QUAD_POINTS}, p + 8))")


def _add_mesh(sub, p_default=2, n_default=2):
    sub.add_argument("--p", type=_positive_int, default=p_default, help="polynomial degree")
    sub.add_argument("--elements", type=_positive_int, default=n_default)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fsgreens",
        description="dual-basis projections and fine-scale Green's function experiments",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)

    sub = subs.add_parser("gll", help="GLL nodes and weights")
    sub.add_argument("--p", type=_positive_int, required=True)
    _add_common(sub, grid_default=None)
    sub.set_defaults(func=cmd_gll)

    sub = subs.add_parser("basis", help="sample the primal nodal or edge basis")
    _add_mesh(sub, p_default=3, n_default=1)
    sub.add_argument("--kind", choices=("nodal", "edge"), default="nodal")
    sub.add_argument("--a", type=float, default=-1.0)
    sub.add_argument("--b", type=float, default=1.0)
    _add_common(sub)
    sub.set_defaults(func=cmd_basis)

    sub = subs.add_parser("dual", help="sample a dual basis")
    _add_mesh(sub, p_default=3, n_default=2)
    sub.add_argument("--kind", choices=("nodal", "edge"), default="nodal",
                     help="dual-nodal (pairs edges) or dual-edge (pairs nodes)")
    sub.add_argument("--a", type=float, default=0.0)
    sub.add_argument("--b", type=float, default=1.0)
    _add_common(sub)
    sub.set_defaults(func=cmd_dual)

    sub = subs.add_parser("project", help="project the sine benchmark")
    _add_mesh(sub, p_default=2, n_default=5)
    sub.add_argument("--projection", choices=("h10", "l2"), default="h10")
    _add_common(sub)
    _add_source_rule(sub)
    sub.set_defaults(func=cmd_project)

    sub = subs.add_parser("greens", help="sample an analytic kernel")
    sub.add_argument("--kernel", choices=("poisson", "advdiff", "poisson2d"),
                     default="poisson")
    sub.add_argument("--c", type=_nonzero_float, default=1.0)
    sub.add_argument("--nu", type=_positive_float, default=0.01)
    sub.add_argument("--s1", type=_unit_float, default=0.5)
    sub.add_argument("--s2", type=_unit_float, default=0.5)
    sub.add_argument("--terms", type=_positive_int, default=DEFAULT_SERIES_TERMS)
    _add_common(sub, grid_default=101)
    sub.set_defaults(func=cmd_greens)

    sub = subs.add_parser("finescale", help="fine-scale kernel surface")
    _add_mesh(sub)
    sub.add_argument("--projection", choices=("h10", "l2"), default="h10")
    _add_common(sub, grid_default=41)
    sub.set_defaults(func=cmd_finescale)

    sub = subs.add_parser("reconstruct", help="coarse field plus reconstructed fine scales")
    _add_mesh(sub, p_default=2, n_default=5)
    sub.add_argument("--projection", choices=("h10", "l2"), default="h10")
    sub.add_argument("--case", choices=("sin2pix", "advdiff-const"), default="sin2pix")
    sub.add_argument("--c", type=_nonzero_float, default=1.0)
    sub.add_argument("--nu", type=_positive_float, default=0.01)
    _add_common(sub)
    _add_source_rule(sub)
    sub.set_defaults(func=cmd_reconstruct)

    sub = subs.add_parser("vms-iter", help="iterative coupled coarse/fine solve")
    _add_mesh(sub, p_default=2, n_default=3)
    sub.add_argument("--c", type=_nonzero_float, default=1.0)
    sub.add_argument("--nu", type=_positive_float, default=0.01)
    sub.add_argument("--w", type=_relaxation, default=None,
                     help="relaxation factor (default: min(1, nu/|c|))")
    sub.add_argument("--eps", type=_positive_float, default=DEFAULT_TOLERANCE,
                     help="stop when the L2 norm of the unrelaxed coarse step drops below this")
    sub.add_argument("--max-iter", type=_positive_int, default=DEFAULT_MAX_ITER)
    sub.add_argument("--fine-grid", type=_positive_int, default=DEFAULT_FINE_GRID,
                     help="fine scales written on N*max(4, ceil((FINE_GRID-1)/N)) + 1 points")
    sub.add_argument("--history-out", default=None)
    _add_common(sub, grid_default=None)
    _add_source_rule(sub)
    sub.set_defaults(func=cmd_vms_iter)

    sub = subs.add_parser("poisson2d", help="2D projection and fine-scale reconstruction")
    _add_mesh(sub, p_default=1, n_default=2)
    sub.add_argument("--terms", type=_positive_int, default=DEFAULT_SERIES_TERMS)
    _add_common(sub, grid_default=41)
    _add_source_rule(sub)
    sub.set_defaults(func=cmd_poisson2d)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    # argparse reads -1e-3 and float's -inf, -infinity and -nan (any case) as options,
    # and no option here is named like one, so join such a token to its flag
    number = re.compile(r"-(\.?\d|(inf|infinity|nan)$)", re.IGNORECASE)
    for i in range(len(argv) - 1, 0, -1):
        if number.match(argv[i]) and re.fullmatch(r"--[^=]+", argv[i - 1]):
            argv[i - 1:i + 1] = [f"{argv[i - 1]}={argv[i]}"]
    args = parser.parse_args(argv)
    if "quad_points" in vars(args) and args.quad_points is None:
        args.quad_points = source_rule_points(args.p)
    h10 = args.command in ("vms-iter", "poisson2d") or getattr(args, "projection", None) == "h10"
    if h10 and args.p * args.elements < 2:
        parser.error("the H10 space needs an interior node: p * elements >= 2")
    if args.command in ("basis", "dual") and not 0.0 < args.b - args.a < np.inf:
        parser.error(f"the interval needs --a < --b with b - a finite, got [{args.a}, {args.b}]")
    if args.command == "poisson2d" and args.terms < args.p * args.elements - 1:
        parser.error("the 2D Gram needs a series term per interior node: "
                     "terms >= p * elements - 1")
    if args.out is None:
        args.out = f"fsgreens-{args.command}.{args.format}"
    if args.command == "vms-iter" and args.history_out is None:
        stem, ext = os.path.splitext(args.out)
        args.history_out = f"{stem}-history{ext}"
    for path in [args.out] + ([args.history_out] if args.command == "vms-iter" else []):
        if os.path.isdir(path) or not os.path.isdir(os.path.dirname(os.path.abspath(path))):
            parser.error(f"cannot write {path}: not a file name in an existing directory")
    try:
        status = args.func(args)
    except (ValueError, np.linalg.LinAlgError) as exc:
        print(f"fsgreens: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"fsgreens: cannot write {exc.filename}: {exc.strerror}", file=sys.stderr)
        return 2
    return int(status or 0)


if __name__ == "__main__":
    sys.exit(main())
