"""Experiment driver: every headline result as a reproducible data file.

Each subcommand runs one pipeline deterministically and writes CSV
(default) or JSON.  Files are written atomically (temp file plus rename)
and identical flags produce byte-identical output.  The mass, stiffness
and Gram matrices are piecewise polynomial and always integrated by the
exact Gauss rule of their degree.  `--quad-points` (or the FSG_QUAD_POINTS
environment variable) sizes only the integrals against a source: Gauss
points per subinterval, default max(20, p + 8).  The commands that
integrate a source exit 1 when given fewer than p points.

Exit codes: 0 success, 1 numerical defect (failed factorization or
required convergence not reached), 2 usage errors.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile

import numpy as np

from . import __version__
from .basis1d import Mesh1D, SpaceKind, basis_family, field_eval, tabulate_edge, tabulate_nodal
from .cases import advdiff_const_case, boundary_layer_breakpoints, sin2pix_case, sin2pixy_case
from .dualspace import build_duals, tabulate_duals
from .finescale import (
    build_fine_scale_operator,
    fine_scale_eval,
    reconstruct_fine_scales,
    residual_from_field,
)
from .kernels import GreensKernel1D, advdiff_green, poisson2d_green, poisson_green
from .poisson2d import (
    Mesh2D,
    build_dual_functionals_2d,
    build_series_operator_2d,
    project_2d,
    reconstruct_fine_scales_2d,
    residual_2d,
)
from .projection import (
    DualFunctionals,
    ProjectionFlavor,
    build_dual_functionals,
    h10_project_from_source,
    project,
)
from .quadrature import default_quad_points, gll_rule
from .vms_advdiff import (AdvDiffProblem, galerkin_solve, iterate, make_workspace,
                          reconstruct_with_exact_gradient, sweep_spectral_radius)


def _write_atomic(path: str, text: str):
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".fsgreens-")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_table(path: str, columns, rows, meta: dict, fmt: str):
    """Serialize a column-labelled table as CSV or JSON, atomically, with
    17 significant digits (every double round-trips) in CSV.  The CSV body
    is one `%` operation over the flattened table."""
    table = np.asarray(rows, dtype=float)
    if fmt == "csv":
        lines = [",".join(columns)]
        if len(table):
            row_fmt = ",".join(["%.17g"] * len(columns))
            lines.append("\n".join([row_fmt] * len(table)) % tuple(table.ravel().tolist()))
        _write_atomic(path, "\n".join(lines) + "\n")
    else:
        payload = {
            "meta": dict(meta, version=__version__),
            "columns": list(columns),
            "rows": table.tolist(),
        }
        _write_atomic(path, json.dumps(payload, indent=1, sort_keys=True) + "\n")


def _flavor(name: str) -> ProjectionFlavor:
    return ProjectionFlavor.H10 if name == "h10" else ProjectionFlavor.L2


def _build(args) -> DualFunctionals:
    mesh = Mesh1D.uniform(0.0, 1.0, args.elements, args.p)
    return build_dual_functionals(basis_family(mesh), _flavor(args.projection))


# commands that integrate no source: --quad-points changes nothing they
# write, so it stays out of their metadata too
_SOURCE_FREE = ("dual", "finescale")


def _meta(args, **extra) -> dict:
    skip = ("func", "format", "out") + (("quad_points",) if args.command in _SOURCE_FREE else ())
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


def cmd_basis(args):
    mesh = Mesh1D.uniform(args.a, args.b, args.elements, args.p)
    family = basis_family(mesh)
    x = np.linspace(args.a, args.b, args.grid)
    with np.errstate(over="ignore", invalid="ignore"):
        tab = _finite((tabulate_nodal if args.kind == "nodal" else tabulate_edge)(family, x), args)
    columns = ["x"] + [f"{args.kind}_{i}" for i in range(tab.shape[1])]
    rows = np.column_stack([x, tab])
    write_table(args.out, columns, rows, _meta(args), args.format)


def cmd_dual(args):
    mesh = Mesh1D.uniform(args.a, args.b, args.elements, args.p)
    family = basis_family(mesh)
    kind = SpaceKind.DUAL_NODAL if args.kind == "nodal" else SpaceKind.DUAL_EDGE
    duals = build_duals(family, kind)
    x = np.linspace(args.a, args.b, args.grid)
    with np.errstate(over="ignore", invalid="ignore"):
        tab = _finite(tabulate_duals(duals, x), args)
    columns = ["x"] + [f"dual_{args.kind}_{i}" for i in range(tab.shape[1])]
    rows = np.column_stack([x, tab])
    write_table(args.out, columns, rows, _meta(args), args.format)


def cmd_project(args):
    fns, quad = _build(args), args.quad_points
    case = sin2pix_case()
    if fns.flavor is ProjectionFlavor.H10:
        fld = project(fns, case.solution, case.gradient, quad)
    else:
        fld = project(fns, case.solution, quad_points=quad)
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
    kernel = GreensKernel1D.poisson()
    op = build_fine_scale_operator(kernel, fns, quad)
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
        if fns.flavor is ProjectionFlavor.H10:
            u_bar = project(fns, case.solution, case.gradient, quad, breakpoints=layer)
        else:
            u_bar = project(fns, case.solution, quad_points=quad, breakpoints=layer)
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
    ws = make_workspace(problem, fns, op)
    state = iterate(problem, fns, op, relaxation=args.w, tolerance=args.eps,
                    max_iter=args.max_iter, fine_grid_points=args.fine_grid, workspace=ws)
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
                            sweep_spectral_radius=sweep_spectral_radius(
                                problem, fns, op, args.w, workspace=ws)),
                args.format)
    history_rows = [[i + 1, inc] for i, inc in enumerate(state.residual_history)]
    write_table(args.history_out, ["iteration", "increment"], history_rows,
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


def _positive_int(text: str) -> int:
    value = int(text)
    if value <= 0:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text}")
    return value


def _positive_float(text: str) -> float:
    value = float(text)
    if not (np.isfinite(value) and value > 0.0):
        raise argparse.ArgumentTypeError(f"expected a finite positive number, got {text}")
    return value


def _unit_float(text: str) -> float:
    value = float(text)
    if not 0.0 <= value <= 1.0:
        raise argparse.ArgumentTypeError(f"expected a number in [0, 1], got {text}")
    return value


def _nonzero_float(text: str) -> float:
    value = float(text)
    if not (np.isfinite(value) and value != 0.0):
        raise argparse.ArgumentTypeError(f"expected a finite nonzero number, got {text}")
    return value


def _relaxation(text: str) -> float:
    value = float(text)
    if not 0.0 < value <= 1.0:
        raise argparse.ArgumentTypeError(f"expected a number in (0, 1], got {text}")
    return value


def _add_common(sub, grid_default=401):
    sub.add_argument("--out", default=None, help="output path (default: derived)")
    sub.add_argument("--format", choices=("csv", "json"), default="csv")
    sub.add_argument("--grid", type=_positive_int, default=grid_default,
                     help="output sample count")
    sub.add_argument("--quad-points", type=_positive_int, default=None,
                     help="quadrature points per subinterval of source integrals, "
                          "at least p (default max(20, p + 8), or FSG_QUAD_POINTS)")


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
    _add_common(sub)
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
    sub.set_defaults(func=cmd_project)

    sub = subs.add_parser("greens", help="sample an analytic kernel")
    sub.add_argument("--kernel", choices=("poisson", "advdiff", "poisson2d"),
                     default="poisson")
    sub.add_argument("--c", type=_nonzero_float, default=1.0)
    sub.add_argument("--nu", type=_positive_float, default=0.01)
    sub.add_argument("--s1", type=_unit_float, default=0.5)
    sub.add_argument("--s2", type=_unit_float, default=0.5)
    sub.add_argument("--terms", type=_positive_int, default=100)
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
    sub.set_defaults(func=cmd_reconstruct)

    sub = subs.add_parser("vms-iter", help="iterative coupled coarse/fine solve")
    _add_mesh(sub, p_default=2, n_default=3)
    sub.add_argument("--c", type=_nonzero_float, default=1.0)
    sub.add_argument("--nu", type=_positive_float, default=0.01)
    sub.add_argument("--w", type=_relaxation, default=None,
                     help="relaxation factor (default: min(1, nu/|c|))")
    sub.add_argument("--eps", type=_positive_float, default=1e-8,
                     help="stop when the L2 norm of the unrelaxed coarse step drops below this")
    sub.add_argument("--max-iter", type=_positive_int, default=100_000)
    sub.add_argument("--fine-grid", type=_positive_int, default=2001,
                     help="points of the output grid the fine scales are written on")
    sub.add_argument("--history-out", default=None)
    _add_common(sub)
    sub.set_defaults(func=cmd_vms_iter)

    sub = subs.add_parser("poisson2d", help="2D projection and fine-scale reconstruction")
    _add_mesh(sub, p_default=1, n_default=2)
    sub.add_argument("--terms", type=_positive_int, default=100)
    _add_common(sub, grid_default=41)
    sub.set_defaults(func=cmd_poisson2d)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.quad_points is None:
        env = os.environ.get("FSG_QUAD_POINTS")
        try:
            args.quad_points = _positive_int(env) if env else \
                default_quad_points(getattr(args, "p", 0))
        except (argparse.ArgumentTypeError, ValueError) as exc:
            parser.error(f"FSG_QUAD_POINTS: {exc}")
    h10 = args.command in ("vms-iter", "poisson2d") or getattr(args, "projection", None) == "h10"
    if h10 and args.p * args.elements < 2:
        parser.error("the H10 space needs an interior node: p * elements >= 2")
    if args.command in ("basis", "dual") and not -np.inf < args.a < args.b < np.inf:
        parser.error(f"the interval needs finite --a < --b, got [{args.a}, {args.b}]")
    if args.command == "poisson2d" and args.terms < args.p * args.elements - 1:
        parser.error("the 2D Gram needs a series term per interior node: "
                     "terms >= p * elements - 1")
    if args.out is None:
        args.out = f"fsgreens-{args.command}.{args.format}"
    if args.command == "vms-iter" and args.history_out is None:
        stem, ext = os.path.splitext(args.out)
        args.history_out = f"{stem}-history{ext}"
    try:
        status = args.func(args)
    except (ValueError, np.linalg.LinAlgError) as exc:
        print(f"fsgreens: {exc}", file=sys.stderr)
        return 1
    return int(status or 0)


if __name__ == "__main__":
    sys.exit(main())
