import json
import os
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fsgreens.basis1d import Mesh1D, SpaceKind, basis_family
from fsgreens.cli import build_parser, main
from fsgreens.dualspace import DualSet, tabulate_duals


def _run(tmp_path, *argv):
    cwd = os.getcwd()
    os.chdir(tmp_path)
    try:
        return main(list(argv))
    finally:
        os.chdir(cwd)


def _read_csv(path):
    with open(path) as handle:
        header = handle.readline().strip().split(",")
        rows = np.array([[float(v) for v in line.split(",")] for line in handle])
    return header, rows


def test_gll_subcommand(tmp_path):
    out = tmp_path / "gll.csv"
    assert _run(tmp_path, "gll", "--p", "3", "--out", str(out)) == 0
    header, rows = _read_csv(out)
    assert header == ["i", "node", "weight"]
    assert rows.shape == (4, 3)
    assert rows[1, 1] == pytest.approx(-1.0 / np.sqrt(5.0), abs=1e-15)


@pytest.mark.parametrize("command", ["basis", "dual"])
@pytest.mark.parametrize("kind", ["nodal", "edge"])
def test_basis_subcommand_matches_tabulation(tmp_path, command, kind):
    # basis and dual share one sampler: its columns are named after the
    # kind and hold the library's tabulation on the uniform mesh
    from fsgreens.basis1d import tabulate_edge, tabulate_nodal

    out = tmp_path / "sample.csv"
    assert _run(tmp_path, command, "--p", "3", "--elements", "2", "--kind", kind,
                "--a", "-0.5", "--b", "2", "--grid", "33", "--out", str(out)) == 0
    header, rows = _read_csv(out)
    family = basis_family(Mesh1D.uniform(-0.5, 2.0, 2, 3))
    if command == "basis":
        prefix = kind
        tab = (tabulate_nodal if kind == "nodal" else tabulate_edge)(family, rows[:, 0])
    else:
        prefix = f"dual_{kind}"
        dual_kind = SpaceKind.DUAL_NODAL if kind == "nodal" else SpaceKind.DUAL_EDGE
        tab = tabulate_duals(DualSet(family, dual_kind), rows[:, 0])
    assert header == ["x"] + [f"{prefix}_{i}" for i in range(tab.shape[1])]
    np.testing.assert_array_equal(rows[:, 0], np.linspace(-0.5, 2.0, 33))
    np.testing.assert_array_equal(rows[:, 1:], tab)


def test_finescale_subcommand_columns(tmp_path):
    out = tmp_path / "fs.csv"
    assert _run(tmp_path, "finescale", "--projection", "h10", "--p", "2",
                "--elements", "2", "--grid", "11", "--out", str(out)) == 0
    header, rows = _read_csv(out)
    assert header == ["x", "s", "g", "g_prime"]
    assert rows.shape == (121, 4)


def test_reconstruct_total_matches_exact(tmp_path):
    out = tmp_path / "rec.csv"
    assert _run(tmp_path, "reconstruct", "--projection", "l2", "--p", "2",
                "--elements", "5", "--grid", "101", "--out", str(out)) == 0
    header, rows = _read_csv(out)
    assert header == ["x", "u_exact", "u_bar", "u_prime", "u_total"]
    assert np.max(np.abs(rows[:, 4] - rows[:, 1])) < 1e-5


def test_vms_iter_writes_history_and_converges(tmp_path):
    out = tmp_path / "vms.csv"
    hist = tmp_path / "hist.csv"
    status = _run(tmp_path, "vms-iter", "--c", "1", "--nu", "0.025", "--p", "2",
                  "--elements", "3", "--max-iter", "4000",
                  "--out", str(out), "--history-out", str(hist))
    assert status == 0
    header, rows = _read_csv(out)
    assert header == ["x", "u_exact", "u_bar", "u_prime", "galerkin"]
    hheader, hrows = _read_csv(hist)
    assert hheader == ["iteration", "increment"]
    assert hrows[-1, 1] < 1e-8


def test_vms_iter_fine_grid_takes_whole_pieces_per_element(tmp_path):
    # N ceil((points - 1)/N) + 1 rows, at least 4 pieces per element: the
    # default 2,001 points give 2,002 rows at N = 3, and 5 points give 13
    for argv, rows_written in (((), 2002), (("--fine-grid", "5"), 13)):
        out = tmp_path / "vms.csv"
        assert _run(tmp_path, "vms-iter", "--nu", "0.05", *argv, "--out", str(out)) == 0
        assert _read_csv(out)[1].shape == (rows_written, 5)


def test_vms_iter_nonconvergence_exit_code(tmp_path):
    out = tmp_path / "vms.csv"
    status = _run(tmp_path, "vms-iter", "--c", "1", "--nu", "0.025", "--p", "2",
                  "--elements", "3", "--max-iter", "5", "--out", str(out))
    assert status == 1
    assert out.exists()  # data still written


@pytest.mark.parametrize("c, nu, sweeps", [("-1", "0.05", 362), ("0.5", "1", 2)])
def test_vms_iter_default_relaxation_for_either_sign_and_any_peclet(tmp_path, c, nu, sweeps):
    # the default w = min(1, nu/|c|) lies in (0, 1] for c < 0 and for nu > |c|
    out = tmp_path / "vms.json"
    assert _run(tmp_path, "vms-iter", "--c", c, "--nu", nu, "--format", "json",
                "--out", str(out)) == 0
    meta = json.loads(out.read_text())["meta"]
    assert meta["converged"] is True and meta["iterations"] == sweeps


def test_vms_iter_source_rule_is_the_operators(tmp_path):
    # --quad-points sizes the operator's source rule, which the sweep map
    # reads: 373 sweeps at 4 points against 362 at the default rule
    out = tmp_path / "vms.json"
    assert _run(tmp_path, "vms-iter", "--nu", "0.05", "--quad-points", "4", "--format", "json",
                "--out", str(out)) == 0
    data = json.loads(out.read_text())
    assert data["meta"]["converged"] is True and data["meta"]["iterations"] == 373
    from fsgreens.basis1d import field_eval
    from fsgreens.cases import advdiff_const_case
    from fsgreens.finescale import build_fine_scale_operator
    from fsgreens.kernels import GreensKernel1D
    from fsgreens.projection import ProjectionFlavor, build_dual_functionals
    from fsgreens.vms_advdiff import AdvDiffProblem, iterate

    fns = build_dual_functionals(basis_family(Mesh1D.uniform(0.0, 1.0, 3, 2)),
                                 ProjectionFlavor.H10)
    state = iterate(AdvDiffProblem(1.0, 0.05, advdiff_const_case(1.0, 0.05).source), fns,
                    build_fine_scale_operator(GreensKernel1D.poisson(), fns, 4))
    rows = np.array(data["rows"])
    assert state.iteration == 373
    np.testing.assert_array_equal(rows[:, 0], state.u_prime_grid)
    np.testing.assert_array_equal(rows[:, 2], field_eval(state.u_bar, state.u_prime_grid))
    np.testing.assert_array_equal(rows[:, 3], state.u_prime)


def test_vms_iter_rejects_an_overflowing_sweep_map(tmp_path, capsys):
    # c/nu = 1e300: the relaxed sweep map's spectral radius cannot be
    # computed, so the run is a numerical defect and writes nothing
    out = tmp_path / "vms.csv"
    status = _run(tmp_path, "vms-iter", "--c", "1e200", "--nu", "1e-100", "--w", "0.5",
                  "--out", str(out))
    assert status == 1
    assert "sweep map overflows" in capsys.readouterr().err
    assert not out.exists()


def test_poisson2d_subcommand(tmp_path):
    out = tmp_path / "p2d.csv"
    assert _run(tmp_path, "poisson2d", "--p", "1", "--elements", "2",
                "--grid", "9", "--out", str(out)) == 0
    header, rows = _read_csv(out)
    assert header == ["x", "y", "phi_exact", "phi_bar", "u_prime", "phi_total"]
    assert np.max(np.abs(rows[:, 5] - rows[:, 2])) < 5e-3


def test_json_format_schema(tmp_path):
    out = tmp_path / "gll.json"
    assert _run(tmp_path, "gll", "--p", "2", "--format", "json", "--out", str(out)) == 0
    payload = json.loads(out.read_text())
    assert set(payload) == {"meta", "columns", "rows"}
    assert payload["meta"]["p"] == 2
    assert "version" in payload["meta"]
    assert payload["columns"] == ["i", "node", "weight"]


def test_byte_identical_reruns(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for out in (a, b):
        assert _run(tmp_path, "reconstruct", "--projection", "h10", "--p", "2",
                    "--elements", "5", "--grid", "41", "--out", str(out)) == 0
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize("argv", [
    ("project",),
    ("reconstruct",),
    ("vms-iter", "--nu", "0.05"),
    ("poisson2d",),
], ids=lambda argv: argv[0])
def test_the_environment_does_not_set_the_source_rule(tmp_path, monkeypatch, argv):
    # --quad-points is the source rule's only setting: FSG_QUAD_POINTS,
    # valid, not a number or negative, leaves every byte as the unset run's
    found = {}
    for env in (None, "4", "abc", "-3"):
        if env is None:
            monkeypatch.delenv("FSG_QUAD_POINTS", raising=False)
        else:
            monkeypatch.setenv("FSG_QUAD_POINTS", env)
        for fmt in ("csv", "json"):
            out = tmp_path / f"{env}.{fmt}"
            assert _run(tmp_path, *argv, "--format", fmt, "--out", str(out)) == 0
            found[env, fmt] = out.read_bytes()
    for (env, fmt), data in found.items():
        assert data == found[None, fmt], (env, fmt)


@pytest.mark.parametrize("argv", [
    ("greens", "--kernel", "advdiff", "--c", "-1e-3"),
    ("reconstruct", "--case", "advdiff-const", "--c", "-1e-3"),
    ("vms-iter", "--nu", "0.05", "--c", "-1e-3"),
    ("basis", "--a", "-1e-1"),
], ids=lambda argv: argv[0])
def test_a_negative_number_in_exponent_form_follows_its_option(tmp_path, argv):
    # argparse takes -1e-3 for an option; joined to the flag before it, it
    # reads as --c=-1e-3 does
    *head, flag, value = argv
    found = []
    for tail in ((flag, value), (f"{flag}={value}",)):
        out = tmp_path / f"{len(found)}.json"
        assert _run(tmp_path, *head, *tail, "--format", "json", "--out", str(out)) == 0
        found.append(out.read_bytes())
    assert found[0] == found[1]
    assert json.loads(found[0])["meta"][flag[2:]] == float(value)


@pytest.mark.parametrize("argv,message", [
    (("basis", "--a", "-inf"), "the interval needs"),
    (("basis", "--a", "-NaN"), "the interval needs"),
    (("dual", "--b", "-INFINITY"), "the interval needs"),
    (("greens", "--kernel", "advdiff", "--c", "-inf"), "expected a finite nonzero number"),
    (("greens", "--kernel", "advdiff", "--c", "-Infinity"), "expected a finite nonzero number"),
    (("greens", "--kernel", "advdiff", "--c", "-nan"), "expected a finite nonzero number"),
])
def test_a_negative_infinity_or_nan_reaches_its_option_check(tmp_path, capsys, argv, message):
    # argparse takes -inf, -infinity and -nan, which float() reads in any
    # case, for options; joined to the flag before them, they fail the
    # value's own check, not with "expected one argument"
    out = tmp_path / "bad.csv"
    with pytest.raises(SystemExit) as err:
        _run(tmp_path, *argv, "--out", str(out))
    assert err.value.code == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_default_quadrature_grows_with_degree(tmp_path):
    # the default source rule is max(20, p + 8) points: 32 at p = 24
    for flavor in ("h10", "l2"):
        out = tmp_path / f"{flavor}.csv"
        assert _run(tmp_path, "reconstruct", "--projection", flavor, "--p", "24",
                    "--elements", "1", "--grid", "41", "--out", str(out)) == 0
        _, rows = _read_csv(out)
        assert np.max(np.abs(rows[:, 4] - rows[:, 1])) < 1e-11


def test_usage_errors_exit_two(tmp_path):
    with pytest.raises(SystemExit) as err:
        _run(tmp_path, "gll")
    assert err.value.code == 2
    with pytest.raises(SystemExit) as err:
        _run(tmp_path, "basis", "--p", "0")
    assert err.value.code == 2
    with pytest.raises(SystemExit) as err:
        _run(tmp_path, "nonsense")
    assert err.value.code == 2
    # an H10 space with no interior node
    for argv in (("reconstruct",), ("finescale",), ("project", "--projection", "h10"),
                 ("vms-iter",), ("poisson2d",)):
        with pytest.raises(SystemExit) as err:
            _run(tmp_path, *argv, "--p", "1", "--elements", "1",
                 "--out", str(tmp_path / "none.csv"))
        assert err.value.code == 2
    # fewer series terms than interior nodes per direction: singular 2D Gram
    with pytest.raises(SystemExit) as err:
        _run(tmp_path, "poisson2d", "--p", "4", "--elements", "4", "--terms", "10",
             "--out", str(tmp_path / "few.csv"))
    assert err.value.code == 2
    for argv in (("reconstruct", "--projection", "l2"), ("finescale", "--projection", "l2"),
                 ("project", "--projection", "l2")):
        assert _run(tmp_path, *argv, "--p", "1", "--elements", "1",
                    "--out", str(tmp_path / "l2.csv")) == 0
    # tolerance, relaxation and coefficients the coupled solve cannot use
    for argv in (("--eps", "inf"), ("--eps", "nan"), ("--eps", "0"), ("--eps", "-1e-8"),
                 ("--w", "0"), ("--w", "1.5"), ("--w", "nan"), ("--w", "-0.5"),
                 ("--nu", "0"), ("--nu", "-1.0"), ("--nu", "nan"), ("--c", "0"),
                 ("--c", "inf")):
        with pytest.raises(SystemExit) as err:
            _run(tmp_path, "vms-iter", *argv, "--out", str(tmp_path / "bad.csv"))
        assert err.value.code == 2
    # the same coefficients where the other commands read them
    for argv in (("reconstruct", "--case", "advdiff-const", "--nu", "0"),
                 ("reconstruct", "--case", "advdiff-const", "--c", "0"),
                 ("greens", "--kernel", "advdiff", "--nu", "nan"),
                 ("greens", "--kernel", "advdiff", "--c", "0")):
        with pytest.raises(SystemExit) as err:
            _run(tmp_path, *argv, "--out", str(tmp_path / "bad.csv"))
        assert err.value.code == 2


@pytest.mark.parametrize("command,flag,good,value,bad,message,parser", [
    ("gll", "--p", "3", 3, "0", "expected a positive integer, got 0", "_positive_int"),
    ("vms-iter", "--nu", "0.5", 0.5, "inf", "expected a finite positive number, got inf",
     "_positive_float"),
    ("greens", "--s1", "0", 0.0, "nan", "expected a number in [0, 1], got nan", "_unit_float"),
    ("greens", "--c", "-1", -1.0, "0", "expected a finite nonzero number, got 0",
     "_nonzero_float"),
    ("vms-iter", "--w", "1", 1.0, "1e-400", "expected a number in (0, 1], got 1e-400",
     "_relaxation"),
])
def test_checked_number_parsers(capsys, command, flag, good, value, bad, message, parser):
    # a good value parses to its type; a bad one and a non-number exit 2 with
    # argparse's line, the non-number's naming the parser
    got = getattr(build_parser().parse_args([command, flag, good]), flag[2:])
    assert got == value and type(got) is type(value)
    for text, want in ((bad, message), ("x", f"invalid {parser} value: 'x'")):
        with pytest.raises(SystemExit) as err:
            build_parser().parse_args([command, flag, text])
        assert err.value.code == 2
        assert capsys.readouterr().err.splitlines()[-1] \
            == f"fsgreens {command}: error: argument {flag}: {want}"


def test_parser_defaults_are_the_library_defaults():
    from fsgreens.kernels import DEFAULT_SERIES_TERMS
    from fsgreens.vms_advdiff import DEFAULT_FINE_GRID, DEFAULT_MAX_ITER, DEFAULT_TOLERANCE

    parser = build_parser()
    args = parser.parse_args(["vms-iter"])
    assert (args.eps, args.max_iter, args.fine_grid) \
        == (DEFAULT_TOLERANCE, DEFAULT_MAX_ITER, DEFAULT_FINE_GRID)
    for command in ("greens", "poisson2d"):
        assert parser.parse_args([command]).terms == DEFAULT_SERIES_TERMS


def test_numerical_defect_exits_one(tmp_path):
    # eight points per subinterval fall short of the p = 24 source rule
    status = _run(tmp_path, "reconstruct", "--p", "24", "--elements", "1",
                  "--quad-points", "8", "--grid", "11", "--out", str(tmp_path / "x.csv"))
    assert status == 1
    # the source rule needs p points per subinterval, and p suffice
    for p in (4, 24):
        for flavor in ("h10", "l2"):
            for quad, want in ((p, 0), (p - 1, 1)):
                assert _run(tmp_path, "reconstruct", "--projection", flavor, "--p", str(p),
                            "--elements", "2", "--quad-points", str(quad), "--grid", "11",
                            "--out", str(tmp_path / "x.csv")) == want


def test_overflowing_peclet_ratio_exits_one(tmp_path, capsys):
    # nu = 1e-320 is finite and positive, but c / nu overflows
    for argv in (("greens", "--kernel", "advdiff"), ("reconstruct", "--case", "advdiff-const"),
                 ("vms-iter",)):
        out = tmp_path / "x.csv"
        assert _run(tmp_path, *argv, "--nu", "1e-320", "--out", str(out)) == 1
        assert not out.exists()
        assert "overflow" in capsys.readouterr().err


def test_overflowing_kernel_scale_exits_one(tmp_path, capsys):
    # c / nu = 1 passes the Peclet check, but 1 / nu overflows: greens wrote
    # inf, reconstruct NaN, and vms-iter blamed a large c / nu
    for argv in (("greens", "--kernel", "advdiff"), ("reconstruct", "--case", "advdiff-const"),
                 ("vms-iter",)):
        out = tmp_path / "x.csv"
        assert _run(tmp_path, *argv, "--c", "1e-320", "--nu", "1e-320", "--out", str(out)) == 1
        assert not out.exists()
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("fsgreens: ") and "1 / nu" in err


@pytest.mark.parametrize("projection", ["h10", "l2"])
def test_advdiff_reconstruction_at_a_small_peclet_ratio(tmp_path, projection):
    # at c / nu = 1e-8 the exact solution's closed form cancelled: the L2
    # run wrote u_total 0.2248 at x = 0.5 for 0.125, and the H10 one
    # failed the projection's zero-boundary check
    out = tmp_path / "r.json"
    assert _run(tmp_path, "reconstruct", "--case", "advdiff-const", "--projection", projection,
                "--c", "1e-8", "--nu", "1", "--format", "json", "--out", str(out)) == 0
    table = json.loads(out.read_text())
    rows = np.array(table["rows"])
    col = table["columns"].index
    assert np.max(np.abs(rows[:, col("u_total")] - rows[:, col("u_exact")])) <= 1e-12


@pytest.mark.parametrize("c,nu", [("1", "1e-4"), ("-1", "1e-4"), ("1e-310", "1")])
def test_advdiff_kernel_at_edge_peclet_ratios_is_finite_and_quiet(tmp_path, capsys, c, nu):
    # a kernel formed from a positive exponent overflows at nu = 1e-4, and
    # the former one divided 0 by 0 at c = 1e-310
    out = tmp_path / "g.json"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert _run(tmp_path, "greens", "--kernel", "advdiff", "--c", c, "--nu", nu,
                    "--grid", "41", "--format", "json", "--out", str(out)) == 0
    assert not caught and capsys.readouterr().err == ""
    g = np.array(json.loads(out.read_text())["rows"])[:, 2]
    assert g.size == 41 * 41 and np.all(np.isfinite(g)) and np.all(g >= 0.0)


_SOURCE_FREE = (("gll", "--p", "4"),
                ("basis", "--kind", "edge", "--p", "4", "--grid", "21"),
                ("greens", "--kernel", "advdiff", "--grid", "9"),
                ("greens", "--kernel", "poisson2d", "--grid", "9"),
                ("finescale", "--projection", "h10", "--p", "4", "--grid", "9"),
                ("finescale", "--projection", "l2", "--p", "4", "--grid", "9"),
                ("dual", "--kind", "nodal", "--p", "4", "--grid", "21"),
                ("dual", "--kind", "edge", "--p", "4", "--grid", "21"))
_SOURCE_COMMANDS = ("project", "reconstruct", "vms-iter", "poisson2d")


@pytest.mark.parametrize("argv", _SOURCE_FREE, ids=lambda argv: "-".join(argv[:3:2]))
def test_source_free_commands_do_not_read_the_source_rule(tmp_path, argv):
    # gll, basis, dual, greens and finescale integrate no source, so their
    # meta records no source rule
    out = tmp_path / "out.json"
    assert _run(tmp_path, *argv, "--format", "json", "--out", str(out)) == 0
    assert "quad_points" not in json.loads(out.read_text())["meta"]


@pytest.mark.parametrize("argv", [
    *((*argv, "--quad-points", "4") for argv in _SOURCE_FREE),
    ("gll", "--p", "3", "--grid", "5"),
    ("vms-iter", "--grid", "5"),
], ids=" ".join)
def test_an_option_the_command_does_not_read_exits_two(tmp_path, argv):
    out = tmp_path / "out.csv"
    with pytest.raises(SystemExit) as err:
        _run(tmp_path, *argv, "--out", str(out))
    assert err.value.code == 2
    assert not out.exists()


def test_vms_iter_output_paths_stay_out_of_the_files(tmp_path):
    # the data and history files of two runs that differ only in --out
    # hold the same bytes
    for name in ("a", "b"):
        assert _run(tmp_path, "vms-iter", "--nu", "0.05", "--format", "json",
                    "--out", str(tmp_path / f"{name}.json")) == 0
    for suffix in (".json", "-history.json"):
        a, b = (tmp_path / f"{name}{suffix}" for name in ("a", "b"))
        assert a.read_bytes() == b.read_bytes()
        meta = json.loads(a.read_text())["meta"]
        assert "history_out" not in meta and "grid" not in meta


@pytest.mark.parametrize("command", ["gll", "basis", "dual", "project", "greens", "finescale",
                                     "reconstruct", "vms-iter", "poisson2d"])
def test_help_lists_the_source_rule_only_for_source_commands(capsys, command):
    with pytest.raises(SystemExit) as err:
        build_parser().parse_args([command, "--help"])
    assert err.value.code == 0
    assert ("--quad-points" in capsys.readouterr().out) == (command in _SOURCE_COMMANDS)


def test_poisson2d_rejects_a_source_rule_below_the_degree(tmp_path):
    # the 2D pairings share the 1D source rule's floor of p points
    argv = ("poisson2d", "--p", "3", "--elements", "2", "--grid", "5")
    for quad, status in (("1", 1), ("2", 1), ("3", 0)):
        assert _run(tmp_path, *argv, "--quad-points", quad,
                    "--out", str(tmp_path / "p2d.csv")) == status


def test_health_values_in_json_meta(tmp_path):
    from fsgreens.basis1d import Mesh1D, basis_family
    from fsgreens.finescale import build_fine_scale_operator
    from fsgreens.kernels import GreensKernel1D
    from fsgreens.projection import ProjectionFlavor, build_dual_functionals

    def gram_cond_log10(elements, p):
        fns = build_dual_functionals(basis_family(Mesh1D.uniform(0.0, 1.0, elements, p)),
                                     ProjectionFlavor.H10)
        op = build_fine_scale_operator(GreensKernel1D.poisson(), fns, 20)
        return np.log10(np.linalg.cond(op.gram))

    for argv in (("reconstruct", "--grid", "11"), ("finescale", "--grid", "5")):
        out = tmp_path / f"{argv[0]}.json"
        assert _run(tmp_path, *argv, "--p", "2", "--elements", "3", "--format", "json",
                    "--out", str(out)) == 0
        meta = json.loads(out.read_text())["meta"]
        assert meta["gram_cond_log10"] == pytest.approx(gram_cond_log10(3, 2), abs=1e-12)
    out = tmp_path / "vms.json"
    runs = []
    for _ in range(2):
        assert _run(tmp_path, "vms-iter", "--nu", "0.05", "--format", "json",
                    "--out", str(out)) == 0
        runs.append(out.read_bytes())
    assert runs[0] == runs[1]
    meta = json.loads(runs[0])["meta"]
    history = json.loads((tmp_path / "vms-history.json").read_text())["rows"]
    assert meta["gram_cond_log10"] == pytest.approx(gram_cond_log10(3, 2), abs=1e-12)
    assert meta["final_step"] == history[-1][1] < 1e-8
    assert meta["iterations"] == len(history)
    assert 0.95 < meta["sweep_spectral_radius"] < 0.96


def test_write_table_matches_per_value_format(tmp_path):
    # one `%` operation per row writes the same bytes as formatting each
    # value on its own; JSON rows are the floats themselves
    from fsgreens import __version__
    from fsgreens.cli import write_table

    rng = np.random.default_rng(5)
    random = rng.normal(size=(6, 4)) * 10.0 ** rng.integers(-300, 300, size=(6, 4))
    edge = [[-0.0, 5e-324, 1e308, 1.0 / 3.0], [0.0, -5e-324, -1e308, 3]]
    rows = np.vstack((edge, random))
    columns = ["a", "b", "c", "d"]
    write_table(str(tmp_path / "t.csv"), columns, rows, {}, "csv")
    want = "\n".join([",".join(columns)]
                     + [",".join(format(float(v), ".17g") for v in row) for row in rows]) + "\n"
    assert (tmp_path / "t.csv").read_text() == want
    write_table(str(tmp_path / "t.json"), columns, rows, {"k": 1}, "json")
    payload = {"meta": {"k": 1, "version": __version__}, "columns": columns,
               "rows": [[float(format(float(v), ".17g")) for v in row] for row in rows]}
    assert (tmp_path / "t.json").read_text() == json.dumps(payload, indent=1,
                                                           sort_keys=True) + "\n"


@pytest.mark.parametrize("fmt", ["CSV", "Json", "txt", ""])
def test_write_table_rejects_any_other_format(tmp_path, fmt):
    # a format other than "csv" and "json" raises, naming both, and writes
    # no file: "CSV" wrote JSON once
    from fsgreens.cli import write_table

    with pytest.raises(ValueError, match="'csv' and 'json'"):
        write_table(str(tmp_path / "t.out"), ["a"], [[1.0]], {}, fmt)
    assert list(tmp_path.iterdir()) == []


def _per_row_csv(columns, rows) -> str:
    # the writer's earlier form, one `%` operation per row: the reference
    values = np.asarray(rows, dtype=float).tolist()
    row_fmt = ",".join(["%.17g"] * len(columns))
    lines = [",".join(columns)]
    lines.extend(row_fmt % tuple(row) for row in values)
    return "\n".join(lines) + "\n"


def _random_table(seed, nrows, ncols):
    rng = np.random.default_rng(seed)
    return rng.normal(size=(nrows, ncols)) * 10.0 ** rng.integers(-300, 301, size=(nrows, ncols))


def _with_neighbours(values):
    # each value between the doubles just below and just above it
    values = np.array(values, dtype=float)
    return np.column_stack([np.nextafter(values, -np.inf), values, np.nextafter(values, np.inf)])


@pytest.mark.parametrize("rows", [
    _random_table(1, 401, 5),
    _random_table(2, 1, 3),
    np.array([[np.nan, np.inf, -np.inf, -0.0, 5e-324]]),
    np.vstack((_random_table(3, 7, 5), [[np.nan, 1.0, np.inf, -np.nan, -np.inf]])),
    np.empty((0, 4)),
    [],
    [[1234567890123456.25, 1234567890123456.75, -1234567890123456.25, -1234567890123456.75]],
    # scaled to 17 digits in 80-bit long double, each lands exactly on a
    # half-integer that its exact decimal value misses by under 0.004
    [[9.09927260907539, 3245.349864251381, 0.0038009315571367166, 759983803.713655,
      9.78230888492652e-07]],
    _with_neighbours([float(f"1e{k}") for k in range(-12, 19)]),
    _with_neighbours([1e-4, 1e-5, 1e16, 1e17, 9.99999999999999995e-5, 99999999999999999.0]),
    [[1e-11, np.nextafter(1e-11, 0.0), -1e-11]],
    [[5e-324, 1e-300, -1e-300]],
], ids=["401x5", "one-row", "nan-inf", "mixed", "zero-rows", "empty-list", "exact-ties",
        "near-ties", "powers-of-ten", "notation-switches", "fast-range-floor", "tiny"])
def test_write_table_matches_per_row_formatter(tmp_path, rows):
    columns = [f"c{i}" for i in range(np.shape(rows)[1] if np.ndim(rows) == 2 else 4)]
    path = tmp_path / "t.csv"
    from fsgreens.cli import write_table

    write_table(str(path), columns, rows, {}, "csv")
    assert path.read_bytes() == _per_row_csv(columns, rows).encode()


def _tables_of_doubles():
    # any 64-bit pattern, half of them from the magnitudes the vectorised
    # path formats, [1e-12, 1e18], with either sign
    near = st.integers(*np.array([1e-12, 1e18]).view(np.int64).tolist())
    value = st.tuples(st.booleans(), st.one_of(st.integers(0, 2**63 - 1), near)).map(
        lambda sign_bits: sign_bits[0] << 63 | sign_bits[1])
    return st.integers(1, 7).flatmap(lambda ncols: st.lists(
        value, min_size=ncols, max_size=12 * ncols).map(
        lambda bits: np.array(bits[:len(bits) // ncols * ncols], dtype=np.uint64)
        .view(np.float64).reshape(-1, ncols)))


@settings(max_examples=200, deadline=None)
@given(rows=_tables_of_doubles())
def test_write_table_matches_per_row_formatter_on_any_doubles(tmp_path_factory, rows):
    from fsgreens.cli import write_table

    columns = [f"c{i}" for i in range(rows.shape[1])]
    path = tmp_path_factory.mktemp("csv") / "t.csv"
    write_table(str(path), columns, rows, {}, "csv")
    assert path.read_bytes() == _per_row_csv(columns, rows).encode()


def _json_reference(columns, rows, meta) -> str:
    # the writer's earlier form: the pure-Python encoder over nested lists
    from fsgreens import __version__

    payload = {"meta": dict(meta, version=__version__), "columns": list(columns),
               "rows": np.asarray(rows, dtype=float).tolist()}
    return json.dumps(payload, indent=1, sort_keys=True) + "\n"


@pytest.mark.parametrize("rows", [
    np.empty((0, 3)),
    [],
    np.empty((2, 0)),
    [[0.5], [-2.0], [1e300]],
    np.array([[0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, 5e-324, -1e-300]]),
    _random_table(6, 40, 5),
], ids=["zero-rows", "empty-list", "zero-columns", "one-column", "signed-zeros-nan-inf", "40x5"])
def test_write_table_json_matches_the_json_encoder(tmp_path, rows):
    from fsgreens.cli import write_table

    columns = [f"c{i}" for i in range(np.shape(rows)[1] if np.ndim(rows) == 2 else 3)]
    meta = {"k": 1, "nested": {"b": [1, 2.5], "a": None}, "s": "x,y"}
    write_table(str(tmp_path / "t.json"), columns, rows, meta, "json")
    assert (tmp_path / "t.json").read_bytes() == _json_reference(columns, rows, meta).encode()


@settings(max_examples=100, deadline=None)
@given(rows=_tables_of_doubles())
def test_write_table_json_matches_the_json_encoder_on_any_doubles(tmp_path_factory, rows):
    from fsgreens.cli import write_table

    columns = [f"c{i}" for i in range(rows.shape[1])]
    path = tmp_path_factory.mktemp("json") / "t.json"
    write_table(str(path), columns, rows, {}, "json")
    assert path.read_bytes() == _json_reference(columns, rows, {}).encode()


@pytest.mark.parametrize("argv", [
    ("gll", "--p", "3"),
    ("basis", "--kind", "edge"),
    ("dual", "--kind", "nodal"),
    ("project", "--projection", "l2"),
    ("greens", "--kernel", "advdiff"),
    ("finescale", "--projection", "h10"),
    ("reconstruct", "--projection", "l2"),
    ("vms-iter", "--nu", "0.05"),
    ("poisson2d", "--p", "2", "--elements", "2"),
], ids=lambda argv: argv[0])
def test_cli_json_is_the_json_encoders_bytes(tmp_path, argv):
    # every JSON table re-encodes to itself: the floats round-trip through
    # json.load, so this is json.dumps of the same payload
    out = tmp_path / "out.json"
    assert _run(tmp_path, *argv, "--format", "json", "--out", str(out)) == 0
    written = sorted(tmp_path.glob("*.json"))
    assert out in written
    for path in written:
        text = path.read_text()
        assert text == json.dumps(json.loads(text), indent=1, sort_keys=True) + "\n"


def test_write_table_rejects_rows_that_do_not_fill_the_columns(tmp_path):
    from fsgreens.cli import write_table

    with pytest.raises(ValueError, match="do not fill"):
        write_table(str(tmp_path / "t.csv"), ["a", "b"], [1.0, 2.0, 3.0], {}, "csv")
    assert not (tmp_path / "t.csv").exists()


def test_write_table_without_an_extended_long_double(tmp_path, monkeypatch):
    # where long double is not the x87 80-bit format every value goes
    # through `%`, with the same bytes
    from fsgreens import cli

    rows = np.vstack((_random_table(4, 40, 5), np.reshape(_with_neighbours(
        [1234567890123456.25, 1e-5, 1e16, 0.1, 3.0]), (-1, 5))))
    columns = [f"c{i}" for i in range(5)]
    monkeypatch.setattr(cli, "_X87_LONG_DOUBLE", False)
    cli.write_table(str(tmp_path / "t.csv"), columns, rows, {}, "csv")
    assert (tmp_path / "t.csv").read_bytes() == _per_row_csv(columns, rows).encode()


@pytest.mark.parametrize("argv", [
    ("greens", "--kernel", "poisson2d", "--s1", "nan"),
    ("greens", "--kernel", "poisson2d", "--s1", "2"),
    ("greens", "--kernel", "poisson2d", "--s2", "-0.5"),
    ("basis", "--a", "1", "--b", "0"),
    ("basis", "--a", "nan"),
    ("dual", "--a", "1", "--b", "0"),
    ("dual", "--b", "inf"),
    # finite ends whose width b - a overflows
    ("basis", "--a", "-1e308", "--b", "1e308"),
    ("dual", "--a", "-1e308", "--b", "1e308"),
])
def test_bad_interval_and_source_point_exit_two(tmp_path, capsys, argv):
    # the usage line is the whole report: a numpy warning raises here
    out = tmp_path / "bad.csv"
    with pytest.raises(SystemExit) as err, warnings.catch_warnings():
        warnings.simplefilter("error")
        _run(tmp_path, *argv, "--out", str(out))
    assert err.value.code == 2
    errors = [line for line in capsys.readouterr().err.splitlines() if "error" in line]
    assert len(errors) == 1 and errors[0].startswith("fsgreens")
    assert not out.exists()


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("mask", [0o022, 0o077, 0o002])
def test_output_files_follow_the_umask(tmp_path, fmt, mask):
    # the mode open() gives a new file, 0o666 less the umask, not the 0600
    # of a mkstemp temp file kept through the rename
    old = os.umask(mask)
    try:
        assert _run(tmp_path, "gll", "--p", "3", "--format", fmt, "--out", "gll") == 0
    finally:
        os.umask(old)
    assert (tmp_path / "gll").stat().st_mode & 0o777 == 0o666 & ~mask
    assert [path.name for path in tmp_path.iterdir()] == ["gll"]


@pytest.mark.parametrize("argv", [
    ("gll", "--p", "3", "--out", "missing/gll.csv"),
    ("gll", "--p", "3", "--out", "sub"),
    ("vms-iter", "--nu", "0.05", "--out", "vms.csv", "--history-out", "missing/history.csv"),
], ids=["missing-directory", "directory", "history-out"])
def test_unwritable_output_path_exits_two_before_running(tmp_path, capsys, argv):
    # a usage error: no computation, no traceback, no file and no temp file
    (tmp_path / "sub").mkdir()
    with pytest.raises(SystemExit) as err:
        _run(tmp_path, *argv)
    assert err.value.code == 2
    lines = capsys.readouterr().err.splitlines()
    assert [line for line in lines if line.startswith("fsgreens:")] \
        == [f"fsgreens: error: cannot write {argv[-1]}: not a file name in an existing directory"]
    assert not any("Traceback" in line for line in lines)
    assert [path.name for path in tmp_path.rglob("*")] == ["sub"]


def test_a_failed_write_exits_two_with_one_line(tmp_path, capsys, monkeypatch):
    def refuse(src, dst):
        raise PermissionError(13, "Permission denied", src, None, dst)

    monkeypatch.setattr(os, "replace", refuse)
    assert _run(tmp_path, "gll", "--p", "3", "--out", "gll.csv") == 2
    assert capsys.readouterr().err.splitlines() \
        == ["fsgreens: cannot write gll.csv: Permission denied"]
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv", [
    ("basis", "--kind", "edge", "--a", "0", "--b", "1e-310"),
    ("dual", "--kind", "edge", "--a", "0", "--b", "1e-307"),
], ids=["basis", "dual"])
def test_interval_too_short_for_its_basis_exits_one(tmp_path, capsys, argv):
    # the edge functions scale as 1/J, which overflows on these intervals
    out = tmp_path / "short.csv"
    with np.errstate(over="ignore", invalid="ignore"):
        assert _run(tmp_path, *argv, "--out", str(out)) == 1
    assert "not finite" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ("basis", "--kind", "edge", "--a", "0", "--b", "1e-310"),
    ("dual", "--kind", "edge", "--a", "0", "--b", "1e-307"),
], ids=["basis", "dual"])
def test_interval_too_short_for_its_basis_prints_one_line(tmp_path, argv):
    # numpy's overflow warnings stay off stderr, warnings shown or not:
    # the exit-1 message is the whole report
    import subprocess
    import sys

    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    proc = subprocess.run(
        [sys.executable, "-W", "default", "-m", "fsgreens.cli", *argv,
         "--out", str(tmp_path / "short.csv")],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 1
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("fsgreens: ") and "not finite" in lines[0]


def test_dual_nodal_values_do_not_depend_on_the_interval_length(tmp_path):
    # a dual nodal function is its reference dual whatever the element
    # width.  The subnormal grid rounds its own points (its step by 3e-12),
    # so the values are checked at the written points, mapped to [0, 1].
    out = tmp_path / "tiny.csv"
    assert _run(tmp_path, "dual", "--a", "0", "--b", "1e-310", "--out", str(out)) == 0
    _, rows = _read_csv(out)
    family = basis_family(Mesh1D.uniform(0.0, 1.0, 2, 3))
    want = tabulate_duals(DualSet(family, SpaceKind.DUAL_NODAL), rows[:, 0] / 1e-310)
    assert np.max(np.abs(rows[:, 1:] - want)) <= 1e-12 * np.max(np.abs(want))


def test_underflowing_boundary_layer_terminates(tmp_path):
    # nu/|c| underflows to zero, so the graded breakpoints would never
    # reach the layer's end; the subprocess bounds a regression to a hang
    import subprocess
    import sys

    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    out = tmp_path / "layer.csv"
    proc = subprocess.run(
        [sys.executable, "-m", "fsgreens.cli", "reconstruct", "--case", "advdiff-const",
         "--c", "1e300", "--nu", "1e-300", "--out", str(out)],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 1
    assert "boundary layer" in proc.stderr
    assert not out.exists()


@pytest.mark.parametrize("nu", ["1e-10", "1e-50", "1e-160"])
@pytest.mark.parametrize("c", ["1", "-1"])
def test_demonstration_mode_beyond_its_peclet_bound_exits_one(tmp_path, c, nu):
    # the exact-gradient residual's error grows with |c|/nu (1e34 at
    # nu = 1e-50, NaN and overflow warnings at 1e-160): the one
    # `fsgreens:` line is the whole report, warnings shown or not
    import subprocess
    import sys

    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    out = tmp_path / "layer.csv"
    proc = subprocess.run(
        [sys.executable, "-W", "default", "-m", "fsgreens.cli", "reconstruct",
         "--case", "advdiff-const", "--c", c, "--nu", nu, "--out", str(out)],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 1
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("fsgreens: ") and "|c| / nu" in lines[0]
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ("reconstruct",),
    ("reconstruct", "--projection", "l2"),
    ("vms-iter", "--nu", "0.05"),
    ("poisson2d",),
], ids=["reconstruct-h10", "reconstruct-l2", "vms-iter", "poisson2d"])
def test_no_command_loads_numpy_ma(tmp_path, argv):
    # np.unique imports numpy.ma on its first call, about 17 ms of a cold
    # start; the library merges its breakpoints by `sorted_unique` instead
    import subprocess
    import sys

    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    script = ("import json, sys\n"
              "import numpy\n"
              "bare = 'numpy.ma' in sys.modules\n"
              "from fsgreens.cli import main\n"
              "status = main(sys.argv[1:])\n"
              "ma = sorted(m for m in sys.modules if m == 'numpy.ma' or m.startswith('numpy.ma.'))\n"
              "print(json.dumps([bare, status, ma]))\n")
    proc = subprocess.run([sys.executable, "-c", script, *argv, "--out", str(tmp_path / "out")],
                          capture_output=True, text=True, env=env, cwd=tmp_path, timeout=120)
    assert proc.returncode == 0, proc.stderr
    bare, status, modules = json.loads(proc.stdout.splitlines()[-1])
    if bare:
        pytest.skip("importing numpy alone loads numpy.ma here")
    assert status == 0
    assert modules == []


_SPLINE_AND_SPARSE = ("scipy.interpolate", "scipy.sparse", "scipy.sparse.linalg")


@pytest.mark.parametrize("argv, loaded", [
    (("reconstruct", "--projection", "l2"), ()),
    (("reconstruct", "--case", "advdiff-const"), ()),
    (("finescale",), ()),
    (("poisson2d",), ()),
    (("vms-iter", "--nu", "0.05", "--format", "json"), ()),
], ids=["reconstruct-l2", "reconstruct-advdiff", "finescale", "poisson2d", "vms-iter"])
def test_cold_start_loads_spline_and_sparse_modules_only_for_the_iteration(
        tmp_path, argv, loaded):
    # A fresh interpreter, so no other test has loaded the modules; no
    # command needs them, the coupled iteration included.
    import subprocess
    import sys

    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    script = ("import json, sys\n"
              "from fsgreens.cli import main\n"
              "status = main(sys.argv[1:])\n"
              f"print(json.dumps([status, sorted(set({_SPLINE_AND_SPARSE!r}) & set(sys.modules))]))\n")
    out = tmp_path / "out"
    proc = subprocess.run([sys.executable, "-c", script, *argv, "--out", str(out)],
                          capture_output=True, text=True, env=env, cwd=tmp_path, timeout=120)
    assert proc.returncode == 0, proc.stderr
    status, modules = json.loads(proc.stdout.splitlines()[-1])
    assert status == 0
    assert modules == sorted(loaded)
    if argv[0] == "vms-iter":
        meta = json.loads(out.read_text())["meta"]
        assert meta["converged"] is True and meta["iterations"] == 362


@pytest.mark.parametrize("argv", [
    ("gll", "--p", "3"),
    ("basis",),
    ("dual",),
    ("project",),
    ("greens",),
    ("reconstruct", "--projection", "h10"),
    ("reconstruct", "--projection", "l2"),
    ("finescale",),
    ("poisson2d",),
    ("vms-iter", "--nu", "0.05"),
], ids=["gll", "basis", "dual", "project", "greens", "reconstruct-h10", "reconstruct-l2",
        "finescale", "poisson2d", "vms-iter"])
def test_no_command_loads_scipy(tmp_path, argv):
    # A fresh interpreter per command, with the modules listed after the
    # command has run: a scipy import deferred into the run counts too.
    import subprocess
    import sys

    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    script = ("import json, sys\n"
              "from fsgreens.cli import main\n"
              "status = main(sys.argv[1:])\n"
              "print(json.dumps([status, sorted(m for m in sys.modules\n"
              "                                 if m == 'scipy' or m.startswith('scipy.'))]))\n")
    proc = subprocess.run([sys.executable, "-c", script, *argv, "--out", str(tmp_path / "out")],
                          capture_output=True, text=True, env=env, cwd=tmp_path, timeout=120)
    assert proc.returncode == 0, proc.stderr
    status, modules = json.loads(proc.stdout.splitlines()[-1])
    assert status == 0
    assert modules == []
