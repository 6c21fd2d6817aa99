"""Smoke test of the benchmark pipelines in bench/, at their smallest sizes.

Runs the two recon1d warm-up solves, a 5-element kernel surface per
flavor, the vms_iter warm-up solve (nu = 0.05) and the poisson2d warm-up
solve (N = 8, p = 4, 100 terms) through `workloads.run_solve`, untraced,
so that a change to the library calls the benchmark makes (operator
build, `fine_scale_eval`, `residual_from_field`, the coupled iteration,
the 2D duals, series operator and reconstruction, `write_table`) fails
here first.  The L2 path also runs at the apply1d size, N = 20 and p = 4:
one advection-diffusion solve, one kernel surface and one sine-series
reconstruction on a jittered mesh.  Each solve's probe then runs on a
traced, tagged tracer, as a `--trace 1` run calls it, so a change to a
call only the per-layer run makes (`op.gram`, `make_workspace`, the 2D
pairing, convolution and lifts) fails here too.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

import tracing  # noqa: E402
import workloads  # noqa: E402
from workloads import Spec  # noqa: E402

SPECS = list(workloads.WORKLOADS["recon1d"].warmup) + \
    [Spec("finescale", 5, 2, flavor) for flavor in ("h10", "l2")] + \
    list(workloads.WORKLOADS["vms_iter"].warmup) + \
    list(workloads.WORKLOADS["poisson2d"].warmup) + \
    [Spec("advdiff", 20, 4, "l2", nu=0.03),
     Spec("finescale", 20, 4, "l2"),
     Spec("reconstruct", 20, 4, "l2",
          workloads._jittered_boundaries(np.random.default_rng(7), 20),
          (1.0, -0.5, 0.25, -0.125))]


def _spec_id(spec):
    mesh = "-jittered" if spec.boundaries is not None else ""
    return f"{spec.kind}-{spec.N}-{spec.p}-{spec.flavor}{mesh}"


@pytest.mark.parametrize("spec", SPECS, ids=_spec_id)
def test_bench_pipeline_passes(spec, tmp_path):
    outcome = workloads.run_solve(spec, tracing.Tracer(False), str(tmp_path / "out.csv"))
    assert outcome.ok, outcome.note
    tracer = tracing.Tracer(True)
    tracer.tags = {"batch": 0, "solve": "0.0", "probe": True}
    extra = outcome.probe(tracer)
    assert all(np.isfinite(v) for v in extra.values())
    assert all(rec["probe"] and rec["end"] >= rec["start"] for rec in tracer.spans)
    if spec.kind in ("vms_iter", "poisson2d"):
        assert tracer.spans
