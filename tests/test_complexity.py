"""Complexity gates: how a cost grows with the element count N, measured by
something no host noise moves.

tracemalloc's peak of one traced run is deterministic (two runs give the
same bytes), so the ratio of two peaks gates an exponent in N without
timing anything.  The gate is on the ratio, not on bytes, so it holds
across numpy versions whose temporaries differ in size.  The calls to
`np.linalg` are deterministic too: the element-local H10 path makes none
that factors or solves.
"""

import tracemalloc

import numpy as np
import pytest

from fsgreens.basis1d import Mesh1D, basis_family
from fsgreens.cases import sin2pix_case
from fsgreens.finescale import (build_fine_scale_operator, fine_scale_eval,
                                reconstruct_fine_scales, residual_from_field)
from fsgreens.kernels import GreensKernel1D
from fsgreens.projection import (ProjectionFlavor, build_dual_functionals, h10_project_from_source,
                                 source_rule_points)
from fsgreens.quadrature import gauss_legendre_rule

CASE = sin2pix_case()


# every np.linalg routine that factors, inverts or solves with its first argument
_FACTORING = ("cholesky", "det", "eig", "eigh", "eigvals", "eigvalsh", "inv", "lstsq", "pinv",
              "qr", "slogdet", "solve", "svd", "tensorsolve")


def _h10_path(num_elements: int):
    """The H10 operator at p = 4 on N elements, built before the gated run,
    as its `gram_cond` reads the dense stiffness; and the gated path, the
    H10 projection from the source plus its reconstruction on 401 points."""
    family = basis_family(Mesh1D.uniform(0.0, 1.0, num_elements, 4))
    fns = build_dual_functionals(family, ProjectionFlavor.H10)
    op = build_fine_scale_operator(GreensKernel1D.poisson(), fns)
    grid = np.linspace(0.0, 1.0, 401)

    def run():
        u_bar = h10_project_from_source(fns, CASE.source)
        return reconstruct_fine_scales(op, residual_from_field(u_bar, CASE.source), grid)
    return run


def _h10_peak(num_elements: int) -> int:
    """tracemalloc's peak, in bytes, of the H10 projection from the source
    plus its reconstruction (`_h10_path`), with the operator built untraced."""
    run = _h10_path(num_elements)
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_h10_projection_and_reconstruction_memory_is_linear_in_n():
    # 4x the elements may take at most 4^1.15 the peak; 0.57 MB and 1.93 MB
    # at N = 64 and 256 (numpy 2.4) measure an exponent of 0.88
    small, large = _h10_peak(64), _h10_peak(256)
    assert large <= 4.0 ** 1.15 * small, (small, large)


@pytest.mark.parametrize("num_elements", [64, 256])
def test_h10_projection_and_reconstruction_factor_nothing(num_elements, monkeypatch):
    # the gated path calls no np.linalg routine that factors or solves: each
    # element's bubbles are an orthogonal expansion in the Lobatto bubbles,
    # and a solve with the (p - 1) x (p - 1) interior stiffness on each call
    # fails here.  The positive control is the operator's build, recorded
    # too: its `gram_cond` reads the eigenvalues of the dense stiffness K,
    # of the global N p - 1 size, through the same np.linalg lookup.  The
    # source rule's Gauss rules, q and 2q points, are formed first: each is
    # formed once per size, seeded by numpy's leggauss, an eigensolve of its
    # q x q Jacobi matrix
    q = source_rule_points(4)
    for n in (q, 2 * q):
        gauss_legendre_rule(n)
    shapes = []

    def recording(routine):
        def call(a, *args, **kwargs):
            shapes.append((routine.__name__, np.shape(a)[-2:]))
            return routine(a, *args, **kwargs)
        return call

    for name in _FACTORING:
        monkeypatch.setattr(np.linalg, name, recording(getattr(np.linalg, name)))
    run = _h10_path(num_elements)
    size = 4 * num_elements - 1
    assert ("eigvalsh", (size, size)) in shapes, "the recorder misses the build's K"
    shapes.clear()
    run()
    assert not shapes, shapes


@pytest.mark.parametrize("num_elements", [64, 256])
def test_l2_surface_column_forms_no_table_at_its_rows(num_elements):
    # one column of the L2 fine-scale kernel on 401 points: the kernel less
    # the resolved part of the lifts at the one s, summed at the points by
    # prefix and suffix sums, with no (401 x N p) lift table at the points.
    # Its peak must stay under a quarter of one such table, with the Gram
    # formed untraced: 0.12 and 0.03 tables (0.10 and 0.11 MB, numpy 2.4)
    # at N = 64 and 256, where a dense table at the points peaked at 3.2
    # and 3.1 tables
    family = basis_family(Mesh1D.uniform(0.0, 1.0, num_elements, 4))
    op = build_fine_scale_operator(GreensKernel1D.poisson(),
                                   build_dual_functionals(family, ProjectionFlavor.L2))
    op.gram
    x = np.linspace(0.0, 1.0, 401)
    tracemalloc.start()
    try:
        fine_scale_eval(op, x, [0.37])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    table = x.size * op.functionals.size * np.dtype(float).itemsize
    assert peak <= 0.25 * table, (peak, table)
