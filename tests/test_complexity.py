"""Complexity gates: how a cost grows with the element count N, measured by
something no host noise moves.

tracemalloc's peak of one traced run is deterministic (two runs give the
same bytes), so the ratio of two peaks gates an exponent in N without
timing anything.  The gate is on the ratio, not on bytes, so it holds
across numpy versions whose temporaries differ in size.
"""

import tracemalloc

import numpy as np

from fsgreens.basis1d import Mesh1D, basis_family
from fsgreens.cases import sin2pix_case
from fsgreens.finescale import build_fine_scale_operator, reconstruct_fine_scales, residual_from_field
from fsgreens.kernels import GreensKernel1D
from fsgreens.projection import ProjectionFlavor, build_dual_functionals, h10_project_from_source

CASE = sin2pix_case()


def _h10_peak(num_elements: int) -> int:
    """tracemalloc's peak, in bytes, of the H10 projection from the source
    plus its reconstruction on 401 points at p = 4; the operator is built
    untraced, as its `gram_cond` reads the dense stiffness."""
    family = basis_family(Mesh1D.uniform(0.0, 1.0, num_elements, 4))
    fns = build_dual_functionals(family, ProjectionFlavor.H10)
    op = build_fine_scale_operator(GreensKernel1D.poisson(), fns)
    grid = np.linspace(0.0, 1.0, 401)
    tracemalloc.start()
    try:
        u_bar = h10_project_from_source(fns, CASE.source)
        reconstruct_fine_scales(op, residual_from_field(u_bar, CASE.source), grid)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_h10_projection_and_reconstruction_memory_is_linear_in_n():
    # 4x the elements may take at most 4^1.15 the peak; 0.57 MB and 1.93 MB
    # at N = 64 and 256 (numpy 2.4) measure an exponent of 0.88
    small, large = _h10_peak(64), _h10_peak(256)
    assert large <= 4.0 ** 1.15 * small, (small, large)
