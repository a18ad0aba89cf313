"""Holonomy of differential cocycles along S^1 and T^2 via dual cell
decompositions.

For a degree-n cocycle omega, a dual cell decomposition with top cells
Delta_i and a subordination rho,

    hol(omega) = sum_{k=1}^{n+1} (-1)^{k+1} sum_b int_{C_b} omega^{n+1-k}_b

where C_b is the chain of the cells Delta_(i1...ik), i1 > ... > ik, with
image rho(i1)...rho(ik) = b, the sum over chains of the sum over cells
sum_{i1 > ... > ik} int_{Delta_(i)} omega^{n+1-k}_{rho(i1)...rho(ik)}.
The k = n+1 layer integrates 0-forms over oriented points (evaluation
with the boundary-induced sign).  This is DualCellDecomposition.layer_sum
with output degree p = 0: the holonomy is the push-forward of omega along
T^n -> point.  The value is well defined modulo 2*pi under changes of rho
and refinement of the decomposition.
"""

from __future__ import annotations

import cmath
import math
from typing import Sequence

from .cochain import DiffCochain
from .covers import DualCellDecomposition


def holonomy(omega: DiffCochain, dec: DualCellDecomposition,
             rho: Sequence[int]) -> float:
    if dec.dim != omega.degree:
        raise ValueError("decomposition dimension must equal cochain degree")

    def value(b, chain):
        # no coefficient's modulus is taken: it may lie past the float range
        comp = omega.component(b)
        return comp.integrate_cell(chain) if comp.terms else None

    total = dec.layer_sum(0, rho, value, 0.0 + 0.0j)
    if not cmath.isfinite(total):
        raise ValueError(f"the holonomy is {total}, not finite")
    if abs(total.imag) > 1e-8:
        raise ValueError(f"holonomy came out non-real ({total}); "
                         "cochain data is not real-valued")
    return total.real


def invariance_defect(omega: DiffCochain, dec: DualCellDecomposition,
                      rho: Sequence[int], rho2: Sequence[int]) -> float:
    """holonomy(rho) - holonomy(rho2); lies in 2*pi*Z for cocycles."""
    return holonomy(omega, dec, rho) - holonomy(omega, dec, rho2)


def nearest_2pi_multiple_defect(value: float) -> float:
    """Distance from value to the nearest integer multiple of 2*pi.

    NaN for a NaN or infinite value, which has no nearest multiple.
    """
    if not math.isfinite(value):
        return math.nan
    return abs(value - 2 * math.pi * round(value / (2 * math.pi)))
