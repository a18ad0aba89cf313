"""Push-forward of differential cochains along a product fibration X x E -> X.

Components of the output are built from path-sum symbols: for multi-indices
(a) on the X side (length r) and (b) on the E side (length k),

    T^(a)_(b) omega = sum over monotone lattice paths gamma from (a1,b1) to
    (ar,bk) of (-1)^{A(gamma)} omega_{node sequence of gamma}

with A(gamma) the number of unit squares enclosed between the path and the
b-axis (each up-step at column p contributes p - 1); this is the unique
parity choice for which the push-forward commutes with the total
differential.  The push-forward then integrates these mixed forms over the
cells of a dual decomposition of E in the fiber directions only.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Dict, List, Optional, Sequence, Tuple

from .cochain import DiffCochain, Level, signed_sum, total_d
from .covers import Cover, DualCellDecomposition, product_index
from .trigform import TrigForm, _move_axes_to_end_sign, cell_integral

Idx = Tuple[int, ...]


# ---------------------------------------------------------------------------
# monotone paths


@lru_cache(maxsize=None)
def monotone_paths(r: int, k: int) -> Tuple[Tuple[Tuple[Tuple[int, int], ...], int], ...]:
    """All monotone paths (1,1) -> (r,k) as (node list, area) pairs.

    Nodes are 1-indexed (p, q); steps increase p (along a) or q (along b).
    """
    out: List[Tuple[Tuple[Tuple[int, int], ...], int]] = []

    def walk(p, q, nodes, area):
        if p == r and q == k:
            out.append((tuple(nodes), area))
            return
        if p < r:
            walk(p + 1, q, nodes + [(p + 1, q)], area)
        if q < k:
            walk(p, q + 1, nodes + [(p, q + 1)], area + (p - 1))

    walk(1, 1, [(1, 1)], 0)
    return tuple(out)


def path_count(r: int, k: int) -> int:
    return math.comb(r + k - 2, r - 1)


# ---------------------------------------------------------------------------
# path-sum symbols


def _path_sum(lookup, cover, a_idx: Sequence[int], b_idx: Sequence[int],
              zero):
    """Sum of (-1)^{A(gamma)} lookup(node sequence of gamma) over all paths."""
    return signed_sum(zero, (
        (area % 2, lookup(tuple(product_index(cover, a_idx[p - 1], b_idx[q - 1])
                                for p, q in nodes)))
        for nodes, area in monotone_paths(len(a_idx), len(b_idx))))


def t_symbol_form(omega: DiffCochain, a_idx: Sequence[int],
                  b_idx: Sequence[int]) -> TrigForm:
    """The signed path sum as a mixed form on the product torus (form rows)."""
    deg = omega.degree + 2 - len(a_idx) - len(b_idx)
    return _path_sum(omega.component, omega.cover, a_idx, b_idx,
                     TrigForm.zero(omega.ambient_dim, max(deg, 0)))


# ---------------------------------------------------------------------------
# fiber-cell integration of mixed forms


def integrate_fiber_cell(form: TrigForm, cell, n_base: int) -> TrigForm:
    """Integrate the fiber part of a form on X x E over a cell of E.

    Terms whose fiber-axis count differs from the cell dimension drop; the
    fiber axes are moved to the end (collecting the sign) and integrated in
    closed form; the result is a form on X.
    """
    deg = form.degree - cell.dim
    if not 0 <= n_base <= form.ambient_dim or deg > n_base:
        raise ValueError("fiber integration leaves no form on the base")
    out: Dict[Tuple[Tuple[int, ...], Tuple[int, ...]], complex] = {}
    for (freq, axes), c in form.terms.items():
        fib = tuple(a for a in axes if a >= n_base)
        if len(fib) != cell.dim:
            continue
        sign = _move_axes_to_end_sign(axes, fib)
        val = cell_integral(cell, freq[n_base:], tuple(a - n_base for a in fib))
        if val == 0.0:
            continue
        base_axes = tuple(a for a in axes if a < n_base)
        key = (tuple(freq[:n_base]), base_axes)
        out[key] = out.get(key, 0.0) + sign * c * val
    return TrigForm._trusted(n_base, max(deg, 0), out)


# ---------------------------------------------------------------------------
# push-forward


def pushforward(omega: DiffCochain, dec: DualCellDecomposition,
                rho: Sequence[int]) -> DiffCochain:
    """Push a degree-n cochain on X x E down to a degree-(n-d) cochain on X."""
    cover = omega.cover
    if not hasattr(cover, "factor_covers"):
        raise ValueError("push-forward needs a product cover")
    x_cover, e_cover = cover.factor_covers
    n = omega.degree
    d = dec.dim
    if n < d:
        raise ValueError("cochain degree must be at least dim E")
    n_base = x_cover.factors
    fiber_axes = list(range(n_base, n_base + e_cover.factors))
    H = omega.get_field_strength()
    T = H.fiber_integrate_global(fiber_axes)
    m = n - d

    def comp(a_idx: Idx) -> Level:
        if len(a_idx) == m + 2:
            # integer row: only the point layer k = d+1 contributes
            sgn = 1 if ((m + 1) * d) % 2 == 0 else -1
            total = 0
            for cell_idx, cell in dec.faces.get(d + 1, {}).items():
                b_idx = tuple(rho[i] for i in cell_idx)
                total += cell.sign * _path_sum(omega.component, cover,
                                               a_idx, b_idx, 0)
            return sgn * total
        deg = m - (len(a_idx) - 1)
        total = TrigForm.zero(n_base, max(deg, 0))
        for k in range(1, d + 2):
            sgn = 1 if ((m + 1) * (k + 1)) % 2 == 0 else -1
            layer = TrigForm.zero(n_base, max(deg, 0))
            for cell_idx, cell in dec.faces.get(k, {}).items():
                b_idx = tuple(rho[i] for i in cell_idx)
                sym = t_symbol_form(omega, a_idx, b_idx)
                if sym.is_zero():
                    continue
                layer = layer + integrate_fiber_cell(sym, cell, n_base)
            total = total + sgn * layer
        return total

    return DiffCochain(m, x_cover, field_strength=T, ambient_dim=n_base,
                       component_fn=comp)


def pushforward_commutes_defect(omega: DiffCochain, dec: DualCellDecomposition,
                                rho: Sequence[int],
                                pushed: Optional[DiffCochain] = None) -> float:
    """Max coefficient magnitude of int_E(d_total omega) - d_total(int_E omega).

    `pushed` is int_E omega = pushforward(omega, dec, rho) when the caller
    has built it already; its memoised components are then reused.
    """
    if pushed is None:
        pushed = pushforward(omega, dec, rho)
    lhs = pushforward(total_d(omega), dec, rho)
    return (lhs - total_d(pushed)).max_defect()


def pushforward_homotopy(omega: DiffCochain, dec: DualCellDecomposition,
                         rho: Sequence[int], rho2: Sequence[int]) -> DiffCochain:
    """The homotopy comparing the push-forwards for two subordinations.

    Output degree n-d-1 on X; for cocycles omega,
    pushforward(rho) - pushforward(rho2) = d_total(homotopy); the inner
    alternation (-1)^t matches the subordination-homotopy convention of the
    double complex and is pinned by this identity.
    """
    cover = omega.cover
    x_cover, e_cover = cover.factor_covers
    n = omega.degree
    d = dec.dim
    n_base = x_cover.factors
    m = n - d
    if m < 1:
        raise ValueError("homotopy needs output degree n - d >= 1")

    def mixed_b(cell_idx: Idx, t: int) -> Idx:
        return (tuple(rho[i] for i in cell_idx[:t]) +
                tuple(rho2[i] for i in cell_idx[t - 1:]))

    def comp(a_idx: Idx) -> Level:
        r = len(a_idx)
        if r == m + 1:
            # integer row: only the point layer k = d+1 contributes
            k = d + 1
            sgn = 1 if (m * (k + 1)) % 2 == 0 else -1
            total = 0
            for cell_idx, cell in dec.faces.get(k, {}).items():
                inner = signed_sum(
                    0, ((t % 2, _path_sum(omega.component, cover, a_idx,
                                          mixed_b(cell_idx, t), 0))
                        for t in range(1, k + 1)))
                total += cell.sign * inner
            return sgn * total
        deg = (m - 1) - (r - 1)
        total = TrigForm.zero(n_base, max(deg, 0))
        for k in range(1, d + 2):
            sgn = 1 if (m * (k + 1)) % 2 == 0 else -1
            layer = TrigForm.zero(n_base, max(deg, 0))
            for cell_idx, cell in dec.faces.get(k, {}).items():
                inner = signed_sum(
                    TrigForm.zero(omega.ambient_dim, max(n + 1 - r - k, 0)),
                    ((t % 2, t_symbol_form(omega, a_idx, mixed_b(cell_idx, t)))
                     for t in range(1, k + 1)))
                if inner.is_zero():
                    continue
                layer = layer + integrate_fiber_cell(inner, cell, n_base)
            total = total + sgn * layer
        return total

    return DiffCochain(m - 1, x_cover,
                       field_strength=TrigForm.zero(n_base, min(m, n_base)),
                       ambient_dim=n_base, component_fn=comp)


def homotopy_residual(omega: DiffCochain, dec: DualCellDecomposition,
                      rho: Sequence[int], rho2: Sequence[int],
                      omega_is_cocycle: bool = True) -> float:
    """Residual of: pushforward(rho) - pushforward(rho2) = d(homotopy(omega))
    [+ homotopy(d omega) when omega is not a cocycle]."""
    lhs = pushforward(omega, dec, rho) - pushforward(omega, dec, rho2)
    rhs = total_d(pushforward_homotopy(omega, dec, rho, rho2))
    if not omega_is_cocycle:
        rhs = rhs + pushforward_homotopy(total_d(omega), dec, rho, rho2)
    return (lhs - rhs).max_defect()
