"""Push-forward of differential cochains along a product fibration X x E -> X.

Components of the output are built from path-sum symbols: for multi-indices
(a) on the X side (length r) and (b) on the E side (length k),

    T^(a)_(b) omega = sum over monotone lattice paths gamma from (a1,b1) to
    (ar,bk) of (-1)^{A(gamma)} omega_{node sequence of gamma}

with A(gamma) the number of unit squares enclosed between the path and the
b-axis (each up-step at column p contributes p - 1); this is the unique
parity choice for which the push-forward commutes with the total
differential.  The push-forward then integrates these mixed forms in the
fiber directions only, over the chains of a dual decomposition of E (the
cells that share one subordination image b), and adds the chains up with
DualCellDecomposition.layer_sum at the output degree:

    (int_E omega)_(a) = sum_k (-1)^{(p+1)(k+1)} sum_b int_{C_b} T^(a)_(b) omega.

Its homotopy is the same sum over the chains of the pair image
(rho, rho2), each integrating the signed prism family of its image.

A symbol is built from omega's components, which omega memoises itself,
when a chain's value asks for it; it is integrated once per chain and then
dropped, so a push-forward keeps only its integrated components.  Each
term key is split into its fiber and base keys once per (key, n_base), not
once per term and cell, and every form holding the key shares the split
keys.  A path sum walks a plan of its grid shape (r, k), built once per
process.
"""

from __future__ import annotations

from functools import lru_cache
from typing import (Callable, Dict, Hashable, List, Optional, Sequence,
                    Tuple)

from .cochain import (DiffCochain, Level, _lazy, level_zero, prism_indices,
                      total_d)
from .covers import DualCellDecomposition
from .trigform import Key, TrigForm, signed_sum

Idx = Tuple[int, ...]


# ---------------------------------------------------------------------------
# monotone paths


def monotone_paths(r: int, k: int) -> Tuple[Tuple[Tuple[Tuple[int, int], ...], int], ...]:
    """All monotone paths (1,1) -> (r,k) as (node list, area) pairs.

    Nodes are 1-indexed (p, q); steps increase p (along a) or q (along b).
    Uncached: its one caller in the package, `_path_plan`, is cached.
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


# ---------------------------------------------------------------------------
# path-sum symbols


@lru_cache(maxsize=None)
def _path_plan(r: int, k: int) -> Tuple[Tuple[int, Tuple[Tuple[int, int], ...]], ...]:
    """monotone_paths(r, k) as (area parity, 0-indexed nodes) pairs."""
    return tuple((area % 2, tuple((p - 1, q - 1) for p, q in nodes))
                 for nodes, area in monotone_paths(r, k))


def _path_sum(omega: DiffCochain, a_idx: Sequence[int], b_idx: Sequence[int],
              zero):
    """Sum of (-1)^{A(gamma)} omega_{node sequence of gamma} over all paths.

    A node (p, q) reads the product cover's piece a_idx[p] * nb + b_idx[q]:
    product_index's numbering, written by product_cover's loop order and
    read by Cover.meeting as well.
    """
    nb = len(omega.cover.factor_covers[1].pieces)
    rows = [i * nb for i in a_idx]
    component = omega.component
    return signed_sum(zero, (
        (odd, component(tuple([rows[p] + b_idx[q] for p, q in nodes])))
        for odd, nodes in _path_plan(len(a_idx), len(b_idx))))


def t_symbol_form(omega: DiffCochain, a_idx: Sequence[int],
                  b_idx: Sequence[int]) -> TrigForm:
    """The signed path sum as a mixed form on the product torus (form rows)."""
    deg = omega.degree + 2 - len(a_idx) - len(b_idx)
    return _path_sum(omega, a_idx, b_idx,
                     TrigForm.zero(omega.ambient_dim, max(deg, 0)))


# ---------------------------------------------------------------------------
# fiber-cell integration of mixed forms


Split = Tuple[Key, Key, int]


@lru_cache(maxsize=None)
def _fiber_splits(n_base: int) -> Dict[Key, Split]:
    """term key -> (fiber key, base key, fiber dimension) at n_base, for the
    keys met so far: the fiber key (the trailing frequencies, the fiber
    axes shifted to E's coordinates) is the one cells memoise their
    integrals under, and the base key is the term's key on X."""
    return {}


def _split_key(splits: Dict[Key, Split], key: Key, n_base: int) -> Split:
    """Split a term key at n_base, stored in splits (see _fiber_splits)."""
    freq, axes = key
    fib = tuple([a - n_base for a in axes if a >= n_base])
    splits[key] = split = ((freq[n_base:], fib),
                           (freq[:n_base], axes[:len(axes) - len(fib)]),
                           len(fib))
    return split


def integrate_fiber_cell(form: TrigForm, cell, n_base: int) -> TrigForm:
    """Integrate the fiber part of a form on X x E over a cell of E, or
    over a chain of cells (covers.Chain).

    The fiber is the trailing axes n_base..: terms whose fiber-axis count
    differs from the cell dimension drop, and the rest integrate in closed
    form, their fiber axes already last in the sorted axes (sign +1); the
    result is a form on X.
    """
    deg = form.degree - cell.dim
    if not 0 <= n_base <= form.ambient_dim or deg > n_base:
        raise ValueError("fiber integration leaves no form on the base")
    out: Dict[Key, complex] = {}
    out_get = out.get
    dim, integrals, integral = cell.dim, cell.integrals, cell.integral
    splits = _fiber_splits(n_base)
    for key, c in form.terms.items():
        fib, base, fib_dim = (splits.get(key)
                              or _split_key(splits, key, n_base))
        if fib_dim != dim:
            continue
        val = integrals.get(fib)
        if val is None:
            val = integral(*fib)
        if val == 0.0:
            continue
        out[base] = out_get(base, 0.0) + c * val
    return TrigForm._trusted(n_base, max(deg, 0), out)


# ---------------------------------------------------------------------------
# push-forward


def _fiber_integral(omega: DiffCochain, dec: DualCellDecomposition, p: int,
                    image: Sequence[Hashable],
                    e_indices: Callable[[tuple], Sequence[Tuple[int, Idx]]],
                    field_strength: TrigForm) -> DiffCochain:
    """The degree-p cochain on X whose component at (a) is the layer sum
    over dec's chains by image of int_{C_b} sum_{(odd, e) in e_indices(b)}
    (-1)^odd T^(a)_(e) omega, the integral taken in the fiber directions
    only.

    On the integer row (length p+2) only the point layer contributes: each
    chain of oriented points weighs the integer path sums with the sum of
    its points' signs.
    """
    x_cover = omega.cover.factor_covers[0]
    n_base = x_cover.factors

    def comp(a_idx: Idx) -> Level:
        if len(a_idx) == p + 2:
            def value(b, cell):
                if cell.dim:
                    return None
                return cell.sign * signed_sum(0, (
                    (odd, _path_sum(omega, a_idx, b_idx, 0))
                    for odd, b_idx in e_indices(b)))
        else:
            def value(b, cell):
                members = e_indices(b)
                if len(members) == 1 and not members[0][0]:
                    # a symbol is a signed_sum result, with no exact zero
                    # and no -0.0 part, so its sum from zero would equal it
                    sym = t_symbol_form(omega, a_idx, members[0][1])
                else:
                    syms = [(odd, t_symbol_form(omega, a_idx, b_idx))
                            for odd, b_idx in members]
                    first = syms[0][1]
                    sym = signed_sum(TrigForm.zero(first.ambient_dim,
                                                   first.degree), syms)
                if not sym.terms:
                    return None
                return integrate_fiber_cell(sym, cell, n_base)
        return dec.layer_sum(p, image, value,
                             level_zero(p, n_base, len(a_idx)))

    return _lazy(p, x_cover, comp, components={(): field_strength})


def pushforward(omega: DiffCochain, dec: DualCellDecomposition,
                rho: Sequence[int]) -> DiffCochain:
    """Push a degree-n cochain on X x E down to a degree-(n-d) cochain on X."""
    cover = omega.cover
    if not cover.factor_covers:
        raise ValueError("push-forward needs a product cover")
    if omega.degree < dec.dim:
        raise ValueError("cochain degree must be at least dim E")
    T = omega.field_strength.fiber_integrate_global(
        cover.factor_covers[0].factors)
    return _fiber_integral(omega, dec, omega.degree - dec.dim, rho,
                           lambda b: ((0, b),), T)


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
    pushforward(rho) - pushforward(rho2) = d_total(homotopy).  On the cell
    Delta_(i1...ik) it integrates sum_{t=1}^{k} (-1)^t T^(a)_(b_t) omega with
    b_t = (rho(i1..it), rho2(it..ik)); the alternation (-1)^t matches the
    subordination-homotopy convention of the double complex and is pinned
    by this identity.
    """
    m = omega.degree - dec.dim
    if m < 1:
        raise ValueError("homotopy needs output degree n - d >= 1")
    n_base = omega.cover.factor_covers[0].factors

    # a chain of the pair image ((rho(i1), rho2(i1)), ...) reads the prism
    # family of its two images
    return _fiber_integral(omega, dec, m - 1, tuple(zip(rho, rho2)),
                           lambda pairs: prism_indices(range(len(pairs)),
                                                       *zip(*pairs)),
                           level_zero(m - 1, n_base, 0))


def homotopy_residual(omega: DiffCochain, dec: DualCellDecomposition,
                      rho: Sequence[int], rho2: Sequence[int],
                      pushed: Optional[DiffCochain] = None) -> float:
    """Residual of pushforward(rho) - pushforward(rho2) = d(homotopy(omega)),
    which holds for cocycles omega.

    `pushed` is pushforward(omega, dec, rho) when the caller has built it
    already; its memoised components are then reused.
    """
    if pushed is None:
        pushed = pushforward(omega, dec, rho)
    lhs = pushed - pushforward(omega, dec, rho2)
    rhs = total_d(pushforward_homotopy(omega, dec, rho, rho2))
    return (lhs - rhs).max_defect()
