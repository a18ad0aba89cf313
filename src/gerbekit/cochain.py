"""The Cech-de Rham double complex of differential cochains.

A degree-n cochain over a cover U is the multiplet

    omega = (H, omega^n_a, omega^{n-1}_{ab}, ..., omega^{-1}_{a0...a_{n+1}})

where H is an optional global field strength (degree n+1), the level-r
component attached to a multi-index of length r+1 is a form of degree n-r,
and the bottom level consists of integers m standing for the constants
2*pi*m.  Components indexed by a multi-index with a repeated entry are zero
by convention.

The total differential acts on the (r, s) bigraded slot as
delta + (-1)^{r+1} d, with d on the integer row the inclusion of 2*pi*m as
a constant function; this is the unique sign choice compatible with d**2 = 0
at every level, and the top output slot of a non-flat input carries
H - d(omega^n_a).
"""

from __future__ import annotations

import math
from typing import Callable, Dict, Optional, Sequence, Tuple

from .covers import Cover, Subordination
from .trigform import TrigForm, nan_max

Idx = Tuple[int, ...]


def _has_repeat(idx: Idx) -> bool:
    return len(set(idx)) != len(idx)


class DiffCochain:
    """A (possibly non-flat) differential n-cochain over a cover.

    Components may be held in a dict or computed on demand through
    component_fn / int_component_fn (used for differentials of large
    product-cover cochains, where only finitely many lookups occur).
    """

    def __init__(self, degree: int, cover: Cover,
                 field_strength: Optional[TrigForm] = None,
                 components: Optional[Dict[Idx, TrigForm]] = None,
                 int_components: Optional[Dict[Idx, int]] = None,
                 ambient_dim: Optional[int] = None,
                 component_fn: Optional[Callable[[Idx], TrigForm]] = None,
                 int_component_fn: Optional[Callable[[Idx], int]] = None):
        self.degree = degree
        self.cover = cover
        self.field_strength = field_strength
        self.components = components or {}
        self.int_components = int_components or {}
        self.component_fn = component_fn
        self.int_component_fn = int_component_fn
        if ambient_dim is not None:
            self.ambient_dim = ambient_dim
        elif field_strength is not None:
            self.ambient_dim = field_strength.ambient_dim
        elif self.components:
            self.ambient_dim = next(iter(self.components.values())).ambient_dim
        else:
            self.ambient_dim = cover.factors
        for idx, form in self.components.items():
            want = degree - (len(idx) - 1)
            if form.degree != want:
                raise ValueError(
                    f"component at {idx} has degree {form.degree}, expected {want}")
        for idx in self.int_components:
            if len(idx) != degree + 2:
                raise ValueError("integer components need multi-index length n+2")

    # -- lookups -----------------------------------------------------------

    def level_degree(self, idx_len: int) -> int:
        return self.degree - (idx_len - 1)

    def component(self, idx: Sequence[int]) -> TrigForm:
        idx = tuple(idx)
        deg = self.level_degree(len(idx))
        if deg < 0 or deg > self.ambient_dim or _has_repeat(idx):
            return TrigForm.zero(self.ambient_dim,
                                 min(max(deg, 0), self.ambient_dim))
        if self.component_fn is not None:
            got = self.components.get(idx)
            if got is None:
                got = self.component_fn(idx)
                self.components[idx] = got
            return got
        return self.components.get(idx, TrigForm.zero(self.ambient_dim, deg))

    def int_component(self, idx: Sequence[int]) -> int:
        idx = tuple(idx)
        if len(idx) != self.degree + 2 or _has_repeat(idx):
            return 0
        if self.int_component_fn is not None:
            got = self.int_components.get(idx)
            if got is None:
                got = self.int_component_fn(idx)
                self.int_components[idx] = got
            return got
        return self.int_components.get(idx, 0)

    def get_field_strength(self) -> TrigForm:
        if self.field_strength is None:
            return TrigForm.zero(self.ambient_dim,
                                 min(self.degree + 1, self.ambient_dim))
        return self.field_strength

    # -- linear structure --------------------------------------------------

    def __add__(self, other: "DiffCochain") -> "DiffCochain":
        if self.degree != other.degree or self.cover is not other.cover:
            raise ValueError("cochain addition needs matching degree and cover")
        a, b = self, other

        def comp(idx):
            return a.component(idx) + b.component(idx)

        def icomp(idx):
            return a.int_component(idx) + b.int_component(idx)

        H = None
        if a.field_strength is not None or b.field_strength is not None:
            H = a.get_field_strength() + b.get_field_strength()
        return DiffCochain(self.degree, self.cover, field_strength=H,
                           ambient_dim=self.ambient_dim,
                           component_fn=comp, int_component_fn=icomp)

    def __sub__(self, other: "DiffCochain") -> "DiffCochain":
        return self + other.scaled(-1)

    def scaled(self, c) -> "DiffCochain":
        a = self

        def comp(idx):
            return c * a.component(idx)

        def icomp(idx):
            return int(c) * a.int_component(idx)

        H = None if a.field_strength is None else c * a.field_strength
        return DiffCochain(self.degree, self.cover, field_strength=H,
                           ambient_dim=self.ambient_dim,
                           component_fn=comp, int_component_fn=icomp)

    # -- materialization ---------------------------------------------------

    def materialize(self, max_tuple_len: Optional[int] = None) -> "DiffCochain":
        """Evaluate all components over the cover's nonempty index tuples."""
        comps: Dict[Idx, TrigForm] = {}
        ints: Dict[Idx, int] = {}
        top = self.degree + 1 if max_tuple_len is None else max_tuple_len
        for r in range(1, min(top, self.degree + 1) + 1):
            if self.level_degree(r) > self.ambient_dim:
                continue
            for idx in self.cover.nonempty_tuples(r):
                f = self.component(idx)
                if not f.is_zero():
                    comps[idx] = f
        if self.degree + 2 <= len(self.cover.pieces):
            for idx in self.cover.nonempty_tuples(self.degree + 2):
                m = self.int_component(idx)
                if m:
                    ints[idx] = m
        return DiffCochain(self.degree, self.cover,
                           field_strength=self.field_strength,
                           components=comps, int_components=ints,
                           ambient_dim=self.ambient_dim)

    def max_defect(self, include_field_strength: bool = True) -> float:
        """Largest coefficient magnitude over all levels (integers scaled by 2*pi)."""
        mat = self.materialize()
        worst = 0.0
        if include_field_strength and self.field_strength is not None:
            worst = nan_max(worst, self.field_strength.max_abs())
        for f in mat.components.values():
            worst = nan_max(worst, f.max_abs())
        for m in mat.int_components.values():
            worst = nan_max(worst, 2 * math.pi * abs(m))
        return worst


# ---------------------------------------------------------------------------
# operations


def from_global_form(T: TrigForm, cover: Cover) -> DiffCochain:
    """The non-flat cocycle (dT, T|_{U_a}, 0, ..., 0)."""
    n = T.degree

    def comp(idx):
        if len(idx) == 1:
            return T
        return TrigForm.zero(T.ambient_dim, n - (len(idx) - 1))

    return DiffCochain(n, cover, field_strength=T.d(),
                       ambient_dim=T.ambient_dim, component_fn=comp,
                       int_component_fn=lambda idx: 0)


def signed_sum(total, terms):
    """total + sum of (-1)^odd * term over (odd, term) pairs, in order.

    Serves the form rows (TrigForm) and the integer row (int) alike.
    """
    for odd, term in terms:
        total = total - term if odd else total + term
    return total


def cech_delta(lookup: Callable[[Idx], object], idx: Idx, zero):
    """(delta c)_{i0..ir} = sum_j (-1)^j c_{i0..^ij..ir}, c read by lookup."""
    return signed_sum(zero, ((j % 2, lookup(idx[:j] + idx[j + 1:]))
                             for j in range(len(idx))))


def total_d(omega: DiffCochain) -> DiffCochain:
    """The total differential: delta + (-1)^{r+1} d on the (r, s) slot.

    Output degree n+1; its field strength is dH, its top (single-index)
    component is H - d(omega^n_a), and the integer row of the input injects
    into the function row of the output as the constant 2*pi*m with sign
    (-1)^{n+2}.
    """
    n = omega.degree
    amb = omega.ambient_dim
    H = omega.get_field_strength()

    def comp(idx: Idx) -> TrigForm:
        r_out = len(idx) - 1           # output slot (r_out, n+1-r_out)
        if len(idx) == 1:
            return H - omega.component(idx).d()
        total = cech_delta(omega.component, idx,
                           TrigForm.zero(amb, n - (len(idx) - 2)))
        if len(idx) <= n + 1:
            # d-part from the input slot with the same index length, r = r_out
            sign = -1 if r_out % 2 == 0 else 1   # (-1)^{r+1}
            total = total + sign * omega.component(idx).d()
        elif len(idx) == n + 2:
            # inclusion of the integer row: (-1)^{r+1} with r = n+1
            sign = 1 if n % 2 == 0 else -1
            m = omega.int_component(idx)
            if m:
                total = total + TrigForm.constant(amb, sign * 2 * math.pi * m)
        return total

    def icomp(idx: Idx) -> int:
        return cech_delta(omega.int_component, idx, 0)

    return DiffCochain(n + 1, omega.cover,
                       field_strength=H.d(),
                       ambient_dim=amb, component_fn=comp,
                       int_component_fn=icomp)


def restrict(omega: DiffCochain, s: Subordination) -> DiffCochain:
    if s.target is not omega.cover:
        raise ValueError("subordination target is not the cochain's cover")
    sig = s.index_map

    def comp(idx):
        return omega.component(tuple(sig[j] for j in idx))

    def icomp(idx):
        return omega.int_component(tuple(sig[j] for j in idx))

    return DiffCochain(omega.degree, s.source,
                       field_strength=omega.field_strength,
                       ambient_dim=omega.ambient_dim,
                       component_fn=comp, int_component_fn=icomp)


def homotopy_k(omega: DiffCochain, s1: Subordination, s2: Subordination) -> DiffCochain:
    """The homotopy operator for a pair of subordinations.

    Components eta^{q-r}_{j1...jr} = sum_t (-1)^t
    omega_{s1(j1)...s1(jt) s2(jt)...s2(jr)}; with the delta convention
    (delta c)_{i0...ir} = sum_j (-1)^j c_{...no ij...} this is the unique
    overall sign making d_total(k omega) + k(d_total omega) = s1* - s2*.
    Output field strength 0.
    """
    if s1.source is not s2.source or s1.target is not s2.target:
        raise ValueError("subordinations must share source and target")
    if s1.target is not omega.cover:
        raise ValueError("subordination target is not the cochain's cover")
    sig, sig2 = s1.index_map, s2.index_map
    n = omega.degree

    def mixed(idx: Idx, t: int) -> Idx:
        return tuple(sig[j] for j in idx[:t]) + tuple(sig2[j] for j in idx[t - 1:])

    def alternating(lookup, idx: Idx, zero):
        return signed_sum(zero, ((t % 2, lookup(mixed(idx, t)))
                                 for t in range(1, len(idx) + 1)))

    def comp(idx: Idx) -> TrigForm:
        deg = (n - 1) - (len(idx) - 1)
        return alternating(omega.component, idx,
                           TrigForm.zero(omega.ambient_dim, deg))

    def icomp(idx: Idx) -> int:
        return alternating(omega.int_component, idx, 0)

    return DiffCochain(n - 1, s1.source,
                       field_strength=TrigForm.zero(
                           omega.ambient_dim, min(n, omega.ambient_dim)),
                       ambient_dim=omega.ambient_dim,
                       component_fn=comp, int_component_fn=icomp)


def is_cocycle(omega: DiffCochain, tol: float = 1e-10) -> bool:
    return total_d(omega).max_defect() <= tol


def classify_flat_2cocycle(omega: DiffCochain, dec, rho, tol: float = 1e-10) -> float:
    """Holonomy class in R/2piZ of a flat 2-cocycle on T^2."""
    from .holonomy import holonomy
    if omega.degree != 2:
        raise ValueError("need a degree-2 cochain")
    if omega.field_strength is not None and not omega.field_strength.is_zero(tol):
        raise ValueError("cochain is not flat")
    if not is_cocycle(omega, tol):
        raise ValueError("input is not a cocycle")
    return holonomy(omega, dec, rho) % (2 * math.pi)
