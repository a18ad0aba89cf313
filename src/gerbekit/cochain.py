"""The Cech-de Rham double complex of differential cochains.

A degree-n cochain over a cover U is the multiplet

    omega = (H, omega^n_a, omega^{n-1}_{ab}, ..., omega^{-1}_{a0...a_{n+1}})

where H, the global field strength (degree n+1), is the slot at the empty
multi-index (), the level-r component attached to a multi-index of length
r+1 <= n+1 is a form of degree n-r, and the bottom level, at length n+2,
consists of integers m standing for the constants 2*pi*m.  One lookup,
DiffCochain.component, serves every level: a TrigForm up to length n+1 and
a Python int at length n+2.  Components indexed by a multi-index with a
repeated entry are zero by convention.

The total differential acts on the (r, s) bigraded slot as
delta + (-1)^{r+1} d, with d on the integer row the inclusion of 2*pi*m as
a constant function; this is the unique sign choice compatible with d**2 = 0
at every level.  The same formula gives every slot, H included: the output's
H is dH, as delta has no term at length 0, and its top slot is
H - d(omega^n_a).
"""

from __future__ import annotations

import functools
import math
from typing import Callable, Dict, Optional, Sequence, Tuple, Union

from .covers import Cover, Subordination
from .trigform import TrigForm, _axes_sign, nan_max, signed_sum

Idx = Tuple[int, ...]
Level = Union[TrigForm, int]    # a form row, or the integer row


@functools.lru_cache(maxsize=None)
def level_zero(degree: int, ambient_dim: int, idx_len: int) -> Level:
    """The zero of a degree-`degree` cochain's level at multi-index length
    idx_len: the int 0 on the integer row (length degree+2), else the zero
    form of the level's degree clamped into [0, ambient_dim].  One zero is
    shared per argument triple, as no form is changed after it is built."""
    if idx_len == degree + 2:
        return 0
    deg = degree - (idx_len - 1)
    return TrigForm.zero(ambient_dim, min(max(deg, 0), ambient_dim))


def _is_zero(value: Level) -> bool:
    """Whether a level value is the empty form or the int 0; a form with a
    NaN term is not."""
    return not (value.terms if type(value) is TrigForm else value)


def _magnitude(value: Level) -> float:
    """Largest coefficient magnitude of a level value; m counts as 2*pi*|m|."""
    if isinstance(value, TrigForm):
        return value.max_abs()
    return 2 * math.pi * abs(value)


class DiffCochain:
    """A (possibly non-flat) differential n-cochain over a cover.

    Its forms live on the torus of its cover, T^(cover.factors).
    Every level, field strength and integer row included, is read through
    `component`.  The constructor takes stored values: the `components`
    dict, keyed by multi-index (H at the empty index, TrigForms at lengths
    1..n+1, Python ints at length n+2), each checked for its slot's type
    and degree.  The operators below build their results through `_lazy`,
    the one place that sets `component_fn`: it computes a missing slot on
    demand and memoises it in `components`, so only the lookups that occur
    are ever held.  A stored cochain's `component_fn` is None.  A cochain
    of degree n on T^m with n + 1 > m has no field strength: its slot at
    () reads as the zero m-form.

    `alternating` flags a cochain whose value on any ordering of a support
    is its sorted value times the sign of the permutation.  Only `_lazy`
    sets it: `alternating_cochain` builds such a cochain from its
    sorted-support values and flags it; `from_global_form` is one.  `+`,
    `-`, negation, `total_d` and `restrict` keep the flag of flagged
    operands.  A stored cochain is unflagged, and so are the results of
    `homotopy_k` and of the push-forwards, which read their input at mixed
    indices and are not alternating.  `materialize` and `max_defect` walk
    a flagged cochain on its sorted supports alone and an unflagged one on
    every ordering.
    """

    def __init__(self, degree: int, cover: Cover,
                 components: Optional[Dict[Idx, Level]] = None):
        self.degree = degree
        self.cover = cover
        self.components = components or {}
        self.component_fn: Optional[Callable[[Idx], Level]] = None
        self.alternating = False
        self.ambient_dim = amb = cover.factors
        for idx, value in self.components.items():
            want = degree - (len(idx) - 1)
            if len(set(idx)) != len(idx):
                raise ValueError(f"component at {idx} repeats an index, where "
                                 f"every component is zero")
            if want == -1:
                if type(value) is not int:
                    raise ValueError(f"component at {idx} must be an integer")
            elif not idx:
                # H: a top-degree cochain keeps a zero amb-form here
                if type(value) is not TrigForm or value.ambient_dim != amb \
                        or value.degree != min(want, amb):
                    raise ValueError(f"the field strength must be a form of "
                                     f"degree {min(want, amb)} on T^{amb}, "
                                     f"the torus of its cover")
                if want > amb and value.terms:
                    raise ValueError(f"a degree-{degree} cochain on T^{amb} "
                                     f"has no field strength: T^{amb} has no "
                                     f"{want}-form")
            elif type(value) is not TrigForm or value.degree != want \
                    or value.ambient_dim != amb:
                raise ValueError(f"component at {idx} must be a form of "
                                 f"degree {want} on T^{amb}, the torus of its "
                                 f"cover")

    # -- lookups -----------------------------------------------------------

    def level_degree(self, idx_len: int) -> int:
        return self.degree - (idx_len - 1)

    def component(self, idx: Sequence[int]) -> Level:
        """The value at idx: a TrigForm up to length n+1 (H at length 0),
        an int at n+2.  The memo is read first, as the constructor refuses
        a stored index out of range or with a repeated entry: only a miss
        checks the index before computing it."""
        if type(idx) is not tuple:
            idx = tuple(idx)
        got = self.components.get(idx)
        if got is None:
            deg = self.degree - (len(idx) - 1)
            if self.component_fn is None or deg < -1 \
                    or deg > self.ambient_dim or len(set(idx)) != len(idx):
                return level_zero(self.degree, self.ambient_dim, len(idx))
            got = self.components[idx] = self.component_fn(idx)
        return got

    @property
    def field_strength(self) -> TrigForm:
        """H, the slot at the empty multi-index."""
        return self.component(())

    # -- linear structure --------------------------------------------------

    def __add__(self, other: "DiffCochain") -> "DiffCochain":
        return self._plus(0, other)

    def __sub__(self, other: "DiffCochain") -> "DiffCochain":
        return self._plus(1, other)

    def _plus(self, odd: int, other: "DiffCochain") -> "DiffCochain":
        """self + (-1)^odd * other, each level one signed_sum.  Where other
        reads zero, the sum reads self's value itself, which signed_sum
        would copy unchanged; a zero self is not passed over so, as
        0.0 + c would turn a -0.0 part of c into +0.0."""
        if self.degree != other.degree or self.cover is not other.cover:
            raise ValueError("cochain addition needs matching degree and cover")
        a, b = self, other

        def comp(idx):
            value, term = a.component(idx), b.component(idx)
            if _is_zero(term):
                return value
            return signed_sum(value, ((odd, term),))

        return _lazy(self.degree, self.cover, comp,
                     a.alternating and b.alternating)

    def __neg__(self) -> "DiffCochain":
        a = self

        def comp(idx):
            return -a.component(idx)

        return _lazy(self.degree, self.cover, comp, a.alternating)

    # -- walking the slots -------------------------------------------------

    def _nonzero_slots(self):
        """(idx, value) for each nonzero slot, the one at () included: a
        flagged cochain on the cover's sorted supports, as its value on any
        other ordering is the sorted one times a sign, and any other cochain
        on every ordering, as nothing ties its permuted values to its sorted
        ones.  A NaN value counts as nonzero."""
        walk = self.cover.supports if self.alternating \
            else self.cover.nonempty_tuples
        for r in range(self.degree + 3):
            if self.level_degree(r) > self.ambient_dim:
                continue
            for idx in walk(r):
                value = self.component(idx)
                if not _is_zero(value) and not _magnitude(value) <= 0.0:
                    yield idx, value

    def materialize(self) -> "DiffCochain":
        """The same cochain with every nonzero slot evaluated and held in
        `components`: a flagged one as the alternating cochain of its values
        on sorted supports, any other by its values on every ordering."""
        comps = dict(self._nonzero_slots())
        if self.alternating:
            return alternating_cochain(self.degree, self.cover, comps)
        return DiffCochain(self.degree, self.cover, components=comps)

    def max_defect(self) -> float:
        """Largest coefficient magnitude over the slots that
        `materialize` walks (integers scaled by 2*pi); a NaN is kept."""
        return functools.reduce(
            nan_max, (_magnitude(v) for _, v in self._nonzero_slots()), 0.0)


def _lazy(degree: int, cover: Cover, component_fn: Callable[[Idx], Level],
          alternating: bool = False,
          components: Optional[Dict[Idx, Level]] = None) -> DiffCochain:
    """The cochain with the given stored values whose other slots
    component_fn computes on demand; flagged alternating only when the
    caller has built it so."""
    omega = DiffCochain(degree, cover, components)
    omega.component_fn = component_fn
    omega.alternating = alternating
    return omega


# ---------------------------------------------------------------------------
# operations


def alternating_cochain(degree: int, cover: Cover,
                        sorted_values: Dict[Idx, Level]) -> DiffCochain:
    """The flagged alternating cochain with the given values on sorted
    supports, H at () included (a missing support is zero): any other
    ordering of a support reads as the sorted value times the sign of the
    permutation.  The cochain memoises into a copy of the dict, so the
    caller's dict is left as it was."""
    amb = cover.factors

    def permuted(idx: Idx) -> Level:
        base, sign = _axes_sign(idx)
        value = sorted_values.get(base)
        if value is None:
            return level_zero(degree, amb, len(idx))
        return value if sign == 1 else -1 * value

    return _lazy(degree, cover, permuted, True, dict(sorted_values))


def from_global_form(T: TrigForm, cover: Cover) -> DiffCochain:
    """The non-flat cocycle (dT, T|_{U_a}, 0, ..., 0)."""
    return alternating_cochain(T.degree, cover,
                               {**{(a,): T for a in cover.indices}, (): T.d()})


def total_d(omega: DiffCochain) -> DiffCochain:
    """The total differential: delta + (-1)^{r+1} d on the (r, s) slot.

    Output degree n+1; its field strength is dH, its top (single-index)
    component is H - d(omega^n_a), the integer row of the input injects
    into the function row of the output as the constant 2*pi*m with sign
    (-1)^{n+2}, and its own integer row (length n+3) is delta of the input's.
    """
    n = omega.degree
    amb = omega.ambient_dim
    read = omega.component

    def comp(idx: Idx) -> Level:
        # (delta omega)_{i0..ir} = sum_j (-1)^j omega_{i0..^ij..ir}
        terms = [(j % 2, read(idx[:j] + idx[j + 1:]))
                 for j in range(len(idx))]
        # the input slot with the same index length has r = len(idx) - 1;
        # (-1)^{r+1} is the sign of d there, and of the inclusion 2*pi*m
        odd = len(idx) % 2
        if len(idx) <= n + 1:
            terms.append((odd, read(idx).d()))
        elif len(idx) == n + 2:
            m = read(idx)
            if m:
                terms.append((odd, TrigForm.constant(amb, 2 * math.pi * m)))
        return signed_sum(level_zero(n + 1, amb, len(idx)), terms)

    return _lazy(n + 1, omega.cover, comp, omega.alternating)


def restrict(omega: DiffCochain, s: Subordination) -> DiffCochain:
    if s.target is not omega.cover:
        raise ValueError("subordination target is not the cochain's cover")
    sig = s.index_map
    n, amb = omega.degree, omega.ambient_dim

    def comp(idx):
        # an image with a repeated entry reads omega's shared zero, unasked
        image = tuple([sig[j] for j in idx])
        if len(set(image)) != len(image):
            return level_zero(n, amb, len(idx))
        return omega.component(image)

    return _lazy(omega.degree, s.source, comp, omega.alternating)


def prism_indices(idx: Idx, sig: Sequence[int], sig2: Sequence[int]
                  ) -> Tuple[Tuple[int, Idx], ...]:
    """The signed family (t % 2, sig(i1..it) + sig2(it..ir)), t = 1..r, of
    multi-indices that a homotopy between two subordinations reads at
    idx = (i1..ir): its value there is sum_t (-1)^t times the read value."""
    a = tuple(sig[j] for j in idx)
    b = tuple(sig2[j] for j in idx)
    return tuple((t % 2, a[:t] + b[t - 1:]) for t in range(1, len(idx) + 1))


# by pair of index maps, then by index: the prism family less its members
# with a repeated entry, which read zero; shared by every homotopy between
# the same two subordinations
_LIVE_PRISMS: Dict[Tuple[Idx, Idx], Dict[Idx, Tuple[Tuple[int, Idx], ...]]] = {}


def homotopy_k(omega: DiffCochain, s1: Subordination, s2: Subordination) -> DiffCochain:
    """The homotopy operator for a pair of subordinations.

    Components eta^{q-r}_{j1...jr} = sum_t (-1)^t
    omega_{s1(j1)...s1(jt) s2(jt)...s2(jr)}; with the delta convention
    (delta c)_{i0...ir} = sum_j (-1)^j c_{...no ij...} this is the unique
    overall sign making d_total(k omega) + k(d_total omega) = s1* - s2*.
    Output field strength 0, the empty sum.  A member of the family with a
    repeated entry is not read: it would add the level's zero, which leaves
    every key and bit of the sum as it is.
    """
    if s1.source is not s2.source or s1.target is not s2.target:
        raise ValueError("subordinations must share source and target")
    if s1.target is not omega.cover:
        raise ValueError("subordination target is not the cochain's cover")
    sig, sig2 = s1.index_map, s2.index_map
    n = omega.degree
    families = _LIVE_PRISMS.setdefault((sig, sig2), {})

    def comp(idx: Idx) -> Level:
        family = families.get(idx)
        if family is None:
            family = families[idx] = tuple(
                (odd, b) for odd, b in prism_indices(idx, sig, sig2)
                if len(set(b)) == len(b))
        return signed_sum(level_zero(n - 1, omega.ambient_dim, len(idx)),
                          ((odd, omega.component(b)) for odd, b in family))

    return _lazy(n - 1, s1.source, comp)


# a defect of D omega, or a field-strength coefficient, at most this large
# counts as zero in is_cocycle and classify_flat_2cocycle
COCYCLE_TOL = 1e-10


def is_cocycle(omega: DiffCochain) -> bool:
    return total_d(omega).max_defect() <= COCYCLE_TOL


def classify_flat_2cocycle(omega: DiffCochain, dec, rho) -> float:
    """Holonomy class in R/2piZ of a flat 2-cocycle on T^2."""
    from .holonomy import holonomy
    if omega.degree != 2:
        raise ValueError("need a degree-2 cochain")
    if not omega.field_strength.is_zero(COCYCLE_TOL):
        raise ValueError("cochain is not flat")
    if not is_cocycle(omega):
        raise ValueError("input is not a cocycle")
    return holonomy(omega, dec, rho) % (2 * math.pi)
