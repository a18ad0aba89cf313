"""su(2)-valued trig-polynomial forms on tori: graded bracket, invariant
pairing, curvature, Maurer-Cartan forms of closed-form gauge maps, and the
Chern-Simons 3-form with its gauge-variation identity.

A coefficient is a complex 3-vector x, sum_a x_a e_a in the basis
e_a = (i/2) sigma_a of `su2_basis`.  As [e_a, e_b] = -eps_abc e_c and
-tr(e_a e_b) = delta_ab / 2, the bracket is minus the cross product and the
pairing half the dot product; a real form has x_{-k} = conj(x_k), as a
TrigForm does.  Products are taken on float parts, one numpy call each: no
multiply-add can fuse and nothing calls BLAS, so no bit depends on the BLAS
kernel or the SIMD level.
"""

from __future__ import annotations

import cmath
import math
from functools import lru_cache, reduce
from itertools import permutations
from typing import Dict, List, Mapping, Sequence, Tuple

import numpy as np

from .trigform import (TrigForm, _d_terms, _normal_key, _wedge_terms,
                       nan_max)

Key = Tuple[Tuple[int, ...], Tuple[int, ...]]


class LieValuedForm:
    """A degree-p su(2)-valued form: sum of x * e^{i k.x} dx_I, each x a
    complex 3-vector in the basis of `su2_basis`."""

    __slots__ = ("ambient_dim", "degree", "terms")

    def __init__(self, ambient_dim: int, degree: int,
                 terms: Mapping[Key, np.ndarray] | None = None):
        self.ambient_dim = ambient_dim
        self.degree = degree
        clean: Dict[Key, np.ndarray] = {}
        if terms:
            for (freq, axes), X in terms.items():
                X = np.asarray(X, dtype=complex)
                if X.shape != (3,):
                    raise ValueError("an su(2) coefficient is a 3-vector")
                if not np.count_nonzero(X):
                    continue
                key = _normal_key(ambient_dim, degree, freq, axes)
                clean[key] = clean[key] + X if key in clean else X
        # a NaN entry counts as nonzero, which a magnitude test would drop;
        # count_nonzero gives any()'s verdict at a third of its cost
        self.terms = {k: v for k, v in clean.items() if np.count_nonzero(v)}

    @staticmethod
    def _trusted(ambient_dim: int, degree: int,
                 terms: Mapping[Key, np.ndarray]) -> "LieValuedForm":
        """Build from terms already in normal form; only all-zero vectors
        drop (a NaN entry is kept, as in __init__).  For the library's own
        kernels, which must guarantee what __init__ would check: keys as
        `_normal_key` returns them, values complex arrays of shape (3,)."""
        self = object.__new__(LieValuedForm)
        self.ambient_dim = ambient_dim
        self.degree = degree
        self.terms = {k: v for k, v in terms.items() if np.count_nonzero(v)}
        return self

    @staticmethod
    def zero(ambient_dim: int, degree: int) -> "LieValuedForm":
        return LieValuedForm._trusted(ambient_dim, degree, {})

    # -- linear structure --------------------------------------------------

    def __add__(self, other: "LieValuedForm") -> "LieValuedForm":
        if (self.ambient_dim, self.degree) != (other.ambient_dim,
                                               other.degree):
            raise ValueError("ambient dimension or degree mismatch")
        out = dict(self.terms)
        for k, v in other.terms.items():
            out[k] = out[k] + v if k in out else v
        return LieValuedForm._trusted(self.ambient_dim, self.degree, out)

    def __sub__(self, other: "LieValuedForm") -> "LieValuedForm":
        return self + (-1.0) * other

    def __rmul__(self, scalar: complex) -> "LieValuedForm":
        return LieValuedForm._trusted(
            self.ambient_dim, self.degree,
            {k: scalar * v for k, v in self.terms.items()})

    __mul__ = __rmul__

    def max_abs(self) -> float:
        # Python's abs: numpy's complex abs differs in the last bit by CPU
        return reduce(nan_max, (abs(c) for v in self.terms.values()
                                for c in v.tolist()), 0.0)

    # -- calculus ----------------------------------------------------------

    def d(self) -> "LieValuedForm":
        if self.degree >= self.ambient_dim:
            return LieValuedForm.zero(self.ambient_dim, self.degree)
        return LieValuedForm._trusted(self.ambient_dim, self.degree + 1,
                                      _d_terms(self.terms))

    def evaluate(self, x: Sequence[float],
                 vectors: Sequence[Sequence[float]]) -> np.ndarray:
        """Evaluate the p-form on p tangent vectors at the point x, in Python
        arithmetic: per term, phase * (minor of the vectors) * coefficient."""
        total = [0j] * 3
        for (freq, axes), X in self.terms.items():
            scale = cmath.exp(1j * sum(k * c for k, c in zip(freq, x))) * _det(
                [[v[a] for a in axes] for v in vectors])
            total = [t + scale * c for t, c in zip(total, X.tolist())]
        return np.array(total)


def _det(rows: List[List[float]]) -> float:
    """The determinant of p rows of p floats along the first row (p = 0: 1)."""
    return sum((-1) ** j * rows[0][j] * _det([r[:j] + r[j + 1:]
                                               for r in rows[1:]])
               for j in range(len(rows))) if rows else 1.0


def _times(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """x * y of complex arrays, elementwise, as float parts on a last axis."""
    return np.stack((x.real * y.real - x.imag * y.imag,
                     x.real * y.imag + x.imag * y.real), axis=-1)


def _bracket(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """[x, y] = -(x × y) of stacked 3-vectors: component c is
    x_b y_a - x_a y_b for (a, b, c) cyclic, as [e_a, e_b] = -eps_abc e_c."""
    def xy(a, b):
        return _times(x[:, a], y[:, b])

    return np.stack((xy(2, 1) - xy(1, 2), xy(0, 2) - xy(2, 0),
                     xy(1, 0) - xy(0, 1)), axis=1).view(complex)[..., 0]


def _pairing(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """<x, y> = (x . y) / 2 of stacked 3-vectors, summed in axis order."""
    dot = (_times(x[:, 0], y[:, 0]) + _times(x[:, 1], y[:, 1])
           + _times(x[:, 2], y[:, 2]))
    return (0.5 * dot).view(complex)[:, 0]


def graded_bracket(a: LieValuedForm, b: LieValuedForm) -> LieValuedForm:
    """[X alpha, Y beta] = [X, Y] (alpha ^ beta), extended bilinearly."""
    if a.ambient_dim != b.ambient_dim:
        raise ValueError("mismatched forms")
    deg = a.degree + b.degree
    if deg > a.ambient_dim:      # forced repeated axes: identically zero
        return LieValuedForm.zero(a.ambient_dim, a.ambient_dim)
    return LieValuedForm._trusted(a.ambient_dim, deg,
                                  _wedge_terms(a.terms, b.terms, _bracket))


def pairing(a: LieValuedForm, b: LieValuedForm) -> TrigForm:
    """<X alpha, Y beta> = -tr(XY) (alpha ^ beta)."""
    if a.ambient_dim != b.ambient_dim:
        raise ValueError("mismatched forms")
    deg = a.degree + b.degree
    if deg > a.ambient_dim:
        return TrigForm.zero(a.ambient_dim, a.ambient_dim)
    return TrigForm._trusted(a.ambient_dim, deg,
                             _wedge_terms(a.terms, b.terms, _pairing))


@lru_cache(maxsize=1)
def _d_and_square(A: LieValuedForm) -> Tuple[LieValuedForm, LieValuedForm]:
    """dA and [A, A] of the connection last asked about: curvature(A) and
    cs_form(A) of one A build them once."""
    if A.degree != 1:
        raise ValueError("connection must be a 1-form")
    return A.d(), graded_bracket(A, A)


def curvature(A: LieValuedForm) -> LieValuedForm:
    """F = dA + (1/2)[A, A] for a degree-1 connection form."""
    dA, AA = _d_and_square(A)
    return dA + 0.5 * AA


def cs_form(A: LieValuedForm) -> TrigForm:
    """CS_A = <A, dA + (1/3)[A, A]>."""
    dA, AA = _d_and_square(A)
    return pairing(A, dA + (1.0 / 3.0) * AA)


# ---------------------------------------------------------------------------
# gauge maps


class GaugeFactor:
    """U diag(e^{i w (m.x)}, e^{-i w (m.x)}) U^dagger = U exp(2 w (m.x) e_3)
    U^dagger for a constant U in SU(2), held as ad = Ad(U), with
    U e_a U^dagger = sum_b ad[b, a] e_b, the weight w and the frequency m."""

    def __init__(self, ad: np.ndarray, w: int, freq: Sequence[int]):
        self.ad = np.array(ad, dtype=float)
        self.w = int(w)
        self.freq = tuple(int(f) for f in freq)
        if self.ad.shape != (3, 3):
            raise ValueError("Ad(U) must be a 3 x 3 matrix")


class GaugeMap:
    """An ordered product of gauge factors t = f1 f2 ... fm on T^n, n the
    length of the factors' frequency vectors."""

    def __init__(self, factors: Sequence[GaugeFactor]):
        self.factors = list(factors)
        if not factors:
            raise ValueError("need at least one factor")
        self.ambient_dim = len(factors[0].freq)
        if any(len(f.freq) != self.ambient_dim for f in factors):
            raise ValueError("factor frequency length mismatch")

    def maurer_cartan(self) -> LieValuedForm:
        """t^{-1} dt as a trig-polynomial 1-form."""
        mc = LieValuedForm.zero(self.ambient_dim, 1)
        for f in self.factors:
            mc = _conjugate_by_factor(mc, f) + _factor_mc(f, self.ambient_dim)
        return mc

    def conjugate(self, form: LieValuedForm) -> LieValuedForm:
        """t^{-1} (form) t."""
        if form.ambient_dim != self.ambient_dim:
            raise ValueError("form and gauge map ambient dimension mismatch")
        return reduce(_conjugate_by_factor, self.factors, form)


def _factor_mc(f: GaugeFactor, ambient_dim: int) -> LieValuedForm:
    """f^{-1} df = U (2 w e_3) U^dagger d(m.x): the third column of ad
    times +2 w m_a on dx_a."""
    zero = (0,) * ambient_dim
    return LieValuedForm._trusted(ambient_dim, 1, {
        (zero, (a,)): (2 * f.w * ma * f.ad[:, 2]).astype(complex)
        for a, ma in enumerate(f.freq) if ma})


def _conjugate_by_factor(form: LieValuedForm, f: GaugeFactor) -> LieValuedForm:
    """f^{-1} (form) f: x -> R E R^T x, R = Ad(U), E = Ad(exp(-2w (m.x) e_3)).

    Ad(exp(s e_3)) rotates by -s about e_3 ([e_3, e_1] = -e_2).  So of
    y = R^T x, E keeps y_3 e_3 at frequency k and moves b (1, i, 0) and
    a (1, -i, 0), b = (y_1 - i y_2) / 2 and a = (y_1 + i y_2) / 2, to k - 2w m
    and k + 2w m.  All terms go as one stack on float parts; each part
    whose y_3, b or a is nonzero or NaN is rotated back by R and added at
    its frequency in (term, part) order."""
    if not form.terms:
        return form
    R = f.ad
    x = np.array(list(form.terms.values())).view(float).reshape(-1, 3, 2)
    y1, y2, y3 = [R[0, c] * x[:, 0] + R[1, c] * x[:, 1] + R[2, c] * x[:, 2]
                  for c in range(3)]
    iy2 = np.stack((-y2[:, 1], y2[:, 0]), axis=-1)
    b, a = 0.5 * (y1 - iy2), 0.5 * (y1 + iy2)
    turn = np.ascontiguousarray(R[:, :2]).view(complex)[:, 0]   # R (1, i, 0)
    parts = np.stack((R[:, 2, None] * y3[:, None],
                      _times(b.view(complex), turn),
                      _times(a.view(complex), turn.conj())), axis=1)
    keep = np.stack([(p != 0).any(axis=1) for p in (y3, b, a)], axis=1)
    shifts = (0, -2 * f.w, 2 * f.w)
    keys = list(form.terms)
    out: Dict[Key, np.ndarray] = {}
    for t, s in np.argwhere(keep).tolist():
        freq, axes = keys[t]
        key = (tuple(k + shifts[s] * mf for k, mf in zip(freq, f.freq)), axes)
        out[key] = out[key] + parts[t, s] if key in out else parts[t, s]
    return LieValuedForm._trusted(form.ambient_dim, form.degree, {
        k: v.view(complex)[:, 0] for k, v in out.items()})


def gauge_transform(A: LieValuedForm, t: GaugeMap) -> LieValuedForm:
    """psi* A = t^{-1} A t + t^{-1} dt."""
    return t.conjugate(A) + t.maurer_cartan()


def gauge_variation_defect(A: LieValuedForm, t: GaugeMap, *,
                           cs_A: TrigForm | None = None,
                           theta: LieValuedForm | None = None,
                           theta_bracket: LieValuedForm | None = None
                           ) -> float:
    """Residual of CS(psi*A) - CS(A) = d<t^{-1}At, theta> + t*W_G, with
    theta = t^{-1}dt and t*W_G = -(1/6) <theta, [theta, theta]>.

    A caller that already holds cs_form(A), t.maurer_cartan() or
    [theta, theta] may pass it, to be used as is; each one left None is
    computed here."""
    if theta is None:
        theta = t.maurer_cartan()
    if cs_A is None:
        cs_A = cs_form(A)
    if theta_bracket is None:
        theta_bracket = graded_bracket(theta, theta)
    conj = t.conjugate(A)
    lhs = cs_form(conj + theta) - cs_A
    wg = (-1.0 / 6.0) * pairing(theta, theta_bracket)
    rhs = pairing(conj, theta).d() + wg
    return (lhs - rhs).max_abs()


# ---------------------------------------------------------------------------
# the shuffle-sum oracle for the graded bracket


def bracket_oracle_value(a: LieValuedForm, b: LieValuedForm,
                         x: Sequence[float],
                         vectors: Sequence[Sequence[float]]) -> np.ndarray:
    """[a, b](v_1..v_{p+q}) via the full permutation sum with 1/(p! q!).

    [a,b](v_1,...,v_{p+q}) = (1/(p! q!)) sum_{sigma} sign(sigma)
        [a(v_{sigma(1)},...,v_{sigma(p)}), b(v_{sigma(p+1)},...)].

    The commutators are of the 2 x 2 matrices sum_a x_a e_a, as object
    arrays of Python complex numbers, and the sum M is read back as
    x_c = -2 tr(e_c M): no structure constant is read, so a wrong one in
    the kernel shows.
    """
    basis = [e.astype(object) for e in su2_basis()]
    p, q = a.degree, b.degree
    total = 0
    for perm in permutations(range(p + q)):
        A, B = (sum(c * e for c, e in zip(form.evaluate(
                    x, [vectors[i] for i in vs]).tolist(), basis))
                for form, vs in ((a, perm[:p]), (b, perm[p:])))
        total = total + _perm_sign(perm) * (A.dot(B) - B.dot(A))
    scale = -2.0 / (math.factorial(p) * math.factorial(q))
    return np.array([scale * (e * total.T).sum() for e in basis],
                    dtype=complex)


def _perm_sign(perm: Sequence[int]) -> int:
    # counts cycles on purpose: the oracle must not share the kernel's sign
    sign = 1
    seen = [False] * len(perm)
    for i in range(len(perm)):
        if seen[i]:
            continue
        j, length = i, 0
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


# -- convenient algebra bases ----------------------------------------------

def su2_basis() -> List[np.ndarray]:
    """i/2 times the Pauli matrices, the basis e_a of the coefficients."""
    s1 = np.array([[0, 1], [1, 0]], dtype=complex)
    s2 = np.array([[0, -1j], [1j, 0]], dtype=complex)
    s3 = np.array([[1, 0], [0, -1]], dtype=complex)
    return [0.5j * s1, 0.5j * s2, 0.5j * s3]
