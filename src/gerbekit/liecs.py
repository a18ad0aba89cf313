"""Lie-algebra-valued trig-polynomial forms on tori: graded bracket,
invariant pairing, curvature, Maurer-Cartan forms of closed-form gauge maps,
and the Chern-Simons 3-form with its gauge-variation identity.

Matrix coefficients live in a fixed matrix algebra (su(2) in the suites and
tests); the invariant pairing is -trace in the defining representation.
"""

from __future__ import annotations

import cmath
import math
from functools import reduce
from typing import Dict, List, Mapping, Sequence, Tuple

import numpy as np

from .trigform import (TrigForm, _d_terms, _normal_key, _wedge_terms,
                       nan_max)

Key = Tuple[Tuple[int, ...], Tuple[int, ...]]


class LieValuedForm:
    """A degree-p form with matrix coefficients: sum of X * e^{i k.x} dx_I."""

    __slots__ = ("ambient_dim", "degree", "matrix_dim", "terms")

    def __init__(self, ambient_dim: int, degree: int, matrix_dim: int,
                 terms: Mapping[Key, np.ndarray] | None = None):
        self.ambient_dim = ambient_dim
        self.degree = degree
        self.matrix_dim = matrix_dim
        clean: Dict[Key, np.ndarray] = {}
        if terms:
            for (freq, axes), X in terms.items():
                X = np.asarray(X, dtype=complex)
                if X.shape != (matrix_dim, matrix_dim):
                    raise ValueError("matrix coefficient shape mismatch")
                if not np.count_nonzero(X):
                    continue
                key = _normal_key(ambient_dim, degree, freq, axes)
                clean[key] = clean[key] + X if key in clean else X
        # a NaN entry counts as nonzero, which a magnitude test would drop;
        # count_nonzero gives any()'s verdict at a third of its cost
        self.terms = {k: v for k, v in clean.items() if np.count_nonzero(v)}

    @staticmethod
    def _trusted(ambient_dim: int, degree: int, matrix_dim: int,
                 terms: Mapping[Key, np.ndarray]) -> "LieValuedForm":
        """Build from terms already in normal form; only all-zero matrices
        drop (a NaN entry is kept, as in __init__).

        For the library's own kernels, which must guarantee what __init__
        would check: keys are (freq, axes) int tuples with
        len(freq) == ambient_dim, axes strictly increasing in
        [0, ambient_dim) with len(axes) == degree, and values complex
        (matrix_dim, matrix_dim) arrays.
        """
        self = object.__new__(LieValuedForm)
        self.ambient_dim = ambient_dim
        self.degree = degree
        self.matrix_dim = matrix_dim
        self.terms = {k: v for k, v in terms.items() if np.count_nonzero(v)}
        return self

    @staticmethod
    def zero(ambient_dim: int, degree: int, matrix_dim: int) -> "LieValuedForm":
        return LieValuedForm._trusted(ambient_dim, degree, matrix_dim, {})

    # -- linear structure --------------------------------------------------

    def __add__(self, other: "LieValuedForm") -> "LieValuedForm":
        if (self.ambient_dim, self.degree, self.matrix_dim) != (
                other.ambient_dim, other.degree, other.matrix_dim):
            raise ValueError("ambient dimension, degree or size mismatch")
        out = dict(self.terms)
        for k, v in other.terms.items():
            out[k] = out[k] + v if k in out else v
        return LieValuedForm._trusted(self.ambient_dim, self.degree,
                                      self.matrix_dim, out)

    def __sub__(self, other: "LieValuedForm") -> "LieValuedForm":
        return self + (-1.0) * other

    def __rmul__(self, scalar: complex) -> "LieValuedForm":
        return LieValuedForm._trusted(
            self.ambient_dim, self.degree, self.matrix_dim,
            {k: scalar * v for k, v in self.terms.items()})

    __mul__ = __rmul__

    def max_abs(self) -> float:
        return reduce(nan_max, (float(np.max(np.abs(v)))
                                for v in self.terms.values()), 0.0)

    # -- calculus ----------------------------------------------------------

    def d(self) -> "LieValuedForm":
        if self.degree >= self.ambient_dim:
            return LieValuedForm.zero(self.ambient_dim, self.degree,
                                      self.matrix_dim)
        return LieValuedForm._trusted(self.ambient_dim, self.degree + 1,
                                      self.matrix_dim, _d_terms(self.terms))

    def evaluate(self, x: Sequence[float],
                 vectors: Sequence[Sequence[float]]) -> np.ndarray:
        """Evaluate the p-form on p tangent vectors at the point x."""
        x = np.asarray(x, dtype=float)
        vs = [np.asarray(v, dtype=float) for v in vectors]
        total = np.zeros((self.matrix_dim, self.matrix_dim), dtype=complex)
        for (freq, axes), X in self.terms.items():
            phase = cmath.exp(1j * float(np.dot(freq, x)))
            if self.degree == 0:
                total += phase * X
            else:
                mat = np.array([[v[a] for a in axes] for v in vs])
                total += phase * np.linalg.det(mat) * X
        return total


def graded_bracket(a: LieValuedForm, b: LieValuedForm) -> LieValuedForm:
    """[X alpha, Y beta] = [X, Y] (alpha ^ beta), extended bilinearly."""
    if a.ambient_dim != b.ambient_dim or a.matrix_dim != b.matrix_dim:
        raise ValueError("mismatched forms")
    deg = a.degree + b.degree
    if deg > a.ambient_dim:      # forced repeated axes: identically zero
        return LieValuedForm.zero(a.ambient_dim, a.ambient_dim, a.matrix_dim)
    return LieValuedForm._trusted(a.ambient_dim, deg, a.matrix_dim,
                                  _wedge_terms(a.terms, b.terms,
                                               lambda X, Y: X @ Y - Y @ X))


def pairing(a: LieValuedForm, b: LieValuedForm) -> TrigForm:
    """<X alpha, Y beta> = -tr(XY) (alpha ^ beta)."""
    if a.ambient_dim != b.ambient_dim or a.matrix_dim != b.matrix_dim:
        raise ValueError("mismatched forms")
    deg = a.degree + b.degree
    if deg > a.ambient_dim:
        return TrigForm.zero(a.ambient_dim, a.ambient_dim)
    return TrigForm._trusted(a.ambient_dim, deg, _wedge_terms(
        a.terms, b.terms,
        lambda X, Y: -np.trace(X @ Y, axis1=-2, axis2=-1)))


def curvature(A: LieValuedForm) -> LieValuedForm:
    """F = dA + (1/2)[A, A] for a degree-1 connection form."""
    if A.degree != 1:
        raise ValueError("connection must be a 1-form")
    return A.d() + 0.5 * graded_bracket(A, A)


def cs_form(A: LieValuedForm) -> TrigForm:
    """CS_A = <A, dA + (1/3)[A, A]>."""
    if A.degree != 1:
        raise ValueError("connection must be a 1-form")
    inner = A.d() + (1.0 / 3.0) * graded_bracket(A, A)
    return pairing(A, inner)


# ---------------------------------------------------------------------------
# gauge maps


class GaugeFactor:
    """U diag(e^{i w_j (m.x)}) U^dagger for a constant unitary U."""

    def __init__(self, U: np.ndarray, weights: Sequence[int], freq: Sequence[int]):
        self.U = np.asarray(U, dtype=complex)
        self.weights = tuple(int(w) for w in weights)
        self.freq = tuple(int(f) for f in freq)
        if self.U.shape[0] != self.U.shape[1] or len(self.weights) != self.U.shape[0]:
            raise ValueError("shape mismatch")

    def value(self, x: Sequence[float]) -> np.ndarray:
        phase = float(np.dot(self.freq, x))
        D = np.diag([cmath.exp(1j * w * phase) for w in self.weights])
        return self.U @ D @ self.U.conj().T


class GaugeMap:
    """An ordered product of gauge factors t = f1 f2 ... fm on T^n, n the
    length of the factors' frequency vectors."""

    def __init__(self, factors: Sequence[GaugeFactor]):
        self.factors = list(factors)
        if not factors:
            raise ValueError("need at least one factor")
        self.matrix_dim = factors[0].U.shape[0]
        self.ambient_dim = len(factors[0].freq)
        if any(len(f.freq) != self.ambient_dim for f in factors):
            raise ValueError("factor frequency length mismatch")

    def value(self, x: Sequence[float]) -> np.ndarray:
        out = np.eye(self.matrix_dim, dtype=complex)
        for f in self.factors:
            out = out @ f.value(x)
        return out

    def maurer_cartan(self) -> LieValuedForm:
        """t^{-1} dt as a trig-polynomial 1-form."""
        mc = LieValuedForm.zero(self.ambient_dim, 1, self.matrix_dim)
        for f in self.factors:
            mc = _conjugate_by_factor(mc, f) + _factor_mc(f, self.ambient_dim)
        return mc

    def conjugate(self, form: LieValuedForm) -> LieValuedForm:
        """t^{-1} (form) t."""
        if form.ambient_dim != self.ambient_dim:
            raise ValueError("form and gauge map ambient dimension mismatch")
        out = form
        for f in self.factors:
            out = _conjugate_by_factor(out, f)
        return out


def _factor_mc(f: GaugeFactor, ambient_dim: int) -> LieValuedForm:
    """f^{-1} df = U diag(i w_j) U^dagger (m . dx)."""
    K = f.U @ np.diag([1j * w for w in f.weights]) @ f.U.conj().T
    zero = (0,) * ambient_dim
    return LieValuedForm._trusted(ambient_dim, 1, f.U.shape[0], {
        (zero, (a,)): ma * K for a, ma in enumerate(f.freq) if ma})


def _conjugate_by_factor(form: LieValuedForm, f: GaugeFactor) -> LieValuedForm:
    """f^{-1} (form) f; entries pick up phases e^{i (w_j - w_i)(m.x)}.

    All terms go through each step as one stack: B = U^dagger X U is split
    by the weight difference s = w_j - w_i of its entries (i, j), the shifts
    in order of first appearance; a part with an entry that is nonzero or
    NaN is conjugated back, U part U^dagger, and added at frequency k + s m
    in (term, shift) order.
    """
    m = form.matrix_dim
    Ud = f.U.conj().T
    w = np.array(f.weights)
    diff = w - w[:, None]
    shifts = list(dict.fromkeys(diff.ravel().tolist()))
    masks = diff == np.array(shifts)[:, None, None]
    B = Ud @ np.array(list(form.terms.values())).reshape(-1, m, m) @ f.U
    parts = np.where(masks, B[:, None], 0)
    keep = parts.any(axis=(2, 3))
    adds = f.U @ parts[keep] @ Ud
    keys = list(form.terms)
    out: Dict[Key, np.ndarray] = {}
    term_ids, shift_ids = np.nonzero(keep)
    for t, i, add in zip(term_ids.tolist(), shift_ids.tolist(), adds):
        freq, axes = keys[t]
        key = (tuple(k + shifts[i] * mf for k, mf in zip(freq, f.freq)), axes)
        out[key] = out[key] + add if key in out else add
    return LieValuedForm._trusted(form.ambient_dim, form.degree, m, out)


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
    """
    import itertools
    p, q = a.degree, b.degree
    n = p + q
    vs = [np.asarray(v, dtype=float) for v in vectors]
    total = np.zeros((a.matrix_dim, a.matrix_dim), dtype=complex)
    for perm in itertools.permutations(range(n)):
        sign = _perm_sign(perm)
        av = a.evaluate(x, [vs[i] for i in perm[:p]])
        bv = b.evaluate(x, [vs[i] for i in perm[p:]])
        total += sign * (av @ bv - bv @ av)
    return total / (math.factorial(p) * math.factorial(q))


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
    """i/2 times the Pauli matrices."""
    s1 = np.array([[0, 1], [1, 0]], dtype=complex)
    s2 = np.array([[0, -1j], [1j, 0]], dtype=complex)
    s3 = np.array([[1, 0], [0, -1]], dtype=complex)
    return [0.5j * s1, 0.5j * s2, 0.5j * s3]

