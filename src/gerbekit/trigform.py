"""Differential forms on tori with finite trigonometric-polynomial coefficients.

Every coefficient is a finite sum of complex exponentials c * e^{i k.x} with
integer frequency vector k, so exterior derivative, wedge product and
integration over cells all have closed forms.
"""

from __future__ import annotations

import cmath
import math
import operator
from functools import lru_cache, reduce
from typing import Callable, Dict, Iterable, Mapping, Sequence, Tuple

import numpy as np

Key = Tuple[Tuple[int, ...], Tuple[int, ...]]  # (frequency, axes)

_DROP = 0.0  # coefficients exactly equal to zero are dropped


def nan_max(a: float, b: float) -> float:
    """max(a, b), except that a NaN in either argument is returned.

    The builtin keeps its first argument unless the second compares
    greater, so max(0.0, nan) == 0.0 would let a NaN defect pass.
    """
    return b if b > a or b != b else a


def _axes_sign(axes: Sequence[int]):
    """Sort an axis tuple, returning (sorted_axes, parity_sign) or None if repeated."""
    axes = list(axes)
    if len(set(axes)) != len(axes):
        return None
    sign = 1
    # insertion sort, counting swaps
    for i in range(1, len(axes)):
        j = i
        while j > 0 and axes[j - 1] > axes[j]:
            axes[j - 1], axes[j] = axes[j], axes[j - 1]
            sign = -sign
            j -= 1
    return tuple(axes), sign


@lru_cache(maxsize=4096)
def _normal_key(ambient_dim: int, degree: int, freq, axes) -> Key:
    """The term key (freq, axes) as int tuples, checked for a degree-p form
    on T^n: integer entries, n frequencies, p axes strictly increasing in
    [0, n).  Both form classes check their terms here, memoised on the raw
    key: equal raw keys (1, 1.0, True) normalise alike, and a key that
    raises is not stored, so it raises wherever it occurs."""
    key = (tuple(map(int, freq)), tuple(map(int, axes)))
    if key != (freq, axes):
        raise ValueError("frequencies and axes must be integers")
    freq, axes = key
    if len(freq) != ambient_dim:
        raise ValueError("frequency length != ambient_dim")
    if len(axes) != degree:
        raise ValueError("axes length != degree")
    if any(not (0 <= a < ambient_dim) for a in axes):
        raise ValueError("axis out of range")
    if any(axes[i] >= axes[i + 1] for i in range(len(axes) - 1)):
        raise ValueError("axes must be strictly increasing")
    return key


def _d_terms(terms: Mapping[Key, object]) -> Dict[Key, object]:
    """Terms of the exterior derivative of sum c e^{i k.x} dx_I.

    The coefficients c may be Python complex numbers or numpy matrices.
    """
    out: Dict[Key, object] = {}
    signs: Dict[Tuple[int, Tuple[int, ...]], object] = {}    # (j, axes) -> sort
    for (freq, axes), c in terms.items():
        for j, kj in enumerate(freq):
            if kj == 0 or j in axes:
                continue
            if (j, axes) not in signs:
                signs[j, axes] = _axes_sign((j,) + axes)
            new_axes, sign = signs[j, axes]
            key = (freq, new_axes)
            out[key] = out.get(key, 0.0) + 1j * kj * sign * c
    return out


def _wedge_terms(left: Mapping[Key, object], right: Mapping[Key, object],
                 times: Callable[[np.ndarray, np.ndarray], np.ndarray]
                 ) -> Dict[Key, object]:
    """Terms of the wedge of two term sets, coefficients combined by `times`.

    Each pair of terms (left outer, right inner) contributes
    times(sign * c1, c2) at the summed frequency and the sorted union of
    the axes; pairs sharing an axis drop.  The pairs are walked as arrays.
    Each pair of distinct axis sets is sorted once, into a code: -1 for a
    shared axis, else 2 * (id of the sorted axes) + (sign < 0).  Gathered
    over the grid of terms, its nonnegative entries are the surviving
    pairs in pair order.  Their keys, (axes id, summed frequency), are
    numbered by first appearance in one dict, for frequencies of any width
    below 2**62, and `times` is called once, on the stacked signed left and
    right coefficients of every surviving pair, returning their stacked
    products.  These are summed in pair order into a zeroed
    accumulator, so each key reads 0.0 + v1 + v2 + ..., keys in order of
    first appearance: the bits of a per-pair loop that adds each product to
    its key's running sum, for scalar and 2 x 2 coefficients NaNs
    included.  Frequencies are summed in int64 (OverflowError from 2**62
    on).  Scalar sums come back as Python complex numbers, matrix sums as
    views into the accumulator, which is made read-only.
    """
    left_axes: Dict[Tuple[int, ...], int] = {}
    right_axes: Dict[Tuple[int, ...], int] = {}
    li = [left_axes.setdefault(a, len(left_axes)) for _, a in left]
    ri = [right_axes.setdefault(a, len(right_axes)) for _, a in right]
    out_axes: Dict[Tuple[int, ...], int] = {}
    table = np.full((len(left_axes), len(right_axes)), -1)
    for a1, i in left_axes.items():
        for a2, j in right_axes.items():
            ss = _axes_sign(a1 + a2)
            if ss is not None:
                axes_id = out_axes.setdefault(ss[0], len(out_axes))
                table[i, j] = 2 * axes_id + (ss[1] < 0)
    code = table.take(li, axis=0).take(ri, axis=1)
    I, J = np.nonzero(code >= 0)
    if not len(I):
        return {}
    code = code[I, J]
    L = len(left)
    freqs = np.array([f for f, _ in left] + [f for f, _ in right],
                     dtype=np.int64).reshape(L + len(right), -1)
    if int(abs(freqs).max(initial=0)) >> 62:
        raise OverflowError("wedge frequencies must lie below 2**62")
    F = freqs[I] + freqs[L + J]
    slot_of: Dict[Tuple[int, ...], int] = {}
    slots = np.array([slot_of.setdefault(k, len(slot_of))
                      for k in zip((code >> 1).tolist(), *F.T.tolist())])
    # row i holds +1 * c_i and row L + i holds -1 * c_i, each signed as the
    # pair's own sign * c1 would be
    vals = np.array(list(left.values()), dtype=complex)
    products = times(np.concatenate((1 * vals, -1 * vals))[L * (code & 1) + I],
                     np.array(list(right.values()), dtype=complex)[J])
    acc = np.zeros((len(slot_of),) + products.shape[1:], dtype=complex)
    # summed as float pairs: of two NaNs, numpy's complex add.at keeps the
    # second in the imaginary part, Python's complex + keeps the first
    width = 2 * products[0].size
    flat = (slots * width)[:, None] + np.arange(width)
    np.add.at(acc.reshape(-1).view(float), flat.reshape(-1),
              products.reshape(-1).view(float))
    acc.flags.writeable = False
    axes_of = list(out_axes)
    keys = [(k[1:], axes_of[k[0]]) for k in slot_of]
    return dict(zip(keys, acc.tolist() if acc.ndim == 1 else acc))


def _python_products(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """The pairwise products of two complex vectors, each a Python complex
    product: numpy's complex multiply may fuse a multiply-add and differ
    from Python's in the last bit."""
    return np.array(list(map(operator.mul, left.tolist(), right.tolist())),
                    dtype=complex)


class TrigForm:
    """A degree-p form on T^n with trig-polynomial coefficients."""

    __slots__ = ("ambient_dim", "degree", "terms")

    def __init__(self, ambient_dim: int, degree: int,
                 terms: Mapping[Key, complex] | None = None):
        if not (0 <= degree <= ambient_dim):
            raise ValueError(f"degree {degree} out of range for T^{ambient_dim}")
        self.ambient_dim = ambient_dim
        self.degree = degree
        self.terms = _checked_terms(ambient_dim, degree, terms or {})

    @staticmethod
    def _trusted(ambient_dim: int, degree: int,
                 terms: Mapping[Key, complex]) -> "TrigForm":
        """Build from terms already in normal form; only exact zeros drop,
        and a dict with none is copied whole.

        For the library's own kernels, which must guarantee what __init__
        would check: keys are (freq, axes) int tuples with
        len(freq) == ambient_dim, axes strictly increasing in
        [0, ambient_dim) with len(axes) == degree, and values Python complex.
        """
        self = object.__new__(TrigForm)
        self.ambient_dim = ambient_dim
        self.degree = degree
        self.terms = (dict(terms) if _DROP not in terms.values() else
                      {k: v for k, v in terms.items() if v != _DROP})
        return self

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(ambient_dim: int, degree: int) -> "TrigForm":
        if not (0 <= degree <= ambient_dim):
            raise ValueError(f"degree {degree} out of range for T^{ambient_dim}")
        return TrigForm._trusted(ambient_dim, degree, {})

    @staticmethod
    def constant(ambient_dim: int, value: complex) -> "TrigForm":
        return TrigForm(ambient_dim, 0, {((0,) * ambient_dim, ()): value})

    @staticmethod
    def monomial(ambient_dim: int, freq: Sequence[int], axes: Sequence[int],
                 coeff: complex = 1.0) -> "TrigForm":
        return TrigForm(ambient_dim, len(axes),
                        {(tuple(freq), tuple(axes)): coeff})

    # -- linear structure --------------------------------------------------

    def __add__(self, other: "TrigForm") -> "TrigForm":
        return signed_sum(self, ((0, other),))

    def __sub__(self, other: "TrigForm") -> "TrigForm":
        return signed_sum(self, ((1, other),))

    def __neg__(self) -> "TrigForm":
        return (-1.0) * self

    def __rmul__(self, scalar: complex) -> "TrigForm":
        if type(scalar) not in (int, float, complex):
            scalar = complex(scalar)    # keep numpy scalars out of the terms
        return TrigForm._trusted(self.ambient_dim, self.degree,
                                 {k: scalar * c for k, c in self.terms.items()})

    def __mul__(self, scalar: complex) -> "TrigForm":
        return self.__rmul__(scalar)

    # -- calculus ----------------------------------------------------------

    def d(self) -> "TrigForm":
        """Exterior derivative; the (n+1)-degree overflow is the zero form."""
        n = self.ambient_dim
        if self.degree == n:
            # top forms are closed; keep degree at n so callers may still add
            return TrigForm(n, n)
        return TrigForm._trusted(n, self.degree + 1, _d_terms(self.terms))

    def wedge(self, other: "TrigForm") -> "TrigForm":
        if self.ambient_dim != other.ambient_dim:
            raise ValueError("ambient dimension mismatch")
        p, q = self.degree, other.degree
        if p + q > self.ambient_dim:
            raise ValueError("wedge degree exceeds ambient dimension")
        return TrigForm._trusted(self.ambient_dim, p + q,
                                 _wedge_terms(self.terms, other.terms,
                                              _python_products))

    # -- integration -------------------------------------------------------

    def fiber_integrate_global(self, n_base: int) -> "TrigForm":
        """Integrate over the fiber torus of the trailing axes n_base..n-1.

        Keeps the terms with zero frequency on, and presence of, every fiber
        axis; sorted axes put those last, so they strip with sign +1.  The
        coefficients are multiplied by (2 pi)^d, d the fiber dimension.
        """
        d = self.ambient_dim - n_base
        if self.degree < d:
            return TrigForm(n_base, 0)
        fiber = tuple(range(n_base, self.ambient_dim))
        p = self.degree - d
        out: Dict[Key, complex] = {}
        vol = (2 * math.pi) ** d
        for (freq, axes), c in self.terms.items():
            if any(freq[n_base:]) or axes[p:] != fiber:
                continue
            key = (freq[:n_base], axes[:p])
            out[key] = out.get(key, 0.0) + vol * c
        return TrigForm._trusted(n_base, p, out)

    def integrate_cell(self, cell) -> complex:
        """Integrate over an oriented point/segment/polygon in the torus,
        or over a chain of such cells (covers.Chain)."""
        if self.degree != cell.dim:
            raise ValueError("form degree must equal cell dimension")
        total = 0.0 + 0.0j
        integral = cell.integral
        for (freq, axes), c in self.terms.items():
            total += c * integral(freq, axes)
        return total

    # -- misc ----------------------------------------------------------------

    def max_abs(self) -> float:
        return reduce(nan_max, (abs(c) for c in self.terms.values()), 0.0)

    def is_zero(self, tol: float = 0.0) -> bool:
        return self.max_abs() <= tol

    def __repr__(self):
        return (f"TrigForm(T^{self.ambient_dim}, deg {self.degree}, "
                f"{len(self.terms)} terms)")

    def to_records(self) -> list:
        return [{"freq": list(freq), "axes": list(axes),
                 "re": c.real, "im": c.imag}
                for (freq, axes), c in sorted(self.terms.items())]

    @staticmethod
    def from_records(ambient_dim: int, degree: int, records: Iterable[Mapping]) -> "TrigForm":
        """The inverse of to_records, checking its terms as __init__ does."""
        terms: Dict = {}
        for r in records:
            key = (tuple(r["freq"]), tuple(r["axes"]))
            terms[key] = terms.get(key, 0.0) + complex(r["re"], r["im"])
        return TrigForm(ambient_dim, degree, terms)


def _checked_terms(ambient_dim: int, degree: int,
                   terms: Mapping) -> Dict[Key, complex]:
    """The public constructor's terms: each coefficient as a Python complex,
    an exact zero dropped before its key is checked, the rest summed in
    order under _normal_key, and the sums that are exactly zero dropped."""
    clean: Dict[Key, complex] = {}
    for (freq, axes), c in terms.items():
        c = complex(c)
        if c == _DROP:
            continue
        key = _normal_key(ambient_dim, degree, freq, axes)
        clean[key] = clean.get(key, 0.0) + c
    return {k: v for k, v in clean.items() if v != _DROP}


def signed_sum(total, pairs):
    """total + sum of (-1)^odd * term over the (odd, term) pairs, in order.

    The one kernel behind every sum of forms: a TrigForm total adds each
    term's coefficients into one dict.  A key whose running sum is exactly
    zero drops at once (a NaN stays), so a key that cancels and comes back
    is appended anew: keys, values and order are those of the chain
    total + t1 - t2 + ... of binary sums, each dropping its zeros.  An odd
    term adds -1.0 * c, as adding (-1.0) * term would; odd and even terms
    run their own loop, so no term tests its sign.  Any other total (the
    integer row's ints, a holonomy's complex number) folds with plain + and
    -.
    """
    if type(total) is not TrigForm:
        for odd, term in pairs:
            total = total - term if odd else total + term
        return total
    out = dict(total.terms)
    get, pop = out.get, out.pop
    for odd, term in pairs:
        if (term.ambient_dim, term.degree) != (total.ambient_dim,
                                               total.degree):
            raise ValueError("ambient dimension or degree mismatch")
        if odd:
            for k, c in term.terms.items():
                v = get(k, 0.0) + -1.0 * c
                if v != _DROP:
                    out[k] = v
                else:
                    pop(k, None)
        else:
            for k, c in term.terms.items():
                v = get(k, 0.0) + c
                if v != _DROP:
                    out[k] = v
                else:
                    pop(k, None)
    # out holds no exact zero, so _trusted's filtering pass is skipped
    form = object.__new__(TrigForm)
    form.ambient_dim, form.degree, form.terms = (total.ambient_dim,
                                                 total.degree, out)
    return form


# ---------------------------------------------------------------------------
# closed-form monomial integrals over cells


def _phi(t: float) -> complex:
    """int_0^1 e^{i t s} ds."""
    if abs(t) < 1e-6:
        # series: 1 + it/2 - t^2/6 - i t^3/24 + t^4/120
        return (1.0 + 1j * t / 2 - t * t / 6 - 1j * t ** 3 / 24 + t ** 4 / 120)
    return (cmath.exp(1j * t) - 1.0) / (1j * t)


def _psi(t: float) -> complex:
    """int_0^1 s e^{i t s} ds."""
    if abs(t) < 1e-6:
        return (0.5 + 1j * t / 3 - t * t / 8 - 1j * t ** 3 / 30)
    return (cmath.exp(1j * t) - _phi(t)) / (1j * t)


def _simplex_exp(alpha: float, beta: float) -> complex:
    """int over {u,v>=0, u+v<=1} of e^{i(alpha u + beta v)} du dv."""
    if abs(alpha - beta) < 1e-9:
        return _psi(0.5 * (alpha + beta))
    return (_phi(alpha) - _phi(beta)) / (1j * (alpha - beta))


def _dot(freq: Sequence[int], point: Sequence[float]) -> float:
    """freq . point, summed left to right in Python floats: the products of
    frequencies |k| <= 2 with floats are exact, so the sum is np.dot's to
    the bit there."""
    total = freq[0] * point[0]
    for k, x in zip(freq[1:], point[1:]):
        total += k * x
    return total


def _integrate_monomial(freq: Tuple[int, ...], axes: Tuple[int, ...],
                        cell) -> complex:
    """The closed-form integral of e^{i freq.x} dx_axes over one cell.

    The cell's vertices are tuples of Python floats, so the result is a
    Python complex, which fiber integration stores as a term unchecked.  A
    polygon is a fan from its first vertex: each edge vector from it is
    built once, and so is the phase e^{i freq.P0}.
    """
    verts = cell.vertices
    if cell.dim == 0:
        return cell.sign * cmath.exp(1j * _dot(freq, verts[0]))
    if cell.dim == 1:
        P, Q = verts
        E = [q - p for p, q in zip(P, Q)]
        return (E[axes[0]] * cmath.exp(1j * _dot(freq, P))
                * _phi(_dot(freq, E)))
    j1, j2 = axes
    P0 = verts[0]
    phase = cmath.exp(1j * _dot(freq, P0))
    edges = [[v - p for p, v in zip(P0, V)] for V in verts[1:]]
    total = 0.0 + 0.0j
    for E1, E2 in zip(edges, edges[1:]):
        jac = E1[j1] * E2[j2] - E1[j2] * E2[j1]
        if jac == 0.0:
            continue
        total += jac * phase * _simplex_exp(_dot(freq, E1), _dot(freq, E2))
    return total
