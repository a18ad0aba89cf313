"""Modular building blocks: Dedekind eta, the twisted theta function,
lattice theta series, the rank-16 character function, the group of
(tau, z) transformations, and the automorphy-factor families attached to
the character, determinant, adjoint and rho fibrations.

Conventions.  Points live on H x C^rank with z written in lattice-basis
coordinates; the pairing is (z, w) = z^T G w for the Gram matrix G.  A
group element is one normal form (m, w, t), a matrix of SL2(Z), an
isometry and a translation; products reduce to it in exact integers, and
it acts and factors part by part.  Square roots take the principal branch.  The eta multiplier of (a, b; c, d)
in SL2(Z) is exactly e^{pi i e}: for c > 0, e = (a + d)/(12c) - s(d, c) - 1/4
with s the Dedekind sum; for c = 0, e = b/12 (d = 1) or -b/12 - 1/2 (d = -1);
for c < 0, e(M) = e(-M) + 1/2 (Rademacher-Grosswald, Dedekind Sums, Carus
Monograph 16, 1972; Apostol, Modular Functions and Dirichlet Series in
Number Theory, ch. 3).
"""

from __future__ import annotations

import cmath
import functools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .lattice import IntegralLattice, _half_walk, _read_back, builtin

TAU_MIN = 0.05
EXTRA_MULTIPLIER_TOL = 1e-8  # spread of the measured extra multiplier
TWO_PI_I = 2j * math.pi
PI_I = 1j * math.pi


def _check_tau(tau: complex) -> None:
    if not cmath.isfinite(tau):
        raise ValueError(f"tau = {tau} is not finite")
    if tau.imag < TAU_MIN:
        raise ValueError(f"Im tau = {tau.imag} below the admissible minimum {TAU_MIN}")


# ---------------------------------------------------------------------------
# eta and its multiplier


def _eta_with_terms(tau: complex, tol: float = 1e-12) -> Tuple[complex, int]:
    _check_tau(tau)
    if tol <= 0:
        raise ValueError("tol must be positive")
    q = cmath.exp(TWO_PI_I * tau)
    aq = abs(q)
    # tail of log: sum_{m>M} |q|^m / (1 - |q|) < tol; above Im tau of
    # about 118.6 q underflows to 0, and every factor is exactly 1
    M = max(int(math.log(tol * (1 - aq)) / math.log(aq)) + 2, 4) if aq else 4
    prod = 1.0 + 0j
    qm = 1.0 + 0j
    for _ in range(M):
        qm *= q
        prod *= 1 - qm
    return cmath.exp(PI_I * tau / 12) * prod, M


def eta(tau: complex) -> complex:
    """Dedekind eta, e^{pi i tau/12} prod_{m>=1} (1 - e^{2 pi i m tau})."""
    return _eta_with_terms(tau)[0]


def _dedekind_sum(h: int, k: int) -> Fraction:
    """s(h, k) = sum_{r=1}^{k-1} ((r/k)) ((hr/k)) for k > 0 and gcd(h, k) = 1,
    by reciprocity: s(h, k) + s(k, h) = (h^2 + k^2 + 1)/(12hk) - 1/4."""
    total, sign, h = Fraction(0), 1, h % k
    while h:
        total += sign * Fraction(h * h + k * k + 1 - 3 * h * k, 12 * h * k)
        h, k, sign = k % h, h, -sign
    return total


def eta_multiplier(m: Sequence[int]) -> complex:
    """The unit constant chi(m) in eta(m tau) = chi(m) sqrt(c tau + d) eta(tau)
    for every m of determinant 1, by Rademacher's formula (module docstring):
    12e is an integer, reduced mod 24 before the exponential."""
    a, b, c, d = (int(x) for x in m)
    if a * d - b * c != 1:
        raise ValueError("matrix must have determinant 1")
    e = Fraction(0)
    if c < 0 or (c == 0 and d < 0):
        # -m acts as m; sqrt(-w) = i sqrt(w) for Im w < 0, -i sqrt(w) at w = -1
        e = Fraction(1 if c else -1, 2)
        a, b, c, d = -a, -b, -c, -d
    if c == 0:
        e += Fraction(b, 12)
    else:
        e += Fraction(a + d, 12 * c) - _dedekind_sum(d, c) - Fraction(1, 4)
    return cmath.exp(PI_I * float(12 * e % 24) / 12)


# ---------------------------------------------------------------------------
# the twisted theta function


def theta1(tau: complex, u: complex) -> complex:
    """sum_n e^{2 pi i (u - 1/2)(n + 1/2) + pi i tau (n + 1/2)^2}."""
    _check_tau(tau)
    return _coset_factor_sums(tau, u - 0.5, 0.5, 1e-12)[0]


def det_section(tau: complex, u: complex) -> complex:
    """The flat-determinant section f = theta1 / eta."""
    return theta1(tau, u) / eta(tau)


# ---------------------------------------------------------------------------
# lattice theta series


def _coset_factor_sums(tau: complex, w: complex, c: float,
                       tol: float) -> Tuple[complex, complex, int]:
    """(A, B, terms): A = sum_n q-term, B = same with (-1)^n, over n + c."""
    y = tau.imag
    shift = w.imag / y
    extra = math.pi * w.imag ** 2 / y
    N = int(math.sqrt((math.log(1 / tol) + extra + 1) / (math.pi * y))) + 3
    c0 = int(round(-c - shift))
    A = 0j
    B = 0j
    for n in range(c0 - N, c0 + N + 1):
        h = n + c
        t = cmath.exp(TWO_PI_I * w * h + PI_I * tau * h * h)
        A += t
        B += t if n % 2 == 0 else -t
    return A, B, 2 * N + 1


def _theta_dn_plus(tau: complex, w: Sequence[complex],
                   tol: float) -> Tuple[complex, int]:
    """Theta of D_n^+ (n in 8Z) at ambient coordinates w, via the parity
    projector over the two cosets Z^n and (Z + 1/2)^n."""
    n = len(w)
    terms = 0
    total = 0j
    ftol = tol ** (1.0 / n) * 1e-3
    for c in (0.0, 0.5):
        pa = 1.0 + 0j
        pb = 1.0 + 0j
        for wj in w:
            A, B, t = _coset_factor_sums(tau, wj, c, ftol)
            pa *= A
            pb *= B
            terms += t
        total += 0.5 * (pa + pb)
    return total, terms


def _ambient_z(L: IntegralLattice, z: Sequence[complex]) -> List[complex]:
    rows = L.basis_float.tolist()
    out = [0j] * len(rows[0])
    for zi, row in zip(z, rows):
        for a, x in enumerate(row):
            out[a] += zi * x
    return out


# built-in lattices whose theta series factors over cosets, by rank
_COSET_BUILTINS = {"e8": 8, "d16plus": 16, "e8e8": 16}


def _coset_builtin(L: IntegralLattice) -> Optional[IntegralLattice]:
    """The coset-factorizable built-in with L's Gram matrix, if any."""
    for name, rank in _COSET_BUILTINS.items():
        if rank == L.rank:
            ref = builtin(name)
            if ref.gram_den == L.gram_den and np.array_equal(ref.gram, L.gram):
                return ref
    return None


def _finite(series: str, val: complex, terms: int) -> Tuple[complex, int]:
    """(val, terms), refused when val is NaN or infinite: no answer."""
    if not cmath.isfinite(val):
        raise ValueError(f"the {series} is {val}, not finite: the series "
                         f"leaves the float range at this tau and z")
    return val, terms


def _theta_with_terms(L: IntegralLattice, tau: complex, z: Sequence[complex],
                      tol: float = 1e-12) -> Tuple[complex, int]:
    return _finite("theta", *_theta_sum(L, tau, z, tol))


def _theta_sum(L: IntegralLattice, tau: complex, z: Sequence[complex],
               tol: float) -> Tuple[complex, int]:
    _check_tau(tau)
    z = list(z)
    if len(z) != L.rank:
        raise ValueError(f"z needs {L.rank} coordinates, got {len(z)}")
    ref = _coset_builtin(L)
    if ref is None:
        return _theta_enum(L, tau, z, tol)
    # equal Grams: the sums over basis coefficients agree term by term, so
    # z maps to ambient coordinates through the built-in's basis
    w = _ambient_z(ref, z)
    if ref.name == "e8e8":
        t1, n1 = _theta_dn_plus(tau, w[:8], tol)
        t2, n2 = _theta_dn_plus(tau, w[8:], tol)
        return t1 * t2, n1 + n2
    return _theta_dn_plus(tau, w, tol)


def theta_lattice(L: IntegralLattice, tau: complex,
                  z: Sequence[complex]) -> complex:
    """Theta_Lambda(tau, z) = sum_gamma e^{pi i (2 (z, gamma) + tau (gamma, gamma))}.

    z in lattice-basis coordinates; a lattice with the Gram matrix of a
    built-in even unimodular lattice uses a per-coordinate coset
    factorization, others a bounded enumeration.  A sum that leaves the
    float range (NaN or infinite) raises ValueError.
    """
    return _theta_with_terms(L, tau, z)[0]


def _theta_enum(L: IntegralLattice, tau: complex, z: Sequence[complex],
                tol: float = 1e-12, max_norm: Optional[int] = None) -> Tuple[complex, int]:
    """Direct enumeration evaluator (also the oracle for the fast path).

    Recenters the real part of z modulo the lattice (a symmetry of the sum)
    and, unless max_norm is given, sums the shells up to the norm past which
    the Gaussian decay of e^{-pi Im(tau) (g,g)} leaves a tail below tol.  A
    cutoff whose ellipsoid holds more than lattice.ENUM_BUDGET vectors
    raises ValueError before any is enumerated; a negative one sums nothing.

    The sum runs over lattice._half_walk's leaves v, block by block: the
    zero vector gives 1, and each leaf of norm N gives e^{pi i (tau N + 2p)}
    for itself and e^{pi i (tau N - 2p)} for its mirror -v, with p = v . (G z)
    from one real matrix product per block.  Each term is one exponential of
    its own exponent, so none is evaluated apart from its Gaussian decay,
    and each block's terms are added pairwise (np.sum).
    """
    G = L.gram_float
    zv = np.array(z, dtype=complex)
    zv = zv - np.round(zv.real)
    y = tau.imag
    if max_norm is None:
        # |term| <= e^{2 pi |Im(z,g)| - pi y (g,g)} and |(z,g)| <= |z|_G sqrt((g,g))
        znorm = math.sqrt(abs(np.imag(zv) @ G @ np.imag(zv)))
        # solve pi y R - 2 pi znorm sqrt(R) = log(1/tol) + margin
        s = (2 * math.pi * znorm + math.sqrt(
            (2 * math.pi * znorm) ** 2 + 4 * math.pi * y * (math.log(1 / tol) + 5))) / (
            2 * math.pi * y)
        max_norm = int(math.ceil(s * s)) + 2
    if max_norm < 0:
        return 0j, 0
    # G z as (re, im) columns: a float row v times them is p's two parts
    Gz = (G @ zv).view(np.float64).reshape(L.rank, 2)
    total, count = 1 + 0j, 1
    for norms, rows, links in _half_walk(L, max_norm):
        p = (_read_back(rows, links, np.float64) @ Gz).view(complex)[:, 0]
        decay = tau * norms
        total += (np.sum(np.exp(PI_I * (decay + 2 * p)))
                  + np.sum(np.exp(PI_I * (decay - 2 * p))))
        count += 2 * len(rows)
    return complex(total), count


def theta_lattice_enum(L: IntegralLattice, tau: complex, z: Sequence[complex],
                       max_norm: Optional[int] = None) -> complex:
    return _theta_enum(L, tau, z, max_norm=max_norm)[0]


def _character_with_terms(L: IntegralLattice, tau: complex, z: Sequence[complex],
                          tol: float = 1e-12) -> Tuple[complex, int]:
    if L.rank != 16:
        raise ValueError("character needs a rank-16 lattice")
    # theta unchecked: a theta past the float range is a character past it
    theta, terms = _theta_sum(L, tau, z, tol)
    e, eterms = _eta_with_terms(tau, tol)
    e16 = e ** 16
    if e16 == 0:
        raise ValueError(f"eta(tau)^16 underflows to 0 at Im tau = {tau.imag:g}, "
                         f"so the character is past the float range")
    return _finite("character", theta / e16, terms + eterms)


def character(L: IntegralLattice, tau: complex, z: Sequence[complex]) -> complex:
    """The rank-16 character B = Theta_Lambda / eta^16; a value past the
    float range (NaN or infinite) raises ValueError."""
    return _character_with_terms(L, tau, z)[0]


# ---------------------------------------------------------------------------
# the transformation group on (tau, z)


@dataclass(frozen=True)
class ModuliPoint:
    tau: complex
    z: Tuple[complex, ...]

    def __post_init__(self):
        _check_tau(self.tau)
        for c in self.z:
            if not cmath.isfinite(c):
                raise ValueError(f"z coordinate {c} is not finite")


@dataclass(frozen=True)
class GroupElement:
    """An element of SL2(Z) x| (Lambda + Lambda) and the isometries in normal
    form, x -> t(w(m(x))): m = (a, b, c, d) sends (tau, z) to
    ((a tau + b)/(c tau + d), z/(c tau + d)), w is an integer matrix on z,
    and t = (q1, q2) moves z by q1 + tau q2; a part it lacks is None.  S, T
    and W build one part each, and g @ h = word([g, h]) acts as g(h(x))."""
    m: Optional[Tuple[int, int, int, int]] = None
    w: Optional[Tuple[Tuple[int, ...], ...]] = None
    t: Optional[Tuple[Tuple[int, ...], Tuple[int, ...]]] = None

    @staticmethod
    def S(a: int, b: int, c: int, d: int) -> "GroupElement":
        if a * d - b * c != 1:
            raise ValueError("S element must be unimodular")
        return GroupElement(m=(int(a), int(b), int(c), int(d)))

    @staticmethod
    def T(q1: Sequence[int], q2: Sequence[int]) -> "GroupElement":
        return GroupElement(t=(tuple(map(int, q1)), tuple(map(int, q2))))

    @staticmethod
    def W(matrix: Sequence[Sequence[int]]) -> "GroupElement":
        if any(len(row) != len(matrix) for row in matrix):
            raise ValueError(f"W must be a square matrix, got rows of "
                             f"lengths {[len(row) for row in matrix]}")
        return GroupElement(w=tuple(tuple(map(int, row)) for row in matrix))

    @staticmethod
    def word(elems: Sequence["GroupElement"]) -> "GroupElement":
        return functools.reduce(operator.matmul, elems, GroupElement())

    @property
    def data(self) -> Optional[Tuple[Tuple[int, ...], ...]]:
        """The W part's rows, read by the requests benchmark workload as a
        reflection_element's matrix."""
        return self.w

    def __matmul__(self, h: "GroupElement") -> "GroupElement":
        """The semidirect-product law in exact integers: h's translation
        (r1, r2) moves past m and w as w (a r1 - b r2, d r2 - c r1)."""
        ranks = sorted({len(v) for k in (self, h)
                        for v in (k.w,) + (k.t or ()) if v is not None})
        if len(ranks) > 1:
            raise ValueError(f"a word mixes parts of ranks {ranks}")
        (a, b, c, d), (e, f, p, q) = (k.m or (1, 0, 0, 1) for k in (self, h))
        m = (a * e + b * p, a * f + b * q, c * e + d * p, c * f + d * q)
        w, t = self.w, self.t
        if h.w is not None:
            w = h.w if w is None else _dots(w, tuple(zip(*h.w)))
        if h.t is not None:
            r = _dots(((a, -b), (-c, d)), tuple(zip(*h.t)))
            r = r if self.w is None else _dots(r, self.w)
            t = r if t is None else tuple(tuple(map(operator.add, u, v))
                                          for u, v in zip(t, r))
        return GroupElement(m if self.m or h.m else None, w, t)


def _dots(A, B) -> Tuple[Tuple[int, ...], ...]:
    """The integer matrix A B^T: each row of A dotted with each row of B."""
    return tuple(tuple(sum(map(operator.mul, a, b)) for b in B) for a in A)


def reflection_element(L: IntegralLattice, root: Sequence[int]) -> GroupElement:
    """The Weyl reflection in a norm-2 root, as a matrix on basis coords."""
    if L.norm(root) != 2:
        raise ValueError("reflection needs a norm-2 root")
    r = np.array(root, dtype=np.int64)
    Gr = L.gram @ r                   # gram_den <e_i, r>
    if np.any(Gr % L.gram_den):
        raise ValueError("reflection does not preserve the lattice")
    M = np.eye(L.rank, dtype=np.int64) - np.outer(r, Gr // L.gram_den)
    return GroupElement.W(_check_isometry(L, M).tolist())


def _check_isometry(L: IntegralLattice, mat) -> np.ndarray:
    M = np.array(mat, dtype=np.int64)
    G = L.gram
    if M.shape != G.shape or not np.array_equal(M.T @ G @ M, G):
        raise ValueError("W matrix does not preserve the Gram matrix")
    return M


def act(g: GroupElement, x: ModuliPoint) -> ModuliPoint:
    """The group action on (tau, z): g's m, then its w, then its t, each
    only where g has that part."""
    tau, z = x.tau, np.array(x.z, dtype=complex)
    # an image past the float range is refused by ModuliPoint, unwarned
    with np.errstate(over="ignore", invalid="ignore"):
        if g.m is not None:
            a, b, c, d = g.m
            denom = c * tau + d
            tau, z = (a * tau + b) / denom, z / denom
        if g.w is not None:
            if len(g.w) != len(z):
                raise ValueError(f"a {len(g.w)}x{len(g.w)} W matrix acts on "
                                 f"points of rank {len(g.w)}, got a point of "
                                 f"rank {len(z)}")
            z = np.array(g.w, dtype=np.int64) @ z
        if g.t is not None:
            if any(len(q) != len(z) for q in g.t):
                raise ValueError("translation rank mismatch")
            q1, q2 = (np.array(q, dtype=float) for q in g.t)
            z = z + q1 + tau * q2
    return ModuliPoint(tau, tuple(z))


# ---------------------------------------------------------------------------
# automorphy-factor families


@dataclass(frozen=True)
class AutomorphyFamily:
    """One of the factor families char / det_u1 / ad / rho / anomaly_ad /
    anomaly_rho over a fixed lattice (det_u1 uses the scalar model)."""
    name: str
    lattice: Optional[IntegralLattice] = None

    def __post_init__(self):
        if self.name != "det_u1" and self.name not in _LATTICE_FAMILIES:
            raise ValueError(f"unknown family {self.name}")
        if self.name == "det_u1":
            if self.lattice is not None:
                raise ValueError("det_u1 is the scalar model; no lattice")
        elif self.lattice is None:
            raise ValueError(f"family {self.name} needs a lattice")


COXETER_EXPONENT = 30          # the common Coxeter number c_G
ADJOINT_DIMENSION = 496        # dim of either rank-16 gauge group
RHO_CHI_POWER = 16

# each lattice family's (c_G, power of the eta multiplier under S)
_LATTICE_FAMILIES = {
    "char": (1, 0), "ad": (COXETER_EXPONENT, ADJOINT_DIMENSION),
    "rho": (1, RHO_CHI_POWER), "anomaly_ad": (COXETER_EXPONENT, 0),
    "anomaly_rho": (1, 0)}


def _pair(L: IntegralLattice, u, v) -> complex:
    G = L.gram_float
    return complex(np.asarray(u, dtype=complex) @ G @ np.asarray(v, dtype=complex))


def factor(family: AutomorphyFamily, g: GroupElement, x: ModuliPoint) -> complex:
    """phi_g(x) = phi_t(w m x) (phi_w phi_m(x)) by the cocycle rule: each
    part g has gives its generator's factor where it acts."""
    det, L = family.name == "det_u1", family.lattice
    if det and len(x.z) != 1:
        raise ValueError("det_u1 expects a single coordinate u")
    if not det and len(x.z) != L.rank:
        raise ValueError(f"family {family.name} on lattice {L.name} needs a "
                         f"point of rank {L.rank}, got rank {len(x.z)}")
    cg, chi_pow = _LATTICE_FAMILIES.get(family.name, (0, 0))
    vals = {}
    if g.m is not None:
        (a, b, c, d), tau, z = g.m, x.tau, x.z
        if det:
            vals["S"] = eta_multiplier(g.m) ** 2 * _part_exp(
                family, "S", PI_I * c * z[0] * z[0] / (c * tau + d))
        else:
            val = _part_exp(family, "S",
                            cg * PI_I * c * _pair(L, z, z) / (c * tau + d))
            vals["S"] = (val * eta_multiplier(g.m) ** chi_pow if chi_pow
                         else val)
    if g.w is not None:
        # the isometries of the scalar model are u -> u and u -> -u;
        # the det section is odd in u
        if not det:
            _check_isometry(L, g.w)
        elif g.w not in (((1,),), ((-1,),)):
            raise ValueError("W matrix does not preserve the Gram matrix")
        vals["W"] = complex(g.w[0][0]) if det else 1.0 + 0j
    if g.t is not None:
        if g.m is not None or g.w is not None:
            x = act(GroupElement(m=g.m, w=g.w), x)
        (q1, q2), tau, z = g.t, x.tau, x.z
        if det:
            if any(len(q) != 1 for q in g.t):
                raise ValueError(f"family det_u1 has rank 1: T needs q1 and "
                                 f"q2 of length 1, got lengths "
                                 f"{[len(q) for q in g.t]}")
            (q1,), (q2,) = g.t
            vals["T"] = ((-1) ** (q1 + q2)) * _part_exp(
                family, "T", PI_I * (-2 * z[0] * q2 - tau * q2 * q2))
        elif len(q1) != L.rank or len(q2) != L.rank:
            raise ValueError("family/lattice rank mismatch")
        else:
            vals["T"] = _part_exp(family, "T", cg * PI_I * (
                -2 * _pair(L, z, q2) - tau * _pair(L, q2, q2)))
    val = (functools.reduce(lambda u, v: v * u, vals.values()) if vals
           else 1.0 + 0j)
    if not cmath.isfinite(val):
        raise OverflowError(f"family {family.name}: the product of the "
                            f"{' and '.join(vals)} parts' factors is past "
                            "the float range")
    return val


def _part_exp(family: AutomorphyFamily, part: str, w: complex) -> complex:
    """e^w for the factor of a group element's part (S, W or T), refused
    with the family and the part named when it is past the float range."""
    try:
        return cmath.exp(w)
    except OverflowError:
        raise OverflowError(
            f"family {family.name}: the {part} part's factor e^w, with "
            f"Re w = {w.real:.6g}, is past the float range") from None


def cocycle_defect(family: AutomorphyFamily, g: GroupElement,
                   h: GroupElement, x: ModuliPoint) -> float:
    """Relative size of phi_{gh}(x) - phi_g(h x) phi_h(x) for any two
    elements (the factors themselves can be huge)."""
    lhs = factor(family, g @ h, x)
    rhs = factor(family, g, act(h, x)) * factor(family, h, x)
    return abs(lhs - rhs) / max(abs(lhs), 1.0)


# ---------------------------------------------------------------------------
# transformation checks


def _section(family: AutomorphyFamily, x: ModuliPoint) -> complex:
    """The section the family's factor transforms: det_section for det_u1,
    the character for every lattice family."""
    if family.name == "det_u1":
        if len(x.z) != 1:
            raise ValueError("det_section expects the scalar model")
        return det_section(x.tau, x.z[0])
    return character(family.lattice, x.tau, x.z)


def transform_defect(family: AutomorphyFamily, g: GroupElement,
                     x: ModuliPoint) -> float:
    """Relative defect |F(gx) - phi_g F(x)| / max(|F(gx)|, |phi_g F(x)|)."""
    F = _section(family, x)
    if abs(F) < 1e-12:
        raise ValueError("sample point too close to a zero of the section")
    Fg = _section(family, act(g, x))
    phi_F = factor(family, g, x) * F
    return abs(Fg - phi_F) / max(abs(Fg), abs(phi_F))


def measure_extra_multiplier(g: GroupElement) -> complex:
    """The constant F(gx) / (phi^ch_g(x) F(x)) for the E8 x E8 character,
    measured at 10 sample points and asserted constant."""
    L = builtin("e8e8")
    fam = AutomorphyFamily("char", L)
    rng = np.random.default_rng(20260824)
    vals = []
    for _ in range(10):
        tau = complex(0.6 * (rng.random() - 0.5), 0.9 + 0.9 * rng.random())
        z = tuple(0.3 * (rng.random(L.rank) - 0.5)
                  + 0.3j * (rng.random(L.rank) - 0.5))
        x = ModuliPoint(tau, z)
        F = character(L, tau, z)
        Fg = _section(fam, act(g, x))
        vals.append(Fg / (factor(fam, g, x) * F))
    spread = max(abs(v - vals[0]) for v in vals)
    if spread > EXTRA_MULTIPLIER_TOL:
        raise ValueError(f"extra multiplier is not constant (spread {spread})")
    return vals[0]
