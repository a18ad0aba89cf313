"""Even unimodular lattices (E8, E8+E8, D16+), root systems, Weyl
reflections, bounded-norm vector enumeration, and the root/weight/index
arithmetic used by the modular-form checks.

Lattices are stored through an explicit basis (rows, exact rational
entries) in an ambient coordinate space, together with a pairing scale:
<u, v> = scale * (x(u) . x(v)).  The three built-in unimodular lattices
use scale 1; the Spin(16) coroot lattice uses half-coordinates with
scale 2, which reproduces the identity 2 sum_i x_i(a) x_i(b) = <a, b>.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from typing import Dict, List, Sequence, Tuple

import numpy as np


class IntegralLattice:
    """A positive-definite lattice given by a rational basis and pairing scale."""

    def __init__(self, name: str, basis: Sequence[Sequence[Fraction]],
                 scale: int = 1):
        self.name = name
        self.basis = [[Fraction(x) for x in row] for row in basis]
        self.rank = len(self.basis)
        self.ambient = len(self.basis[0])
        self.scale = scale
        # basis = basis_num / den with integer entries, so the Gram is an
        # integer matrix over den^2, summed with Python integers
        self._den = math.lcm(*(x.denominator for row in self.basis for x in row))
        self._basis_num = [[int(x * self._den) for x in row] for row in self.basis]
        self._set_gram([[scale * sum(a * b for a, b in zip(u, v))
                         for v in self._basis_num] for u in self._basis_num],
                       self._den ** 2)

    def _set_gram(self, num: List[List[int]], den: int) -> None:
        """Gram = num / den for an integer matrix num."""
        self.gram_exact = [[Fraction(x, den) for x in row] for row in num]
        self.__dict__.pop("gram_float", None)     # converted from this Gram
        if all(x % den == 0 for row in num for x in row):
            num, den = [[x // den for x in row] for row in num], 1
        self._gram_num, self._gram_den = num, den
        if den == 1:
            self.gram = np.array(num, dtype=np.int64)
        else:
            self.gram = self.gram_float

    @functools.cached_property
    def basis_float(self) -> List[List[float]]:
        """The basis in floats, converted on first use."""
        return [[float(x) for x in row] for row in self.basis]

    @functools.cached_property
    def gram_float(self) -> np.ndarray:
        """The Gram matrix in floats, converted on first use; read-only, as
        every caller shares it."""
        g = np.array([[float(x) for x in row] for row in self.gram_exact])
        g.flags.writeable = False
        return g

    @property
    def integral(self) -> bool:
        return self._gram_den == 1

    # -- pairing ----------------------------------------------------------

    def inner(self, u: Sequence[int], v: Sequence[int]) -> Fraction | int:
        """<u, v>: a Python int for an integral Gram, else a Fraction."""
        g = self._gram_num
        total = sum(int(u[i]) * g[i][j] * int(v[j])
                    for i in range(self.rank) for j in range(self.rank))
        return total if self.integral else Fraction(total, self._gram_den)

    def norm(self, v: Sequence[int]) -> Fraction | int:
        return self.inner(v, v)

    def coordinates(self, v: Sequence[int]) -> List[Fraction]:
        """Ambient coordinates of the lattice vector with basis coefficients v."""
        return [Fraction(x, self._den) for x in self._numerators(v)]

    def _numerators(self, v: Sequence[int]) -> List[int]:
        """den * coordinates(v), in integers."""
        num = [0] * self.ambient
        for c, row in zip(v, self._basis_num):
            c = int(c)
            for a in range(self.ambient):
                num[a] += c * row[a]
        return num

    # -- structural checks ------------------------------------------------

    def determinant(self) -> Fraction:
        return _exact_det(self.gram_exact)

    def is_even(self) -> bool:
        # evenness of the quadratic form is equivalent to even Gram diagonal
        # (integer Gram assumed)
        return all(self.gram_exact[i][i] % 2 == 0 for i in range(self.rank))

    def is_unimodular(self) -> bool:
        return self.determinant() == 1


def _exact_det(g: List[List[Fraction]]) -> Fraction:
    n = len(g)
    m = [[Fraction(x) for x in row] for row in g]
    det = Fraction(1)
    for col in range(n):
        piv = next((r for r in range(col, n) if m[r][col] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            m[col], m[piv] = m[piv], m[col]
            det = -det
        det *= m[col][col]
        inv = 1 / m[col][col]
        for r in range(col + 1, n):
            f = m[r][col] * inv
            if f:
                for c in range(col, n):
                    m[r][c] -= f * m[col][c]
    return det


# ---------------------------------------------------------------------------
# built-in lattices


def _half(n: int) -> List[Fraction]:
    return [Fraction(1, 2)] * n


def _unit_diff(n: int, i: int) -> List[Fraction]:
    """e_i - e_{i+1} in an ambient of dimension n (0-based i)."""
    row = [Fraction(0)] * n
    row[i] = Fraction(1)
    row[i + 1] = Fraction(-1)
    return row


def _dn_plus_basis(n: int) -> List[List[Fraction]]:
    """Basis of D_n^+ = D_n + Z s with s = (1/2, ..., 1/2).

    The glue vector s replaces the generator e_1 - e_2 of D_n (whose
    coefficient in the expansion of 2s is odd, so the span is the full
    union of D_n and D_n + s).
    """
    rows = [_half(n)]
    for i in range(1, n - 1):
        rows.append(_unit_diff(n, i))
    last = [Fraction(0)] * n
    last[n - 2] = Fraction(1)
    last[n - 1] = Fraction(1)
    rows.append(last)
    return rows


def builtin(name: str) -> IntegralLattice:
    if name == "e8":
        return IntegralLattice("e8", _dn_plus_basis(8))
    if name == "d16plus":
        return IntegralLattice("d16plus", _dn_plus_basis(16))
    if name == "e8e8":
        b8 = _dn_plus_basis(8)
        rows = []
        for row in b8:
            rows.append(list(row) + [Fraction(0)] * 8)
        for row in b8:
            rows.append([Fraction(0)] * 8 + list(row))
        return IntegralLattice("e8e8", rows)
    if name == "spin16_coroot":
        # coroots (1/2)(+-x_i +- x_j) with pairing <a,b> = 2 x(a).x(b)
        rows = []
        for i in range(7):
            rows.append([x / 2 for x in _unit_diff(8, i)])
        last = [Fraction(0)] * 8
        last[6] = Fraction(1, 2)
        last[7] = Fraction(1, 2)
        rows.append(last)
        return IntegralLattice("spin16_coroot", rows, scale=2)
    raise ValueError(f"unknown lattice name: {name}")


@functools.lru_cache(maxsize=None)
def shared_builtin(name: str) -> IntegralLattice:
    """builtin(name), built once per process and shared: do not modify it."""
    return builtin(name)


def from_gram(name: str, gram: Sequence[Sequence[int]]) -> IntegralLattice:
    """Lattice from an integer Gram matrix (basis = Cholesky factor rows)."""
    g = np.array(gram, dtype=float)
    L = np.linalg.cholesky(g)
    rows = [[Fraction(x).limit_denominator(10 ** 12) for x in row] for row in L]
    lat = IntegralLattice(name, rows)
    lat._set_gram([[int(x) for x in row] for row in gram], 1)
    return lat


# ---------------------------------------------------------------------------
# enumeration (Fincke-Pohst, Math. Comp. 44 (1985), on the Cholesky factor)

# frontier rows expanded at a time; bounds the enumeration's working memory
BLOCK_ROWS = 1 << 14


def _sorted_shells(L: IntegralLattice, max_norm) -> Tuple[np.ndarray, np.ndarray]:
    """(norms, rows) of every lattice vector with <v,v> <= max_norm.

    rows holds basis coefficients, one vector per row, sorted by exact
    norm (the int64 array norms) and then lexicographically, so the zero
    vector comes first.  A breadth-first frontier of partial vectors
    (coordinates n-1 .. i fixed) is expanded one coordinate at a time, at
    most BLOCK_ROWS children at a time.
    """
    g = L.gram_float
    n = L.rank
    R = np.linalg.cholesky(g).T          # upper triangular, g = R^T R
    bound = float(max_norm) + 1e-9
    # |x_i| <= sqrt(bound (g^-1)_ii) on the ellipsoid
    reach = np.sqrt(bound * np.diag(np.linalg.inv(g))).max() + 2
    dtype = np.int16 if reach < np.iinfo(np.int16).max else np.int64
    # a block: (coordinate i, rows, partial R @ x over coordinates <= i,
    # remaining norm budget)
    stack = [(n - 1, np.zeros((1, n), dtype), np.zeros((1, n)),
              np.array([bound]))]
    leaves = []
    while stack:
        i, X, P, rem = stack.pop()
        if i < 0:
            if L.integral:
                X64 = X.astype(np.int64)
                norms = np.einsum("ij,ij->i", X64 @ L.gram, X64)
                keep = norms <= max_norm
            else:
                exact = [L.norm(v) for v in X.tolist()]
                norms = np.array([int(q) for q in exact], dtype=np.int64)
                keep = np.array([q.denominator == 1 and q <= max_norm
                                 for q in exact], dtype=bool)
            leaves.append((X[keep], norms[keep]))
            continue
        rii = R[i, i]
        center = -P[:, i] / rii
        radius = np.sqrt(np.maximum(rem, 0.0)) / rii
        lo = np.ceil(center - radius - 1e-9)
        hi = np.floor(center + radius + 1e-9)
        counts = np.maximum(hi - lo + 1, 0).astype(np.int64)
        total = int(counts.sum())
        if total > BLOCK_ROWS and len(X) > 1:
            h = len(X) // 2
            stack.append((i, X[h:], P[h:], rem[h:]))
            stack.append((i, X[:h], P[:h], rem[:h]))
            continue
        parent = np.repeat(np.arange(len(X)), counts)
        first = np.cumsum(counts) - counts
        xi = lo[parent] + (np.arange(total) - first[parent])
        t = rii * (xi - center[parent])
        X = X[parent]
        X[:, i] = xi
        # only the partial sums of the coordinates still open are kept
        stack.append((i - 1, X, P[parent, :i] + xi[:, None] * R[:i, i],
                      rem[parent] - t * t))
    X = np.concatenate([x for x, _ in leaves])
    norms = np.concatenate([nrm for _, nrm in leaves])
    del leaves                           # free the blocks before sorting
    order = np.lexsort(tuple(X[:, j] for j in reversed(range(n))) + (norms,))
    return norms[order], X[order]


def enumerate_by_norm(L: IntegralLattice, max_norm) -> Dict[int, List[Tuple[int, ...]]]:
    """All lattice vectors with <v,v> <= max_norm, grouped by exact norm.

    Returns {norm: [coefficient tuples]} with norms ascending and the
    tuples in lexicographic order; closed under negation; the zero vector
    sits at norm 0.
    """
    norms, X = _sorted_shells(L, max_norm)
    keys, first = np.unique(norms, return_index=True)
    rows = [tuple(r) for r in X.tolist()]
    first = first.tolist()
    return {k: rows[a:b]
            for k, a, b in zip(keys.tolist(), first, first[1:] + [len(rows)])}


def _root_rows(L: IntegralLattice) -> np.ndarray:
    norms, X = _sorted_shells(L, 2)
    return X[norms == 2]


def roots(L: IntegralLattice) -> List[Tuple[int, ...]]:
    return [tuple(r) for r in _root_rows(L).tolist()]


def reflect(L: IntegralLattice, root: Sequence[int], v: Sequence[int]) -> Tuple[int, ...]:
    """Weyl reflection v -> v - <v,r> r for a norm-2 root."""
    if L.norm(root) != 2:
        raise ValueError("reflection vector must have norm 2")
    c = L.inner(v, root)
    if c.denominator != 1:
        raise ValueError("reflection does not preserve the lattice")
    c = int(c)
    return tuple(int(v[i]) - c * int(root[i]) for i in range(L.rank))


def coxeter_from_roots(L: IntegralLattice):
    """c with sum_r <r,e_i><r,e_j> = 2 c <e_i,e_j>, from the norm-2 vectors.

    Raises if the ratios disagree (reducible lattice).
    """
    rs = _root_rows(L).astype(np.int64)
    G = L.gram.astype(np.int64)
    gr = rs @ G                       # rows <r, e_j>
    M = gr.T @ gr                     # sum_r <r,e_i><r,e_j>
    vals = set()
    for i in range(L.rank):
        for j in range(L.rank):
            gij = int(G[i, j])
            if gij == 0:
                if M[i, j] != 0:
                    raise ValueError("inconsistent Coxeter ratios")
                continue
            vals.add(Fraction(int(M[i, j]), 2 * gij))
    if len(vals) != 1:
        raise ValueError(f"inconsistent Coxeter ratios: {sorted(vals)}")
    c = vals.pop()
    return int(c) if c.denominator == 1 else c


# ---------------------------------------------------------------------------
# the Spin(16) coroot embedding into E8


def spin16_embedding(v: Sequence[int]) -> Tuple[int, ...]:
    """Doubling map on x-coordinates: (1/2)(+-x_i+-x_j) -> +-x_i+-x_j in e8.

    Input in spin16_coroot basis coefficients; output in e8 basis
    coefficients.  Raises if the image is not an e8 vector.
    """
    image = [2 * c for c in shared_builtin("spin16_coroot").coordinates(v)]
    return _in_basis(shared_builtin("e8"), image)


def _in_basis(L: IntegralLattice, ambient_coords: Sequence[Fraction]) -> Tuple[int, ...]:
    """Solve integer basis coefficients for a point in the ambient space."""
    target = [Fraction(c) * L._den for c in ambient_coords]
    sol = np.linalg.solve(np.array(L._basis_num, dtype=float).T,
                          np.array([float(t) for t in target]))
    coeffs = tuple(int(round(s)) for s in sol)
    if L._numerators(coeffs) != target:
        raise ValueError("vector is not in the target lattice")
    return coeffs


def spin16_first_series() -> List[Tuple[int, ...]]:
    """The 112 coroots (1/2)(+-x_i+-x_j), i<j, in basis coefficients."""
    src = shared_builtin("spin16_coroot")
    out = []
    for i in range(8):
        for j in range(i + 1, 8):
            for si in (1, -1):
                for sj in (1, -1):
                    amb = [Fraction(0)] * 8
                    amb[i] = Fraction(si, 2)
                    amb[j] = Fraction(sj, 2)
                    out.append(_in_basis(src, amb))
    return out


def weight_identity_check() -> Fraction:
    """max |2 sum_i x_i(a) x_i(b) - <a,b>| over basis pairs; exact 0."""
    L = builtin("spin16_coroot")
    worst = Fraction(0)
    for i in range(L.rank):
        a = tuple(1 if t == i else 0 for t in range(L.rank))
        xa = L.coordinates(a)
        for j in range(L.rank):
            b = tuple(1 if t == j else 0 for t in range(L.rank))
            xb = L.coordinates(b)
            lhs = 2 * sum(p * q for p, q in zip(xa, xb))
            diff = abs(lhs - L.inner(a, b))
            worst = max(worst, diff)
    return worst


# ---------------------------------------------------------------------------
# closed-form Weyl arithmetic and anomaly exponents

W_E8_ORDER = 696729600                       # 2^14 3^5 5^2 7
W_D8_ORDER = 2 ** 7 * math.factorial(8)      # 5160960


def weyl_index_arithmetic() -> int:
    """|W(E8)| / |W(D8)| = 135 = 3^3 * 5."""
    q, r = divmod(W_E8_ORDER, W_D8_ORDER)
    if r:
        raise ArithmeticError("Weyl order ratio is not integral")
    return q


_ANOMALY = {
    "e8e8_adjoint": (30, 464, 496, 10),
    "spin16_rho": (1, 0, 32, 10),
    "spin32_rho": (1, 0, 32, 10),
}


def anomaly_exponents(case: str) -> Tuple[int, int, int, int]:
    """(alpha, beta, r, n) with alpha*(n+22) = r + beta."""
    if case not in _ANOMALY:
        raise ValueError(f"unknown case: {case}")
    alpha, beta, r, n = _ANOMALY[case]
    assert alpha * (n + 22) == r + beta
    return alpha, beta, r, n


def theta_counts(L: IntegralLattice, max_norm: int) -> Dict[int, int]:
    """Vector counts per norm (the theta-series coefficients)."""
    keys, counts = np.unique(_sorted_shells(L, max_norm)[0], return_counts=True)
    return dict(zip(keys.tolist(), counts.tolist()))
