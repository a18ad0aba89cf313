"""Even unimodular lattices (E8, E8+E8, D16+), root systems, Weyl
reflections, bounded-norm vector enumeration, and the root/weight/index
arithmetic used by the modular-form checks.

A lattice is its Gram matrix, held once and exactly as integer numerators
over one denominator: <u, v> = u^T gram v / gram_den.  A built-in lattice
also holds a basis in an ambient coordinate space, again as integer
numerators over one denominator.  E8, E8+E8 and D16+ derive their Gram
from that basis; the Spin(16) coroot lattice is given by its own Gram,
half the D8 Cartan matrix, next to the basis (1/2)(x_i - x_{i+1}),
(1/2)(x_6 + x_7), so that the identity 2 sum_i x_i(a) x_i(b) = <a, b>
compares two independent descriptions.
"""

from __future__ import annotations

import functools
import math
import operator
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np


def _frozen(rows) -> np.ndarray:
    """A read-only int64 array of integer entries (a Fraction or a float is
    refused, not truncated)."""
    a = np.array([[operator.index(x) for x in row] for row in rows],
                 dtype=np.int64)
    a.flags.writeable = False
    return a


class IntegralLattice:
    """A positive-definite lattice with Gram matrix gram / gram_den and an
    optional basis basis / basis_den (integer numerators, read-only)."""

    def __init__(self, name: str, gram: Sequence[Sequence[int]],
                 gram_den: int = 1, basis: Optional[Sequence[Sequence[int]]] = None,
                 basis_den: int = 1):
        self.name = name
        if gram_den < 1:
            raise ValueError(f"lattice {name}: the Gram denominator "
                             f"{gram_den} is below 1")
        widths = {len(row) for row in gram}
        if widths <= {0} or len(widths) > 1:
            raise ValueError(f"lattice {name}: the Gram matrix has no entries "
                             "or rows of unequal lengths")
        g = _frozen(gram)
        common = math.gcd(gram_den, *g.ravel().tolist())
        self.gram = _frozen(g // common)
        self.gram_den = gram_den // common
        self.rank = len(g)
        # Sylvester: a symmetric matrix is positive definite iff its leading
        # principal minors are positive; the walk's Cholesky factor and its
        # half of the ellipsoid need both
        if (not np.array_equal(g, g.T)
                or not all(p > 0 for p in _pivots(g.tolist()))):
            raise ValueError(f"lattice {name}: the Gram matrix is not "
                             "symmetric positive definite")
        # the norm form u^T gram u / gram_den takes integer values: the
        # enumeration's exact norms are integers
        if (np.any(np.diag(self.gram) % self.gram_den)
                or np.any(2 * self.gram % self.gram_den)):
            raise ValueError(f"lattice {name}: the norm form of the Gram "
                             f"over {self.gram_den} is not integer-valued")
        self.basis = None if basis is None else _frozen(basis)
        self.basis_den = basis_den

    @functools.cached_property
    def gram_float(self) -> np.ndarray:
        """The Gram matrix in floats, converted on first use; read-only, as
        every caller shares it."""
        g = self.gram / self.gram_den
        g.flags.writeable = False
        return g

    @functools.cached_property
    def basis_float(self) -> np.ndarray:
        """The basis in floats, converted on first use; read-only."""
        b = self._basis() / self.basis_den
        b.flags.writeable = False
        return b

    @functools.cached_property
    def _gram_rows(self) -> Tuple[Tuple[int, ...], ...]:
        """The Gram numerators as Python ints, built once."""
        return tuple(map(tuple, self.gram.tolist()))

    @functools.cached_property
    def _basis_rows(self) -> Tuple[Tuple[int, ...], ...]:
        """The basis numerators as Python ints, built once."""
        return tuple(map(tuple, self._basis().tolist()))

    def _basis(self) -> np.ndarray:
        if self.basis is None:
            raise ValueError(f"lattice {self.name} is given by its Gram alone "
                             "and has no basis")
        return self.basis

    # -- pairing ----------------------------------------------------------

    def inner(self, u: Sequence[int], v: Sequence[int]) -> Fraction | int:
        """<u, v>: a Python int for an integral Gram, else a Fraction."""
        g = self._gram_rows
        total = sum(int(u[i]) * g[i][j] * int(v[j])
                    for i in range(self.rank) for j in range(self.rank))
        return total if self.gram_den == 1 else Fraction(total, self.gram_den)

    def norm(self, v: Sequence[int]) -> Fraction | int:
        return self.inner(v, v)

    def coordinates(self, v: Sequence[int]) -> List[Fraction]:
        """Ambient coordinates of the lattice vector with basis coefficients v."""
        return [Fraction(x, self.basis_den) for x in self._numerators(v)]

    def _numerators(self, v: Sequence[int]) -> List[int]:
        """basis_den * coordinates(v), in integers."""
        rows = self._basis_rows
        return [sum(int(c) * row[a] for c, row in zip(v, rows))
                for a in range(len(rows[0]))]

    # -- structural checks ------------------------------------------------

    def determinant(self) -> Fraction:
        # the constructor checked every pivot positive
        *_, det = _pivots(self.gram.tolist())
        return Fraction(det, self.gram_den ** self.rank)

    def is_even(self) -> bool:
        # <v,v> = sum_i g_ii v_i^2 + 2 sum_{i<j} g_ij v_i v_j is even for
        # every v iff each g_ii is even and each g_ij an integer
        return bool(np.all(self.gram % self.gram_den == 0)
                    and np.all(np.diag(self.gram) % (2 * self.gram_den) == 0))

    def is_unimodular(self) -> bool:
        return self.determinant() == 1


def _pivots(m: List[List[int]]):
    """The pivots of fraction-free (Bareiss) elimination of an integer
    matrix, without row swaps: the k-th is its leading principal minor of
    order k, so the last is the determinant.  Each is yielded before it
    divides the next step, so a caller that stops at a zero one never
    divides by it."""
    n, prev = len(m), 1
    for k in range(n):
        yield m[k][k]
        for r in range(k + 1, n):
            for c in range(k + 1, n):
                m[r][c] = (m[r][c] * m[k][k] - m[r][k] * m[k][c]) // prev
        prev = m[k][k]


# ---------------------------------------------------------------------------
# built-in lattices


def _dn_plus_basis(n: int) -> List[List[int]]:
    """Basis of D_n^+ = D_n + Z s with s = (1/2, ..., 1/2), as numerators
    over 2.

    The glue vector s replaces the generator e_1 - e_2 of D_n (whose
    coefficient in the expansion of 2s is odd, so the span is the full
    union of D_n and D_n + s); then e_i - e_{i+1} for i = 2..n-1 and
    e_{n-1} + e_n.
    """
    rows = [[1] * n]
    for i in range(1, n - 1):
        rows.append([2 if a == i else -2 if a == i + 1 else 0 for a in range(n)])
    rows.append([2 if a >= n - 2 else 0 for a in range(n)])
    return rows


def _from_basis(name: str, basis: Sequence[Sequence[int]], den: int) -> IntegralLattice:
    """The lattice spanned by basis / den, with the Gram of the dot product."""
    b = np.array(basis, dtype=np.int64)
    return IntegralLattice(name, b @ b.T, den * den, b, den)


@functools.lru_cache(maxsize=None)
def builtin(name: str) -> IntegralLattice:
    """A built-in lattice, built once per process and shared."""
    if name in ("e8", "d16plus"):
        return _from_basis(name, _dn_plus_basis(8 if name == "e8" else 16), 2)
    if name == "e8e8":
        b8 = np.array(_dn_plus_basis(8))
        zero = np.zeros_like(b8)
        return _from_basis("e8e8", np.block([[b8, zero], [zero, b8]]), 2)
    if name == "spin16_coroot":
        # half the D8 Cartan matrix: a chain 0-6 with node 7 joined to node 5
        cartan = 2 * np.eye(8, dtype=np.int64)
        for i, j in [(i, i + 1) for i in range(6)] + [(5, 7)]:
            cartan[i, j] = cartan[j, i] = -1
        # the coroots (1/2)(x_i - x_{i+1}), i < 7, and (1/2)(x_6 + x_7)
        basis = [[1 if a == i else -1 if a == i + 1 else 0 for a in range(8)]
                 for i in range(7)]
        basis.append([1 if a >= 6 else 0 for a in range(8)])
        return IntegralLattice(name, cartan, 2, basis, 2)
    raise ValueError(f"unknown lattice name: {name}")


# ---------------------------------------------------------------------------
# enumeration (Fincke-Pohst, Math. Comp. 44 (1985), on the Cholesky factor)

# frontier rows expanded at a time; bounds the enumeration's working memory
BLOCK_ROWS = 1 << 14

# the most vectors an enumeration may hold, as estimated from its volume
ENUM_BUDGET = 10 ** 7


def _half_walk(L: IntegralLattice, max_norm):
    """The Fincke-Pohst walk over half of the ellipsoid <v,v> <= max_norm:
    yields, per block of leaves, (norms, rows, links) for the leaves v
    with v > 0 (last nonzero coordinate positive) and exact norm <=
    max_norm.

    norms holds their exact int64 norms.  Their coordinates are read back
    along links: coordinate j of leaf r is x[rows[r]] for (parent, x) =
    links[n - 1 - j], and the next coordinate's row is parent[rows[r]].

    A breadth-first frontier of partial vectors (coordinates n-1 .. i
    fixed) is expanded one coordinate at a time, at most BLOCK_ROWS
    children at a time.  A frontier row keeps its parent's index and its
    new coordinate, the float bounds' partial R @ x (R the Cholesky
    factor) and remaining budget, and its exact int64 partial norm with a
    running gram @ x over the coordinates still open: fixing x_i adds
    x_i (g_ii x_i + 2 sum_{j>i} g_ij x_j), so no matrix product runs at
    the leaves.  A bound whose ellipsoid holds more than about ENUM_BUDGET
    vectors, by its volume V_n max_norm^{n/2} / sqrt(det G), raises
    ValueError unwalked.

    The one frontier row whose fixed coordinates are all zero takes x_i >=
    0 only (x_0 >= 1 at the last step), so of each pair v, -v only one is
    expanded.  The float bounds of -v are those of v negated, bit for bit,
    so these leaves are exactly half of a full walk's.
    """
    n = L.rank
    G = L.gram
    R = np.linalg.cholesky(L.gram_float).T    # upper triangular, g = R^T R
    bound = float(max_norm) + 1e-9
    # log of the volume; sqrt(det G) is the product of R's diagonal
    log_count = (n / 2 * math.log(math.pi * bound) - math.lgamma(n / 2 + 1)
                 - float(np.log(np.diag(R)).sum()))
    if log_count > math.log(ENUM_BUDGET):
        raise ValueError(
            f"lattice {L.name}: norms up to {max_norm} hold about "
            f"10^{log_count / math.log(10):.1f} vectors, more than the "
            f"enumeration budget of {ENUM_BUDGET}")
    # a block: (coordinate i, links, partial R @ x over coordinates <= i,
    # remaining norm budget, exact partial norm numerators, exact gram @ x
    # over coordinates <= i, whether its row 0 has all fixed coordinates
    # zero); that row's first child, x_i = 0, is again row 0
    stack = [(n - 1, (), np.zeros((1, n)), np.array([bound]),
              np.zeros(1, np.int64), np.zeros((1, n), np.int64), True)]
    while stack:
        i, links, P, rem, nrm, S, zero_first = stack.pop()
        if i < 0:
            # exact: the norm form is integer-valued, so gram_den divides
            norms = nrm // L.gram_den
            rows = np.flatnonzero(norms <= max_norm)
            yield norms[rows], rows, links
            continue
        rii = R[i, i]
        center = -P[:, i] / rii
        radius = np.sqrt(np.maximum(rem, 0.0)) / rii
        lo = np.ceil(center - radius - 1e-9).astype(np.int64)
        hi = np.floor(center + radius + 1e-9).astype(np.int64)
        if zero_first:
            # the half space; at x_0 it also leaves out the zero vector
            lo[0] = max(lo[0], 0 if i else 1)
        counts = np.maximum(hi - lo + 1, 0)
        total = int(counts.sum())
        if total > BLOCK_ROWS and len(P) > 1:
            h = len(P) // 2
            *up, (parent, x) = links
            for part, first in ((slice(h, None), False),
                                (slice(h), zero_first)):
                stack.append((i, (*up, (parent[part], x[part])), P[part],
                              rem[part], nrm[part], S[part], first))
            continue
        parent = np.repeat(np.arange(len(P)), counts)
        first = np.cumsum(counts) - counts
        x = lo[parent] + (np.arange(total) - first[parent])
        t = rii * (x - center[parent])
        S = S[parent]
        # only the partial sums of the coordinates still open are kept
        stack.append((i - 1, (*links, (parent, x)),
                      P[parent, :i] + x[:, None] * R[:i, i],
                      rem[parent] - t * t,
                      nrm[parent] + x * (G[i, i] * x + 2 * S[:, i]),
                      S[:, :i] + x[:, None] * G[:i, i], zero_first))


def _read_back(rows: np.ndarray, links, dtype) -> np.ndarray:
    """The coordinates, in dtype, of the leaves rows of a _half_walk block
    with these links."""
    X = np.empty((len(rows), len(links)), dtype)
    for j, (parent, x) in enumerate(reversed(links)):
        X[:, j] = x[rows]
        rows = parent[rows]
    return X


def _sorted_shells(L: IntegralLattice, max_norm) -> Tuple[np.ndarray, np.ndarray]:
    """(norms, rows) of every lattice vector with <v,v> <= max_norm.

    rows holds basis coefficients, one vector per row, sorted by exact
    norm (the int64 array norms) and then lexicographically, so the zero
    vector comes first; a negative bound gives no rows.  The leaves of
    _half_walk are read back along their parent links, block by block, in
    the rows' dtype (int16 when every coefficient the ellipsoid reaches
    fits, else int64).  The zero vector, the leaves and their mirror
    images -v are written into one array and ordered by np.lexsort over
    the norm and the columns.
    """
    n = L.rank
    if max_norm < 0:
        return np.zeros(0, np.int64), np.zeros((0, n), np.int64)
    # |x_i| <= sqrt(bound (g^-1)_ii) on the ellipsoid
    reach = np.sqrt((float(max_norm) + 1e-9)
                    * np.diag(np.linalg.inv(L.gram_float))).max() + 2
    dtype = np.int16 if reach < np.iinfo(np.int16).max else np.int64
    leaves = [(nrm, _read_back(rows, links, dtype))
              for nrm, rows, links in _half_walk(L, max_norm)]
    h = sum(len(nrm) for nrm, _ in leaves)
    # row 0 is the zero vector, rows 1..h the leaves, then their mirrors
    norms = np.empty(2 * h + 1, np.int64)
    X = np.empty((2 * h + 1, n), dtype)
    np.concatenate([np.zeros(1, np.int64)] + [nrm for nrm, _ in leaves],
                   out=norms[:h + 1])
    np.concatenate([np.zeros((1, n), dtype)] + [x for _, x in leaves],
                   out=X[:h + 1])
    del leaves
    norms[h + 1:] = norms[1:h + 1]
    np.negative(X[1:h + 1], out=X[h + 1:])
    order = np.lexsort(tuple(X[:, j] for j in reversed(range(n))) + (norms,))
    # the rows are gathered first, so that the unsorted ones are freed
    # before the norms are gathered
    X = X[order]
    return norms[order], X


def enumerate_by_norm(L: IntegralLattice, max_norm) -> Dict[int, List[Tuple[int, ...]]]:
    """All lattice vectors with <v,v> <= max_norm, grouped by exact norm.

    Returns {norm: [coefficient tuples]} with norms ascending and the
    tuples in lexicographic order; closed under negation; the zero vector
    sits at norm 0.
    """
    norms, X = _sorted_shells(L, max_norm)
    keys, first = np.unique(norms, return_index=True)
    # one tuple per row, built from the column lists, with no list per row
    rows = list(zip(*X.T.tolist()))
    first = first.tolist()
    return {k: rows[a:b]
            for k, a, b in zip(keys.tolist(), first, first[1:] + [len(rows)])}


def _root_rows(L: IntegralLattice) -> np.ndarray:
    norms, X = _sorted_shells(L, 2)
    return X[norms == 2]


def roots(L: IntegralLattice) -> List[Tuple[int, ...]]:
    return [tuple(r) for r in _root_rows(L).tolist()]


def coxeter_from_roots(L: IntegralLattice):
    """c with sum_r <r,e_i><r,e_j> = 2 c <e_i,e_j>, from the norm-2 vectors.

    Raises if the ratios disagree (reducible lattice).
    """
    G = L.gram
    gr = _root_rows(L).astype(np.int64) @ G   # rows gram_den <r, e_j>
    M = gr.T @ gr                     # gram_den^2 sum_r <r,e_i><r,e_j>
    vals = set()
    for i in range(L.rank):
        for j in range(L.rank):
            gij = int(G[i, j])
            if gij == 0:
                if M[i, j] != 0:
                    raise ValueError("inconsistent Coxeter ratios")
                continue
            vals.add(Fraction(int(M[i, j]), 2 * gij * L.gram_den))
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
    coroot = builtin("spin16_coroot")
    return _in_basis(builtin("e8"), [2 * x for x in coroot._numerators(v)],
                     coroot.basis_den)


def _in_basis(L: IntegralLattice, numerators: Sequence[int],
              den: int) -> Tuple[int, ...]:
    """Integer basis coefficients of the ambient point numerators / den:
    solved in floats, then confirmed in integers."""
    sol = np.linalg.solve(L.basis_float.T, np.array(numerators) / den)
    coeffs = tuple(int(round(s)) for s in sol)
    if [x * den for x in L._numerators(coeffs)] \
            != [x * L.basis_den for x in numerators]:
        raise ValueError("vector is not in the target lattice")
    return coeffs


def spin16_first_series() -> List[Tuple[int, ...]]:
    """The norm-1 shell of the coroot lattice: the 112 coroots
    (1/2)(+-x_i+-x_j), i<j, in basis coefficients."""
    return enumerate_by_norm(builtin("spin16_coroot"), 1).get(1, [])


def weight_identity_check() -> Fraction:
    """max |2 sum_i x_i(a) x_i(b) - <a,b>| over basis pairs; exact 0."""
    L = builtin("spin16_coroot")
    units = [tuple(1 if t == i else 0 for t in range(L.rank))
             for i in range(L.rank)]
    xs = [L.coordinates(a) for a in units]
    worst = Fraction(0)
    for a, xa in zip(units, xs):
        for b, xb in zip(units, xs):
            lhs = 2 * sum(p * q for p, q in zip(xa, xb))
            diff = abs(lhs - L.inner(a, b))
            worst = max(worst, diff)
    return worst


# ---------------------------------------------------------------------------
# classes mod 2L and anomaly exponents


def class_sizes_mod_2(L: IntegralLattice,
                      max_norm: int) -> Dict[int, List[int]]:
    """For each norm up to max_norm, the sizes of the classes mod 2L of
    the vectors of that norm; so the sizes of a norm sum to its count.

    A class is keyed by its coefficients mod 2, read as the bits of one
    int64, so the rank is at most 63 (a larger one raises OverflowError).

    The 2160 norm-4 vectors of E8 fall into 135 classes of 16: a class is
    the 8 orthogonal pairs +-v of a frame.  W(E8) permutes the frames
    transitively with stabiliser W(D8), so their number is the index
    |W(E8)| / |W(D8)| = 135.
    """
    norms, X = _sorted_shells(L, max_norm)
    bits = np.array([1 << i for i in range(L.rank)], dtype=np.int64)
    keys = (X % 2) @ bits
    return {k: np.unique(keys[norms == k], return_counts=True)[1].tolist()
            for k in sorted(set(norms.tolist()))}


_ANOMALY = {
    "e8e8_adjoint": (30, 464, 496, 10),
    "spin16_rho": (1, 0, 32, 10),
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
    if max_norm < 0:
        return {}
    # each leaf of the half walk counts for itself and its mirror image;
    # the zero vector, its own mirror, once
    keys, counts = np.unique(np.concatenate(
        [np.zeros(1, np.int64)] + [nrm for nrm, _, _ in _half_walk(L, max_norm)]),
        return_counts=True)
    counts = 2 * counts
    counts[0] -= 1
    return dict(zip(keys.tolist(), counts.tolist()))
