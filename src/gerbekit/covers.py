"""Open covers of S^1 and T^2, refinements, subordinations, and dual cell
decompositions on which cochains live and holonomy is computed.

Angular coordinates have period 2*pi throughout.  Cells are stored with
lifted (non-wrapped) real coordinates; since all integrands are periodic the
choice of lift does not affect any integral.
"""

from __future__ import annotations

import itertools
import math
import operator
import weakref
from typing import (Callable, Collection, Dict, Hashable, List, Sequence,
                    Tuple)

import numpy as np

from .trigform import _integrate_monomial, signed_sum

TWO_PI = 2 * math.pi


# ---------------------------------------------------------------------------
# oriented cells and chains
#
# A cell is not changed once built: its `integrals` dict memoises the
# closed-form integrals of the monomials e^{i k.x} dx_I over it, keyed by
# (k, I).  A chain memoises its own sums of them the same way.


class Cell:
    """An oriented cell, given by its vertices: a point, a segment from
    vertices[0] to vertices[1], or a polygon with its vertices in
    boundary order.  sign is a point's boundary-induced orientation.
    The vertices are converted once, to tuples of Python floats."""

    __slots__ = ("vertices", "dim", "sign", "integrals")

    def __init__(self, vertices, sign: int = 1):
        self.vertices = tuple(tuple(map(float, v)) for v in vertices)
        self.dim = min(len(self.vertices) - 1, 2)
        self.sign = sign
        self.integrals: Dict[tuple, complex] = {}

    def integral(self, freq: Tuple[int, ...], axes: Tuple[int, ...]) -> complex:
        """The integral of e^{i freq.x} dx_axes over the cell, memoised."""
        got = self.integrals.get((freq, axes))
        if got is None:
            got = self.integrals[freq, axes] = _integrate_monomial(freq, axes,
                                                                   self)
        return got


class Chain:
    """The formal sum of cells of one dimension: its integral of a form is
    the sum of theirs, a point's sign included, and `sign` is the sum of
    its points' signs, the weight of an integer on a chain of points."""

    __slots__ = ("cells", "dim", "sign", "integrals")

    def __init__(self, cells: Sequence[Cell]):
        self.cells = tuple(cells)
        self.dim = self.cells[0].dim
        self.sign = sum(cell.sign for cell in self.cells)
        self.integrals: Dict[tuple, complex] = {}

    def integral(self, freq: Tuple[int, ...], axes: Tuple[int, ...]) -> complex:
        """The sum, in cell order, of the cells' integrals of
        e^{i freq.x} dx_axes, memoised."""
        got = self.integrals.get((freq, axes))
        if got is None:
            first, *rest = self.cells
            got = first.integral(freq, axes)
            for cell in rest:
                got += cell.integral(freq, axes)
            self.integrals[freq, axes] = got
        return got


# ---------------------------------------------------------------------------
# arcs on the circle


def _arcs_meet(arcs: Collection[Tuple[float, float]]) -> bool:
    """Do the open circle arcs (lo, hi) share an interval longer than 1e-12?

    A common interval starts at one of the arcs' left ends, so it is long
    enough exactly when some left end plus 1e-12 lies inside every arc,
    taken mod 2pi.
    """
    return any(all((lo + 1e-12 - a) % TWO_PI < b - a for a, b in arcs)
               for lo, _ in arcs)


def _arc_contains_interval(arc: Tuple[float, float], lo: float,
                           hi: float) -> bool:
    """Does the circle arc contain the (lifted) interval [lo, hi]?"""
    alo, ahi = arc
    tol = 1e-9
    if hi - lo > (ahi - alo) + tol:
        return False
    shift = math.floor((lo - alo) / TWO_PI) * TWO_PI
    for k in (shift, shift + TWO_PI):
        if lo - k >= alo - tol and hi - k <= ahi + tol:
            return True
    return False


# ---------------------------------------------------------------------------
# covers


class Cover:
    """A finite open cover of a product of circles by boxes.

    pieces[i] is a tuple of per-factor arcs (lo, hi) in lifted coordinates;
    the number of arcs per piece is the number of circle factors.  A
    product cover X x E keeps its factor covers (X, E); any other cover
    has none.  A product numbers the piece of X's piece x and E's piece e
    as x * nb + e, nb = len(E.pieces): product_cover's loop order writes
    that numbering, and product_index, Cover.meeting and fiberint._path_sum
    read it.
    """

    def __init__(self, pieces: Sequence[Tuple[Tuple[float, float], ...]]):
        self.pieces = [tuple(tuple(arc) for arc in p) for p in pieces]
        self.factors = len(self.pieces[0])
        self.cover_id = ""      # set by serialize.cover_from_id
        self.factor_covers: Tuple[Cover, ...] = ()   # set by product_cover
        self._tuple_cache: Dict[int, List[Tuple[int, ...]]] = {}
        self._support_cache = {0: [()], 1: [(i,) for i in self.indices]}
        # a factor cover's meeting answers, keyed by the projection asked
        self._meeting_cache: Dict[frozenset, List[int]] = {}

    @property
    def indices(self):
        return range(len(self.pieces))

    def intersection_nonempty(self, idx: Collection[int]) -> bool:
        """Do the pieces named by idx have a common point?  Boxes meet when
        their distinct arcs meet on every axis; a single piece meets."""
        return len(idx) == 1 or all(
            _arcs_meet(set(arcs))
            for arcs in zip(*[self.pieces[i] for i in idx]))

    def meeting(self, idx: Collection[int]) -> List[int]:
        """The pieces, in order, that have a common point with the pieces
        named by idx.

        A product cover's are the pieces x * nb + e (product_index's
        numbering) with x meeting idx's projection to X and e its
        projection to E.  Each factor cover keeps its answers in its
        _meeting_cache, keyed by the projection.
        """
        if not self.factor_covers:
            return [i for i in self.indices
                    if self.intersection_nonempty({*idx, i})]
        X, E = self.factor_covers
        nb = len(E.pieces)
        xs, es = [f._meeting_cache[p] if p in f._meeting_cache
                  else f._meeting_cache.setdefault(p, f.meeting(p))
                  for f, p in ((X, frozenset(i // nb for i in idx)),
                               (E, frozenset(i % nb for i in idx)))]
        return [x * nb + e for x in xs for e in es]

    def supports(self, size: int) -> List[Tuple[int, ...]]:
        """Sorted index sets of the given size with a common point.

        A (k+1)-support is a k-support s and a later piece that meets s,
        so the enumeration never touches the vast majority of index
        combinations.  meeting lists the pieces in order (on a product,
        in product_index's numbering x * nb + e), so the supports come in
        lexicographic order.  Factor covers keep their answers for good.
        The one 0-support is the empty index set; a negative size is
        refused.
        """
        if size < 0:
            raise ValueError(f"support size {size} is negative")
        if size not in self._support_cache:
            self._support_cache[size] = [
                s + (j,) for s in self.supports(size - 1)
                for j in self.meeting(s) if j > s[-1]]
        return self._support_cache[size]

    def nonempty_tuples(self, length: int) -> List[Tuple[int, ...]]:
        """All ordered tuples of *distinct* piece indices with a common point."""
        if length not in self._tuple_cache:
            self._tuple_cache[length] = sorted(
                t for combo in self.supports(length)
                for t in itertools.permutations(combo))
        return self._tuple_cache[length]

    def piece_contains_box(self, i: int, box: Sequence[Tuple[float, float]]) -> bool:
        return all(_arc_contains_interval(self.pieces[i][axis], lo, hi)
                   for axis, (lo, hi) in enumerate(box))


class Subordination:
    """sigma: refinement index -> coarse index with V_j contained in U_{sigma(j)}."""

    def __init__(self, source: Cover, target: Cover, index_map: Sequence[int]):
        self.source = source
        self.target = target
        self.index_map = tuple(int(i) for i in index_map)
        if len(self.index_map) != len(source.pieces):
            raise ValueError("index map length mismatch")
        for j, i in enumerate(self.index_map):
            if not target.piece_contains_box(i, source.pieces[j]):
                raise ValueError(f"V_{j} not contained in U_{i}")


def make_circle_cover(N: int, overlap: float) -> Cover:
    if N < 3:
        raise ValueError("need at least 3 arcs")
    if not (0 < overlap < math.pi / N):
        raise ValueError("overlap must lie in (0, pi/N)")
    h = TWO_PI / N
    pieces = [((j * h - overlap, (j + 1) * h + overlap),) for j in range(N)]
    return Cover(pieces)


def make_torus_cover(N: int, M: int, overlap: float) -> Cover:
    cx = make_circle_cover(N, overlap)
    cy = make_circle_cover(M, overlap)
    return product_cover(cx, cy)


def product_cover(a: Cover, b: Cover) -> Cover:
    c = Cover([pa + pb for pa in a.pieces for pb in b.pieces])
    c.factor_covers = (a, b)
    return c


def product_index(cover: Cover, ia: int, ib: int) -> int:
    return ia * len(cover.factor_covers[1].pieces) + ib


# ---------------------------------------------------------------------------
# refinement with two subordinations


def _refine_circle(c: Cover, factor: int):
    """Refine a circle cover into N*factor arcs.

    Within each coarse arc, the first refined piece straddles the coarse
    boundary (it sits inside the double overlap of two consecutive coarse
    arcs, so it admits two subordination choices); the remaining factor-1
    pieces subdivide the interior.
    """
    N = len(c.pieces)
    h = TWO_PI / N
    ov = c.pieces[0][0][1] - h  # right extension of the first arc
    w = 0.45 * ov              # half-width of a straddling piece
    m = 0.5 * w                # overlap margin of interior pieces
    pieces = []
    sig, sig2 = [], []
    for i in range(N):
        left = i * h
        # straddling piece centered at the coarse boundary
        pieces.append(((left - w, left + w),))
        sig.append(i)
        sig2.append((i - 1) % N)
        # interior pieces
        L = (h - 2 * w) / (factor - 1) if factor > 1 else 0.0
        for s in range(1, factor):
            a = left + w + (s - 1) * L
            pieces.append(((a - m, a + L + m),))
            sig.append(i)
            sig2.append(i)
    fine = Cover(pieces)
    return fine, sig, sig2


def refine(c: Cover, factor: int):
    """Return (refined cover, sigma, sigma') with two distinct subordinations."""
    if factor < 2:
        raise ValueError("factor must be >= 2")
    if c.factors == 1:
        fine, sig, sig2 = _refine_circle(c, factor)
    elif c.factors == 2:
        ax, ay = c.factor_covers
        fx, sx, sx2 = _refine_circle(ax, factor)
        fy, sy, _ = _refine_circle(ay, factor)
        fine = product_cover(fx, fy)
        sig = [product_index(c, a, b) for a in sx for b in sy]
        # the second map differs along the first factor only
        sig2 = [product_index(c, a, b) for a in sx2 for b in sy]
    else:
        raise ValueError("only 1- and 2-factor covers are supported")
    return (fine, Subordination(fine, c, sig), Subordination(fine, c, sig2))


# ---------------------------------------------------------------------------
# dual cell decompositions


# images whose chains a decomposition keeps, the most recently used ones
CHAIN_IMAGES = 8


class DualCellDecomposition:
    """Oriented cell complex dual to a triangulation of S^1 or T^2.

    faces[k] maps strictly decreasing multi-indices (i1 > ... > ik) of top
    cells to the oriented common (n+1-k)-cell; Delta_(i1...ik) carries the
    orientation induced as a boundary component of Delta_(i1...ik-1).
    """

    def __init__(self, faces: Dict[int, Dict[Tuple[int, ...], Cell]]):
        self.faces = faces
        self.top_cells = list(faces[1].values())   # faces[1][(i,)], i in order
        self.dim = self.top_cells[0].dim
        # admissible_pieces per cover, dropped with the cover
        self._admissible = weakref.WeakKeyDictionary()
        # chains per image, at most CHAIN_IMAGES of them, oldest use first
        self._chains: Dict[tuple, Dict[int, List[Tuple[tuple, Chain]]]] = {}

    def chains(self, image: Sequence[Hashable]
               ) -> Dict[int, List[Tuple[tuple, Chain]]]:
        """Each layer's cells grouped into chains by their image.

        image labels the top cells (a subordination rho, or the pairs of
        two); the image of Delta_(i1...ik) is (image[i1], ..., image[ik]),
        and the chain C_b of layer k is the sum of its cells with image b,
        in cell order.  A cell whose image holds one label twice in a row
        is dropped: every component, path-sum symbol and prism member read
        there repeats an index, so it reads zero.  Layer k lists its
        (b, C_b) pairs in order of first appearance.  Built in one loop
        over the faces and kept per image for the CHAIN_IMAGES images used
        last, so push-forwards and holonomies along one subordination
        share the chains and their memoised integrals.
        """
        key = tuple(image)
        got = self._chains.pop(key, None)
        if got is None:
            got = {}
            for k, cells in self.faces.items():
                groups: Dict[tuple, List[Cell]] = {}
                for idx, cell in cells.items():
                    b = tuple([key[i] for i in idx])
                    if all(map(operator.ne, b, b[1:])):
                        groups.setdefault(b, []).append(cell)
                got[k] = [(b, Chain(group)) for b, group in groups.items()]
            if len(self._chains) >= CHAIN_IMAGES:
                del self._chains[next(iter(self._chains))]
        self._chains[key] = got
        return got

    def layer_sum(self, p: int, image: Sequence[Hashable],
                  value: Callable[[tuple, Chain], object], zero):
        """The signed sum over the layers of a degree-p output,

            sum_{k=1}^{dim+1} (-1)^{(p+1)(k+1)} sum_b value(b, C_b),

        C_b the chain of layer-k cells with image b (see `chains`); by
        linearity this is the sum over the cells Delta_(i) of
        value(image(i), Delta_(i)), with each value taken once per chain.
        Each layer is summed on its own by signed_sum, then added into the
        total by a second signed_sum with its sign as the odd flag.  value
        returns None for a chain that contributes nothing.  Holonomy is
        the case p = 0; the push-forward and its homotopy use the output
        degree on the base.
        """
        chains = self.chains(image)

        def layer(k: int):
            values = (value(b, chain) for b, chain in chains.get(k, ()))
            return signed_sum(zero, ((0, v) for v in values if v is not None))

        return signed_sum(zero, ((layer_sign(p, k) < 0, layer(k))
                                 for k in range(1, self.dim + 2)))


def layer_sign(p: int, k: int) -> int:
    """(-1)^{(p+1)(k+1)}: the sign of layer k in a degree-p layer sum."""
    return -1 if (p + 1) * (k + 1) % 2 else 1


def make_circle_decomposition(N: int) -> DualCellDecomposition:
    if N < 3:
        raise ValueError("N must be >= 3")
    h = TWO_PI / N
    segs = [Cell([[j * h], [(j + 1) * h]]) for j in range(N)]
    faces = {1: {(j,): s for j, s in enumerate(segs)}, 2: {}}
    for j in range(N):
        jn = (j + 1) % N
        i1, i2 = (jn, j) if jn > j else (j, jn)
        # the vertex shared by segments j and j+1, in the boundary of the
        # oriented segment Delta_{i1}: its end (+1) only at the wrap vertex
        # (N-1, 0), where i1 = j; else its start (-1), where i1 = j + 1
        sign = +1 if jn == 0 else -1
        faces[2][(i1, i2)] = Cell([segs[j].vertices[1]], sign)
    return DualCellDecomposition(faces)


_HEX_THIRDS = ((2, 1), (1, 2), (-1, 1), (-2, -1), (-1, -2), (1, -1))


def make_torus_hex_decomposition(N: int) -> DualCellDecomposition:
    """Dual of the N x N diagonal-split grid triangulation of T^2.

    One hexagon per grid vertex, with vertices at the barycenters of the six
    incident triangles, _HEX_THIRDS thirds of a grid step from it; 3
    hexagons meet at each barycenter, 2 along each edge.  A barycenter is
    keyed by its integer thirds mod 3N, so no float is rounded back.
    """
    if N < 3:
        raise ValueError("N must be >= 3")
    h = TWO_PI / N
    steps = h * (np.array(_HEX_THIRDS) / 3)
    faces = {1: {}, 2: {}, 3: {}}
    # edge key -> (hexagon index, start, end, end key) as each of its two
    # hexagons traverses it; vertex key -> the hexagons meeting there
    edges: Dict[frozenset, List[tuple]] = {}
    corners: Dict[Tuple[int, int], List[int]] = {}
    for i, (p, q) in enumerate(itertools.product(range(N), repeat=2)):
        hexa = faces[1][(i,)] = Cell(np.array([p * h, q * h]) + steps)
        keys = [((3 * p + a) % (3 * N), (3 * q + b) % (3 * N))
                for a, b in _HEX_THIRDS]
        for t in range(6):
            u = (t + 1) % 6
            edges.setdefault(frozenset((keys[t], keys[u])), []).append(
                (i, hexa.vertices[t], hexa.vertices[u], keys[u]))
            corners.setdefault(keys[t], []).append(i)

    end_keys = {}
    for (i2, *_), (i1, a, b, end_key) in edges.values():
        # oriented as traversed by the larger-index cell
        faces[2][(i1, i2)] = Cell([a, b])
        end_keys[(i1, i2)] = end_key
    for key, (i3, i2, i1) in corners.items():
        # the vertex is the end (+1) or the start (-1) of Delta_(i1,i2)
        start, end = faces[2][(i1, i2)].vertices
        pt, sign = (end, 1) if key == end_keys[(i1, i2)] else (start, -1)
        faces[3][(i1, i2, i3)] = Cell([pt], sign)
    return DualCellDecomposition(faces)


# ---------------------------------------------------------------------------
# subordinations of decompositions to covers


def _cell_bounding_box(cell: Cell) -> List[Tuple[float, float]]:
    return [(min(c), max(c)) for c in zip(*cell.vertices)]


def admissible_pieces(dec: DualCellDecomposition,
                      cover: Cover) -> Tuple[Tuple[int, ...], ...]:
    """For each top cell, the cover pieces fully containing it; computed
    once per (decomposition, cover) pair, as neither changes."""
    got = dec._admissible.get(cover)
    if got is None:
        boxes = map(_cell_bounding_box, dec.top_cells)
        got = dec._admissible[cover] = tuple(
            tuple(i for i in cover.indices if cover.piece_contains_box(i, box))
            for box in boxes)
    return got


def two_subordinations(dec: DualCellDecomposition, cover: Cover,
                       rng=None) -> Tuple[List[int], List[int]]:
    """Two valid subordinations differing wherever a cell admits a choice."""
    if dec.dim != cover.factors:
        raise ValueError(f"a {dec.dim}-dimensional decomposition does not fit "
                         f"a cover of T^{cover.factors}")
    adm = admissible_pieces(dec, cover)
    rho, rho2 = [], []
    for i, options in enumerate(adm):
        if not options:
            raise ValueError(f"top cell {i} not contained in any cover piece")
        rho.append(options[0])
        if len(options) > 1:
            if rng is not None:
                rho2.append(options[int(rng.integers(1, len(options)))])
            else:
                rho2.append(options[1])
        else:
            rho2.append(options[0])
    return rho, rho2
