import hashlib
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gerbekit.covers
from gerbekit.covers import (TWO_PI, Cover, _arcs_meet, _cell_bounding_box,
                             admissible_pieces, layer_sign,
                             make_circle_cover, make_circle_decomposition,
                             make_torus_cover, make_torus_hex_decomposition,
                             product_cover, refine, two_subordinations)


def test_circle_cover_shapes():
    c = make_circle_cover(4, 0.6)
    assert len(c.pieces) == 4


def test_only_a_product_cover_has_factor_covers():
    c = make_circle_cover(4, 0.6)
    assert c.factor_covers == ()
    t = product_cover(c, make_circle_cover(3, 0.5))
    assert t.factor_covers[0] is c and len(t.factor_covers) == 2


def test_circle_cover_nerve():
    c = make_circle_cover(4, 0.6)
    # adjacent pieces overlap, opposite ones do not (overlap < half width)
    assert c.intersection_nonempty((0, 1))
    assert c.intersection_nonempty((3, 0))
    assert not c.intersection_nonempty((0, 2))
    # a single piece meets, however short its arcs
    assert Cover([((1.0, 1.0),), ((0.0, 2.0),)]).intersection_nonempty((0,))


def test_torus_cover_product_structure():
    c = make_torus_cover(3, 3, 0.6)
    assert len(c.pieces) == 9
    assert c.factors == 2


def test_product_cover_indexing():
    from gerbekit.covers import product_index
    a = make_circle_cover(3, 0.5)
    b = make_circle_cover(4, 0.5)
    c = product_cover(a, b)
    assert len(c.pieces) == 12
    for ia in range(3):
        for ib in range(4):
            assert (c.pieces[product_index(c, ia, ib)]
                    == a.pieces[ia] + b.pieces[ib])


def test_refine_gives_valid_subordinations():
    c = make_circle_cover(4, 0.6)
    fine, s1, s2 = refine(c, 2)
    assert len(fine.pieces) == 8
    assert s1.index_map != s2.index_map
    for j, piece in enumerate(fine.pieces):
        for s in (s1, s2):
            # the fine piece must sit inside its assigned coarse piece
            assert c.piece_contains_box(s.index_map[j], piece)


def test_circle_decomposition_counts():
    dec = make_circle_decomposition(8)
    assert dec.dim == 1
    assert len(dec.faces[1]) == 8     # segments
    assert len(dec.faces[2]) == 8     # vertices


def test_hex_decomposition_counts():
    N = 4
    dec = make_torus_hex_decomposition(N)
    assert dec.dim == 2
    assert len(dec.faces[1]) == N * N          # hexagons
    assert len(dec.faces[2]) == 3 * N * N      # edges
    assert len(dec.faces[3]) == 2 * N * N      # vertices


@pytest.mark.parametrize("dec", [make_circle_decomposition(8),
                                 make_torus_hex_decomposition(4)],
                         ids=["circle:8", "hex:4"])
def test_a_cell_is_its_vertices(dec):
    # faces[k] holds the (dim + 1 - k)-cells, faces[1] top cell i at (i,)
    # in index order; a cell's box spans its vertices
    assert list(dec.faces[1]) == [(i,) for i in range(len(dec.top_cells))]
    for k, cells in dec.faces.items():
        for cell in cells.values():
            assert cell.dim == dec.dim + 1 - k
            coords = list(zip(*cell.vertices))
            assert _cell_bounding_box(cell) == [(min(c), max(c))
                                                for c in coords]


ORIENTED = ([make_circle_decomposition(N) for N in range(3, 9)]
            + [make_torus_hex_decomposition(N) for N in range(3, 9)])


@pytest.mark.parametrize("dec", ORIENTED,
                         ids=[f"circle:{N}" for N in range(3, 9)]
                         + [f"hex:{N}" for N in range(3, 9)])
def test_a_point_is_plus_at_its_segments_end_and_minus_at_its_start(dec):
    # the point at (i1, ..., i_top) is filed under the segment
    # Delta_(i1, ..., i_{top-1}): +1 at its end, -1 at its start
    points, segments = dec.faces[dec.dim + 1], dec.faces[dec.dim]
    for key, cell in points.items():
        start, end = segments[key[:-1]].vertices
        assert cell.sign in (1, -1), key
        assert cell.vertices[0] == (end if cell.sign == 1 else start), key


@pytest.mark.parametrize("N", range(3, 9))
def test_each_hexagon_boundary_closes_up(N):
    # hexagon i's edges, +1 where i is the larger index (the edge is oriented
    # as that hexagon traverses it) and -1 where it is the smaller, have
    # signed endpoints that cancel mod 2pi; each sits on the thirds grid
    dec = make_torus_hex_decomposition(N)
    third = TWO_PI / (3 * N)

    def grid_point(pt):
        steps = [(c % TWO_PI) / third for c in pt]
        assert all(abs(s - round(s)) < 1e-9 for s in steps), pt
        return tuple(round(s) % (3 * N) for s in steps)

    for i in range(N * N):
        weights = {}
        edges = [(key, seg) for key, seg in dec.faces[2].items() if i in key]
        assert len(edges) == 6, i
        for (i1, _), seg in edges:
            sign = 1 if i == i1 else -1
            for pt, s in zip(seg.vertices, (-sign, sign)):
                g = grid_point(pt)
                weights[g] = weights.get(g, 0) + s
        assert set(weights.values()) == {0}, i


def _hex_faces_digest(sizes):
    h = hashlib.sha256()
    for N in sizes:
        for k, cells in make_torus_hex_decomposition(N).faces.items():
            for key, cell in cells.items():
                coords = " ".join(x.hex() for v in cell.vertices for x in v)
                h.update(f"{N} {k} {key} {cell.sign} {coords}\n".encode())
    return h.hexdigest()


def test_hex_faces_are_pinned_cell_for_cell():
    # keys in order, signs and every coordinate's bits of hex:3 .. hex:8
    assert _hex_faces_digest(range(3, 9)) == (
        "943bc24cb3ff5612b2503c94a15e78ea1ef300d7d03f46ccca02b66360c776e2")


def _shoelace_area(cell):
    vs = cell.vertices
    return 0.5 * sum(x0 * y1 - x1 * y0 for (x0, y0), (x1, y1)
                     in zip(vs, vs[1:] + vs[:1]))


def test_hex_areas_tile_torus():
    dec = make_torus_hex_decomposition(4)
    total = sum(_shoelace_area(cell) for cell in dec.top_cells)
    assert abs(total - (2 * math.pi) ** 2) < 1e-9


def test_layer_sign_table():
    # (-1)^{(p+1)(k+1)} for the layers k = 1, 2, 3 at output degrees p = 0, 1, 2
    assert [[layer_sign(p, k) for k in (1, 2, 3)] for p in (0, 1, 2)] == [
        [1, -1, 1], [1, 1, 1], [1, -1, 1]]


@pytest.mark.parametrize("dec", [make_circle_decomposition(5),
                                 make_torus_hex_decomposition(4)],
                         ids=["circle:5", "hex:4"])
@pytest.mark.parametrize("p", [0, 1, 2])
def test_layer_sum_weighs_each_layer_by_its_sign(dec, p):
    # one unit per cell of layer k, and None (no contribution) on the rest;
    # under the identity image every chain is one cell
    image = range(len(dec.top_cells))
    for k in dec.faces:
        got = dec.layer_sum(p, image, lambda b, chain: len(chain.cells)
                            if len(b) == k else None, 0)
        assert got == layer_sign(p, k) * len(dec.faces[k])


def test_subordinate_is_admissible():
    cover = make_circle_cover(4, 0.7)
    dec = make_circle_decomposition(20)
    adm = admissible_pieces(dec, cover)
    rho = two_subordinations(dec, cover)[0]
    assert all(rho[i] in adm[i] for i in range(len(rho)))


def test_admissible_pieces_are_computed_once_per_pair():
    cover = make_circle_cover(4, 0.7)
    dec = make_circle_decomposition(20)
    first = admissible_pieces(dec, cover)
    assert admissible_pieces(dec, cover) is first
    # a fresh decomposition and cover give equal lists, and the same seeded
    # second subordination from a cold and a warm memo
    assert admissible_pieces(make_circle_decomposition(20),
                             make_circle_cover(4, 0.7)) == first
    draws = [two_subordinations(d, c, np.random.default_rng(0))
             for d, c in ((dec, cover), (dec, cover),
                          (make_circle_decomposition(20),
                           make_circle_cover(4, 0.7)))]
    assert draws[0] == draws[1] == draws[2]
    assert draws[0][0] != draws[0][1]


def test_two_subordinations_differ():
    cover = make_circle_cover(4, 0.7)
    dec = make_circle_decomposition(20)
    rho, rho2 = two_subordinations(dec, cover, np.random.default_rng(0))
    assert rho != rho2


def test_subordinate_raises_without_containment():
    cover = make_circle_cover(8, 0.05)
    dec = make_circle_decomposition(4)    # segments wider than any piece
    with pytest.raises(ValueError):
        two_subordinations(dec, cover)


def _arc_to_intervals(lo, hi):
    """The open arc (lo, hi) as plain intervals in [0, 2pi)."""
    length = hi - lo
    if length >= TWO_PI:
        return [(0.0, TWO_PI)]
    lo = lo % TWO_PI
    hi = lo + length
    if hi <= TWO_PI:
        return [(lo, hi)]
    return [(lo, TWO_PI), (0.0, hi - TWO_PI)]


def _intersect_interval_lists(a, b):
    out = []
    for lo1, hi1 in a:
        for lo2, hi2 in b:
            lo, hi = max(lo1, lo2), min(hi1, hi2)
            if hi - lo > 1e-12:
                out.append((lo, hi))
    return out


def arcs_intersection_reference(arcs):
    """The arcs' common part as intervals of [0, 2pi) longer than 1e-12,
    intersected one arc at a time: the rule `_arcs_meet` replaced.  It
    cuts the circle at 0, so it misses a common arc no longer than 2e-12
    that straddles 0; and a single arc meets however short it is."""
    cur = _arc_to_intervals(*arcs[0])
    for arc in arcs[1:]:
        cur = _intersect_interval_lists(cur, _arc_to_intervals(*arc))
        if not cur:
            return []
    return cur


STEP = TWO_PI / 2 ** 20


@st.composite
def arc_sets(draw):
    """0-3 arcs whose left ends and lengths (up to 1.5 turns, or exactly
    one) lie on a grid of STEP, so any overlap of them is 0 or at least a
    step, each lifted by up to two turns either way; then, when drawn or
    when there is no other arc, a pair that overlaps by +-5e-13 or
    +-2e-12 at a grid point t other than 0, where the reference cuts."""
    def grid_arc(first, steps):
        lo = STEP * first + TWO_PI * draw(st.integers(-2, 2))
        return (lo, lo + STEP * steps)

    lengths = st.one_of(st.integers(1, 3 * 2 ** 19), st.just(2 ** 20))
    arcs = [grid_arc(draw(st.integers(0, 2 ** 20 - 1)), draw(lengths))
            for _ in range(draw(st.integers(0, 3)))]
    if not arcs or draw(st.booleans()):
        t = draw(st.integers(1, 2 ** 20 - 1))
        delta = draw(st.sampled_from([5e-13, 2e-12, -5e-13, -2e-12]))
        steps = draw(st.integers(1, 2 ** 20))
        lo, hi = grid_arc(t - steps, steps)          # ends at t
        arcs += [(lo, hi + delta), grid_arc(t, draw(st.integers(1, 2 ** 20)))]
    return draw(st.permutations(arcs))


@settings(max_examples=400, deadline=None)
@given(arc_sets())
def test_arcs_meet_agrees_with_the_interval_lists(arcs):
    assert _arcs_meet(arcs) == bool(arcs_intersection_reference(arcs))


@pytest.mark.parametrize("arcs,meet", [
    ([(0.5, 0.5 + TWO_PI)], True),                  # a whole turn
    ([(5.0, 7.0), (6.5, 8.0)], True),                # both wrap 2pi
    ([(-1.0, 0.5), (6.0, 6.1)], True),               # lifted one turn apart
    ([(1.0, 2.0), (2.0 - 5e-13, 3.0)], False),       # overlap 5e-13
    ([(1.0, 2.0), (2.0 - 2e-12, 3.0)], True),        # overlap 2e-12
    ([(0.0, 1.0)], True),                            # a single arc
    ([(0.0, 3.0), (2.0, 5.0), (4.0, 7.0)], False),   # pairwise only
])
def test_arcs_meet_cases(arcs, meet):
    assert _arcs_meet(arcs) is meet
    assert bool(arcs_intersection_reference(arcs)) is meet


def _brute_supports(cover, size):
    """Every index set of the size whose boxes meet on every axis."""
    return [combo
            for combo in itertools.combinations(range(len(cover.pieces)), size)
            if all(arcs_intersection_reference([cover.pieces[i][axis]
                                                for i in combo])
                   for axis in range(cover.factors))]


@settings(max_examples=10, deadline=None)
@given(st.integers(3, 4), st.integers(3, 4), st.floats(0.05, 0.95),
       st.integers(2, 3))
def test_product_supports_match_brute_force_box_intersection(n, m, frac,
                                                             factor):
    # product covers answer from their factor covers; the reference
    # intersects the product boxes axis by axis
    overlap = frac * math.pi / max(n, m)
    torus = make_torus_cover(n, m, overlap)
    fine, _, _ = refine(make_torus_cover(3, 3, overlap), factor)
    triple = product_cover(make_circle_cover(3, overlap), torus)
    for cover, top in ((torus, 4), (fine, 3), (triple, 3)):
        for size in range(1, top + 1):
            assert cover.supports(size) == _brute_supports(cover, size)


def _fresh_t2_product():
    """The pushforward suite's cover with a T^2 fibre, built anew."""
    return product_cover(make_circle_cover(3, 0.6),
                         make_torus_cover(3, 3, 0.75))


@pytest.mark.parametrize("make,top", [
    (_fresh_t2_product, 6),
    (lambda: product_cover(make_circle_cover(3, 0.6),
                           make_circle_cover(4, 0.7)), 5),
    (lambda: make_torus_cover(3, 3, 0.55), 5),
    (lambda: refine(make_torus_cover(3, 3, 0.55), 2)[0], 5),
], ids=["product:circle:3:0.6|torus:3:3:0.75",
        "product:circle:3:0.6|circle:4:0.7", "torus:3:3:0.55",
        "refine(torus:3:3:0.55,2)"])
def test_supports_are_the_meeting_combinations_in_order(make, top):
    # compared as lists: the random instances are drawn in this order
    cover, reference = make(), make()
    for size in range(1, top + 1):
        assert cover.supports(size) == [
            combo for combo in itertools.combinations(reference.indices, size)
            if reference.intersection_nonempty(combo)]


def test_product_supports_ask_few_arc_questions(monkeypatch):
    # every arc question counts, those asked of the factor covers too;
    # extending each support by every later piece, each candidate tested
    # as a whole box, asks 41,175
    calls = []
    ask = gerbekit.covers._arcs_meet

    def counting(arcs):
        calls.append(arcs)
        return ask(arcs)

    monkeypatch.setattr(gerbekit.covers, "_arcs_meet", counting)
    assert len(_fresh_t2_product().supports(5)) == 1512
    assert len(calls) <= 41175 // 200


def test_a_factor_cover_is_asked_each_projection_once():
    # a factor keeps its meeting answers for all of the product's supports
    # calls, the nested factors of the T^2 fibre too
    cover = _fresh_t2_product()
    asked = []
    factors = [*cover.factor_covers, *cover.factor_covers[1].factor_covers]
    for f in factors:
        def counting(idx, *rest, f=f, meeting=f.meeting):
            asked.append((id(f), frozenset(idx)))
            return meeting(idx, *rest)
        f.meeting = counting
    for size in range(2, 7):
        cover.supports(size)
    assert len(asked) == len(set(asked))
    assert len({f for f, _ in asked}) == len(factors)


@pytest.mark.parametrize("make", [lambda: make_circle_cover(4, 0.7),
                                  _fresh_t2_product],
                         ids=["circle:4:0.7",
                              "product:circle:3:0.6|torus:3:3:0.75"])
def test_the_empty_index_is_the_one_support_of_size_0(make):
    # size 0 and below once recursed until RecursionError
    cover = make()
    assert cover.supports(0) == [()]
    assert cover.nonempty_tuples(0) == [()]
    for size in (-1, -3):
        for walk in (cover.supports, cover.nonempty_tuples):
            with pytest.raises(ValueError,
                               match=f"support size {size} is negative"):
                walk(size)
    assert cover.supports(1) == [(i,) for i in cover.indices]


def _arcs_share_a_point(arcs):
    """Do the open circle arcs (lo, hi) share a point?  A nonempty
    intersection of open arcs starts just after one of their left ends."""
    def inside(t, arc):
        return (t - arc[0]) % (2 * math.pi) < arc[1] - arc[0]
    return any(all(inside(lo + 1e-7, arc) for arc in arcs) for lo, _ in arcs)


@pytest.mark.parametrize("cover_id", [
    "torus:3:3:0.55",
    "product:circle:3:0.6|circle:4:0.7",
    "product:circle:3:0.6|torus:3:3:0.75"])
def test_a_product_cover_numbers_its_pieces_by_one_rule(cover_id):
    # the pieces are numbered x * nb + e by product_cover's loop,
    # product_index, meeting's split of an index into its factor indices,
    # and (tested against product_index elsewhere) fiberint's path sums
    from gerbekit.covers import product_index
    from gerbekit.serialize import cover_from_id
    cover = cover_from_id(cover_id)
    X, E = cover.factor_covers
    assert len(cover.pieces) == len(X.pieces) * len(E.pieces)
    for x in X.indices:
        for e in E.indices:
            assert (cover.pieces[product_index(cover, x, e)]
                    == X.pieces[x] + E.pieces[e])
    for k in (1, 2, 3):
        for idx in itertools.combinations(cover.indices, k):
            boxes = [cover.pieces[i] for i in idx]
            direct = all(_arcs_share_a_point([box[axis] for box in boxes])
                         for axis in range(cover.factors))
            assert cover.intersection_nonempty(idx) == direct, idx
            meeting = cover.meeting(idx)
            assert meeting == sorted(meeting)
            for i in cover.indices:
                assert (i in meeting) == cover.intersection_nonempty(
                    set(idx) | {i}), (idx, i)
