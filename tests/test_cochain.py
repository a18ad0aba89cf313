import functools
import itertools
import math

import numpy as np
import pytest

from gerbekit.cochain import (DiffCochain, alternating_cochain,
                              classify_flat_2cocycle, from_global_form,
                              homotopy_k, is_cocycle, level_zero,
                              prism_indices, restrict, total_d)
from gerbekit.covers import (make_circle_cover, make_torus_cover,
                             product_cover, refine, two_subordinations)
from gerbekit.serialize import cover_from_id
from gerbekit.suites import (random_alternating_cochain, random_cocycle,
                             random_real_form, torus_setup)
from gerbekit.trigform import TrigForm, nan_max, signed_sum

from test_term_kernels import coefficient_bytes


def det_sign(seq):
    """Parity of the permutation sorting seq, as the determinant of its
    permutation matrix; independent of the library's sign helpers."""
    return round(np.linalg.det(np.eye(len(seq))[np.argsort(seq)]))


def test_repeated_indices_vanish():
    cover = make_circle_cover(4, 0.55)
    rng = np.random.default_rng(0)
    om = random_alternating_cochain(rng, cover, 2, 1)
    assert om.component((1, 1, 2)).is_zero()
    assert om.component((0, 1, 0, 2)) == 0


def test_alternating_data_is_alternating():
    cover = make_circle_cover(4, 0.55)
    rng = np.random.default_rng(1)
    om = random_alternating_cochain(rng, cover, 2, 1)
    a = om.component((0, 1))
    b = om.component((1, 0))
    assert not a.is_zero()
    assert (a + b).max_abs() < 1e-14


def test_alternating_components_follow_permutation_signs():
    # one form per sorted support; every ordering carries it with the sign
    # of its permutation, exactly
    cover = make_torus_cover(3, 3, 0.55)
    om = random_alternating_cochain(np.random.default_rng(3), cover, 2, 2)
    nonzero = {1: 0, 2: 0, 3: 0}
    for r in (1, 2, 3):
        for base in cover.supports(r):
            f = om.component(base)
            nonzero[r] += bool(f.terms)
            for perm in itertools.permutations(base):
                assert om.component(perm).terms == (det_sign(perm) * f).terms
    assert all(nonzero.values())
    ints = 0
    for base in cover.supports(4):
        m = om.component(base)
        ints += bool(m)
        for perm in itertools.permutations(base):
            assert om.component(perm) == det_sign(perm) * m
    assert ints


def test_max_defect_propagates_nan():
    cover = make_circle_cover(4, 0.55)
    bad = TrigForm(1, 0, {((1,), ()): 1.0, ((2,), ()): math.nan})
    om = DiffCochain(1, cover, components={(0, 1): bad})
    assert math.isnan(om.max_defect())
    H = TrigForm(1, 1, {((0,), (0,)): 1.0, ((1,), (0,)): math.nan})
    assert math.isnan(DiffCochain(0, cover, components={(): H}).max_defect())


def test_materialize_and_max_defect_read_the_same_slots():
    # both fold one walk: sorted supports for a flagged cochain, every
    # ordering for any other
    cover = make_torus_cover(3, 3, 0.55)
    rng = np.random.default_rng(9)
    om = random_alternating_cochain(rng, cover, 1, 2)
    T = random_real_form(rng, 2, 1)
    glob = from_global_form(T, cover)
    assert set(glob.components) == {()} | {(a,) for a in cover.indices}
    fine, s1, s2 = refine(cover, 2)
    nan = TrigForm(2, 0, {((1, 0), ()): math.nan})
    cases = {"random": om, "total_d": total_d(om), "global form": glob,
             "homotopy_k": homotopy_k(om, s1, s2),
             "flagged NaN": alternating_cochain(1, cover, {(0, 1): nan}),
             "unflagged NaN": om + DiffCochain(1, cover,
                                               components={(1, 0): nan})}
    for name, c in cases.items():
        mat = c.materialize()
        assert mat.alternating == c.alternating, name
        if c.alternating:
            assert all(a < b for idx in mat.components
                       for a, b in zip(idx, idx[1:])), name
        else:
            assert any(list(idx) != sorted(idx) for idx in mat.components), name
        fold = functools.reduce(nan_max, (
            v.max_abs() if isinstance(v, TrigForm) else 2 * math.pi * abs(v)
            for v in mat.components.values()), 0.0)
        got = c.max_defect()
        assert got == fold or math.isnan(got) and math.isnan(fold), name
    assert not cases["homotopy_k"].alternating
    assert math.isnan(cases["flagged NaN"].max_defect())
    assert math.isnan(cases["unflagged NaN"].max_defect())


@pytest.mark.parametrize("degree", [1, 2, 3])
def test_dd_zero_circle(degree):
    cover = make_circle_cover(4, 0.55)
    rng = np.random.default_rng(degree)
    om = random_alternating_cochain(rng, cover, degree, 1)
    assert total_d(total_d(om)).max_defect() < 1e-12


@pytest.mark.parametrize("degree", [1, 2])
def test_dd_zero_torus(degree):
    cover = make_torus_cover(3, 3, 0.55)
    rng = np.random.default_rng(10 + degree)
    om = random_alternating_cochain(rng, cover, degree, 2)
    assert total_d(total_d(om)).max_defect() < 1e-12


def test_global_form_is_cocycle():
    cover = make_circle_cover(4, 0.55)
    T = TrigForm.monomial(1, (0,), (0,), 0.7) \
        + TrigForm.monomial(1, (2,), (0,), 0.1) \
        + TrigForm.monomial(1, (-2,), (0,), 0.1)
    om = from_global_form(T, cover)
    assert is_cocycle(om)


def test_top_slot_of_d_is_field_strength_minus_d():
    cover = make_circle_cover(4, 0.55)
    rng = np.random.default_rng(3)
    om = random_alternating_cochain(rng, cover, 1, 1)
    out = total_d(om)
    expect = om.field_strength - om.component((2,)).d()
    assert (out.component((2,)) - expect).max_abs() < 1e-14


def test_integer_row_inclusion_sign():
    # degree 0: the integer level enters the function row as +2 pi m
    cover = make_circle_cover(4, 0.55)
    om = DiffCochain(0, cover,
                     components={**{(a,): TrigForm.zero(1, 0)
                                    for a in cover.indices},
                                 (0, 1): 3, (1, 0): -3})
    out = total_d(om)
    comp = out.component((0, 1))
    assert abs(comp.terms.get(((0,), ()), 0.0) - 2 * math.pi * 3) < 1e-12


@pytest.mark.parametrize("degree", [1, 2, 3])
def test_homotopy_identity_circle(degree):
    cover = make_circle_cover(4, 0.55)
    rng = np.random.default_rng(20 + degree)
    om = random_alternating_cochain(rng, cover, degree, 1)
    fine, s1, s2 = refine(cover, 2)
    lhs = total_d(homotopy_k(om, s1, s2)) + homotopy_k(total_d(om), s1, s2)
    rhs = restrict(om, s1) - restrict(om, s2)
    assert (lhs - rhs).max_defect() < 1e-12


def test_homotopy_identity_torus():
    cover = make_torus_cover(3, 3, 0.55)
    rng = np.random.default_rng(30)
    om = random_alternating_cochain(rng, cover, 2, 2)
    fine, s1, s2 = refine(cover, 2)
    lhs = total_d(homotopy_k(om, s1, s2)) + homotopy_k(total_d(om), s1, s2)
    rhs = restrict(om, s1) - restrict(om, s2)
    assert (lhs - rhs).max_defect() < 1e-12


def test_the_homotopy_identity_never_asks_omega_for_a_repeated_index():
    # a restriction whose image repeats an index reads omega's shared zero
    # without a lookup
    cover = make_torus_cover(3, 3, 0.55)
    om = random_alternating_cochain(np.random.default_rng(30), cover, 2, 2)
    fine, s1, s2 = refine(cover, 2)
    asked = []
    read = om.component
    om.component = lambda idx: asked.append(tuple(idx)) or read(idx)
    lhs = total_d(homotopy_k(om, s1, s2)) + homotopy_k(total_d(om), s1, s2)
    rhs = restrict(om, s1) - restrict(om, s2)
    assert (lhs - rhs).max_defect() < 1e-12
    assert asked and all(len(set(idx)) == len(idx) for idx in asked)
    # s1 sends the fine pieces 0 and 1 into the coarse piece 0
    assert s1.index_map[:2] == (0, 0)
    assert restrict(om, s1).component((0, 1)) is level_zero(2, 2, 2)


def test_homotopy_is_not_alternating_so_the_defect_walks_every_ordering():
    # K omega reads omega at mixed indices, so its value at a permuted index
    # is not the permutation sign times its value at the sorted one; the
    # homotopy identity holds only because max_defect reads every ordering
    om = random_alternating_cochain(np.random.default_rng(0),
                                    make_torus_cover(3, 3, 0.55), 2, 2)
    fine, s1, s2 = refine(om.cover, 2)
    K = homotopy_k(om, s1, s2)
    unsorted = [idx for idx in fine.nonempty_tuples(2)
                if list(idx) != sorted(idx)]
    worst = max((K.component(idx)
                 - det_sign(idx) * K.component(tuple(sorted(idx)))).max_abs()
                for idx in unsorted)
    assert worst > 1.0
    # a defect planted at one unsorted index alone is found
    planted = DiffCochain(1, fine,
                          components={unsorted[0]: TrigForm.constant(2, 0.75)})
    assert planted.component(tuple(sorted(unsorted[0]))).is_zero()
    assert planted.max_defect() == 0.75


def test_homotopy_vanishes_for_equal_subordinations():
    cover = make_circle_cover(4, 0.55)
    rng = np.random.default_rng(40)
    om = random_alternating_cochain(rng, cover, 2, 1)
    fine, s1, _ = refine(cover, 2)
    assert homotopy_k(om, s1, s1).max_defect() < 1e-14


def test_classify_flat_2cocycle_value():
    cover, dec = torus_setup()
    rng = np.random.default_rng(50)
    from gerbekit.covers import two_subordinations
    rho, _ = two_subordinations(dec, cover, rng)
    # the class of (h / 4 pi^2) dx0 dx1 is h itself; a class taken mod pi
    # instead of mod 2 pi is off by pi at h = 4.0 and 5.5
    for h in (2.2, 4.0, 5.5):
        T = (h / (4 * math.pi ** 2)) * TrigForm.monomial(2, (0, 0), (0, 1), 1.0)
        om = DiffCochain(2, cover, components={(a,): T for a in cover.indices})
        assert abs(classify_flat_2cocycle(om, dec, rho) - h) < 1e-10, h


def test_classify_rejects_non_cocycle():
    cover, dec = torus_setup()
    rng = np.random.default_rng(51)
    om = random_alternating_cochain(rng, cover, 2, 2)  # generically not closed
    assert total_d(om).max_defect() > 1e-6
    rho, _ = two_subordinations(dec, cover, rng)
    with pytest.raises(ValueError):
        classify_flat_2cocycle(om, dec, rho)


def test_integer_row_is_read_through_component():
    # degree 1 on a torus cover: forms at lengths 1 and 2, integers at 3
    cover = make_torus_cover(3, 3, 0.55)
    om = random_alternating_cochain(np.random.default_rng(3), cover, 1, 2)
    ints = {idx: om.component(idx) for idx in cover.nonempty_tuples(3)}
    assert any(ints.values()) and all(type(m) is int for m in ints.values())
    missing = next(idx for idx in itertools.permutations(range(9), 3)
                   if idx not in ints)
    assert om.component(missing) == 0 and type(om.component(missing)) is int
    assert om.component((0, 1, 0)) == 0
    # a flagged cochain materialises on its sorted supports, and reads back
    # every ordering through component
    mat = om.materialize()
    assert {idx: m for idx, m in mat.components.items() if len(idx) == 3} \
        == {idx: m for idx, m in ints.items() if m and list(idx) == sorted(idx)}
    assert all(mat.component(idx) == m for idx, m in ints.items())


def test_random_cochain_stores_one_value_per_sorted_support():
    # the pushforward suite's largest instance: degree 3 over
    # circle:3 x torus:3:3, 4,887 sorted supports of lengths 1..5 against
    # 198,153 ordered multi-indices
    base = make_circle_cover(3, 0.6)
    cover = product_cover(base, torus_setup()[0])
    om = random_alternating_cochain(np.random.default_rng(1), cover, 3, 3)
    supports = sum(len(cover.supports(r)) for r in range(1, 6))
    assert supports == 4887
    assert 0 < len(om.components) <= supports
    assert all(list(idx) == sorted(idx) for idx in om.components)


def test_negation_negates_every_level():
    cover = make_torus_cover(3, 3, 0.55)
    om = random_alternating_cochain(np.random.default_rng(4), cover, 1, 2)
    neg = -om
    assert (neg.field_strength + om.field_strength).is_zero()
    for r in (1, 2):
        for idx in cover.nonempty_tuples(r):
            assert (neg.component(idx) + om.component(idx)).is_zero()
    ints = [idx for idx in cover.nonempty_tuples(3) if om.component(idx)]
    assert ints
    for idx in ints:
        assert neg.component(idx) == -om.component(idx)
    assert (om - om).max_defect() == 0.0


@pytest.mark.parametrize("components, message", [
    ({(0, 1, 2): TrigForm.zero(1, 0)}, "must be an integer"),
    ({(0, 1, 2): 2.0}, "must be an integer"),
    ({(0, 1): 3}, "must be a form of degree 0"),
    ({(0,): TrigForm.zero(1, 0)}, "must be a form of degree 1"),
    ({(0,): TrigForm.zero(2, 1)}, "must be a form of degree 1 on T\\^1"),
    ({(0, 1, 2, 3): TrigForm.zero(1, 0)}, "must be a form of degree -2"),
])
def test_constructor_rejects_misplaced_levels(components, message):
    cover = make_circle_cover(4, 0.55)
    with pytest.raises(ValueError, match=message):
        DiffCochain(1, cover, components=components)


def test_constructor_rejects_a_field_strength_of_the_wrong_degree():
    cover = make_circle_cover(4, 0.55)
    DiffCochain(0, cover, components={(): TrigForm.zero(1, 1)})
    DiffCochain(1, cover, components={(): TrigForm.zero(1, 1)})
    with pytest.raises(ValueError, match="field strength"):
        DiffCochain(0, cover, components={(): TrigForm.zero(1, 0)})
    with pytest.raises(ValueError, match="field strength"):
        DiffCochain(1, cover, components={(): TrigForm.zero(2, 2)})


@pytest.mark.parametrize("knob", [{"alternating": True},
                                  {"component_fn": lambda idx: 0}],
                         ids=["alternating", "component_fn"])
def test_the_constructor_takes_stored_values_only(knob):
    # a flag set by hand would let max_defect and save_cochain skip the
    # other orderings of a cochain that is not alternating
    cover = make_circle_cover(4, 0.55)
    with pytest.raises(TypeError):
        DiffCochain(1, cover, **knob)
    om = DiffCochain(1, cover)
    assert om.component_fn is None and not om.alternating


def test_a_cochain_lives_on_its_covers_torus():
    circle = make_circle_cover(4, 0.55)
    rng = np.random.default_rng(5)
    assert DiffCochain(1, circle).ambient_dim == 1
    assert DiffCochain(1, make_torus_cover(3, 3, 0.55)).ambient_dim == 2
    with pytest.raises(ValueError, match="on T\\^1, the torus of its cover"):
        random_alternating_cochain(rng, circle, 1, 2)
    with pytest.raises(ValueError, match="on T\\^1, the torus of its cover"):
        from_global_form(TrigForm.monomial(2, (0, 0), (0,), 1.0), circle)


def test_total_d_of_a_degree_minus_one_cochain():
    # at degree -1 the single-index level is the integer row: m enters the
    # output's top slot as -2 pi m, and delta m fills its integer row
    cover = make_circle_cover(4, 0.55)
    out = total_d(DiffCochain(-1, cover, components={(0,): 2}))
    assert out.component((0,)).terms == {((0,), ()): -4 * math.pi}
    assert (out.component((0, 1)), out.component((1, 0))) == (-2, 2)
    om = random_alternating_cochain(np.random.default_rng(6), cover, -1, 1)
    assert om.field_strength.terms
    assert total_d(total_d(om)).max_defect() < 1e-12


def test_a_degree_minus_two_cochain_materialises():
    # at degree -2 the slot at () is the integer row, not a field strength
    cover = cover_from_id("circle:4:0.55")
    assert DiffCochain(-2, cover).max_defect() == 0.0
    om = DiffCochain(-2, cover, components={(): 3})
    assert om.materialize().components == {(): 3}
    assert om.max_defect() == 6 * math.pi


@pytest.mark.parametrize("cover_id", ["circle:4:0.55", "torus:3:3:0.55"])
def test_the_homotopy_of_a_degree_minus_one_cochain_materialises(cover_id):
    cover = cover_from_id(cover_id)
    om = random_alternating_cochain(np.random.default_rng(6), cover, -1,
                                    cover.factors)
    fine, s1, s2 = refine(cover, 2)
    k = homotopy_k(om, s1, s2)
    assert k.degree == -2 and k.materialize().components == {}
    assert k.max_defect() == 0.0


@pytest.mark.parametrize("cover_id", ["circle:4:0.55", "torus:3:3:0.55"])
def test_homotopy_identity_in_degree_zero(cover_id):
    # K omega has degree -1, so d_total(K omega) reads its integer row at
    # single indices
    cover = cover_from_id(cover_id)
    om = random_alternating_cochain(np.random.default_rng(2), cover, 0,
                                    cover.factors)
    fine, s1, s2 = refine(cover, 2)
    lhs = total_d(homotopy_k(om, s1, s2)) + homotopy_k(total_d(om), s1, s2)
    rhs = restrict(om, s1) - restrict(om, s2)
    assert (lhs - rhs).max_defect() < 1e-12


def test_restriction_of_a_cocycle_with_a_field_strength_is_a_cocycle():
    cover = make_torus_cover(3, 3, 0.55)
    om = random_cocycle(np.random.default_rng(3), cover, 1)
    assert om.field_strength.max_abs() > 1.0 and is_cocycle(om)
    fine, s1, _ = refine(cover, 2)
    assert total_d(restrict(om, s1)).max_defect() < 1e-12


def test_every_operator_gives_the_field_strength_slot_by_its_rule():
    cover = make_torus_cover(3, 3, 0.55)
    rng = np.random.default_rng(7)
    a, b = (random_alternating_cochain(rng, cover, 0, 2) for _ in range(2))
    Ha, Hb = a.field_strength, b.field_strength
    assert Ha.terms and Hb.terms and a.component(()) is Ha
    fine, s1, s2 = refine(cover, 2)
    T = random_real_form(rng, 2, 1)
    for got, want in [(a + b, Ha + Hb), (a - b, Ha - Hb), (-a, -Ha),
                      (total_d(a), Ha.d()), (restrict(a, s1), Ha),
                      (homotopy_k(a, s1, s2), TrigForm.zero(2, 0)),
                      (from_global_form(T, cover), T.d())]:
        H = got.component(())
        assert (H.degree, H.terms) == (want.degree, want.terms)
    assert Ha.d().terms and T.d().terms


def test_a_top_degree_cochain_refuses_a_field_strength_with_terms():
    cover = make_circle_cover(4, 0.55)
    DiffCochain(1, cover, components={(): TrigForm.zero(1, 1)})
    with pytest.raises(ValueError, match="a degree-1 cochain on T\\^1 has no "
                       "field strength: T\\^1 has no 2-form"):
        DiffCochain(1, cover,
                    components={(): TrigForm.monomial(1, (0,), (0,), 5.0)})


def test_the_constructor_refuses_a_component_with_a_repeated_index():
    cover = make_circle_cover(4, 0.55)
    with pytest.raises(ValueError, match=r"component at \(1, 1\) repeats"):
        DiffCochain(1, cover, components={(1, 1): TrigForm.zero(1, 0)})
    with pytest.raises(ValueError, match=r"component at \(0, 2, 0\) repeats"):
        DiffCochain(1, cover, components={(0, 2, 0): 1})


def test_repeated_and_out_of_range_lookups_read_zero_once_the_memo_is_full():
    # component reads its memo first; nothing it memoises may make a
    # repeated or out-of-range index read anything but the level's zero
    cover = make_circle_cover(4, 0.55)
    om = random_alternating_cochain(np.random.default_rng(12), cover, 2, 1)
    fine, s1, s2 = refine(cover, 2)
    lhs = total_d(homotopy_k(om, s1, s2)) + homotopy_k(total_d(om), s1, s2)
    assert (lhs - (restrict(om, s1) - restrict(om, s2))).max_defect() < 1e-12
    assert any(list(idx) != sorted(idx) for idx in om.components)
    for idx in [(1, 1), (0, 2, 0), (2, 2, 2)]:
        assert om.component(idx).is_zero()
    for idx in [(0, 1, 1, 2), (3, 0, 3, 1)]:
        assert om.component(idx) == 0
    # a 2-form on T^1 and a length past the integer row do not exist
    assert om.component((0,)).is_zero()
    assert om.component((0, 1, 2, 3, 0)).is_zero()
    assert om.component((0, 1, 2, 3, 4)).is_zero()
    assert all(len(set(idx)) == len(idx) and 2 <= len(idx) <= 4
               for idx in om.components if idx)


def test_alternating_cochain_leaves_the_callers_dict_as_it_was():
    cover = make_torus_cover(3, 3, 0.75)
    base = random_alternating_cochain(np.random.default_rng(0), cover, 2, 2)
    values = dict(base.components)
    before = dict(values)
    om = alternating_cochain(2, cover, values)
    fine, s1, s2 = refine(cover, 2)
    lhs = total_d(homotopy_k(om, s1, s2)) + homotopy_k(total_d(om), s1, s2)
    assert (lhs - (restrict(om, s1) - restrict(om, s2))).max_defect() < 1e-12
    assert len(om.components) > len(values)
    assert values.keys() == before.keys()
    assert all(values[k] is before[k] for k in before)


def every_ordering_cochain(rng, cover, degree):
    """An unflagged cochain built by hand: H and an independent random value
    at every ordering of every support, integers on the bottom row."""
    amb = cover.factors
    comps = {(): random_real_form(rng, amb, degree + 1)} \
        if degree + 1 <= amb else {}
    for r in range(1, degree + 3):
        deg = degree - (r - 1)
        if deg > amb:
            continue
        for idx in cover.nonempty_tuples(r):
            comps[idx] = int(rng.integers(-2, 3)) if deg == -1 \
                else random_real_form(rng, amb, deg)
    return DiffCochain(degree, cover, components=comps)


def level_bytes(value):
    if isinstance(value, TrigForm):
        return (value.ambient_dim, value.degree,
                coefficient_bytes(value.terms))
    return type(value).__name__, value


@pytest.mark.parametrize("cover_id, degree", [
    ("circle:4:0.55", 0), ("circle:4:0.55", 1), ("circle:4:0.55", 2),
    ("torus:3:3:0.55", 0), ("torus:3:3:0.55", 1), ("torus:3:3:0.55", 2),
    ("torus:3:3:0.55", 3)])
def test_the_homotopy_matches_a_sum_over_every_prism_member(cover_id, degree):
    # the reference reads omega at every member of the prism family, those
    # with a repeated entry included, and sums them in order
    cover = cover_from_id(cover_id)
    fine, s1, s2 = refine(cover, 2)
    rng = np.random.default_rng(40 + degree)
    for om in (random_alternating_cochain(rng, cover, degree, cover.factors),
               every_ordering_cochain(rng, cover, degree)):
        K = homotopy_k(om, s1, s2)
        nonzero = repeated = 0
        for r in range(degree + 2):
            for idx in fine.nonempty_tuples(r) if r else [()]:
                family = prism_indices(idx, s1.index_map, s2.index_map)
                want = signed_sum(level_zero(degree - 1, cover.factors, r),
                                  ((odd, om.component(b))
                                   for odd, b in family))
                assert level_bytes(K.component(idx)) == level_bytes(want), idx
                nonzero += bool(want.terms if r < degree + 1 else want)
                repeated += any(len(set(b)) != len(b) for _, b in family)
        assert nonzero and repeated


def test_the_homotopy_reads_no_index_with_a_repeated_entry():
    cover = cover_from_id("torus:3:3:0.55")
    om = random_alternating_cochain(np.random.default_rng(11), cover, 2, 2)
    asked = []
    read = om.component

    def component(idx):
        asked.append(tuple(idx))
        return read(idx)

    om.component = component
    fine, s1, s2 = refine(cover, 2)
    assert homotopy_k(om, s1, s2).max_defect() > 0
    assert asked
    assert [idx for idx in asked if len(set(idx)) != len(idx)] == []


def hex_parts(value):
    """A level value as its keys, in order, with float.hex of both parts of
    each coefficient: a -0.0 and a NaN read as themselves."""
    if isinstance(value, TrigForm):
        return (value.ambient_dim, value.degree,
                [(k, c.real.hex(), c.imag.hex())
                 for k, c in value.terms.items()])
    return type(value).__name__, value


def test_a_sum_reads_its_first_summands_value_where_the_second_is_zero():
    # a degree-0 cochain on the circle holds a 1-form H, 0-forms and ints;
    # the public constructor would turn each -0.0 part into +0.0, the
    # kernels' own outputs keep it
    cover = make_circle_cover(4, 0.55)
    signed = TrigForm._trusted(1, 0, {((1,), ()): complex(-0.0, 2.5),
                                      ((-1,), ()): complex(math.nan, -0.0),
                                      ((0,), ()): complex(1.5, math.nan)})
    a = DiffCochain(0, cover, components={
        (): TrigForm._trusted(1, 1, {((2,), (0,)): complex(-0.0, -1.0)}),
        (0,): signed, (1,): signed, (0, 1): 5, (1, 2): -2})
    # b is zero at every slot a holds: a stored empty form or int 0, or a
    # slot it does not hold at all
    b = DiffCochain(0, cover, components={
        (0,): TrigForm.zero(1, 0), (0, 1): 0,
        (2,): TrigForm(1, 0, {((1,), ()): 1.0})})
    for total in (a + b, a - b):
        for idx in ((), (0,), (1,), (0, 1), (1, 2)):
            assert hex_parts(total.component(idx)) == hex_parts(
                a.component(idx)), idx
    assert hex_parts((a - b).component((2,))) == hex_parts(
        TrigForm(1, 0, {((1,), ()): -1.0}))


def test_a_zero_first_summand_still_adds_its_zero():
    # 0.0 + (-0.0) is +0.0: where only the first summand is zero the sum is
    # the kernel's, whose real part reads +0.0, not the second value's -0.0
    cover = make_circle_cover(4, 0.55)
    term = TrigForm._trusted(1, 0, {((1,), ()): complex(-0.0, 2.0)})
    a = DiffCochain(1, cover, components={(0, 1): TrigForm.zero(1, 0)})
    b = DiffCochain(1, cover, components={(0, 1): term, (1, 2): term})
    for idx in ((0, 1), (1, 2)):
        got = (a + b).component(idx)
        assert hex_parts(got) == hex_parts(signed_sum(a.component(idx),
                                                      ((0, term),)))
        assert got.terms[(1,), ()].real.hex() == "0x0.0p+0"


def test_the_cochain_suite_builds_one_total_d_per_drawn_cochain(monkeypatch):
    from gerbekit import suites
    drawn, asked = [], []
    draw, differential = suites.random_alternating_cochain, suites.total_d

    def random_alternating_cochain(*args, **kwargs):
        drawn.append(draw(*args, **kwargs))
        return drawn[-1]

    def total_d(omega):
        asked.append(omega)
        return differential(omega)

    monkeypatch.setattr(suites, "random_alternating_cochain",
                        random_alternating_cochain)
    monkeypatch.setattr(suites, "total_d", total_d)
    suites.suite_cochain(4, 0)
    assert len(drawn) == 4
    assert [sum(x is om for x in asked) for om in drawn] == [1, 1, 1, 1]
