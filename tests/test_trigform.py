import itertools
import math

import numpy as np
import pytest

from gerbekit.trigform import TrigForm, _axes_sign, nan_max


def det_sign(seq):
    """Parity of the permutation sorting seq, as the determinant of its
    permutation matrix; independent of the library's sign helpers."""
    return round(np.linalg.det(np.eye(len(seq))[np.argsort(seq)]))


def rand_form(rng, amb, deg, terms=3):
    f = TrigForm.zero(amb, deg)
    from itertools import combinations
    pool = list(combinations(range(amb), deg))
    for _ in range(terms):
        freq = tuple(int(rng.integers(-2, 3)) for _ in range(amb))
        axes = pool[int(rng.integers(len(pool)))]
        f = f + TrigForm.monomial(amb, freq, axes,
                                  complex(rng.normal(), rng.normal()))
    return f


def test_d_squared_is_zero():
    rng = np.random.default_rng(0)
    for amb in (1, 2, 3):
        for deg in range(amb):
            f = rand_form(rng, amb, deg)
            assert f.d().d().max_abs() < 1e-14


def test_top_degree_d_is_zero():
    f = TrigForm.monomial(2, (1, 2), (0, 1), 1.5)
    assert f.d().is_zero()


def test_wedge_leibniz():
    rng = np.random.default_rng(1)
    a = rand_form(rng, 3, 1)
    b = rand_form(rng, 3, 1)
    lhs = a.wedge(b).d()
    rhs = a.d().wedge(b) - a.wedge(b.d())
    assert (lhs - rhs).max_abs() < 1e-12


def test_wedge_graded_commutativity():
    rng = np.random.default_rng(2)
    a = rand_form(rng, 3, 1)
    b = rand_form(rng, 3, 2)
    # a ^ b = (-1)^{1*2} b ^ a
    assert (a.wedge(b) - b.wedge(a)).max_abs() < 1e-12


def test_fiber_integrate_global_stokes():
    rng = np.random.default_rng(5)
    f = rand_form(rng, 3, 2)
    lhs = f.d().fiber_integrate_global(2)
    rhs = f.fiber_integrate_global(2).d()
    # integrating over a closed fiber kills the boundary term
    assert (lhs - rhs).max_abs() < 1e-12


def test_records_roundtrip():
    rng = np.random.default_rng(6)
    f = rand_form(rng, 2, 1)
    g = TrigForm.from_records(2, 1, f.to_records())
    assert (f - g).max_abs() == 0.0


@pytest.mark.parametrize("amb, deg, terms, message", [
    (2, 1, {((1,), (0,)): 1.0}, "frequency length"),
    (2, 1, {((1, 2, 3), (0,)): 1.0}, "frequency length"),
    (3, 2, {((0, 1, 0), (2, 1)): 1.0}, "strictly increasing"),
    (3, 2, {((0, 1, 0), (1, 1)): 1.0}, "strictly increasing"),
    (2, 1, {((0, 1), (2,)): 1.0}, "axis out of range"),
    (2, 1, {((0, 1), (-1,)): 1.0}, "axis out of range"),
    (2, 1, {((0, 1), (0, 1)): 1.0}, "axes length"),
    (2, 1, {((0, 1.5), (0,)): 1.0}, "must be integers"),
    (2, 1, {((0, 1), ("0",)): 1.0}, "must be integers"),
    (2, 3, None, "out of range"),
    (2, -1, None, "out of range"),
])
def test_public_constructor_rejects_malformed_terms(amb, deg, terms, message):
    with pytest.raises(ValueError, match=message):
        TrigForm(amb, deg, terms)


def test_public_constructor_normalizes_terms():
    f = TrigForm(2, 1, {((np.int64(1), 0), (np.int64(1),)): np.float64(2.0),
                        ((0, 0), (0,)): 0.0})
    assert f.terms == {((1, 0), (1,)): 2.0 + 0j}
    (freq, axes), c = next(iter(f.terms.items()))
    assert all(type(x) is int for x in freq + axes)
    assert type(c) is complex


def test_max_abs_propagates_nan():
    # the builtin max keeps its running value against a later NaN
    f = TrigForm(1, 0, {((1,), ()): 1.0, ((2,), ()): math.nan})
    assert math.isnan(f.max_abs())
    assert not f.is_zero(1.0)
    assert math.isnan(nan_max(0.0, math.nan))
    assert math.isnan(nan_max(math.nan, 0.0))
    assert nan_max(1.0, 2.0) == 2.0 and nan_max(2.0, 1.0) == 2.0


def test_axes_sign_matches_permutation_matrix_determinant():
    values = (1, 4, 5, 9, 12)
    for n in range(len(values) + 1):
        for perm in itertools.permutations(values[:n]):
            assert _axes_sign(perm) == (values[:n], det_sign(perm))


def test_axes_sign_rejects_repeats():
    for axes in [(3, 3), (0, 2, 0), (4, 1, 2, 1), (5, 2, 7, 9, 7)]:
        for perm in itertools.permutations(axes):
            assert _axes_sign(perm) is None


@pytest.mark.parametrize("amb, deg", [(2, 3), (2, -1), (0, 1)])
def test_zero_rejects_a_degree_out_of_range(amb, deg):
    with pytest.raises(ValueError, match="out of range"):
        TrigForm.zero(amb, deg)
