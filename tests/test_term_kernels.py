"""The term kernels build their outputs without re-validating them, so every
output must already be in the normal form the public constructor produces:
int-tuple keys of the right shape, Python complex values, no exact zeros.
"""

from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gerbekit import liecs
from gerbekit.covers import (make_circle_decomposition,
                             make_torus_hex_decomposition)
from gerbekit.fiberint import integrate_fiber_cell
from gerbekit.trigform import TrigForm

KERNEL_SETTINGS = settings(max_examples=60, deadline=None)

coefficients = st.one_of(
    st.complex_numbers(max_magnitude=1e3, allow_nan=False,
                       allow_infinity=False),
    st.floats(-1e3, 1e3),
    st.integers(-3, 3),
)

scalars = st.one_of(
    st.integers(-3, 3),
    st.floats(-1e3, 1e3),
    st.floats(-1e3, 1e3).map(np.float64),
    st.complex_numbers(max_magnitude=1e3, allow_nan=False,
                       allow_infinity=False),
    st.complex_numbers(max_magnitude=1e3, allow_nan=False,
                       allow_infinity=False).map(np.complex128),
)


@st.composite
def forms(draw, amb, deg, max_terms=4):
    """A public-constructor form with frequencies in [-2, 2]."""
    pool = list(combinations(range(amb), deg))
    terms = {}
    for _ in range(draw(st.integers(0, max_terms))):
        freq = tuple(draw(st.integers(-2, 2)) for _ in range(amb))
        axes = pool[draw(st.integers(0, len(pool) - 1))]
        terms[(freq, axes)] = draw(coefficients)
    return TrigForm(amb, deg, terms)


@st.composite
def form_pairs(draw):
    amb = draw(st.integers(1, 3))
    deg = draw(st.integers(0, amb))
    return draw(forms(amb, deg)), draw(forms(amb, deg))


@st.composite
def wedge_pairs(draw):
    amb = draw(st.integers(1, 3))
    p = draw(st.integers(0, amb))
    q = draw(st.integers(0, amb - p))
    return draw(forms(amb, p)), draw(forms(amb, q))


def assert_normal_form(out: TrigForm):
    ref = TrigForm(out.ambient_dim, out.degree, out.terms)
    assert list(out.terms) == list(ref.terms)
    assert all(out.terms[k] == ref.terms[k] for k in ref.terms)
    for (freq, axes), c in out.terms.items():
        assert all(type(x) is int for x in freq + axes)
        assert type(c) is complex and c != 0


@KERNEL_SETTINGS
@given(form_pairs())
def test_sum_is_normal(pair):
    a, b = pair
    assert_normal_form(a + b)
    assert_normal_form(a - b)
    assert_normal_form(a - a)
    assert (a - a).terms == {}


@KERNEL_SETTINGS
@given(form_pairs(), scalars)
def test_scalar_multiple_is_normal(pair, s):
    a, _ = pair
    assert_normal_form(s * a)
    assert_normal_form(a * s)
    assert_normal_form(-a)


@KERNEL_SETTINGS
@given(form_pairs())
def test_exterior_derivative_is_normal(pair):
    a, _ = pair
    assert_normal_form(a.d())
    assert a.d().degree == min(a.degree + 1, a.ambient_dim)


@KERNEL_SETTINGS
@given(wedge_pairs())
def test_wedge_is_normal(pair):
    a, b = pair
    assert_normal_form(a.wedge(b))


@KERNEL_SETTINGS
@given(st.data())
def test_global_fiber_integral_is_normal(data):
    amb = data.draw(st.integers(1, 3))
    deg = data.draw(st.integers(0, amb))
    fiber = data.draw(st.lists(st.integers(0, amb - 1), min_size=1,
                               max_size=amb, unique=True))
    out = data.draw(forms(amb, deg)).fiber_integrate_global(fiber)
    assert_normal_form(out)


SEGMENTS = list(make_circle_decomposition(5).faces[1].values())
POINTS = list(make_circle_decomposition(5).faces[2].values())
HEXES = list(make_torus_hex_decomposition(3).faces[1].values())
HEX_EDGES = list(make_torus_hex_decomposition(3).faces[2].values())


@KERNEL_SETTINGS
@given(st.data())
def test_fiber_cell_integral_is_normal(data):
    fiber_dim = data.draw(st.integers(1, 2))
    cells = (SEGMENTS + POINTS) if fiber_dim == 1 else (HEXES + HEX_EDGES)
    cell = data.draw(st.sampled_from(cells))
    n_base = data.draw(st.integers(1, 2))
    amb = n_base + fiber_dim
    deg = data.draw(st.integers(cell.dim, min(amb, n_base + cell.dim)))
    out = integrate_fiber_cell(data.draw(forms(amb, deg)), cell, n_base)
    assert out.ambient_dim == n_base
    assert_normal_form(out)


@st.composite
def lie_forms(draw, deg):
    basis = liecs.su2_basis()
    pool = list(combinations(range(3), deg))
    terms = {}
    for _ in range(draw(st.integers(0, 3))):
        freq = tuple(draw(st.integers(-1, 1)) for _ in range(3))
        axes = pool[draw(st.integers(0, len(pool) - 1))]
        weights = [draw(st.floats(-2, 2)) for _ in basis]
        terms[(freq, axes)] = sum(w * b for w, b in zip(weights, basis))
    return liecs.LieValuedForm(3, deg, 2, terms)


@KERNEL_SETTINGS
@given(st.data())
def test_pairing_is_normal(data):
    p = data.draw(st.integers(0, 3))
    q = data.draw(st.integers(0, 3 - p))
    a = data.draw(lie_forms(p))
    b = data.draw(lie_forms(q))
    kappa = data.draw(st.one_of(st.floats(0.5, 2),
                                st.floats(0.5, 2).map(np.float64)))
    assert_normal_form(liecs.pairing(a, b, kappa))


def test_fiber_cell_integral_rejects_a_base_too_small_for_the_result():
    f = TrigForm.monomial(3, (0, 0, 1), (0, 1, 2), 1.0)
    with pytest.raises(ValueError, match="no form on the base"):
        integrate_fiber_cell(f, POINTS[0], 2)
    with pytest.raises(ValueError, match="no form on the base"):
        integrate_fiber_cell(f, SEGMENTS[0], 4)
