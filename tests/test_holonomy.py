import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gerbekit.cochain import from_global_form
from gerbekit.covers import two_subordinations
from gerbekit.holonomy import (holonomy, invariance_defect,
                               nearest_2pi_multiple_defect)
from gerbekit.serialize import cover_from_id, decomposition_from_id
from gerbekit.suites import (circle_setup, random_cocycle, random_real_form,
                             torus_setup)
from gerbekit.trigform import TrigForm


@pytest.mark.parametrize("alpha", [1.0, -0.75, 0.31830988618367])
def test_global_one_form_holonomy(alpha):
    cover, dec = circle_setup()
    rng = np.random.default_rng(0)
    rho, _ = two_subordinations(dec, cover, rng)
    om = from_global_form(alpha * TrigForm.monomial(1, (0,), (0,), 1.0), cover)
    assert abs(holonomy(om, dec, rho) - 2 * math.pi * alpha) < 1e-10


def test_global_two_form_holonomy_on_torus():
    cover, dec = torus_setup()
    rng = np.random.default_rng(1)
    rho, _ = two_subordinations(dec, cover, rng)
    beta = 0.42
    T = (beta / (4 * math.pi ** 2)) * TrigForm.monomial(2, (0, 0), (0, 1), 1.0)
    om = from_global_form(T, cover)
    assert abs(holonomy(om, dec, rho) - beta) < 1e-10


def test_exact_frequency_terms_do_not_contribute():
    # a global exact 1-form integrates to zero around the circle
    cover, dec = circle_setup()
    rng = np.random.default_rng(2)
    rho, _ = two_subordinations(dec, cover, rng)
    f = TrigForm.monomial(1, (3,), (), 0.5) + TrigForm.monomial(1, (-3,), (), 0.5)
    om = from_global_form(f.d(), cover)
    assert abs(holonomy(om, dec, rho)) < 1e-10


@pytest.mark.parametrize("seed", range(6))
def test_subordination_change_shifts_by_2pi_circle(seed):
    cover, dec = circle_setup()
    rng = np.random.default_rng(seed)
    om = random_cocycle(rng, cover, 1)
    rho, rho2 = two_subordinations(dec, cover, rng)
    d = invariance_defect(om, dec, rho, rho2)
    assert nearest_2pi_multiple_defect(d) < 1e-8


@pytest.mark.parametrize("seed", range(3))
def test_subordination_change_shifts_by_2pi_torus(seed):
    cover, dec = torus_setup()
    rng = np.random.default_rng(100 + seed)
    om = random_cocycle(rng, cover, 2)
    rho, rho2 = two_subordinations(dec, cover, rng)
    d = invariance_defect(om, dec, rho, rho2)
    assert nearest_2pi_multiple_defect(d) < 1e-8


def test_non_real_data_raises():
    cover, dec = circle_setup()
    rng = np.random.default_rng(8)
    rho, _ = two_subordinations(dec, cover, rng)
    om = from_global_form(TrigForm.monomial(1, (0,), (0,), 1j), cover)
    with pytest.raises(ValueError):
        holonomy(om, dec, rho)


def test_decomposition_dimension_mismatch_raises():
    cover, dec = torus_setup()
    rng = np.random.default_rng(9)
    om = random_cocycle(rng, cover, 1)
    rho, _ = two_subordinations(dec, cover, rng)
    with pytest.raises(ValueError):
        holonomy(om, dec, rho)


# decomposition sizes for which every cell sits inside a cover piece
_SIZES = st.one_of(
    st.tuples(st.just("circle:4:0.7"), st.builds("circle:{}".format,
                                                  st.integers(4, 48))),
    st.tuples(st.just("torus:3:3:0.75"), st.builds("hex:{}".format,
                                                    st.integers(6, 12))))


@settings(max_examples=25, deadline=None)
@given(_SIZES, st.integers(0, 2 ** 32 - 1), st.floats(-2.0, 2.0))
def test_global_form_holonomy_is_its_integral_at_every_size(ids, seed, c):
    # hol(from_global_form(T)) = int T, whatever the decomposition's size
    cover, dec = cover_from_id(ids[0]), decomposition_from_id(ids[1])
    n = dec.dim
    T = random_real_form(np.random.default_rng(seed), n, n) \
        + TrigForm.monomial(n, (0,) * n, tuple(range(n)), c)
    expect = T.fiber_integrate_global(0).terms.get(((), ()), 0.0)
    got = holonomy(from_global_form(T, cover), dec,
                   two_subordinations(dec, cover)[0])
    assert abs(got - expect) < 1e-12
