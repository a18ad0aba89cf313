import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import gerbekit
from gerbekit import cli
from gerbekit.cochain import DiffCochain, from_global_form, total_d
from gerbekit.covers import (make_circle_cover, make_torus_cover,
                             product_cover, product_index,
                             two_subordinations)
from gerbekit.fiberint import (_path_sum, homotopy_residual, monotone_paths,
                               pushforward, pushforward_commutes_defect,
                               pushforward_homotopy, t_symbol_form)
from gerbekit.suites import (circle_setup, random_alternating_cochain,
                             random_cocycle, torus_setup)
from gerbekit.trigform import TrigForm, signed_sum
from test_term_kernels import coefficient_bytes


def test_path_counts_are_binomial():
    for r in range(1, 5):
        for k in range(1, 5):
            assert len(monotone_paths(r, k)) == math.comb(r + k - 2, r - 1)


def test_path_endpoints_and_monotonicity():
    for nodes, area in monotone_paths(3, 3):
        assert nodes[0] == (1, 1) and nodes[-1] == (3, 3)
        for (p, q), (p2, q2) in zip(nodes, nodes[1:]):
            assert (p2 - p, q2 - q) in ((1, 0), (0, 1))


def test_path_area_convention_2x2():
    # two paths between (1,1) and (2,2): the one stepping up first has
    # area 0, the one stepping right first picks up one unit square
    areas = {nodes: area for nodes, area in monotone_paths(2, 2)}
    up_first = ((1, 1), (1, 2), (2, 2))
    right_first = ((1, 1), (2, 1), (2, 2))
    assert areas[up_first] % 2 == 0
    assert areas[right_first] % 2 == 1


def path_sum_reference(omega, a_idx, b_idx, zero):
    """The path sum as first written: each node's piece by product_index."""
    return signed_sum(zero, (
        (area % 2, omega.component(tuple(
            product_index(omega.cover, a_idx[p - 1], b_idx[q - 1])
            for p, q in nodes)))
        for nodes, area in monotone_paths(len(a_idx), len(b_idx))))


@pytest.mark.parametrize("fiber", [make_circle_cover(4, 0.7),
                                   make_torus_cover(3, 3, 0.75)],
                         ids=["circle:4:0.7", "torus:3:3:0.75"])
def test_path_sums_are_the_product_index_walk(fiber):
    # every (r, k) up to 4 whose path has a form row (t_symbol_form) or the
    # integer row (_path_sum from 0) at some degree
    cover = product_cover(make_circle_cover(3, 0.6), fiber)
    na, nb = 3, len(fiber.pieces)
    rng = np.random.default_rng(40)
    nonzero = 0
    for degree in range(1, 6):
        om = random_alternating_cochain(rng, cover, degree, cover.factors)
        for r in range(1, 5):
            for k in range(1, 5):
                deg = degree + 2 - r - k      # -1 on the integer row
                if not -1 <= deg <= cover.factors:
                    continue
                for _ in range(20):
                    a_idx = tuple(int(i) for i in rng.integers(na, size=r))
                    b_idx = tuple(int(i) for i in rng.integers(nb, size=k))
                    if deg == -1:
                        got = _path_sum(om, a_idx, b_idx, 0)
                        want = path_sum_reference(om, a_idx, b_idx, 0)
                        assert type(got) is int and got == want
                        nonzero += got != 0
                        continue
                    got = t_symbol_form(om, a_idx, b_idx)
                    want = path_sum_reference(om, a_idx, b_idx, TrigForm.zero(
                        cover.factors, deg))
                    assert (got.ambient_dim, got.degree) == (want.ambient_dim,
                                                             want.degree)
                    assert coefficient_bytes(got.terms) == coefficient_bytes(
                        want.terms)
                    nonzero += bool(got.terms)
    assert nonzero > 100


def _s1_instance(seed, degree):
    rng = np.random.default_rng(seed)
    base = make_circle_cover(3, 0.6)
    fiber, dec = circle_setup()
    cover = product_cover(base, fiber)
    om = random_alternating_cochain(rng, cover, degree, 2)
    rho, rho2 = two_subordinations(dec, fiber, rng)
    return om, dec, rho, rho2, cover


@pytest.mark.parametrize("degree", [1, 2, 3])
def test_stokes_circle_fiber(degree):
    om, dec, rho, _, _ = _s1_instance(degree, degree)
    assert pushforward_commutes_defect(om, dec, rho) < 1e-11


def test_stokes_torus_fiber():
    rng = np.random.default_rng(5)
    base = make_circle_cover(3, 0.6)
    fiber, dec = torus_setup()
    cover = product_cover(base, fiber)
    om = random_alternating_cochain(rng, cover, 2, 3)
    rho, _ = two_subordinations(dec, fiber, rng)
    assert pushforward_commutes_defect(om, dec, rho) < 1e-10


def test_pushforward_of_global_form_is_fiber_integral():
    # a global form pushes forward to its global fiber integral
    rng = np.random.default_rng(6)
    base = make_circle_cover(3, 0.6)
    fiber, dec = circle_setup()
    cover = product_cover(base, fiber)
    T = TrigForm.monomial(2, (0, 0), (0, 1), 0.8) \
        + TrigForm.monomial(2, (1, 0), (0, 1), 0.25) \
        + TrigForm.monomial(2, (-1, 0), (0, 1), 0.25)
    om = from_global_form(T, cover)
    rho, _ = two_subordinations(dec, fiber, rng)
    out = pushforward(om, dec, rho)
    expect = T.fiber_integrate_global(1)
    assert (out.component((0,)) - expect).max_abs() < 1e-10


def test_pushforward_integrates_the_field_strength_slot():
    # int_E H for the push-forward, the empty sum 0 for its homotopy
    rng = np.random.default_rng(8)
    fiber, dec = circle_setup()
    cover = product_cover(make_circle_cover(3, 0.6), fiber)
    rho, rho2 = two_subordinations(dec, fiber, rng)
    # an exact form integrates to 0 over the fiber circle; this H is not
    H = TrigForm.monomial(2, (1, 0), (0, 1), 5.0)
    om = (random_alternating_cochain(rng, cover, 1, 2)
          + DiffCochain(1, cover, components={(): H}))
    H = pushforward(om, dec, rho).component(())
    want = om.field_strength.fiber_integrate_global(1)
    assert want.terms and (H.degree, H.terms) == (want.degree, want.terms)
    om = random_alternating_cochain(rng, cover, 2, 2)
    H = pushforward_homotopy(om, dec, rho, rho2).component(())
    assert (H.degree, H.terms) == (1, {})


def test_cocycle_pushes_to_cocycle():
    rng = np.random.default_rng(7)
    base = make_circle_cover(3, 0.6)
    fiber, dec = circle_setup()
    cover = product_cover(base, fiber)
    oc = random_cocycle(rng, cover, 2)
    rho, _ = two_subordinations(dec, fiber, rng)
    assert total_d(pushforward(oc, dec, rho)).max_defect() < 1e-12


@pytest.mark.parametrize("degree", [2, 3])
def test_homotopy_residual_cocycle(degree):
    rng = np.random.default_rng(10 + degree)
    base = make_circle_cover(3, 0.6)
    fiber, dec = circle_setup()
    cover = product_cover(base, fiber)
    oc = random_cocycle(rng, cover, degree)
    rho, rho2 = two_subordinations(dec, fiber, rng)
    assert rho != rho2
    assert homotopy_residual(oc, dec, rho, rho2) < 1e-10


def test_homotopy_residual_with_correction_term():
    # for a non-cocycle: pf(rho) - pf(rho2) = D h(omega) + h(D omega)
    om, dec, rho, rho2, _ = _s1_instance(20, 2)
    lhs = pushforward(om, dec, rho) - pushforward(om, dec, rho2)
    rhs = (total_d(pushforward_homotopy(om, dec, rho, rho2))
           + pushforward_homotopy(total_d(om), dec, rho, rho2))
    assert (lhs - rhs).max_defect() < 1e-11


@pytest.mark.parametrize("seed", [0, 1])
def test_homotopy_residual_torus_fiber(seed):
    # a 2-dimensional fibre: the homotopy sums three layers of hexagon cells
    rng = np.random.default_rng(seed)
    base = make_circle_cover(3, 0.6)
    fiber, dec = torus_setup()
    cover = product_cover(base, fiber)
    oc = random_cocycle(rng, cover, 3)
    rho, rho2 = two_subordinations(dec, fiber, rng)
    assert rho != rho2
    assert homotopy_residual(oc, dec, rho, rho2) < 1e-12


def test_homotopy_requires_positive_output_degree():
    rng = np.random.default_rng(21)
    base = make_circle_cover(3, 0.6)
    fiber, dec = circle_setup()
    cover = product_cover(base, fiber)
    om = random_alternating_cochain(rng, cover, 1, 2)
    rho, rho2 = two_subordinations(dec, fiber, rng)
    with pytest.raises(ValueError):
        pushforward_homotopy(om, dec, rho, rho2)


def test_pushforward_needs_product_cover():
    cover, dec = circle_setup()
    rng = np.random.default_rng(22)
    om = random_alternating_cochain(rng, cover, 1, 1)
    with pytest.raises(ValueError):
        pushforward(om, dec, [0] * len(dec.top_cells))


def _two_cochains():
    """omega and omega': degree 2 on one cover, with the same supports and
    different values, plus the decomposition and rho they are pushed along."""
    om, dec, rho, _, cover = _s1_instance(31, 2)
    om2 = random_alternating_cochain(np.random.default_rng(32), cover, 2, 2)
    return om, om2, dec, rho


def _pushed(omega, dec, rho) -> str:
    mat = pushforward(omega, dec, rho).materialize()
    return repr([(idx, v.terms if isinstance(v, TrigForm) else v)
                 for idx, v in mat.components.items()])


def test_a_cochain_never_reads_the_symbols_of_another():
    # pushing omega first leaves nothing that pushing omega' reads: its
    # value equals the one a fresh interpreter gives
    om, om2, dec, rho = _two_cochains()
    first = _pushed(om, dec, rho)
    second = _pushed(om2, dec, rho)
    # omega' pushed in a fresh interpreter, where no symbol was ever built
    paths = [str(Path(gerbekit.__file__).parents[1]), str(Path(__file__).parent)]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths))
    fresh = subprocess.run(
        [sys.executable, "-c", "from test_fiberint import _two_cochains, _pushed\n"
         "_, om2, dec, rho = _two_cochains()\n"
         "print(_pushed(om2, dec, rho))"],
        env=env, capture_output=True, text=True, check=True, timeout=120)
    assert second == fresh.stdout.strip()
    assert second != first


def test_a_nan_coefficient_fails_the_pushforward_check(monkeypatch):
    # no form holds an exact zero, so the push-forward skips a symbol with
    # no terms; a NaN coefficient is a term, and must reach the defect
    om, dec, rho, _, _ = _s1_instance(33, 1)
    idx = next(i for i, v in om.components.items() if len(i) == 1)
    form = om.components[idx]
    key = next(iter(form.terms))
    om.components[idx] = TrigForm(form.ambient_dim, form.degree,
                                  {**form.terms, key: complex(math.nan, 0.0)})
    defect = pushforward_commutes_defect(om, dec, rho)
    assert math.isnan(defect)
    monkeypatch.setitem(cli.SUITES, "pushforward",
                        lambda trials, seed: [("stokes_s1", defect)])
    report = cli.run_suite("pushforward", 1, 0, 1e-9)
    assert [c["pass"] for c in report["checks"]] == [False]
