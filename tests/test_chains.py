"""Integration over chains: the holonomy, the push-forward and its homotopy
integrate each component or symbol once per chain of cells that share a
subordination image.  The per-cell layer sum below is the reference: by
linearity both sums are equal, up to the order of the floating-point
additions."""

import numpy as np
import pytest

from gerbekit import covers
from gerbekit.cochain import level_zero, prism_indices
from gerbekit.covers import (CHAIN_IMAGES, layer_sign,
                             make_circle_decomposition, two_subordinations)
from gerbekit.fiberint import (_path_sum, integrate_fiber_cell, pushforward,
                               pushforward_homotopy, t_symbol_form)
from gerbekit.holonomy import holonomy
from gerbekit.serialize import cover_from_id, decomposition_from_id
from gerbekit.suites import random_alternating_cochain, random_cocycle
from gerbekit.trigform import TrigForm, signed_sum

REL = 1e-12


def per_cell_layer_sum(dec, p, value, zero):
    """sum_k (-1)^{(p+1)(k+1)} sum_{i1 > ... > ik} value((i), Delta_(i)),
    one value per cell."""
    def layer(k):
        values = (value(idx, cell)
                  for idx, cell in dec.faces.get(k, {}).items())
        return signed_sum(zero, ((0, v) for v in values if v is not None))

    return signed_sum(zero, ((layer_sign(p, k) < 0, layer(k))
                             for k in range(1, dec.dim + 2)))


def holonomy_per_cell(omega, dec, rho):
    def value(idx, cell):
        comp = omega.component(tuple(rho[i] for i in idx))
        return comp.integrate_cell(cell) if comp.terms else None

    return per_cell_layer_sum(dec, 0, value, 0.0 + 0.0j).real


def fiber_integral_per_cell(omega, dec, p, family, a_idx):
    """Component a_idx of the push-forward whose cell Delta_(i) integrates
    sum_{(odd, b) in family(i)} (-1)^odd T^(a)_(b) omega."""
    n_base = omega.cover.factor_covers[0].factors
    if len(a_idx) == p + 2:
        def value(idx, cell):
            if cell.dim:
                return None
            return cell.sign * signed_sum(0, (
                (odd, _path_sum(omega, a_idx, b, 0)) for odd, b in family(idx)))
    else:
        def value(idx, cell):
            syms = [(odd, t_symbol_form(omega, a_idx, b))
                    for odd, b in family(idx)]
            first = syms[0][1]
            sym = signed_sum(TrigForm.zero(first.ambient_dim, first.degree),
                             syms)
            return integrate_fiber_cell(sym, cell, n_base) if sym.terms \
                else None
    return per_cell_layer_sum(dec, p, value, level_zero(p, n_base, len(a_idx)))


def assert_components_match(got, want_fn):
    """Every component of the cochain got on its cover's ordered tuples
    equals want_fn(idx): integers exactly, forms to REL of their size."""
    compared = 0
    for r in range(1, got.degree + 3):
        for idx in got.cover.nonempty_tuples(r):
            have, want = got.component(idx), want_fn(idx)
            if isinstance(want, int):
                assert have == want, idx
                continue
            scale = max(want.max_abs(), have.max_abs())
            assert (have - want).max_abs() <= REL * scale, idx
            compared += bool(want.terms)
    assert compared


SETUPS = {
    "circle:20": ("circle:20", "circle:4:0.7",
                  "product:circle:3:0.6|circle:4:0.7"),
    "hex:6": ("hex:6", "torus:3:3:0.75",
              "product:circle:3:0.6|torus:3:3:0.75"),
}


def _subordinations(dec_id, fiber_id, seed):
    dec = decomposition_from_id(dec_id)
    rho, rho2 = two_subordinations(dec, cover_from_id(fiber_id),
                                   np.random.default_rng(seed))
    assert rho != rho2
    return dec, rho, rho2


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("dec_id", list(SETUPS))
def test_the_holonomy_over_chains_is_the_sum_over_cells(dec_id, seed):
    _, fiber_id, _ = SETUPS[dec_id]
    dec, rho, rho2 = _subordinations(dec_id, fiber_id, seed)
    cover = cover_from_id(fiber_id)
    rng = np.random.default_rng(100 + seed)
    for omega in (random_cocycle(rng, cover, dec.dim),
                  random_alternating_cochain(rng, cover, dec.dim, dec.dim)):
        for sub in (rho, rho2):
            want = holonomy_per_cell(omega, dec, sub)
            assert abs(holonomy(omega, dec, sub) - want) \
                <= REL * max(abs(want), 1.0)


@pytest.mark.parametrize("dec_id,degree", [("circle:20", 1), ("circle:20", 2),
                                           ("hex:6", 2)])
def test_the_pushforward_over_chains_is_the_sum_over_cells(dec_id, degree):
    _, fiber_id, cover_id = SETUPS[dec_id]
    dec, rho, rho2 = _subordinations(dec_id, fiber_id, degree)
    omega = random_alternating_cochain(np.random.default_rng(7 + degree),
                                       cover_from_id(cover_id), degree,
                                       1 + dec.dim)
    p = degree - dec.dim
    for sub in (rho, rho2):
        def family(idx, sub=sub):
            return ((0, tuple(sub[i] for i in idx)),)

        assert_components_match(
            pushforward(omega, dec, sub),
            lambda a: fiber_integral_per_cell(omega, dec, p, family, a))


@pytest.mark.parametrize("dec_id,degree", [("circle:20", 2), ("hex:6", 3)])
def test_the_homotopy_over_chains_is_the_sum_over_cells(dec_id, degree):
    _, fiber_id, cover_id = SETUPS[dec_id]
    dec, rho, rho2 = _subordinations(dec_id, fiber_id, degree)
    omega = random_alternating_cochain(np.random.default_rng(degree),
                                       cover_from_id(cover_id), degree,
                                       1 + dec.dim)
    p = degree - dec.dim - 1
    for sub, sub2 in ((rho, rho2), (rho2, rho)):
        def family(idx, sub=sub, sub2=sub2):
            return prism_indices(idx, sub, sub2)

        assert_components_match(
            pushforward_homotopy(omega, dec, sub, sub2),
            lambda a: fiber_integral_per_cell(omega, dec, p, family, a))


def test_chains_are_built_once_per_image_and_kept_under_a_bound(monkeypatch):
    built = []

    class CountedChain(covers.Chain):
        __slots__ = ()

        def __init__(self, cells):
            built.append(len(cells))
            super().__init__(cells)

    monkeypatch.setattr(covers, "Chain", CountedChain)
    dec = make_circle_decomposition(20)
    fiber = cover_from_id("circle:4:0.7")
    cover = cover_from_id("product:circle:3:0.6|circle:4:0.7")
    rng = np.random.default_rng(3)
    rho, _ = two_subordinations(dec, fiber)
    first = random_alternating_cochain(rng, cover, 2, 2)
    pushforward(first, dec, rho).materialize()
    once = len(built)
    # 20 segments and 20 points: 4 images per layer among the live cells
    assert once == 8 and sum(built) == 24
    chains = dec.chains(rho)
    second = random_alternating_cochain(rng, cover, 2, 2)
    pushforward(second, dec, rho).materialize()
    assert len(built) == once and dec.chains(rho) is chains
    for _ in range(3 * CHAIN_IMAGES):
        _, rho2 = two_subordinations(dec, fiber, rng)
        pushforward_homotopy(second, dec, rho, rho2).component((0,))
        assert len(dec._chains) <= CHAIN_IMAGES
    assert len(built) > once
