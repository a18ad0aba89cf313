"""Seeded verification suites: deterministic random instances for every
module's identity battery, each returning (name, max_defect) records.

Instance shapes are fixed: frequencies bounded by 2, FORM_TERMS = 2 random
monomials per form, alternating multi-index data (a value on the sorted
tuple, extended by permutation sign).  The holonomy and crossmodule suites
draw real-valued forms, each monomial with its conjugate at -freq, since a
holonomy is taken of real data only.  The cochain and push-forward suites
draw the monomials alone (real=False): the identities they check are
C-linear, so a complex instance tests what its real part and its
conjugate would, at half the terms.
"""

from __future__ import annotations

import cmath
import math
from functools import lru_cache
from itertools import combinations, product
from typing import Dict, List, Tuple

import numpy as np

from . import liecs
from .cochain import (DiffCochain, Level, alternating_cochain,
                      classify_flat_2cocycle, from_global_form, homotopy_k,
                      restrict, total_d)
from .covers import Cover, refine, two_subordinations
from .fiberint import (homotopy_residual, pushforward,
                       pushforward_commutes_defect)
from .holonomy import holonomy, invariance_defect, nearest_2pi_multiple_defect
from .lattice import (anomaly_exponents, builtin, class_sizes_mod_2,
                      coxeter_from_roots, roots, spin16_embedding,
                      spin16_first_series, weight_identity_check)
from .modform import (AutomorphyFamily, GroupElement, ModuliPoint,
                      cocycle_defect, eta, eta_multiplier, factor,
                      measure_extra_multiplier, reflection_element, theta1,
                      theta_lattice, theta_lattice_enum, transform_defect)
from .serialize import cover_from_id, decomposition_from_id
from .trigform import Key, TrigForm, nan_max

Check = Tuple[str, float]


class Worst(dict):
    """The worst defect of each declared check, in report order: each starts
    at 0.0 and folds its defects through nan_max, so a NaN or inf defect is
    kept and never passes.  An undeclared name raises KeyError."""

    def __init__(self, *names: str):
        super().__init__(dict.fromkeys(names, 0.0))

    def add(self, name: str, defect: float) -> None:
        self[name] = nan_max(self[name], defect)


# ---------------------------------------------------------------------------
# random instances


FORM_TERMS = 2          # monomials of a random form, with conjugates if real
FORM_MAX_FREQ = 2       # the largest |frequency| in a random form
CONNECTION_TERMS = 2    # terms of a random connection
LIE_DIM = 3             # random connections and gauge maps live on T^3


@lru_cache(maxsize=None)
def _key_table(ambient_dim: int, degree: int,
               max_freq: int) -> List[Tuple[Key, Key]]:
    """(key, conjugate key) of every term a random form can draw, at
    code * len(pool) + pick: code is the frequency row read as the number
    with digits k + max_freq in base 2 * max_freq + 1, most significant
    first, and pick indexes the degree's axes pool.  The conjugate
    frequency -k has code base**ambient_dim - 1 - code.  Every form drawn
    at this shape shares these key objects."""
    pool = list(combinations(range(ambient_dim), degree))
    freqs = list(product(range(-max_freq, max_freq + 1), repeat=ambient_dim))
    return [((freq, axes), (freqs[-1 - code], axes))
            for code, freq in enumerate(freqs) for axes in pool]


def random_real_forms(rng, ambient_dim: int, degree: int, count: int,
                      real: bool = True) -> List[TrigForm]:
    """count random forms: real-valued ones, each term paired with its
    conjugate at -freq, or with real=False the drawn terms alone.

    The numbers of all count forms come from three vector draws, in this
    order: rng.integers(-FORM_MAX_FREQ, FORM_MAX_FREQ + 1,
    size=(count, FORM_TERMS, ambient_dim)) for the frequencies,
    rng.integers(len(pool), size=(count, FORM_TERMS)) for the axes (not
    drawn when the degree's axes pool has one entry) and
    rng.standard_normal((count, FORM_TERMS, 2)) for the coefficients'
    real and imaginary parts.  Each drawn term is one index into the key
    table of (ambient_dim, degree, FORM_MAX_FREQ), so its keys are looked
    up, not built.

    Form i takes row i of each draw.  Its monomials, each followed by its
    conjugate when real, add into one dict in draw order, a key whose
    running sum is exactly zero dropping at once, as in signed_sum.  Both
    values of real make the same draws, so the random stream does not
    depend on it.
    """
    table = _key_table(ambient_dim, degree, FORM_MAX_FREQ)
    n_axes = math.comb(ambient_dim, degree)
    digits = (2 * FORM_MAX_FREQ + 1) ** np.arange(ambient_dim - 1, -1, -1)
    index = (rng.integers(-FORM_MAX_FREQ, FORM_MAX_FREQ + 1,
                          size=(count, FORM_TERMS, ambient_dim))
             + FORM_MAX_FREQ) @ digits * n_axes
    if n_axes > 1:
        index += rng.integers(n_axes, size=(count, FORM_TERMS))
    parts = rng.standard_normal((count, FORM_TERMS, 2)).tolist()
    forms = []
    for form_index, form_parts in zip(index.tolist(), parts):
        terms: Dict[Key, complex] = {}
        for i, (re, im) in zip(form_index, form_parts):
            key, conj_key = table[i]
            c = complex(re, im)
            pairs = ((key, c), (conj_key, c.conjugate())) if real else \
                ((key, c),)
            for key, coeff in pairs:
                v = terms.get(key, 0.0) + coeff
                if v != 0.0:
                    terms[key] = v
                else:
                    terms.pop(key, None)
        # terms holds no exact zero, so _trusted's copy is not needed
        form = object.__new__(TrigForm)
        form.ambient_dim, form.degree, form.terms = ambient_dim, degree, terms
        forms.append(form)
    return forms


def random_real_form(rng, ambient_dim: int, degree: int,
                     real: bool = True) -> TrigForm:
    """One random form: random_real_forms with count 1."""
    return random_real_forms(rng, ambient_dim, degree, 1, real)[0]


def random_alternating_cochain(rng, cover: Cover, degree: int,
                               ambient_dim: int,
                               with_field_strength: bool = True,
                               real: bool = True) -> DiffCochain:
    """Random cochain, alternating by construction, its forms drawn by
    random_real_forms with the given real.

    One random value is drawn per sorted support: forms at index lengths
    1..degree+1, an integer in [-2, 2] at degree+2.  Each form level is one
    random_real_forms call over cover.supports(r), in support order, then
    the integer row is one rng.integers(-2, 3, size=len(supports)), and
    the field strength is drawn last.  A zero value is left out.  The
    cochain is `alternating_cochain` of those values: any other ordering
    of a support reads as the sorted value times the sign of the
    permutation.  ambient_dim must be cover.factors: the cochain refuses
    forms on another torus.
    """
    comps: Dict[Tuple[int, ...], Level] = {}
    for r in range(1, degree + 2):
        deg = degree - (r - 1)
        if deg > ambient_dim:
            continue
        supports = cover.supports(r)
        for base, f in zip(supports, random_real_forms(
                rng, ambient_dim, deg, len(supports), real)):
            if f.terms:
                comps[base] = f
    supports = cover.supports(degree + 2)
    for base, m in zip(supports,
                       rng.integers(-2, 3, size=len(supports)).tolist()):
        if m != 0:
            comps[base] = m
    if with_field_strength and degree + 1 <= ambient_dim:
        comps[()] = random_real_form(rng, ambient_dim, degree + 1, real)
    return alternating_cochain(degree, cover, comps)


def random_cocycle(rng, cover: Cover, degree: int,
                   real: bool = True) -> DiffCochain:
    """from_global_form(T) + d(random flat cochain): a cocycle, real unless
    real is False."""
    ambient_dim = cover.factors
    if degree > ambient_dim:
        base = None
    else:
        T = random_real_form(rng, ambient_dim, degree, real)
        base = from_global_form(T, cover)
    xi = random_alternating_cochain(rng, cover, degree - 1, ambient_dim,
                                   with_field_strength=False, real=real)
    out = total_d(xi) if base is None else base + total_d(xi)
    return out


# ---------------------------------------------------------------------------
# suites


def suite_cochain(trials: int, seed: int) -> List[Check]:
    rng = np.random.default_rng(seed)
    covers = [("s1", cover_from_id("circle:4:0.55")),
              ("t2", cover_from_id("torus:3:3:0.55"))]
    # refine draws no random numbers: one refinement per cover serves all
    # trials
    refinements = [refine(cover, 2) for _, cover in covers]
    worst = Worst("dd_zero_s1", "homotopy_identity_s1",
                  "dd_zero_t2", "homotopy_identity_t2")
    for t in range(trials):
        cname, cover = covers[t % 2]
        omega = random_alternating_cochain(rng, cover, 1 + t % 3,
                                           cover.factors, real=False)
        worst.add(f"dd_zero_{cname}", total_d(total_d(omega)).max_defect())
        _, s1, s2 = refinements[t % 2]
        lhs = total_d(homotopy_k(omega, s1, s2)) + homotopy_k(total_d(omega), s1, s2)
        rhs = restrict(omega, s1) - restrict(omega, s2)
        worst.add(f"homotopy_identity_{cname}", (lhs - rhs).max_defect())
    return list(worst.items())


def circle_setup():
    return cover_from_id("circle:4:0.7"), decomposition_from_id("circle:20")


def torus_setup():
    return cover_from_id("torus:3:3:0.75"), decomposition_from_id("hex:6")


def suite_holonomy(trials: int, seed: int) -> List[Check]:
    rng = np.random.default_rng(seed)
    cover, dec = circle_setup()
    worst = Worst("global_form_holonomy", "subordination_shift_s1",
                  "subordination_shift_t2")
    # (a) the global 1-form alpha dx has holonomy 2 pi alpha
    for alpha in (1.0, -0.7, 0.32):
        T = alpha * TrigForm.monomial(1, (0,), (0,), 1.0)
        om = from_global_form(T, cover)
        rho, _ = two_subordinations(dec, cover, rng)
        worst.add("global_form_holonomy",
                  abs(holonomy(om, dec, rho) - 2 * math.pi * alpha))
    # (b) a subordination change shifts holonomy by 2 pi Z: on the circle
    # with degree-1 cocycles, then on the torus with degree-2 ones
    for name, (cov, dc), count in (
            ("subordination_shift_s1", (cover, dec), trials),
            ("subordination_shift_t2", torus_setup(), max(trials // 4, 2))):
        for _ in range(count):
            om = random_cocycle(rng, cov, cov.factors)
            rho, rho2 = two_subordinations(dc, cov, rng)
            worst.add(name, nearest_2pi_multiple_defect(
                invariance_defect(om, dc, rho, rho2)))
    return list(worst.items())


def suite_pushforward(trials: int, seed: int) -> List[Check]:
    rng = np.random.default_rng(seed)
    fiber_s1, dec_s1 = circle_setup()
    fiber_t2, dec_t2 = torus_setup()
    worst = Worst("cocycle_closed", "homotopy_residual", "stokes_s1",
                  "stokes_t2")
    cover_s1 = cover_from_id("product:circle:3:0.6|circle:4:0.7")
    cover_t2 = cover_from_id("product:circle:3:0.6|torus:3:3:0.75")
    for t in range(trials):
        # E = S^1
        degree = 1 + t % 2
        om = random_alternating_cochain(rng, cover_s1, degree, 2,
                                        real=False)
        rho, rho2 = two_subordinations(dec_s1, fiber_s1, rng)
        worst.add("stokes_s1", pushforward_commutes_defect(om, dec_s1, rho))
        if degree >= 2:
            oc = random_cocycle(rng, cover_s1, degree, real=False)
            pushed = pushforward(oc, dec_s1, rho)
            worst.add("cocycle_closed", total_d(pushed).max_defect())
            worst.add("homotopy_residual",
                      homotopy_residual(oc, dec_s1, rho, rho2, pushed))
    for t in range(max(trials // 2, 2)):
        om = random_alternating_cochain(rng, cover_t2, 2 + t % 2, 3,
                                        real=False)
        rho, _ = two_subordinations(dec_t2, fiber_t2, rng)
        worst.add("stokes_t2", pushforward_commutes_defect(om, dec_t2, rho))
    return list(worst.items())


def random_connection(rng) -> liecs.LieValuedForm:
    """A random su(2)-valued real 1-form on T^3."""
    basis = liecs.su2_basis()
    terms = {}
    for _ in range(CONNECTION_TERMS):
        freq = tuple(int(rng.integers(-1, 2)) for _ in range(LIE_DIM))
        axis = (int(rng.integers(LIE_DIM)),)
        X = sum(rng.normal() * b for b in basis)
        key = (freq, axis)
        kc = (tuple(-f for f in freq), axis)
        terms[key] = terms.get(key, 0) + X
        terms[kc] = terms.get(kc, 0) + X.conj().T * (-1)
    # make each coefficient pair Hermitian-conjugate so A is real and su(2)
    return liecs.LieValuedForm(LIE_DIM, 1, 2, terms)


def random_gauge_map(rng) -> liecs.GaugeMap:
    factors = []
    for _ in range(2):
        theta = rng.normal(size=3)
        U = _su2_exp(theta)
        w = int(rng.integers(1, 3))
        freq = tuple(int(rng.integers(-1, 2)) for _ in range(LIE_DIM))
        if all(f == 0 for f in freq):
            freq = (1,) + (0,) * (LIE_DIM - 1)
        factors.append(liecs.GaugeFactor(U, (w, -w), freq))
    return liecs.GaugeMap(factors)


def _su2_exp(theta) -> np.ndarray:
    X = sum(t * b for t, b in zip(theta, liecs.su2_basis()))
    w, V = np.linalg.eig(X)
    return V @ np.diag(np.exp(w)) @ np.linalg.inv(V)


def suite_chernsimons(trials: int, seed: int) -> List[Check]:
    rng = np.random.default_rng(seed)
    worst = Worst("bianchi", "bracket_oracle", "d_cs_equals_ff",
                  "gauge_variation", "mc_flat")
    for _ in range(trials):
        A = random_connection(rng)
        F = liecs.curvature(A)
        worst.add("d_cs_equals_ff",
                  (liecs.cs_form(A).d() - liecs.pairing(F, F)).max_abs())
        worst.add("bianchi", (F.d() - liecs.graded_bracket(F, A)).max_abs())
        t = random_gauge_map(rng)
        worst.add("gauge_variation", liecs.gauge_variation_defect(A, t))
        theta = t.maurer_cartan()
        worst.add("mc_flat", (theta.d() + 0.5 * liecs.graded_bracket(
            theta, theta)).max_abs())
        B = random_connection(rng)
        br = liecs.graded_bracket(A, B)
        if br.terms:
            x = rng.random(3)
            vecs = [rng.normal(size=3) for _ in range(2)]
            lhs = br.evaluate(x, vecs)
            rhs = liecs.bracket_oracle_value(A, B, x, vecs)
            worst.add("bracket_oracle", float(np.max(np.abs(lhs - rhs))))
    return list(worst.items())


def suite_lattice(trials: int, seed: int) -> List[Check]:
    e8 = builtin("e8")
    d16 = builtin("d16plus")
    checks = []
    classes = class_sizes_mod_2(e8, 4)
    checks.append(("e8_norm2_count", abs(sum(classes.get(2, ())) - 240)))
    checks.append(("e8_norm4_count", abs(sum(classes.get(4, ())) - 2160)))
    checks.append(("e8_even_unimodular",
                   0.0 if e8.is_even() and e8.is_unimodular() else 1.0))
    checks.append(("d16plus_even_unimodular",
                   0.0 if d16.is_even() and d16.is_unimodular() else 1.0))
    checks.append(("coxeter_e8", abs(coxeter_from_roots(e8) - 30)))
    checks.append(("coxeter_d16plus", abs(coxeter_from_roots(d16) - 30)))
    series = spin16_first_series()
    images = {spin16_embedding(v) for v in series}
    ok = len(series) == 112 and len(images) == 112 and all(
        e8.norm(w) == 2 for w in images)
    checks.append(("spin16_series_112", 0.0 if ok else 1.0))
    checks.append(("weight_identity", float(abs(weight_identity_check()))))
    checks.append(("weyl_index_135", abs(len(classes.get(4, ())) - 135)))
    c, x2, n, d = anomaly_exponents("e8e8_adjoint")
    checks.append(("anomaly_adjoint", abs(c * 32 - (n + x2))))
    c, x2, n, d = anomaly_exponents("spin16_rho")
    checks.append(("anomaly_rho", abs(c * 32 - (n + x2))))
    return checks


def modular_sample_points(L, rng):
    pts = []
    for tau in (1.1j, 0.3 + 1.7j, -0.4 + 0.9j):
        z = tuple(0.4 * (rng.random(L.rank) - 0.5)
                  + 0.4j * (rng.random(L.rank) - 0.5))
        pts.append(ModuliPoint(tau, z))
    return pts


def suite_modular(trials: int, seed: int) -> List[Check]:
    rng = np.random.default_rng(seed)
    worst = Worst("eta_shift", "eta_inversion", "chi_24th_root", "theta1_odd",
                  "det_section_q1_law", "det_section_q2_law",
                  "theta_e8e8_square", "theta_vs_enumeration",
                  "character_T_law", "character_W_law", "char_cocycle_TT",
                  "ad_is_char_pow30", "extra_multiplier_eta16")
    # eta laws
    worst.add("eta_shift",
              abs(eta(2j + 1) - cmath.exp(1j * math.pi / 12) * eta(2j)))
    t = 1 + 3j
    worst.add("eta_inversion",
              abs(eta(-1 / t) / (cmath.sqrt(-1j * t) * eta(t)) - 1))
    # the exact eta multiplier against one measured from eta, on random
    # words, then on [[1, 0], [c, 1]] for c = 3..15, whose Dedekind sums are
    # not zero, and on two matrices with d != +-1 (mod c), whose sums take
    # more than one reciprocity step.  tau0 = 1.3i, or -d/c + 1.3i/|c| so
    # that c tau0 + d = +-1.3i: Im tau0 and Im m(tau0) stay above 0.051 for
    # |c| <= 15
    words = []
    for _ in range(max(trials, 20)):
        gens = []
        for _ in range(int(rng.integers(1, 5))):
            if rng.random() < 0.5:
                gens.append(GroupElement.S(1, int(rng.integers(-2, 3)), 0, 1))
            else:
                gens.append(GroupElement.S(0, -1, 1, 0))
        words.append(GroupElement.word(gens).m)
    words += [(1, 0, c, 1) for c in range(3, 16)]
    words += [(2, -1, 7, -3), (3, 1, 11, 4)]
    for a, b, c, d in words:
        tau0 = 1.3j if c == 0 else -d / c + 1.3j / abs(c)
        chi = eta((a * tau0 + b) / (c * tau0 + d)) / (
            cmath.sqrt(c * tau0 + d) * eta(tau0))
        worst.add("chi_24th_root", abs(chi - eta_multiplier((a, b, c, d))))
    # twisted theta
    worst.add("theta1_odd", abs(theta1(2j, 0)))
    df = AutomorphyFamily("det_u1")
    for _ in range(5):
        tau = complex(0.4 * (rng.random() - 0.5), 1.0 + rng.random())
        u = complex(0.4 * (rng.random() - 0.5), 0.3 * (rng.random() - 0.5))
        x = ModuliPoint(tau, (u,))
        worst.add("det_section_q1_law",
                  transform_defect(df, GroupElement.T([1], [0]), x))
        worst.add("det_section_q2_law",
                  transform_defect(df, GroupElement.T([0], [1]), x))
    # theta series
    e8 = builtin("e8")
    e8e8 = builtin("e8e8")
    v = theta_lattice(e8, 1.7j, [0] * 8)
    worst.add("theta_e8e8_square",
              abs(theta_lattice(e8e8, 1.7j, [0] * 16) - v * v))
    z8 = list(0.3 * rng.random(8))
    worst.add("theta_vs_enumeration",
              abs(theta_lattice(e8, 1.5j, z8)
                  - theta_lattice_enum(e8, 1.5j, z8, max_norm=14)))
    # character transformation under T and W generators
    rts = roots(e8e8)
    fam = AutomorphyFamily("char", e8e8)
    adf = AutomorphyFamily("anomaly_ad", e8e8)
    for x in modular_sample_points(e8e8, rng):
        q1 = rts[int(rng.integers(len(rts)))]
        q2 = rts[int(rng.integers(len(rts)))]
        g = GroupElement.T(q1, q2)
        w = reflection_element(e8e8, rts[int(rng.integers(len(rts)))])
        worst.add("character_T_law", transform_defect(fam, g, x))
        worst.add("character_W_law", transform_defect(fam, w, x))
        h = GroupElement.T(rts[int(rng.integers(len(rts)))],
                           rts[int(rng.integers(len(rts)))])
        worst.add("char_cocycle_TT", cocycle_defect(fam, g, h, x))
        ref = factor(adf, g, x) / factor(fam, g, x) ** 30
        worst.add("ad_is_char_pow30", abs(ref - 1))
    # the measured extra multiplier under tau -> tau + 1
    m = measure_extra_multiplier(GroupElement.S(1, 1, 0, 1))
    worst.add("extra_multiplier_eta16", abs(m - cmath.exp(-4j * math.pi / 3)))
    return list(worst.items())


def suite_crossmodule(trials: int, seed: int) -> List[Check]:
    """Flat degree-2 holonomy classes on T^2: coboundary invariance, and the
    class of (h/4pi^2) dx0 dx1, which is h."""
    rng = np.random.default_rng(seed)
    cover, dec = torus_setup()
    rho, _ = two_subordinations(dec, cover, rng)
    worst = Worst("flat_class_coboundary_invariance", "flat_class_value")
    for _ in range(trials):
        h = float(rng.uniform(0.3, 5.5))
        T = (h / (4 * math.pi ** 2)) * TrigForm.monomial(2, (0, 0), (0, 1), 1.0)
        om = from_global_form(T, cover)
        cls = classify_flat_2cocycle(om, dec, rho)
        xi = random_alternating_cochain(rng, cover, 1, 2,
                                        with_field_strength=False)
        cls2 = classify_flat_2cocycle(om + total_d(xi), dec, rho)
        worst.add("flat_class_coboundary_invariance",
                  nearest_2pi_multiple_defect(cls - cls2))
        worst.add("flat_class_value", nearest_2pi_multiple_defect(cls - h))
    return list(worst.items())


SUITES = {
    "cochain": suite_cochain,
    "holonomy": suite_holonomy,
    "pushforward": suite_pushforward,
    "chernsimons": suite_chernsimons,
    "lattice": suite_lattice,
    "modular": suite_modular,
    "crossmodule": suite_crossmodule,
}
