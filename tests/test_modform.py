import cmath
import json
import math
from fractions import Fraction

import numpy as np
import pytest

from gerbekit import cli
from gerbekit.lattice import (IntegralLattice, _half_walk, builtin,
                              enumerate_by_norm, roots, theta_counts)
from gerbekit.modform import (PI_I, TWO_PI_I, AutomorphyFamily,
                              GroupElement, ModuliPoint, _coset_factor_sums,
                              _dedekind_sum, _theta_enum, _theta_with_terms,
                              act, character,
                              cocycle_defect, det_section, eta,
                              eta_multiplier, factor,
                              measure_extra_multiplier, reflection_element,
                              theta1, theta_lattice, theta_lattice_enum,
                              transform_defect)


def eta_series_oracle(tau, n_terms=500):
    """Independent direct summation: eta = sum_n chi12(n) e^{pi i tau n^2/12}
    with chi12 the quadratic character mod 12."""
    total = 0j
    for n in range(1, n_terms + 1):
        r = n % 12
        if r in (1, 11):
            c = 1
        elif r in (5, 7):
            c = -1
        else:
            continue
        total += c * cmath.exp(1j * math.pi * tau * n * n / 12)
    return total


def test_eta_matches_series_oracle():
    for tau in (1j, 0.3 + 1.2j, 2j):
        assert abs(eta(tau) - eta_series_oracle(tau)) < 1e-12


def test_eta_at_i_closed_form():
    # eta(i) = Gamma(1/4) / (2 pi^{3/4})
    ref = math.gamma(0.25) / (2 * math.pi ** 0.75)
    assert abs(eta(1j) - ref) < 1e-12


def test_eta_shift_law():
    tau = 2j
    assert abs(eta(tau + 1) - cmath.exp(1j * math.pi / 12) * eta(tau)) < 1e-12


def test_eta_inversion_law():
    tau = 1 + 3j
    assert abs(eta(-1 / tau) / (cmath.sqrt(-1j * tau) * eta(tau)) - 1) < 1e-10


def test_eta_past_the_underflow_of_q_is_its_prefactor():
    # |q| = e^{-2 pi Im tau} is 0 in floating point above Im tau of about
    # 118.6, where every factor of the product is exactly 1
    tau = 0.1 + 150j
    assert eta(tau) == cmath.exp(PI_I * tau / 12)


def test_eta_rejects_lower_half_plane():
    with pytest.raises(ValueError):
        eta(1 - 0.5j)


def test_eta_multiplier_identity_and_generators():
    assert abs(eta_multiplier((1, 0, 0, 1)) - 1) < 1e-12
    assert abs(eta_multiplier((1, 1, 0, 1)) - cmath.exp(1j * math.pi / 12)) < 1e-12


def test_eta_multiplier_is_24th_root_on_random_words():
    rng = np.random.default_rng(0)
    for _ in range(20):
        m = np.eye(2, dtype=np.int64)
        for _ in range(int(rng.integers(1, 6))):
            if rng.random() < 0.5:
                m = m @ np.array([[1, int(rng.integers(-2, 3))], [0, 1]])
            else:
                m = m @ np.array([[0, -1], [1, 0]])
        chi = eta_multiplier((m[0, 0], m[0, 1], m[1, 0], m[1, 1]))
        assert abs(chi ** 24 - 1) < 1e-9


@pytest.mark.parametrize("m, twelfths", [
    # S T^5: eta(-1/(tau+5)) = sqrt(-i(tau+5)) e^{5 pi i/12} eta(tau)
    ((0, -1, 1, 5), 2),
    # Dedekind sum: eps = e^{pi i (2/72 - s(1, 6))} = e^{-pi i/4}
    ((1, 0, 6, 1), -6),
])
def test_eta_multiplier_of_words_that_sampled_below_tau_min(m, twelfths):
    # a multiplier measured from eta at tau0 = 1.3i would evaluate eta below
    # TAU_MIN under both (Im 0.049 and 0.021)
    chi = eta_multiplier(m)
    assert abs(chi - cmath.exp(1j * math.pi * twelfths / 12)) < 1e-9


def test_eta_multiplier_of_every_suite_word():
    # the modular suite draws words of 1..4 generators T^k (|k| <= 2) and S
    gens = [((1, k), (0, 1)) for k in range(-2, 3)] + [((0, -1), (1, 0))]
    words = {((1, 0), (0, 1))}
    frontier = set(words)
    for _ in range(4):
        frontier = {tuple(map(tuple, np.array(w) @ np.array(g)))
                    for w in frontier for g in gens}
        words |= frontier
    for w in words:
        chi = eta_multiplier((w[0][0], w[0][1], w[1][0], w[1][1]))
        assert abs(chi ** 24 - 1) < 1e-9


def measured_eta_multiplier(m, w):
    """chi(m) measured from eta at tau0 = w, or at -d/c + w/|c|, where
    c tau0 + d = +-w: then Im tau0 = Im w/|c| and Im m(tau0) = Im w/(|c||w|^2)."""
    a, b, c, d = m
    tau0 = w if c == 0 else -d / c + w / abs(c)
    return eta((a * tau0 + b) / (c * tau0 + d)) / (
        cmath.sqrt(c * tau0 + d) * eta(tau0))


def sl2z_box(cs, d_max=30, a_max=40):
    """Every (a, b, c, d) of determinant 1 with c in cs, c != 0, |d| <= d_max
    and |a| <= a_max, then +-(1, b; 0, 1) for |b| <= 2 if 0 is in cs."""
    for c in cs:
        for d in range(-d_max, d_max + 1):
            if c and math.gcd(c, d) == 1:
                for a in range(-a_max, a_max + 1):
                    if (a * d - 1) % c == 0:
                        yield a, (a * d - 1) // c, c, d
    if 0 in cs:
        for b in range(-2, 3):
            yield 1, b, 0, 1
            yield -1, -b, 0, -1


def test_eta_multiplier_matches_eta_on_a_box_of_matrices():
    # both sample points of the multiplier once measured from eta; for
    # |c| <= 15 every eta argument stays above TAU_MIN
    box = list(sl2z_box(range(-15, 16)))
    assert len(box) > 20000
    for m in box:
        chi = eta_multiplier(m)
        for w in (1.3j, 0.2 + 1.1j):
            assert abs(chi - measured_eta_multiplier(m, w)) < 1e-11, (m, w)


def test_eta_multiplier_matches_eta_at_c_16():
    # tau0 = -d/16 + i/16: Im tau0 = Im m(tau0) = 1/16
    box = list(sl2z_box((-16, 16)))
    assert len(box) > 100
    for m in box:
        assert abs(eta_multiplier(m) - measured_eta_multiplier(m, 1j)) < 1e-11


def test_eta_multiplier_of_a_huge_translation():
    # eta(tau + b) = e^{pi i b/12} eta(tau)
    chi = eta_multiplier((1, 10 ** 9, 0, 1))
    assert abs(chi - cmath.exp(1j * math.pi * (10 ** 9 % 24) / 12)) < 1e-15


def test_dedekind_sum_matches_the_sawtooth_sum():
    # s(h, k) = sum_{r=1}^{k-1} ((r/k)) ((hr/k)) with ((x)) = x - floor(x) - 1/2
    # off the integers; for gcd(h, k) = 1 no argument is an integer, so
    # 4k^2 s(h, k) = sum_r (2r - k)(2(hr mod k) - k)
    for k in range(1, 61):
        for h in range(-k, 2 * k + 1):
            if math.gcd(h, k) == 1:
                direct = sum((2 * r - k) * (2 * (h * r % k) - k)
                             for r in range(1, k))
                assert _dedekind_sum(h, k) == Fraction(direct, 4 * k * k)


@pytest.mark.parametrize("family, matrix", [("ad", [1, 0, 16, 1]),
                                            ("rho", [1, 10 ** 9, 0, 1])])
def test_cli_factor_answers_where_the_measured_multiplier_refused(
        capsys, family, matrix):
    z = [[0.01 * (j + 1), 0.02 * (j % 3) - 0.015] for j in range(8)]
    rc = cli.main(["factor", "--family", family, "--lattice", "e8",
                   "--element", json.dumps({"S": matrix}), "--point",
                   json.dumps({"tau": [0.15, 1.2], "z": z})])
    out = json.loads(capsys.readouterr().out)
    assert rc == 0
    x = ModuliPoint(0.15 + 1.2j, tuple(complex(*p) for p in z))
    val = factor(AutomorphyFamily(family, builtin("e8")),
                 GroupElement.S(*matrix), x)
    assert complex(out["value_re"], out["value_im"]) == val


def test_verify_modular_seed_218_passes(capsys):
    # character_T_law read 2.5e-8 here when transform_defect divided by
    # |F(x)|: at a root translation |phi_g| = 2.7e6 and |F(gx)| = 3.3e9
    rc = cli.main(["verify", "--suite", "modular", "--seed", "218"])
    report = json.loads(capsys.readouterr().out)
    assert rc == 0 and report["all_pass"]


def test_verify_modular_seed_that_drew_a_low_sample_point(capsys):
    rc = cli.main(["verify", "--suite", "modular", "--trials", "20",
                   "--seed", "750606606"])
    report = json.loads(capsys.readouterr().out)
    chi = next(c for c in report["checks"] if c["name"] == "chi_24th_root")
    assert chi["pass"] and chi["max_defect"] < 1e-12
    assert rc == 0 and report["all_pass"]


def test_theta1_vanishes_at_origin():
    assert abs(theta1(2j, 0)) < 1e-12
    assert abs(theta1(1.1j, 0)) < 1e-12


def test_coset_factor_sums_match_the_sum_over_a_wide_window():
    # the window of n must sit on the Gaussian's peak, at n + c = -Im w /
    # Im tau; over |n| <= 80 every omitted term is below e^{-1000}
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(200):
        tau = complex(rng.uniform(-0.5, 0.5), rng.uniform(0.3, 2))
        w = complex(rng.uniform(-1, 1), rng.uniform(-3, 3))
        c = (0.0, 0.5)[int(rng.integers(2))]
        A, B, _ = _coset_factor_sums(tau, w, c, 1e-12)
        terms = [(n, cmath.exp(TWO_PI_I * w * (n + c)
                               + PI_I * tau * (n + c) ** 2))
                 for n in range(-80, 81)]
        want_a = sum(t for _, t in terms)
        want_b = sum(t if n % 2 == 0 else -t for n, t in terms)
        scale = sum(abs(t) for _, t in terms)
        worst = max(worst, abs(A - want_a) / scale, abs(B - want_b) / scale)
    assert worst <= 1e-12


def test_det_section_translation_laws():
    tau, u = 2j, 0.3 + 0.1j
    f = det_section
    # u -> u + 1 flips the sign
    assert abs(f(tau, u + 1) + f(tau, u)) < 1e-9
    # u -> u + tau picks up -e^{pi i(-2u - tau)}
    fac = -cmath.exp(1j * math.pi * (-2 * u - tau))
    assert abs(f(tau, u + tau) - fac * f(tau, u)) < 1e-9


def test_det_section_s_transformations():
    df = AutomorphyFamily("det_u1")
    x = ModuliPoint(2j, (0.3 + 0.1j,))
    assert transform_defect(df, GroupElement.S(1, 1, 0, 1), x) < 1e-9
    assert transform_defect(df, GroupElement.S(0, -1, 1, 0), x) < 1e-9


def test_det_section_is_odd_under_the_reflection():
    # W = [[-1]] sends u to -u, and the det section is odd in u
    df = AutomorphyFamily("det_u1")
    x = ModuliPoint(1.3j, (0.2 + 0.1j,))
    assert factor(df, GroupElement.W([[-1]]), x) == -1
    assert transform_defect(df, GroupElement.W([[-1]]), x) < 1e-12
    assert factor(df, GroupElement.W([[1]]), x) == 1


@pytest.fixture(scope="module")
def e8():
    return builtin("e8")


@pytest.fixture(scope="module")
def e8e8():
    return builtin("e8e8")


def test_theta_e8_q_expansion(e8):
    # Theta(iy) = 1 + 240 q + 2160 q^2 + O(q^3) at q = e^{-2 pi y}
    q = cmath.exp(2j * math.pi * 5j)
    got = theta_lattice(e8, 5j, [0] * 8)
    assert abs(got - (1 + 240 * q + 2160 * q * q)) < 1e-11


def test_theta_refuses_a_value_past_the_float_range(e8):
    # at Im z = 9 the terms of either sign overflow, and their sum is NaN
    with pytest.raises(ValueError, match=r"^the theta is \(nan.*, not finite: "
                       "the series leaves the float range at this tau and z$"):
        theta_lattice(e8, 1j, [9j] * 8)


def test_theta_block_factorization(e8, e8e8):
    v = theta_lattice(e8, 1.7j, [0] * 8)
    assert abs(theta_lattice(e8e8, 1.7j, [0] * 16) - v * v) < 1e-10


def test_theta_against_enumeration(e8):
    rng = np.random.default_rng(1)
    z = list(0.3 * rng.random(8) + 0.2j * (rng.random(8) - 0.5))
    got = theta_lattice(e8, 1.5j, z)
    ref = theta_lattice_enum(e8, 1.5j, z, max_norm=14)
    assert abs(got - ref) < 1e-10


def test_theta_weyl_invariance(e8):
    rng = np.random.default_rng(2)
    z = rng.random(8) * 0.3 + 0.2j * rng.random(8)
    w = reflection_element(e8, roots(e8)[7])
    M = np.array(w.w)
    assert abs(theta_lattice(e8, 1.3j, list(z))
               - theta_lattice(e8, 1.3j, list(M @ z))) < 1e-10


def test_theta_d16_against_enumeration():
    d16 = builtin("d16plus")
    rng = np.random.default_rng(3)
    z = list(0.2 * rng.random(16))
    got = theta_lattice(d16, 1.9j, z)
    ref = theta_lattice_enum(d16, 1.9j, z, max_norm=4)
    assert abs(got - ref) < 1e-8


def theta_enum_term_by_term(L, tau, z, max_norm):
    """The enumeration sum one vector at a time, in shell order, totalled
    exactly by math.fsum over the real and the imaginary parts; also, per
    term, |t| (4 |w| + 8 pi n a + 4) with w its exponent and
    a = |z|^T |G| |g|, the term's share of the roundoff bound below."""
    G = np.array([[float(Fraction(int(x), L.gram_den)) for x in row]
                  for row in L.gram])
    zv = np.array(z, dtype=complex)
    zv = zv - np.round(zv.real)
    terms, weights = [], []
    for nrm, vecs in enumerate_by_norm(L, max_norm).items():
        for g in vecs:
            g = np.array(g, dtype=float)
            w = PI_I * (2 * complex(zv @ (G @ g)) + tau * nrm)
            terms.append(cmath.exp(w))
            a = float(np.abs(zv) @ np.abs(G) @ np.abs(g))
            weights.append(abs(terms[-1])
                           * (4 * abs(w) + 8 * math.pi * L.rank * a + 4))
    total = complex(math.fsum(t.real for t in terms),
                    math.fsum(t.imag for t in terms))
    return total, math.fsum(abs(t) for t in terms), math.fsum(weights)


@pytest.mark.parametrize("seed", range(3))
def test_theta_enum_matches_the_term_by_term_fsum(e8, seed):
    # real z, as in the modular suite's theta_vs_enumeration check.  The
    # bound, to first order in the unit roundoff u = 2^-53:
    # - each side computes p = (g, z) as an n-term dot product, in its own
    #   order, within 2 n u a of the exact value, so the two p differ by
    #   at most 4 n u a and the terms by |t| 8 pi n u a;
    # - forming the exponent w and taking exp each rounds a few times:
    #   |t| u (4 |w| + 4);
    # - np.sum adds a block of b terms pairwise down to runs of 128, which
    #   it adds in interleaved partial sums, so a term passes through at
    #   most ceil(log2 b) + 18 additions; the two mirror halves of a block,
    #   the blocks and the zero vector add k + 2 more, for k blocks;
    # - math.fsum rounds the reference once.
    z = list(0.3 * np.random.default_rng(seed).random(8))
    want, abs_sum, weight = theta_enum_term_by_term(e8, 1.5j, z, 8)
    blocks = [len(rows) for _, rows, _ in _half_walk(e8, 8)]
    adds = math.ceil(math.log2(max(blocks))) + 18 + len(blocks) + 2
    bound = 2.0 ** -53 * (weight + (adds + 1) * abs_sum)
    assert bound <= 1e-14
    assert abs(theta_lattice_enum(e8, 1.5j, z, max_norm=8) - want) <= bound


@pytest.mark.parametrize("tau", [1.2j, 0.1 + 1.2j])
@pytest.mark.parametrize("name,max_norm", [("e8", 14), ("d16plus", 4),
                                           ("spin16_coroot", 11)])
def test_theta_enum_at_zero_is_the_sum_over_shells(name, max_norm, tau):
    # at z = 0 every vector of norm N gives e^{pi i tau N}: the shells'
    # counts times those, added exactly, are the sum to roundoff
    L = builtin(name)
    counts = theta_counts(L, max_norm)
    terms = [c * cmath.exp(PI_I * tau * N) for N, c in counts.items()]
    want = complex(math.fsum(t.real for t in terms),
                   math.fsum(t.imag for t in terms))
    got, count = _theta_enum(L, tau, [0] * L.rank, max_norm=max_norm)
    assert abs(got - want) <= 1e-14
    assert count == sum(counts.values())
    if name == "spin16_coroot":
        # norm 11 is the cutoff `gerbekit theta` takes here (tol 1e-12)
        assert _theta_enum(L, tau, [0] * L.rank) == (got, count)
        assert count == 550129


def test_theta_enum_below_norm_zero_sums_nothing(e8):
    assert _theta_enum(e8, 1.5j, [0.1] * 8, max_norm=-1) == (0j, 0)


def test_theta_fast_path_needs_the_builtin_gram():
    # an A2 lattice named "e8" is summed, not factored over E8's cosets
    a2 = IntegralLattice("e8", [[2, -1], [-1, 2]])
    got = theta_lattice(a2, 1.2j, [0, 0])
    assert abs(got - 1.0032) < 1e-4
    assert got == theta_lattice_enum(a2, 1.2j, [0, 0])


@pytest.mark.parametrize("name", ["e8", "d16plus", "e8e8"])
def test_theta_fast_path_follows_the_gram_not_the_name(name):
    ref = builtin(name)
    copy = IntegralLattice("renamed", ref.gram.tolist())
    rng = np.random.default_rng(5)
    z = list(0.2 * rng.random(ref.rank) + 0.1j * rng.random(ref.rank))
    assert _theta_with_terms(copy, 1.3j, z) == _theta_with_terms(ref, 1.3j, z)
    if name == "e8":
        assert _theta_with_terms(copy, 1.3j, z)[1] == 144


def test_character_e8_quotient_has_dimension_coefficient(e8):
    # q-expansion of Theta_E8 / eta^8 = q^{-1/3}(1 + 248 q + O(q^2))
    tau = 2j
    q = math.exp(-4 * math.pi)
    val = theta_lattice(e8, tau, [0] * 8) / eta(tau) ** 8
    val *= q ** (1.0 / 3.0)
    assert abs(val - (1 + 248 * q)) < 1e-7


def test_character_definition(e8e8):
    tau = 2j
    got = character(e8e8, tau, [0] * 16)
    ref = theta_lattice(e8e8, tau, [0] * 16) / eta(tau) ** 16
    assert abs(got - ref) < 1e-12


def test_character_rank_check(e8):
    with pytest.raises(ValueError):
        character(e8, 2j, [0] * 8)


def test_character_refuses_an_eta_power_that_underflows(e8e8):
    with pytest.raises(ValueError, match="past the float range"):
        character(e8e8, 200j, [0] * 16)


def test_character_refuses_a_value_past_the_float_range(e8e8):
    # eta^16 is subnormal (about 5.5e-310) at Im tau = 170, and theta / eta^16
    # overflows; a theta that is NaN is refused under the character's name
    with pytest.raises(ValueError, match=r"^the character is \(inf\+0j\), "
                       "not finite: the series leaves the float range"):
        character(e8e8, 170j, [0] * 16)
    with pytest.raises(ValueError, match=r"^the character is \(nan"):
        character(e8e8, 1j, [9j] * 16)


def test_character_transforms_under_translations(e8e8):
    rng = np.random.default_rng(4)
    fam = AutomorphyFamily("char", e8e8)
    rts = roots(e8e8)
    for seed in range(3):
        z = tuple(0.3 * (rng.random(16) - 0.5) + 0.3j * (rng.random(16) - 0.5))
        x = ModuliPoint(1.5j, z)
        g = GroupElement.T(rts[int(rng.integers(len(rts)))],
                           rts[int(rng.integers(len(rts)))])
        assert transform_defect(fam, g, x) < 1e-8


def test_character_weyl_invariance(e8e8):
    fam = AutomorphyFamily("char", e8e8)
    rng = np.random.default_rng(5)
    z = tuple(0.3 * rng.random(16) + 0.2j * rng.random(16))
    x = ModuliPoint(1.1j, z)
    w = reflection_element(e8e8, roots(e8e8)[33])
    assert transform_defect(fam, w, x) < 1e-10
    assert factor(fam, w, x) == 1


def test_adjoint_factor_is_char_power_30(e8e8):
    rng = np.random.default_rng(6)
    fam = AutomorphyFamily("char", e8e8)
    adf = AutomorphyFamily("anomaly_ad", e8e8)
    rts = roots(e8e8)
    g = GroupElement.T(rts[3], rts[90])
    s = GroupElement.S(2, 1, 1, 1)
    for elem in (g, s):
        vals = []
        for _ in range(3):
            z = tuple(0.3 * (rng.random(16) - 0.5)
                      + 0.2j * (rng.random(16) - 0.5))
            x = ModuliPoint(0.1 + 1.2j, z)
            vals.append(factor(adf, elem, x) / factor(fam, elem, x) ** 30)
        assert max(abs(v - vals[0]) for v in vals) < 1e-8
        assert abs(vals[0] - 1) < 1e-8


def test_rho_and_ad_chi_powers(e8e8):
    # the chi-dressed families differ from the anomaly-normalized ones by
    # the documented eta-multiplier powers on S-generators
    x = ModuliPoint(1.3j, tuple([0.1 + 0.05j] * 16))
    s = GroupElement.S(0, -1, 1, 0)
    chi = eta_multiplier((0, -1, 1, 0))
    ad = AutomorphyFamily("ad", e8e8)
    aad = AutomorphyFamily("anomaly_ad", e8e8)
    assert abs(factor(ad, s, x) - chi ** 496 * factor(aad, s, x)) < 1e-9
    rho = AutomorphyFamily("rho", e8e8)
    arho = AutomorphyFamily("anomaly_rho", e8e8)
    assert abs(factor(rho, s, x) - chi ** 16 * factor(arho, s, x)) < 1e-9


def test_cocycle_defects(e8e8):
    rng = np.random.default_rng(7)
    fam = AutomorphyFamily("char", e8e8)
    rts = roots(e8e8)
    z = tuple(0.3 * (rng.random(16) - 0.5) + 0.2j * (rng.random(16) - 0.5))
    x = ModuliPoint(1.1j, z)
    g = GroupElement.T(rts[11], rts[200])
    h = GroupElement.T(rts[5], rts[310])
    assert cocycle_defect(fam, g, h, x) < 1e-9
    assert cocycle_defect(fam, GroupElement.S(1, 2, 0, 1),
                          GroupElement.S(1, -3, 0, 1), x) < 1e-12
    assert cocycle_defect(fam, GroupElement.S(2, 1, 1, 1),
                          GroupElement.S(1, 0, 1, 1), x) < 1e-9


def test_cocycle_defect_of_two_weyl_reflections_is_zero(e8e8):
    # the W . W composite: the product of the reflections, an isometry
    fam = AutomorphyFamily("char", e8e8)
    rts = roots(e8e8)
    x = ModuliPoint(1.1j, tuple([0.1 + 0.05j] * 16))
    g, h = (reflection_element(e8e8, rts[i]) for i in (3, 100))
    assert cocycle_defect(fam, g, h, x) == 0.0


def test_cocycle_defect_of_an_S_and_a_T(e8e8):
    # S after T and T after S: the translation moves past the Mobius map
    fam = AutomorphyFamily("char", e8e8)
    rts = roots(e8e8)
    x = ModuliPoint(0.1 + 1.1j, tuple([0.1 + 0.05j] * 16))
    s, t = GroupElement.S(0, -1, 1, 0), GroupElement.T(rts[3], rts[90])
    assert cocycle_defect(fam, s, t, x) < 1e-12
    assert cocycle_defect(fam, t, s, x) < 1e-12


def test_word_factor_follows_cocycle_rule(e8e8):
    fam = AutomorphyFamily("char", e8e8)
    rts = roots(e8e8)
    g = GroupElement.T(rts[0], rts[50])
    h = GroupElement.T(rts[1], rts[60])
    x = ModuliPoint(1.2j, tuple([0.05 + 0.02j] * 16))
    word = GroupElement.word([g, h])
    lhs = factor(fam, word, x)
    rhs = factor(fam, g, act(h, x)) * factor(fam, h, x)
    # |lhs| is about 6e9: compared on cocycle_defect's relative scale
    assert abs(lhs - rhs) / max(abs(lhs), 1.0) < 1e-12


def _nested_act(word, x):
    """A word given as a nested list of generators, acting one generator
    at a time from the right."""
    if not isinstance(word, list):
        return act(word, x)
    for e in reversed(word):
        x = _nested_act(e, x)
    return x


def _nested_factor(family, word, x):
    """The factor of a nested list of generators as a recursion on its head
    and its tail, phi_{gh}(x) = phi_g(hx) phi_h(x), each generator's factor
    taken alone: the reference for a word's factor from its normal form."""
    if not isinstance(word, list):
        return factor(family, word, x)
    if not word:
        return 1.0 + 0j
    head, rest = word[0], word[1:]
    return (_nested_factor(family, head, _nested_act(rest, x))
            * _nested_factor(family, rest, x))


def _element(word):
    """The GroupElement of a nested list of generators."""
    if not isinstance(word, list):
        return word
    return GroupElement.word([_element(e) for e in word])


@pytest.mark.parametrize("name", ["char", "ad", "det_u1"])
def test_word_factor_equals_the_nested_recursion(e8, name):
    rng = np.random.default_rng(31)
    gens = [GroupElement.S(1, 1, 0, 1), GroupElement.S(0, -1, 1, 0)]
    if name == "det_u1":
        fam = AutomorphyFamily(name)
        gens += [GroupElement.T([1], [0]), GroupElement.T([0], [1]),
                 GroupElement.W([[-1]])]
        z = (0.1 + 0.05j,)
    else:
        fam = AutomorphyFamily(name, e8)
        rts = roots(e8)
        gens.append(reflection_element(e8, rts[100]))
        if name == "char":
            # ad's exponent is 30 times char's: its translations overflow
            gens += [GroupElement.T(rts[3], [0] * 8),
                     GroupElement.T(rts[40], rts[7])]
        z = tuple(0.1 * (rng.random(8) - 0.5) + 0.05j * (rng.random(8) - 0.5))
    pool = gens + [[], gens[:2], [gens[-1], gens[1:]]]
    x = ModuliPoint(0.1 + 1.1j, z)
    for n in range(6):
        for _ in range(8):
            word = [pool[i] for i in rng.integers(len(pool), size=n)]
            want = _nested_factor(fam, word, x)
            assert cmath.isfinite(want)
            got = factor(fam, _element(word), x)
            assert abs(got - want) / max(abs(want), 1.0) < 1e-11


def _random_word(rng, gens, n):
    return [gens[i] for i in rng.integers(len(gens), size=n)]


def _mixed_generators(L):
    """S, T and W generators of every shape over L (None: the scalar
    model)."""
    gens = [GroupElement.S(1, 1, 0, 1), GroupElement.S(1, -1, 0, 1),
            GroupElement.S(0, -1, 1, 0)]
    if L is None:
        return gens + [GroupElement.T([1], [0]), GroupElement.T([0], [-1]),
                       GroupElement.W([[-1]])]
    rts = roots(L)
    return gens + [GroupElement.T(rts[3], [0] * L.rank),
                   GroupElement.T([0] * L.rank, rts[40]),
                   GroupElement.T(rts[7], rts[100]),
                   reflection_element(L, rts[100]),
                   reflection_element(L, rts[55])]


def test_the_product_is_associative_and_word_of_nothing_is_the_identity(e8):
    rng = np.random.default_rng(41)
    gens = _mixed_generators(e8)
    one = GroupElement.word([])
    assert one == GroupElement()
    x = ModuliPoint(0.1 + 1.1j, tuple([0.1 + 0.05j] * 8))
    assert act(one, x) == x
    for _ in range(30):
        g, h, k = (GroupElement.word(_random_word(rng, gens,
                                                  int(rng.integers(0, 4))))
                   for _ in range(3))
        assert (g @ h) @ k == g @ (h @ k)
        assert g @ one == g == one @ g
        assert GroupElement.word([g, h, k]) == g @ h @ k


def test_the_product_acts_as_one_element_after_the_other(e8):
    rng = np.random.default_rng(42)
    gens = _mixed_generators(e8)
    z = tuple(0.1 * (rng.random(8) - 0.5) + 0.05j * (rng.random(8) - 0.5))
    x = ModuliPoint(0.1 + 1.1j, z)
    for _ in range(30):
        g, h = (GroupElement.word(_random_word(rng, gens,
                                               int(rng.integers(0, 4))))
                for _ in range(2))
        y1, y2 = act(g @ h, x), act(g, act(h, x))
        assert abs(y1.tau - y2.tau) < 1e-12
        assert max(abs(a - b) for a, b in zip(y1.z, y2.z)) < 1e-12


@pytest.mark.parametrize("name", ["char", "ad", "rho", "det_u1"])
def test_cocycle_defect_of_random_mixed_words(e8, name):
    rng = np.random.default_rng(43)
    L = None if name == "det_u1" else e8
    gens = _mixed_generators(L)
    # ad's exponent is 30 times char's: a word with a few translations
    # has a factor past the float range, generator by generator too, so an
    # ad word holds one translation among its S and W generators
    translations = [g for g in gens if g.t is not None and name == "ad"]
    gens = [g for g in gens if g not in translations]
    fam = AutomorphyFamily(name, L)
    rank = 1 if L is None else L.rank
    z = tuple(0.1 * (rng.random(rank) - 0.5)
              + 0.05j * (rng.random(rank) - 0.5))
    x = ModuliPoint(0.1 + 1.1j, z)
    for _ in range(40):
        n = int(rng.integers(0, 7))
        word = _random_word(rng, gens, n - 1 if translations and n else n)
        if translations and n:
            word.insert(int(rng.integers(0, n)),
                        translations[int(rng.integers(len(translations)))])
        k = int(rng.integers(0, len(word) + 1))
        g, h = GroupElement.word(word[:k]), GroupElement.word(word[k:])
        assert cocycle_defect(fam, g, h, x) < 1e-11


def test_act_group_law(e8e8):
    rng = np.random.default_rng(8)
    rts = roots(e8e8)
    x = ModuliPoint(0.2 + 1.4j, tuple([0.1] * 16))
    elems = [GroupElement.S(1, 1, 0, 1),
             GroupElement.T(rts[8], rts[9]),
             reflection_element(e8e8, rts[77])]
    w = GroupElement.word(elems)
    y1 = act(w, x)
    y2 = act(elems[0], act(elems[1], act(elems[2], x)))
    assert abs(y1.tau - y2.tau) < 1e-12
    assert max(abs(a - b) for a, b in zip(y1.z, y2.z)) < 1e-12


def test_act_s_shift():
    x = ModuliPoint(2j, (0.3,))
    y = act(GroupElement.S(1, 1, 0, 1), x)
    assert y.tau == 2j + 1
    assert y.z == (0.3,)


def test_act_rejects_leaving_domain():
    x = ModuliPoint(0.06j, (0.0,) * 16)
    with pytest.raises(ValueError):
        act(GroupElement.S(0, -1, 1, 17), x)


@pytest.mark.parametrize("tau", [complex(0, math.nan), complex(math.nan, 1),
                                 complex(0, math.inf), complex(math.inf, 1)])
def test_a_non_finite_tau_is_refused(tau):
    # NaN < TAU_MIN is false, so the lower bound alone lets NaN through
    with pytest.raises(ValueError, match="not finite"):
        ModuliPoint(tau, (0.0,))
    with pytest.raises(ValueError, match="not finite"):
        eta(tau)


def test_extra_multiplier_under_tau_shift():
    m = measure_extra_multiplier(GroupElement.S(1, 1, 0, 1))
    # oracle: eta^16 contributes the q-exponent 16/24, so the measured
    # constant is e^{-2 pi i 16/24}
    assert abs(m - cmath.exp(-4j * math.pi / 3)) < 1e-9


def test_extra_multiplier_trivial_on_translations(e8e8):
    rts = roots(e8e8)
    m = measure_extra_multiplier(GroupElement.T(rts[2], rts[8]))
    assert abs(m - 1) < 1e-9


def test_float_gram_and_basis_are_converted_once(e8e8, monkeypatch):
    # the pairings and the theta fast path read floats cached on the
    # lattice: no Fraction is converted per call
    assert np.array_equal(
        e8e8.gram_float,
        [[float(Fraction(int(x), e8e8.gram_den)) for x in row]
         for row in e8e8.gram])
    assert np.array_equal(
        e8e8.basis_float,
        [[float(Fraction(int(x), e8e8.basis_den)) for x in row]
         for row in e8e8.basis])
    rts = roots(e8e8)
    x = ModuliPoint(0.1 + 1.2j, tuple([0.1 + 0.05j] * 16))
    fam = AutomorphyFamily("char", e8e8)
    theta = theta_lattice(e8e8, 1.1j, x.z)    # builds the shared built-in
    calls = []
    to_float = Fraction.__float__
    monkeypatch.setattr(Fraction, "__float__",
                        lambda self: calls.append(1) or to_float(self))
    factor(fam, GroupElement.T(rts[3], rts[90]), x)
    factor(fam, GroupElement.S(0, -1, 1, 0), x)
    assert theta_lattice(e8e8, 1.1j, x.z) == theta
    assert calls == []


def test_every_constructor_builds_an_element_that_acts():
    x = ModuliPoint(0.1 + 1.3j, (0.2j,))
    for g in (GroupElement.S(0, -1, 1, 0), GroupElement.T([1], [0]),
              GroupElement.W([[-1]]), GroupElement.word([])):
        act(g, x)
