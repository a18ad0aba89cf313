import numpy as np
import pytest

from gerbekit import liecs
from gerbekit.suites import random_connection, random_gauge_map


def test_su2_basis_is_anti_hermitian_and_orthonormal():
    basis = liecs.su2_basis()
    for X in basis:
        assert np.allclose(X.conj().T, -X)
    # normalization: tr(X_i X_j) = -delta_ij / 2 for the i/2 Pauli basis
    for i, X in enumerate(basis):
        for j, Y in enumerate(basis):
            expect = -0.5 if i == j else 0.0
            assert abs(np.trace(X @ Y) - expect) < 1e-14


def test_connection_is_algebra_valued():
    # traceless coefficients, and the term at -k is minus the adjoint of the
    # term at k: the form is real and takes values in su(2)
    A = random_connection(np.random.default_rng(0))
    assert A.terms
    for (freq, axes), X in A.terms.items():
        assert abs(np.trace(X)) < 1e-14
        conj = A.terms[tuple(-k for k in freq), axes]
        assert np.max(np.abs(conj + X.conj().T)) < 1e-14


@pytest.mark.parametrize("seed", range(5))
def test_d_cs_equals_ff(seed):
    A = random_connection(np.random.default_rng(seed))
    F = liecs.curvature(A)
    assert (liecs.cs_form(A).d() - liecs.pairing(F, F)).max_abs() < 1e-12


@pytest.mark.parametrize("seed", range(5))
def test_bianchi(seed):
    A = random_connection(np.random.default_rng(10 + seed))
    F = liecs.curvature(A)
    assert (F.d() - liecs.graded_bracket(F, A)).max_abs() < 1e-12


def test_graded_bracket_symmetry_one_forms():
    rng = np.random.default_rng(20)
    A = random_connection(rng)
    B = random_connection(rng)
    # [a, b] = -(-1)^{pq} [b, a]; for two 1-forms, [A,B] = [B,A]
    lhs = liecs.graded_bracket(A, B)
    rhs = liecs.graded_bracket(B, A)
    assert (lhs - rhs).max_abs() < 1e-12


def test_bracket_against_permutation_oracle():
    rng = np.random.default_rng(21)
    A = random_connection(rng)
    B = random_connection(rng)
    br = liecs.graded_bracket(A, B)
    x = rng.random(3)
    vecs = [rng.normal(size=3) for _ in range(2)]
    lhs = br.evaluate(x, vecs)
    rhs = liecs.bracket_oracle_value(A, B, x, vecs)
    assert np.max(np.abs(lhs - rhs)) < 1e-12


@pytest.mark.parametrize("seed", range(4))
def test_maurer_cartan_is_flat(seed):
    t = random_gauge_map(np.random.default_rng(30 + seed))
    theta = t.maurer_cartan()
    defect = theta.d() + 0.5 * liecs.graded_bracket(theta, theta)
    assert defect.max_abs() < 1e-12


@pytest.mark.parametrize("seed", range(4))
def test_gauge_variation_identity(seed):
    rng = np.random.default_rng(40 + seed)
    A = random_connection(rng)
    t = random_gauge_map(rng)
    assert liecs.gauge_variation_defect(A, t) < 1e-12


def test_gauge_transform_curvature_is_conjugated():
    rng = np.random.default_rng(50)
    A = random_connection(rng)
    t = random_gauge_map(rng)
    FA = liecs.curvature(A)
    FB = liecs.curvature(liecs.gauge_transform(A, t))
    x = rng.random(3)
    vecs = [rng.normal(size=3) for _ in range(2)]
    g = t.value(x).conj().T
    lhs = FB.evaluate(x, vecs)
    rhs = g @ FA.evaluate(x, vecs) @ t.value(x)
    assert np.max(np.abs(lhs - rhs)) < 1e-10


def test_cs_of_zero_connection_is_zero():
    Z = liecs.LieValuedForm.zero(3, 1, 2)
    assert liecs.cs_form(Z).is_zero()


def test_nan_coefficient_is_kept_and_propagates():
    X = liecs.su2_basis()[0].copy()
    X[0, 1] = np.nan
    f = liecs.LieValuedForm(3, 1, 2, {((1, 0, 0), (0,)): liecs.su2_basis()[1],
                                      ((0, 1, 0), (2,)): X})
    assert len(f.terms) == 2
    assert np.isnan(f.max_abs())
    assert not f.max_abs() <= 1.0


def test_lie_sum_rejects_mismatched_forms():
    A = random_connection(np.random.default_rng(0))
    F = liecs.curvature(A)
    with pytest.raises(ValueError, match="mismatch"):
        A + F
    with pytest.raises(ValueError, match="mismatch"):
        A + liecs.LieValuedForm.zero(3, 1, 3)
    with pytest.raises(ValueError, match="mismatch"):
        A + liecs.LieValuedForm.zero(2, 1, 2)


@pytest.mark.parametrize("freq, axes, message", [
    ((1, 0), (0,), "frequency length"),
    ((1, 0, 0), (3,), "axis out of range"),
    ((1, 0, 0), (0, 1), "axes length"),
    ((1.5, 0, 0), (0,), "must be integers"),
    ((1, 0, 0), (0.7,), "must be integers"),
    ((0, 0, 0), (1, 0), "strictly increasing"),
    ((1, 0, 0), (0, 0), "strictly increasing"),
    ((1, 0, 2), (2, 0, 1), "strictly increasing"),
])
def test_lie_form_rejects_malformed_keys(freq, axes, message):
    # the same key rule as TrigForm's: nothing is truncated or sorted.  Each
    # key is offered at the degree of its axes, but the one with too many
    # axes for a 1-form
    degree = 1 if message == "axes length" else len(axes)
    with pytest.raises(ValueError, match=message):
        liecs.LieValuedForm(3, degree, 2,
                            {(freq, axes): liecs.su2_basis()[0]})


def test_conjugation_rejects_a_form_on_another_torus():
    # the conjugation kernel trusts its keys, so the gauge map checks the
    # form's torus before any frequency is shifted
    t = random_gauge_map(np.random.default_rng(0))
    form = liecs.LieValuedForm(2, 1, 2, {((1, 0), (0,)): liecs.su2_basis()[0]})
    with pytest.raises(ValueError, match="mismatch"):
        t.conjugate(form)


@pytest.mark.parametrize("seed", range(40))
def test_precomputed_forms_leave_the_gauge_variation_bit_for_bit(seed):
    # the suite hands over CS(A), theta and [theta, theta]; given all three,
    # and given the one of their eight subsets that the seed picks, the
    # defect must read the bits of the call that computes them itself
    rng = np.random.default_rng(seed)
    A = random_connection(rng)
    t = random_gauge_map(rng)
    theta = t.maurer_cartan()
    given = {"cs_A": liecs.cs_form(A), "theta": theta,
             "theta_bracket": liecs.graded_bracket(theta, theta)}
    subset = {k: v for i, (k, v) in enumerate(given.items())
              if seed >> i & 1}
    want = liecs.gauge_variation_defect(A, t).hex()
    assert liecs.gauge_variation_defect(A, t, **given).hex() == want
    assert liecs.gauge_variation_defect(A, t, **subset).hex() == want


def test_precomputed_forms_keep_a_nan_defect():
    rng = np.random.default_rng(7)
    A = random_connection(rng)
    t = random_gauge_map(rng)
    terms = dict(A.terms)
    key = next(iter(terms))
    terms[key] = terms[key] + np.array([[0, np.nan], [0, 0]])
    A = liecs.LieValuedForm(3, 1, 2, terms)
    theta = t.maurer_cartan()
    given = liecs.gauge_variation_defect(
        A, t, cs_A=liecs.cs_form(A), theta=theta,
        theta_bracket=liecs.graded_bracket(theta, theta))
    assert given.hex() == liecs.gauge_variation_defect(A, t).hex() == "nan"


def test_a_chernsimons_trial_builds_each_form_once(monkeypatch):
    # per trial: CS(A) once for d_cs_equals_ff and the gauge variation and
    # once for CS(psi*A); theta and [theta, theta] once for the gauge
    # variation and mc_flat; ten wedge kernels, as <F, F> is a 4-form on
    # T^3 and builds none
    from gerbekit import suites
    calls = dict.fromkeys(("cs_form", "maurer_cartan", "graded_bracket",
                           "pairing", "_wedge_terms"), 0)

    def counted(owner, name):
        fn = getattr(owner, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        monkeypatch.setattr(owner, name, wrapper)

    for name in ("cs_form", "graded_bracket", "pairing", "_wedge_terms"):
        counted(liecs, name)
    counted(liecs.GaugeMap, "maurer_cartan")
    trials = 5
    suites.suite_chernsimons(trials, 3)
    assert {k: v / trials for k, v in calls.items()} == {
        "cs_form": 2, "maurer_cartan": 1, "graded_bracket": 6, "pairing": 5,
        "_wedge_terms": 10}
