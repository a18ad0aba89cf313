import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from gerbekit import liecs
from gerbekit.suites import _ad_exp, random_connection, random_gauge_map

BASIS = liecs.su2_basis()


def matrix(x):
    """The 2 x 2 matrix sum_a x_a e_a of a coefficient vector."""
    return sum(c * e for c, e in zip(x, BASIS))


def su2_exp(theta):
    """exp(theta . e) = cos(r/2) 1 + (2 sin(r/2) / r) theta . e, r = |theta|."""
    r = float(np.linalg.norm(theta))
    return math.cos(r / 2) * np.eye(2) + (2 * math.sin(r / 2) / r) * matrix(theta)


def adjoint(U):
    """Ad(U) read off the matrices: U e_a U^dagger = sum_b Ad[b, a] e_b,
    the coefficient of e_b being -2 tr(e_b M)."""
    return np.array([[(-2 * np.trace(eb @ U @ ea @ U.conj().T)).real
                      for ea in BASIS] for eb in BASIS])


def test_su2_basis_is_anti_hermitian_and_orthonormal():
    basis = liecs.su2_basis()
    for X in basis:
        assert np.allclose(X.conj().T, -X)
    # normalization: tr(X_i X_j) = -delta_ij / 2 for the i/2 Pauli basis
    for i, X in enumerate(basis):
        for j, Y in enumerate(basis):
            expect = -0.5 if i == j else 0.0
            assert abs(np.trace(X @ Y) - expect) < 1e-14


def test_su2_basis_brackets_by_minus_epsilon_and_pairs_by_half_delta():
    # [e_a, e_b] = -eps_abc e_c and -tr(e_a e_b) = delta_ab / 2, the two
    # facts the 3-vector kernels are built on, read off the matrices
    for ea, eb, ec in [(0, 1, 2), (1, 2, 0), (2, 0, 1)]:
        X, Y = BASIS[ea], BASIS[eb]
        assert np.max(np.abs(X @ Y - Y @ X + BASIS[ec])) < 1e-15
    for a, X in enumerate(BASIS):
        for b, Y in enumerate(BASIS):
            assert -np.trace(X @ Y) == (0.5 if a == b else 0.0)


def test_the_vector_kernels_are_the_matrix_bracket_and_pairing():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(50, 3)) + 1j * rng.normal(size=(50, 3))
    y = rng.normal(size=(50, 3)) + 1j * rng.normal(size=(50, 3))
    for u, v, br, pair in zip(x, y, liecs._bracket(x, y),
                              liecs._pairing(x, y)):
        X, Y = matrix(u), matrix(v)
        assert np.max(np.abs(matrix(br) - (X @ Y - Y @ X))) < 1e-14
        assert abs(pair + np.trace(X @ Y)) < 1e-14


def test_connection_is_algebra_valued():
    # 3-vector coefficients, and the term at -k is the conjugate of the
    # term at k: the form is real and takes values in su(2)
    A = random_connection(np.random.default_rng(0))
    assert A.terms
    for (freq, axes), x in A.terms.items():
        assert x.shape == (3,)
        conj = A.terms[tuple(-k for k in freq), axes]
        assert np.max(np.abs(conj - x.conj())) < 1e-14
        X = matrix(x)
        assert abs(np.trace(X)) < 1e-14
        assert np.max(np.abs(matrix(conj) + X.conj().T)) < 1e-14


@pytest.mark.parametrize("seed", range(5))
def test_the_rotation_of_the_draws_is_the_adjoint_of_the_exponential(seed):
    # Ad(exp(theta . e)) is the rotation by -|theta| about theta: Rodrigues
    # in the suites, the matrices of the closed-form exponential here
    theta = np.random.default_rng(seed).normal(size=3)
    R = np.array(_ad_exp(theta.tolist()))
    U = su2_exp(theta)
    assert np.max(np.abs(U @ U.conj().T - np.eye(2))) < 1e-15
    assert np.max(np.abs(R - adjoint(U))) < 1e-14
    assert np.max(np.abs(R @ R.T - np.eye(3))) < 1e-14
    assert abs(np.linalg.det(R) - 1) < 1e-14
    assert np.max(np.abs(R @ theta - theta)) < 1e-14


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
    lhs = FB.evaluate(x, vecs)
    rhs = np.linalg.inv(ad_value(t, x)) @ FA.evaluate(x, vecs)
    assert np.max(np.abs(lhs - rhs)) < 1e-10


def ad_value(t, x):
    """Ad(t(x)) = Ad(f_1(x)) Ad(f_2(x)) ..., each Ad(f(x)) being
    Ad(U) Ad(D) Ad(U)^T, Ad(D) read off the matrix
    D = diag(e^{iw m.x}, e^{-iw m.x})."""
    out = np.eye(3)
    for f in t.factors:
        phase = float(np.dot(f.freq, x))
        D = np.diag([np.exp(1j * f.w * phase), np.exp(-1j * f.w * phase)])
        out = out @ f.ad @ adjoint(D) @ f.ad.T
    return out


def test_gauge_transform_curvature_is_conjugated_as_matrices():
    # the same law on the 2 x 2 matrices themselves: t^{-1} F_A t with t(x)
    # multiplied out from closed-form exponentials
    rng = np.random.default_rng(51)
    A = random_connection(rng)
    factors, Us = [], []
    for w, freq in ((1, (1, 0, -1)), (2, (0, 1, 1))):
        theta = rng.normal(size=3)
        Us.append((su2_exp(theta), w, freq))
        factors.append(liecs.GaugeFactor(adjoint(su2_exp(theta)), w, freq))
    t = liecs.GaugeMap(factors)
    x = rng.random(3)
    vecs = [rng.normal(size=3) for _ in range(2)]
    tx = np.eye(2)
    for U, w, freq in Us:
        phase = float(np.dot(freq, x))
        D = np.diag([np.exp(1j * w * phase), np.exp(-1j * w * phase)])
        tx = tx @ U @ D @ U.conj().T
    FA = matrix(liecs.curvature(A).evaluate(x, vecs))
    FB = matrix(liecs.curvature(liecs.gauge_transform(A, t)).evaluate(x, vecs))
    assert np.max(np.abs(FB - np.linalg.inv(tx) @ FA @ tx)) < 1e-10


def test_cs_of_zero_connection_is_zero():
    Z = liecs.LieValuedForm.zero(3, 1)
    assert liecs.cs_form(Z).is_zero()


def test_nan_coefficient_is_kept_and_propagates():
    f = liecs.LieValuedForm(3, 1, {((1, 0, 0), (0,)): [0, 1, 0],
                                   ((0, 1, 0), (2,)): [1, np.nan, 0]})
    assert len(f.terms) == 2
    assert np.isnan(f.max_abs())
    assert not f.max_abs() <= 1.0


def test_lie_sum_rejects_mismatched_forms():
    A = random_connection(np.random.default_rng(0))
    F = liecs.curvature(A)
    with pytest.raises(ValueError, match="mismatch"):
        A + F
    with pytest.raises(ValueError, match="mismatch"):
        A + liecs.LieValuedForm.zero(2, 1)


@pytest.mark.parametrize("coefficient", [np.eye(2), [1, 0], [1, 0, 0, 0]])
def test_lie_form_rejects_a_coefficient_that_is_not_a_3_vector(coefficient):
    with pytest.raises(ValueError, match="3-vector"):
        liecs.LieValuedForm(3, 1, {((1, 0, 0), (0,)): coefficient})


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
        liecs.LieValuedForm(3, degree, {(freq, axes): [1, 0, 0]})


def test_conjugation_rejects_a_form_on_another_torus():
    # the conjugation kernel trusts its keys, so the gauge map checks the
    # form's torus before any frequency is shifted
    t = random_gauge_map(np.random.default_rng(0))
    form = liecs.LieValuedForm(2, 1, {((1, 0), (0,)): [1, 0, 0]})
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
    terms[key] = terms[key] + np.array([0, np.nan, 0])
    A = liecs.LieValuedForm(3, 1, terms)
    theta = t.maurer_cartan()
    given = liecs.gauge_variation_defect(
        A, t, cs_A=liecs.cs_form(A), theta=theta,
        theta_bracket=liecs.graded_bracket(theta, theta))
    assert given.hex() == liecs.gauge_variation_defect(A, t).hex() == "nan"


def test_a_chernsimons_trial_builds_each_form_once(monkeypatch):
    # per trial: CS(A) once for d_cs_equals_ff and the gauge variation and
    # once for CS(psi*A); [A, A] once for F and CS(A); theta and
    # [theta, theta] once for the gauge variation and mc_flat; nine wedge
    # kernels, as <F, F> is a 4-form on T^3 and builds none
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
    # on one CPU: a forked child's calls would not be counted here
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    trials = 5
    suites.suite_chernsimons(trials, 3)
    assert {k: v / trials for k, v in calls.items()} == {
        "cs_form": 2, "maurer_cartan": 1, "graded_bracket": 5, "pairing": 5,
        "_wedge_terms": 9}


# each setting forces one BLAS core type or numpy's SIMD baseline on its
# own process; the chernsimons and lattice reports must not move with any
# of them
KERNEL_SETTINGS = {
    "default": {},
    "haswell": {"OPENBLAS_CORETYPE": "Haswell"},
    "prescott": {"OPENBLAS_CORETYPE": "Prescott"},
    "x86-v2": {"NPY_DISABLE_CPU_FEATURES":
               "X86_V3 X86_V4 AVX512_ICL AVX512_SPR"},
}
REPORTS = """
import json
from gerbekit.cli import run_suite
for trials, seed in [(6, 0), (6, 1), (20, 2)] + [(20, s) for s in range(40)]:
    print(json.dumps(run_suite("chernsimons", trials, seed, 1e-8)))
"""
# the two pinned lattice reports, then the 112 images of the coroots
LATTICE_REPORTS = """
import json
from gerbekit.cli import run_suite
from gerbekit.lattice import spin16_embedding, spin16_first_series
for seed in (0, 1):
    print(json.dumps(run_suite("lattice", 1, seed, 1e-8), indent=1))
print(json.dumps([spin16_embedding(v) for v in spin16_first_series()]))
"""


def _under_each_kernel(script):
    """The stdout of script under each of KERNEL_SETTINGS, the four
    processes run side by side."""
    src = str(Path(liecs.__file__).resolve().parent.parent)
    env = {k: v for k, v in os.environ.items()
           if k not in ("OPENBLAS_CORETYPE", "NPY_DISABLE_CPU_FEATURES")}
    env["PYTHONPATH"] = src
    procs = {name: subprocess.Popen(
                 [sys.executable, "-c", script], env={**env, **extra},
                 stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
             for name, extra in KERNEL_SETTINGS.items()}
    out = {}
    for name, proc in procs.items():
        stdout, stderr = proc.communicate(timeout=120)
        assert proc.returncode == 0, stderr
        out[name] = stdout
    return out


def test_chernsimons_reports_do_not_depend_on_the_cpu_kernels():
    # the three pinned shapes and seeds 0-39 at 20 trials
    out = _under_each_kernel(REPORTS)
    assert len(out["default"].splitlines()) == 43
    for name in KERNEL_SETTINGS:
        assert out[name] == out["default"], name


def test_lattice_reports_do_not_depend_on_the_cpu_kernels():
    out = _under_each_kernel(LATTICE_REPORTS)
    assert len(json.loads(out["default"].splitlines()[-1])) == 112
    for name in KERNEL_SETTINGS:
        assert out[name] == out["default"], name
