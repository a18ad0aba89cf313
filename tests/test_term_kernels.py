"""The term kernels build their outputs without re-validating them, so every
output must already be in the normal form the public constructor produces:
int-tuple keys of the right shape, Python complex values, no exact zeros.
"""

import cmath
import math
import operator
import struct
from itertools import combinations, product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gerbekit import liecs, trigform
from gerbekit.covers import (make_circle_decomposition,
                             make_torus_hex_decomposition)
from gerbekit.fiberint import integrate_fiber_cell
from gerbekit.suites import _ad_exp, random_connection, random_gauge_map
from gerbekit.trigform import TrigForm, _integrate_monomial

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



def binary_chain(total, pairs):
    """total + t1 - t2 + ... as a chain of binary sums, a difference taken as
    the sum with (-1.0) * term."""
    for odd, term in pairs:
        total = total + ((-1.0) * term if odd else term)
    return total


def bits(form):
    """The terms in order, each value by its repr: a NaN equals itself and
    the sign of a zero part counts."""
    return [(k, repr(c)) for k, c in form.terms.items()]


def test_signed_sum_is_the_chain_of_binary_sums():
    A, B, C, D = (((f,), ()) for f in (1, 0, -1, 2))
    pairs = [(0, TrigForm(1, 0, {A: 1.5, B: 2.0})),
             # A cancels to exactly 0; C, odd and infinite, reads -1.0 * c
             (1, TrigForm(1, 0, {A: 1.5, C: complex(math.inf, 1.0)})),
             (0, TrigForm(1, 0, {B: 0.25, D: complex(math.nan, 0.0)})),
             # A comes back, after the keys that stayed
             (0, TrigForm(1, 0, {A: 3.0}))]
    got = trigform.signed_sum(TrigForm.zero(1, 0), pairs)
    assert bits(got) == bits(binary_chain(TrigForm.zero(1, 0), pairs))
    assert list(got.terms) == [B, C, D, A]
    assert repr(got.terms[C]) == repr(complex(-math.inf, math.nan))
    a, b = pairs[0][1], pairs[1][1]
    assert bits(a - b) == bits(a + (-1.0) * b)


@KERNEL_SETTINGS
@given(st.integers(1, 3).flatmap(lambda amb: st.integers(0, amb).flatmap(
    lambda deg: st.lists(st.tuples(st.integers(0, 1), forms(amb, deg)),
                         max_size=5).map(lambda ps: (amb, deg, ps)))))
def test_random_signed_sums_are_chains_of_binary_sums(data):
    amb, deg, pairs = data
    zero = TrigForm.zero(amb, deg)
    assert bits(trigform.signed_sum(zero, pairs)) == bits(
        binary_chain(zero, pairs))


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
    n_base = data.draw(st.integers(0, amb - 1))
    out = data.draw(forms(amb, deg)).fiber_integrate_global(n_base)
    assert_normal_form(out)


SEGMENTS = list(make_circle_decomposition(5).faces[1].values())
POINTS = list(make_circle_decomposition(5).faces[2].values())
HEXES = list(make_torus_hex_decomposition(3).faces[1].values())
HEX_EDGES = list(make_torus_hex_decomposition(3).faces[2].values())
HEX_POINTS = list(make_torus_hex_decomposition(3).faces[3].values())


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


def fiber_cell_reference(form: TrigForm, cell, n_base: int) -> TrigForm:
    """integrate_fiber_cell term by term, each term's axes split inline."""
    out = {}
    for (freq, axes), c in form.terms.items():
        fib = tuple(a - n_base for a in axes if a >= n_base)
        if len(fib) != cell.dim:
            continue
        val = cell.integral(freq[n_base:], fib)
        if val == 0.0:
            continue
        key = (freq[:n_base], tuple(a for a in axes if a < n_base))
        out[key] = out.get(key, 0.0) + c * val
    return TrigForm._trusted(n_base, max(form.degree - cell.dim, 0), out)


@KERNEL_SETTINGS
@given(st.data())
def test_fiber_cell_integral_matches_the_per_term_reference(data):
    # degrees below the cell's dimension give forms with no term to integrate
    fiber_dim = data.draw(st.integers(1, 2))
    cells = ((SEGMENTS + POINTS) if fiber_dim == 1
             else (HEXES + HEX_EDGES + HEX_POINTS))
    cell = data.draw(st.sampled_from(cells))
    n_base = data.draw(st.integers(1, 2))
    amb = n_base + fiber_dim
    form = data.draw(forms(amb, data.draw(
        st.integers(0, min(amb, n_base + cell.dim)))))
    got = integrate_fiber_cell(form, cell, n_base)
    want = fiber_cell_reference(form, cell, n_base)
    assert (got.ambient_dim, got.degree) == (want.ambient_dim, want.degree)
    assert repr(list(got.terms.items())) == repr(list(want.terms.items()))


@st.composite
def lie_forms(draw, deg):
    pool = list(combinations(range(3), deg))
    terms = {}
    for _ in range(draw(st.integers(0, 3))):
        freq = tuple(draw(st.integers(-1, 1)) for _ in range(3))
        axes = pool[draw(st.integers(0, len(pool) - 1))]
        terms[(freq, axes)] = [draw(st.floats(-2, 2)) for _ in range(3)]
    return liecs.LieValuedForm(3, deg, terms)


@KERNEL_SETTINGS
@given(st.data())
def test_pairing_is_normal(data):
    p = data.draw(st.integers(0, 3))
    q = data.draw(st.integers(0, 3 - p))
    a = data.draw(lie_forms(p))
    b = data.draw(lie_forms(q))
    assert_normal_form(liecs.pairing(a, b))


def test_fiber_cell_integral_rejects_a_base_too_small_for_the_result():
    f = TrigForm.monomial(3, (0, 0, 1), (0, 1, 2), 1.0)
    with pytest.raises(ValueError, match="no form on the base"):
        integrate_fiber_cell(f, POINTS[0], 2)
    with pytest.raises(ValueError, match="no form on the base"):
        integrate_fiber_cell(f, SEGMENTS[0], 4)


def assert_lie_normal_form(out: liecs.LieValuedForm):
    ref = liecs.LieValuedForm(out.ambient_dim, out.degree, out.terms)
    assert list(out.terms) == list(ref.terms)
    for k, X in out.terms.items():
        assert X.dtype == complex and X.shape == (3,)
        assert np.array_equal(X, ref.terms[k], equal_nan=True)


@KERNEL_SETTINGS
@given(st.data())
def test_lie_kernels_are_normal(data):
    p = data.draw(st.integers(0, 3))
    q = data.draw(st.integers(0, 3 - p))
    a, a2 = data.draw(lie_forms(p)), data.draw(lie_forms(p))
    b = data.draw(lie_forms(q))
    s = data.draw(st.one_of(st.floats(-2, 2), st.floats(-2, 2).map(np.float64),
                            st.integers(-2, 2)))
    for out in (a.d(), liecs.graded_bracket(a, b), a + a2, a - a, s * a,
                a * s):
        assert_lie_normal_form(out)
    assert (a - a).terms == {}


def test_lie_kernels_keep_a_nan_coefficient():
    f = liecs.LieValuedForm(3, 1, {((1, 0, 0), (1,)): [1, np.nan, 0]})
    g = liecs.LieValuedForm(3, 1, {((0, 1, 0), (2,)): [0, 1, 0]})
    for out in (f.d(), f + g, 0.5 * f, liecs.graded_bracket(f, g)):
        assert np.isnan(out.max_abs())


def test_lie_kernels_skip_the_validating_constructor(monkeypatch):
    # d, the bracket, + and * build trusted results: no __init__ calls
    a = liecs.LieValuedForm(3, 1, {((1, 0, 0), (1,)): [1, 0, 0],
                                   ((0, 1, 1), (0,)): [0, 0, 1]})
    calls = []
    init = liecs.LieValuedForm.__init__
    monkeypatch.setattr(liecs.LieValuedForm, "__init__",
                        lambda self, *args, **kw: calls.append(1)
                        or init(self, *args, **kw))
    out = a.d() + 0.5 * liecs.graded_bracket(a, a) - a.d() * 2.0
    assert out.terms and calls == []


def test_gauge_kernels_skip_the_validating_constructor(monkeypatch):
    # conjugation by a gauge map and its Maurer-Cartan form build trusted
    # results too: only the connection itself is checked
    A = random_connection(np.random.default_rng(0))
    t = random_gauge_map(np.random.default_rng(1))
    calls = []
    init = liecs.LieValuedForm.__init__
    monkeypatch.setattr(liecs.LieValuedForm, "__init__",
                        lambda self, *args, **kw: calls.append(1)
                        or init(self, *args, **kw))
    assert liecs.gauge_transform(A, t).terms and calls == []


def wedge_reference(left, right, times):
    """The wedge kernel as a loop over pairs of terms (left outer, right
    inner), each pair's times(sign * c1, c2) added to its key's running sum
    from 0.0, keys in order of first appearance.  A vector product is an
    object array of Python complex numbers, so its sums are Python's."""
    out = {}
    for (f1, a1), c1 in left.items():
        for (f2, a2), c2 in right.items():
            ss = trigform._axes_sign(a1 + a2)
            if ss is None:
                continue
            axes, sign = ss
            key = (tuple(x + y for x, y in zip(f1, f2)), axes)
            out[key] = out.get(key, 0.0) + times(sign * c1, c2)
    return out


def coefficient_bytes(terms, nan_sign=True):
    """Each term's key, the type and shape of its value and the bytes of
    its entries: the sign of a zero counts, and with nan_sign so do a
    NaN's sign and payload; without it every NaN part reads as one NaN."""
    out = []
    for k, c in terms.items():
        x = np.array(c, dtype=complex)
        if not nan_sign:
            parts = x.reshape(-1).view(float)
            parts[np.isnan(parts)] = math.nan
        out.append((k, type(c).__name__, np.shape(c), x.tobytes()))
    return out


# every part is drawn from finite values and from both NaNs, both
# infinities, both zeros and a value whose products overflow
SPECIAL_PARTS = [math.nan, -math.nan, math.inf, -math.inf, 0.0, -0.0, 1e300]
parts = st.one_of(st.floats(-1e3, 1e3), st.sampled_from(SPECIAL_PARTS))
special_coefficients = st.builds(complex, parts, parts)


special_vectors = st.lists(special_coefficients, min_size=3,
                           max_size=3).map(lambda xs: np.array(xs))


@st.composite
def oracle_pairs(draw, coefficients, frequencies=st.integers(-1, 1)):
    """Two term sets on T^n of degrees p + q <= n, each of 0 to 5 terms,
    with frequencies from a small set (by default [-1, 1]) so that keys
    collide; one time in three every term on both sides holds one shared
    axis, so no pair survives."""
    amb = draw(st.integers(1, 3))
    p = draw(st.integers(0, amb))
    q = draw(st.integers(0, amb - p))
    pools = [list(combinations(range(amb), deg)) for deg in (p, q)]
    if p and q and draw(st.integers(0, 2)) == 0:
        shared = draw(st.integers(0, amb - 1))
        pools = [[a for a in pool if shared in a] for pool in pools]
    sides = []
    for pool in pools:
        terms = {}
        for _ in range(draw(st.integers(0, 5))):
            freq = tuple(draw(frequencies) for _ in range(amb))
            terms[freq, draw(st.sampled_from(pool))] = draw(coefficients)
        sides.append(terms)
    return amb, p, q, sides


ORACLE_SETTINGS = settings(max_examples=150, deadline=None)


@ORACLE_SETTINGS
@given(oracle_pairs(special_coefficients))
def test_wedge_matches_the_per_pair_reference_bit_for_bit(data):
    amb, p, q, (left, right) = data
    a, b = TrigForm(amb, p, left), TrigForm(amb, q, right)
    with np.errstate(all="ignore"):
        got = a.wedge(b)
        want = TrigForm._trusted(amb, p + q, wedge_reference(
            a.terms, b.terms, operator.mul))
    # numpy's loops fix neither a NaN's sign nor its payload
    assert coefficient_bytes(got.terms, nan_sign=False) == \
        coefficient_bytes(want.terms, nan_sign=False)


def product_parts(x, y):
    """The float parts of x * y for two complex numbers, each product,
    sum and difference one Python float operation."""
    return (x.real * y.real - x.imag * y.imag,
            x.real * y.imag + x.imag * y.real)


def bracket_reference(x, y):
    """[x, y] for one pair of 3-vectors in Python floats: component c is
    x_b y_a - x_a y_b for (a, b, c) cyclic."""
    x, y = x.tolist(), y.tolist()
    out = []
    for a, b in ((1, 2), (2, 0), (0, 1)):
        (p_re, p_im), (q_re, q_im) = (product_parts(x[b], y[a]),
                                      product_parts(x[a], y[b]))
        out.append(complex(p_re - q_re, p_im - q_im))
    return np.array(out, dtype=object)


def pairing_reference(x, y):
    """(x . y) / 2 for one pair of 3-vectors in Python floats, summed in
    axis order."""
    (r0, i0), (r1, i1), (r2, i2) = map(product_parts, x.tolist(), y.tolist())
    return complex(0.5 * (r0 + r1 + r2), 0.5 * (i0 + i1 + i2))


def check_lie_kernels_against_the_reference(data):
    amb, p, q, (left, right) = data
    a = liecs.LieValuedForm(amb, p, left)
    b = liecs.LieValuedForm(amb, q, right)
    with np.errstate(all="ignore"):
        got = [liecs.graded_bracket(a, b), liecs.pairing(a, b)]
        want = [liecs.LieValuedForm._trusted(amb, p + q, {
                    k: np.array(v, dtype=complex) for k, v in wedge_reference(
                        a.terms, b.terms, bracket_reference).items()}),
                TrigForm._trusted(amb, p + q, wedge_reference(
                    a.terms, b.terms, pairing_reference))]
    for g, w in zip(got, want):
        assert coefficient_bytes(g.terms, nan_sign=False) == \
            coefficient_bytes(w.terms, nan_sign=False)


@ORACLE_SETTINGS
@given(oracle_pairs(special_vectors))
def test_lie_kernels_match_the_per_pair_reference_bit_for_bit(data):
    # every bit but a NaN's sign and payload: of two NaN operands, numpy's
    # loops and Python's float operations each keep either one, by the
    # code path (size, stride, alignment) the operation takes, so those
    # bits may even differ between two runs of one example
    check_lie_kernels_against_the_reference(data)


def conjugate_reference(form, f):
    """f^{-1} (form) f term by term in Python floats: y = R^T x, R = Ad(U),
    split into y_3 e_3 at frequency k, b (1, i, 0) at k - 2w m and
    a (1, -i, 0) at k + 2w m, b = (y_1 - i y_2) / 2, a = (y_1 + i y_2) / 2;
    a part whose y_3, b or a is 0.0 is skipped, the others rotated back one
    vector at a time and built through the validating constructor."""
    R = f.ad.tolist()
    out = {}
    for (freq, axes), x in form.terms.items():
        x = x.tolist()
        y = [(R[0][c] * x[0].real + R[1][c] * x[1].real + R[2][c] * x[2].real,
              R[0][c] * x[0].imag + R[1][c] * x[1].imag + R[2][c] * x[2].imag)
             for c in range(3)]
        (y1re, y1im), (y2re, y2im), y3 = y
        b = complex(0.5 * (y1re + y2im), 0.5 * (y1im - y2re))
        a = complex(0.5 * (y1re - y2im), 0.5 * (y1im + y2re))
        parts = [(0, complex(*y3), [complex(R[c][2] * y3[0], R[c][2] * y3[1])
                                    for c in range(3)]),
                 (-2 * f.w, b, [complex(*product_parts(
                     b, complex(R[c][0], R[c][1]))) for c in range(3)]),
                 (2 * f.w, a, [complex(*product_parts(
                     a, complex(R[c][0], -R[c][1]))) for c in range(3)])]
        for shift, part, add in parts:
            if part == 0:
                continue
            key = (tuple(k + shift * mf for k, mf in zip(freq, f.freq)), axes)
            out[key] = [u + v for u, v in zip(out[key], add)] \
                if key in out else add
    return liecs.LieValuedForm(form.ambient_dim, form.degree,
                               {k: np.array(v) for k, v in out.items()})


def factor_mc_reference(f, ambient_dim):
    """f^{-1} df = 2 w Ad(U) e_3 (m . dx), built term by term through the
    validating constructor."""
    terms = {}
    zero = (0,) * ambient_dim
    for a, ma in enumerate(f.freq):
        if ma:
            terms[(zero, (a,))] = [2 * f.w * ma * float(r) for r in f.ad[:, 2]]
    return liecs.LieValuedForm(ambient_dim, 1, terms)


@st.composite
def conjugation_cases(draw):
    """An su(2)-valued form on T^n of 0 to 6 terms with special
    coefficients, and a gauge factor of weight w in [-2, 2] whose Ad(U) is
    the identity or the rotation of a random exp(theta . e)."""
    w = draw(st.integers(-2, 2))
    amb = draw(st.integers(1, 3))
    deg = draw(st.integers(0, amb))
    pool = list(combinations(range(amb), deg))
    terms = {}
    for _ in range(draw(st.integers(0, 6))):
        freq = tuple(draw(st.integers(-1, 1)) for _ in range(amb))
        terms[freq, draw(st.sampled_from(pool))] = draw(special_vectors)
    seed = draw(st.none() | st.integers(0, 2 ** 32 - 1))
    if seed is None:
        ad = np.eye(3)
    else:
        ad = _ad_exp(np.random.default_rng(seed).normal(size=3).tolist())
    freq = tuple(draw(st.integers(-2, 2)) for _ in range(amb))
    return (liecs.LieValuedForm(amb, deg, terms),
            liecs.GaugeFactor(ad, w, freq))


@ORACLE_SETTINGS
@given(conjugation_cases())
def test_gauge_factor_kernels_match_the_per_entry_reference(case):
    form, f = case
    with np.errstate(all="ignore"):
        got = [liecs._conjugate_by_factor(form, f),
               liecs._factor_mc(f, form.ambient_dim)]
        want = [conjugate_reference(form, f),
                factor_mc_reference(f, form.ambient_dim)]
    for g, w in zip(got, want):
        assert (g.ambient_dim, g.degree) == (w.ambient_dim, w.degree)
        assert coefficient_bytes(g.terms, nan_sign=False) == \
            coefficient_bytes(w.terms, nan_sign=False)


def test_conjugation_keeps_a_nan_part_and_drops_a_zero_one():
    # Ad(U) = 1, w = 1: the e_3 part of y = x stays at frequency k, the
    # parts b and a move to k - 2m and k + 2m.  In the first x, y_1 and y_2
    # come out -0.0 + -0.0i, so b and a are zeros (with -0.0 parts) and
    # drop; in the second a NaN spreads through the products, so every
    # part is kept
    f = liecs.GaugeFactor(np.eye(3), 1, (1,))
    z = complex(-0.0, -0.0)
    for x, keys in [([z, z, -1], [(0,)]),
                    ([np.nan, 0, 1], [(0,), (-2,), (2,)])]:
        form = liecs.LieValuedForm(1, 0, {((0,), ()): x})
        got = liecs._conjugate_by_factor(form, f)
        assert list(got.terms) == [(k, ()) for k in keys]
        assert coefficient_bytes(got.terms, nan_sign=False) == \
            coefficient_bytes(conjugate_reference(form, f).terms,
                              nan_sign=False)


# frequencies whose sums need 42 bits: on T^2 and T^3 a pair's key, its
# axes id and frequency sum, holds more than 63 bits
WIDE = st.sampled_from([-2 ** 40 - 1, -2 ** 40, 0, 1, 2 ** 40])


@KERNEL_SETTINGS
@given(oracle_pairs(special_coefficients, WIDE))
def test_wedge_of_wide_frequencies_matches_the_reference_bit_for_bit(data):
    amb, p, q, (left, right) = data
    a, b = TrigForm(amb, p, left), TrigForm(amb, q, right)
    with np.errstate(all="ignore"):
        got = a.wedge(b)
        want = TrigForm._trusted(amb, p + q, wedge_reference(
            a.terms, b.terms, operator.mul))
    # numpy's loops fix neither a NaN's sign nor its payload
    assert coefficient_bytes(got.terms, nan_sign=False) == \
        coefficient_bytes(want.terms, nan_sign=False)


@KERNEL_SETTINGS
@given(oracle_pairs(special_vectors, WIDE))
def test_lie_kernels_of_wide_frequencies_match_the_reference(data):
    check_lie_kernels_against_the_reference(data)


def test_wide_frequencies_sharing_a_key_sum_as_the_reference():
    # 11 pairs survive on 10 keys; a left dx_2 before a right dx_1 gives -1
    big = 2 ** 40
    left = {((big, 0, 0), (0,)): 1.0, ((0, 0, 0), (0,)): 2.0,
            ((0, 0, big), (2,)): 1j}
    right = {((0, 0, -big), (1,)): 3.0, ((big, 0, -big), (1,)): -1.25,
             ((big, 0, 0), (1,)): 0.25, ((0, 0, big), (2,)): 1 - 1j}
    a, b = TrigForm(3, 1, left), TrigForm(3, 1, right)
    got = a.wedge(b)
    want = wedge_reference(a.terms, b.terms, operator.mul)
    assert len(got.terms) < sum(not set(a1) & set(a2) for _, a1 in left
                                for _, a2 in right) == 11
    assert coefficient_bytes(got.terms) == coefficient_bytes(
        TrigForm._trusted(3, 2, want).terms)


def test_wedge_on_the_torus_of_no_dimensions_matches_the_reference():
    # frequency vectors of length 0: the key is the output axes id alone
    a = TrigForm(0, 0, {((), ()): 2.0 - 1j})
    b = TrigForm(0, 0, {((), ()): 0.5j})
    got = a.wedge(b)
    want = TrigForm._trusted(0, 0, wedge_reference(a.terms, b.terms,
                                                   operator.mul))
    assert got.terms and coefficient_bytes(got.terms) == coefficient_bytes(
        want.terms)


def test_wedge_frequencies_whose_sums_leave_int64_raise():
    a = TrigForm(1, 0, {((2 ** 62,), ()): 1.0})
    with pytest.raises(OverflowError):
        a.wedge(a)


def gauge_transformed_connection(seed):
    """B = t^-1 A t + t^-1 dt for the suite's random A and t at seed."""
    rng = np.random.default_rng(seed)
    A = random_connection(rng)
    return liecs.gauge_transform(A, random_gauge_map(rng))


@pytest.mark.parametrize("seed", [0, 5])
def test_the_suites_large_wedges_match_the_reference_bit_for_bit(seed):
    # cs_form(B) at a gauge-transformed B: [B, B] and <B, dB + 1/3 [B, B]>,
    # the largest wedges of the chernsimons suite (tens by hundreds of terms)
    B = gauge_transformed_connection(seed)
    inner = B.d() + (1.0 / 3.0) * liecs.graded_bracket(B, B)
    assert len(B.terms) * len(inner.terms) >= 500
    for right in (B, inner):
        check_lie_kernels_against_the_reference(
            (3, 1, right.degree, (B.terms, right.terms)))


def test_a_large_wedge_sorts_each_pair_of_axis_sets_at_most_once(monkeypatch):
    B = gauge_transformed_connection(0)
    inner = B.d() + (1.0 / 3.0) * liecs.graded_bracket(B, B)
    calls = []
    sign = trigform._axes_sign
    monkeypatch.setattr(trigform, "_axes_sign",
                        lambda axes: calls.append(tuple(axes)) or sign(axes))
    for right in (B, inner):
        del calls[:]
        out = liecs.pairing(B, right)
        axis_sets = [{a for _, a in side} for side in (B.terms, right.terms)]
        assert out.terms or right is B
        assert len(calls) <= len(axis_sets[0]) * len(axis_sets[1])
        assert len(set(calls)) == len(calls)


def test_wedge_kernels_of_an_empty_side_or_a_shared_axis_are_empty():
    X = np.array([1, 0, 0])
    f = liecs.LieValuedForm(3, 1, {((1, 0, 0), (1,)): X,
                                   ((0, 1, 0), (1,)): 2 * X})
    g = liecs.LieValuedForm(3, 2, {((0, 0, 1), (0, 1)): X})
    empty = liecs.LieValuedForm.zero(3, 1)
    for a, b in ((f, empty), (empty, f), (f, f), (f, g)):
        assert liecs.graded_bracket(a, b).terms == {}
        assert liecs.pairing(a, b).terms == {}
    t = TrigForm(3, 1, {((1, 0, 0), (2,)): 1.0, ((0, 1, 0), (2,)): 1j})
    for a, b in ((t, TrigForm.zero(3, 1)), (TrigForm.zero(3, 0), t), (t, t)):
        assert a.wedge(b).terms == {}


def test_bracket_terms_are_read_only():
    a = liecs.LieValuedForm(3, 1, {((1, 0, 0), (0,)): [1, 0, 0],
                                   ((0, 1, 0), (1,)): [0, 1, 0]})
    out = liecs.graded_bracket(a, a)
    assert out.terms
    for X in out.terms.values():
        with pytest.raises(ValueError, match="read-only"):
            X[0] = 1.0


def test_d_and_wedge_sort_each_axis_combination_once(monkeypatch):
    # 3 axis sets on each side of a 1-form ^ 1-form on T^3: 9 sorts for the
    # wedge, however many terms share an axis set, and none for a second
    # wedge of the same axis sets, which reads the memoised table; for d,
    # one per (j, axes)
    terms = {((k1, k2, k3), (a,)): 1.0 + k1 for k1 in (-1, 1) for k2 in (0, 2)
             for k3 in (-1, 1) for a in range(3)}
    f = TrigForm(3, 1, terms)
    g = TrigForm(3, 1, {k: 1j * sum(k[0]) + k[1][0] for k in terms})
    calls = []
    sign = trigform._axes_sign
    monkeypatch.setattr(trigform, "_axes_sign",
                        lambda axes: calls.append(tuple(axes)) or sign(axes))
    trigform._wedge_table.cache_clear()
    wedge = f.wedge(g)
    assert len(calls) == 9 and len(set(calls)) == 9
    assert f.wedge(g).terms == wedge.terms and len(calls) == 9
    del calls[:]
    d = f.d()
    assert len(calls) == len(set(calls)) == 6    # j not in axes: 3 x 2
    assert wedge.terms and d.terms


CIRCLE_CELLS = [c for faces in make_circle_decomposition(20).faces.values()
                for c in faces.values()]
HEX_CELLS = [c for faces in make_torus_hex_decomposition(6).faces.values()
             for c in faces.values()]


@pytest.mark.parametrize("cells,amb", [(CIRCLE_CELLS, 1), (HEX_CELLS, 2)],
                         ids=["circle:20", "hex:6"])
def test_memoised_cell_integrals_equal_the_closed_form(cells, amb):
    box = list(product(range(-3, 4), repeat=amb))
    for cell in cells:
        for axes in combinations(range(amb), cell.dim):
            for freq in box:
                direct = _integrate_monomial(freq, axes, cell)
                assert cell.integral(freq, axes) == direct
                assert cell.integrals[freq, axes] == direct
                assert cell.integral(freq, axes) == direct


def numpy_monomial(freq: np.ndarray, axes, cell) -> complex:
    """The closed-form cell integral as numpy dot products of float
    frequency and vertex arrays, the reference for the Python-float kernel."""
    verts = [np.array(v) for v in cell.vertices]
    if cell.dim == 0:
        return cell.sign * cmath.exp(1j * float(np.dot(freq, verts[0])))
    if cell.dim == 1:
        P, Q = verts
        j = axes[0]
        mu = float(np.dot(freq, Q - P))
        return (float(Q[j] - P[j]) * cmath.exp(1j * float(np.dot(freq, P)))
                * trigform._phi(mu))
    j1, j2 = axes
    total = 0.0 + 0.0j
    P0 = verts[0]
    for i in range(1, len(verts) - 1):
        E1 = verts[i] - P0
        E2 = verts[i + 1] - P0
        jac = float(E1[j1] * E2[j2] - E1[j2] * E2[j1])
        if jac == 0.0:
            continue
        a = float(np.dot(freq, E1))
        b = float(np.dot(freq, E2))
        total += (jac * cmath.exp(1j * float(np.dot(freq, P0)))
                  * trigform._simplex_exp(a, b))
    return total


@pytest.mark.parametrize("cells,amb,triples",
                         [(CIRCLE_CELLS, 1, 200), (HEX_CELLS, 2, 8100)],
                         ids=["circle:20", "hex:6"])
def test_the_cell_kernel_is_the_numpy_kernel(cells, amb, triples):
    # below |k| = 3 every product k * x is exact, so the sums are the same
    # bits however they are fused.  At |k| = 3 np.dot may fuse a
    # multiply-add, moving a phase k.P (|k.P| < 64) by one rounding, at most
    # 2**-47: the value moves by that much relative, plus a few roundings
    seen = 0
    for cell in cells:
        for axes in combinations(range(amb), cell.dim):
            for freq in product(range(-3, 4), repeat=amb):
                got = _integrate_monomial(freq, axes, cell)
                want = numpy_monomial(np.array(freq, dtype=float), axes, cell)
                assert type(got) is complex
                if max(map(abs, freq)) <= 2:
                    seen += 1
                    assert struct.pack("dd", got.real, got.imag) == \
                        struct.pack("dd", want.real, want.imag)
                else:
                    assert abs(got - want) <= 2 ** -46 * abs(want)
    assert seen == triples


def wedge_table_reference(left_axes, right_axes):
    """The wedge's code table rebuilt per call, its signs from counting
    inversions: -1 for a shared axis, else 2 * (id of the sorted union) +
    (odd), the unions numbered in row-major order of first appearance."""
    unions = {}
    table = np.full((len(left_axes), len(right_axes)), -1)
    for i, a1 in enumerate(left_axes):
        for j, a2 in enumerate(right_axes):
            joined = a1 + a2
            if len(set(joined)) < len(joined):
                continue
            odd = sum(x > y for k, x in enumerate(joined)
                      for y in joined[k + 1:]) % 2
            union = tuple(sorted(joined))
            table[i, j] = 2 * unions.setdefault(union, len(unions)) + odd
    return table, tuple(unions)


@pytest.mark.parametrize("amb", [2, 3, 4])
def test_the_cached_wedge_table_matches_a_per_call_rebuild(amb):
    rng = np.random.default_rng(amb)
    sets = [c for p in range(amb + 1) for c in combinations(range(amb), p)]
    for _ in range(60):
        left, right = ([sets[i] for i in rng.permutation(len(sets))[
            :rng.integers(1, len(sets) + 1)]] for _ in range(2))
        want = wedge_table_reference(left, right)
        for _ in range(2):      # the second call reads the memo
            table, axes = trigform._wedge_table(tuple(left), tuple(right))
            assert table.dtype == want[0].dtype
            assert np.array_equal(table, want[0]) and axes == want[1]
        with pytest.raises(ValueError, match="read-only"):
            table[0, 0] = 0
