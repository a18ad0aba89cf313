import itertools
import math
import time
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gerbekit import lattice, modform
from gerbekit.lattice import (BLOCK_ROWS, EMBED_BOUND, IntegralLattice,
                              _in_basis, _sorted_shells, anomaly_exponents,
                              builtin, class_sizes_mod_2, coxeter_from_roots,
                              enumerate_by_norm, roots, spin16_embedding,
                              spin16_first_series, spin16_images,
                              theta_counts, weight_identity_check)
from gerbekit.modform import reflection_element


@pytest.fixture(scope="module")
def e8():
    return builtin("e8")


@pytest.fixture(scope="module")
def d16():
    return builtin("d16plus")


def test_e8_is_even_unimodular(e8):
    assert e8.rank == 8
    assert e8.is_even()
    assert e8.is_unimodular()


def test_d16plus_is_even_unimodular(d16):
    assert d16.rank == 16
    assert d16.is_even()
    assert d16.is_unimodular()


def test_e8e8_gram_is_block_diagonal():
    L = builtin("e8e8")
    assert L.gram_den == 1
    g = L.gram
    assert np.all(g[:8, 8:] == 0)
    assert np.all(g[8:, :8] == 0)


def test_e8_shell_counts(e8):
    counts = theta_counts(e8, 6)
    assert counts[0] == 1
    assert counts[2] == 240
    assert counts[4] == 2160
    assert counts[6] == 6720


def test_d16plus_root_count(d16):
    assert len(roots(d16)) == 480


def test_enumeration_closed_under_negation(e8):
    shells = enumerate_by_norm(e8, 4)
    for vecs in shells.values():
        s = set(vecs)
        assert all(tuple(-x for x in v) in s for v in vecs)


def test_coxeter_numbers(e8, d16):
    assert coxeter_from_roots(e8) == 30
    assert coxeter_from_roots(d16) == 30


def test_reflection_preserves_norm(e8):
    rs = roots(e8)
    rng = np.random.default_rng(0)
    for _ in range(20):
        r = rs[int(rng.integers(len(rs)))]
        v = tuple(int(x) for x in rng.integers(-3, 4, size=8))
        M = np.array(reflection_element(e8, r).w)
        w = tuple(M @ v)
        assert e8.norm(w) == e8.norm(v)
        assert tuple(M @ w) == v


def test_reflect_rejects_non_roots(e8):
    with pytest.raises(ValueError):
        reflection_element(e8, (0,) * 8)


def test_spin16_coroot_lattice_shape():
    S = builtin("spin16_coroot")
    assert S.rank == 8
    # coroots (1/2)(x_i - x_j) have norm 1 under the doubled pairing
    assert S.norm((1,) + (0,) * 7) == 1


def test_spin16_series_has_112_distinct_norm2_images(e8):
    series = spin16_first_series()
    assert len(series) == 112
    images = {spin16_embedding(v) for v in series}
    assert len(images) == 112
    assert all(e8.norm(w) == 2 for w in images)


def test_weight_identity_residual_zero():
    assert weight_identity_check() == Fraction(0)


def _exact_inverse(m):
    """The inverse of a square matrix of Fractions, by Gauss-Jordan."""
    n = len(m)
    a = [list(row) + [Fraction(int(i == j)) for j in range(n)]
         for i, row in enumerate(m)]
    for k in range(n):
        p = next(r for r in range(k, n) if a[r][k] != 0)
        a[k], a[p] = a[p], a[k]
        a[k] = [x / a[k][k] for x in a[k]]
        for r in range(n):
            if r != k and a[r][k] != 0:
                a[r] = [x - a[r][k] * y for x, y in zip(a[r], a[k])]
    return [row[n:] for row in a]


def embedding_reference(v, coroot=None):
    """The doubling map one row at a time in Python ints and Fractions: the
    ambient point 2 x(v) of the coroot row, and its e8 coefficients through
    the exact inverse of the e8 basis; None for a point outside e8."""
    coroot = coroot or builtin("spin16_coroot")
    e8 = builtin("e8")
    inv = _exact_inverse([[Fraction(int(x), e8.basis_den) for x in row]
                          for row in e8.basis])
    point = [2 * x for x in coroot.coordinates(v)]
    c = [sum(p * inv[a][j] for a, p in enumerate(point))
         for j in range(e8.rank)]
    return tuple(int(x) for x in c) if all(
        x.denominator == 1 for x in c) else None


def test_the_batched_embedding_matches_the_python_int_reference():
    rng = np.random.default_rng(47)
    series = spin16_first_series()
    # the coroots, seeded small rows, and rows at the bound with random signs
    rows = (series + rng.integers(-50, 51, size=(40, 8)).tolist()
            + (EMBED_BOUND * rng.choice([-1, 1], size=(8, 8))).tolist())
    coeffs, member = spin16_images(rows)
    assert coeffs.dtype == np.int64 and member.all()
    ref = [embedding_reference(v) for v in rows]
    assert [tuple(c) for c in coeffs.tolist()] == ref
    assert [spin16_embedding(v) for v in series] == ref[:len(series)]
    assert spin16_images([])[0].shape == (0, 8)


def _serving(monkeypatch, lat):
    """builtin() serving lat as the coroot lattice, the rest unchanged."""
    real = lattice.builtin
    monkeypatch.setattr(lattice, "builtin", lambda name: lat
                        if name == "spin16_coroot" else real(name))


def test_a_non_member_row_is_refused_with_its_message(monkeypatch, e8):
    # every integer coroot row doubles into D8, so a non-member needs a
    # coroot basis with the glue row (1/2)(x_5 + x_6 + x_7)
    coroot = builtin("spin16_coroot")
    basis = coroot.basis.tolist()
    basis[7] = [1 if a >= 5 else 0 for a in range(8)]
    wrong = IntegralLattice("glue", coroot.gram, coroot.gram_den, basis, 2)
    _serving(monkeypatch, wrong)
    units = np.eye(8, dtype=np.int64)
    coeffs, member = spin16_images(units)
    assert member.tolist() == [True] * 7 + [False]
    assert [embedding_reference(v, wrong) for v in units.tolist()] == [
        tuple(c) for c in coeffs[:7].tolist()] + [None]
    with pytest.raises(ValueError, match="not in the target lattice"):
        spin16_embedding(units[7])
    assert not _in_basis(e8, np.array([[1, 0, 0, 0, 0, 0, 0, 0]]), 2)[1][0]


def weight_identity_reference(L):
    """The Fraction double loop over basis pairs."""
    units = [tuple(1 if t == i else 0 for t in range(L.rank))
             for i in range(L.rank)]
    xs = [L.coordinates(a) for a in units]
    return max(abs(2 * sum(p * q for p, q in zip(xa, xb)) - L.inner(a, b))
               for a, xa in zip(units, xs) for b, xb in zip(units, xs))


def test_the_integer_weight_identity_matches_the_fraction_double_loop(
        monkeypatch):
    coroot = builtin("spin16_coroot")
    assert weight_identity_check() == weight_identity_reference(coroot) == 0
    cartan = (2 * coroot.gram).tolist()
    cartan[5][7] = cartan[7][5] = 0
    cartan[4][7] = cartan[7][4] = -1
    # the Cartan edge (5, 7) moved to (4, 7), three times the Gram, and the
    # Gram over 1 rather than 2
    for gram, den in [(cartan, 2), (3 * coroot.gram, 2), (coroot.gram, 1)]:
        wrong = IntegralLattice("wrong", gram, den, coroot.basis, 2)
        _serving(monkeypatch, wrong)
        ref = weight_identity_reference(wrong)
        assert ref > 0
        assert weight_identity_check() == ref


@pytest.mark.parametrize("row", [
    [EMBED_BOUND + 1] + [0] * 7, [0] * 7 + [-EMBED_BOUND - 1],
    [2 ** 62] * 8, [np.iinfo(np.int64).min] + [0] * 7, [2 ** 70] + [0] * 7,
    [1.0] * 8], ids=["above", "below", "wraps", "int64-min", "python-int",
                     "float"])
def test_a_row_past_the_bound_is_refused_before_any_product(monkeypatch,
                                                            row):
    monkeypatch.setattr(lattice, "_in_basis", None)
    with pytest.raises(ValueError, match=f"at most {EMBED_BOUND}"):
        spin16_images([[0] * 8, row])
    with pytest.raises(ValueError, match=f"at most {EMBED_BOUND}"):
        spin16_embedding(row)


def test_weyl_index(e8):
    # the norm-4 vectors fall into 135 frames mod 2E8, 16 vectors in each;
    # a root is congruent only to itself and its negative
    classes = class_sizes_mod_2(e8, 4)
    assert classes == {0: [1], 2: [2] * 120, 4: [16] * 135}


def test_class_sizes_mod_2_key_every_coefficient():
    # the unit vectors +-e_i of Z^63 fall into 63 classes of 2; Z^64's
    # coefficients do not fit one int64 key
    def cubic(n):
        return IntegralLattice(f"z{n}", np.eye(n, dtype=int).tolist())
    assert class_sizes_mod_2(cubic(63), 1) == {0: [1], 1: [2] * 63}
    with pytest.raises(OverflowError):
        class_sizes_mod_2(cubic(64), 1)


def test_anomaly_exponent_relations():
    c, x2, n, d = anomaly_exponents("e8e8_adjoint")
    assert (c, x2, n, d) == (30, 464, 496, 10)
    assert c * 32 == n + x2
    c, x2, n, d = anomaly_exponents("spin16_rho")
    assert (c, x2, n, d) == (1, 0, 32, 10)
    assert c * 32 == n + x2


def test_from_gram_roundtrip():
    L = IntegralLattice("a2", [[2, -1], [-1, 2]])
    assert L.determinant() == 3
    assert len(roots(L)) == 6


def test_e8_shells_are_240_sigma3(e8):
    # Theta_E8 = E4 = 1 + 240 sum_m sigma_3(m) q^m, and norm 2m sits at q^m
    counts = theta_counts(e8, 14)
    for m in range(1, 8):
        sigma3 = sum(d ** 3 for d in range(1, m + 1) if m % d == 0)
        assert counts[2 * m] == 240 * sigma3
    assert sorted(counts) == list(range(0, 15, 2))


def brute_force_shells(gram, max_norm):
    """Every x in the bounding box of the ellipsoid x G x <= max_norm, with
    the norms summed in the Gram's own entries (ints or Fractions)."""
    g = np.array(gram, dtype=float)
    box = [int(math.sqrt(max_norm * c)) + 1 for c in np.diag(np.linalg.inv(g))]
    out = {}
    for x in itertools.product(*(range(-b, b + 1) for b in box)):
        nrm = sum(x[i] * gram[i][j] * x[j]
                  for i in range(len(x)) for j in range(len(x)))
        if nrm <= max_norm:
            out.setdefault(nrm, []).append(x)
    return {k: sorted(out[k]) for k in sorted(out)}


@st.composite
def small_grams(draw):
    """G = M M^T + D for M lower triangular with a nonzero diagonal."""
    n = draw(st.integers(1, 4))
    M = [[draw(st.integers(-2, 2)) if j < i
          else draw(st.sampled_from([-2, -1, 1, 2])) if j == i else 0
          for j in range(n)] for i in range(n)]
    D = [draw(st.integers(0, 2)) for _ in range(n)]
    return [[sum(M[i][k] * M[j][k] for k in range(n)) + (D[i] if i == j else 0)
             for j in range(n)] for i in range(n)]


@st.composite
def small_grams_over(draw):
    """(num, den) with den 1 or 2: small_grams' G over 1, or over 2 the
    numerators 2 G, plus +-1 off the diagonal and an even boost on it that
    keeps them positive definite (Gershgorin): half-integral off-diagonal
    entries and an integer-valued norm form."""
    g = draw(small_grams())
    if not draw(st.booleans()):
        return g, 1
    n = len(g)
    odd = {(i, j): draw(st.sampled_from([-1, 1]))
           for i in range(n) for j in range(i + 1, n)}
    boost = n - 1 + (n - 1) % 2
    return [[2 * g[i][j] + (boost if i == j else odd[min(i, j), max(i, j)])
             for j in range(n)] for i in range(n)], 2


@settings(max_examples=60, deadline=None)
@given(small_grams_over(), st.integers(0, 9))
def test_enumeration_matches_brute_force(gram_over, max_norm):
    num, den = gram_over
    gram = [[Fraction(x, den) for x in row] for row in num]
    g = np.array(gram, dtype=float)
    box = np.prod([2 * int(math.sqrt(max_norm * c)) + 3
                   for c in np.diag(np.linalg.inv(g))])
    assume(box <= 20000)
    shells = enumerate_by_norm(IntegralLattice("g", num, den), max_norm)
    assert shells == brute_force_shells(gram, max_norm)
    assert list(shells) == sorted(shells)
    assert all(type(k) is int for k in shells)
    for vecs in shells.values():
        s = set(vecs)
        assert all(tuple(-x for x in v) in s for v in vecs)


def test_enumeration_keeps_coefficients_beyond_int16():
    # x G x = (x0 + 1000 x1)^2 + x1^2: a unimodular copy of Z^2 whose short
    # vectors have first coefficients past 2^15
    L = IntegralLattice("skew", [[1, 1000], [1000, 1000001]])
    shells = enumerate_by_norm(L, 1200)
    square = enumerate_by_norm(IntegralLattice("z2", [[1, 0], [0, 1]]), 1200)
    assert {k: len(v) for k, v in shells.items()} == {
        k: len(v) for k, v in square.items()}
    assert max(abs(v[0]) for vecs in shells.values() for v in vecs) > 2 ** 15
    assert all(L.norm(v) == k for k, vecs in shells.items() for v in vecs)


@pytest.mark.parametrize("name", ["e8e8", "d16plus"])
def test_modform_constants_follow_from_the_roots(name):
    L = builtin(name)
    n_roots = len(roots(L))
    assert modform.ADJOINT_DIMENSION == n_roots + L.rank
    assert modform.COXETER_EXPONENT * L.rank == n_roots


def test_integer_gram_pairing_matches_the_exact_gram(e8, d16):
    rng = np.random.default_rng(4)
    for L in (e8, d16, builtin("spin16_coroot")):
        for _ in range(10):
            u, v = (tuple(int(x) for x in rng.integers(-3, 4, size=L.rank))
                    for _ in range(2))
            ref = sum(u[i] * Fraction(int(L.gram[i][j]), L.gram_den) * v[j]
                      for i in range(L.rank) for j in range(L.rank))
            assert L.inner(u, v) == ref
            x = L.coordinates(u)
            assert all(isinstance(c, Fraction) for c in x)
            rows = [[Fraction(int(a), L.basis_den) for a in row]
                    for row in L.basis]
            assert x == [sum(c * row[a] for c, row in zip(u, rows))
                         for a in range(len(x))]


def test_theta_enum_over_a_half_integral_gram():
    # the hexagonal lattice x^2 + xy + y^2, summed by brute force in Fractions
    L = IntegralLattice("hex", [[2, 1], [1, 2]], 2)
    gram = [[Fraction(x, 2) for x in row] for row in L.gram.tolist()]
    z = [0.1 + 0.05j, -0.2 + 0.02j]
    ref = 0j
    for x in itertools.product(range(-12, 13), repeat=2):
        nrm = sum(x[i] * gram[i][j] * x[j] for i in range(2) for j in range(2))
        pair = sum(z[i] * float(gram[i][j]) * x[j]
                   for i in range(2) for j in range(2))
        ref += np.exp(1j * math.pi * (2 * pair + 1.1j * float(nrm)))
    got = modform.theta_lattice_enum(L, 1.1j, z, max_norm=60)
    assert abs(got - ref) < 1e-12


def test_theta_with_a_cutoff_past_norm_60_matches_a_box_sum():
    # at Im tau = 0.15 the tolerance asks for norms past 60 on the
    # hexagonal lattice; a few hundred vectors are well inside the budget
    L = IntegralLattice("hex", [[2, 1], [1, 2]], 2)
    tau, z = 0.2 + 0.15j, [0.1 + 0.05j, -0.2 + 0.02j]
    g = L.gram_float
    ref = 0j
    for x in itertools.product(range(-40, 41), repeat=2):
        x = np.array(x)
        ref += np.exp(1j * math.pi * (2 * (np.array(z) @ g @ x)
                                      + tau * (x @ g @ x)))
    assert abs(modform.theta_lattice(L, tau, z) - ref) < 1e-11


def test_a_norm_past_the_enumeration_budget_raises_before_walking():
    # E8 + E8 holds about 10^23 vectors of norm <= 1000
    L = builtin("e8e8")
    tracemalloc.start()
    start = time.perf_counter()
    with pytest.raises(ValueError, match="enumeration budget"):
        theta_counts(L, 1000)
    elapsed = time.perf_counter() - start
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert elapsed < 1.0 and peak < 1 << 20


@pytest.mark.parametrize("name", ["e8", "e8e8"])
def test_enumerated_rows_are_the_per_row_tuples_built_once(name):
    L = builtin(name)
    norms, X = _sorted_shells(L, 4)
    rows = [row for shell in enumerate_by_norm(L, 4).values() for row in shell]
    assert rows == [tuple(r) for r in X.tolist()]
    assert {type(c) for row in rows for c in row} == {int}
    tracemalloc.start()
    shells = enumerate_by_norm(L, 4)
    held, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    # beyond the rows it returns, the call may hold the walk's int16 array
    # and one 8-byte pointer per entry, the column lists, with 2 MiB to
    # spare (E8 + E8: 20.3 MiB of 21.8 allowed, CPython 3.11); a list per
    # row besides its tuple, 184 B at rank 16, reached 24.4 of 22.1
    assert peak <= held + X.nbytes + 8 * X.size + (2 << 20)
    assert sum(map(len, shells.values())) == len(X)


def test_a_norm_form_with_fractional_values_is_refused():
    with pytest.raises(ValueError, match="integer-valued"):
        IntegralLattice("quarter", [[1]], 4)
    with pytest.raises(ValueError, match="integer-valued"):
        IntegralLattice("half", [[2, 1], [1, 1]], 2)


@pytest.mark.parametrize("gram", [
    # A2's norm form, not symmetric: its walk counted 2 vectors of norm 6
    [[2, 2], [0, 2]],
    # indefinite: numpy's Cholesky raised LinAlgError in the walk
    [[0, 1], [1, 0]],
    [[1, 2], [2, 1]],
    # semidefinite, and negative in the last pivot only
    [[1, 1], [1, 1]],
    [[2, 0, 0], [0, 2, 0], [0, 0, -2]],
    # not square
    [[2, 1], [1, 2], [0, 0]],
])
def test_a_gram_that_is_not_symmetric_positive_definite_is_refused(gram):
    with pytest.raises(ValueError, match="lattice bad: the Gram matrix is "
                       "not symmetric positive definite"):
        IntegralLattice("bad", gram)


@pytest.mark.parametrize("gram", [[], [[]], [[2, 1], [1]]])
def test_an_empty_or_ragged_gram_is_refused(gram):
    with pytest.raises(ValueError, match="lattice bad: the Gram matrix has "
                       "no entries or rows of unequal lengths"):
        IntegralLattice("bad", gram)


@pytest.mark.parametrize("den", [0, -2])
def test_a_gram_denominator_below_1_is_refused(den):
    with pytest.raises(ValueError, match=f"lattice bad: the Gram denominator "
                       f"{den} is below 1"):
        IntegralLattice("bad", [[2]], den)


def leibniz_det(m):
    """The determinant as a signed sum over permutations, in integers."""
    n = len(m)
    total = 0
    for perm in itertools.permutations(range(n)):
        inversions = sum(perm[i] > perm[j]
                         for i in range(n) for j in range(i + 1, n))
        total += (-1) ** inversions * math.prod(m[i][perm[i]]
                                                for i in range(n))
    return total


@settings(max_examples=60, deadline=None)
@given(small_grams_over())
def test_the_determinant_matches_the_leibniz_sum(gram_over):
    num, den = gram_over
    assert IntegralLattice("g", num, den).determinant() == Fraction(
        leibniz_det(num), den ** len(num))


def test_a_gram_alone_has_no_basis():
    L = IntegralLattice("a2", [[2, -1], [-1, 2]])
    with pytest.raises(ValueError, match="no basis"):
        L.coordinates((1, 0))
    with pytest.raises(ValueError, match="no basis"):
        L.basis_float


def sorted_shells_reference(L, max_norm):
    """The full-ellipsoid walk, ordered by np.lexsort over the norm and the
    columns: the oracle for _sorted_shells' half walk and mirror."""
    g = L.gram_float
    n = L.rank
    R = np.linalg.cholesky(g).T
    bound = float(max_norm) + 1e-9
    reach = np.sqrt(bound * np.diag(np.linalg.inv(g))).max() + 2
    dtype = np.int16 if reach < np.iinfo(np.int16).max else np.int64
    stack = [(n - 1, np.zeros((1, n), dtype), np.zeros((1, n)),
              np.array([bound]))]
    leaves = []
    while stack:
        i, X, P, rem = stack.pop()
        if i < 0:
            X64 = X.astype(np.int64)
            norms = np.einsum("ij,ij->i", X64 @ L.gram, X64) // L.gram_den
            keep = norms <= max_norm
            leaves.append((X[keep], norms[keep]))
            continue
        rii = R[i, i]
        center = -P[:, i] / rii
        radius = np.sqrt(np.maximum(rem, 0.0)) / rii
        lo = np.ceil(center - radius - 1e-9)
        hi = np.floor(center + radius + 1e-9)
        counts = np.maximum(hi - lo + 1, 0).astype(np.int64)
        total = int(counts.sum())
        if total > BLOCK_ROWS and len(X) > 1:
            h = len(X) // 2
            stack.append((i, X[h:], P[h:], rem[h:]))
            stack.append((i, X[:h], P[:h], rem[:h]))
            continue
        parent = np.repeat(np.arange(len(X)), counts)
        first = np.cumsum(counts) - counts
        xi = lo[parent] + (np.arange(total) - first[parent])
        t = rii * (xi - center[parent])
        X = X[parent]
        X[:, i] = xi
        stack.append((i - 1, X, P[parent, :i] + xi[:, None] * R[:i, i],
                      rem[parent] - t * t))
    X = np.concatenate([x for x, _ in leaves])
    norms = np.concatenate([nrm for _, nrm in leaves])
    order = np.lexsort(tuple(X[:, j] for j in reversed(range(n))) + (norms,))
    return norms[order], X[order]


def assert_same_shells(L, max_norm):
    """_sorted_shells gives the reference's arrays, dtype and bytes, and
    theta_counts, which counts the half walk's norms alone, the sizes of
    its shells."""
    got, ref = _sorted_shells(L, max_norm), sorted_shells_reference(L, max_norm)
    for a, b in zip(got, ref):
        assert a.dtype == b.dtype and a.shape == b.shape
        assert a.tobytes() == b.tobytes()
    keys, counts = np.unique(got[0], return_counts=True)
    assert theta_counts(L, max_norm) == dict(zip(keys.tolist(),
                                                 counts.tolist()))


SHELL_CASES = [
    (builtin("e8"), 0), (builtin("e8"), 4), (builtin("e8"), 14),
    (builtin("e8"), 20), (builtin("e8e8"), 2), (builtin("e8e8"), 6),
    (builtin("d16plus"), 2), (builtin("d16plus"), 4),
    (builtin("spin16_coroot"), 6),
    # int64 rows: first coefficients past 2^15
    (IntegralLattice("skew", [[1, 1000], [1000, 1000001]]), 1200),
    # a half-integral Gram (gram_den 2)
    (IntegralLattice("hex", [[2, 1], [1, 2]], 2), 0),
    (IntegralLattice("hex", [[2, 1], [1, 2]], 2), 60),
]


def test_sorted_shells_match_the_full_walk_bit_for_bit():
    for L, max_norm in SHELL_CASES:
        assert_same_shells(L, max_norm)
    skew, bound = SHELL_CASES[9]
    assert _sorted_shells(skew, bound)[1].dtype == np.int64


@settings(max_examples=60, deadline=None)
@given(small_grams_over(), st.integers(0, 9))
def test_sorted_shells_match_the_full_walk_on_small_grams(gram_over, max_norm):
    num, den = gram_over
    assert_same_shells(IntegralLattice("g", num, den), max_norm)


# E8 at 4, the skew int64 case and the half-integral Gram at 60
SPLIT_CASES = [SHELL_CASES[1], SHELL_CASES[9], SHELL_CASES[11]]


@pytest.mark.parametrize("rows", [1, 7, 64])
def test_the_block_split_leaves_the_shells_unchanged(rows, monkeypatch):
    # the reference keeps the BLOCK_ROWS it imported
    monkeypatch.setattr(lattice, "BLOCK_ROWS", rows)
    for L, max_norm in SPLIT_CASES:
        assert_same_shells(L, max_norm)


@settings(max_examples=30, deadline=None)
@given(small_grams_over(), st.integers(0, 9), st.sampled_from([1, 7, 64]))
def test_the_block_split_leaves_small_grams_unchanged(gram_over, max_norm,
                                                      rows):
    num, den = gram_over
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(lattice, "BLOCK_ROWS", rows)
        assert_same_shells(IntegralLattice("g", num, den), max_norm)


def test_the_e8_walk_to_norm_14_holds_less_than_the_gathering_sort(e8):
    _sorted_shells(e8, 2)
    tracemalloc.start()
    _sorted_shells(e8, 14)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    # the walk that carried whole rows, normed its leaves by a matrix
    # product and ordered them by argsort and a row gather peaked at
    # 10.45 MiB (CPython 3.11, numpy 2.4); this one, which orders the rows
    # by one lexsort and gathers them once, at 9.2 MiB
    assert peak <= 10.45 * (1 << 20)


def test_a_negative_bound_gives_no_vectors_and_no_warning(e8):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for bound in (-1, -0.5):
            norms, X = _sorted_shells(e8, bound)
            assert norms.dtype == np.int64 and norms.shape == (0,)
            assert X.dtype == np.int64 and X.shape == (0, 8)
            assert enumerate_by_norm(e8, bound) == {}
            assert theta_counts(e8, bound) == {}
