"""The suites' recorder: every suite reports the checks it declares, in
their order, at any trial count, and a NaN defect is never folded away.
Random real forms are their three vector draws read one scalar at a
time, bit for bit, and leave the random stream where those draws leave it."""

import itertools
import math

import numpy as np
import pytest

from gerbekit import suites
from gerbekit.serialize import cover_from_id
from gerbekit.suites import (FORM_MAX_FREQ, FORM_TERMS, SUITES, Worst,
                             random_alternating_cochain, random_real_form,
                             random_real_forms)
from test_term_kernels import coefficient_bytes


@pytest.mark.parametrize("suite", list(SUITES))
def test_each_suite_reports_the_same_checks_at_every_trial_count(suite):
    # at 0 and 1 trials some checks get no instance: they still report 0.0
    names = [[name for name, _ in SUITES[suite](trials, 0)]
             for trials in (0, 1, 2)]
    assert names[0] and len(set(names[0])) == len(names[0])
    assert names[0] == names[1] == names[2]


def test_a_check_that_was_not_declared_raises():
    worst = Worst("stokes_s1")
    with pytest.raises(KeyError):
        worst.add("stokes_s2", 0.0)
    assert list(worst.items()) == [("stokes_s1", 0.0)]


def test_a_nan_after_a_finite_defect_is_kept():
    worst = Worst("a", "b")
    worst.add("a", 1e-3)
    worst.add("a", math.nan)
    worst.add("a", 2.0)
    worst.add("b", 1e-3)
    worst.add("b", math.inf)
    assert list(worst) == ["a", "b"]
    assert math.isnan(worst["a"]) and worst["b"] == math.inf


def real_forms_reference(rng, ambient_dim, degree, count):
    """count random real forms as the three vector draws give them, read
    one scalar at a time, every monomial added into a running sum that
    drops exact zeros."""
    axes_pool = list(itertools.combinations(range(ambient_dim), degree))
    freqs = rng.integers(-FORM_MAX_FREQ, FORM_MAX_FREQ + 1,
                         size=(count, FORM_TERMS, ambient_dim))
    picks = (rng.integers(len(axes_pool), size=(count, FORM_TERMS))
             if len(axes_pool) > 1 else np.zeros((count, FORM_TERMS), int))
    parts = rng.standard_normal((count, FORM_TERMS, 2))
    forms = []
    for i in range(count):
        terms = {}
        for t in range(FORM_TERMS):
            freq = tuple(int(freqs[i, t, j]) for j in range(ambient_dim))
            axes = axes_pool[int(picks[i, t])]
            c = complex(float(parts[i, t, 0]), float(parts[i, t, 1]))
            for key, coeff in (((freq, axes), c),
                               ((tuple(-k for k in freq), axes),
                                c.conjugate())):
                v = terms.get(key, 0.0) + coeff
                if v != 0.0:
                    terms[key] = v
                else:
                    terms.pop(key, None)
        forms.append(terms)
    return forms


SHAPES = [(n, p) for n in (1, 2, 3) for p in range(n + 1)]
# the level sizes the suites draw on their product cover, next to batches
# of 0 to 3 forms, so a fault past the first rows of a batch shows
SUPPORT_COUNTS = sorted({
    len(cover_from_id("product:circle:3:0.6|circle:4:0.7").supports(r))
    for r in (1, 2, 3)})


@pytest.mark.parametrize("ambient_dim,degree", SHAPES,
                         ids=[f"T{n}-deg{p}" for n, p in SHAPES])
def test_random_real_forms_are_the_per_scalar_draws(ambient_dim, degree):
    # call after call until at least 40 forms per seed are compared; a
    # count of 1 is random_real_form, the same three draws
    for seed in range(60):
        rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        counts = itertools.cycle(
            (seed % 4, 1, SUPPORT_COUNTS[seed % len(SUPPORT_COUNTS)],
             3 - seed % 4))
        compared = 0
        while compared < 40:
            count = next(counts)
            forms = (random_real_forms(rng, ambient_dim, degree, count)
                     if count != 1 else
                     [random_real_form(rng, ambient_dim, degree)])
            want = real_forms_reference(ref, ambient_dim, degree, count)
            assert len(forms) == len(want) == count
            for form, terms in zip(forms, want):
                assert (form.ambient_dim, form.degree) == (ambient_dim,
                                                           degree)
                assert coefficient_bytes(form.terms) == \
                    coefficient_bytes(terms)
            assert rng.bit_generator.state == ref.bit_generator.state
            compared += count


@pytest.mark.parametrize("bound", [1, 3])
def test_random_real_forms_follow_the_frequency_bound(monkeypatch, bound):
    # the key table of each shape is built at the default bound first, so
    # a table kept by shape alone would hand the patched bound's draws the
    # keys of another base
    for ambient_dim, degree in SHAPES:
        random_real_forms(np.random.default_rng(0), ambient_dim, degree, 2)
    monkeypatch.setattr(suites, "FORM_MAX_FREQ", bound)
    # real_forms_reference reads this module's own copy of the bound
    monkeypatch.setitem(globals(), "FORM_MAX_FREQ", bound)
    for ambient_dim, degree in SHAPES:
        largest = 0
        for seed in range(20):
            rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
            forms = random_real_forms(rng, ambient_dim, degree, 4)
            want = real_forms_reference(ref, ambient_dim, degree, 4)
            assert [coefficient_bytes(form.terms) for form in forms] == \
                [coefficient_bytes(terms) for terms in want]
            assert rng.bit_generator.state == ref.bit_generator.state
            largest = max([largest] + [abs(k) for form in forms
                                       for freq, _ in form.terms
                                       for k in freq])
        assert largest == bound


class ScriptedDraws:
    """A generator whose vector draws return scripted arrays: each call is
    made on a seeded generator too, so the stream moves as the real call
    moves it, and the next scripted array of the drawn shape and dtype
    stands in for the value."""

    def __init__(self, *arrays):
        self.rng = np.random.default_rng(0)
        self.bit_generator = self.rng.bit_generator
        self.arrays = list(arrays)

    def _scripted(self, drawn):
        value = np.array(self.arrays.pop(0), dtype=drawn.dtype)
        assert value.shape == drawn.shape
        return value

    def integers(self, *args, **kwargs):
        return self._scripted(self.rng.integers(*args, **kwargs))

    def standard_normal(self, *args, **kwargs):
        return self._scripted(self.rng.standard_normal(*args, **kwargs))


@pytest.mark.parametrize("freqs,parts", [
    ([1, 2], [-0.0, 1.5, 2.0, -0.0]),        # signed zero parts
    ([0, 0], [0.0, 0.0, -0.0, -0.0]),        # zero coefficients
    ([0, 0], [1.5, -2.0, 0.5, 3.0]),         # a key that is its conjugate
    ([1, -1], [1.5, -2.0, -1.5, -2.0]),      # one term cancels the other
    ([2, 2], [1.5, -2.0, 1.5, -2.0]),        # one key drawn twice
])
def test_real_forms_from_zero_parts_and_repeated_keys(freqs, parts):
    # draws that a seeded generator almost never makes; the axes pool of
    # (T^1, degree 1) has one entry, so only the frequencies and the parts
    # are drawn, as one (1, FORM_TERMS, 1) and one (1, FORM_TERMS, 2) array
    script = (np.reshape(freqs, (1, FORM_TERMS, 1)),
              np.reshape(parts, (1, FORM_TERMS, 2)))
    rng, ref = ScriptedDraws(*script), ScriptedDraws(*script)
    got = random_real_form(rng, 1, 1)
    want, = real_forms_reference(ref, 1, 1, 1)
    assert coefficient_bytes(got.terms) == coefficient_bytes(want)
    assert rng.arrays == ref.arrays == []
    assert rng.bit_generator.state == ref.bit_generator.state


# (cover, degree) of every random alternating cochain the suites draw:
# the cochain suite's, random_cocycle's flat cochains (one degree below
# the cocycle), the push-forward suite's and crossmodule's
SUITE_COCHAINS = [
    ("circle:4:0.55", 1), ("circle:4:0.55", 2), ("circle:4:0.55", 3),
    ("torus:3:3:0.55", 1), ("torus:3:3:0.55", 2), ("torus:3:3:0.55", 3),
    ("circle:4:0.7", 0), ("torus:3:3:0.75", 1),
    ("product:circle:3:0.6|circle:4:0.7", 1),
    ("product:circle:3:0.6|circle:4:0.7", 2),
    ("product:circle:3:0.6|torus:3:3:0.75", 2),
    ("product:circle:3:0.6|torus:3:3:0.75", 3),
]


def assert_random_real_form(form, ambient_dim, degree):
    pool = set(itertools.combinations(range(ambient_dim), degree))
    assert (form.ambient_dim, form.degree) == (ambient_dim, degree)
    assert 0 < len(form.terms) <= 2 * FORM_TERMS
    for (freq, axes), c in form.terms.items():
        assert all(-FORM_MAX_FREQ <= k <= FORM_MAX_FREQ for k in freq)
        assert axes in pool
        assert form.terms[tuple(-k for k in freq), axes] == c.conjugate()


@pytest.mark.parametrize("cover_id,degree", SUITE_COCHAINS,
                         ids=[f"{c}-{d}" for c, d in SUITE_COCHAINS])
def test_random_cochains_have_the_suites_shapes(cover_id, degree):
    cover = cover_from_id(cover_id)
    amb = cover.factors
    om = random_alternating_cochain(np.random.default_rng(11), cover,
                                    degree, amb)
    assert om.alternating
    assert (() in om.components) == (degree + 1 <= amb)
    for idx, value in om.components.items():
        if idx == ():
            assert_random_real_form(value, amb, degree + 1)
        elif len(idx) == degree + 2:
            assert type(value) is int and value in (-2, -1, 1, 2)
        else:
            assert_random_real_form(value, amb, degree - (len(idx) - 1))
        # one value per support, stored on its sorted ordering
        assert idx == tuple(sorted(set(idx)))
        assert idx == () or idx in cover.supports(len(idx))
