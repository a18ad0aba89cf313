"""The suites' recorder: every suite reports the checks it declares, in
their order, at any trial count, and a NaN defect is never folded away.
Random real forms are the ones a per-scalar generator draws, bit for bit,
and leave the random stream where it leaves it."""

import itertools
import math

import numpy as np
import pytest

from gerbekit.suites import (FORM_MAX_FREQ, FORM_TERMS, SUITES, Worst,
                             random_real_form)
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


def real_form_reference(rng, ambient_dim, degree):
    """The random real form as first written: one numpy call per scalar,
    and every monomial added into a running sum that drops exact zeros."""
    terms = {}
    axes_pool = list(itertools.combinations(range(ambient_dim), degree))
    for _ in range(FORM_TERMS):
        freq = tuple(int(rng.integers(-FORM_MAX_FREQ, FORM_MAX_FREQ + 1))
                     for _ in range(ambient_dim))
        axes = axes_pool[int(rng.integers(len(axes_pool)))]
        c = complex(rng.normal(), rng.normal())
        for key, coeff in (((freq, axes), c),
                           ((tuple(-k for k in freq), axes), c.conjugate())):
            v = terms.get(key, 0.0) + coeff
            if v != 0.0:
                terms[key] = v
            else:
                terms.pop(key, None)
    return terms


SHAPES = [(n, p) for n in (1, 2, 3) for p in range(n + 1)]


@pytest.mark.parametrize("ambient_dim,degree", SHAPES,
                         ids=[f"T{n}-deg{p}" for n, p in SHAPES])
def test_random_real_forms_are_the_per_scalar_draws(ambient_dim, degree):
    for seed in range(60):
        rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(40):
            form = random_real_form(rng, ambient_dim, degree)
            assert (form.ambient_dim, form.degree) == (ambient_dim, degree)
            assert coefficient_bytes(form.terms) == coefficient_bytes(
                real_form_reference(ref, ambient_dim, degree))
            assert rng.bit_generator.state == ref.bit_generator.state


class ScriptedDraws:
    """A generator that returns scripted values: normal() as numpy makes it
    from its standard draw, 0.0 + 1.0 * z, and integers(1) without a draw."""

    def __init__(self, ints, floats):
        self.ints, self.floats = list(ints), list(floats)

    def integers(self, low, high=None):
        if high is None:
            low, high = 0, low
        return low if high - low == 1 else self.ints.pop(0)

    def standard_normal(self):
        return self.floats.pop(0)

    def normal(self):
        return 0.0 + 1.0 * self.standard_normal()


@pytest.mark.parametrize("freqs,parts", [
    ([1, 2], [-0.0, 1.5, 2.0, -0.0]),        # signed zero parts
    ([0, 0], [0.0, 0.0, -0.0, -0.0]),        # zero coefficients
    ([0, 0], [1.5, -2.0, 0.5, 3.0]),         # a key that is its conjugate
    ([1, -1], [1.5, -2.0, -1.5, -2.0]),      # one term cancels the other
    ([2, 2], [1.5, -2.0, 1.5, -2.0]),        # one key drawn twice
])
def test_real_forms_from_zero_parts_and_repeated_keys(freqs, parts):
    # draws that a seeded generator almost never makes; the axes pool of
    # (T^1, degree 1) has one entry, so only the frequencies are drawn
    got = random_real_form(ScriptedDraws(freqs, parts), 1, 1)
    want = real_form_reference(ScriptedDraws(freqs, parts), 1, 1)
    assert coefficient_bytes(got.terms) == coefficient_bytes(want)
