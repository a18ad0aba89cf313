"""The suites' recorder: every suite reports the checks it declares, in
their order, at any trial count, and a NaN defect is never folded away."""

import math

import pytest

from gerbekit.suites import SUITES, Worst


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
