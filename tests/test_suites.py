"""The suites' recorder: every suite reports the checks it declares, in
their order, at any trial count, and a NaN defect is never folded away.
Random real forms are their three vector draws read one scalar at a
time, bit for bit, and leave the random stream where those draws leave it.
A suite split across two processes reports the bytes it reports on one,
and raises what it raises on one, leaving no child behind."""

import functools
import itertools
import json
import math
import os
import signal
import struct
import time

import numpy as np
import pytest

from gerbekit import cli, suites
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


def real_forms_reference(rng, ambient_dim, degree, count, real=True):
    """count random forms as the three vector draws give them, read one
    scalar at a time, every monomial, and when real its conjugate, added
    into a running sum that drops exact zeros."""
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
            partners = [((freq, axes), c)]
            if real:
                partners.append(((tuple(-k for k in freq), axes),
                                 c.conjugate()))
            for key, coeff in partners:
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


@pytest.mark.parametrize("bound,real", [(1, True), (3, True), (3, False)],
                         ids=["1", "3", "3-without-partners"])
def test_random_real_forms_follow_the_frequency_bound(monkeypatch, bound,
                                                      real):
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
            forms = random_real_forms(rng, ambient_dim, degree, 4, real)
            want = real_forms_reference(ref, ambient_dim, degree, 4, real)
            assert [coefficient_bytes(form.terms) for form in forms] == \
                [coefficient_bytes(terms) for terms in want]
            assert rng.bit_generator.state == ref.bit_generator.state
            # the draw with the other value of real makes the same draws
            other = np.random.default_rng(seed)
            random_real_forms(other, ambient_dim, degree, 4, not real)
            assert other.bit_generator.state == rng.bit_generator.state
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
    ([2, 2], [1.5, -2.0, -1.5, 2.0]),        # ... and cancelling itself
])
def test_real_forms_from_zero_parts_and_repeated_keys(freqs, parts):
    # draws that a seeded generator almost never makes; the axes pool of
    # (T^1, degree 1) has one entry, so only the frequencies and the parts
    # are drawn, as one (1, FORM_TERMS, 1) and one (1, FORM_TERMS, 2) array
    script = (np.reshape(freqs, (1, FORM_TERMS, 1)),
              np.reshape(parts, (1, FORM_TERMS, 2)))
    for real in (True, False):
        rng, ref = ScriptedDraws(*script), ScriptedDraws(*script)
        got = random_real_form(rng, 1, 1, real)
        want, = real_forms_reference(ref, 1, 1, 1, real)
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


# ---------------------------------------------------------------------------
# the two-process split


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def forks(monkeypatch):
    """The forks made, counted in this process."""
    made, fork = [], os.fork

    def counted():
        made.append(None)
        return fork()
    monkeypatch.setattr(os, "fork", counted)
    return made


def on_cpus(monkeypatch, cpus):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(cpus),
                        raising=False)


# the benchmark's trial counts (cochain 6, chernsimons 20, pushforward 2),
# and 0 and 1: the push-forward suite always adds two T^2 tasks
SPLIT_RUNS = [("cochain", 0), ("cochain", 1), ("cochain", 6),
              ("pushforward", 0), ("pushforward", 1), ("pushforward", 2),
              ("chernsimons", 0), ("chernsimons", 1), ("chernsimons", 20)]


@pytest.mark.parametrize("suite,trials", SPLIT_RUNS,
                         ids=[f"{s}-{t}" for s, t in SPLIT_RUNS])
def test_one_and_two_cpus_give_the_same_report_bytes(monkeypatch, forks,
                                                     suite, trials):
    seeds = (0, 1, 5, 12)
    on_cpus(monkeypatch, (0, 1))
    two = [json.dumps(cli.run_suite(suite, trials, seed, 1e-8), indent=1)
           for seed in seeds]
    split = len(forks)
    on_cpus(monkeypatch, (0,))
    one = [json.dumps(cli.run_suite(suite, trials, seed, 1e-8), indent=1)
           for seed in seeds]
    assert two == one
    # a suite with two tasks or more forked once per call, then never
    assert len(forks) == split == (len(seeds) if trials >= 2 or
                                   suite == "pushforward" else 0)
    assert_no_child_left()


def test_a_platform_without_an_affinity_call_runs_serial(monkeypatch, forks):
    monkeypatch.delattr(os, "sched_getaffinity")
    report = cli.run_suite("chernsimons", 4, 0, 1e-8)
    on_cpus(monkeypatch, (0, 1))
    assert cli.run_suite("chernsimons", 4, 0, 1e-8) == report
    assert len(forks) == 1


def test_defects_come_back_from_the_child_with_their_type_and_bits(
        monkeypatch):
    payload_nan = struct.unpack("<d", struct.pack("<Q", 0xFFF8DEADBEEF0001))[0]
    values = [payload_nan, -0.0, np.float64(-0.0), math.inf,
              np.float64(payload_nan), 1e-300, np.float32(0.1)]
    # the first task outweighs the rest: every value is the child's
    tasks = [(len(values), list)] + [(1, functools.partial(
        lambda v: [("x", v)], v)) for v in values]
    assert suites._child_share([c for c, _ in tasks]) == \
        [False] + [True] * len(values)
    on_cpus(monkeypatch, (0, 1))
    got = suites._in_two_processes(tasks)

    def bits(results):
        return [[(type(d), np.asarray(d).tobytes()) for _, d in checks]
                for checks in results]
    assert bits(got) == bits([run() for _, run in tasks])
    assert_no_child_left()


def test_a_raise_in_the_childs_share_is_the_serial_raise(
        tmp_path, monkeypatch, capsys, forks):
    # the second T^2 Stokes task, at degree 3, is in the child's share:
    # this process meets the planted raise only in the serial rerun
    parent, met = os.getpid(), []
    defect = suites.pushforward_commutes_defect

    def planted(om, dec, rho):
        if om.degree == 3:
            met.append(os.getpid())
            raise OverflowError("planted")
        return defect(om, dec, rho)
    monkeypatch.setattr(suites, "pushforward_commutes_defect", planted)
    path = tmp_path / "x.json"
    path.write_text('{"old": 1}')
    argv = ["verify", "--suite", "pushforward", "--trials", "2",
            "--report", str(path)]
    on_cpus(monkeypatch, (0,))
    assert cli.main(argv) == 1
    serial = capsys.readouterr()
    on_cpus(monkeypatch, (0, 1))
    assert cli.main(argv) == 1
    assert capsys.readouterr() == serial == ("", "error: planted\n")
    assert met == [parent, parent] and len(forks) == 1
    assert path.read_text() == '{"old": 1}'
    assert_no_child_left()


@pytest.mark.parametrize("failure", ["raise", "exit", "kill"])
def test_a_failed_child_leaves_the_report_to_the_serial_run(
        monkeypatch, forks, failure):
    parent = os.getpid()
    defect = suites.pushforward_commutes_defect

    def failing_in_a_child(om, dec, rho):
        if os.getpid() != parent:
            if failure == "raise":
                raise OverflowError("planted")
            if failure == "exit":
                os._exit(0)         # a short read: nothing was written
            os.kill(os.getpid(), signal.SIGKILL)
        return defect(om, dec, rho)
    on_cpus(monkeypatch, (0,))
    serial = cli.run_suite("pushforward", 2, 3, 1e-8)
    monkeypatch.setattr(suites, "pushforward_commutes_defect",
                        failing_in_a_child)
    on_cpus(monkeypatch, (0, 1))
    assert cli.run_suite("pushforward", 2, 3, 1e-8) == serial
    assert len(forks) == 1
    assert_no_child_left()


def test_a_raise_in_this_processs_share_kills_the_child(monkeypatch):
    def planted():
        raise ZeroDivisionError("planted")

    def slow():
        time.sleep(60)
        return []
    tasks = [(2, planted), (1, slow)]
    assert suites._child_share([2, 1]) == [False, True]
    on_cpus(monkeypatch, (0, 1))
    t0 = time.monotonic()
    with pytest.raises(ZeroDivisionError, match="planted"):
        suites.evaluate(Worst(), tasks)
    assert time.monotonic() - t0 < 30
    assert_no_child_left()
