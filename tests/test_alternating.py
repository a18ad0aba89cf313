"""The `alternating` flag of a cochain and the sorted-support file format.

A flagged cochain's value on any ordering of a support is its sorted value
times the sign of the permutation.  These tests walk every ordering of
every support of each flagged cochain the battery builds, check that the
operators which are not alternating give unflagged results, and that a
flagged cochain's file (one record per sorted support) loads back as the
same cochain on every ordering.
"""

import copy
import hashlib
import json
import math

import numpy as np
import pytest

from gerbekit import cli, cochain, serialize
from gerbekit.cochain import from_global_form, homotopy_k, restrict, total_d
from gerbekit.covers import refine, two_subordinations
from gerbekit.fiberint import pushforward, pushforward_homotopy
from gerbekit.suites import (circle_setup, random_alternating_cochain,
                             random_cocycle, torus_setup)
from gerbekit.trigform import TrigForm

COVERS = ["circle:4:0.7", "torus:3:3:0.75",
          "product:circle:3:0.6|circle:4:0.7"]
SEEDS = [0, 1, 2]
TOL = 1e-13


def inversion_sign(idx) -> int:
    """(-1)^(number of inversions of idx), counted apart from the library's
    sign helpers."""
    inversions = sum(a > b for i, a in enumerate(idx) for b in idx[i + 1:])
    return -1 if inversions % 2 else 1


def magnitude(value) -> float:
    """Largest coefficient magnitude of a level value; m counts as 2 pi |m|."""
    if isinstance(value, TrigForm):
        return value.max_abs()
    return 2 * math.pi * abs(value)


def gap(a, b) -> float:
    return magnitude(a - b)


def ordering_defect(om, ref=None) -> float:
    """Largest gap, over every ordering of every support, between om and
    sign x ref's sorted value (ref defaults to om itself)."""
    ref = om if ref is None else ref
    worst = 0.0
    for r in range(1, om.degree + 3):
        if om.level_degree(r) > om.ambient_dim:
            continue
        for idx in om.cover.nonempty_tuples(r):
            want = ref.component(tuple(sorted(idx)))
            if inversion_sign(idx) < 0:
                want = -1 * want
            worst = max(worst, gap(om.component(idx), want))
    return worst


def flagged_cochains(cover_id, seed):
    """Each flagged cochain the battery makes on one cover: random
    alternating cochains and cocycles, their total_d, restrict, sums,
    differences and negations."""
    cover = serialize.cover_from_id(cover_id)
    rng = np.random.default_rng(seed)
    a = random_alternating_cochain(rng, cover, cover.factors, cover.factors)
    b = random_alternating_cochain(rng, cover, cover.factors, cover.factors)
    c = random_cocycle(rng, cover, cover.factors)
    _, s1, _ = refine(cover, 2)
    return {"alternating": a, "cocycle": c, "total_d": total_d(a),
            "total_d(cocycle)": total_d(c), "restrict": restrict(a, s1),
            "restrict(cocycle)": restrict(c, s1), "sum": a + b,
            "difference": a - c, "negation": -b}


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("cover_id", COVERS)
def test_every_flagged_cochain_is_alternating(cover_id, seed):
    for name, om in flagged_cochains(cover_id, seed).items():
        assert om.alternating, name
        assert ordering_defect(om) <= TOL, name


def test_the_ordering_walk_sees_a_cochain_that_is_not_alternating():
    # the homotopy reads omega at mixed indices: its permuted values are
    # not the signed sorted ones
    cover = serialize.cover_from_id("torus:3:3:0.55")
    om = random_alternating_cochain(np.random.default_rng(0), cover, 2, 2)
    fine, s1, s2 = refine(cover, 2)
    assert ordering_defect(homotopy_k(om, s1, s2)) > 1.0


def every_ordering(om) -> dict:
    """om's nonzero values at () and on every ordering of every support,
    read one `component` lookup at a time (a NaN counts as nonzero)."""
    slots = {}
    for r in range(om.degree + 3):
        if om.level_degree(r) > om.ambient_dim:
            continue
        for idx in om.cover.nonempty_tuples(r) if r else [()]:
            value = om.component(idx)
            if not magnitude(value) <= 0.0:
                slots[idx] = value
    return slots


def every_ordering_defect(om) -> float:
    """max_defect as the fold over every ordering of every support."""
    return max(map(magnitude, every_ordering(om).values()), default=0.0)


def every_ordering_cochain(om):
    """The unflagged cochain of om's values on every ordering."""
    return cochain.DiffCochain(om.degree, om.cover,
                               components=every_ordering(om))


def crossmodule_instance(seed):
    """The flat cocycle of suite_crossmodule plus a coboundary."""
    cover, _ = torus_setup()
    rng = np.random.default_rng(seed)
    h = float(rng.uniform(0.3, 5.5))
    T = (h / (4 * math.pi ** 2)) * TrigForm.monomial(2, (0, 0), (0, 1), 1.0)
    xi = random_alternating_cochain(rng, cover, 1, 2,
                                    with_field_strength=False)
    return from_global_form(T, cover) + total_d(xi)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("cover_id", COVERS)
def test_the_sorted_walk_agrees_with_the_walk_over_every_ordering(cover_id,
                                                                  seed):
    # max_defect walks a flagged cochain on its sorted supports alone
    oms = flagged_cochains(cover_id, seed)
    oms["total_d(total_d)"] = total_d(oms["total_d"])
    oms["crossmodule"] = crossmodule_instance(seed)
    oms["total_d(crossmodule)"] = total_d(oms["crossmodule"])
    for name, om in oms.items():
        assert om.alternating, name
        assert abs(om.max_defect() - every_ordering_defect(om)) <= TOL, name


def test_an_unflagged_cochain_is_walked_on_every_ordering():
    cover = serialize.cover_from_id("circle:4:0.7")
    om = cochain.DiffCochain(1, cover,
                             components={(1, 0): TrigForm.constant(1, 0.5)})
    assert not om.alternating
    assert om.component((0, 1)).is_zero()
    assert om.max_defect() == 0.5


def test_operators_that_are_not_alternating_clear_the_flag():
    cover = serialize.cover_from_id("circle:4:0.55")
    om = random_alternating_cochain(np.random.default_rng(4), cover, 1, 1)
    fine, s1, s2 = refine(cover, 2)
    k = homotopy_k(om, s1, s2)
    assert om.alternating and not k.alternating
    # a sum is flagged only when both terms are
    assert not (restrict(om, s1) + total_d(k)).alternating
    assert not cochain.DiffCochain(1, cover).alternating
    # the push-forwards along a circle fibre
    fiber, dec = circle_setup()
    prod = serialize.cover_from_id("product:circle:3:0.6|circle:4:0.7")
    rng = np.random.default_rng(5)
    om = random_alternating_cochain(rng, prod, 2, 2)
    rho, rho2 = two_subordinations(dec, fiber, rng)
    assert om.alternating
    assert not pushforward(om, dec, rho).alternating
    assert not pushforward_homotopy(om, dec, rho, rho2).alternating


def _records(rec):
    return rec["components"] + rec["integer_components"]


def _roundtrip(om):
    rec = json.loads(json.dumps(serialize.cochain_to_dict(
        om, om.cover.cover_id)))
    return rec, serialize.cochain_from_dict(rec)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("cover_id", COVERS)
def test_a_flagged_cochain_loads_back_on_every_ordering(cover_id, seed):
    for name, om in flagged_cochains(cover_id, seed).items():
        if om.cover.cover_id != cover_id:      # restrict: a refined cover
            continue
        rec, back = _roundtrip(om)
        assert rec["alternating"] is True and back.alternating, name
        for entry in _records(rec):
            assert entry["indices"] == sorted(entry["indices"]), name
        assert ordering_defect(back, om) <= TOL, name
        assert gap(back.field_strength, om.field_strength) == 0.0, name


def test_a_loader_that_drops_the_permutation_sign_fails(monkeypatch):
    om = random_cocycle(np.random.default_rng(0),
                        serialize.cover_from_id("torus:3:3:0.75"), 2)
    rec, back = _roundtrip(om)
    assert ordering_defect(back, om) <= TOL
    monkeypatch.setattr(cochain, "_axes_sign",
                        lambda idx: (tuple(sorted(idx)), 1))
    unsigned = serialize.cochain_from_dict(rec)
    assert ordering_defect(unsigned, om) > 1.0


def test_an_unflagged_cochain_is_written_on_every_ordering():
    # a push-forward is not alternating: its file lists every ordering, with
    # no "alternating" key, and loads back unflagged
    fiber, dec = circle_setup()
    prod = serialize.cover_from_id("product:circle:3:0.6|circle:4:0.7")
    rng = np.random.default_rng(5)
    om = random_alternating_cochain(rng, prod, 2, 2)
    rho, _ = two_subordinations(dec, fiber, rng)
    pushed = pushforward(om, dec, rho)
    rec = serialize.cochain_to_dict(pushed, "circle:3:0.6")
    assert "alternating" not in rec
    assert any(e["indices"] != sorted(e["indices"]) for e in _records(rec))
    back = serialize.cochain_from_dict(rec)
    assert not back.alternating
    assert rec == serialize.cochain_to_dict(back, "circle:3:0.6")


def test_the_pushforward_input_holds_one_record_per_nonzero_sorted_support():
    # the pinned `pushforward` input: 114 records, against 540 when every
    # ordering was listed
    cover_id = "product:circle:3:0.6|circle:4:0.7"
    cover = serialize.cover_from_id(cover_id)
    om = random_alternating_cochain(np.random.default_rng(7), cover, 2, 2)
    records = _records(serialize.cochain_to_dict(om, cover_id))
    assert len(records) == 114
    nonzero = [s for r in range(1, 5) for s in cover.supports(r)
               if magnitude(om.component(s)) > 0]
    assert sorted(tuple(e["indices"]) for e in records) == sorted(nonzero)
    every = _records(serialize.cochain_to_dict(every_ordering_cochain(om),
                                               cover_id))
    assert len(every) == 540


# -- the loader's refusals ---------------------------------------------------

def _holonomy_file(tmp_path, rec):
    path = tmp_path / "in.json"
    path.write_text(json.dumps(rec))
    return ["holonomy", "--cochain", str(path), "--decomposition",
            "circle:20"]


def _good_alternating_record():
    om = random_cocycle(np.random.default_rng(5),
                        serialize.cover_from_id("circle:4:0.7"), 1)
    rec = serialize.cochain_to_dict(om, "circle:4:0.7")
    assert rec["alternating"] is True
    return rec


def _unsorted(rec):
    entry = next(e for e in rec["components"] if len(e["indices"]) == 2)
    entry["indices"].reverse()
    return rec, f"index {entry['indices']} is not increasing"


def _two_orderings(rec):
    entry = next(e for e in rec["components"] if len(e["indices"]) == 2)
    twin = copy.deepcopy(entry)
    twin["indices"].reverse()
    rec["components"].append(twin)
    return rec, f"index {twin['indices']} is not increasing"


@pytest.mark.parametrize("plant", [
    _unsorted, _two_orderings,
    lambda rec: (dict(rec, alternating=1), "'alternating' has the wrong type"),
    lambda rec: (dict(rec, alternating="true"),
                 "'alternating' has the wrong type"),
    lambda rec: (dict(rec, alternating=None),
                 "'alternating' has the wrong type"),
], ids=["unsorted-index", "two-orderings", "int-flag", "string-flag",
        "null-flag"])
def test_the_loader_refuses_a_malformed_alternating_file(tmp_path, capsys,
                                                         plant):
    rec, message = plant(_good_alternating_record())
    assert cli.main(_holonomy_file(tmp_path, rec)) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and message in err


def _legacy_text(om, cover_id) -> str:
    """om's file in the indented layout files were once written in."""
    return json.dumps(serialize.cochain_to_dict(om, cover_id), indent=1,
                      sort_keys=True)


def test_a_file_listing_every_ordering_still_loads(tmp_path, capsys):
    # the pinned `holonomy-circle:20` input as it was written before the
    # flag existed: every ordering, no "alternating" key, indented; it
    # loads and prints the pinned stdout
    om = random_cocycle(np.random.default_rng(5),
                        serialize.cover_from_id("circle:4:0.7"), 1)
    path = tmp_path / "in.json"
    path.write_text(_legacy_text(every_ordering_cochain(om), "circle:4:0.7"))
    assert "alternating" not in json.loads(path.read_text())
    assert hashlib.sha256(path.read_bytes()).hexdigest() == \
        "1e8045110a4380f2005c81cbeb8fcd396abf84963691fa5709ae61e9c15eb05e"
    assert cli.main(["holonomy", "--cochain", str(path),
                     "--decomposition", "circle:20"]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == \
        "802eb874fabbf91f3427727ad99a19ce4b1bf1e4cb6b19918df2530cdebdd526"


@pytest.mark.parametrize("cover_id", COVERS)
def test_an_indented_file_loads_as_its_compact_file(tmp_path, cover_id):
    # a flagged cochain saved in the old indented layout and in the one-line
    # layout save_cochain writes: both load to the same record
    cover = serialize.cover_from_id(cover_id)
    om = random_alternating_cochain(np.random.default_rng(3), cover, 1,
                                    cover.factors)
    compact, indented = tmp_path / "compact.json", tmp_path / "indented.json"
    serialize.save_cochain(str(compact), om, cover_id)
    indented.write_text(_legacy_text(om, cover_id))
    assert compact.read_text().count("\n") == 0
    assert indented.read_text().count("\n") > 0
    rec = serialize.cochain_to_dict(om, cover_id)
    assert rec["alternating"] is True
    for path in (compact, indented):
        back = serialize.load_cochain(str(path))
        assert back.alternating
        assert serialize.cochain_to_dict(back, cover_id) == rec
