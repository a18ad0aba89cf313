import copy
import hashlib
import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gerbekit import cli, liecs, serialize, suites
from gerbekit.cochain import DiffCochain, from_global_form, total_d
from gerbekit.covers import make_torus_cover, two_subordinations
from gerbekit.fiberint import pushforward
from gerbekit.holonomy import nearest_2pi_multiple_defect
from gerbekit.suites import random_alternating_cochain, random_cocycle
from gerbekit.trigform import TrigForm


def test_cover_ids_roundtrip():
    c = serialize.cover_from_id("circle:4:0.7")
    assert len(c.pieces) == 4
    t = serialize.cover_from_id("torus:3:3:0.6")
    assert len(t.pieces) == 9
    p = serialize.cover_from_id("product:circle:3:0.6|circle:4:0.7")
    assert len(p.pieces) == 12


def test_decomposition_ids():
    assert serialize.decomposition_from_id("circle:8").dim == 1
    assert serialize.decomposition_from_id("hex:4").dim == 2
    with pytest.raises(ValueError):
        serialize.decomposition_from_id("simplex:3")


def test_an_id_names_one_shared_object():
    for from_id, ident in ((serialize.cover_from_id, "torus:3:3:0.6"),
                           (serialize.cover_from_id,
                            "product:circle:3:0.6|circle:4:0.7"),
                           (serialize.decomposition_from_id, "hex:6"),
                           (serialize.decomposition_from_id, "circle:20")):
        assert from_id(ident) is from_id(ident)
    product = serialize.cover_from_id("product:circle:3:0.6|circle:4:0.7")
    assert product.factor_covers[0] is serialize.cover_from_id("circle:3:0.6")


def test_a_torus_id_is_the_product_of_its_cached_circle_covers():
    torus = serialize.cover_from_id("torus:3:3:0.75")
    circle = serialize.cover_from_id("circle:3:0.75")
    assert all(f is circle for f in torus.factor_covers)
    assert torus.pieces == make_torus_cover(3, 3, 0.75).pieces
    assert circle.cover_id == "circle:3:0.75"


@pytest.mark.parametrize("from_id, ident, message", [
    (serialize.cover_from_id, "circle:2:0.5", "at least 3 arcs"),
    (serialize.cover_from_id, "sphere:3", "unknown cover id"),
    (serialize.decomposition_from_id, "hex:2", "must be >= 3"),
    (serialize.decomposition_from_id, "simplex:3", "unknown decomposition"),
    # a product id with no "|", with two, or with an empty side is named
    (serialize.cover_from_id, "product:circle:3:0.6",
     re.escape("cover id product:circle:3:0.6 is not product:ID|ID")),
    (serialize.cover_from_id, "product:A|B|C",
     re.escape("cover id product:A|B|C is not product:ID|ID")),
    (serialize.cover_from_id, "product:circle:3:0.6|",
     re.escape("cover id product:circle:3:0.6| is not product:ID|ID")),
    # an id that fails to parse or to build is named whole, also when the
    # failure arises in a circle cover of a torus id or a side of a product
    (serialize.cover_from_id, "circle:x:0.7",
     re.escape("cover id circle:x:0.7: invalid literal for int()")),
    (serialize.cover_from_id, "torus:3:3:abc",
     re.escape("cover id torus:3:3:abc: ") + ".*could not convert"),
    (serialize.cover_from_id, "circle:4:9",
     re.escape("cover id circle:4:9: overlap must lie in (0, pi/N)")),
    (serialize.cover_from_id, "torus:3:3:1.2",
     re.escape("cover id torus:3:3:1.2: ") + ".*overlap must lie in"),
    (serialize.decomposition_from_id, "hex:x",
     re.escape("decomposition id hex:x: invalid literal for int()")),
    (serialize.decomposition_from_id, "circle:1e3",
     re.escape("decomposition id circle:1e3: invalid literal for int()")),
    (serialize.cover_from_id, "product:foo|circle:3:0.6",
     re.escape("cover id product:foo|circle:3:0.6: unknown cover id: foo")),
])
def test_a_bad_id_raises_on_every_call(from_id, ident, message):
    for _ in range(3):
        with pytest.raises(ValueError, match=message):
            from_id(ident)


@pytest.mark.parametrize("other", ["circle:5:0.6", "circle:4:0.3",
                                   "torus:4:4:0.7"],
                         ids=["other-N", "other-overlap", "other-factors"])
def test_a_cochain_is_saved_only_under_an_id_of_its_cover(tmp_path, other):
    # under another id the file would load as another cochain: on
    # circle:5:0.3 this one's holonomy read 28.23 instead of 37.70
    om = random_cocycle(np.random.default_rng(5),
                        serialize.cover_from_id("circle:4:0.7"), 1)
    path = tmp_path / "om.json"
    with pytest.raises(ValueError, match=re.escape(
            f"cover id {other} names another cover")):
        serialize.save_cochain(str(path), om, other)
    assert not path.exists()
    serialize.save_cochain(str(path), om, "circle:4:0.7")
    assert serialize.load_cochain(str(path)).cover is om.cover


def test_cochain_file_roundtrip(tmp_path):
    rng = np.random.default_rng(0)
    cover_id = "circle:4:0.55"
    cover = serialize.cover_from_id(cover_id)
    om = random_alternating_cochain(rng, cover, 1, 1)
    path = tmp_path / "om.json"
    serialize.save_cochain(str(path), om, cover_id)
    om2 = serialize.load_cochain(str(path))
    assert om2.degree == om.degree
    diff = 0.0
    for idx in cover.nonempty_tuples(1) + cover.nonempty_tuples(2):
        diff = max(diff, (om.component(idx) - om2.component(idx)).max_abs())
    assert diff < 1e-14
    for idx in cover.nonempty_tuples(3):
        assert om.component(idx) == om2.component(idx)


def test_cochain_files_are_deterministic(tmp_path):
    rng = np.random.default_rng(1)
    cover_id = "circle:4:0.55"
    cover = serialize.cover_from_id(cover_id)
    om = random_alternating_cochain(rng, cover, 1, 1)
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    serialize.save_cochain(str(p1), om, cover_id)
    serialize.save_cochain(str(p2), om, cover_id)
    assert p1.read_bytes() == p2.read_bytes()


def test_cli_lattice_counts(capsys):
    rc = cli.main(["lattice", "--name", "e8", "--enumerate-norm", "4"])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert out["counts"] == {"0": 1, "2": 240, "4": 2160}


def test_cli_theta_matches_library(capsys):
    rc = cli.main(["theta", "--lattice", "e8", "--tau", "0,2", "--z", "zeros"])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    from gerbekit.modform import theta_lattice
    from gerbekit.lattice import builtin
    ref = theta_lattice(builtin("e8"), 2j, [0] * 8)
    assert abs(complex(out["value_re"], out["value_im"]) - ref) < 1e-12
    assert out["terms_summed"] > 0


def test_cli_act_shift(capsys):
    rc = cli.main(["act", "--element", '{"S": [1, 1, 0, 1]}',
                   "--point", '{"tau": [0, 2], "z": [[0.1, 0]]}'])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert out["tau"] == [1.0, 2.0]
    assert out["z"] == [[0.1, 0.0]]


def test_cli_act_with_an_image_below_the_tau_minimum_exits_1(capsys):
    # S maps tau = 30i to i/30, below Im tau = 0.05: ModuliPoint refuses it
    rc = cli.main(["act", "--element", '{"S": [0, -1, 1, 0]}',
                   "--point", '{"tau": [0, 30], "z": [[0, 0]]}'])
    out, err = capsys.readouterr()
    assert rc == 1 and out == ""
    assert err.startswith("error: ") and "Traceback" not in err
    assert "below the admissible minimum" in err


def test_cli_factor_weyl_is_one(capsys):
    import numpy as np
    from gerbekit.lattice import builtin, roots
    from gerbekit.modform import reflection_element
    w = reflection_element(builtin("e8e8"), roots(builtin("e8e8"))[0])
    elem = json.dumps({"W": [list(map(int, row)) for row in w.w]})
    point = json.dumps({"tau": [0, 2], "z": [[0.0, 0.0]] * 16})
    rc = cli.main(["factor", "--family", "char", "--lattice", "e8e8",
                   "--element", elem, "--point", point])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert abs(complex(out["value_re"], out["value_im"]) - 1) < 1e-12


def test_cli_factor_reports_only_the_value(capsys):
    # factor evaluates closed forms: no tolerance, no series terms
    point = json.dumps({"tau": [0, 2], "z": [[0.1, 0.0]] * 16})
    args = ["factor", "--family", "char", "--lattice", "e8e8",
            "--element", json.dumps({"S": [1, 1, 0, 1]}), "--point", point]
    assert cli.main(args) == 0
    assert set(json.loads(capsys.readouterr().out)) == {"value_re", "value_im"}
    with pytest.raises(SystemExit) as exc:
        cli.main(args + ["--tol", "1e-12"])
    assert exc.value.code == 2


def test_cli_holonomy_subcommand(tmp_path, capsys):
    import math
    from gerbekit.cochain import from_global_form
    from gerbekit.trigform import TrigForm
    cover_id = "circle:4:0.7"
    cover = serialize.cover_from_id(cover_id)
    om = from_global_form(TrigForm.monomial(1, (0,), (0,), 0.5), cover)
    path = tmp_path / "om.json"
    serialize.save_cochain(str(path), om, cover_id)
    rc = cli.main(["holonomy", "--cochain", str(path),
                   "--decomposition", "circle:20"])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert abs(out["value"] - math.pi) < 1e-10


@pytest.mark.parametrize("cocycle", [True, False],
                         ids=["cocycle", "non-cocycle"])
def test_cli_holonomy_reports_the_cocycle_defect_on_stderr(
        tmp_path, monkeypatch, capsys, cocycle):
    monkeypatch.chdir(tmp_path)
    cover_id = "circle:4:0.7"
    cover = serialize.cover_from_id(cover_id)
    rng = np.random.default_rng(5)
    om = random_cocycle(rng, cover, 1) if cocycle \
        else random_alternating_cochain(rng, cover, 1, cover.factors)
    serialize.save_cochain("in.json", om, cover_id)
    argv = ["holonomy", "--cochain", "in.json", "--decomposition", "circle:20"]
    assert cli.main(argv) == 0
    out, err = capsys.readouterr()
    json.loads(out)
    lines = err.splitlines()
    defect = total_d(serialize.load_cochain("in.json")).max_defect()
    assert lines[0] == f"cocycle defect: {defect:.3e}"
    assert (defect <= 1e-10) is cocycle
    assert len(lines) == (1 if cocycle else 2)
    if not cocycle:
        assert lines[1].startswith("warning: the cochain is not a cocycle")


# SHA-256 of `verify --suite all --seed 0`'s stdout, and of its stderr with
# each suite's wall time blanked: the check and summary lines are pinned,
# and the wall time appears only there.  Both moved when the cochain and
# pushforward suites began drawing their forms without conjugate partners
VERIFY_ALL_SEED_0 = {
    "stdout": "ea6ab38729bc3528cec3c16886f57107c5bc4f490d5fd918ead92f5aae55ef2f",
    "stderr": "94e22ebf73e060a1827f6f2d0f784f0655c7e723a002103fae84153d3bca9a0d"}


def test_cli_verify_all_writes_the_pinned_report_and_check_lines(capsys):
    assert cli.main(["verify", "--suite", "all", "--seed", "0"]) == 0
    out, err = capsys.readouterr()
    summaries = re.findall(r"^suite \w+: PASS \((\d+\.\d)s\)$", err, re.M)
    assert len(summaries) == len(cli.SUITES)
    blanked = re.sub(r"\(\d+\.\ds\)$", "(s)", err, flags=re.M)
    assert {"stdout": hashlib.sha256(out.encode()).hexdigest(),
            "stderr": hashlib.sha256(blanked.encode()).hexdigest()} \
        == VERIFY_ALL_SEED_0


def test_cli_pushforward_subcommand(tmp_path, capsys):
    rng = np.random.default_rng(2)
    cover_id = "product:circle:3:0.6|circle:4:0.7"
    cover = serialize.cover_from_id(cover_id)
    om = random_cocycle(rng, cover, 2)
    src = tmp_path / "om.json"
    dst = tmp_path / "out.json"
    serialize.save_cochain(str(src), om, cover_id)
    rc = cli.main(["pushforward", "--cochain", str(src),
                   "--decomposition", "circle:20",
                   "--output", str(dst)])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert out["degree"] == 1
    assert out["stokes_defect"] < 1e-10
    pushed = serialize.load_cochain(str(dst))
    assert pushed.degree == 1


def test_cli_verify_report_deterministic(tmp_path, capsys):
    r1, r2 = tmp_path / "r1.json", tmp_path / "r2.json"
    for r in (r1, r2):
        rc = cli.main(["verify", "--suite", "lattice", "--trials", "1",
                       "--seed", "0", "--tol", "1e-9",
                       "--report", str(r)])
        assert rc == 0
    capsys.readouterr()
    assert r1.read_bytes() == r2.read_bytes()


def test_cli_verify_opens_the_report_file_before_running_a_suite(
        tmp_path, monkeypatch, capsys):
    ran = []
    monkeypatch.setitem(cli.SUITES, "lattice",
                        lambda trials, seed: ran.append(seed) or [])
    path = tmp_path / "no-such-dir" / "x.json"
    assert cli.main(["verify", "--suite", "lattice",
                     "--report", str(path)]) == 1
    out, err = capsys.readouterr()
    assert ran == [] and out == ""
    assert err.startswith("error: ") and str(path) in err
    assert len(err.splitlines()) == 1


def test_cli_verify_keeps_an_old_report_when_a_suite_raises(
        tmp_path, monkeypatch, capsys):
    def raises(trials, seed):
        raise OverflowError("planted")
    monkeypatch.setitem(cli.SUITES, "lattice", raises)
    path = tmp_path / "x.json"
    path.write_text('{"old": 1}')
    assert cli.main(["verify", "--suite", "lattice",
                     "--report", str(path)]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err == "error: planted\n"
    assert path.read_text() == '{"old": 1}'


def test_cli_bad_flags_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "--suite", "nope"])
    assert exc.value.code == 2
    rc = cli.main(["theta", "--lattice", "nope", "--tau", "0,2"])
    assert rc == 1


def _pushforward_input(tmp_path, cover_id, degree=2):
    cover = serialize.cover_from_id(cover_id)
    om = random_cocycle(np.random.default_rng(2), cover, degree)
    src = tmp_path / "om.json"
    serialize.save_cochain(str(src), om, cover_id)
    return src


@pytest.mark.parametrize("cover_id, base_id", [
    ("product:circle:3:0.6|circle:4:0.7", "circle:3:0.6"),
    ("torus:3:4:0.6", "circle:3:0.6"),
    ("torus:3:3:0.6", "circle:3:0.6"),
])
def test_cli_pushforward_output_cover_id_is_derived(tmp_path, capsys,
                                                     cover_id, base_id):
    src = _pushforward_input(tmp_path, cover_id)
    dst = tmp_path / "out.json"
    rc = cli.main(["pushforward", "--cochain", str(src),
                   "--decomposition", "circle:20", "--output", str(dst)])
    assert rc == 0
    assert json.loads(capsys.readouterr().out)["degree"] == 1
    assert json.loads(dst.read_text())["cover_id"] == base_id
    pushed = serialize.load_cochain(str(dst))
    assert pushed.degree == 1
    assert len(pushed.cover.pieces) == 3


def test_cli_pushforward_usage_errors(tmp_path, capsys):
    dst = tmp_path / "out.json"
    flat = tmp_path / "flat.json"
    cover = serialize.cover_from_id("circle:4:0.7")
    om = from_global_form(TrigForm.monomial(1, (0,), (0,), 0.5), cover)
    serialize.save_cochain(str(flat), om, "circle:4:0.7")
    rc = cli.main(["pushforward", "--cochain", str(flat),
                   "--decomposition", "circle:20", "--output", str(dst)])
    assert rc == 2
    assert "product cover" in capsys.readouterr().err
    assert not dst.exists()


def test_cli_refuses_a_file_whose_forms_live_on_another_torus(tmp_path,
                                                              capsys):
    # a degree-1 cocycle on T^1, relabelled as living on the T^2 cover
    om = random_cocycle(np.random.default_rng(3),
                        serialize.cover_from_id("circle:4:0.7"), 1)
    rec = serialize.cochain_to_dict(om, "circle:4:0.7")
    rec["cover_id"] = "torus:3:3:0.6"
    path = tmp_path / "relabelled.json"
    path.write_text(json.dumps(rec))
    rc = cli.main(["holonomy", "--cochain", str(path),
                   "--decomposition", "circle:20"])
    out, err = capsys.readouterr()
    assert rc == 1 and out == ""
    assert err.startswith("error: ")
    assert "on T^2, the torus of its cover" in err


@pytest.mark.parametrize("degree, components", [(-2, {(): 1}), (-3, {})])
def test_a_cochain_below_degree_minus_one_is_refused_by_its_degree(
        tmp_path, degree, components):
    # at degree -2 the empty index is the integer row, which no file holds
    om = DiffCochain(degree, serialize.cover_from_id("circle:4:0.55"),
                     components=components)
    refusal = f"a cochain of degree {degree} cannot be saved"
    with pytest.raises(ValueError, match=refusal):
        serialize.cochain_to_dict(om, "circle:4:0.55")
    path = tmp_path / "low.json"
    with pytest.raises(ValueError, match=refusal):
        serialize.save_cochain(str(path), om, "circle:4:0.55")
    assert not path.exists()


def test_a_degree_minus_one_cochain_loads_back():
    cover = serialize.cover_from_id("circle:4:0.55")
    om = DiffCochain(-1, cover, components={(0,): 2, (3,): -1,
                                            (): TrigForm.constant(1, 0.5)})
    back = serialize.cochain_from_dict(
        serialize.cochain_to_dict(om, "circle:4:0.55"))
    assert back.degree == -1
    assert [back.component((i,)) for i in range(4)] == [2, 0, 0, -1]
    assert back.field_strength.terms == om.field_strength.terms


def test_cli_refuses_a_field_strength_on_a_top_degree_file(tmp_path,
                                                          capsys):
    # T^2 has no 3-form, so a degree-2 cochain on it has no field strength
    cover_id = "product:circle:3:0.6|circle:4:0.7"
    om = random_alternating_cochain(np.random.default_rng(7),
                                    serialize.cover_from_id(cover_id), 2, 2)
    rec = serialize.cochain_to_dict(om, cover_id)
    rec["field_strength"]["terms"] = [{"freq": [0, 0], "axes": [0, 1],
                                       "re": 5.0, "im": 0.0}]
    path = tmp_path / "in.json"
    path.write_text(json.dumps(rec))
    rc = cli.main(["pushforward", "--cochain", str(path), "--decomposition",
                   "circle:20", "--output", str(tmp_path / "out.json")])
    out, err = capsys.readouterr()
    assert rc == 1 and out == ""
    assert err == ("error: a degree-2 cochain on T^2 has no field strength: "
                   "T^2 has no 3-form\n")
    assert not (tmp_path / "out.json").exists()


@pytest.mark.parametrize("argv, cover_id, degree", [
    (["holonomy", "--decomposition", "circle:20"], "circle:4:0.7", 1),
    (["pushforward", "--decomposition", "circle:20"],
     "product:circle:3:0.6|circle:4:0.7", 2),
], ids=["holonomy", "pushforward"])
def test_a_cochain_without_a_field_strength_writes_an_empty_record(
        tmp_path, monkeypatch, capsys, argv, cover_id, degree):
    # the record is always written; a file with "field_strength": null
    # still loads, as the same cochain
    monkeypatch.chdir(tmp_path)
    cover = serialize.cover_from_id(cover_id)
    om = random_alternating_cochain(np.random.default_rng(8), cover, degree,
                                    cover.factors)
    rec = serialize.cochain_to_dict(om, cover_id)
    assert rec["field_strength"] == {"ambient_dim": cover.factors,
                                     "degree": cover.factors, "terms": []}
    outs = []
    for fs in (rec["field_strength"], None):
        rec["field_strength"] = fs
        (tmp_path / "in.json").write_text(json.dumps(rec))
        assert cli.main(argv + ["--cochain", "in.json"]) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]


@pytest.mark.parametrize("command, cover_id, make", [
    ("holonomy", "torus:3:3:0.75",
     lambda rng, cover: random_cocycle(rng, cover, 1)),
    ("pushforward", "product:circle:3:0.6|torus:3:3:0.75",
     lambda rng, cover: from_global_form(suites.random_real_form(rng, 3, 1),
                                         cover)),
], ids=["holonomy", "pushforward"])
def test_cli_refuses_a_decomposition_of_another_dimension(
        tmp_path, capsys, command, cover_id, make):
    # circle:20 is 1-dimensional; the cover (holonomy) or its fiber
    # (pushforward) is T^2
    om = make(np.random.default_rng(4), serialize.cover_from_id(cover_id))
    path = tmp_path / "om.json"
    serialize.save_cochain(str(path), om, cover_id)
    rc = cli.main([command, "--cochain", str(path),
                   "--decomposition", "circle:20"])
    out, err = capsys.readouterr()
    assert rc == 1 and out == ""
    assert err == ("error: a 1-dimensional decomposition does not fit a "
                   "cover of T^2\n")



def test_cli_pushforward_pushes_the_input_forward_once(tmp_path, monkeypatch,
                                                        capsys):
    # the Stokes defect reuses the push-forward written by --output: one
    # push-forward of omega and one of D(omega)
    from gerbekit import fiberint
    cover_id = "product:circle:3:0.6|circle:4:0.7"
    src, dst = tmp_path / "om.json", tmp_path / "out.json"
    om = random_alternating_cochain(np.random.default_rng(2),
                                    serialize.cover_from_id(cover_id), 2, 2)
    serialize.save_cochain(str(src), om, cover_id)
    degrees = []
    push = fiberint.pushforward

    def counting(omega, *args):
        degrees.append(omega.degree)
        return push(omega, *args)

    monkeypatch.setattr(fiberint, "pushforward", counting)
    monkeypatch.setattr(cli, "pushforward", counting)
    rc = cli.main(["pushforward", "--cochain", str(src), "--decomposition",
                   "circle:20", "--output", str(dst)])
    assert rc == 0 and json.loads(capsys.readouterr().out)["degree"] == 1
    assert sorted(degrees) == [2, 3]


# Each patch makes one suite's defects NaN at their source; the builtin
# max(worst, nan) would keep `worst` and report a pass.
NAN_SOURCES = {
    "cochain": [(DiffCochain, "max_defect")],
    "pushforward": [(DiffCochain, "max_defect"),
                    (suites, "pushforward_commutes_defect"),
                    (suites, "homotopy_residual")],
    "holonomy": [(suites, "holonomy"),
                 (suites, "nearest_2pi_multiple_defect")],
    "chernsimons": [(TrigForm, "max_abs"), (liecs.LieValuedForm, "max_abs"),
                    (liecs, "gauge_variation_defect"),
                    (liecs, "bracket_oracle_value")],
    "crossmodule": [(suites, "classify_flat_2cocycle")],
    "modular": [(suites, name) for name in (
        "eta", "eta_multiplier", "theta1", "transform_defect", "theta_lattice",
        "theta_lattice_enum", "cocycle_defect", "factor",
        "measure_extra_multiplier")],
}


@pytest.mark.parametrize("suite", sorted(NAN_SOURCES))
def test_nan_defect_fails_every_check(monkeypatch, suite):
    for owner, name in NAN_SOURCES[suite]:
        monkeypatch.setattr(owner, name, lambda *args, **kw: math.nan)
    report = cli.run_suite(suite, 2, 0, 1e-8)
    assert report["checks"]
    for check in report["checks"]:
        assert math.isnan(check["max_defect"]), check
        assert check["pass"] is False
    assert not report["all_pass"]


def test_nearest_2pi_multiple_defect_of_non_finite_is_nan():
    assert math.isnan(nearest_2pi_multiple_defect(math.nan))
    assert math.isnan(nearest_2pi_multiple_defect(math.inf))
    assert nearest_2pi_multiple_defect(2 * math.pi + 0.25) == pytest.approx(0.25)


def test_nearest_2pi_multiple_defect_of_pi_is_pi():
    # pi is the farthest point from 2 pi Z; a version that accepted
    # multiples of pi would read 0 here
    assert nearest_2pi_multiple_defect(math.pi) == math.pi
    assert nearest_2pi_multiple_defect(-math.pi) == math.pi


@pytest.mark.parametrize("k", [-1, 1, 3, 5, 2, 4])
def test_nearest_2pi_multiple_defect_tells_2pi_from_pi(k):
    # an odd multiple of pi is pi away from 2 pi Z; a check that reduced
    # mod pi would read 0 there
    expected = math.pi if k % 2 else 0.0
    assert nearest_2pi_multiple_defect(k * math.pi) == pytest.approx(
        expected, abs=1e-12)


def circle_gap_reference(a, b):
    """The distance on R/2piZ between a and b in [0, 2pi), written out as
    min(|a - b|, ||a - b| - 2pi|)."""
    delta = abs(a - b)
    return min(delta, abs(delta - 2 * math.pi))


def test_the_circle_distance_is_the_2pi_multiple_defect_of_the_difference():
    # bit for bit over [0, 2pi): random pairs, and pairs of the edges 0,
    # pi, 2pi's predecessor and their neighbours, whose differences hit
    # +-pi exactly and straddle it
    pi, top = math.pi, math.nextafter(2 * math.pi, 0)
    edges = [0.0, 5e-324, math.nextafter(pi, 0), pi, math.nextafter(pi, 4),
             math.nextafter(top, 0), top, pi / 2, 3 * pi / 2]
    rng = np.random.default_rng(0)
    pairs = [(a, b) for a in edges for b in edges]
    pairs += rng.uniform(0, 2 * pi, size=(20000, 2)).tolist()
    pairs += [(a, a + pi) for a in rng.uniform(0, pi, size=2000).tolist()]
    for a, b in pairs:
        got = nearest_2pi_multiple_defect(a - b)
        want = circle_gap_reference(a, b)
        assert got.hex() == want.hex(), (a, b)
    assert math.isnan(nearest_2pi_multiple_defect(math.nan - 1.0))


def test_cli_lattice_past_the_enumeration_budget_exits_1(capsys):
    assert cli.main(["lattice", "--name", "e8e8", "--enumerate-norm",
                     "12"]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: lattice e8e8: ")
    assert "enumeration budget" in err and "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["verify", "--suite", "cochain", "--trials", "-3"],
    ["lattice", "--name", "e8", "--enumerate-norm", "-2"],
])
def test_cli_negative_counts_are_usage_errors(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    assert "is negative" in capsys.readouterr().err


# an infinite tol would pass an infinite defect, a NaN one prints as no
# JSON number, a negative one fails a zero defect; the lattice suite reads
# no seed, so a negative one would pass there unseen
@pytest.mark.parametrize("flag, value, message", [
    ("--tol", "inf", "inf is not a finite float >= 0"),
    ("--tol", "nan", "nan is not a finite float >= 0"),
    ("--tol", "-1", "-1 is not a finite float >= 0"),
    ("--seed", "-1", "-1 is negative"),
], ids=["tol-inf", "tol-nan", "tol-negative", "seed-negative"])
def test_cli_verify_refuses_a_tol_or_seed_it_cannot_mean(capsys, flag, value,
                                                        message):
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "--suite", "lattice", f"{flag}={value}"])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and f"argument {flag}: {message}" in err


@pytest.mark.parametrize("command", ["theta", "character"])
@pytest.mark.parametrize("tol", ["0", "-0.0", "1e-400", "-1", "nan", "inf",
                                 "1e300", "1", "1e-310"])
def test_cli_series_tol_outside_its_range_is_a_usage_error(capsys, command,
                                                           tol):
    with pytest.raises(SystemExit) as exc:
        cli.main([command, "--lattice", "e8e8", "--tau", "0.3,0.06",
                  f"--tol={tol}"])
    assert exc.value.code == 2
    assert f"argument --tol: {tol} is not in" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["theta", "character"])
@pytest.mark.parametrize("tau", ["1", "1,2,3", "a,b"])
def test_cli_malformed_tau_is_a_usage_error(capsys, command, tau):
    with pytest.raises(SystemExit) as exc:
        cli.main([command, "--lattice", "e8e8", f"--tau={tau}"])
    assert exc.value.code == 2
    assert f"argument --tau: {tau} is not RE,IM" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["theta", "character"])
def test_cli_non_finite_tau_is_refused_by_the_evaluator(capsys, command):
    assert cli.main([command, "--lattice", "e8e8", "--tau=0,nan"]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err == "error: tau = nanj is not finite\n"


@pytest.mark.parametrize("content, message", [
    ('{"z": [[0, 0]]}', "z file must hold a list of [re, im] pairs"),
    ("[[0, 0], [0.1, 0]]", "z file has 2 coordinates, expected 8"),
])
def test_cli_theta_refuses_a_malformed_z_file(tmp_path, capsys, content,
                                              message):
    path = tmp_path / "z.json"
    path.write_text(content)
    assert cli.main(["theta", "--lattice", "e8", "--tau", "0,1.2",
                     "--z", str(path)]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err == f"error: {message}\n"


@pytest.mark.parametrize("command, lattice, rank", [
    ("theta", "e8", 8), ("theta", "d16plus", 16), ("character", "e8e8", 16)])
def test_cli_series_refuses_a_value_past_the_float_range(tmp_path, capsys,
                                                         command, lattice,
                                                         rank):
    # at Im z = 9 the terms of either sign overflow, and their sum is NaN
    path = tmp_path / "z.json"
    path.write_text(json.dumps([[0, 9]] * rank))
    assert cli.main([command, "--lattice", lattice, "--tau", "0,1",
                     "--z", str(path)]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1
    assert err.startswith(f"error: the {command} is ")
    assert err.endswith(", not finite: the series leaves the float range at "
                        "this tau and z\n")


def test_cli_character_past_the_underflow_of_q(capsys):
    # above Im tau of about 118.6 q underflows to 0; theta is 1 there and
    # the character is 1 / eta^16 = e^{4 pi Im tau / 3}
    assert cli.main(["character", "--lattice", "e8e8", "--tau", "0,150"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["value_im"] == 0
    assert math.isclose(out["value_re"], math.exp(200 * math.pi),
                        rel_tol=1e-12)
    # eta^16 underflows to 0 from Im tau of about 177.7 on
    assert cli.main(["character", "--lattice", "e8e8", "--tau", "0,200"]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err == ("error: eta(tau)^16 underflows to 0 at Im "
                                 "tau = 200, so the character is past the "
                                 "float range\n")


def _good_record():
    """A degree-0 cochain file record with both form and integer rows."""
    cover = serialize.cover_from_id("circle:4:0.55")
    om = random_alternating_cochain(np.random.default_rng(0), cover, 0, 1)
    rec = serialize.cochain_to_dict(om, "circle:4:0.55")
    assert rec["components"] and rec["integer_components"]
    return rec


GOOD_RECORD = _good_record()


def _set(rec, path, value):
    node = rec
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return rec


def _drop(rec, path):
    node = rec
    for key in path[:-1]:
        node = node[key]
    del node[path[-1]]
    return rec


MALFORMED = [
    (lambda r: [r], "must be a JSON object"),
    (lambda r: _drop(r, ["degree"]), "no 'degree' field"),
    (lambda r: _set(r, ["degree"], "0"), "'degree' has the wrong type"),
    (lambda r: _drop(r, ["integer_components", 0, "m"]), "no 'm' field"),
    (lambda r: _set(r, ["integer_components", 0, "m"], 2.4),
     "'m' has the wrong type"),
    (lambda r: _set(r, ["integer_components", 0, "indices"], [0, 99]),
     "not a list of distinct pieces"),
    (lambda r: _set(r, ["components", 0, "indices"], [99]),
     "not a list of distinct pieces"),
    (lambda r: _set(r, ["integer_components", 0, "indices"], [1, 1]),
     "not a list of distinct pieces"),
    (lambda r: _set(r, ["components", 0, "indices"], [0.0]),
     "not a list of distinct pieces"),
    (lambda r: _set(r, ["integer_components", 1, "indices"],
                    r["integer_components"][0]["indices"]), "given twice"),
    (lambda r: _set(r, ["components", 0, "form", "terms", 0, "freq"], [1.5]),
     "must be integers"),
    (lambda r: _drop(r, ["components", 0, "form", "terms", 0, "re"]),
     "malformed term"),
    (lambda r: _set(r, ["components"], {}), "'components' has the wrong type"),
]


@pytest.mark.parametrize("mutate, message", MALFORMED)
def test_malformed_cochain_files_raise_value_error(mutate, message):
    with pytest.raises(ValueError, match=message):
        serialize.cochain_from_dict(mutate(copy.deepcopy(GOOD_RECORD)))


@pytest.mark.parametrize("mutate", [MALFORMED[0][0], MALFORMED[3][0]])
def test_cli_reports_a_malformed_cochain_file(tmp_path, capsys, mutate):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(mutate(copy.deepcopy(GOOD_RECORD))))
    rc = cli.main(["holonomy", "--cochain", str(path),
                   "--decomposition", "circle:20"])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error: ")


def test_cli_names_a_malformed_cover_id_of_a_file(tmp_path, capsys):
    rec = copy.deepcopy(GOOD_RECORD)
    rec["cover_id"] = "circle:x:0.7"
    path = tmp_path / "bad-id.json"
    path.write_text(json.dumps(rec))
    rc = cli.main(["holonomy", "--cochain", str(path),
                   "--decomposition", "circle:20"])
    out, err = capsys.readouterr()
    assert rc == 1 and out == ""
    assert err.startswith("error: cover id circle:x:0.7: ")


def _degree1_record(*forms):
    """A degree-1 cochain file over circle:4:0.55 with one component per
    (indices, ambient_dim, degree, [(freq, axes), ...]) entry."""
    comps = [{"indices": indices,
              "form": {"ambient_dim": amb, "degree": deg,
                       "terms": [{"freq": f, "axes": a, "re": 1.0, "im": 0.0}
                                 for f, a in keys]}}
             for indices, amb, deg, keys in forms]
    return {"degree": 1, "cover_id": "circle:4:0.55", "field_strength": None,
            "components": comps, "integer_components": []}


@pytest.mark.parametrize("later, message", [
    (([1], 1, 1, [([1.5], [0])]), "must be integers"),
    (([1], 1, 1, [([1], [1])]), "axis out of range"),
    # the key ([1], []) is valid at degree 0, not in a degree-1 form
    (([1], 1, 1, [([1], [])]), "axes length != degree"),
    # nor in a form that claims to live on T^2
    (([0, 1], 2, 0, [([1], [])]), "frequency length != ambient_dim"),
], ids=["fractional-freq", "axis-out-of-range", "other-degree",
        "other-ambient-dim"])
def test_a_key_is_checked_in_every_form_of_a_file(later, message):
    # the first records' keys are valid; the later record's raw key equals
    # one of theirs, or differs only in a checked way, and is still refused
    first = [([0], 1, 1, [([1], [0]), ([-1], [0])]),
             ([1, 2], 1, 0, [([1], []), ([1.0], [])])]
    good = serialize.cochain_from_dict(_degree1_record(*first))
    assert good.component((1, 2)).terms == {((1,), ()): 2.0}
    assert all(type(k) is int for (freq, _), _ in
               good.component((0,)).terms.items() for k in freq)
    with pytest.raises(ValueError, match=message):
        serialize.cochain_from_dict(_degree1_record(*first, later))


NON_FINITE = ["NaN", "Infinity", "-Infinity", "1e999"]
_SENTINEL = 12345.678


def _planted(rec, target: str) -> dict:
    """rec with one coefficient of `target` set to _SENTINEL."""
    if target == "field_strength":
        fs = rec["field_strength"]
        fs["terms"].append({"freq": [1] * fs["ambient_dim"],
                            "axes": list(range(fs["degree"])),
                            "re": 0.5, "im": _SENTINEL})
    else:
        rec["components"][0]["form"]["terms"][0]["re"] = _SENTINEL
    return rec


NON_FINITE_CASES = {
    # (argv, cover id, cochain maker, planted record, how the error names it)
    "holonomy": (["holonomy", "--decomposition", "circle:20"], "circle:4:0.7",
                 lambda rng, cover: random_cocycle(rng, cover, 1),
                 "components", "the component at index"),
    "pushforward": (["pushforward", "--decomposition", "circle:20",
                     "--output", "out.json"],
                    "product:circle:3:0.6|circle:4:0.7",
                    lambda rng, cover: random_alternating_cochain(rng, cover,
                                                                  2, 2),
                    "components", "the component at index"),
    "holonomy-t2-field-strength": (
        ["holonomy", "--decomposition", "hex:6"], "torus:3:3:0.75",
        lambda rng, cover: random_cocycle(rng, cover, 2),
        "field_strength", "the field strength"),
}


@pytest.mark.parametrize("spelling", NON_FINITE)
@pytest.mark.parametrize("case", sorted(NON_FINITE_CASES))
def test_a_non_finite_coefficient_in_a_file_exits_1(tmp_path, monkeypatch,
                                                     capsys, case, spelling):
    argv, cover_id, make, target, named = NON_FINITE_CASES[case]
    monkeypatch.chdir(tmp_path)
    om = make(np.random.default_rng(5), serialize.cover_from_id(cover_id))
    rec = _planted(serialize.cochain_to_dict(om, cover_id), target)
    text = json.dumps(rec).replace(repr(_SENTINEL), spelling)
    assert spelling in text
    (tmp_path / "in.json").write_text(text)
    rc = cli.main(argv + ["--cochain", "in.json"])
    out, err = capsys.readouterr()
    assert rc == 1 and out == ""
    assert err.startswith(f"error: {named}") and "non-finite" in err
    assert not (tmp_path / "out.json").exists()


def test_a_push_forward_with_a_non_finite_coefficient_writes_no_file(
        tmp_path, monkeypatch, capsys):
    # coefficients of +-1.7e308 load, but their push-forward overflows to
    # inf - inf = NaN: saving refuses it with the message the loader gives
    # on the file it would have written, before the file is opened
    monkeypatch.chdir(tmp_path)
    cover_id = "product:circle:3:0.6|circle:4:0.7"
    om = random_alternating_cochain(np.random.default_rng(5),
                                    serialize.cover_from_id(cover_id), 2, 2)
    rec = serialize.cochain_to_dict(om, cover_id)
    for entry in rec["components"]:
        for term in entry["form"]["terms"]:
            for part in ("re", "im"):
                term[part] = math.copysign(1.7e308, term[part]) \
                    if term[part] else 0.0
    (tmp_path / "in.json").write_text(json.dumps(rec))
    rc = cli.main(["pushforward", "--cochain", "in.json", "--decomposition",
                   "circle:20", "--output", "out.json"])
    out, err = capsys.readouterr()
    assert rc == 1 and out == ""
    assert not (tmp_path / "out.json").exists()
    omega = serialize.load_cochain("in.json")
    dec = serialize.decomposition_from_id("circle:20")
    rho, _ = two_subordinations(dec, omega.cover.factor_covers[1])
    pushed = pushforward(omega, dec, rho)
    with monkeypatch.context() as m:
        m.setattr(serialize, "_refuse_non_finite", lambda form, idx: None)
        text = json.dumps(serialize.cochain_to_dict(pushed, "circle:3:0.6"))
    with pytest.raises(ValueError) as refusal:
        serialize.cochain_from_dict(json.loads(text))
    assert "non-finite" in str(refusal.value)
    assert err == f"error: {refusal.value}\n"


def _scaled_file(path, om, cover_id, scale):
    """om's file with every nonzero coefficient part replaced by +-scale."""
    rec = serialize.cochain_to_dict(om, cover_id)
    for entry in rec["components"]:
        for term in entry["form"]["terms"]:
            for part in ("re", "im"):
                term[part] = math.copysign(scale, term[part]) \
                    if term[part] else 0.0
    path.write_text(json.dumps(rec))


def _refused_naming(capsys, argv, path):
    assert cli.main(argv) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"error: {path}: ") and len(err.splitlines()) == 1
    return err


def test_a_push_forward_with_a_non_finite_defect_prints_nothing(
        tmp_path, monkeypatch, capsys):
    # the cochain of the test above, without --output: its Stokes defect
    # is NaN, which has no JSON spelling
    monkeypatch.chdir(tmp_path)
    cover_id = "product:circle:3:0.6|circle:4:0.7"
    om = random_alternating_cochain(np.random.default_rng(5),
                                    serialize.cover_from_id(cover_id), 2, 2)
    _scaled_file(tmp_path / "in.json", om, cover_id, 1.7e308)
    err = _refused_naming(capsys, ["pushforward", "--cochain", "in.json",
                                   "--decomposition", "circle:20"],
                          "in.json")
    assert err == "error: in.json: the stokes_defect is nan, not finite\n"


@pytest.mark.parametrize("scale", [1e308, 1.7e308])
def test_a_holonomy_that_overflows_names_the_file(tmp_path, monkeypatch,
                                                   capsys, scale):
    # at 1e308 the cell integrals overflow to a NaN real part; at 1.7e308
    # a coefficient's modulus is past the float range.  Either way the sum
    # is not finite, which is said before anything about its realness
    monkeypatch.chdir(tmp_path)
    om = random_cocycle(np.random.default_rng(5),
                        serialize.cover_from_id("circle:4:0.7"), 1)
    _scaled_file(tmp_path / "in.json", om, "circle:4:0.7", scale)
    err = _refused_naming(capsys, ["holonomy", "--cochain", "in.json",
                                   "--decomposition", "circle:20"], "in.json")
    assert err.startswith("error: in.json: the holonomy is ")
    assert err.endswith(", not finite\n")


def _holonomy_input_with_integer(tmp_path, seed, m):
    """A T^2 cocycle's file, its first integer-row entry set to m; returns
    that entry's index."""
    om = random_cocycle(np.random.default_rng(seed),
                        serialize.cover_from_id("torus:3:3:0.75"), 2)
    rec = serialize.cochain_to_dict(om, "torus:3:3:0.75")
    rec["integer_components"][0]["m"] = m
    (tmp_path / "in.json").write_text(json.dumps(rec))
    return rec["integer_components"][0]["indices"]


def _refused_integer(capsys, index):
    rc = cli.main(["holonomy", "--cochain", "in.json",
                   "--decomposition", "hex:6"])
    out, err = capsys.readouterr()
    assert rc == 1 and out == ""
    assert err == (f"error: the integer entry at index {index} is too "
                   f"large: 2*pi*|m| must stay below 2**52, where a float "
                   f"still carries it to better than one unit\n")


@pytest.mark.parametrize("m", [10 ** 400, 2 ** 1024],
                         ids=["10^400", "2^1024"])
def test_a_holonomy_input_whose_defect_overflows_prints_nothing(
        tmp_path, monkeypatch, capsys, m):
    # an entry whose defect walk would overflow is refused when the file
    # loads, before anything is computed
    monkeypatch.chdir(tmp_path)
    _refused_integer(capsys, _holonomy_input_with_integer(tmp_path, 6, m))


@pytest.mark.parametrize("sign", [1, -1])
def test_an_integer_entry_a_float_cannot_carry_is_refused(
        tmp_path, monkeypatch, capsys, sign):
    # at 2**70 the holonomy used to exit 0, with a cocycle defect of
    # 7.4e21 and a warning on stderr
    monkeypatch.chdir(tmp_path)
    _refused_integer(capsys, _holonomy_input_with_integer(tmp_path, 0,
                                                          sign * 2 ** 70))


def test_the_integer_entry_bound_is_where_2pi_m_reaches_2_to_the_52():
    bound = serialize.MAX_INTEGER_ENTRY
    assert 2 * math.pi * bound < 2 ** 52 <= 2 * math.pi * (bound + 1)
    for m in (bound, -bound):
        rec = _set(copy.deepcopy(GOOD_RECORD), ["integer_components", 0, "m"],
                   m)
        idx = tuple(rec["integer_components"][0]["indices"])
        assert serialize.cochain_from_dict(rec).component(idx) == m
        _set(rec, ["integer_components", 0, "m"], m + (1 if m > 0 else -1))
        with pytest.raises(ValueError, match=re.escape(
                f"the integer entry at index {list(idx)} is too large")):
            serialize.cochain_from_dict(rec)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf,
                                 complex(1.0, math.nan)])
@pytest.mark.parametrize("where", ["field strength", "component"])
def test_saving_refuses_a_non_finite_coefficient(tmp_path, where, bad):
    cover = serialize.cover_from_id("circle:4:0.55")
    if where == "field strength":
        om = DiffCochain(-1, cover, components={
            (0,): 2, (): TrigForm(1, 0, {((1,), ()): bad})})
        name, freq, axes = "the field strength", [1], []
    else:
        om = DiffCochain(0, cover, components={(1,): TrigForm(1, 0, {
            ((0,), ()): 1.0, ((3,), ()): bad, ((2,), ()): bad})})
        name, freq, axes = "the component at index [1]", [2], []
    message = (f"{name} has a non-finite coefficient {complex(bad)} at "
               f"frequency {freq}, axes {axes}")
    with pytest.raises(ValueError) as refusal:
        serialize.cochain_to_dict(om, "circle:4:0.55")
    assert str(refusal.value) == message
    path = tmp_path / "om.json"
    with pytest.raises(ValueError, match=re.escape(message)):
        serialize.save_cochain(str(path), om, "circle:4:0.55")
    assert not path.exists()


def _paths(node, prefix=()):
    """The path of every value inside a JSON tree."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return []
    out = []
    for key, child in items:
        out.append(prefix + (key,))
        out.extend(_paths(child, prefix + (key,)))
    return out


json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 99) | st.floats()
    | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=4)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_mutated_cochain_files_load_or_raise_value_error(data):
    # one value replaced or deleted anywhere in a valid record: loading
    # raises ValueError, or the cochain computes and saves a file that
    # loads back unchanged
    rec = copy.deepcopy(GOOD_RECORD)
    path = data.draw(st.sampled_from(_paths(rec)))
    if data.draw(st.booleans()):
        _drop(rec, path)
    else:
        _set(rec, path, data.draw(json_values))
    try:
        om = serialize.cochain_from_dict(rec)
    except ValueError:
        return
    total_d(om).max_defect()
    saved = json.dumps(serialize.cochain_to_dict(om, om.cover.cover_id))
    again = serialize.cochain_from_dict(json.loads(saved))
    assert json.dumps(serialize.cochain_to_dict(again,
                                                om.cover.cover_id)) == saved


GOOD_POINT = json.dumps({"tau": [0, 2], "z": [[0.1, 0.0]] * 8})
MALFORMED_MODULAR = [
    ("z-file-of-numbers", ["theta", "--lattice", "e8", "--tau", "0,1",
                           "--z", "z.json"]),
    ("element-number", ["act", "--element", "5", "--point", GOOD_POINT]),
    ("element-word-of-number", ["act", "--element", "[5]",
                                "--point", GOOD_POINT]),
    ("S-short", ["act", "--element", '{"S": [1, 2]}', "--point", GOOD_POINT]),
    ("S-string", ["act", "--element", '{"S": ["a", 1, 0, 1]}',
                  "--point", GOOD_POINT]),
    ("T-numbers", ["act", "--element", '{"T": [1, 2]}', "--point", GOOD_POINT]),
    ("W-number", ["factor", "--family", "char", "--lattice", "e8e8",
                  "--element", '{"W": 5}', "--point", GOOD_POINT]),
    ("point-list", ["act", "--element", '{"S": [1, 1, 0, 1]}',
                    "--point", "[1]"]),
    ("tau-short", ["act", "--element", '{"S": [1, 1, 0, 1]}',
                   "--point", '{"tau": [0]}']),
    ("z-missing", ["act", "--element", '{"S": [1, 1, 0, 1]}',
                   "--point", '{"tau": [0, 1]}']),
    ("z-of-numbers", ["act", "--element", '{"S": [1, 1, 0, 1]}',
                      "--point", '{"tau": [0, 1], "z": [0]}']),
    ("S-past-float", ["act", "--element", '{"S": [1, %d, 0, 1]}' % 10 ** 400,
                      "--point", GOOD_POINT]),
    ("W-past-int64", ["act", "--element", json.dumps(
        {"W": [[2 ** 70 * (i == j == 0) + (i == j) for j in range(8)]
               for i in range(8)]}), "--point", GOOD_POINT]),
    ("infinite-image", ["act", "--element", '{"T": [[1], [1]]}', "--point",
                        '{"tau": [1.7e308, 1], "z": [[1.7e308, 0]]}']),
    # an element object holds one kind, and a point its two fields only
    ("S-and-T", ["act", "--element", '{"S": [2, 1, 1, 1], "T": [[1], [0]]}',
                 "--point", '{"tau": [0, 2], "z": [[0.1, 0]]}']),
    ("T-and-S", ["act", "--element", '{"T": [[1], [0]], "S": [2, 1, 1, 1]}',
                 "--point", '{"tau": [0, 2], "z": [[0.1, 0]]}']),
    ("W-and-extra", ["act", "--element", '{"W": [[1]], "U": 1}',
                     "--point", '{"tau": [0, 2], "z": [[0.1, 0]]}']),
    ("empty-element", ["act", "--element", "{}", "--point", GOOD_POINT]),
    ("word-of-two-kinds", ["act", "--element",
                           '[{"S": [1, 1, 0, 1], "T": [[1], [0]]}]',
                           "--point", '{"tau": [0, 2], "z": [[0.1, 0]]}']),
    ("point-extra-key", ["act", "--element", '{"S": [1, 1, 0, 1]}',
                         "--point", '{"tau": [0, 2], "z": [[0.1, 0]], '
                                    '"w": 1}']),
    ("factor-point-extra-key", ["factor", "--family", "det_u1", "--element",
                                '{"S": [1, 1, 0, 1]}', "--point",
                                '{"tau": [0, 2], "z": [[0.1, 0]], '
                                '"tau2": [0, 1]}']),
]


@pytest.mark.parametrize("argv", [c[1] for c in MALFORMED_MODULAR],
                         ids=[c[0] for c in MALFORMED_MODULAR])
def test_cli_reports_malformed_modular_inputs(tmp_path, monkeypatch, capsys,
                                              argv):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "z.json").write_text(json.dumps(list(range(8))))
    assert cli.main(argv) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ")


def _non_finite_argv(where: str, number: str) -> list:
    bad = f"[0, {number}]"
    if where == "z-file":
        with open("z.json", "w") as fh:
            fh.write("[" + ", ".join([bad] + ["[0, 0]"] * 7) + "]")
        return ["theta", "--lattice", "e8", "--tau", "0,1", "--z", "z.json"]
    if where == "factor-tau":
        return ["factor", "--family", "det_u1", "--element",
                '{"S": [1, 1, 0, 1]}', "--point",
                f'{{"tau": {bad}, "z": [[0.1, 0]]}}']
    tau, z = (bad, "[0.1, 0]") if where == "act-tau" else ("[0, 2]", bad)
    return ["act", "--element", '{"S": [1, 1, 0, 1]}', "--point",
            f'{{"tau": {tau}, "z": [{z}]}}']


@pytest.mark.parametrize("where", ["act-tau", "act-z", "factor-tau",
                                   "z-file"])
@pytest.mark.parametrize("number", ["NaN", "Infinity", "-Infinity", "1e999"])
def test_cli_refuses_non_finite_numbers(tmp_path, monkeypatch, capsys,
                                        where, number):
    # json.loads reads NaN and Infinity, and 1e999 as inf
    monkeypatch.chdir(tmp_path)
    assert cli.main(_non_finite_argv(where, number)) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and "finite" in err


@pytest.mark.parametrize("swap,rc", [((0, 2), 1), ((6, 7), 0)],
                         ids=["end-and-inner-node", "diagram-flip"])
def test_cli_factor_checks_coroot_isometries(capsys, swap, rc):
    # basis 6 <-> 7 flips the D8 diagram (an isometry); 0 <-> 2 swaps an
    # end node with an inner one (not an isometry)
    perm = list(range(8))
    perm[swap[0]], perm[swap[1]] = swap[1], swap[0]
    elem = json.dumps({"W": [[int(j == perm[i]) for j in range(8)]
                             for i in range(8)]})
    point = json.dumps({"tau": [0, 2], "z": [[0.1, 0.0]] * 8})
    assert cli.main(["factor", "--family", "char", "--lattice",
                     "spin16_coroot", "--element", elem,
                     "--point", point]) == rc
    out, err = capsys.readouterr()
    if rc:
        assert err.startswith("error: ")
    else:
        assert json.loads(out) == {"value_re": 1.0, "value_im": 0.0}


_ONE_COORDINATE = json.dumps({"tau": [0, 2], "z": [[0.1, 0.0]]})
_MALFORMED_FACTOR = [
    ("det_u1-W-not-an-isometry", "det_u1", None, {"W": [[1, 0], [0, 5]]},
     _ONE_COORDINATE, "W matrix does not preserve the Gram matrix"),
    ("char-W-one-coordinate", "char", "e8e8",
     {"W": [[int(i == j) for j in range(16)] for i in range(16)]},
     _ONE_COORDINATE,
     "family char on lattice e8e8 needs a point of rank 16, got rank 1"),
    ("char-T-short-q1", "char", "e8e8", {"T": [[1, 0, 0], [0] * 16]},
     json.dumps({"tau": [0, 2], "z": [[0.1, 0.0]] * 16}),
     "family/lattice rank mismatch"),
    ("char-S-rank-8-point", "char", "e8e8", {"S": [0, -1, 1, 0]}, GOOD_POINT,
     "family char on lattice e8e8 needs a point of rank 16, got rank 8"),
    ("det_u1-T-rank-2", "det_u1", None, {"T": [[1, 0], [1]]},
     _ONE_COORDINATE, "family det_u1 has rank 1: T needs q1 and q2 of "
     "length 1, got lengths [2, 1]"),
    ("char-W-ragged", "char", "e8e8", {"W": [[1, 0], [1]]}, GOOD_POINT,
     "W must be a square matrix, got rows of lengths [2, 1]"),
]


@pytest.mark.parametrize("family,lattice,element,point,message",
                         [c[1:] for c in _MALFORMED_FACTOR],
                         ids=[c[0] for c in _MALFORMED_FACTOR])
def test_cli_factor_refuses_an_element_or_point_of_the_wrong_rank(
        capsys, family, lattice, element, point, message):
    argv = ["factor", "--family", family, "--element", json.dumps(element),
            "--point", point]
    assert cli.main(argv + (["--lattice", lattice] if lattice else [])) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: {message}\n"


_TWO_COORDINATES = json.dumps({"tau": [0, 2], "z": [[0.1, 0.0], [0.2, 0.0]]})


@pytest.mark.parametrize("element,point,message", [
    ([[1, 0]], _TWO_COORDINATES,
     "W must be a square matrix, got rows of lengths [2]"),
    ([[1, 0], [0, 5]], _ONE_COORDINATE,
     "a 2x2 W matrix acts on points of rank 2, got a point of rank 1"),
    ([[1, 0], [1]], _TWO_COORDINATES,
     "W must be a square matrix, got rows of lengths [2, 1]"),
], ids=["non-square", "other-rank", "ragged"])
def test_cli_act_refuses_a_W_of_the_wrong_shape(capsys, element, point,
                                                message):
    argv = ["act", "--element", json.dumps({"W": element}), "--point", point]
    assert cli.main(argv) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: {message}\n"


def test_cli_act_refuses_a_word_whose_parts_have_two_ranks(capsys):
    word = [{"T": [[0] * 8, [1] + [0] * 7]}, {"T": [[0] * 16, [0] * 16]}]
    point = json.dumps({"tau": [0, 2], "z": [[0.1, 0.0]] * 8})
    assert cli.main(["act", "--element", json.dumps(word),
                     "--point", point]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: a word mixes parts of ranks [8, 16]\n"


@pytest.mark.parametrize("q1,z,message", [
    ([6, -3, -6, -10, -11, -14, -7, -10], [0.05, 0.02],
     "family ad: the T part's factor e^w, with Re w = 1206.06, is past the "
     "float range"),
    ([1, 0, 0, 0, 0, 0, 0, 0], [0.8, 0],
     "family ad: the product of the S and T parts' factors is past the "
     "float range"),
], ids=["T-part", "product"])
def test_cli_factor_past_the_float_range_names_the_family_and_part(
        capsys, q1, z, message):
    # the ad family's exponent is 30 times char's: after S, a translation
    # by a few lattice vectors leaves the float range
    element = [{"S": [0, -1, 1, 0]}, {"T": [q1, [0] * 8]}]
    point = json.dumps({"tau": [0.1, 1.1], "z": [z] * 8})
    assert cli.main(["factor", "--family", "ad", "--lattice", "e8",
                     "--element", json.dumps(element),
                     "--point", point]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: {message}\n"
