"""Pinned digests of the verify reports of the double-complex suites and of
the lattice and modular suites, and of the `holonomy` and `pushforward`
evaluators' output.

A refactor of the term kernels, the cochain operators or the lattice
enumeration must leave every reported defect bit for bit the same; these
SHA-256 digests of `json.dumps(run_suite(...), indent=1)` fail on any
change in a check's name, defect or verdict.  They were recorded with
CPython 3.11 and numpy 2 on x86-64; a different floating-point library may
legitimately move a last digit, in which case re-record them from the
unchanged code first.
"""

import hashlib
import json

import numpy as np
import pytest

from gerbekit import cli, serialize
from gerbekit.cli import run_suite
from gerbekit.suites import random_alternating_cochain, random_cocycle

# The cochain, holonomy, crossmodule and pushforward digests were re-pinned
# when random_real_forms began drawing each cochain level's numbers in three
# vector calls: their instances are new draws, while the chernsimons,
# lattice and modular digests kept their values.  The holonomy-3-1,
# crossmodule and pushforward digests moved again when the layer sums began
# integrating once per chain of cells with one image: a chain's integral
# sums its cells' integrals before the coefficient multiplies them.  The
# modular digests moved when chi_24th_root began comparing the exact eta
# multiplier with one measured from eta, and transform_defect began scaling
# by the larger of the two values it compares; and again when
# chi_24th_root added two matrices whose Dedekind sums take more than one
# reciprocity step (its worst defect at seeds 0 and 1 went from 1.123e-13
# to 1.240e-13).  They moved again when the enumeration oracle began summing
# the half walk pairwise: only theta_vs_enumeration changed, 1.488e-14 ->
# 4.441e-16 at seed 0 and 6.439e-15 -> 6.673e-19 at seed 1.  The cochain
# and pushforward digests moved again when those two suites began drawing
# their forms without conjugate partners (real=False): the same numbers
# from the same draws, but complex instances of the C-linear identities.
# The chernsimons digests moved when su(2) coefficients became 3-vectors
# (no matrix products, so the same bits under every BLAS kernel and SIMD
# level) and the connections and gauge maps began drawing their numbers in
# vector calls: new instances of the same identities.
PINNED = [
    ("cochain", 3, 0, "5e65da824e1eda835a27ee849a2ae2e013f822e63fc3dac76158386c49552173"),
    ("chernsimons", 6, 0, "ac9f5d7040188559e9d36ba6b27d11afb0c7ffced69874c407998ed63ee8d2eb"),
    ("holonomy", 3, 0, "617828fa5fa76c0bb4aa5881de72b465b29ac0bd737c1b720cdf045b8f450f50"),
    ("crossmodule", 3, 0, "151bf79fbcf77713ae6613041e5eedfa33c24237b6452129569c1e8236eefcec"),
    ("pushforward", 1, 0, "e9401cf3f05d7ecbec0582b5de2a904fdf1007d651eeb3b0373e835143cc9387"),
    ("cochain", 3, 1, "9e1254459004da224d443d39d34501d3f3d31d1ef94c26d6fee8570a83d82844"),
    ("chernsimons", 6, 1, "6580db3461993594b9e79803888818759c80a12f720919b0480d1f1d30f2aa2e"),
    ("holonomy", 3, 1, "b6f7f063441c722efa548c60f8d99319ca3efd0aa1f1268d15519e37f8a3f5d9"),
    ("crossmodule", 3, 1, "8da05b525b81663ede8f5b3c4526c65b6db070b66276e2ea8c426bfac287e639"),
    ("pushforward", 1, 1, "f60918071226cbbbef3b764541a159cd06f7c55ab92cf1b85fbb31d9812f0992"),
    ("lattice", 1, 0, "b9323ca76ead1cace9bbd87219d3dad9c603807c35a740af81ca70cc3d159526"),
    ("modular", 20, 0, "3e15a0cbb6a72aa9ceeb8a2eb2b154ade67fba6fdf4f2f3c9c6647f9f575dfdc"),
    ("lattice", 1, 1, "16f74f52fc6ace50d595e577f9b586718b49906aa93faf0626371062a47b1c0d"),
    ("modular", 20, 1, "2a55aa3a5cb3b783b90d222a44a684b995298941885367cc99f1d432881a7008"),
    # the complex benchmark workload's chernsimons shape: 20 trials
    ("chernsimons", 20, 2, "0d326cc3c6dcf915797f129d63e3bc34d46c25a7f2e2d9babbafd25a8aebb610"),
    # ... and its cochain and crossmodule shapes: 6 and 4 trials
    ("cochain", 6, 2, "f57c9951c69ce1c9ab18e985333aa09c203bdb3bd1856a1187bc41d71df695aa"),
    ("crossmodule", 4, 2, "b600e7b26e2f65b8b343f4412fec73f5dc7cf3f59ad468a4cc329870c167c6eb"),
    # the pushforward benchmark workload's shape: 2 trials
    ("pushforward", 2, 2, "749a0b10bc1beb916d9f84d9e5f3efd05aabb8096900cfa34634e44c69809b2b"),
]


@pytest.mark.parametrize("suite,trials,seed,digest", PINNED,
                         ids=[f"{s}-{t}-{seed}" for s, t, seed, _ in PINNED])
def test_report_is_byte_identical(suite, trials, seed, digest):
    report = run_suite(suite, trials, seed, 1e-8)
    text = json.dumps(report, indent=1)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


# The single-shot evaluators: `holonomy` on seeded cocycle files over a
# circle and a torus cover, and `pushforward` with and without `--output` on
# a seeded product-cover cochain.  Each case writes its input `in.json` from
# a recipe (kind, cover id, degree, seed) and pins the SHA-256 of stdout and
# of that file and any `--output` file.  A file's digest is of its JSON
# value rendered as `json.dumps(value, indent=1, sort_keys=True)`, the
# layout files were once written in, and the file itself must be that value
# as `json.dumps(value, sort_keys=True)`, the layout it is written in now:
# the two together pin its bytes.  Paths are relative to a fresh working
# directory, so stdout, which echoes `--output`, does not depend on where
# the test runs.
PF_INPUT = ("alternating", "product:circle:3:0.6|circle:4:0.7", 2, 7)
CLI_PINNED = [
    ("holonomy-circle:20", ["holonomy", "--decomposition", "circle:20"],
     ("cocycle", "circle:4:0.7", 1, 5), {
         "in.json": "919f858e078e65498d7fe19f054a94c8726ec617d02065adeb26430b5eaa66b1",
         "stdout": "802eb874fabbf91f3427727ad99a19ce4b1bf1e4cb6b19918df2530cdebdd526"}),
    ("holonomy-hex:6", ["holonomy", "--decomposition", "hex:6"],
     ("cocycle", "torus:3:3:0.75", 2, 6), {
         "in.json": "12443bed91a04d2826bb5b926e1c44d78df4cc6913afa3789e4d5befbca86d4c",
         "stdout": "e7112ad429bee4d81ffee84ee26d0710edea8a8ab0dbfff1d8bc68f0a7003074"}),
    ("pushforward", ["pushforward", "--decomposition", "circle:20"],
     PF_INPUT, {
         "in.json": "08fb52e35192588b14f10d8b7c70f1f96664db00082f99aff2db9d9e52bbe72f",
         "stdout": "e6afc75f32a6475796a3d2ffb26c7284798c04d6fe3c23d24d2bdb5093148692"}),
    ("pushforward-output", ["pushforward", "--decomposition", "circle:20",
                            "--output", "out.json"],
     PF_INPUT, {
         "in.json": "08fb52e35192588b14f10d8b7c70f1f96664db00082f99aff2db9d9e52bbe72f",
         "stdout": "4eaf452189d8c97472e553762f8fbddafa8b21399b39958715affaf6b4a1bcca",
         "out.json": "382cfd878a4ca933e3c0b70bdb6cf73de34fb19ccd74b5dfa94c845a2037d32a"}),
    # a 2-dimensional fibre: the output holds 5 nonzero integer components
    ("pushforward-hex:6-output", ["pushforward", "--decomposition", "hex:6",
                                  "--output", "out.json"],
     ("alternating", "product:circle:3:0.6|torus:3:3:0.75", 2, 7), {
         "in.json": "56ff660411438e15ba230ad38605dc1b5eaa8fe6ab5d5f83f964ea74bb8d0d14",
         "stdout": "496330ebf30d2c531ab463eeebf1e6b3c47b58b7e250abd066f5db8fd40168de",
         "out.json": "3aff048bb11fe527d055e6c58a44305bc619fa5848abd66877d4163d03b5413f"}),
]


def _write_input(path, kind, cover_id, degree, seed):
    cover = serialize.cover_from_id(cover_id)
    rng = np.random.default_rng(seed)
    if kind == "cocycle":
        om = random_cocycle(rng, cover, degree)
    else:
        om = random_alternating_cochain(rng, cover, degree, cover.factors)
    serialize.save_cochain(path, om, cover_id)


@pytest.mark.parametrize("argv,recipe,digests", [p[1:] for p in CLI_PINNED],
                         ids=[p[0] for p in CLI_PINNED])
def test_cli_output_is_byte_identical(tmp_path, monkeypatch, capsys, argv,
                                      recipe, digests):
    monkeypatch.chdir(tmp_path)
    _write_input("in.json", *recipe)
    assert cli.main(argv + ["--cochain", "in.json"]) == 0
    got = {"stdout": capsys.readouterr().out.encode()}
    for name in digests:
        if name != "stdout":
            text = (tmp_path / name).read_text()
            value = json.loads(text)
            assert text == json.dumps(value, sort_keys=True)
            got[name] = json.dumps(value, indent=1, sort_keys=True).encode()
    assert {name: hashlib.sha256(data).hexdigest()
            for name, data in got.items()} == digests


# Decompositions named by an id are shared within a process, so a second
# run reads the cell integrals the first one memoised: both must print the
# pinned bytes, the first from cold cells.
WARM_PINNED = [p for p in CLI_PINNED if p[0] in ("holonomy-hex:6",
                                                  "pushforward")]


@pytest.mark.parametrize("argv,recipe,digests", [p[1:] for p in WARM_PINNED],
                         ids=[p[0] for p in WARM_PINNED])
def test_cli_output_is_the_same_from_cold_and_warm_cells(
        tmp_path, monkeypatch, capsys, argv, recipe, digests):
    monkeypatch.chdir(tmp_path)
    _write_input("in.json", *recipe)
    serialize.decomposition_from_id.cache_clear()
    outs = []
    for _ in range(2):
        assert cli.main(argv + ["--cochain", "in.json"]) == 0
        outs.append(capsys.readouterr().out.encode())
    assert outs[0] == outs[1]
    assert hashlib.sha256(outs[0]).hexdigest() == digests["stdout"]


# The modular evaluators: `theta` on every built-in at z = 0 and at a fixed
# z file, `character` on the two rank-16 lattices, `factor` for each family
# with an S, a T, a W and a word element, `act`, and `lattice` shells up to
# norm 4.  Each case pins the SHA-256 of stdout; inputs are literals, and a
# `--z` file is written into a fresh working directory as `z.json`.  The
# factor-{ad,rho,det_u1}-{S,word} digests moved in their last digits when
# the eta multiplier became exact: the measured one carried up to about
# 5e-13 of error into every factor that takes a power of it.  The
# factor-*-word and act-word digests moved in their last digits when a word
# began to act and factor from its normal form (m, w, t), not generator by
# generator.
def _z(rank):
    return [[0.01 * (j + 1), 0.02 * (j % 3) - 0.015] for j in range(rank)]


def _point(rank):
    return json.dumps({"tau": [0.15, 1.2], "z": _z(rank)})


def _unit(rank, i, sign=1):
    return [sign if j == i else 0 for j in range(rank)]


_RANKS = {"e8": 8, "e8e8": 16, "d16plus": 16, "spin16_coroot": 8}
# lattice isometries in basis coordinates: the two E8 blocks swapped, and -1
_W = {"e8e8": [_unit(16, (i + 8) % 16) for i in range(16)],
      "d16plus": [_unit(16, i, -1) for i in range(16)]}
_FAMILY_LATTICE = {"char": "e8e8", "ad": "d16plus", "rho": "e8e8",
                   "anomaly_ad": "e8e8", "anomaly_rho": "d16plus",
                   "det_u1": None}


def _factor_elements(lat):
    rank = _RANKS[lat] if lat else 1
    return {"S": {"S": [0, -1, 1, 0]},
            "T": {"T": [_unit(rank, min(3, rank - 1)),
                        _unit(rank, rank - 1, -1)]},
            "W": {"W": _W[lat] if lat else [[1]]},
            "word": [{"S": [1, 1, 0, 1]},
                     {"T": [_unit(rank, 0), _unit(rank, rank - 1)]}]}


def _modular_cases():
    cases = []
    for name, rank in _RANKS.items():
        for z in ("zeros", "z.json"):
            cases.append((f"theta-{name}-{z}", ["theta", "--lattice", name,
                                                "--tau", "0.1,1.3", "--z", z],
                          rank))
    for name in ("e8e8", "d16plus"):
        cases.append((f"character-{name}", ["character", "--lattice", name,
                                            "--tau", "0.2,1.1", "--z",
                                            "z.json"], _RANKS[name]))
    for family, lat in _FAMILY_LATTICE.items():
        for kind, element in _factor_elements(lat).items():
            argv = ["factor", "--family", family, "--element",
                    json.dumps(element), "--point", _point(_RANKS[lat]
                                                           if lat else 1)]
            cases.append((f"factor-{family}-{kind}",
                          argv + (["--lattice", lat] if lat else []), None))
    for kind, element in (("S", {"S": [1, 2, 1, 3]}),
                          ("T", {"T": [_unit(8, 2), _unit(8, 5, -1)]}),
                          ("W", {"W": [_unit(8, 7 - i) for i in range(8)]}),
                          ("word", [{"S": [0, -1, 1, 0]},
                                    {"T": [[0] * 8, _unit(8, 1)]}])):
        cases.append((f"act-{kind}", ["act", "--element", json.dumps(element),
                                      "--point", _point(8)], None))
    for name in _RANKS:
        cases.append((f"lattice-{name}", ["lattice", "--name", name,
                                          "--enumerate-norm", "4"], None))
    return cases


MODULAR_PINNED = {
    "theta-e8-zeros":
        "51e9604dc2bf61407353921296743825f3e5d138f6aa34ceb07f33044effc683",
    "theta-e8-z.json":
        "27e3af778a25bc78f63986a0f98ff81731f2e9b827c5df00791c7e65085cdccd",
    "theta-e8e8-zeros":
        "11baefb0c0ca945e7a7402371f4e6ff849705d6af3f06c586d8a402f281cd903",
    "theta-e8e8-z.json":
        "8d4299a7daa05e994ecb5a36d006aa23c5282ebaf86e67f55a725738d6c01a0d",
    "theta-d16plus-zeros":
        "4f2158647a00be9ff928730ebe2dfe9a5ba86accf7dd9d62764120dd2cdb09e2",
    "theta-d16plus-z.json":
        "5c1ec26e985511ba19f9738782c06b94031c892a022c24ea8cafe07b0cfcc8bd",
    # spin16_coroot has no coset form and is summed by enumeration; these two
    # moved when that sum became pairwise over the half walk (the zeros value
    # was 5.8e-12 from the shells' exact sum, and is now within 2e-16)
    "theta-spin16_coroot-zeros":
        "158725e8485e065b0c78f89f90e2820034a1602c81758a07e20bde8ba687732f",
    "theta-spin16_coroot-z.json":
        "5d328a7c52eb8ddbea8fcd50b60c826ab884b1c8d213afb53bf68955c6a26ee8",
    "character-e8e8":
        "93bb363a1911897f8d7e849d33074dcb000b2237521bae9ca5b70e03fa022a2b",
    "character-d16plus":
        "97ffaeb7fe6a61577fb8527fd38f4925574d9e7358961347a0590e8e009a20b7",
    "factor-char-S":
        "dfc5da13eaa5fcf3f4f09571ca5403044f8871630362a986d3b5b918a710a663",
    "factor-char-T":
        "7c42bbca8fff640c6de90061963961d1e42cbe4fbbb337c04e8206cb14ddfcd6",
    "factor-char-W":
        "e1c2e0d281d53d2177781407378616dc6db2c9a194576967e7899b409587633d",
    "factor-char-word":
        "046e0ec1460c484fa72143b8db7680d269ed670f6a938affa95a3e47b11e7750",
    "factor-ad-S":
        "a1a95a24503d6b9575ad012b5e2e059f8bae85a5bc1336341f40886a23c68131",
    "factor-ad-T":
        "1ae2e0daca1a9d22ebe9299a30ec9eb732cb05c2776c428a057a82eb5cdfb980",
    "factor-ad-W":
        "e1c2e0d281d53d2177781407378616dc6db2c9a194576967e7899b409587633d",
    "factor-ad-word":
        "c80b35420d78c154230e82b775d37f1ab7964bc40ca6b79812c5f31bc3529d46",
    "factor-rho-S":
        "f15e493588decdb6c9223c0818d438b4478e2142fd9e15296f1b633e355255bb",
    "factor-rho-T":
        "7c42bbca8fff640c6de90061963961d1e42cbe4fbbb337c04e8206cb14ddfcd6",
    "factor-rho-W":
        "e1c2e0d281d53d2177781407378616dc6db2c9a194576967e7899b409587633d",
    "factor-rho-word":
        "55bba9a65ad6cbded2da755538446ac5e3c811d43655dd11a1f0affbc1ad2f0a",
    "factor-anomaly_ad-S":
        "c4ccff2cdd639c5ba940b04746ce1a9a44db694b32d7e82c3b63a85783feeebb",
    "factor-anomaly_ad-T":
        "9f8ad1e855180cf5e155016d76992e13315442d90cee5a344c3873146fae6eea",
    "factor-anomaly_ad-W":
        "e1c2e0d281d53d2177781407378616dc6db2c9a194576967e7899b409587633d",
    "factor-anomaly_ad-word":
        "605d3f666b96d3783bccb20e3cd873d82ecbdcfcabdb52fb7909679acb8084e4",
    "factor-anomaly_rho-S":
        "a5f78478be6355bbbcdfad3d997f75038d621d8d15ddbf5806b4127100ada752",
    "factor-anomaly_rho-T":
        "8a0549ec71c15489676c9323d0e9063718a83176f79ef61f71ebb43322dc3e1f",
    "factor-anomaly_rho-W":
        "e1c2e0d281d53d2177781407378616dc6db2c9a194576967e7899b409587633d",
    "factor-anomaly_rho-word":
        "aa8973d058d0eb1b595133c1d05e280ba7314c58c52f60b5de7083131b94fe32",
    "factor-det_u1-S":
        "a55ebf5022f67226a22f12e5972d9d547cc3d6fdfa4574c23979a20340405e63",
    "factor-det_u1-T":
        "f390dafa3c1200f001de11cc45ad5b9ec687516bae36d6295f0dbc1d5c8ed165",
    "factor-det_u1-W":
        "e1c2e0d281d53d2177781407378616dc6db2c9a194576967e7899b409587633d",
    "factor-det_u1-word":
        "decf004ab9a21d508f5945ba1ca43744c9ad9e2ef2ec4ec9a8d265f22e059460",
    "act-S":
        "60675ba49bd7c44a8af892383a0e4c4461aed583f4f635baaed16f26c3d646b1",
    "act-T":
        "608feb98c63d5cf61f279c4274529a2cc4658640e86821b105db800a57bf2f39",
    "act-W":
        "e8f404529a2df754c22d6b7a4037b840ef3cd200a9b0a67ffbb56272e9a7b712",
    "act-word":
        "025002afe6bdb389aa68a75747a1c7acb846692b75e0baceb9489098d9cf6b75",
    "lattice-e8":
        "183c49cb18aa6b8e5d53c3ce24d4b6b1c8302c2be6611d5cd95d6c63cdc75c7c",
    "lattice-e8e8":
        "6fd9ce9e6d34c2cf5fae693d5c9818e14d66465521b60f7f1da7127c01ba0980",
    "lattice-d16plus":
        "04f0f18020d930eed6a24a7567e797d31c1bcbe217133157310dd10974227433",
    "lattice-spin16_coroot":
        "a6b7d7837a61d29634213d5e30cca3a14b3db90f257bf55768c2c9e00db19cbd",
}


@pytest.mark.parametrize("argv,rank", [c[1:] for c in _modular_cases()],
                         ids=[c[0] for c in _modular_cases()])
def test_modular_cli_output_is_byte_identical(tmp_path, monkeypatch, capsys,
                                              request, argv, rank):
    monkeypatch.chdir(tmp_path)
    if rank is not None:
        (tmp_path / "z.json").write_text(json.dumps(_z(rank)))
    assert cli.main(argv) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == MODULAR_PINNED[request.node.callspec.id]
