"""Pinned digests of the verify reports of the double-complex suites and of
the lattice and modular suites, and of the `holonomy` and `pushforward`
evaluators' output.

A refactor of the term kernels, the cochain operators or the lattice
enumeration must leave every reported defect bit for bit the same; these
SHA-256 digests of `json.dumps(report.to_json(), indent=1)` fail on any
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

PINNED = [
    ("cochain", 3, 0, "e4bfc87ee7dd7b39e124e43f4575814d68d61f6326bb6b07d0479c892aff7466"),
    ("chernsimons", 6, 0, "739dfa06f9f8ee3eb403854802abe1baea129b0d5bcbd155dfc817037da528b5"),
    ("holonomy", 3, 0, "08e1b5d8a5e2f2205eb4c8aa0377e76ebec82d37a9238e47299056492765e3b0"),
    ("crossmodule", 3, 0, "85562ba3f7948d5b1d268fca4cc2f0be4f2eecb2078bb5c611caa0f72a6733fd"),
    ("pushforward", 1, 0, "fe7fb7d96e6374b5ac190411e6f02dc489199ece025192333cacbdf57574f904"),
    ("cochain", 3, 1, "dcaedd3f4229479daf94a134d2312fd72ed579efd7b9fbb0b2065e9176a3eed8"),
    ("chernsimons", 6, 1, "c78d47f7e8543f1fb7c008b0e88d769d63e2c3446b390fe02700aeeeef956e3a"),
    ("holonomy", 3, 1, "faf5219ffd6f97e4fac0cc1d8692a160c58f52618524233969a1d5057775d786"),
    ("crossmodule", 3, 1, "d6e5d551864d192a3f76871835ccf15a1cf97415ddac2dc1e19670747bd3dba7"),
    ("pushforward", 1, 1, "6b78ba9cb59f1ce167bbbdd49b257e87669b58f6242ef97b5da8df8c6675f057"),
    ("lattice", 1, 0, "b9323ca76ead1cace9bbd87219d3dad9c603807c35a740af81ca70cc3d159526"),
    ("modular", 20, 0, "02bab57a418ce0745dd55eeebda98b9da66056983fb075faa773ae522a8c7910"),
    ("lattice", 1, 1, "16f74f52fc6ace50d595e577f9b586718b49906aa93faf0626371062a47b1c0d"),
    ("modular", 20, 1, "3a9f16b508bc0549ef3a3ff705ae38df26f96aa987916eadc2c82afc6c9d47bf"),
]


@pytest.mark.parametrize("suite,trials,seed,digest", PINNED,
                         ids=[f"{s}-{t}-{seed}" for s, t, seed, _ in PINNED])
def test_report_is_byte_identical(suite, trials, seed, digest):
    report = run_suite(suite, trials, seed, 1e-8).to_json()
    text = json.dumps(report, indent=1)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


# The single-shot evaluators: `holonomy` on seeded cocycle files over a
# circle and a torus cover, and `pushforward` with and without `--output` on
# a seeded product-cover cochain.  Each case writes its input `in.json` from
# a recipe (kind, cover id, degree, seed) and pins the SHA-256 of that file,
# of stdout and of any `--output` file.  Paths are relative to a fresh
# working directory, so stdout, which echoes `--output`, does not depend on
# where the test runs.
PF_INPUT = ("alternating", "product:circle:3:0.6|circle:4:0.7", 2, 7)
CLI_PINNED = [
    ("holonomy-circle:20", ["holonomy", "--decomposition", "circle:20"],
     ("cocycle", "circle:4:0.7", 1, 5), {
         "in.json": "d46bb70afb2653cb369ead4fb981fc50fb99a64cbb7e62d7e586cc6de18f81a9",
         "stdout": "0f1a2a02eefba8a89159b76b49963a01b5a7b667fcc4596a41d09858099c495d"}),
    ("holonomy-hex:6", ["holonomy", "--decomposition", "hex:6"],
     ("cocycle", "torus:3:3:0.75", 2, 6), {
         "in.json": "0bdbb80a7aff55fb2ee5bc033c47ac725d3265e06ca2bc9c85fe57c5d683461f",
         "stdout": "8ec3a68e3954bd298fbcf7a067652b25305cb90829b679188df6b0079153e9d1"}),
    ("pushforward", ["pushforward", "--decomposition", "circle:20"],
     PF_INPUT, {
         "in.json": "7d8a2065e589423392b179de1e3f1e2a875677ca0f7812be4bfe7cbfd8542da4",
         "stdout": "2c59784b8d0b2ecf59330ca4ef0c95a244d42905299d6d2ec40667bd05873f7c"}),
    ("pushforward-output", ["pushforward", "--decomposition", "circle:20",
                            "--output", "out.json"],
     PF_INPUT, {
         "in.json": "7d8a2065e589423392b179de1e3f1e2a875677ca0f7812be4bfe7cbfd8542da4",
         "stdout": "55bdbbbf61964413baeee90212e5da44f3bc5443e0629f2f8d76e3e14d52e778",
         "out.json": "b10152bc3a1b3bb5610a899631982bd4664bd66653e0cdcf4333c0d4c6e8e074"}),
    # a 2-dimensional fibre: the output holds 5 nonzero integer components
    ("pushforward-hex:6-output", ["pushforward", "--decomposition", "hex:6",
                                  "--output", "out.json"],
     ("alternating", "product:circle:3:0.6|torus:3:3:0.75", 2, 7), {
         "in.json": "a4a21812978c6b5a0ad6a2c013a76c9efd9e88c1d3061742494fd50c470ab412",
         "stdout": "772a10b660d673ca81d12e5b48e248137c4c519a6cffb2b99c639190b67323d7",
         "out.json": "1874b11b03cb25432cb5a942d846477523841a03688dd624003ff4891768ec3a"}),
]


def _write_input(path, kind, cover_id, degree, seed):
    cover = serialize.cover_from_id(cover_id)
    rng = np.random.default_rng(seed)
    if kind == "cocycle":
        om = random_cocycle(rng, cover, degree, cover.factors)
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
    got.update((name, (tmp_path / name).read_bytes())
               for name in digests if name != "stdout")
    assert {name: hashlib.sha256(data).hexdigest()
            for name, data in got.items()} == digests
