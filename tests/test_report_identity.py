"""Pinned digests of the verify reports of the double-complex suites and of
the lattice and modular suites.

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

import pytest

from gerbekit.cli import run_suite

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
