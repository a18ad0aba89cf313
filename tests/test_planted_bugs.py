"""Planted bugs that the verify battery must catch.

Each bug is a one-line edit of the package in a copy of `src/`.  A fresh
interpreter runs the suite that should catch it at one trial and seed 0,
and every check the bug names must print `[FAIL]`.  A crash is no catch:
the check must have run and reported its defect.  A control run of each
suite on the unedited copy passes every check, so a failure comes from the
edit alone.
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "gerbekit"

# (id, module, text as it stands, text with the bug, suite, checks that fail)
BUGS = [
    ("B-hex-point-sign", "covers.py", "Cell([pt], sign)", "Cell([pt], -sign)",
     "holonomy", ("subordination_shift_t2",)),
    ("C-path-area-parity", "fiberint.py", "area + (p - 1)", "area + p",
     "pushforward", ("stokes_s1",)),
    # the prism indices serve homotopy_k and pushforward_homotopy alike
    ("D-homotopy-sign", "cochain.py",
     "(t % 2, a[:t] + b[t - 1:])", "((t + 1) % 2, a[:t] + b[t - 1:])",
     "cochain", ("homotopy_identity_s1",)),
    # dd_zero walks a flagged cochain on its sorted supports alone; the
    # homotopy reads the permuted lookups
    ("P-permuted-lookup-without-sign", "cochain.py",
     "return value if sign == 1 else -1 * value", "return value",
     "cochain", ("homotopy_identity_s1",)),
    ("G-integer-row-without-point-signs", "fiberint.py",
     "cell.sign * signed_sum(0, (", "signed_sum(0, (",
     "pushforward", ("stokes_s1", "stokes_t2")),
    ("H-point-evaluation-without-sign", "trigform.py",
     "cell.sign * cmath.exp(", "cmath.exp(",
     "holonomy", ("subordination_shift_s1", "subordination_shift_t2")),
    ("W-wedge-without-axis-sign", "trigform.py",
     "table[i, j] = 2 * axes_id + (ss[1] < 0)", "table[i, j] = 2 * axes_id",
     "chernsimons", ("bracket_oracle", "gauge_variation", "mc_flat")),
    # one structure constant of su(2) with the wrong sign: component 1 of
    # [x, y] reads x_0 y_2 + x_2 y_0
    ("X-cross-product-term-sign", "liecs.py", "xy(0, 2) - xy(2, 0)",
     "xy(0, 2) + xy(2, 0)", "chernsimons",
     ("bianchi", "bracket_oracle", "gauge_variation", "mc_flat")),
    # the kernels never read the basis; the bracket oracle's matrices do
    ("U-su2-basis-s3-identity", "liecs.py",
     "s3 = np.array([[1, 0], [0, -1]], dtype=complex)",
     "s3 = np.array([[1, 0], [0, 1]], dtype=complex)", "chernsimons",
     ("bracket_oracle",)),
    ("M-coxeter-exponent", "modform.py", "COXETER_EXPONENT = 30",
     "COXETER_EXPONENT = 31", "modular", ("ad_is_char_pow30",)),
    # the class is invariant under coboundaries either way; only its value
    # tells 2pi from pi
    ("K-class-mod-pi", "cochain.py",
     "holonomy(omega, dec, rho) % (2 * math.pi)",
     "holonomy(omega, dec, rho) % math.pi",
     "crossmodule", ("flat_class_value",)),
    # chi_24th_root reads the Dedekind sum only through its fixed matrices:
    # every suite word has s(d, c) = 0
    ("Q-eta-multiplier-without-quarter", "modform.py",
     "_dedekind_sum(d, c) - Fraction(1, 4)", "_dedekind_sum(d, c)",
     "modular", ("chi_24th_root",)),
    ("R-dedekind-sum-sign", "modform.py", "_dedekind_sum(d, c)",
     "_dedekind_sum(-d, c)", "modular", ("chi_24th_root",)),
    # [[1, 0], [c, 1]] takes one reciprocity step; (2, -1, 7, -3) and
    # (3, 1, 11, 4) take more
    ("S-dedekind-reciprocity-sign", "modform.py",
     "h, k, sign = k % h, h, -sign", "h, k, sign = k % h, h, sign",
     "modular", ("chi_24th_root",)),
    # the coroot Gram no longer matches its basis: both descriptions of the
    # lattice are compared, and the norm-1 shell is no longer the coroots
    ("L-coroot-cartan-edge", "lattice.py", "[(5, 7)]", "[(4, 7)]", "lattice",
     ("spin16_series_112", "weight_identity")),
    # the images are the coroots themselves, (1/2)(+-x_i+-x_j), not in e8:
    # the row fails its integer confirmation and the check reads 1
    ("L-embedding-without-doubling", "lattice.py",
     "2 * (V.astype(np.int64) @ coroot.basis)",
     "(V.astype(np.int64) @ coroot.basis)", "lattice",
     ("spin16_series_112",)),
    # the glue coroot (1/2)(x_5 + x_6 + x_7) doubles to an odd vector
    ("L-glue-row-three-coordinates", "lattice.py", "a >= 6", "a >= 5",
     "lattice", ("spin16_series_112", "weight_identity")),
]


def _verify(root: Path, suite: str, module=None, old="", new=""):
    """`verify --suite SUITE --trials 1 --seed 0` on a copy of the package
    under root, with `old` replaced by `new` in `module` if one is given."""
    shutil.copytree(PACKAGE, root / "gerbekit",
                    ignore=shutil.ignore_patterns("__pycache__"))
    if module:
        path = root / "gerbekit" / module
        text = path.read_text()
        assert text.count(old) == 1, f"{old!r} is not one place in {module}"
        path.write_text(text.replace(old, new))
    return subprocess.run(
        [sys.executable, "-B", "-m", "gerbekit.cli", "verify", "--suite",
         suite, "--trials", "1", "--seed", "0"],
        cwd=root, env={**os.environ, "PYTHONPATH": str(root)},
        capture_output=True, text=True, timeout=60)


@pytest.mark.parametrize("module,old,new,suite,checks",
                         [b[1:] for b in BUGS], ids=[b[0] for b in BUGS])
def test_a_planted_bug_fails_its_check(tmp_path, module, old, new, suite,
                                       checks):
    proc = _verify(tmp_path, suite, module, old, new)
    assert proc.returncode == 1, proc.stderr
    lines = proc.stderr.splitlines()
    for check in checks:
        assert any(line.startswith(f"[FAIL] {suite}/{check}: ")
                   for line in lines), proc.stderr


@pytest.mark.parametrize("suite", sorted({b[4] for b in BUGS}))
def test_the_unedited_copy_passes_every_check(tmp_path, suite):
    proc = _verify(tmp_path, suite)
    assert proc.returncode == 0, proc.stderr
    assert "[FAIL]" not in proc.stderr
    assert f"suite {suite}: PASS" in proc.stderr
