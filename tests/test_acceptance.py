"""End-to-end acceptance battery: seven primary criteria, each printed as a
single pass/fail line with its worst defect and wall time."""

import time

from gerbekit.suites import SUITES


def _report(name, worst, tol, elapsed, limit=None):
    ok = worst <= tol and (limit is None or elapsed <= limit)
    line = (f"[{'PASS' if ok else 'FAIL'}] {name}: worst defect "
            f"{worst:.3e} (tol {tol:.0e}, {elapsed:.1f}s)")
    print(line)
    return ok


def test_criterion_1_cochain_complex():
    t0 = time.time()
    checks = SUITES["cochain"](50, 7)
    elapsed = time.time() - t0
    worst = max(d for _, d in checks)
    assert _report("criterion 1 (d*d = 0 and the subordination homotopy, "
                   "50 cochains, degrees 1-3)", worst, 1e-10, elapsed, 60.0)


def test_criterion_2_holonomy():
    t0 = time.time()
    checks = dict(SUITES["holonomy"](20, 11))
    elapsed = time.time() - t0
    ok1 = _report("criterion 2a (global-form holonomy = 2 pi alpha)",
                  checks["global_form_holonomy"], 1e-10, elapsed)
    worst = max(checks["subordination_shift_s1"],
                checks["subordination_shift_t2"])
    ok2 = _report("criterion 2b (subordination change lands in 2 pi Z, "
                  "20+ cocycles)", worst, 1e-8, elapsed)
    assert ok1 and ok2


def test_criterion_3_pushforward():
    t0 = time.time()
    checks = dict(SUITES["pushforward"](40, 13))
    elapsed = time.time() - t0
    ok1 = _report("criterion 3a (push-forward Stokes, S^1 fiber)",
                  checks["stokes_s1"], 1e-10, elapsed)
    ok2 = _report("criterion 3b (push-forward Stokes, T^2 hex fiber)",
                  checks["stokes_t2"], 1e-9, elapsed)
    ok3 = _report("criterion 3c (cocycles push to cocycles)",
                  checks["cocycle_closed"], 1e-10, elapsed)
    ok4 = _report("criterion 3d (two-subordination homotopy residual)",
                  checks["homotopy_residual"], 1e-9, elapsed)
    assert ok1 and ok2 and ok3 and ok4


def test_criterion_4_chern_simons():
    t0 = time.time()
    checks = dict(SUITES["chernsimons"](20, 17))
    elapsed = time.time() - t0
    worst = max(checks["d_cs_equals_ff"], checks["gauge_variation"])
    assert _report("criterion 4 (d CS = <F,F> and the gauge variation, "
                   "20 su(2) connections)", worst, 1e-10, elapsed, 30.0)


def test_criterion_5_lattice_constants():
    t0 = time.time()
    checks = SUITES["lattice"](1, 0)
    elapsed = time.time() - t0
    worst = max(float(d) for _, d in checks)
    assert _report("criterion 5 (exact lattice constants: 240/2160, 112, "
                   "30, 135, weight identity, anomaly sums)",
                   worst, 0.0, elapsed)


def test_criterion_6_modular():
    t0 = time.time()
    checks = dict(SUITES["modular"](20, 19))
    elapsed = time.time() - t0
    tols = {"eta_shift": 1e-12, "eta_inversion": 1e-10,
            "chi_24th_root": 1e-9, "theta1_odd": 1e-12,
            "det_section_q1_law": 1e-9, "det_section_q2_law": 1e-9,
            "theta_e8e8_square": 1e-10, "theta_vs_enumeration": 1e-10,
            "character_T_law": 1e-8, "character_W_law": 1e-8,
            "char_cocycle_TT": 1e-8, "ad_is_char_pow30": 1e-8,
            "extra_multiplier_eta16": 1e-9}
    worst_rel = max(checks[k] / tols[k] for k in tols)
    ok = _report("criterion 6 (eta/theta laws, character transforms, "
                 "chi^24 = 1, ad = char^30)", worst_rel, 1.0, elapsed, 120.0)
    assert ok and elapsed <= 120.0


def test_criterion_7_flat_classes():
    t0 = time.time()
    checks = dict(SUITES["crossmodule"](10, 23))
    elapsed = time.time() - t0
    assert _report("criterion 7 (flat 2-cocycle class invariant under flat "
                   "coboundaries)",
                   checks["flat_class_coboundary_invariance"], 1e-8, elapsed)
