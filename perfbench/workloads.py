"""The benchmark's workloads: seeded lists of `gerbekit.cli.main` calls and
the checks on what each call returned.

Every input derives from the workload seed through `derive_seed`; the
program under test only ever sees the generated argv lists and files.
Importing this module does not import gerbekit, so a worker can time that
import as part of set-up.
"""

from __future__ import annotations

import cmath
import hashlib
import json
import math
import os
import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

VERIFY_TOL = 1e-8          # the CLI's default `--tol`, passed explicitly

# (suite, trials) per pass.  Trial counts balance the layers named in
# NOTES.md: chernsimons gets enough trials that liecs is not a rounding
# error next to the trigform-heavy cochain and crossmodule suites.
VERIFY_WORKLOADS: Dict[str, Tuple[Tuple[str, int], ...]] = {
    "complex": (("cochain", 6), ("chernsimons", 20), ("holonomy", 10),
                ("crossmodule", 4)),
    "pushforward": (("pushforward", 2),),
    "modular": (("lattice", 1), ("modular", 20)),
}
WORKLOADS = tuple(VERIFY_WORKLOADS) + ("requests",)

S1_COVER = "circle:4:0.7"
T2_COVER = "torus:3:3:0.75"
PF_COVER = "product:circle:3:0.6|circle:4:0.7"
S1_DEC = "circle:20"
T2_DEC = "hex:6"
LATTICES = ("e8", "e8e8", "d16plus")


def derive_seed(*parts) -> int:
    """A 31-bit seed determined by the parts (the workload seed first)."""
    digest = hashlib.sha256("/".join(str(p) for p in parts).encode()).digest()
    return int.from_bytes(digest[:4], "big") & 0x7FFFFFFF


# ---------------------------------------------------------------------------
# calls and their outcomes


@dataclass
class Call:
    """One `cli.main(argv)` invocation plus what the check needs to know."""
    kind: str
    argv: List[str]
    expect: Dict = field(default_factory=dict)


@dataclass
class Outcome:
    """What one call returned, as captured by the worker."""
    rc: Optional[int]
    stdout: str
    error: str = ""          # repr of an exception that escaped cli.main


def verify_calls(workload: str, seed: int, pass_index: int) -> List[Call]:
    calls = []
    for suite, trials in VERIFY_WORKLOADS[workload]:
        k = derive_seed(seed, workload, pass_index, suite)
        calls.append(Call("verify", ["verify", "--suite", suite,
                                     "--trials", str(trials),
                                     "--seed", str(k),
                                     "--tol", repr(VERIFY_TOL)],
                          {"suite": suite, "trials": trials, "seed": k}))
    return calls


def report_key(call: Call) -> str:
    e = call.expect
    return f"{e['suite']}:{e['trials']}:{e['seed']}:{VERIFY_TOL!r}"


def check_verify(call: Call, out: Outcome) -> Tuple[int, int, bool]:
    """(checks attempted, checks failed, report well formed).

    A check fails if `pass` is false or `max_defect` is not finite; a call
    that raises or prints no report counts as one failed check.  A report is
    well formed when it echoes its flags, marks `pass` as `max_defect <= tol`,
    and the exit code agrees with `all_pass`.
    """
    if out.error:
        return 1, 1, True
    try:
        rep = json.loads(out.stdout)
    except ValueError:
        return 1, 1, False
    e = call.expect
    checks = rep.get("checks") or []
    failed = sum(1 for c in checks
                 if not c["pass"] or not math.isfinite(c["max_defect"]))
    ok = (rep.get("suite") == e["suite"] and rep.get("trials") == e["trials"]
          and rep.get("seed") == e["seed"] and rep.get("tol") == VERIFY_TOL
          and bool(checks)
          and all(c["pass"] == (c["max_defect"] <= VERIFY_TOL) for c in checks)
          and rep.get("all_pass") == all(c["pass"] for c in checks)
          and out.rc == (0 if rep.get("all_pass") else 1))
    return max(len(checks), 1), failed if checks else 1, ok


# ---------------------------------------------------------------------------
# the request mix


def _cpx(z: complex) -> List[float]:
    return [z.real, z.imag]


def _small_z(rng: random.Random, rank: int) -> List[complex]:
    return [complex(0.3 * (rng.random() - 0.5), 0.3 * (rng.random() - 0.5))
            for _ in range(rank)]


def _tau(rng: random.Random) -> complex:
    return complex(rng.uniform(-0.5, 0.5), rng.uniform(0.9, 1.6))


def _cocycle_file(gk, np_rng, cover_id: str, amb: int, path: str) -> float:
    """Write from_global_form(T) + D(xi) for a random real top-degree form T
    and return its holonomy mod 2pi, which is the integral of T."""
    cover = gk.serialize.cover_from_id(cover_id)
    T = gk.suites.random_real_form(np_rng, amb, amb)
    c = T.terms.get(((0,) * amb, tuple(range(amb))), 0.0)
    xi = gk.suites.random_alternating_cochain(np_rng, cover, amb - 1, amb,
                                              with_field_strength=False)
    om = gk.cochain.from_global_form(T, cover) + gk.cochain.total_d(xi)
    gk.serialize.save_cochain(path, om, cover_id)
    return (c * (2 * math.pi) ** amb).real


def request_calls(seed: int, workdir: str) -> List[Call]:
    """Generate the inputs of the `requests` workload and its templates.

    Writes cochain and z files under `workdir`.  Each template runs once per
    round; a round is a seeded shuffle of all of them (`round_order`).
    """
    import numpy as np
    import gerbekit.cochain
    import gerbekit.serialize
    import gerbekit.suites
    import gerbekit as gk

    rng = random.Random(derive_seed(seed, "requests", "inputs"))
    np_rng = np.random.default_rng(derive_seed(seed, "requests", "cochains"))
    calls: List[Call] = []

    def path(name: str) -> str:
        return os.path.join(workdir, name)

    for i in range(3):
        f = path(f"s1_{i}.json")
        hol = _cocycle_file(gk, np_rng, S1_COVER, 1, f)
        calls.append(Call("holonomy_s1", ["holonomy", "--cochain", f,
                                          "--decomposition", S1_DEC],
                          {"holonomy": hol, "cells": 2 * 20}))
    for i in range(2):
        f = path(f"t2_{i}.json")
        hol = _cocycle_file(gk, np_rng, T2_COVER, 2, f)
        calls.append(Call("holonomy_t2", ["holonomy", "--cochain", f,
                                          "--decomposition", T2_DEC],
                          {"holonomy": hol, "cells": 6 * 6 * 6}))
    pf_cover = gk.serialize.cover_from_id(PF_COVER)
    for i, degree in enumerate((1, 2, 2)):
        f = path(f"pf_{i}.json")
        om = gk.suites.random_alternating_cochain(np_rng, pf_cover, degree, 2)
        gk.serialize.save_cochain(f, om, PF_COVER)
        argv = ["pushforward", "--cochain", f, "--decomposition", S1_DEC]
        calls.append(Call("pushforward", argv, {"degree": degree - 1}))
        # Without --output-cover-id: the written file must still load.
        calls.append(Call("pushforward_output",
                          argv + ["--output", path(f"pf_{i}_out.json")],
                          {"degree": degree - 1,
                           "output": path(f"pf_{i}_out.json")}))

    ranks = {"e8": 8, "e8e8": 16, "d16plus": 16}
    zfiles = {}
    for name, rank in ranks.items():
        for tag, z in (("zero", [0j] * rank), ("rand", _small_z(rng, rank))):
            f = path(f"z_{name}_{tag}.json")
            with open(f, "w") as fh:
                json.dump([_cpx(c) for c in z], fh)
            zfiles[name, tag] = (f, z)
    for name in LATTICES:
        for tag in ("zero", "rand"):
            f, z = zfiles[name, tag]
            tau = _tau(rng)
            arg = f"--tau={tau.real!r},{tau.imag!r}"
            calls.append(Call("theta", ["theta", "--lattice", name, arg,
                                        "--z", f],
                              {"lattice": name, "tau": tau, "z": z}))
            if ranks[name] == 16:
                tau = _tau(rng)
                arg = f"--tau={tau.real!r},{tau.imag!r}"
                calls.append(Call("character",
                                  ["character", "--lattice", name, arg,
                                   "--z", f],
                                  {"lattice": name, "tau": tau, "z": z}))

    def root(rank: int, i: int, sign: int = 1) -> List[int]:
        # a basis vector; all have norm 2 but vector 0 of d16plus (norm 4)
        v = [0] * rank
        v[i] = sign
        return v

    def point(rank: int) -> Dict:
        return {"tau": _cpx(_tau(rng)), "z": [_cpx(c) for c in _small_z(rng, rank)]}

    refl = gk.modform.reflection_element(gk.lattice.builtin("e8e8"),
                                         root(16, 3)).data
    factors = [
        ("char", "e8e8", {"T": [root(16, rng.randrange(14)),
                                root(16, rng.randrange(14), -1)]}),
        ("ad", "d16plus", {"S": [1, 1, 0, 1]}),
        ("rho", "e8e8", {"S": [0, -1, 1, 0]}),
        ("anomaly_ad", "e8e8", {"W": [list(r) for r in refl]}),
        ("anomaly_rho", "d16plus", [{"S": [1, 1, 0, 1]},
                                    {"T": [root(16, rng.randrange(14)),
                                           [0] * 16]}]),
        ("det_u1", None, [{"T": [[1], [0]]}, {"S": [0, -1, 1, 0]}]),
    ]
    for family, lat, element in factors:
        rank = ranks[lat] if lat else 1
        argv = ["factor", "--family", family, "--element", json.dumps(element),
                "--point", json.dumps(point(rank))]
        if lat:
            argv += ["--lattice", lat]
        calls.append(Call("factor", argv, {"family": family, "lattice": lat}))
    acts = [{"S": [1, 1, 0, 1]}, {"S": [0, -1, 1, 0]},
            {"T": [root(8, rng.randrange(6)), root(8, rng.randrange(6), -1)]},
            [{"S": [1, 2, 0, 1]}, {"T": [[0] * 8, root(8, rng.randrange(6))]}]]
    for element in acts:
        p = point(8)
        calls.append(Call("act", ["act", "--element", json.dumps(element),
                                  "--point", json.dumps(p)],
                          {"element": element, "point": p}))
    for name, norm in (("e8", 2), ("e8", 4), ("e8e8", 2), ("d16plus", 2)):
        calls.append(Call("lattice", ["lattice", "--name", name,
                                      "--enumerate-norm", str(norm)],
                          {"name": name, "norm": norm}))
    return calls


def round_order(seed: int, slice_index: int, round_index: int,
                n: int) -> List[int]:
    order = list(range(n))
    random.Random(derive_seed(seed, "requests", slice_index,
                              round_index)).shuffle(order)
    return order


# -- reference values for the request checks ---------------------------------


def _e4(tau: complex, terms: int = 60) -> complex:
    """Eisenstein E4 = theta of E8 at z = 0, from its divisor-sum series."""
    q = cmath.exp(2j * math.pi * tau)
    return 1 + 240 * sum(sum(d ** 3 for d in range(1, m + 1) if m % d == 0)
                         * q ** m for m in range(1, terms))


def _act_ref(element, tau: complex, z: Sequence[complex]):
    """The (tau, z) action of S and T generators and words, in closed form."""
    if isinstance(element, list):
        for e in reversed(element):
            tau, z = _act_ref(e, tau, z)
        return tau, z
    if "S" in element:
        a, b, c, d = element["S"]
        den = c * tau + d
        return (a * tau + b) / den, [x / den for x in z]
    q1, q2 = element["T"]
    return tau, [x + a + tau * b for x, a, b in zip(z, q1, q2)]


def _close(a: complex, b: complex, rel: float) -> bool:
    return abs(a - b) <= rel * max(1.0, abs(b))


def _finite(*vals) -> bool:
    return all(math.isfinite(v) for v in vals)


def check_request(call: Call, out: Outcome) -> Tuple[bool, str]:
    """(ok, reason).  A request fails if it raises, exits non-zero, prints
    malformed or non-finite JSON, or its value disagrees with the reference
    (closed forms where one exists, else the library evaluated in-process)."""
    if out.error:
        return False, out.error
    if out.rc != 0:
        return False, f"exit code {out.rc}"
    try:
        res = json.loads(out.stdout)
    except ValueError:
        return False, "malformed JSON"
    nums = [v for v in res.values() if isinstance(v, (int, float))]
    if not _finite(*nums):
        return False, "non-finite value"
    e = call.expect
    kind = call.kind
    if kind.startswith("holonomy"):
        val = res["value"]
        off = val - e["holonomy"]
        off -= 2 * math.pi * round(off / (2 * math.pi))
        ok = (abs(off) < 1e-7 and res["cells_used"] == e["cells"]
              and _close(complex(res["phase_re"], res["phase_im"]),
                         cmath.exp(1j * val), 1e-12))
        return ok, "" if ok else "holonomy disagrees with the global form"
    if kind.startswith("pushforward"):
        if res["degree"] != e["degree"] or not res["stokes_defect"] <= VERIFY_TOL:
            return False, "push-forward degree or Stokes defect"
        if kind == "pushforward":
            return True, ""
        import gerbekit.serialize
        try:
            back = gerbekit.serialize.load_cochain(e["output"])
        except (ValueError, OSError, KeyError) as exc:
            return False, f"--output file does not load: {exc}"
        ok = back.degree == e["degree"]
        return ok, "" if ok else "reloaded cochain has the wrong degree"
    if kind in ("theta", "character"):
        from gerbekit import lattice, modform
        L = lattice.builtin(e["lattice"])
        fn = modform.theta_lattice if kind == "theta" else modform.character
        got = complex(res["value_re"], res["value_im"])
        ok = _close(got, fn(L, e["tau"], e["z"]), 1e-12)
        if ok and kind == "theta" and not any(e["z"]):
            power = 1 if L.rank == 8 else 2
            ok = _close(got, _e4(e["tau"]) ** power, 1e-9)
        return ok, "" if ok else f"{kind} value disagrees with reference"
    if kind == "factor":
        from gerbekit import cli, lattice, modform
        argv = dict(zip(call.argv[1::2], call.argv[2::2]))
        L = lattice.builtin(e["lattice"]) if e["lattice"] else None
        ref = modform.factor(modform.AutomorphyFamily(e["family"], L),
                             cli.parse_element(argv["--element"]),
                             cli.parse_point(argv["--point"]))
        ok = _close(complex(res["value_re"], res["value_im"]), ref, 1e-12)
        return ok, "" if ok else "factor disagrees with reference"
    if kind == "act":
        p = e["point"]
        tau, z = _act_ref(e["element"], complex(*p["tau"]),
                          [complex(*c) for c in p["z"]])
        ok = (_close(complex(*res["tau"]), tau, 1e-12) and
              len(res["z"]) == len(z) and
              all(_close(complex(*g), w, 1e-12) for g, w in zip(res["z"], z)))
        return ok, "" if ok else "act disagrees with the closed form"
    if kind == "lattice":
        shells = {"e8": {"0": 1, "2": 240, "4": 2160},
                  "e8e8": {"0": 1, "2": 480, "4": 61920},
                  "d16plus": {"0": 1, "2": 480, "4": 61920}}[e["name"]]
        want = {k: v for k, v in shells.items() if int(k) <= e["norm"]}
        ok = res["counts"] == want
        return ok, "" if ok else "shell counts differ from the theta series"
    return False, f"unknown request kind {kind}"
