"""Command-line entry point: verification suites and ad-hoc evaluators.

Exit codes: 0 all checks pass, 1 a check failed or a computation error,
2 usage error.  Machine output is JSON on stdout with stable field order;
human-readable summaries go to stderr.
"""

from __future__ import annotations

import argparse
import cmath
import functools
import json
import math
import sys
import time
from typing import Dict, List, Optional, Tuple

from . import serialize
from .cochain import COCYCLE_TOL, total_d
from .covers import two_subordinations
from .fiberint import pushforward, pushforward_commutes_defect
from .holonomy import holonomy
from .lattice import builtin, theta_counts
from .modform import (AutomorphyFamily, GroupElement, ModuliPoint, act,
                      factor, _character_with_terms, _theta_with_terms)
from .suites import SUITES

DEFAULT_TRIALS = {"cochain": 50, "holonomy": 20, "pushforward": 20,
                  "chernsimons": 20, "lattice": 1, "modular": 20,
                  "crossmodule": 10}


def run_suite(name: str, trials: int, seed: int, tol: float) -> Dict:
    """The suite's JSON report: one check per identity, with its largest
    defect and whether that is at most tol (a NaN is not)."""
    if name not in SUITES:
        raise ValueError(f"unknown suite: {name}")
    checks = [{"name": n, "max_defect": float(d), "pass": bool(float(d) <= tol)}
              for n, d in SUITES[name](trials, seed)]
    return {"suite": name, "trials": trials, "seed": seed, "tol": tol,
            "checks": checks, "all_pass": all(c["pass"] for c in checks)}


# ---------------------------------------------------------------------------
# flag parsing helpers


def non_negative_int(s: str) -> int:
    value = int(s)
    if value < 0:
        raise argparse.ArgumentTypeError(f"{value} is negative")
    return value


def series_tol(s: str) -> float:
    """A series tolerance: a float below 1 and no smaller than the least
    normal float, as the truncation bounds take the logarithm of it, of
    its reciprocal and of its product with a number below 1."""
    value = float(s)
    if not sys.float_info.min <= value < 1:
        raise argparse.ArgumentTypeError(
            f"{s} is not in [{sys.float_info.min!r}, 1)")
    return value


def check_tol(s: str) -> float:
    """A check tolerance: a finite float no smaller than 0, as an infinite
    one would pass an infinite defect, a NaN would pass nothing and print
    as no JSON number, and a negative one would fail a zero defect."""
    value = float(s)
    if not 0 <= value < math.inf:
        raise argparse.ArgumentTypeError(f"{s} is not a finite float >= 0")
    return value


def parse_complex(s: str) -> complex:
    """RE,IM: the real and the imaginary part."""
    try:
        re, im = map(float, s.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"{s} is not RE,IM, two numbers") from None
    return complex(re, im)


_ITEMS = {(int,): "integers", (int, float): "numbers", (list,): "lists"}


def _json_list(x, what: str, kinds: tuple, length: Optional[int] = None) -> list:
    """x, checked to be a JSON list (of the given length) of items of the
    given types; a bool is not an int here."""
    if (not isinstance(x, list) or any(type(a) not in kinds for a in x)
            or length not in (None, len(x))):
        count = "" if length is None else f"{length} "
        raise ValueError(f"{what} must be a list of {count}{_ITEMS[kinds]}, "
                         f"got {json.dumps(x)}")
    return x


def _complex(p, what: str) -> complex:
    value = complex(*_json_list(p, what + " [re, im]", (int, float), 2))
    if not cmath.isfinite(value):
        raise ValueError(f"{what} must be finite, got {json.dumps(p)}")
    return value


def parse_z(s: str, rank: int) -> Tuple[complex, ...]:
    """'zeros', or a file holding a JSON list of [re, im] pairs."""
    if s == "zeros":
        return (0j,) * rank
    with open(s) as fh:
        pairs = json.load(fh)
    if not isinstance(pairs, list):
        raise ValueError("z file must hold a list of [re, im] pairs")
    z = tuple(_complex(p, "z coordinate") for p in pairs)
    if len(z) != rank:
        raise ValueError(f"z file has {len(z)} coordinates, expected {rank}")
    return z


def parse_element(s: str) -> GroupElement:
    data = json.loads(s)
    return _element_from_obj(data)


def _element_from_obj(data) -> GroupElement:
    if isinstance(data, list):
        return GroupElement.word([_element_from_obj(e) for e in data])
    if isinstance(data, dict) and len(data) == 1:
        if "S" in data:
            return GroupElement.S(*_json_list(data["S"], "S", (int,), 4))
        if "T" in data:
            q1, q2 = _json_list(data["T"], "T", (list,), 2)
            return GroupElement.T(_json_list(q1, "T's q1", (int,)),
                                  _json_list(q2, "T's q2", (int,)))
        if "W" in data:
            return GroupElement.W([_json_list(row, "a W row", (int,))
                                   for row in _json_list(data["W"], "W",
                                                         (list,))])
    raise ValueError("element must be an object with exactly one key, S, T "
                     f"or W, or a list of elements, got {json.dumps(data)}")


def parse_point(s: str) -> ModuliPoint:
    data = json.loads(s)
    if not isinstance(data, dict) or data.keys() != {"tau", "z"}:
        raise ValueError('point must be {"tau": [re, im], "z": [[re, im], '
                         '...]} and nothing else, got ' + json.dumps(data))
    z = tuple(_complex(p, "z coordinate")
              for p in _json_list(data["z"], "z", (list,)))
    return ModuliPoint(_complex(data["tau"], "tau"), z)


def emit(obj: Dict) -> None:
    print(json.dumps(obj, indent=1))


# ---------------------------------------------------------------------------
# subcommands


def cmd_verify(args) -> int:
    names = list(SUITES) if args.suite == "all" else [args.suite]
    if args.report:
        # a report path that cannot be written fails before any suite runs;
        # opened to append, an old report keeps its bytes until the new one
        # is written
        open(args.report, "a").close()
    reports, seconds = [], []
    for n in names:
        t0 = time.time()
        reports.append(run_suite(n, args.trials or DEFAULT_TRIALS[n],
                                 args.seed, args.tol))
        seconds.append(time.time() - t0)
    payload = reports[0] if len(reports) == 1 else {"suites": reports}
    emit(payload)
    # wall times go to stderr only, so reports are byte-identical per
    # (seed, flags)
    for r, secs in zip(reports, seconds):
        for c in r["checks"]:
            mark = "pass" if c["pass"] else "FAIL"
            print(f"[{mark}] {r['suite']}/{c['name']}: "
                  f"max_defect={c['max_defect']:.3e}", file=sys.stderr)
        print(f"suite {r['suite']}: {'PASS' if r['all_pass'] else 'FAIL'} "
              f"({secs:.1f}s)", file=sys.stderr)
    if args.report:
        with open(args.report, "w") as fh:
            json.dump(payload, fh, indent=1)
    return 0 if all(r["all_pass"] for r in reports) else 1


def cmd_series(args) -> int:
    """theta or character, as the command names."""
    L = builtin(args.lattice)
    z = parse_z(args.z, L.rank)
    if args.command == "theta":
        val, terms = _theta_with_terms(L, args.tau, z, args.tol)
    else:
        val, terms = _character_with_terms(L, args.tau, z, args.tol)
    emit({"value_re": val.real, "value_im": val.imag,
          "tol_used": args.tol, "terms_summed": terms})
    return 0


def cmd_factor(args) -> int:
    L = builtin(args.lattice) if args.lattice else None
    fam = AutomorphyFamily(args.family, L)
    g = parse_element(args.element)
    x = parse_point(args.point)
    val = factor(fam, g, x)
    emit({"value_re": val.real, "value_im": val.imag})
    return 0


def cmd_act(args) -> int:
    g = parse_element(args.element)
    x = parse_point(args.point)
    y = act(g, x)
    emit({"tau": [y.tau.real, y.tau.imag],
          "z": [[c.real, c.imag] for c in y.z]})
    return 0


def refuse_non_finite(path: str, **numbers: float) -> None:
    """Raise, naming the input file, if a number computed from it is NaN or
    infinite: such a number has no JSON spelling and is no answer."""
    for name, x in numbers.items():
        if not math.isfinite(x):
            raise ValueError(f"{path}: the {name} is {x}, not finite")


def cmd_holonomy(args) -> int:
    omega = serialize.load_cochain(args.cochain)
    dec = serialize.decomposition_from_id(args.decomposition)
    rho, _ = two_subordinations(dec, omega.cover)
    try:
        val = holonomy(omega, dec, rho)
        # the value is a holonomy only for a cocycle; the defect is walked
        # before anything is printed, and goes to stderr only
        defect = total_d(omega).max_defect()
    except (ValueError, OverflowError) as exc:
        raise ValueError(f"{args.cochain}: {exc}") from exc
    refuse_non_finite(args.cochain, holonomy=val, cocycle_defect=defect)
    ph = cmath.exp(1j * val)
    cells = sum(len(v) for v in dec.faces.values())
    emit({"value": val, "phase_re": ph.real, "phase_im": ph.imag,
          "cells_used": cells})
    print(f"cocycle defect: {defect:.3e}", file=sys.stderr)
    if not defect <= COCYCLE_TOL:
        print(f"warning: the cochain is not a cocycle (defect above "
              f"{COCYCLE_TOL:g}), so the value depends on the decomposition "
              f"and its subordination", file=sys.stderr)
    return 0


def cmd_pushforward(args) -> int:
    omega = serialize.load_cochain(args.cochain)
    if not omega.cover.factor_covers:
        print("error: push-forward needs a cochain over a product cover "
              "(product:X|E or torus:N:M:OVERLAP)", file=sys.stderr)
        return 2
    x_cover, e_cover = omega.cover.factor_covers
    dec = serialize.decomposition_from_id(args.decomposition)
    rho, _ = two_subordinations(dec, e_cover)
    out = pushforward(omega, dec, rho)
    defect = pushforward_commutes_defect(omega, dec, rho, out)
    if args.output and not math.isfinite(defect):
        # a non-finite coefficient, where such a defect may come from, is
        # refused first with the message the loader would give on the file;
        # a finite defect leaves that refusal to save_cochain
        serialize.cochain_to_dict(out, x_cover.cover_id)
    refuse_non_finite(args.cochain, stokes_defect=defect)
    if args.output:
        serialize.save_cochain(args.output, out, x_cover.cover_id)
    emit({"output": args.output, "degree": out.degree,
          "stokes_defect": defect})
    return 0


def cmd_lattice(args) -> int:
    L = builtin(args.name)
    counts = theta_counts(L, args.enumerate_norm)
    emit({"name": L.name, "rank": L.rank,
          "counts": {str(k): c for k, c in counts.items()}})
    return 0


# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The one parser of the process: parsing leaves it unchanged."""
    p = argparse.ArgumentParser(prog="gerbekit")
    sub = p.add_subparsers(dest="command", required=True)

    v = sub.add_parser("verify", help="run a verification suite")
    v.add_argument("--suite", required=True,
                   choices=sorted(SUITES) + ["all"])
    v.add_argument("--trials", type=non_negative_int, default=0,
                   help="0 = per-suite default")
    v.add_argument("--seed", type=non_negative_int, default=0)
    v.add_argument("--tol", type=check_tol, default=1e-8)
    v.add_argument("--report", default=None, metavar="FILE")
    v.set_defaults(func=cmd_verify)

    for name, what in (("theta", "evaluate a lattice theta series"),
                       ("character", "evaluate the rank-16 character")):
        t = sub.add_parser(name, help=what)
        t.add_argument("--lattice", required=True)
        t.add_argument("--tau", required=True, type=parse_complex,
                       metavar="RE,IM")
        t.add_argument("--z", default="zeros")
        t.add_argument("--tol", type=series_tol, default=1e-12)
        t.set_defaults(func=cmd_series)

    f = sub.add_parser("factor", help="evaluate an automorphy factor")
    f.add_argument("--family", required=True)
    f.add_argument("--lattice", default=None)
    f.add_argument("--element", required=True, metavar="JSON")
    f.add_argument("--point", required=True, metavar="JSON")
    f.set_defaults(func=cmd_factor)

    a = sub.add_parser("act", help="apply a group element to a point")
    a.add_argument("--element", required=True, metavar="JSON")
    a.add_argument("--point", required=True, metavar="JSON")
    a.set_defaults(func=cmd_act)

    h = sub.add_parser("holonomy", help="holonomy of a cochain file")
    h.add_argument("--cochain", required=True, metavar="FILE")
    h.add_argument("--decomposition", required=True, metavar="ID")
    h.set_defaults(func=cmd_holonomy)

    pf = sub.add_parser("pushforward", help="fiber-integrate a cochain file")
    pf.add_argument("--cochain", required=True, metavar="FILE")
    pf.add_argument("--decomposition", required=True, metavar="ID")
    pf.add_argument("--output", default=None, metavar="FILE")
    pf.set_defaults(func=cmd_pushforward)

    la = sub.add_parser("lattice", help="enumerate lattice shells")
    la.add_argument("--name", required=True)
    la.add_argument("--enumerate-norm", type=non_negative_int, default=4)
    la.set_defaults(func=cmd_lattice)
    return p


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OverflowError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
