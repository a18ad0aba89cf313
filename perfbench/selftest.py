"""Self-tests of the benchmark itself (not of gerbekit).

    python3 perfbench/selftest.py        # from the root of a checkout

Covers the tracer's install/uninstall, the determinism of traced counts,
the baseline failure share of `requests`, the agreement of BENCHMARK.json
with what the benchmark prints, and the refusal to run without sources.
Takes about two minutes: it makes two trace runs of every workload.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import tracer  # noqa: E402
import workloads  # noqa: E402


def bench(*args, cwd=ROOT):
    proc = subprocess.run([sys.executable, os.path.join(cwd, "perfbench",
                                                        "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True,
                          timeout=300)
    return proc, proc.stdout.strip().splitlines()


def run_json(*args):
    proc, lines = bench(*args)
    if proc.returncode != 0:
        raise AssertionError(proc.stderr)
    return json.loads(lines[-1])


def snapshot():
    """Every binding the tracer could touch: module attributes, items of
    module-level dicts, and the dicts of gerbekit's classes."""
    out = {}
    for name, mod in sorted(sys.modules.items()):
        if name != "gerbekit" and not name.startswith("gerbekit."):
            continue
        for key, val in vars(mod).items():
            out[name, key] = val
            if isinstance(val, dict):
                for k, v in val.items():
                    out[name, key, "item", k] = v
            if isinstance(val, type) and val.__module__ == name:
                for k, v in vars(val).items():
                    out[name, key, "attr", k] = v
    return out


class TracerBindings(unittest.TestCase):

    def test_install_wraps_every_binding_and_uninstall_restores(self):
        import gerbekit
        import gerbekit.cli
        before = snapshot()
        originals = {}
        for name, mod, attr in tracer.SPANS:
            module = sys.modules[f"gerbekit.{mod}"]
            if "." in attr:
                cls, meth = attr.split(".")
                originals[name, attr] = vars(getattr(module, cls))[meth]
            else:
                originals[name, attr] = getattr(module, attr)
        t = tracer.Tracer()
        t.install()
        try:
            during = snapshot()
            for (name, attr), orig in originals.items():
                holders = [k for k, v in during.items() if v is orig]
                self.assertEqual(holders, [], f"{attr} still bound unwrapped")
                self.assertTrue(any(
                    getattr(v, "__wrapped__", None) is orig
                    and v.__perfbench_span__ == name
                    for v in during.values()), f"{attr} has no span")
            # bindings made by `from .x import f` in other modules
            for f in (gerbekit.suites.total_d, gerbekit.fiberint.total_d,
                      gerbekit.cli.pushforward, gerbekit.cli._theta_with_terms,
                      gerbekit.serialize.builtin, gerbekit.modform.builtin,
                      gerbekit.total_d, gerbekit.suites.SUITES["cochain"]):
                self.assertTrue(hasattr(f, "__perfbench_span__"), f)
            with open(os.devnull, "w") as null:
                stdout, sys.stdout = sys.stdout, null
                try:
                    rc = gerbekit.cli.main(["lattice", "--name", "e8",
                                            "--enumerate-norm", "2"])
                finally:
                    sys.stdout = stdout
            self.assertEqual(rc, 0)
            self.assertEqual(t.agg["lattice.enumerate_by_norm", "cli.main"][0], 1)
            self.assertEqual(t.agg["lattice.builtin", "cli.main"][0], 1)
            self.assertEqual(t.counts["lattice.vectors_enumerated"], 241)
        finally:
            t.uninstall()
        after = snapshot()
        self.assertEqual(before.keys(), after.keys())
        changed = [k for k in before if before[k] is not after[k]]
        self.assertEqual(changed, [])


class Runs(unittest.TestCase):

    def test_traced_counts_repeat_exactly(self):
        for w in workloads.WORKLOADS:
            with self.subTest(workload=w):
                a = run_json("--workload", w, "--seed", "5", "--seconds", "1",
                             "--trace", "1")
                b = run_json("--workload", w, "--seed", "5", "--seconds", "1",
                             "--trace", "1")
                self.assertTrue(a["correct"] and b["correct"])
                for m in tracer.EXACT:
                    self.assertEqual(a["metrics"][m], b["metrics"][m], m)
                self.assertEqual((a["attempted"], a["failed"]),
                                 (b["attempted"], b["failed"]))

    def test_requests_fail_exactly_the_output_share(self):
        proc, lines = bench("--workload", "requests", "--seed", "3",
                            "--seconds", "2", "--trace", "0")
        self.assertEqual(proc.returncode, 0, proc.stderr)
        res = json.loads(lines[-1])
        self.assertTrue(res["correct"])
        self.assertEqual(res["attempted"] % 35, 0)
        self.assertEqual(res["failed"] * 35, res["attempted"] * 3)
        # the run's size comes from --seconds, not from the clock, so a
        # second run of the seed makes exactly the same calls
        again = run_json("--workload", "requests", "--seed", "3",
                         "--seconds", "2", "--trace", "0")
        self.assertEqual((again["attempted"], again["failed"]),
                         (res["attempted"], res["failed"]))
        reasons = [ln for ln in lines if ln.startswith("failed x")]
        self.assertEqual(len(reasons), 1)
        self.assertIn("pushforward_output: --output file does not load",
                      reasons[0])
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            spec = json.load(fh)
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]},
                         {k: v["unit"] for k, v in res["metrics"].items()})
        self.assertEqual([(m["name"], m["unit"]) for m in spec["per_layer"]],
                         list(tracer.PER_LAYER))
        self.assertEqual([w["name"] for w in spec["workloads"]],
                         list(workloads.WORKLOADS))

    def test_refuses_to_run_without_sources(self):
        bare = os.path.join(ROOT, ".perfbench_tmp", f"selftest-{os.getpid()}")
        os.makedirs(bare)
        try:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc, lines = bench("--workload", "complex", "--seed", "1",
                                "--seconds", "1", "--trace", "0", cwd=bare)
            self.assertNotEqual(proc.returncode, 0)
            self.assertFalse(lines and lines[-1].startswith("{"))
        finally:
            shutil.rmtree(bare)


if __name__ == "__main__":
    unittest.main()
