"""The gerbekit benchmark.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a source checkout; NOTES.md describes the workloads
and metrics.  The last line of stdout is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.  With `--trace 0` the
metrics are the end-to-end ones, measured with tracing off; with
`--trace 1` they are the per-layer ones from a traced pass.

Each slice of a workload runs in its own fresh interpreter
(perfbench/worker.py), one at a time, so no pass inherits another's heap.
Inputs, per-call outputs, report digests and the trace are written to
`.perfbench_out/` in the checkout; scratch files go to `.perfbench_tmp/`
and are removed at exit.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import tracer  # noqa: E402
import workloads  # noqa: E402

MIN_SLICES = 3            # set-up is measured once per slice
REQUEST_SLICES = 4        # a requests run splits --seconds into this many
WORKER_TIMEOUT_S = 150

# Wall seconds of one slice (a fresh interpreter, set-up and one verify
# pass) and of one request round, at the seed commit on the 2-vCPU machine
# described in NOTES.md.  A run's size is planned from --seconds and these,
# not from the clock, so two runs of one seed make exactly the same calls
# and report the same `attempted` and `failed`.
SLICE_S = {"complex": 5.0, "pushforward": 6.6, "modular": 5.6}
REQUEST_SLICE_S = 1.0     # interpreter start and request set-up
ROUND_S = 1.5


class WorkerError(RuntimeError):
    pass


def run_worker(workload: str, seed: int, slice_index: int, rounds: int,
               trace: int, workdir: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    # one thread per process; stable hashing so traced counts repeat
    env.update(PYTHONHASHSEED="0", OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1",
               GERBEKIT_THREADS="1")
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", workload, "--seed", str(seed),
           "--slice", str(slice_index), "--rounds", str(rounds),
           "--trace", str(trace), "--workdir", workdir]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise WorkerError(f"worker timed out after {exc.timeout} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerError(f"worker exited {proc.returncode}:\n"
                          f"{proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def _p90(values):
    # "inclusive" stays inside the sample range, which matters for the few
    # calls of a verify run
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def plan(workload: str, seconds: float):
    """(slices, rounds per slice) that fill about `seconds`."""
    if workload == "requests":
        per_slice = seconds / REQUEST_SLICES - REQUEST_SLICE_S
        return REQUEST_SLICES, max(1, round(per_slice / ROUND_S))
    return max(MIN_SLICES, round(seconds / SLICE_S[workload])), 1


def end_to_end(workload: str, seed: int, seconds: float, workdir: str):
    n_slices, rounds = plan(workload, seconds)
    slices = [run_worker(workload, seed, k, rounds, 0, workdir)
              for k in range(n_slices)]
    lat = [x for s in slices for x in s["latencies_ms"]]
    # The median of the per-template medians: a pooled median of a verify
    # run falls between two suites' clusters of calls and reads the
    # extremes of both.
    by_template = {}
    for s in slices:
        for i, x in zip(s["templates"], s["latencies_ms"]):
            by_template.setdefault(i, []).append(x)
    metrics = {
        "setup_s": (statistics.median(s["setup_s"] for s in slices), "s"),
        "pass_s": (statistics.median(r for s in slices for r in s["rounds_s"]),
                   "s"),
        "calls_per_s": (len(lat) / (sum(lat) / 1e3), "1/s"),
        "call_p50_ms": (statistics.median(
            statistics.median(x) for x in by_template.values()), "ms"),
        "call_p90_ms": (_p90(lat), "ms"),
        "peak_rss_mib": (statistics.median(s["maxrss_kib"] for s in slices)
                         / 1024, "MiB"),
    }
    return slices, metrics


def traced(workload: str, seed: int, workdir: str):
    """One untraced and one traced pass (or round) of slice 0."""
    plain = run_worker(workload, seed, 0, 1, 0, workdir)
    traced_ = run_worker(workload, seed, 0, 1, 1, workdir)
    overhead = (sum(traced_["latencies_ms"]) / sum(plain["latencies_ms"])
                - 1)
    metrics = tracer.layer_metrics(traced_["trace"], _in_calls_s(traced_),
                                   overhead)
    return [plain, traced_], metrics


def _in_calls_s(worker: dict) -> float:
    """Unscaled wall time spent inside the calls (the traced wall)."""
    return sum(worker["raw_latencies_ms"]) / 1e3


def workload_lines(workload: str, slices, metrics, attempted, failed):
    """The end-to-end figures under the names the workload is judged by."""
    fail_frac = failed / attempted
    raw = [x for s in slices for x in s["raw_latencies_ms"]]
    n = len(raw)
    if workload == "requests":
        rows = [("requests_per_s", metrics["calls_per_s"][0], "1/s",
                 f"raw {n / sum(raw) * 1e3:.6g}"),
                ("request_p50_ms", metrics["call_p50_ms"][0], "ms",
                 f"n={n} pooled raw {statistics.median(raw):.6g}"),
                ("request_p90_ms", metrics["call_p90_ms"][0], "ms",
                 f"n={n} raw {_p90(raw):.6g}")]
    else:
        passes = [sum(s["raw_latencies_ms"]) / 1e3 for s in slices]
        rows = [("verify_s", metrics["pass_s"][0], "s",
                 f"passes={len(passes)} raw {statistics.median(passes):.6g}")]
    rows += [("setup_s", metrics["setup_s"][0], "s",
              f"n={len(slices)} raw "
              f"{statistics.median(s['raw_setup_s'] for s in slices):.6g}"),
             ("peak_rss_mib", metrics["peak_rss_mib"][0], "MiB", ""),
             ("fail_frac", fail_frac, "ratio", f"{failed}/{attempted}")]
    return [f"{name} {value:.6g} {unit} {note}".rstrip()
            for name, value, unit, note in rows]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "gerbekit", "cli.py")):
        print("error: run from a gerbekit source checkout "
              "(src/gerbekit/cli.py not found)", file=sys.stderr)
        return 2

    tmp = os.path.join(ROOT, ".perfbench_tmp", str(os.getpid()))
    os.makedirs(tmp)
    try:
        if args.trace:
            slices, metrics = traced(args.workload, args.seed, tmp)
        else:
            slices, metrics = end_to_end(args.workload, args.seed,
                                         args.seconds, tmp)
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    counted = slices[1:] if args.trace else slices   # trace: the traced pass
    attempted = sum(s["attempted"] for s in counted)
    failed = sum(s["failed"] for s in counted)
    correct = all(s["well_formed"] for s in slices)
    if args.trace:
        # the traced pass must print exactly what the untraced pass printed,
        # and its span self times plus the uncovered rest make up its wall
        self_sum = sum(a[4] for a in slices[1]["trace"]["aggregates"])
        wall = _in_calls_s(slices[1])
        correct = (correct and slices[0]["digests"] == slices[1]["digests"]
                   and abs(self_sum + metrics["trace.uncovered_s"][0] - wall)
                   <= 1e-6 * wall)
    reasons = {}
    for s in slices:
        for why, n in s["fail_reasons"].items():
            reasons[why] = reasons.get(why, 0) + n

    out_dir = os.path.join(ROOT, ".perfbench_out")
    os.makedirs(out_dir, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(out_dir, name), "w") as fh:
        json.dump({"workload": args.workload, "seed": args.seed,
                   "seconds": args.seconds, "trace": args.trace,
                   "metrics": metrics, "fail_reasons": reasons,
                   "slices": slices}, fh, indent=1)

    if not args.trace:
        for line in workload_lines(args.workload, slices, metrics,
                                attempted, failed):
            print(line)
    for why, n in sorted(reasons.items()):
        print(f"failed x{n}: {why}")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed,
                      "metrics": {k: {"value": v, "unit": u}
                                  for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
