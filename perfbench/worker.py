"""One measured slice of a workload, in a fresh interpreter.

    python3 perfbench/worker.py --workload W --seed N --slice K \
        --rounds R --trace 0|1 --workdir DIR

Times set-up (importing gerbekit and generating the inputs), then sends the
slice's calls through `gerbekit.cli.main` with stdout and stderr captured,
then checks every output with tracing off, and prints one JSON object.
A verify slice is one pass of its suites; a requests slice runs `--rounds`
whole rounds of the request mix.

Times are reported at nominal machine speed.  The CPUs of a shared host
change speed by up to half within seconds (another tenant on the sibling
hyperthread), and that drift swamps any change worth measuring.  So while
set-up and the calls run, a SIGALRM timer times a fixed 0.2 ms kernel every
5 ms (`SpeedProbe`).  Each measured interval loses the kernel time spent
inside it and is scaled by (NOMINAL_KERNEL_S / mean kernel time over the
interval and the WINDOW_S before it) ** SPEED_EXPONENT.  Raw times are
reported as well.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import hashlib
import io
import json
import os
import resource
import signal
import statistics
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import workloads  # noqa: E402
from workloads import Outcome  # noqa: E402


NOMINAL_KERNEL_S = 2e-4     # the kernel's time on the nominal machine
# When the host slows down, the program slows more than the arithmetic
# kernel does: over request rounds and verify passes on the 2-vCPU host
# described in NOTES.md, program time went as about kernel time ** 1.2.
SPEED_EXPONENT = 1.2
SAMPLE_EVERY_S = 0.005
WINDOW_S = 0.05


def _kernel(n: int = 1000) -> float:
    # integer and float arithmetic only: allocates no container, so it
    # cannot trigger a garbage collection of the program's heap
    x, s = 0.5, 0
    for i in range(n):
        s += (i * 2654435761) % 1000003
        x = x * 1.0000001 + 1e-9
    return s + x


class SpeedProbe:
    """Kernel timings taken every SAMPLE_EVERY_S seconds from SIGALRM."""

    def __init__(self):
        self.starts: list = []
        self.times: list = []

    def sample(self, signum=None, frame=None) -> None:
        t = time.perf_counter()
        _kernel()
        self.starts.append(t)
        self.times.append(time.perf_counter() - t)

    def start(self) -> None:
        for _ in range(5):          # a window before the first timer tick
            self.sample()
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def scaled(self, t0: float, t1: float) -> float:
        """The interval [t0, t1] without the kernel runs inside it, at
        nominal speed."""
        lo = bisect.bisect_left(self.starts, t0 - WINDOW_S)
        mid = bisect.bisect_left(self.starts, t0)
        hi = bisect.bisect_right(self.starts, t1)
        work = (t1 - t0) - sum(self.times[mid:hi])
        speed = NOMINAL_KERNEL_S / statistics.fmean(self.times[lo:hi])
        return work * speed ** SPEED_EXPONENT


def _call(cli, argv):
    out, err = io.StringIO(), io.StringIO()
    rc, error = None, ""
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:            # argparse usage errors
            error = f"SystemExit({exc.code})"
        except Exception as exc:             # recorded as a failed operation
            error = f"{type(exc).__name__}: {exc}"
    return Outcome(rc, out.getvalue(), error)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--slice", type=int, default=0)
    ap.add_argument("--rounds", type=int, default=1)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workdir", required=True)
    args = ap.parse_args(argv)
    verify = args.workload != "requests"

    probe = SpeedProbe()
    probe.start()
    t0 = time.perf_counter()
    import gerbekit.cli as cli
    if verify:
        calls = workloads.verify_calls(args.workload, args.seed, args.slice)
    else:
        calls = workloads.request_calls(args.seed, args.workdir)
    t1 = time.perf_counter()
    raw_setup_s, setup_s = t1 - t0, probe.scaled(t0, t1)

    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    done = []                 # (template index, outcome)
    raw_ms, latencies, rounds = [], [], []
    for r in range(args.rounds):
        order = (range(len(calls)) if verify else
                 workloads.round_order(args.seed, args.slice, r, len(calls)))
        round_s = 0.0
        for i in order:
            t0 = time.perf_counter()
            out = _call(cli, calls[i].argv)
            t1 = time.perf_counter()
            scaled = probe.scaled(t0, t1)
            raw_ms.append((t1 - t0) * 1e3)
            latencies.append(scaled * 1e3)
            round_s += scaled
            done.append((i, out))
        rounds.append(round_s)
    probe.stop()
    if tracer is not None:
        tracer.uninstall()

    # Checks run untraced and after the timed phase.  Identical outputs of
    # one template share one check.
    attempted = failed = 0
    well_formed = True
    reasons = {}
    digests = {}
    seen = {}
    for i, out in done:
        call = calls[i]
        key = (i, out.rc, out.stdout, out.error)
        if key not in seen:
            if verify:
                n, bad, ok = workloads.check_verify(call, out)
                why = f"verify {call.expect['suite']}: a check failed"
            else:
                good, why = workloads.check_request(call, out)
                n, bad, ok = 1, int(not good), True
                why = f"{call.kind}: {why}"
            seen[key] = (n, bad, ok, why)
        n, bad, ok, why = seen[key]
        attempted += n
        failed += bad
        well_formed = well_formed and ok
        if bad:
            reasons[why] = reasons.get(why, 0) + 1
        label = workloads.report_key(call) if verify else f"{i}:{call.kind}"
        digest = hashlib.sha256(out.stdout.encode()).hexdigest()
        if digests.setdefault(label, digest) != digest:
            well_formed = False     # one template, two different outputs

    result = {
        "setup_s": setup_s, "raw_setup_s": raw_setup_s,
        "rounds_s": rounds, "latencies_ms": latencies,
        "templates": [i for i, _ in done],
        "raw_latencies_ms": raw_ms,
        "kernel_s": statistics.quantiles(probe.times, n=4),
        "attempted": attempted, "failed": failed,
        "well_formed": well_formed, "fail_reasons": reasons,
        "digests": digests,
        "maxrss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "trace": tracer.dump() if tracer is not None else None,
    }
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
