"""One workload in its own process: set-up, timed passes, then checks.

Started by ``run.py`` with the package's ``src`` on PYTHONPATH and BLAS
pinned to one thread.  Prints one JSON line: ``{"setup_s": ...}`` with
``--setup-only``, else ``{"correct", "attempted", "failed", "metrics"}``.
"""

import time

T0 = time.perf_counter()  # set-up time starts before numpy and gamehodge are imported

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from contextlib import nullcontext  # noqa: E402

OUT_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")
STARTUP_SAMPLES = 5


class Yardstick:
    """A fixed mix of interpreter and numpy work that does not touch gamehodge.

    The host's speed drifts between states up to ~1.8x apart, each lasting
    seconds, and the program slows with it.  Groups of samples are taken
    between ops, and each op's time is scaled by ``REF_S`` over the mean of
    the groups just before and just after it, so times read as at the speed
    where one sample takes ``REF_S``.
    """

    REF_S = 2.5e-3  # typical sample on a 2-CPU x86 container
    EVERY_S = 0.05  # op time between groups
    GROUP = 3  # samples per group between ops
    SETUP_GROUP = 15  # samples in the group that scales setup_s

    def __init__(self):
        import numpy as np

        self._np = np
        self._small = np.arange(1600.0).reshape(200, 8)
        self._ints = list(range(20000))
        self.groups: list[float] = []  # median sample of each group, in run order
        self._due = 0.0

    def _sample(self) -> float:
        """Dict of tuple keys, many tiny numpy calls and an integer loop.

        Large arrays are left out: their cost depends on the allocator's
        state, which the preceding op leaves behind.
        """
        np = self._np
        gc.disable()
        t = time.perf_counter()
        d = {(i, i + 1, i + 2): float(i) for i in range(3000)}
        s = 0.0
        for k in range(150):
            s += float(np.abs(self._small[k]).max())
        k = 0
        for x in self._ints:
            k += x * x % 7
        elapsed = time.perf_counter() - t
        gc.enable()
        del d
        return elapsed

    def measure(self, samples: int) -> None:
        self.groups.append(statistics.median(self._sample() for _ in range(samples)))

    def after_op(self, op_s: float) -> None:
        """Measure a group once per EVERY_S of op time."""
        self._due += op_s
        if self._due >= self.EVERY_S:
            self._due = 0.0
            self.measure(self.GROUP)

    def scale(self, since: int) -> float:
        """Scale for an op that started after the first `since` groups."""
        before = self.groups[since - 1]
        after = self.groups[since] if since < len(self.groups) else before
        return self.REF_S / ((before + after) / 2)


class ProcessYardstick(Yardstick):
    """Start of a Python process that imports numpy, for ops that are process starts.

    Process start drifts unlike interpreter speed (scaling cli ops by the
    in-process yardstick widened their spread), so the cli workload is
    scaled by this one.
    """

    REF_S = 0.19  # typical sample on a 2-CPU x86 container
    EVERY_S = 0.5
    GROUP = 1
    SETUP_GROUP = 3

    def _sample(self) -> float:
        t = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import numpy"], check=True, timeout=60)
        return time.perf_counter() - t


def make_workload(name: str, seed: int, traced: bool):
    import workloads

    if name == "cli":
        return workloads.Cli(seed, os.path.join(OUT_DIR, f"cli-games-{os.getpid()}"), in_process=traced)
    if name == "subspace-dims":
        return workloads.SubspaceDims(seed)
    return workloads.GameAnalysis(name, seed)


def timed_passes(wl, passes: int, tracer, yardstick):
    """Run every item `passes` times.

    Returns per-op seconds and yardstick scales, both indexed [pass][item],
    the first pass's outputs, exceptions by item and mismatch counts.
    """
    import workloads

    times, since, first, errors = [], [], [None] * len(wl.items), {}
    mismatches = [0] * len(wl.items)
    gc.collect()
    for p in range(passes):
        times.append([])
        since.append([])
        for i, item in enumerate(wl.items):
            since[p].append(len(yardstick.groups))
            op_id = p * len(wl.items) + i
            t = time.perf_counter()
            try:
                with tracer.op(op_id) if tracer else nullcontext():
                    out = wl.run(item)
            except Exception as exc:  # an op that raises counts as failed, the run goes on
                out = exc
                errors[i] = repr(exc)
            times[p].append(time.perf_counter() - t)
            yardstick.after_op(times[p][-1])
            if p == 0:
                first[i] = out
            elif not workloads.same(out, first[i]):
                mismatches[i] += 1
    scales = [[yardstick.scale(k) for k in row] for row in since]
    return times, scales, first, errors, mismatches


def latency(times) -> tuple[float, float, float]:
    """Ops per second, p50 ms and p90 ms of a typical pass, from seconds [pass][item].

    The typical pass takes each item's median over the passes, which keeps a
    slow spell in one pass from moving the order statistics.
    """
    typical = [statistics.median(col) for col in zip(*times)]
    return (
        len(typical) / sum(typical),
        statistics.median(typical) * 1e3,
        statistics.quantiles(typical, n=10)[8] * 1e3,
    )


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--passes", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    wl = make_workload(args.workload, args.seed, bool(args.trace))
    try:
        return measure(wl, args)
    finally:
        if args.workload == "cli":
            shutil.rmtree(wl.workdir, ignore_errors=True)


def measure(wl, args) -> int:
    wl.warm_up()
    setup_s = time.perf_counter() - T0
    yardstick = ProcessYardstick() if args.workload == "cli" and not args.trace else Yardstick()
    yardstick.measure(yardstick.SETUP_GROUP)
    setup_s *= yardstick.scale(1)
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    tracer = None
    startup = []
    if args.trace:
        from tracer import END, PARENT, START, Tracer

        if args.workload == "cli":
            startup = [wl.startup() for _ in range(STARTUP_SAMPLES)]
        tracer = Tracer()
        tracer.install()
    times, scales, first, errors, mismatches = timed_passes(wl, args.passes, tracer, yardstick)
    who = resource.RUSAGE_CHILDREN if args.workload == "cli" and not args.trace else resource.RUSAGE_SELF
    peak_rss_mb = resource.getrusage(who).ru_maxrss / 1024.0
    if tracer:
        tracer.uninstall()

    failed = 0
    correct = True
    for i, item in enumerate(wl.items):
        faults = [errors[i]] if i in errors else wl.check(item, first[i])
        bad = args.passes if faults else mismatches[i]
        if mismatches[i]:
            faults = faults + [f"{mismatches[i]} later passes differ from the first"]
        if bad:
            failed += bad
            known = getattr(item, "known_fault", False) and not mismatches[i] and i not in errors
            correct = correct and known
            label = getattr(item, "label", None) or item[0]
            print(f"{'known fault' if known else 'FAILED'}: {label}: {'; '.join(faults)}", file=sys.stderr)

    if tracer:
        metrics = {k: {"value": v, "unit": "count" if not k.endswith("_ms") else "ms"}
                   for k, v in tracer.per_op().items()}
        metrics["cli.startup_ms"] = {"value": statistics.median(startup) * 1e3 if startup else 0.0, "unit": "ms"}
        roots = [s[END] - s[START] for s in tracer.spans if s[PARENT] == -1]
        metrics["op.traced_ms"] = {"value": statistics.fmean(roots) * 1e3, "unit": "ms"}
        os.makedirs(OUT_DIR, exist_ok=True)
        tracer.dump(os.path.join(OUT_DIR, f"trace-{args.workload}-seed{args.seed}.json"),
                    workload=args.workload, seed=args.seed)
    else:
        scaled = [[t * f for t, f in zip(*rows)] for rows in zip(times, scales)]
        ops_per_s, p50, p90 = latency(scaled)
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "ops_per_s": {"value": ops_per_s, "unit": "1/s"},
            "op_p50_ms": {"value": p50, "unit": "ms"},
            "op_p90_ms": {"value": p90, "unit": "ms"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
        unscaled = dict(zip(("ops_per_s", "op_p50_ms", "op_p90_ms"), latency(times)))
        print(f"yardstick: {len(yardstick.groups)} groups; unscaled {json.dumps(unscaled)}", file=sys.stderr)
    attempted = len(wl.items) * args.passes
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
