"""gamehodge benchmark: end-to-end metrics per workload, or a traced per-layer run.

Usage (from the repository root):

    python3 perfbench/run.py --workload small-games --seed 1 --seconds 10 --trace 0

Each workload runs in child processes (``child.py``) with the package's
``src`` on PYTHONPATH and BLAS pinned to one thread.  ``--seconds`` sets a
fixed number of passes over the workload's seeded input list; runs are never
cut by the clock, so every run with the same arguments does the same ops.
With ``--trace 0`` the set-up is repeated in ``SETUP_RUNS`` processes and
its median reported; with ``--trace 1`` one pass runs under the span tracer
and the per-layer metrics are printed instead.  The last line of standard
output is one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"

# Wall time of one pass over each workload's input list on a 2-CPU x86
# container; turns --seconds into a fixed pass count.
NOMINAL_PASS_S = {"small-games": 0.15, "mid-games": 3.6, "subspace-dims": 1.7, "cli": 9.0}
SETUP_RUNS = 5
CHILD_TIMEOUT_S = 170


def child(args, extra: list[str], env: dict, timeout: float) -> dict:
    """Run child.py and parse its last line; on timeout kill its whole process group."""
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", args.workload, "--seed", str(args.seed), *extra]
    with subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True, start_new_session=True) as proc:
        try:
            out, _ = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise
    if proc.returncode != 0:
        raise RuntimeError(f"workload process exited {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(NOMINAL_PASS_S))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "gamehodge" / "__init__.py").is_file():
        print(f"error: no gamehodge sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    env = dict(
        os.environ,
        PYTHONPATH=str(ROOT / "src"),
        OPENBLAS_NUM_THREADS="1",
        OMP_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
        PYTHONHASHSEED="0",
    )
    passes = 1 if args.trace else max(1, round(args.seconds / NOMINAL_PASS_S[args.workload]))
    try:
        setups = []
        if not args.trace:
            for _ in range(SETUP_RUNS - 1):
                setups.append(child(args, ["--passes", "1", "--setup-only"], env, 60)["setup_s"])
        result = child(args, ["--passes", str(passes), "--trace", str(args.trace)], env, CHILD_TIMEOUT_S)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, IndexError, KeyError) as exc:
        print(f"error: {args.workload}: {exc}", file=sys.stderr)
        return 1
    if not args.trace:
        setups.append(result["metrics"]["setup_s"]["value"])
        result["metrics"]["setup_s"]["value"] = statistics.median(setups)

    OUT_DIR.mkdir(exist_ok=True)
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT_DIR / name).write_text(json.dumps(result, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
