"""Per-kind latencies of the perfbench workloads on two checkouts, side by side.

Usage: python3 tools/kind_times.py OLD NEW [--workload W] [--rounds R]
                                   [--seconds S] [--seed N]

Each round runs OLD and NEW once, OLD first on even rounds and NEW first on
odd ones, each in a fresh interpreter that imports photonstat from
``CHECKOUT/src`` and the operations and perfbench's speed kernel from
``CHECKOUT/perfbench/workloads.py`` and ``run.py`` (read only; nothing
there changes).  Both sides draw the same seed, so they run the same
inputs.  A run replays the workload's rounds of operations for S seconds
after one untimed round, times each operation's library calls (its
``run``, not its checks) with ``time.perf_counter`` and reports the median
latency of each kind.  Latencies are reported twice: raw wall times, and
scaled to perfbench's reference speed.  The fixed pure-Python kernel
(``run.kernel``, which never calls photonstat) is timed before the first
timed round and after each round, and every latency of a round is
multiplied by the reference kernel time over the mean of the two kernel
times around that round, so a machine-speed swing between or within runs
moves the scaled figures much less than the raw ones.  The summary gives,
per kind and for both readings, the median over rounds of each side's
run medians, NEW's relative change, and in how many rounds NEW was
faster; compare a kind only where NEW wins nearly every round.  Standard
library only; not part of the test suite.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

# one BLAS and OpenMP thread, as perfbench pins them
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def kind_medians(kernel: list[float], rounds: list[list[tuple[str, float]]],
                 ref: float) -> dict[str, dict[str, float]]:
    """Median latency of each kind, raw and scaled, from the (kind, latency)
    of each operation of each round and the kernel times taken around the
    rounds (``kernel[i]`` before round i, ``kernel[i + 1]`` after it): a
    round's latencies are scaled by ``ref`` over the mean of those two."""
    raw: dict[str, list[float]] = {}
    scaled: dict[str, list[float]] = {}
    for i, latencies in enumerate(rounds):
        factor = ref / statistics.fmean(kernel[i : i + 2])
        for kind, dt in latencies:
            raw.setdefault(kind, []).append(dt)
            scaled.setdefault(kind, []).append(dt * factor)
    return {name: {kind: statistics.median(times) for kind, times in by_kind.items()}
            for name, by_kind in (("raw", raw), ("scaled", scaled))}


def run_medians(checkout: str, workload: str, seed: int, seconds: float) -> dict:
    """Median latency in seconds of each operation kind of one timed run,
    in this interpreter, raw and scaled (:func:`kind_medians`), and the
    run's mean kernel time."""
    root = Path(checkout).resolve()
    sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
    import photonstat
    import photonstat.cli  # noqa: F401  (the oracle workload calls it)
    import workloads
    from run import KERNEL_REF_S, kernel

    def kernel_time() -> float:
        t0 = time.perf_counter()
        kernel()
        return time.perf_counter() - t0

    rounds: list[list[tuple[str, float]]] = []
    with tempfile.TemporaryDirectory() as tmp:
        stream = workloads.rounds(photonstat, workload, seed, str(Path(tmp) / "oracle.jsonl"))
        for op in next(stream):  # untimed: first imports and table growth
            op.run()
        kernel_times = [kernel_time()]
        start = time.perf_counter()
        for ops in stream:
            latencies = []
            for op in ops:
                t0 = time.perf_counter()
                op.run()
                latencies.append((op.kind, time.perf_counter() - t0))
            rounds.append(latencies)
            kernel_times.append(kernel_time())
            if time.perf_counter() - start >= seconds:
                break
    return {**kind_medians(kernel_times, rounds, KERNEL_REF_S),
            "kernel": statistics.fmean(kernel_times)}


def summary(old: list[dict[str, float]], new: list[dict[str, float]]) -> dict[str, tuple]:
    """Per kind, over the rounds where both sides ran it: (median of OLD's run
    medians, the same of NEW's, NEW / OLD - 1, rounds in which NEW's median
    was lower)."""
    out = {}
    for kind in old[0]:
        pairs = [(o[kind], n[kind]) for o, n in zip(old, new) if kind in o and kind in n]
        o_med = statistics.median(o for o, _ in pairs)
        n_med = statistics.median(n for _, n in pairs)
        out[kind] = (o_med, n_med, n_med / o_med - 1, sum(n < o for o, n in pairs))
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old")
    parser.add_argument("new")
    parser.add_argument("--workload", default="pure_boundary",
                        choices=("routes_mixed", "pure_boundary", "oracle_suite"))
    parser.add_argument("--rounds", type=int, default=6)
    parser.add_argument("--seconds", type=float, default=5.0)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.worker:  # one timed run of the checkout given as OLD
        print(json.dumps(run_medians(args.old, args.workload, args.seed, args.seconds)))
        return 0
    env = {**os.environ, **dict.fromkeys(THREAD_VARS, "1")}
    runs: tuple[list, list] = ([], [])
    for i in range(args.rounds):
        for side in (0, 1)[:: 1 if i % 2 == 0 else -1]:
            res = subprocess.run(
                [sys.executable, __file__, (args.old, args.new)[side], "-", "--worker",
                 "--workload", args.workload, "--seed", str(args.seed),
                 "--seconds", str(args.seconds)],
                capture_output=True, text=True, env=env, check=True)
            runs[side].append(json.loads(res.stdout.splitlines()[-1]))
    print(f"{args.workload}: {args.rounds} rounds of {args.seconds:g} s per side, seed {args.seed}")
    for name, side in (("old", 0), ("new", 1)):
        means = [1e3 * run["kernel"] for run in runs[side]]
        print(f"kernel mean ms, {name}: " + " ".join(f"{m:.4g}" for m in means))
    raw = summary([r["raw"] for r in runs[0]], [r["raw"] for r in runs[1]])
    scaled = summary([r["scaled"] for r in runs[0]], [r["scaled"] for r in runs[1]])
    print(f"{'':<14}{'raw':-^38}  {'scaled to the reference kernel':-^38}")
    print(f"{'kind':<14}" + f"{'old ms':>10}{'new ms':>10}{'change':>10}{'wins':>8}  " * 2)
    for kind in raw:
        cells = [f"{1e3 * o:>10.4f}{1e3 * n:>10.4f}{100 * rel:>+9.1f}%{wins:>4} of {args.rounds}"
                 for o, n, rel, wins in (raw[kind], scaled[kind])]
        print(f"{kind:<14}" + "  ".join(cells))
    return 0


if __name__ == "__main__":
    sys.exit(main())
