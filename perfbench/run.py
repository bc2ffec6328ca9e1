"""Benchmark of the photonstat library: three seeded closed-loop workloads.

Run from the root of a checkout:

    python3 perfbench/run.py                       # every workload, table of metrics
    python3 perfbench/run.py --workload pure_boundary --seed 3 --seconds 30 --trace 0
    python3 perfbench/run.py --trace 1             # per-layer metrics of every workload
    python3 perfbench/run.py --smoke               # a few operations of each, every check on

One client runs operations back to back (closed loop) in one process with no
extra threads; BLAS and OpenMP are pinned to one thread.  Only the library
calls of an operation are timed; its correctness checks run after them.  A
run stops at the end of the first round that finishes after ``--seconds``
(default: ``run_seconds`` of BENCHMARK.json); a traced run (``--trace 1``)
replays a fixed number of rounds instead, so that its counts repeat exactly
for a seed.

Times are reported at a fixed reference speed.  On a shared host the CPU
speed a process gets swings by up to 2x within a second (measured on a
2-vCPU VM), and CPU time swings with it, so neither wall nor CPU time of
the same work repeats between runs.  A fixed pure-Python kernel, which never
calls photonstat, is timed by an interval timer (SIGALRM, handled in the
main thread: no extra thread) every SPEED_TICK_S during a run, inside
operations too.  The timer's own time is taken out of the latency of the
operation it interrupted, and each latency is multiplied by the kernel's
reference time over its mean time from SPEED_WINDOW_S before the operation
to SPEED_WINDOW_S after it.  A fresh interpreter spends its set-up time in
imports, which the kernel does not track from one second to the next, but
it does follow the slower drift from one run to the next (on that VM raw
set-up medians moved 30 % between two sets of ten runs, scaled ones 8 %);
so ``setup_s`` is scaled by the kernel's mean time over the whole run.  The
raw figures are printed beside the scaled ones.
With ``--workload`` the last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``; any failed
check makes the exit code 1.  Without it, each workload runs in its own
process and the command prints one row per workload.
"""

from __future__ import annotations

import argparse
import bisect
import cmath
import json
import math
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from itertools import islice
from pathlib import Path

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

WORKLOADS = ("routes_mixed", "pure_boundary", "oracle_suite")
# Rounds of a traced run, sized so that running each operation untraced and
# traced takes about as long as a default run.
TRACE_ROUNDS = {"routes_mixed": 15, "pure_boundary": 14, "oracle_suite": 1}
SETUP_REPS = 15
# Kernel time at the reference speed; the interval between its timed runs
# during a measured loop; the window around an operation whose kernel times
# scale its latency.
KERNEL_REF_S = 0.003
SPEED_TICK_S = 0.1
SPEED_WINDOW_S = 1.0
SETUP_CODE = (
    "import sys, time; sys.path.insert(0, {src!r}); t = time.perf_counter(); "
    "import photonstat; "
    "photonstat.pn_hermite(photonstat.OneModeGaussianState.vacuum()); "
    "print(repr(time.perf_counter() - t))"
)
END_TO_END = (("ops_per_s", "ops/s"), ("op_p50_ms", "ms"), ("op_p90_ms", "ms"),
              ("peak_rss_mb", "MB"), ("setup_s", "s"))


def load_library():
    """Import photonstat from the checkout's ``src``; exit 2 if it is not there."""
    if not (SRC / "photonstat" / "__init__.py").is_file():
        sys.stderr.write(f"error: no photonstat sources under {SRC}\n")
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    sys.path.insert(1, str(HERE))
    import photonstat
    import photonstat.cli  # noqa: F401  (not imported by the package itself)

    if Path(photonstat.__file__).resolve().parent != SRC / "photonstat":
        sys.stderr.write(f"error: imported photonstat from {photonstat.__file__}\n")
        sys.exit(2)
    return photonstat


def clear_caches(lib) -> None:
    """Empty the library's memo caches so that two passes over the same inputs
    both start cold."""
    for name in ("specfun", "gaussian_state", "photon_dist", "entropy", "oracle"):
        for value in vars(getattr(lib, name, lib)).values():
            if callable(getattr(value, "cache_clear", None)):
                value.cache_clear()


def kernel() -> None:
    """Fixed pure-Python work of the library's kinds: complex log-domain
    terms, list building and exact Fraction sums."""
    terms = [cmath.exp(complex(-1e-3 * k, 0.1 * k)) * math.lgamma(k + 1) for k in range(1, 2000)]
    math.fsum(abs(z) for z in terms)
    acc = Fraction(0)
    for k in range(1, 120):
        acc += Fraction(k, k + 1) ** 3


class Speed:
    """Kernel timings, by the time each ended, and the time spent taking them."""

    def __init__(self):
        self.at: list[float] = []
        self.took: list[float] = []
        self.spent = 0.0

    def sample(self) -> None:
        t0 = time.perf_counter()
        kernel()
        t1 = time.perf_counter()
        self.at.append(t1)
        self.took.append(t1 - t0)
        self.spent += time.perf_counter() - t0

    def __enter__(self):
        """Sample now and then every SPEED_TICK_S until exit."""
        self.sample()
        self._previous = signal.signal(signal.SIGALRM, lambda *_: self.sample())
        signal.setitimer(signal.ITIMER_REAL, SPEED_TICK_S, SPEED_TICK_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self.sample()

    def scale(self, start: float, end: float) -> float:
        """Reference kernel time over the mean kernel time near [start, end]
        (the nearest sample on each side where the window holds none)."""
        lo = bisect.bisect_left(self.at, start - SPEED_WINDOW_S)
        hi = bisect.bisect_right(self.at, end + SPEED_WINDOW_S)
        if lo == hi:
            lo, hi = max(lo - 1, 0), min(hi + 1, len(self.at))
        return KERNEL_REF_S / statistics.fmean(self.took[lo:hi])


def execute(op, speed: Speed | None = None) -> tuple[float, float, list, list]:
    """Run one operation; return its start, its latency (less the time
    ``speed`` spent sampling within it), the problems found and the
    problems of its known-defect checks."""
    speed = speed or Speed()
    spent = speed.spent
    t0 = time.perf_counter()
    try:
        out = op.run()
    except Exception as exc:  # an undocumented error is a failed operation
        dt = time.perf_counter() - t0 - (speed.spent - spent)
        problems, known = [f"raised {type(exc).__name__}: {exc}"], []
    else:
        dt = time.perf_counter() - t0 - (speed.spent - spent)
        try:
            problems = op.check(out)
            known = op.known(out) if op.known else []
        except Exception as exc:
            problems, known = [f"check raised {type(exc).__name__}: {exc}"], []
    where = f"{op.kind} {op.params}: "
    return t0, dt, [where + p for p in problems], [where + p for p in known]


class Tally:
    def __init__(self):
        self.starts: list[float] = []
        self.latencies: list[float] = []
        self.by_kind: dict[str, list[float]] = {}
        self.failed = 0
        self.problems: list[str] = []
        self.known_ops = 0
        self.known_failed = 0
        self.known_problems: list[str] = []

    def add(self, op, t0: float, dt: float, problems: list, known: list) -> None:
        self.starts.append(t0)
        self.latencies.append(dt)
        self.by_kind.setdefault(op.kind, []).append(dt)
        if problems:
            self.failed += 1
            self.problems.extend(problems)
        self.known_ops += op.known is not None
        if known:
            self.known_failed += 1
            self.known_problems.extend(known)

    def scaled(self, speed: Speed) -> list[float]:
        return [dt * speed.scale(t0, t0 + dt) for t0, dt in zip(self.starts, self.latencies)]


def run_one(op, tally: Tally, speed: Speed | None = None) -> float:
    t0, dt, problems, known = execute(op, speed)
    tally.add(op, t0, dt, problems, known)
    return dt


def closed_loop(stream, seconds: float, tally: Tally, speed: Speed) -> int:
    """Run whole rounds until ``seconds`` have passed, sampling the kernel
    throughout; return the round count."""
    with speed:
        start = time.perf_counter()
        n = 0
        for ops in stream:
            for op in ops:
                run_one(op, tally, speed)
            n += 1
            if time.perf_counter() - start >= seconds:
                return n


def traced_pass(lib, batch, tally: Tally):
    """Run each operation of ``batch`` untraced and then traced, both from
    cold library caches; return the tracer and the tracing overhead.

    Pairing at the operation keeps slow phases of a shared machine out of
    the overhead estimate.
    """
    from spans import Tracer

    tracer = Tracer(lib)
    untraced = traced = 0.0
    for i, op in enumerate(batch):
        clear_caches(lib)
        untraced += run_one(op, tally)
        clear_caches(lib)
        tracer.op_id = i
        with tracer:
            traced += run_one(op, tally)
    return tracer, traced / untraced - 1.0


def measure_setup() -> float:
    """Median over fresh interpreters of importing photonstat plus a first
    pn_hermite(vacuum); one unrecorded warm-up run goes first."""
    code = SETUP_CODE.format(src=str(SRC))
    times = []
    for _ in range(SETUP_REPS + 1):
        res = subprocess.run([sys.executable, "-c", code], cwd=ROOT, capture_output=True,
                             text=True, timeout=120, check=True)
        times.append(float(res.stdout.strip().splitlines()[-1]))
    return statistics.median(times[1:])


def timings(lat: list[float], setup_s: float) -> dict:
    lat = sorted(lat)
    p90 = statistics.quantiles(lat, n=10, method="inclusive")[8] if len(lat) > 1 else lat[0]
    return {"ops_per_s": len(lat) / sum(lat), "op_p50_ms": 1e3 * statistics.median(lat),
            "op_p90_ms": 1e3 * p90, "setup_s": setup_s}


def end_to_end(values: dict) -> dict:
    values = {**values, "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}


def run_workload(args) -> int:
    lib = load_library()
    import workloads

    OUT_DIR.mkdir(exist_ok=True)
    oracle_out = OUT_DIR / f"oracle-{args.seed}-{os.getpid()}.jsonl"
    stream = workloads.rounds(lib, args.workload, args.seed, str(oracle_out))
    tally = Tally()
    info = [f"workload={args.workload} seed={args.seed}"]
    if args.smoke:
        first = {}
        for op in next(stream):
            first.setdefault(op.kind, op)
        tracer, overhead = traced_pass(lib, list(first.values()), tally)
        metrics = {**end_to_end(timings(tally.latencies, measure_setup())),
                   **tracer.metrics(overhead)}
    elif args.trace:
        batch = [op for ops in islice(stream, TRACE_ROUNDS[args.workload]) for op in ops]
        tracer, overhead = traced_pass(lib, batch, tally)
        metrics = tracer.metrics(overhead)
        trace_path = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.jsonl"
        tracer.write(str(trace_path))
        info.append(f"spans={len(tracer.spans)} written to {trace_path.relative_to(ROOT)}")
        if tracer.absent:
            info.append("absent: " + " ".join(tracer.absent))
    else:
        setup_s, speed = measure_setup(), Speed()
        rounds = closed_loop(stream, args.seconds, tally, speed)
        scaled_setup_s = setup_s * KERNEL_REF_S / statistics.fmean(speed.took)
        metrics = end_to_end(timings(tally.scaled(speed), scaled_setup_s))
        raw = timings(tally.latencies, setup_s)
        info.append(f"rounds={rounds} kernel mean={1e3 * statistics.fmean(speed.took):.4g} ms "
                    f"(reference {1e3 * KERNEL_REF_S:.4g} ms, n={len(speed.took)})")
        info.append("raw: " + " ".join(f"{k}={v:.6g}" for k, v in raw.items()))
    if oracle_out.exists():
        oracle_out.unlink()

    n = len(tally.latencies)
    info.append(f"ops={n} failed={tally.failed} failed_frac={tally.failed / n:.6g} ratio")
    if tally.known_ops:
        info.append(f"known-defect bands: ops={tally.known_ops} failed={tally.known_failed}")
    info += [f"  kind {k}: n={len(v)} median={1e3 * statistics.median(v):.4g} ms "
             f"max={1e3 * max(v):.4g} ms total={sum(v):.4g} s" for k, v in tally.by_kind.items()]
    for line in info:
        print(line)
    samples = {"ops_per_s": n, "op_p50_ms": n, "op_p90_ms": n, "setup_s": SETUP_REPS}
    for name, m in metrics.items():
        count = f" (n={samples[name]})" if name in samples else ""
        print(f"  {name} = {m['value']:.6g} {m['unit']}{count}")
    for p in tally.problems[:20]:
        sys.stderr.write(f"check failed: {p}\n")
    for p in tally.known_problems[:20]:
        sys.stderr.write(f"known defect: {p}\n")
    result = {"correct": tally.failed == 0, "attempted": n, "failed": tally.failed,
              "metrics": metrics}
    print(json.dumps(result))
    return 0 if tally.failed == 0 else 1


def machine() -> dict:
    import numpy

    return {"machine": platform.machine(), "processor": platform.processor() or None,
            "system": platform.platform(), "nproc": os.cpu_count(),
            "python": platform.python_version(), "numpy": numpy.__version__}


def run_all(args) -> int:
    """Each workload in its own process; print one row per workload."""
    load_library()
    results, worst = {}, 0
    for w in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", w,
               "--seed", str(args.seed), "--trace", str(args.trace)] + (["--smoke"] if args.smoke else [])
        res = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        sys.stderr.write(res.stderr)
        lines = res.stdout.strip().splitlines()
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            sys.stderr.write(f"error: {w} printed no result (exit {res.returncode})\n")
            worst = max(worst, res.returncode or 1)
            continue
        results[w] = result
        worst = max(worst, res.returncode)
        frac = result["failed"] / result["attempted"]
        cells = [f"{name}={m['value']:.4g} {m['unit']}" for name, m in result["metrics"].items()]
        print(f"{w}: attempted={result['attempted']} failed_frac={frac:.4g} ratio "
              + " ".join(cells))
    print(json.dumps({"seed": args.seed, "trace": args.trace,
                      "env": machine(), "results": results}))
    return worst


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS,
                        help="run one workload in this process (default: all, one process each)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        help="length of a run (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run one operation of each kind, untraced and traced")
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    if args.workload:
        return run_workload(args)
    return run_all(args)


if __name__ == "__main__":
    sys.exit(main())
