"""Span and counter recording around the public names of the photonstat layers.

Spans are recorded from outside the library: while a :class:`Tracer` is
installed, each wrapped function is replaced by a recording wrapper in every
photonstat module namespace that holds it (so ``photon_dist`` calling its
imported ``hermite_sequence_log`` goes through the wrapper), and the
originals are put back on exit.  Each span is a tuple
``(name, start, end, parent, op_id)`` kept in memory and written out by
:meth:`Tracer.write` when the run ends.  A name the library no longer
defines is reported as absent instead of failing the run.

The layer of a span is the module that defines the function, so the span
of ``photon_dist.hermite_sequence_log`` is called
``specfun.hermite_sequence_log``.
"""

from __future__ import annotations

import functools
import importlib
import json
import math
import os
import time
from collections import Counter, defaultdict

# Modules whose namespaces may hold a wrapped name.
_MODULES = ("", "specfun", "gaussian_state", "photon_dist", "entropy", "oracle", "cli")

# (layer, name) pairs recorded as spans.
SPANNED = (
    ("specfun", "hermite_sequence_log"),
    ("specfun", "laguerre_half_sequence"),
    ("specfun", "gauss_2f1_terminating"),
    ("gaussian_state", "r_matrix"),
    ("gaussian_state", "p0"),
    ("gaussian_state", "uncertainty_check"),
    ("gaussian_state", "from_tau"),
    ("photon_dist", "pn_hermite"),
    ("photon_dist", "pn_laguerre"),
    ("photon_dist", "pn_centered_xyt"),
    ("photon_dist", "pn_violation"),
    ("photon_dist", "deformed_distribution"),
    ("photon_dist", "two_mode_p2k_distribution"),
    ("photon_dist", "two_mode_joint_distribution"),
    ("photon_dist", "distribution_to_csv"),
    ("entropy", "block_entropies"),
    ("entropy", "complex_information"),
    ("entropy", "joint_entropy_report"),
    ("oracle", "run_suite"),
    ("cli", "main"),
)
# Counted without a span: it runs once per assembled row, and its time is
# part of the series assembly that the pn_* self time reports.
COUNTED = (("specfun", "logsigned_sum"),)
# The adaptive truncation loop has no public name; it is observed through
# the private helper and reported absent if a refactor removes it.
TRUNCATION = ("photon_dist", "_build_distribution")

ADAPTIVE_CAP = 4096
_SERIES_ROUTES = ("pn_hermite", "pn_laguerre", "pn_centered_xyt", "pn_violation")
_CLASSES = ("Probability", "SignedReal", "Complex")

# (metric, unit) reported by a traced run, in this order.
PER_LAYER = (
    [(f"specfun.{f}.{k}", u) for f in ("hermite_sequence_log", "laguerre_half_sequence")
     for k, u in (("calls", "count"), ("terms", "count"), ("self_s", "s"))]
    + [("specfun.logsigned_sum.calls", "count"), ("specfun.logsigned_sum.terms", "count")]
    + [(f"photon_dist.{f}.self_s", "s") for f in _SERIES_ROUTES]
    + [("photon_dist.rows_kept", "count"), ("photon_dist.row_useful_ratio", "ratio")]
    + [("truncation.cap_hits", "count"), ("truncation.inf_tail_probability", "count"),
       ("truncation.final_n_mean", "n")]
    + [(f"classify.{c}", "count") for c in _CLASSES]
    + [("classify.NormalizationError", "count")]
    + [("specfun.gauss_2f1_terminating.calls", "count"),
       ("specfun.gauss_2f1_terminating.self_s", "s"),
       ("specfun.gauss_2f1_terminating.rational_share", "ratio")]
    + [(f"photon_dist.{f}.self_s", "s") for f in
       ("deformed_distribution", "two_mode_p2k_distribution", "two_mode_joint_distribution")]
    + [(f"entropy.{f}.{k}", u) for f in ("block_entropies", "complex_information",
                                         "joint_entropy_report")
       for k, u in (("calls", "count"), ("self_s", "s"))]
    + [("photon_dist.distribution_to_csv.self_s", "s"),
       ("photon_dist.distribution_to_csv.bytes", "bytes"),
       ("gaussian_state.self_s", "s"),
       ("oracle.run_suite.self_s", "s"),
       ("cli.main.self_s", "s"), ("cli.main.bytes_out", "bytes"),
       ("trace.overhead_frac", "ratio")]
)


def _is_rational_2f1(args, kwargs) -> bool:
    """True when gauss_2f1_terminating(k, b, c, z) leaves its positive-term branch."""
    names = ("k", "b", "c", "z")
    vals = dict(zip(names, args))
    vals.update(kwargs)
    b, c, z = vals["b"], vals["c"], vals["z"]
    return not (0 <= z < 1 and c > 0 and c - b > 0)


def self_times(spans) -> dict[str, float]:
    """Self time per span name: duration minus the time covered by direct children."""
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent is not None:
            child[parent] += end - start
    out: dict[str, float] = defaultdict(float)
    for i, (name, start, end, _, _) in enumerate(spans):
        out[name] += (end - start) - child[i]
    return out


class Tracer:
    """Installs recording wrappers on enter and restores the originals on exit."""

    def __init__(self, package):
        self.package = package
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        self.absent: list[str] = []
        self.op_id = 0
        self._stack: list[int] = []
        self._patches: list[tuple] = []
        self._adaptive_n: list[int] = []

    # -- installation ----------------------------------------------------

    def _module(self, layer: str):
        try:
            return importlib.import_module(f"{self.package.__name__}{layer and '.' + layer}")
        except ModuleNotFoundError:
            return None

    def _install(self, layer: str, name: str, make_wrapper) -> None:
        original = getattr(self._module(layer), name, None)
        if original is None:
            self.absent.append(f"{layer}.{name}")
            return
        wrapper = make_wrapper(original)
        for mod in filter(None, map(self._module, _MODULES)):
            if mod.__dict__.get(name) is original:
                self._patches.append((mod, name, original))
                setattr(mod, name, wrapper)

    def __enter__(self) -> "Tracer":
        self.absent = []
        for layer, name in SPANNED:
            self._install(layer, name, lambda fn, l=layer: self._span_wrapper(l, fn))
        for layer, name in COUNTED:
            self._install(layer, name, lambda fn, l=layer: self._count_wrapper(l, fn))
        self._install(*TRUNCATION, self._truncation_wrapper)
        return self

    def __exit__(self, *exc) -> None:
        for mod, name, original in reversed(self._patches):
            setattr(mod, name, original)
        self._patches.clear()

    # -- wrappers --------------------------------------------------------

    def _span_wrapper(self, layer: str, fn):
        key = f"{layer}.{fn.__name__}"
        observe = getattr(self, "_after_" + fn.__name__, None)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            idx = len(self.spans)
            self.spans.append(None)
            self._stack.append(idx)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                self.counts[f"raised.{type(exc).__name__}"] += 1
                raise
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[idx] = (key, start, end, parent, self.op_id)
                self.counts[key + ".calls"] += 1
            if observe is not None:
                observe(key, args, kwargs, result)
            return result

        return wrapper

    def _count_wrapper(self, layer: str, fn):
        key = f"{layer}.{fn.__name__}"

        @functools.wraps(fn)
        def wrapper(terms, *args, **kwargs):
            terms = list(terms)
            self.counts[key + ".calls"] += 1
            self.counts[key + ".terms"] += len(terms)
            return fn(terms, *args, **kwargs)

        return wrapper

    def _truncation_wrapper(self, fn):
        @functools.wraps(fn)
        def wrapper(series, *args, **kwargs):
            n_max = args[0] if args else kwargs.get("n_max")
            sizes: list[int] = []

            def recorded(n):
                sizes.append(n)
                return series(n)

            dist = fn(recorded if callable(series) else series, *args, **kwargs)
            if n_max is None and sizes:
                self.counts["truncation.cap_hits"] += max(sizes) >= ADAPTIVE_CAP
                self._adaptive_n.append(dist.truncation)
                if (dist.classification.value == "Probability"
                        and not math.isfinite(dist.tail_bound)):
                    self.counts["truncation.inf_tail_probability"] += 1
            return dist

        return wrapper

    # -- per-name observations -------------------------------------------

    def _after_hermite_sequence_log(self, key, args, kwargs, result):
        self.counts[key + ".terms"] += len(result)

    _after_laguerre_half_sequence = _after_hermite_sequence_log

    def _after_gauss_2f1_terminating(self, key, args, kwargs, result):
        self.counts[key + ".rational"] += _is_rational_2f1(args, kwargs)

    def _classified(self, key, args, kwargs, result):
        self.counts["classify." + result.classification.value] += 1

    _after_deformed_distribution = _classified
    _after_two_mode_p2k_distribution = _classified

    def _after_pn_hermite(self, key, args, kwargs, result):
        self._classified(key, args, kwargs, result)
        self.counts["photon_dist.rows_kept"] += result.truncation + 1

    _after_pn_laguerre = _after_pn_centered_xyt = _after_pn_violation = _after_pn_hermite

    def _after_distribution_to_csv(self, key, args, kwargs, result):
        self.counts[key + ".bytes"] += len(result.encode())

    def _after_main(self, key, args, kwargs, result):
        argv = list(args[0]) if args else list(kwargs.get("argv") or [])
        if "--out" in argv:
            path = argv[argv.index("--out") + 1]
            if os.path.exists(path):
                self.counts[key + ".bytes_out"] += os.path.getsize(path)

    # -- reporting -------------------------------------------------------

    def metrics(self, overhead_frac: float) -> dict[str, dict]:
        """Every per-layer metric of :data:`PER_LAYER`; absent layers read 0."""
        selfs = self_times(self.spans)
        c = self.counts
        values = dict(c)
        for name, t in selfs.items():
            values[name + ".self_s"] = t
        values["gaussian_state.self_s"] = sum(
            t for name, t in selfs.items() if name.startswith("gaussian_state."))
        lsum = c["specfun.logsigned_sum.calls"]
        values["photon_dist.row_useful_ratio"] = c["photon_dist.rows_kept"] / lsum if lsum else 0.0
        calls_2f1 = c["specfun.gauss_2f1_terminating.calls"]
        values["specfun.gauss_2f1_terminating.rational_share"] = (
            c["specfun.gauss_2f1_terminating.rational"] / calls_2f1 if calls_2f1 else 0.0)
        values["truncation.final_n_mean"] = (
            sum(self._adaptive_n) / len(self._adaptive_n) if self._adaptive_n else 0.0)
        values["classify.NormalizationError"] = c["raised.NormalizationError"]
        values["trace.overhead_frac"] = overhead_frac
        return {name: {"value": values.get(name, 0), "unit": unit} for name, unit in PER_LAYER}

    def write(self, path: str) -> None:
        """Write every recorded span as one JSON line."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "op": op}) + "\n")
