"""The three seeded workloads.

A workload is a list of rounds.  Every round holds the same template of
operation kinds, and the seed draws each operation's parameters, so two
seeds run the same mix of mechanisms on different inputs.  A run always
ends on a round boundary, which keeps the mix of every run identical.

An operation is a pair of callables: ``run`` makes the library calls (the
timed part) and ``check`` inspects what they returned (untimed).  Library
functions are looked up on their modules at call time, so the wrappers
of a traced pass see every call.
"""

from __future__ import annotations

import math
import random
import sys
from dataclasses import dataclass
from typing import Callable

import checks

EPS = sys.float_info.epsilon
ORACLE_ARGV = ("oracle", "--out")


@dataclass
class Op:
    kind: str
    params: dict
    run: Callable[[], dict]
    check: Callable[[dict], list]
    # Checks of a known library defect, for inputs in its stated band; their
    # failures are counted and reported apart from ``check``'s.
    known: Callable[[dict], list] | None = None


class Raised:
    """An error caught from a library call."""

    def __init__(self, exc: Exception):
        self.name = type(exc).__name__


def documented(call, allowed: dict):
    """Run ``call``; an error in ``allowed`` (error class -> whether its
    documented condition holds for these inputs) counts as a successful
    reason-code outcome only where the condition holds.  Any other error
    propagates and fails the operation."""
    try:
        return call()
    except tuple(allowed) as exc:
        if any(ok for cls, ok in allowed.items() if isinstance(exc, cls)):
            return Raised(exc)
        raise


def succeeded(value) -> bool:
    return not isinstance(value, Raised)


# ---------------------------------------------------------------------------
# routes_mixed
# ---------------------------------------------------------------------------

# Eight adaptive operations (half of them displaced) and two with an explicit
# n_max: the explicit block is the top fifth of latencies, so the 90th
# percentile falls inside it and the median among the adaptive ones.  The
# states share one band of mean photon number, where adaptive truncation
# stops at N = 64 for nearly all of them; a wider band mixes the N = 32, 64
# and 128 cost levels, and the median jumps between them from seed to seed.
ROUTES_TEMPLATE = ("thermal", "correlated", "displaced", "displaced", "thermal",
                   "displaced", "correlated", "displaced", "explicit", "explicit")
ROUTES_EXPLICIT_N = 256
ROUTES_N_BAR = (0.8, 1.05)
# Where Tr Sigma - 2 det Sigma - 1/2 nears zero the Hermite arguments y1, y2
# diverge and pn_laguerre loses precision on displaced states: rel 6e-9 at a
# distance of 1e-3, a NormalizationError at 1e-4, a Complex verdict at 6e-6
# (see test_perfbench).  Displaced draws in this band are kept, about 2 % of
# them; their Laguerre checks are reported as known-defect failures.
LAGUERRE_BAND = 0.01


def _mixed_covariance(rng, n_bar: float):
    """A squeezed thermal covariance with (Tr Sigma - 1) / 2 = n_bar.

    det Sigma = nu^2 / 4 with nu = (2 n_bar + 1) / cosh 2r, at least 1.19
    here, so every state clears the uncertainty bound by 40 % or more.
    """
    r = rng.uniform(0.05, 0.4)
    th = rng.uniform(0.0, math.pi)
    ch, sh = math.cosh(2 * r), math.sinh(2 * r)
    nu = (2 * n_bar + 1) / ch
    return (nu / 2 * (ch + math.cos(th) * sh), nu / 2 * (ch - math.cos(th) * sh),
            nu / 2 * math.sin(th) * sh)


def _routes_op(lib, rng, kind):
    gs, pd, en = lib.gaussian_state, lib.photon_dist, lib.entropy
    n_max, n_bar, xyt, in_band = None, None, None, False
    total = rng.uniform(*ROUTES_N_BAR)
    if kind == "thermal":
        n_bar = total
        state = gs.OneModeGaussianState(n_bar + 0.5, n_bar + 0.5, 0.0)
    elif kind == "displaced":
        # |alpha|^2 = (q^2 + p^2) / 2 takes 0.2-0.5 of the mean photon number
        alpha2, phase = rng.uniform(0.2, 0.5), rng.uniform(0.0, 2 * math.pi)
        mq, mp = math.sqrt(2 * alpha2) * math.cos(phase), math.sqrt(2 * alpha2) * math.sin(phase)
        sigmas = _mixed_covariance(rng, total - alpha2)
        in_band = abs(sigmas[0] + sigmas[1] - 2 * (sigmas[0] * sigmas[1] - sigmas[2] ** 2)
                      - 0.5) < LAGUERRE_BAND
        state = gs.OneModeGaussianState(*sigmas, mq, mp)
    else:
        state = gs.OneModeGaussianState(*_mixed_covariance(rng, total), 0.0, 0.0)
        if kind == "explicit":
            n_max = ROUTES_EXPLICIT_N
    if state.is_centered:
        xyt = gs.XYTState(state.sigma_pp, state.sigma_qq, state.sigma_pq)
    scheme = en.PartitionScheme(2)

    def laguerre():
        try:
            return pd.pn_laguerre(state, n_max)
        except lib.errors.PhotonStatError as exc:
            if not in_band:
                raise
            return Raised(exc)

    def run():
        out = {"h": pd.pn_hermite(state, n_max), "l": laguerre()}
        if xyt is not None:
            out["x"] = pd.pn_centered_xyt(xyt, n_max)
        out["slack"] = gs.uncertainty_check(state).slack
        out["csv"] = pd.distribution_to_csv(out["h"])
        out["ent"] = en.block_entropies(out["h"], scheme)
        return out

    def laguerre_checks(out):
        h, l = out["h"], out["l"]
        if not succeeded(l):
            return [f"pn_laguerre raised {l.name}"]
        return (checks.termwise(h.values, l.values, "hermite vs laguerre")
                + checks.verdict(l, out["slack"], "laguerre"))

    def check(out):
        h, l = out["h"], out["l"]
        bad = checks.verdict(h, out["slack"], "hermite")
        if not in_band:
            bad += laguerre_checks(out)
        if "x" in out:
            bad += checks.termwise(h.values, out["x"].values, "hermite vs xyt")
            bad += checks.verdict(out["x"], out["slack"], "xyt")
        if n_bar is not None:
            law = checks.thermal_law(n_bar, max(len(h), len(l)))
            bad += checks.termwise(h.values, law, "hermite vs thermal law")
            bad += checks.termwise(l.values, law, "laguerre vs thermal law")
        bad += checks.csv_export(out["csv"], h, "csv")
        bad += checks.entropy_report(out["ent"], h.values, "block entropies m=2")
        return bad

    return Op(kind, {"state": state.to_dict(), "n_max": n_max}, run, check,
              laguerre_checks if in_band else None)


# ---------------------------------------------------------------------------
# pure_boundary
# ---------------------------------------------------------------------------

# Squeezed vacua are split by whether the float product sigma_pp * sigma_qq
# misses 1/4: then r12 is ~1e-17 instead of 0, and the parity noise of the
# odd terms drives adaptive truncation on until the law underflows.  Each
# round holds one such "noisy" state beside eight clean ones (the r range
# gives about a quarter on its own), so every run carries the same share.
# The same noise comes from det = x y missing 1/4 by an ulp in the centered
# cells.  r and y are bounded so that the runaway stops at N = 256-512
# (0.2-0.5 s per operation) and a run holds a few hundred operations: at
# r = 0.3 it costs 4.6 s, and above r ~ 0.9 it reaches the 4096 cap at
# 30-70 s per state, longer than a run.  The cap itself is reached by the
# closed-form law of the same pure states at r >= 2.7, in milliseconds.
BOUNDARY_TEMPLATE = ("tau0", "clean", "two_mode", "clean", "clean", "clean", "violation",
                     "ulp_pos", "clean", "joint", "clean", "deformed_cap", "noisy", "clean",
                     "clean", "ulp_neg")
NOISY_R = (0.03, 0.055)
CLEAN_R = (0.02, 0.06)
ULP_Y = (0.65, 0.8)


def squeezed_sigmas(r: float) -> tuple[float, float]:
    return math.exp(2 * r) / 2, math.exp(-2 * r) / 2


def draw_squeeze(rng, bounds, noisy: bool) -> float:
    while True:
        r = rng.uniform(*bounds)
        a, b = squeezed_sigmas(r)
        if (a * b != 0.25) == noisy:
            return r


def draw_exact_boundary(rng) -> float:
    """y whose boundary partner x = 1/4 / y gives x * y == 1/4 exactly.

    Where the product misses 1/4 by an ulp, tau = 0 behaves like the ulp
    cells below (parity noise up to underflow, 20 s at y = 3), so those y
    are left to the ulp cells and this cell is the boundary hit exactly.
    """
    while True:
        y = rng.uniform(0.6, 3.0)
        if (0.25 / y) * y == 0.25:
            return y


def _pure_r(y: float) -> float:
    """Squeeze of the pure centered state with sigma_qq = y."""
    return -0.5 * math.log(2 * y)


def violation_bases(tau: float, y: float) -> tuple[float, float]:
    """The bases (x + y)^2 - 1 - 4 tau and x + y + 1 - 4 tau of pn_violation."""
    tr = (0.25 - tau) / y + y
    return tr * tr - 1 - 4 * tau, tr + 1 - 4 * tau


def _violation_side(lib, tau, y):
    """pn_violation plus both complex-information readings.

    Each documented error is accepted only where its documented condition
    holds: for pn_violation a NormalizationError needs both bases positive,
    and a SingularDenominatorError the second one exactly zero; for
    complex_information a DivergentSeriesError needs a non-finite tail bound.
    On the SignedReal side (first base negative, second positive) about 1 %
    of draws raise an undocumented NormalizationError (see test_perfbench);
    it is caught there too, and the operation reports it as a known defect.
    """
    pd, en, err = lib.photon_dist, lib.entropy, lib.errors
    base, w = violation_bases(tau, y)
    corner, signed_side = base > 0 and w > 0, base < 0 < w
    out = {"v": documented(lambda: pd.pn_violation(tau, y),
                           {err.NormalizationError: corner or signed_side,
                            err.SingularDenominatorError: w == 0})}
    v = out["v"]
    if succeeded(v):
        for reading in ("blocked", "verbatim"):
            out[reading] = documented(
                lambda: en.complex_information(v, en.PartitionScheme(2), 0, reading),
                {err.DivergentSeriesError: not math.isfinite(v.tail_bound)})
    return out


def _boundary_op(lib, rng, kind):
    gs, pd, err = lib.gaussian_state, lib.photon_dist, lib.errors
    if kind in ("two_mode", "joint"):
        return _two_mode_op(lib, rng, kind)

    if kind in ("clean", "noisy"):
        r = draw_squeeze(rng, NOISY_R if kind == "noisy" else CLEAN_R, kind == "noisy")
        state = gs.OneModeGaussianState(*squeezed_sigmas(r), 0.0)

        def run():
            return {"h": pd.pn_hermite(state), "l": pd.pn_laguerre(state),
                    "slack": gs.uncertainty_check(state).slack}

        def check(out):
            h, l = out["h"], out["l"]
            law = checks.squeezed_vacuum_law(r, max(len(h), len(l)))
            return (checks.termwise(h.values, l.values, "hermite vs laguerre")
                    + checks.termwise(h.values, law, "hermite vs squeezed law")
                    + checks.termwise(l.values, law, "laguerre vs squeezed law")
                    + checks.verdict(h, out["slack"], "hermite")
                    + checks.verdict(l, out["slack"], "laguerre"))

        return Op(kind, {"r": r}, run, check)

    if kind == "deformed_cap":
        r = rng.uniform(2.7, 3.0)
        spec = pd.DeformationSpec(pd.DeformationKind.SQUEEZED_VACUUM, r=r)

        def run():
            return {"d": pd.deformed_distribution(spec)}

        def check(out):
            d = out["d"]
            bad = checks.termwise(d.values, checks.squeezed_vacuum_law(r, len(d)), "squeezed law")
            if d.classification.value != "Probability":
                bad.append(f"squeezed law classified {d.classification.value}")
            return bad

        return Op(kind, {"r": r}, run, check)

    # centered cells on and across the boundary det Sigma = 1/4 - tau
    if kind == "tau0":
        tau, y = 0.0, draw_exact_boundary(rng)
    elif kind == "violation":
        tau, y = rng.uniform(0.3, 2.0), rng.uniform(0.6, 3.0)
    else:
        k = rng.randint(1, 3) * (1 if kind == "ulp_pos" else -1)
        tau, y = k * EPS, rng.uniform(*ULP_Y)

    # pn_centered_xyt documents a SingularDenominatorError at 4 det + 2 Tr + 1 = 0
    x = (0.25 - tau) / y
    singular = 4 * (x * y) + 2 * (x + y) + 1 == 0

    def run():
        xyt = gs.from_tau(tau, y)
        out = {"x": documented(lambda: pd.pn_centered_xyt(xyt),
                               {err.SingularDenominatorError: singular}),
               "slack": gs.uncertainty_check(xyt.to_state()).slack}
        if tau > 0:
            out.update(_violation_side(lib, tau, y))
        return out

    def violation_known(out):
        v = out.get("v")
        return [f"pn_violation raised {v.name} on the SignedReal side"] if not succeeded(v) else []

    def check(out):
        x = out["x"]
        bad = []
        if succeeded(x):
            bad += checks.verdict(x, out["slack"], "xyt")
            if kind != "violation":
                law = checks.squeezed_vacuum_law(_pure_r(y), len(x))
                bad += checks.termwise(x.values, law, "xyt vs squeezed law")
        for reading in ("blocked", "verbatim"):
            rep = out.get(reading)
            if rep is not None and succeeded(rep):
                bad += checks.finite_complex(rep, f"complex information {reading}")
        return bad

    base, w = violation_bases(tau, y)
    signed_side = tau > 0 and base < 0 < w
    return Op(kind, {"tau": tau, "y": y}, run, check, violation_known if signed_side else None)


# two-mode laws (run inside pure_boundary rounds)
# ---------------------------------------------------------------------------

JOINT_N = 24


def _two_mode_op(lib, rng, kind):
    """Two-mode squeezed light: the total-photon law through the float 2F1
    branch (both fractions in (0, 1)) or a normalized Legendre joint table,
    each followed by its entropies."""
    pd, en = lib.photon_dist, lib.entropy

    if kind == "joint":
        f1, f2, f3 = rng.uniform(0.5, 1.0), rng.uniform(0.2, 0.6), rng.uniform(0.0, 0.5)
        raw = checks.legendre_table(f1, f2, f3, JOINT_N)
        norm = 1.0 / math.fsum(v for row in raw for v in row)
        params = pd.LegendreParams(n_factor=norm, f1=f1, f2=f2, f3=f3)
        expected = [v * norm for row in raw for v in row]

        def run():
            j = pd.two_mode_joint_distribution(params, JOINT_N, JOINT_N)
            return {"j": j, "ent": en.joint_entropy_report(j)}

        def check(out):
            flat = [float(v) for v in out["j"].values.ravel()]
            return (checks.termwise(flat, expected, "joint table")
                    + checks.entropy_report(out["ent"], flat, "joint entropies"))

        return Op(kind, {"f": (f1, f2, f3)}, run, check)

    s1, s2 = rng.uniform(0.05, 0.8), rng.uniform(0.05, 0.8)
    law = checks.two_mode_law(s1, s2, 40)
    scheme = en.PartitionScheme(2)

    def run():
        d = pd.two_mode_p2k_distribution(s1, s2)
        return {"d": d, "ent": en.block_entropies(d, scheme)}

    def check(out):
        d = out["d"]
        bad = (checks.termwise(d.values, law, "two-mode law")
               + checks.entropy_report(out["ent"], d.values, "block entropies m=2"))
        if d.classification.value != "Probability":
            bad.append(f"two-mode law classified {d.classification.value}")
        return bad

    return Op(kind, {"s1": s1, "s2": s2}, run, check)


# ---------------------------------------------------------------------------
# oracle_suite
# ---------------------------------------------------------------------------


def _oracle_op(lib, out_path, state):
    def run():
        return {"rc": lib.cli.main([*ORACLE_ARGV, out_path])}

    def check(out):
        if out["rc"] != 0:
            return [f"oracle exited {out['rc']}"]
        with open(out_path, "rb") as fh:
            data = fh.read()
        first = state.setdefault("bytes", data)
        if data != first:
            return ["oracle output differs from the first run's bytes"]
        return []

    return Op("oracle", {"argv": [*ORACLE_ARGV, out_path]}, run, check)


# ---------------------------------------------------------------------------


WORKLOADS = ("routes_mixed", "pure_boundary", "oracle_suite")


def rounds(lib, workload: str, seed: int, out_path: str):
    """Endless stream of rounds of ``workload`` drawn from ``seed``."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "oracle_suite":
        # The suite's grids are fixed by the library; nothing here is seeded.
        state: dict = {}
        while True:
            yield [_oracle_op(lib, out_path, state)]
    template, make = {
        "routes_mixed": (ROUTES_TEMPLATE, _routes_op),
        "pure_boundary": (BOUNDARY_TEMPLATE, _boundary_op),
    }[workload]
    while True:
        yield [make(lib, rng, kind) for kind in template]
