"""Reference values and correctness checks computed by the benchmark itself.

Nothing here calls ``photonstat.oracle``: the closed forms are evaluated
with ``math`` so that a wrong library value cannot vouch for itself.  Every
check returns a list of problem strings; an empty list means the output
passed.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction

# Relative termwise tolerance of the route-agreement invariant.
REL_TOL = 1e-9
# Terms smaller than this in absolute value are roundoff of a law that sums
# to one (the parity-noise terms of a pure state sit near 1e-17); they are
# compared absolutely.
ABS_FLOOR = 1e-14
# Slack of det Sigma - 1/4 beyond which the verdict must follow its sign.
SLACK_DECISIVE = 1e-6
SUBADDITIVITY_TOL = 1e-12


def termwise(a, b, what: str) -> list[str]:
    """Termwise agreement over the common prefix of two weight sequences."""
    worst_n, worst = None, 0.0
    for n, (x, y) in enumerate(zip(a, b)):
        diff = abs(complex(x) - complex(y))
        if diff <= ABS_FLOOR:
            continue
        rel = diff / max(abs(x), abs(y))
        if rel > worst:
            worst_n, worst = n, rel
    if worst > REL_TOL:
        return [f"{what}: term {worst_n} differs by rel {worst:.3g}"]
    return []


def thermal_law(n_bar: float, n_max: int) -> list[float]:
    """Geometric law n_bar^n / (n_bar + 1)^(n + 1)."""
    lr, l1 = math.log(n_bar), math.log1p(n_bar)
    return [math.exp(n * lr - (n + 1) * l1) for n in range(n_max + 1)]


def squeezed_vacuum_law(r: float, n_max: int) -> list[float]:
    """sech r (tanh r / 2)^(2m) (2m)! / (m!)^2 at n = 2m, zero at odd n."""
    t_half = math.tanh(abs(r)) / 2
    out = []
    for n in range(n_max + 1):
        if n % 2 or (t_half == 0 and n):
            out.append(0.0)
            continue
        m = n // 2
        out.append(math.exp(-math.log(math.cosh(r)) + (2 * m * math.log(t_half) if m else 0.0)
                            + math.lgamma(2 * m + 1) - 2 * math.lgamma(m + 1)))
    return out


def two_mode_law(s1: float, s2: float, k_max: int) -> list[float]:
    """Total-photon law of two squeezed vacua (squeezing fractions s1, s2)
    as the convolution of their pair laws sqrt(1 - s) C(2j, j) (s / 4)^j."""

    def pairs(s):
        return [math.sqrt(1 - s) * math.exp(math.lgamma(2 * j + 1) - 2 * math.lgamma(j + 1)
                                            + j * math.log(s / 4)) for j in range(k_max + 1)]

    a, b = pairs(s1), pairs(s2)
    law = []
    for k in range(2 * k_max + 1):
        law.append(math.fsum(a[j] * b[k // 2 - j] for j in range(k // 2 + 1)) if k % 2 == 0 else 0.0)
    return law


def _legendre(l: int, m: int, x: Fraction) -> float:
    """|x^2 - 1|^(m/2) d^m/dx^m P_l(x), from the explicit power sum in exact arithmetic."""
    deriv = Fraction(0)
    for k in range(l // 2 + 1):
        p = l - 2 * k
        if p < m:
            break
        coeff = Fraction((-1) ** k * math.comb(l, k) * math.comb(2 * l - 2 * k, l), 2**l)
        deriv += coeff * math.perm(p, m) * x ** (p - m)
    return float(deriv) * abs(float(x) ** 2 - 1) ** (m / 2)


def legendre_table(f1: float, f2: float, f3: float, n_max: int) -> list[list[float]]:
    """Unnormalized Legendre-form joint weights on [0, n_max]^2 (n_factor = 1)."""
    x = Fraction(f3)
    leg = {}
    table = [[0.0] * (n_max + 1) for _ in range(n_max + 1)]
    for n1 in range(n_max + 1):
        for n2 in range(n_max + 1):
            if (n1 + n2) % 2:
                continue
            l, m = (n1 + n2) // 2, abs(n1 - n2) // 2
            if (l, m) not in leg:
                leg[l, m] = _legendre(l, m, x)
            if leg[l, m] == 0.0:
                continue
            log_w = (-abs(math.lgamma(n1 + 1) - math.lgamma(n2 + 1))
                     + (n1 - n2) / 2 * math.log(f1) + (n1 + n2) / 2 * math.log(f2))
            table[n1][n2] = math.exp(log_w) * leg[l, m] ** 2
    return table


def shannon(values) -> float:
    """Shannon entropy (nats) of the nonnegative real parts, 0 ln 0 = 0."""
    return -math.fsum(p * math.log(p) for p in (max(complex(v).real, 0.0) for v in values) if p > 0)


def entropy_report(rep, values, what: str) -> list[str]:
    """A block-entropy report is subadditive and its joint entropy is right."""
    out = []
    if not rep.information >= -SUBADDITIVITY_TOL:
        out.append(f"{what}: information {rep.information:.3g} below zero")
    ref = shannon(values)
    if abs(rep.h_joint - ref) > REL_TOL * max(abs(ref), 1e-300) + ABS_FLOOR:
        out.append(f"{what}: H(12) {rep.h_joint!r} against {ref!r}")
    return out


def verdict(dist, slack: float, what: str) -> list[str]:
    """Probability exactly when det Sigma clears 1/4, wherever the slack is decisive."""
    is_prob = dist.classification.value == "Probability"
    if slack >= SLACK_DECISIVE and not is_prob:
        return [f"{what}: valid state (slack {slack:.3g}) classified {dist.classification.value}"]
    if slack <= -SLACK_DECISIVE and is_prob:
        return [f"{what}: violating state (slack {slack:.3g}) classified Probability"]
    return []


def finite_complex(rep, what: str) -> list[str]:
    vals = (rep.h_joint, rep.h_sub1, rep.h_sub2, rep.information)
    if all(cmath.isfinite(v) for v in vals):
        return []
    return [f"{what}: non-finite complex entropy {vals}"]


def csv_export(text: str, dist, what: str) -> list[str]:
    lines = text.splitlines()
    if (len(lines) != len(dist.values) + 4
            or lines[0] != f"# classification={dist.classification.value}"):
        return [f"{what}: CSV export has {len(lines)} lines for {len(dist.values)} values"]
    return []
