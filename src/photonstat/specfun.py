"""Numerically stable evaluation of the classical special functions used by the
photon-number distributions: physicists' Hermite polynomials (one- and
two-index), associated Laguerre polynomials of order -1/2, associated Legendre
functions of integer degree/order, and the terminating Gauss hypergeometric
sum.

Conventions
-----------
* Hermite: H_0 = 1, H_1 = 2z, H_{n+1} = 2 z H_n - 2 n H_{n-1}.
* Two-index Hermite H_nn^{R}(y1, y2) for a symmetric 2x2 matrix R, evaluated
  through the finite sum

      H_nn = n!^2 (R11 R22 / 4)^{n/2}
             sum_k (-2 R12 / sqrt(R11 R22))^k / ((n-k)!^2 k!)
                   H_{n-k}(z1) H_{n-k}(z2),

  z1 = (R11 y1 + R12 y2) / (2 sqrt(R11)), z2 = (R12 y1 + R22 y2) / (2 sqrt(R22)).
  Principal branches are used for every fractional power, and sqrt(R22) is
  derived from sqrt(R11 R22) / sqrt(R11) so all branch choices are mutually
  consistent.  The degenerate case R11 R22 = 0 is evaluated by its limit,
  in which only powers of R12 survive (see `hermite_2d`).
* Laguerre: order alpha = -1/2 only, recurrence
  (n+1) L_{n+1} = (2n + 1/2 - x) L_n - (n - 1/2) L_{n-1}.
* Associated Legendre: integer l >= m >= 0, real argument of any magnitude,
  defined here as |x^2 - 1|^{m/2} d^m/dx^m P_l(x) -- i.e. no Condon-Shortley
  phase and an absolute value under the half power so the result is real on
  the whole axis.  Callers that square the result are insensitive to the
  convention.

Factorial-heavy sums are assembled in the log domain (`LogSigned`) and
exponentiated last; a plain double-precision path overflows near n = 170.

All functions are pure and use fixed ascending summation order, so results
are deterministic and safe to call from concurrent code.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from .errors import DomainError, PoleError, RangeOverflowError

__all__ = [
    "LogSigned",
    "logsigned_sum",
    "log_factorial",
    "hermite",
    "hermite_log",
    "hermite_sequence_log",
    "hermite_2d",
    "hermite_2d_log",
    "laguerre_half",
    "laguerre_half_sequence",
    "assoc_legendre",
    "gauss_2f1_terminating",
]

# Magnitude at which the plain Hermite recurrence defects to the scaled one;
# leaves ~1e16 headroom below the double-precision ceiling.
_PLAIN_LIMIT = 1e284

# log of the largest finite double; exponentiation beyond this must raise.
_LOG_DBL_MAX = math.log(1.7976931348623157e308)

_LOG_FACT_TABLE_SIZE = 512


@dataclass(frozen=True)
class LogSigned:
    """A complex value stored as exp(log_magnitude) * sign_phase.

    ``sign_phase`` has unit modulus, except for the exact zero which is
    represented by ``log_magnitude = -inf`` and ``sign_phase = 0``.
    """

    log_magnitude: float
    sign_phase: complex

    @staticmethod
    def zero() -> "LogSigned":
        return LogSigned(-math.inf, 0j)

    @staticmethod
    def from_value(z: complex) -> "LogSigned":
        z = complex(z)
        if z == 0:
            return LogSigned.zero()
        a = abs(z)
        return LogSigned(math.log(a), z / a)

    @property
    def is_zero(self) -> bool:
        return self.log_magnitude == -math.inf

    def value(self) -> complex:
        """Reconstruct the plain complex value (0 on underflow).

        Raises:
            RangeOverflowError: the magnitude exceeds the double range.
        """
        if self.is_zero:
            return 0j
        if self.log_magnitude > _LOG_DBL_MAX:
            raise RangeOverflowError(
                f"log-magnitude {self.log_magnitude:.6g} exceeds the double range"
            )
        return self.sign_phase * math.exp(self.log_magnitude)

    def __mul__(self, other: "LogSigned") -> "LogSigned":
        if self.is_zero or other.is_zero:
            return LogSigned.zero()
        return LogSigned(
            self.log_magnitude + other.log_magnitude,
            self.sign_phase * other.sign_phase,
        )


def logsigned_sum(terms: Iterable[LogSigned]) -> LogSigned:
    """Sum LogSigned terms by factoring out the largest magnitude.

    The iteration order of ``terms`` is preserved, so the result is
    bit-deterministic for a deterministic input order.
    """
    kept = [t for t in terms if not t.is_zero]
    if not kept:
        return LogSigned.zero()
    top = max(t.log_magnitude for t in kept)
    acc = 0j
    for t in kept:
        acc += t.sign_phase * math.exp(t.log_magnitude - top)
    if acc == 0:
        return LogSigned.zero()
    return LogSigned(top + math.log(abs(acc)), acc / abs(acc))


def _build_log_fact_table(size: int) -> list[float]:
    table = [0.0]
    acc = 0
    fact = 1
    for i in range(1, size):
        fact *= i
        table.append(math.log(fact))
    return table


_LOG_FACT = _build_log_fact_table(_LOG_FACT_TABLE_SIZE)


def log_factorial(n: int) -> float:
    """ln(n!), exact-to-rounding from an integer table for small n, lgamma beyond."""
    if n < 0:
        raise DomainError("factorial of a negative integer")
    if n < _LOG_FACT_TABLE_SIZE:
        return _LOG_FACT[n]
    return math.lgamma(n + 1)


def hermite(n: int, z: complex) -> complex:
    """Physicists' Hermite polynomial H_n(z) by three-term recurrence.

    Raises:
        DomainError: n < 0.
        RangeOverflowError: the result (or an intermediate) exceeds the
            double range; use :func:`hermite_log` instead.
    """
    if n < 0:
        raise DomainError("hermite degree must be nonnegative")
    z = complex(z)
    prev, cur = 0j, 1 + 0j
    for k in range(n):
        prev, cur = cur, 2 * z * cur - 2 * k * prev
        if abs(cur.real) > _PLAIN_LIMIT or abs(cur.imag) > _PLAIN_LIMIT:
            return hermite_log(n, z).value()
    if z.imag == 0:
        return complex(cur.real, 0.0)
    return cur


def hermite_sequence_log(z: complex, n_max: int) -> list[LogSigned]:
    """All of H_0(z) .. H_{n_max}(z) as LogSigned, via a rescaled recurrence."""
    if n_max < 0:
        raise DomainError("hermite degree must be nonnegative")
    z = complex(z)
    out: list[LogSigned] = []
    prev, cur = 0j, 1 + 0j
    shift = 0.0
    for k in range(n_max + 1):
        if cur == 0:
            out.append(LogSigned.zero())
        else:
            a = abs(cur)
            out.append(LogSigned(math.log(a) + shift, cur / a))
        prev, cur = cur, 2 * z * cur - 2 * k * prev
        peak = max(abs(cur), abs(prev))
        if peak > 1e250:
            prev /= peak
            cur /= peak
            shift += math.log(peak)
    return out


def hermite_log(n: int, z: complex) -> LogSigned:
    """H_n(z) in log-signed form; never overflows."""
    return hermite_sequence_log(z, n)[-1]


def _consistent_roots(r11: complex, r22: complex) -> tuple[complex, complex, complex]:
    """Principal sqrt(R11 R22) plus individual roots sharing that branch."""
    rho = cmath.sqrt(complex(r11) * complex(r22))
    s1 = cmath.sqrt(complex(r11))
    s2 = rho / s1 if s1 != 0 else 0j
    return rho, s1, s2


def hermite_2d_log(n: int, r, y1: complex, y2: complex) -> LogSigned:
    """Two-index Hermite polynomial H_nn^{R}(y1, y2) in log-signed form.

    ``r`` is any object with attributes ``r11``, ``r22``, ``r12`` (for
    example the R-matrix produced by the Gaussian-state module).  The y
    arguments are taken from the call, not from ``r``.
    """
    if n < 0:
        raise DomainError("hermite_2d degree must be nonnegative")
    r11, r22, r12 = complex(r.r11), complex(r.r22), complex(r.r12)
    y1, y2 = complex(y1), complex(y2)
    rho, s1, s2 = _consistent_roots(r11, r22)

    if rho == 0:
        # Degenerate limit of the finite sum: only powers of R12 survive,
        # paired with w = (R11 y1 + R12 y2)(R12 y1 + R22 y2).
        w = (r11 * y1 + r12 * y2) * (r12 * y1 + r22 * y2)
        lw = LogSigned.from_value(w)
        lc = LogSigned.from_value(-2 * r12)
        terms = []
        for k in range(n + 1):
            m = n - k
            if m > 0 and lw.is_zero:
                continue
            if k > 0 and lc.is_zero:
                continue
            mag = (
                2 * log_factorial(n)
                - n * math.log(2)
                + m * (lw.log_magnitude if m else 0.0)
                + k * (lc.log_magnitude if k else 0.0)
                - 2 * log_factorial(m)
                - log_factorial(k)
            )
            phase = (lw.sign_phase**m if m else 1) * (lc.sign_phase**k if k else 1)
            terms.append(LogSigned(mag, phase))
        return logsigned_sum(terms)

    z1 = (r11 * y1 + r12 * y2) / (2 * s1)
    z2 = (r12 * y1 + r22 * y2) / (2 * s2)
    h1 = hermite_sequence_log(z1, n)
    h2 = hermite_sequence_log(z2, n)
    lc = LogSigned.from_value(-2 * r12 / rho)
    lhalf = LogSigned.from_value(rho / 2)
    terms = []
    for k in range(n + 1):
        m = n - k
        if k > 0 and lc.is_zero:
            continue
        part = h1[m] * h2[m]
        if part.is_zero:
            continue
        mag = (
            2 * log_factorial(n)
            + n * lhalf.log_magnitude
            + k * (lc.log_magnitude if k else 0.0)
            - 2 * log_factorial(m)
            - log_factorial(k)
            + part.log_magnitude
        )
        phase = (lhalf.sign_phase**n) * (lc.sign_phase**k if k else 1) * part.sign_phase
        terms.append(LogSigned(mag, phase))
    return logsigned_sum(terms)


def hermite_2d(n: int, r, y1: complex, y2: complex) -> complex:
    """Two-index Hermite polynomial H_nn^{R}(y1, y2) as a plain complex value.

    Raises:
        DomainError: n < 0.
        RangeOverflowError: the value exceeds the double range (use
            :func:`hermite_2d_log`).
    """
    return hermite_2d_log(n, r, y1, y2).value()


def laguerre_half_sequence(x: complex, n_max: int) -> list[complex]:
    """L_0^{-1/2}(x) .. L_{n_max}^{-1/2}(x); complex-safe recurrence."""
    if n_max < 0:
        raise DomainError("laguerre degree must be nonnegative")
    x = complex(x)
    out = [1 + 0j]
    if n_max == 0:
        return out
    out.append(0.5 - x)
    for n in range(1, n_max):
        nxt = ((2 * n + 0.5 - x) * out[n] - (n - 0.5) * out[n - 1]) / (n + 1)
        if abs(nxt.real) > _PLAIN_LIMIT or abs(nxt.imag) > _PLAIN_LIMIT:
            raise RangeOverflowError("laguerre recurrence left the double range")
        out.append(nxt)
    return out


def laguerre_half(n: int, x: float) -> float:
    """Associated Laguerre polynomial L_n^{-1/2}(x) for real x."""
    return laguerre_half_sequence(complex(x), n)[-1].real


def assoc_legendre(l: int, m: int, x: float) -> float:
    """Associated Legendre function of integer degree l and order m.

    Uses |x^2 - 1|^{m/2} d^m/dx^m P_l(x): real for every real x (including
    |x| > 1) and free of the Condon-Shortley phase.  Any quantity built from
    its square agrees with the textbook conventions.

    Raises:
        DomainError: m > l or negative indices.
    """
    if l < 0 or m < 0:
        raise DomainError("legendre indices must be nonnegative")
    if m > l:
        raise DomainError(f"legendre order m={m} exceeds degree l={l}")
    # seed P_m^m = (2m-1)!! |x^2-1|^{m/2}, then climb in degree at fixed order
    pmm = 1.0
    if m > 0:
        pref = abs(x * x - 1.0) ** 0.5
        for i in range(1, m + 1):
            pmm *= (2 * i - 1) * pref
    if l == m:
        return pmm
    pm1 = x * (2 * m + 1) * pmm
    if l == m + 1:
        return pm1
    for ll in range(m + 2, l + 1):
        pmm, pm1 = pm1, ((2 * ll - 1) * x * pm1 - (ll + m - 1) * pmm) / (ll - m)
        if abs(pm1) > _PLAIN_LIMIT:
            raise RangeOverflowError("legendre recurrence left the double range")
    return pm1


def gauss_2f1_terminating(k: int, b: float, c: float, z: float) -> float:
    """Terminating hypergeometric sum 2F1(-k, b; c; z).

        sum_{j=0}^{k} (-k)_j (b)_j / ((c)_j j!) z^j

    For 0 <= z < 1 with c > b the alternating sum is mapped through
    (1-z)^k 2F1(-k, c-b; c; z/(z-1)) onto a series of positive terms, so
    no cancellation occurs.  At z = 1 with c > b the sum has the
    Chu-Vandermonde closed form (c-b)_k / (c)_k (DLMF 15.4.24), a product
    of positive factors.  Every other case is evaluated in exact rational
    arithmetic -- binary floats are exact rationals -- and only the final
    conversion rounds.

    Raises:
        DomainError: k < 0.
        PoleError: (c)_j vanishes for a reachable j <= k.
    """
    if k < 0:
        raise DomainError("series order must be nonnegative")
    if 0 <= z < 1 and c > 0 and c - b > 0:
        w = abs(z / (z - 1))
        term = 1.0
        total = 1.0
        for j in range(k):
            term *= (k - j) * (c - b + j) * w / ((c + j) * (j + 1))
            total += term
        return (1 - z) ** k * total
    if z == 1 and c > 0 and c - b > 0:
        prod = 1.0
        for j in range(k):
            prod *= (c - b + j) / (c + j)
        return prod
    b_r, c_r, z_r = Fraction(b), Fraction(c), Fraction(z)
    term = Fraction(1)
    total = Fraction(1)
    for j in range(k):
        if term == 0:
            break
        den = (c_r + j) * (j + 1)
        if den == 0:
            raise PoleError(f"(c)_j hit zero at j={j + 1} for c={c}")
        term *= (Fraction(-k) + j) * (b_r + j) * z_r / den
        total += term
    return float(total)
