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
  in which only powers of R12 survive (see `hermite_2d_factors`).  A real
  covariance gives z2 = conj(z1) to the bit, so H_m(z1) H_m(z2) is
  |H_m(z1)|^2 (Dodonov, Man'ko & Man'ko, Phys. Rev. A 49, 2993 (1994)).
* Laguerre: order alpha = -1/2 only, recurrence
  (n+1) L_{n+1} = (2n + 1/2 - x) L_n - (n - 1/2) L_{n-1}.
* Associated Legendre: integer l >= m >= 0, real argument of any magnitude,
  defined here as |x^2 - 1|^{m/2} d^m/dx^m P_l(x) -- i.e. no Condon-Shortley
  phase and an absolute value under the half power so the result is real on
  the whole axis.  Callers that square the result are insensitive to the
  convention.

Factorial-heavy sums are assembled in the log domain and exponentiated
last; a plain double-precision path overflows near n = 170.  Every finite
double sum of the package has the Cauchy-product shape

    row n = e^{C[n]} sum_k A[k] B[n-k],

and `log_cauchy_rows` evaluates it for whole sequences at once, from
factors given as (log-magnitude, phase) arrays.  For a span of rows it
chooses a tilt lambda, forms A[k] e^{-lambda k - max} and B[m]
e^{-lambda m - max} in plain arithmetic, each at most 1, takes one
convolution of the two, and adds lambda n and both maxima back onto the
log of row n.  lambda levels the largest terms of the span's first and
last rows, which keeps the rows of a smooth series within a few hundred
nats of 1.  A row is certified when no nonzero term of the span falls
below e^-700 (nothing underflows), when the row itself reaches e^-600 (a
term lost to underflow is below e^-708), or when every term has an exact
zero factor.  A certified row carries the error bound of plain summation,
gamma_n sum_k |A[k] B[n-k]|, the bound of the log-domain sum it replaces
(Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed., ch. 4).
The rows left over are tilted again on the span they cover, halved where
that certifies none of them, and a single row is summed on its own,
shifted by its largest term.  A factor whose only nonzero entry is its
first makes each row one exact term.  Real phases stay exactly real.
`log_signed_values` exponentiates the result once, at the end.

Each polynomial family has one sequence and one plain scalar that reads
its last entry.  The sequences come as (log-magnitude, phase) arrays for
that kernel (`hermite_sequence_log`, `laguerre_half_sequence`), with real
phases, exactly +-1, for a real argument.  The Hermite, Laguerre and
Legendre recurrences run in float arithmetic for a real argument and share
one rescale rule, `_rescaled`: once the newest value passes 1e250 in
modulus, both carried values are divided by it and its log is added to a
running shift.  The scalars (`hermite`, `hermite_2d`, `laguerre_half`,
`assoc_legendre`) raise RangeOverflowError only past the double range.

The Legendre recurrence tabulates whole columns: one loop in m seeds
P_m^m for every order at once, and one climb in degree gives the column
P_m^m .. P_L^m, so a table of all l <= L costs O(L^2) steps
(`_legendre_columns`; a single value is the last entry of its column).
The log factorials come from one shared read-only table: the logs of
exact integer factorials below 512, lgamma(k + 1) past it.
`log_factorials` grows it on demand to at least twice its length, by
replacing it with a longer table that holds the same values.

All functions are pure apart from that growth, which a concurrent caller
sees as either the old table or the new one, and use a fixed summation
order, so results are deterministic and safe to call from concurrent code.
"""

from __future__ import annotations

import cmath
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

import numpy as np

from .errors import DomainError, PoleError, RangeOverflowError

__all__ = [
    "LogSigned",
    "logsigned_sum",
    "log_cauchy_rows",
    "log_signed_values",
    "log_powers",
    "log_factorial",
    "log_factorials",
    "hermite",
    "hermite_sequence_log",
    "hermite_2d",
    "hermite_2d_factors",
    "laguerre_half",
    "laguerre_half_sequence",
    "assoc_legendre",
    "gauss_2f1_terminating",
]

# Modulus past which a recurrence divides its carried values by the newest
# one and keeps the log of the divisor apart.
_RESCALE_LIMIT = 1e250

# Running total of the positive-term 2F1 series at which part of its
# (1-z)^k prefactor is applied early.
_SERIES_LIMIT = 1e250

# log of the largest finite double; exponentiation beyond this must raise.
_LOG_DBL_MAX = math.log(1.7976931348623157e308)

# Factorials below this are exact integers before their log is taken.
_LOG_FACT_EXACT = 512

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


def _phases(ph) -> np.ndarray:
    """Phase array as float when every imaginary part is zero, else complex."""
    ph = np.asarray(ph)
    if np.iscomplexobj(ph):
        return ph if np.count_nonzero(ph.imag) else ph.real
    return np.asarray(ph, dtype=float)


def _log_signed(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Plain values as (log-magnitude, phase) arrays; zeros become (-inf, 0).

    Real values give real phases, exactly +-1.  A complex modulus is taken
    by hypot, correctly rounded on over 99 % of random inputs (numpy 2.4's
    complex abs: about 61-65 %), and the phase divides the real and
    imaginary parts apart: numpy's complex-by-float division multiplies by
    the reciprocal, inf for a subnormal modulus, and gives inf+infj.
    """
    is_complex = np.iscomplexobj(values)
    size = np.hypot(values.real, values.imag) if is_complex else np.abs(values)
    zero = size == 0
    size[zero] = 1.0
    mag = np.log(size)
    mag[zero] = -np.inf
    if not is_complex:
        return mag, values / size
    ph = np.empty_like(values)
    np.divide(values.real, size, out=ph.real)
    np.divide(values.imag, size, out=ph.imag)
    return mag, ph


def _log_row_sums(t_mag: np.ndarray, t_ph: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sum each row of exp(t_mag) * t_ph after shifting it by its largest term.

    Entries with t_mag = -inf are zeros.  Rows summing to zero come back as
    (-inf, 0); a NaN or +inf t_mag raises RangeOverflowError.  Both arrays
    are overwritten.
    """
    shift = t_mag.max(axis=1)
    if not _top(shift) < np.inf:
        raise RangeOverflowError(_NOT_FINITE)
    shift[shift == -np.inf] = 0.0  # an all-zero row
    t_mag -= shift[:, None]
    np.exp(t_mag, out=t_mag)
    t_ph *= t_mag
    acc = t_ph.sum(axis=1)
    size = np.abs(acc)
    zero = size == 0
    size[zero] = 1.0  # zero rows keep phase 0
    mag = shift + np.log(size)
    mag[zero] = -np.inf
    return mag, acc / size


def log_cauchy_rows(a_mag, a_ph, b_mag, b_ph, n_rows: int | None = None):
    """Rows of the Cauchy product of two sequences in log-signed form.

    The sequences are A[k] = exp(a_mag[k]) a_ph[k] and B[j] likewise; a zero
    entry has log-magnitude -inf.  Returns ``(mag, ph)`` with

        exp(mag[n]) ph[n] = sum_k A[k] B[n-k],    n = 0 .. n_rows - 1

    (``n_rows`` defaults to the full product, len(a) + len(b) - 1).  A span
    of rows is summed by one tilted convolution (:func:`_tilted_rows`), so
    rows far outside the double range keep their relative precision.  The
    rows that a tilt leaves uncertified are tilted again on the span they
    cover, which is halved where that certifies none of them; a single row
    is summed on its own, shifted by its largest term.  A factor whose only
    nonzero entry is its first makes each row one exact term.  When both
    phase arrays are real the arithmetic is real, so real phases stay
    exactly +-1; a zero row is returned as (-inf, 0).

    Raises:
        RangeOverflowError: a log-magnitude that some row reads is NaN or
            +inf, as a recurrence that left the double range leaves behind.
    """
    a_mag = np.asarray(a_mag, dtype=float)
    b_mag = np.asarray(b_mag, dtype=float)
    a_ph, b_ph = _phases(a_ph), _phases(b_ph)
    na, nb = len(a_mag), len(b_mag)
    if n_rows is None:
        n_rows = na + nb - 1 if na and nb else 0
    dtype = np.result_type(a_ph, b_ph)
    if not (na and nb and n_rows):
        return _zero_rows(n_rows, dtype)
    # row n reads A[k] and B[n-k] for k <= n; rows past the product's end are zero
    n = min(n_rows, na + nb - 1)
    a_mag, a_ph, b_mag, b_ph = a_mag[:n], a_ph[:n], b_mag[:n], b_ph[:n]
    if _only_first(a_mag):
        return _single_term_rows(a_mag, a_ph, b_mag, b_ph, n_rows)
    if _only_first(b_mag):
        return _single_term_rows(b_mag, b_ph, a_mag, a_ph, n_rows)
    mag = ph = done = None
    spans = [(0, n)]
    while spans:
        n0, n1 = spans.pop()
        if n1 - n0 == 1:
            t_mag, t_ph = _row_terms(a_mag, a_ph, b_mag, b_ph, n0)
            row_mag, row_ph = _log_row_sums(t_mag[None], t_ph[None])
            ok = None
        else:
            row_mag, row_ph, ok = _tilted_rows(a_mag, a_ph, b_mag, b_ph, n0, n1)
        if ok is None:  # every row certified
            if n1 - n0 == n_rows:
                return row_mag, row_ph
            ok = np.ones(n1 - n0, dtype=bool)
        if mag is None:
            (mag, ph), done = _zero_rows(n_rows, dtype), np.zeros(n, dtype=bool)
        mag[n0:n1][ok], ph[n0:n1][ok] = row_mag[ok], row_ph[ok]
        done[n0:n1] |= ok
        left = np.flatnonzero(~done[n0:n1]) + n0
        if left.size:
            f0, f1 = int(left[0]), int(left[-1]) + 1
            if (f0, f1) != (n0, n1):
                spans.append((f0, f1))  # tilted again on their own span
            else:
                mid = (n0 + n1) // 2
                spans += [(n0, mid), (mid, n1)]
    return mag, ph


def _zero_rows(n_rows: int, dtype) -> tuple[np.ndarray, np.ndarray]:
    """n_rows zero rows, (-inf, 0)."""
    return np.full(n_rows, -np.inf), np.zeros(n_rows, dtype=dtype)


def _only_first(x_mag: np.ndarray) -> bool:
    """Whether x[0] is the only entry that may be nonzero, as in the powers
    of zero (tested on x[1] first, which is nonzero in almost every series)."""
    return len(x_mag) < 2 or (x_mag[1] == -np.inf and _top(x_mag[1:]) == -np.inf)


def _single_term_rows(a_mag, a_ph, b_mag, b_ph, n_rows: int):
    """Rows where A[0] is A's only nonzero entry: row n is the single term
    A[0] B[n], exact in the log domain."""
    mag, ph = _zero_rows(n_rows, np.result_type(a_ph, b_ph))
    n = min(n_rows, len(b_mag))
    mag[:n] = a_mag[0] + b_mag[:n]
    ph[:n] = a_ph[0] * b_ph[:n]
    if not _top(mag) < np.inf:
        raise RangeOverflowError(_NOT_FINITE)
    return mag, ph


# Certificates of a tilted span, where every factor is at most 1.  Where
# no nonzero term falls below e^-700, nothing underflows or loses bits, so
# each row keeps the error bound of plain summation, gamma_n times its sum
# of term moduli (Higham, Accuracy and Stability of Numerical Algorithms,
# 2nd ed., ch. 4), as the log-domain sum does.  Otherwise a row is
# certified where its modulus reaches e^-600: a term lost to underflow is
# below e^-708, and a few thousand of them stay below eps times the row.
_SPAN_FLOOR = -700.0
_CERTIFIED = math.exp(-600.0)

# Tilts are rounded to multiples of 2^-20, so that lambda k is exact for
# |lambda| < 2^20 and k < 2^13 and the tilt adds no rounding of its own.
_TILT_QUANTUM = 2.0**-20

_top, _bottom = np.maximum.reduce, np.minimum.reduce

_NOT_FINITE = "a factor left the double range: log-magnitude NaN or inf"


def _row_window(na: int, nb: int, n: int) -> tuple[slice, slice]:
    """Slices of A and of B (to be reversed) that row n reads."""
    k0, k1 = max(0, n - nb + 1), min(n + 1, na)
    return slice(k0, k1), slice(n - k1 + 1, n - k0 + 1)


def _row_terms(a_mag, a_ph, b_mag, b_ph, n: int):
    """The terms A[k] B[n-k] of row n as (log-magnitude, phase) arrays."""
    ka, kb = _row_window(len(a_mag), len(b_mag), n)
    return a_mag[ka] + b_mag[kb][::-1], a_ph[ka] * b_ph[kb][::-1]


def _row_top(a_mag, b_mag, n: int) -> float:
    """Log-magnitude of the largest term of row n."""
    if n == 0:
        return float(a_mag[0] + b_mag[0])
    ka, kb = _row_window(len(a_mag), len(b_mag), n)
    return float(_top(a_mag[ka] + b_mag[kb][::-1]))


def _level_tilt(a_mag, b_mag, n0: int, n1: int) -> float:
    """The tilt lambda under which the largest terms of rows n0 and n1 - 1
    come out level (0 where either row is an exact zero, or NaN)."""
    tilt = (_row_top(a_mag, b_mag, n1 - 1) - _row_top(a_mag, b_mag, n0)) / (n1 - 1 - n0)
    if not math.isfinite(tilt):
        return 0.0
    return round(tilt / _TILT_QUANTUM) * _TILT_QUANTUM


def _tilted_rows(a_mag, a_ph, b_mag, b_ph, n0: int, n1: int):
    """Rows n0 .. n1-1 of :func:`log_cauchy_rows` by one tilted convolution.

    With lambda from :func:`_level_tilt`, the factors
    A[k] e^{-lambda k - top_a} and B[m] e^{-lambda m - top_b} are formed
    in plain arithmetic, each at most 1, one convolution sums every row,
    and lambda n + top_a + top_b goes back onto the log of row n.  Returns
    ``(mag, ph, certified)``, with ``certified`` None where every row is.
    The certificates (see ``_CERTIFIED``) are tried cheapest first: every
    row reaching e^-600, then the span's smallest nonzero term, then, row
    by row, the modulus and the exact zero factors of every term.
    """
    ka, kb = min(n1, len(a_mag)), min(n1, len(b_mag))
    ramp = _level_tilt(a_mag, b_mag, n0, n1) * np.arange(n1)
    t_a, t_b = a_mag[:ka] - ramp[:ka], b_mag[:kb] - ramp[:kb]
    top_a, top_b = _top(t_a), _top(t_b)
    if not (top_a < np.inf and top_b < np.inf):
        # checked on the first span, which reads every factor: a NaN row
        # would certify under no tilt
        raise RangeOverflowError(_NOT_FINITE)
    if top_a == -np.inf or top_b == -np.inf:  # every term has a zero factor
        return (*_zero_rows(n1 - n0, np.result_type(a_ph, b_ph)), None)
    t_a -= top_a
    t_b -= top_b
    acc = _convolve_rows(np.exp(t_a) * a_ph[:ka], np.exp(t_b) * b_ph[:kb], n0, n1)
    size = np.abs(acc)
    shift = ramp[n0:n1] + (top_a + top_b)
    if _bottom(size) >= _CERTIFIED:
        return np.log(size) + shift, acc / size, None
    nz_a, nz_b = t_a > -np.inf, t_b > -np.inf
    if _bottom(t_a, where=nz_a, initial=0.0) + _bottom(t_b, where=nz_b, initial=0.0) >= _SPAN_FLOOR:
        ok = None
    else:
        ok = size >= _CERTIFIED
        ok |= ~_convolve_rows(nz_a, nz_b, n0, n1)  # no term has two nonzero factors
        if ok.all():
            ok = None
    mag, ph = _log_signed(acc)  # zeros, and complex rows down to subnormals
    return mag + shift, ph, ok


def _convolve_rows(x: np.ndarray, y: np.ndarray, n0: int, n1: int) -> np.ndarray:
    """Rows n0 .. n1-1 of the full convolution of x and y, which reaches n1."""
    if n0 == 0:
        return np.convolve(x, y)[:n1]
    # y between zero pads, so that the rows n0 .. n1-1 are the valid windows
    lo = n0 - len(x) + 1
    z = np.zeros(n1 - lo, dtype=np.result_type(x, y))
    z[max(lo, 0) - lo : min(n1, len(y)) - lo] = y[max(lo, 0) : n1]
    return np.convolve(z, x, "valid")


def log_signed_values(mag, ph) -> np.ndarray:
    """exp(mag) * ph as a complex128 array.

    Raises:
        RangeOverflowError: some log-magnitude exceeds the double range, or
            is NaN, which a recurrence that left the double range leaves.
    """
    mag = np.asarray(mag, dtype=float)
    top = mag.max() if mag.size else -np.inf
    if np.isnan(top):
        raise RangeOverflowError("log-magnitude NaN: a value left the double range")
    if top > _LOG_DBL_MAX:
        raise RangeOverflowError(f"log-magnitude {top:.6g} exceeds the double range")
    return (np.exp(mag) * ph).astype(complex, copy=False)


def log_powers(z: complex, n_max: int) -> tuple[np.ndarray, np.ndarray]:
    """z**k for k = 0 .. n_max as (log-magnitude, phase) arrays, with 0**0 = 1.

    The phases of a real z are real, +-1 by the parity of k; a complex z
    gives exp(i k arg z).
    """
    z = complex(z)
    if z == 0:
        mag, ph = np.full(n_max + 1, -np.inf), np.zeros(n_max + 1)
        mag[0], ph[0] = 0.0, 1.0
        return mag, ph
    k = np.arange(n_max + 1)
    mag = k * math.log(abs(z))
    if z.imag == 0:
        ph = np.ones(n_max + 1)
        if z.real < 0:
            ph[1::2] = -1.0
        return mag, ph
    return mag, np.exp(1j * cmath.phase(z) * k)


def _exact_log_factorials(size: int) -> np.ndarray:
    table = [0.0]
    fact = 1
    for i in range(1, size):
        fact *= i
        table.append(math.log(fact))
    out = np.array(table)
    out.flags.writeable = False
    return out


# ln(k!) for k below its length; see `log_factorials`
_log_fact_table = _exact_log_factorials(_LOG_FACT_EXACT)


def _grown_log_fact_table(n_max: int) -> np.ndarray:
    """The shared table extended past n_max, to at least twice its length.

    The new entries are lgamma(k + 1).  The table is replaced, never
    written, so a concurrent reader holds either the old or the new one.
    """
    global _log_fact_table
    table = _log_fact_table
    size = max(n_max + 1, 2 * len(table))
    tail = [math.lgamma(k + 1) for k in range(len(table), size)]
    grown = np.concatenate([table, tail])
    grown.flags.writeable = False
    _log_fact_table = grown
    return grown


def log_factorial(n: int) -> float:
    """ln(n!): entry n of the table of :func:`log_factorials`, or
    lgamma(n + 1), the same value, past its end (which does not grow it).

    Raises:
        TypeError: n is not an integer.
        DomainError: n < 0.
    """
    n = operator.index(n)
    if n < 0:
        raise DomainError("factorial of a negative integer")
    table = _log_fact_table
    if n < len(table):
        return float(table[n])
    return math.lgamma(n + 1)


def log_factorials(n_max: int) -> np.ndarray:
    """ln(k!) for k = 0 .. n_max, as a read-only view of one shared table.

    Entries below 512 are the logs of exact integer factorials, the others
    lgamma(k + 1).  The table grows on demand, so a run pays for each entry
    once.
    """
    if n_max < 0:
        raise DomainError("factorial of a negative integer")
    table = _log_fact_table
    if n_max >= len(table):
        table = _grown_log_fact_table(n_max)
    return table[: n_max + 1]


def _rescaled(prev, cur, shift: float):
    """The rescale rule: prev and cur divided by abs(cur), its log added to shift.

    Callers test abs(cur) alone: prev passed the same test one step earlier.
    """
    peak = abs(cur)
    return prev / peak, cur / peak, shift + math.log(peak)


def hermite(n: int, z: complex) -> complex:
    """Physicists' Hermite H_n(z): the last entry of :func:`hermite_sequence_log`.

    Raises:
        DomainError: n < 0.
        RangeOverflowError: the result exceeds the double range.
    """
    mag, ph = hermite_sequence_log(z, n)
    return complex(log_signed_values(mag[-1:], ph[-1:])[0])


def hermite_sequence_log(z: complex, n_max: int) -> tuple[np.ndarray, np.ndarray]:
    """H_0(z) .. H_{n_max}(z) as (log-magnitude, phase) arrays.

    One recurrence stores plain values, in float arithmetic for a real z,
    rescaled past 1e250 as the module docstring describes; the magnitudes
    are formed all at once at the end.  A real z gives real phases, exactly
    +-1, and a zero value (odd degree at z = 0) comes out as (-inf, 0).
    """
    if n_max < 0:
        raise DomainError("hermite degree must be nonnegative")
    z = complex(z)
    if z.imag == 0:
        z = z.real
    raw, shifts = [], []
    prev, cur = 0 * z, 1 + 0 * z
    two_z = 2 * z
    shift = 0.0
    for k in range(n_max + 1):
        raw.append(cur)
        shifts.append(shift)
        prev, cur = cur, two_z * cur - 2 * k * prev
        if abs(cur) > _RESCALE_LIMIT:
            prev, cur, shift = _rescaled(prev, cur, shift)
    mag, ph = _log_signed(np.array(raw))
    return mag + shifts, ph


def _roots(r) -> tuple[complex, complex, complex]:
    """Principal sqrt(R11 R22) and roots of R11, R22 sharing its branch.

    All three are 0 when R11 R22 = 0, the degenerate limit.  Where
    R22 = conj(R11), as for every real covariance, the root of R22 is
    conj(sqrt(R11)) exactly, so conjugate Hermite arguments stay conjugate
    to the bit.
    """
    r11, r22 = complex(r.r11), complex(r.r22)
    rho = cmath.sqrt(r11 * r22)
    if rho == 0:
        return 0j, 0j, 0j
    s1 = cmath.sqrt(r11)
    return rho, s1, s1.conjugate() if r22 == r11.conjugate() else rho / s1


def hermite_2d_factors(n_max: int, r, y1: complex, y2: complex):
    """Factors of the finite two-index Hermite sum for n = 0 .. n_max,

        H_nn^{R}(y1, y2) = n!^2 e^{C[n]} sum_k A[k] B[n-k],

    as three (log-magnitude, phase) array pairs ``(A, B, C)``:
    A[k] = c^k / k!, B[m] = H_m(z1) H_m(z2) / m!^2 and e^{C[n]} = (rho/2)^n
    with rho = sqrt(R11 R22) and c = -2 R12 / rho.  In the degenerate limit
    rho = 0 they are A[k] = (-2 R12)^k / k!, B[m] = w^m / m!^2 and
    e^{C[n]} = 2^-n, w = (R11 y1 + R12 y2)(R12 y1 + R22 y2).

    Where z2 == conj(z1) (every state's R-matrix and y) B comes from one
    recurrence, real, and equal to the exact conjugate product of two.

    ``r`` is any object with attributes ``r11``, ``r22``, ``r12``.
    """
    r11, r22, r12 = complex(r.r11), complex(r.r22), complex(r.r12)
    y1, y2 = complex(y1), complex(y2)
    rho, s1, s2 = _roots(r)
    log_fact = log_factorials(n_max)
    if rho == 0:
        a_mag, a_ph = log_powers(-2 * r12, n_max)
        b_mag, b_ph = log_powers((r11 * y1 + r12 * y2) * (r12 * y1 + r22 * y2), n_max)
        c = (-math.log(2) * np.arange(n_max + 1), np.ones(n_max + 1))
    else:
        a_mag, a_ph = log_powers(-2 * r12 / rho, n_max)
        z1, z2 = (r11 * y1 + r12 * y2) / (2 * s1), (r12 * y1 + r22 * y2) / (2 * s2)
        h1_mag, h1_ph = hermite_sequence_log(z1, n_max)
        if z2 == z1.conjugate():  # H_m(z2) = conj(H_m(z1)): B = |H_m(z1)|^2 / m!^2
            b_mag, b_ph = 2 * h1_mag, h1_ph.real * h1_ph.real + h1_ph.imag * h1_ph.imag
        else:
            h2_mag, h2_ph = hermite_sequence_log(z2, n_max)
            b_mag, b_ph = h1_mag + h2_mag, h1_ph * h2_ph
        c = log_powers(rho / 2, n_max)
    return (a_mag - log_fact, a_ph), (b_mag - 2 * log_fact, b_ph), c


def hermite_2d(n: int, r, y1: complex, y2: complex) -> complex:
    """Two-index Hermite polynomial H_nn^{R}(y1, y2) as a plain complex value.

    ``r`` is any object with attributes ``r11``, ``r22``, ``r12`` (for
    example the R-matrix produced by the Gaussian-state module).  The y
    arguments are taken from the call, not from ``r``.  Only row n of
    :func:`hermite_2d_factors` is summed, in O(n).

    Raises:
        DomainError: n < 0.
        RangeOverflowError: the value exceeds the double range.
    """
    if n < 0:
        raise DomainError("hermite_2d degree must be nonnegative")
    (a_mag, a_ph), (b_mag, b_ph), (c_mag, c_ph) = hermite_2d_factors(n, r, y1, y2)
    row_mag, row_ph = _log_row_sums(
        (a_mag + b_mag[::-1])[None], (_phases(a_ph) * _phases(b_ph)[::-1])[None]
    )
    mag = row_mag + c_mag[n] + 2 * log_factorial(n)
    return complex(log_signed_values(mag, row_ph * c_ph[n])[0])


def laguerre_half_sequence(x: complex, n_max: int) -> tuple[np.ndarray, np.ndarray]:
    """L_0^{-1/2}(x) .. L_{n_max}^{-1/2}(x) as (log-magnitude, phase) arrays.

    The recurrence runs in float arithmetic for a real x, which gives real
    phases, and is rescaled past 1e250 as the module docstring describes.
    """
    if n_max < 0:
        raise DomainError("laguerre degree must be nonnegative")
    x = complex(x)
    if x.imag == 0:
        x = x.real
    raw, shifts = [1.0], [0.0]
    prev, cur = 1.0, 0.5 - x
    shift = 0.0
    for n in range(1, n_max + 1):
        raw.append(cur)
        shifts.append(shift)
        prev, cur = cur, ((2 * n + 0.5 - x) * cur - (n - 0.5) * prev) / (n + 1)
        if abs(cur) > _RESCALE_LIMIT:
            prev, cur, shift = _rescaled(prev, cur, shift)
    mag, ph = _log_signed(np.array(raw))
    return mag + shifts, ph


def laguerre_half(n: int, x: float) -> float:
    """L_n^{-1/2}(x) for real x, the last entry of :func:`laguerre_half_sequence`.

    Raises:
        DomainError: n < 0, or x is not real.
        RangeOverflowError: some L_k^{-1/2}(x), k <= n, exceeds the double range.
    """
    if complex(x).imag:
        raise DomainError(f"laguerre_half takes a real argument, got {x!r}")
    return float(log_signed_values(*laguerre_half_sequence(x, n))[-1].real)


def _legendre_columns(
    x: float, tops: dict[int, int]
) -> dict[int, list[tuple[float, float]]]:
    """Columns of P_l^m(x) for the orders m in ``tops``: column m lists
    (v, s) with P_l^m(x) = v e^s for l = m .. tops[m]; s = 0.0 and v is the
    plain recurrence's value where no carried value passed 1e250.

    One loop in m seeds every column, since the product for P_M^M passes
    through each P_m^m with m <= M; each column is then one climb in degree.

    Raises:
        RangeOverflowError: some listed value exceeds the double range.
    """
    # seeds P_m^m = (2m-1)!! |x^2-1|^{m/2}
    m_max = max(tops)
    seeds = [(1.0, 0.0)]
    cur, shift = 1.0, 0.0
    pref = abs(x * x - 1.0) ** 0.5
    for i in range(1, m_max + 1):
        cur *= (2 * i - 1) * pref
        if cur > _RESCALE_LIMIT:
            _, cur, shift = _rescaled(0.0, cur, shift)
        seeds.append((cur, shift))
    columns = {}
    for m, l_top in tops.items():
        cur, shift = seeds[m]
        column = [(cur, shift)]
        prev = 0.0
        for ll in range(m + 1, l_top + 1):
            prev, cur = cur, ((2 * ll - 1) * x * cur - (ll + m - 1) * prev) / (ll - m)
            if abs(cur) > _RESCALE_LIMIT:
                prev, cur, shift = _rescaled(prev, cur, shift)
            column.append((cur, shift))
        # a value past the double range leaves every later one non-finite
        if not (math.isfinite(cur) and math.isfinite(shift)):
            raise RangeOverflowError("legendre recurrence left the double range")
        columns[m] = column
    return columns


def _legendre_scaled(l: int, m: int, x: float) -> tuple[float, float]:
    """(v, s) with P_l^m(x) = v e^s, the last entry of :func:`_legendre_columns`."""
    if l < 0 or m < 0:
        raise DomainError("legendre indices must be nonnegative")
    if m > l:
        raise DomainError(f"legendre order m={m} exceeds degree l={l}")
    if math.isnan(x):
        raise DomainError("legendre argument is NaN")
    return _legendre_columns(x, {m: l})[m][-1]


def assoc_legendre(l: int, m: int, x: float) -> float:
    """Associated Legendre function of integer degree l and order m.

    Uses |x^2 - 1|^{m/2} d^m/dx^m P_l(x): real for every real x (including
    |x| > 1) and free of the Condon-Shortley phase.  Any quantity built from
    its square agrees with the textbook conventions.

    Raises:
        DomainError: m > l, negative indices, or a NaN x.
        RangeOverflowError: the value exceeds the double range.
    """
    value, shift = _legendre_scaled(l, m, x)
    if not (shift and value):
        return value
    log_mag = math.log(abs(value)) + shift
    if log_mag > _LOG_DBL_MAX:
        raise RangeOverflowError("legendre recurrence left the double range")
    return math.copysign(math.exp(log_mag), value)


def gauss_2f1_terminating(k: int, b: float, c: float, z: float) -> float:
    """Terminating hypergeometric sum 2F1(-k, b; c; z).

        sum_{j=0}^{k} (-k)_j (b)_j / ((c)_j j!) z^j

    For 0 <= z < 1 with c > b the alternating sum is mapped through
    (1-z)^k 2F1(-k, c-b; c; z/(z-1)) onto a series of positive terms, so
    no cancellation occurs.  Once their running total passes 1e250 (which
    z/(1-z) > 1 brings about at moderate k), part of the prefactor, a power
    (1-z)^m near 1e-250, is applied to it early, so it never overflows.
    At z = 1 with c > b the sum has the
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
        left = k  # factors of (1 - z) still to apply
        for j in range(k):
            term *= (k - j) * (c - b + j) * w / ((c + j) * (j + 1))
            total += term
            if total > _SERIES_LIMIT:
                m = min(left, math.ceil(math.log(_SERIES_LIMIT) / -math.log1p(-z)))
                scale = (1 - z) ** m
                term *= scale
                total *= scale
                left -= m
        return (1 - z) ** left * total
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
