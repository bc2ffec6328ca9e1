"""Numerically stable evaluation of the classical special functions used by the
photon-number distributions: physicists' Hermite polynomials (one- and
two-index), associated Laguerre polynomials of order -1/2, associated Legendre
functions of integer degree/order, and the terminating Gauss hypergeometric
sum.

Conventions
-----------
* Hermite: H_0 = 1, H_1 = 2z, H_{n+1} = 2 z H_n - 2 n H_{n-1}, run in its
  scaled form for h_n = s^n H_n(z/s), h_{n+1} = 2 z h_n - 2 n s^2 h_{n-1},
  which reads s only through s^2 (complex allowed) and is finite at
  s^2 = 0, where h_n = (2z)^n (`hermite_sequence_log`); s^2 = 1 gives
  H_n(z).
* Two-index Hermite H_nn^{R}(y1, y2) for a symmetric 2x2 matrix R: n!^2
  times the coefficient of (t1 t2)^n in the generating function
  exp(-t^T R t / 2 + t^T R y / sqrt(2)) (Dodonov, Man'ko & Man'ko,
  Phys. Rev. A 49, 2993 (1994)).  It factors into exp(-R12 t1 t2) and one
  Gaussian in each t, which gives the finite sum

      H_nn = n!^2 sum_k (-R12)^k / k! B[n-k],
      B[m] = 2^-m h_m(w1; R11) h_m(w2; R22) / m!^2,

  with h_m(w; s^2) = s^m H_m(w / 2s), the scaled sequence at z = w / 2,
  and the transformed displacements w1 = R11 y1 + R12 y2 and
  w2 = R12 y1 + R22 y2; the factors take w1 and w2, so the photon-number
  routes never form y (see `hermite_2d_factors`).  No root of R is taken,
  so no branch is chosen, and R11 R22 = 0 needs no case of its own (there
  h_m = w^m).  A real covariance gives R22 = conj(R11) and w2 = conj(w1),
  so h_m(w2; R22) = conj(h_m(w1; R11)) to the bit and B[m] is
  2^-m |h_m(w1; R11)|^2 / m!^2.  At w1 = w2 = 0, every centered state's,
  B has the closed form (R11 R22 / 4)^j / j!^2 at m = 2j, and 0 at odd m
  (DLMF Table 18.6.1).
* Laguerre: order alpha = -1/2 only, recurrence
  (n+1) L_{n+1} = (2n + 1/2 - x) L_n - (n - 1/2) L_{n-1}, run in its scaled
  form for M_n = a^n L_n(x/a), which is finite at a = 0, and on the
  differences M_n - a M_{n-1} (`laguerre_half_sequence`).  At x = 0 it
  has the closed form M_n = a^n (1/2)_n / n! (DLMF 18.6.1), taken from one
  cumulative product instead (`_log_half_rising`).
* Gauss 2F1(-k, 1/2; 1; z), z in [0, 2]: the coefficients of
  ((1 - u)(1 - rho u))^(-1/2), rho = 1 - z, so F_k = rho^(k/2)
  P_k((1 + rho) / (2 sqrt(rho))) with P_k Legendre's polynomial and
  |F_k| <= 1.  One sequence (`_gauss_2f1_half`), run on the differences of
  the contiguous relation in k (DLMF 15.5.11), serves the centered
  one-mode law and the two-mode total law, both P0 b^k F_k; `gauss_2f1_terminating`
  is the general pointwise sum.
* Associated Legendre: integer l >= m >= 0, real argument of any magnitude,
  defined here as |x^2 - 1|^{m/2} d^m/dx^m P_l(x) -- i.e. no Condon-Shortley
  phase and an absolute value under the half power so the result is real on
  the whole axis.  Callers that square the result are insensitive to the
  convention.

Factorial-heavy sums are assembled in the log domain and exponentiated
last; a plain double-precision path overflows near n = 170.  Every finite
double sum of the package (the Hermite and Laguerre routes, the violation
family) has the Cauchy-product shape

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
running shift.  The sequences note where the shift changes and add it back
onto the entries that carry it, after the loop (`_shifted`).  The scalars (`hermite`, `hermite_2d`, `laguerre_half`,
`assoc_legendre`) raise RangeOverflowError only past the double range.

The Legendre recurrence tabulates whole columns: one loop in m seeds
P_m^m for every order at once, and one climb in degree gives the column
P_m^m .. P_L^m, so a table of all l <= L costs O(L^2) steps
(`_legendre_columns`, whose columns come back end to end in two flat
arrays; a single value is the last entry of its column).
Arrays that depend on the length N alone are read from shared read-only
tables, not rebuilt on each call: the float ramp k = 0, 1, ... (the
kernel's tilt), the phases of real powers (all +1, and alternating +-1),
the powers of zero, the centered Hermite factor 1 / j!^2 with its phases, the
log factorials (the logs of exact integer factorials below 512,
lgamma(k + 1) past it) and the Laguerre closed form's ln((1/2)_k / k!).
Every table starts empty and grows by one rule (`_shared`): a read past
its end replaces it with a table of at least twice its length from its
builder, which computes each entry from its index alone, so an entry
never changes.  Readers get views, which the tables' own flags keep
read-only.  No table depends on a function's other arguments.

All functions are pure apart from those growths, which a concurrent caller
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

# the largest finite double, and its log: exponentiation beyond it must raise.
_DBL_MAX = 1.7976931348623157e308
_LOG_DBL_MAX = math.log(_DBL_MAX)

# Factorials below this are exact integers before their log is taken.
_LOG_FACT_EXACT = 512

# float64: a phase array of this dtype is real and is used as it is
_FLOAT = np.dtype(float)


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
    if type(ph) is np.ndarray and ph.dtype is _FLOAT:
        return ph
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
    if not (na and nb and n_rows):
        return _zero_rows(n_rows, np.result_type(a_ph, b_ph))
    # row n reads A[k] and B[n-k] for k <= n; rows past the product's end are zero
    n = min(n_rows, na + nb - 1)
    if na > n:
        a_mag, a_ph = a_mag[:n], a_ph[:n]
    if nb > n:
        b_mag, b_ph = b_mag[:n], b_ph[:n]
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
            mag, ph = _zero_rows(n_rows, np.result_type(a_ph, b_ph))
            done = np.zeros(n, dtype=bool)
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
    n = min(n_rows, len(b_mag))
    mag, ph = a_mag[0] + b_mag[:n], a_ph[0] * b_ph[:n]
    if n < n_rows:  # the rows past B's end are zero
        zero_mag, zero_ph = _zero_rows(n_rows - n, ph.dtype)
        mag, ph = np.concatenate([mag, zero_mag]), np.concatenate([ph, zero_ph])
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
    ramp = _shared("_ramp_table", n1 - 1) * _level_tilt(a_mag, b_mag, n0, n1)
    t_a, t_b = a_mag[:ka] - ramp[:ka], b_mag[:kb] - ramp[:kb]
    top_a, top_b = _top(t_a), _top(t_b)
    if not (top_a < np.inf and top_b < np.inf):
        # checked on the first span, which reads every factor: a NaN row
        # would certify under no tilt
        raise RangeOverflowError(_NOT_FINITE)
    t_a -= top_a
    t_b -= top_b
    acc = _convolve_rows(np.exp(t_a) * a_ph[:ka], np.exp(t_b) * b_ph[:kb], n0, n1)
    size = np.abs(acc)
    shift = ramp[n0:n1]
    shift += top_a + top_b
    if _bottom(size) >= _CERTIFIED:
        np.divide(acc, size, out=acc)
        np.log(size, out=size)
        size += shift
        return size, acc, None
    nz_a, nz_b = t_a > -np.inf, t_b > -np.inf
    if _bottom(t_a, where=nz_a, initial=0.0) + _bottom(t_b, where=nz_b, initial=0.0) >= _SPAN_FLOOR:
        ok = None
    else:
        ok = size >= _CERTIFIED
        ok |= ~_convolve_rows(nz_a, nz_b, n0, n1)  # no term has two nonzero factors
        if ok.all():
            ok = None
    mag, ph = _log_signed(acc)  # zeros, and complex rows down to subnormals
    mag += shift
    return mag, ph, ok


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
    top = _top(mag, initial=-np.inf)
    if not top <= _LOG_DBL_MAX:
        if math.isnan(top):
            raise RangeOverflowError("log-magnitude NaN: a value left the double range")
        raise RangeOverflowError(f"log-magnitude {top:.6g} exceeds the double range")
    values = np.exp(mag)
    if isinstance(ph, np.ndarray) and ph.dtype is _FLOAT:
        values *= ph
        return values.astype(complex)
    return (values * ph).astype(complex, copy=False)


def log_powers(z: complex, n_max: int) -> tuple[np.ndarray, np.ndarray]:
    """z**k for k = 0 .. n_max as (log-magnitude, phase) arrays, with 0**0 = 1.

    The phases of a real z are real, +-1 by the parity of k; a complex z
    gives exp(i k arg z).  The log-magnitudes are a new array; the phases
    of a real z may be a read-only view of a shared table.

    Raises:
        RangeOverflowError: z is not finite (0 ln|z| would be NaN).
    """
    z = complex(z)
    if not cmath.isfinite(z):
        raise RangeOverflowError("power base left the double range: not finite")
    if z == 0:
        return _shared("_zero_mag_table", n_max).copy(), _shared("_zero_ph_table", n_max)
    k = _shared("_ramp_table", n_max)
    mag = k * math.log(abs(z))
    if z.imag == 0:
        return mag, _shared("_alternating_table" if z.real < 0 else "_ones_table", n_max)
    return mag, np.exp(1j * cmath.phase(z) * k)


def _log_factorial_entries(size: int) -> np.ndarray:
    """ln(k!) for k below ``size``: the logs of exact integer factorials
    below 512, lgamma(k + 1) from there on."""
    table, fact = [0.0], 1
    for k in range(1, min(size, _LOG_FACT_EXACT)):
        fact *= k
        table.append(math.log(fact))
    return np.array(table + [math.lgamma(k + 1) for k in range(len(table), size)])


def _log_half_entries(size: int) -> np.ndarray:
    """ln((1/2)_k / k!) = ln(cumprod((j - 1/2) / j, j = 1 .. k)) for k below
    ``size``.  A product accumulates in order, so an entry does not depend
    on the length the table is computed to."""
    j = np.arange(1, size)
    return np.concatenate([[0.0], np.log(np.cumprod((j - 0.5) / j))])


# The builders of the shared tables: each gives entries 0 .. size - 1, every
# entry a function of its index alone (see `_shared`).
_BUILDERS = {
    "_ramp_table": lambda size: np.arange(size, dtype=float),
    # the phases of real powers, and the powers of zero
    "_ones_table": np.ones,
    "_alternating_table": lambda size: np.where(np.arange(size) % 2, -1.0, 1.0),
    "_zero_mag_table": lambda size: np.where(np.arange(size), -np.inf, 0.0),
    "_zero_ph_table": lambda size: np.where(np.arange(size), 0.0, 1.0),
    # the centered Hermite factor 1 / j!^2 at index 2j, 0 at odd indices
    "_centered_b_table": lambda size: np.where(
        np.arange(size) % 2, -np.inf, -2 * log_factorials((size - 1) // 2).repeat(2)[:size]),
    "_even_ph_table": lambda size: np.where(np.arange(size) % 2, 0.0, 1.0),
    "_log_fact_table": _log_factorial_entries,
    "_log_half_table": _log_half_entries,
}

# the shared tables, each empty until first read (see `_shared`)
_ramp_table = _ones_table = _alternating_table = _zero_mag_table = _zero_ph_table = np.empty(0)
_centered_b_table = _even_ph_table = _log_fact_table = _log_half_table = np.empty(0)


def _shared(name: str, n_max: int) -> np.ndarray:
    """Entries 0 .. n_max of the shared read-only table ``name``, the
    module attribute that holds it and the key of its builder in `_BUILDERS`.

    Where the table is shorter, it is replaced by one of at least twice its
    length from its builder, never written, so a concurrent reader holds
    either the old table or the new one, and an entry never changes.
    """
    tables = globals()
    table = tables[name]
    if n_max >= len(table):
        table = _BUILDERS[name](max(n_max + 1, 2 * len(table)))
        table.flags.writeable = False
        tables[name] = table
    return table[: n_max + 1]


def _log_half_rising(n_max: int) -> np.ndarray:
    """ln((1/2)_k / k!) for k = 0 .. n_max, a read-only view of its shared table."""
    return _shared("_log_half_table", n_max)


def log_factorial(n: int) -> float:
    """ln(n!): entry n of the table of :func:`log_factorials` below 512, and
    lgamma(n + 1), the same value as the table's, from 512 on (which does
    not grow it).

    Raises:
        TypeError: n is not an integer.
        DomainError: n < 0.
    """
    n = operator.index(n)
    if n < 0:
        raise DomainError("factorial of a negative integer")
    if n < _LOG_FACT_EXACT:
        return float(log_factorials(n)[n])
    return math.lgamma(n + 1)


def log_factorials(n_max: int) -> np.ndarray:
    """ln(k!) for k = 0 .. n_max, as a read-only view of one shared table.

    Entries below 512 are the logs of exact integer factorials, the others
    lgamma(k + 1).  The table grows on demand, so a run pays for each entry
    about twice at most.
    """
    if n_max < 0:
        raise DomainError("factorial of a negative integer")
    return _shared("_log_fact_table", n_max)


def _rescaled(prev, cur, shift: float):
    """The rescale rule: prev and cur divided by abs(cur), its log added to shift.

    Callers test abs(cur) alone: prev passed the same test one step earlier
    (the Laguerre difference is at most abs(cur) + abs(a) times that value).
    """
    peak = abs(cur)
    return prev / peak, cur / peak, shift + math.log(peak)


def _shifted(mag: np.ndarray, marks: list[tuple[int, float]]) -> np.ndarray:
    """Log-magnitudes of a rescaled recurrence with its shifts added back:
    ``marks`` lists (i, shift) where entries from i on carry that running
    shift, in increasing i.  Entries before the first rescale carry 0.0,
    and log(x) + 0.0 is log(x), so they are left as they are."""
    ends = [i for i, _ in marks[1:]] + [len(mag)]
    for (i, shift), end in zip(marks, ends):
        mag[i:end] += shift
    return mag


def hermite(n: int, z: complex) -> complex:
    """Physicists' Hermite H_n(z): the last entry of :func:`hermite_sequence_log`.

    Raises:
        DomainError: n < 0.
        RangeOverflowError: the result exceeds the double range.
    """
    mag, ph = hermite_sequence_log(z, n)
    return complex(log_signed_values(mag[-1:], ph[-1:])[0])


def hermite_sequence_log(
    z: complex, n_max: int, s2: complex = 1
) -> tuple[np.ndarray, np.ndarray]:
    """h_n = s^n H_n(z / s), n = 0 .. n_max, for s^2 = ``s2``, as
    (log-magnitude, phase) arrays; at s^2 = 1 these are H_n(z).

    h_n follows the scaled recurrence, from h_0 = 1,

        h_(n+1) = 2 z h_n - 2 n s^2 h_(n-1),

    which reads s only through s^2, so h_n is a polynomial in z and s^2:
    no root is taken, either root of s^2 gives the same h_n, and s^2 may be
    complex or 0, where h_n = (2z)^n.  One recurrence stores plain values,
    in float arithmetic for a real z and s^2, rescaled past 1e250 as the
    module docstring describes; the magnitudes are formed all at once at
    the end.  A real z and s^2 give real phases, exactly +-1, and a zero
    value (odd degree at z = 0) comes out as (-inf, 0).  Where
    |2z| + |s^2| n_max passes about 4e57 the rescale comes earlier, below
    max / (4 (|2z| + |s^2| n_max + 1)), so that no step's products leave
    the double range (they gave inf - inf = NaN for |z| near 1e154).  The
    default s^2 is the integer 1, so H_n(z) is computed in the same
    arithmetic as the unscaled recurrence.
    """
    if n_max < 0:
        raise DomainError("hermite degree must be nonnegative")
    z = complex(z)
    if z.imag == 0:
        z = z.real
    if isinstance(s2, complex) and s2.imag == 0:
        s2 = s2.real
    raw, marks = [], []
    push = raw.append
    prev, cur = 0 * z, 1 + 0 * z
    two_z, two_s2 = 2 * z, 2 * s2
    shift = 0.0
    limit = min(_RESCALE_LIMIT, _DBL_MAX / (4 * (abs(two_z) + abs(s2) * n_max + 1)))
    for k in range(n_max + 1):
        push(cur)
        prev, cur = cur, two_z * cur - two_s2 * k * prev
        if abs(cur) > limit:
            prev, cur, shift = _rescaled(prev, cur, shift)
            marks.append((k + 1, shift))
    mag, ph = _log_signed(np.array(raw))
    return _shifted(mag, marks), ph


def hermite_2d_factors(n_max: int, r, w1: complex, w2: complex):
    """Factors of the finite two-index Hermite sum for n = 0 .. n_max,

        H_nn^{R}(y1, y2) = n!^2 sum_k A[k] B[n-k],

    from the transformed displacements w1 = R11 y1 + R12 y2 and
    w2 = R12 y1 + R22 y2, as two (log-magnitude, phase) array pairs
    ``(A, B)``: A[k] = (-R12)^k / k! and

        B[m] = 2^-m h_m(w1; R11) h_m(w2; R22) / m!^2,

    with h_m(w; s^2) = s^m H_m(w / 2s) from :func:`hermite_sequence_log`
    at z = w / 2, which reads only s^2.  These are the coefficients of the
    three factors of the generating function of :func:`hermite_2d`,
    exp(-R12 t1 t2) and exp(w_i t_i / sqrt(2) - R_ii t_i^2 / 2) for
    i = 1, 2, so no root of R is taken and R11 R22 = 0 needs no case of
    its own.

    Where w1 = w2 = 0 (every centered state) B has the closed form
    H_2j(0) = (-1)^j (2j)! / j!, H_2j+1(0) = 0 (DLMF Table 18.6.1):
    B[2j] = (R11 R22 / 4)^j / j!^2 and B[2j+1] = 0, with no recurrence and
    no difference of two large logs, from the shared table of 1 / j!^2 and
    the powers of sqrt(R11 R22) / 2; only even powers enter, so either root
    gives B.  Where w2 = conj(w1) and R22 = conj(R11) otherwise (every
    state's record) h_m(w2; R22) = conj(h_m(w1; R11)) to the bit, so B
    comes from one recurrence, real, and equal to the exact conjugate
    product of two.

    ``r`` is any object with attributes ``r11``, ``r22``, ``r12``.
    """
    r11, r22 = complex(r.r11), complex(r.r22)
    log_fact = log_factorials(n_max)
    a_mag, a_ph = log_powers(-complex(r.r12), n_max)
    if w1 == 0 and w2 == 0:
        b_mag, b_ph = log_powers(cmath.sqrt(r11 * r22) / 2, n_max)
        b_mag += _shared("_centered_b_table", n_max)
        return (a_mag - log_fact, a_ph), (b_mag, b_ph * _shared("_even_ph_table", n_max))
    h1_mag, h1_ph = hermite_sequence_log(w1 / 2, n_max, r11)
    if w2 == w1.conjugate() and r22 == r11.conjugate():
        b_mag, b_ph = 2 * h1_mag, h1_ph.real * h1_ph.real + h1_ph.imag * h1_ph.imag
    else:
        h2_mag, h2_ph = hermite_sequence_log(w2 / 2, n_max, r22)
        b_mag, b_ph = h1_mag + h2_mag, h1_ph * h2_ph
    b_mag += log_powers(0.5, n_max)[0]
    return (a_mag - log_fact, a_ph), (b_mag - 2 * log_fact, b_ph)


def hermite_2d(n: int, r, y1: complex, y2: complex) -> complex:
    """Two-index Hermite polynomial H_nn^{R}(y1, y2) as a plain complex value,
    n!^2 times the coefficient of (t1 t2)^n in

        exp(-t^T R t / 2 + t^T R y / sqrt(2)).

    ``r`` is any object with attributes ``r11``, ``r22``, ``r12`` (for
    example the R-matrix produced by the Gaussian-state module).  The y
    arguments are taken from the call, not from ``r``; they enter only
    through w1 = R11 y1 + R12 y2 and w2 = R12 y1 + R22 y2, the arguments of
    :func:`hermite_2d_factors`, of which only row n is summed, in O(n).
    No root of R is taken, so the value does not depend on a branch.

    Raises:
        DomainError: n < 0.
        RangeOverflowError: the value exceeds the double range.
    """
    if n < 0:
        raise DomainError("hermite_2d degree must be nonnegative")
    (a_mag, a_ph), (b_mag, b_ph) = hermite_2d_factors(
        n, r, r.r11 * y1 + r.r12 * y2, r.r12 * y1 + r.r22 * y2
    )
    row_mag, row_ph = _log_row_sums(
        (a_mag + b_mag[::-1])[None], (_phases(a_ph) * _phases(b_ph)[::-1])[None]
    )
    return complex(log_signed_values(row_mag + 2 * log_factorial(n), row_ph)[0])


def laguerre_half_sequence(
    x: complex, n_max: int, scale: float = 1.0
) -> tuple[np.ndarray, np.ndarray]:
    """M_n = a^n L_n^{-1/2}(x / a), n = 0 .. n_max, a = ``scale``, as
    (log-magnitude, phase) arrays; at a = 1 these are L_n^{-1/2}(x).

    M_n follows the scaled recurrence, from M_0 = 1 and M_1 = a/2 - x,

        (n+1) M_{n+1} = ((2n + 1/2) a - x) M_n - (n - 1/2) a^2 M_{n-1},

    which is finite at a = 0, where M_n = (-x)^n / n!.  Its characteristic
    roots nearly coincide (a, and a (1 - 3/(2n))), so it is run on the
    differences E_n = M_n - a M_{n-1},

        (n+1) E_{n+1} = (n - 1/2) a E_n - x M_n,    M_{n+1} = a M_n + E_{n+1},

    whose rounding stays near eps: at x = -1e-3 and a = tanh 3 the
    three-term form loses 1.3e-10 relative by n = 4096, the difference form
    4.5e-15.  It
    runs in float arithmetic for a real x and a, which gives real phases,
    and is rescaled past 1e250 as the module docstring describes.

    At x = 0, where every centered state's factors lie, M_n has the closed
    form a^n (1/2)_n / n! (DLMF 18.6.1): the log-magnitudes are those of
    :func:`log_powers` plus ln(cumprod((k - 1/2) / k)), k = 1 .. n, read
    from one shared table, and the phases those of a^n.  The product lies
    in (0, 1] and decays like 1/sqrt(pi n), so it cannot underflow; its
    relative error is at most about n eps, and k ln|a| adds k eps |ln|a||
    (within 1e-14 of the largest |M_n| up to n = 4096).
    """
    if n_max < 0:
        raise DomainError("laguerre degree must be nonnegative")
    x = complex(x)
    if x.imag == 0:
        x = x.real
    if x == 0:
        mag, ph = log_powers(scale, n_max)
        mag += _log_half_rising(n_max)
        return mag, ph
    raw, marks = [1.0], []
    push = raw.append
    cur, diff = 0.5 * scale - x, -0.5 * scale - x
    shift = 0.0
    for n in range(1, n_max + 1):
        push(cur)
        diff = ((n - 0.5) * scale * diff - x * cur) / (n + 1)
        cur = scale * cur + diff
        if abs(cur) > _RESCALE_LIMIT:
            diff, cur, shift = _rescaled(diff, cur, shift)
            marks.append((n + 1, shift))
    mag, ph = _log_signed(np.array(raw))
    return _shifted(mag, marks), ph


def laguerre_half(n: int, x: float) -> float:
    """L_n^{-1/2}(x) for real x, the last entry of :func:`laguerre_half_sequence`.

    Raises:
        DomainError: n < 0, or x is not real.
        RangeOverflowError: some L_k^{-1/2}(x), k <= n, exceeds the double range.
    """
    if complex(x).imag:
        raise DomainError(f"laguerre_half takes a real argument, got {x!r}")
    return float(log_signed_values(*laguerre_half_sequence(x, n))[-1].real)


def _legendre_columns(x: float, tops: dict[int, int]) -> tuple[np.ndarray, np.ndarray]:
    """Columns of P_l^m(x) for the orders m in ``tops``, one after another
    in the order of ``tops``, as two flat arrays (v, s): column m holds
    P_l^m(x) = v e^s for l = m .. tops[m]; s = 0.0 and v is the plain
    recurrence's value where no carried value passed 1e250.

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
    values, marks = [], []
    push = values.append
    for m, l_top in tops.items():
        cur, shift = seeds[m]
        if shift != (marks[-1][1] if marks else 0.0):
            marks.append((len(values), shift))
        push(cur)
        prev = 0.0
        for ll in range(m + 1, l_top + 1):
            prev, cur = cur, ((2 * ll - 1) * x * cur - (ll + m - 1) * prev) / (ll - m)
            if abs(cur) > _RESCALE_LIMIT:
                prev, cur, shift = _rescaled(prev, cur, shift)
                marks.append((len(values), shift))
            push(cur)
        # a value past the double range leaves every later one non-finite
        if not (math.isfinite(cur) and math.isfinite(shift)):
            raise RangeOverflowError("legendre recurrence left the double range")
    return np.array(values), _shifted(np.zeros(len(values)), marks)


def _legendre_scaled(l: int, m: int, x: float) -> tuple[float, float]:
    """(v, s) with P_l^m(x) = v e^s, the last entry of :func:`_legendre_columns`."""
    if l < 0 or m < 0:
        raise DomainError("legendre indices must be nonnegative")
    if m > l:
        raise DomainError(f"legendre order m={m} exceeds degree l={l}")
    if math.isnan(x):
        raise DomainError("legendre argument is NaN")
    values, shifts = _legendre_columns(x, {m: l})
    return float(values[-1]), float(shifts[-1])


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


def _gauss_2f1_half(z: float, k_max: int) -> np.ndarray:
    """F_k = 2F1(-k, 1/2; 1; z) for k = 0 .. k_max and real z in [0, 2],
    as a float array.

    F_k is the coefficient of u^k in ((1 - u)(1 - rho u))^(-1/2), rho = 1 - z,
    so |F_k| <= 1 on [0, 2], and F_k = rho^(k/2) P_k((1 + rho) / (2 sqrt(rho)))
    with P_k Legendre's polynomial.  It follows the contiguous relation in
    the first parameter (DLMF 15.5.11)

        (k+1) F_{k+1} = (2k + 1 - (k + 1/2) z) F_k - k rho F_{k-1},

    from F_0 = 1, F_1 = 1 - z/2, whose characteristic roots are 1 and rho:
    the forward direction is stable.  It is run on the differences
    D_k = F_k - F_{k-1},

        (k+1) D_{k+1} = k rho D_k - (z/2) F_k,    F_{k+1} = F_k + D_{k+1}:

    where the roots nearly coincide (z near 0) the three-term form loses
    about k eps (1.1e-13 at k = 2048, z = 1 - 0.95/0.999).  The difference
    form is stable on all of [0, 2]: for k <= 2048 it stays within 1e-16
    (absolute) of mpmath's 2F1 at z in {0.3, 1, 1.01, 1.5, 1.99}, and the
    two-mode laws it gives within 5e-15 of 40-digit values.  It costs one
    Python step per k, with no rescale since |F_k| <= 1.

    At z = 0 (a thermal law, or the two-mode law at s1 = s2) F_k = 1
    exactly, as the recurrence keeps it, and is returned without running
    it; at z = 1 it is the Chu-Vandermonde product
    (1/2)_k / k!.  At z = 2 (rho = -1, a pure state's law) F_2m =
    (1/2)_m / m! and F_2m+1 = 0, where the recurrence leaves odd terms of a
    few eps from k = 75 on: there the closed form is taken instead, from
    `_log_half_rising`.
    """
    if z == 0:
        return np.ones(k_max + 1)
    if z == 2:
        f = np.zeros(k_max + 1)
        f[::2] = np.exp(_log_half_rising(k_max // 2))
        return f
    ratio, half_z = 1 - z, 0.5 * z
    f, d = [1.0], 0.0
    for k in range(k_max):
        d = (k * ratio * d - half_z * f[k]) / (k + 1)
        f.append(f[k] + d)
    return np.array(f)


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
        return math.prod(((c - b + j) / (c + j) for j in range(k)), start=1.0)
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
